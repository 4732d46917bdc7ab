"""Desk-scale verification suite: every pipeline cross-checked against an
independent brute-force oracle.

Each check is a plain function that raises AssertionError with a message
on failure and returns a short summary on success; ``test_acceptance.py``
runs every entry of ``CHECKS``.
"""

from __future__ import annotations

import itertools
import time
from random import Random
from typing import Callable

from lexperm import bitlex, circuit, cnf, dcr, one_perm, perm, reduction, search
from lexperm.bitlex import sort_key
from lexperm.perm import GeneratorSet, Permutation

from reference_impl import (
    compare,
    condense,
    condensed_order,
    cost_integer,
    enumerate_group,
    enumerate_models,
    is_correct,
    is_proper_coloring,
    orbit_of_string,
    random_dcr_instance,
    random_permutation,
)


def _random_circuit(rng: Random, max_inputs: int = 4, max_gates: int = 8,
                    max_outputs: int = 3) -> circuit.FlipInstance:
    n = rng.randint(1, max_inputs)
    gates = rng.randint(1, max_gates)
    outputs = rng.randint(1, min(max_outputs, gates))
    return circuit.random_instance(rng, n, gates, outputs)


def _single_gen(p: Permutation, name: str = "p") -> GeneratorSet:
    return GeneratorSet(p.degree, (name,), (p,))


def check_one_perm(seed: int = 0) -> str:
    t0 = time.perf_counter()
    p = perm.parse_cycles("(1 2 5)(3 4)(7 8)", 8)
    res = one_perm.local_min_one_perm("00100001", p)
    assert res.exponent == 1 and res.cycle_id == 3, f"got k={res.exponent}, cycle={res.cycle_id}"
    assert bitlex.is_local_min("00100001", None, _single_gen(p), res.witness)

    rng = Random(101 + seed)
    for trial in range(500):
        n = rng.randint(2, 14)
        bits = "".join(rng.choice("01") for _ in range(n))
        p = random_permutation(rng, n)
        res = one_perm.local_min_one_perm(bits, p)
        gens = _single_gen(p)
        assert bitlex.is_local_min(bits, None, gens, res.witness), f"trial {trial}"
        here = perm.permute_string(bits, res.witness)
        nxt = perm.permute_string(here, p)
        assert here <= nxt, f"trial {trial}: witness not at a descent boundary"
        limit = n if res.cycle_id is None else res.cycle_id - 1
        s = bits
        for _ in range(perm.perm_order(p)):
            s = perm.permute_string(s, p)
            assert s[:limit] == bits[:limit], f"trial {trial}: prefix moved in orbit"
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"took {elapsed:.2f}s, bound is 1s"
    return f"figure example plus 500 random instances in {elapsed:.2f}s"


def _all_graphs(n: int):
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    for mask in range(2 ** len(pairs)):
        edges = tuple(e for i, e in enumerate(pairs) if mask >> i & 1)
        yield dcr.Graph(n, edges)


def _random_graph(rng: Random, n: int) -> dcr.Graph:
    edges = tuple(
        e for e in itertools.combinations(range(1, n + 1), 2) if rng.random() < 0.5
    )
    return dcr.Graph(n, edges)


def _graph_pipeline_agrees(g: dcr.Graph) -> bool:
    colorable = dcr.three_colorable_bruteforce(g)
    inst, _ = dcr.coloring_to_dcr(g)
    t = dcr.solve_bruteforce(inst, cap=10**6)
    gm = dcr.dcr_to_globalmin1(inst)
    w = dcr.zero_forbidden_witness(gm, cap=10**6)
    return colorable == (t is not None) == (w is not None)


def check_coloring_equivalence(seed: int = 0) -> str:
    t0 = time.perf_counter()
    count = 0
    for n in range(1, 5):
        for g in _all_graphs(n):
            assert _graph_pipeline_agrees(g), f"disagreement on {g}"
            count += 1
    rng = Random(202 + seed)
    for _ in range(20):
        g = _random_graph(rng, 5)
        assert _graph_pipeline_agrees(g), f"disagreement on {g}"
        count += 1
    k3 = dcr.Graph(3, ((1, 2), (1, 3), (2, 3)))
    k4 = dcr.Graph(4, tuple(itertools.combinations(range(1, 5), 2)))
    assert dcr.solve_bruteforce(dcr.coloring_to_dcr(k3)[0]) is not None, "K3 must solve"
    assert dcr.solve_bruteforce(dcr.coloring_to_dcr(k4)[0]) is None, "K4 must not solve"
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"took {elapsed:.2f}s, bound is 30s"
    return f"{count} graphs, three-way agreement, in {elapsed:.2f}s"


def check_dcr_decode(seed: int = 0) -> str:
    t0 = time.perf_counter()
    rng = Random(303 + seed)
    decoded = 0
    for n in (3, 4):
        for g in _all_graphs(n):
            inst, primes = dcr.coloring_to_dcr(g)
            t = dcr.solve_bruteforce(inst)
            if t is not None:
                colors = dcr.decode_coloring(t, primes)
                assert is_proper_coloring(g, colors), f"bad coloring for {g}"
                decoded += 1
    for trial in range(200):
        inst = random_dcr_instance(rng)
        t = dcr.solve_bruteforce(inst)
        w = dcr.zero_forbidden_witness(dcr.dcr_to_globalmin1(inst))
        assert t == w, f"trial {trial}: solver says {t}, orbit scan says {w}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"took {elapsed:.2f}s, bound is 10s"
    return f"{decoded} witnesses decoded, 200 random systems agree, in {elapsed:.2f}s"


def check_gate_gadget(seed: int = 0) -> str:
    for a1, a2, b in itertools.product((0, 1), repeat=3):
        state = reduction.GateState(a1, a2, b)
        labels = reduction.encode_gate_state(state)
        assert sum(labels) in (1, 3)
        assert reduction.decode_gate_state(labels) == state
        assert is_correct(state) == (labels[3] == 0), f"control bit wrong for {state}"
    rejected = sum(
        1
        for labels in itertools.product((0, 1), repeat=4)
        if reduction.decode_gate_state(labels) is None
    )
    assert rejected == 8, "exactly the even-weight labelings encode nothing"
    return "all 8 states round-trip; correctness equals a zero control bit"


def check_well_behaved_closure(seed: int = 0) -> str:
    t0 = time.perf_counter()
    rng = Random(505 + seed)
    for trial in range(100):
        c = _random_circuit(rng)
        inst = reduction.build_instance(c)
        for name, g in inst.gens:
            assert perm.compose(g, g).is_identity(), f"trial {trial}: {name} not an involution"
        assert reduction.is_well_behaved(inst, inst.y_start), f"trial {trial}: start"
        for w in range(100):
            word = [rng.choice(inst.gens.names) for _ in range(rng.randint(0, 10))]
            y = perm.apply_word_to_string(inst.gens, inst.y_start, word)
            report = reduction.is_well_behaved(inst, y)
            assert report, f"trial {trial} word {w}: {report.violation}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"took {elapsed:.2f}s, bound is 60s"
    return f"100 circuits x 100 words stay well-behaved, in {elapsed:.2f}s"


def _minimal_instance() -> reduction.ReducedInstance:
    c = circuit.FlipInstance(1, ((("x", 1), ("x", 1)),), (1,))
    return reduction.build_instance(c)


def check_orbit_characterization(seed: int = 0) -> str:
    inst = _minimal_instance()
    orbit = orbit_of_string(inst.gens, inst.y_start, cap=1000)
    behaved = set()
    for mask in range(2 ** len(inst.condensed)):
        cond = format(mask, f"0{len(inst.condensed)}b")
        y = reduction.expand(cond)
        if reduction.is_well_behaved(inst, y):
            behaved.add(y)
    assert len(orbit) == 8, f"orbit has {len(orbit)} elements"
    assert orbit == behaved, "orbit differs from the enumerated well-behaved set"
    return "minimal instance: orbit = well-behaved set, 8 elements"


def check_end_to_end(seed: int = 0) -> str:
    t0 = time.perf_counter()
    rng = Random(707 + seed)
    for trial in range(100):
        c = _random_circuit(rng)
        inst = reduction.build_instance(c)
        res = search.standard_algorithm(
            inst.y_start, inst.order, inst.gens, max_steps=10**5
        )
        assert res.status == search.LOCAL_OPT, f"trial {trial}: hit the step cap"
        keys = [sort_key(s, inst.order) for s in res.trace]
        assert all(a > b for a, b in zip(keys, keys[1:])), f"trial {trial}: trace not decreasing"
        x = reduction.map_solution(inst, res.word)
        j = circuit.flip_local_check(c, x)
        assert j is None, f"trial {trial}: endpoint input improvable at bit {j}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"took {elapsed:.2f}s, bound is 300s"
    return f"100/100 walks reach certified local minima, in {elapsed:.2f}s"


def check_embedding(seed: int = 0) -> str:
    rng = Random(808 + seed)
    total = 0
    for n in range(1, 5):
        c = circuit.random_instance(rng, n, max(2, n), min(2, max(2, n)))
        inst = reduction.build_instance(c)
        for mask in range(2**n):
            target = format(mask, f"0{n}b")
            word = reduction.embed_flip_solution(inst, target)
            assert len(word) <= n, f"word longer than n for {target}"
            assert reduction.map_solution(inst, word) == target
            total += 1
    return f"{total} solution embeddings round-trip exactly"


def check_view_equivalence(seed: int = 0) -> str:
    rng = Random(909 + seed)
    samples = 0
    while samples < 1000:
        c = _random_circuit(rng, max_inputs=3, max_gates=5, max_outputs=2)
        inst = reduction.build_instance(c)
        cond_order = condensed_order(inst)
        for _ in range(50):
            word = [rng.choice(inst.gens.names) for _ in range(rng.randint(0, 8))]
            y = perm.apply_word_to_string(inst.gens, inst.y_start, word)
            y_cond = condense(y)
            key_exp = sort_key(y, inst.order)
            key_cond = sort_key(y_cond, cond_order)
            exp_min = True
            cond_min = True
            for _, g in inst.gens:
                y2 = perm.permute_string(y, g)
                if sort_key(y2, inst.order) < key_exp:
                    exp_min = False
                if sort_key(condense(y2), cond_order) < key_cond:
                    cond_min = False
            assert exp_min == cond_min, "local-optimality differs between views"
            samples += 1
            if samples >= 1000:
                break
    return "1000 samples: condensed and expanded optimality agree"


def check_cnf(seed: int = 0) -> str:
    rng = Random(1010 + seed)
    inst = _minimal_instance()
    f = cnf.build_formula(inst.circuit)
    assert f.num_vars == 24, f"{f.num_vars} variables"
    assert f.initial is not None and cnf.satisfies(f, f.initial), "initial assignment fails"

    t0 = time.perf_counter()
    models = set(enumerate_models(f))
    sat_elapsed = time.perf_counter() - t0
    assert sat_elapsed < 120.0, f"model enumeration took {sat_elapsed:.2f}s"

    behaved_models = set()
    for mask in range(2 ** len(inst.condensed)):
        cond = format(mask, f"0{len(inst.condensed)}b")
        if reduction.is_well_behaved(inst, reduction.expand(cond)):
            behaved_models.add(_model_from_condensed(inst, cond))
    assert models == behaved_models, (
        f"sat set ({len(models)}) differs from well-behaved set ({len(behaved_models)})"
    )

    for trial in range(8):
        c = _random_circuit(rng) if trial else circuit.random_instance(rng, 4, 8, 3)
        fc = cnf.build_formula(c)
        for name, p in fc.symmetries:
            assert cnf.check_symmetry(fc, p), f"trial {trial}: {name} is not a symmetry"
    broken = perm.parse_cycles("(1 3)", f.num_vars)
    assert not cnf.check_symmetry(f, broken), "a random transposition must break the formula"

    for trial in range(50):
        c = _random_circuit(rng, max_inputs=3, max_gates=6, max_outputs=2)
        fc = cnf.build_formula(c)
        res = cnf.local_min_solution(fc, max_steps=10**5)
        assert res.status == search.LOCAL_OPT, f"trial {trial}: step cap"
        assert cnf.satisfies(fc, res.string), f"trial {trial}: endpoint unsat"
        x = cnf.decode_input(fc, res.string)
        j = circuit.flip_local_check(c, x)
        assert j is None, f"trial {trial}: decoded input improvable at bit {j}"
    return (
        f"sat set = well-behaved set ({len(models)} models, {sat_elapsed:.2f}s); "
        "symmetries verified; 50 descents certified"
    )


def _model_from_condensed(inst: reduction.ReducedInstance, cond: str) -> str:
    """Translate a condensed well-behaved assignment of build_instance(c)
    into the CNF variable space of build_formula(c): decode the copy-0
    input and each gadget's output bit, then re-assemble."""
    decoded = inst.layout.decode(cond)
    assert decoded is not None
    return reduction.expand(reduction.Layout(inst.circuit, gate_var=True).assemble(*decoded))


def check_membership(seed: int = 0) -> str:
    rng = Random(1111 + seed)
    for trial in range(200):
        degree = rng.randint(2, 7)
        k = rng.randint(1, 3)
        gens = GeneratorSet.from_pairs(
            degree,
            [(f"g{i}", random_permutation(rng, degree)) for i in range(k)],
        )
        closure = enumerate_group(gens, cap=6000)
        chain = perm.StabilizerChain.from_generators(gens)
        assert chain.order() == len(closure), f"trial {trial}: order mismatch"
        sample = list(closure)
        if len(sample) > 200:
            sample = rng.sample(sample, 200)
        for q in sample:
            assert chain.contains(q), f"trial {trial}: member rejected"
        for _ in range(20):
            q = random_permutation(rng, degree)
            assert chain.contains(q) == (q in closure), f"trial {trial}: verdict differs"
    return "200 random generator sets: chain agrees with exhaustive closure"


def check_cost_consistency(seed: int = 0) -> str:
    rng = Random(1212 + seed)
    for trial in range(10**4):
        n = rng.randint(1, 20)
        x = "".join(rng.choice("01") for _ in range(n))
        y = "".join(rng.choice("01") for _ in range(n))
        order = bitlex.PriorityOrder(random_permutation(rng, n).image)
        cmp_result = compare(x, y, order)
        cx, cy = cost_integer(x, order), cost_integer(y, order)
        assert cmp_result == (cx > cy) - (cx < cy), f"trial {trial}: orders disagree"
    return "10^4 random pairs: compare matches the integer cost"


CHECKS: tuple[tuple[str, Callable[[int], str]], ...] = (
    ("criterion-01-one-perm", check_one_perm),
    ("criterion-02-coloring-equivalence", check_coloring_equivalence),
    ("criterion-03-dcr-decode", check_dcr_decode),
    ("criterion-04-gate-gadget", check_gate_gadget),
    ("criterion-05-well-behaved-closure", check_well_behaved_closure),
    ("criterion-06-orbit-characterization", check_orbit_characterization),
    ("criterion-07-end-to-end", check_end_to_end),
    ("criterion-08-embedding", check_embedding),
    ("criterion-09-view-equivalence", check_view_equivalence),
    ("criterion-10-cnf", check_cnf),
    ("criterion-11-membership", check_membership),
    ("criterion-12-cost-consistency", check_cost_consistency),
)
