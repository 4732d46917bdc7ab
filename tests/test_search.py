from random import Random

import pytest

from lexperm import one_perm, search
from lexperm.bitlex import sort_key
from lexperm.circuit import random_instance
from lexperm.cnf import build_formula, local_min_solution
from lexperm.errors import FormatError, NotInGroup
from lexperm.perm import (
    GeneratorSet,
    apply_word,
    identity,
    parse_cycles,
    permute_string,
)
from lexperm.reduction import build_instance
from lexperm.search import LOCAL_OPT, STEP_CAP, is_local_min, standard_algorithm, verify_local_opt

from reference_impl import random_permutation, reference_apply_word


def _gens(*pairs):
    degree = pairs[0][1].degree
    return GeneratorSet.from_pairs(degree, list(pairs))


def test_zero_steps_at_local_opt():
    gens = _gens(("p", parse_cycles("(1 2)", 2)))
    res = standard_algorithm("01", None, gens)
    assert res.status == LOCAL_OPT
    assert res.steps == 0
    assert res.word == ()
    assert res.string == "01"


def test_figure_instance_one_step():
    p = parse_cycles("(1 2 5)(3 4)(7 8)", 8)
    res = standard_algorithm("00100001", None, _gens(("p", p)))
    assert res.status == LOCAL_OPT
    assert res.steps == 1
    assert res.word == ("p",)
    assert res.permutation == p
    assert res.string == "00010010"


def test_trace_strictly_decreases():
    rng = Random(3)
    for _ in range(100):
        n = rng.randint(2, 10)
        bits = "".join(rng.choice("01") for _ in range(n))
        gens = GeneratorSet.from_pairs(
            n, [(f"g{i}", random_permutation(rng, n)) for i in range(rng.randint(1, 3))]
        )
        res = standard_algorithm(bits, None, gens, max_steps=500)
        assert res.status == LOCAL_OPT
        keys = [sort_key(s, None) for s in res.trace]
        assert all(a > b for a, b in zip(keys, keys[1:]))
        assert is_local_min(bits, None, gens, apply_word(gens, res.word))


def test_deterministic_runs():
    rng = Random(5)
    n = 9
    bits = "".join(rng.choice("01") for _ in range(n))
    gens = GeneratorSet.from_pairs(
        n, [(f"g{i}", random_permutation(rng, n)) for i in range(3)]
    )
    first = standard_algorithm(bits, None, gens)
    second = standard_algorithm(bits, None, gens)
    assert first == second


def test_step_cap_status():
    p = parse_cycles("(1 2)", 2)
    res = standard_algorithm("10", None, _gens(("p", p)), max_steps=0)
    assert res.status == STEP_CAP
    assert res.steps == 0


def test_start_word_offsets_the_walk():
    p = parse_cycles("(1 2 3)", 3)
    res = standard_algorithm("100", None, _gens(("p", p)), start=("p",))
    assert res.word[0] == "p"
    assert res.status == LOCAL_OPT


def test_single_generator_endpoint_is_local_min_like_cycle_walk():
    # both the greedy endpoint and the cycle-walk witness are local
    # minima; the strings may legitimately differ (e.g. 001 under a
    # 3-cycle), so only local optimality is asserted for both
    rng = Random(7)
    for _ in range(200):
        n = rng.randint(2, 12)
        bits = "".join(rng.choice("01") for _ in range(n))
        p = random_permutation(rng, n)
        gens = _gens(("p", p))
        res = standard_algorithm(bits, None, gens)
        assert res.status == LOCAL_OPT
        assert search.is_local_min(bits, None, gens, res.permutation)
        wit = one_perm.local_min_one_perm(bits, p)
        assert search.is_local_min(bits, None, gens, wit.witness)


def test_verify_local_opt_with_raw_permutation():
    p = parse_cycles("(1 2 5)(3 4)(7 8)", 8)
    gens = _gens(("p", p))
    assert verify_local_opt("00100001", None, gens, perm=p)
    assert not verify_local_opt("00100001", None, gens, perm=identity(8))
    outside = parse_cycles("(1 2)", 8)
    with pytest.raises(NotInGroup):
        verify_local_opt("00100001", None, gens, perm=outside)


def test_verify_local_opt_identity_word_on_constant_string():
    gens = _gens(("p", parse_cycles("(1 2)", 2)))
    assert is_local_min("11", None, gens, apply_word(gens, ()))


def test_walk_rejects_non_bits():
    gens = _gens(("p", parse_cycles("(1 2)", 3)))
    for bits in ("1a0", "12 ", "1-0"):
        with pytest.raises(FormatError):
            standard_algorithm(bits, None, gens)


def test_result_permutation_is_the_word_replayed():
    # reduce walks and CNF walks, each from its start and from a start word
    rng = Random(2101)
    for _ in range(8):
        c = random_instance(rng, rng.randint(1, 3), rng.randint(1, 4), 1)
        inst, f = build_instance(c), build_formula(c)
        walks = [(inst.y_start, inst.order, inst.gens), (f.initial, f.priority, f.symmetries)]
        for bits, order, gens in walks:
            start = [rng.choice(gens.names) for _ in range(rng.randint(1, 30))]
            results = [standard_algorithm(bits, order, gens), standard_algorithm(bits, order, gens, start=start)]
            if gens is f.symmetries:
                results.append(local_min_solution(f))
            for res in results:
                assert res.permutation == apply_word(gens, res.word) == reference_apply_word(gens, res.word)
                assert permute_string(bits, res.permutation) == res.string
