"""The four benchmark workloads.

Each workload mirrors one CLI pipeline through the library's public
functions.  ``run`` is the timed pipeline: it opens a span around every
call it makes into a layer, named ``<module>.<stage>``.  ``check`` is the
correctness gate, run outside the timed region against the oracles in
``oracles.py``.  ``digest`` is the byte record of the outputs that must
stay identical from commit to commit, and ``counts`` are the work counts
reported per layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from random import Random
from typing import Any, Callable, ContextManager

from lexperm import circuit, cnf, dcr, one_perm, perm, reduction, search

import oracles
from inputs import random_netlist, stratified_graphs

Span = Callable[[str], ContextManager[Any]]


@dataclass(frozen=True)
class Case:
    spec: Any
    text: str
    extra: tuple = ()


def _walk_problems(start, order, gens, res) -> list[str]:
    images = {name: p.image for name, p in gens}
    return oracles.walk_problems(
        start, order.rank, images, res.word, res.string, res.steps, res.status, res.trace
    )


def _walk_digest(res) -> list[str]:
    return [" ".join(res.word), res.string, str(res.steps), res.status]


class ReduceWalk:
    """``reduce build | reduce search | reduce map`` and ``flip check`` on
    circuits shaped like the first rung of the ROADMAP ladder."""

    name = "reduce-walk"
    shape = "NAND circuits n=4 G=8 m=3 (N=390 positions, K=44 generators)"

    def corpus(self, rng: Random, size: int) -> list[Case]:
        return [Case(net, net.text()) for net in (random_netlist(rng, 4, 8, 3) for _ in range(size))]

    def run(self, case: Case, span: Span) -> dict:
        with span("circuit.parse"):
            c = circuit.parse_netlist(case.text)
        with span("reduction.build"):
            inst = reduction.build_instance(c)
        with span("reduction.format"):
            text = reduction.format_instance(inst)
        with span("reduction.parse"):
            inst = reduction.parse_instance(text)
        with span("search.walk"):
            res = search.standard_algorithm(inst.y_start, inst.order, inst.gens, keep_trace=True)
        with span("reduction.map"):
            x = reduction.map_solution(inst, res.word)
        with span("circuit.check"):
            improving = circuit.flip_local_check(c, x)
        return {"inst": inst, "text": text, "res": res, "x": x, "improving": improving}

    def check(self, case: Case, out: dict) -> list[str]:
        inst = out["inst"]
        problems = _walk_problems(inst.y_start, inst.order, inst.gens, out["res"])
        problems += oracles.flip_local_min_problems(case.spec, out["x"])
        if out["improving"] is not None:
            problems.append(f"flip_local_check finds improving bit {out['improving']}")
        return problems

    def digest(self, out: dict) -> list[str]:
        return [out["text"], *_walk_digest(out["res"]), out["x"]]

    def counts(self, out: dict) -> dict[str, int]:
        inst, res = out["inst"], out["res"]
        return {
            "search.steps": res.steps,
            "search.candidates": (res.steps + 1) * len(inst.gens),
            "search.trace_chars": len(res.trace) * inst.num_positions,
            "reduction.instance_bytes": len(out["text"]),
        }


class CnfSymmetry:
    """``cnf build``, ``cnf check-sym`` and ``cnf localmin``, then the
    decoded input through ``flip check``."""

    name = "cnf-symmetry"
    shape = "NAND circuits n=3 G=6 m=2 (V=264 variables, 1104 clauses, K=27)"

    def corpus(self, rng: Random, size: int) -> list[Case]:
        return [Case(net, net.text()) for net in (random_netlist(rng, 3, 6, 2) for _ in range(size))]

    def run(self, case: Case, span: Span) -> dict:
        with span("circuit.parse"):
            c = circuit.parse_netlist(case.text)
        with span("cnf.build"):
            f = cnf.build_formula(c)
        with span("cnf.format"):
            text = cnf.format_dimacs(f)
        with span("cnf.parse"):
            f = cnf.parse_dimacs(text)
        verdicts = []
        for _, p in f.symmetries:
            with span("cnf.check_symmetry"):
                verdicts.append(cnf.check_symmetry(f, p))
        with span("cnf.local_min"):
            res = cnf.local_min_solution(f)
        with span("cnf.decode"):
            x = cnf.decode_input(f, res.string)
        with span("circuit.check"):
            improving = circuit.flip_local_check(c, x)
        return {"f": f, "text": text, "verdicts": verdicts, "res": res, "x": x, "improving": improving}

    def check(self, case: Case, out: dict) -> list[str]:
        f, res = out["f"], out["res"]
        problems = [
            f"generator {name} is reported as no symmetry"
            for (name, _), ok in zip(f.symmetries, out["verdicts"])
            if not ok
        ]
        for label, assignment in (("start", f.initial), ("endpoint", res.string)):
            bad = oracles.unsatisfied_clause(f.clauses, assignment)
            if bad is not None:
                problems.append(f"{label} falsifies clause {bad + 1}")
        problems += _walk_problems(f.initial, f.priority, f.symmetries, res)
        problems += oracles.flip_local_min_problems(case.spec, out["x"])
        if out["improving"] is not None:
            problems.append(f"flip_local_check finds improving bit {out['improving']}")
        return problems

    def digest(self, out: dict) -> list[str]:
        verdicts = "".join("1" if ok else "0" for ok in out["verdicts"])
        return [out["text"], verdicts, *_walk_digest(out["res"]), out["x"]]

    def counts(self, out: dict) -> dict[str, int]:
        f, res = out["f"], out["res"]
        k = len(f.symmetries)
        return {
            "cnf.clause_maps": len(f.clauses) * k,
            "cnf.dimacs_bytes": len(out["text"]),
            "cnf.descent_steps": res.steps,
            "cnf.descent_candidates": (res.steps + 1) * k,
        }


class ChainVerify:
    """``search`` followed by raw-permutation verification and membership
    of a probe known to lie outside the group."""

    name = "chain-verify"
    shape = "NAND circuits n=2 G=2..4 m=1..2 (N=66..120 positions, group orders 768..49152)"

    def corpus(self, rng: Random, size: int) -> list[Case]:
        cases = []
        for i in range(size):
            # Gate counts repeat 2, 3, 2, 3, 4 so that every corpus holds the
            # same mix of group orders (768, 6144, 49152), the largest fifth
            # sets the p90, and the first (warm-up) case is the smallest.
            gates = (2, 3, 2, 3, 4)[i % 5]
            net = random_netlist(rng, 2, gates, 1 + (i // 5) % 2)
            cases.append(Case(net, net.text(), (rng.random(), rng.random())))
        return cases

    def run(self, case: Case, span: Span) -> dict:
        with span("circuit.parse"):
            c = circuit.parse_netlist(case.text)
        with span("reduction.build"):
            inst = reduction.build_instance(c)
        with span("search.walk"):
            res = search.standard_algorithm(inst.y_start, inst.order, inst.gens)
        with span("search.verify_perm"):
            member_opt = search.verify_local_opt(
                inst.y_start, inst.order, inst.gens, perm=res.permutation
            )
        i, j = oracles.probe_transposition(inst.y_start, *case.extra)
        image = list(range(1, inst.num_positions + 1))
        image[i - 1], image[j - 1] = j, i
        with span("perm.probe"):
            probe = perm.Permutation(tuple(image))
        with span("perm.membership"):
            probe_in = perm.membership(inst.gens, probe)
        return {"inst": inst, "res": res, "member_opt": member_opt, "probe": probe, "probe_in": probe_in}

    def check(self, case: Case, out: dict) -> list[str]:
        inst = out["inst"]
        problems = _walk_problems(inst.y_start, inst.order, inst.gens, out["res"])
        if not out["member_opt"]:
            problems.append("walk endpoint permutation is rejected as a local optimum")
        if out["probe_in"]:
            problems.append("probe is accepted as a member")
        if oracles.twin_violation(inst.y_start) is not None:
            problems.append("start string breaks a twin pair")
        if oracles.twin_violation(oracles.act(inst.y_start, out["probe"].image)) is None:
            problems.append("probe keeps every twin pair, so it is no certain non-member")
        return problems

    def digest(self, out: dict) -> list[str]:
        probe = "".join(f"({a} {b})" for a, b in enumerate(out["probe"].image, 1) if a < b)
        return [*_walk_digest(out["res"]), str(out["member_opt"]), probe, str(out["probe_in"])]

    def counts(self, out: dict) -> dict[str, int]:
        inst, res = out["inst"], out["res"]
        return {
            "search.steps": res.steps,
            "search.candidates": (res.steps + 1) * len(inst.gens),
            "search.trace_chars": len(res.trace) * inst.num_positions,
            "perm.membership_calls": 2,
        }


class DcrOrbit:
    """``dcr from-graph``, ``dcr to-perm``, ``one-perm`` and ``orbit-min``
    on random graphs, with the orbit scan in forbidden-first order."""

    name = "dcr-orbit"
    shape = "graphs on 4 and 5 vertices (degree 35..574, orbit length up to 15015)"

    def corpus(self, rng: Random, size: int) -> list[Case]:
        # Every fifth graph has five vertices, so each corpus holds the same
        # share of the long (15015-element) orbits and the p90 falls among
        # them; both kinds are stratified by degree, which sets the cost of
        # the orbit scan.
        large = stratified_graphs(rng, 5, size // 5)
        small = stratified_graphs(rng, 4, size - len(large))
        graphs = [large.pop() if i % 5 == 4 else small.pop() for i in range(size)]
        return [Case(g, g.text()) for g in graphs]

    def run(self, case: Case, span: Span) -> dict:
        with span("dcr.parse"):
            g = dcr.parse_graph(case.text)
        with span("dcr.encode"):
            system, primes = dcr.coloring_to_dcr(g)
        with span("dcr.encode"):
            gm = dcr.dcr_to_globalmin1(system)
        with span("one_perm.local_min"):
            local = one_perm.local_min_one_perm(gm.start, gm.perm)
        with span("dcr.witness"):
            witness = dcr.zero_forbidden_witness(gm)
        with span("one_perm.orbit_min"):
            t_min, s_min = one_perm.orbit_min_one_perm(gm.start, gm.perm, order=gm.order)
        return {
            "system": system, "primes": primes, "degree": gm.perm.degree, "local": local,
            "witness": witness, "t_min": t_min, "s_min": s_min,
        }

    def check(self, case: Case, out: dict) -> list[str]:
        system = out["system"]
        cons = system.constraints
        colorable = dcr.three_colorable_bruteforce(dcr.Graph(case.spec.n, case.spec.edges))
        smallest = dcr.solve_bruteforce(system)
        witness, t_min = out["witness"], out["t_min"]
        problems = []
        if (smallest is not None) != colorable:
            problems.append("solve_bruteforce disagrees with three_colorable_bruteforce")
        if witness != smallest:
            problems.append(f"orbit witness {witness} differs from smallest solution {smallest}")
        if witness is not None:
            if not oracles.is_solution(cons, witness):
                problems.append(f"witness {witness} hits a forbidden remainder")
            problems += oracles.coloring_problems(case.spec, out["primes"], witness)
        k = out["local"].exponent
        if oracles.orbit_string(cons, k + 1) < oracles.orbit_string(cons, k):
            problems.append(f"exponent {k} is improved by one more step")
        if not 0 <= t_min < lcm(*(m for m, _ in cons)):
            problems.append(f"orbit minimum exponent {t_min} is outside the orbit")
        if out["s_min"] != oracles.orbit_string(cons, t_min):
            problems.append(f"orbit minimum string is not start . p^{t_min}")
        if oracles.is_solution(cons, t_min) != colorable:
            problems.append("orbit minimum's forbidden positions disagree with colorability")
        return problems

    def digest(self, out: dict) -> list[str]:
        local = out["local"]
        system = " ".join(f"{m}:{','.join(map(str, sorted(f)))}" for m, f in out["system"].constraints)
        return [
            system, str(local.exponent), str(local.cycle_id), str(out["witness"]),
            str(out["t_min"]), out["s_min"],
        ]

    def counts(self, out: dict) -> dict[str, int]:
        orbit = lcm(*(m for m, _ in out["system"].constraints))
        witness = out["witness"]
        return {
            "dcr.witness_steps": orbit if witness is None else witness + 1,
            "one_perm.orbit_positions": orbit * out["degree"],
        }


WORKLOADS = {w.name: w for w in (ReduceWalk(), CnfSymmetry(), ChainVerify(), DcrOrbit())}
