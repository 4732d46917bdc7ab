"""Seeded input generators for the benchmark.

The benchmark draws its own netlists and graphs from ``random.Random(seed)``
instead of calling ``circuit.random_instance`` or ``dcr.random_instance``,
so a change to the library can never change what is measured.  Every
generator returns a plain spec that the oracles in ``oracles.py`` read;
its ``text()`` is what the pipeline parses.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from random import Random


@dataclass(frozen=True)
class NetSpec:
    """A NAND circuit: sources are ("x", i) or ("g", k), 1-based."""

    n: int
    gates: tuple[tuple[tuple[str, int], tuple[str, int]], ...]
    outputs: tuple[int, ...]

    def text(self) -> str:
        lines = [f"inputs {self.n}"]
        for gid, (a, b) in enumerate(self.gates, start=1):
            lines.append(f"gate {gid} NAND {a[0]}{a[1]} {b[0]}{b[1]}")
        lines.append("outputs " + " ".join(f"g{k}" for k in self.outputs))
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class GraphSpec:
    n: int
    edges: tuple[tuple[int, int], ...]

    def text(self) -> str:
        lines = [f"p edge {self.n} {len(self.edges)}"]
        lines += [f"e {u} {v}" for u, v in self.edges]
        return "\n".join(lines) + "\n"


def random_netlist(rng: Random, n: int, gate_count: int, output_count: int) -> NetSpec:
    """Random NAND DAG in which every input feeds some gate, so parsing it
    raises no 'feeds no gate' warning; drawn again until that holds."""
    while True:
        gates = []
        for gid in range(1, gate_count + 1):
            pool = [("x", i) for i in range(1, n + 1)] + [("g", k) for k in range(1, gid)]
            gates.append((rng.choice(pool), rng.choice(pool)))
        fed = {src for gate in gates for src in gate}
        if all(("x", i) in fed for i in range(1, n + 1)):
            break
    outputs = tuple(sorted(rng.sample(range(1, gate_count + 1), output_count)))
    return NetSpec(n, tuple(gates), outputs)


ODD_PRIMES = (3, 5, 7, 11, 13)


def graph_population(n: int) -> list[GraphSpec]:
    """Every graph on n <= 5 vertices with no isolated vertex, so each
    vertex's prime enters the orbit length, sorted by the sum over edges
    of p_u * p_v: the cycle length the forbidden-remainder encoding gives
    each edge, whose total is the permutation's degree."""
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    graphs = []
    for mask in range(1 << len(pairs)):
        edges = tuple(e for k, e in enumerate(pairs) if mask >> k & 1)
        if {x for e in edges for x in e} == set(range(1, n + 1)):
            graphs.append(GraphSpec(n, edges))

    def degree(g: GraphSpec) -> int:
        return sum(ODD_PRIMES[u - 1] * ODD_PRIMES[v - 1] for u, v in g.edges)

    return sorted(graphs, key=degree)


def has_k4(g: GraphSpec) -> bool:
    """On at most five vertices a graph is 3-colourable unless it contains
    K4, since every other 4-critical graph has six vertices or more."""
    edges = set(g.edges)
    return any(
        all(pair in edges for pair in combinations(quad, 2))
        for quad in combinations(range(1, g.n + 1), 4)
    )


def _slices(rng: Random, population: list[GraphSpec], count: int) -> list[GraphSpec]:
    """One graph from each of ``count`` equal slices of ``population``."""
    return [population[int((j + rng.random()) * len(population) / count)] for j in range(count)]


def stratified_graphs(rng: Random, n: int, count: int) -> list[GraphSpec]:
    """``count`` graphs in random order: 3-colourable ones and the others
    in their shares of the population, since a graph that is not
    3-colourable makes the witness search scan the whole orbit, and each
    kind drawn one from each of equal slices of it, sorted by degree.
    Every seed then covers the same mix of verdicts and spread of degrees,
    and only which graph stands for each slice varies."""
    population = graph_population(n)
    hard = [g for g in population if has_k4(g)]
    easy = [g for g in population if not has_k4(g)]
    n_hard = round(count * len(hard) / len(population))
    picks = _slices(rng, easy, count - n_hard) + _slices(rng, hard, n_hard)
    rng.shuffle(picks)
    return picks
