"""Correctness oracles written for the benchmark alone.

None of these call the library functions the benchmark times; they read
the pipeline's outputs and the benchmark's own input specs.  Each check
returns a list of problems, empty when the output is certified.
"""

from __future__ import annotations

from typing import Sequence

from inputs import GraphSpec, NetSpec


def nand_outputs(net: NetSpec, x: str) -> str:
    """Circuit outputs for input bits x, most significant first."""
    values: list[int] = []
    for a, b in net.gates:
        va = int(x[a[1] - 1]) if a[0] == "x" else values[a[1] - 1]
        vb = int(x[b[1] - 1]) if b[0] == "x" else values[b[1] - 1]
        values.append(1 - (va & vb))
    return "".join(str(values[k - 1]) for k in net.outputs)


def flip_local_min_problems(net: NetSpec, x: str) -> list[str]:
    """x must be an n-bit input that no single bit flip improves."""
    if len(x) != net.n or x.strip("01"):
        return [f"mapped input {x!r} is not {net.n} bits"]
    base = nand_outputs(net, x)
    for j in range(net.n):
        y = x[:j] + ("1" if x[j] == "0" else "0") + x[j + 1:]
        if nand_outputs(net, y) < base:
            return [f"input {x} is not a FLIP local minimum: flipping bit {j + 1} improves it"]
    return []


def act(x: str, image: Sequence[int]) -> str:
    """x . p with (x . p)(i) = x(p(i))."""
    return "".join(x[v - 1] for v in image)


def priority_key(x: str, rank: Sequence[int]) -> str:
    """x read most significant position first; string order is the cost."""
    return "".join(x[r - 1] for r in rank)


def walk_problems(
    start: str,
    rank: Sequence[int],
    images: dict[str, Sequence[int]],
    word: Sequence[str],
    string: str,
    steps: int,
    status: str,
    trace: Sequence[str],
) -> list[str]:
    """Replay the walk word from the start string with the generator
    images, and require: each trace entry is the replayed string, the cost
    strictly descends, the endpoint is the reported string, and no single
    generator improves the endpoint."""
    if status != "local_opt":
        return [f"walk ended with status {status!r}"]
    if not (len(word) == steps == len(trace) - 1):
        return [f"word length {len(word)}, steps {steps}, trace length {len(trace)} disagree"]
    cur = start
    key = priority_key(cur, rank)
    if trace[0] != cur:
        return ["trace does not begin at the start string"]
    for k, name in enumerate(word):
        if name not in images:
            return [f"step {k + 1}: unknown generator {name!r}"]
        cur = act(cur, images[name])
        if trace[k + 1] != cur:
            return [f"step {k + 1}: trace entry is not the replayed string"]
        nxt = priority_key(cur, rank)
        if not nxt < key:
            return [f"step {k + 1}: cost does not strictly descend"]
        key = nxt
    if cur != string:
        return ["replayed endpoint differs from the reported string"]
    for name, image in images.items():
        if priority_key(act(cur, image), rank) < key:
            return [f"endpoint is improved by {name}"]
    return []


def unsatisfied_clause(clauses: Sequence[Sequence[int]], assignment: str) -> int | None:
    """Index of the first clause the assignment falsifies, or None."""
    for idx, clause in enumerate(clauses):
        if not any((assignment[abs(l) - 1] == "1") == (l > 0) for l in clause):
            return idx
    return None


def twin_violation(y: str) -> int | None:
    """First twin pair (1-based index of its first position) whose two
    positions hold equal bits, or None when every pair is complementary."""
    for i in range(0, len(y), 2):
        if y[i] == y[i + 1]:
            return i + 1
    return None


def probe_transposition(y_start: str, u1: float, u2: float) -> tuple[int, int]:
    """Two positions from different twin pairs holding different bits.

    Pair a is picked by u1 and pair b != a by u2; the probe takes the first
    position of pair a and whichever position of pair b disagrees with it.
    Swapping them leaves pair a holding two equal bits.
    """
    pairs = len(y_start) // 2
    a = int(u1 * pairs)
    b = (a + 1 + int(u2 * (pairs - 1))) % pairs
    i = 2 * a + 1
    j = 2 * b + 1 if y_start[2 * b] != y_start[i - 1] else 2 * b + 2
    return i, j


def orbit_string(constraints: Sequence[tuple[int, frozenset[int]]], t: int) -> str:
    """start . p^t of the one-permutation instance: one block per
    constraint, its single 1 at label t mod m."""
    return "".join(
        "".join("1" if label == t % m else "0" for label in range(m))
        for m, _ in constraints
    )


def is_solution(constraints: Sequence[tuple[int, frozenset[int]]], t: int) -> bool:
    return all(t % m not in forbidden for m, forbidden in constraints)


def coloring_problems(graph: GraphSpec, primes: Sequence[int], t: int) -> list[str]:
    """Color vertex i by t mod p_i (0, 1, or >= 2) and require every edge
    to join two colors that differ."""
    colors = [min(t % p, 2) for p in primes]
    bad = [(u, v) for u, v in graph.edges if colors[u - 1] == colors[v - 1]]
    return [f"t={t} colors edge {bad[0]} with one color"] if bad else []
