"""Forbidden-remainder systems and their two reductions.

A constraint system asks for t avoiding a forbidden set of remainders
modulo each m_i.  Graph 3-coloring reduces into such systems via products
of distinct odd primes, and any system reduces onward to globally
minimizing a bitstring under the powers of a single permutation: one
cycle per constraint, one 1 per cycle, forbidden labels ranked first.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .bitlex import PriorityOrder, read_decimal
from .errors import FormatError, LcmCapExceeded, OrderCapExceeded, PrimeCapExceeded
from .perm import Permutation, inverse, perm_order


@dataclass(frozen=True, slots=True)
class DcrInstance:
    """Constraints (modulus, forbidden remainders); moduli need not be
    pairwise coprime."""

    constraints: tuple[tuple[int, frozenset[int]], ...]

    def __post_init__(self):
        for m, forbidden in self.constraints:
            if m < 1:
                raise ValueError(f"modulus {m} is not positive")
            if any(not 0 <= s < m for s in forbidden):
                raise ValueError(f"forbidden remainder outside 0..{m - 1}")

    @property
    def lcm(self) -> int:
        out = 1
        for m, _ in self.constraints:
            out = out * m // gcd(out, m)
        return out


@dataclass(frozen=True, slots=True)
class Graph:
    """Simple undirected graph on vertices 1..n."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        seen = set()
        for u, v in self.edges:
            if not (1 <= u < v <= self.n):
                raise ValueError(f"bad edge ({u}, {v}) for n={self.n}")
            if (u, v) in seen:
                raise ValueError(f"duplicate edge ({u}, {v})")
            seen.add((u, v))


def solve_bruteforce(inst: DcrInstance, cap: int = 10**6) -> int | None:
    """Smallest solution t in [0, lcm), or None when the system has none."""
    span = inst.lcm
    if span > cap:
        raise LcmCapExceeded(f"lcm {span} exceeds cap {cap}")
    for t in range(span):
        if all(t % m not in forbidden for m, forbidden in inst.constraints):
            return t
    return None


def first_odd_primes(count: int, cap: int = 10**6) -> tuple[int, ...]:
    """The first ``count`` primes greater than 2, by trial division."""
    primes: list[int] = []
    candidate = 3
    while len(primes) < count:
        if candidate > cap:
            raise PrimeCapExceeded(f"prime search passed cap {cap}")
        if all(candidate % q for q in range(2, int(candidate**0.5) + 1)):
            primes.append(candidate)
        candidate += 2
    return tuple(primes)


def coloring_to_dcr(g: Graph) -> tuple[DcrInstance, tuple[int, ...]]:
    """Encode 3-colorability of g as a forbidden-remainder system.

    Vertex i gets the i-th odd prime; color classes are residue 0, residue
    1, and everything >= 2.  For each edge the forbidden residues modulo
    p_u * p_v are exactly those whose residue pair means equal colors.
    """
    primes = first_odd_primes(g.n)
    constraints = []
    for u, v in g.edges:
        pu, pv = primes[u - 1], primes[v - 1]
        m = pu * pv
        forbidden = frozenset(
            c
            for c in range(m)
            for a, b in [(c % pu, c % pv)]
            if (a, b) == (0, 0) or (a, b) == (1, 1) or (a >= 2 and b >= 2)
        )
        constraints.append((m, forbidden))
    return DcrInstance(tuple(constraints)), primes


def decode_coloring(t: int, primes: tuple[int, ...]) -> str:
    """Map a solution back to colors, one of 'rgb' per vertex."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    out = []
    for p in primes:
        r = t % p
        out.append("r" if r == 0 else "g" if r == 1 else "b")
    return "".join(out)


def three_colorable_bruteforce(g: Graph) -> bool:
    """Independent ground truth: try all 3^n colorings."""
    def extend(partial: list[str]) -> bool:
        i = len(partial)
        if i == g.n:
            return True
        for color in "rgb":
            if all(
                partial[u - 1] != color
                for u, v in g.edges
                if v == i + 1 and u <= i
            ):
                partial.append(color)
                if extend(partial):
                    return True
                partial.pop()
        return False

    return extend([])


@dataclass(frozen=True, slots=True)
class GlobalMinOneInstance:
    """Single-permutation global-minimization instance: minimize
    start . p^t; the system is solvable iff some orbit element is zero on
    every forbidden position."""

    start: str
    perm: Permutation
    order: PriorityOrder
    forbidden: tuple[int, ...]


def dcr_to_globalmin1(inst: DcrInstance) -> GlobalMinOneInstance:
    """One cycle per constraint with consecutive labels 0..m-1, a single 1
    per cycle at label 0, and all forbidden-label positions ranked first.

    The cycle rotates labels downward so that start . p^t carries its 1 at
    label t mod m in every cycle.
    """
    image: list[int] = []
    bits: list[str] = []
    ranked_first: list[int] = []
    ranked_rest: list[int] = []
    offset = 0
    for m, forbidden in inst.constraints:
        for label in range(m):
            pos = offset + label + 1
            image.append(offset + (label - 1) % m + 1)
            bits.append("1" if label == 0 else "0")
            (ranked_first if label in forbidden else ranked_rest).append(pos)
        offset += m
    return GlobalMinOneInstance(
        start="".join(bits),
        perm=Permutation(tuple(image)),
        order=PriorityOrder(tuple(ranked_first + ranked_rest)),
        forbidden=tuple(ranked_first),
    )


def zero_forbidden_witness(gm: GlobalMinOneInstance, cap: int = 10**6) -> int | None:
    """Smallest t with start . p^t zero on every forbidden position, found
    by walking the actual orbit one step at a time, for any start.

    start . p^t holds its 1s at p^-t(ones(start)), so the walk moves only
    the 1s, each step through p's inverse image.  It uses no cycles or
    residues, so it stays independent of the modular solver."""
    n_steps = perm_order(gm.perm)
    if n_steps > cap:
        raise OrderCapExceeded(f"permutation order {n_steps} exceeds cap {cap}")
    back = (0,) + inverse(gm.perm).image
    forbidden = frozenset(gm.forbidden)
    ones = [i for i, b in enumerate(gm.start, start=1) if b == "1"]
    for t in range(n_steps):
        if forbidden.isdisjoint(ones):
            return t
        ones = [back[i] for i in ones]
    return None


def parse_dcr(text: str) -> DcrInstance:
    """One constraint per line: ``m: s1 s2 ...``; 'c' lines are comments."""
    constraints = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        head, sep, tail = line.partition(":")
        if not sep:
            raise FormatError(f"line {lineno}: expected 'm: s1 s2 ...'")
        numbers = [read_decimal(tok) for tok in [head.strip(), *tail.split()]]
        if None in numbers:
            raise FormatError(f"line {lineno}: not a plain decimal integer")
        constraints.append((numbers[0], frozenset(numbers[1:])))
    try:
        return DcrInstance(tuple(constraints))
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def format_dcr(inst: DcrInstance, primes: tuple[int, ...] | None = None) -> str:
    lines = []
    if primes:
        lines.append("c primes " + " ".join(map(str, primes)))
    for m, forbidden in inst.constraints:
        lines.append(f"{m}:" + "".join(f" {s}" for s in sorted(forbidden)))
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> Graph:
    """DIMACS-like graph: one ``p edge n m`` header, then m ``e u v``
    lines."""
    n = m = None
    edges: list[tuple[int, int]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] == "p":
            if n is not None:
                raise FormatError(f"line {lineno}: second 'p edge' header")
            if len(fields) != 4 or fields[1] != "edge":
                raise FormatError(f"line {lineno}: expected 'p edge n m'")
            n, m = read_decimal(fields[2]), read_decimal(fields[3])
            if n is None:
                raise FormatError(f"line {lineno}: bad vertex count {fields[2][:40]!r}")
            if m is None:
                raise FormatError(f"line {lineno}: bad edge count {fields[3][:40]!r}")
        elif fields[0] == "e":
            ends = [read_decimal(tok) for tok in fields[1:]]
            if len(ends) != 2 or None in ends:
                raise FormatError(f"line {lineno}: expected 'e u v'")
            u, v = ends
            edges.append((min(u, v), max(u, v)))
        else:
            raise FormatError(f"line {lineno}: unknown directive {fields[0]!r}")
    if n is None:
        raise FormatError("missing 'p edge' header")
    if m != len(edges):
        raise FormatError(f"header announces {m} edges, the file has {len(edges)}")
    try:
        return Graph(n, tuple(edges))
    except ValueError as exc:
        raise FormatError(str(exc)) from None
