"""Forbidden-remainder systems and their two reductions.

A constraint system asks for t avoiding a forbidden set of remainders
modulo each m_i.  Graph 3-coloring reduces into such systems via products
of distinct odd primes, and any system reduces onward to globally
minimizing a bitstring under the powers of a single permutation: one
cycle per constraint, one 1 per cycle, forbidden labels ranked first.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, filterfalse
from math import isqrt, lcm, log
from operator import itemgetter
from typing import Iterable, Iterator

from .bitlex import PriorityOrder, check_bits, read_decimal, read_decimals
from .errors import (
    DegreeMismatch,
    FormatError,
    IndexOutOfRange,
    LcmCapExceeded,
    OrderCapExceeded,
    PrimeCapExceeded,
)
from .one_perm import _lift
from .perm import Permutation, _cycles

# bytes of False/True -> binary digits, and -> their complements
_BITS = bytes.maketrans(b"\x00\x01", b"01")
_ALLOWED = bytes.maketrans(b"\x00\x01", b"10")


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
        return lcm(*[m for m, _ in self.constraints])


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


def solve(inst: DcrInstance, cap: int = 10**6) -> int | None:
    """Smallest solution t in [0, lcm), or None when the system has none,
    as ``solve_bruteforce`` finds it and with its refusal above the cap.

    A residue sieve decides, with no point and no step per t: each
    constraint with a forbidden remainder gives the m-bit int of its
    allowed residues, and ``_sieve`` ANDs those into one bitset over the
    lcm of their moduli.  Memory is that lcm in bits."""
    span = inst.lcm
    if span > cap:
        raise LcmCapExceeded(f"lcm {span} exceeds cap {cap}")
    allowed = []
    for m, forbidden in inst.constraints:
        if forbidden:
            # binary digit m - 1 - r is 0 iff residue r is forbidden
            digits = bytes(map(forbidden.__contains__, reversed(range(m)))).translate(_ALLOWED)
            allowed.append((m, int(digits, 2)))
    return _sieve(allowed)


def _sieve(allowed: Iterable[tuple[int, int]]) -> int | None:
    """Smallest t >= 0 whose residue modulo each L is allowed, or None when
    no t is, for (L, bits) pairs in which bit r of bits is set iff residue
    r is allowed.  The candidates are one bitset over the lcm M of the L
    seen so far; each pair lifts it to lcm(M, L) when L adds to M and
    ANDs in its bits repeated out to that length.  An empty bitset means
    there is no t; otherwise the answer is its lowest set bit."""
    candidates, modulus = 1, 1
    for length, bits in allowed:
        candidates, modulus = _lift(candidates, modulus, length)
        candidates &= _lift(bits, length, modulus)[0]
        if not candidates:
            return None
    return (candidates & -candidates).bit_length() - 1


def _check_moduli(moduli: Iterable[int]) -> None:
    """Raise ``LcmCapExceeded`` at the first modulus above 10**6: an
    encoder spends at least one item per residue of each modulus, and the
    system's lcm is at least that modulus, so ``solve`` and
    ``orbit_min_one_perm`` refuse the system at their default caps too."""
    for m in moduli:
        if m > 10**6:
            raise LcmCapExceeded(f"modulus {m} exceeds cap {10**6}")


def first_odd_primes(count: int, cap: int = 10**6) -> tuple[int, ...]:
    """The first ``count`` primes greater than 2, from a sieve of
    Eratosthenes up to cap, or up to Rosser's bound k(ln k + ln ln k) on
    the k-th prime, k = count + 1 >= 6, when that is lower."""
    if count <= 0:
        return ()
    k = count + 1
    limit = max(2, min(cap, 13 if k < 6 else int(k * (log(k) + log(log(k))))))
    sieve = bytearray([1]) * (limit + 1)  # for i >= 2, sieve[i] ends 1 iff i is prime
    for i in range(2, isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, limit + 1, i)))
    primes = list(compress(range(3, limit + 1, 2), sieve[3::2]))
    if len(primes) < count:
        raise PrimeCapExceeded(f"prime search passed cap {cap}")
    return tuple(primes[:count])


def coloring_to_dcr(g: Graph) -> tuple[DcrInstance, tuple[int, ...]]:
    """Encode 3-colorability of g as a forbidden-remainder system.

    Vertex i gets the i-th odd prime; color classes are residue 0, residue
    1, and everything >= 2.  For each edge the forbidden residues modulo
    p_u * p_v are exactly those whose residue pair means equal colors: by
    the CRT only 0 and 1 have the pair (0, 0) or (1, 1), so they are 0, 1
    and every c >= 2 whose residues modulo p_u and p_v are both >= 2.  An
    edge whose modulus exceeds 10**6 raises ``LcmCapExceeded`` before any
    is listed.
    """
    primes = first_odd_primes(g.n)
    _check_moduli(primes[u - 1] * primes[v - 1] for u, v in g.edges)
    constraints = []
    for u, v in g.edges:
        pu, pv = primes[u - 1], primes[v - 1]
        m = pu * pv
        # both[c] ends 1 iff c mod pu >= 2 and c mod pv >= 2
        both = bytearray(b"\x01") * m
        for q in (pu, pv):
            both[0::q] = both[1::q] = bytes(m // q)
        constraints.append((m, frozenset([0, 1, *compress(range(m), both)])))
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
    label t mod m in every cycle.  A modulus above 10**6, or moduli that
    sum to more than 10**6 points, raise ``LcmCapExceeded`` before any
    point is made.  Each constraint is written whole: its cycle's support
    as two ranges (m = 1 is a fixed point), its forbidden labels in label
    order and then the rest; the permutation and the order are permutations
    of 1..N by construction and are wrapped unchecked.  The permutation is
    handed its cycles as they are laid out, (first, first + m - 1, ...,
    first + 1) for each constraint with m > 1 in constraint order, which
    is the order of their smallest points, so the one-permutation routines
    that read them decompose nothing.
    """
    _check_moduli(m for m, _ in inst.constraints)
    points = sum(m for m, _ in inst.constraints)
    if points > 10**6:
        raise LcmCapExceeded(f"moduli sum to {points} points, above cap {10**6}")
    start: list[str] = []
    moved: list[int] = []
    moved_to: list[int] = []
    cycles: list[tuple[int, ...]] = []
    ranked_first: list[int] = []
    ranked_rest: list[int] = []
    offset = 0
    for m, forbidden in inst.constraints:
        # label l sits at point offset + l + 1 and goes to label l - 1 mod m
        first = offset + 1
        start.append("1" + "0" * (m - 1))
        if m > 1:
            moved += range(first, first + m)
            moved_to.append(offset + m)
            moved_to += range(first, offset + m)
            cycles.append((first, *range(offset + m, first, -1)))
        ranked_first += map(first.__add__, sorted(forbidden))
        ranked_rest += map(first.__add__, filterfalse(forbidden.__contains__, range(m)))
        offset += m
    return GlobalMinOneInstance(
        start="".join(start),
        perm=Permutation._unchecked(offset, tuple(moved), tuple(moved_to), tuple(cycles)),
        order=PriorityOrder._unchecked(tuple(ranked_first + ranked_rest)),
        forbidden=tuple(ranked_first),
    )


def zero_forbidden_witness(gm: GlobalMinOneInstance, cap: int = 10**6) -> int | None:
    """Smallest t with start . p^t zero on every forbidden position, or
    None when there is none, for any start.  With N the degree of p, it
    refuses a start that is not N bits, a forbidden point outside 1..N,
    and, after those, a permutation whose order exceeds the cap.

    A residue sieve over the cycles decides, with no walk of the orbit.
    After t steps the point at index k of a cycle of length L holds what
    start holds at index (k + t) mod L, so each 1 at index o and each
    forbidden point at index k of the cycle bar every t = o - k (mod L).
    ``_sieve`` ANDs each cycle's allowed residues into one bitset over
    the lcm of the lengths.  A forbidden fixed point that holds a 1 bars
    every t.  The cycles are the ones p keeps, which ``dcr_to_globalmin1``
    hands over, so an encoded instance is not decomposed again.  The cost
    is a pass over the N points (the forbidden flags, and each cycle's
    points read out of the start and the flags) and bitsets of up to the
    order's bits, not a step per exponent."""
    n = gm.perm.degree
    start = gm.start
    if len(start) != n:
        raise DegreeMismatch(f"string length {len(start)} vs degree {n}")
    check_bits(start)
    if gm.forbidden and not (1 <= min(gm.forbidden) and max(gm.forbidden) <= n):
        bad = next(i for i in gm.forbidden if not 1 <= i <= n)
        raise IndexOutOfRange(f"point {bad} outside 1..{n}")
    cycles = _cycles(gm.perm)
    n_steps = lcm(*map(len, cycles))
    if n_steps > cap:
        raise OrderCapExceeded(f"permutation order {n_steps} exceeds cap {cap}")
    forbidden = frozenset(gm.forbidden)
    # held[i], flags[i]: what start holds at point i, and 1 if i is forbidden
    held = "0" + start
    flags = bytes(map(forbidden.__contains__, range(n + 1))).translate(_BITS).decode()
    o = held.find("1")
    while o != -1:
        if o in forbidden and gm.perm(o) == o:
            return None
        o = held.find("1", o + 1)
    return _sieve(_cycle_residues(cycles, held, flags))


def _cycle_residues(cycles: tuple[tuple[int, ...], ...], held: str, flags: str) -> Iterator[tuple[int, int]]:
    """(L, allowed) for each cycle whose 1s meet a forbidden point, as
    ``zero_forbidden_witness`` describes; held and flags are indexed by
    point."""
    for cyc in cycles:
        along = itemgetter(*cyc)
        ones = "".join(along(held))
        o = ones.find("1")
        if o == -1:
            continue
        length = len(cyc)
        # bit j of barred: the point at index -j (mod L) is forbidden, so a
        # 1 at index o bars the residues of barred rotated up by o
        at = "".join(along(flags))
        barred = int(at[1:] + at[0], 2)
        if not barred:
            continue
        full = (1 << length) - 1
        allowed = full
        while o != -1:
            allowed &= ~((barred << o | barred >> (length - o)) & full)
            o = ones.find("1", o + 1)
        yield length, allowed


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
        numbers = read_decimals([head.strip(), *tail.split()])
        if numbers is None:
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
            ends = read_decimals(fields[1:])
            if ends is None or len(ends) != 2:
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
