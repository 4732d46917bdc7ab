"""Local and global lexicographic minimization along a single permutation.

With one generator the neighborhood of the power p^k is just p^(k+1), and
a local optimum can be found in polynomial time by inspecting the cycle
structure.  The global problem stays hard (NP-complete), so the global
routine here is exact but still exponential in the worst case: it narrows
a bitset of candidate exponents run by run of one cycle's positions, on
the bitset itself or on its residues modulo the cycle's length, and
refuses permutations whose order exceeds a cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from math import lcm
from operator import itemgetter

from .bitlex import PriorityOrder, check_bits
from .errors import DegreeMismatch, LengthMismatch, OrderCapExceeded
from .perm import Permutation, _cycles, identity, power_from_cycles

_FLIP = str.maketrans("01", "10")


@dataclass(frozen=True, slots=True)
class OnePermResult:
    """Exponent k with witness p^k; cycle_id is the most significant
    member of the cycle that decided the answer, its smallest under the
    identity order (None when every cycle is constant)."""

    exponent: int
    witness: Permutation
    cycle_id: int | None


def _lift(bits: int, period: int, length: int) -> tuple[int, int]:
    """A ``period``-bit pattern repeated out to M = lcm(period, length)
    bits, and M: a bitset over exponents modulo period, read modulo M.
    The repeat doubles the pattern until it covers M bits, then cuts."""
    if period % length == 0:
        return bits, period
    lifted = lcm(period, length)
    while period < lifted:
        bits |= bits << period
        period *= 2
    return bits & ((1 << lifted) - 1), lifted


def _fold(bits: int, modulus: int, length: int) -> int:
    """The residues modulo ``length`` of a bitset over exponents modulo
    ``modulus``, a multiple of it: the OR of its ``length``-bit chunks,
    folding the upper half of the chunks onto the lower half."""
    while modulus > length:
        half = (modulus // length + 1) // 2 * length
        bits = bits & ((1 << half) - 1) | bits >> half
        modulus = half
    return bits


def local_min_one_perm(
    bits: str, p: Permutation, order: PriorityOrder | None = None
) -> OnePermResult:
    """Find k such that bits . p^k is a local minimum for the single
    generator p under the priority order (the identity order when None).

    A cycle is interesting when bits is non-constant on it.  Positions on
    constant cycles never change along the orbit, so only the interesting
    cycle holding the most significant such position matters: walking
    from that position l, the first k with a 0 -> 1 boundary at
    (p^k(l), p^(k+1)(l)) makes bits . p^k immediately better than its one
    neighbor bits . p^(k+1).  The walk runs on p's own cycles under every
    order: l is the best-ranked point of any interesting cycle, which with
    no order is the first point of the first one (the cycles come in
    order of their smallest point, each from it).  cycle_id is l.  The
    cycles are the ones p keeps, read once for the walk and the witness
    p^k alike.
    """
    if len(bits) != p.degree:
        raise DegreeMismatch(f"string length {len(bits)} vs degree {p.degree}")
    check_bits(bits)
    if order is not None and order.degree != p.degree:
        raise LengthMismatch(f"{len(bits)} bits vs order degree {order.degree}")
    held = "0" + bits  # held[i] is what bits holds at point i
    mixed = (cyc for cyc in _cycles(p) if len(set(itemgetter(*cyc)(held))) > 1)
    if order is None:
        level = None
        chosen = next(mixed, None)
    else:
        rank_of = [0] * len(held)  # rank_of[i]: the level of point i, from 0
        for r, i in enumerate(order.rank):
            rank_of[i] = r
        level = rank_of.__getitem__
        chosen = min(mixed, key=lambda cyc: min(map(level, cyc)), default=None)
    if chosen is None:
        return OnePermResult(0, identity(p.degree), None)
    first = chosen.index(min(chosen, key=level))  # l = chosen[first]
    walk = "".join(itemgetter(*chosen[first:], *chosen[:first])(held))
    k = (walk + walk[0]).find("01")
    return OnePermResult(k, power_from_cycles(p, k), chosen[first])


def orbit_min_one_perm(
    bits: str,
    p: Permutation,
    cap: int = 10**6,
    order: PriorityOrder | None = None,
) -> tuple[int, str]:
    """Minimize bits . p^t over the whole orbit, exactly.

    Returns the smallest minimizing exponent and the minimal string.
    Refuses to run when the order of p exceeds the cap.

    (bits . p^t)(i) = bits[p^t(i)] depends only on t mod L, where L is
    the length of the cycle through i (p's kept cycles: a permutation
    ``dcr_to_globalmin1`` built, or one read before, is not decomposed
    again).  So the positions are walked most significant first, keeping
    the exponents that put a 0 at each one if any does.  The candidates
    are one int, bit t set while t is still a candidate modulo M, the
    lcm of the cycle lengths seen so far.  When a
    cycle adds to M the bitset is copied to every multiple of the old M
    by doubling it out.  A position keeps the candidates its zero mask
    allows: its cycle's 0s, rotated to the position and repeated out to
    M.  One candidate settles the answer only once M is the order of p:
    below that it can still split on the cycles not yet seen.  The answer
    is the lowest set bit.

    The positions are taken in runs of consecutive ones on one cycle (the
    order ``dcr_to_globalmin1`` gives is a run per constraint for its
    forbidden labels and one for the rest), and one loop narrows every
    run by the keep-if-any rule.  A run of r positions on a cycle of
    length L decides where it is narrowed before it spends any big-int
    operation.  When r > 1 and r > log2(M/L), it is narrowed in residues:
    the candidates are folded to the residues modulo L they hold (the OR
    of their L-bit chunks), narrowed there by masks of L bits, and the
    result, repeated out to M, is ANDed into the candidates once.  That
    keeps the same candidates as narrowing the M bits themselves, which
    a shorter run does: every mask in the run depends only on t mod L, so
    a mask keeps some candidate iff it keeps some residue, and the kept
    candidates' residues are the kept residues.  After each run the scan
    stops if the answer is settled.

    A position stepped on M bits costs O(M) bit operations, and a run
    narrowed in residues O(M + r * L), so a string's worst case is
    O(order * N), in O(order) bits of memory.
    """
    if len(bits) != p.degree:
        raise DegreeMismatch(f"string length {len(bits)} vs degree {p.degree}")
    check_bits(bits)
    if order is not None and order.degree != p.degree:
        raise LengthMismatch(f"{len(bits)} bits vs order degree {order.degree}")
    cycles = _cycles(p)
    n_steps = lcm(*map(len, cycles))
    if n_steps > cap:
        raise OrderCapExceeded(f"permutation order {n_steps} exceeds cap {cap}")
    # zero pattern of a cycle of length L: the L-bit int with bit j set iff
    # the j-th point along the cycle holds a 0; where[i] = (its cycle, its
    # index k in it), so that (bits . p^t)(i) is 0 iff bit (k + t) % L of
    # the pattern is set; fixed points are in no cycle and never change
    held = "0" + bits  # held[i] is what bits holds at point i
    patterns: list[tuple[int, int]] = []
    where: list[tuple[int, int] | None] = [None] * len(held)
    for c, cyc in enumerate(cycles):
        zeros = int("".join(itemgetter(*cyc)(held))[::-1].translate(_FLIP), 2)
        for k, i in enumerate(cyc):
            where[i] = c, k
        patterns.append((len(cyc), zeros))
    ranked = order.rank if order is not None else range(1, p.degree + 1)
    candidates, modulus = 1, 1
    # cycle -> its pattern repeated out to modulus + L bits, so that the
    # zero mask of the point at index k is this shifted down by k
    repeated: dict[int, int] = {}
    for c, run in groupby(filter(None, map(where.__getitem__, ranked)), itemgetter(0)):
        run = list(run)
        length, zeros = patterns[c]
        if modulus % length:
            candidates, modulus = _lift(candidates, modulus, length)
            repeated.clear()
        # longer than log2(M/L): through residues (a single position never is)
        in_residues = len(run) > 1 and len(run) > (modulus // length).bit_length()
        if in_residues:
            narrowed, mask = _fold(candidates, modulus, length), zeros | zeros << length
        else:
            narrowed, mask = candidates, repeated.get(c)
            if mask is None:
                mask = repeated[c] = zeros * (((1 << (modulus + length)) - 1) // ((1 << length) - 1))
        for _, k in run:
            kept = narrowed & mask >> k
            if kept:
                narrowed = kept
        candidates = candidates & _lift(narrowed, length, modulus)[0] if in_residues else narrowed
        if modulus == n_steps and candidates.bit_count() == 1:
            break
    t = (candidates & -candidates).bit_length() - 1
    # bits . p^t carries bits[cyc[(k + t) % L]] at cyc[k]
    out = list(held)
    for cyc in cycles:
        shift = t % len(cyc)
        if shift:
            for i, b in zip(cyc, itemgetter(*cyc[shift:], *cyc[:shift])(held)):
                out[i] = b
    return t, "".join(out)[1:]
