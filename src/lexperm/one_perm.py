"""Local and global lexicographic minimization along a single permutation.

With one generator the neighborhood of the power p^k is just p^(k+1), and
a local optimum can be found in polynomial time by inspecting the cycle
structure.  The global problem stays hard (NP-complete), so the global
routine here is exact but still exponential in the worst case: it narrows
the candidate exponents residue by residue, and refuses permutations whose
order exceeds a cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .bitlex import PriorityOrder, check_bits
from .errors import DegreeMismatch, LengthMismatch, OrderCapExceeded
from .perm import Permutation, cycle_decomposition, identity, perm_order, permute_string, power


@dataclass(frozen=True, slots=True)
class OnePermResult:
    """Exponent k with witness p^k; cycle_id is the smallest member of the
    cycle that decided the answer (None when every cycle is constant)."""

    exponent: int
    witness: Permutation
    cycle_id: int | None


def local_min_one_perm(bits: str, p: Permutation) -> OnePermResult:
    """Find k such that bits . p^k is a local minimum for the single
    generator p under the identity priority order.

    A cycle is interesting when bits is non-constant on it.  Positions on
    constant cycles never change along the orbit, so only the interesting
    cycle holding the smallest such position matters: walking from its
    smallest member l, the first k with a 0 -> 1 boundary at
    (p^k(l), p^(k+1)(l)) makes bits . p^k immediately better than its one
    neighbor bits . p^(k+1).
    """
    if len(bits) != p.degree:
        raise DegreeMismatch(f"string length {len(bits)} vs degree {p.degree}")
    check_bits(bits)
    chosen = None
    for cyc in cycle_decomposition(p):
        values = {bits[i - 1] for i in cyc}
        if len(values) > 1:
            chosen = cyc
            break
    if chosen is None:
        return OnePermResult(0, identity(p.degree), None)
    length = len(chosen)
    for k in range(length):
        i = chosen[k]
        j = chosen[(k + 1) % length]
        if bits[i - 1] == "0" and bits[j - 1] == "1":
            return OnePermResult(k, power(p, k), chosen[0])
    raise AssertionError("non-constant cycle must contain a 0 -> 1 boundary")


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
    the length of the cycle through i.  So the positions are walked most
    significant first, keeping the exponents that put a 0 at each one if
    any does.  Candidates are residues modulo M, the lcm of the cycle
    lengths seen so far, lifted to the new modulus when a cycle adds to
    it, and kept in ascending order.  One candidate settles the answer
    only once M is the order of p: below that it can still split on the
    cycles not yet seen.  The worst case is O(order * N).
    """
    if len(bits) != p.degree:
        raise DegreeMismatch(f"string length {len(bits)} vs degree {p.degree}")
    check_bits(bits)
    if order is not None and order.degree != p.degree:
        raise LengthMismatch(f"{len(bits)} bits vs order degree {order.degree}")
    n_steps = perm_order(p)
    if n_steps > cap:
        raise OrderCapExceeded(f"permutation order {n_steps} exceeds cap {cap}")
    # point i -> (the bits along its cycle, the index of i in it), so that
    # (bits . p^t)(i) = along[(k + t) % len(along)]
    where: dict[int, tuple[str, int]] = {}
    for cyc in cycle_decomposition(p):
        along = "".join(bits[i - 1] for i in cyc)
        for k, i in enumerate(cyc):
            where[i] = along, k
    candidates, modulus = [0], 1
    for i in order.rank if order is not None else range(1, p.degree + 1):
        along, k = where[i]
        length = len(along)
        if length == 1:
            continue
        if modulus % length:
            lifted = modulus * length // gcd(modulus, length)
            candidates = [r + j for j in range(0, lifted, modulus) for r in candidates]
            modulus = lifted
        zeros = [t for t in candidates if along[(k + t) % length] == "0"]
        if zeros:
            candidates = zeros
            if len(zeros) == 1 and modulus == n_steps:
                break
    t = candidates[0]
    return t, permute_string(bits, power(p, t))
