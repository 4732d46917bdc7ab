"""Local and global lexicographic minimization along a single permutation.

With one generator the neighborhood of the power p^k is just p^(k+1), and
a local optimum can be found in polynomial time by inspecting the cycle
structure.  The global problem stays hard, so the global routine here is
a capped brute-force oracle over the orbit.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bitlex import PriorityOrder, check_bits, sort_key
from .errors import DegreeMismatch, OrderCapExceeded
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
    """Exhaustively minimize bits . p^t over the whole orbit.

    Returns the smallest minimizing exponent and the minimal string.
    Refuses to run when the order of p exceeds the cap.
    """
    if len(bits) != p.degree:
        raise DegreeMismatch(f"string length {len(bits)} vs degree {p.degree}")
    n_steps = perm_order(p)
    if n_steps > cap:
        raise OrderCapExceeded(f"permutation order {n_steps} exceeds cap {cap}")
    best_t, best_s, best_key = 0, bits, sort_key(bits, order)
    s = bits
    for t in range(1, n_steps):
        s = permute_string(s, p)
        key = sort_key(s, order)
        if key < best_key:
            best_t, best_s, best_key = t, s, key
    return best_t, best_s
