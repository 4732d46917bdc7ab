"""Bitstrings compared lexicographically under a positional priority order.

A priority order lists positions from most to least significant; at the
first position where two strings differ, the one holding 0 is smaller.
``compare`` is the authoritative cost; ``cost_integer`` is a bounded
cross-check oracle only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, TypeVar

from .errors import DegreeMismatch, FormatError, LengthMismatch, WidthExceeded
from .perm import GeneratorSet, Permutation, permute_string

T = TypeVar("T")

LESS, EQUAL, GREATER = -1, 0, 1


@dataclass(frozen=True, slots=True)
class PriorityOrder:
    """rank[r] is the position inspected at importance level r+1."""

    rank: tuple[int, ...]

    def __post_init__(self):
        n = len(self.rank)
        if sorted(self.rank) != list(range(1, n + 1)):
            raise ValueError(f"rank is not a permutation of 1..{n}")

    @property
    def degree(self) -> int:
        return len(self.rank)


def identity_order(degree: int) -> PriorityOrder:
    return PriorityOrder(tuple(range(1, degree + 1)))


def parse_order(text: str, degree: int) -> PriorityOrder:
    try:
        ranks = tuple(int(tok) for tok in text.split())
    except ValueError:
        raise FormatError(f"non-integer rank in order {text[:40]!r}") from None
    if len(ranks) != degree:
        raise LengthMismatch(f"order lists {len(ranks)} ranks, expected {degree}")
    try:
        return PriorityOrder(ranks)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def format_order(order: PriorityOrder) -> str:
    return " ".join(map(str, order.rank))


def read_decimal(token: str) -> int | None:
    """token as a nonnegative integer in plain ASCII decimal, or None when
    it is not one (signs, underscores, other scripts' digits and numbers
    too long for ``int()`` included)."""
    if not (token.isascii() and token.isdecimal()):
        return None
    try:
        return int(token)
    except ValueError:  # more digits than int() converts
        return None


def check_bits(bits: str, error: type[Exception] = FormatError) -> None:
    """Raise ``error`` unless every character of bits is 0 or 1."""
    if bits.strip("01"):
        raise error(f"not a bitstring: {bits!r}")


def sort_key(bits: str, order: PriorityOrder | None = None) -> str:
    """bits reordered most-significant-first; plain string comparison of
    keys realizes the prioritized lexicographic order."""
    if order is None:
        return bits
    if len(bits) != order.degree:
        raise LengthMismatch(f"{len(bits)} bits vs order degree {order.degree}")
    return "".join(bits[p - 1] for p in order.rank)


def compare(x: str, y: str, order: PriorityOrder | None = None) -> int:
    """LESS / EQUAL / GREATER for x versus y under the order."""
    if len(x) != len(y):
        raise LengthMismatch(f"lengths {len(x)} and {len(y)} differ")
    kx, ky = sort_key(x, order), sort_key(y, order)
    if kx < ky:
        return LESS
    if kx > ky:
        return GREATER
    return EQUAL


def cost_integer(bits: str, order: PriorityOrder | None = None, max_width: int = 64) -> int:
    """The cost as an integer: sum of bit(rank r) * 2^(N-r).

    Only intended as a cross-check at small widths; raise beyond
    max_width rather than silently producing huge numbers.
    """
    if len(bits) > max_width:
        raise WidthExceeded(f"{len(bits)} bits exceed width bound {max_width}")
    if not bits:
        return 0
    return int(sort_key(bits, order), 2)


def complement(bits: str) -> str:
    """Flip every bit; turns minimization into maximization."""
    check_bits(bits, ValueError)
    return "".join("1" if b == "0" else "0" for b in bits)


class RankSpace:
    """Generators conjugated into rank space by a priority order.

    A sequence indexed by position is held *in rank order*: entry r
    belongs to the position inspected at importance level r+1, so a
    string held this way is its sort key.  Acting by a generator g then
    sets ``seq[r] = seq[h(r)]`` with h = rank^-1 . g . rank, and only on
    the ranks that g moves.  ``moves[i]`` maps each rank moved by the
    i-th generator to h(rank), in ascending rank order.

    Acting by g changes a key first at its *decisive rank*: the smallest
    moved rank r with ``key[r] != key[h(r)]``.  The move improves the key
    iff ``key[r]`` is 1, and of two improving moves the one with the
    smaller decisive rank gives the smaller key.  This holds for any
    permutation, not only for involutions, and needs the characters of
    the key to be 0 and 1 only.
    """

    __slots__ = ("rank", "rinv", "moves")

    def __init__(self, order: PriorityOrder | None, gens: GeneratorSet):
        n = gens.degree
        if order is not None and order.degree != n:
            raise LengthMismatch(f"{n} generator degree vs order degree {order.degree}")
        self.rank = [p - 1 for p in order.rank] if order is not None else list(range(n))
        self.rinv = [0] * n
        for r, p in enumerate(self.rank):
            self.rinv[p] = r
        rinv = self.rinv
        moves = []
        for g in gens.perms:
            image = g.image
            moves.append(dict(sorted((rinv[i - 1], rinv[image[i - 1] - 1]) for i in g.moved)))
        self.moves = tuple(moves)

    def in_ranks(self, seq: Sequence[T]) -> list[T]:
        """A position-indexed sequence rearranged into rank order."""
        return [seq[p] for p in self.rank]

    def in_positions(self, seq: Sequence[T]) -> list[T]:
        """Inverse of ``in_ranks``."""
        return [seq[r] for r in self.rinv]

    def act(self, seq: list[T], i: int) -> None:
        """Act on a rank-ordered sequence by the i-th generator, in place."""
        moves = self.moves[i]
        values = [seq[h] for h in moves.values()]
        for r, v in zip(moves, values):
            seq[r] = v

    def best_move(self, key: Sequence[str]) -> int | None:
        """Index of the generator whose action gives the smallest key below
        ``key``, the lowest index among equals; None if no action lowers it."""
        best, best_r = None, len(key)
        for i, moves in enumerate(self.moves):
            for r, h in moves.items():
                if r > best_r:
                    break
                if key[r] != key[h]:
                    if key[r] == "1" and (r < best_r or self._beats(key, i, best, r)):
                        best, best_r = i, r
                    break
        return best

    def _beats(self, key: Sequence[str], i: int, j: int, r: int) -> bool:
        """True iff acting by generator i gives a smaller key than acting by
        generator j, when both first change ``key`` at rank r.  Above r the
        two results can differ only on the union of the two supports."""
        a, b = self.moves[i], self.moves[j]
        for s in sorted(a.keys() | b.keys()):
            if s > r:
                x, y = key[a.get(s, s)], key[b.get(s, s)]
                if x != y:
                    return x < y
        return False


def is_local_min(
    bits: str,
    order: PriorityOrder | None,
    gens: GeneratorSet,
    current: Permutation,
) -> bool:
    """True iff no single generator applied after ``current`` improves
    the acted string."""
    if current.degree != gens.degree or len(bits) != gens.degree:
        raise DegreeMismatch("string, generators and current permutation disagree")
    check_bits(bits)
    space = RankSpace(order, gens)
    return space.best_move(space.in_ranks(permute_string(bits, current))) is None
