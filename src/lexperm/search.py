"""The greedy walk engine: best-improvement search over a generated
permutation group and the local-optimality test it stops at.

At every step all neighbors current * g are evaluated; the walk moves to
the strictly best one and stops at a local optimum or at the step cap,
never silently.  It runs in rank space, where the current string is held
as its sort key and each generator is conjugated once by the priority
order; ``RankSpace`` states the decisive-rank rule that picks the best
neighbor in O(|supp g|) per candidate, without building any.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, TypeVar

from .bitlex import PriorityOrder, check_bits
from .errors import DegreeMismatch, LengthMismatch, NotInGroup
from .perm import (
    GeneratorSet,
    Permutation,
    apply_word,
    apply_word_to_string,
    membership,
    permute_in_place,
    permute_string,
)

LOCAL_OPT = "local_opt"
STEP_CAP = "step_cap"

T = TypeVar("T")


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
        at = (None, *self.rinv).__getitem__  # the rank of each 1-based point
        self.moves = tuple(
            [dict(sorted(zip(map(at, g.moved), map(at, g.moved_to)))) for g in gens.perms]
        )

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


@dataclass(frozen=True)
class SearchResult:
    word: tuple[str, ...]
    permutation: Permutation
    string: str
    steps: int
    status: str
    trace: tuple[str, ...]


def standard_algorithm(
    bits: str,
    order: PriorityOrder | None,
    gens: GeneratorSet,
    start: Sequence[str] = (),
    max_steps: int = 10**6,
    keep_trace: bool = True,
) -> SearchResult:
    """Run the greedy walk from the permutation named by ``start``.

    The walk carries only its key and its word; the permutation is the
    word replayed once at the end.  Without ``keep_trace`` the trace
    holds only the final string."""
    if len(bits) != gens.degree:
        raise DegreeMismatch(f"string length {len(bits)} vs degree {gens.degree}")
    check_bits(bits)
    cur_str = apply_word_to_string(gens, bits, start)
    space = RankSpace(order, gens)
    key = space.in_ranks(cur_str)
    word = list(start)
    trace = [cur_str]
    chars = ["", *cur_str]  # the current string by position, entry 0 a pad
    steps = 0
    status = STEP_CAP
    while steps < max_steps:
        best = space.best_move(key)
        if best is None:
            status = LOCAL_OPT
            break
        space.act(key, best)
        word.append(gens.names[best])
        steps += 1
        if keep_trace:
            g = gens.perms[best]
            permute_in_place(chars, g.moved, g.moved_to)
            trace.append("".join(chars))
    string = "".join(space.in_positions(key))
    return SearchResult(
        tuple(word),
        apply_word(gens, word),
        string,
        steps,
        status,
        tuple(trace) if keep_trace else (string,),
    )


def verify_local_opt(
    bits: str,
    order: PriorityOrder | None,
    gens: GeneratorSet,
    perm: Permutation,
) -> bool:
    """Local-optimality check for a solution given as a raw permutation,
    which must first pass ``membership``: the structural test of a set
    from ``Layout.generators``, else the chain ``gens`` keeps."""
    if not membership(gens, perm):
        raise NotInGroup("permutation is not in the generated group")
    return is_local_min(bits, order, gens, perm)
