"""The greedy walk engine: best-improvement search over a generated
permutation group and the local-optimality test it stops at.

At every step all neighbors current * g are evaluated; the walk moves to
the strictly best one and stops at a local optimum or at the step cap,
never silently.  The current string is one list indexed by position,
acted on with ``permute_in_place`` like every other word; the priority
order only decides which move wins.  ``RankSpace`` reads each
generator's moved positions in rank order and states the decisive-rank
rule that picks the best neighbor in O(|supp g|) per candidate, without
building any.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

from .bitlex import PriorityOrder, check_bits
from .errors import DegreeMismatch, LengthMismatch, NotInGroup
from .perm import (
    GeneratorSet,
    Permutation,
    _replay,
    apply_word,
    apply_word_to_string,
    membership,
    permute_in_place,
    permute_string,
)

LOCAL_OPT = "local_opt"
STEP_CAP = "step_cap"


class RankSpace:
    """Each generator's moved positions, read in the priority order.

    A string is held by position, entry 0 a pad, and acting by a
    generator g sets ``chars[p] = chars[g(p)]`` on the positions p that g
    moves.  The rank of a position is its importance level minus one, so
    the string read in rank order is its sort key.  ``moves[i]`` lists
    the i-th generator's moved positions as ``(rank, p, g(p))`` triples
    in ascending rank, and ``firsts[i]`` is its smallest moved rank.

    Acting by g changes the string first at its *decisive rank*: the
    smallest rank r of a triple ``(r, p, q)`` with ``chars[p] !=
    chars[q]``.  The move improves the string iff ``chars[p]`` is 1, and
    of two improving moves the one with the smaller decisive rank gives
    the smaller string.  This holds for any permutation, not only for
    involutions, and needs the characters to be 0 and 1 only.
    """

    __slots__ = ("moves", "firsts")

    def __init__(self, order: PriorityOrder | None, gens: GeneratorSet):
        n = gens.degree
        if order is not None and order.degree != n:
            raise LengthMismatch(f"{n} generator degree vs order degree {order.degree}")
        rank_of = list(range(-1, n))  # the rank of each 1-based position
        if order is not None:
            for r, p in enumerate(order.rank):
                rank_of[p] = r
        at = rank_of.__getitem__
        self.moves = tuple([sorted(zip(map(at, g.moved), g.moved, g.moved_to)) for g in gens.perms])
        self.firsts = tuple([m[0][0] if m else n for m in self.moves])

    def best_move(self, chars: Sequence[str]) -> int | None:
        """Index of the generator whose action gives the smallest string
        below ``chars`` (by position, entry 0 a pad), the lowest index
        among equals; None if no action lowers it."""
        best, best_r = None, len(chars)
        moves = self.moves
        for i, first in enumerate(self.firsts):
            if first > best_r:
                continue
            for r, p, q in moves[i]:
                if r > best_r:
                    break
                if chars[p] != chars[q]:
                    if chars[p] == "1" and (r < best_r or self._beats(chars, i, best, r)):
                        best, best_r = i, r
                    break
        return best

    def _beats(self, chars: Sequence[str], i: int, j: int, r: int) -> bool:
        """True iff acting by generator i gives a smaller string than acting
        by generator j, when both first change ``chars`` at rank r.  Above r
        the two results can differ only on the union of the two supports."""
        old = {s: chars[p] for s, p, _ in (*self.moves[i], *self.moves[j]) if s > r}
        a = {s: chars[q] for s, _, q in self.moves[i] if s > r}
        b = {s: chars[q] for s, _, q in self.moves[j] if s > r}
        for s in sorted(old):
            x, y = a.get(s, old[s]), b.get(s, old[s])
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
    return RankSpace(order, gens).best_move(["", *permute_string(bits, current)]) is None


@dataclass(frozen=True, init=False)
class SearchResult:
    """What a walk did: its word, final string, steps and stop status,
    and ``origin``, the string it started from after any start word.

    Both ``trace`` and ``permutation`` are read off the word the first
    time they are read, and kept; a caller that reads only the word and
    the string pays for neither.  ``trace`` is ``origin``, then the
    string after each of the last ``steps`` letters of the word, each
    letter replayed on one character list.  ``permutation`` is the word
    replayed on the generators by ``apply_word``.

    A ``trace`` given to the constructor is kept as the read value, so
    ``dataclasses.replace(res, word=..., trace=...)`` rebuilds a result
    with the trace it is handed, as when ``trace`` was a field; the walk
    never gives one."""

    word: tuple[str, ...]
    string: str
    steps: int
    status: str
    origin: str
    gens: GeneratorSet = field(compare=False, repr=False)

    def __init__(self, word, string, steps, status, origin, gens, trace=None):
        vars(self).update(word=word, string=string, steps=steps, status=status, origin=origin, gens=gens)
        if trace is not None:
            vars(self)["trace"] = tuple(trace)

    @cached_property
    def trace(self) -> tuple[str, ...]:
        by_name, chars = dict(self.gens), ["", *self.origin]
        walked = self.word[len(self.word) - self.steps :]
        return (self.origin, *["".join(_replay(by_name, chars, (letter,))) for letter in walked])

    @cached_property
    def permutation(self) -> Permutation:
        return apply_word(self.gens, self.word)


def standard_algorithm(
    bits: str,
    order: PriorityOrder | None,
    gens: GeneratorSet,
    start: Sequence[str] = (),
    max_steps: int = 10**6,
    keep_trace: bool = True,
) -> SearchResult:
    """Run the greedy walk from the permutation named by ``start``.

    The walk carries only its string by position and its word; the
    result derives its trace and its permutation from the word only if
    they are read.  ``keep_trace`` selects nothing: it is accepted for
    callers that still pass it, and either value gives the same result."""
    if len(bits) != gens.degree:
        raise DegreeMismatch(f"string length {len(bits)} vs degree {gens.degree}")
    check_bits(bits)
    origin = apply_word_to_string(gens, bits, start)
    space = RankSpace(order, gens)
    word = list(start)
    chars = ["", *origin]  # the current string by position, entry 0 a pad
    steps = 0
    status = STEP_CAP
    while steps < max_steps:
        best = space.best_move(chars)
        if best is None:
            status = LOCAL_OPT
            break
        g = gens.perms[best]
        permute_in_place(chars, g.moved, g.moved_to)
        word.append(gens.names[best])
        steps += 1
    return SearchResult(tuple(word), "".join(chars), steps, status, origin, gens)


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
