"""Greedy best-improvement walk over a generated permutation group.

At every step all neighbors current * g are evaluated; the walk moves to
the strictly best one and stops at a local optimum or at the step cap,
never silently.

The walk runs in rank space (see ``bitlex.RankSpace``): the current
string is held as its sort key and every generator g is conjugated once
by the priority order.  A neighbor's key first leaves the current key at
g's *decisive rank*, the smallest rank r that g moves with
``key[r] != key[h(r)]`` (h is g acting on ranks).  The neighbor improves
iff ``key[r]`` is 1, and the best neighbor is the improving one with the
smallest decisive rank.  Neighbors that tie on the decisive rank are
compared on the union of their two supports above it; if they are still
equal, the lower generator index wins.  A candidate costs at most
O(|supp g|) instead of two O(N) string joins, a move costs O(|supp g|),
and position-order strings are built only for the trace and the result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .bitlex import PriorityOrder, RankSpace, check_bits, is_local_min
from .errors import DegreeMismatch, NotInGroup
from .perm import (
    GeneratorSet,
    Permutation,
    apply_word,
    membership,
    permute_string,
)

LOCAL_OPT = "local_opt"
STEP_CAP = "step_cap"


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

    Without ``keep_trace`` the trace holds only the final string."""
    if len(bits) != gens.degree:
        raise DegreeMismatch(f"string length {len(bits)} vs degree {gens.degree}")
    check_bits(bits)
    current = apply_word(gens, start)
    cur_str = permute_string(bits, current)
    space = RankSpace(order, gens)
    key = space.in_ranks(cur_str)
    current_ranked = space.in_ranks(current.image)
    word = list(start)
    trace = [cur_str]
    steps = 0
    status = STEP_CAP
    while steps < max_steps:
        best = space.best_move(key)
        if best is None:
            status = LOCAL_OPT
            break
        space.act(key, best)
        space.act(current_ranked, best)
        word.append(gens.names[best])
        steps += 1
        if keep_trace:
            trace.append("".join(space.in_positions(key)))
    string = "".join(space.in_positions(key))
    return SearchResult(
        tuple(word),
        Permutation(tuple(space.in_positions(current_ranked))),
        string,
        steps,
        status,
        tuple(trace) if keep_trace else (string,),
    )


def verify_local_opt(
    bits: str,
    order: PriorityOrder | None,
    gens: GeneratorSet,
    word: Sequence[str] | None = None,
    perm: Permutation | None = None,
) -> bool:
    """Local-optimality check for a solution given as a word or as a raw
    permutation; raw permutations must first pass the membership test,
    which sifts through the chain ``gens`` keeps."""
    if perm is not None:
        if not membership(gens, perm):
            raise NotInGroup("permutation is not in the generated group")
        current = perm
    else:
        current = apply_word(gens, word or ())
    return is_local_min(bits, order, gens, current)
