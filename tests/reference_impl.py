"""Reference implementations that the fast paths are checked against.

These are the straightforward versions the library used before its
rank-space walk and support-restricted symmetry check: every candidate is
built as a whole string and compared through its whole sort key, and
every symmetry check renames and counts every clause.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

from lexperm.bitlex import PriorityOrder, sort_key
from lexperm.cnf import CnfFormula
from lexperm.errors import DegreeMismatch
from lexperm.perm import GeneratorSet, Permutation, apply_word, compose, permute_string
from lexperm.search import LOCAL_OPT, STEP_CAP, SearchResult


def reference_walk(
    bits: str,
    order: PriorityOrder | None,
    gens: GeneratorSet,
    start: Sequence[str] = (),
    max_steps: int = 10**6,
) -> SearchResult:
    """Greedy best-improvement walk with two O(N) joins per candidate."""
    if len(bits) != gens.degree:
        raise DegreeMismatch(f"string length {len(bits)} vs degree {gens.degree}")
    current = apply_word(gens, start)
    word = list(start)
    cur_str = permute_string(bits, current)
    trace = [cur_str]
    steps = 0
    while steps < max_steps:
        best = None
        best_key = sort_key(cur_str, order)
        for name, g in gens:
            cand = permute_string(cur_str, g)
            key = sort_key(cand, order)
            if key < best_key:
                best = (name, g, cand)
                best_key = key
        if best is None:
            return SearchResult(tuple(word), current, cur_str, steps, LOCAL_OPT, tuple(trace))
        name, g, cur_str = best
        current = compose(current, g)
        word.append(name)
        steps += 1
        trace.append(cur_str)
    return SearchResult(tuple(word), current, cur_str, steps, STEP_CAP, tuple(trace))


def reference_is_local_min(
    bits: str,
    order: PriorityOrder | None,
    gens: GeneratorSet,
    current: Permutation,
) -> bool:
    cur = permute_string(bits, current)
    cur_key = sort_key(cur, order)
    return all(sort_key(permute_string(cur, g), order) >= cur_key for _, g in gens)


def reference_check_symmetry(f: CnfFormula, p: Permutation) -> bool:
    """Rename every clause and compare the full clause multisets."""
    image = p.image

    def mapped(clause: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(sorted((1 if l > 0 else -1) * image[abs(l) - 1] for l in clause))

    canon = [tuple(sorted(cl)) for cl in f.clauses]
    return Counter(map(mapped, f.clauses)) == Counter(canon)
