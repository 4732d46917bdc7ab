"""Reference implementations that the fast paths are checked against.

These are the straightforward versions the library used before its
rank-space walk, support-restricted symmetry check, incremental
stabilizer chain, residue-narrowing orbit minimum and support-based
string action and cycle formatting: every candidate is
built as a whole string and compared through its whole sort key, every
symmetry check renames and counts every clause, the stabilizer chain
rebuilds a level's orbit and re-sifts all of its Schreier generators
whenever the level gains a generator, the well-behavedness check walks
the gadget wiring by hand through its own position index instead of
decoding and re-assembling through the layout, and the orbit minimum
builds and compares one whole string per power, a word acts on a string
through one whole-string join per letter, and supports and cycle text
come from a scan of every entry of the image.
"""

from __future__ import annotations

from collections import Counter
from itertools import compress, count
from operator import ne
from typing import Sequence

from lexperm.bitlex import PriorityOrder, sort_key
from lexperm.cnf import CnfFormula
from lexperm.errors import DegreeMismatch, LengthMismatch, OrderCapExceeded
from lexperm.perm import (
    GeneratorSet,
    Permutation,
    apply_word,
    compose,
    identity,
    inverse,
    perm_order,
    permute_string,
)
from lexperm.reduction import (
    QUADRANTS,
    BehaviorReport,
    GateState,
    Position,
    ReducedInstance,
    decode_gate_state,
)
from lexperm.search import LOCAL_OPT, STEP_CAP, SearchResult


def dense_moved(p: Permutation) -> tuple[int, ...]:
    """The points p moves, found by scanning its whole image."""
    return tuple(i for i, v in enumerate(p.image, start=1) if i != v)


def reference_format_cycles(p: Permutation) -> str:
    """Cycle notation, with cycle starts found by a scan of the whole image."""
    image = p.image
    seen: set[int] = set()
    parts = []
    for start in compress(count(1), map(ne, image, count(1))):
        if start in seen:
            continue
        cyc = [start]
        nxt = image[start - 1]
        while nxt != start:
            cyc.append(nxt)
            seen.add(nxt)
            nxt = image[nxt - 1]
        parts.append("(" + " ".join(map(str, cyc)) + ")")
    return "".join(parts) if parts else "()"


def reference_apply_word_to_string(gens: GeneratorSet, x: str, word: Sequence[str]) -> str:
    """x acted on by the word, one whole-string ``permute_string`` per letter."""
    for letter in word:
        x = permute_string(x, gens.get(letter))
    return x


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


def reference_orbit_min(
    bits: str,
    p: Permutation,
    cap: int = 10**6,
    order: PriorityOrder | None = None,
) -> tuple[int, str]:
    """Scan every power of p up to its order, one whole string each."""
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


def reference_check_symmetry(f: CnfFormula, p: Permutation) -> bool:
    """Rename every clause and compare the full clause multisets."""
    image = p.image

    def mapped(clause: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(sorted((1 if l > 0 else -1) * image[abs(l) - 1] for l in clause))

    canon = [tuple(sorted(cl)) for cl in f.clauses]
    return Counter(map(mapped, f.clauses)) == Counter(canon)


class ReferenceChain:
    """Recursive Schreier-Sims chain: each level keeps its transversal as
    ``Permutation`` objects and, whenever it gains a generator, rebuilds
    its orbit and sifts every Schreier generator again."""

    def __init__(self, degree: int):
        self.degree = degree
        self.base_point: int | None = None
        self.level_gens: list[Permutation] = []
        self.transversal: dict[int, Permutation] = {}
        self._next: ReferenceChain | None = None

    @classmethod
    def from_generators(cls, gens: GeneratorSet) -> "ReferenceChain":
        chain = cls(gens.degree)
        for p in gens.perms:
            chain.add_generator(p)
        return chain

    def add_generator(self, g: Permutation) -> None:
        if g.degree != self.degree:
            raise DegreeMismatch(f"degree {g.degree} vs chain degree {self.degree}")
        if g.is_identity():
            return
        if self.base_point is None:
            self.base_point = next(
                i for i in range(1, self.degree + 1) if g(i) != i
            )
            self.transversal = {self.base_point: identity(self.degree)}
            self._next = ReferenceChain(self.degree)
        self.level_gens.append(g)
        self._close()

    def _close(self) -> None:
        base = self.base_point
        assert base is not None and self._next is not None
        orbit = [base]
        trans = {base: identity(self.degree)}
        i = 0
        while i < len(orbit):
            b = orbit[i]
            i += 1
            for g in self.level_gens:
                c = g(b)
                if c not in trans:
                    trans[c] = compose(g, trans[b])
                    orbit.append(c)
        self.transversal = trans
        for b in orbit:
            ub = trans[b]
            for g in self.level_gens:
                schreier = compose(inverse(trans[g(b)]), compose(g, ub))
                if schreier.is_identity():
                    continue
                residue = self._next.sift(schreier)
                if not residue.is_identity():
                    self._next.add_generator(residue)

    def sift(self, p: Permutation) -> Permutation:
        level: ReferenceChain | None = self
        while level is not None and level.base_point is not None:
            u = level.transversal.get(p(level.base_point))
            if u is None:
                return p
            p = compose(inverse(u), p)
            level = level._next
        return p

    def contains(self, p: Permutation) -> bool:
        if p.degree != self.degree:
            raise DegreeMismatch(f"degree {p.degree} vs chain degree {self.degree}")
        return self.sift(p).is_identity()

    def order(self) -> int:
        out = 1
        level: ReferenceChain | None = self
        while level is not None and level.base_point is not None:
            out *= len(level.transversal)
            level = level._next
        return out


def reference_is_well_behaved(inst: ReducedInstance, y: str) -> BehaviorReport:
    """Valid twins, every gadget a gate state, each gate's inputs equal to
    its sources, each circuit output equal to its gate, and copy-j inputs
    equal to the copy-0 inputs with bit j flipped; positions are found by
    their index in the instance's catalog."""
    c = inst.circuit
    index = {pos: i for i, pos in enumerate(inst.condensed, start=1)}
    if len(y) != 2 * len(index):
        raise LengthMismatch(f"{len(y)} bits, expected {2 * len(index)}")
    for i in range(0, len(y), 2):
        if y[i] == y[i + 1]:
            return BehaviorReport(False, f"twin pair of {inst.condensed[i // 2].label()} agrees")
    cond = y[0::2]

    def value(pos: Position) -> int:
        return int(cond[index[pos] - 1])

    for j in range(c.n + 1):
        states: dict[int, GateState] = {}
        for gid in range(1, c.gate_count + 1):
            state = decode_gate_state([value(Position(j, "quad", gid, q)) for q in QUADRANTS])
            if state is None:
                return BehaviorReport(False, f"gadget C{j}.g{gid} encodes no state")
            states[gid] = state
        for gid, sources in enumerate(c.gates, start=1):
            for slot, src in enumerate(sources, start=1):
                a = states[gid].a1 if slot == 1 else states[gid].a2
                if src[0] == "g":
                    if a != states[src[1]].b:
                        return BehaviorReport(
                            False, f"C{j}: gate g{src[1]} output disagrees with g{gid} input {slot}"
                        )
                elif a != value(Position(j, "in", src[1])):
                    return BehaviorReport(
                        False, f"C{j}: input x{src[1]} disagrees with g{gid} input {slot}"
                    )
        for k, gid in enumerate(c.outputs, start=1):
            if value(Position(j, "out", k)) != states[gid].b:
                return BehaviorReport(False, f"C{j}: output c{k} disagrees with g{gid}")
    x0 = [value(Position(0, "in", i)) for i in range(1, c.n + 1)]
    for j in range(1, c.n + 1):
        xj = [value(Position(j, "in", i)) for i in range(1, c.n + 1)]
        if xj != [b ^ (i == j) for i, b in enumerate(x0, start=1)]:
            return BehaviorReport(False, f"inputs of C{j} are not C0 with bit {j} flipped")
    return BehaviorReport(True)
