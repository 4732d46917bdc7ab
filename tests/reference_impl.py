"""Reference implementations that the fast paths are checked against.

These are the straightforward versions the library used before its
rank-space walk, count-table symmetry check, literal-set satisfaction
check, incremental stabilizer chain, bitset orbit minimum, cycle walk on
a permutation's own cycles under an order, 1s-only orbit witness and
support-based string action and cycle formatting, and the per-copy
instance writer: every candidate is built as a whole string and
compared through its whole sort key, every symmetry check renames and counts every clause, a satisfaction check
looks up every literal's bit, the stabilizer chain rebuilds a level's
orbit and re-sifts all of its Schreier generators whenever the level
gains a generator, the well-behavedness check walks the gadget wiring by
hand through its own position index instead of decoding and
re-assembling through the layout, the layout assembles and decodes slot
by slot through one ``GateState`` per gadget, the walk rebuilds each
trace entry from rank space, the one-permutation local minimum under an
order relabels the permutation by rank, the orbit minimum builds and
compares one whole string per power, the zero-forbidden witness builds
one whole string per step, the graph and system encoders test every
residue and place every point one by one, a word acts on a string
through one whole-string join per letter and its product is a left fold
of ``compose``, supports and cycle text come from a scan of every entry
of the image, the instance file is written point by point, one ``pos``
line per point and one ``generator_lines`` line per generator, cycle
notation is read cycle by cycle with each point checked as it is
placed, and a formula's gadget clauses are built copy
by copy with a set union and a sort.  A permutation is its whole image
(``DensePermutation``), and the reduction's generators are built copy by
copy from transpositions on a full image.

The brute-force oracles and random generators the library does not ship
live here too: a permutation's powers and order, group and string-orbit
closure, the dense cycle decomposition (fixed points included), random
permutations and random constraint systems, the three-way ``compare``
and the integer cost, the recursive circuit evaluator, model
enumeration, the condensed view of a reduced instance (``condense``,
``condensed_order``) with direct assembly of a well-behaved string, the
NAND check of a gate state, a chain's orbit lengths, the graph writer
and coloring check, and the first odd primes by trial division.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from itertools import compress, count, islice
from math import lcm
from operator import ne
from random import Random
from typing import Sequence

from lexperm.bitlex import PriorityOrder, check_bits, format_order, read_decimals, sort_key
from lexperm.circuit import FlipInstance, Source, format_netlist
from lexperm.cnf import CnfFormula
from lexperm.dcr import DcrInstance, GlobalMinOneInstance, Graph, first_odd_primes
from lexperm.errors import (
    DegreeMismatch,
    FormatError,
    IndexOutOfRange,
    LengthMismatch,
    LexpermError,
    OrderCapExceeded,
    OverlappingCycles,
    PrimeCapExceeded,
)
from lexperm.one_perm import OnePermResult
from lexperm.perm import (
    GeneratorSet,
    Permutation,
    StabilizerChain,
    _cycles,
    compose,
    generator_lines,
    identity,
    inverse,
    permute_string,
    power_from_cycles,
)
from lexperm.reduction import (
    GADGET,
    QUADRANTS,
    BehaviorReport,
    Layout,
    ReducedInstance,
    expand,
)
from lexperm.search import LOCAL_OPT, STEP_CAP


@dataclass(frozen=True)
class DensePermutation:
    """A bijection on {1..N} held as its whole image: ``image[i-1]`` is
    where point i is sent."""

    image: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.image) != list(range(1, len(self.image) + 1)):
            raise ValueError(f"image is not a permutation of 1..{len(self.image)}")

    @property
    def degree(self) -> int:
        return len(self.image)

    def __call__(self, point: int) -> int:
        if not 1 <= point <= len(self.image):
            raise IndexError(point)
        return self.image[point - 1]


def dense_compose(p: DensePermutation, q: DensePermutation) -> DensePermutation:
    """(p * q)(i) = p(q(i)), one lookup per point."""
    return DensePermutation(tuple(p.image[v - 1] for v in q.image))


def dense_inverse(p: DensePermutation) -> DensePermutation:
    img = [0] * p.degree
    for i, v in enumerate(p.image, start=1):
        img[v - 1] = i
    return DensePermutation(tuple(img))


def dense_power(p: DensePermutation, k: int) -> DensePermutation:
    """p composed with itself |k| times, inverted first when k < 0."""
    base = dense_inverse(p) if k < 0 else p
    out = DensePermutation(tuple(range(1, p.degree + 1)))
    for _ in range(abs(k)):
        out = dense_compose(out, base)
    return out


def dense_parse_cycles(text: str, degree: int) -> DensePermutation:
    """Cycle notation written into a full identity image, cycle by cycle;
    no validation beyond that of the result."""
    img = list(range(1, degree + 1))
    for body in re.findall(r"\(([^()]*)\)", text):
        points = [int(t) for t in body.replace(",", " ").split()]
        for a, b in zip(points, points[1:] + points[:1]):
            img[a - 1] = b
    return DensePermutation(tuple(img))


def reference_layout_generators(layout: Layout) -> list[tuple[str, DensePermutation]]:
    """The reduction's generators, each built in its own copy as a product
    of transpositions on a full image: ``pi_<gate>_<copy>`` for every
    gadget, then ``sigma_<i>`` for every input."""
    c, n = layout.circuit, layout.circuit.n
    axes = ((("00", "10"), ("01", "11")), (("00", "01"), ("10", "11")))
    fed: dict = {}
    for hid, sources in enumerate(c.gates, start=1):
        for src, axis in zip(sources, axes):
            fed.setdefault(src, []).append((hid, axis))

    def flip(k):
        return [(2 * k - 1, 2 * k)]

    def swap(k, l):
        return [(2 * k - 1, 2 * l - 1), (2 * k, 2 * l)]

    def feed_swaps(j, source):
        return [
            op
            for hid, axis in fed.get(source, ())
            for qa, qb in axis
            for op in swap(layout.pair(j, "quad", hid, qa), layout.pair(j, "quad", hid, qb))
        ]

    def product(ops):
        img = list(range(1, layout.points + 1))
        for a, b in ops:
            img[a - 1], img[b - 1] = img[b - 1], img[a - 1]
        return DensePermutation(tuple(img))

    out = []
    for j in range(n + 1):
        for gid in range(1, c.gate_count + 1):
            slots = [("quad", gid, q) for q in QUADRANTS]
            if gid in layout.gate_output:
                slots.append(layout.gate_output[gid])
            ops = [op for slot in slots for op in flip(layout.pair(j, *slot))]
            out.append((f"pi_{gid}_{j}", product(ops + feed_swaps(j, ("g", gid)))))
    for i in range(1, n + 1):
        ops = [op for s in range(1, layout.per + 1) for op in swap(s, i * layout.per + s)]
        for j in range(1, n + 1):
            if j != i:
                ops += flip(layout.pair(j, "in", i)) + feed_swaps(j, ("x", i))
        out.append((f"sigma_{i}", product(ops)))
    return out


@dataclass(frozen=True, slots=True)
class GateState:
    """Two input bits and the output bit of one gate."""

    a1: int
    a2: int
    b: int


def encode_gate_state(state: GateState) -> tuple[int, int, int, int]:
    """Labels for quadrants 00, 01, 10, 11: the quadrant named by the
    inputs carries the output bit, the other three its complement."""
    own = f"{state.a1}{state.a2}"
    return tuple(state.b if q == own else 1 - state.b for q in QUADRANTS)


def decode_gate_state(labels: Sequence[int]) -> GateState | None:
    """Inverse of encode_gate_state; None when the labels encode nothing
    (a valid encoding has exactly one or three 1s)."""
    ones = sum(labels)
    if ones not in (1, 3):
        return None
    minority = 1 if ones == 1 else 0
    q = QUADRANTS[list(labels).index(minority)]
    return GateState(int(q[0]), int(q[1]), minority)


@dataclass(frozen=True, slots=True)
class Position:
    """One condensed position: an input, a gate quadrant, a gate output
    variable, or a circuit output of one circuit copy."""

    circuit: int
    kind: str  # "in" | "quad" | "w" | "out"
    index: int
    quadrant: str = ""

    def label(self, twin: int | None = None) -> str:
        if self.kind == "in":
            base = f"C{self.circuit}.x{self.index}"
        elif self.kind == "quad":
            base = f"C{self.circuit}.g{self.index}.q{self.quadrant}"
        elif self.kind == "w":
            base = f"C{self.circuit}.g{self.index}.w"
        else:
            base = f"C{self.circuit}.c{self.index}"
        return base if twin is None else f"{base}.{twin}"


def reference_positions(layout: Layout) -> tuple[Position, ...]:
    """The catalog: one Position per twin pair, in pair order."""
    return tuple(
        Position(j, kind, index, q)
        for j in range(layout.circuit.n + 1)
        for kind, index, q in layout.template
    )


def reference_assemble(layout: Layout, x: str, gate_outputs: str | None = None) -> str:
    """``Layout.assemble`` slot by slot: every copy's gate states are
    encoded one ``GateState`` at a time and every slot of the template is
    looked up by its kind."""
    c, G = layout.circuit, layout.circuit.gate_count
    if gate_outputs is None:
        gate_outputs = "0" * ((c.n + 1) * G)
    cond: list[str] = []
    for j in range(c.n + 1):
        xj = x if j == 0 else x[: j - 1] + ("1" if x[j - 1] == "0" else "0") + x[j:]
        out = gate_outputs[j * G : (j + 1) * G]

        def value(src) -> int:
            return int(xj[src[1] - 1] if src[0] == "x" else out[src[1] - 1])

        codes = [
            encode_gate_state(GateState(value(s1), value(s2), int(out[gid - 1])))
            for gid, (s1, s2) in enumerate(c.gates, start=1)
        ]
        for kind, index, q in layout.template:
            if kind == "in":
                cond.append(xj[index - 1])
            elif kind == "w":
                cond.append(out[index - 1])
            elif kind == "out":
                cond.append(out[c.outputs[index - 1] - 1])
            else:
                cond.append(str(codes[index - 1][QUADRANTS.index(q)]))
    return "".join(cond)


def reference_decode(layout: Layout, cond: str) -> tuple[str, str] | None:
    """``Layout.decode`` gadget by gadget through ``decode_gate_state``,
    each pair found by ``Layout.pair``."""
    c = layout.circuit
    x = "".join(cond[layout.pair(0, "in", i) - 1] for i in range(1, c.n + 1))
    outs: list[str] = []
    for j in range(c.n + 1):
        for gid in range(1, c.gate_count + 1):
            k = layout.pair(j, "quad", gid, QUADRANTS[0])
            state = decode_gate_state([int(b) for b in cond[k - 1 : k + 3]])
            if state is None:
                return None
            outs.append(str(state.b))
    return x, "".join(outs)


def reference_expand(y_condensed: str) -> str:
    """``expand`` one character at a time."""
    return "".join("01" if b == "0" else "10" for b in y_condensed)


_SLOT_NAMES = {"in": "input", "quad": "gadget quadrant", "out": "output"}


def reference_slot_is_well_behaved(inst: ReducedInstance, y: str) -> BehaviorReport:
    """``is_well_behaved`` slot by slot: twins checked pair by pair, then
    ``reference_decode`` and ``reference_assemble``, with each violation
    named through the ``Position`` catalog."""
    check_bits(y)
    if len(y) != inst.num_positions:
        raise LengthMismatch(f"{len(y)} bits, expected {inst.num_positions}")
    catalog = reference_positions(inst.layout)
    for i in range(0, len(y), 2):
        if y[i] == y[i + 1]:
            return BehaviorReport(False, f"twin pair of {catalog[i // 2].label()} agrees")
    cond = y[0::2]
    decoded = reference_decode(inst.layout, cond)
    if decoded is None:
        return BehaviorReport(False, "a gadget encodes no gate state")
    expected = reference_assemble(inst.layout, *decoded)
    if expected != cond:
        pos = catalog[next(k for k, (a, b) in enumerate(zip(expected, cond)) if a != b)]
        return BehaviorReport(
            False,
            f"{_SLOT_NAMES[pos.kind]} {pos.label()} disagrees with copy-0 input "
            f"{decoded[0]} and the gate outputs",
        )
    return BehaviorReport(True)


def dense_moved(p: Permutation | DensePermutation) -> tuple[int, ...]:
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


def reference_file_lines(inst: ReducedInstance) -> list[str]:
    """Every line of the instance file, in file order: the ``N``/``K``
    header, the netlist as ``net`` lines, the ``pos`` catalog (every point
    in order), ``start``, ``order`` and the generators."""
    lines = [f"N {inst.num_positions} K {len(inst.gens)}"]
    lines += [f"net {line}" for line in format_netlist(inst.circuit).splitlines()]
    for k, label in enumerate(inst.layout.labels()):
        lines += (f"pos {2 * k + 1} {label}.0", f"pos {2 * k + 2} {label}.1")
    lines.append(f"start {inst.y_start}")
    lines.append(f"order {format_order(inst.order)}")
    lines += generator_lines(inst.gens)
    return lines


def reference_parse_cycles(text: str, degree: int) -> Permutation:
    """Cycle notation read cycle by cycle: every point is read first, then
    each is checked for range and overlap as it is placed."""
    stripped = re.sub(r"\(([^()]*)\)", "", text).strip()
    if stripped:
        raise FormatError(f"unparseable cycle text near {stripped[:20]!r}")
    bodies = [body.replace(",", " ").split() for body in re.findall(r"\(([^()]*)\)", text)]
    points = read_decimals([token for body in bodies for token in body])
    if points is None:
        raise FormatError(f"cycle points are not plain decimal in {text[:40]!r}")
    to: dict[int, int] = {}
    unplaced = iter(points)
    for body in bodies:
        cycle = list(islice(unplaced, len(body)))
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            if not 1 <= a <= degree:
                raise IndexOutOfRange(f"point {a} outside 1..{degree}")
            if a in to:
                raise OverlappingCycles(f"point {a} appears in two cycles")
            to[a] = b
    img = [to.get(i, i) for i in range(1, degree + 1)]
    return Permutation(img)


def reference_apply_word(gens: GeneratorSet, word: Sequence[str]) -> Permutation:
    """The word's product as a left fold of ``compose``, one letter at a time."""
    out = identity(gens.degree)
    for letter in word:
        out = compose(out, gens.get(letter))
    return out


def reference_apply_word_to_string(gens: GeneratorSet, x: str, word: Sequence[str]) -> str:
    """x acted on by the word, one whole-string ``permute_string`` per letter."""
    for letter in word:
        x = permute_string(x, gens.get(letter))
    return x


@dataclass(frozen=True)
class ReferenceWalk:
    """What ``reference_walk`` found: the fields of a ``SearchResult``,
    with the permutation composed one step at a time as the walk went."""

    word: tuple[str, ...]
    permutation: Permutation
    string: str
    steps: int
    status: str
    trace: tuple[str, ...]


def reference_walk(
    bits: str,
    order: PriorityOrder | None,
    gens: GeneratorSet,
    start: Sequence[str] = (),
    max_steps: int = 10**6,
) -> ReferenceWalk:
    """Greedy best-improvement walk with two O(N) joins per candidate."""
    if len(bits) != gens.degree:
        raise DegreeMismatch(f"string length {len(bits)} vs degree {gens.degree}")
    current = reference_apply_word(gens, start)
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
            return ReferenceWalk(tuple(word), current, cur_str, steps, LOCAL_OPT, tuple(trace))
        name, g, cur_str = best
        current = compose(current, g)
        word.append(name)
        steps += 1
        trace.append(cur_str)
    return ReferenceWalk(tuple(word), current, cur_str, steps, STEP_CAP, tuple(trace))


def reference_is_local_min(
    bits: str,
    order: PriorityOrder | None,
    gens: GeneratorSet,
    current: Permutation,
) -> bool:
    cur = permute_string(bits, current)
    cur_key = sort_key(cur, order)
    return all(sort_key(permute_string(cur, g), order) >= cur_key for _, g in gens)


def power(p: Permutation, k: int) -> Permutation:
    """p composed with itself k times (k may be negative), by repeated
    squaring with ``compose``; no cycle is read."""
    base, out = (inverse(p) if k < 0 else p), identity(p.degree)
    k = abs(k)
    while k:
        if k & 1:
            out = compose(out, base)
        base, k = compose(base, base), k >> 1
    return out


def perm_order(p: Permutation) -> int:
    """Order of p: the lcm of its cycle lengths."""
    return lcm(*map(len, _cycles(p)))


def reference_local_min_one_perm(
    bits: str, p: Permutation, order: PriorityOrder | None = None
) -> OnePermResult:
    """The cycle walk with every point renamed by its rank under an order:
    the relabelled p is decomposed into cycles a second time and scanned
    against the string's sort key."""
    if len(bits) != p.degree:
        raise DegreeMismatch(f"string length {len(bits)} vs degree {p.degree}")
    check_bits(bits)
    if order is not None and order.degree != p.degree:
        raise LengthMismatch(f"{len(bits)} bits vs order degree {order.degree}")
    if order is None:
        scanned, key = _cycles(p), bits
    else:
        # point order.rank[r] is relabelled r + 1; the relabelled p's
        # cycles come in order of their most significant member, each
        # starting there
        scanned, key = _cycles(_relabel(p, order)), sort_key(bits, order)
    chosen = None
    for cyc in scanned:
        values = {key[i - 1] for i in cyc}
        if len(values) > 1:
            chosen = cyc
            break
    if chosen is None:
        return OnePermResult(0, identity(p.degree), None)
    length = len(chosen)
    for k in range(length):
        i = chosen[k]
        j = chosen[(k + 1) % length]
        if key[i - 1] == "0" and key[j - 1] == "1":
            first = chosen[0] if order is None else order.rank[chosen[0] - 1]
            return OnePermResult(k, power_from_cycles(p, k), first)
    raise AssertionError("non-constant cycle must contain a 0 -> 1 boundary")


def _relabel(p: Permutation, order: PriorityOrder) -> Permutation:
    """p with every point renamed by its rank: it sends the rank of i to
    the rank of p(i)."""
    rank_of = {i: r for r, i in enumerate(order.rank, start=1)}
    to = {rank_of[i]: rank_of[v] for i, v in zip(p.moved, p.moved_to)}
    moved = tuple(sorted(to))
    return Permutation._unchecked(p.degree, moved, tuple([to[r] for r in moved]))


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


def reference_zero_forbidden_witness(gm: GlobalMinOneInstance, cap: int = 10**6) -> int | None:
    """Walk the orbit of the start one whole string per step."""
    n_steps = perm_order(gm.perm)
    if n_steps > cap:
        raise OrderCapExceeded(f"permutation order {n_steps} exceeds cap {cap}")
    s = gm.start
    for t in range(n_steps):
        if all(s[pos - 1] == "0" for pos in gm.forbidden):
            return t
        s = permute_string(s, gm.perm)
    return None


def reference_coloring_to_dcr(g: Graph) -> tuple[DcrInstance, tuple[int, ...]]:
    """Test every residue modulo p_u * p_v for a pair of equal colors."""
    primes = first_odd_primes(g.n)
    constraints = []
    for u, v in g.edges:
        pu, pv = primes[u - 1], primes[v - 1]
        m = pu * pv
        forbidden = frozenset(
            c
            for c in range(m)
            for a, b in [(c % pu, c % pv)]
            if (a, b) == (0, 0) or (a, b) == (1, 1) or (a >= 2 and b >= 2)
        )
        constraints.append((m, forbidden))
    return DcrInstance(tuple(constraints)), primes


def reference_dcr_to_globalmin1(inst: DcrInstance) -> GlobalMinOneInstance:
    """Place every label's point, image entry, bit and rank one by one,
    and validate the dense image and the order."""
    image: list[int] = []
    bits: list[str] = []
    ranked_first: list[int] = []
    ranked_rest: list[int] = []
    offset = 0
    for m, forbidden in inst.constraints:
        for label in range(m):
            pos = offset + label + 1
            image.append(offset + (label - 1) % m + 1)
            bits.append("1" if label == 0 else "0")
            (ranked_first if label in forbidden else ranked_rest).append(pos)
        offset += m
    return GlobalMinOneInstance(
        start="".join(bits),
        perm=Permutation(tuple(image)),
        order=PriorityOrder(tuple(ranked_first + ranked_rest)),
        forbidden=tuple(ranked_first),
    )


def reference_check_symmetry(f: CnfFormula, p: Permutation) -> bool:
    """Rename every clause and compare the full clause multisets."""
    image = p.image

    def mapped(clause: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(sorted((1 if l > 0 else -1) * image[abs(l) - 1] for l in clause))

    canon = [tuple(sorted(cl)) for cl in f.clauses]
    return Counter(map(mapped, f.clauses)) == Counter(canon)


def reference_formula_clauses(c: FlipInstance) -> list[tuple[int, ...]]:
    """``build_formula``'s clauses, each copy's gadget clauses built from
    its own pairs with a set union and a sort, then the twin clauses and
    the coupling biconditionals."""
    layout = Layout(c, gate_var=True)
    n = c.n

    def lit(k: int, value: int) -> int:
        return 2 * k - value

    def bicond(a: int, b: int) -> list[tuple[int, ...]]:
        return [tuple(sorted((-a, b))), tuple(sorted((a, -b)))]

    clauses: list[tuple[int, ...]] = []
    for j in range(n + 1):

        def source(src) -> int:
            return layout.pair(j, "in" if src[0] == "x" else "w", src[1])

        for gid, (s1, s2) in enumerate(c.gates, start=1):
            u, v, w = source(s1), source(s2), layout.pair(j, "w", gid)
            quads = [layout.pair(j, "quad", gid, q) for q in QUADRANTS]
            for a1 in (1, 0):
                for a2 in (1, 0):
                    for b in (1, 0):
                        premise = {-lit(u, a1), -lit(v, a2), -lit(w, b)}
                        for k, lab in zip(quads, GADGET[f"{a1}{a2}{b}"]):
                            clauses.append(tuple(sorted(premise | {lit(k, int(lab))})))
    for v in range(1, layout.points + 1, 2):
        clauses.append((v, v + 1))
        clauses.append((-(v + 1), -v))
    for i1 in range(n + 1):
        for i2 in range(i1 + 1, n + 1):
            for jj in range(1, n + 1):
                a, b = layout.pair(i1, "in", jj), layout.pair(i2, "in", jj)
                flipped = int(jj in (i1, i2))
                clauses += bicond(lit(a, 1), lit(b, 1 - flipped))
                clauses += bicond(lit(a, 0), lit(b, flipped))
    return clauses


def reference_satisfies(f: CnfFormula, assignment: str) -> bool:
    """Every clause has a literal whose bit makes it true."""
    if len(assignment) != f.num_vars:
        raise LengthMismatch(f"{len(assignment)} bits vs {f.num_vars} variables")
    return all(
        any((assignment[abs(l) - 1] == "1") == (l > 0) for l in clause)
        for clause in f.clauses
    )


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
    catalog = reference_positions(inst.layout)
    index = {pos: i for i, pos in enumerate(catalog, start=1)}
    if len(y) != 2 * len(index):
        raise LengthMismatch(f"{len(y)} bits, expected {2 * len(index)}")
    for i in range(0, len(y), 2):
        if y[i] == y[i + 1]:
            return BehaviorReport(False, f"twin pair of {catalog[i // 2].label()} agrees")
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


class OrbitCapExceeded(LexpermError):
    pass


class WidthExceeded(LexpermError):
    pass


class TwinViolation(LexpermError):
    pass


def cycle_decomposition(p: Permutation) -> tuple[tuple[int, ...], ...]:
    """All cycles of p, fixed points included.

    Each cycle starts at its smallest member and cycles are sorted by
    that member, so the output is canonical.
    """
    image = p.image
    seen = [False] * len(image)
    cycles = []
    for start, nxt in enumerate(image, start=1):
        if seen[start - 1]:
            continue
        seen[start - 1] = True
        cyc = [start]
        while nxt != start:
            cyc.append(nxt)
            seen[nxt - 1] = True
            nxt = image[nxt - 1]
        cycles.append(tuple(cyc))
    return tuple(cycles)


def random_permutation(rng: Random, degree: int) -> Permutation:
    img = list(range(1, degree + 1))
    rng.shuffle(img)
    return Permutation(tuple(img))


def enumerate_group(gens: GeneratorSet, cap: int = 10**6) -> set[Permutation]:
    """Brute-force closure of the generated group."""
    elements = {identity(gens.degree)}
    frontier = [identity(gens.degree)]
    while frontier:
        nxt = []
        for p in frontier:
            for _, g in gens:
                q = compose(p, g)
                if q not in elements:
                    if len(elements) >= cap:
                        raise OrbitCapExceeded(f"group closure exceeds cap {cap}")
                    elements.add(q)
                    nxt.append(q)
        frontier = nxt
    return elements


def orbit_of_string(gens: GeneratorSet, x: str, cap: int = 10**6) -> set[str]:
    """BFS closure of x under the generators acting on strings."""
    if len(x) != gens.degree:
        raise DegreeMismatch(f"string length {len(x)} vs degree {gens.degree}")
    orbit = {x}
    frontier = [x]
    while frontier:
        nxt = []
        for s in frontier:
            for _, g in gens:
                t = permute_string(s, g)
                if t not in orbit:
                    if len(orbit) >= cap:
                        raise OrbitCapExceeded(f"orbit exceeds cap {cap}")
                    orbit.add(t)
                    nxt.append(t)
        frontier = nxt
    return orbit


LESS, EQUAL, GREATER = -1, 0, 1


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
    check_bits(bits)
    return "".join("1" if b == "0" else "0" for b in bits)


def eval_recursive(c: FlipInstance, bits: str) -> str:
    """Memo-free recursive evaluator; independent oracle for eval_circuit."""
    if len(bits) != c.n:
        raise LengthMismatch(f"{len(bits)} input bits, expected {c.n}")

    def value(src: Source) -> int:
        if src[0] == "x":
            return int(bits[src[1] - 1])
        a, b = c.gates[src[1] - 1]
        return 1 - (value(a) & value(b))

    return "".join(str(value(("g", gid))) for gid in c.outputs)


def enumerate_models(f: CnfFormula, cap: int = 10**6) -> list[str]:
    """All satisfying assignments via backtracking with unit propagation
    (exhaustive oracle; intended for small formulas).  The backtracking
    keeps an explicit stack of decisions, so its depth is not bounded by
    the interpreter's recursion limit."""
    V = f.num_vars
    assign: list[int | None] = [None] * (V + 1)
    models: list[str] = []

    def propagate(trail: list[int]) -> bool:
        changed = True
        while changed:
            changed = False
            for clause in f.clauses:
                unassigned = None
                count = 0
                sat = False
                for l in clause:
                    val = assign[abs(l)]
                    if val is None:
                        unassigned = l
                        count += 1
                    elif (val == 1) == (l > 0):
                        sat = True
                        break
                if sat:
                    continue
                if count == 0:
                    return False
                if count == 1:
                    assert unassigned is not None
                    assign[abs(unassigned)] = 1 if unassigned > 0 else 0
                    trail.append(abs(unassigned))
                    changed = True
        return True

    # one trail per decision: the decided variable, then what propagation set
    decisions: list[list[int]] = []
    v = 1
    while True:
        while v <= V and assign[v] is not None:
            v += 1
        if v <= V:
            assign[v] = 0
            decisions.append([v])
            if propagate(decisions[-1]):
                continue
        else:
            if len(models) >= cap:
                raise OrbitCapExceeded(f"model count exceeds cap {cap}")
            models.append("".join(str(assign[u]) for u in range(1, V + 1)))
        # backtrack to the latest decision still at 0 and try 1 there
        while decisions:
            trail = decisions.pop()
            v, value = trail[0], assign[trail[0]]
            for u in trail:
                assign[u] = None
            if value == 0:
                assign[v] = 1
                decisions.append([v])
                if propagate(decisions[-1]):
                    break
        else:
            return models


def random_dcr_instance(rng: Random, max_constraints: int = 4, max_modulus: int = 7) -> DcrInstance:
    """Small random system for cross-checking the two solvers."""
    constraints = []
    for _ in range(rng.randint(1, max_constraints)):
        m = rng.randint(1, max_modulus)
        forbidden = frozenset(r for r in range(m) if rng.random() < 0.4)
        constraints.append((m, forbidden))
    return DcrInstance(tuple(constraints))


def condense(y_expanded: str) -> str:
    """Inverse of expand; every twin pair must hold complementary bits."""
    if len(y_expanded) % 2:
        raise LengthMismatch("expanded string has odd length")
    for i in range(0, len(y_expanded), 2):
        if y_expanded[i] == y_expanded[i + 1]:
            raise TwinViolation(f"twin pair at positions {i + 1}, {i + 2} agree")
    return y_expanded[0::2]


def assemble_well_behaved(
    inst: ReducedInstance,
    x: str,
    gate_outputs: str | None = None,
) -> str:
    """Expanded assignment for copy-0 input x and the given gate output
    bits (circuit-major string over (n+1) * gate_count gates; default all
    zeros)."""
    if len(x) != inst.n:
        raise LengthMismatch(f"{len(x)} input bits, expected {inst.n}")
    if gate_outputs is not None and len(gate_outputs) != (inst.n + 1) * inst.circuit.gate_count:
        raise LengthMismatch("one output bit per gate per circuit copy required")
    return expand(inst.layout.assemble(x, gate_outputs))


def condensed_order(inst: ReducedInstance) -> PriorityOrder:
    """The instance's priority order on the condensed view, one rank per
    twin pair; the expanded order must keep twins adjacent."""
    ranks = []
    exp = inst.order.rank
    for t in range(0, len(exp), 2):
        a, b = exp[t], exp[t + 1]
        if a % 2 == 0 or b != a + 1:
            raise TwinViolation("priority order does not keep twins adjacent")
        ranks.append((a + 1) // 2)
    return PriorityOrder(tuple(ranks))


def is_correct(state: GateState) -> bool:
    """The gate's output bit is the NAND of its inputs."""
    return state.b == 1 - (state.a1 & state.a2)


def orbit_lengths(chain: StabilizerChain) -> tuple[int, ...]:
    """The orbit length of every level, outermost first."""
    return tuple(len(level.orbit) for level in chain._levels)


def reference_first_odd_primes(count: int, cap: int = 10**6) -> tuple[int, ...]:
    """The first ``count`` primes greater than 2, by trial division of
    every odd candidate up to cap."""
    primes: list[int] = []
    candidate = 3
    while len(primes) < count:
        if candidate > cap:
            raise PrimeCapExceeded(f"prime search passed cap {cap}")
        if all(candidate % q for q in range(2, int(candidate**0.5) + 1)):
            primes.append(candidate)
        candidate += 2
    return tuple(primes)


def format_graph(g: Graph) -> str:
    """DIMACS-style graph text, the format ``dcr.parse_graph`` reads."""
    lines = [f"p edge {g.n} {len(g.edges)}"]
    lines += [f"e {u} {v}" for u, v in g.edges]
    return "\n".join(lines) + "\n"


def is_proper_coloring(g: Graph, colors: str) -> bool:
    return all(colors[u - 1] != colors[v - 1] for u, v in g.edges)
