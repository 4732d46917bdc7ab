"""Turn a NAND-circuit local-search instance into a permutation-search one.

The construction keeps n+1 copies of the circuit: copy 0 carries the
current input x, copy j carries x with bit j flipped.  Every logical bit
is stored as a twin pair of positions holding complementary values, so
"flip a bit" becomes a transposition and the whole move set is a
permutation group:

* a gate gadget of four quadrant positions encodes the gate state
  (in1, in2, out); the 11 quadrant reads 0 exactly when the gate output
  is the NAND of its inputs, which makes it a one-bit correctness probe;
* ``pi_<gate>_<circuit>`` flips a gate's output: it inverts the gadget,
  swaps successor gadgets along the fed input axis, and flips the
  circuit-output position when the gate is an output;
* ``sigma_<i>`` swaps copy 0 with copy i wholesale and flips input i in
  every other copy (again with the induced successor swaps).

The priority order ranks copy 0 before copy 1 and so on; inside a copy,
quadrant-11 probes come first in topological order, then the circuit
outputs, then everything else.  Twin positions always occupy adjacent
ranks, which preserves local optimality between the one-position-per-bit
(condensed) and two-position (expanded) views.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import zip_longest
from typing import Iterable, Sequence

from .bitlex import PriorityOrder, check_bits, format_order
from .circuit import FlipInstance, flip_bit, format_netlist, parse_netlist
from .errors import (
    DegreeMismatch,
    FormatError,
    LengthMismatch,
    NotWellBehaved,
)
from .perm import (
    GeneratorSet,
    Permutation,
    apply_word_to_string,
    generator_lines,
    permute_in_place,
)

QUADRANTS = ("00", "01", "10", "11")
CONTROL = "11"

# a move's ``moved`` points and their images ``moved_to``
Support = tuple[tuple[int, ...], tuple[int, ...]]

# gate state "<in1><in2><out>" -> the labels of quadrants 00, 01, 10, 11:
# the quadrant named by the inputs carries the output bit, the other three
# its complement
GADGET = {
    f"{a1}{a2}{b}": "".join(b if q == f"{a1}{a2}" else "10"[int(b)] for q in QUADRANTS)
    for a1 in "01"
    for a2 in "01"
    for b in "01"
}
# a valid gadget has exactly one or three 1s; any other encodes no state
STATE_OF = {code: state for state, code in GADGET.items()}

_EXPAND = str.maketrans({"0": "01", "1": "10"})
_COMPLEMENT = str.maketrans("01", "10")


@dataclass(frozen=True)
class BehaviorReport:
    ok: bool
    violation: str | None = None

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class ReducedInstance:
    """The instance built from a circuit: its positions (the circuit's
    ``Layout``), generators, start string and priority order are derived
    from the circuit when the instance is made."""

    circuit: FlipInstance
    layout: Layout = field(init=False, compare=False, repr=False)
    gens: GeneratorSet = field(init=False, compare=False, repr=False)
    y_start: str = field(init=False, compare=False, repr=False)
    order: PriorityOrder = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        c = self.circuit
        layout = Layout(c)
        gates = range(1, c.gate_count + 1)
        # copy 0's pairs in rank order; copy j ranks the same slots, shifted
        first = [layout.pair(0, "quad", gid, CONTROL) for gid in gates]
        first += [layout.pair(0, "out", k) for k in range(1, c.output_count + 1)]
        first += [layout.pair(0, "quad", gid, q) for gid in gates for q in ("00", "01", "10")]
        first += [layout.pair(0, "in", i) for i in range(1, c.n + 1)]
        ranked = [k + j * layout.per for j in range(c.n + 1) for k in first]
        object.__setattr__(self, "layout", layout)
        object.__setattr__(self, "gens", layout.generators())
        object.__setattr__(self, "y_start", expand(layout.assemble("0" * c.n)))
        object.__setattr__(self, "order", layout.priority(ranked))

    @property
    def n(self) -> int:
        return self.circuit.n

    @property
    def num_positions(self) -> int:
        return self.layout.points


def expand(y_condensed: str) -> str:
    """Each bit b becomes the twin pair (b, not b)."""
    return y_condensed.translate(_EXPAND)


class Layout:
    """n+1 copies of one slot template over a circuit.

    A slot is ``(kind, index, quadrant)``: an input ``in``, a gadget
    quadrant ``quad``, or a gate-output slot.  With ``gate_var`` every
    gate has a ``w`` slot (the CNF's gate-output variable) just before its
    quadrants; without it the copy ends in one ``out`` slot per circuit
    output (the reduction's circuit outputs).  Slot s of copy j is twin
    pair k = j * per + offset[s], and that pair occupies points 2k-1
    and 2k.

    Every copy is copy 0 shifted, so labels, assembly and decoding work
    from copy 0's slots by arithmetic: pair k = j * per + s is labelled
    ``C<j>.<suffix of slot s>``, and a copy's gadgets start at the same
    offsets as copy 0's.
    """

    def __init__(self, c: FlipInstance, gate_var: bool = False):
        self.circuit = c
        self.gate_var = gate_var
        template = [("in", i, "") for i in range(1, c.n + 1)]
        for gid in range(1, c.gate_count + 1):
            if gate_var:
                template.append(("w", gid, ""))
            template += [("quad", gid, q) for q in QUADRANTS]
        if not gate_var:
            template += [("out", k, "") for k in range(1, c.output_count + 1)]
        self.template = tuple(template)
        self.per = len(template)
        self.offset = {slot: s for s, slot in enumerate(template, start=1)}
        self.points = 2 * self.per * (c.n + 1)
        # gate id -> the slot holding that gate's output bit, where there is one
        if gate_var:
            self.gate_output = {gid: ("w", gid, "") for gid in range(1, c.gate_count + 1)}
        else:
            self.gate_output = {gid: ("out", k, "") for k, gid in enumerate(c.outputs, start=1)}
        # each gate's two sources as indices into a copy's input bits
        # followed by its gate output bits
        self.sources = tuple(
            tuple(i - 1 if kind == "x" else c.n + i - 1 for kind, i in gate) for gate in c.gates
        )

    def pair(self, j: int, kind: str, index: int, quadrant: str = "") -> int:
        """Twin pair number of the slot in copy j."""
        return j * self.per + self.offset[(kind, index, quadrant)]

    def labels(self) -> list[str]:
        """Every twin pair's label, in pair order: ``C<j>.<suffix>``, the
        suffix naming the slot (``x3``, ``g5.q01``, ``g5.w``, ``c2``)."""
        suffix = {"in": "x{}", "quad": "g{}.q{}", "w": "g{}.w", "out": "c{}"}
        suffixes = [suffix[kind].format(index, q) for kind, index, q in self.template]
        return [f"C{j}.{s}" for j in range(self.circuit.n + 1) for s in suffixes]

    def priority(self, pairs: Iterable[int]) -> PriorityOrder:
        """Priority order that ranks twin pairs in the given order, each
        pair's two points at adjacent ranks."""
        return PriorityOrder(tuple(r for k in pairs for r in (2 * k - 1, 2 * k)))

    def _copy0_moves(self) -> tuple[list[Support], list[Support]]:
        """Copy 0's part of every move, each as the ``moved`` and
        ``moved_to`` of a ``Permutation``: a gate's pi for every gate, in
        gate order, and for every input the flip of that input with its
        successor swaps, which sigma makes in the copies it does not trade."""
        c = self.circuit

        def flip(k: int) -> list[tuple[int, int]]:
            return [(2 * k - 1, 2 * k)]

        def swap(k: int, l: int) -> list[tuple[int, int]]:
            return [(2 * k - 1, 2 * l - 1), (2 * k, 2 * l)]

        # When a source flips, successor gadgets swap along the fed axis:
        # first input swaps 00<->10 and 01<->11, second input 00<->01 and
        # 10<->11; a gate fed twice composes both (a diagonal swap).
        axes = ((("00", "10"), ("01", "11")), (("00", "01"), ("10", "11")))
        fed: dict[tuple[str, int], list[tuple[int, tuple]]] = {}
        for hid, sources in enumerate(c.gates, start=1):
            for src, axis in zip(sources, axes):
                fed.setdefault(src, []).append((hid, axis))

        def feed_swaps(source) -> list[tuple[int, int]]:
            ops: list[tuple[int, int]] = []
            for hid, axis in fed.get(source, ()):
                for qa, qb in axis:
                    ops += swap(self.pair(0, "quad", hid, qa), self.pair(0, "quad", hid, qb))
            return ops

        def support(ops: list[tuple[int, int]]) -> Support:
            """``moved`` and ``moved_to`` of a product of transpositions; it
            moves at most the points they name."""
            img: dict[int, int] = {}
            for a, b in ops:
                img[a], img[b] = img.get(b, b), img.get(a, a)
            moved = tuple(sorted([a for a, b in img.items() if a != b]))
            return moved, tuple([img[a] for a in moved])

        gate_moves = []
        for gid in range(1, c.gate_count + 1):
            slots = [("quad", gid, q) for q in QUADRANTS]
            if gid in self.gate_output:
                slots.append(self.gate_output[gid])
            ops = [op for slot in slots for op in flip(self.pair(0, *slot))]
            gate_moves.append(support(ops + feed_swaps(("g", gid))))
        input_moves = [
            support(flip(self.pair(0, "in", i)) + feed_swaps(("x", i)))
            for i in range(1, c.n + 1)
        ]
        return gate_moves, input_moves

    def shifted(self, template: Support, j: int) -> Support:
        """A copy-0 support moved to copy j: copy j is copy 0 shifted by
        2 * j * per points."""
        d = 2 * j * self.per
        return tuple([a + d for a in template[0]]), tuple([a + d for a in template[1]])

    def generators(self) -> GeneratorSet:
        """``pi_<gate>_<copy>`` for every gadget, copy-major, then
        ``sigma_<i>`` for every input.  Each gate's ``pi`` and each input's
        flip are built once, in copy 0, and shifted to the other copies.

        The set decides ``membership`` with a ``ReductionGroup`` of this
        layout and its generators, not with a stabilizer chain."""
        n, total = self.circuit.n, self.points
        width = 2 * self.per  # points per copy
        gate_moves, input_moves = self._copy0_moves()
        pairs: list[tuple[str, Permutation]] = []
        for j in range(n + 1):
            for gid, template in enumerate(gate_moves, start=1):
                pairs.append((f"pi_{gid}_{j}", Permutation._unchecked(total, *self.shifted(template, j))))
        copy0 = range(1, width + 1)
        for i, template in enumerate(input_moves, start=1):
            # copy 0 and copy i trade places; the other copies flip input i.
            # Copies hold ascending ranges of points, so concatenating their
            # parts in copy order keeps ``moved`` ascending.
            own = range(i * width + 1, (i + 1) * width + 1)
            moved, moved_to = [*copy0], [*own]
            for j in range(1, n + 1):
                part = (own, copy0) if j == i else self.shifted(template, j)
                moved += part[0]
                moved_to += part[1]
            pairs.append((f"sigma_{i}", Permutation._unchecked(total, tuple(moved), tuple(moved_to))))
        gens = GeneratorSet.from_pairs(total, pairs)
        # the test holds the set's generator tuple, not the set, so the two
        # form no cycle
        object.__setattr__(gens, "_membership", ReductionGroup(self, gens.perms, input_moves))
        return gens

    def assemble(self, x: str, gate_outputs: str | None = None) -> str:
        """Condensed values in pair order for copy-0 input x and the given
        gate output bits (circuit-major, one per gate per copy; default
        all zeros).  Copy j holds x with bit j flipped and gadgets follow
        the wiring, so the result is well-behaved by construction."""
        c, G = self.circuit, self.circuit.gate_count
        if gate_outputs is None:
            gate_outputs = "0" * ((c.n + 1) * G)
        cond: list[str] = []
        for j in range(c.n + 1):
            xj = x if j == 0 else flip_bit(x, j)
            out = gate_outputs[j * G : (j + 1) * G]
            values = xj + out  # what ``sources`` indexes
            codes = [GADGET[values[a] + values[b] + o] for (a, b), o in zip(self.sources, out)]
            # in template order: the inputs, each gate's w slot (with
            # gate_var) and quadrants, then the circuit outputs
            cond.append(xj)
            if self.gate_var:
                cond += [o + code for o, code in zip(out, codes)]
            else:
                cond += codes
                cond += [out[gid - 1] for gid in c.outputs]
        return "".join(cond)

    def decode(self, cond: str) -> tuple[str, str] | None:
        """The copy-0 input and every gadget's output bit (in the form
        assemble takes them) read off condensed values in pair order; None
        when some gadget encodes no gate state."""
        # a gadget's quadrants are four consecutive pairs, in QUADRANTS
        # order, from its quadrant-00 pair at the same offset in every copy
        gadgets = [self.offset[("quad", gid, "00")] - 1 for gid in range(1, self.circuit.gate_count + 1)]
        states = [
            STATE_OF.get(cond[k : k + 4])
            for base in range(0, self.per * (self.circuit.n + 1), self.per)
            for k in (base + s for s in gadgets)
        ]
        if None in states:
            return None
        # copy 0's inputs are its first n slots; a state's last bit is the output
        return cond[: self.circuit.n], "".join([state[2] for state in states])


class ReductionGroup:
    """Membership in the group G that a ``Layout``'s generators generate,
    decided from the construction rather than by a stabilizer chain.

    Write w for the 2 * per points of one copy; copy j is the block of
    points j*w+1 .. (j+1)*w.  ``pi_g_j`` fixes every block and
    ``sigma_i`` trades blocks 0 and i, so G permutes the n+1 copies, and
    as all of S_{n+1}, since the transpositions (0 i) generate it.  Let
    F_i be input i's move (its flip with the successor swaps) made in
    every copy, and F_d the product of the F_i over a set d of inputs.
    The pi and F_i are commuting involutions: a twin flip commutes with a
    swap of whole twin pairs, and swaps along quadrant axes commute.  No
    pi flips an input pair, and F_i flips exactly input i's.

    The copy-fixing subgroup K of G is {prod pi_g_j * F_d : |d| even}:

    * K holds each such element.  Every pi_g_j is a generator, and
      k_ij = (sigma_i sigma_j)^3 equals F_i * F_j, so the n-1 products
      F_1 * F_j give every F_d with |d| even.
    * K holds no other.  ``sigma_i`` is the block trade times input i's
      move in every copy but 0 and i, and a block trade only renumbers
      the copies of a move, so an element of G that fixes every copy is
      a product of pi moves and of input moves made in single copies.  G
      keeps strings well-behaved, so copy j's input stays copy 0's with
      bit j flipped; each input's move is thus made in every copy or in
      none, and the element is prod pi * F_d.  Each sigma in a word flips
      one copy-0 input bit and is one transposition of copies, so the
      copy-0 input that an element writes over the start string, which
      is d for prod pi * F_d, has the parity of its copy permutation:
      |d| is even in K.

    Hence |G| = |K| * (n+1)! = 2^((n+1)G + n-1) * (n+1)!, and p lies in
    G iff it maps every copy block onto one block and, with its copy
    permutation undone by sigmas, lies in K (the block-system argument:
    Seress, *Permutation Group Algorithms*, 2003).  ``contains`` needs
    no Schreier generators and no basis: it multiplies one image list in
    place by moves, each touching only its own support.

    The test holds its layout, the set's generator tuple, whose
    ``pi_g_j`` come first, copy-major, and strip the gate flips, and the
    copy-0 input moves the generators were built from.  It builds its
    tables, the input moves F_i of every copy and the pairs it reads, on
    the first query, so a set that is never queried pays nothing, and it
    never holds the set, so the two form no cycle."""

    __slots__ = ("layout", "perms", "input_moves", "_tables")

    def __init__(self, layout: Layout, perms: Sequence[Permutation], input_moves: Sequence[Support]):
        self.layout = layout
        self.perms = perms
        self.input_moves = input_moves
        self._tables = None

    def _build(self):
        layout = self.layout
        copies = layout.circuit.n + 1
        # first point of each input's copy-0 pair, with the input's move in
        # every copy, in copy order
        inputs = [
            (2 * layout.pair(0, "in", i) - 1, [layout.shifted(t, j) for j in range(copies)])
            for i, t in enumerate(self.input_moves, start=1)
        ]
        # first point of each gadget's quadrant-00 pair, in the order of the pi
        gadgets = [
            2 * layout.pair(j, "quad", gid, "00") - 1
            for j in range(copies)
            for gid in range(1, layout.circuit.gate_count + 1)
        ]
        self._tables = (2 * layout.per, inputs, gadgets, list(range(layout.points + 1)))
        return self._tables

    def contains(self, p: Permutation) -> bool:
        """True iff p lies in the group the layout's generators generate."""
        if p.degree != self.layout.points:
            raise DegreeMismatch(f"degree {p.degree} vs layout degree {self.layout.points}")
        width, inputs, gadgets, ident = self._tables or self._build()
        img = ident[:]  # 1-based, entry 0 a pad; each move multiplies it on the right
        permute_in_place(img, p.moved, p.moved_to)  # now img is p
        tau = []  # the copy permutation
        for lo in range(1, len(img), width):
            block = img[lo : lo + width]
            t = (min(block) - 1) // width
            if (max(block) - 1) // width != t:
                return False
            tau.append(t)
        # undo tau by sigma_a, with a = tau(0), which sigma_a makes a fixed
        # copy, or the first moved copy when copy 0 is fixed
        while True:
            a = tau[0] or next((b for b, t in enumerate(tau) if b != t), 0)
            if not a:
                break
            lo, hi = a * width + 1, (a + 1) * width + 1
            img[1 : width + 1], img[lo:hi] = img[lo:hi], img[1 : width + 1]
            for j, move in enumerate(inputs[a - 1][1]):
                if j and j != a:
                    permute_in_place(img, *move)
            tau[0], tau[a] = tau[a], tau[0]
        # The residue fixes every copy.  In K, F_d is the only factor that
        # flips copy-0 input pairs and pi_g_j the only one that flips
        # gadget (g, j)'s quadrant-00 pair; the others swap whole twin
        # pairs.  A pair's first point x is odd, so x's pair is flipped
        # iff img[x] is even.
        odd = False
        for x, moves in inputs:
            if not img[x] & 1:
                odd = not odd
                for move in moves:
                    permute_in_place(img, *move)
        for x, pi in zip(gadgets, self.perms):
            if not img[x] & 1:
                permute_in_place(img, pi.moved, pi.moved_to)
        return not odd and img == ident


def build_instance(c: FlipInstance) -> ReducedInstance:
    return ReducedInstance(c)


_SLOT_NAMES = {"in": "input", "quad": "gadget quadrant", "out": "output"}


def is_well_behaved(inst: ReducedInstance, y: str) -> BehaviorReport:
    """Check the full consistency contract: valid twins, every gadget a
    gate state, and every slot equal to what ``Layout.assemble`` writes for
    the decoded copy-0 input and gate output bits.

    That is exact: assemble writes copy-j inputs as the copy-0 input with
    bit j flipped, each gadget as the state of its sources and its own
    output bit, and each circuit output from its gate, and ``GADGET`` is
    injective."""
    check_bits(y)
    if len(y) != inst.num_positions:
        raise LengthMismatch(f"{len(y)} bits, expected {inst.num_positions}")
    layout, cond = inst.layout, y[0::2]
    if cond.translate(_COMPLEMENT) != y[1::2]:
        k = next(k for k, b in enumerate(cond) if b == y[2 * k + 1])
        return BehaviorReport(False, f"twin pair of {layout.labels()[k]} agrees")
    decoded = layout.decode(cond)
    if decoded is None:
        return BehaviorReport(False, "a gadget encodes no gate state")
    expected = layout.assemble(*decoded)
    if expected != cond:
        k = next(k for k, (a, b) in enumerate(zip(expected, cond)) if a != b)
        return BehaviorReport(
            False,
            f"{_SLOT_NAMES[layout.template[k % layout.per][0]]} {layout.labels()[k]} "
            f"disagrees with copy-0 input {decoded[0]} and the gate outputs",
        )
    return BehaviorReport(True)


def extract_flip_input(inst: ReducedInstance, y: str) -> str:
    """Copy-0 input bits of a well-behaved assignment."""
    report = is_well_behaved(inst, y)
    if not report:
        raise NotWellBehaved(report.violation)
    return inst.layout.decode(y[0::2])[0]


def map_solution(inst: ReducedInstance, word: Sequence[str]) -> str:
    """Solution mapping of the reduction: act on the start string by the
    word and read off the copy-0 input."""
    y = apply_word_to_string(inst.gens, inst.y_start, word)
    return extract_flip_input(inst, y)


def embed_flip_solution(inst: ReducedInstance, target: str) -> list[str]:
    """A word of at most n circuit swaps whose mapped solution is target:
    the start string's copy-0 input is all zeros, and each sigma_i toggles
    its bit i."""
    if len(target) != inst.n:
        raise LengthMismatch(f"{len(target)} bits, expected {inst.n}")
    check_bits(target)
    return [f"sigma_{i}" for i in range(1, inst.n + 1) if target[i - 1] == "1"]


def _file_lines(inst: ReducedInstance) -> list[str]:
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


def format_instance(inst: ReducedInstance) -> str:
    return "\n".join(_file_lines(inst)) + "\n"


def parse_instance(text: str) -> ReducedInstance:
    """Read an instance file by rebuilding it from its netlist.

    The ``net`` lines are required, and the instance is ``build_instance``
    of that netlist.  Every other line must be what ``format_instance``
    writes, in the same order, up to runs of spacing: the ``N``/``K``
    header, the ``pos`` catalog, ``start``, ``order`` and the generator
    lines.  Blank lines and ``#`` comments are skipped.  Any difference is
    a FormatError."""
    lines = text.splitlines()
    net: dict[int, str] = {}  # line number -> value of each 'net' line
    # only a line that holds "net" can be a 'net' line once normalised
    for lineno in [k for k, raw in enumerate(lines, start=1) if "net" in raw]:
        kind, _, value = " ".join(lines[lineno - 1].split()).partition(" ")
        if kind == "net":
            if not value:
                raise FormatError(f"line {lineno}: 'net' line carries no value")
            net[lineno] = value
    if not net:
        raise FormatError("instance file carries no 'net' lines")
    inst = build_instance(parse_netlist("\n".join(net.values())))
    verified = [line for line in _file_lines(inst) if not line.startswith("net ")]
    if [raw for lineno, raw in enumerate(lines, start=1) if lineno not in net] == verified:
        return inst  # every line as format_instance writes it
    normalised = ((k, " ".join(raw.split())) for k, raw in enumerate(lines, start=1) if k not in net)
    written = [(lineno, line) for lineno, line in normalised if line and not line.startswith("#")]
    for got, want in zip_longest(written, verified):
        lineno, line = got or (None, None)
        if line != want:
            where = "end of file" if lineno is None else f"line {lineno}"
            raise FormatError(f"{where}: found {line!r:.40}, the netlist builds {want!r:.40}")
    return inst
