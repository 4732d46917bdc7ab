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
from functools import cached_property
from itertools import zip_longest
from typing import Iterable, Sequence

from .bitlex import PriorityOrder, check_bits, format_order
from .circuit import FlipInstance, format_netlist, parse_netlist
from .errors import (
    FormatError,
    LengthMismatch,
    NotWellBehaved,
)
from .perm import (
    GeneratorSet,
    Permutation,
    apply_word_to_string,
    generator_lines,
)

QUADRANTS = ("00", "01", "10", "11")
CONTROL = "11"


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
        n, G = c.n, c.gate_count
        ranked: list[int] = []
        for j in range(n + 1):
            ranked += [layout.pair(j, "quad", gid, CONTROL) for gid in range(1, G + 1)]
            ranked += [layout.pair(j, "out", k) for k in range(1, c.output_count + 1)]
            for gid in range(1, G + 1):
                ranked += [layout.pair(j, "quad", gid, q) for q in ("00", "01", "10")]
            ranked += [layout.pair(j, "in", i) for i in range(1, n + 1)]
        object.__setattr__(self, "layout", layout)
        object.__setattr__(self, "gens", layout.generators())
        object.__setattr__(self, "y_start", expand(layout.assemble("0" * n)))
        object.__setattr__(self, "order", layout.priority(ranked))

    @property
    def n(self) -> int:
        return self.circuit.n

    @property
    def condensed(self) -> tuple[Position, ...]:
        return self.layout.positions

    @property
    def num_positions(self) -> int:
        return self.layout.points


def expand(y_condensed: str) -> str:
    """Each bit b becomes the twin pair (b, not b)."""
    return "".join("01" if b == "0" else "10" for b in y_condensed)


class Layout:
    """n+1 copies of one slot template over a circuit.

    A slot is ``(kind, index, quadrant)``: an input ``in``, a gadget
    quadrant ``quad``, or a gate-output slot.  With ``gate_var`` every
    gate has a ``w`` slot (the CNF's gate-output variable) just before its
    quadrants; without it the copy ends in one ``out`` slot per circuit
    output (the reduction's circuit outputs).  Slot s of copy j is twin
    pair k = j * per + offset[s], and that pair occupies points 2k-1
    and 2k.
    """

    def __init__(self, c: FlipInstance, gate_var: bool = False):
        self.circuit = c
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

    def pair(self, j: int, kind: str, index: int, quadrant: str = "") -> int:
        """Twin pair number of the slot in copy j."""
        return j * self.per + self.offset[(kind, index, quadrant)]

    @cached_property
    def positions(self) -> tuple[Position, ...]:
        """The catalog: one Position per twin pair, in pair order."""
        return tuple(
            Position(j, kind, index, q)
            for j in range(self.circuit.n + 1)
            for kind, index, q in self.template
        )

    def priority(self, pairs: Iterable[int]) -> PriorityOrder:
        """Priority order that ranks twin pairs in the given order, each
        pair's two points at adjacent ranks."""
        return PriorityOrder(tuple(r for k in pairs for r in (2 * k - 1, 2 * k)))

    def generators(self) -> GeneratorSet:
        """``pi_<gate>_<copy>`` for every gadget, then ``sigma_<i>`` for
        every input.  Copy j is copy 0 shifted by 2 * j * per points, so
        each gate's ``pi`` and each input's flip are built once, in copy 0,
        and shifted to the other copies."""
        c, n, total = self.circuit, self.circuit.n, self.points

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

        def feed_swaps(j: int, source) -> list[tuple[int, int]]:
            ops: list[tuple[int, int]] = []
            for hid, axis in fed.get(source, ()):
                for qa, qb in axis:
                    ops += swap(self.pair(j, "quad", hid, qa), self.pair(j, "quad", hid, qb))
            return ops

        def support(ops: list[tuple[int, int]]) -> tuple[tuple[int, ...], tuple[int, ...]]:
            """``moved`` and ``moved_to`` of a product of transpositions; it
            moves at most the points they name."""
            img: dict[int, int] = {}
            for a, b in ops:
                img[a], img[b] = img.get(b, b), img.get(a, a)
            moved = tuple(sorted([a for a, b in img.items() if a != b]))
            return moved, tuple([img[a] for a in moved])

        width = 2 * self.per  # points per copy

        def shifted(template, j: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
            """A copy-0 support moved to copy j."""
            d = j * width
            return tuple([a + d for a in template[0]]), tuple([a + d for a in template[1]])

        # copy 0's part of every move: a gate's pi, and the flip of an
        # input with its successor swaps that sigma makes in the other copies
        gate_moves = []
        for gid in range(1, c.gate_count + 1):
            slots = [("quad", gid, q) for q in QUADRANTS]
            if gid in self.gate_output:
                slots.append(self.gate_output[gid])
            ops = [op for slot in slots for op in flip(self.pair(0, *slot))]
            gate_moves.append(support(ops + feed_swaps(0, ("g", gid))))
        input_moves = [
            support(flip(self.pair(0, "in", i)) + feed_swaps(0, ("x", i)))
            for i in range(1, n + 1)
        ]
        pairs: list[tuple[str, Permutation]] = []
        for j in range(n + 1):
            for gid, template in enumerate(gate_moves, start=1):
                pairs.append((f"pi_{gid}_{j}", Permutation._unchecked(total, *shifted(template, j))))
        copy0 = range(1, width + 1)
        for i, template in enumerate(input_moves, start=1):
            # copy 0 and copy i trade places; the other copies flip input i.
            # Copies hold ascending ranges of points, so concatenating their
            # parts in copy order keeps ``moved`` ascending.
            own = range(i * width + 1, (i + 1) * width + 1)
            moved, moved_to = [*copy0], [*own]
            for j in range(1, n + 1):
                part = (own, copy0) if j == i else shifted(template, j)
                moved += part[0]
                moved_to += part[1]
            pairs.append((f"sigma_{i}", Permutation._unchecked(total, tuple(moved), tuple(moved_to))))
        return GeneratorSet.from_pairs(total, pairs)

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
            xj = x if j == 0 else x[: j - 1] + ("1" if x[j - 1] == "0" else "0") + x[j:]
            out = gate_outputs[j * G : (j + 1) * G]

            def value(src) -> int:
                return int(xj[src[1] - 1] if src[0] == "x" else out[src[1] - 1])

            codes = [
                encode_gate_state(GateState(value(s1), value(s2), int(out[gid - 1])))
                for gid, (s1, s2) in enumerate(c.gates, start=1)
            ]
            for kind, index, q in self.template:
                if kind == "in":
                    cond.append(xj[index - 1])
                elif kind == "w":
                    cond.append(out[index - 1])
                elif kind == "out":
                    cond.append(out[c.outputs[index - 1] - 1])
                else:
                    cond.append(str(codes[index - 1][QUADRANTS.index(q)]))
        return "".join(cond)

    def decode(self, cond: str) -> tuple[str, str] | None:
        """The copy-0 input and every gadget's output bit (in the form
        assemble takes them) read off condensed values in pair order; None
        when some gadget encodes no gate state."""
        c = self.circuit
        x = "".join(cond[self.pair(0, "in", i) - 1] for i in range(1, c.n + 1))
        outs: list[str] = []
        for j in range(c.n + 1):
            for gid in range(1, c.gate_count + 1):
                # a gadget's quadrants are consecutive pairs, in QUADRANTS order
                k = self.pair(j, "quad", gid, QUADRANTS[0])
                state = decode_gate_state([int(b) for b in cond[k - 1 : k + 3]])
                if state is None:
                    return None
                outs.append(str(state.b))
        return x, "".join(outs)


def build_instance(c: FlipInstance) -> ReducedInstance:
    return ReducedInstance(c)


_SLOT_NAMES = {"in": "input", "quad": "gadget quadrant", "out": "output"}


def is_well_behaved(inst: ReducedInstance, y: str) -> BehaviorReport:
    """Check the full consistency contract: valid twins, every gadget a
    gate state, and every slot equal to what ``Layout.assemble`` writes for
    the decoded copy-0 input and gate output bits.

    That is exact: assemble writes copy-j inputs as the copy-0 input with
    bit j flipped, each gadget as the state of its sources and its own
    output bit, and each circuit output from its gate, and
    encode_gate_state is injective."""
    if len(y) != inst.num_positions:
        raise LengthMismatch(f"{len(y)} bits, expected {inst.num_positions}")
    for i in range(0, len(y), 2):
        if y[i] == y[i + 1]:
            return BehaviorReport(False, f"twin pair of {inst.condensed[i // 2].label()} agrees")
    cond = y[0::2]
    decoded = inst.layout.decode(cond)
    if decoded is None:
        return BehaviorReport(False, "a gadget encodes no gate state")
    expected = inst.layout.assemble(*decoded)
    if expected != cond:
        pos = inst.condensed[next(k for k, (a, b) in enumerate(zip(expected, cond)) if a != b)]
        return BehaviorReport(
            False,
            f"{_SLOT_NAMES[pos.kind]} {pos.label()} disagrees with copy-0 input "
            f"{decoded[0]} and the gate outputs",
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
    points = (pos.label(t) for pos in inst.condensed for t in (0, 1))
    lines += [f"pos {i} {label}" for i, label in enumerate(points, start=1)]
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
    net_lines: list[str] = []
    written: list[str] = []
    linenos: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = " ".join(raw.split())
        if not line or line.startswith("#"):
            continue
        kind, _, value = line.partition(" ")
        if kind == "net":
            if not value:
                raise FormatError(f"line {lineno}: 'net' line carries no value")
            net_lines.append(value)
        else:
            written.append(line)
            linenos.append(lineno)
    if not net_lines:
        raise FormatError("instance file carries no 'net' lines")
    inst = build_instance(parse_netlist("\n".join(net_lines)))
    verified = [line for line in _file_lines(inst) if not line.startswith("net ")]
    for lineno, line, want in zip_longest(linenos, written, verified):
        if line != want:
            where = "end of file" if lineno is None else f"line {lineno}"
            raise FormatError(f"{where}: found {line!r:.40}, the netlist builds {want!r:.40}")
    return inst
