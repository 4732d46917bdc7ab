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

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .bitlex import PriorityOrder, check_bits, format_order, parse_order
from .circuit import FlipInstance, format_netlist, parse_netlist
from .errors import (
    FormatError,
    LengthMismatch,
    NotWellBehaved,
    TwinViolation,
)
from .perm import (
    GeneratorSet,
    Permutation,
    apply_word_to_string,
    format_cycles,
    parse_generator_file,
)

QUADRANTS = ("00", "01", "10", "11")
CONTROL = "11"


@dataclass(frozen=True, slots=True)
class GateState:
    """Two input bits and the output bit of one gate."""

    a1: int
    a2: int
    b: int

    @property
    def is_correct(self) -> bool:
        return self.b == 1 - (self.a1 & self.a2)


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


_LABEL_RE = re.compile(
    r"C(?P<j>\d+)\.(?:x(?P<x>\d+)|g(?P<g>\d+)\.q(?P<q>[01]{2})|c(?P<c>\d+))\.(?P<t>[01])$"
)


def parse_position_label(text: str) -> tuple[Position, int]:
    m = _LABEL_RE.match(text)
    if not m:
        raise FormatError(f"bad position label {text!r}")
    j = int(m.group("j"))
    if m.group("x"):
        pos = Position(j, "in", int(m.group("x")))
    elif m.group("g"):
        pos = Position(j, "quad", int(m.group("g")), m.group("q"))
    else:
        pos = Position(j, "out", int(m.group("c")))
    return pos, int(m.group("t"))


@dataclass(frozen=True)
class BehaviorReport:
    ok: bool
    violation: str | None = None

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class ReducedInstance:
    """Positions, generators, start string and priority order; the source
    circuit is kept when known (instance files embed it)."""

    circuit: FlipInstance | None
    n: int
    condensed: tuple[Position, ...]
    gens: GeneratorSet
    y_start: str
    order: PriorityOrder

    @property
    def num_positions(self) -> int:
        return 2 * len(self.condensed)

    @cached_property
    def cond_index(self) -> dict[Position, int]:
        return {pos: i for i, pos in enumerate(self.condensed, start=1)}

    def expanded_index(self, pos: Position, twin: int) -> int:
        return 2 * self.cond_index[pos] - 1 + twin

    @cached_property
    def condensed_order(self) -> PriorityOrder:
        ranks = []
        exp = self.order.rank
        for t in range(0, len(exp), 2):
            a, b = exp[t], exp[t + 1]
            if a % 2 == 0 or b != a + 1:
                raise TwinViolation("priority order does not keep twins adjacent")
            ranks.append((a + 1) // 2)
        return PriorityOrder(tuple(ranks))

    def input_positions(self, circuit: int) -> tuple[Position, ...]:
        return tuple(Position(circuit, "in", i) for i in range(1, self.n + 1))


def expand(y_condensed: str) -> str:
    """Each bit b becomes the twin pair (b, not b)."""
    return "".join("01" if b == "0" else "10" for b in y_condensed)


def condense(y_expanded: str) -> str:
    """Inverse of expand; every twin pair must hold complementary bits."""
    if len(y_expanded) % 2:
        raise LengthMismatch("expanded string has odd length")
    for i in range(0, len(y_expanded), 2):
        if y_expanded[i] == y_expanded[i + 1]:
            raise TwinViolation(f"twin pair at positions {i + 1}, {i + 2} agree")
    return y_expanded[0::2]


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

    @property
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
        every input."""
        c, n, total = self.circuit, self.circuit.n, self.points

        def flip(k: int) -> list[tuple[int, int]]:
            return [(2 * k - 1, 2 * k)]

        def swap(k: int, l: int) -> list[tuple[int, int]]:
            return [(2 * k - 1, 2 * l - 1), (2 * k, 2 * l)]

        def feed_swaps(j: int, source) -> list[tuple[int, int]]:
            # When `source` flips, successor gadgets swap along the fed axis:
            # first input swaps 00<->10 and 01<->11, second input 00<->01 and
            # 10<->11; a gate fed twice composes both (a diagonal swap).
            axes = ((("00", "10"), ("01", "11")), (("00", "01"), ("10", "11")))
            ops: list[tuple[int, int]] = []
            for hid, sources in enumerate(c.gates, start=1):
                for src, axis in zip(sources, axes):
                    if src == source:
                        for qa, qb in axis:
                            k, l = self.pair(j, "quad", hid, qa), self.pair(j, "quad", hid, qb)
                            ops += swap(k, l)
            return ops

        def perm_from(ops: Iterable[tuple[int, int]]) -> Permutation:
            img = list(range(1, total + 1))
            for a, b in ops:
                img[a - 1], img[b - 1] = img[b - 1], img[a - 1]
            return Permutation(tuple(img))

        pairs: list[tuple[str, Permutation]] = []
        for j in range(n + 1):
            for gid in range(1, c.gate_count + 1):
                slots = [("quad", gid, q) for q in QUADRANTS]
                if gid in self.gate_output:
                    slots.append(self.gate_output[gid])
                ops = [op for slot in slots for op in flip(self.pair(j, *slot))]
                ops += feed_swaps(j, ("g", gid))
                pairs.append((f"pi_{gid}_{j}", perm_from(ops)))
        for i in range(1, n + 1):
            ops = [op for s in range(1, self.per + 1) for op in swap(s, i * self.per + s)]
            for j in range(1, n + 1):
                if j != i:
                    ops += flip(self.pair(j, "in", i)) + feed_swaps(j, ("x", i))
            pairs.append((f"sigma_{i}", perm_from(ops)))
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

            def value(src) -> str:
                return xj[src[1] - 1] if src[0] == "x" else out[src[1] - 1]

            for kind, index, q in self.template:
                if kind == "in":
                    cond.append(xj[index - 1])
                elif kind == "w":
                    cond.append(out[index - 1])
                elif kind == "out":
                    cond.append(out[c.outputs[index - 1] - 1])
                else:
                    s1, s2 = c.gates[index - 1]
                    state = GateState(int(value(s1)), int(value(s2)), int(out[index - 1]))
                    cond.append(str(encode_gate_state(state)[QUADRANTS.index(q)]))
        return "".join(cond)


def build_instance(c: FlipInstance) -> ReducedInstance:
    layout = Layout(c)
    n, G = c.n, c.gate_count
    ranked: list[int] = []
    for j in range(n + 1):
        ranked += [layout.pair(j, "quad", gid, CONTROL) for gid in range(1, G + 1)]
        ranked += [layout.pair(j, "out", k) for k in range(1, c.output_count + 1)]
        for gid in range(1, G + 1):
            ranked += [layout.pair(j, "quad", gid, q) for q in ("00", "01", "10")]
        ranked += [layout.pair(j, "in", i) for i in range(1, n + 1)]
    y_start = expand(layout.assemble("0" * n))
    return ReducedInstance(
        c, n, layout.positions, layout.generators(), y_start, layout.priority(ranked)
    )


def assemble_well_behaved(
    inst: ReducedInstance,
    x: str,
    gate_outputs: str | None = None,
) -> str:
    """Expanded assignment for copy-0 input x and the given gate output
    bits (circuit-major string over (n+1) * gate_count gates; default all
    zeros)."""
    c = inst.circuit
    if c is None:
        raise ValueError("instance carries no circuit")
    if len(x) != inst.n:
        raise LengthMismatch(f"{len(x)} input bits, expected {inst.n}")
    if gate_outputs is None:
        gate_outputs = "0" * ((inst.n + 1) * c.gate_count)
    if len(gate_outputs) != (inst.n + 1) * c.gate_count:
        raise LengthMismatch("one output bit per gate per circuit copy required")
    return expand(Layout(c).assemble(x, gate_outputs))


def is_well_behaved(inst: ReducedInstance, y: str) -> BehaviorReport:
    """Check the full consistency contract: valid twins, every gadget a
    gate state, wiring / input / output agreement, and copy-j inputs equal
    to copy-0 inputs with bit j flipped."""
    c = inst.circuit
    if c is None:
        raise ValueError("instance carries no circuit")
    if len(y) != inst.num_positions:
        raise LengthMismatch(f"{len(y)} bits, expected {inst.num_positions}")
    for i in range(0, len(y), 2):
        if y[i] == y[i + 1]:
            pos = inst.condensed[i // 2]
            return BehaviorReport(False, f"twin pair of {pos.label()} agrees")
    cond = y[0::2]

    def value(pos: Position) -> int:
        return int(cond[inst.cond_index[pos] - 1])

    for j in range(inst.n + 1):
        states: dict[int, GateState] = {}
        for gid in range(1, c.gate_count + 1):
            labels = [value(Position(j, "quad", gid, q)) for q in QUADRANTS]
            state = decode_gate_state(labels)
            if state is None:
                return BehaviorReport(False, f"gadget C{j}.g{gid} encodes no state")
            states[gid] = state
        for gid, sources in enumerate(c.gates, start=1):
            for slot, src in enumerate(sources, start=1):
                a = states[gid].a1 if slot == 1 else states[gid].a2
                if src[0] == "g":
                    if a != states[src[1]].b:
                        return BehaviorReport(
                            False,
                            f"C{j}: gate g{src[1]} output disagrees with g{gid} input {slot}",
                        )
                elif a != value(Position(j, "in", src[1])):
                    return BehaviorReport(
                        False, f"C{j}: input x{src[1]} disagrees with g{gid} input {slot}"
                    )
        for k, gid in enumerate(c.outputs, start=1):
            if value(Position(j, "out", k)) != states[gid].b:
                return BehaviorReport(False, f"C{j}: output c{k} disagrees with g{gid}")
    x0 = [value(p) for p in inst.input_positions(0)]
    for j in range(1, inst.n + 1):
        xj = [value(p) for p in inst.input_positions(j)]
        expected = [b ^ (i == j) for i, b in enumerate(x0, start=1)]
        if xj != expected:
            return BehaviorReport(False, f"inputs of C{j} are not C0 with bit {j} flipped")
    return BehaviorReport(True)


def extract_flip_input(inst: ReducedInstance, y: str) -> str:
    """Copy-0 input bits of a well-behaved assignment."""
    if inst.circuit is not None:
        report = is_well_behaved(inst, y)
        if not report:
            raise NotWellBehaved(report.violation or "assignment is not well-behaved")
        cond = y[0::2]
    else:
        cond = condense(y)
    return "".join(cond[inst.cond_index[p] - 1] for p in inst.input_positions(0))


def map_solution(inst: ReducedInstance, word: Sequence[str]) -> str:
    """Solution mapping of the reduction: act on the start string by the
    word and read off the copy-0 input."""
    y = apply_word_to_string(inst.gens, inst.y_start, word)
    return extract_flip_input(inst, y)


def embed_flip_solution(inst: ReducedInstance, target: str) -> list[str]:
    """A word of at most n circuit swaps whose mapped solution is target:
    each sigma_i toggles copy-0 input bit i."""
    if len(target) != inst.n:
        raise LengthMismatch(f"{len(target)} bits, expected {inst.n}")
    cond = condense(inst.y_start)
    start_x = "".join(cond[inst.cond_index[p] - 1] for p in inst.input_positions(0))
    return [f"sigma_{i}" for i in range(1, inst.n + 1) if start_x[i - 1] != target[i - 1]]


def format_instance(inst: ReducedInstance) -> str:
    lines = [f"N {inst.num_positions} K {len(inst.gens)}"]
    if inst.circuit is not None:
        lines += [f"net {line}" for line in format_netlist(inst.circuit).strip().splitlines()]
    for ci, pos in enumerate(inst.condensed, start=1):
        lines.append(f"pos {2 * ci - 1} {pos.label(0)}")
        lines.append(f"pos {2 * ci} {pos.label(1)}")
    lines.append(f"start {inst.y_start}")
    lines.append(f"order {format_order(inst.order)}")
    for name, p in inst.gens:
        lines.append(f"{name} = {format_cycles(p)}")
    return "\n".join(lines) + "\n"


def parse_instance(text: str) -> ReducedInstance:
    header = None
    net_lines: list[str] = []
    pos_entries: dict[int, tuple[Position, int]] = {}
    start = None
    order_text = None
    gen_lines: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split(None, 1)
        if fields[0] in ("net", "pos", "start", "order") and len(fields) < 2:
            raise FormatError(f"line {lineno}: {fields[0]!r} line carries no value")
        if fields[0] == "N":
            header = line
        elif fields[0] == "net":
            net_lines.append(fields[1])
        elif fields[0] == "pos":
            idx_str, *label = fields[1].split(None, 1)
            if not idx_str.isdecimal():
                raise FormatError(f"line {lineno}: bad position index {idx_str!r}")
            pos_entries[int(idx_str)] = parse_position_label(" ".join(label))
        elif fields[0] == "start":
            start = fields[1].strip()
            check_bits(start)
        elif fields[0] == "order":
            order_text = fields[1]
        elif "=" in line:
            gen_lines.append(line)
        else:
            raise FormatError(f"line {lineno}: unrecognized line {line!r}")
    if header is None or start is None or order_text is None:
        raise FormatError("instance file misses N / start / order lines")
    m = re.match(r"N (\d+) K (\d+)$", header)
    if not m:
        raise FormatError(f"bad header {header!r}")
    total, k = int(m.group(1)), int(m.group(2))
    if total % 2 or len(pos_entries) != total:
        raise FormatError("position catalog does not cover N twin positions")
    condensed = []
    for ci in range(1, total // 2 + 1):
        p0, t0 = pos_entries[2 * ci - 1]
        p1, t1 = pos_entries[2 * ci]
        if p0 != p1 or (t0, t1) != (0, 1):
            raise FormatError(f"positions {2 * ci - 1}, {2 * ci} are not a twin pair")
        condensed.append(p0)
    circuit = parse_netlist("\n".join(net_lines)) if net_lines else None
    if circuit is not None:
        n = circuit.n
    else:
        n = max((p.index for p in condensed if p.kind == "in"), default=0)
    gens = parse_generator_file("\n".join(gen_lines), total)
    if len(gens) != k:
        raise FormatError(f"header announces {k} generators, file has {len(gens)}")
    if len(start) != total:
        raise FormatError("start string length disagrees with N")
    return ReducedInstance(
        circuit=circuit,
        n=n,
        condensed=tuple(condensed),
        gens=gens,
        y_start=start,
        order=parse_order(order_text, total),
    )
