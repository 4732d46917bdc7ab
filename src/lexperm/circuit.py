"""NAND-circuit DAGs: the local-search source problem and its oracles.

A circuit has n inputs and a topologically ordered list of two-source
NAND gates; outputs are distinct gate ids (never raw inputs).  The cost
of an input assignment is the m-bit output read most-significant-first,
and two assignments are neighbors when they differ in one bit.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from random import Random

from .bitlex import check_bits, read_decimal
from .errors import FormatError, LengthMismatch

Source = tuple[str, int]  # ("x", input index) or ("g", gate id), 1-based


@dataclass(frozen=True, slots=True)
class FlipInstance:
    n: int
    gates: tuple[tuple[Source, Source], ...]
    outputs: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one input")
        if not self.gates:
            raise ValueError("need at least one gate")
        for gid, (a, b) in enumerate(self.gates, start=1):
            for kind, idx in (a, b):
                if kind == "x":
                    if not 1 <= idx <= self.n:
                        raise ValueError(f"gate {gid}: input x{idx} out of range")
                elif kind == "g":
                    if not 1 <= idx < gid:
                        raise ValueError(f"gate {gid}: source g{idx} must precede it")
                else:
                    raise ValueError(f"gate {gid}: unknown source kind {kind!r}")
        if not self.outputs:
            raise ValueError("need at least one output")
        if len(set(self.outputs)) != len(self.outputs):
            raise ValueError("output gate ids must be distinct")
        for gid in self.outputs:
            if not 1 <= gid <= len(self.gates):
                raise ValueError(f"output g{gid} is not a gate")

    @property
    def gate_count(self) -> int:
        return len(self.gates)

    @property
    def output_count(self) -> int:
        return len(self.outputs)


def eval_circuit(c: FlipInstance, bits: str) -> tuple[str, tuple[int, ...]]:
    """Outputs and per-gate values for the given input assignment."""
    if len(bits) != c.n:
        raise LengthMismatch(f"{len(bits)} input bits, expected {c.n}")
    check_bits(bits)
    values: list[int] = []
    for a, b in c.gates:
        va = int(bits[a[1] - 1]) if a[0] == "x" else values[a[1] - 1]
        vb = int(bits[b[1] - 1]) if b[0] == "x" else values[b[1] - 1]
        values.append(1 - (va & vb))
    out = "".join(str(values[gid - 1]) for gid in c.outputs)
    return out, tuple(values)


def flip_bit(bits: str, j: int) -> str:
    """bits with its j-th (1-based) bit flipped."""
    return bits[: j - 1] + ("1" if bits[j - 1] == "0" else "0") + bits[j:]


def flip_local_check(c: FlipInstance, bits: str) -> int | None:
    """Smallest input index whose flip strictly lowers the output, or None
    when bits is a local minimum."""
    base, _ = eval_circuit(c, bits)
    for j in range(1, c.n + 1):
        if eval_circuit(c, flip_bit(bits, j))[0] < base:
            return j
    return None


@dataclass(slots=True)
class FlipWalk:
    x: str
    steps: int
    status: str  # "local_min" | "step_cap"
    trace: list[str] = field(default_factory=list)


def flip_greedy(c: FlipInstance, bits: str, max_steps: int = 10**4) -> FlipWalk:
    """Best-improvement walk; ties go to the smallest input index."""
    cur = bits
    cur_out, _ = eval_circuit(c, cur)
    trace = [cur]
    steps = 0
    while steps < max_steps:
        best_j, best_out = None, cur_out
        for j in range(1, c.n + 1):
            out, _ = eval_circuit(c, flip_bit(cur, j))
            if out < best_out:
                best_j, best_out = j, out
        if best_j is None:
            return FlipWalk(cur, steps, "local_min", trace)
        cur = flip_bit(cur, best_j)
        cur_out = best_out
        trace.append(cur)
        steps += 1
    return FlipWalk(cur, steps, "step_cap", trace)


def random_instance(rng: Random, n: int, gate_count: int, output_count: int) -> FlipInstance:
    """Random DAG over the given sizes; sources may repeat within a gate."""
    gates = []
    for gid in range(1, gate_count + 1):
        pool: list[Source] = [("x", i) for i in range(1, n + 1)]
        pool += [("g", k) for k in range(1, gid)]
        gates.append((rng.choice(pool), rng.choice(pool)))
    outputs = tuple(sorted(rng.sample(range(1, gate_count + 1), output_count)))
    return FlipInstance(n, tuple(gates), outputs)


def _parse_source(token: str, lineno: int) -> Source:
    index = read_decimal(token[1:])
    if token[:1] in ("x", "g") and index is not None:
        return (token[0], index)
    raise FormatError(f"line {lineno}: source must be x<i> or g<id>, got {token!r}")


def parse_netlist(text: str) -> FlipInstance:
    """Netlist grammar: ``inputs n``, ``gate <id> NAND <src> <src>`` lines
    in id order, then ``outputs g<id> ...``."""
    n = None
    gates: list[tuple[Source, Source]] = []
    outputs: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if fields[0] == "inputs":
            if n is not None:
                raise FormatError(f"line {lineno}: second 'inputs' line")
            n = read_decimal(fields[1]) if len(fields) == 2 else None
            if n is None:
                raise FormatError(f"line {lineno}: expected 'inputs n'")
        elif fields[0] == "gate":
            if len(fields) != 5 or fields[2] != "NAND":
                raise FormatError(f"line {lineno}: expected 'gate <id> NAND <src> <src>'")
            if read_decimal(fields[1]) != len(gates) + 1:
                raise FormatError(f"line {lineno}: gate ids must run 1,2,... in order")
            gates.append(
                (_parse_source(fields[3], lineno), _parse_source(fields[4], lineno))
            )
        elif fields[0] == "outputs":
            for token in fields[1:]:
                gid = read_decimal(token[1:])
                if not token.startswith("g") or gid is None:
                    raise FormatError(f"line {lineno}: outputs must name gates, got {token[:40]!r}")
                outputs.append(gid)
        else:
            raise FormatError(f"line {lineno}: unknown directive {fields[0]!r}")
    if n is None:
        raise FormatError("missing 'inputs' line")
    try:
        inst = FlipInstance(n, tuple(gates), tuple(outputs))
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
    # one warning, found in O(G) whatever n is: at most len(fed) fed
    # inputs come before the first five that feed no gate
    fed = {idx for gate in inst.gates for kind, idx in gate if kind == "x"}
    unfed = n - len(fed)
    if unfed:
        first = [i for i in range(1, min(n, len(fed) + 5) + 1) if i not in fed][:5]
        names = ", ".join(f"x{i}" for i in first)
        if unfed == 1:
            message = f"input {names} feeds no gate"
        else:
            more = ", ..." if unfed > 5 else ""
            message = f"input {names}{more} feed no gate ({unfed} of {n} inputs)"
        warnings.warn(message, stacklevel=2)
    return inst


def format_netlist(c: FlipInstance) -> str:
    lines = [f"inputs {c.n}"]
    for gid, (a, b) in enumerate(c.gates, start=1):
        lines.append(f"gate {gid} NAND {a[0]}{a[1]} {b[0]}{b[1]}")
    lines.append("outputs " + " ".join(f"g{gid}" for gid in c.outputs))
    return "\n".join(lines) + "\n"
