"""CNF formulas whose models are the consistent circuit-copy assignments
and whose symmetries are the reduction's permutations.

Every logical variable u gets a twin variable constrained to hold the
complementary value, so "negate u" is the variable transposition
(u utilde) and all symmetries act purely on variables.  Per gate, eight
implication groups tie the source variables and the gate output variable
to the quadrant encoding; a coupling formula forces copy-j inputs to be
copy-0 inputs with bit j flipped.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

from .bitlex import PriorityOrder, check_bits, format_order, parse_order, read_decimal
from .circuit import FlipInstance
from .errors import (
    DegreeMismatch,
    LengthMismatch,
    MalformedDimacs,
    OrbitCapExceeded,
    UnsatStart,
)
from .perm import (
    GeneratorSet,
    Permutation,
    format_cycles,
    parse_generator_file,
)
from .reduction import QUADRANTS, GateState, Layout, encode_gate_state, expand
from .search import SearchResult, standard_algorithm


@dataclass(frozen=True)
class CnfFormula:
    """Clauses over twinned variables plus attached symmetry generators,
    variable priority and an initial satisfying assignment."""

    num_vars: int
    clauses: tuple[tuple[int, ...], ...]
    var_labels: tuple[str, ...]
    symmetries: GeneratorSet
    priority: PriorityOrder | None = None
    initial: str | None = None
    circuit: FlipInstance | None = None

    @cached_property
    def canonical_clauses(self) -> tuple[tuple[int, ...], ...]:
        """Every clause with its literals sorted, in clause order."""
        return tuple(tuple(sorted(clause)) for clause in self.clauses)

    @cached_property
    def clauses_of_var(self) -> tuple[tuple[int, ...], ...]:
        """Entry v lists the indices of the clauses that mention variable v
        (entry 0 is empty)."""
        index: list[list[int]] = [[] for _ in range(self.num_vars + 1)]
        for c, clause in enumerate(self.clauses):
            for v in {abs(l) for l in clause}:
                index[v].append(c)
        return tuple(map(tuple, index))


def _bicond(a: int, b: int) -> list[tuple[int, ...]]:
    return [tuple(sorted((-a, b))), tuple(sorted((a, -b)))]


def build_formula(c: FlipInstance) -> CnfFormula:
    layout = Layout(c, gate_var=True)
    n, G = c.n, c.gate_count

    def lit(k: int, value: int) -> int:
        # twin pair k holds variables 2k-1 and 2k: the positive literal of
        # the primary 2k-1 when value is 1, of the twin 2k when 0
        return 2 * k - value

    labels: list[str] = []
    for pos in layout.positions:
        labels += [pos.label(), f"{pos.label()}.t"]

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
                        state = encode_gate_state(GateState(a1, a2, b))
                        for k, lab in zip(quads, state):
                            clauses.append(tuple(sorted(premise | {lit(k, lab)})))
    for v in range(1, layout.points + 1, 2):
        clauses.append((v, v + 1))
        clauses.append((-(v + 1), -v))
    for i1 in range(n + 1):
        for i2 in range(i1 + 1, n + 1):
            for jj in range(1, n + 1):
                a, b = layout.pair(i1, "in", jj), layout.pair(i2, "in", jj)
                flipped = int(jj in (i1, i2))
                clauses += _bicond(lit(a, 1), lit(b, 1 - flipped))
                clauses += _bicond(lit(a, 0), lit(b, flipped))

    ranked = [layout.pair(0, "quad", gid, "11") for gid in range(1, G + 1)]
    ranked += [layout.pair(0, "w", gid) for gid in c.outputs]
    for j in range(1, n + 1):
        ranked += [layout.pair(j, "quad", gid, "11") for gid in range(1, G + 1)]
    first = set(ranked)
    for j in range(n + 1):
        rest = [layout.pair(j, "in", i) for i in range(1, n + 1)]
        for gid in range(1, G + 1):
            rest.append(layout.pair(j, "w", gid))
            rest += [layout.pair(j, "quad", gid, q) for q in ("00", "01", "10")]
        ranked += [k for k in rest if k not in first]

    return CnfFormula(
        num_vars=layout.points,
        clauses=tuple(clauses),
        var_labels=tuple(labels),
        symmetries=layout.generators(),
        priority=layout.priority(ranked),
        initial=expand(layout.assemble("0" * n)),
        circuit=c,
    )


def satisfies(f: CnfFormula, assignment: str) -> bool:
    if len(assignment) != f.num_vars:
        raise LengthMismatch(f"{len(assignment)} bits vs {f.num_vars} variables")
    return all(
        any((assignment[abs(l) - 1] == "1") == (l > 0) for l in clause)
        for clause in f.clauses
    )


def check_symmetry(f: CnfFormula, p: Permutation) -> bool:
    """True iff renaming every variable through p maps the clause multiset
    onto itself.

    A clause that mentions no variable p moves maps to itself, so the
    multisets are equal iff the clauses touching supp(p) map onto
    themselves; only those are renamed and counted."""
    if p.degree != f.num_vars:
        raise DegreeMismatch(f"permutation degree {p.degree} vs {f.num_vars} variables")
    image = p.image
    clauses_of_var = f.clauses_of_var
    touched: set[int] = set()
    for v in p.moved:
        touched.update(clauses_of_var[v])
    canon = f.canonical_clauses

    def mapped(clause: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(sorted((1 if l > 0 else -1) * image[abs(l) - 1] for l in clause))

    return Counter(mapped(canon[c]) for c in touched) == Counter(canon[c] for c in touched)


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


def local_min_solution(
    f: CnfFormula,
    alpha: str | None = None,
    max_steps: int = 10**6,
) -> SearchResult:
    """Greedy descent through the symmetries from a satisfying assignment.

    Symmetries map models to models, so every visited assignment
    satisfies the formula; the endpoint cannot be improved by any single
    symmetry under the variable priority."""
    start = alpha if alpha is not None else f.initial
    if start is None:
        raise ValueError("no assignment given and formula has no initial one")
    if not satisfies(f, start):
        raise UnsatStart("starting assignment does not satisfy the formula")
    return standard_algorithm(start, f.priority, f.symmetries, max_steps=max_steps)


def decode_input(f: CnfFormula, assignment: str) -> str:
    """Copy-0 input bits read off an assignment via the variable labels."""
    values: dict[int, str] = {}
    for v, label in enumerate(f.var_labels, start=1):
        m = re.match(r"C0\.x(\d+)$", label)
        if m:
            values[int(m.group(1))] = assignment[v - 1]
    return "".join(values[i] for i in sorted(values))


def format_dimacs(f: CnfFormula) -> str:
    """DIMACS text with the catalog, initial assignment, priority and
    symmetries carried in comment lines, so one stream round-trips."""
    lines = []
    for v, label in enumerate(f.var_labels, start=1):
        lines.append(f"c var {v} {label}")
    if f.initial is not None:
        lines.append(f"c alpha {f.initial}")
    if f.priority is not None:
        lines.append(f"c priority {format_order(f.priority)}")
    for name, p in f.symmetries:
        lines.append(f"c sym {name} = {format_cycles(p)}")
    lines.append(f"p cnf {f.num_vars} {len(f.clauses)}")
    for clause in f.clauses:
        lines.append(" ".join(map(str, clause)) + " 0")
    return "\n".join(lines) + "\n"


def parse_dimacs(text: str, symmetries_text: str | None = None) -> CnfFormula:
    num_vars = None
    announced = None
    clauses: list[tuple[int, ...]] = []
    pending: list[int] = []
    labels: dict[int, str] = {}
    alpha = None
    priority_text = None
    sym_lines: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("c"):
            fields = line.split(None, 2)
            if len(fields) >= 3 and fields[1] == "var":
                idx_str, _, label = fields[2].partition(" ")
                idx = read_decimal(idx_str)
                if idx is None:
                    raise MalformedDimacs(f"line {lineno}: bad variable index {idx_str!r}")
                labels[idx] = label.strip()
            elif len(fields) >= 3 and fields[1] == "alpha":
                alpha = fields[2].strip()
                check_bits(alpha, MalformedDimacs)
            elif len(fields) >= 3 and fields[1] == "priority":
                priority_text = fields[2]
            elif len(fields) >= 3 and fields[1] == "sym":
                sym_lines.append(fields[2])
            continue
        if line.startswith("p"):
            fields = line.split()
            sizes = [read_decimal(tok) for tok in fields[2:]]
            if len(fields) != 4 or fields[1] != "cnf" or None in sizes:
                raise MalformedDimacs(f"line {lineno}: bad problem line {line[:40]!r}")
            num_vars, announced = sizes
            continue
        try:
            tokens = [int(tok) for tok in line.split()]
        except ValueError as exc:
            raise MalformedDimacs(f"line {lineno}: non-integer literal") from exc
        for tok in tokens:
            if tok == 0:
                clauses.append(tuple(pending))
                pending = []
            else:
                pending.append(tok)
    if num_vars is None:
        raise MalformedDimacs("missing 'p cnf' line")
    if pending:
        raise MalformedDimacs("last clause is not terminated by 0")
    if announced != len(clauses):
        raise MalformedDimacs(
            f"header announces {announced} clauses, file has {len(clauses)}"
        )
    for clause in clauses:
        for l in clause:
            if not 1 <= abs(l) <= num_vars:
                raise MalformedDimacs(f"literal {l} outside variable range")
    symmetries = parse_generator_file(
        "\n".join(sym_lines) if symmetries_text is None else symmetries_text, num_vars
    )
    var_labels = tuple(labels.get(v, f"v{v}") for v in range(1, num_vars + 1))
    priority = None
    if priority_text is not None:
        priority = parse_order(priority_text, num_vars)
    return CnfFormula(
        num_vars=num_vars,
        clauses=tuple(clauses),
        var_labels=var_labels,
        symmetries=symmetries,
        priority=priority,
        initial=alpha,
        circuit=None,
    )
