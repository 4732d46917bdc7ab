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
from operator import neg
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .bitlex import PriorityOrder, check_bits, format_order, parse_order, read_decimal, read_decimals
from .circuit import FlipInstance
from .errors import (
    DegreeMismatch,
    LengthMismatch,
    LexpermError,
    MalformedDimacs,
    UnsatStart,
)
from .perm import (
    GeneratorSet,
    Permutation,
    generator_lines,
    parse_generator_lines,
)
from .reduction import GADGET, QUADRANTS, Layout, expand
from .search import SearchResult, standard_algorithm


class ClauseIndex(NamedTuple):
    """A formula's distinct sorted clauses under integer ids 0, 1, ...:
    ``ids`` maps a key to its id (a read-only view), ``keys[i]`` is the key
    of id i, ``counts[i]`` how often it occurs, and ``of_var[v]`` lists the
    ids that mention variable v, an id once per literal of v in its key
    (entry 0 is empty)."""

    ids: Mapping[tuple[int, ...], int]
    keys: tuple[tuple[int, ...], ...]
    counts: tuple[int, ...]
    of_var: tuple[tuple[int, ...], ...]


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

    @cached_property
    def clause_index(self) -> ClauseIndex:
        """The distinct clauses, keyed by their sorted literals and
        numbered in order of first occurrence."""
        counts = Counter(map(tuple, map(sorted, self.clauses)))
        ids = dict(zip(counts, range(len(counts))))
        of_var: list[list[int]] = [[] for _ in range(self.num_vars + 1)]
        for key, i in ids.items():
            for l in key:
                of_var[abs(l)].append(i)
        return ClauseIndex(
            MappingProxyType(ids),
            tuple(ids),
            tuple(counts.values()),
            tuple(map(tuple, of_var)),
        )


def _bicond(a: int, b: int) -> list[tuple[int, ...]]:
    return [tuple(sorted((-a, b))), tuple(sorted((a, -b)))]


def build_formula(c: FlipInstance) -> CnfFormula:
    layout = Layout(c, gate_var=True)
    n, G = c.n, c.gate_count

    def lit(k: int, value: int) -> int:
        # twin pair k holds variables 2k-1 and 2k: the positive literal of
        # the primary 2k-1 when value is 1, of the twin 2k when 0
        return 2 * k - value

    labels = [label for pair in layout.labels() for label in (pair, f"{pair}.t")]

    def source(src) -> int:
        return layout.pair(0, "in" if src[0] == "x" else "w", src[1])

    # copy 0's gadget clauses; a gate fed twice by one source has 3-literal
    # clauses where its premise repeats a literal
    gadgets: list[tuple[int, ...]] = []
    for gid, (s1, s2) in enumerate(c.gates, start=1):
        u, v, w = source(s1), source(s2), layout.pair(0, "w", gid)
        quads = [layout.pair(0, "quad", gid, q) for q in QUADRANTS]
        for a1 in (1, 0):
            for a2 in (1, 0):
                for b in (1, 0):
                    premise = {-lit(u, a1), -lit(v, a2), -lit(w, b)}
                    for k, lab in zip(quads, GADGET[f"{a1}{a2}{b}"]):
                        gadgets.append(tuple(sorted(premise | {lit(k, int(lab))})))
    # copy j's are copy 0's with every variable moved up 2 * j * per, each
    # literal keeping its sign, which keeps every clause sorted
    clauses = list(gadgets)
    for j in range(1, n + 1):
        d = 2 * j * layout.per
        clauses += [tuple([l + d if l > 0 else l - d for l in clause]) for clause in gadgets]
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
    ranked += [k for k in range(1, layout.points // 2 + 1) if k not in first]

    return CnfFormula(
        num_vars=layout.points,
        clauses=tuple(clauses),
        var_labels=tuple(labels),
        symmetries=layout.generators(),
        priority=layout.priority(ranked),
        initial=expand(layout.assemble("0" * n)),
    )


def satisfies(f: CnfFormula, assignment: str) -> bool:
    if len(assignment) != f.num_vars:
        raise LengthMismatch(f"{len(assignment)} bits vs {f.num_vars} variables")
    true = {v if bit == "1" else -v for v, bit in enumerate(assignment, start=1)}
    return not any(map(true.isdisjoint, f.clauses))


def check_symmetry(f: CnfFormula, p: Permutation) -> bool:
    """True iff renaming every variable through p maps the clause multiset
    onto itself.

    The renaming keeps signs, so it is injective on sorted clauses, fixes
    every clause that mentions no variable p moves and maps the clauses
    that do onto clauses that do.  The multiset is therefore invariant iff
    each clause touching supp(p) has an image that occurs as often as the
    clause itself; the check stops at the first that does not, and costs
    only the clauses that touch supp(p).

    When p is an involution, a clause c and its image p(c) are a pair:
    p(p(c)) = c, so the one comparison of their counts is also the check of
    p(c), which leaves the pending set without being renamed.  Each pair is
    renamed once, from whichever of its clauses is popped first.  The
    pending set still holds every clause touching supp(p), not only those
    touching one point of each 2-cycle: a clause that touches only the
    other point and whose image is absent from the formula is the partner
    of no clause, so only its own rename can find the fault ({(2 3)} is no
    symmetry of (1 2), though no clause touches 1)."""
    if p.degree != f.num_vars:
        raise DegreeMismatch(f"permutation degree {p.degree} vs {f.num_vars} variables")
    # literals of moved variables; the rest are fixed
    lit = dict(zip(p.moved, p.moved_to))
    involution = tuple(map(lit.get, p.moved_to)) == p.moved
    lit.update(zip(map(neg, p.moved), map(neg, p.moved_to)))
    rename = lit.get
    ids, keys, counts, of_var = f.clause_index
    find = ids.get
    pending = set().union(*map(of_var.__getitem__, p.moved))
    while pending:
        i = pending.pop()
        key = keys[i]
        j = find(tuple(sorted(map(rename, key, key))))
        if j is None or counts[j] != counts[i]:
            return False
        if involution:
            pending.discard(j)
    return True


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
        raise UnsatStart("no assignment given and the formula has no initial one")
    check_bits(start)
    if not satisfies(f, start):
        raise UnsatStart("starting assignment does not satisfy the formula")
    return standard_algorithm(start, f.priority, f.symmetries, max_steps=max_steps)


def decode_input(f: CnfFormula, assignment: str) -> str:
    """Copy-0 input bits read off an assignment via the variable labels."""
    values: dict[int, str] = {}
    for v, label in enumerate(f.var_labels, start=1):
        m = label.startswith("C0.x") and re.match(r"C0\.x(\d+)$", label)
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
    lines += ["c sym " + line for line in generator_lines(f.symmetries)]
    lines.append(f"p cnf {f.num_vars} {len(f.clauses)}")
    # one format per clause length; the empty clause's is " 0"
    formats = {n: " ".join(["%d"] * n) + " 0" for n in set(map(len, f.clauses))}
    lines += [formats[len(clause)] % clause for clause in f.clauses]
    return "\n".join(lines) + "\n"


def _read_literals(tokens: list[str]) -> list[int] | None:
    """tokens as clause literals, each an optional '-' and ASCII digits, or
    None unless all of them are; one check over the joined text."""
    digits = " ".join(tokens).replace(" -", " ").removeprefix("-").replace(" ", "")
    if digits and not (digits.isascii() and digits.isdecimal()):
        return None
    try:
        return list(map(int, tokens))
    except ValueError:  # a lone '-', or more digits than int() converts
        return None


def parse_dimacs(text: str) -> CnfFormula:
    """The formula of a DIMACS file and its ``c var``, ``c alpha``, ``c
    priority`` and ``c sym`` comment lines.  Every fault is a
    MalformedDimacs, and a fault of a metadata line names that line."""
    num_vars = None
    announced = None
    clauses: list[tuple[int, ...]] = []
    body: list[str] = []  # the clause lines
    var_linenos, var_tokens, var_names = [], [], []  # of the 'c var' lines
    meta: dict[str, tuple[int, str]] = {}  # the 'c alpha' and 'c priority' lines
    sym_lines: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("c"):
            fields = line.split(None, 2)
            key = fields[1] if len(fields) > 1 else None
            value = fields[2] if len(fields) > 2 else ""  # a bare key: the checks below name it
            if key == "var":
                token, _, label = value.partition(" ")
                var_linenos.append(lineno)
                var_tokens.append(token)
                var_names.append(label.strip())
            elif key in ("alpha", "priority"):
                if key in meta:
                    raise MalformedDimacs(f"line {lineno}: a second 'c {key}' line")
                meta[key] = (lineno, value)
            elif key == "sym":
                sym_lines.append((lineno, value))
            continue
        if line.startswith("p"):
            fields = line.split()
            sizes = read_decimals(fields[2:])
            if len(fields) != 4 or fields[1] != "cnf" or sizes is None:
                raise MalformedDimacs(f"line {lineno}: bad problem line {line[:40]!r}")
            if num_vars is not None:
                raise MalformedDimacs(f"line {lineno}: a second 'p cnf' line")
            num_vars, announced = sizes
            continue
        body.append(line)
    indices = read_decimals(var_tokens)
    if indices is None:  # name the first 'c var' line at fault
        k = next(k for k, token in enumerate(var_tokens) if read_decimal(token) is None)
        raise MalformedDimacs(f"line {var_linenos[k]}: bad variable index {var_tokens[k]!r}")
    literals = _read_literals(" ".join(body).split())
    if literals is None:  # name the first clause line at fault
        lineno = next(
            lineno
            for lineno, raw in enumerate(text.splitlines(), start=1)
            if raw.strip()[:1] not in ("", "c", "p") and _read_literals(raw.split()) is None
        )
        raise MalformedDimacs(f"line {lineno}: a literal is not an optional '-' and ASCII digits")
    if num_vars is None:
        raise MalformedDimacs("missing 'p cnf' line")
    start = 0
    for _ in range(literals.count(0)):
        end = literals.index(0, start)
        clauses.append(tuple(literals[start:end]))
        start = end + 1
    if start < len(literals):
        raise MalformedDimacs("last clause is not terminated by 0")
    if announced != len(clauses):
        raise MalformedDimacs(
            f"header announces {announced} clauses, file has {len(clauses)}"
        )
    if literals and max(map(abs, literals)) > num_vars:
        bad = next(lit for lit in literals if abs(lit) > num_vars)
        raise MalformedDimacs(f"literal {bad} outside variable range")
    if indices and (len(set(indices)) < len(indices) or min(indices) < 1 or max(indices) > num_vars):
        seen: set[int] = set()  # name the first 'c var' line at fault
        k = next(k for k, v in enumerate(indices) if not 1 <= v <= num_vars or v in seen or seen.add(v))
        why = "repeated" if 1 <= indices[k] <= num_vars else f"outside 1..{num_vars}"
        raise MalformedDimacs(f"line {var_linenos[k]}: variable index {indices[k]} is {why}")
    labels = dict(zip(indices, var_names))
    var_labels = tuple(labels.get(v, f"v{v}") for v in range(1, num_vars + 1))
    alpha = priority = None
    if "alpha" in meta:
        lineno, alpha = meta["alpha"]
        if alpha.strip("01") or len(alpha) != num_vars:
            raise MalformedDimacs(f"line {lineno}: 'c alpha' {alpha[:40]!r} is not {num_vars} bits")
    if "priority" in meta:
        lineno, order = meta["priority"]
        try:
            priority = parse_order(order, num_vars)
        except LexpermError as exc:
            raise MalformedDimacs(f"line {lineno}: {exc}") from None
    try:  # its faults already name their lines
        symmetries = parse_generator_lines(sym_lines, num_vars)
    except LexpermError as exc:
        raise MalformedDimacs(str(exc)) from None
    return CnfFormula(
        num_vars=num_vars,
        clauses=tuple(clauses),
        var_labels=var_labels,
        symmetries=symmetries,
        priority=priority,
        initial=alpha,
    )
