"""The circuit ladder: instance size, memory and times per rung, and the
one-permutation pipeline on four fixed graphs.

Usage, from the repository root:

    python3 tools/ladder.py [--rungs 6] [--max-gb 8]

A rung is a random NAND circuit ``(n inputs, G gates, m outputs)``.  The
circuits come from one ``Random(1)``, with ``circuit.random_instance``
called once per rung in ladder order, so a rung's circuit does not depend
on how many rungs are run.  Each rung runs in a fresh process, so the RSS
columns are that rung's own peak (``ru_maxrss``):

- ``build_instance`` with its generator set, which the instance builds
  on the first read of ``gens``, and the RSS after it;
- the RSS after ``build_formula`` as well, with the instance still held;
- ``check_symmetry`` of that formula with each of its K generators (its
  ``c sym`` lines), the first call building the formula's clause index;
- the DIMACS round trip of that formula: ``format_dimacs`` and
  ``parse_dimacs`` of its text;
- the instance file round trip: ``format_instance`` and ``parse_instance``
  of its text (which rebuilds the instance and checks every line), each
  the fastest of ``REPEATS`` calls, since a call at the first rungs takes
  about a millisecond;
- the walk (``standard_algorithm`` from ``y_start``) and its steps;
- ``apply_word`` of the walk's word: the word replayed into a permutation,
  which the walk's result does on the first read of its ``permutation``;
- the first ``membership`` query of the walk endpoint on the instance's
  generators, which the reduction's structural test answers;
- on the first ``CHAIN_RUNGS`` rungs only, the same query on an equal
  set rebuilt from the generators' fields, which builds a stabilizer
  chain (about 10 s at the third rung and growing about as K squared).

Times are in milliseconds, the chain column's in seconds.  A rung whose
process exceeds ``--max-gb`` of address space (set with ``RLIMIT_AS`` on
that process alone) is reported as not fitting.

A second table times the graph -> system -> one permutation pipeline on
K4, K5, K6 and the 6-cycle with chords (1,3) and (4,6), each the fastest
of ``REPEATS`` calls in milliseconds: ``dcr_to_globalmin1`` of the graph's
system, ``local_min_one_perm``, ``zero_forbidden_witness`` and
``orbit_min_one_perm`` of its instance (both one-permutation routines
under the instance's order), the pipeline from ``dcr_to_globalmin1``
through those three as one call, and ``dcr.solve`` of the system.  A
permutation keeps its cycles once they are read, so each of the three
routines is timed on a fresh copy of the instance's permutation that
keeps none, made outside the timed call: every call pays for the
decomposition, as it would on a permutation it is the first to read.

The report is an ungated measurement: it prints two Markdown tables and
checks nothing.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import subprocess
import sys
import warnings
from pathlib import Path
from random import Random
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
RUNGS = [(4, 8, 3), (6, 20, 4), (8, 40, 6), (10, 80, 8), (12, 120, 10), (14, 160, 12), (16, 200, 14)]
CHAIN_RUNGS = 2
GRAPHS = {
    "K4": (4, [(u, v) for u in range(1, 5) for v in range(u + 1, 5)]),
    "K5": (5, [(u, v) for u in range(1, 6) for v in range(u + 1, 6)]),
    "K6": (6, [(u, v) for u in range(1, 7) for v in range(u + 1, 7)]),
    "C6 + (1,3), (4,6)": (6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6), (1, 3), (4, 6)]),
}
REPEATS = 5


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(index: int) -> dict:
    """Build, formula and walk of one rung, in this process."""
    sys.path.insert(0, str(ROOT / "src"))
    from lexperm import circuit, cnf, perm, reduction, search

    warnings.simplefilter("ignore")  # inputs that feed no gate are expected
    rng = Random(1)
    for shape in RUNGS[: index + 1]:
        c = circuit.random_instance(rng, *shape)
    row: dict = {"rung": RUNGS[index]}
    t = perf_counter()
    inst = reduction.build_instance(c)
    gens = inst.gens
    row.update(N=inst.num_positions, K=len(gens), build_s=perf_counter() - t, rss_build_mb=_rss_mb())
    f = cnf.build_formula(c)
    row["rss_formula_mb"] = _rss_mb()
    t = perf_counter()
    for p in f.symmetries.perms:
        cnf.check_symmetry(f, p)
    row["check_symmetry_s"] = perf_counter() - t
    t = perf_counter()
    text = cnf.format_dimacs(f)
    row["format_dimacs_s"] = perf_counter() - t
    del f
    t = perf_counter()
    cnf.parse_dimacs(text)
    row["parse_dimacs_s"] = perf_counter() - t
    del text
    row["format_ms"] = _fastest_ms(reduction.format_instance, lambda: inst)
    text = reduction.format_instance(inst)
    row["parse_ms"] = _fastest_ms(reduction.parse_instance, lambda: text)
    del text
    t = perf_counter()
    res = search.standard_algorithm(inst.y_start, inst.order, gens, keep_trace=False)
    row.update(walk_s=perf_counter() - t, steps=res.steps, status=res.status)
    t = perf_counter()
    endpoint = res.permutation  # apply_word of the word, on this first read
    row["apply_word_s"] = perf_counter() - t
    t = perf_counter()
    perm.membership(gens, endpoint)
    row["membership_s"] = perf_counter() - t
    if index < CHAIN_RUNGS:
        rebuilt = perm.GeneratorSet(gens.degree, gens.names, gens.perms)
        t = perf_counter()
        perm.membership(rebuilt, endpoint)
        row["chain_membership_s"] = perf_counter() - t
    return row


def _fastest_ms(call, make=lambda: None) -> float:
    """The fastest of ``REPEATS`` calls of ``call(make())``, in ms; ``make``
    runs outside the timed call."""
    best = float("inf")
    for _ in range(REPEATS):
        arg = make()
        t = perf_counter()
        call(arg)
        best = min(best, perf_counter() - t)
    return best * 1e3


def one_perm_rows() -> list[str]:
    """The second table's rows: the one-permutation pipeline per graph."""
    sys.path.insert(0, str(ROOT / "src"))
    from lexperm import dcr, one_perm, perm

    def local_min(gm):
        return one_perm.local_min_one_perm(gm.start, gm.perm, order=gm.order)

    def orbit_min(gm):
        return one_perm.orbit_min_one_perm(gm.start, gm.perm, order=gm.order)

    def pipeline(system):
        gm = dcr.dcr_to_globalmin1(system)
        local_min(gm)
        dcr.zero_forbidden_witness(gm)
        orbit_min(gm)

    def undecomposed(gm):
        """gm with a copy of its permutation that keeps no cycles."""
        p = gm.perm
        return dataclasses.replace(gm, perm=perm.Permutation._unchecked(p.degree, p.moved, p.moved_to))

    rows = []
    for name, (n, edges) in GRAPHS.items():
        system, _ = dcr.coloring_to_dcr(dcr.Graph(n, tuple(edges)))
        gm = dcr.dcr_to_globalmin1(system)
        times = [
            _fastest_ms(dcr.dcr_to_globalmin1, lambda: system),
            _fastest_ms(local_min, lambda: undecomposed(gm)),
            _fastest_ms(dcr.zero_forbidden_witness, lambda: undecomposed(gm)),
            _fastest_ms(orbit_min, lambda: undecomposed(gm)),
            _fastest_ms(pipeline, lambda: system),
            _fastest_ms(dcr.solve, lambda: system),
        ]
        cells = [name, f"{gm.perm.degree:,}", f"{system.lcm:,}", *(f"{ms:.2f} ms" for ms in times)]
        rows.append("| " + " | ".join(cells) + " |")
    return rows


def run_rung(index: int, max_gb: float) -> dict:
    proc = subprocess.run(
        [sys.executable, __file__, "--child", str(index), "--max-gb", str(max_gb)],
        capture_output=True,
        text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 and lines:
        return json.loads(lines[-1])
    tail = (proc.stderr.strip().splitlines() or [f"exit {proc.returncode}"])[-1]
    return {"rung": RUNGS[index], "failed": tail}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--rungs", type=int, default=len(RUNGS), help="run the first this many rungs")
    ap.add_argument("--max-gb", type=float, default=8.0, help="address-space cap of each rung's process")
    ap.add_argument("--child", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child is not None:
        cap = int(args.max_gb * 2**30)
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
        try:
            print(json.dumps(measure(args.child)))
        except MemoryError:
            print(f"MemoryError: does not fit in {args.max_gb} GB", file=sys.stderr)
            return 1
        return 0
    print(
        "| rung (n,G,m) | N | K | `build_instance` | `format_instance` | `parse_instance` "
        "| RSS after build | RSS after `build_formula` | `check_symmetry` ×K | `format_dimacs` | `parse_dimacs` "
        "| walk (steps) | `apply_word` | first `membership` | with a chain |"
    )
    print("| --- " * 15 + "|")
    for index in range(min(args.rungs, len(RUNGS))):
        row = run_rung(index, args.max_gb)
        rung = ",".join(map(str, row["rung"]))
        chain = f"{row['chain_membership_s']:.2f} s" if "chain_membership_s" in row else ""
        if "failed" in row:
            print(f"| {rung} | | | {row['failed']} |" + " |" * 11, flush=True)
            continue
        print(
            f"| {rung} | {row['N']:,} | {row['K']:,} | {row['build_s'] * 1e3:.1f} ms | "
            f"{row['format_ms']:.2f} ms | {row['parse_ms']:.2f} ms | "
            f"{row['rss_build_mb']:,.0f} MB | {row['rss_formula_mb']:,.0f} MB | "
            f"{row['check_symmetry_s'] * 1e3:.1f} ms | "
            f"{row['format_dimacs_s'] * 1e3:.1f} ms | {row['parse_dimacs_s'] * 1e3:.1f} ms | "
            f"{row['walk_s'] * 1e3:.1f} ms ({row['steps']:,} {row['status']}) | "
            f"{row['apply_word_s'] * 1e3:.1f} ms | "
            f"{row['membership_s'] * 1e3:.1f} ms | {chain} |",
            flush=True,
        )
    print()
    print(
        "| graph | N | order | `dcr_to_globalmin1` | `local_min_one_perm` "
        "| `zero_forbidden_witness` | `orbit_min_one_perm` | pipeline | `solve` |"
    )
    print("| --- " * 9 + "|")
    for line in one_perm_rows():
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
