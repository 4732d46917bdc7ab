"""Layered benchmark for the lexperm pipelines.

Usage, from the repository root:

    python3 perfbench/run.py --workload reduce-walk --seed 1 --seconds 25 --trace 0

Workloads are ``reduce-walk``, ``cnf-symmetry``, ``chain-verify`` and
``dcr-orbit`` (see ``workloads.py``).  The load is a closed loop: one
process, one thread, one instance at a time.  Each run generates a corpus
of ``CORPUS_SIZE`` instances from the seed, sets up (import, generation and
one untimed warm-up instance, repeated and reported as a median), then
runs passes over the corpus in order until ``--seconds`` have gone by,
finishing at least one whole pass.  Every run is checked by the
benchmark's own oracles outside its timed region; a crash, a step cap, a
wrong certificate or a digest mismatch counts as a failed operation.

Times are reported in reference seconds.  A shared machine runs the same
code up to twice as slowly for seconds at a time, and sometimes for a
whole run.  So a fixed pure-Python kernel (``probe``), which shares no
code with the library, is timed before and after every timed region, and
the region's wall time is scaled by ``PROBE_REF_S`` over the probe's mean
time: the time the region would take on a machine on which the probe
takes ``PROBE_REF_S``.  A change to the library moves the region and not
the probe, so it shows in full.  An instance's time is the median of its
scaled runs; the readable report also prints the raw wall-clock
throughput and the median slowdown the probe saw.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` splits the
time between an untraced and a traced loop over the same instances,
prints the per-layer metrics, each layer's self time and share, and the
tracing overhead, and writes the raw spans to ``perfbench/out/``.  The
last stdout line is always one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

Self-test: ``python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import resource
import statistics
import sys
import traceback
import warnings
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from random import Random
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CORPUS_SIZE = 100
SETUP_REPEATS = 5
# The probe's time on an otherwise idle 2-vCPU VM with Python 3.11.
PROBE_REF_S = 0.0025
DIGESTS = HERE / "digests.json"

# Busy time per span name; the metric is the span name plus "_s".
TIMED_SPANS = (
    "search.walk", "circuit.parse", "reduction.build", "reduction.format",
    "reduction.parse", "reduction.map", "circuit.check", "cnf.check_symmetry",
    "cnf.build", "cnf.format", "cnf.parse", "cnf.local_min", "search.verify_perm",
    "perm.membership", "dcr.encode", "dcr.witness", "one_perm.local_min",
    "one_perm.orbit_min",
)
# Work counts over the first pass of the corpus, so they repeat exactly.
COUNTS = {
    "search.steps": "count", "search.candidates": "count",
    "search.trace_chars": "count", "reduction.instance_bytes": "bytes",
    "cnf.clause_maps": "count", "cnf.dimacs_bytes": "bytes",
    "cnf.descent_steps": "count", "cnf.descent_candidates": "count",
    "perm.membership_calls": "count", "dcr.witness_steps": "count",
    "one_perm.orbit_positions": "count",
}
# Work per busy second over the whole traced loop: metric -> (count, span).
RATES = {
    "search.candidates_per_s": ("search.candidates", "search.walk"),
    "cnf.clause_maps_per_s": ("cnf.clause_maps", "cnf.check_symmetry"),
    "one_perm.positions_per_s": ("one_perm.orbit_positions", "one_perm.orbit_min"),
}


class NullTracer:
    """Records nothing; the untraced run pays one shared no-op context."""

    instance = -1
    _null = nullcontext()

    def span(self, name: str):
        return self._null


class Tracer:
    """Keeps every span as [name, start, end, parent, instance] in memory
    until the run ends."""

    def __init__(self):
        self.spans: list[list] = []
        self.instance = -1
        self._open: list[int] = []

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def busy(self, scale: list[float]) -> Counter:
        """Busy time per span name, each span scaled by its run's factor."""
        out: Counter = Counter()
        for name, start, end, _, run in self.spans:
            out[name] += (end - start) * scale[run]
        return out

    def self_times(self, scale: list[float]) -> Counter:
        """Per span name, scaled span time not covered by child spans; the
        instance span's own time is the benchmark's glue, named 'bench'."""
        own = [(end - start) * scale[run] for _, start, end, _, run in self.spans]
        for _, start, end, parent, run in self.spans:
            if parent is not None:
                own[parent] -= (end - start) * scale[run]
        out: Counter = Counter()
        for (name, *_), t in zip(self.spans, own):
            out["bench" if name == "instance" else name] += t
        return out


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        t = self.tracer
        parent = t._open[-1] if t._open else None
        self.index = len(t.spans)
        t._open.append(self.index)
        t.spans.append([self.name, perf_counter(), None, parent, t.instance])

    def __exit__(self, *exc):
        t = self.tracer
        t._open.pop()
        t.spans[self.index][2] = perf_counter()
        return False


def probe() -> float:
    """Wall time of a fixed pure-Python kernel (dict stores and integer
    arithmetic) that shares no code with the library."""
    t0 = perf_counter()
    total, table = 0, {}
    for i in range(20000):
        table[i & 1023] = total
        total += i * i % 7
    return perf_counter() - t0


def timed(fn):
    """Runs ``fn()`` between two probes; returns its result, its wall time
    and the factor that scales that time to reference seconds."""
    before = probe()
    t0 = perf_counter()
    out = fn()
    elapsed = perf_counter() - t0
    return out, elapsed, 2 * PROBE_REF_S / (before + probe())


@dataclass
class LoopResult:
    samples: list[list[float]]
    runs: int = 0
    failed: int = 0
    passes: int = 0
    wall_s: float = 0.0
    scale: list[float] = field(default_factory=list)
    uncertified: set = field(default_factory=set)
    pass_counts: Counter = field(default_factory=Counter)
    run_counts: Counter = field(default_factory=Counter)
    digest: str = ""

    @property
    def times(self) -> list[float]:
        """Each instance's median run, in reference seconds."""
        return [statistics.median(s) for s in self.samples]

    @property
    def instances_per_s(self) -> float:
        return (len(self.samples) - len(self.uncertified)) / sum(self.times)

    @property
    def wall_instances_per_s(self) -> float:
        return (self.runs - self.failed) / self.wall_s


def run_case(wl, case, tracer) -> tuple[dict | None, list[str], float, float]:
    """One instance: the timed pipeline between two probes, then its gate,
    untimed.  Returns the output, the problems found, the wall time and
    the factor that scales it to reference seconds."""

    def pipeline():
        with tracer.span("instance"):
            return wl.run(case, tracer.span)

    t0 = perf_counter()
    try:
        out, elapsed, factor = timed(pipeline)
    except Exception:
        return None, ["pipeline raised:\n" + traceback.format_exc()], perf_counter() - t0, 1.0
    try:
        problems = wl.check(case, out)
    except Exception:
        problems = ["oracle raised on the output:\n" + traceback.format_exc()]
    return out, problems, elapsed, factor


def output_record(wl, out: dict | None) -> bytes:
    """Hash of one instance's digest fields; the corpus digest hashes
    these records in corpus order."""
    fields = wl.digest(out) if out is not None else ["FAILED"]
    return hashlib.sha256("\x1f".join(fields).encode()).digest()


def timed_loop(wl, corpus: list, seconds: float, tracer, min_passes: int = 1) -> LoopResult:
    """Run passes over the corpus in order until ``seconds`` have gone by
    and at least ``min_passes`` whole passes are done; the last pass may
    stop part way.

    An instance's time is the median of its runs in reference seconds.
    The first pass feeds the digest and the exact counts; a later run
    whose outputs differ from the first pass's counts as failed."""
    res = LoopResult(samples=[[] for _ in corpus])
    digest = hashlib.sha256()
    records: list[bytes] = []
    begin = perf_counter()
    while res.runs < min_passes * len(corpus) or perf_counter() - begin < seconds:
        i = res.runs % len(corpus)
        res.passes = res.runs // len(corpus) + 1
        tracer.instance = res.runs
        out, problems, elapsed, factor = run_case(wl, corpus[i], tracer)
        res.runs += 1
        res.wall_s += elapsed
        res.scale.append(factor)
        res.samples[i].append(elapsed * factor)
        record = output_record(wl, out)
        counts = wl.counts(out) if out is not None else {}
        res.run_counts.update(counts)
        if res.passes == 1:
            records.append(record)
            digest.update(record)
            res.pass_counts.update(counts)
        elif record != records[i]:
            problems.append(f"outputs differ from those of pass 1 in pass {res.passes}")
        if problems:
            res.failed += 1
            res.uncertified.add(i)
            if res.failed <= 3:
                print(f"instance {i} failed: {problems[0]}", file=sys.stderr)
    res.digest = digest.hexdigest()
    return res


def setup(wl, seed: int, size: int) -> tuple[list, float]:
    """Generate the corpus and run one of its cases once untimed, several
    times over, each time the next case; returns the corpus and the
    median set-up time in reference seconds.  Warming up on a different
    case each time keeps the median from hanging on one seed's first
    case."""
    durations = []
    for k in range(SETUP_REPEATS):
        corpus, generated, factor = timed(lambda: wl.corpus(Random(seed), size))
        _, problems, elapsed, warm_factor = run_case(wl, corpus[k % size], NullTracer())
        durations.append(generated * factor + elapsed * warm_factor)
        if problems:
            print(f"warm-up instance {k % size} failed: {problems[0]}", file=sys.stderr)
    return corpus, statistics.median(durations)


def recorded_digest(workload: str, seed: int) -> str | None:
    if not DIGESTS.exists():
        return None
    return json.loads(DIGESTS.read_text()).get(workload, {}).get(str(seed))


def end_to_end(res: LoopResult, setup_s: float) -> dict:
    times = res.times
    p90 = statistics.quantiles(times, n=10)[-1]
    return {
        "instances_per_s": (res.instances_per_s, "1/s"),
        "instance_p50_s": (statistics.median(times), "s"),
        "instance_p90_s": (p90, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(res: LoopResult, tracer: Tracer) -> dict:
    busy = tracer.busy(res.scale)
    metrics = {f"{name}_s": (float(busy[name]), "s") for name in TIMED_SPANS}
    metrics.update({name: (res.pass_counts[name], unit) for name, unit in COUNTS.items()})
    walk, steps = busy["search.walk"], res.run_counts["search.steps"]
    metrics["search.step_ms"] = (1000 * walk / steps if steps else 0.0, "ms")
    for name, (count, span) in RATES.items():
        metrics[name] = (res.run_counts[count] / busy[span] if busy[span] else 0.0, "1/s")
    return metrics


def write_spans(tracer: Tracer, workload: str, seed: int) -> Path:
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{workload}-seed{seed}.jsonl"
    with path.open("w") as fh:
        for name, start, end, parent, instance in tracer.spans:
            fh.write(json.dumps({
                "name": name, "start": start, "end": end, "parent": parent, "instance": instance,
            }) + "\n")
    return path


def run_workload(
    workload: str, seed: int, seconds: float, trace: bool, import_s: float = 0.0, size: int = CORPUS_SIZE
) -> dict:
    """Set up, run and check one workload; prints a readable report and
    returns the result object.  ``import_s`` is added to the set-up time."""
    from workloads import WORKLOADS

    wl = WORKLOADS[workload]
    corpus, setup_s = setup(wl, seed, size)
    print(f"workload {workload}: {wl.shape}; {size} instances from seed {seed}; closed loop, 1 client")

    if trace:
        # The time is split between an untraced loop, the base for the
        # tracing overhead, and a traced loop over the same instances, so
        # the traced run lasts as long as an untraced one.
        tracer = Tracer()
        loops = [timed_loop(wl, corpus, seconds / 2, t) for t in (NullTracer(), tracer)]
    else:
        loops = [timed_loop(wl, corpus, seconds, NullTracer())]
    res = loops[-1]
    failed = sum(r.failed for r in loops)

    expected = recorded_digest(workload, seed)
    if expected is None:
        print(f"output digest {res.digest} (none recorded for seed {seed})")
    elif res.digest == expected:
        print(f"output digest {res.digest} matches the recorded one")
    else:
        print(f"output digest {res.digest} differs from the recorded {expected}", file=sys.stderr)
        failed += size

    print(
        f"{res.runs} runs, {res.passes} pass(es) over the corpus, {res.failed} failed; "
        f"timings over {size} samples, each an instance's median run in reference seconds"
    )
    slowdown = statistics.median(1 / f for f in res.scale)
    print(
        f"wall clock: {res.wall_instances_per_s:.4f} instances/s; "
        f"the probe took a median {slowdown:.3f}x its reference {PROBE_REF_S} s"
    )
    if trace:
        metrics = per_layer(res, tracer)
        stages = tracer.self_times(res.scale)
        layers: Counter = Counter()
        for name, t in stages.items():
            layers[name.split(".")[0]] += t
        total = sum(stages.values())
        for title, table in (("layer", layers), ("stage", stages)):
            print(f"{title:<20} {'self_s':>9}  {'share':>8}")
            for name, t in table.most_common():
                print(f"{name:<20} {t:9.4f}  {100 * t / total:7.2f}%")
        base = loops[0].instances_per_s
        overhead = base - res.instances_per_s
        print(f"tracing overhead: {overhead:.4f} instances/s ({100 * overhead / base:.2f}% of {base:.4f} untraced)")
        print(f"spans written to {write_spans(tracer, workload, seed).relative_to(ROOT)}")
    else:
        metrics = end_to_end(res, import_s + setup_s)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    return {
        "correct": failed == 0,
        "attempted": sum(r.runs for r in loops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "lexperm" / "__init__.py").is_file():
        print(f"lexperm sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # A library warning, such as an input that feeds no gate, fails the
    # instance that raised it.
    warnings.simplefilter("error")
    sys.path.insert(0, str(ROOT / "src"))
    probe()  # warm the probe before its first use
    workloads, import_wall, factor = timed(lambda: importlib.import_module("workloads"))
    import_s = import_wall * factor
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), import_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
