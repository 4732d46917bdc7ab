"""Fast self-test of the benchmark: one small corpus per workload.

Run from the repository root with ``python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _names(kind: str) -> set[str]:
    return {m["name"] for m in SPEC[kind]}


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_run_prints_every_metric(workload, trace, capsys, monkeypatch):
    # The recorded digests cover whole corpora, not this two-instance one.
    monkeypatch.setattr(run, "recorded_digest", lambda workload, seed: None)
    result = run.run_workload(workload, seed=1, seconds=0, trace=trace, size=2)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == (2 * 2 if trace else 2)
    expected = _names("per_layer" if trace else "end_to_end")
    assert set(result["metrics"]) == expected
    printed = capsys.readouterr().out
    for name in expected:
        assert f"\n{name} " in printed
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_corpus_depends_only_on_seed():
    for wl in WORKLOADS.values():
        first = [c.text for c in wl.corpus(Random(7), 8)]
        assert first == [c.text for c in wl.corpus(Random(7), 8)]
        assert first != [c.text for c in wl.corpus(Random(8), 8)]


def _planted(workload: str, tamper):
    """A copy of the workload whose pipeline output is tampered with."""
    wl = WORKLOADS[workload]

    class Planted:
        name, shape = wl.name, wl.shape
        corpus, check, digest, counts = wl.corpus, wl.check, wl.digest, wl.counts

        def run(self, case, span):
            return tamper(wl.run(case, span))

    return Planted()


def _truncate_walk(out: dict) -> dict:
    res = out["res"]
    shorter = dataclasses.replace(
        res, word=res.word[:-1], steps=res.steps - 1, trace=res.trace[:-1], string=res.trace[-2]
    )
    return {**out, "res": shorter}


PLANTED = {
    "truncated walk word": ("reduce-walk", _truncate_walk),
    "truncated mapped input": ("reduce-walk", lambda o: {**o, "x": o["x"][:-1]}),
    "symmetry verdict lost": ("cnf-symmetry", lambda o: {**o, "verdicts": [False, *o["verdicts"][1:]]}),
    "truncated descent": ("cnf-symmetry", _truncate_walk),
    "probe accepted": ("chain-verify", lambda o: {**o, "probe_in": True}),
    "member rejected": ("chain-verify", lambda o: {**o, "member_opt": False}),
    "wrong witness": ("dcr-orbit", lambda o: {**o, "witness": (o["witness"] or 0) + 1}),
    "wrong orbit minimum": ("dcr-orbit", lambda o: {**o, "t_min": o["t_min"] + 1}),
}


@pytest.mark.parametrize("plant", list(PLANTED))
def test_planted_wrong_answer_counts_as_failure(plant):
    workload, tamper = PLANTED[plant]
    wl = _planted(workload, tamper)
    res = run.timed_loop(wl, wl.corpus(Random(1), 1), 0, run.NullTracer())
    assert res.failed == res.runs == 1 and res.uncertified == {0}


def test_crash_counts_as_failure():
    def crash(out):
        raise RuntimeError("planted crash")

    wl = _planted("dcr-orbit", crash)
    res = run.timed_loop(wl, wl.corpus(Random(1), 2), 0, run.NullTracer())
    assert res.failed == res.runs == 2


def test_output_change_between_passes_counts_as_failure():
    calls = []

    def second_pass_differs(out):
        calls.append(1)
        return {**out, "s_min": out["s_min"] + " "} if len(calls) > 1 else out

    wl = _planted("dcr-orbit", second_pass_differs)
    wl.check = lambda case, out: []
    res = run.timed_loop(wl, wl.corpus(Random(1), 1), 0, run.NullTracer(), min_passes=3)
    assert res.runs == 3 and res.failed == 2


def test_times_are_scaled_by_the_probe(monkeypatch):
    # A probe twice as slow as the reference halves every reported time.
    monkeypatch.setattr(run, "probe", lambda: 2 * run.PROBE_REF_S)
    wl = WORKLOADS["dcr-orbit"]
    res = run.timed_loop(wl, wl.corpus(Random(1), 2), 0, run.NullTracer())
    assert res.scale == [0.5, 0.5]
    assert sum(res.times) == pytest.approx(res.wall_s / 2)


def test_recorded_digest_is_the_first_pass_digest(monkeypatch):
    import record_digests

    monkeypatch.setattr(run, "CORPUS_SIZE", 3)
    for wl in WORKLOADS.values():
        res = run.timed_loop(wl, wl.corpus(Random(4), 3), 0, run.NullTracer())
        assert record_digests.corpus_digest(wl, 4) == res.digest


def test_digest_mismatch_counts_as_failure(monkeypatch):
    monkeypatch.setattr(run, "recorded_digest", lambda workload, seed: "0" * 64)
    result = run.run_workload("dcr-orbit", seed=1, seconds=0, trace=False, size=2)
    assert not result["correct"] and result["failed"] == 2


def test_probe_breaks_a_twin_pair():
    y = "01" * 5 + "10" * 5
    for u1 in (0.0, 0.3, 0.99):
        for u2 in (0.0, 0.5, 0.99):
            i, j = oracles.probe_transposition(y, u1, u2)
            assert (i + 1) // 2 != (j + 1) // 2 and y[i - 1] != y[j - 1]
            image = list(range(1, len(y) + 1))
            image[i - 1], image[j - 1] = j, i
            assert oracles.twin_violation(oracles.act(y, image)) is not None


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "reduce-walk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
