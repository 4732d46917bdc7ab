"""Acceptance gate: every criterion runs at its stated tolerance and
prints one line (visible with `pytest -s`)."""

import time

import pytest

from acceptance import CHECKS


@pytest.mark.parametrize("name, check", CHECKS, ids=[name for name, _ in CHECKS])
def test_criterion(name, check):
    t0 = time.perf_counter()
    detail = check()
    print(f"PASS {name} ({time.perf_counter() - t0:.2f}s): {detail}")
