"""Smoke test of ``tools/ladder.py``: its first rung runs end to end and
fills every column of its row."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "ladder.py"


def test_first_rung_fills_its_row():
    proc = subprocess.run(
        [sys.executable, str(TOOL), "--rungs", "1"], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    header, rule, *rows = proc.stdout.strip().splitlines()
    assert header.startswith("| rung (n,G,m) |") and rule.startswith("| --- |")
    assert len(rows) == 1
    cells = [cell.strip() for cell in rows[0].strip("|").split("|")]
    assert len(cells) == 15 and cells[0] == "4,8,3"
    assert cells[4].endswith(" ms") and cells[5].endswith(" ms")  # format, parse
    assert "`check_symmetry` ×K" in header.split("|")[9] and cells[8].endswith(" s")
    assert "`format_dimacs`" in header.split("|")[10] and cells[9].endswith(" ms")
    assert "`parse_dimacs`" in header.split("|")[11] and cells[10].endswith(" ms")
    assert "local_opt" in cells[11] and cells[11].split(" (")[0].endswith(" ms")  # the walk
    replay, membership, chain = cells[12:]
    assert replay.endswith(" ms") and membership.endswith(" ms") and chain.endswith(" s")
