"""Smoke test of ``tools/ladder.py``: its first rung runs end to end and
fills every column of its row, and the one-permutation table has its
header and its four graphs (its timings are not checked)."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "ladder.py"


def test_first_rung_fills_its_row():
    proc = subprocess.run(
        [sys.executable, str(TOOL), "--rungs", "1"], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    ladder, one_perm = proc.stdout.strip().split("\n\n")
    header, rule, *rows = ladder.splitlines()
    assert header.startswith("| rung (n,G,m) |") and rule.startswith("| --- |")
    assert len(rows) == 1
    cells = [cell.strip() for cell in rows[0].strip("|").split("|")]
    assert len(cells) == 15 and cells[0] == "4,8,3"
    assert "`build_instance`" in header.split("|")[4] and cells[3].endswith(" ms")
    assert cells[4].endswith(" ms") and cells[5].endswith(" ms")  # format, parse
    assert "`check_symmetry` ×K" in header.split("|")[9] and cells[8].endswith(" ms")
    assert "`format_dimacs`" in header.split("|")[10] and cells[9].endswith(" ms")
    assert "`parse_dimacs`" in header.split("|")[11] and cells[10].endswith(" ms")
    assert "local_opt" in cells[11] and cells[11].split(" (")[0].endswith(" ms")  # the walk
    replay, membership, chain = cells[12:]
    assert replay.endswith(" ms") and membership.endswith(" ms") and chain.endswith(" s")

    header, rule, *rows = one_perm.splitlines()
    assert [cell.strip() for cell in header.strip("|").split("|")] == [
        "graph", "N", "order", "`dcr_to_globalmin1`", "`local_min_one_perm`",
        "`zero_forbidden_witness`", "`orbit_min_one_perm`", "pipeline", "`solve`",
    ]
    assert rule == "| --- " * 9 + "|"
    names = [row.strip("|").split("|")[0].strip() for row in rows]
    assert names == ["K4", "K5", "K6", "C6 + (1,3), (4,6)"]
    assert all(len(row.strip("|").split("|")) == 9 for row in rows)
