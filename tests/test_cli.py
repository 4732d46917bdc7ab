import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lexperm
from lexperm import cli

STEP_NETLIST = """inputs 3
gate 1 NAND x2 x1
gate 2 NAND x3 g1
outputs g2
"""

K4_GRAPH = """p edge 4 6
e 1 2
e 1 3
e 1 4
e 2 3
e 2 4
e 3 4
"""

K3_GRAPH = """p edge 3 3
e 1 2
e 1 3
e 2 3
"""


def run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        assert monkeypatch is not None
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_one_perm_figure(capsys):
    code, out, _ = run(
        capsys,
        ["one-perm", "--string", "00100001", "--perm", "(1 2 5)(3 4)(7 8)"],
    )
    assert code == 0
    assert "k 1" in out
    assert "cycle 3" in out
    assert "string 00010010" in out


def test_one_perm_json(capsys):
    code, out, _ = run(
        capsys,
        ["one-perm", "--string", "10", "--perm", "(1 2)", "--format", "json"],
    )
    assert code == 0
    record = json.loads(out)
    assert record["k"] == 1 and record["string"] == "01"


def test_orbit_min(capsys):
    code, out, _ = run(capsys, ["orbit-min", "--string", "0101", "--perm", "(1 2 3 4)"])
    assert code == 0
    assert "t 0" in out or "t 1" in out
    assert "string 0101" in out


@pytest.mark.parametrize(
    "argv, error",
    [
        (["orbit-min", "--string", "0a1", "--perm", "(1 2 3)", "--order", "3 2 1"], "FormatError"),
        (["orbit-min", "--string", "0a1", "--perm", "(1 2 3)"], "FormatError"),
        (["orbit-min", "--string", "010", "--perm", "(1 2 3)", "--order", "2 1"], "LengthMismatch"),
    ],
)
def test_orbit_min_rejects_bad_arguments(capsys, argv, error):
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error {error}:")


C5_GRAPH = "p edge 5 5\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 1 5\n"
K4_PLUS_GRAPH = K4_GRAPH.replace("p edge 4 6", "p edge 5 7") + "e 4 5\n"


@pytest.mark.parametrize(
    "graph, colorable",
    [(K3_GRAPH, True), (K4_GRAPH, False), (C5_GRAPH, True), (K4_PLUS_GRAPH, False)],
    ids=["K3", "K4", "C5", "K4+1"],
)
def test_orbit_minimum_clears_forbidden_positions_iff_system_is_solvable(
    tmp_path, capsys, graph, colorable
):
    (tmp_path / "g.col").write_text(graph)
    code, system, _ = run(capsys, ["dcr", "from-graph", str(tmp_path / "g.col")])
    assert code == 0
    (tmp_path / "g.dcr").write_text(system)
    code, solved, _ = run(capsys, ["dcr", "solve", str(tmp_path / "g.dcr")])
    assert code == 0
    code, out, _ = run(capsys, ["dcr", "to-perm", str(tmp_path / "g.dcr")])
    assert code == 0
    fields = dict(line.split(" ", 1) for line in out.splitlines())
    code, out, _ = run(capsys, [
        "orbit-min", "--string", fields["string"], "--perm", fields["perm"],
        "--order", fields["order"],
    ])
    assert code == 0
    minimum = out.splitlines()[1].removeprefix("string ")
    assert len(minimum) == len(fields["string"])
    cleared = all(minimum[int(pos) - 1] == "0" for pos in fields["forbidden"].split())
    assert solved.startswith("t ") == cleared == colorable


def test_error_reporting(capsys):
    code, _, err = run(capsys, ["one-perm", "--string", "01", "--perm", "(1 9)"])
    assert code == 2
    assert "error IndexOutOfRange" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["one-perm", "--string", "0a1", "--perm", "(1 2 3)"],
        ["orbit-min", "--string", "010", "--perm", "(1 2 3)", "--order", "1 1 2"],
        ["orbit-min", "--string", "010", "--perm", "(1 2 3)", "--order", "x y z"],
    ],
)
def test_malformed_arguments_exit_2(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith("error FormatError:")


@pytest.mark.parametrize("subcommand", ["eval", "check", "greedy"])
def test_flip_rejects_non_bit_input(tmp_path, capsys, subcommand):
    net = tmp_path / "step.net"
    net.write_text(STEP_NETLIST)
    code, _, err = run(capsys, ["flip", subcommand, str(net), "--input", "0z1"])
    assert code == 2
    assert err.startswith("error FormatError:")


@pytest.mark.parametrize(
    "argv, text",
    [
        (["dcr", "from-graph"], "p edge 2 1\ne 1 x\n"),
        (["dcr", "from-graph"], "p edge x 1\n"),
        (["dcr", "from-graph"], "p edge 2 1\ne 1 5\n"),
        (["dcr", "solve"], "3: 5\n"),
        (["dcr", "solve"], "1_5: +0 0_1\n"),
        (["dcr", "to-perm"], "1_5: +0 0_1\n"),
        (["dcr", "from-graph"], "p edge 3 x\ne 1 2\n"),
        (["dcr", "from-graph"], "p edge 3 7\ne 1 2\n"),
    ],
)
def test_malformed_dcr_input_exits_2(capsys, monkeypatch, argv, text):
    code, _, err = run(capsys, argv, stdin=text, monkeypatch=monkeypatch)
    assert code == 2
    assert err.startswith("error FormatError:")


def test_python_dash_m_runs_the_cli():
    env = {**os.environ, "PYTHONPATH": str(Path(lexperm.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "lexperm", "--help"],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: lexperm")


def test_dcr_pipeline_k4_unsat(tmp_path, capsys):
    graph = tmp_path / "k4.col"
    graph.write_text(K4_GRAPH)
    code, out, _ = run(capsys, ["dcr", "from-graph", str(graph)])
    assert code == 0
    dcr_file = tmp_path / "k4.dcr"
    dcr_file.write_text(out)
    code, out, _ = run(capsys, ["dcr", "solve", str(dcr_file)])
    assert code == 0
    assert out.strip() == "UNSAT"


def test_dcr_pipeline_k3_sat(tmp_path, capsys):
    graph = tmp_path / "k3.col"
    graph.write_text(K3_GRAPH)
    code, out, _ = run(capsys, ["dcr", "from-graph", str(graph)])
    dcr_file = tmp_path / "k3.dcr"
    dcr_file.write_text(out)
    code, out, _ = run(capsys, ["dcr", "solve", str(dcr_file)])
    assert code == 0
    assert out.startswith("t ")


def test_dcr_to_perm(tmp_path, capsys):
    dcr_file = tmp_path / "sys.dcr"
    dcr_file.write_text("2: 0\n3: 1\n")
    code, out, _ = run(capsys, ["dcr", "to-perm", str(dcr_file)])
    assert code == 0
    assert "string 10100" in out
    assert "forbidden 1 4" in out


def test_flip_eval_and_check(tmp_path, capsys):
    net = tmp_path / "step.net"
    net.write_text(STEP_NETLIST)
    code, out, _ = run(capsys, ["flip", "eval", str(net), "--input", "011"])
    assert code == 0
    assert "outputs 0" in out and "gates 10" in out
    code, out, _ = run(capsys, ["flip", "check", str(net), "--input", "011"])
    assert out.strip() == "LOCALMIN"
    code, out, _ = run(capsys, ["flip", "check", str(net), "--input", "111"])
    assert out.startswith("improve ")


def test_flip_greedy(tmp_path, capsys):
    net = tmp_path / "step.net"
    net.write_text(STEP_NETLIST)
    code, out, _ = run(capsys, ["flip", "greedy", str(net), "--input", "111", "--trace"])
    assert code == 0
    assert "status local_min" in out


def test_reduce_pipeline_files(tmp_path, capsys):
    net = tmp_path / "toy.net"
    net.write_text(STEP_NETLIST)
    code, out, _ = run(capsys, ["reduce", "build", str(net)])
    assert code == 0
    inst_file = tmp_path / "toy.inst"
    inst_file.write_text(out)

    code, out, _ = run(capsys, ["reduce", "search", str(inst_file)])
    assert code == 0
    stream = tmp_path / "walk.jsonl"
    stream.write_text(out)
    records = [json.loads(line) for line in out.splitlines()]
    assert records[0]["type"] == "instance"
    assert records[-1]["type"] == "result"
    assert records[-1]["status"] == "local_opt"

    code, out, _ = run(capsys, ["reduce", "map", str(stream)])
    assert code == 0
    bits = out.strip()

    code, out, _ = run(capsys, ["flip", "check", str(net), "--input", bits])
    assert out.strip() == "LOCALMIN"


def test_reduce_pipeline_stdin_chain(tmp_path, capsys, monkeypatch):
    from lexperm import reduction

    net = tmp_path / "toy.net"
    net.write_text(STEP_NETLIST)
    code, built, _ = run(capsys, ["reduce", "build", str(net)])
    code, walked, _ = run(capsys, ["reduce", "search"], stdin=built, monkeypatch=monkeypatch)
    assert code == 0
    code, mapped, _ = run(capsys, ["reduce", "map"], stdin=walked, monkeypatch=monkeypatch)
    assert code == 0
    # the streamed pipeline must reproduce the library's own mapping
    records = [json.loads(line) for line in walked.splitlines()]
    inst = reduction.parse_instance(
        next(r for r in records if r["type"] == "instance")["text"]
    )
    word = next(r for r in records if r["type"] == "result")["word"]
    assert mapped.strip() == reduction.map_solution(inst, word)


def test_reduce_map_with_explicit_word(tmp_path, capsys):
    net = tmp_path / "toy.net"
    net.write_text(STEP_NETLIST)
    code, built, _ = run(capsys, ["reduce", "build", str(net)])
    inst_file = tmp_path / "toy.inst"
    inst_file.write_text(built)
    code, out, _ = run(capsys, ["reduce", "map", str(inst_file), "--word", "sigma_1 sigma_3"])
    assert code == 0
    assert out.strip() == "101"


def test_reduce_embed(tmp_path, capsys):
    net = tmp_path / "toy.net"
    net.write_text(STEP_NETLIST)
    code, built, _ = run(capsys, ["reduce", "build", str(net)])
    inst_file = tmp_path / "toy.inst"
    inst_file.write_text(built)
    code, out, _ = run(capsys, ["reduce", "embed", str(inst_file), "--target", "110"])
    assert code == 0
    assert out.split() == ["sigma_1", "sigma_2"]


def test_search_command_text_output(tmp_path, capsys):
    net = tmp_path / "toy.net"
    net.write_text(STEP_NETLIST)
    code, built, _ = run(capsys, ["reduce", "build", str(net)])
    inst_file = tmp_path / "toy.inst"
    inst_file.write_text(built)
    code, out, _ = run(capsys, ["search", "--instance", str(inst_file), "--max-steps", "50"])
    assert code == 0
    assert "status local_opt" in out


def test_search_trace_flag_adds_only_trace_lines(tmp_path, capsys):
    net = tmp_path / "toy.net"
    net.write_text(STEP_NETLIST)
    _, built, _ = run(capsys, ["reduce", "build", str(net)])
    inst_file = tmp_path / "toy.inst"
    inst_file.write_text(built)
    _, plain, _ = run(capsys, ["search", "--instance", str(inst_file)])
    _, traced, _ = run(capsys, ["search", "--instance", str(inst_file), "--trace"])
    traced_lines = traced.splitlines()
    trace = [line for line in traced_lines if line.startswith("trace ")]
    assert [line for line in traced_lines if not line.startswith("trace ")] == plain.splitlines()
    steps = int(plain.split("steps ")[1].split()[0])
    assert steps > 0 and len(trace) == steps + 1
    assert trace[-1] == "trace " + plain.split("string ")[1].split()[0]


def test_cnf_pipeline(tmp_path, capsys):
    net = tmp_path / "toy.net"
    net.write_text(STEP_NETLIST)
    cnf_file = tmp_path / "toy.cnf"
    sym_file = tmp_path / "toy.sym"
    code, out, _ = run(
        capsys, ["cnf", "build", str(net), "-o", str(cnf_file), "--sym", str(sym_file)]
    )
    assert code == 0
    assert cnf_file.read_text().splitlines()[-1].endswith(" 0")
    assert "pi_1_0 = " in sym_file.read_text()

    code, out, _ = run(capsys, ["cnf", "check-sym", str(cnf_file)])
    assert code == 0
    assert all(line.startswith("ok ") for line in out.strip().splitlines())

    code, out, _ = run(capsys, ["cnf", "localmin", str(cnf_file)])
    assert code == 0
    assert "status local_opt" in out
    assert "input " in out


def _pos_index_gap(lines):
    last = max(i for i, line in enumerate(lines) if line.startswith("pos "))
    lines[last] = "pos 999 " + lines[last].split()[2]


def _first_two_pairs_trade_labels(lines):
    at = {line.split()[1]: i for i, line in enumerate(lines) if line.startswith("pos ")}
    for a, b in (("1", "3"), ("2", "4")):
        i, k = at[a], at[b]
        lines[i], lines[k] = f"pos {a} {lines[k].split()[2]}", f"pos {b} {lines[i].split()[2]}"


def _drop_net_lines(lines):
    lines[:] = [line for line in lines if not line.startswith("net ")]


def _duplicate_generator_line(lines):
    lines.append(lines[-1])


@pytest.mark.parametrize(
    "edit",
    [_pos_index_gap, _first_two_pairs_trade_labels, _drop_net_lines, _duplicate_generator_line],
)
def test_malformed_instance_file_exits_2(tmp_path, capsys, edit):
    net = tmp_path / "toy.net"
    net.write_text(STEP_NETLIST)
    _, built, _ = run(capsys, ["reduce", "build", str(net)])
    lines = built.splitlines()
    edit(lines)
    inst_file = tmp_path / "toy.inst"
    inst_file.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, ["search", "--instance", str(inst_file)])
    assert code == 2 and out == ""
    assert err.startswith("error FormatError:")


NOT_GATE_NETLIST = "inputs 1\ngate 1 NAND x1 x1\noutputs g1\n"


def _replace_line(prefix, edit):
    def apply(lines):
        i = next(i for i, line in enumerate(lines) if line.startswith(prefix))
        lines[i] = edit(lines[i])
    return apply


def _flip_first_start_bit(line):
    bits = line.split()[1]
    return "start " + ("1" if bits[0] == "0" else "0") + bits[1:]


def _swap_first_two_ranks(line):
    ranks = line.split()[1:]
    return "order " + " ".join([ranks[1], ranks[0], *ranks[2:]])


def _drop_last_generator(lines):
    del lines[-1]


def _swap_first_two_generators(lines):
    i = next(i for i, line in enumerate(lines) if " = " in line)
    lines[i], lines[i + 1] = lines[i + 1], lines[i]


@pytest.mark.parametrize(
    "edit",
    [
        _replace_line("pi_1_0 = ", lambda line: "pi_1_0 = (1 2)"),
        _replace_line("start ", _flip_first_start_bit),
        _replace_line("order ", _swap_first_two_ranks),
        _drop_last_generator,
        _duplicate_generator_line,
        _swap_first_two_generators,
        _replace_line("N ", lambda line: line.replace(" K 3", " K 4")),
    ],
    ids=["pi-line", "start-bit", "order-ranks", "drop-gen", "dup-gen", "reorder-gens", "wrong-K"],
)
@pytest.mark.parametrize(
    "argv",
    [
        lambda path: ["search", "--instance", path],
        lambda path: ["reduce", "map", path, "--word", "sigma_1"],
    ],
    ids=["search", "map"],
)
def test_instance_edits_that_the_netlist_does_not_build_exit_2(tmp_path, capsys, edit, argv):
    net = tmp_path / "not.net"
    net.write_text(NOT_GATE_NETLIST)
    _, built, _ = run(capsys, ["reduce", "build", str(net)])
    assert built.startswith("N 24 K 3\n")
    inst_file = tmp_path / "not.inst"
    inst_file.write_text(built)
    assert run(capsys, argv(str(inst_file)))[0] == 0
    lines = built.splitlines()
    edit(lines)
    assert lines != built.splitlines()
    inst_file.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, argv(str(inst_file)))
    assert code == 2 and out == ""
    assert err.startswith("error FormatError:")


def test_duplicate_symmetry_name_exits_2(tmp_path, capsys):
    net = tmp_path / "toy.net"
    net.write_text(STEP_NETLIST)
    _, built, _ = run(capsys, ["cnf", "build", str(net)])
    lines = built.splitlines()
    first = next(i for i, line in enumerate(lines) if line.startswith("c sym pi_1_0 = "))
    lines.insert(first + 1, lines[first])
    cnf_file = tmp_path / "toy.cnf"
    cnf_file.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, ["cnf", "check-sym", str(cnf_file)])
    assert code == 2 and out == ""
    assert err.startswith("error FormatError:")


def test_selftest_list(capsys):
    code, out, _ = run(capsys, ["selftest", "--list"])
    assert code == 0
    names = out.split()
    assert len(names) == 12
    assert "criterion-04-gate-gadget" in names


def test_selftest_single_check(capsys):
    code, out, _ = run(capsys, ["selftest", "criterion-04-gate-gadget"])
    assert code == 0
    assert out.startswith("PASS criterion-04-gate-gadget")
