import io
import json
import os
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from random import Random
from time import perf_counter

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import lexperm
from lexperm import circuit, cli, cnf, reduction, search

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


def test_one_perm_under_an_order(capsys):
    # position 3 ranks first, so the cycle (3 4) decides, and one step
    # moves the 0 at position 4 to position 3
    code, out, _ = run(
        capsys,
        ["one-perm", "--string", "0010", "--perm", "(1 2)(3 4)", "--order", "3 4 1 2", "--format", "json"],
    )
    assert code == 0
    assert json.loads(out) == {"k": 1, "cycle": 3, "string": "0001", "witness": "(1 2)(3 4)"}


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
        # an empty order is read, not taken for no order
        (["orbit-min", "--string", "0101", "--perm", "(1 2)(3 4)", "--order", ""], "LengthMismatch"),
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


@pytest.mark.parametrize(
    "argv",
    [
        ["orbit-min", "--string", "010", "--perm", "(1 2 3)", "--order", "+1 2 3"],
        ["orbit-min", "--string", "010", "--perm", "(1 2 3)", "--order", "1_0 2 3"],
        ["orbit-min", "--string", "010", "--perm", "(1 2 3)", "--order", "1 2 \uff13"],
        ["one-perm", "--string", "010", "--perm", "(+1 2 3)"],
        ["one-perm", "--string", "010", "--perm", "(1 2 \uff13)"],
        ["orbit-min", "--string", "010", "--perm", "(1_0 2)"],
    ],
    ids=["order-plus", "order-underscore", "order-full-width", "perm-plus", "perm-full-width",
         "perm-underscore"],
)
def test_python_literal_numbers_exit_2(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith("error ")


@pytest.mark.parametrize(
    "argv, code",
    [
        (["orbit-min", "--string", "0101", "--perm", "(1 2 3 4)", "--cap", "1_0"], 2),
        (["orbit-min", "--string", "0101", "--perm", "(1 2 3 4)", "--cap", " +2"], 2),
        (["orbit-min", "--string", "0101", "--perm", "(1 2 3 4)", "--cap", "10"], 0),
        (["reduce", "search", "-", "--max-steps", "-1", "--format", "text"], 2),
        (["dcr", "solve", "--cap", "\uff11"], 2),
    ],
    ids=["cap-underscore", "cap-plus", "cap-10", "max-steps-minus", "cap-full-width"],
)
def test_integer_flags_read_plain_decimal_only(capsys, argv, code):
    status, out, err = run(capsys, argv)
    assert status == code
    if code:
        assert out == "" and err.startswith("error FormatError:")


_ARG_TEXT = st.one_of(st.text(max_size=10), st.text(alphabet="0123456789() ,+-_x\uff13\t", max_size=16))


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(["orbit-min", "one-perm"]),
    st.one_of(st.text(alphabet="01", max_size=8), st.text(max_size=8)),
    _ARG_TEXT,
    st.none() | _ARG_TEXT,
    st.none() | st.integers(-2, 10**4).map(str) | st.text(max_size=6),
    st.booleans(),
)
@example("orbit-min", "010", "(1 2 3)", "+1 2 3", None, False)
@example("one-perm", "010", "(+1 2 3)", None, None, True)
@example("orbit-min", "1010101", "(1 2 3 4 5 6 7)", None, "3", False)
@example("orbit-min", "", "--", None, None, False)
def test_orbit_commands_end_in_exit_status_0_1_or_2(command, string, perm_text, order, cap, as_json):
    """Whatever the arguments, ``main`` returns 0, 1 or 2 or argparse exits;
    no other exception escapes."""
    argv = [command, f"--string={string}", f"--perm={perm_text}"]
    argv += [] if order is None else [f"--order={order}"]
    if command == "orbit-min":
        argv += [] if cap is None else [f"--cap={cap}"]
    argv += ["--format=json"] if as_json else []
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code in (0, 1, 2)


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


@pytest.mark.parametrize(
    "argv, stdin, error",
    [
        (lambda d: ["reduce", "map", f"{d}/missing.jsonl"], None, "FileError"),
        (lambda d: ["flip", "eval", d, "--input", "011"], None, "FileError"),
        (lambda d: ["flip", "eval", f"{d}/bad.net", "--input", "011"], None, "FormatError"),
        (lambda d: ["flip", "eval", "--input", "011"], b"\xff\xfe", "FormatError"),
        (lambda d: ["reduce", "build", f"{d}/step.net", "-o", f"{d}/missing/step.inst"], None, "FileError"),
        (lambda d: ["reduce", "search", f"{d}/step.inst", "--start-word", f"{d}/missing.word"], None,
         "FileError"),
        # an empty path is read, not taken for no start word
        (lambda d: ["reduce", "search", f"{d}/step.inst", "--start-word", ""], None, "FileError"),
    ],
    ids=[
        "missing", "directory", "not-utf8-file", "not-utf8-stdin", "output-dir-missing", "start-word-missing",
        "start-word-empty",
    ],
)
def test_file_errors_exit_2(tmp_path, capsys, monkeypatch, argv, stdin, error):
    (tmp_path / "step.net").write_text(STEP_NETLIST)
    inst = reduction.build_instance(circuit.parse_netlist(STEP_NETLIST))
    (tmp_path / "step.inst").write_text(reduction.format_instance(inst))
    (tmp_path / "bad.net").write_bytes(b"\xff\xfe")
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(stdin), encoding="utf-8"))
    code, out, err = run(capsys, argv(str(tmp_path)))
    assert code == 2 and out == ""
    assert err.startswith(f"error {error}:")


@pytest.mark.parametrize(
    "argv, message",
    [
        (lambda d: ["reduce", "search", f"{d}/step.inst", "--start-word", ""], "cannot read ''"),
        (lambda d: ["reduce", "search", ""], "cannot read ''"),
        (lambda d: ["reduce", "build", f"{d}/step.net", "-o", ""], "cannot write ''"),
    ],
    ids=["start-word", "instance", "output"],
)
def test_an_empty_path_is_named_as_empty(tmp_path, capsys, argv, message):
    (tmp_path / "step.net").write_text(STEP_NETLIST)
    inst = reduction.build_instance(circuit.parse_netlist(STEP_NETLIST))
    (tmp_path / "step.inst").write_text(reduction.format_instance(inst))
    code, out, err = run(capsys, argv(str(tmp_path)))
    assert code == 2 and out == ""
    assert err == f"error FileError: {message}: the path is empty\n"


@pytest.mark.parametrize("argv", [["search", "--instance", "-"], ["selftest", "--list"]],
                         ids=["search", "selftest"])
def test_removed_subcommands_are_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


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


def test_flip_check_reads_the_last_word_of_stdin(tmp_path, capsys, monkeypatch):
    net = tmp_path / "step.net"
    net.write_text(STEP_NETLIST)
    argv = ["flip", "check", str(net), "--input", "-"]
    code, out, _ = run(capsys, argv, stdin="string 111\n011\n", monkeypatch=monkeypatch)
    assert code == 0 and out.strip() == "LOCALMIN"
    code, out, err = run(capsys, argv, stdin="", monkeypatch=monkeypatch)
    assert code == 2 and out == ""
    assert err.startswith("error LengthMismatch:")


@pytest.mark.parametrize(
    "argv, text",
    [
        (["reduce", "search", "--start-word", "-"],
         reduction.format_instance(reduction.build_instance(circuit.parse_netlist(STEP_NETLIST)))),
        (["flip", "check", "--input", "-"], STEP_NETLIST),
    ],
    ids=["reduce-search-start-word", "flip-check-input"],
)
def test_two_inputs_on_stdin_are_refused_before_reading(capsys, monkeypatch, argv, text):
    code, out, err = run(capsys, argv, stdin=text, monkeypatch=monkeypatch)
    assert code == 2 and out == ""
    assert err == "error FileError: only one input can be read from stdin ('-')\n"
    assert sys.stdin.read() == text


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


def test_reduce_embed_rejects_a_target_that_is_not_bits(tmp_path, capsys):
    net = tmp_path / "nand.net"
    net.write_text("inputs 2\ngate 1 NAND x1 x2\noutputs g1\n")
    code, built, _ = run(capsys, ["reduce", "build", str(net)])
    inst_file = tmp_path / "nand.inst"
    inst_file.write_text(built)
    code, out, err = run(capsys, ["reduce", "embed", str(inst_file), "--target", "2a"])
    assert code == 2 and out == ""
    assert err.startswith("error FormatError:")


def test_search_command_text_output(tmp_path, capsys):
    net = tmp_path / "toy.net"
    net.write_text(STEP_NETLIST)
    code, built, _ = run(capsys, ["reduce", "build", str(net)])
    inst_file = tmp_path / "toy.inst"
    inst_file.write_text(built)
    code, out, _ = run(capsys, ["reduce", "search", str(inst_file), "--max-steps", "50", "--format", "text"])
    assert code == 0
    assert "status local_opt" in out


def test_search_trace_flag_adds_only_trace_lines(tmp_path, capsys):
    net = tmp_path / "toy.net"
    net.write_text(STEP_NETLIST)
    _, built, _ = run(capsys, ["reduce", "build", str(net)])
    inst_file = tmp_path / "toy.inst"
    inst_file.write_text(built)
    _, plain, _ = run(capsys, ["reduce", "search", str(inst_file), "--format", "text"])
    _, traced, _ = run(capsys, ["reduce", "search", str(inst_file), "--format", "text", "--trace"])
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
    code, out, _ = run(capsys, ["cnf", "build", str(net), "-o", str(cnf_file)])
    assert code == 0 and out == ""
    assert cnf_file.read_text().splitlines()[-1].endswith(" 0")
    assert "c sym pi_1_0 = " in cnf_file.read_text()

    code, out, _ = run(capsys, ["cnf", "check-sym", str(cnf_file)])
    assert code == 0
    assert all(line.startswith("ok ") for line in out.strip().splitlines())

    code, out, _ = run(capsys, ["cnf", "localmin", str(cnf_file)])
    assert code == 0
    assert "status local_opt" in out
    assert "input " in out


_STEP_DIMACS_LINES = cnf.format_dimacs(cnf.build_formula(circuit.parse_netlist(STEP_NETLIST))).splitlines()
_CNF_LINE = st.one_of(
    st.text(max_size=12),
    st.text(alphabet="pcnfvarlhsym=() -0123456789", max_size=16),
    st.sampled_from(["p cnf 2 1", "1 -2 0", "0", "c alpha 01", "c priority 2 1", "c sym s = (1 2)",
                     "c sym s = (1 2 3)", "c var 1 C0.x1", "s = (1 2)", "s (1 2)", "s = (1 1)"]),
)


@st.composite
def _edited_lines(draw, base, line=_CNF_LINE):
    """base, or no lines, with up to three lines drawn from ``line``
    inserted, replaced or deleted."""
    lines = list(base) if draw(st.booleans()) else []
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines)))
        edit = draw(st.sampled_from(["insert", "replace", "delete"]))
        if edit == "insert" or i == len(lines):
            lines.insert(i, draw(line))
        elif edit == "replace":
            lines[i] = draw(line)
        else:
            del lines[i]
    return "\n".join(lines) + "\n"


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    st.sampled_from(["check-sym", "localmin"]),
    _edited_lines(_STEP_DIMACS_LINES),
    st.none() | st.text(alphabet="01x", max_size=4),
    st.none() | st.sampled_from(["0", "3", "-1", "1_0"]),
)
@example(command="localmin", text="1 -2 0\np cnf 2 1\n", assignment=None, max_steps=None)
def test_cnf_commands_end_in_exit_status_0_1_or_2(tmp_path, command, text, assignment, max_steps):
    """Whatever the DIMACS file, its 'c sym' lines included, and the
    flags, ``main`` returns 0, 1 or 2 or argparse exits; no other
    exception escapes."""
    cnf_file = tmp_path / "fuzz.cnf"
    cnf_file.write_text(text)
    argv = ["cnf", command, str(cnf_file)]
    if command == "localmin":
        argv += [] if assignment is None else [f"--assignment={assignment}"]
        argv += [] if max_steps is None else [f"--max-steps={max_steps}"]
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code in (0, 1, 2)


@pytest.mark.parametrize(
    "argv, text",
    [
        (["dcr", "to-perm"], "3000000: 0\n"),
        (["dcr", "from-graph"], "p edge 600 1\ne 599 600\n"),
        (["dcr", "from-graph"], "p edge 3000 1\ne 2999 3000\n"),
        (["dcr", "from-graph"], "p edge 200 1\ne 199 200\n"),
    ],
    ids=["to-perm-3000000", "from-graph-600", "from-graph-3000", "from-graph-200"],
)
def test_dcr_encoders_refuse_a_modulus_above_the_cap(capsys, monkeypatch, argv, text):
    """A modulus above 10**6 is refused before any residue or point is
    made, so the refusal is quick and writes nothing."""
    t = perf_counter()
    code, out, err = run(capsys, argv, stdin=text, monkeypatch=monkeypatch)
    assert perf_counter() - t < 5
    assert code == 2 and out == ""
    assert err.startswith("error LcmCapExceeded: modulus ")


def test_dcr_to_perm_refuses_moduli_summing_past_the_cap(capsys, monkeypatch):
    """Each modulus is under the cap but together they would make about
    two million points; the refusal comes before any is made."""
    t = perf_counter()
    code, out, err = run(capsys, ["dcr", "to-perm"], stdin="999983: 0\n999979: 0\n", monkeypatch=monkeypatch)
    assert perf_counter() - t < 1
    assert code == 2 and out == ""
    assert err.startswith("error LcmCapExceeded: moduli sum to 1999962 points")


def test_dcr_from_graph_lists_the_primes_of_many_isolated_vertices(capsys, monkeypatch):
    t = perf_counter()
    code, out, _ = run(capsys, ["dcr", "from-graph"], stdin="p edge 70000 1\ne 1 2\n", monkeypatch=monkeypatch)
    assert perf_counter() - t < 2
    assert code == 0
    primes_line, constraint = out.splitlines()
    primes = primes_line.split()[2:]
    assert primes_line.startswith("c primes 3 5 7 11 ")
    assert len(primes) == 70000 and primes[-1] == "882389"
    code, small, _ = run(capsys, ["dcr", "from-graph"], stdin="p edge 2 1\ne 1 2\n", monkeypatch=monkeypatch)
    assert small == f"c primes 3 5\n{constraint}\n"


def test_cnf_localmin_rejects_a_non_bit_assignment(tmp_path, capsys):
    net = tmp_path / "one.net"
    net.write_text("inputs 1\ngate 1 NAND x1 x1\noutputs g1\n")
    code, dimacs, _ = run(capsys, ["cnf", "build", str(net)])
    assert code == 0
    cnf_file = tmp_path / "one.cnf"
    cnf_file.write_text(dimacs)
    num_vars = cnf.parse_dimacs(dimacs).num_vars
    code, out, err = run(capsys, ["cnf", "localmin", str(cnf_file), "--assignment", "x" * num_vars])
    assert code == 2 and out == ""
    assert err.startswith("error FormatError: not a bitstring")


def test_cnf_localmin_without_a_start_exits_2(tmp_path, capsys):
    cnf_file = tmp_path / "bare.cnf"
    cnf_file.write_text("p cnf 2 1\n1 -2 0\n")
    code, out, err = run(capsys, ["cnf", "localmin", str(cnf_file)])
    assert code == 2 and out == ""
    assert err.startswith("error UnsatStart:")
    code, out, _ = run(capsys, ["cnf", "localmin", str(cnf_file), "--assignment", "10"])
    assert code == 0 and "assignment 10" in out


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
    code, out, err = run(capsys, ["reduce", "search", str(inst_file), "--format", "text"])
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
        lambda path: ["reduce", "search", path, "--format", "text"],
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
    assert err.startswith(f"error MalformedDimacs: line {first + 2}: generator 'pi_1_0' is defined twice")


def test_second_inputs_line_exits_2(tmp_path, capsys):
    net = tmp_path / "twice.net"
    net.write_text("inputs 2\ngate 1 NAND x1 x2\ninputs 3\noutputs g1\n")
    code, out, err = run(capsys, ["reduce", "build", str(net)])
    assert code == 2 and out == ""
    assert err.startswith("error FormatError: line 3:")


def test_empty_symmetry_name_exits_2(tmp_path, capsys):
    net = tmp_path / "toy.net"
    net.write_text(STEP_NETLIST)
    _, built, _ = run(capsys, ["cnf", "build", str(net)])
    lines = built.splitlines()
    first = next(i for i, line in enumerate(lines) if line.startswith("c sym "))
    lines[first] = "c sym  = (1 2)"
    cnf_file = tmp_path / "toy.cnf"
    cnf_file.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, ["cnf", "check-sym", str(cnf_file)])
    assert code == 2 and out == ""
    assert err.startswith(f"error MalformedDimacs: line {first + 1}: generator name '' is empty")


@pytest.mark.parametrize("command", ["build", "check-sym", "localmin"])
def test_cnf_commands_take_no_symmetry_sidecar(capsys, command):
    with pytest.raises(SystemExit) as exc:
        cli.main(["cnf", command, "-", "--sym", "toy.sym"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --sym" in capsys.readouterr().err


def _not_gate_stream() -> list[str]:
    """The json-lines records ``reduce search`` writes for NOT_GATE_NETLIST."""
    inst = reduction.build_instance(circuit.parse_netlist(NOT_GATE_NETLIST))
    res = search.standard_algorithm(inst.y_start, inst.order, inst.gens)
    return [
        json.dumps({"type": "instance", "text": reduction.format_instance(inst)}),
        json.dumps({"type": "result", "word": list(res.word), "string": res.string,
                    "status": res.status, "steps": res.steps}),
    ]


@pytest.mark.parametrize(
    "record",
    [
        '{"type": "instance", "te',
        '{"type": "instance"}',
        '{"type": "instance", "text": 5}',
        '{"type": "result"}',
        '{"type": "result", "word": 5}',
        '{"type": "result", "word": "sigma_1"}',
        '{"type": "result", "word": [1]}',
        '[{"type": "result", "word": []}]',
        '"result"',
        "[" * 100_000,
    ],
    ids=["truncated", "no-text", "text-int", "no-word", "word-int", "word-str", "word-of-int",
         "array", "string", "deep-nesting"],
)
def test_malformed_search_stream_exits_2(tmp_path, capsys, record):
    stream = tmp_path / "walk.jsonl"
    stream.write_text("\n".join([*_not_gate_stream(), record]) + "\n")
    code, out, err = run(capsys, ["reduce", "map", str(stream)])
    assert code == 2 and out == ""
    assert err.startswith("error FormatError:")


@pytest.mark.parametrize("kind", ["instance", "result"])
def test_repeated_search_stream_record_exits_2(tmp_path, capsys, kind):
    records = _not_gate_stream()
    again = next(record for record in records if json.loads(record)["type"] == kind)
    stream = tmp_path / "walk.jsonl"
    stream.write_text("\n".join([*records, again]) + "\n")
    code, out, err = run(capsys, ["reduce", "map", str(stream)])
    assert code == 2 and out == ""
    assert err.startswith(f"error FormatError: line 3: a second {kind} record")


def test_closed_stdout_exits_2_without_a_traceback(tmp_path):
    c = circuit.random_instance(Random(1), 6, 20, 4)
    inst_file = tmp_path / "rung.inst"
    inst_file.write_text(reduction.format_instance(reduction.build_instance(c)))
    env = {**os.environ, "PYTHONPATH": str(Path(lexperm.__file__).parents[1])}
    argv = [sys.executable, "-m", "lexperm", "reduce", "search", str(inst_file), "--trace", "--format", "text"]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline().startswith(b"word ")
    proc.stdout.close()  # the rest of the trace, about 150 kB, exceeds a pipe buffer
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 2
    assert "Traceback" not in err
    assert err.splitlines()[-1] == "error FileError: cannot write stdout: Broken pipe"


def _readme_tour() -> list[tuple[str, list[str]]]:
    """The README's CLI tour: each ``$ lexperm ...`` line with the output
    lines shown under it."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## CLI tour\n")[1].split("\n## ")[0]
    tour: list[tuple[str, list[str]]] = []
    in_block = False
    for line in section.splitlines():
        if line.startswith("```"):
            in_block = not in_block
        elif in_block and line.startswith("$ "):
            tour.append((line[2:], []))
        elif in_block and line:
            tour[-1][1].append(line)
    return tour


def test_readme_cli_tour_runs(tmp_path, capsys, monkeypatch):
    """Every tour line exits 0 and prints every shown line that holds no
    '...'; pipes chain through stdin and a ``printf`` head feeds its
    literal."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "step.net").write_text(STEP_NETLIST)
    (tmp_path / "k4.col").write_text(K4_GRAPH)
    tour = _readme_tour()
    assert len(tour) >= 14
    for command, shown in tour:
        piped = None
        for stage in command.split(" | "):
            argv = shlex.split(stage)
            if argv[0] == "printf":
                piped = argv[1].replace("\\n", "\n")
                continue
            assert argv[0] == "lexperm"
            if piped is not None:
                monkeypatch.setattr("sys.stdin", io.StringIO(piped))
            code = cli.main(argv[1:])
            piped = capsys.readouterr().out
            assert code == 0, command
        printed = piped.splitlines()
        for line in shown:
            assert "..." in line or line in printed, (command, line)


_REDUCE_LINE = st.one_of(
    st.text(max_size=12),
    st.sampled_from([
        "inputs 1", "gate 1 NAND x1 x1", "outputs g1", "net inputs 2", "net gate 2 NAND g1 x1",
        "pos 1 C0.x1.0", "start 01", "order 2 1", "pi_1_0 = (1 2)", "sigma_1 = ()", "N 24 K 3",
        '{"type": "instance", "te', '{"type": "instance", "text": "N 2 K 0"}',
        '{"type": "result", "word": 5}', '{"type": "result", "word": ["sigma_1"]}', "[1]", "{}",
    ]),
)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    st.sampled_from(["build", "search", "map", "embed"]),
    st.sampled_from(["netlist", "instance", "stream"]),
    st.data(),
    st.none() | st.text(alphabet="sigma_pi0123 ", max_size=12),
    st.text(alphabet="01x", max_size=3),
    st.none() | st.sampled_from(["0", "2", "-1", "1_0"]),
)
def test_reduce_commands_end_in_exit_status_0_1_or_2(tmp_path, command, source, data, word, target, max_steps):
    """Whatever the netlist, instance file or search stream and the flags,
    ``main`` returns 0, 1 or 2 or argparse exits; no other exception
    escapes."""
    base = {
        "netlist": NOT_GATE_NETLIST.splitlines(),
        "instance": reduction.format_instance(
            reduction.build_instance(circuit.parse_netlist(NOT_GATE_NETLIST))
        ).splitlines(),
        "stream": _not_gate_stream(),
    }[source]
    path = tmp_path / "fuzz.in"
    path.write_text(data.draw(_edited_lines(base, _REDUCE_LINE)))
    argv = ["reduce", command, str(path)]
    if command == "map" and word is not None:
        argv.append(f"--word={word}")
    elif command == "embed":
        argv.append(f"--target={target}")
    elif command == "search" and max_steps is not None:
        argv.append(f"--max-steps={max_steps}")
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code in (0, 1, 2)


_DCR_FLIP_LINE = st.one_of(
    st.text(max_size=12),
    st.sampled_from([
        "p edge 3 3", "p edge 2 0", "e 1 2", "e 1 9", "e 2 2", "2: 0", "3: 1 2", "7: 0 9", "0: 1", "c x",
        "inputs 2", "gate 1 NAND x1 x2", "gate 2 NAND g1 g5", "gate 1 NAND x9 x1", "outputs g1", "outputs x1",
    ]),
)
_DCR_FLIP_BASE = {
    "dcr solve": ["2: 0", "3: 1"],
    "dcr to-perm": ["2: 0", "3: 1"],
    "dcr from-graph": K3_GRAPH.splitlines(),
    "flip eval": STEP_NETLIST.splitlines(),
    "flip check": STEP_NETLIST.splitlines(),
    "flip greedy": STEP_NETLIST.splitlines(),
}


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    st.sampled_from(sorted(_DCR_FLIP_BASE)),
    st.data(),
    st.text(alphabet="01x", max_size=4),
    st.none() | st.sampled_from(["0", "3", "-1", "1_0"]),
    st.booleans(),
)
def test_dcr_and_flip_commands_end_in_exit_status_0_1_or_2(tmp_path, command, data, bits, number, trace):
    """Whatever the constraint system, graph or netlist and the flags,
    ``main`` returns 0, 1 or 2 or argparse exits; no other exception
    escapes."""
    path = tmp_path / "fuzz.in"
    path.write_text(data.draw(_edited_lines(_DCR_FLIP_BASE[command], _DCR_FLIP_LINE)))
    argv = [*command.split(), str(path)]
    if command.startswith("flip"):
        argv.append(f"--input={bits}")
    if command in ("dcr solve", "flip greedy") and number is not None:
        argv.append(f"--cap={number}" if command == "dcr solve" else f"--max-steps={number}")
    if command == "flip greedy" and trace:
        argv.append("--trace")
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code in (0, 1, 2)
