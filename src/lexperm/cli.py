"""Command-line front end; every pipeline is reachable through files or
stdin/stdout so runs can be reproduced and re-verified without the
library.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import bitlex, circuit, cnf, dcr, one_perm, perm, reduction, search
from .errors import FileError, FormatError, LexpermError


def _read(path: str) -> str:
    """The UTF-8 text of a file, or of stdin for ``-``."""
    if not path:  # Path("") is the working directory
        raise FileError(f"cannot read {path!r}: the path is empty")
    try:
        return sys.stdin.read() if path == "-" else Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise FileError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path} is not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _one_stdin(*paths: str | None) -> None:
    """Refuse, before anything is read, a command whose inputs name stdin
    more than once: the second read would find it exhausted."""
    if paths.count("-") > 1:
        raise FileError("only one input can be read from stdin ('-')")


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    if not path:
        raise FileError(f"cannot write {path!r}: the path is empty")
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise FileError(f"cannot write {path}: {exc.strerror or exc}") from None


def _cmd_one_perm(args) -> int:
    degree = len(args.string)
    p = perm.parse_cycles(args.perm, degree)
    order = bitlex.parse_order(args.order, degree) if args.order is not None else None
    res = one_perm.local_min_one_perm(args.string, p, order=order)
    result = perm.permute_string(args.string, res.witness)
    if args.format == "json":
        print(json.dumps({
            "k": res.exponent,
            "cycle": res.cycle_id,
            "string": result,
            "witness": perm.format_cycles(res.witness),
        }))
    else:
        print(f"k {res.exponent}")
        if res.cycle_id is not None:
            print(f"cycle {res.cycle_id}")
        print(f"string {result}")
    return 0


def _cmd_orbit_min(args) -> int:
    degree = len(args.string)
    p = perm.parse_cycles(args.perm, degree)
    order = bitlex.parse_order(args.order, degree) if args.order is not None else None
    t, s = one_perm.orbit_min_one_perm(args.string, p, cap=args.cap, order=order)
    if args.format == "json":
        print(json.dumps({"t": t, "string": s}))
    else:
        print(f"t {t}")
        print(f"string {s}")
    return 0


def _cmd_reduce_search(args) -> int:
    _one_stdin(args.instance, args.start_word)
    inst = reduction.parse_instance(_read(args.instance))
    start = tuple(_read(args.start_word).split()) if args.start_word is not None else ()
    res = search.standard_algorithm(
        inst.y_start, inst.order, inst.gens, start=start, max_steps=args.max_steps
    )
    if args.format == "json":
        print(json.dumps({"type": "instance", "text": reduction.format_instance(inst)}))
        if args.trace:
            for i, s in enumerate(res.trace):
                print(json.dumps({"type": "step", "index": i, "string": s}))
        print(json.dumps({
            "type": "result",
            "word": list(res.word),
            "string": res.string,
            "status": res.status,
            "steps": res.steps,
        }))
    else:
        print(f"word {' '.join(res.word)}")
        print(f"string {res.string}")
        print(f"status {res.status}")
        print(f"steps {res.steps}")
        if args.trace:
            for s in res.trace:
                print(f"trace {s}")
    return 0


def _cmd_dcr_solve(args) -> int:
    inst = dcr.parse_dcr(_read(args.file))
    t = dcr.solve(inst, cap=args.cap)
    print("UNSAT" if t is None else f"t {t}")
    return 0


def _cmd_dcr_from_graph(args) -> int:
    g = dcr.parse_graph(_read(args.file))
    inst, primes = dcr.coloring_to_dcr(g)
    _write(args.output, dcr.format_dcr(inst, primes))
    return 0


def _cmd_dcr_to_perm(args) -> int:
    inst = dcr.parse_dcr(_read(args.file))
    gm = dcr.dcr_to_globalmin1(inst)
    lines = [
        f"string {gm.start}",
        f"perm {perm.format_cycles(gm.perm)}",
        f"order {bitlex.format_order(gm.order)}",
        "forbidden " + " ".join(map(str, gm.forbidden)),
    ]
    _write(args.output, "\n".join(lines) + "\n")
    return 0


def _cmd_flip_eval(args) -> int:
    c = circuit.parse_netlist(_read(args.file))
    out, gates = circuit.eval_circuit(c, args.input)
    print(f"outputs {out}")
    print("gates " + "".join(map(str, gates)))
    return 0


def _cmd_flip_check(args) -> int:
    _one_stdin(args.file, args.input)
    c = circuit.parse_netlist(_read(args.file))
    words = _read("-").split() if args.input == "-" else [args.input]
    bits = words[-1] if words else ""
    j = circuit.flip_local_check(c, bits)
    print("LOCALMIN" if j is None else f"improve {j}")
    return 0


def _cmd_flip_greedy(args) -> int:
    c = circuit.parse_netlist(_read(args.file))
    walk = circuit.flip_greedy(c, args.input, max_steps=args.max_steps)
    print(f"string {walk.x}")
    print(f"status {walk.status}")
    print(f"steps {walk.steps}")
    if args.trace:
        for s in walk.trace:
            print(f"trace {s}")
    return 0


def _cmd_reduce_build(args) -> int:
    c = circuit.parse_netlist(_read(args.file))
    inst = reduction.build_instance(c)
    _write(args.output, reduction.format_instance(inst))
    return 0


def _load_instance_and_word(args) -> tuple[reduction.ReducedInstance, list[str]]:
    text = _read(args.file)
    if text.lstrip().startswith("{"):
        inst = None
        word: list[str] | None = None
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except (ValueError, RecursionError):  # JSONDecodeError is a ValueError
                raise FormatError(f"line {lineno}: not a JSON record") from None
            if not isinstance(record, dict):
                raise FormatError(f"line {lineno}: JSON record is not an object")
            if record.get("type") == "instance":
                if inst is not None:
                    raise FormatError(f"line {lineno}: a second instance record")
                if not isinstance(record.get("text"), str):
                    raise FormatError(f"line {lineno}: instance record carries no 'text' string")
                inst = reduction.parse_instance(record["text"])
            elif record.get("type") == "result":
                if word is not None:
                    raise FormatError(f"line {lineno}: a second result record")
                word = record.get("word")
                if not isinstance(word, list) or not all(isinstance(w, str) for w in word):
                    raise FormatError(f"line {lineno}: result record's 'word' is not a list of strings")
        if inst is None or word is None:
            raise FormatError("json stream lacks instance or result records")
    else:
        inst = reduction.parse_instance(text)
        word = None
    if args.word is not None:
        word = args.word.split()
    if word is None:
        raise FormatError("no word given; pass --word or pipe a search result")
    return inst, word


def _cmd_reduce_map(args) -> int:
    inst, word = _load_instance_and_word(args)
    print(reduction.map_solution(inst, word))
    return 0


def _cmd_reduce_embed(args) -> int:
    inst = reduction.parse_instance(_read(args.file))
    word = reduction.embed_flip_solution(inst, args.target)
    print(" ".join(word))
    return 0


def _cmd_cnf_build(args) -> int:
    c = circuit.parse_netlist(_read(args.file))
    f = cnf.build_formula(c)
    _write(args.output, cnf.format_dimacs(f))
    return 0


def _cmd_cnf_check_sym(args) -> int:
    f = cnf.parse_dimacs(_read(args.file))
    failures = 0
    for name, p in f.symmetries:
        if cnf.check_symmetry(f, p):
            print(f"ok {name}")
        else:
            print(f"FAIL {name}")
            failures += 1
    return 1 if failures else 0


def _cmd_cnf_localmin(args) -> int:
    f = cnf.parse_dimacs(_read(args.file))
    res = cnf.local_min_solution(f, alpha=args.assignment, max_steps=args.max_steps)
    print(f"assignment {res.string}")
    print(f"status {res.status}")
    print(f"steps {res.steps}")
    decoded = cnf.decode_input(f, res.string)
    if decoded:
        print(f"input {decoded}")
    return 0


def _decimal(text: str) -> int:
    """An integer flag's value: plain ASCII decimal, as in the file formats."""
    value = bitlex.read_decimal(text)
    if value is None:
        raise FormatError(f"not a plain decimal integer: {text!r}")
    return value


def _add_format(p: argparse.ArgumentParser, default: str = "text") -> None:
    p.add_argument("--format", choices=("text", "json"), default=default)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lexperm",
        description="Lexicographic minimization of bitstrings under permutation groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("one-perm", help="local minimum under a single permutation")
    p.add_argument("--string", required=True)
    p.add_argument("--perm", required=True, help='cycles, e.g. "(1 2 5)(3 4)"')
    p.add_argument("--order", help="whitespace-separated rank list")
    _add_format(p)
    p.set_defaults(func=_cmd_one_perm)

    p = sub.add_parser("orbit-min", help="exact minimum over one permutation's orbit")
    p.add_argument("--string", required=True)
    p.add_argument("--perm", required=True)
    p.add_argument("--order", help="whitespace-separated rank list")
    p.add_argument("--cap", type=_decimal, default=10**6)
    _add_format(p)
    p.set_defaults(func=_cmd_orbit_min)

    pd = sub.add_parser(
        "dcr",
        help="forbidden-remainder systems",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "formats:\n"
            "  system   one constraint per line: 'm: s1 s2 ...'; 'c' lines comment\n"
            "  graph    'p edge <n> <m>' header, then m 'e <u> <v>' lines"
        ),
    )
    dsub = pd.add_subparsers(dest="subcommand", required=True)
    p = dsub.add_parser("solve")
    p.add_argument("file", nargs="?", default="-")
    p.add_argument("--cap", type=_decimal, default=10**6)
    p.set_defaults(func=_cmd_dcr_solve)
    p = dsub.add_parser("from-graph")
    p.add_argument("file", nargs="?", default="-")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_dcr_from_graph)
    p = dsub.add_parser("to-perm")
    p.add_argument("file", nargs="?", default="-")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_dcr_to_perm)

    pf = sub.add_parser(
        "flip",
        help="circuit evaluation and local search",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "netlist format: 'inputs <n>', then 'gate <id> NAND <src> <src>'\n"
            "lines in id order (src = x<i> | g<id>, 1-based), then\n"
            "'outputs g<id> ...'; outputs must be gates"
        ),
    )
    fsub = pf.add_subparsers(dest="subcommand", required=True)
    p = fsub.add_parser("eval")
    p.add_argument("file", nargs="?", default="-")
    p.add_argument("--input", required=True)
    p.set_defaults(func=_cmd_flip_eval)
    p = fsub.add_parser("check")
    p.add_argument("file", nargs="?", default="-")
    p.add_argument("--input", required=True)
    p.set_defaults(func=_cmd_flip_check)
    p = fsub.add_parser("greedy")
    p.add_argument("file", nargs="?", default="-")
    p.add_argument("--input", required=True)
    p.add_argument("--max-steps", dest="max_steps", type=_decimal, default=10**4)
    p.add_argument("--trace", action="store_true")
    p.set_defaults(func=_cmd_flip_greedy)

    pr = sub.add_parser(
        "reduce",
        help="circuit to permutation-search pipeline",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "instance format: 'N <positions> K <generators>' header, the\n"
            "source netlist on 'net ' lines, a 'pos <index> <label>'\n"
            "catalog, 'start <bits>', 'order <rank list>', then generator\n"
            "lines 'pi_<gate>_<circuit> = (cycles)' / 'sigma_<i> = (cycles)'.\n"
            "Instance files are rebuilt from their netlist on reading: they\n"
            "may differ from what `reduce build` writes only in spacing.\n"
            "`reduce search` emits json-lines records (instance, steps,\n"
            "result) so stages chain through pipes."
        ),
    )
    rsub = pr.add_subparsers(dest="subcommand", required=True)
    p = rsub.add_parser("build")
    p.add_argument("file", nargs="?", default="-")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_reduce_build)
    p = rsub.add_parser("search")
    p.add_argument("instance", nargs="?", default="-")
    p.add_argument("--start-word", dest="start_word", metavar="FILE",
                   help="file of generator names, space separated, to apply before the walk")
    p.add_argument("--max-steps", dest="max_steps", type=_decimal, default=10**6)
    p.add_argument("--trace", action="store_true")
    _add_format(p, default="json")
    p.set_defaults(func=_cmd_reduce_search)
    p = rsub.add_parser("map")
    p.add_argument("file", nargs="?", default="-",
                   help="instance file or json stream from `reduce search`")
    p.add_argument("--word", help="generator names, space separated")
    p.set_defaults(func=_cmd_reduce_map)
    p = rsub.add_parser("embed")
    p.add_argument("file", nargs="?", default="-")
    p.add_argument("--target", required=True)
    p.set_defaults(func=_cmd_reduce_embed)

    pc = sub.add_parser(
        "cnf",
        help="formula construction and symmetry search",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "DIMACS 'p cnf V C' with the variable catalog, initial\n"
            "assignment, priority and symmetries carried as 'c var',\n"
            "'c alpha', 'c priority' and 'c sym' comments; a 'c sym' line\n"
            "holds one generator as 'name = (cycles)' over 1-based variable\n"
            "indices, and check-sym and localmin use exactly these"
        ),
    )
    csub = pc.add_subparsers(dest="subcommand", required=True)
    p = csub.add_parser("build")
    p.add_argument("file", nargs="?", default="-")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_cnf_build)
    p = csub.add_parser("check-sym")
    p.add_argument("file", nargs="?", default="-")
    p.set_defaults(func=_cmd_cnf_check_sym)
    p = csub.add_parser("localmin")
    p.add_argument("file", nargs="?", default="-")
    p.add_argument("--assignment")
    p.add_argument("--max-steps", dest="max_steps", type=_decimal, default=10**6)
    p.set_defaults(func=_cmd_cnf_localmin)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if [] in vars(args).values():  # argparse reads an option value of '--' as []
            raise FormatError("an option value of '--' is not accepted")
        code = args.func(args)
        sys.stdout.flush()
        return code
    except LexpermError as exc:
        print(f"error {exc.code}: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError as exc:
        # the reader closed stdout: end as for a file that cannot be
        # written, with stdout on devnull so the exit flush cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error FileError: cannot write stdout: {exc.strerror}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
