"""Command-line front end; every pipeline is reachable through files or
stdin/stdout so runs can be reproduced and re-verified without the
library.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import acceptance, bitlex, circuit, cnf, dcr, one_perm, perm, reduction, search
from .errors import FormatError, LexpermError


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _cmd_one_perm(args) -> int:
    degree = len(args.string)
    p = perm.parse_cycles(args.perm, degree)
    res = one_perm.local_min_one_perm(args.string, p)
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
    order = bitlex.parse_order(args.order, degree) if args.order else None
    t, s = one_perm.orbit_min_one_perm(args.string, p, cap=args.cap, order=order)
    if args.format == "json":
        print(json.dumps({"t": t, "string": s}))
    else:
        print(f"t {t}")
        print(f"string {s}")
    return 0


def _search_instance(args, inst: reduction.ReducedInstance, default_json: bool) -> int:
    start = tuple(_read(args.start_word).split()) if args.start_word else ()
    res = search.standard_algorithm(
        inst.y_start,
        inst.order,
        inst.gens,
        start=start,
        max_steps=args.max_steps,
        keep_trace=args.trace,
    )
    fmt = args.format or ("json" if default_json else "text")
    if fmt == "json":
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


def _cmd_search(args) -> int:
    inst = reduction.parse_instance(_read(args.instance))
    return _search_instance(args, inst, default_json=False)


def _cmd_dcr_solve(args) -> int:
    inst = dcr.parse_dcr(_read(args.file))
    t = dcr.solve_bruteforce(inst, cap=args.cap)
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
    c = circuit.parse_netlist(_read(args.file))
    bits = sys.stdin.read().split()[-1] if args.input == "-" else args.input
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


def _cmd_reduce_search(args) -> int:
    inst = reduction.parse_instance(_read(args.instance))
    return _search_instance(args, inst, default_json=True)


def _load_instance_and_word(args) -> tuple[reduction.ReducedInstance, list[str]]:
    text = _read(args.file)
    if text.lstrip().startswith("{"):
        inst = None
        word: list[str] | None = None
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if record.get("type") == "instance":
                inst = reduction.parse_instance(record["text"])
            elif record.get("type") == "result":
                word = list(record["word"])
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
    if args.sym:
        _write(args.sym, perm.format_generator_file(f.symmetries))
    return 0


def _cmd_cnf_check_sym(args) -> int:
    f = cnf.parse_dimacs(_read(args.file), _read(args.sym) if args.sym else None)
    failures = 0
    for name, p in f.symmetries:
        if cnf.check_symmetry(f, p):
            print(f"ok {name}")
        else:
            print(f"FAIL {name}")
            failures += 1
    return 1 if failures else 0


def _cmd_cnf_localmin(args) -> int:
    f = cnf.parse_dimacs(_read(args.file), _read(args.sym) if args.sym else None)
    res = cnf.local_min_solution(f, alpha=args.assignment, max_steps=args.max_steps)
    print(f"assignment {res.string}")
    print(f"status {res.status}")
    print(f"steps {res.steps}")
    decoded = cnf.decode_input(f, res.string)
    if decoded:
        print(f"input {decoded}")
    return 0


def _cmd_selftest(args) -> int:
    if args.list:
        for name, _ in acceptance.CHECKS:
            print(name)
        return 0

    def report(res: acceptance.CheckResult) -> None:
        flag = "PASS" if res.ok else "FAIL"
        print(f"{flag} {res.name} ({res.seconds:.2f}s): {res.detail}", flush=True)

    names = args.names or None
    results = acceptance.run_all(names=names, seed=args.seed, report=report)
    failed = [r for r in results if not r.ok]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return 1 if failed else 0


def _add_format(p: argparse.ArgumentParser, default: str | None = "text") -> None:
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
    _add_format(p)
    p.set_defaults(func=_cmd_one_perm)

    p = sub.add_parser("orbit-min", help="exact minimum over one permutation's orbit")
    p.add_argument("--string", required=True)
    p.add_argument("--perm", required=True)
    p.add_argument("--order", help="whitespace-separated rank list")
    p.add_argument("--cap", type=int, default=10**6)
    _add_format(p)
    p.set_defaults(func=_cmd_orbit_min)

    p = sub.add_parser("search", help="greedy walk over an instance file")
    p.add_argument("--instance", required=True)
    p.add_argument("--start-word", dest="start_word")
    p.add_argument("--max-steps", dest="max_steps", type=int, default=10**6)
    p.add_argument("--trace", action="store_true")
    _add_format(p, default=None)
    p.set_defaults(func=_cmd_search)

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
    p.add_argument("--cap", type=int, default=10**6)
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
    p.add_argument("--max-steps", dest="max_steps", type=int, default=10**4)
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
            "Instance files are rebuilt from their netlist on reading: only\n"
            "the 'pos' lines may differ from what `reduce build` writes\n"
            "(in order and spacing).\n"
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
    p.add_argument("--start-word", dest="start_word")
    p.add_argument("--max-steps", dest="max_steps", type=int, default=10**6)
    p.add_argument("--trace", action="store_true")
    _add_format(p, default=None)
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
            "'c alpha', 'c priority' and 'c sym' comments; --sym writes the\n"
            "generators to a sidecar of 'name = (cycles)' lines over\n"
            "1-based variable indices"
        ),
    )
    csub = pc.add_subparsers(dest="subcommand", required=True)
    p = csub.add_parser("build")
    p.add_argument("file", nargs="?", default="-")
    p.add_argument("-o", "--output")
    p.add_argument("--sym", help="also write a symmetry sidecar file")
    p.set_defaults(func=_cmd_cnf_build)
    p = csub.add_parser("check-sym")
    p.add_argument("file", nargs="?", default="-")
    p.add_argument("--sym")
    p.set_defaults(func=_cmd_cnf_check_sym)
    p = csub.add_parser("localmin")
    p.add_argument("file", nargs="?", default="-")
    p.add_argument("--sym")
    p.add_argument("--assignment")
    p.add_argument("--max-steps", dest="max_steps", type=int, default=10**6)
    p.set_defaults(func=_cmd_cnf_localmin)

    p = sub.add_parser("selftest", help="run the acceptance suite")
    p.add_argument("names", nargs="*", help="run only these checks")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--list", action="store_true")
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except LexpermError as exc:
        print(f"error {exc.code}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
