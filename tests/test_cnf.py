import re
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lexperm import circuit, reduction
from lexperm.bitlex import PriorityOrder
from lexperm.circuit import FlipInstance, random_instance
from lexperm.cnf import (
    CnfFormula,
    build_formula,
    check_symmetry,
    decode_input,
    format_dimacs,
    local_min_solution,
    parse_dimacs,
    satisfies,
)
from lexperm.errors import FormatError, LexpermError, MalformedDimacs, UnsatStart
from lexperm.perm import (
    GeneratorSet,
    parse_cycles,
    permute_string,
)

from reference_impl import OrbitCapExceeded, enumerate_models, orbit_of_string, reference_formula_clauses
from strategies import small_circuits

MINIMAL = FlipInstance(1, ((("x", 1), ("x", 1)),), (1,))
STEP_CIRCUIT = FlipInstance(3, ((("x", 2), ("x", 1)), (("x", 3), ("g", 1))), (2,))


def test_minimal_formula_shape():
    f = build_formula(MINIMAL)
    assert f.num_vars == 24
    # 8 implications x 4 clauses x 1 gate x 2 copies, 12 twin pairs x 2,
    # one input-coupling group of 4
    assert len(f.clauses) == 64 + 24 + 4
    assert f.symmetries.names == ("pi_1_0", "pi_1_1", "sigma_1")


def test_initial_assignment_satisfies():
    for c in (MINIMAL, STEP_CIRCUIT):
        f = build_formula(c)
        assert f.initial is not None
        assert satisfies(f, f.initial)


def test_twin_clauses_force_complementary_values():
    f = build_formula(MINIMAL)
    for model in enumerate_models(f):
        for v in range(0, f.num_vars, 2):
            assert model[v] != model[v + 1]


def test_minimal_sat_set_matches_orbit():
    f = build_formula(MINIMAL)
    models = set(enumerate_models(f))
    assert len(models) == 8
    inst = reduction.build_instance(MINIMAL)
    orbit = orbit_of_string(inst.gens, inst.y_start, cap=100)
    model_inputs = sorted(decode_input(f, m) for m in models)
    orbit_inputs = sorted(reduction.extract_flip_input(inst, s) for s in orbit)
    assert model_inputs == orbit_inputs == ["0"] * 4 + ["1"] * 4


def test_all_generated_symmetries_check_out():
    rng = Random(3)
    for trial in range(6):
        c = random_instance(rng, rng.randint(1, 3), rng.randint(1, 8), 1)
        f = build_formula(c)
        for name, p in f.symmetries:
            assert check_symmetry(f, p), f"{name} on trial {trial}"


def test_identity_is_a_symmetry():
    f = build_formula(MINIMAL)
    assert check_symmetry(f, parse_cycles("", f.num_vars))


def test_unrelated_transposition_is_not_a_symmetry():
    f = build_formula(MINIMAL)
    # swapping a quadrant variable with an input variable breaks clauses
    assert not check_symmetry(f, parse_cycles("(1 5)", f.num_vars))


def test_symmetries_preserve_models():
    f = build_formula(MINIMAL)
    models = set(enumerate_models(f))
    for _, p in f.symmetries:
        for m in models:
            assert permute_string(m, p) in models


def test_local_min_solution_zero_steps_when_started_at_endpoint():
    f = build_formula(MINIMAL)
    res = local_min_solution(f)
    again = local_min_solution(f, alpha=res.string)
    assert again.steps == 0
    assert again.string == res.string


def test_local_min_solution_decodes_to_circuit_local_min():
    rng = Random(7)
    for _ in range(15):
        gates = rng.randint(1, 6)
        c = random_instance(rng, rng.randint(1, 3), gates, rng.randint(1, min(2, gates)))
        f = build_formula(c)
        res = local_min_solution(f, max_steps=10**5)
        assert res.status == "local_opt"
        assert satisfies(f, res.string)
        x = decode_input(f, res.string)
        assert circuit.flip_local_check(c, x) is None
        # every correctness probe rests at the endpoint
        for v, label in enumerate(f.var_labels, start=1):
            if label.endswith(".q11"):
                assert res.string[v - 1] == "0", label


def test_local_min_solution_rejects_a_non_bit_start():
    f = build_formula(MINIMAL)
    with pytest.raises(FormatError, match="not a bitstring"):
        local_min_solution(f, alpha="x" * f.num_vars)


def test_local_min_solution_rejects_unsat_start():
    f = build_formula(MINIMAL)
    bad = "11" + f.initial[2:]
    with pytest.raises(UnsatStart):
        local_min_solution(f, alpha=bad)
    with pytest.raises(UnsatStart, match="no initial one"):
        local_min_solution(parse_dimacs("p cnf 2 1\n1 -2 0\n"))


def test_dimacs_round_trip():
    f = build_formula(STEP_CIRCUIT)
    text = format_dimacs(f)
    parsed = parse_dimacs(text)
    assert parsed.num_vars == f.num_vars
    assert parsed.clauses == f.clauses
    assert parsed.var_labels == f.var_labels
    assert parsed.symmetries == f.symmetries
    assert parsed.priority == f.priority
    assert parsed.initial == f.initial
    assert format_dimacs(parsed) == text


@settings(max_examples=25)
@given(small_circuits())
def test_dimacs_format_parse_round_trip(c):
    f = build_formula(c)
    assert parse_dimacs(format_dimacs(f)) == f


@settings(max_examples=60, deadline=None)
@given(small_circuits(max_inputs=5, max_gates=6))
def test_build_formula_clauses_match_the_copy_by_copy_build(c):
    assert list(build_formula(c).clauses) == reference_formula_clauses(c)


_LITERAL = st.integers(1, 10**6).flatmap(lambda v: st.sampled_from([v, -v]))


@settings(max_examples=200)
@given(st.lists(st.lists(_LITERAL, max_size=8).map(tuple), max_size=12))
def test_format_dimacs_writes_each_clause_line_as_its_literals_and_0(clauses):
    f = CnfFormula(10**6, tuple(clauses), (), GeneratorSet(10**6, (), ()))
    header, *lines = format_dimacs(f).splitlines()
    assert header == f"p cnf {10**6} {len(clauses)}"
    assert lines == [" ".join(map(str, clause)) + " 0" for clause in clauses]


def test_empty_formula_dimacs():
    empty = CnfFormula(0, (), (), GeneratorSet(0, (), ()))
    assert format_dimacs(empty) == "p cnf 0 0\n"
    parsed = parse_dimacs("p cnf 0 0\n")
    assert parsed.num_vars == 0 and parsed.clauses == ()


def test_zero_variable_formula_round_trips_its_alpha_and_priority():
    # format_dimacs writes the empty assignment and order as bare keys
    f = CnfFormula(0, (), (), GeneratorSet(0, (), ()), priority=PriorityOrder(()), initial="")
    text = format_dimacs(f)
    assert text == "c alpha \nc priority \np cnf 0 0\n"
    assert parse_dimacs(text) == f


def test_malformed_dimacs():
    with pytest.raises(MalformedDimacs):
        parse_dimacs("1 2 0\n")
    with pytest.raises(MalformedDimacs):
        parse_dimacs("p cnf 2 1\n1 2\n")
    with pytest.raises(MalformedDimacs):
        parse_dimacs("p cnf 2 1\n1 x 0\n")
    with pytest.raises(MalformedDimacs):
        parse_dimacs("p cnf 2 2\n1 2 0\n")
    with pytest.raises(MalformedDimacs):
        parse_dimacs("p cnf 1 1\n1 5 0\n")
    with pytest.raises(MalformedDimacs):
        parse_dimacs("c alpha 0x\np cnf 2 0\n")
    with pytest.raises(MalformedDimacs):
        parse_dimacs("c var x C0.x1\np cnf 2 0\n")
    with pytest.raises(MalformedDimacs):
        parse_dimacs("p cnf a 0\n")
    with pytest.raises(MalformedDimacs):
        parse_dimacs("p cnf 2 b\n")


@pytest.mark.parametrize(
    "meta, lineno, message",
    [
        (["c var 1 a", "c var 2 b", "c sym s = (1 2)", "c sym s = (1 2)"], 4, "generator 's' is defined twice"),
        (["c sym s = (1 3)"], 1, "point 3 outside 1..2"),
        (["c var 1 a", "c sym s = (1 2)(2 1)"], 2, "point 2 appears in two cycles"),
        (["c sym s (1 2)"], 1, "missing '='"),
        (["c sym t = ()", "c sym = (1 2)"], 2, "generator name '' is empty"),
        (["c priority 2 x"], 1, "rank in order '2 x' is not plain decimal"),
        (["c alpha 01", "c priority 1"], 2, "order lists 1 ranks, expected 2"),
        (["c priority 1 1"], 1, "rank is not a permutation"),
        (["c alpha 011"], 1, "'c alpha' '011' is not 2 bits"),
        (["c alpha 0x"], 1, "'c alpha' '0x' is not 2 bits"),
        (["c alpha 01", "c var 1 a", "c alpha 10"], 3, "a second 'c alpha' line"),
        (["c priority 1 2", "c priority 2 1"], 2, "a second 'c priority' line"),
        (["c var 1 a", "c var 2 b", "c var 1 c"], 3, "variable index 1 is repeated"),
        (["c var 1 a", "c var 3 c"], 2, "variable index 3 is outside 1..2"),
        (["c var 0 z"], 1, "variable index 0 is outside 1..2"),
        (["p cnf 3 1", "1 2 0"], 3, "a second 'p cnf' line"),
        (["c alpha 01", "c priority"], 2, "order lists 0 ranks, expected 2"),
        (["c alpha"], 1, "'c alpha' '' is not 2 bits"),
        (["c sym"], 1, "missing '='"),
        (["c var 1 a", "c var"], 2, "bad variable index ''"),
    ],
    ids=["sym-defined-twice", "sym-out-of-range", "sym-overlap", "sym-no-equals", "sym-empty-name",
         "priority-token", "priority-short", "priority-repeat", "alpha-length", "alpha-bits",
         "alpha-twice", "priority-twice", "var-repeated", "var-too-large", "var-zero",
         "p-cnf-twice", "priority-bare", "alpha-bare", "sym-bare", "var-bare"],
)
def test_dimacs_metadata_faults_name_their_line(meta, lineno, message):
    text = "\n".join([*meta, "p cnf 2 1", "1 2 0"]) + "\n"
    with pytest.raises(MalformedDimacs, match=f"^line {lineno}: {re.escape(message)}"):
        parse_dimacs(text)


def test_enumerate_models_is_not_bounded_by_recursion_depth():
    free = CnfFormula(1500, (), (), GeneratorSet(1500, (), ()))
    with pytest.raises(OrbitCapExceeded):
        enumerate_models(free, cap=1)
    units = CnfFormula(1500, tuple((v,) for v in range(1, 1501)), (), GeneratorSet(1500, (), ()))
    assert enumerate_models(units) == ["1" * 1500]


def test_enumerate_models_lists_every_model_in_order():
    # (x1 or x2) and (not x2 or x3); 0 is tried before 1, so models come
    # in ascending order
    f = CnfFormula(3, ((1, 2), (-2, 3)), (), GeneratorSet(3, (), ()))
    assert enumerate_models(f) == ["011", "100", "101", "111"]


def test_priority_ranks_copy0_probes_first():
    f = build_formula(STEP_CIRCUIT)
    labels = [f.var_labels[v - 1] for v in f.priority.rank[:4]]
    assert labels == ["C0.g1.q11", "C0.g1.q11.t", "C0.g2.q11", "C0.g2.q11.t"]
    # then the output variable of copy 0 (gate 2 is the output gate)
    assert f.var_labels[f.priority.rank[4] - 1] == "C0.g2.w"


def test_both_priority_schemes_certify_the_same_circuits():
    # the permutation-instance walk and the formula walk may stop at
    # different assignments, but both decoded inputs must be circuit
    # local minima
    from lexperm.reduction import build_instance, map_solution
    from lexperm.search import standard_algorithm

    rng = Random(17)
    for _ in range(8):
        gates = rng.randint(1, 5)
        c = random_instance(rng, rng.randint(1, 3), gates, rng.randint(1, min(2, gates)))
        inst = build_instance(c)
        walk = standard_algorithm(inst.y_start, inst.order, inst.gens, max_steps=10**5)
        x_perm = map_solution(inst, walk.word)
        f = build_formula(c)
        res = local_min_solution(f, max_steps=10**5)
        x_cnf = decode_input(f, res.string)
        assert circuit.flip_local_check(c, x_perm) is None
        assert circuit.flip_local_check(c, x_cnf) is None


_DIMACS_LINES = st.lists(
    st.one_of(
        st.text(max_size=14),
        st.text(alphabet="pcnfvarlhsym=() -0123456789", max_size=18),
        st.sampled_from([
            "p cnf 2 1", "p cnf 2 2", "1 -2 0", "2 0", "1", "0", "c var 1 a", "c alpha 01",
            "c priority 2 1", "c sym s = (1 2)", "c sym s = (1 3)", "c", "",
        ]),
    ),
    max_size=7,
).map("\n".join)


@settings(max_examples=300)
@given(_DIMACS_LINES)
@example("p cnf " + "1" * 5000 + " 0")
@example("c var " + "1" * 5000 + " a\np cnf 1 0")
@example("p cnf 1 \u00b2")
@example("p cnf 12 1\n1_0 -2 0\n")
@example("p cnf 12 1\n+1 -2 0\n")
@example("p cnf 12 1\n\u0661 -2 0\n")
def test_parse_dimacs_fuzz_yields_formula_or_lexperm_error(text):
    try:
        f = parse_dimacs(text)
    except LexpermError:
        return
    assert isinstance(f, CnfFormula)
    assert parse_dimacs(format_dimacs(f)).clauses == f.clauses


@pytest.mark.parametrize(
    "clause",
    ["1_0 -2 0", "+1 -2 0", "\u0661 -2 0", "1 --2 0", "1 - 2 0", "1 2- 0", "1 2" + "0" * 5000 + " 0"],
    ids=["underscore", "plus", "arabic-indic", "double-minus", "lone-minus", "trailing-minus", "5001-digits"],
)
def test_dimacs_literals_are_an_optional_minus_and_ascii_digits(clause):
    with pytest.raises(MalformedDimacs, match="^line 5: "):
        parse_dimacs(f"c first\np cnf 12 2\n1 0\n\n{clause}\n")


def test_dimacs_clauses_end_at_every_zero():
    # a second 0 closes an empty clause; literals after the last 0 are an
    # unterminated clause
    assert parse_dimacs("p cnf 1 2\n1 0 0\n").clauses == ((1,), ())
    with pytest.raises(MalformedDimacs, match="^last clause is not terminated by 0$"):
        parse_dimacs("p cnf 2 1\n1 0 2\n")


def test_dimacs_literals_read_minus_zero_and_leading_zeros():
    f = parse_dimacs("p cnf 3 2\n-01 002 -0 3\n0\n")
    assert f.clauses == ((-1, 2), (3,))
