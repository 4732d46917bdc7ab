from random import Random

import pytest

from lexperm import circuit, perm, reduction
from lexperm.circuit import FlipInstance, random_instance
from lexperm.cnf import (
    CnfFormula,
    build_formula,
    check_symmetry,
    decode_input,
    enumerate_models,
    format_dimacs,
    format_symmetries,
    local_min_solution,
    parse_dimacs,
    satisfies,
)
from lexperm.errors import MalformedDimacs, UnsatStart
from lexperm.perm import GeneratorSet, parse_cycles, parse_generator_file, permute_string

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
    orbit = perm.orbit_of_string(inst.gens, inst.y_start, cap=100)
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


def test_local_min_solution_rejects_unsat_start():
    f = build_formula(MINIMAL)
    bad = "11" + f.initial[2:]
    with pytest.raises(UnsatStart):
        local_min_solution(f, alpha=bad)


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


def test_sidecar_round_trip():
    f = build_formula(MINIMAL)
    gens = parse_generator_file(format_symmetries(f), f.num_vars)
    assert gens == f.symmetries
    for _, p in gens:
        assert check_symmetry(f, p)


def test_empty_formula_dimacs():
    empty = CnfFormula(0, (), (), GeneratorSet(0, (), ()))
    assert format_dimacs(empty) == "p cnf 0 0\n"
    parsed = parse_dimacs("p cnf 0 0\n")
    assert parsed.num_vars == 0 and parsed.clauses == ()


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
