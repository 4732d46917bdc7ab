import itertools
from random import Random

import pytest

from lexperm import reduction
from lexperm.bitlex import format_order, sort_key
from lexperm.circuit import FlipInstance, random_instance
from lexperm.errors import FormatError, LengthMismatch, NotWellBehaved, TwinViolation
from lexperm.perm import (
    apply_word_to_string,
    compose,
    orbit_of_string,
    permute_string,
)
from lexperm.reduction import (
    GateState,
    Position,
    build_instance,
    condense,
    decode_gate_state,
    embed_flip_solution,
    encode_gate_state,
    expand,
    extract_flip_input,
    format_instance,
    is_well_behaved,
    map_solution,
    parse_instance,
)

MINIMAL = FlipInstance(1, ((("x", 1), ("x", 1)),), (1,))
STEP_CIRCUIT = FlipInstance(3, ((("x", 2), ("x", 1)), (("x", 3), ("g", 1))), (2,))


def cond_value(inst, y, pos):
    return int(y[2 * inst.cond_index[pos] - 2])


def test_encode_examples():
    assert encode_gate_state(GateState(0, 0, 0)) == (0, 1, 1, 1)
    assert encode_gate_state(GateState(1, 1, 0)) == (1, 1, 1, 0)


def test_encode_decode_all_states():
    for a1, a2, b in itertools.product((0, 1), repeat=3):
        state = GateState(a1, a2, b)
        labels = encode_gate_state(state)
        assert sum(labels) in (1, 3)
        assert decode_gate_state(labels) == state
        assert state.is_correct == (labels[3] == 0)


def test_decode_rejects_even_weights():
    assert decode_gate_state((0, 0, 0, 0)) is None
    assert decode_gate_state((1, 1, 0, 0)) is None
    assert decode_gate_state((1, 1, 1, 1)) is None


def test_minimal_instance_shape():
    inst = build_instance(MINIMAL)
    assert len(inst.condensed) == 12
    assert inst.num_positions == 24
    assert inst.gens.names == ("pi_1_0", "pi_1_1", "sigma_1")


def test_position_count_formula():
    rng = Random(3)
    for _ in range(10):
        n, g = rng.randint(1, 4), rng.randint(1, 6)
        c = random_instance(rng, n, g, rng.randint(1, min(3, g)))
        inst = build_instance(c)
        expected = 2 * (n + 1) * (c.n + 4 * c.gate_count + c.output_count)
        assert inst.num_positions == expected


def test_generators_are_involutions():
    rng = Random(7)
    for _ in range(10):
        c = random_instance(rng, rng.randint(1, 3), rng.randint(1, 6), 1)
        inst = build_instance(c)
        for name, g in inst.gens:
            assert compose(g, g).is_identity(), name


def test_y_start_well_behaved():
    inst = build_instance(STEP_CIRCUIT)
    assert is_well_behaved(inst, inst.y_start)


def test_twin_violation_detected():
    inst = build_instance(MINIMAL)
    y = list(inst.y_start)
    y[0] = y[1]
    report = is_well_behaved(inst, "".join(y))
    assert not report
    assert "twin" in report.violation


def test_wiring_violation_detected():
    inst = build_instance(MINIMAL)
    y = list(inst.y_start)
    # swap one whole twin pair: still valid twins, but the gadget now
    # encodes a state inconsistent with its wiring
    out_pos = Position(0, "out", 1)
    i = inst.expanded_index(out_pos, 0) - 1
    y[i], y[i + 1] = y[i + 1], y[i]
    report = is_well_behaved(inst, "".join(y))
    assert not report
    assert "output" in report.violation


def test_generators_preserve_well_behavedness():
    rng = Random(11)
    for _ in range(10):
        c = random_instance(rng, rng.randint(1, 3), rng.randint(1, 5), 1)
        inst = build_instance(c)
        for _ in range(30):
            word = [rng.choice(inst.gens.names) for _ in range(rng.randint(0, 8))]
            y = apply_word_to_string(inst.gens, inst.y_start, word)
            assert is_well_behaved(inst, y)


def test_minimal_orbit_is_well_behaved_set():
    inst = build_instance(MINIMAL)
    orbit = orbit_of_string(inst.gens, inst.y_start, cap=100)
    behaved = {
        expand(format(mask, "012b"))
        for mask in range(2**12)
        if is_well_behaved(inst, expand(format(mask, "012b")))
    }
    assert len(orbit) == 8
    assert orbit == behaved


def test_step_circuit_embedding_matches_worked_example():
    # copy 0 fed (0,1,1) with all gate outputs 0: the first gate reads
    # (1,0) but outputs 0, so its probe is raised; so is the second's
    inst = build_instance(STEP_CIRCUIT)
    word = embed_flip_solution(inst, "011")
    y = apply_word_to_string(inst.gens, inst.y_start, word)
    assert extract_flip_input(inst, y) == "011"
    assert cond_value(inst, y, Position(0, "quad", 1, "11")) == 1
    assert cond_value(inst, y, Position(0, "quad", 2, "11")) == 1

    # giving the second gate output 1 instead makes it correct: its probe
    # drops to 0 and the circuit output position shows 1
    y2 = reduction.assemble_well_behaved(inst, "011", "01" + "00" * 3)
    assert is_well_behaved(inst, y2)
    assert cond_value(inst, y2, Position(0, "quad", 1, "11")) == 1
    assert cond_value(inst, y2, Position(0, "quad", 2, "11")) == 0
    assert cond_value(inst, y2, Position(0, "out", 1)) == 1


def test_extract_and_sigma():
    inst = build_instance(STEP_CIRCUIT)
    assert extract_flip_input(inst, inst.y_start) == "000"
    y = apply_word_to_string(inst.gens, inst.y_start, ["sigma_2"])
    assert extract_flip_input(inst, y) == "010"
    y = apply_word_to_string(inst.gens, y, ["sigma_2"])
    assert extract_flip_input(inst, y) == "000"


def test_extract_rejects_ill_behaved():
    inst = build_instance(MINIMAL)
    y = list(inst.y_start)
    y[0] = y[1]
    with pytest.raises(NotWellBehaved):
        extract_flip_input(inst, "".join(y))


def test_map_solution():
    inst = build_instance(STEP_CIRCUIT)
    assert map_solution(inst, []) == "000"
    assert map_solution(inst, ["sigma_1"]) == "100"
    assert map_solution(inst, ["sigma_1", "pi_1_0", "sigma_3"]) == "101"


def test_embed_round_trip_exhaustive():
    rng = Random(13)
    for n in (1, 2, 3):
        c = random_instance(rng, n, 3, 2)
        inst = build_instance(c)
        for bits_tuple in itertools.product("01", repeat=n):
            target = "".join(bits_tuple)
            word = embed_flip_solution(inst, target)
            assert len(word) <= n
            assert all(name.startswith("sigma_") for name in word)
            assert map_solution(inst, word) == target
    assert embed_flip_solution(build_instance(MINIMAL), "0") == []
    assert embed_flip_solution(build_instance(MINIMAL), "1") == ["sigma_1"]


def test_condense_expand_round_trip():
    rng = Random(17)
    for _ in range(1000):
        bits = "".join(rng.choice("01") for _ in range(rng.randint(0, 40)))
        assert condense(expand(bits)) == bits
    assert expand("0") == "01"
    assert expand("1") == "10"


def test_condense_rejects_bad_twins():
    with pytest.raises(TwinViolation):
        condense("0011")
    with pytest.raises(LengthMismatch):
        condense("011")


def test_local_optimality_agrees_across_views():
    rng = Random(19)
    checked = 0
    while checked < 200:
        c = random_instance(rng, rng.randint(1, 3), rng.randint(1, 4), 1)
        inst = build_instance(c)
        cond_order = inst.condensed_order
        for _ in range(20):
            word = [rng.choice(inst.gens.names) for _ in range(rng.randint(0, 6))]
            y = apply_word_to_string(inst.gens, inst.y_start, word)
            key_exp = sort_key(y, inst.order)
            key_cond = sort_key(condense(y), cond_order)
            exp_min = all(
                sort_key(permute_string(y, g), inst.order) >= key_exp
                for _, g in inst.gens
            )
            cond_min = all(
                sort_key(condense(permute_string(y, g)), cond_order) >= key_cond
                for _, g in inst.gens
            )
            assert exp_min == cond_min
            checked += 1


def test_generators_do_not_commute_for_two_inputs():
    rng = Random(23)
    c = random_instance(rng, 2, 3, 1)
    inst = build_instance(c)
    witnesses = [
        (a, b)
        for (_, a), (_, b) in itertools.combinations(list(inst.gens), 2)
        if compose(a, b) != compose(b, a)
    ]
    assert witnesses


def test_priority_order_structure_minimal():
    inst = build_instance(MINIMAL)
    # condensed layout: C0 = x1, q00, q01, q10, q11, c1 at 1..6; C1 at 7..12
    assert inst.condensed_order.rank == (5, 6, 2, 3, 4, 1, 11, 12, 8, 9, 10, 7)
    assert inst.order.rank[:4] == (9, 10, 11, 12)


def test_instance_file_round_trip():
    inst = build_instance(STEP_CIRCUIT)
    text = format_instance(inst)
    parsed = parse_instance(text)
    assert parsed.circuit == inst.circuit
    assert parsed.condensed == inst.condensed
    assert parsed.y_start == inst.y_start
    assert parsed.order == inst.order
    assert parsed.gens == inst.gens
    assert format_instance(parsed) == text


def test_parse_instance_rejects_non_bit_start():
    inst = build_instance(MINIMAL)
    text = format_instance(inst).replace(f"start {inst.y_start}", "start " + "2" * len(inst.y_start))
    with pytest.raises(FormatError):
        parse_instance(text)


def test_parse_instance_rejects_malformed_order():
    inst = build_instance(MINIMAL)
    line = "order " + format_order(inst.order)
    text = format_instance(inst)
    assert line in text
    for bad in ("order 1 x", "order " + " ".join(["1"] * inst.num_positions)):
        with pytest.raises(FormatError):
            parse_instance(text.replace(line, bad))


@pytest.mark.parametrize("bad_line", ["net", "pos", "start", "order", "pos 3", "pos x C0.x1.0"])
def test_parse_instance_rejects_malformed_lines(bad_line):
    text = format_instance(build_instance(MINIMAL)) + bad_line + "\n"
    with pytest.raises(FormatError):
        parse_instance(text)


def test_word_application_equals_generator_composition():
    inst = build_instance(MINIMAL)
    from lexperm.perm import apply_word

    product = apply_word(inst.gens, ["sigma_1", "pi_1_0"])
    assert product == compose(inst.gens.get("sigma_1"), inst.gens.get("pi_1_0"))


def _raised_controls(inst, y):
    """(priority rank, generator name) of every probe reading 1."""
    raised = []
    for j in range(inst.n + 1):
        for gid in range(1, inst.circuit.gate_count + 1):
            pos = Position(j, "quad", gid, "11")
            if int(y[2 * inst.cond_index[pos] - 2]) == 1:
                rank = inst.order.rank.index(inst.expanded_index(pos, 0))
                raised.append((rank, f"pi_{gid}_{j}"))
    return sorted(raised)


def test_raised_probe_admits_improving_flip():
    # whenever a correctness probe reads 1, flipping the highest-ranking
    # offending gate strictly improves the string, so no such assignment
    # is a local minimum
    rng = Random(43)
    improved = 0
    for _ in range(15):
        c = random_instance(rng, rng.randint(1, 3), rng.randint(1, 5), 1)
        inst = build_instance(c)
        for _ in range(20):
            word = [rng.choice(inst.gens.names) for _ in range(rng.randint(0, 8))]
            y = apply_word_to_string(inst.gens, inst.y_start, word)
            raised = _raised_controls(inst, y)
            if not raised:
                continue
            _, name = raised[0]
            y2 = permute_string(y, inst.gens.get(name))
            assert sort_key(y2, inst.order) < sort_key(y, inst.order)
            improved += 1
    assert improved > 50


def test_all_copies_evaluate_correctly_once_probes_rest():
    # at a greedy endpoint every probe reads 0 and each circuit copy's
    # output positions carry the true evaluation of its input vector
    from lexperm.circuit import eval_circuit
    from lexperm.search import standard_algorithm

    rng = Random(47)
    for _ in range(10):
        c = random_instance(rng, rng.randint(1, 3), rng.randint(1, 5), 1)
        inst = build_instance(c)
        res = standard_algorithm(inst.y_start, inst.order, inst.gens, max_steps=10**5)
        y = res.string
        assert not _raised_controls(inst, y)
        x = extract_flip_input(inst, y)
        for j in range(inst.n + 1):
            xj = x if j == 0 else x[: j - 1] + ("1" if x[j - 1] == "0" else "0") + x[j:]
            out, _ = eval_circuit(c, xj)
            for k in range(1, c.output_count + 1):
                pos = Position(j, "out", k)
                assert y[2 * inst.cond_index[pos] - 2] == out[k - 1]


def test_step_circuit_flip_dynamics():
    # flipping the output gate minimizes the circuit output but raises the
    # costlier probe, so it is not an improvement; flipping the first gate
    # afterwards repairs both probes at once
    inst = build_instance(STEP_CIRCUIT)
    y1 = reduction.assemble_well_behaved(inst, "011", "01" + "00" * 3)
    y2 = permute_string(y1, inst.gens.get("pi_2_0"))
    assert cond_value(inst, y2, Position(0, "out", 1)) == 0
    assert cond_value(inst, y2, Position(0, "quad", 2, "11")) == 1
    assert sort_key(y2, inst.order) > sort_key(y1, inst.order)
    y3 = permute_string(y2, inst.gens.get("pi_1_0"))
    assert cond_value(inst, y3, Position(0, "quad", 1, "11")) == 0
    assert cond_value(inst, y3, Position(0, "quad", 2, "11")) == 0
    assert cond_value(inst, y3, Position(0, "out", 1)) == 0
    assert sort_key(y3, inst.order) < sort_key(y2, inst.order)
    assert is_well_behaved(inst, y2) and is_well_behaved(inst, y3)


def test_verify_raw_permutation_against_reduced_instance():
    from lexperm.errors import NotInGroup
    from lexperm.perm import apply_word, parse_cycles
    from lexperm.search import verify_local_opt

    inst = build_instance(MINIMAL)
    member = apply_word(inst.gens, ["sigma_1", "pi_1_1"])
    assert verify_local_opt(inst.y_start, inst.order, inst.gens, perm=member)
    outsider = parse_cycles("(1 3)", inst.num_positions)
    with pytest.raises(NotInGroup):
        verify_local_opt(inst.y_start, inst.order, inst.gens, perm=outsider)
