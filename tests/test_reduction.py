import dataclasses
import itertools
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexperm import reduction
from lexperm.bitlex import format_order, sort_key
from lexperm.circuit import FlipInstance, random_instance
from lexperm.errors import (
    FormatError,
    LengthMismatch,
    LexpermError,
    NotWellBehaved,
)
from lexperm.perm import (
    apply_word_to_string,
    compose,
    permute_string,
)
from lexperm.reduction import (
    build_instance,
    embed_flip_solution,
    expand,
    extract_flip_input,
    format_instance,
    is_well_behaved,
    map_solution,
    parse_instance,
)
from lexperm.search import standard_algorithm
from reference_impl import (
    GateState,
    Position,
    TwinViolation,
    assemble_well_behaved,
    condense,
    condensed_order,
    decode_gate_state,
    dense_moved,
    encode_gate_state,
    is_correct,
    orbit_of_string,
    reference_expand,
    reference_is_well_behaved,
    reference_positions,
    reference_slot_is_well_behaved,
)
from strategies import small_circuits

MINIMAL = FlipInstance(1, ((("x", 1), ("x", 1)),), (1,))
STEP_CIRCUIT = FlipInstance(3, ((("x", 2), ("x", 1)), (("x", 3), ("g", 1))), (2,))


def point(inst, pos, twin=0):
    """The expanded point of one twin of a position, through the layout."""
    return 2 * inst.layout.pair(pos.circuit, pos.kind, pos.index, pos.quadrant) - 1 + twin


def cond_value(inst, y, pos):
    return int(y[point(inst, pos) - 1])


def test_encode_examples():
    assert encode_gate_state(GateState(0, 0, 0)) == (0, 1, 1, 1)
    assert encode_gate_state(GateState(1, 1, 0)) == (1, 1, 1, 0)


def test_encode_decode_all_states():
    for a1, a2, b in itertools.product((0, 1), repeat=3):
        state = GateState(a1, a2, b)
        labels = encode_gate_state(state)
        assert sum(labels) in (1, 3)
        assert decode_gate_state(labels) == state
        assert is_correct(state) == (labels[3] == 0)


def test_decode_rejects_even_weights():
    assert decode_gate_state((0, 0, 0, 0)) is None
    assert decode_gate_state((1, 1, 0, 0)) is None
    assert decode_gate_state((1, 1, 1, 1)) is None


def test_minimal_instance_shape():
    inst = build_instance(MINIMAL)
    assert len(reference_positions(inst.layout)) == 12
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
    i = point(inst, out_pos) - 1
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
    y2 = assemble_well_behaved(inst, "011", "01" + "00" * 3)
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
        assert expand(bits) == reference_expand(bits)
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
        cond_order = condensed_order(inst)
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
    assert condensed_order(inst).rank == (5, 6, 2, 3, 4, 1, 11, 12, 8, 9, 10, 7)
    assert inst.order.rank[:4] == (9, 10, 11, 12)


def test_instance_file_round_trip():
    inst = build_instance(STEP_CIRCUIT)
    text = format_instance(inst)
    parsed = parse_instance(text)
    assert parsed.circuit == inst.circuit
    assert parsed.layout.labels() == inst.layout.labels()
    assert parsed.y_start == inst.y_start
    assert parsed.order == inst.order
    assert parsed.gens == inst.gens
    assert format_instance(parsed) == text


@pytest.mark.filterwarnings("ignore:input x")
@settings(max_examples=25)
@given(small_circuits())
def test_instance_format_parse_round_trip(c):
    inst = build_instance(c)
    assert parse_instance(format_instance(inst)) == inst


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


def test_parse_instance_accepts_loose_whitespace_but_not_a_reordered_catalog():
    text = format_instance(build_instance(STEP_CIRCUIT))
    lines = text.splitlines()
    pos = [i for i, line in enumerate(lines) if line.startswith("pos ")]
    loose = [lines[i].replace(" ", "  ") + " " for i in pos]
    for i, line in zip(pos, loose):
        lines[i] = line
    assert parse_instance("\n".join(lines)) == parse_instance(text)
    Random(5).shuffle(loose)
    for i, line in zip(pos, loose):
        lines[i] = line
    first = next(i for i, line in zip(pos, loose) if line.split() != text.splitlines()[i].split())
    with pytest.raises(FormatError, match=f"^line {first + 1}: found 'pos "):
        parse_instance("\n".join(lines))


def _edit_lines(text, edit):
    lines = text.splitlines()
    edit(lines)
    return "\n".join(lines) + "\n"


def _pos_index_gap(lines):
    lines[lines.index("pos 24 C1.c1.1")] = "pos 999 C1.c1.1"


def _catalog_permuted_against_netlist(lines):
    # C0.x1 and C0.g1.q00 trade indices: every line still names one twin of
    # one position, but not at the index the netlist's layout gives it
    moved = {
        "pos 1 C0.x1.0": "pos 3 C0.x1.0",
        "pos 2 C0.x1.1": "pos 4 C0.x1.1",
        "pos 3 C0.g1.q00.0": "pos 1 C0.g1.q00.0",
        "pos 4 C0.g1.q00.1": "pos 2 C0.g1.q00.1",
    }
    assert set(moved) <= set(lines)
    lines[:] = [moved.get(line, line) for line in lines]


def _no_net_lines(lines):
    lines[:] = [line for line in lines if not line.startswith("net ")]


@pytest.mark.parametrize(
    "edit", [_pos_index_gap, _catalog_permuted_against_netlist, _no_net_lines]
)
def test_parse_instance_rejects_catalog_that_is_not_the_netlist_layout(edit):
    with pytest.raises(FormatError):
        parse_instance(_edit_lines(format_instance(build_instance(MINIMAL)), edit))


def _generator_rows(lines):
    return [i for i, line in enumerate(lines) if " = " in line]


def _pi_line_edited(lines):
    # the edit that used to parse and only failed later, in map_solution
    i = next(i for i, line in enumerate(lines) if line.startswith("pi_1_0 = "))
    assert lines[i] != "pi_1_0 = (1 2)"
    lines[i] = "pi_1_0 = (1 2)"


def _start_bit_flipped(lines):
    i = next(i for i, line in enumerate(lines) if line.startswith("start "))
    bits = lines[i].split()[1]
    lines[i] = "start " + ("1" if bits[0] == "0" else "0") + bits[1:]


def _order_ranks_swapped(lines):
    i = next(i for i, line in enumerate(lines) if line.startswith("order "))
    ranks = lines[i].split()[1:]
    ranks[0], ranks[1] = ranks[1], ranks[0]
    lines[i] = "order " + " ".join(ranks)


def _generator_dropped(lines):
    del lines[_generator_rows(lines)[-1]]


def _generator_duplicated(lines):
    i = _generator_rows(lines)[0]
    lines.insert(i + 1, lines[i])


def _generators_reordered(lines):
    i, k = _generator_rows(lines)[:2]
    lines[i], lines[k] = lines[k], lines[i]


def _wrong_generator_count(lines):
    n, total, k, count = lines[0].split()
    lines[0] = f"{n} {total} {k} {int(count) + 1}"


INSTANCE_EDITS = [
    _pi_line_edited,
    _start_bit_flipped,
    _order_ranks_swapped,
    _generator_dropped,
    _generator_duplicated,
    _generators_reordered,
    _wrong_generator_count,
]


@pytest.mark.parametrize("edit", INSTANCE_EDITS)
def test_parse_instance_rejects_lines_that_are_not_the_rebuilt_instance(edit):
    text = format_instance(build_instance(MINIMAL))
    edited = _edit_lines(text, edit)
    assert edited != text
    with pytest.raises(FormatError):
        parse_instance(edited)


def test_parse_instance_returns_the_rebuilt_instance():
    text = format_instance(build_instance(STEP_CIRCUIT))
    inst = parse_instance("# comment\n\n" + text.replace(" K ", "   K  ", 1) + "\n")
    assert inst == build_instance(STEP_CIRCUIT)
    assert inst.layout.circuit is inst.circuit
    for _, g in inst.gens:
        assert g.moved == dense_moved(g)


def test_reduced_instance_is_built_from_its_circuit_alone():
    init = [f.name for f in dataclasses.fields(reduction.ReducedInstance) if f.init]
    assert init == ["circuit"]
    inst = build_instance(STEP_CIRCUIT)
    assert reduction.ReducedInstance(STEP_CIRCUIT) == inst == parse_instance(format_instance(inst))
    assert hash(reduction.ReducedInstance(STEP_CIRCUIT)) == hash(inst)
    assert inst.layout.circuit is inst.circuit
    with pytest.raises(TypeError):
        reduction.ReducedInstance(inst.circuit, inst.gens, inst.y_start, inst.order)


_FUZZ_TEXTS = [format_instance(build_instance(c)) for c in (MINIMAL, STEP_CIRCUIT)]
_FUZZ_TOKENS = [
    "0", "1", "2", "24", "999", "x", "x1", "g1", "g9", "NAND", "N", "K", "pos",
    "net", "C0.x1.0", "C1.c1.1", "=", "(1 2)", "(1 2)(2 3)", "()", "01",
]


@st.composite
def _edited_instance_text(draw):
    lines = draw(st.sampled_from(_FUZZ_TEXTS)).splitlines()
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(("delete", "duplicate", "swap", "token")))
        if edit == "delete":
            del lines[i]
            if not lines:
                break
        elif edit == "duplicate":
            lines.insert(i, lines[i])
        elif edit == "swap":
            k = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[k] = lines[k], lines[i]
        else:
            tokens = lines[i].split(" ")
            t = draw(st.integers(0, len(tokens) - 1))
            tokens[t] = draw(st.sampled_from(_FUZZ_TOKENS) | st.text("01() =xgC.", max_size=6))
            lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


@pytest.mark.filterwarnings("ignore:input x")
@given(_edited_instance_text())
@settings(max_examples=300, deadline=None)
def test_parse_instance_fuzz_yields_instance_or_lexperm_error(text):
    try:
        inst = parse_instance(text)
    except LexpermError:
        return
    assert isinstance(inst, reduction.ReducedInstance)
    assert parse_instance(format_instance(inst)) == inst


def _judged_strings(rng, inst):
    """Well-behaved strings (a greedy walk's trace and random words), and
    from each: one or two twin pairs swapped, one twin pair broken, and one
    gadget re-encoded as a random gate state."""
    layout, pairs = inst.layout, inst.num_positions // 2
    behaved = list(standard_algorithm(inst.y_start, inst.order, inst.gens, keep_trace=True).trace)
    for _ in range(10):
        word = [rng.choice(inst.gens.names) for _ in range(rng.randint(0, 8))]
        behaved.append(apply_word_to_string(inst.gens, inst.y_start, word))
    for y in behaved:
        yield y
        for swaps in (1, 2):
            cond = list(condense(y))
            for k in rng.sample(range(pairs), min(swaps, pairs)):
                cond[k] = "1" if cond[k] == "0" else "0"
            yield expand("".join(cond))
        k = rng.randrange(pairs)
        yield y[: 2 * k] + y[2 * k] * 2 + y[2 * k + 2 :]
        cond = list(condense(y))
        j, gid = rng.randint(0, inst.n), rng.randint(1, inst.circuit.gate_count)
        labels = encode_gate_state(GateState(*(rng.randint(0, 1) for _ in range(3))))
        for q, label in zip(reduction.QUADRANTS, labels):
            cond[layout.pair(j, "quad", gid, q) - 1] = str(label)
        yield expand("".join(cond))


def test_is_well_behaved_agrees_with_reference():
    """Verdicts as the hand-wired reference gives them, and verdicts and
    messages as the per-slot decode and re-assembly gives them."""
    rng = Random(59)
    verdicts = {True: 0, False: 0}
    kinds = set()
    for _ in range(30):
        n, gates = rng.randint(1, 4), rng.randint(1, 8)
        inst = build_instance(random_instance(rng, n, gates, rng.randint(1, min(3, gates))))
        for y in _judged_strings(rng, inst):
            report = is_well_behaved(inst, y)
            assert report.ok == bool(reference_is_well_behaved(inst, y))
            assert report == reference_slot_is_well_behaved(inst, y)
            verdicts[report.ok] += 1
            kinds.add(report.violation and report.violation.split()[0])
    assert verdicts[True] > 100 and verdicts[False] > 100
    assert {None, "twin", "a", "input", "gadget", "output"} <= kinds


def test_twin_and_slot_violations_are_named_like_the_references():
    inst = build_instance(STEP_CIRCUIT)
    y = inst.y_start
    # C0.g1.q01's twins agree; the direct reference names the same pair
    k = 2 * inst.layout.pair(0, "quad", 1, "01") - 2
    twins = y[:k] + y[k] * 2 + y[k + 2 :]
    report = is_well_behaved(inst, twins)
    assert not report and not reference_is_well_behaved(inst, twins)
    assert report.violation == reference_is_well_behaved(inst, twins).violation
    assert report.violation == "twin pair of C0.g1.q01 agrees"
    # C2.x3 flipped alone: valid twins and gadgets, but copy 2's input is
    # no longer copy 0's with bit 2 flipped
    k = 2 * inst.layout.pair(2, "in", 3) - 2
    slot = y[:k] + y[k + 1] + y[k] + y[k + 2 :]
    report = is_well_behaved(inst, slot)
    assert not report and not reference_is_well_behaved(inst, slot)
    assert report == reference_slot_is_well_behaved(inst, slot)
    assert report.violation.startswith("input C2.x3 disagrees with copy-0 input 000")


def test_non_bit_strings_are_format_errors():
    inst = build_instance(MINIMAL)
    y = "ab" * (inst.num_positions // 2)
    with pytest.raises(FormatError, match="not a bitstring"):
        is_well_behaved(inst, y)
    with pytest.raises(FormatError, match="not a bitstring"):
        extract_flip_input(inst, y)


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
            if cond_value(inst, y, pos) == 1:
                rank = inst.order.rank.index(point(inst, pos))
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
                assert str(cond_value(inst, y, pos)) == out[k - 1]


def test_step_circuit_flip_dynamics():
    # flipping the output gate minimizes the circuit output but raises the
    # costlier probe, so it is not an improvement; flipping the first gate
    # afterwards repairs both probes at once
    inst = build_instance(STEP_CIRCUIT)
    y1 = assemble_well_behaved(inst, "011", "01" + "00" * 3)
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
