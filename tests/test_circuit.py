import itertools
import warnings
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lexperm.circuit import (
    FlipInstance,
    eval_circuit,
    flip_greedy,
    flip_local_check,
    format_netlist,
    parse_netlist,
    random_instance,
)
from lexperm.errors import FormatError, LengthMismatch, LexpermError

from reference_impl import eval_recursive
from strategies import small_circuits

# inputs (x, y, z); first gate reads (y, x), second reads (z, first)
STEP_CIRCUIT = FlipInstance(
    3,
    ((("x", 2), ("x", 1)), (("x", 3), ("g", 1))),
    (2,),
)


def test_eval_step_circuit():
    out, gates = eval_circuit(STEP_CIRCUIT, "011")
    assert gates == (1, 0)
    assert out == "0"


def test_eval_not_gate():
    c = FlipInstance(1, ((("x", 1), ("x", 1)),), (1,))
    assert eval_circuit(c, "0")[0] == "1"
    assert eval_circuit(c, "1")[0] == "0"


def test_eval_length_mismatch():
    with pytest.raises(LengthMismatch):
        eval_circuit(STEP_CIRCUIT, "01")


def test_eval_agrees_with_recursive_oracle():
    rng = Random(13)
    for _ in range(100):
        c = random_instance(rng, rng.randint(1, 4), 8, rng.randint(1, 3))
        for _ in range(10):
            bits = "".join(rng.choice("01") for _ in range(c.n))
            assert eval_circuit(c, bits)[0] == eval_recursive(c, bits)


def test_topological_order_independence():
    # evaluating with gate values filled in any valid topological order
    # gives the same result; emulate by evaluating twice through both
    # evaluators on a circuit with interleaved dependencies
    c = FlipInstance(
        2,
        (
            (("x", 1), ("x", 2)),
            (("x", 2), ("x", 2)),
            (("g", 1), ("g", 2)),
        ),
        (3,),
    )
    for bits in ("00", "01", "10", "11"):
        assert eval_circuit(c, bits)[0] == eval_recursive(c, bits)


def test_flip_local_check_constant_circuit():
    # NAND(x, NOT x) is constantly 1
    c = FlipInstance(1, ((("x", 1), ("x", 1)), (("x", 1), ("g", 1))), (2,))
    for bits in ("0", "1"):
        assert eval_circuit(c, bits)[0] == "1"
        assert flip_local_check(c, bits) is None


def test_flip_local_check_step_circuit_minimum():
    assert flip_local_check(STEP_CIRCUIT, "011") is None


def test_flip_local_check_agrees_with_exhaustive():
    rng = Random(19)
    for _ in range(60):
        gates = rng.randint(1, 6)
        c = random_instance(rng, rng.randint(1, 4), gates, rng.randint(1, min(2, gates)))
        for bits_tuple in itertools.product("01", repeat=c.n):
            bits = "".join(bits_tuple)
            base = eval_circuit(c, bits)[0]
            expected = None
            for j in range(1, c.n + 1):
                flipped = bits[: j - 1] + ("1" if bits[j - 1] == "0" else "0") + bits[j:]
                if eval_circuit(c, flipped)[0] < base:
                    expected = j
                    break
            assert flip_local_check(c, bits) == expected


def test_greedy_zero_steps_at_local_min():
    walk = flip_greedy(STEP_CIRCUIT, "011")
    assert walk.steps == 0
    assert walk.status == "local_min"
    assert walk.trace == ["011"]


def test_greedy_endpoint_is_local_min_and_trace_decreases():
    rng = Random(37)
    for _ in range(50):
        gates = rng.randint(1, 6)
        c = random_instance(rng, 3, gates, rng.randint(1, min(2, gates)))
        bits = "".join(rng.choice("01") for _ in range(3))
        walk = flip_greedy(c, bits)
        assert walk.status == "local_min"
        assert flip_local_check(c, walk.x) is None
        outs = [eval_circuit(c, s)[0] for s in walk.trace]
        assert all(a > b for a, b in zip(outs, outs[1:]))
        assert len(walk.trace) <= 2 ** c.output_count


def test_greedy_step_cap():
    c = FlipInstance(2, ((("x", 1), ("x", 2)),), (1,))
    walk = flip_greedy(c, "11", max_steps=0)
    assert walk.status == "step_cap"
    assert walk.trace == ["11"]


def test_instance_validation():
    with pytest.raises(ValueError):
        FlipInstance(1, ((("g", 1), ("x", 1)),), (1,))  # forward reference
    with pytest.raises(ValueError):
        FlipInstance(1, ((("x", 2), ("x", 1)),), (1,))  # bad input index
    with pytest.raises(ValueError):
        FlipInstance(1, ((("x", 1), ("x", 1)),), (1, 1))  # repeated output
    with pytest.raises(ValueError):
        FlipInstance(1, ((("x", 1), ("x", 1)),), (2,))  # output not a gate


def test_netlist_round_trip():
    text = format_netlist(STEP_CIRCUIT)
    assert parse_netlist(text) == STEP_CIRCUIT
    assert "gate 1 NAND x2 x1" in text


@pytest.mark.filterwarnings("ignore:input x")
@settings(max_examples=25)
@given(small_circuits())
def test_netlist_format_parse_round_trip(c):
    assert parse_netlist(format_netlist(c)) == c


def test_netlist_rejects_constants_and_junk():
    with pytest.raises(FormatError):
        parse_netlist("inputs 1\ngate 1 NAND 0 x1\noutputs g1\n")
    with pytest.raises(FormatError):
        parse_netlist("inputs 1\ngate 2 NAND x1 x1\noutputs g2\n")
    with pytest.raises(FormatError):
        parse_netlist("gate 1 NAND x1 x1\noutputs g1\n")
    with pytest.raises(FormatError):
        parse_netlist("inputs 1\ngate 1 NAND x1 x1\noutputs x1\n")
    with pytest.raises(FormatError, match="line 3: second 'inputs' line"):
        parse_netlist("inputs 2\ngate 1 NAND x1 x2\ninputs 3\noutputs g1\n")


def test_netlist_warns_on_dangling_input():
    with pytest.warns(UserWarning, match="x2 feeds no gate"):
        parse_netlist("inputs 2\ngate 1 NAND x1 x1\noutputs g1\n")


@pytest.mark.parametrize(
    "n, message",
    [
        (3, "input x1 feeds no gate"),
        (4, "input x1, x3 feed no gate (2 of 4 inputs)"),
        (7, "input x1, x3, x4, x5, x6 feed no gate (5 of 7 inputs)"),
        (8, "input x1, x3, x4, x5, x6, ... feed no gate (6 of 8 inputs)"),
        (20000, "input x1, x3, x4, x5, x6, ... feed no gate (19998 of 20000 inputs)"),
        (10**9, "input x1, x3, x4, x5, x6, ... feed no gate (999999998 of 1000000000 inputs)"),
    ],
)
def test_netlist_warns_once_naming_the_unused_inputs(n, message):
    """One warning per parse, found from the gates alone: an input count
    of a billion parses at once."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        parse_netlist(f"inputs {n}\ngate 1 NAND x2 x{min(n, 7)}\noutputs g1\n")
    assert [str(w.message) for w in caught] == [message]


_NETLIST_LINES = st.lists(
    st.one_of(
        st.text(max_size=14),
        st.text(alphabet="inputsgaeNAD xg0123456789# ", max_size=18),
        st.sampled_from([
            "inputs 2", "inputs 0", "gate 1 NAND x1 x2", "gate 2 NAND g1 x1", "gate 1 NAND x3 g1",
            "outputs g1", "outputs g2 g1", "outputs x1", "# c", "",
        ]),
    ),
    max_size=6,
).map("\n".join)


@pytest.mark.filterwarnings("ignore:input x")
@settings(max_examples=300)
@given(_NETLIST_LINES)
@example("inputs \u00b2")
@example("inputs 1\ngate 1 NAND x\u00b9 x1\noutputs g1")
@example("inputs 1\ngate \u00b9 NAND x1 x1\noutputs g1")
@example("inputs 1\ngate 1 NAND x1 x1\noutputs g\u00b9")
@example("inputs " + "1" * 5000)
@example("inputs 1\ngate 1 NAND x1 g" + "1" * 5000 + "\noutputs g1")
def test_parse_netlist_fuzz_yields_circuit_or_lexperm_error(text):
    try:
        c = parse_netlist(text)
    except LexpermError:
        return
    assert isinstance(c, FlipInstance)
    assert parse_netlist(format_netlist(c)) == c


def test_netlist_numbers_are_plain_decimal():
    for text in (
        "inputs +1", "inputs 1_0", "inputs \u0661", "inputs 1\ngate 1 NAND x+1 x1\noutputs g1"
    ):
        with pytest.raises(FormatError):
            parse_netlist(text)
    assert parse_netlist("inputs 01\ngate 01 NAND x01 x1\noutputs g01\n").n == 1
