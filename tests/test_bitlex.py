from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lexperm import bitlex
from lexperm.bitlex import PriorityOrder, identity_order, sort_key
from lexperm.errors import DegreeMismatch, FormatError, LengthMismatch, LexpermError
from lexperm.perm import GeneratorSet, identity, inverse, parse_cycles, permute_string
from lexperm.search import is_local_min

from reference_impl import EQUAL, LESS, WidthExceeded, compare, complement, cost_integer, random_permutation

bit_pairs = st.integers(1, 16).flatmap(
    lambda n: st.tuples(
        st.text(alphabet="01", min_size=n, max_size=n),
        st.text(alphabet="01", min_size=n, max_size=n),
        st.permutations(list(range(1, n + 1))),
    )
)


def test_compare_reflexive():
    order = identity_order(4)
    assert compare("0110", "0110", order) == EQUAL


def test_compare_identity_order():
    assert compare("01", "10", identity_order(2)) == LESS


def test_compare_custom_order_scans_position_two_first():
    order = PriorityOrder((2, 1))
    assert compare("10", "01", order) == LESS


def test_compare_length_mismatch():
    with pytest.raises(LengthMismatch):
        compare("01", "011")


def test_cost_integer_examples():
    assert cost_integer("000000") == 0
    assert cost_integer("001001") == 9
    with pytest.raises(WidthExceeded):
        cost_integer("0" * 65)
    assert cost_integer("0" * 65, max_width=65) == 0


def test_cost_matches_compare_on_samples():
    rng = Random(3)
    for _ in range(2000):
        n = rng.randint(1, 20)
        x = "".join(rng.choice("01") for _ in range(n))
        y = "".join(rng.choice("01") for _ in range(n))
        order = PriorityOrder(random_permutation(rng, n).image)
        cx, cy = cost_integer(x, order), cost_integer(y, order)
        assert compare(x, y, order) == (cx > cy) - (cx < cy)


@given(bit_pairs)
@settings(max_examples=200)
def test_compare_antisymmetric(data):
    x, y, ranks = data
    order = PriorityOrder(tuple(ranks))
    assert compare(x, y, order) == -compare(y, x, order)
    if compare(x, y, order) == EQUAL:
        assert x == y


@given(st.integers(1, 10).flatmap(
    lambda n: st.tuples(
        st.lists(st.text(alphabet="01", min_size=n, max_size=n), min_size=3, max_size=3),
        st.permutations(list(range(1, n + 1))),
    )
))
@settings(max_examples=200)
def test_compare_transitive(data):
    (x, y, z), ranks = data
    order = PriorityOrder(tuple(ranks))
    trio = sorted([x, y, z], key=lambda s: sort_key(s, order))
    assert compare(trio[0], trio[1], order) in (LESS, EQUAL)
    assert compare(trio[1], trio[2], order) in (LESS, EQUAL)
    assert compare(trio[0], trio[2], order) in (LESS, EQUAL)


def test_joint_permutation_leaves_compare_invariant():
    rng = Random(9)
    for _ in range(300):
        n = rng.randint(1, 12)
        x = "".join(rng.choice("01") for _ in range(n))
        y = "".join(rng.choice("01") for _ in range(n))
        order = PriorityOrder(random_permutation(rng, n).image)
        p = random_permutation(rng, n)
        moved = PriorityOrder(tuple(inverse(p)(r) for r in order.rank))
        assert compare(x, y, order) == compare(
            permute_string(x, p), permute_string(y, p), moved
        )


def test_complement():
    assert complement("0110") == "1001"


def test_is_local_min_constant_string():
    p = parse_cycles("(1 2 5)(3 4)(7 8)", 8)
    gens = GeneratorSet(8, ("p",), (p,))
    assert is_local_min("00000000", None, gens, identity(8))
    assert is_local_min("00000000", None, gens, p)


def test_is_local_min_figure_instance():
    p = parse_cycles("(1 2 5)(3 4)(7 8)", 8)
    gens = GeneratorSet(8, ("p",), (p,))
    x = "00100001"
    assert is_local_min(x, None, gens, p)
    assert not is_local_min(x, None, gens, identity(8))


def test_is_local_min_degree_mismatch():
    gens = GeneratorSet(3, ("p",), (parse_cycles("(1 2)", 3),))
    with pytest.raises(DegreeMismatch):
        is_local_min("01", None, gens, identity(3))


def test_is_local_min_rejects_non_bits():
    gens = GeneratorSet(3, ("p",), (parse_cycles("(1 2)", 3),))
    with pytest.raises(FormatError):
        is_local_min("0a1", None, gens, identity(3))


def test_order_parsing_round_trip():
    order = PriorityOrder((3, 1, 2))
    assert bitlex.parse_order(bitlex.format_order(order), 3) == order
    with pytest.raises(LengthMismatch):
        bitlex.parse_order("1 2", 3)


def test_parse_order_rejects_non_integer_rank():
    with pytest.raises(FormatError):
        bitlex.parse_order("1 x 3", 3)


@pytest.mark.parametrize(
    "text",
    ["+1 2 3", "1_0 2 3", "1 2 \uff13", "\u0661 2 3", "-1 2 3", "1 2 " + "3" * 5000],
    ids=["plus", "underscore", "full-width", "arabic-indic", "minus", "5000-digits"],
)
def test_parse_order_reads_plain_decimal_only(text):
    with pytest.raises(FormatError):
        bitlex.parse_order(text, 3)


def _per_token_decimals(tokens):
    """The reader ``read_decimals`` replaces: each token on its own."""
    out = []
    for token in tokens:
        if not (token and token.isascii() and token.isdecimal()):
            return None
        try:
            out.append(int(token))
        except ValueError:  # more digits than int() converts
            return None
    return out


@settings(max_examples=300)
@given(
    st.lists(
        st.one_of(
            st.text(alphabet="0123456789", max_size=4),
            st.sampled_from(["", "+1", "-2", "1_0", "\u0663", "\u00b2", "7" * 5000]),
            st.text(max_size=4),
        ),
        max_size=5,
    )
)
@example(["1", "", "2"])
@example(["12", "7" * 5000])
def test_read_decimals_matches_a_per_token_reader(tokens):
    assert bitlex.read_decimals(tokens) == _per_token_decimals(tokens)
    for token in tokens:
        assert [bitlex.read_decimal(token)] == (_per_token_decimals([token]) or [None])


def test_parse_order_reads_leading_zeros_and_any_spacing():
    assert bitlex.parse_order(" 03\t1  2 ", 3).rank == (3, 1, 2)
    assert bitlex.parse_order("", 0).rank == ()


def test_parse_order_rejects_non_permutation():
    with pytest.raises(FormatError):
        bitlex.parse_order("1 1 2", 3)
    with pytest.raises(FormatError):
        bitlex.parse_order("0 1 2", 3)


@settings(max_examples=300)
@given(
    st.one_of(st.text(max_size=16), st.text(alphabet="0123 -+_\t", max_size=12)),
    st.integers(0, 4),
)
@example("1" * 5000, 1)
@example("1 \u00b2 3", 3)
def test_parse_order_fuzz_yields_order_or_lexperm_error(text, degree):
    try:
        order = bitlex.parse_order(text, degree)
    except LexpermError:
        return
    assert isinstance(order, PriorityOrder)
    assert bitlex.format_order(order) == " ".join(str(r) for r in order.rank)
    assert bitlex.parse_order(bitlex.format_order(order), degree) == order
