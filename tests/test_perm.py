from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lexperm import perm
from lexperm.errors import (
    DegreeMismatch,
    FormatError,
    IndexOutOfRange,
    LexpermError,
    OrbitCapExceeded,
    OverlappingCycles,
    UnknownGenerator,
)
from lexperm.perm import (
    GeneratorSet,
    Permutation,
    StabilizerChain,
    apply_word,
    apply_word_to_string,
    compose,
    cycle_decomposition,
    enumerate_group,
    format_cycles,
    identity,
    inverse,
    membership,
    orbit_of_string,
    parse_cycles,
    permute_string,
    power,
    random_permutation,
)
from reference_impl import (
    dense_moved,
    reference_apply_word_to_string,
    reference_format_cycles,
)

perms = st.integers(1, 8).flatmap(
    lambda n: st.permutations(list(range(1, n + 1))).map(lambda img: Permutation(tuple(img)))
)


def test_compose_identity():
    p = parse_cycles("(1 2 3)", 4)
    assert compose(identity(4), p) == p
    assert compose(p, identity(4)) == p


def test_compose_involution_squares_to_identity():
    t = parse_cycles("(1 2)", 2)
    assert compose(t, t).is_identity()


def test_compose_three_cycle():
    c = parse_cycles("(1 2 3)", 3)
    assert compose(c, c) == parse_cycles("(1 3 2)", 3)


def test_compose_convention_p_after_q():
    # (p * q)(i) = p(q(i))
    p = parse_cycles("(1 2)", 3)
    q = parse_cycles("(2 3)", 3)
    assert compose(p, q)(3) == p(q(3)) == 1


def test_compose_degree_mismatch():
    with pytest.raises(DegreeMismatch):
        compose(identity(3), identity(4))


def test_inverse():
    assert inverse(identity(5)).is_identity()
    t = parse_cycles("(1 2)", 2)
    assert inverse(t) == t
    c = parse_cycles("(1 2 3)", 3)
    assert inverse(c) == parse_cycles("(1 3 2)", 3)
    assert compose(c, inverse(c)).is_identity()


def test_cycle_decomposition_canonical():
    p = Permutation((2, 5, 4, 3, 1, 6, 8, 7))
    assert cycle_decomposition(p) == ((1, 2, 5), (3, 4), (6,), (7, 8))


def test_cycle_decomposition_identity_fixed_points():
    assert cycle_decomposition(identity(3)) == ((1,), (2,), (3,))


def test_cycle_decomposition_follows_images():
    assert cycle_decomposition(parse_cycles("(1 3 2)", 3)) == ((1, 3, 2),)


def test_cycle_lengths_sum_to_degree():
    rng = Random(5)
    for _ in range(50):
        p = random_permutation(rng, rng.randint(1, 30))
        assert sum(len(c) for c in cycle_decomposition(p)) == p.degree


def test_parse_figure_permutation():
    p = parse_cycles("(1 2 5)(3 4)(7 8)", 8)
    assert p.image == (2, 5, 4, 3, 1, 6, 8, 7)


def test_parse_empty_is_identity():
    assert parse_cycles("", 4).is_identity()
    assert parse_cycles("()", 4).is_identity()


def test_parse_rotated_cycle():
    assert parse_cycles("(2 1)", 2) == parse_cycles("(1 2)", 2)


def test_parse_rejects_overlap_and_range():
    with pytest.raises(OverlappingCycles):
        parse_cycles("(1 2)(2 3)", 3)
    with pytest.raises(IndexOutOfRange):
        parse_cycles("(1 9)", 3)
    with pytest.raises(OverlappingCycles):
        parse_cycles("(1 2) junk", 3)


def test_format_round_trip_random():
    rng = Random(11)
    for _ in range(1000):
        n = rng.randint(1, 64)
        p = random_permutation(rng, n)
        assert parse_cycles(format_cycles(p), n) == p


@given(st.integers(1, 40).flatmap(lambda n: st.permutations(list(range(1, n + 1)))))
@settings(max_examples=300)
def test_cycle_text_round_trip_matches_validated_permutation(image):
    p = Permutation(tuple(image))
    parsed = parse_cycles(format_cycles(p), p.degree)
    assert parsed == p
    assert parsed == Permutation(parsed.image)
    cycles = [cyc for cyc in cycle_decomposition(p) if len(cyc) > 1]
    expected = "".join("(" + " ".join(map(str, cyc)) + ")" for cyc in cycles)
    assert format_cycles(p) == (expected or "()")


def test_generator_file_rejects_duplicate_names():
    with pytest.raises(FormatError):
        perm.parse_generator_file("a = (1 2)\nb = ()\na = (2 3)\n", 3)


def test_power_and_order():
    p = parse_cycles("(1 2 5)(3 4)(7 8)", 8)
    assert perm.perm_order(p) == 6
    assert power(p, 6).is_identity()
    assert power(p, 1) == p
    assert power(p, -1) == inverse(p)


@given(perms, st.data())
@settings(max_examples=100)
def test_action_is_associative_with_composition(p, data):
    q = Permutation(tuple(data.draw(st.permutations(list(range(1, p.degree + 1))))))
    x = "".join(data.draw(st.sampled_from("01")) for _ in range(p.degree))
    assert permute_string(x, compose(p, q)) == permute_string(permute_string(x, p), q)


def test_apply_word():
    p = parse_cycles("(1 2)", 3)
    q = parse_cycles("(2 3)", 3)
    gens = GeneratorSet.from_pairs(3, [("a", p), ("b", q)])
    assert apply_word(gens, []).is_identity()
    assert apply_word(gens, ["a", "a"]).is_identity()
    assert apply_word(gens, ["a", "b"]) == compose(p, q)
    with pytest.raises(UnknownGenerator):
        apply_word(gens, ["zzz"])


def test_generator_set_validation():
    with pytest.raises(ValueError):
        GeneratorSet(2, ("a", "a"), (identity(2), identity(2)))
    with pytest.raises(DegreeMismatch):
        GeneratorSet(2, ("a",), (identity(3),))


def test_generator_file_round_trip():
    gens = GeneratorSet.from_pairs(
        4, [("a", parse_cycles("(1 2)", 4)), ("b", parse_cycles("(3 4)", 4))]
    )
    text = perm.format_generator_file(gens)
    assert perm.parse_generator_file(text, 4) == gens


def test_membership_examples():
    c3 = parse_cycles("(1 2 3)", 3)
    gens = GeneratorSet.from_pairs(3, [("c", c3)])
    assert membership(gens, identity(3))
    assert membership(gens, parse_cycles("(1 3 2)", 3))
    assert not membership(gens, parse_cycles("(1 2)", 3))


def test_membership_agrees_with_closure():
    rng = Random(23)
    for _ in range(40):
        degree = rng.randint(2, 7)
        gens = GeneratorSet.from_pairs(
            degree,
            [(f"g{i}", random_permutation(rng, degree)) for i in range(rng.randint(1, 3))],
        )
        closure = enumerate_group(gens)
        chain = StabilizerChain.from_generators(gens)
        assert chain.order() == len(closure)
        for q in closure:
            assert chain.contains(q)
        for _ in range(10):
            q = random_permutation(rng, degree)
            assert chain.contains(q) == (q in closure)


def test_orbit_of_string():
    gens = GeneratorSet.from_pairs(2, [("t", parse_cycles("(1 2)", 2))])
    assert orbit_of_string(gens, "01") == {"01", "10"}
    assert orbit_of_string(gens, "11") == {"11"}
    with pytest.raises(OrbitCapExceeded):
        orbit_of_string(gens, "01", cap=1)


def test_permute_string_degree_check():
    with pytest.raises(DegreeMismatch):
        permute_string("01", identity(3))


@given(perms, st.data())
@settings(max_examples=300)
def test_moved_matches_dense_scan_of_every_constructor(p, data):
    q = Permutation(tuple(data.draw(st.permutations(list(range(1, p.degree + 1))))))
    k = data.draw(st.integers(-7, 7))
    built = [
        Permutation(p.image),
        compose(p, q),
        inverse(p),
        inverse(compose(q, p)),
        power(p, k),
        parse_cycles(format_cycles(p), p.degree),
        inverse(parse_cycles(format_cycles(q), q.degree)),
    ]
    for r in built:
        assert r.moved == dense_moved(r)
        # a second read returns the cached support unchanged
        assert r.moved == dense_moved(r)


@pytest.mark.parametrize(
    "text, degree, moved",
    [
        ("", 3, ()), ("()", 3, ()), ("(5)", 6, ()), ("(3)(1 2)", 4, (1, 2)),
        ("(4 1 3)", 5, (1, 3, 4)),
    ],
)
def test_parsed_cycles_hand_over_their_support(text, degree, moved):
    p = parse_cycles(text, degree)
    assert p.moved == moved == dense_moved(p)


def test_support_is_not_part_of_equality_hash_or_repr():
    fresh = Permutation((2, 1, 3))
    read = Permutation((2, 1, 3))
    assert read.moved == (1, 2)
    parsed = parse_cycles("(1 2)", 3)
    assert fresh == read == parsed
    assert len({fresh, read, parsed}) == 1
    assert repr(fresh) == repr(read) == "Permutation(image=(2, 1, 3))"


@given(perms)
@settings(max_examples=300)
def test_format_cycles_matches_dense_reference(p):
    assert format_cycles(p) == reference_format_cycles(p)
    assert format_cycles(parse_cycles(reference_format_cycles(p), p.degree)) == format_cycles(p)


@st.composite
def _generators_and_words(draw):
    degree = draw(st.integers(1, 10))
    images = draw(st.lists(st.permutations(list(range(1, degree + 1))), min_size=1, max_size=4))
    gens = GeneratorSet.from_pairs(
        degree, [(f"g{i}", Permutation(tuple(img))) for i, img in enumerate(images)]
    )
    x = draw(st.text("01", min_size=degree, max_size=degree))
    word = draw(st.lists(st.sampled_from(gens.names), max_size=12))
    return gens, x, word


@given(_generators_and_words())
@settings(max_examples=300)
def test_apply_word_to_string_matches_per_letter_fold(case):
    gens, x, word = case
    assert apply_word_to_string(gens, x, word) == reference_apply_word_to_string(gens, x, word)
    assert apply_word_to_string(gens, x, word) == permute_string(x, apply_word(gens, word))


def test_apply_word_to_string_errors():
    gens = GeneratorSet.from_pairs(3, [("a", parse_cycles("(1 2)", 3))])
    assert apply_word_to_string(gens, "01", []) == "01"
    with pytest.raises(DegreeMismatch):
        apply_word_to_string(gens, "01", ["a"])
    with pytest.raises(UnknownGenerator):
        apply_word_to_string(gens, "011", ["a", "zzz"])
    with pytest.raises(UnknownGenerator):
        apply_word_to_string(gens, "01", ["zzz", "a"])


_GENERATOR_FILE_LINES = st.lists(
    st.one_of(
        st.text(max_size=14),
        st.text(alphabet="ab=() ,#0123456789-", max_size=16),
        st.sampled_from(["a = (1 2)", "b = ()", "c = (1 2 3)", "a = (2 3)", "# x", "d =", ""]),
    ),
    max_size=6,
).map("\n".join)


@settings(max_examples=300)
@given(_GENERATOR_FILE_LINES, st.integers(0, 4))
@example("a = (" + "1" * 5000 + ")", 3)
@example("a = (1 \u00b2)", 3)
def test_parse_generator_file_fuzz_yields_generators_or_lexperm_error(text, degree):
    try:
        gens = perm.parse_generator_file(text, degree)
    except LexpermError:
        return
    assert isinstance(gens, GeneratorSet)
    assert perm.parse_generator_file(perm.format_generator_file(gens), degree) == gens
