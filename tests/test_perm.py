import pickle
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lexperm import perm
from lexperm.circuit import random_instance
from lexperm.errors import (
    DegreeMismatch,
    FormatError,
    IndexOutOfRange,
    LexpermError,
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
    format_cycles,
    identity,
    inverse,
    membership,
    parse_cycles,
    permute_string,
)
from lexperm.reduction import build_instance
from reference_impl import (
    DensePermutation,
    OrbitCapExceeded,
    cycle_decomposition,
    dense_compose,
    dense_inverse,
    dense_moved,
    dense_parse_cycles,
    dense_power,
    enumerate_group,
    orbit_of_string,
    perm_order,
    power,
    random_permutation,
    reference_apply_word,
    reference_apply_word_to_string,
    reference_format_cycles,
    reference_parse_cycles,
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


@st.composite
def sparse_perms(draw):
    """A permutation of degree at most 14 that moves a random subset of
    its points, so fixed points are common."""
    n = draw(st.integers(1, 14))
    points = draw(st.lists(st.integers(1, n), unique=True))
    image = list(range(1, n + 1))
    for i, v in zip(points, draw(st.permutations(points))):
        image[i - 1] = v
    return Permutation(tuple(image))


@settings(max_examples=200, deadline=None)
@given(sparse_perms(), st.data())
def test_support_cycles_are_the_moved_cycles_of_the_dense_walk(p, data):
    """The support walk the one-permutation routines use lists exactly the
    dense decomposition's cycles that move points, in the same order, as
    tuples, for a permutation from every constructor; the first call keeps
    them, and a second returns the same object."""
    q = Permutation(tuple(data.draw(st.permutations(list(range(1, p.degree + 1))))))
    k = data.draw(st.integers(-7, 7))
    gens = GeneratorSet.from_pairs(p.degree, [("p", p), ("q", q)])
    word = data.draw(st.lists(st.sampled_from(gens.names), max_size=6))
    built = [
        p,
        Permutation(p.image),
        parse_cycles(format_cycles(p), p.degree),
        compose(p, q),
        inverse(p),
        apply_word(gens, word),
        perm.power_from_cycles(p, k),
    ]
    for r in built:
        cycles = perm._cycles(r)
        assert cycles == tuple(c for c in cycle_decomposition(r) if len(c) > 1)
        assert perm._cycles(r) is cycles


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
    with pytest.raises(FormatError):
        parse_cycles("(1 2) junk", 3)


def test_parse_cycles_reports_a_malformed_point_before_an_earlier_fault():
    with pytest.raises(FormatError):
        parse_cycles("(1 5)(3 x)", 2)
    with pytest.raises(FormatError):
        parse_cycles("(1 2)(2 x)", 3)


@pytest.mark.parametrize(
    "text",
    ["(+1 2 3)", "(1_0 2)", "(1 2 \uff13)", "(\u0661 2)", "(1 \u00b2)", "(-1 2)", "(1 2)(1" + "0" * 5000 + ")"],
    ids=["plus", "underscore", "full-width", "arabic-indic", "superscript", "minus", "5001-digits"],
)
def test_parse_cycles_reads_plain_decimal_only(text):
    with pytest.raises(FormatError):
        parse_cycles(text, 12)


def test_parse_cycles_reads_leading_zeros_commas_and_any_spacing():
    assert parse_cycles(" (01,2)\t(3  4) ", 4) == parse_cycles("(1 2)(3 4)", 4)


def _parse_outcome(parse, text: str, degree: int):
    """The permutation a parser returns, or its error's class and message."""
    try:
        return parse(text, degree)
    except LexpermError as exc:
        return type(exc), str(exc)


@st.composite
def cycle_texts(draw, degree: int = 6) -> str:
    """Cycle notation that may hold overlaps, 0 and out-of-range points,
    a non-decimal token, one-point and empty cycles, commas, leading zeros
    and text outside the cycles."""
    number = st.sampled_from([*range(1, degree + 1)] * 4 + [0, degree + 1, degree + 2])
    point = st.builds("{}{}".format, st.sampled_from(["", "", "", "0", "00"]), number)
    sep = st.sampled_from([" ", "  ", ",", ", ", "\t", " ,"])
    cycles = draw(st.lists(st.lists(point, max_size=5), max_size=5))
    if cycles and draw(st.sampled_from([False] * 4 + [True])):  # a non-decimal token
        tokens = draw(st.sampled_from(cycles))
        bad = draw(st.sampled_from(["x", "+1", "-2", "1_0", "\uff13", "\u00b2", "9" * 5000]))
        tokens.insert(draw(st.integers(0, len(tokens))), bad)
    parts = [draw(st.sampled_from(["", " "]))]
    for tokens in cycles:
        body = "".join(t + draw(sep) for t in tokens).rstrip(" ,\t")
        parts += ["(" + draw(st.sampled_from(["", " "])) + body + ")", draw(st.sampled_from(["", " ", "\t"]))]
    if draw(st.sampled_from([False] * 5 + [True])):  # text outside the cycles
        junk = draw(st.sampled_from([",", "junk", "(", ")", "1"]))
        parts.insert(draw(st.integers(0, len(parts))), junk)
    return "".join(parts)


@given(cycle_texts())
@settings(max_examples=500, deadline=None)
@example("(1 2)(2 3)(x)")  # a bad token after an earlier overlap
@example("(1 9)(2 x)")  # a bad token after an earlier range fault
@example("(1 2)(3 4)(4)")  # an overlap through a one-point cycle
@example("(0)")
@example("()(1,02)( )")
def test_parse_cycles_matches_the_ordered_reader(text):
    assert _parse_outcome(parse_cycles, text, 6) == _parse_outcome(reference_parse_cycles, text, 6)


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
    with pytest.raises(FormatError, match="^line 9: generator 'a' is defined twice$"):
        perm.parse_generator_lines([(3, "a = (1 2)"), (5, "b = ()"), (9, "a = (2 3)")], 3)


@pytest.mark.parametrize("line", [" = (1 2)", "a b = (1 2)", "a\tb = ()"])
def test_generator_file_rejects_names_no_word_can_spell(line):
    with pytest.raises(FormatError, match="^line 7: generator name .* is empty or holds whitespace"):
        perm.parse_generator_lines([(1, "x = ()"), (7, line)], 3)


@pytest.mark.parametrize(
    "cycles, error",
    [("(1 4)", IndexOutOfRange), ("(1 2)(2 3)", OverlappingCycles), ("(1 x)", FormatError), ("(1 2) junk", FormatError)],
)
def test_generator_lines_name_the_line_of_a_cycle_fault(cycles, error):
    with pytest.raises(error, match="^line 12: "):
        perm.parse_generator_lines([(10, "x = ()"), (12, f"y = {cycles}")], 3)


def test_power_and_order():
    p = parse_cycles("(1 2 5)(3 4)(7 8)", 8)
    assert perm_order(p) == 6
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
    lines = perm.generator_lines(gens)
    assert lines == ["a = (1 2)", "b = (3 4)"]
    assert perm.parse_generator_lines(enumerate(lines, start=1), 4) == gens


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


def _images(n: int):
    """Images of degree n: any permutation, the identity, or an n-cycle,
    which moves every point once n > 1."""
    cycle = tuple(range(2, n + 1)) + (1,) if n else ()
    return st.one_of(
        st.permutations(list(range(1, n + 1))).map(tuple),
        st.just(tuple(range(1, n + 1))),
        st.just(cycle),
    )


def _assert_sparse_form(p: Permutation) -> None:
    """``moved`` ascends, holds only moved points, and ``moved_to`` is a
    rearrangement of it; with every point moved, image is moved_to."""
    assert list(p.moved) == sorted(set(p.moved))
    assert sorted(p.moved_to) == list(p.moved)
    assert all(a != b for a, b in zip(p.moved, p.moved_to))
    if len(p.moved) == p.degree:
        assert p.image is p.moved_to


@given(st.integers(0, 9).flatmap(lambda n: st.tuples(_images(n), _images(n))), st.integers(-9, 9))
@settings(max_examples=300)
@example(((), ()), 3)
@example(((2, 3, 1), (1, 2, 3)), -1)
def test_sparse_permutation_matches_dense_reference(images, k):
    a_img, b_img = images
    a, b = Permutation(a_img), Permutation(b_img)
    da, db = DensePermutation(a_img), DensePermutation(b_img)
    n = len(a_img)
    results = [
        (a, da),
        (b, db),
        (compose(a, b), dense_compose(da, db)),
        (compose(b, a), dense_compose(db, da)),
        (inverse(a), dense_inverse(da)),
        (power(a, k), dense_power(da, k)),
        (parse_cycles(format_cycles(b), n), dense_parse_cycles(reference_format_cycles(db), n)),
    ]
    for sparse, dense in results:
        _assert_sparse_form(sparse)
        assert sparse.degree == dense.degree
        assert sparse.image == dense.image
        assert sparse.moved == dense_moved(dense)
        assert [sparse(i) for i in range(1, n + 1)] == [dense(i) for i in range(1, n + 1)]
        assert format_cycles(sparse) == reference_format_cycles(dense)
        assert repr(sparse) == f"Permutation(image={dense.image!r})"
        assert sparse == Permutation(dense.image)
        assert hash(sparse) == hash(Permutation(dense.image))
    assert (a == b) == (da == db)
    assert a.is_identity() == (a_img == tuple(range(1, n + 1)))


def test_permutation_is_immutable_and_pickles():
    p = parse_cycles("(1 2)", 3)
    with pytest.raises(AttributeError):
        p.moved = (1,)
    with pytest.raises(AttributeError):
        del p.degree
    assert p == parse_cycles("(2 1)", 3)
    assert pickle.loads(pickle.dumps(p)) == p
    kept = perm._cycles(p)
    with pytest.raises(AttributeError):
        p._kept_cycles = ((1, 2, 3),)
    assert perm._cycles(p) is kept == ((1, 2),)
    unpickled = pickle.loads(pickle.dumps(p))
    assert unpickled == p and unpickled._kept_cycles is None
    assert perm._cycles(unpickled) == kept and perm._cycles(unpickled) is not kept


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
    hashes, reprs = [hash(fresh), hash(parsed)], [repr(fresh), repr(parsed)]
    perm._cycles(parsed)  # parsed keeps its cycles, fresh does not
    assert parsed._kept_cycles is not None and fresh._kept_cycles is None
    assert fresh == read == parsed
    assert len({fresh, read, parsed}) == 1
    assert [hash(fresh), hash(parsed)] == hashes and [repr(fresh), repr(parsed)] == reprs
    assert repr(fresh) == repr(read) == repr(parsed) == "Permutation(image=(2, 1, 3))"


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


def test_apply_word_equals_a_left_fold_of_compose():
    rng = Random(2100)
    sets = []
    for _ in range(40):
        degree = rng.randint(1, 40)
        pairs = []
        for i in range(rng.randint(1, 5)):
            # dense random permutations and sparse ones of a few points
            if rng.random() < 0.5:
                g = random_permutation(rng, degree)
            else:
                points = rng.sample(range(1, degree + 1), rng.randint(1, min(degree, 4)))
                g = parse_cycles(f"({' '.join(map(str, points))})", degree)
            pairs.append((f"g{i}", g))
        sets.append(GeneratorSet.from_pairs(degree, pairs))
    sets.append(build_instance(random_instance(Random(1), 4, 8, 3)).gens)  # ladder rung (4,8,3)
    for gens in sets:
        for length in (0, 1, rng.randint(2, 300)):
            word = [rng.choice(gens.names) for _ in range(length)]
            p, fold = apply_word(gens, word), reference_apply_word(gens, word)
            assert p == fold and p.image == fold.image


def test_apply_word_to_string_errors():
    gens = GeneratorSet.from_pairs(3, [("a", parse_cycles("(1 2)", 3))])
    assert apply_word_to_string(gens, "01", []) == "01"
    with pytest.raises(DegreeMismatch):
        apply_word_to_string(gens, "01", ["a"])
    with pytest.raises(UnknownGenerator):
        apply_word_to_string(gens, "011", ["a", "zzz"])
    with pytest.raises(UnknownGenerator):
        apply_word_to_string(gens, "01", ["zzz", "a"])


_GENERATOR_LINES = st.lists(
    st.one_of(
        st.text(max_size=14),
        st.text(alphabet="ab=() ,#0123456789-", max_size=16),
        st.sampled_from(["a = (1 2)", "b = ()", "c = (1 2 3)", "a = (2 3)", "# x", "d =", ""]),
    ),
    max_size=6,
)


@settings(max_examples=300)
@given(_GENERATOR_LINES, st.integers(0, 4))
@example(["a = (" + "1" * 5000 + ")"], 3)
@example(["a = (1 \u00b2)"], 3)
def test_parse_generator_lines_fuzz_yields_generators_or_lexperm_error(lines, degree):
    try:
        gens = perm.parse_generator_lines(enumerate(lines, start=1), degree)
    except LexpermError as exc:
        assert str(exc).startswith("line ")
        return
    assert isinstance(gens, GeneratorSet)
    assert perm.parse_generator_lines(enumerate(perm.generator_lines(gens)), degree) == gens
