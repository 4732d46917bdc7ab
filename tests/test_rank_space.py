"""The rank-space walk, ``is_local_min``, the clause-index
``check_symmetry`` and the literal-set ``satisfies`` against the
whole-string and whole-formula reference implementations."""

from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lexperm import circuit, cnf, reduction
from lexperm.bitlex import PriorityOrder
from lexperm.errors import LengthMismatch
from lexperm.perm import GeneratorSet, Permutation, apply_word, compose, parse_cycles
from lexperm.search import is_local_min, standard_algorithm

from acceptance import _random_circuit
from reference_impl import (
    perm_order,
    power,
    reference_apply_word_to_string,
    reference_check_symmetry,
    reference_is_local_min,
    reference_satisfies,
    reference_walk,
)


def assert_same_walk(res, ref):
    assert res.word == ref.word
    assert res.permutation == ref.permutation
    assert res.string == ref.string
    assert res.steps == ref.steps
    assert res.status == ref.status
    assert res.trace == ref.trace


def check_walk(bits, order, gens, **kw):
    res = standard_algorithm(bits, order, gens, **kw)
    assert res.gens is gens
    assert_same_walk(res, reference_walk(bits, order, gens, **kw))
    assert is_local_min(bits, order, gens, res.permutation) == reference_is_local_min(
        bits, order, gens, res.permutation
    )
    return res


def check_symmetries(f, rng, sample=None, extra=3):
    """Every generator (or a sample of them), products of generator pairs,
    and random transpositions and 3-cycles of variables."""
    perms = list(f.symmetries.perms)
    if sample is not None:
        perms = rng.sample(perms, sample)
    for _ in range(extra):
        perms.append(compose(rng.choice(f.symmetries.perms), rng.choice(f.symmetries.perms)))
        a, b, c = rng.sample(range(1, f.num_vars + 1), 3)
        perms.append(parse_cycles(f"({a} {b})", f.num_vars))
        perms.append(parse_cycles(f"({a} {b} {c})", f.num_vars))
    for p in perms:
        assert cnf.check_symmetry(f, p) == reference_check_symmetry(f, p)


def test_check_symmetry_counts_duplicate_clauses():
    # (2 3) maps the clause set onto itself but swaps the multiplicities
    f = cnf.CnfFormula(3, ((1, 2), (2, 1), (1, 3)), ("a", "b", "c"), GeneratorSet(3, (), ()))
    for cycles, expected in (("(2 3)", False), ("(1 2)", False), ("", True)):
        p = parse_cycles(cycles, 3)
        assert cnf.check_symmetry(f, p) == reference_check_symmetry(f, p) == expected


def _formula(num_vars: int, clauses) -> cnf.CnfFormula:
    return cnf.CnfFormula(
        num_vars, tuple(map(tuple, clauses)), tuple(f"v{v}" for v in range(1, num_vars + 1)),
        GeneratorSet(num_vars, (), ()),
    )


@pytest.mark.parametrize(
    "num_vars, clauses, cycles, expected",
    [
        # the image (1 3) is absent, and the clause touches only 2, the
        # larger point of the 2-cycle
        (3, [(2, 3)], "(1 2)", False),
        # (1 2) and (-4 -3) are fixed, (1 3) and (2 4) swap, (5 6) is untouched
        (6, [(1, 2), (-4, -3), (1, 3), (2, 4), (5, 6)], "(1 2)(3 4)", True),
        # the same, with the swapped pair's counts 2 and 1
        (6, [(1, 2), (-4, -3), (1, 3), (2, 4), (3, 1), (5, 6)], "(1 2)(3 4)", False),
        # one orbit of three clauses under a 3-cycle, then the orbit cut short
        (4, [(1, -2), (2, -3), (-1, 3), (4,)], "(1 2 3)", True),
        (4, [(1, -2), (2, -3), (4,)], "(1 2 3)", False),
    ],
    ids=["absent-image-of-the-larger-point", "fixed-and-swapped", "swapped-counts-differ",
         "3-cycle-orbit", "3-cycle-orbit-cut"],
)
def test_check_symmetry_pairs_involution_images_and_follows_longer_orbits(num_vars, clauses, cycles, expected):
    f, p = _formula(num_vars, clauses), parse_cycles(cycles, num_vars)
    assert cnf.check_symmetry(f, p) == reference_check_symmetry(f, p) == expected


@st.composite
def _formula_and_perm(draw):
    """A small formula, a permutation of its variables and an assignment.
    Clauses may repeat, repeat a literal, be tautologies or be empty; half
    the time the formula is closed under the permutation (every clause
    joined by its images under each power), so both verdicts occur and an
    image clause is often absent from an unclosed formula."""
    n = draw(st.integers(1, 6))
    literal = st.builds(lambda v, sign: v * sign, st.integers(1, n), st.sampled_from((1, -1)))
    clauses = draw(st.lists(st.lists(literal, max_size=4), max_size=8))
    if clauses and draw(st.booleans()):
        clauses.append(draw(st.sampled_from(clauses)))
    p = Permutation(tuple(draw(st.permutations(range(1, n + 1)))))
    if draw(st.booleans()):
        images = []
        for k in range(perm_order(p)):
            q = power(p, k)
            images += [[(1 if l > 0 else -1) * q.image[abs(l) - 1] for l in clause] for clause in clauses]
        clauses = images
    bits = "".join(draw(st.lists(st.sampled_from("01"), min_size=n, max_size=n)))
    return _formula(n, clauses), p, bits


@settings(max_examples=400, deadline=None)
@given(_formula_and_perm())
@example((_formula(3, [(1, 2), (1, 2), (1, 1, -3), (2, -2), ()]), parse_cycles("(1 3)", 3), "010"))
@example((_formula(3, [(1, 2), (2, 3), (2, 3)]), parse_cycles("(1 3)", 3), "000"))
@example((_formula(4, [(1, -1), (2, 2, 3), (3, 3, 2)]), parse_cycles("(2 3)", 4), "0110"))
def test_check_symmetry_and_satisfies_agree_with_reference(case):
    f, p, bits = case
    assert cnf.check_symmetry(f, p) == reference_check_symmetry(f, p)
    assert cnf.satisfies(f, bits) == reference_satisfies(f, bits)


def test_satisfies_rejects_a_wrong_length_like_the_reference():
    f = _formula(3, [(1, -2)])
    for check in (cnf.satisfies, reference_satisfies):
        with pytest.raises(LengthMismatch):
            check(f, "01")


def test_acceptance_07_corpus():
    rng = Random(707)
    for _ in range(100):
        inst = reduction.build_instance(_random_circuit(rng))
        check_walk(inst.y_start, inst.order, inst.gens, max_steps=10**5)


def test_acceptance_10_corpus():
    rng = Random(1010)
    for trial in range(8):
        c = _random_circuit(rng) if trial else circuit.random_instance(rng, 4, 8, 3)
        check_symmetries(cnf.build_formula(c), Random(trial))
    for _ in range(50):
        f = cnf.build_formula(_random_circuit(rng, max_inputs=3, max_gates=6, max_outputs=2))
        res = cnf.local_min_solution(f, max_steps=10**5)
        assert_same_walk(res, reference_walk(f.initial, f.priority, f.symmetries, max_steps=10**5))


def test_ladder_rung_4_8_3():
    rng = Random(4083)
    for _ in range(30):
        c = circuit.random_instance(rng, 4, 8, 3)
        inst = reduction.build_instance(c)
        check_walk(inst.y_start, inst.order, inst.gens)
        f = cnf.build_formula(c)
        assert_same_walk(
            cnf.local_min_solution(f), reference_walk(f.initial, f.priority, f.symmetries)
        )
        check_symmetries(f, rng, sample=8)


def assert_trace_follows_word(res, bits, gens, start=()):
    """trace[k] is bits acted on by the start word and the first k steps."""
    assert res.trace == tuple(
        reference_apply_word_to_string(gens, bits, res.word[: len(start) + k])
        for k in range(res.steps + 1)
    )
    assert res.trace[-1] == res.string


def test_walk_trace_is_the_start_acted_on_by_each_prefix_of_the_word():
    rng = Random(61)
    for _ in range(15):
        inst = reduction.build_instance(_random_circuit(rng))
        res = standard_algorithm(inst.y_start, inst.order, inst.gens)
        assert res.steps > 0
        assert_trace_follows_word(res, inst.y_start, inst.gens)
        start = [rng.choice(inst.gens.names) for _ in range(3)]
        res = standard_algorithm(inst.y_start, inst.order, inst.gens, start=start)
        assert_trace_follows_word(res, inst.y_start, inst.gens, start)
    for _ in range(10):
        f = cnf.build_formula(_random_circuit(rng, max_inputs=3, max_gates=6, max_outputs=2))
        res = cnf.local_min_solution(f)
        assert_trace_follows_word(res, f.initial, f.symmetries)


def test_mid_walk_start_words_and_step_caps():
    rng = Random(17)
    inst = reduction.build_instance(circuit.random_instance(rng, 3, 6, 2))
    for _ in range(20):
        start = tuple(rng.choice(inst.gens.names) for _ in range(rng.randint(0, 6)))
        check_walk(inst.y_start, inst.order, inst.gens, start=start, max_steps=rng.randint(0, 30))
        current = apply_word(inst.gens, start)
        assert is_local_min(inst.y_start, inst.order, inst.gens, current) == (
            reference_is_local_min(inst.y_start, inst.order, inst.gens, current)
        )


def test_equal_decisive_rank_is_settled_later():
    # both generators put 0 on position 1; only the second also lowers
    # position 3, so it wins although it comes later
    gens = GeneratorSet.from_pairs(
        4, [("a", parse_cycles("(1 2)", 4)), ("b", parse_cycles("(1 2)(3 4)", 4))]
    )
    res = check_walk("1010", None, gens)
    assert res.word[0] == "b"
    # under this order position 4 outranks position 3, so the same
    # second swap makes "b" worse and the earlier "a" wins
    order = PriorityOrder((1, 2, 4, 3))
    assert check_walk("1010", order, gens).word[0] == "a"


def test_full_tie_takes_the_lower_index():
    p = parse_cycles("(1 3 2)(4 5)", 5)
    gens = GeneratorSet.from_pairs(5, [("late", parse_cycles("(2 5)", 5)), ("x", p), ("y", p)])
    res = check_walk("11010", None, gens)
    assert res.word[0] == "x"
    assert "y" not in res.word


def _instances(max_degree: int = 9):
    """(bits, order, generators): random permutations, non-involutions
    included, plus a duplicate under another name and a pair that shares
    its first transposition and differs after it."""

    @st.composite
    def build(draw):
        n = draw(st.integers(2, max_degree))
        bits = "".join(draw(st.lists(st.sampled_from("01"), min_size=n, max_size=n)))
        order = draw(st.none() | st.permutations(range(1, n + 1)).map(lambda r: PriorityOrder(tuple(r))))
        perms = draw(st.lists(st.permutations(range(1, n + 1)), min_size=1, max_size=4))
        gens = [Permutation(tuple(p)) for p in perms]
        if n >= 4 and draw(st.booleans()):
            a, b, c, d = draw(st.permutations(range(1, n + 1)))[:4]
            gens.append(parse_cycles(f"({a} {b})", n))
            gens.append(parse_cycles(f"({a} {b})({c} {d})", n))
        if draw(st.booleans()):
            gens.append(gens[draw(st.integers(0, len(gens) - 1))])
        gens = draw(st.permutations(gens))
        return bits, order, GeneratorSet.from_pairs(n, [(f"g{i}", g) for i, g in enumerate(gens)])

    return build()


@given(_instances())
@settings(max_examples=300, deadline=None)
def test_walk_matches_reference_on_random_generators(case):
    bits, order, gens = case
    check_walk(bits, order, gens, max_steps=200)


@given(_instances(), st.lists(st.integers(0, 5), max_size=4))
@settings(max_examples=300, deadline=None)
def test_is_local_min_matches_reference(case, letters):
    bits, order, gens = case
    current = apply_word(gens, [gens.names[i % len(gens)] for i in letters])
    assert is_local_min(bits, order, gens, current) == reference_is_local_min(
        bits, order, gens, current
    )


def assert_untraced_walk_matches(bits, order, gens, **kw):
    res = standard_algorithm(bits, order, gens, **kw)
    bare = standard_algorithm(bits, order, gens, keep_trace=False, **kw)
    assert (bare.word, bare.permutation, bare.string, bare.steps, bare.status) == (
        res.word, res.permutation, res.string, res.steps, res.status
    )
    assert bare.trace == (res.string,)
    return res


@given(_instances(), st.booleans())
@settings(max_examples=200, deadline=None)
def test_walk_without_trace_matches_the_traced_walk(case, with_identity):
    bits, order, gens = case
    if with_identity:  # an empty support at the lowest index, which the walk must never pick
        gens = GeneratorSet.from_pairs(
            gens.degree, [("id", Permutation(tuple(range(1, gens.degree + 1)))), *gens]
        )
    res = assert_untraced_walk_matches(bits, order, gens, max_steps=200)
    assert "id" not in res.word


def test_walk_without_trace_at_rung_4_8_3():
    rng = Random(4083)
    for _ in range(10):
        c = circuit.random_instance(rng, 4, 8, 3)
        inst = reduction.build_instance(c)
        assert_untraced_walk_matches(inst.y_start, inst.order, inst.gens)
        f = cnf.build_formula(c)
        assert_untraced_walk_matches(f.initial, f.priority, f.symmetries)
