import itertools
from math import lcm
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lexperm import bitlex, dcr, search
from lexperm.errors import DegreeMismatch, FormatError, LengthMismatch, OrderCapExceeded
from lexperm.one_perm import local_min_one_perm, orbit_min_one_perm
from lexperm.perm import (
    GeneratorSet,
    Permutation,
    parse_cycles,
    permute_string,
)

from reference_impl import (
    DensePermutation,
    cycle_decomposition,
    dense_power,
    perm_order,
    power,
    random_dcr_instance,
    random_permutation,
    reference_is_local_min,
    reference_local_min_one_perm,
    reference_orbit_min,
)


def _gens(p):
    return GeneratorSet(p.degree, ("p",), (p,))


def test_figure_instance():
    p = parse_cycles("(1 2 5)(3 4)(7 8)", 8)
    res = local_min_one_perm("00100001", p)
    assert res.exponent == 1
    assert res.cycle_id == 3
    assert res.witness == p
    assert search.is_local_min("00100001", None, _gens(p), res.witness)


def test_constant_string_needs_no_steps():
    p = parse_cycles("(1 2 3)", 3)
    res = local_min_one_perm("111", p)
    assert res.exponent == 0
    assert res.cycle_id is None
    assert res.witness.is_identity()


def test_two_cycle():
    p = parse_cycles("(1 2)", 2)
    res = local_min_one_perm("10", p)
    assert res.exponent == 1
    assert permute_string("10", res.witness) == "01"


def test_witness_is_at_descent_boundary():
    # the guarantee: the witness string is no worse than its single neighbor
    rng = Random(17)
    for _ in range(300):
        n = rng.randint(2, 14)
        bits = "".join(rng.choice("01") for _ in range(n))
        p = random_permutation(rng, n)
        res = local_min_one_perm(bits, p)
        here = permute_string(bits, res.witness)
        assert here <= permute_string(here, p)
        assert search.is_local_min(bits, None, _gens(p), res.witness)


def test_distinct_local_minima_can_coexist():
    # 001 under the 3-cycle: the identity is already locally minimal, yet
    # the cycle-walk answer is the (worse) power 1; both are valid optima.
    p = parse_cycles("(1 2 3)", 3)
    res = local_min_one_perm("001", p)
    assert res.exponent == 1
    assert permute_string("001", res.witness) == "010"
    assert search.is_local_min("001", None, _gens(p), res.witness)
    assert search.is_local_min("001", None, _gens(p), parse_cycles("", 3))


def test_prefix_before_decisive_cycle_is_orbit_constant():
    rng = Random(29)
    for _ in range(200):
        n = rng.randint(2, 12)
        bits = "".join(rng.choice("01") for _ in range(n))
        p = random_permutation(rng, n)
        res = local_min_one_perm(bits, p)
        limit = n if res.cycle_id is None else res.cycle_id - 1
        s = bits
        for _ in range(perm_order(p)):
            s = permute_string(s, p)
            assert s[:limit] == bits[:limit]


@settings(max_examples=300)
@given(st.integers(1, 12).flatmap(lambda n: st.tuples(
    st.text(alphabet="01", min_size=n, max_size=n),
    st.permutations(range(1, n + 1)),
    st.permutations(range(1, n + 1)),
)))
def test_local_min_under_an_order_is_a_local_min(case):
    bits, image, rank = case
    p, order = Permutation(image), bitlex.PriorityOrder(tuple(rank))
    res = local_min_one_perm(bits, p, order=order)
    assert res.witness == power(p, res.exponent)
    assert reference_is_local_min(bits, order, _gens(p), res.witness)
    if res.cycle_id is not None:
        # the decisive cycle's most significant member
        cycle = next(c for c in cycle_decomposition(p) if res.cycle_id in c)
        assert min(map(rank.index, cycle)) == rank.index(res.cycle_id)
        assert len({bits[i - 1] for i in cycle}) == 2


@settings(max_examples=100)
@given(st.integers(1, 12).flatmap(lambda n: st.tuples(
    st.text(alphabet="01", min_size=n, max_size=n), st.permutations(range(1, n + 1))
)))
def test_local_min_under_the_identity_order_is_the_unordered_one(case):
    bits, image = case
    p = Permutation(image)
    assert local_min_one_perm(bits, p, order=bitlex.identity_order(len(bits))) == local_min_one_perm(bits, p)


def _draw_permutation(draw, n: int) -> Permutation:
    """A random permutation of degree n, or one that moves only a drawn
    set of points and fixes the rest."""
    image = list(range(1, n + 1))
    if draw(st.booleans()):
        moved = draw(st.lists(st.integers(0, n - 1), max_size=n, unique=True))
    else:
        moved = list(range(n))
    for i, v in zip(moved, draw(st.permutations([image[i] for i in moved]))):
        image[i] = v
    return Permutation(tuple(image))


@st.composite
def local_min_cases(draw):
    """(bits, p, order): a permutation of degree at most 40, with fixed
    points or without; a string that is constant on some of its cycles,
    0s or 1s; and no order, the identity order or a random one."""
    n = draw(st.integers(1, 40))
    p = _draw_permutation(draw, n)
    bits = draw(st.lists(st.sampled_from("01"), min_size=n, max_size=n))
    for cyc in cycle_decomposition(p):
        fill = draw(st.sampled_from(["", "0", "1"]))
        if fill:
            for i in cyc:
                bits[i - 1] = fill
    kind = draw(st.sampled_from(["none", "identity", "random"]))
    if kind == "none":
        order = None
    elif kind == "identity":
        order = bitlex.identity_order(n)
    else:
        order = bitlex.PriorityOrder(tuple(draw(st.permutations(range(1, n + 1)))))
    return "".join(bits), p, order


@settings(max_examples=400, deadline=None)
@given(local_min_cases())
@example(("00100001", parse_cycles("(1 2 5)(3 4)(7 8)", 8), None))
@example(("0010", parse_cycles("(1 2)(3 4)", 4), bitlex.PriorityOrder((3, 4, 1, 2))))
# the constant cycle (1 2) ranked first, then 5: the walk starts at 5,
# which is not the smallest point of (4 5), on a cycle that does not come
# first among the interesting ones by smallest point
@example(("1100110", parse_cycles("(1 2)(3 6 7)(4 5)", 7), bitlex.PriorityOrder((1, 5, 7, 2, 3, 6, 4))))
def test_local_min_agrees_with_the_relabelling_walk(case):
    bits, p, order = case
    assert local_min_one_perm(bits, p, order=order) == reference_local_min_one_perm(bits, p, order=order)


def test_local_min_order_must_match_the_degree():
    with pytest.raises(LengthMismatch):
        local_min_one_perm("010", parse_cycles("(1 2 3)", 3), order=bitlex.identity_order(2))


def test_degree_mismatch():
    with pytest.raises(DegreeMismatch):
        local_min_one_perm("01", parse_cycles("(1 2 3)", 3))


def test_orbit_min_constant():
    p = parse_cycles("(1 2 3)", 3)
    assert orbit_min_one_perm("000", p) == (0, "000")


def test_orbit_min_figure_instance_dominates_orbit():
    p = parse_cycles("(1 2 5)(3 4)(7 8)", 8)
    x = "00100001"
    t, best = orbit_min_one_perm(x, p)
    s = x
    for _ in range(perm_order(p)):
        assert best <= s
        s = permute_string(s, p)
    assert best == permute_string(x, power(p, t))


def test_orbit_min_is_exhaustive_minimum():
    rng = Random(31)
    for _ in range(200):
        n = rng.randint(1, 10)
        bits = "".join(rng.choice("01") for _ in range(n))
        p = random_permutation(rng, n)
        t, best = orbit_min_one_perm(bits, p)
        orbit = []
        s = bits
        for _ in range(perm_order(p)):
            orbit.append(s)
            s = permute_string(s, p)
        assert best == min(orbit)
        assert orbit.index(best) == t


def test_orbit_min_cap():
    p = parse_cycles("(1 2 3 4 5 6 7)", 7)
    with pytest.raises(OrderCapExceeded):
        orbit_min_one_perm("1010101", p, cap=3)


def test_orbit_min_rejects_bad_arguments():
    p = parse_cycles("(1 2 3)", 3)
    with pytest.raises(DegreeMismatch):
        orbit_min_one_perm("01", p)
    with pytest.raises(FormatError):
        orbit_min_one_perm("0a1", p, order=bitlex.PriorityOrder((3, 2, 1)))
    with pytest.raises(FormatError):
        orbit_min_one_perm("0a1", p)
    with pytest.raises(LengthMismatch):
        orbit_min_one_perm("010", p, order=bitlex.PriorityOrder((2, 1)))


def test_orbit_min_single_residue_can_still_split():
    # after position 1 the only candidate is t = 0 mod 2, but modulo the
    # order 6 that is t in {0, 2, 4}, and position 3 prefers t = 2
    p = parse_cycles("(1 2)(3 4 5)", 5)
    assert orbit_min_one_perm("01110", p) == (2, "01011")
    assert reference_orbit_min("01110", p) == (2, "01011")


def test_orbit_min_residue_run_leaves_candidates_a_later_cycle_splits():
    # position 1 keeps t = 0 (mod 3); the run 4 5 6 7 of the 4-cycle is
    # long enough to be narrowed in residues modulo 4 and leaves t in
    # {0, 6} (mod 12); position 8 of the 5-cycle then drops t = 0, and the
    # rest of the 5-cycle, one position at a time, keeps t in {6, 36}
    p = parse_cycles("(1 2 3)(4 5 6 7)(8 9 10 11 12)", 12)
    order = bitlex.PriorityOrder((1, 4, 5, 6, 7, 8, 2, 3, 9, 10, 11, 12))
    expected = (6, "011010100001")
    assert orbit_min_one_perm("011010110000", p, order=order) == expected
    assert reference_orbit_min("011010110000", p, order=order) == expected


def _cycles_image(cycles: list[list[int]], n: int) -> tuple[int, ...]:
    image = list(range(1, n + 1))
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            image[a - 1] = b
    return tuple(image)


@st.composite
def ranked_runs(draw):
    """(bits, p, order): a permutation of degree at most 40 and order at
    most 5,000, and an order that ranks the points of one cycle at a time,
    a run of any length or a single position, so that one scan narrows
    some runs in residues and steps through others, and lifts its modulus
    between them."""
    lengths: list[int] = []
    for length in draw(st.lists(st.integers(1, 16), min_size=1, max_size=10)):
        if sum(lengths) + length <= 40 and lcm(*lengths, length) <= 5000:
            lengths.append(length)
    n = sum(lengths)
    points = draw(st.permutations(range(1, n + 1)))
    cycles = [points[sum(lengths[:c]) : sum(lengths[: c + 1])] for c in range(len(lengths))]
    p = Permutation(_cycles_image(cycles, n))
    left = [list(draw(st.permutations(cyc))) for cyc in cycles]
    rank: list[int] = []
    while any(left):
        c = draw(st.sampled_from([c for c, rest in enumerate(left) if rest]))
        size = draw(st.one_of(st.just(1), st.just(len(left[c])), st.integers(1, len(left[c]))))
        rank += left[c][:size]
        del left[c][:size]
    if draw(st.booleans()):
        bits = "".join(draw(st.lists(st.sampled_from("01"), min_size=n, max_size=n)))
    else:
        bits = _one_one_per_cycle(p, draw(st.lists(st.integers(0, 15), min_size=n, max_size=n)))
    return bits, p, bitlex.PriorityOrder(tuple(rank))


# cycles of 7, 8, 9 and 5 points: one position of the 7-cycle, the whole
# 8-cycle as one run modulo 56, one position of the 9-cycle (a lift to
# 504), one more of the 7-cycle, the other 8 points of the 9-cycle as one
# run, then the 5-cycle (a lift to 2520) and the 7-cycle position by
# position
_RUNS_CYCLES = [list(range(1, 8)), list(range(8, 16)), list(range(16, 25)), list(range(25, 30))]


@settings(max_examples=100, deadline=None)
@given(ranked_runs())
@example((
    "1000000" + "01101001" + "100100100" + "10000",
    Permutation(_cycles_image(_RUNS_CYCLES, 29)),
    bitlex.PriorityOrder((1, *range(8, 17), 2, *range(17, 30), *range(3, 8))),
))
# position 1 keeps t = 0 (mod 9); the run 10 11 of the 2-cycle is short
# (2 <= bit_length(18 // 2)) and lifts to t in {0, 9} (mod 18, the order),
# and position 10 settles t = 9 with position 11 of the run still to come
@example((
    "011111111" + "10",
    Permutation(_cycles_image([list(range(1, 10)), [10, 11]], 11)),
    bitlex.PriorityOrder((1, 10, 11, *range(2, 10))),
))
def test_orbit_min_agrees_with_reference_on_ranked_runs(case):
    bits, p, order = case
    assert orbit_min_one_perm(bits, p, order=order) == reference_orbit_min(bits, p, order=order)


def _one_one_per_cycle(p: Permutation, pick: list[int]) -> str:
    bits = ["0"] * p.degree
    for cyc, k in zip(cycle_decomposition(p), pick):
        bits[cyc[k % len(cyc)] - 1] = "1"
    return "".join(bits)


@st.composite
def orbit_cases(draw):
    """(bits, p, order): a random or fixed-point-heavy permutation of degree
    at most 14; a random, constant or one-1-per-cycle string; and no order
    or a random one."""
    n = draw(st.integers(1, 14))
    p = _draw_permutation(draw, n)
    kind = draw(st.sampled_from(["random", "constant", "one per cycle"]))
    if kind == "random":
        bits = "".join(draw(st.lists(st.sampled_from("01"), min_size=n, max_size=n)))
    elif kind == "constant":
        bits = draw(st.sampled_from("01")) * n
    else:
        bits = _one_one_per_cycle(p, draw(st.lists(st.integers(0, 13), min_size=n, max_size=n)))
    order = None
    if draw(st.booleans()):
        order = bitlex.PriorityOrder(tuple(draw(st.permutations(range(1, n + 1)))))
    return bits, p, order


@settings(max_examples=400, deadline=None)
@given(orbit_cases())
def test_orbit_min_agrees_with_reference_scan(case):
    bits, p, order = case
    assert orbit_min_one_perm(bits, p, order=order) == reference_orbit_min(bits, p, order=order)


def _graphs(n):
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    for mask in range(1 << len(pairs)):
        yield dcr.Graph(n, tuple(e for b, e in enumerate(pairs) if mask >> b & 1))


def test_orbit_min_agrees_with_reference_on_every_small_coloring_instance():
    for n in range(1, 5):
        for g in _graphs(n):
            gm = dcr.dcr_to_globalmin1(dcr.coloring_to_dcr(g)[0])
            args = gm.start, gm.perm
            assert orbit_min_one_perm(*args, order=gm.order) == reference_orbit_min(
                *args, order=gm.order
            )


# the reference scan takes about a second per 5-vertex system whose orbit
# is 15015, so these are sampled; C5 is colorable, K5 is not
@settings(max_examples=5, deadline=None)
@given(st.integers(0, (1 << 10) - 1))
@example(0b1010011001)
@example((1 << 10) - 1)
def test_orbit_min_agrees_with_reference_on_five_vertex_systems(mask):
    pairs = itertools.combinations(range(1, 6), 2)
    g = dcr.Graph(5, tuple(e for b, e in enumerate(pairs) if mask >> b & 1))
    gm = dcr.dcr_to_globalmin1(dcr.coloring_to_dcr(g)[0])
    for order in (gm.order, None):
        assert orbit_min_one_perm(gm.start, gm.perm, order=order) == reference_orbit_min(
            gm.start, gm.perm, order=order
        )


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False))
def test_orbit_min_agrees_with_reference_on_random_systems(rng):
    gm = dcr.dcr_to_globalmin1(random_dcr_instance(rng))
    for order in (gm.order, None):
        assert orbit_min_one_perm(gm.start, gm.perm, order=order) == reference_orbit_min(
            gm.start, gm.perm, order=order
        )


def test_witness_is_the_stated_power():
    rng = Random(53)
    for _ in range(100):
        n = rng.randint(2, 10)
        bits = "".join(rng.choice("01") for _ in range(n))
        p = random_permutation(rng, n)
        res = local_min_one_perm(bits, p)
        assert res.witness == power(p, res.exponent)


@settings(max_examples=200, deadline=None)
@given(orbit_cases())
def test_witness_built_from_cycles_matches_power(case):
    bits, p, _ = case
    res = local_min_one_perm(bits, p)
    assert res.witness == power(p, res.exponent)
    assert res.witness.image == dense_power(DensePermutation(p.image), res.exponent).image
