import itertools
import re
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lexperm import dcr
from lexperm.bitlex import identity_order
from lexperm.dcr import (
    DcrInstance,
    GlobalMinOneInstance,
    Graph,
    coloring_to_dcr,
    dcr_to_globalmin1,
    decode_coloring,
    first_odd_primes,
    solve,
    solve_bruteforce,
    three_colorable_bruteforce,
    zero_forbidden_witness,
)
from lexperm.errors import (
    DegreeMismatch,
    FormatError,
    IndexOutOfRange,
    LcmCapExceeded,
    LexpermError,
    OrderCapExceeded,
    PrimeCapExceeded,
)
from lexperm.perm import Permutation, _cycles, permute_string

from reference_impl import (
    format_graph,
    is_proper_coloring,
    random_dcr_instance,
    reference_coloring_to_dcr,
    reference_dcr_to_globalmin1,
    reference_first_odd_primes,
    reference_zero_forbidden_witness,
)

small_systems = st.lists(
    st.integers(1, 12).flatmap(
        lambda m: st.tuples(st.just(m), st.frozensets(st.integers(0, m - 1)))
    ),
    min_size=1,
    max_size=4,
).map(lambda cs: DcrInstance(tuple(cs)))

K3 = Graph(3, ((1, 2), (1, 3), (2, 3)))
K4 = Graph(4, tuple(itertools.combinations(range(1, 5), 2)))


def test_solve_empty_forbidden_sets():
    inst = DcrInstance(((4, frozenset()), (6, frozenset())))
    assert solve_bruteforce(inst) == 0


def test_solve_small_system():
    inst = DcrInstance(((2, frozenset({0})), (3, frozenset({1}))))
    assert solve_bruteforce(inst) == 3


def test_solve_cap():
    inst = DcrInstance(((1000, frozenset()), (999, frozenset())))
    for solver in (solve, solve_bruteforce):
        with pytest.raises(LcmCapExceeded, match="^lcm 999000 exceeds cap 10000$"):
            solver(inst, cap=10**4)


def _refusal_or(solver, inst, cap):
    try:
        return solver(inst, cap=cap)
    except LcmCapExceeded as exc:
        return str(exc)


@pytest.mark.parametrize(
    "constraints, expected",
    [
        (((1, {0}),), None),
        (((1, set()),), 0),
        (((1, set()), (3, {0, 1})), 2),
        (((2, {0}), (1, set()), (3, {1})), 3),
        (((5, {0}), (1, {0}), (7, {0})), None),
    ],
    ids=["forbidden", "free", "free-then-mod-3", "free-between", "forbidden-between"],
)
def test_solve_systems_with_modulus_one(constraints, expected):
    inst = DcrInstance(tuple((m, frozenset(f)) for m, f in constraints))
    assert solve(inst) == solve_bruteforce(inst) == expected


@settings(max_examples=300, deadline=None)
@given(small_systems, st.one_of(st.integers(1, 400), st.just(10**6)))
def test_solve_agrees_with_bruteforce_under_and_over_the_cap(inst, cap):
    assert _refusal_or(solve, inst, cap) == _refusal_or(solve_bruteforce, inst, cap)


def _same_globalmin(gm, ref):
    """Field by field, the permutation's support as a validated dense
    image would give it, and the cycles the encoder handed over as a fresh
    decomposition of that support gives them."""
    assert gm.start == ref.start
    assert gm.perm == ref.perm == Permutation(gm.perm.image)
    fresh = Permutation._unchecked(gm.perm.degree, gm.perm.moved, gm.perm.moved_to)
    assert gm.perm._kept_cycles == _cycles(fresh)
    assert gm.order == ref.order
    assert gm.forbidden == ref.forbidden


def test_encoders_and_solve_agree_with_references_on_every_graph_up_to_five_vertices():
    for n in range(1, 6):
        for mask in range(1 << n * (n - 1) // 2):
            g = _graph(n, mask)
            system, primes = coloring_to_dcr(g)
            assert (system, primes) == reference_coloring_to_dcr(g)
            _same_globalmin(dcr_to_globalmin1(system), reference_dcr_to_globalmin1(system))
            assert solve(system) == solve_bruteforce(system)


@settings(max_examples=300, deadline=None)
@given(small_systems)
@example(DcrInstance(((1, frozenset({0})), (2, frozenset()), (1, frozenset()))))
@example(DcrInstance(()))
def test_globalmin_encoder_agrees_with_reference(inst):
    _same_globalmin(dcr_to_globalmin1(inst), reference_dcr_to_globalmin1(inst))


def test_globalmin_encoder_agrees_with_reference_on_random_systems():
    rng = Random(47)
    for _ in range(200):
        inst = random_dcr_instance(rng, 6, 40)
        _same_globalmin(dcr_to_globalmin1(inst), reference_dcr_to_globalmin1(inst))


def test_encoders_refuse_a_modulus_above_the_cap():
    with pytest.raises(LcmCapExceeded, match="modulus 1000001 exceeds cap 1000000"):
        dcr_to_globalmin1(DcrInstance(((3, frozenset({1})), (10**6 + 1, frozenset({0})))))
    # vertices 199 and 200 get the primes 1223 and 1229
    with pytest.raises(LcmCapExceeded, match="modulus 1503067 exceeds"):
        coloring_to_dcr(Graph(200, ((1, 2), (199, 200))))


def test_instance_validation():
    with pytest.raises(ValueError):
        DcrInstance(((3, frozenset({3})),))
    with pytest.raises(ValueError):
        DcrInstance(((0, frozenset()),))


def test_first_odd_primes():
    assert first_odd_primes(6) == (3, 5, 7, 11, 13, 17)


def _primes_or_refusal(find, count, cap):
    try:
        return find(count, cap)
    except PrimeCapExceeded as exc:
        return str(exc)


def test_first_odd_primes_sieve_equals_trial_division():
    # every count up to 300 against caps below, at and above the primes it
    # needs; a cap that is passed is refused with the same message
    for count in range(301):
        for cap in (0, 2, 3, 4, 13, 14, 100, 1000, 1999, 10**6):
            got = _primes_or_refusal(first_odd_primes, count, cap)
            assert got == _primes_or_refusal(reference_first_odd_primes, count, cap), (count, cap)
    assert first_odd_primes(3000) == reference_first_odd_primes(3000)
    # 78497 odd primes lie below 10**6, the last 999983
    assert first_odd_primes(78497)[-1] == 999983
    with pytest.raises(PrimeCapExceeded, match="prime search passed cap 1000000"):
        first_odd_primes(78498)


def test_globalmin_encoder_refuses_moduli_summing_past_the_cap():
    two = DcrInstance(((999983, frozenset({0})), (999979, frozenset({0}))))
    with pytest.raises(LcmCapExceeded, match="moduli sum to 1999962 points, above cap 1000000"):
        dcr_to_globalmin1(two)
    at_cap = dcr_to_globalmin1(DcrInstance(((500000, frozenset()), (500000, frozenset({1})))))
    assert at_cap.perm.degree == 10**6


def test_single_edge_constraint():
    inst, primes = coloring_to_dcr(Graph(2, ((1, 2),)))
    assert primes == (3, 5)
    m, forbidden = inst.constraints[0]
    assert m == 15
    # enumerate c = 0..14 and test the residue-pair condition directly
    expected = {
        c
        for c in range(15)
        if (c % 3, c % 5) in {(0, 0), (1, 1)} or (c % 3 >= 2 and c % 5 >= 2)
    }
    assert forbidden == expected == {0, 1, 2, 8, 14}


def test_edgeless_graph():
    inst, _ = coloring_to_dcr(Graph(3, ()))
    assert inst.constraints == ()
    assert solve_bruteforce(inst) == 0


def test_k3_solvable_k4_not():
    assert solve_bruteforce(coloring_to_dcr(K3)[0]) is not None
    assert solve_bruteforce(coloring_to_dcr(K4)[0]) is None


def test_decode_trivial_colorings():
    primes = first_odd_primes(4)
    assert decode_coloring(0, primes) == "rrrr"
    assert decode_coloring(1, primes) == "gggg"


def test_decode_solution_is_proper():
    inst, primes = coloring_to_dcr(K3)
    t = solve_bruteforce(inst)
    assert t is not None
    assert is_proper_coloring(K3, decode_coloring(t, primes))


def test_three_colorable_bruteforce():
    assert three_colorable_bruteforce(K3)
    assert not three_colorable_bruteforce(K4)
    assert three_colorable_bruteforce(Graph(1, ()))


def test_globalmin_single_constraint():
    inst = DcrInstance(((3, frozenset({1})),))
    gm = dcr_to_globalmin1(inst)
    assert gm.start == "100"
    assert zero_forbidden_witness(gm) == 0


def test_globalmin_empty_system():
    gm = dcr_to_globalmin1(DcrInstance(()))
    assert gm.start == "" and gm.forbidden == ()
    assert zero_forbidden_witness(gm) == 0


def test_globalmin_empty_forbidden():
    inst = DcrInstance(((2, frozenset()), (3, frozenset())))
    gm = dcr_to_globalmin1(inst)
    assert gm.forbidden == ()
    assert zero_forbidden_witness(gm) == 0


def test_globalmin_orbit_carries_one_per_cycle():
    inst = DcrInstance(((2, frozenset({0})), (3, frozenset({1}))))
    gm = dcr_to_globalmin1(inst)
    s = gm.start
    for t in range(6):
        assert s[: 2].count("1") == 1 and s[2:].count("1") == 1
        assert s[t % 2] == "1" and s[2 + t % 3] == "1"
        s = permute_string(s, gm.perm)


def test_globalmin_priority_ranks_forbidden_first():
    inst = DcrInstance(((2, frozenset({0})), (3, frozenset({1}))))
    gm = dcr_to_globalmin1(inst)
    assert gm.forbidden == (1, 4)
    assert gm.order.rank == (1, 4, 2, 3, 5)


def test_globalmin_witness_matches_solver():
    inst = DcrInstance(((2, frozenset({0})), (3, frozenset({1}))))
    assert zero_forbidden_witness(dcr_to_globalmin1(inst)) == 3


def test_random_agreement():
    rng = Random(41)
    for shape in [(4, 7)] * 300 + [(4, 12)] * 100:
        inst = random_dcr_instance(rng, *shape)
        t = solve_bruteforce(inst)
        assert zero_forbidden_witness(dcr_to_globalmin1(inst)) == t
        assert solve(inst) == t


def _capped(solver, arg, cap):
    try:
        return solver(arg, cap=cap)
    except (OrderCapExceeded, LcmCapExceeded):
        return "cap"


@settings(max_examples=300, deadline=None)
@given(small_systems, st.one_of(st.integers(1, 400), st.just(10**6)))
@example(DcrInstance(((4, frozenset(range(4))),)), 10**6)
@example(DcrInstance(((2, frozenset({0})), (4, frozenset({1, 3})))), 10**6)
@example(DcrInstance(((11, frozenset({0, 1})), (12, frozenset(range(2, 12))))), 10**6)
@example(DcrInstance(((5, frozenset()), (7, frozenset({3})))), 34)
@example(DcrInstance(((5, frozenset()), (7, frozenset({3})))), 35)
def test_witness_agrees_with_reference_walk_and_bruteforce(inst, cap):
    """Solvable and unsolvable systems, under and over the cap (the
    brute force's lcm is the order of the permutation)."""
    gm = dcr_to_globalmin1(inst)
    got = _capped(zero_forbidden_witness, gm, cap)
    assert got == _capped(reference_zero_forbidden_witness, gm, cap)
    assert got == _capped(solve_bruteforce, inst, cap)


@st.composite
def walks(draw):
    """Any start, permutation and forbidden set, not only a system's."""
    n = draw(st.integers(0, 12))
    image = tuple(draw(st.permutations(range(1, n + 1))))
    start = "".join(draw(st.lists(st.sampled_from("01"), min_size=n, max_size=n)))
    forbidden = tuple(draw(st.lists(st.integers(1, n), unique=True))) if n else ()
    return GlobalMinOneInstance(start, Permutation(image), identity_order(n), forbidden)


@settings(max_examples=300, deadline=None)
@given(walks())
# a 1 away from index 0 of its cycle, which a system's start never has
@example(GlobalMinOneInstance("010", Permutation((2, 3, 1)), identity_order(3), (3,)))
def test_witness_agrees_with_reference_walk_from_any_start(gm):
    assert zero_forbidden_witness(gm) == reference_zero_forbidden_witness(gm)


def _graph(n, mask):
    """The graph on 1..n holding the b-th pair, in lexicographic order,
    iff bit b of mask is set."""
    pairs = itertools.combinations(range(1, n + 1), 2)
    return Graph(n, tuple(e for b, e in enumerate(pairs) if mask >> b & 1))


@pytest.mark.parametrize("n", [4, 5])
def test_witness_agrees_with_bruteforce_on_every_coloring_system(n):
    for mask in range(1 << n * (n - 1) // 2):
        g = _graph(n, mask)
        system, _ = coloring_to_dcr(g)
        t = zero_forbidden_witness(dcr_to_globalmin1(system))
        assert t == solve_bruteforce(system)
        assert (t is not None) == three_colorable_bruteforce(g)


def test_witness_agrees_with_reference_walk_on_every_four_vertex_system():
    for mask in range(1 << 6):
        gm = dcr_to_globalmin1(coloring_to_dcr(_graph(4, mask))[0])
        assert zero_forbidden_witness(gm) == reference_zero_forbidden_witness(gm)


# the reference walk takes about 0.4 s per unsolvable 5-vertex system, so
# these are sampled; K5 walks the whole orbit of 3 * 5 * 7 * 11 * 13
@settings(max_examples=8, deadline=None)
@given(st.integers(0, (1 << 10) - 1))
@example((1 << 10) - 1)
def test_witness_agrees_with_reference_walk_on_five_vertex_systems(mask):
    gm = dcr_to_globalmin1(coloring_to_dcr(_graph(5, mask))[0])
    assert zero_forbidden_witness(gm) == reference_zero_forbidden_witness(gm)


K5 = Graph(5, tuple(itertools.combinations(range(1, 6), 2)))


@pytest.mark.parametrize(
    "inst, expected",
    [
        # 23 points; t = 1 (mod 5), 2 (mod 7) and 3 (mod 11) first at 366
        (DcrInstance(tuple((m, frozenset(range(m)) - {r}) for m, r in ((5, 1), (7, 2), (11, 3)))), 366),
        (coloring_to_dcr(K5)[0], None),
        # the modulus-1 cycle is a fixed point holding its 1, and forbidden
        (DcrInstance(((1, frozenset({0})), (5, frozenset({0})), (7, frozenset({0})))), None),
        (DcrInstance(()), 0),
    ],
    ids=["least-solution-past-the-points", "k5", "forbidden-fixed-one", "empty"],
)
def test_witness_sieve_agrees_with_reference_walk_and_bruteforce(inst, expected):
    """Each case bears on one part of the residue sieve: a least solution
    beyond the number of points, a system left with no residue, a fixed
    point that bars every t, and no cycle at all."""
    gm = dcr_to_globalmin1(inst)
    assert zero_forbidden_witness(gm) == expected
    assert reference_zero_forbidden_witness(gm) == expected
    assert solve_bruteforce(inst) == expected


@pytest.mark.parametrize(
    "start, forbidden, error, message",
    [
        ("1", (1,), DegreeMismatch, "string length 1 vs degree 2"),
        ("101", (), DegreeMismatch, "string length 3 vs degree 2"),
        ("1", (3,), DegreeMismatch, "string length 1 vs degree 2"),
        ("1x", (3,), FormatError, "not a bitstring: '1x'"),
        ("10", (2, 3), IndexOutOfRange, "point 3 outside 1..2"),
        ("10", (0, 1), IndexOutOfRange, "point 0 outside 1..2"),
    ],
    ids=["start-short", "start-long", "start-before-forbidden", "not-bits", "forbidden-above", "forbidden-zero"],
)
def test_witness_refuses_inputs_that_do_not_fit_the_permutation(start, forbidden, error, message):
    gm = GlobalMinOneInstance(start, Permutation((2, 1)), identity_order(2), forbidden)
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        zero_forbidden_witness(gm)


def test_dcr_text_round_trip():
    inst = DcrInstance(((15, frozenset({0, 1, 2, 8, 14})), (3, frozenset())))
    assert dcr.parse_dcr(dcr.format_dcr(inst)) == inst
    with pytest.raises(FormatError):
        dcr.parse_dcr("15 0 1\n")


def test_graph_text_round_trip():
    assert dcr.parse_graph(format_graph(K4)) == K4
    with pytest.raises(FormatError):
        dcr.parse_graph("e 1 2\n")
    with pytest.raises(FormatError):
        dcr.parse_graph("p graph 3 0\n")
    with pytest.raises(FormatError, match="second 'p edge' header"):
        dcr.parse_graph("p edge 3 0\np edge 2 0\n")


@pytest.mark.parametrize(
    "text",
    [
        "p edge 3 x\ne 1 2\n",
        "p edge 3 7\ne 1 2\n",
        "p edge 3 0\ne 1 2\n",
        "p edge 3 2\ne 1 2\n",
        "p edge 3 -1\n",
        "p edge 3 1_0\n",
        "p edge 3 \u0661\n",
        "p edge 2 " + "1" * 5000 + "\n",
    ],
)
def test_parse_graph_rejects_an_edge_count_other_than_the_e_lines(text):
    with pytest.raises(FormatError):
        dcr.parse_graph(text)


def test_parse_graph_reads_the_edge_count():
    assert dcr.parse_graph("p edge 3 1\ne 1 2\n") == Graph(3, ((1, 2),))
    assert dcr.parse_graph("c no edges\np edge 2 0\n") == Graph(2, ())


@pytest.mark.parametrize(
    "text",
    [
        "1_5: +0 0_1\n", "15: +0\n", "15: 0_1\n", "1_5: 0\n", " +3: 1\n",
        "\u0661\u0665: 0\n", "3: -1\n",
    ],
)
def test_parse_dcr_accepts_plain_decimal_only(text):
    with pytest.raises(FormatError):
        dcr.parse_dcr(text)


def test_parse_dcr_reads_plain_decimal():
    assert dcr.parse_dcr(" 15 : 0 1\n3:\n") == DcrInstance(
        ((15, frozenset({0, 1})), (3, frozenset()))
    )


@st.composite
def graphs(draw):
    n = draw(st.integers(0, 8))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph(n, tuple(edges))


systems = st.lists(
    st.integers(1, 30).flatmap(
        lambda m: st.tuples(st.just(m), st.frozensets(st.integers(0, m - 1)))
    ),
    max_size=6,
).map(lambda cs: DcrInstance(tuple(cs)))


@settings(max_examples=200)
@given(graphs())
def test_graph_format_parse_round_trip(g):
    assert dcr.parse_graph(format_graph(g)) == g


@settings(max_examples=200)
@given(systems, st.booleans())
def test_dcr_format_parse_round_trip(inst, with_primes):
    primes = (3, 5, 7) if with_primes else None
    assert dcr.parse_dcr(dcr.format_dcr(inst, primes)) == inst


# a line alphabet that reaches every branch of the two parsers
_FUZZ_LINES = st.lists(
    st.one_of(
        st.text(max_size=12),
        st.text(alphabet="pe cdg0123456789-: \t", max_size=14),
        st.sampled_from(["p edge 3 2", "e 1 2", "e 2 3", "3: 0 1", "c x", "5:", ""]),
    ),
    max_size=6,
).map("\n".join)


@settings(max_examples=300)
@given(_FUZZ_LINES)
@example("p edge " + "1" * 5000 + " 0")
@example("p edge 2 0\ne 1 " + "2" * 5000)
@example("p edge 3 x\ne 1 2")
@example("p edge 3 7\ne 1 2")
def test_parse_graph_fuzz_yields_graph_or_lexperm_error(text):
    try:
        assert isinstance(dcr.parse_graph(text), Graph)
    except LexpermError:
        pass


@settings(max_examples=300)
@given(_FUZZ_LINES)
@example("1" * 5000 + ": 0")
@example("1_5: +0 0_1")
def test_parse_dcr_fuzz_yields_system_or_lexperm_error(text):
    try:
        assert isinstance(dcr.parse_dcr(text), DcrInstance)
    except LexpermError:
        pass


def test_orbit_min_under_instance_priority_exposes_solvability():
    from lexperm.one_perm import orbit_min_one_perm

    solvable = DcrInstance(((2, frozenset({0})), (3, frozenset({1}))))
    gm = dcr_to_globalmin1(solvable)
    _, best = orbit_min_one_perm(gm.start, gm.perm, order=gm.order)
    assert all(best[pos - 1] == "0" for pos in gm.forbidden)

    blocked = DcrInstance(((2, frozenset({0, 1})),))
    gmb = dcr_to_globalmin1(blocked)
    _, worst_case = orbit_min_one_perm(gmb.start, gmb.perm, order=gmb.order)
    assert any(worst_case[pos - 1] == "1" for pos in gmb.forbidden)
