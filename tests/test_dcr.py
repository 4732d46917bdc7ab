import itertools
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
    solve_bruteforce,
    three_colorable_bruteforce,
    zero_forbidden_witness,
)
from lexperm.errors import FormatError, LcmCapExceeded, LexpermError, OrderCapExceeded
from lexperm.perm import Permutation, permute_string

from reference_impl import (
    format_graph,
    is_proper_coloring,
    random_dcr_instance,
    reference_zero_forbidden_witness,
)

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
    with pytest.raises(LcmCapExceeded):
        solve_bruteforce(inst, cap=10**4)


def test_instance_validation():
    with pytest.raises(ValueError):
        DcrInstance(((3, frozenset({3})),))
    with pytest.raises(ValueError):
        DcrInstance(((0, frozenset()),))


def test_first_odd_primes():
    assert first_odd_primes(6) == (3, 5, 7, 11, 13, 17)


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
    for _ in range(100):
        inst = random_dcr_instance(rng)
        assert solve_bruteforce(inst) == zero_forbidden_witness(dcr_to_globalmin1(inst))


def _capped(solver, arg, cap):
    try:
        return solver(arg, cap=cap)
    except (OrderCapExceeded, LcmCapExceeded):
        return "cap"


small_systems = st.lists(
    st.integers(1, 12).flatmap(
        lambda m: st.tuples(st.just(m), st.frozensets(st.integers(0, m - 1)))
    ),
    min_size=1,
    max_size=4,
).map(lambda cs: DcrInstance(tuple(cs)))


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
