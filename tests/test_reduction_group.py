"""The structural membership test of a reduced instance's group,
G = E ⋊ S, against the stabilizer chain: the group order it implies, the
identity k_ij = F_i * F_j its proof uses, and agreement on seeded probe
corpora for the reduction's and the CNF's layouts."""

import gc
from math import factorial
from random import Random

import pytest

from lexperm.circuit import random_instance
from lexperm.cnf import build_formula, local_min_solution
from lexperm.perm import (
    GeneratorSet,
    Permutation,
    StabilizerChain,
    apply_word,
    compose,
    identity,
    membership,
    parse_cycles,
)
from lexperm.reduction import Layout, ReductionGroup, build_instance
from lexperm.search import standard_algorithm, verify_local_opt

from reference_impl import power


def rung(index: int):
    """ROADMAP ladder rung ``index`` (1-based): the index-th draw from Random(1)."""
    rng = Random(1)
    for shape in [(4, 8, 3), (6, 20, 4)][:index]:
        c = random_instance(rng, *shape)
    return c


def chain_verify_shapes(seed: int, n: int = 2) -> list:
    """Circuits shaped like the chain-verify benchmark corpus: n inputs
    (2 there), 2 to 4 gates, one or two outputs."""
    rng = Random(seed)
    return [random_instance(rng, n, gates, outputs) for gates in (2, 3, 4) for outputs in (1, 2)]


def sets_of(c) -> list[tuple[Layout, GeneratorSet]]:
    """The reduction's and the CNF's generators of one circuit, each with
    its layout."""
    return [
        (Layout(c), build_instance(c).gens),
        (Layout(c, gate_var=True), build_formula(c).symmetries),
    ]


def group_order(c) -> int:
    n, G = c.n, c.gate_count
    return 2 ** ((n + 1) * G + n - 1) * factorial(n + 1)


def input_move(layout: Layout, gens: GeneratorSet, i: int) -> Permutation:
    """F_i: input i's move made in every copy.  ``sigma_i`` makes that move
    in each copy other than 0 and i; take it from one such copy and shift
    it into all of them (needs n >= 2)."""
    width = 2 * layout.per
    j = next(j for j in range(1, layout.circuit.n + 1) if j != i)
    sigma = gens.get(f"sigma_{i}")
    part = [(a, b) for a, b in zip(sigma.moved, sigma.moved_to) if j * width < a <= (j + 1) * width]
    image = list(range(1, layout.points + 1))
    for copy in range(layout.circuit.n + 1):
        shift = (copy - j) * width
        for a, b in part:
            image[a + shift - 1] = b + shift
    return Permutation(tuple(image))


def pair_swap(degree: int, k: int, l: int) -> Permutation:
    """Twin pairs k and l trade places, each keeping its twin order."""
    return parse_cycles(f"({2 * k - 1} {2 * l - 1})({2 * k} {2 * l})", degree)


def probes(rng: Random, layout: Layout, gens: GeneratorSet) -> list[Permutation]:
    """Members and near-members: random words, twin-breaking
    transpositions, a member times a twin flip, a quadrant swap or a pair
    swap inside one copy, the bare trade of copies 0 and 1, and F_d for
    two odd and then two even |d| (only when n >= 2)."""
    c, N = layout.circuit, layout.points
    pairs = N // 2

    def word():
        return apply_word(gens, [rng.choice(gens.names) for _ in range(rng.randint(0, 40))])

    out = [word() for _ in range(6)]
    for _ in range(4):
        a, b = rng.sample(range(1, pairs + 1), 2)
        out.append(parse_cycles(f"({2 * a - 1} {2 * b - 1})", N))
    for _ in range(4):
        k = rng.randint(1, pairs)
        out.append(compose(word(), parse_cycles(f"({2 * k - 1} {2 * k})", N)))
    for _ in range(4):
        j, gid = rng.randint(0, c.n), rng.randint(1, c.gate_count)
        qa, qb = rng.sample(["00", "01", "10", "11"], 2)
        k, l = layout.pair(j, "quad", gid, qa), layout.pair(j, "quad", gid, qb)
        out.append(compose(word(), pair_swap(N, k, l)))
    for _ in range(4):
        j = rng.randint(0, c.n)
        k, l = rng.sample(range(j * layout.per + 1, (j + 1) * layout.per + 1), 2)
        out.append(compose(word(), pair_swap(N, k, l)))
    width = 2 * layout.per
    trade = list(range(1, N + 1))
    trade[:width], trade[width : 2 * width] = trade[width : 2 * width], trade[:width]
    out.append(compose(word(), Permutation(tuple(trade))))
    if c.n < 2:
        return out
    moves = [input_move(layout, gens, i) for i in range(1, c.n + 1)]
    for first in (1, 1, 2, 2):  # two odd and two even |d|
        d = rng.sample(range(c.n), rng.choice(range(first, c.n + 1, 2)))
        f = identity(N)
        for i in d:
            f = compose(f, moves[i])
        out.append(compose(word(), f))
    return out


@pytest.mark.parametrize("n", [1, 2, 3])
def test_group_order_is_that_of_e_semidirect_s(n):
    rng = Random(4500 + n)
    for _ in range(3):
        c = random_instance(rng, n, rng.randint(1, 4), 1)
        for _, gens in sets_of(c):
            assert StabilizerChain.from_generators(gens).order() == group_order(c)


def test_group_order_at_rung_4_8_3():
    c = rung(1)
    gens = build_instance(c).gens
    assert StabilizerChain.from_generators(gens).order() == group_order(c)


def test_sigma_commutator_cubes_are_products_of_input_moves():
    """k_ij = (sigma_i sigma_j)^3 equals F_i * F_j, so the n-1 products
    F_1 * F_j give every F_d with |d| even."""
    rng = Random(4510)
    circuits = [random_instance(rng, n, rng.randint(1, 5), 1) for n in (2, 3, 3, 4)]
    for c in circuits + [rung(1)]:
        for layout, gens in sets_of(c):
            moves = [input_move(layout, gens, i) for i in range(1, c.n + 1)]
            for i in range(1, c.n + 1):
                for j in range(i + 1, c.n + 1):
                    k = power(compose(gens.get(f"sigma_{i}"), gens.get(f"sigma_{j}")), 3)
                    assert k == compose(moves[i - 1], moves[j - 1])
            for i in range(1, c.n + 1):
                assert not membership(gens, moves[i - 1])


@pytest.mark.parametrize(
    "circuits",
    [
        [rung(1)],
        [rung(2)],
        chain_verify_shapes(4520),
        chain_verify_shapes(4521),
        chain_verify_shapes(4522, n=1),
        chain_verify_shapes(4523, n=3),
    ],
    ids=["rung1", "rung2", "chain-verify-a", "chain-verify-b", "n1", "n3"],
)
def test_structural_test_agrees_with_the_chain(circuits):
    rng = Random(4530 + circuits[0].gate_count)
    for c in circuits:
        for layout, gens in sets_of(c):
            assert isinstance(gens._membership, ReductionGroup)
            chain = StabilizerChain.from_generators(gens)
            verdicts = []
            for q in probes(rng, layout, gens):
                verdicts.append(chain.contains(q))
                assert membership(gens, q) == verdicts[-1]
            # the corpus holds members and non-members of each kind: words,
            # then twin breakers, twin flips, quadrant and pair swaps, the
            # copy trade, F_d of odd and of even |d|.  At n = 1 the copy
            # trade is sigma_1 itself, and probes makes no F_d.
            if c.n == 1:
                assert verdicts == [True] * 6 + [False] * 16 + [True]
            else:
                assert verdicts == [True] * 6 + [False] * 19 + [True] * 2


def test_walk_endpoints_verify_without_a_chain(monkeypatch):
    """Verifying a raw walk endpoint on the reduction's or the CNF's
    generators builds no chain."""

    def refuse(cls, gens):
        raise AssertionError("a stabilizer chain was built")

    monkeypatch.setattr(StabilizerChain, "from_generators", classmethod(refuse))
    for c in chain_verify_shapes(4540):
        inst = build_instance(c)
        walk = standard_algorithm(inst.y_start, inst.order, inst.gens, keep_trace=False)
        assert verify_local_opt(inst.y_start, inst.order, inst.gens, perm=walk.permutation)
        f = build_formula(c)
        res = local_min_solution(f)
        assert verify_local_opt(f.initial, f.priority, f.symmetries, perm=res.permutation)


def test_dropped_values_leave_no_reference_cycles():
    """A reduced instance, a formula and an instance that has answered a
    membership query are freed by reference counting alone."""
    c = rung(1)
    gc.collect()
    gc.disable()
    try:
        inst = build_instance(c)
        del inst
        f = build_formula(c)
        del f
        inst = build_instance(c)
        assert membership(inst.gens, inst.gens.perms[-1])
        del inst
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("gate_var", [False, True], ids=["reduction", "cnf"])
def test_copy0_moves_are_built_once_per_generators_call(monkeypatch, gate_var):
    calls = []
    build = Layout._copy0_moves

    def counted(layout):
        calls.append(layout)
        return build(layout)

    monkeypatch.setattr(Layout, "_copy0_moves", counted)
    layout = Layout(rung(1), gate_var=gate_var)
    gens = layout.generators()
    assert len(calls) == 1
    N = gens.degree
    member = apply_word(gens, [gens.names[i % len(gens)] for i in range(0, 7 * len(gens), 7)])
    # a word, the identity and a twin-breaking transposition
    assert [membership(gens, p) for p in (member, identity(N), parse_cycles("(1 3)", N))] == [True, True, False]
    assert len(calls) == 1
    layout.generators()
    assert len(calls) == 2
