"""The incremental stabilizer chain against the recursive reference chain,
the brute-force closure and sympy's ``PermutationGroup``, and the one
chain a generator set keeps for ``membership`` and raw-permutation
verification when its builder gave it no structural test."""

import pickle
from random import Random

import pytest

from lexperm import circuit, reduction
from lexperm.errors import DegreeMismatch, NotInGroup
from lexperm.perm import (
    GeneratorSet,
    Permutation,
    StabilizerChain,
    apply_word,
    compose,
    identity,
    inverse,
    membership,
    parse_cycles,
)
from lexperm.search import is_local_min, standard_algorithm, verify_local_opt

from reference_impl import ReferenceChain, enumerate_group, orbit_lengths, power, random_permutation


def sparse_permutation(rng: Random, degree: int) -> Permutation:
    """A random permutation of a random subset of at most five points, so
    that generated groups stay small enough to enumerate."""
    points = rng.sample(range(1, degree + 1), rng.randint(min(2, degree), min(5, degree)))
    moved = points[:]
    rng.shuffle(moved)
    image = list(range(1, degree + 1))
    for a, b in zip(points, moved):
        image[a - 1] = b
    return Permutation(tuple(image))


def random_generators(rng: Random, degree: int) -> GeneratorSet:
    make = random_permutation if rng.random() < 0.3 else sparse_permutation
    perms = [make(rng, degree) for _ in range(rng.randint(1, 4))]
    if rng.random() < 0.3:
        perms.append(compose(perms[0], perms[-1]))  # a redundant generator
    return GeneratorSet.from_pairs(degree, [(f"g{i}", p) for i, p in enumerate(perms)])


def reduced_instance(seed: int) -> reduction.ReducedInstance:
    rng = Random(seed)
    return reduction.build_instance(
        circuit.random_instance(rng, rng.randint(1, 2), rng.randint(1, 4), 1)
    )


def rung_4_8_3() -> reduction.ReducedInstance:
    """ROADMAP ladder rung (4,8,3): the first draw from Random(1)."""
    return reduction.build_instance(circuit.random_instance(Random(1), 4, 8, 3))


def twin_breakers(rng: Random, inst: reduction.ReducedInstance, count: int) -> list[Permutation]:
    """Transpositions of first positions of two different twin pairs.  Every
    generator maps twin pairs onto twin pairs, so these are non-members."""
    pairs = inst.num_positions // 2
    out = []
    for _ in range(count):
        a, b = rng.sample(range(1, pairs + 1), 2)
        out.append(parse_cycles(f"({2 * a - 1} {2 * b - 1})", inst.num_positions))
    return out


def members(rng: Random, inst: reduction.ReducedInstance, count: int) -> list[Permutation]:
    """The walk endpoint and random words in the generators."""
    walk = standard_algorithm(inst.y_start, inst.order, inst.gens)
    out = [walk.permutation]
    for _ in range(count):
        word = [rng.choice(inst.gens.names) for _ in range(rng.randint(0, 30))]
        out.append(apply_word(inst.gens, word))
    return out


def assert_verify_agrees(bits, order, gens, q, member):
    """``verify_local_opt(perm=q)`` rejects a non-member and judges a
    member as ``is_local_min`` does."""
    if member:
        assert verify_local_opt(bits, order, gens, perm=q) == is_local_min(bits, order, gens, q)
    else:
        with pytest.raises(NotInGroup):
            verify_local_opt(bits, order, gens, perm=q)


def test_chain_matches_reference_and_closure_on_random_sets():
    rng = Random(4401)
    for trial in range(150):
        gens = random_generators(rng, rng.randint(1, 10))
        chain = StabilizerChain.from_generators(gens)
        ref = ReferenceChain.from_generators(gens)
        assert chain.order() == ref.order(), f"trial {trial}"
        probes = [random_permutation(rng, gens.degree) for _ in range(20)]
        if chain.order() <= 5000:
            closure = enumerate_group(gens, cap=5000)
            assert chain.order() == len(closure), f"trial {trial}"
            for q in closure:
                assert chain.contains(q), f"trial {trial}"
            for q in probes:
                assert chain.contains(q) == (q in closure), f"trial {trial}"
        bits = "".join(rng.choice("01") for _ in range(gens.degree))
        for q in probes:
            assert chain.contains(q) == ref.contains(q), f"trial {trial}"
            assert membership(gens, q) == chain.contains(q), f"trial {trial}"
            assert_verify_agrees(bits, None, gens, q, chain.contains(q))


def test_chain_matches_reference_on_reduced_instances():
    rng = Random(4402)
    for seed in range(4):
        inst = reduced_instance(seed)
        chain = StabilizerChain.from_generators(inst.gens)
        ref = ReferenceChain.from_generators(inst.gens)
        assert chain.order() == ref.order()
        for q in members(rng, inst, 5):
            assert chain.contains(q) and ref.contains(q)
            assert membership(inst.gens, q)
            assert_verify_agrees(inst.y_start, inst.order, inst.gens, q, True)
        for q in twin_breakers(rng, inst, 5):
            assert not chain.contains(q) and not ref.contains(q)
            assert not membership(inst.gens, q)
            assert_verify_agrees(inst.y_start, inst.order, inst.gens, q, False)


def test_chain_matches_sympy_on_reduced_instances():
    combinatorics = pytest.importorskip("sympy.combinatorics")
    rng = Random(4403)
    instances = [reduced_instance(seed) for seed in range(19)] + [rung_4_8_3()]
    for inst in instances:
        chain = StabilizerChain.from_generators(inst.gens)
        group = combinatorics.PermutationGroup(
            [combinatorics.Permutation([v - 1 for v in p.image]) for p in inst.gens.perms]
        )
        assert chain.order() == group.order()
        probes = members(rng, inst, 3) + twin_breakers(rng, inst, 3)
        for q in probes:
            expected = group.contains(combinatorics.Permutation([v - 1 for v in q.image]))
            assert chain.contains(q) == expected
        assert all(chain.contains(q) for q in probes[:4])
        assert not any(chain.contains(q) for q in probes[4:])


def test_chain_is_deterministic():
    for inst in (reduced_instance(7), rung_4_8_3()):
        a = StabilizerChain.from_generators(inst.gens)
        b = StabilizerChain.from_generators(inst.gens)
        assert a.base == b.base and a.base
        assert orbit_lengths(a) == orbit_lengths(b)
        # the first level opens at the first generator's smallest moved point
        assert a.base[0] == min(i for i, v in enumerate(inst.gens.perms[0].image, 1) if i != v)


def test_verify_local_opt_with_raw_permutation_at_rung_4_8_3():
    inst = rung_4_8_3()
    walk = standard_algorithm(inst.y_start, inst.order, inst.gens)
    assert verify_local_opt(inst.y_start, inst.order, inst.gens, perm=walk.permutation)
    probe = twin_breakers(Random(4404), inst, 1)[0]
    assert not membership(inst.gens, probe)


def test_chain_edge_cases():
    empty = StabilizerChain.from_generators(GeneratorSet(3, (), ()))
    assert empty.order() == 1 and empty.base == ()
    assert empty.contains(identity(3))
    assert not empty.contains(parse_cycles("(1 2)", 3))
    trivial = StabilizerChain.from_generators(GeneratorSet.from_pairs(1, [("e", identity(1))]))
    assert trivial.order() == 1 and trivial.contains(identity(1))
    s4 = GeneratorSet.from_pairs(
        4, [("a", parse_cycles("(1 2)", 4)), ("b", parse_cycles("(1 2 3 4)", 4))]
    )
    chain = StabilizerChain.from_generators(s4)
    assert chain.order() == 24
    with pytest.raises(DegreeMismatch):
        chain.contains(identity(5))
    with pytest.raises(DegreeMismatch):
        chain.add_generator(identity(5))


def test_products_skip_validation_but_stay_permutations():
    rng = Random(4405)
    for _ in range(50):
        degree = rng.randint(1, 12)
        p, q = random_permutation(rng, degree), random_permutation(rng, degree)
        for r in (compose(p, q), inverse(p), power(p, rng.randint(-5, 5))):
            assert r == Permutation(r.image)
    with pytest.raises(ValueError):
        Permutation((1, 1, 3))


def test_reduced_set_builds_no_chain_and_a_rebuilt_set_builds_one(monkeypatch):
    """The set ``Layout.generators`` returns decides membership from its
    structure; an equal set rebuilt from its fields, or unpickled, builds
    one chain on its first query and keeps it, and both give the same
    verdicts."""
    builds = []
    build = StabilizerChain.from_generators.__func__

    def counting(cls, gens):
        builds.append(gens)
        return build(cls, gens)

    monkeypatch.setattr(StabilizerChain, "from_generators", classmethod(counting))
    inst = reduced_instance(3)
    gens = inst.gens
    walk = standard_algorithm(inst.y_start, inst.order, gens)
    rng = Random(4406)
    probes = [walk.permutation, *twin_breakers(rng, inst, 3), *members(rng, inst, 3)[1:]]
    rebuilt = GeneratorSet(gens.degree, gens.names, gens.perms)
    unpickled = pickle.loads(pickle.dumps(gens))
    verdicts = []
    for s in (gens, rebuilt, unpickled):
        for _ in range(3):
            assert verify_local_opt(inst.y_start, inst.order, s, perm=walk.permutation)
            verdicts.append([membership(s, q) for q in probes])
        if s is gens:
            assert not builds  # walk, verify and membership on the reduced set
    assert len(builds) == 2 and builds[0] is rebuilt and builds[1] is unpickled
    assert verdicts == [[True, False, False, False, True, True, True]] * 9


def test_generator_set_value_is_unchanged_by_its_chain():
    inst = reduced_instance(5)
    gens = inst.gens
    twin = GeneratorSet(gens.degree, gens.names, gens.perms)
    before = (repr(gens), hash(gens), pickle.dumps(gens))
    probe = twin_breakers(Random(4407), inst, 1)[0]
    assert not membership(gens, probe)
    assert (repr(gens), hash(gens), pickle.dumps(gens)) == before
    assert gens == twin and twin == gens and hash(gens) == hash(twin)
    copy = pickle.loads(pickle.dumps(gens))
    assert copy == gens and repr(copy) == repr(gens)
    assert not membership(copy, probe) and membership(copy, gens.perms[0])


def test_caller_chain_does_not_change_membership():
    inst = reduced_instance(6)
    probe = twin_breakers(Random(4408), inst, 1)[0]
    own = StabilizerChain.from_generators(inst.gens)
    assert not membership(inst.gens, probe)
    own.add_generator(probe)
    assert own.contains(probe)
    assert not membership(inst.gens, probe)
    again = StabilizerChain.from_generators(inst.gens)
    again.add_generator(probe)
    assert not membership(inst.gens, probe)
    with pytest.raises(NotInGroup):
        verify_local_opt(inst.y_start, inst.order, inst.gens, perm=probe)
