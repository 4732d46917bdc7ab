"""The reduction instance and the CNF are built from one gadget layout:
pin their exact text and check that they act alike on the slots they
share."""

import hashlib
from random import Random

import pytest

from lexperm.circuit import random_instance
from lexperm.cnf import build_formula, format_dimacs
from lexperm.reduction import Layout, build_instance, format_instance
from reference_impl import dense_moved

# (seed, n, gates, outputs, sha256 of the instance text, sha256 of the DIMACS text)
GOLDEN = [
    (1, 1, 1, 1, "47d2df26920ef136c0b82f757eb533b9a2eebd29c22cd5a93241daad76812879", "b352217a692c416955303f77835c28da55e95041cb08c7ca023a2e3b35381d3d"),
    (2, 2, 3, 1, "1029fd4be0da13ab1ba49d998f58066f9d9df0af68a69efb1b4ae250dac8de78", "f59d68a5d7516479522a13327f672cedbcc41f6b58f8867b4ac053dcb62b49ec"),
    (3, 3, 4, 2, "cf17648e5c52227018e8783d3e4a09999cf2600732b0bbc47b62d0159a3c928e", "0be746f69e14be4bb6e0898983e5ed153f717a4f6529a3f6024d2be674070844"),
    (4, 3, 6, 3, "678dc998cecf8049a1fbebaeec77161d1af10459daca707201b2b87fbdf49f63", "20983ea2e2945e002dddff4fa4d7634eb43a0ae464a3edecf0202329c1acfd6e"),
    (5, 4, 8, 3, "5ec6bb561256581b2f9564191f65e5a0b73b3042bda49e018b3d51148e67d959", "5b274e71ffba9e674892ef9de655c66faa399553e1eb1a99e8dc2cffc382002d"),
    (6, 4, 5, 1, "11005921b2682bf69aafd3107f1756861119fdda0b533809677a44976bab4fb3", "8c3e19e093804ab7b4c50d81cacabdb4ca5521f4c1bff4014b6fd29e9898a89b"),
    (7, 5, 10, 4, "67e04ec3942243d45cc8b486a46276efef5edf8afc54aabc3c703e9659cf43e3", "dd8b0626b47fa9bee3dd6554bb6c3d4fa4db4cade2265b75e5d7d65d253f730b"),
    (8, 2, 7, 2, "13bb770d1288ca21b59c5cd4eadf150e95089cba2d9ba189a1350426dda154aa", "d4ed5c432a28e67178a74ca4958711cb188aade20efd4cbe65ac686833454aa7"),
    (9, 5, 6, 5, "22a5fccf1a9e74827f7116f0d2e27a73c653eefe965d5c53896def001c7f5ac9", "94c0f1208baca0b6222070dbe2b53b34e5e4c79dffcfb7c301017edba8db900c"),
    (10, 3, 12, 2, "01589e440efc7d29e909739c54851f3e33b8106777bd49df1233ce5643ba885f", "625ae6db2f8f712d0e62c68e287d6d3eb925714f376cdf291df3fcf7f598c934"),
]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("seed,n,gates,outputs,inst_sha,dimacs_sha", GOLDEN)
def test_golden_instance_and_dimacs_text(seed, n, gates, outputs, inst_sha, dimacs_sha):
    c = random_instance(Random(seed), n, gates, outputs)
    assert _sha(format_instance(build_instance(c))) == inst_sha
    assert _sha(format_dimacs(build_formula(c))) == dimacs_sha


def _cnf_catalog(var_labels, inst):
    """Reduction point -> CNF variable for every input and quadrant
    variable, matched by label against the instance's position catalog;
    gate output variables have no reduction position and are left out."""
    point = {pos.label(): 2 * k - 1 for k, pos in enumerate(inst.condensed, start=1)}
    out = {}
    for v, label in enumerate(var_labels, start=1):
        base = label.removesuffix(".t")
        if base in point:
            out[point[base] + label.endswith(".t")] = v
    return out


@pytest.mark.parametrize("seed,n,gates,outputs", [case[:4] for case in GOLDEN])
def test_cnf_symmetries_act_like_reduction_generators_on_shared_slots(seed, n, gates, outputs):
    c = random_instance(Random(seed), n, gates, outputs)
    inst, f = build_instance(c), build_formula(c)
    assert f.symmetries.names == inst.gens.names
    shared = _cnf_catalog(f.var_labels, inst)
    # every input and quadrant position of the instance is a CNF variable
    assert len(shared) == sum(2 for pos in inst.condensed if pos.kind != "out")
    at_var = {v: i for i, v in shared.items()}
    for name, g in inst.gens:
        s = f.symmetries.get(name)
        for i, v in shared.items():
            assert at_var[s(v)] == g(i), (name, f.var_labels[v - 1])


@pytest.mark.parametrize("gate_var", [False, True])
def test_layout_generators_hand_over_their_exact_support(gate_var):
    rng = Random(83)
    for _ in range(40):
        n, gates = rng.randint(1, 4), rng.randint(1, 9)
        c = random_instance(rng, n, gates, rng.randint(1, min(3, gates)))
        for name, g in Layout(c, gate_var=gate_var).generators():
            assert g.moved == dense_moved(g), name
            assert sorted(g.image) == list(range(1, g.degree + 1)), name
