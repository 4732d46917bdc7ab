"""The library ships what its pipelines call.  The brute-force oracles and
random generators that only tests use live in ``reference_impl`` and the
acceptance suite in ``acceptance``; this keeps them from drifting back."""

import importlib
import pkgutil

import lexperm
from lexperm.reduction import ReducedInstance

ORACLES = {
    "enumerate_group", "orbit_of_string", "random_permutation", "cycle_decomposition",
    "compare", "cost_integer", "complement", "LESS", "EQUAL", "GREATER",
    "eval_recursive", "enumerate_models", "condense", "assemble_well_behaved",
    "OrbitCapExceeded", "WidthExceeded", "TwinViolation",
}


def test_no_module_defines_an_oracle():
    names = [m.name for m in pkgutil.iter_modules(lexperm.__path__) if m.name != "__main__"]
    assert "acceptance" not in names
    found = {}
    for module in [lexperm, *(importlib.import_module(f"lexperm.{name}") for name in names)]:
        oracles = ORACLES & set(vars(module))
        if module.__name__ == "lexperm.dcr" and "random_instance" in vars(module):
            oracles.add("random_instance")
        if oracles:
            found[module.__name__] = sorted(oracles)
    assert not found
    assert not hasattr(ReducedInstance, "condensed_order")
