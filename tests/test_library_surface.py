"""The library ships what its pipelines call.  The brute-force oracles and
random generators that only tests use live in ``reference_impl`` and the
acceptance suite in ``acceptance``; this keeps them from drifting back,
as module-level names or as attributes of the library's classes."""

import importlib
import pkgutil

import lexperm

ORACLES = {
    "enumerate_group", "orbit_of_string", "random_permutation", "cycle_decomposition",
    "compare", "cost_integer", "complement", "LESS", "EQUAL", "GREATER",
    "eval_recursive", "enumerate_models", "condense", "assemble_well_behaved",
    "condensed_order", "OrbitCapExceeded", "WidthExceeded", "TwinViolation",
    "is_proper_coloring", "format_graph", "orbit_lengths", "is_correct",
}


def test_no_module_defines_an_oracle():
    names = [m.name for m in pkgutil.iter_modules(lexperm.__path__) if m.name != "__main__"]
    assert "acceptance" not in names
    found = {}
    for module in [lexperm, *(importlib.import_module(f"lexperm.{name}") for name in names)]:
        oracles = ORACLES & set(vars(module))
        if module.__name__ == "lexperm.dcr" and "random_instance" in vars(module):
            oracles.add("random_instance")
        for name, value in vars(module).items():
            if isinstance(value, type) and value.__module__ == module.__name__:
                oracles |= {f"{name}.{attr}" for attr in ORACLES & set(vars(value))}
        if oracles:
            found[module.__name__] = sorted(oracles)
    assert not found
