"""The library ships what its pipelines call.  The brute-force oracles and
random generators that only tests use live in ``reference_impl`` and the
acceptance suite in ``acceptance``; this keeps them from drifting back,
as module-level names or as attributes of the library's classes."""

import ast
import importlib
import inspect
import pkgutil

import lexperm
from lexperm import bitlex

ORACLES = {
    "enumerate_group", "orbit_of_string", "random_permutation", "cycle_decomposition",
    "compare", "cost_integer", "complement", "LESS", "EQUAL", "GREATER",
    "eval_recursive", "enumerate_models", "condense", "assemble_well_behaved",
    "condensed_order", "OrbitCapExceeded", "WidthExceeded", "TwinViolation",
    "is_proper_coloring", "format_graph", "orbit_lengths", "is_correct", "power",
    "perm_order",
}


def _modules():
    names = [m.name for m in pkgutil.iter_modules(lexperm.__path__) if m.name != "__main__"]
    return [lexperm, *(importlib.import_module(f"lexperm.{name}") for name in names)]


def test_no_module_defines_an_oracle():
    modules = _modules()
    assert "lexperm.acceptance" not in [m.__name__ for m in modules]
    found = {}
    for module in modules:
        oracles = ORACLES & set(vars(module))
        if module.__name__ == "lexperm.dcr" and "random_instance" in vars(module):
            oracles.add("random_instance")
        for name, value in vars(module).items():
            if isinstance(value, type) and value.__module__ == module.__name__:
                oracles |= {f"{name}.{attr}" for attr in ORACLES & set(vars(value))}
        if oracles:
            found[module.__name__] = sorted(oracles)
    assert not found


def test_bitlex_is_a_leaf_and_the_walk_engine_lives_in_search():
    """Every module may read numbers and orders through ``bitlex``
    because it imports no other module of the package but ``errors``."""
    imported = set()
    for node in ast.walk(ast.parse(inspect.getsource(bitlex))):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("lexperm")):
            imported.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names if alias.name.startswith("lexperm")}
    assert imported <= {".errors"}
    for name in ("RankSpace", "is_local_min"):
        homes = {vars(m)[name].__module__ for m in _modules() if name in vars(m)}
        assert homes == {"lexperm.search"}, name
