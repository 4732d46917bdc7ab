"""Local and global lexicographic minimization of bitstrings under
permutation groups, with the constructions that make the local problem
hard: a circuit-based move-set reduction and its CNF realization."""

from .bitlex import PriorityOrder, identity_order
from .circuit import FlipInstance, eval_circuit, flip_greedy, flip_local_check, parse_netlist
from .cnf import CnfFormula, build_formula, check_symmetry, local_min_solution
from .dcr import DcrInstance, Graph, coloring_to_dcr, dcr_to_globalmin1, decode_coloring, solve
from .one_perm import OnePermResult, local_min_one_perm, orbit_min_one_perm
from .perm import (
    GeneratorSet,
    Permutation,
    StabilizerChain,
    apply_word,
    compose,
    format_cycles,
    identity,
    inverse,
    membership,
    parse_cycles,
    permute_string,
)
from .reduction import ReducedInstance, build_instance, embed_flip_solution, is_well_behaved, map_solution
from .search import SearchResult, is_local_min, standard_algorithm, verify_local_opt

__version__ = "0.1.0"
