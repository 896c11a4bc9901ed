"""treegrow: exact increasing couplings for weighted random trees.

Plane trees weighted by log-concave offspring sequences, random integer
compositions, and inhomogeneous random subtrees of the Ulam-Harris tree,
all grown one step at a time as Markov processes whose transition tables
are computed in exact rational arithmetic and verified against
brute-force enumeration.
"""

__version__ = "0.1.0"

from .errors import (DomainError, HorizonError, NotCoupleable, ParseError, Refused,
                     TreegrowError, ZeroMassError)
from .treespace import (PlaneTree, RootedSubtree, Word, complete_d_ary,
                        compose_root, format_tree, is_bouquet_addition,
                        is_right_leaning_leaf_addition, parse_tree, to_dot)
from .compositions import (ArithClass, BSequence, Composition, PairTables, WeightPair,
                           check_admissibility_inequalities, check_ratio_chain,
                           composition_kernel, covering_successors, move_rows,
                           sample_composition_chain, satisfies_arith, shift)
from .sgtrees import (GrowthChain, PartitionTables, WeightSequence, check_tp2_array,
                      compute_tables, grow_chain, growth_kernel_row, is_log_concave, tilt)
from .subtree_model import (SubtreeChain, SummableTheta, apply_shuffle, bij_P, bij_P_inv,
                            check_equivariance, elementary_symmetric, inverse_shuffle,
                            nested_coupling_law, nested_subset_coupling,
                            push, push_forward, sigma_rule, shuffle_invariance_check,
                            subtree_grow_chain)
from .oracle import (GofReport, comp_law, enumerate_plane_trees, enumerate_subtrees,
                     goodness_of_fit, janson_expectations,
                     kernel_interchange_check, sg_law, st_law, subset_law, tv_distance)
