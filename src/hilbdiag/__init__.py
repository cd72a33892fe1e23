"""Exact-arithmetic toolkit for degenerations of the diagonal in a
product of projective spaces: distinguished Borel-fixed ideals, Hilbert
data, tangent spaces, the d=2 tree space, the 3x3 census, and special
fibers of one-parameter families."""

from .gridcore import (KPolynomial, Monomial, MonomialIdeal,
                       diagonal_k_polynomial, hf_at, k_polynomial,
                       multidegree, multidegree_of_ideal,
                       series_equals_diagonal, stanley_reisner, target_hf)
from .borel import (build_z, h_closed_form, is_borel_fixed, shelling,
                    u_set, z_generators_direct)
from .tangent import chain_basis, chain_ideal, tangent_dimension, verify_basis
from .treespace import (Tree, enumerate_trees, ideal_to_tree, is_smooth,
                        moves_graph, tree_tangent_dim, tree_to_ideal)
from .groebner import (IndecisiveWeights, PolyRing, RatPoly, TermOrder,
                       apply_matrices, buchberger, gin_sample,
                       graded_piece_dim, grid_ring, initial_ideal, intersect,
                       lex_order, minors_ideal, saturate_z, special_fiber,
                       weight_initial_route)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
