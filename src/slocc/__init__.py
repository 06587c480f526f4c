"""SLOCC convertibility between two-qubit quantum states.

Decides whether one two-qubit state can be converted into another by
stochastic local operations and classical communication, with every answer
backed by a checkable certificate: an explicit separable map on yes, a
violated monotone or entanglement witness on no.
"""

from .bell import (BELL_COORDS, BELL_PROJECTORS, BELL_VECTORS, PAULIS,
                   canonical_order, coords_to_weights, density_to_weights,
                   is_entangled_bd, is_ordered, validate_weights,
                   weights_to_coords, weights_to_density)
from .choi import (SeparableMap, apply_map_density, channel_from_cj,
                   cj_rmatrix, cj_state, kraus_for_vertex, map_action_bd,
                   quasi_reverse_map, rho_nd, rho_nd_prime)
from .convert import (Decision, MonotoneTriple, can_convert_bd,
                      facet_inequalities, lp_oracle_membership, monotones,
                      plambda_vertices, ratio_geq, synthesize_map)
from .normal_form import (FilterResult, NormalFormResult, bd_equivalent,
                          can_convert_two_qubit, classify, concurrence,
                          filter_iteration, is_ppt)
from .numerics import (Tolerances, TOL, convex_membership, is_hermitian, kron,
                       partial_trace, partial_transpose)
from .separability import (CANONICAL_WITNESSES, ConvexDecomposition, D0, G0,
                           ViolatedWitness, Witness, is_separable,
                           seesaw_min_product, validate_rmatrix,
                           verify_extension_certificate_W2, vertex_set,
                           witness_orbit, witness_value)
from .symmetric import (assemble, bell_permutation_factors,
                        project_to_commutant, swap_factors)

__version__ = "0.1.0"

__all__ = [
    "BELL_COORDS", "BELL_PROJECTORS", "BELL_VECTORS", "PAULIS",
    "canonical_order", "coords_to_weights", "density_to_weights",
    "is_entangled_bd", "is_ordered", "validate_weights", "weights_to_coords",
    "weights_to_density",
    "SeparableMap", "apply_map_density", "channel_from_cj", "cj_rmatrix",
    "cj_state", "kraus_for_vertex", "map_action_bd", "quasi_reverse_map",
    "rho_nd", "rho_nd_prime",
    "Decision", "MonotoneTriple", "can_convert_bd", "facet_inequalities",
    "lp_oracle_membership", "monotones", "plambda_vertices", "ratio_geq",
    "synthesize_map",
    "FilterResult", "NormalFormResult", "bd_equivalent",
    "can_convert_two_qubit", "classify", "concurrence", "filter_iteration",
    "is_ppt",
    "Tolerances", "TOL", "convex_membership", "is_hermitian", "kron",
    "partial_trace", "partial_transpose",
    "CANONICAL_WITNESSES", "ConvexDecomposition", "D0", "G0",
    "ViolatedWitness", "Witness", "is_separable", "seesaw_min_product",
    "validate_rmatrix", "verify_extension_certificate_W2", "vertex_set",
    "witness_orbit", "witness_value",
    "assemble", "bell_permutation_factors", "project_to_commutant",
    "swap_factors",
]
