"""Channel-state duality for Bell-diagonal-preserving separable maps.

A separable completely positive map acts as rho -> sum_i (A_i x B_i) rho
(A_i x B_i)^dag with 2x2 Kraus factors per party.  Its dual state lives on
four qubits grouped as (A_out, A_in, B_out, B_in) = (A', A'', B', B''), as
in slocc.symmetric, and the map is separable iff that state is separable
across the A|B cut.  The module also houses the rank-deficient rho_ND family
and the explicit two-term separable map that reverses its
quasi-distillation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bell import PAULIS, validate_weights
from .numerics import (TOL, DimensionMismatchError, InvalidStateError,
                       NumericsError, kron)
from .separability import _rmatrix_array, _vertex_origin
from .symmetric import bell_permutation_factors, project_to_commutant


class AnnihilatedError(NumericsError):
    """The map sends the input state to zero."""


class NotAVertexError(NumericsError):
    pass


class BOutOfRangeError(NumericsError):
    pass


def _kraus(sep_map):
    """The Kraus pairs as one complex (n, 2, 2, 2) array.  A factor that is
    not 2x2 raises DimensionMismatchError and a non-finite entry
    InvalidStateError, instead of a numpy error or a wrong answer."""
    factors = [np.asarray(f, dtype=complex) for p in sep_map.kraus for f in p]
    if [f.shape for f in factors] != [(2, 2)] * (2 * len(sep_map.kraus)):
        raise DimensionMismatchError("Kraus factors must be 2x2 pairs")
    kraus = np.reshape(factors, (-1, 2, 2, 2))
    if not np.isfinite(kraus).all():
        raise InvalidStateError("non-finite Kraus operator")
    return kraus


def _success_weight(total, source, annihilated):
    """float(total) once it is finite and at least TOL.negligible; otherwise
    InvalidStateError naming the non-finite `source`, or AnnihilatedError
    with the message `annihilated`."""
    total = float(total)
    # negated comparison, so a NaN total fails it
    if not TOL.negligible <= total < np.inf:
        if np.isfinite(total):
            raise AnnihilatedError(annihilated)
        raise InvalidStateError(f"non-finite {source}: success weight {total}")
    return total


@dataclass
class SeparableMap:
    """Kraus pairs (A_i, B_i) with the combined operator A_i (x) B_i.

    `scale` records the positive factor removed by normalization:
    raw Kraus = sqrt(scale) * stored Kraus.  After normalize() the largest
    eigenvalue of sum (A x B)^dag (A x B) is 1, so tr of the unnormalized
    output is the maximal admissible success probability.
    """

    kraus: list
    scale: float = 1.0

    def combined(self):
        return [kron(A, B) for A, B in _kraus(self)]

    def normalize(self):
        # the zero start keeps S 4x4 for an empty Kraus list
        S = sum((K.conj().T @ K for K in self.combined()), np.zeros((4, 4)))
        s = float(np.linalg.eigvalsh(S).max())
        if not s > 0:
            raise AnnihilatedError("map has no Kraus content")
        f = s ** 0.25
        return SeparableMap(kraus=[(A / f, B / f) for A, B in self.kraus],
                            scale=self.scale * s)


def apply_map_density(sep_map, rho):
    """(normalized output, success weight tr sigma) of the Kraus action."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise DimensionMismatchError(f"expected a 4x4 state, got {rho.shape}")
    sigma = np.zeros_like(rho)
    for K in sep_map.combined():
        sigma += K @ rho @ K.conj().T
    weight = _success_weight(np.real(np.trace(sigma)), "state or map",
                             "map annihilates the input state")
    return sigma / weight, weight


def map_action_bd(r, lam):
    """Bell-diagonal action of the map with r-matrix r: lam' prop r @ lam.

    r is 4x4, finite and nonnegative, of any scale.  Returns (normalized
    output weights, success probability).  Sum K^dag K is Bell-diagonal with
    eigenvalues proportional to r's column sums, and SeparableMap.normalize
    scales the largest to 1, so the probability is sum_j colsum_j(r) lam_j /
    max_j colsum_j(r), as apply_map_density reports: 1 if trace-preserving.
    """
    r = _rmatrix_array(r)
    # a NaN entry passes this comparison; the weight check refuses NaN and inf
    if r.min() < -TOL.tie:
        raise InvalidStateError(f"negative r-matrix entry {r.min()}")
    lam = validate_weights(lam)
    v = r @ lam
    total = _success_weight(v.sum(), "r-matrix",
                            "r-matrix annihilates these weights")
    return v / total, total / r.sum(axis=0).max()


def cj_state(sep_map):
    """16x16 dual state on the qubits (A' A'' B' B''), unnormalized.

    Each party's factor acts on (out, in) = (primed, double-primed), so the
    state sums the projectors onto the Choi vectors kron(A.ravel(),
    B.ravel()): manifestly separable across the A|B cut for any Kraus list.
    """
    K = np.array([np.kron(A.ravel(), B.ravel())
                  for A, B in _kraus(sep_map)]).reshape(-1, 16)
    return K.T @ K.conj()


def cj_rmatrix(sep_map):
    """Commutant projection of the dual state; normalized to unit mass."""
    r = project_to_commutant(cj_state(sep_map))
    total = _success_weight(r.sum(), "Kraus operator",
                            "dual state has zero symmetric component")
    return r / total


def channel_from_cj(rho_dual, rho_in):
    """Recover the map action from its dual state (unnormalized output).

    E(rho) = tr_in[rho_dual (I_out (x) rho^T)], transposition in the
    standard product basis of the input pair (A'', B''): one contraction
    over the dual's eight qubit axes (A' A'' B' B'' for rows, then columns).
    """
    rho_dual = np.asarray(rho_dual, dtype=complex)
    rho_in = np.asarray(rho_in, dtype=complex)
    if rho_dual.shape != (16, 16) or rho_in.shape != (4, 4):
        raise DimensionMismatchError("expected a 16x16 dual, a 4x4 state")
    out = np.einsum("awbxcydz,wxyz->abcd", rho_dual.reshape((2,) * 8),
                    rho_in.reshape(2, 2, 2, 2))
    return out.reshape(4, 4)


# product Kraus pairs of the seed vertices: Bell-correlated Pauli dephasing
# (D0); measuring span{Phi_1, Phi_2} and preparing their even mixture (G0)
_SEED_KRAUS = {"D0": [(s / 2 ** 0.5,) * 2 for s in PAULIS],
               "G0": [(np.outer(e, f) / 2 ** 0.25,) * 2
                      for e in np.eye(2) for f in np.eye(2)]}


def kraus_for_vertex(v):
    """Explicit product-Kraus realization of a polytope vertex map.

    v = seed[rp][:, cp] for a seed D0 or G0 (entries within TOL.tie of 0 or
    1/4).  The seed's Kraus pairs are conjugated by the Bell permutation
    cp on the way in and by the inverse of rp on the way out, so Bell j
    goes to Bell i with weight seed[rp[i], cp[j]].  The returned map is
    normalized and its dual projects back onto v.
    """
    origin = _vertex_origin(v)
    if origin is None:
        raise NotAVertexError("not in the S4 x S4 orbit of D0 or G0")
    seed, rp, cp = origin
    uA, uB = bell_permutation_factors(np.argsort(rp))
    vA, vB = bell_permutation_factors(cp)
    pairs = [(uA @ A @ vA, uB @ B @ vB) for A, B in _SEED_KRAUS[seed]]
    return SeparableMap(kraus=pairs).normalize()


# --- the rho_ND family and quasi-distillation ------------------------------

def _check_b(b):
    if not 0.0 <= b <= 0.5:
        raise BOutOfRangeError(f"b = {b} outside [0, 1/2]")
    return float(b)


def rho_nd(b):
    """Rank-deficient non-Bell-diagonal normal form, standard product basis."""
    b = _check_b(b)
    return np.array([[2, 0, 0, 0],
                     [0, 1, 2 * b, 0],
                     [0, 2 * b, 1, 0],
                     [0, 0, 0, 0]], dtype=complex) / 4.0


def rho_nd_prime(b):
    """Quasi-distillation target of rho_nd(b): Bell-diagonal, weights
    (1+2b)/2 on Phi_4 and (1-2b)/2 on Phi_3."""
    b = _check_b(b)
    return np.array([[0, 0, 0, 0],
                     [0, 1, -2 * b, 0],
                     [0, -2 * b, 1, 0],
                     [0, 0, 0, 0]], dtype=complex) / 2.0


def quasi_reverse_map(b):
    """Two-term separable map sending rho_nd_prime(b) back to rho_nd(b).

    The direction (prime -> plain) is verified numerically in the test
    suite.  Kraus pairs are returned normalized; `scale` recovers the raw
    operators.
    """
    b = _check_b(b)
    root = np.sqrt(1 + 4 * b * b)
    A1 = np.array([[-2 * b + root, -0.5], [1, 0]], dtype=complex)
    B1 = np.array([[1, 0.5], [1, 0]], dtype=complex)
    A2 = np.array([[2 * b - root, 0.5], [1, 0]], dtype=complex)
    B2 = np.array([[1, 0.5], [-1, 0]], dtype=complex)
    return SeparableMap(kraus=[(A1, B1), (A2, B2)]).normalize()
