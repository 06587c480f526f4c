"""Dense linear-algebra helpers, the tolerance record, and the one LP of the
package: the convex-membership oracle that the tests and selfcheck compare
the decisions against.

Everything here is pure: no global mutable state, safe for concurrent use.
All matrices are plain ``numpy`` arrays; tolerances are collected in a single
:class:`Tolerances` record so the test suite has one tuning point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class NumericsError(Exception):
    """Base class for errors raised by this module."""


class NonHermitianError(NumericsError):
    pass


class DimensionMismatchError(NumericsError):
    pass


class DegenerateInputError(NumericsError):
    pass


class InvalidStateError(NumericsError):
    """A density matrix or r-matrix that breaks its state invariants."""


@dataclass(frozen=True)
class Tolerances:
    """Central tolerance record: every threshold of the package is read here,
    one role per field.

    equality   -- slack of a floating-point equality: a unit sum or trace,
                  Hermiticity, an off-diagonal Bell element, a replayed
                  certificate, filtered marginals at I/2, and the feasibility
                  tolerance of the convex_membership LP (the HiGHS backend
                  rejects values below 1e-10)
    psd_slack  -- most negative eigenvalue of a density matrix still
                  treated as >= 0
    lorentz    -- relative slack within which eigenvalues of the Lorentz
                  matrix eta R eta R^T count as one, and above which a
                  cluster's defect marks a Jordan block (rank-deficient class)
    witness    -- slack of an entanglement certificate: a witness value <W, r>
                  or a two-qubit partial-transpose eigenvalue below -witness
                  certifies entanglement
    singular   -- smallest |det| of a four-vertex barycentric system that is
                  solved; below it the four vertices are affinely dependent
    tie        -- absolute slack at which two numbers count as equal: ties in
                  a descending order, lam_1 at 1/2, coinciding vertices, a
                  vertex entry at 0 or 1/4, a weight or r-matrix entry at 0
                  (a weight that close below 0 reads as 0), and successive
                  see-saw values at convergence
    negligible -- largest mass still treated as zero: a convex coefficient
                  left out of a map or a decomposition, or the success weight
                  of a map that annihilates its input
    blowup     -- smallest marginal eigenvalue that filter_iteration still
                  inverts; below it the filter blows up
    solver     -- slack of a re-check on a computed answer: the facet walk's
                  decomposition rebuilt from its weights, and the see-saw
                  minimum of a valid witness over product states
    """

    equality: float = 1e-10
    psd_slack: float = -1e-9
    lorentz: float = 1e-6
    witness: float = 1e-10
    singular: float = 1e-12
    tie: float = 1e-12
    negligible: float = 1e-14
    blowup: float = 1e-9
    solver: float = 1e-8


TOL = Tolerances()

_LP_OPTIONS = {"primal_feasibility_tolerance": TOL.equality,
               "dual_feasibility_tolerance": TOL.equality}
# HiGHS drops constraint-matrix entries of magnitude at most this
# (its default `small_matrix_value`).
_HIGHS_SMALL_ENTRY = 1e-9


def is_hermitian(M):
    M = np.asarray(M)
    return M.ndim == 2 and M.shape[0] == M.shape[1] and \
        np.abs(M - M.conj().T).max() <= TOL.equality


def kron(*ops):
    """Kronecker product of any number of operators (left to right)."""
    out = np.array([[1.0 + 0j]])
    for op in ops:
        out = np.kron(out, np.asarray(op, dtype=complex))
    return out


def _check_dims(M, dims):
    M = np.asarray(M, dtype=complex)
    dims = tuple(int(d) for d in dims)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatchError("expected a square matrix")
    if int(np.prod(dims)) != M.shape[0]:
        raise DimensionMismatchError(
            f"product of dims {dims} != matrix dimension {M.shape[0]}")
    return M, dims


def partial_transpose(M, dims, subsystem):
    """Transpose on one tensor factor of M; involutive and trace-preserving."""
    M, dims = _check_dims(M, dims)
    n = len(dims)
    if not 0 <= subsystem < n:
        raise DimensionMismatchError(f"subsystem {subsystem} out of range")
    T = M.reshape(dims + dims)
    T = np.swapaxes(T, subsystem, n + subsystem)
    return T.reshape(M.shape)


def partial_trace(M, dims, keep):
    """Trace out all factors not listed in `keep` (sequence of indices)."""
    M, dims = _check_dims(M, dims)
    n = len(dims)
    keep = sorted(keep)
    if any(not 0 <= k < n for k in keep) or len(set(keep)) < len(keep):
        raise DimensionMismatchError(
            f"kept subsystems {keep} must be distinct indices below {n}")
    T = M.reshape(dims + dims)
    traced = 0
    for sys in range(n):
        if sys in keep:
            continue
        k = sys - traced
        m = len(dims) - traced
        T = np.trace(T, axis1=k, axis2=m + k)
        traced += 1
    d = int(np.prod([dims[k] for k in keep])) if keep else 1
    return T.reshape(d, d)


def _highs_shift(V):
    """Translation of each coordinate of V holding an entry HiGHS would drop
    to start at twice the threshold; membership is invariant under it."""
    # The other coordinates keep their zeros, which the solver exploits
    # (translating every coordinate made is_separable about 15 % slower).
    tiny = ((V != 0) & (np.abs(V) <= _HIGHS_SMALL_ENTRY)).any(axis=0)
    return np.where(tiny, 2 * _HIGHS_SMALL_ENTRY - V.min(axis=0), 0.0)


def convex_membership(vertices, query):
    """Convex coefficients expressing `query` over the rows of `vertices`
    (an ndarray that can be re-checked independently), or None if `query`
    lies outside their convex hull; one feasibility LP."""
    V = np.asarray(vertices, dtype=float)
    q = np.asarray(query, dtype=float)
    if V.ndim != 2 or V.shape[0] < 1:
        raise DegenerateInputError("need at least one vertex")
    if V.shape[1] != q.shape[0]:
        raise DimensionMismatchError("vertex/query dimension mismatch")
    if not (np.isfinite(V).all() and np.isfinite(q).all()):
        raise DegenerateInputError("non-finite values in vertices or query")
    # scipy is imported here, so paths that solve no LP never load it.
    from scipy.optimize import linprog
    shift = _highs_shift(V)
    n = V.shape[0]
    A_eq = np.vstack([(V + shift).T, np.ones(n)])
    b_eq = np.concatenate([q + shift, [1.0]])
    res = linprog(np.zeros(n), A_eq=A_eq, b_eq=b_eq, bounds=[(0, None)] * n,
                  method="highs", options=_LP_OPTIONS)
    return res.x if res.status == 0 else None
