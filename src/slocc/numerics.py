"""Dense linear-algebra helpers and a certified convex-membership oracle.

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
    """Central tolerance record: every threshold of the package is read here.

    equality    -- generic floating-point equality slack: weights sum to 1,
                   a trace is 1, a matrix is Hermitian for the state
                   validators, a replayed certificate reproduces its target,
                   filtered marginals reach I/2, and the CLI's default --tol
                   for off-diagonal Bell elements
    psd_slack   -- most negative eigenvalue still treated as >= 0; the Bell
                   weights of a correlation point are the eigenvalues of its
                   state, so it also bounds a weight read off a point
    hermiticity -- max |M - M^dag| entry accepted as Hermitian
    lp          -- feasibility tolerance handed to the LP solver (the HiGHS
                   backend rejects values below 1e-10)
    lorentz     -- relative slack within which eigenvalues of the Lorentz
                   matrix eta R eta R^T count as one, and above which a
                   cluster's defect marks a Jordan block (rank-deficient class)
    ppt         -- most negative partial-transpose eigenvalue still counted
                   as PPT (separable) for a two-qubit state
    witness     -- slack of the entanglement-witness scan: a value <W, r>
                   below -witness certifies that an r-matrix is entangled
    singular    -- smallest |det| of a four-vertex barycentric system that is
                   solved; below it the four vertices are affinely dependent
                   (duplicates from tied weights, or coplanar)
    tie         -- absolute slack at which two weights, or a weight and a
                   bound, count as equal: ties in a descending order, lam_1
                   at 1/2, degenerate facet forms, a point on a facet,
                   coinciding vertices of a reachable polytope, vertex
                   entries at 0 or 1/4, a weight or r-matrix entry (or a
                   witness value re-checked by the CLI) at 0, and successive
                   see-saw values at convergence
    negligible  -- largest mass still treated as zero: a convex coefficient
                   left out of a synthesized map, or the success weight of a
                   map that annihilates its input
    blowup      -- smallest marginal eigenvalue that filter_iteration still
                   inverts; below it the filter blows up (rank-deficient
                   class)
    solver      -- slack of a re-check on an iterative solver's answer: an LP
                   decomposition rebuilt from its weights, and the see-saw
                   minimum of a valid witness over product states
    """

    equality: float = 1e-10
    psd_slack: float = -1e-9
    hermiticity: float = 1e-12
    lp: float = 1e-10
    lorentz: float = 1e-6
    ppt: float = -1e-10
    witness: float = 1e-10
    singular: float = 1e-12
    tie: float = 1e-12
    negligible: float = 1e-14
    blowup: float = 1e-9
    solver: float = 1e-8


TOL = Tolerances()

_LP_OPTIONS = {"primal_feasibility_tolerance": TOL.lp,
               "dual_feasibility_tolerance": TOL.lp}
# HiGHS drops constraint-matrix entries of magnitude at most this
# (its default `small_matrix_value`).
_HIGHS_SMALL_ENTRY = 1e-9


def is_hermitian(M, tol=TOL.hermiticity):
    M = np.asarray(M)
    return M.ndim == 2 and M.shape[0] == M.shape[1] and \
        np.abs(M - M.conj().T).max() <= tol


def hermitian_eigensystem(M):
    """Eigenvalues (ascending) and orthonormal eigenvector columns of M.

    Raises NonHermitianError if M is not Hermitian within TOL.hermiticity.
    """
    M = np.asarray(M, dtype=complex)
    if not is_hermitian(M):
        raise NonHermitianError(
            "matrix is not Hermitian within %g" % TOL.hermiticity)
    if M.shape[0] > 64:
        raise DimensionMismatchError("matrices beyond 64x64 are out of scope")
    vals, vecs = np.linalg.eigh(M)
    return vals, vecs


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
    if any(not 0 <= k < n for k in keep):
        raise DimensionMismatchError("kept subsystem index out of range")
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


@dataclass(frozen=True)
class Inside:
    """Convex-combination certificate: query = sum coefficients[i]*vertex[i]."""

    coefficients: np.ndarray


@dataclass(frozen=True)
class Outside:
    """Farkas certificate: an affine functional separating query from the hull.

    `normal` and `offset` satisfy  <normal, v> + offset >= 0  for every vertex
    and  <normal, query> + offset < 0.
    """

    normal: np.ndarray
    offset: float

    def value(self, point):
        return float(np.dot(self.normal, point) + self.offset)


def _highs_shift(V):
    """Translation of each coordinate of V holding an entry HiGHS would drop
    to start at twice the threshold; membership is invariant under it."""
    # The other coordinates keep their zeros, which the solver exploits
    # (translating every coordinate made is_separable about 15 % slower).
    tiny = ((V != 0) & (np.abs(V) <= _HIGHS_SMALL_ENTRY)).any(axis=0)
    return np.where(tiny, 2 * _HIGHS_SMALL_ENTRY - V.min(axis=0), 0.0)


def _lp_inputs(vertices, query):
    """`vertices` and `query` as checked float arrays, with the _highs_shift
    of the vertices' coordinates."""
    V = np.asarray(vertices, dtype=float)
    q = np.asarray(query, dtype=float)
    if V.ndim != 2 or V.shape[0] < 1:
        raise DegenerateInputError("need at least one vertex")
    if V.shape[1] != q.shape[0]:
        raise DimensionMismatchError("vertex/query dimension mismatch")
    if not (np.isfinite(V).all() and np.isfinite(q).all()):
        raise DegenerateInputError("non-finite values in vertices or query")
    return V, q, _highs_shift(V)


def _feasibility_lp(Vs, qs):
    """Convex coefficients expressing qs over the rows of Vs, or None."""
    # scipy is imported here, so paths that solve no LP never load it.
    from scipy.optimize import linprog
    n = Vs.shape[0]
    A_eq = np.vstack([Vs.T, np.ones(n)])
    b_eq = np.concatenate([qs, [1.0]])
    res = linprog(np.zeros(n), A_eq=A_eq, b_eq=b_eq, bounds=[(0, None)] * n,
                  method="highs", options=_LP_OPTIONS)
    return res.x if res.status == 0 else None


def _hull_coefficients(vertices, query):
    """The feasibility LP of convex_membership alone: convex coefficients
    expressing `query` over the rows of `vertices`, or None."""
    V, q, shift = _lp_inputs(vertices, query)
    return _feasibility_lp(V + shift, q + shift)


def convex_membership(vertices, query):
    """Decide whether `query` lies in the convex hull of `vertices`.

    Returns Inside(coefficients) or Outside(normal, offset); either branch
    carries a certificate that can be re-verified independently.
    """
    V, q, shift = _lp_inputs(vertices, query)
    Vs, qs = V + shift, q + shift
    coefficients = _feasibility_lp(Vs, qs)
    if coefficients is not None:
        return Inside(coefficients=coefficients)
    from scipy.optimize import linprog
    n, d = V.shape
    # Infeasible: find a separating affine functional.  Work in the lifted
    # space (v, 1); bounding h keeps the LP bounded, h = 0 is feasible so the
    # optimum is < 0 exactly when the query is outside the hull.
    sep = linprog(np.concatenate([qs, [1.0]]),
                  A_ub=-np.hstack([Vs, np.ones((n, 1))]), b_ub=np.zeros(n),
                  bounds=[(-1, 1)] * (d + 1), method="highs",
                  options=_LP_OPTIONS)
    # Undo the translation: <g, v + shift> + g0 = <g, v> + (g0 + <g, shift>).
    h = sep.x.copy()
    h[-1] += float(h[:-1] @ shift)
    Vt = np.hstack([V, np.ones((n, 1))])
    qt = np.concatenate([q, [1.0]])
    # Clean up solver slack so the vertex-side inequality holds exactly.
    slack = float((Vt @ h).min())
    if slack < 0:
        h[-1] -= slack
    qval = float(qt @ h)
    if qval >= 0:
        raise DegenerateInputError(
            "membership LP infeasible but no separating functional found "
            "(query on the boundary within solver tolerance)")
    return Outside(normal=h[:-1], offset=float(h[-1]))
