"""Normal-form reduction and full two-qubit SLOCC convertibility.

Every two-qubit state falls into one of three classes: separable (positive
partial transpose), equivalent under invertible local filters to a unique
ordered Bell-diagonal state, or equivalent to the rank-deficient rho_nd(b)
family whose Bell-diagonal representative is only reached in the
quasi-distillation limit.

The representative comes in closed form.  Under local filters the
correlation matrix R_ij = tr[rho s_i x s_j] moves as c L_A R L_B^T with
proper Lorentz L_A, L_B, so M = eta R eta R^T (eta = diag(1, -1, -1, -1))
moves by similarity.  Its spectrum c^2 (1, t1^2, t2^2, t3^2) and the sign of
det R give the representative's correlations t; the rank-deficient class is
the one where M is not diagonalizable (Verstraete, Dehaene and De Moor,
PRA 65, 032308 (2002)).  `filter_iteration`, which drives both marginals to
I/2 by alternating local filters (Kent, Linden and Massar, PRL 83, 2656
(1999)), is kept as an independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bell import BELL_COORDS, PAULI_Y, PAULIS
from .convert import _decide, _require_entangled, _separable_endpoint
from .numerics import TOL, InvalidStateError, NumericsError, partial_trace


class SeparableInputError(NumericsError):
    pass


_YY = np.kron(PAULI_Y, PAULI_Y)
# R_ij = tr[rho s_i x s_j] = (rho.ravel() @ _PAULI_TABLE)[4 i + j]
_PAULI_TABLE = np.array([[np.kron(a, b).T.ravel() for b in PAULIS]
                         for a in PAULIS]).reshape(16, 16).T
_ETA_ETA = np.outer([1.0, -1.0, -1.0, -1.0], [1.0, -1.0, -1.0, -1.0])


def concurrence(rho):
    """Wootters concurrence of a two-qubit density matrix."""
    rho = _states((rho,))[0][0]
    tilde = _YY @ rho.conj() @ _YY
    vals = np.linalg.eigvals(rho @ tilde)
    w = np.sort(np.sqrt(np.abs(vals.real)))[::-1]
    return float(max(0.0, w[0] - w[1] - w[2] - w[3]))


def _states(rhos):
    """(validated (n, 4, 4) stack, (n,) PPT flags) of a sequence of states.

    Each state is checked, in this order, for finite entries, a 4x4
    Hermitian shape, unit trace and positivity; the first state that fails
    raises InvalidStateError for its first failed check.  One eigen-solve
    over the states and their partial transposes serves every PSD and PPT
    test.
    """
    try:
        stack = np.array(rhos, dtype=complex)
    except (TypeError, ValueError):  # ragged, or states of different shapes
        stack = None
    if stack is not None and stack.shape[1:] == (4, 4) \
            and np.isfinite(stack).all():
        hermitian = np.abs(stack - stack.conj().transpose(0, 2, 1)) \
            .max(axis=(1, 2)) <= TOL.equality
        trace = stack.trace(axis1=1, axis2=2).real
        if hermitian.all() and (np.abs(trace - 1.0) <= TOL.equality).all():
            n = len(stack)
            pt = stack.reshape(n, 2, 2, 2, 2).transpose(0, 1, 4, 3, 2)
            low = np.linalg.eigvalsh(
                np.concatenate((stack, pt.reshape(n, 4, 4))))[:, 0]
            if low[:n].min() < TOL.psd_slack:
                raise InvalidStateError("state is not positive semidefinite")
            return stack, low[n:] >= -TOL.witness
    if len(rhos) > 1:  # raise for the first state that fails on its own
        for rho in rhos:
            _states((rho,))
    if stack is not None and not np.isfinite(stack).all():
        raise InvalidStateError("state has a non-finite entry")
    if stack is None or stack.shape[1:] != (4, 4) or not hermitian[0]:
        raise InvalidStateError("expected a 4x4 Hermitian matrix")
    raise InvalidStateError(f"trace {trace[0]}, expected 1")


def is_ppt(rho):
    """Positive partial transpose: exact separability test for two qubits."""
    return bool(_states((rho,))[1][0])


def _marginal(rho, side):
    return partial_trace(rho, (2, 2), keep=(side,))


def _filter_from_marginal(marginal):
    # (2 m)^(-omega/2) with omega = 1.5; omega = 1 is the plain
    # inverse-square-root filter, omega = 1.5 over-relaxes toward the same
    # fixed point but converges noticeably faster on states near the
    # quasi-distillable boundary.
    w, v = np.linalg.eigh(marginal)
    return v @ np.diag((2.0 * w) ** -0.75) @ v.conj().T


@dataclass(frozen=True)
class FilterResult:
    state: np.ndarray
    converged: bool
    iterations: int
    marginal_deviation: float


def filter_iteration(rho, max_iter=500):
    """Drive both single-qubit marginals to I/2 by alternating local filters.

    An independent oracle for the closed form behind `classify`: on
    convergence the descending eigenvalues of the filtered state are the
    Bell-diagonal weights.  Returns the filtered state, whether both
    marginals reached I/2 within TOL.equality, and the number of filter
    sweeps performed.  It stops early on filter blow-up, a marginal
    eigenvalue below TOL.blowup (|00><00| at sweep 0).  The rank-deficient
    class runs all sweeps instead (rho_nd(b) ends 3.3e-4 from I/2), as can
    slowly converging Bell-diagonal states (near rank 2), so
    non-convergence is not a class signal.
    """
    rho = _states((rho,))[0][0]
    half = np.eye(2) / 2.0
    for sweep in range(max_iter + 1):
        ra = _marginal(rho, 0)
        rb = _marginal(rho, 1)
        dev = max(np.abs(ra - half).max(), np.abs(rb - half).max())
        converged = bool(dev < TOL.equality)
        if converged or sweep == max_iter:
            return FilterResult(rho, converged, sweep, float(dev))
        if min(np.linalg.eigvalsh(ra).min(), np.linalg.eigvalsh(rb).min()) \
                < TOL.blowup:
            return FilterResult(rho, False, sweep, float(dev))
        F = _filter_from_marginal(ra)
        K = np.kron(F, np.eye(2))
        rho = K @ rho @ K.conj().T
        rho /= np.trace(rho).real
        rb = _marginal(rho, 1)
        if np.linalg.eigvalsh(rb).min() < TOL.blowup:
            return FilterResult(rho, False, sweep + 1, float(dev))
        G = _filter_from_marginal(rb)
        K = np.kron(np.eye(2), G)
        rho = K @ rho @ K.conj().T
        rho /= np.trace(rho).real


@dataclass(frozen=True, slots=True)
class NormalFormResult:
    kind: str                      # 'separable' | 'bell_diagonal' | 'nd_class'
    # ordered weights of the Bell-diagonal representative; for nd_class the
    # quasi-distillation target ((1+2b)/2, (1-2b)/2, 0, 0)
    weights: np.ndarray | None = None
    b: float | None = None              # for nd_class


def _lorentz_normal_forms(rhos):
    """((n, 4) ordered Bell weights, (n,) Jordan flags of M = eta R eta R^T).

    Eigenvalues of M that agree within c = TOL.lorentz relative to |M| form
    a cluster.  A cluster of size k of a diagonalizable M leaves M - mu I
    with rank 4 - k, so a (4 - k)-th singular value above c |M| marks a
    Jordan block.  Its eigenvalues split by about sqrt(machine epsilon)
    times the filters' conditioning and are replaced by their mean, which is
    exact to rounding; those of a diagonalizable cluster are accurate as
    they stand.  Only states with a gap within the slack are clustered.
    """
    n = len(rhos)
    # a (1, 16) row per state: R is the same bits whatever the stack size
    R = (rhos.reshape(n, 1, 16) @ _PAULI_TABLE).real.reshape(n, 4, 4)
    M = (R * _ETA_ETA) @ R.transpose(0, 2, 1)
    slack = TOL.lorentz * np.sqrt((M * M).sum(axis=(1, 2)))
    # descending real parts; the imaginary parts order a conjugate pair
    mu = np.sort(np.linalg.eigvals(M), axis=1)[:, ::-1]
    close = np.abs(mu[:, 1:] - mu[:, :-1]) <= slack[:, None]
    jordan = np.zeros(n, dtype=bool)
    for i in np.flatnonzero(close.any(axis=1)):
        for idx in np.split(np.arange(4), np.flatnonzero(~close[i]) + 1):
            if len(idx) > 1:
                m = mu[i, idx].mean()
                s = np.linalg.svd(M[i] - m.real * np.eye(4), compute_uv=False)
                if s[4 - len(idx)] > slack[i]:
                    jordan[i] = True
                    mu[i, idx] = m
    mu = mu.real
    t = np.sqrt(np.maximum(mu[:, 1:] / mu[:, :1], 0.0))
    np.negative(t[:, 0], out=t[:, 0], where=np.linalg.det(R) < 0)
    # correlations t are the negated coordinates of bell.BELL_COORDS
    lam = np.maximum(np.sort(1.0 - t @ BELL_COORDS.T, axis=1)[:, ::-1] / 4.0,
                     0.0)
    return lam / lam.sum(axis=1, keepdims=True), jordan


def classify(rho, *, estimate_b=None, rng=None):
    """Three-way SLOCC classification of a two-qubit state.

    Separable iff PPT.  Otherwise the Lorentz normal form gives the ordered
    weights of the Bell-diagonal representative, and a Jordan block in M
    marks the rank-deficient class, whose representative is the
    quasi-distillation target with b = (lambda_1 - lambda_2) / 2.
    `estimate_b` and `rng` are accepted and ignored, for existing callers:
    b is exact and nothing is random.
    """
    stack, ppt = _states((rho,))
    if ppt[0]:
        return NormalFormResult(kind="separable")
    (lam,), (jordan,) = _lorentz_normal_forms(stack)
    if jordan:
        return NormalFormResult(kind="nd_class", weights=lam,
                                b=float(lam[0] - lam[1]) / 2.0)
    return NormalFormResult(kind="bell_diagonal", weights=lam)


def bd_equivalent(rho):
    """Ordered weights of the unique SLOCC-equivalent Bell-diagonal state.

    For the rank-deficient class this is the quasi-distillation target
    ((1+2b)/2, (1-2b)/2, 0, 0), reached only in the limit.
    """
    result = classify(rho)
    if result.kind == "separable":
        raise SeparableInputError("separable states have no entangled "
                                  "Bell-diagonal equivalent")
    return result.weights


def can_convert_two_qubit(rho, rho_prime):
    """Full two-qubit SLOCC convertibility decision.

    Yes whenever the target is separable (discard and prepare); no when the
    source is separable and the target entangled; only otherwise are both
    reduced, in one pass, to the Bell-diagonal representatives that decide,
    with can_convert_bd's answers and errors.  The representatives are
    sorted, non-negative and unit-sum by construction, so only their
    entanglement is checked before the decision.
    """
    stack, ppt = _states((rho, rho_prime))
    return _separable_endpoint(not ppt[0], not ppt[1]) \
        or _decide(*map(_require_entangled, _lorentz_normal_forms(stack)[0]))
