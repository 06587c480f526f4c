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

from .bell import PAULI_Y, PAULIS
from .convert import _separable_endpoint, can_convert_bd
from .numerics import (TOL, InvalidStateError, NumericsError, partial_trace,
                       partial_transpose)


class SeparableInputError(NumericsError):
    pass


_YY = np.kron(PAULI_Y, PAULI_Y)
_SIGMA_PAIRS = np.array([[np.kron(a, b) for b in PAULIS] for a in PAULIS])
_ETA = np.diag([1.0, -1.0, -1.0, -1.0])


def concurrence(rho):
    """Wootters concurrence of a two-qubit density matrix."""
    rho = _validate_state(rho)
    tilde = _YY @ rho.conj() @ _YY
    vals = np.linalg.eigvals(rho @ tilde)
    w = np.sort(np.sqrt(np.abs(vals.real)))[::-1]
    return float(max(0.0, w[0] - w[1] - w[2] - w[3]))


def _validate_state(rho):
    rho = np.asarray(rho, dtype=complex)
    if not np.isfinite(rho).all():
        raise InvalidStateError("state has a non-finite entry")
    # negated comparisons, so a NaN fails them
    if rho.shape != (4, 4) \
            or not np.abs(rho - rho.conj().T).max() <= TOL.equality:
        raise InvalidStateError("expected a 4x4 Hermitian matrix")
    if not abs(np.trace(rho).real - 1.0) <= TOL.equality:
        raise InvalidStateError(f"trace {np.trace(rho).real}, expected 1")
    if np.linalg.eigvalsh(rho).min() < TOL.psd_slack:
        raise InvalidStateError("state is not positive semidefinite")
    return rho


def is_ppt(rho):
    """Positive partial transpose: exact separability test for two qubits."""
    return _is_ppt(_validate_state(rho))


def _is_ppt(rho):
    pt = partial_transpose(rho, (2, 2), 1)
    return bool(np.linalg.eigvalsh(pt).min() >= TOL.ppt)


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
    sweeps performed.  It stops early on filter blow-up (a marginal
    eigenvalue below TOL.blowup), which the rank-deficient class causes, but
    slowly converging Bell-diagonal-class states (near rank 2) can also
    exhaust the sweeps, so non-convergence is not a class signal.
    """
    rho = _validate_state(rho)
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


def _lorentz_normal_form(rho):
    """(ordered Bell weights, whether M = eta R eta R^T has a Jordan block).

    Eigenvalues of M that agree within c = TOL.lorentz relative to |M| form
    a cluster.  A cluster of size k of a diagonalizable M leaves M - mu I
    with rank 4 - k, so a (4 - k)-th singular value above c |M| marks a
    Jordan block.  Its eigenvalues split by about sqrt(machine epsilon)
    times the filters' conditioning and are replaced by their mean, which is
    exact to rounding; those of a diagonalizable cluster are accurate as
    they stand.
    """
    R = np.einsum("ijkl,lk->ij", _SIGMA_PAIRS, rho).real
    M = _ETA @ R @ _ETA @ R.T
    slack = TOL.lorentz * np.linalg.norm(M)
    mu = np.linalg.eigvals(M)
    mu = mu[np.argsort(-mu.real)]
    clusters = [[0]]
    for k in range(1, 4):
        if abs(mu[k] - mu[k - 1]) <= slack:
            clusters[-1].append(k)
        else:
            clusters.append([k])
    jordan = False
    for idx in clusters:
        if len(idx) > 1:
            m = mu[idx].mean()
            s = np.linalg.svd(M - m.real * np.eye(4), compute_uv=False)
            if s[4 - len(idx)] > slack:
                jordan = True
                mu[idx] = m
    mu = mu.real
    t = np.sqrt(np.clip(mu[1:] / mu[0], 0.0, None))
    if np.linalg.det(R) < 0:
        t[0] = -t[0]
    t1, t2, t3 = t
    lam = np.array([1 + t1 - t2 + t3, 1 - t1 + t2 + t3,
                    1 + t1 + t2 - t3, 1 - t1 - t2 - t3]) / 4.0
    lam = np.clip(np.sort(lam)[::-1], 0.0, None)
    return lam / lam.sum(), jordan


def classify(rho, *, estimate_b=None, rng=None):
    """Three-way SLOCC classification of a two-qubit state.

    Separable iff PPT.  Otherwise the Lorentz normal form gives the ordered
    weights of the Bell-diagonal representative, and a Jordan block in M
    marks the rank-deficient class, whose representative is the
    quasi-distillation target with b = (lambda_1 - lambda_2) / 2.
    `estimate_b` and `rng` are accepted and ignored, for existing callers:
    b is exact and nothing is random.
    """
    rho = _validate_state(rho)
    if _is_ppt(rho):
        return NormalFormResult(kind="separable")
    lam, jordan = _lorentz_normal_form(rho)
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
    source is separable and the target entangled; otherwise the decision of
    the Bell-diagonal representatives.
    """
    src, dst = classify(rho), classify(rho_prime)
    return _separable_endpoint(src.kind != "separable",
                               dst.kind != "separable") \
        or can_convert_bd(src.weights, dst.weights)
