"""Bell basis, Bell-diagonal states and the correlation-coordinate picture.

The Bell index convention is frozen here and imported everywhere else:

    Phi_1, Phi_2 = (|00> +- |11>)/sqrt(2)       (indices 0, 1 in code)
    Phi_3, Phi_4 = (|01> +- |10>)/sqrt(2)       (indices 2, 3 in code)

Correlation coordinates are (x, y, z) = (-<sx sx>, -<sy sy>, -<sz sz>); the
four Bell states sit at (-1,1,-1), (1,-1,-1), (-1,-1,1), (1,1,1).
"""

from __future__ import annotations

import numpy as np

from .numerics import TOL, NumericsError

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (PAULI_I, PAULI_X, PAULI_Y, PAULI_Z)

_s2 = np.sqrt(2.0)
# Rows are the four Bell vectors in the product basis |00>,|01>,|10>,|11>.
BELL_VECTORS = np.array([
    [1 / _s2, 0, 0, 1 / _s2],
    [1 / _s2, 0, 0, -1 / _s2],
    [0, 1 / _s2, 1 / _s2, 0],
    [0, 1 / _s2, -1 / _s2, 0],
], dtype=complex)

BELL_PROJECTORS = tuple(np.outer(v, v.conj()) for v in BELL_VECTORS)

# Coordinates of the four Bell states in (x, y, z); columns of the linear
# weights -> coords map.
BELL_COORDS = np.array([
    [-1.0, 1.0, -1.0],
    [1.0, -1.0, -1.0],
    [-1.0, -1.0, 1.0],
    [1.0, 1.0, 1.0],
])

for _p in BELL_PROJECTORS:
    _p.setflags(write=False)
BELL_VECTORS.setflags(write=False)
BELL_COORDS.setflags(write=False)


class InvalidWeightsError(NumericsError):
    pass


class NotBellDiagonalError(NumericsError):
    pass


class OutOfTetrahedronError(NumericsError):
    pass


def validate_weights(lam):
    """Return `lam` as a float array after checking the probability
    invariants; a weight within TOL.tie below 0 reads as 0.  Every function
    of this module that returns Bell weights applies this rule."""
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (4,):
        raise InvalidWeightsError("weight vector must have 4 components")
    low = lam.min()
    # negated comparisons, so a NaN entry fails them
    if not low >= -TOL.tie:
        kind = "non-finite" if np.isnan(low) else "negative"
        raise InvalidWeightsError(f"{kind} weight {low}")
    if low < 0:  # rounding dust
        lam = np.maximum(lam, 0.0)
    if not abs(lam.sum() - 1.0) <= TOL.equality:
        raise InvalidWeightsError(f"weights sum to {lam.sum()}, expected 1")
    return lam


def weights_to_density(lam):
    """Bell-diagonal density matrix sum_i lam_i |Phi_i><Phi_i|: the inverse
    of density_to_weights' basis change."""
    U = BELL_VECTORS.T  # columns are Bell vectors
    return (U * validate_weights(lam)) @ U.conj().T


def density_to_weights(rho):
    """Bell weights of a Bell-diagonal density matrix.

    Raises NotBellDiagonalError if any off-diagonal Bell-basis element
    exceeds TOL.equality, and InvalidWeightsError if the diagonal is no
    weight vector.
    """
    rho = np.asarray(rho, dtype=complex)
    U = BELL_VECTORS.T  # columns are Bell vectors
    in_bell = U.conj().T @ rho @ U
    off = in_bell - np.diag(np.diag(in_bell))
    # negated, so a NaN element fails it
    if not np.abs(off).max() <= TOL.equality:
        raise NotBellDiagonalError(
            f"off-diagonal Bell element {np.abs(off).max():.3e}")
    return validate_weights(np.real(np.diag(in_bell)))


def weights_to_coords(lam):
    """Linear map to (-<sx sx>, -<sy sy>, -<sz sz>)."""
    lam = validate_weights(lam)
    return BELL_COORDS.T @ lam


def coords_to_weights(xyz):
    """Inverse of weights_to_coords; the point's weights must pass
    validate_weights, so it lies in the state tetrahedron.

    The columns of [1 | BELL_COORDS] are orthogonal with squared norm 4, so
    lam = (1 + BELL_COORDS @ xyz) / 4.
    """
    xyz = np.asarray(xyz, dtype=float)
    if xyz.shape != (3,):
        raise OutOfTetrahedronError(f"point {xyz} must have 3 coordinates")
    try:
        return validate_weights((1.0 + BELL_COORDS @ xyz) / 4.0)
    except InvalidWeightsError as exc:
        raise OutOfTetrahedronError(
            f"point {xyz} outside the Bell tetrahedron") from exc


def canonical_order(lam):
    """Sort weights descending; returns (ordered, perm) with ordered[k] = lam[perm[k]].

    Ties break stably: the lowest original index comes first, so an
    already-ordered input gets the identity permutation.
    """
    lam = validate_weights(lam)
    perm = np.argsort(-lam, kind="stable")
    return lam[perm], tuple(int(p) for p in perm)


def is_ordered(lam):
    lam = np.asarray(lam, dtype=float)
    return bool(np.all(np.diff(lam) <= TOL.tie))


def is_entangled_bd(lam):
    """Entanglement of a Bell-diagonal state: max weight beyond 1/2.

    Boundary states (max weight exactly 1/2) count as separable; the
    separable octahedron is closed.
    """
    return _exceeds_half(validate_weights(lam))


def _exceeds_half(lam):
    """is_entangled_bd for an already validated weight vector, as the largest
    weight beyond half the sum, which is 1 up to rounding."""
    w = lam.tolist()
    return max(w) - sum(w) / 2 > TOL.tie
