"""4x4 r-matrix representation of Pauli-symmetric four-qubit operators.

A four-qubit operator invariant under U x U x V x V (U, V in the Pauli group)
is a combination sum_ij M[i,j] Pi_i (x) Pi_j of tensored Bell projectors, so
it is diagonal in the product Bell basis Phi_i (x) Phi_j: the 4x4 real
r-matrix M, read as that diagonal, and the 16x16 operator differ by one basis
change.  The 16x16 operators order their qubits A', A'', B', B'' (big-endian
binary indexing): Pi_i acts on the pair A'B' and Pi_j on A''B'', and the
separability cut A|B is the 4x4 (x) 4x4 split.
"""

from __future__ import annotations

import numpy as np

from .bell import BELL_VECTORS, PAULI_I, PAULI_X, PAULI_Z
from .numerics import (DimensionMismatchError, NonHermitianError,
                       NumericsError, is_hermitian)


class UnsupportedPairError(NumericsError):
    pass


# row 4 i + j is Phi_i (x) Phi_j: the kron orders its qubits A', B', A'',
# B'', and the index array swaps the middle two
_BELL_PAIRS = np.kron(BELL_VECTORS, BELL_VECTORS)[
    :, np.arange(16).reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).ravel()]


def assemble(M):
    """16x16 matrix sum_ij M[i,j] Pi_i (x) Pi_j."""
    M = np.asarray(M, dtype=float)
    return (_BELL_PAIRS.T * M.ravel()) @ _BELL_PAIRS.conj()


def project_to_commutant(rho):
    """r[i,j] = tr[rho (Pi_i x Pi_j)]; the twirl onto the symmetric commutant.

    Accepts any Hermitian 16x16 input; non-symmetric matrices are projected
    without warning.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (16, 16):
        raise DimensionMismatchError("expected a 16x16 operator")
    if not is_hermitian(rho):
        raise NonHermitianError("input to project_to_commutant not Hermitian")
    # the diagonal of rho in the product Bell basis
    return np.einsum("ka,ab,kb->k", _BELL_PAIRS.conj(), rho,
                     _BELL_PAIRS).real.reshape(4, 4)


# Bell-swap unitaries: product operators (one factor per qubit of a Bell
# pair) whose conjugation transposes two adjacent Bell projectors while
# fixing the other two.  Verified numerically in the test suite; note these
# differ from a published listing whose first and third entries are
# interchanged.
_H = (PAULI_X + PAULI_Z) / np.sqrt(2.0)
_SWAP_FACTORS = {
    (0, 1): ((PAULI_I + 1j * PAULI_Z) / np.sqrt(2.0),
             (PAULI_I + 1j * PAULI_Z) / np.sqrt(2.0)),
    (1, 2): (_H, _H),
    (2, 3): ((PAULI_I - 1j * PAULI_Z) / np.sqrt(2.0),
             (PAULI_I + 1j * PAULI_Z) / np.sqrt(2.0)),
}


def swap_factors(i, j):
    """Single-qubit factors (vA, vB) with kron(vA, vB) swapping Pi_i, Pi_j.

    Only adjacent pairs (0,1), (1,2), (2,3) are primitive; compose for the
    rest (see bell_permutation_factors).
    """
    key = (min(i, j), max(i, j))
    if key not in _SWAP_FACTORS:
        raise UnsupportedPairError(
            f"no primitive swap for Bell pair {key}; compose adjacent swaps")
    return _SWAP_FACTORS[key]


def _build_permutation_table():
    """BFS over S4 generated by the adjacent swaps, accumulating factors.

    Composing a swap unitary on the left post-composes the realized index
    map: if conjugation by U realizes c, conjugation by V_(k,k+1) U realizes
    the transposition (k k+1) applied after c.
    """
    identity = (0, 1, 2, 3)
    table = {identity: (np.eye(2, dtype=complex), np.eye(2, dtype=complex))}
    frontier = [identity]
    while frontier:
        nxt = []
        for cur in frontier:
            uA, uB = table[cur]
            for k in range(3):
                swap = {k: k + 1, k + 1: k}
                new = tuple(swap.get(c, c) for c in cur)
                if new not in table:
                    vA, vB = _SWAP_FACTORS[(k, k + 1)]
                    table[new] = (vA @ uA, vB @ uB)
                    nxt.append(new)
        frontier = nxt
    return table


_PERMUTATION_FACTORS = _build_permutation_table()


def bell_permutation_factors(perm):
    """Factors (uA, uB) with conjugation by kron(uA, uB) sending Pi_k -> Pi_perm[k].

    Any 4-permutation, built by composing adjacent Bell swaps.
    """
    key = tuple(int(p) for p in perm)
    if key not in _PERMUTATION_FACTORS:
        raise UnsupportedPairError(f"{perm} is not a 4-permutation")
    return _PERMUTATION_FACTORS[key]
