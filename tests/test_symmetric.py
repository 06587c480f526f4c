import itertools

import numpy as np
import pytest

from slocc.bell import BELL_PROJECTORS
from slocc.numerics import DimensionMismatchError, NonHermitianError
from slocc.symmetric import (UnsupportedPairError, assemble,
                             bell_permutation_factors, project_to_commutant,
                             swap_factors)


def _tensored_projectors():
    """Pi_i (x) Pi_j from their definition, with the qubits A' B' A'' B'' of
    the kron moved to A' A'' B' B'' by a reshape and transpose."""
    def cut(op):
        return op.reshape((2,) * 8).transpose(0, 2, 1, 3, 4, 6, 5, 7) \
            .reshape(16, 16)
    return [[cut(np.kron(BELL_PROJECTORS[i], BELL_PROJECTORS[j]))
             for j in range(4)] for i in range(4)]


def test_assemble_project_round_trip():
    # against the definitions sum_ij M_ij Pi_i (x) Pi_j and
    # tr[rho (Pi_i (x) Pi_j)]: a transposed assemble paired with a transposed
    # project_to_commutant, or one without the qubit permutation, would
    # still round-trip
    rng = np.random.default_rng(22)
    proj = _tensored_projectors()
    for _ in range(2):
        M = rng.dirichlet(np.ones(16)).reshape(4, 4)
        rho = assemble(M)
        direct = sum(M[i, j] * proj[i][j] for i in range(4) for j in range(4))
        assert np.abs(rho - direct).max() < 1e-14
        A = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        sigma = A @ A.conj().T / 64.0
        traces = [[np.trace(sigma @ proj[i][j]).real for j in range(4)]
                  for i in range(4)]
        assert np.abs(project_to_commutant(sigma) - traces).max() < 1e-14
        r = project_to_commutant(rho)
        assert np.abs(r - M).max() < 1e-12


def test_project_requires_hermitian():
    bad = np.zeros((16, 16))
    bad[0, 1] = 1.0
    with pytest.raises(NonHermitianError):
        project_to_commutant(bad)
    # a Hermitian operator that is not 16x16 is refused, not broadcast
    with pytest.raises(DimensionMismatchError):
        project_to_commutant(np.eye(4))


def test_projection_is_a_twirl():
    # projecting a non-symmetric state keeps its symmetric component
    rng = np.random.default_rng(23)
    A = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    rho = A @ A.conj().T
    rho /= np.trace(rho).real
    r = project_to_commutant(rho)
    again = project_to_commutant(assemble(r))
    assert np.abs(again - r).max() < 1e-12


def _bell_action(U):
    """Permutation realized by conjugation with the 4x4 unitary U."""
    perm = []
    for P in BELL_PROJECTORS:
        img = U @ P @ U.conj().T
        hits = [j for j, Q in enumerate(BELL_PROJECTORS)
                if np.abs(img - Q).max() < 1e-12]
        assert len(hits) == 1
        perm.append(hits[0])
    return tuple(perm)


def test_adjacent_swaps_transpose_projectors():
    for (i, j) in ((0, 1), (1, 2), (2, 3)):
        U = np.kron(*swap_factors(i, j))
        assert np.abs(U @ U.conj().T - np.eye(4)).max() < 1e-12
        expected = [0, 1, 2, 3]
        expected[i], expected[j] = expected[j], expected[i]
        assert _bell_action(U) == tuple(expected)


def test_swap_factors_only_adjacent():
    with pytest.raises(UnsupportedPairError):
        swap_factors(0, 2)
    # order-insensitive
    assert _bell_action(np.kron(*swap_factors(1, 0))) == (1, 0, 2, 3)


def test_all_permutations_realized():
    # every Bell permutation is realized by a product unitary
    for perm in itertools.permutations(range(4)):
        uA, uB = bell_permutation_factors(perm)
        for u in (uA, uB):
            assert np.abs(u @ u.conj().T - np.eye(2)).max() < 1e-12
        assert _bell_action(np.kron(uA, uB)) == perm


def test_bad_permutation_rejected():
    with pytest.raises(UnsupportedPairError):
        bell_permutation_factors((0, 0, 1, 2))
