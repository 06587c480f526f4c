import itertools

import numpy as np
import pytest

from slocc.bell import BELL_PROJECTORS
from slocc.numerics import NonHermitianError
from slocc.symmetric import (PAPER_TO_CUT, QubitOrdering, UnsupportedPairError,
                             assemble, bell_permutation_factors,
                             project_to_commutant, reorder, swap_factors)


def test_reorder_round_trip():
    rng = np.random.default_rng(21)
    rho = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    back = reorder(reorder(rho, QubitOrdering.PAPER, QubitOrdering.CUT),
                   QubitOrdering.CUT, QubitOrdering.PAPER)
    assert np.abs(back - rho).max() == 0
    assert np.abs(PAPER_TO_CUT @ PAPER_TO_CUT.T - np.eye(16)).max() == 0


def test_reorder_moves_qubits():
    # basis state |a' b' a'' b''> in PAPER ordering is |a' a'' b' b''> in CUT
    # ordering; the eight with b' != a'' move
    moved = 0
    for a1, b1, a2, b2 in itertools.product((0, 1), repeat=4):
        paper = 8 * a1 + 4 * b1 + 2 * a2 + b2
        cut = 8 * a1 + 4 * a2 + 2 * b1 + b2
        rho = np.zeros((16, 16))
        rho[paper, paper] = 1.0
        expected = np.zeros((16, 16))
        expected[cut, cut] = 1.0
        assert np.array_equal(
            reorder(rho, QubitOrdering.PAPER, QubitOrdering.CUT), expected)
        moved += cut != paper
    assert moved == 8


def _tensored_projectors(ordering):
    """Pi_i (x) Pi_j from their definition, reordered to `ordering`."""
    return [[reorder(np.kron(BELL_PROJECTORS[i], BELL_PROJECTORS[j]),
                     QubitOrdering.PAPER, ordering) for j in range(4)]
            for i in range(4)]


def test_assemble_project_round_trip():
    # against the definitions sum_ij M_ij Pi_i (x) Pi_j and
    # tr[rho (Pi_i (x) Pi_j)]: a transposed assemble paired with a transposed
    # project_to_commutant would still round-trip
    rng = np.random.default_rng(22)
    for ordering in QubitOrdering:
        proj = _tensored_projectors(ordering)
        M = rng.dirichlet(np.ones(16)).reshape(4, 4)
        rho = assemble(M, ordering)
        direct = sum(M[i, j] * proj[i][j] for i in range(4) for j in range(4))
        assert np.abs(rho - direct).max() < 1e-14
        A = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        sigma = A @ A.conj().T / 64.0
        traces = [[np.trace(sigma @ proj[i][j]).real for j in range(4)]
                  for i in range(4)]
        assert np.abs(project_to_commutant(sigma, ordering)
                      - traces).max() < 1e-14
        r = project_to_commutant(rho, ordering)
        assert np.abs(r - M).max() < 1e-12


def test_project_requires_hermitian():
    bad = np.zeros((16, 16))
    bad[0, 1] = 1.0
    with pytest.raises(NonHermitianError):
        project_to_commutant(bad)


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
