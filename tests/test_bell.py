import numpy as np
import pytest

from slocc.bell import (BELL_COORDS, BELL_PROJECTORS, BELL_VECTORS,
                        InvalidWeightsError, NotBellDiagonalError,
                        OutOfTetrahedronError, canonical_order,
                        coords_to_weights, density_to_weights,
                        is_entangled_bd, is_ordered, validate_weights,
                        weights_to_coords, weights_to_density)


def test_bell_vectors_orthonormal():
    G = BELL_VECTORS @ BELL_VECTORS.conj().T
    assert np.abs(G - np.eye(4)).max() < 1e-15


def test_projectors_resolve_identity():
    total = sum(BELL_PROJECTORS)
    assert np.abs(total - np.eye(4)).max() < 1e-15


def test_bell_coordinates_exact():
    # correlation coordinates (-<xx>, -<yy>, -<zz>) of the four Bell states
    expected = [(-1, 1, -1), (1, -1, -1), (-1, -1, 1), (1, 1, 1)]
    for k in range(4):
        e = np.zeros(4)
        e[k] = 1.0
        assert tuple(weights_to_coords(e)) == expected[k]
    assert np.array_equal(BELL_COORDS, np.array(expected, dtype=float))


def test_weights_density_round_trip():
    rng = np.random.default_rng(11)
    for _ in range(20):
        lam = rng.dirichlet(np.ones(4))
        rho = weights_to_density(lam)
        direct = sum(li * proj for li, proj in zip(lam, BELL_PROJECTORS))
        assert np.abs(rho - direct).max() < 1e-14
        back = density_to_weights(rho)
        assert np.abs(back - lam).max() < 1e-14


def test_density_to_weights_rejects_off_diagonal():
    rho = np.full((4, 4), 0.25, dtype=complex)  # |++><++|, not Bell-diagonal
    with pytest.raises(NotBellDiagonalError):
        density_to_weights(rho)


def test_density_to_weights_rejects_nan():
    rho = weights_to_density([0.7, 0.1, 0.1, 0.1])
    rho[0, 1] = rho[1, 0] = np.nan
    with pytest.raises(NotBellDiagonalError):
        density_to_weights(rho)


def test_density_to_weights_checks_the_weights():
    with pytest.raises(InvalidWeightsError):
        density_to_weights(2 * np.eye(4))


def test_coords_round_trip_and_rejection():
    rng = np.random.default_rng(12)
    for _ in range(20):
        lam = rng.dirichlet(np.ones(4))
        back = coords_to_weights(weights_to_coords(lam))
        assert np.abs(back - lam).max() < 1e-9
    for bad in ([1.0, 1.0, -1.0], [np.nan, 0.0, 0.0], [0.0, 0.0]):
        with pytest.raises(OutOfTetrahedronError):
            coords_to_weights(np.array(bad))


@pytest.mark.parametrize("outside, accepted",
                         [(5e-13, True), (5e-11, False), (5e-10, False)])
def test_coords_to_weights_accepts_what_validate_weights_accepts(outside,
                                                                 accepted):
    # just outside the Phi_4 vertex (1, 1, 1) the other three weights read
    # -outside / 4: rounding dust at 5e-13, out of the tetrahedron beyond
    xyz = np.full(3, 1.0 + outside)
    lam = (1.0 + BELL_COORDS @ xyz) / 4.0
    if accepted:
        assert np.array_equal(coords_to_weights(xyz), validate_weights(lam))
        assert coords_to_weights(xyz).min() == 0
    else:
        with pytest.raises(InvalidWeightsError):
            validate_weights(lam)
        with pytest.raises(OutOfTetrahedronError):
            coords_to_weights(xyz)


def test_validate_weights():
    # a weight within TOL.tie below 0 is rounding dust and reads as 0
    assert validate_weights([0.7, 0.2, 0.1 + 5e-13, -5e-13])[3] == 0
    with pytest.raises(InvalidWeightsError):
        validate_weights([0.5, 0.5, 0.5, -0.5])
    with pytest.raises(InvalidWeightsError):
        validate_weights([0.5, 0.5, 0.5])
    with pytest.raises(InvalidWeightsError):
        validate_weights([0.5, 0.5, 0.5, 0.5])
    with pytest.raises(InvalidWeightsError):
        validate_weights([np.nan, 0.5, 0.5, 0.0])


def test_canonical_order_stable_ties():
    lam = np.array([0.1, 0.4, 0.4, 0.1])
    ordered, perm = canonical_order(lam)
    assert np.array_equal(ordered, [0.4, 0.4, 0.1, 0.1])
    assert perm == (1, 2, 0, 3)
    already = np.array([0.7, 0.1, 0.1, 0.1])
    assert canonical_order(already)[1] == (0, 1, 2, 3)
    assert is_ordered(ordered) and not is_ordered(lam)


def test_entanglement_threshold():
    assert is_entangled_bd([0.7, 0.1, 0.1, 0.1])
    assert not is_entangled_bd([0.5, 0.5, 0.0, 0.0])   # boundary is separable
    assert not is_entangled_bd([0.25, 0.25, 0.25, 0.25])
    assert is_entangled_bd([0.1, 0.1, 0.1, 0.7])       # position-independent
