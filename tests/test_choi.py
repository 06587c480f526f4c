import numpy as np
import pytest

from slocc.bell import weights_to_density
from slocc.choi import (AnnihilatedError, BOutOfRangeError, NotAVertexError,
                        SeparableMap, apply_map_density, channel_from_cj,
                        cj_rmatrix, cj_state, kraus_for_vertex, map_action_bd,
                        quasi_reverse_map, rho_nd, rho_nd_prime)
from slocc.numerics import DimensionMismatchError, InvalidStateError
from slocc.separability import D0, G0, vertex_set


def test_normalize_scales_to_unit_max_eig():
    A = 3.0 * np.eye(2)
    m = SeparableMap(kraus=[(A, A)]).normalize()
    S = sum(K.conj().T @ K for K in m.combined())
    assert abs(np.linalg.eigvalsh(S).max() - 1.0) < 1e-12
    assert abs(m.scale - 81.0) < 1e-10  # |3*3|^2


def test_apply_map_density_weight():
    half = SeparableMap(kraus=[(np.eye(2) / np.sqrt(2), np.eye(2))])
    rho = np.eye(4) / 4.0
    out, w = apply_map_density(half, rho)
    assert abs(w - 0.5) < 1e-12
    assert np.abs(out - rho).max() < 1e-12


def test_apply_map_annihilation():
    P = np.diag([1.0, 0.0])
    m = SeparableMap(kraus=[(P, np.eye(2))])
    ket = np.array([0, 1.0])
    rho = np.kron(np.outer(ket, ket), np.eye(2) / 2)
    with pytest.raises(AnnihilatedError):
        apply_map_density(m, rho)
    for refuse in (cj_rmatrix, SeparableMap.normalize):
        with pytest.raises(AnnihilatedError):
            refuse(SeparableMap(kraus=[]))
    # a NaN success weight is refused, not returned
    with pytest.raises(InvalidStateError, match="non-finite r-matrix"):
        map_action_bd(np.full((4, 4), np.nan), [0.7, 0.1, 0.1, 0.1])
    with pytest.raises(InvalidStateError, match="non-finite state"):
        apply_map_density(m, np.full((4, 4), np.nan))
    nan_map = SeparableMap(kraus=[(np.full((2, 2), np.nan), P)])
    for refuse in (cj_rmatrix, SeparableMap.normalize):
        with pytest.raises(InvalidStateError, match="non-finite Kraus"):
            refuse(nan_map)
    # Kraus factors that are not 2x2, and a state that is not 4x4, are
    # refused before numpy reshapes or multiplies them
    wide = SeparableMap(kraus=[(np.eye(4), np.eye(4))])
    for refuse in (cj_rmatrix, SeparableMap.normalize,
                   lambda w: apply_map_density(w, rho)):
        with pytest.raises(DimensionMismatchError, match="2x2"):
            refuse(wide)
    with pytest.raises(DimensionMismatchError, match="4x4 state"):
        apply_map_density(m, np.eye(3) / 3)


def test_map_action_bd_examples():
    lam = np.array([0.7, 0.1, 0.1, 0.1])
    out, w = map_action_bd(D0, lam)
    assert np.abs(out - lam).max() < 1e-12
    assert abs(w - 1.0) < 1e-12
    out, w = map_action_bd(G0, lam)
    assert np.abs(out - [0.5, 0.5, 0, 0]).max() < 1e-12
    assert abs(w - 0.8) < 1e-12  # lam1 + lam2
    # r need not sum to 1, but it must be 4x4, finite and nonnegative
    out, w = map_action_bd(4 * D0, lam)
    assert np.abs(out - lam).max() < 1e-12 and abs(w - 1.0) < 1e-12
    nan = 4 * D0
    nan[1, 2] = np.nan
    for bad, message in ((0.5 - np.eye(4), "negative"),
                         (np.full((4, 4), np.inf), "non-finite r-matrix"),
                         (nan, "non-finite r-matrix"),
                         (D0[:3], "4x4"), (np.ones(4) / 4, "4x4")):
        with pytest.raises(InvalidStateError, match=message):
            map_action_bd(bad, lam)


def test_cj_round_trip_seed_vertices():
    for v in (D0, G0):
        r = cj_rmatrix(kraus_for_vertex(v))
        assert np.abs(r - v).max() < 1e-10


def test_cj_round_trip_sampled_vertices():
    verts = vertex_set()
    for v in verts[::7]:
        r = cj_rmatrix(kraus_for_vertex(v))
        assert np.abs(r - v).max() < 1e-10


def test_vertex_structure_rejects_non_vertices():
    with pytest.raises(NotAVertexError):
        kraus_for_vertex(np.full((4, 4), 1 / 16))


@pytest.mark.parametrize("v", [D0, G0, vertex_set()[17], vertex_set()[45]])
def test_vertex_lookup_slack_is_absolute_tie(v):
    # entries are matched to 0 or 1/4 within TOL.tie, with no relative slack
    i, j = np.argwhere(v == 0.25)[-1]
    near = v.copy()
    near[i, j] += 1e-13
    assert np.abs(cj_rmatrix(kraus_for_vertex(near)) - near).max() < 1e-10
    far = v.copy()
    far[i, j] += 1e-9
    with pytest.raises(NotAVertexError):
        kraus_for_vertex(far)


def test_channel_from_cj_matches_kraus_action():
    rng = np.random.default_rng(41)
    m = kraus_for_vertex(G0)
    dual = cj_state(m)
    for _ in range(5):
        A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = A @ A.conj().T
        rho /= np.trace(rho).real
        direct = sum(K @ rho @ K.conj().T for K in m.combined())
        via_dual = channel_from_cj(dual, rho)
        assert np.abs(direct - via_dual).max() < 1e-10
    # a dual or a state of the wrong size is refused, not cut to size
    for bad_dual, bad_rho in ((np.eye(32), rho), (dual, np.eye(8) / 8),
                              (dual[:4, :4], rho)):
        with pytest.raises(DimensionMismatchError):
            channel_from_cj(bad_dual, bad_rho)


def test_dual_action_consistent_with_rmatrix_action():
    # the commutant projection of the dual acts on Bell weights exactly as
    # the full map acts on the Bell-diagonal density matrix, with the same
    # success probability
    lam = np.array([0.7, 0.1, 0.1, 0.1])
    for v in vertex_set():
        m = kraus_for_vertex(v)
        out_rho, w_rho = apply_map_density(m, weights_to_density(lam))
        out_lam, w_lam = map_action_bd(cj_rmatrix(m), lam)
        assert np.abs(out_rho - weights_to_density(out_lam)).max() < 1e-10
        assert abs(w_lam - w_rho) < 1e-12 and w_lam <= 1.0


def test_rho_nd_spectrum():
    vals = np.sort(np.linalg.eigvalsh(rho_nd(0.25)))
    assert np.abs(vals - [0.0, 0.125, 0.375, 0.5]).max() < 1e-12
    with pytest.raises(BOutOfRangeError):
        rho_nd(0.6)


def test_rho_nd_prime_bell_weights():
    from slocc.bell import density_to_weights
    lam = density_to_weights(rho_nd_prime(0.3))
    # weights (1-2b)/2 on Phi_3 and (1+2b)/2 on Phi_4
    assert np.abs(lam - [0.0, 0.0, 0.2, 0.8]).max() < 1e-12


def test_quasi_reverse_direction():
    for b in (0.0, 0.1, 0.25, 0.4, 0.5):
        out, w = apply_map_density(quasi_reverse_map(b), rho_nd_prime(b))
        assert np.abs(out - rho_nd(b)).max() < 1e-10
        assert w > 0
