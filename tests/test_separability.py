import numpy as np
import pytest

import slocc.separability
from slocc.numerics import Outside, convex_membership, partial_transpose
from slocc.separability import (CANONICAL_WITNESSES, ConvexDecomposition, D0,
                                G0, InvalidStateError, ViolatedWitness,
                                is_separable, min_witness_values,
                                seesaw_min_product,
                                symmetric_subspace_projector, validate_rmatrix,
                                verify_extension_certificate_W2, vertex_set,
                                witness_orbit, witness_value,
                                z2_certificate_matrix)
from slocc.symmetric import QubitOrdering, assemble

# W2..W4 count both the canonical witness's orbit and its transpose's
ORBIT_SIZES = {"W0": 16, "W1": 16, "W2": 96, "W3": 576, "W4": 576}


def test_vertex_count():
    assert len(vertex_set()) == 60
    for v in vertex_set():
        assert v.min() >= 0 and abs(v.sum() - 1) < 1e-15


def test_witness_orbit_sizes():
    counts = {}
    for w in witness_orbit():
        counts[w.family] = counts.get(w.family, 0) + 1
    assert counts == ORBIT_SIZES


def test_every_witness_nonnegative_on_every_vertex():
    W = np.stack([w.matrix for w in witness_orbit()])
    assert np.tensordot(W, np.stack(vertex_set()), axes=([1, 2], [1, 2])).min() \
        >= 0


def test_transposed_witnesses_follow_the_originals():
    orbit = witness_orbit()
    flags = [w.transposed for w in orbit]
    assert flags == sorted(flags) and flags.count(False) == 656
    for w in orbit:
        base = CANONICAL_WITNESSES[w.family]
        base = base.T if w.transposed else base
        assert np.array_equal(w.matrix, base[np.ix_(w.row_perm, w.col_perm)])


def test_just_outside_a_transposed_w2_facet():
    # a relative-interior point of a permuted W2^T facet, pushed a little
    # toward the entry where W2^T is -1: no untransposed witness is negative
    # there, so only the transposed orbit can agree with the LP
    rng = np.random.default_rng(33)
    Wt = CANONICAL_WITNESSES["W2"].T
    verts = np.stack(vertex_set())
    on = verts[np.abs(np.tensordot(verts, Wt, axes=2)) < 1e-12]
    out = np.zeros((4, 4))
    out[np.unravel_index(np.argmin(Wt), Wt.shape)] = 1.0
    for _ in range(20):
        p = np.tensordot(rng.dirichlet(np.ones(len(on))), on, axes=1)
        r = (1 - 1e-3) * p + 1e-3 * out
        r = r[np.ix_(rng.permutation(4), rng.permutation(4))]
        cert = is_separable(r)
        assert isinstance(cert, ViolatedWitness)
        assert cert.witness.family == "W2" and cert.witness.transposed
        assert cert.value == pytest.approx(witness_value(cert.witness, r))
        assert cert.value < 0


def test_witness_value_examples():
    r41 = np.zeros((4, 4))
    r41[3, 0] = 1.0
    assert witness_value(CANONICAL_WITNESSES["W1"], r41) == -1.0
    assert witness_value(CANONICAL_WITNESSES["W1"], D0) == 1.0
    assert witness_value(CANONICAL_WITNESSES["W2"], G0) == 0.5


def test_validate_rmatrix():
    with pytest.raises(InvalidStateError):
        validate_rmatrix(np.eye(4))  # sums to 4
    with pytest.raises(InvalidStateError):
        validate_rmatrix(-D0)


def test_seed_states_separable_with_tight_decomposition():
    for seed in (D0, G0):
        cert = is_separable(seed)
        assert isinstance(cert, ConvexDecomposition)
        recon = sum(w * v for w, v in zip(cert.weights, vertex_set()))
        assert np.abs(recon - seed).max() < 1e-9


def test_uniform_state_separable():
    cert = is_separable(np.full((4, 4), 1 / 16))
    assert isinstance(cert, ConvexDecomposition)


def test_bell_pair_entangled():
    r41 = np.zeros((4, 4))
    r41[3, 0] = 1.0
    cert = is_separable(r41)
    assert isinstance(cert, ViolatedWitness)
    assert cert.witness.family == "W1"
    assert cert.value == -1.0


def test_min_witness_values_matches_scan():
    rng = np.random.default_rng(31)
    for _ in range(10):
        r = rng.dirichlet(np.ones(16)).reshape(4, 4)
        vals = min_witness_values(r)
        direct = [witness_value(w, r) for w in witness_orbit()]
        assert np.abs(vals - direct).max() < 1e-14


def test_ppt_matches_w1_orbit():
    # partial transpose across the A|B cut is nonneg iff every W1-orbit
    # value is; spot check on random symmetric states
    rng = np.random.default_rng(32)
    w1_idx = [k for k, w in enumerate(witness_orbit()) if w.family == "W1"]
    for _ in range(100):
        r = rng.dirichlet(np.full(16, 0.5)).reshape(4, 4)
        rho = assemble(r, QubitOrdering.CUT)
        pt_min = np.linalg.eigvalsh(
            partial_transpose(rho, (4, 4), 1)).min()
        w1_min = min_witness_values(r)[w1_idx].min()
        assert (pt_min >= -1e-10) == (w1_min >= -1e-10)


def test_seesaw_nonnegative_on_witnesses():
    for k, name in enumerate(("W1", "W2")):
        Z = assemble(CANONICAL_WITNESSES[name], QubitOrdering.CUT)
        val, (a, b) = seesaw_min_product(Z, restarts=20, rng=k)
        assert val >= -1e-8
        # the returned pair reproduces the reported value
        prod = np.kron(a, b)
        assert abs(np.real(prod.conj() @ Z @ prod) - val) < 1e-9


def test_seesaw_finds_negative_control():
    neg = np.zeros((4, 4))
    neg[3, 0] = -1.0
    val, _ = seesaw_min_product(assemble(neg, QubitOrdering.CUT),
                                restarts=20, rng=0)
    assert val <= -0.2


def test_extension_certificate():
    res = verify_extension_certificate_W2(tol=1e-10)
    assert res.residual <= 1e-10
    Z2 = z2_certificate_matrix(res.matched_encoding)
    assert np.linalg.eigvalsh(Z2).min() >= -1e-12
    piA = symmetric_subspace_projector(4)
    assert np.linalg.matrix_rank(piA) == 10
    assert np.abs(piA @ piA - piA).max() < 1e-12


def test_entangled_solves_no_lp(monkeypatch):
    calls = []
    original = slocc.separability.convex_membership

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(slocc.separability, "convex_membership", counted)
    r41 = np.zeros((4, 4))
    r41[3, 0] = 1.0
    assert isinstance(is_separable(r41), ViolatedWitness)
    assert calls == []
    assert isinstance(is_separable(D0), ConvexDecomposition)
    assert len(calls) == 1


@pytest.mark.parametrize("symmetrise", [False, True])
def test_witness_scan_agrees_with_lp(symmetrise):
    # the LP is the independent oracle for the scan's NO answers
    rng = np.random.default_rng(34 + symmetrise)
    verts = np.stack([v.ravel() for v in vertex_set()])
    answers = set()
    for _ in range(300):
        d = rng.dirichlet(np.full(16, 1.4)).reshape(4, 4)
        r = (d + d.T) / 2 if symmetrise else d
        cert = is_separable(r)
        answers.add(type(cert))
        if isinstance(cert, ViolatedWitness):
            assert isinstance(convex_membership(verts, r.ravel()), Outside)
        else:
            assert np.abs(cert.weights @ verts - r.ravel()).max() < 1e-8
    assert answers == {ViolatedWitness, ConvexDecomposition}


@pytest.mark.parametrize("family,transposed", [
    ("W0", False), ("W1", False), ("W2", False), ("W3", False),
    ("W4", False), ("W2", True)])
def test_points_1e9_from_a_permuted_facet(family, transposed):
    # p is a relative-interior point of the facet <W, r> = 0; moving 1e-9
    # toward the entry where W is -1 crosses it, moving 1e-9 toward the
    # centroid of the polytope does not
    rng = np.random.default_rng(36)
    W = CANONICAL_WITNESSES[family]
    W = W.T if transposed else W
    verts = np.stack(vertex_set())
    on = verts[np.abs(np.tensordot(verts, W, axes=2)) < 1e-12]
    out = np.zeros((4, 4))
    out[np.unravel_index(np.argmin(W), W.shape)] = 1.0
    t = 1e-9
    for _ in range(5):
        p = np.tensordot(rng.dirichlet(np.ones(len(on))), on, axes=1)
        perm = np.ix_(rng.permutation(4), rng.permutation(4))
        inside = ((1 - t) * p + t * verts.mean(axis=0))[perm]
        assert isinstance(is_separable(inside), ConvexDecomposition)
        if family == "W0":
            # W0 is entrywise positivity: crossing it makes an entry
            # negative, which validation rejects before any scan
            r = p.copy()
            r[0, 0] -= t
            r[0, 1] += t
            with pytest.raises(InvalidStateError):
                is_separable(r[perm])
            continue
        r = ((1 - t) * p + t * out)[perm]
        cert = is_separable(r)
        assert isinstance(cert, ViolatedWitness)
        assert (cert.witness.family, cert.witness.transposed) == \
            (family, transposed)
        assert cert.value == pytest.approx(-t, rel=1e-3)
