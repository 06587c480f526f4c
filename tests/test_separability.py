import itertools
import os
import re
import subprocess
import sys

import numpy as np
import pytest
import scipy.optimize
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import slocc.separability
from slocc.numerics import (TOL, DimensionMismatchError, convex_membership,
                            partial_transpose)
from slocc.separability import (CANONICAL_WITNESSES, CertificateMismatchError,
                                ConvexDecomposition, D0, G0,
                                InvalidStateError, ViolatedWitness,
                                is_separable, min_witness_values,
                                seesaw_min_product,
                                symmetric_subspace_projector, validate_rmatrix,
                                verify_extension_certificate_W2, vertex_set,
                                witness_orbit, witness_value,
                                z2_certificate_matrix)
from slocc.symmetric import assemble

# W2..W4 count both the canonical witness's orbit and its transpose's
ORBIT_SIZES = {"W0": 16, "W1": 16, "W2": 96, "W3": 576, "W4": 576}
VERTS = np.stack([v.ravel() for v in vertex_set()])


def _checked_decomposition(r, on_or_inside=True):
    """is_separable's ConvexDecomposition of r, with weights above
    TOL.negligible (no rounding dust) on at most 16 vertices (Caratheodory
    in 15 dimensions) that rebuild r within TOL.equality, or TOL.solver for
    r just outside the polytope."""
    cert = is_separable(r)
    assert isinstance(cert, ConvexDecomposition)
    assert np.frombuffer(cert.coefficients).min() > TOL.negligible
    w = cert.weights
    assert w.min() >= 0 and len(cert.support) == np.count_nonzero(w) <= 16
    miss = np.abs(w @ VERTS - np.ravel(r)).max()
    assert miss <= (TOL.equality if on_or_inside else TOL.solver)
    return cert


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


def _loop_orbit(base):
    """Reference for separability._orbit: each distinct base[rp][:, cp], with
    the first (rp, cp) in lexicographic order that gives it."""
    seen = {}
    for rp, cp in itertools.product(itertools.permutations(range(4)),
                                    repeat=2):
        m = base[np.ix_(rp, cp)]
        seen.setdefault(m.tobytes(), (m, rp, cp))
    return list(seen.values())


def test_orbit_order_matches_the_permutation_loop():
    # certificate indices into vertex_set() and witness_orbit() rest on
    # this order
    seeds = [(name, m, rp, cp) for name, base in (("D0", D0), ("G0", G0))
             for m, rp, cp in _loop_orbit(base)]
    assert [v.tobytes() for v in vertex_set()] == \
        [m.tobytes() for _, m, _, _ in seeds]
    assert list(slocc.separability._vertex_origins().items()) == \
        [(m.tobytes(), (name, rp, cp)) for name, m, rp, cp in seeds]
    scan = [(f, False) for f in ("W0", "W1", "W2", "W3", "W4")] \
        + [(f, True) for f in ("W2", "W3", "W4")]
    expected = []
    for family, transposed in scan:
        base = CANONICAL_WITNESSES[family]
        for m, rp, cp in _loop_orbit(base.T if transposed else base):
            expected.append((m.tobytes(), family, rp, cp, transposed))
    orbit = witness_orbit()
    assert [(w.matrix.tobytes(), w.family, w.row_perm, w.col_perm,
             w.transposed) for w in orbit] == expected
    stack = slocc.separability._witness_stack()
    assert stack.shape == (len(orbit), 16)
    for k, w in enumerate(orbit):
        assert stack[k].tobytes() == w.matrix.tobytes()
    for m in [*vertex_set(), *(w.matrix for w in orbit), stack]:
        assert not m.flags.writeable
    # each of the ten orbits (D0, G0, W0-W4, transposed W2-W4) built once
    assert slocc.separability._orbit.cache_info().currsize == 10


def test_import_builds_no_orbit():
    # the orbits are built on first use: neither import nor a
    # Bell-diagonal decision pays for them
    code = ("import slocc\n"
            "from slocc import separability as s\n"
            "slocc.can_convert_bd([0.7, 0.1, 0.1, 0.1], "
            "[0.6, 0.2, 0.1, 0.1])\n"
            "for f in (s._orbit, s.vertex_set, s._vertex_origins, "
            "s._vertex_array, s.witness_orbit, s._witness_stack, "
            "s._ppt_stack, s._walk_tables):\n"
            "    assert f.cache_info().currsize == 0, f\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(slocc.__file__)))
    subprocess.run([sys.executable, "-c", code], env=env, check=True,
                   capture_output=True)


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
    # an r that is not 4x4 is refused, not broadcast
    for bad in ([0.25] * 4, np.ones((1, 4)), np.ones((4, 4, 1)), 0.5):
        with pytest.raises(InvalidStateError, match="4x4"):
            witness_value(CANONICAL_WITNESSES["W1"], bad)
    # so is a witness that is not 4x4
    for bad in (np.ones(4), np.ones((4, 4, 1))):
        with pytest.raises(DimensionMismatchError, match="4x4"):
            witness_value(bad, D0)


def _d0_with(*entries):
    """D0 with each (index, value) of `entries` written in."""
    r = D0.copy()
    for at, value in entries:
        r[at] = value
    return r


# (bad r, message): only the NaN messages differ from those of numpy's min
# and sum checks
_INVALID_RMATRICES = [
    (np.eye(4), "entries sum to 4.0, expected 1"),
    (-D0, "negative entry -0.25"),
    (D0 * (1 + 2e-10), "entries sum to 1.0000000002, expected 1"),
    (D0 * (1 - 2e-10), "entries sum to 0.9999999998, expected 1"),
    (_d0_with(((0, 1), -2e-12)), "negative entry -2e-12"),
    (_d0_with(((1, 2), np.inf)), "entries sum to inf, expected 1"),
    (_d0_with(((1, 2), -np.inf)), "negative entry -inf"),
    (_d0_with(((1, 2), np.nan)), "non-finite entry nan"),
    (_d0_with(((1, 2), -np.inf), ((3, 0), np.nan)), "non-finite entry nan"),
    (np.full((3, 4), 1 / 12), "r-matrix must be 4x4"),
]


def test_validate_rmatrix():
    for bad, message in _INVALID_RMATRICES:
        for check in (validate_rmatrix, is_separable):
            with pytest.raises(InvalidStateError,
                               match=f"^{re.escape(message)}$"):
                check(bad)


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


@pytest.mark.parametrize("alpha", [0.4, 1.0, 1.4])
@pytest.mark.parametrize("symmetrised", [True, False])
def test_first_stage_names_the_first_violation_of_the_full_scan(
        alpha, symmetrised):
    # the first stage reads the W1 rows alone: its NO must be the full
    # scan's first violation, with the same value, and never a W0 row
    rng = np.random.default_rng([34, int(10 * alpha), symmetrised])
    orbit = witness_orbit()
    nos = 0
    for _ in range(300):
        r = rng.dirichlet(np.full(16, alpha)).reshape(4, 4)
        if symmetrised:
            r = (r + r.T) / 2
        cert = is_separable(r)
        if isinstance(cert, ConvexDecomposition):
            continue
        vals = min_witness_values(r)
        first = int(np.argmax(vals < -TOL.witness))
        assert cert.witness is orbit[first]
        assert cert.value == vals[first]
        assert cert.witness.family != "W0"
        nos += 1
    assert nos >= 30


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
        rho = assemble(r)
        pt_min = np.linalg.eigvalsh(
            partial_transpose(rho, (4, 4), 1)).min()
        w1_min = min_witness_values(r)[w1_idx].min()
        assert (pt_min >= -1e-10) == (w1_min >= -1e-10)


def test_seesaw_nonnegative_on_witnesses():
    for k, name in enumerate(("W1", "W2")):
        Z = assemble(CANONICAL_WITNESSES[name])
        val, (a, b) = seesaw_min_product(Z, restarts=20, rng=k)
        assert val >= -1e-8
        # the returned pair reproduces the reported value
        prod = np.kron(a, b)
        assert abs(np.real(prod.conj() @ Z @ prod) - val) < 1e-9


def test_seesaw_finds_negative_control():
    neg = np.zeros((4, 4))
    neg[3, 0] = -1.0
    val, _ = seesaw_min_product(assemble(neg),
                                restarts=20, rng=0)
    assert val <= -0.2


def test_extension_certificate():
    res = verify_extension_certificate_W2()
    assert res.residual <= 1e-10
    Z2 = z2_certificate_matrix()
    assert np.linalg.eigvalsh(Z2).min() >= -1e-12
    piA = symmetric_subspace_projector(4)
    assert np.linalg.matrix_rank(piA) == 10
    assert np.abs(piA @ piA - piA).max() < 1e-12


def test_extension_certificate_negative_control(monkeypatch):
    # flipping the sign of one term of one certificate vector moves the
    # residual to 0.5, so the check must fail
    terms = [list(vector) for vector in slocc.separability._Z2_VECTOR_TERMS]
    terms[0][0] = (-terms[0][0][0],) + terms[0][0][1:]
    monkeypatch.setattr(slocc.separability, "_Z2_VECTOR_TERMS",
                        tuple(tuple(vector) for vector in terms))
    with pytest.raises(CertificateMismatchError, match="residual 5.000e-01"):
        verify_extension_certificate_W2()


def test_entangled_solves_no_lp(monkeypatch):
    # convex_membership imports linprog when it is called, so patching the
    # attribute counts every LP of the package
    calls = []
    original = scipy.optimize.linprog

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "linprog", counted)
    r41 = np.zeros((4, 4))
    r41[3, 0] = 1.0
    assert isinstance(is_separable(r41), ViolatedWitness)
    assert calls == []
    assert isinstance(is_separable(D0), ConvexDecomposition)
    assert calls == []


def _ppt_draws(rng, n):
    """n unsymmetrised Dirichlet(1) r-matrices whose assembled state has a
    positive partial transpose: they pass W0 and W1, so only the second
    stage of the scan can refute them."""
    out = []
    while len(out) < n:
        r = rng.dirichlet(np.ones(16)).reshape(4, 4)
        rho = assemble(r)
        if np.linalg.eigvalsh(partial_transpose(rho, (4, 4), 1)).min() >= 0:
            out.append(r)
    return out


@pytest.mark.parametrize("draw", ["dirichlet", "symmetrised", "ppt"])
def test_witness_scan_agrees_with_lp(draw):
    # the LP is the independent oracle for both answers: the scan's NO and
    # the facet walk's decomposition.  The PPT draws check the scan's
    # second stage, which alone sees past the W0 and W1 rows.
    rng = np.random.default_rng(
        {"dirichlet": 34, "symmetrised": 35, "ppt": 36}[draw])
    if draw == "ppt":
        draws = _ppt_draws(rng, 100)
    else:
        draws = [rng.dirichlet(np.full(16, 1.4)).reshape(4, 4)
                 for _ in range(300)]
    if draw == "symmetrised":
        draws = [(d + d.T) / 2 for d in draws]
    orbit = witness_orbit()
    answers = set()
    for r in draws:
        cert = is_separable(r)
        if isinstance(cert, ViolatedWitness):
            answers.add(cert.witness.family)
            # the first violation of the full scan, with its value
            vals = min_witness_values(r)
            first = int(np.argmax(vals < -TOL.witness))
            assert orbit[first] is cert.witness
            assert cert.value == vals[first]
            assert convex_membership(VERTS, r.ravel()) is None
        else:
            answers.add("separable")
            _checked_decomposition(r)
            assert convex_membership(VERTS, r.ravel()) is not None
    assert "separable" in answers
    if draw == "ppt":
        assert answers & {"W2", "W3", "W4"}
        assert not answers & {"W0", "W1"}
    else:
        assert "W1" in answers


@pytest.mark.parametrize("family,transposed", [
    ("W1", False), ("W2", False), ("W3", False), ("W4", False),
    ("W2", True), ("W3", True), ("W4", True)])
def test_facet_walk_on_and_just_outside_a_facet(family, transposed):
    # mixtures of 1 to all of the facet's vertices, on the facet and moved
    # 1e-13, 3e-11 and 9e-11 across it, all within the TOL.witness band the
    # scan accepts.  The LP oracle answers every point without raising; it
    # must find the points on the facet and 1e-13 off it inside, while
    # farther out it may answer either way, as the points are outside by
    # more than its own tolerance.
    rng = np.random.default_rng(37)
    W = CANONICAL_WITNESSES[family]
    W = W.T if transposed else W
    on = VERTS[VERTS @ W.ravel() == 0]
    out = np.zeros(16)
    out[np.argmin(W)] = 1.0  # W = -1 there
    for n in sorted({*range(1, len(on) + 1, 3), len(on)}):
        p = rng.dirichlet(np.ones(n)) @ on[rng.choice(len(on), n,
                                                      replace=False)]
        perm = np.ix_(rng.permutation(4), rng.permutation(4))
        for gap in (0.0, 1e-13, 3e-11, 9e-11):
            r = ((1 - gap) * p + gap * out).reshape(4, 4)[perm]
            _checked_decomposition(r, on_or_inside=gap == 0.0)
            inside = convex_membership(VERTS, r.ravel()) is not None
            assert inside or gap > 1e-13


def test_facet_walk_on_sparse_vertex_mixtures():
    # a few vertices carry almost all of the weight and the rest as little
    # as 1e-14 or less: the walk must not lose them off the face
    rng = np.random.default_rng(38)
    for _ in range(100):
        n = rng.integers(1, 25)
        idx = rng.choice(len(VERTS), n, replace=False)
        r = (rng.dirichlet(np.full(n, 0.05)) @ VERTS[idx]).reshape(4, 4)
        _checked_decomposition(r)
        assert convex_membership(VERTS, r.ravel()) is not None


@st.composite
def _vertex_mixtures(draw):
    """A convex combination of 1 to 16 distinct vertices, weights in [0, 1]
    before normalising (so also zero and subnormal)."""
    idx = draw(st.lists(st.integers(0, len(VERTS) - 1), min_size=1,
                        max_size=16, unique=True))
    w = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=len(idx),
                               max_size=len(idx))))
    assume(w.sum() > 0)
    return (w / w.sum() @ VERTS[idx]).reshape(4, 4)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_vertex_mixtures(), st.permutations(range(4)),
       st.permutations(range(4)))
def test_decomposition_survives_the_polytope_symmetries(r, rp, cp):
    # the polytope is invariant under S4 x S4 row/column permutations and
    # under transposition, so a separable r stays separable under them
    _checked_decomposition(r)
    _checked_decomposition(r[np.ix_(rp, cp)])
    _checked_decomposition(r.T)


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
