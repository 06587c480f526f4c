import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.optimize
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import slocc.convert
from slocc.bell import (InvalidWeightsError, is_entangled_bd,
                        weights_to_coords, weights_to_density)
from slocc.choi import map_action_bd
from slocc.cli import _random_ordered_entangled
from slocc.convert import (NotConvertibleError, NotEntangledError,
                           NotOrderedError, can_convert_bd,
                           facet_inequalities, lp_oracle_membership,
                           monotones, plambda_vertices, ratio_geq,
                           synthesize_map)
from slocc.normal_form import can_convert_two_qubit
from slocc.numerics import TOL
from slocc.separability import ConvexDecomposition, is_separable, vertex_set
from test_acceptance import _facet_saturating_vertices, _near_facet_pair

LAM = np.array([0.7, 0.1, 0.1, 0.1])
LAM_P = np.array([0.6, 0.2, 0.1, 0.1])


def test_monotone_values():
    m = monotones(LAM)
    assert m.as_floats() == pytest.approx((0.7, 4.0, 6.0), abs=1e-12)
    assert m.e2 == (pytest.approx(0.8), pytest.approx(0.2))
    assert m.e3 == (pytest.approx(0.6), pytest.approx(0.1))


def test_monotones_pure_bell_state():
    m = monotones(np.array([1.0, 0.0, 0.0, 0.0]))
    assert m.e2 == (1.0, 0.0) and m.e3 == (1.0, 0.0)
    assert m.as_floats() == (1.0, float("inf"), float("inf"))


def test_monotones_input_contract():
    with pytest.raises(NotOrderedError):
        monotones(np.array([0.1, 0.7, 0.1, 0.1]))
    with pytest.raises(NotEntangledError):
        monotones(np.array([0.25, 0.25, 0.25, 0.25]))


def test_monotones_of_weights_with_dust_below_zero():
    # the triple's contract, all >= 0, holds on a weight read as 0
    m = monotones([0.7, 0.2, 0.1 + 5e-13, -5e-13])
    assert min(m.e2 + m.e3) >= 0 and m.e3[1] == 0


def test_ratio_comparison():
    assert ratio_geq((1.0, 0.0), (5.0, 1.0))   # inf >= 5
    assert ratio_geq((1.0, 0.0), (1.0, 0.0))
    assert not ratio_geq((3.0, 1.0), (1.0, 0.0))
    assert ratio_geq((0.8, 0.2), (0.6, 0.2))


def test_convert_worked_pair():
    d = can_convert_bd(LAM, LAM_P)
    assert d.convertible
    image, _ = map_action_bd(d.rmatrix, LAM)
    assert np.abs(image - LAM_P).max() < 1e-10


def test_convert_reverse_names_e1():
    d = can_convert_bd(LAM_P, LAM)
    assert not d.convertible
    assert d.violated_monotone == "E1"


def test_convert_tie_is_convertible():
    d = can_convert_bd(LAM, LAM.copy())
    assert d.convertible
    image, _ = map_action_bd(d.rmatrix, LAM)
    assert np.abs(image - LAM).max() < 1e-10


def test_convert_e2_violation():
    # same E1, larger E2 on the target side
    src = np.array([0.6, 0.15, 0.15, 0.1])
    dst = np.array([0.6, 0.2, 0.1, 0.1])
    m_src, m_dst = monotones(src).as_floats(), monotones(dst).as_floats()
    assert m_src[0] == m_dst[0] and m_dst[1] > m_src[1]
    d = can_convert_bd(src, dst)
    assert not d.convertible and d.violated_monotone == "E2"


NO_PAIRS = [
    ("E1", LAM_P, LAM),
    ("E2", [0.6, 0.15, 0.15, 0.1], [0.6, 0.2, 0.1, 0.1]),
    ("E3", [0.6, 0.2, 0.1, 0.1], [0.58, 0.22, 0.15, 0.05])]


def test_answers_without_a_map_are_shared_constants():
    # a NO allocates nothing: two pairs that violate the same monotone get
    # one frozen Decision, and each separable-endpoint rule has its own
    others = {"E1": ([0.65, 0.2, 0.1, 0.05], [0.8, 0.1, 0.05, 0.05]),
              "E2": ([0.7, 0.1, 0.1, 0.1], [0.7, 0.2, 0.05, 0.05]),
              "E3": ([0.7, 0.15, 0.1, 0.05], [0.65, 0.2, 0.15, 0.0])}
    for name, src, dst in NO_PAIRS:
        first, second = can_convert_bd(src, dst), can_convert_bd(*others[name])
        assert first.violated_monotone == name and first is second
    ent, sep = weights_to_density(LAM), np.eye(4) / 4.0
    assert can_convert_two_qubit(ent, sep) is slocc.convert._TARGET_SEPARABLE
    assert can_convert_two_qubit(sep, ent) is slocc.convert._SOURCE_SEPARABLE
    assert slocc.convert._separable_endpoint(True, True) is None
    yes = can_convert_bd(LAM, LAM_P)
    for decision in (first, can_convert_two_qubit(ent, sep), yes):
        with pytest.raises(dataclasses.FrozenInstanceError):
            decision.convertible = not decision.convertible
    # a YES keeps its protocol as bytes: frozen all through, and comparable
    with pytest.raises(ValueError, match="read-only"):
        yes.rmatrix[0, 0] = 1.0
    assert yes == can_convert_bd(LAM, LAM_P) and hash(yes) is not None


def _criterion_1_yes_pairs(rng, count):
    pairs = []
    while len(pairs) < count:
        lam, lam_p = (_random_ordered_entangled(rng, floor=0.5 + 1e-4),
                      _random_ordered_entangled(rng, floor=0.5 + 1e-4))
        if can_convert_bd(lam, lam_p, with_map=False).convertible:
            pairs.append((lam, lam_p))
    return pairs


def test_yes_keeps_its_four_map_protocol():
    # four generator indices (uint8), then their four weights (float64);
    # r is formed from them, read-only and the bytes synthesize_map returns
    for lam, lam_p in _criterion_1_yes_pairs(np.random.default_rng(61), 500):
        d = can_convert_bd(lam, lam_p)
        assert isinstance(d.protocol, bytes) and len(d.protocol) == 36
        maps = np.frombuffer(d.protocol, np.uint8, 4)
        weights = np.frombuffer(d.protocol, offset=4)
        assert len(set(maps.tolist())) == 4 and maps.max() < 9
        assert weights.min() >= 0 and abs(weights.sum() - 1) <= 1e-12
        r = d.rmatrix
        assert not r.flags.writeable
        assert r.tobytes() == synthesize_map(lam, lam_p).tobytes()
        mixed = np.tensordot(weights, slocc.convert._GENERATORS[maps], 1)
        assert np.abs(mixed / 4 - r).max() <= 1e-16
        again = can_convert_bd(lam, lam_p)
        assert again == d and hash(again) == hash(d) and again is not d
    assert can_convert_bd(LAM, LAM_P, with_map=False).protocol is None
    assert can_convert_bd(LAM, LAM_P, with_map=False).rmatrix is None


def test_a_kept_yes_is_small():
    # the protocol is 36 bytes where r is 128: a kept YES, Decision and
    # bytes together, takes 133 bytes on CPython 3.11 (225 with r's bytes)
    pairs = _criterion_1_yes_pairs(np.random.default_rng(62), 50) * 20
    kept = [None] * len(pairs)
    can_convert_bd(*pairs[0])
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for k, (lam, lam_p) in enumerate(pairs):
            kept[k] = can_convert_bd(lam, lam_p)
        per_yes = (tracemalloc.get_traced_memory()[0] - before) / len(kept)
    finally:
        tracemalloc.stop()
    assert all(d.convertible for d in kept)
    assert per_yes <= 160


def test_weights_summing_off_one_by_rounding():
    # lam_1 above 1/2 but not above half the sum: separable, where the
    # inhomogeneous numerators read -6e-11 over a zero denominator
    lam = [0.5 + 3e-11, 0.5 + 3e-11, 0.0, 0.0]
    for refuse in (monotones, facet_inequalities,
                   lambda x: can_convert_bd(x, LAM),
                   lambda x: can_convert_bd(LAM, x)):
        with pytest.raises(NotEntangledError):
            refuse(lam)
    # sum 1 + 1e-10, entangled: 1 - 2 lam_2 - 2 lam_3 reads -7.8e-11, the
    # homogeneous E3 numerator 2.1e-11
    lam = np.array([0.5 + 6e-11, 0.3, 0.2 + 3.9e-11, 0.0])
    assert abs(lam.sum() - 1 - 1e-10) <= 1e-12
    m = monotones(lam)
    assert min(m.e2 + m.e3) >= 0 and m.e3[0] > 0
    f = facet_inequalities(lam)
    assert lam[0] - lam[1] > 0
    assert [f.f1(lam), f.f2(lam), f.f3(lam)] == \
        [(lam[0], True), (1.0, True), (1.0, True)]
    assert can_convert_bd(lam, lam).convertible


@pytest.mark.parametrize("name, src, dst", NO_PAIRS)
def test_synthesize_map_refuses_non_convertible_pair(name, src, dst):
    assert can_convert_bd(src, dst).violated_monotone == name
    with pytest.raises(NotConvertibleError):
        synthesize_map(src, dst)


def test_plambda_vertices_counts():
    # distinct tail weights: 6 tail permutations + 3 separable mixtures
    assert len(plambda_vertices(np.array([0.55, 0.25, 0.15, 0.05]))) == 9
    # a fully degenerate tail collapses all tail permutations
    assert len(plambda_vertices(LAM)) == 4


def test_monotones_agree_with_lp_oracle():
    rng = np.random.default_rng(51)
    for _ in range(50):
        lam = np.sort(rng.dirichlet(np.ones(4)))[::-1]
        lam[0] = max(lam[0], 0.51)
        lam[1:] *= (1 - lam[0]) / lam[1:].sum()
        lam_p = np.sort(rng.dirichlet(np.ones(4)))[::-1]
        lam_p[0] = max(lam_p[0], 0.51)
        lam_p[1:] *= (1 - lam_p[0]) / lam_p[1:].sum()
        mono = can_convert_bd(lam, lam_p, with_map=False).convertible
        assert mono == lp_oracle_membership(lam, lam_p)


def test_facets_saturate_at_source():
    f = facet_inequalities(LAM)
    lhs1, ok1 = f.f1(LAM)
    lhs2, ok2 = f.f2(LAM)
    lhs3, ok3 = f.f3(LAM)
    assert ok1 and ok2 and ok3
    assert abs(lhs1 - LAM[0]) < 1e-12
    assert abs(lhs2 - 1.0) < 1e-10
    assert abs(lhs3 - 1.0) < 1e-10


def test_facet_denominators_never_degenerate_when_entangled():
    # lam_1 > 1/2 forces lam_1 > lam_2 and 2(lam_2 + lam_3) < 1, so both
    # coordinate forms are finite on every valid input
    rng = np.random.default_rng(52)
    for _ in range(50):
        lam = np.sort(rng.dirichlet(np.ones(4)))[::-1]
        lam[0] = max(lam[0], 0.5 + 1e-6)
        lam[1:] *= (1 - lam[0]) / lam[1:].sum()
        f = facet_inequalities(lam)
        for lam_p in (lam, rng.dirichlet(np.ones(4))):
            assert np.isfinite(f.f2(lam_p)[0]) and np.isfinite(f.f3(lam_p)[0])


def test_facet_forms_match_the_coordinate_formulas():
    # the forms are computed from the monotone slacks; the paper's
    # coordinate expressions stay the independent check of their values
    rng = np.random.default_rng(58)
    for _ in range(500):
        lam = _random_ordered_entangled(rng, floor=0.55)
        lam_p = rng.dirichlet(np.ones(4))
        l1, l2, l3, l4 = lam
        xx, yy, zz = -weights_to_coords(lam_p)  # plain expectations
        f = facet_inequalities(lam)
        assert f.f1(lam_p)[0] == pytest.approx(lam_p[0], abs=1e-12)
        assert f.f2(lam_p)[0] == pytest.approx(
            (l3 + l4) / (l1 - l2) * (xx - yy) + zz, abs=1e-12)
        assert f.f3(lam_p)[0] == pytest.approx(
            xx + zz - (1 - 2 * l1 + 2 * l4) / (1 - 2 * l2 - 2 * l3) * yy,
            abs=1e-12)


def test_facet_flags_agree_with_the_decision_on_facets():
    # lam' a mixture of the vertices saturating one facet, tail sorted: on
    # the facet in exact arithmetic, so rounding alone picks YES or NO, and
    # the flags must pick the same, naming the same monotone on a NO
    rng = np.random.default_rng(59)
    answers = {True: 0, False: 0}
    while sum(answers.values()) < 600:
        lam = _random_ordered_entangled(rng, floor=0.55)
        sat = _facet_saturating_vertices(lam)[int(rng.integers(1, 4))]
        if len(sat) < 2:
            continue
        p = rng.dirichlet(np.ones(len(sat))) @ np.asarray(sat)
        lam_p = np.concatenate(([p[0]], np.sort(p[1:])[::-1]))
        if lam_p[0] <= 0.5 + 1e-6:
            continue
        d = can_convert_bd(lam, lam_p, with_map=False)
        f = facet_inequalities(lam)
        flags = [f.f1(lam_p)[1], f.f2(lam_p)[1], f.f3(lam_p)[1]]
        assert all(flags) == d.convertible
        if not d.convertible:
            assert ("E1", "E2", "E3")[flags.index(False)] == \
                d.violated_monotone
        answers[d.convertible] += 1
    assert min(answers.values()) > 0


def test_synthesized_map_lies_in_separable_cone():
    # criterion 1's samplers, YES answers only; is_separable is the oracle
    rng = np.random.default_rng(53)
    checked = 0
    while checked < 300:
        if checked % 3:
            lam, lam_p = (_random_ordered_entangled(rng, floor=0.5 + 1e-4),
                          _random_ordered_entangled(rng, floor=0.5 + 1e-4))
        else:
            lam, lam_p = _near_facet_pair(rng)
        if not can_convert_bd(lam, lam_p, with_map=False).convertible:
            continue
        r = synthesize_map(lam, lam_p)
        image, _ = map_action_bd(r, lam)
        assert np.abs(image - lam_p).max() < 1e-10
        # the unit-sum dual state of a trace-preserving map
        assert np.abs(r.sum(axis=0) - 0.25).max() <= 1e-15
        assert isinstance(is_separable(r), ConvexDecomposition)
        checked += 1


def test_yes_solves_no_lp(monkeypatch):
    calls = []

    def counted(original):
        def wrapper(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)
        return wrapper

    # convex_membership imports linprog when it is called, so patching the
    # attribute counts every LP of the package
    monkeypatch.setattr(scipy.optimize, "linprog",
                        counted(scipy.optimize.linprog))
    d = can_convert_bd(LAM, np.array([0.6, 0.25, 0.1, 0.05]))
    assert d.convertible and d.rmatrix is not None
    assert len(calls) == 0


def test_generating_maps_are_separable_vertices():
    # a YES r is a convex combination of quarters of these nine, so each
    # quarter being in vertex_set() (or the mean of two) is its separability
    # certificate, and column sums 1 make the map trace-preserving
    vertices = {v.tobytes() for v in vertex_set()}
    maps = slocc.convert._GENERATORS
    assert maps.shape == (9, 4, 4) and not maps.flags.writeable
    assert (maps.sum(axis=1) == 1.0).all()
    for r in maps:
        quarter = r / 4
        assert quarter.tobytes() in vertices or any(
            ((a + b) / 2 == quarter).all()
            for a in vertex_set() for b in vertex_set())
    # their images of lam are the vertices of P_lam: the tail permutations
    # lam[perm] and the half-half mixtures (e_1 + e_i)/2
    rng = np.random.default_rng(12)
    half = np.zeros((3, 4))
    half[:, 0] = 0.5
    half[:, 1:] = 0.5 * np.eye(3)
    for _ in range(200):
        lam = _random_ordered_entangled(rng)
        assert np.abs(maps @ lam - np.vstack((lam[slocc.convert._TAIL_PERMS],
                                              half))).max() <= 4e-16


@pytest.mark.parametrize("t", [5e-10, 2e-10, 1e-10, 2e-11])
def test_yes_from_source_with_tiny_weight(t):
    # HiGHS drops constraint entries below 1e-9 by default, which made this
    # interior target (the centroid of P_lam) read as outside
    lam = np.array([0.75, 0.25 - t, t, 0.0])
    lam_p = np.array([6.0, 1.0, 1.0, 1.0]) / 9
    assert lp_oracle_membership(lam, lam_p)
    d = can_convert_bd(lam, lam_p)
    assert d.convertible
    image, _ = map_action_bd(d.rmatrix, lam)
    assert np.abs(image - lam_p).max() < 1e-10


@pytest.mark.parametrize("k", [7, 9, 11])
def test_yes_on_edges_of_a_thin_polytope(k):
    # lam_1 - 1/2 = 10^-k: barycentric weights of targets on an edge of
    # P_lam can read outside by far more than TOL.equality though the
    # targets miss the edge by rounding only; the 9-vertex LP raised
    # DegenerateInputError on some of them
    lam = np.array([0.5 + 10.0 ** -k, 0.25, 0.15, 0.1 - 10.0 ** -k])
    verts = plambda_vertices(lam)
    for i in range(len(verts)):
        for j in range(i + 1, len(verts)):
            p = 0.25 * verts[i] + 0.75 * verts[j]
            lam_p = np.concatenate(([p[0]], np.sort(p[1:])[::-1]))
            if lam_p[0] <= 0.5 + 1e-12 or \
                    not can_convert_bd(lam, lam_p, with_map=False).convertible:
                continue
            r = can_convert_bd(lam, lam_p).rmatrix
            image, _ = map_action_bd(r, lam)
            assert np.abs(image - lam_p).max() <= TOL.equality


def test_yes_on_faces_of_thin_polytopes():
    # lam_1 - 1/2 and lam_2 - lam_3 both tiny, targets on faces of P_lam:
    # barycentric weights scale rounding by the inverse width of P_lam, so
    # these targets sit on a facet only to within rounding
    rng = np.random.default_rng(57)
    maps = []
    while len(maps) < 1000:
        a = 10.0 ** rng.uniform(-12, -4)
        d = 10.0 ** rng.uniform(-13, -5)
        l4 = rng.uniform() * (0.5 - a) / 3
        rest = 0.5 - a - l4
        lam = np.array([0.5 + a, (rest + d) / 2, (rest - d) / 2, l4])
        if lam[0] <= 0.5 + 2e-12:  # no target can keep lam'_1 above that
            continue
        verts = plambda_vertices(lam)
        k = min(int(rng.integers(2, 4)), len(verts))
        p = rng.dirichlet(np.ones(k)) @ verts[rng.choice(len(verts), k,
                                                         replace=False)]
        lam_p = np.concatenate(([p[0]], np.sort(p[1:])[::-1]))
        if lam_p[0] <= 0.5 + 2e-12 or \
                not can_convert_bd(lam, lam_p, with_map=False).convertible:
            continue
        r = can_convert_bd(lam, lam_p).rmatrix
        image, _ = map_action_bd(r, lam)
        assert np.abs(image - lam_p).max() <= TOL.equality
        maps.append(r)
    for r in maps[:50]:
        assert isinstance(is_separable(r / r.sum()), ConvexDecomposition)


def test_lp_oracle_near_half():
    # lam_1 - 1/2 log-uniform in [1e-12, 3e-4]: P_lam is that thin along
    # x_1, below the LP's absolute tolerance in plain coordinates.  Targets
    # are sorted mixtures of the vertices (YES), and reversed pairs (NO)
    rng = np.random.default_rng(58)
    answers = {True: 0, False: 0}
    for _ in range(300):
        delta = 10.0 ** rng.uniform(-12, np.log10(3e-4))
        tail = np.sort(rng.dirichlet(np.ones(3)))[::-1] * (0.5 - delta)
        lam = np.concatenate(([0.5 + delta], tail))
        lam_p = np.sort(rng.dirichlet(np.ones(9))
                        @ (slocc.convert._GENERATORS @ lam))[::-1]
        for src, dst in ((lam, lam_p), (lam_p, lam)):
            if not (is_entangled_bd(src) and is_entangled_bd(dst)):
                continue
            yes = can_convert_bd(src, dst, with_map=False).convertible
            assert lp_oracle_membership(src, dst) == yes
            answers[yes] += 1
    assert min(answers.values()) > 250


@pytest.mark.parametrize("bad", [
    [np.nan, 0.5, 0.5, 0.0], [0.7, 0.1, 0.1, np.nan]])
def test_nan_weights_rejected(bad):
    with pytest.raises(InvalidWeightsError, match="non-finite weight nan"):
        can_convert_bd(bad, LAM)
    with pytest.raises(InvalidWeightsError, match="non-finite weight nan"):
        can_convert_bd(LAM, bad)


@st.composite
def _ordered_entangled(draw):
    head = draw(st.floats(0.55, 0.999))
    tail = np.sort(draw(st.lists(st.floats(0.0, 1.0), min_size=3,
                                 max_size=3)))[::-1]
    assume(tail.sum() > 0)
    return np.concatenate(([head], (1 - head) * tail / tail.sum()))


def _interior_point(draw, lam):
    """A strictly positive mix of P_lam's vertices, tail sorted."""
    verts = plambda_vertices(lam)
    w = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=len(verts),
                               max_size=len(verts))))
    p = (w / w.sum()) @ verts
    return np.concatenate(([p[0]], np.sort(p[1:])[::-1]))


@st.composite
def _yes_chain(draw):
    lam = draw(_ordered_entangled())
    lam1 = _interior_point(draw, lam)
    return lam, lam1, _interior_point(draw, lam1)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_yes_chain())
def test_convertibility_is_transitive(chain):
    lam, lam1, lam2 = chain
    d1, d2 = can_convert_bd(lam, lam1), can_convert_bd(lam1, lam2)
    assume(d1.convertible and d2.convertible)
    assert can_convert_bd(lam, lam2, with_map=False).convertible
    r = d2.rmatrix @ d1.rmatrix
    image, _ = map_action_bd(r, lam)
    assert np.abs(image - lam2).max() < 1e-10
    assert isinstance(is_separable(r / r.sum()), ConvexDecomposition)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_ordered_entangled(), st.lists(st.floats(0.0, 1.0), min_size=4,
                                      max_size=4),
       st.permutations((1, 2, 3)))
def test_lp_oracle_tail_permutation_symmetric(lam, raw, tail):
    raw = np.array(raw)
    assume(raw.sum() > 0)
    lam_p = raw / raw.sum()
    assert lp_oracle_membership(lam, lam_p) == \
        lp_oracle_membership(lam, lam_p[[0, *tail]])


@st.composite
def _certificate_case(draw):
    """A source with or without ties and a target that is random or a
    convex combination of 2-3 vertices of its reachable polytope."""
    lam = draw(_ordered_entangled())
    tail = lam[1:].copy()
    tie = draw(st.sampled_from(
        ("none", "l2=l3", "l3=l4", "l2=l3=l4", "l4=0", "bell")))
    if tie == "l2=l3":
        tail[:2] = tail[:2].mean()
    elif tie == "l3=l4":
        tail[1:] = tail[1:].mean()
    elif tie == "l2=l3=l4":
        tail[:] = tail.mean()
    elif tie == "l4=0":
        tail[:2] += tail[2] / 2
        tail[2] = 0.0
    lam = np.array([1.0, 0.0, 0.0, 0.0]) if tie == "bell" \
        else np.concatenate(([lam[0]], tail))
    k = draw(st.sampled_from((0, 2, 3)))
    if k == 0:
        return lam, draw(_ordered_entangled())
    verts = plambda_vertices(lam)
    idx = draw(st.lists(st.integers(0, len(verts) - 1), min_size=k,
                        max_size=k, unique=True))
    w = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=k,
                               max_size=k)))
    p = (w / w.sum()) @ verts[idx]
    assume(p[0] > 0.5 + 1e-9)
    return lam, np.concatenate(([p[0]], np.sort(p[1:])[::-1]))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_certificate_case())
def test_yes_certificate_replays_and_agrees_with_oracles(case):
    lam, lam_p = case
    d = can_convert_bd(lam, lam_p)
    assume(d.convertible)
    image, _ = map_action_bd(d.rmatrix, lam)
    assert np.abs(image - lam_p).max() <= TOL.equality
    r = d.rmatrix
    assert isinstance(is_separable(r / r.sum()), ConvexDecomposition)
    assert lp_oracle_membership(lam, lam_p)
