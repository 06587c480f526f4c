import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import slocc.convert
import slocc.separability
from slocc.choi import map_action_bd
from slocc.convert import (NotConvertibleError, NotEntangledError,
                           NotOrderedError, can_convert_bd,
                           facet_inequalities, lp_oracle_membership,
                           monotones, plambda_vertices, ratio_geq,
                           synthesize_map)
from slocc.separability import ConvexDecomposition, is_separable
from test_acceptance import _near_facet_pair, _random_ordered_entangled

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
    # coordinate forms are well defined on every valid input
    rng = np.random.default_rng(52)
    for _ in range(50):
        lam = np.sort(rng.dirichlet(np.ones(4)))[::-1]
        lam[0] = max(lam[0], 0.5 + 1e-6)
        lam[1:] *= (1 - lam[0]) / lam[1:].sum()
        f = facet_inequalities(lam)
        assert not f.f2_degenerate and not f.f3_degenerate


def test_synthesized_map_lies_in_separable_cone():
    # criterion 1's samplers, YES answers only; is_separable is the oracle
    rng = np.random.default_rng(53)
    checked = 0
    while checked < 300:
        if checked % 3:
            lam, lam_p = (_random_ordered_entangled(rng),
                          _random_ordered_entangled(rng))
        else:
            lam, lam_p = _near_facet_pair(rng)
        if not can_convert_bd(lam, lam_p, with_map=False).convertible:
            continue
        r = synthesize_map(lam, lam_p)
        image, _ = map_action_bd(r, lam)
        assert np.abs(image - lam_p).max() < 1e-10
        assert isinstance(is_separable(r / r.sum()), ConvexDecomposition)
        checked += 1


def test_yes_solves_one_lp(monkeypatch):
    calls = []
    original = slocc.numerics.convex_membership

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(slocc.convert, "convex_membership", counted)
    monkeypatch.setattr(slocc.separability, "convex_membership", counted)
    d = can_convert_bd(LAM, np.array([0.6, 0.25, 0.1, 0.05]))
    assert d.convertible and d.rmatrix is not None
    assert len(calls) == 1


def test_corrupted_vertex_index_is_caught(monkeypatch):
    # each generating map paired with the next map's vertex index
    maps = slocc.convert._generating_maps()
    corrupted = tuple((r, maps[(k + 1) % len(maps)][1])
                      for k, (r, _) in enumerate(maps))
    monkeypatch.setattr(slocc.convert, "_generating_maps", lambda: corrupted)
    with pytest.raises(NotConvertibleError, match="separable cone"):
        synthesize_map(np.array([0.55, 0.25, 0.15, 0.05]),
                       np.array([0.53, 0.22, 0.15, 0.1]))


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
