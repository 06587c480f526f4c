"""SLOCC convertibility between ordered entangled Bell-diagonal states.

The reachable set from an ordered entangled weight vector lam is a convex
polytope with at most nine vertices: lam itself, its five tail permutations,
and the three separable half-half mixtures (1/2)(e_1 + e_i).  Only three of
its facets contain lam, and they induce the complete monotone triple

    E1 = lam_1
    E2 = (1 - 2 lam_2) / (lam_3 + lam_4)
    E3 = (1 - 2 lam_2 - 2 lam_3) / lam_4

Conversion lam -> lam' is possible iff every E_i is non-increasing.  Ratios
are kept as (numerator, denominator) pairs and compared by
cross-multiplication, so vanishing denominators (pure Bell states) need no
special casing.

A YES comes with an r-matrix built as a nonnegative sum of nine generating
maps, each a vertex of the separable polytope (`separability.vertex_set()`),
so its separability certificate is built along with it and checked by
reconstruction; no second LP is solved.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bell import (is_entangled_bd, is_ordered, validate_weights,
                   weights_to_coords)
from .numerics import TOL, Inside, NumericsError, convex_membership
from .separability import _vertex_array, vertex_set


class NotOrderedError(NumericsError):
    pass


class NotEntangledError(NumericsError):
    pass


class NotConvertibleError(NumericsError):
    pass


@dataclass(frozen=True, slots=True)
class MonotoneTriple:
    """E1 and the (numerator, denominator) pairs of E2 and E3, both >= 0.

    The five numbers are stored flat (every Decision holds two triples) and
    `e2`, `e3` read them back as pairs.
    """

    e1: float
    e2_num: float
    e2_den: float
    e3_num: float
    e3_den: float

    @property
    def e2(self):
        return self.e2_num, self.e2_den

    @property
    def e3(self):
        return self.e3_num, self.e3_den

    def as_floats(self):
        """Decimal view; zero denominators map to +inf."""
        def f(pair):
            n, d = pair
            return n / d if d > 0 else float("inf")
        return self.e1, f(self.e2), f(self.e3)


def _require_ordered_entangled(lam):
    lam = validate_weights(lam)
    if not is_ordered(lam):
        raise NotOrderedError(f"weights {lam} not sorted descending")
    if not is_entangled_bd(lam):
        raise NotEntangledError(f"weights {lam} are separable (lam_1 <= 1/2)")
    return lam


def monotones(lam):
    """The complete monotone triple of an ordered entangled weight vector."""
    lam = _require_ordered_entangled(lam)
    l1, l2, l3, l4 = lam
    return MonotoneTriple(float(l1), float(1 - 2 * l2), float(l3 + l4),
                          float(1 - 2 * l2 - 2 * l3), float(l4))


def ratio_geq(a, b):
    """a >= b for nonnegative ratio pairs, by cross-multiplication."""
    an, ad = a
    bn, bd = b
    return an * bd >= bn * ad


# one shared string per monotone, so a NO answer allocates no text
_INCREASES = {name: f"{name} increases from source to target"
              for name in ("E1", "E2", "E3")}


@dataclass(frozen=True, slots=True)
class Decision:
    convertible: bool
    reason: str
    violated_monotone: str | None = None
    rmatrix: np.ndarray | None = None
    source_monotones: MonotoneTriple | None = None
    target_monotones: MonotoneTriple | None = None


def can_convert_bd(lam, lam_prime, with_map=True):
    """Decide SLOCC convertibility between ordered entangled weight vectors.

    Ties count as convertible (the reachable polytope is closed).  On yes,
    attaches a realizing r-matrix; on no, names the first failing monotone.
    """
    m_src = monotones(lam)
    m_dst = monotones(lam_prime)
    checks = [
        ("E1", m_src.e1 >= m_dst.e1),
        ("E2", ratio_geq(m_src.e2, m_dst.e2)),
        ("E3", ratio_geq(m_src.e3, m_dst.e3)),
    ]
    for name, ok in checks:
        if not ok:
            return Decision(convertible=False,
                            reason=_INCREASES[name],
                            violated_monotone=name,
                            source_monotones=m_src, target_monotones=m_dst)
    rmat = synthesize_map(lam, lam_prime) if with_map else None
    return Decision(convertible=True, reason="all monotones non-increasing",
                    rmatrix=rmat,
                    source_monotones=m_src, target_monotones=m_dst)


_TAIL_PERMS = tuple((0,) + p for p in itertools.permutations((1, 2, 3)))


@lru_cache(maxsize=1)
def _generating_maps():
    """The nine generating r-matrices, each with its index in vertex_set().

    A tail permutation is 1/4 times a permutation matrix (a D0-orbit vertex),
    a half-half map a block of 1/4 (a G0-orbit vertex).  Neither depends on
    lam.  The index lookup raises KeyError if a map is not a vertex, so the
    cache is built only when all nine are.
    """
    maps = []
    for perm in _TAIL_PERMS:
        r = np.zeros((4, 4))
        # vec_i = lam[perm[i]]: weight moves from Bell perm[i] to Bell i
        for i in range(4):
            r[i, perm[i]] = 0.25
        maps.append(r)
    for i in (1, 2, 3):
        r = np.zeros((4, 4))
        r[np.ix_((0, i), (0, 1))] = 0.25  # block prepares (Phi_1 + Phi_{i+1})/2
        maps.append(r)
    index = {v.tobytes(): j for j, v in enumerate(vertex_set())}
    return tuple((r, index[r.tobytes()]) for r in maps)


def _labelled_vertices(lam):
    """(vertex weight vector, generating r-matrix, success weight, index of
    the r-matrix in vertex_set()) for each of the nine generating maps."""
    lam = _require_ordered_entangled(lam)
    maps = _generating_maps()
    out = [(lam[list(perm)], r, 0.25, j)
           for perm, (r, j) in zip(_TAIL_PERMS, maps)]
    for i, (r, j) in zip((1, 2, 3), maps[len(_TAIL_PERMS):]):
        vec = np.zeros(4)
        vec[0] = 0.5
        vec[i] = 0.5
        out.append((vec, r, float(lam[0] + lam[1]) / 2.0, j))
    return out


def plambda_vertices(lam):
    """Deduplicated vertex list of the reachable polytope (up to 9 vectors)."""
    verts = [v for v, _, _, _ in _labelled_vertices(lam)]
    unique = []
    for v in verts:
        if not any(np.abs(v - u).max() <= 1e-12 for u in unique):
            unique.append(v)
    return np.array(unique)


def lp_oracle_membership(lam, lam_prime):
    """Independent decision: is lam' in the reachable polytope of lam?"""
    lam_prime = validate_weights(lam_prime)
    return isinstance(convex_membership(plambda_vertices(lam), lam_prime),
                      Inside)


@dataclass(frozen=True)
class FacetInequalities:
    lam: np.ndarray
    f2_degenerate: bool   # lam_1 == lam_2: coordinate form undefined
    f3_degenerate: bool   # 1 == 2 lam_2 + 2 lam_3

    def f1(self, lam_prime):
        """lam'_1 <= lam_1 (constant-leading-weight facet)."""
        lam_prime = validate_weights(lam_prime)
        lhs = float(lam_prime[0])
        return lhs, lhs <= self.lam[0] + 1e-12

    def f2(self, lam_prime):
        """Coordinate form: ((l3+l4)/(l1-l2)) (<xx> - <yy>) + <zz> <= 1."""
        lam_prime = validate_weights(lam_prime)
        xx, yy, zz = -weights_to_coords(lam_prime)  # plain expectations
        l1, l2, l3, l4 = self.lam
        if self.f2_degenerate:
            raise ZeroDivisionError("F2 coordinate form degenerate: l1 == l2")
        lhs = (l3 + l4) / (l1 - l2) * (xx - yy) + zz
        return float(lhs), lhs <= 1 + 1e-12

    def f3(self, lam_prime):
        """Coordinate form: <xx> + <zz> - ((1-2l1+2l4)/(1-2l2-2l3)) <yy> <= 1."""
        lam_prime = validate_weights(lam_prime)
        xx, yy, zz = -weights_to_coords(lam_prime)
        l1, l2, l3, l4 = self.lam
        if self.f3_degenerate:
            raise ZeroDivisionError("F3 coordinate form degenerate")
        lhs = xx + zz - (1 - 2 * l1 + 2 * l4) / (1 - 2 * l2 - 2 * l3) * yy
        return float(lhs), lhs <= 1 + 1e-12

    def f2_weight_form(self, lam_prime):
        """Equivalent monotone comparison E2(lam) >= E2(lam')."""
        lam_prime = validate_weights(lam_prime)
        l2p = lam_prime[1]
        return ratio_geq(monotones(self.lam).e2,
                         (float(1 - 2 * l2p), float(lam_prime[2] + lam_prime[3])))

    def f3_weight_form(self, lam_prime):
        lam_prime = validate_weights(lam_prime)
        return ratio_geq(monotones(self.lam).e3,
                         (float(1 - 2 * lam_prime[1] - 2 * lam_prime[2]),
                          float(lam_prime[3])))


def facet_inequalities(lam):
    """Evaluators for the three facets of the reachable polytope at lam."""
    lam = _require_ordered_entangled(lam)
    return FacetInequalities(
        lam=lam,
        f2_degenerate=bool(abs(lam[0] - lam[1]) <= 1e-12),
        f3_degenerate=bool(abs(1 - 2 * lam[1] - 2 * lam[2]) <= 1e-12),
    )


def synthesize_map(lam, lam_prime):
    """An explicit separable-cone r-matrix realizing lam -> lam'.

    Decomposes lam' over the reachable polytope's vertices (one 9-vertex
    LP), maps each vertex to its generating vertex r-matrix, and reweights
    so the unnormalized images align: r lam / ||r lam||_1 = lam'.  Every
    generating r-matrix is a vertex of the separable polytope, so the same
    weights, normalized, form a ConvexDecomposition of r / sum(r) over
    vertex_set(): the map is certified by construction, and the certificate
    is checked by rebuilding r from it, not by a second LP.
    """
    lam = _require_ordered_entangled(lam)
    lam_prime = _require_ordered_entangled(lam_prime)
    labelled = _labelled_vertices(lam)
    V = np.stack([v for v, _, _, _ in labelled])
    membership = convex_membership(V, lam_prime)
    if not isinstance(membership, Inside):
        raise NotConvertibleError(f"{lam_prime} outside the reachable polytope")
    r_total = np.zeros((4, 4))
    weights = np.zeros(len(vertex_set()))
    for c, (_, r, w, j) in zip(membership.coefficients, labelled):
        if c > 1e-14:
            r_total += (c / w) * r
            weights[j] += c / w
    # self-checks: action reproduces the target, and the vertex weights
    # rebuild the normalized map (its separability certificate).  The weights
    # are nonnegative by construction and _generating_maps() proved each
    # index once, when it built its cache; the rebuild is a defensive
    # re-check of that cached invariant (about 20 us), so a wrong index can
    # never yield an uncertified map.
    image = r_total @ lam
    image = image / image.sum()
    if np.abs(image - lam_prime).max() > TOL.equality:
        raise NotConvertibleError("synthesized map fails to reproduce target")
    weights /= weights.sum()
    rebuilt = np.tensordot(weights, _vertex_array(), axes=1)
    if weights.min() < 0 or \
            np.abs(rebuilt - r_total / r_total.sum()).max() > TOL.equality:
        raise NotConvertibleError("synthesized map not in the separable cone")
    return r_total
