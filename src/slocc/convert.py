"""SLOCC convertibility between ordered entangled Bell-diagonal states.

The reachable set from an ordered entangled weight vector lam is a convex
polytope P_lam with at most nine vertices: lam itself, its five tail
permutations, and the three separable half-half mixtures (1/2)(e_1 + e_i).
Only three of its facets contain lam, and they induce the complete monotone
triple

    E1 = lam_1
    E2 = (1 - 2 lam_2) / (lam_3 + lam_4)
    E3 = (1 - 2 lam_2 - 2 lam_3) / lam_4

Conversion lam -> lam' is possible iff every E_i is non-increasing, that is
iff lam' satisfies those three facets.  Ratios are kept as (numerator,
denominator) pairs and compared by cross-multiplication, so vanishing
denominators (pure Bell states) need no special casing; `_slacks` states the
three sign tests once, for the decision and for `facet_inequalities`.  The
numerators are formed homogeneously, (lam_1 - lam_2) + (lam_3 + lam_4) and
(lam_1 - lam_2) - (lam_3 - lam_4), so a sum off 1 by rounding cannot turn
them negative.

A YES keeps the deterministic LOCC protocol that realizes it: four of the
nine generating maps and their convex weights, from which its dual state r
is formed (`synthesize_map`); `lp_oracle_membership` is the independent
oracle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .bell import _exceeds_half, is_ordered, validate_weights
from .numerics import TOL, NumericsError, convex_membership


class NotOrderedError(NumericsError):
    pass


class NotEntangledError(NumericsError):
    pass


class NotConvertibleError(NumericsError):
    pass


@dataclass(frozen=True, slots=True)
class MonotoneTriple:
    """E1 and the (numerator, denominator) pairs of E2 and E3, all >= 0."""

    e1: float
    e2: tuple[float, float]
    e3: tuple[float, float]

    def as_floats(self):
        """Decimal view; zero denominators map to +inf."""
        return self.e1, *(n / d if d > 0 else float("inf")
                          for n, d in (self.e2, self.e3))


def _require_entangled(lam):
    """`lam`, after checking that its largest weight exceeds half the sum."""
    if not _exceeds_half(lam):
        raise NotEntangledError(f"weights {lam} are separable (lam_1 <= 1/2)")
    return lam


def _require_ordered_entangled(lam):
    """`lam` as a checked float array: valid, sorted and entangled.  Public
    entry points call it once per vector; the private helpers below take
    its result unchecked."""
    lam = validate_weights(lam)
    if not is_ordered(lam):
        raise NotOrderedError(f"weights {lam} not sorted descending")
    return _require_entangled(lam)


def monotones(lam):
    """The complete monotone triple of an ordered entangled weight vector."""
    return MonotoneTriple(*_monotones(_require_ordered_entangled(lam)))


def _monotones(lam):
    """(E1, E2 pair, E3 pair) as Python floats, numerators homogeneous."""
    l1, l2, l3, l4 = lam.tolist()
    return l1, ((l1 - l2) + (l3 + l4), l3 + l4), ((l1 - l2) - (l3 - l4), l4)


def ratio_geq(a, b):
    """a >= b for nonnegative ratio pairs, by cross-multiplication."""
    an, ad = a
    bn, bd = b
    return an * bd >= bn * ad


def _slacks(lam, lam_prime):
    """The signed slacks E_k(lam) - E_k(lam') of the three monotones, E2 and
    E3 cross-multiplied as ratio_geq compares them.  Slack k is >= 0 exactly
    when lam' satisfies facet k of P_lam (for finite floats a - b >= 0
    exactly when a >= b), so these are the decision's three sign tests."""
    e1, (n2, d2), (n3, d3) = _monotones(lam)
    f1, (p2, q2), (p3, q3) = _monotones(lam_prime)
    return e1 - f1, n2 * q2 - p2 * d2, n3 * q3 - p3 * d3


@dataclass(frozen=True, slots=True)
class Decision:
    """A conversion answer.  A YES built with its map keeps the protocol
    that realizes it as 36 immutable bytes: the indices into _GENERATORS of
    the four LOCC maps it mixes (uint8), then their convex weights
    (float64)."""

    convertible: bool
    reason: str
    violated_monotone: str | None = None
    protocol: bytes | None = None

    @property
    def rmatrix(self):
        """The protocol's unit-sum dual state (columns sum to 1/4), formed
        from its maps and weights: a read-only 4x4 array, or None."""
        if self.protocol is not None:
            return _protocol_rmatrix(self.protocol)


_MONOTONES = ("E1", "E2", "E3")
# every answer without a map is one shared constant: a NO allocates nothing
_NO = {name: Decision(False, f"{name} increases from source to target", name)
       for name in _MONOTONES}
_TARGET_SEPARABLE = Decision(True, "target separable")
_SOURCE_SEPARABLE = Decision(False, "separable source, entangled target")


def _separable_endpoint(source_entangled, target_entangled):
    """The Decision a separable endpoint fixes, or None if both endpoints
    are entangled: every state reaches a separable target (discard and
    prepare), and a separable source reaches no entangled target."""
    if not target_entangled:
        return _TARGET_SEPARABLE
    if not source_entangled:
        return _SOURCE_SEPARABLE
    return None


def can_convert_bd(lam, lam_prime, with_map=True):
    """Decide SLOCC convertibility between ordered entangled weight vectors.

    Ties count as convertible (the reachable polytope is closed).  On yes,
    attaches the protocol of a realizing map; on no, names the first failing
    monotone.
    """
    return _decide(_require_ordered_entangled(lam),
                   _require_ordered_entangled(lam_prime), with_map)


def _decide(lam, lam_prime, with_map=True):
    """can_convert_bd on float arrays already sorted, non-negative, unit-sum
    and entangled: the three slack tests, then the protocol of a YES."""
    for name, slack in zip(_MONOTONES, _slacks(lam, lam_prime)):
        if slack < 0:
            return _NO[name]
    return Decision(convertible=True, reason="all monotones non-increasing",
                    protocol=_protocol(lam, lam_prime) if with_map else None)


_TAIL_PERMS = np.array([(0,) + p
                        for p in itertools.permutations((1, 2, 3))])
# every four of the nine labelled vertices (six tail permutations, then the
# three half-half mixtures): the candidate Caratheodory subsets
_SUBSETS = np.array(list(itertools.combinations(range(9), 4)))
# affine coordinates (1, t, x_2, x_3) of the labelled vertices, x_2 and x_3
# left to fill: t = (x_1 - 1/2)/(lam_1 - 1/2) is 1 on a tail permutation
# and 0 on a half-half mixture, whatever lam
_LIFTED = np.column_stack((np.ones(9), [1.0] * 6 + [0.0] * 3, np.zeros((9, 2))))


# the nine trace-preserving maps (every column sums to 1), in the order of
# the labelled vertices: the six tail permutations, local Bell relabellings
# (row i of eye(4)[perm] moves weight from Bell perm[i] to Bell i), then the
# three discard-and-prepare maps onto (Phi_1 + Phi_{i+1})/2.  Their images of
# lam are the vertices of P_lam.
_GENERATORS = np.array([np.eye(4)[perm] for perm in _TAIL_PERMS]
                       + [np.outer(np.eye(4)[0] + np.eye(4)[i], np.ones(4)) / 2
                          for i in (1, 2, 3)])
_GENERATORS.setflags(write=False)


def plambda_vertices(lam):
    """Deduplicated vertex list of the reachable polytope (up to 9 vectors)."""
    unique = []
    for v in _GENERATORS @ _require_ordered_entangled(lam):
        if not any(np.abs(v - u).max() <= TOL.tie for u in unique):
            unique.append(v)
    return np.array(unique)


def lp_oracle_membership(lam, lam_prime):
    """Independent decision: is lam' in the reachable polytope of lam?  The
    convex_membership LP over plambda_vertices(lam), in the affine chart
    (t, x_2, x_3) of the unit-sum plane, t = (x_1 - 1/2)/(lam_1 - 1/2).

    The vertices sit at t in {0, 1}, so a polytope thin along x_1 (lam_1
    just above 1/2) is not thinner than the solver's absolute tolerance.
    """
    lam_prime = validate_weights(lam_prime)
    V = plambda_vertices(lam)  # V[0] is lam itself
    origin = np.array([0.5, 0.0, 0.0])
    scale = np.array([1 / (V[0, 0] - 0.5), 1.0, 1.0])
    return convex_membership((V[:, :3] - origin) * scale,
                             (lam_prime[:3] - origin) * scale) is not None


@dataclass(frozen=True)
class FacetInequalities:
    """The three facets of P_lam through lam, read at lam' as (the paper's
    form, whether lam' satisfies the facet).  The flag is the sign of the
    slack s_k that can_convert_bd tests; for unit-sum weights the form is
    its affine image F1 = lam_1 - s_1, F2 = 1 - 2 s_2 / (lam_1 - lam_2) or
    F3 = 1 - 4 s_3 / (1 - 2 lam_2 - 2 lam_3), positive denominators when
    lam_1 > 1/2."""

    lam: np.ndarray

    def _form(self, k, lam_prime, offset, scale):
        slack = _slacks(self.lam, validate_weights(lam_prime))[k]
        return float(offset - scale * slack), slack >= 0

    def f1(self, lam_prime):
        """lam'_1 <= lam_1 (constant-leading-weight facet)."""
        return self._form(0, lam_prime, self.lam[0], 1)

    def f2(self, lam_prime):
        """Coordinate form: ((l3+l4)/(l1-l2)) (<xx> - <yy>) + <zz> <= 1."""
        l1, l2, _, _ = self.lam.tolist()
        return self._form(1, lam_prime, 1, 2 / (l1 - l2))

    def f3(self, lam_prime):
        """Coordinate form: <xx> + <zz> - ((1-2l1+2l4)/(1-2l2-2l3)) <yy> <= 1."""
        return self._form(2, lam_prime, 1, 4 / _monotones(self.lam)[2][0])


def facet_inequalities(lam):
    """Evaluators for the three facets of the reachable polytope at lam."""
    return FacetInequalities(_require_ordered_entangled(lam))


def _caratheodory(verts, lam, lam_prime):
    """(vertex indices, convex weights) of four labelled vertices carrying
    lam'.

    All 126 four-vertex systems are solved in one batch in the coordinates
    (1, t, x_2, x_3), whose determinants do not shrink as lam_1 nears 1/2;
    affinely dependent subsets are dropped by their determinant, and the
    subset whose smallest weight is largest wins.  lam' sits at the smallest
    t of (lam'_1 - 1/2)/(lam_1 - 1/2), (lam'_3 + lam'_4)/(lam_3 + lam_4) and
    lam'_4/lam_4 (bounds on the tail layer's smallest weights; a zero
    denominator is skipped).  On a YES the first is the smallest in exact
    arithmetic; the minimum keeps rounding from pushing lam' past a facet,
    and moves the replayed lam'_1 by the change in t times lam_1 - 1/2.  A
    weight below -TOL.equality raises NotConvertibleError; the caller leaves
    weights at or below TOL.negligible out.
    """
    l1, _, l3, l4 = lam.tolist()
    p1, p2, p3, p4 = lam_prime.tolist()
    t = min(n / d for n, d in ((p1 - 0.5, l1 - 0.5), (p3 + p4, l3 + l4),
                               (p4, l4)) if d > 0)
    lifted = _LIFTED.copy()
    lifted[:, 2:] = verts[:, 1:3]
    A = lifted[_SUBSETS].transpose(0, 2, 1)  # columns: vertices
    with np.errstate(divide="ignore"):  # subnormal weights: LU divides by 0
        solvable = np.abs(np.linalg.det(A)) > TOL.singular
    # b as a column: numpy < 2 reads a 1-d b against stacked A differently
    b = np.array([[1.0], [t], [p2], [p3]])
    coeffs = np.linalg.solve(A[solvable], b)[..., 0]
    best = int(np.argmax(coeffs.min(axis=1)))
    subset, c = _SUBSETS[solvable][best], coeffs[best]
    if not c.min() >= -TOL.equality:
        raise NotConvertibleError(f"{lam_prime} outside the reachable polytope")
    return subset, c


def synthesize_map(lam, lam_prime):
    """The unit-sum dual state r of a deterministic LOCC map taking lam to
    lam': read-only, and the same bytes as the rmatrix of the YES
    can_convert_bd returns for the pair.

    Writes lam' as a convex combination of four labelled vertices of the
    reachable polytope (one batched barycentric solve in the layer
    coordinates, no LP; see _caratheodory) and mixes their trace-preserving
    maps with the same weights, so 4 r lam = lam' and every column of r sums
    to 1/4.  A quarter of each map is an element of vertex_set() or the
    mean of two, so r is a convex combination of at most seven vertices:
    separable by construction.  The replay of lam' is checked within
    TOL.equality; a pair the monotones refuse raises NotConvertibleError.
    """
    return _protocol_rmatrix(_protocol(_require_ordered_entangled(lam),
                                       _require_ordered_entangled(lam_prime)))


def _protocol(lam, lam_prime):
    """Decision.protocol of a YES: the four maps of _caratheodory's vertices
    and their weights, those at or below TOL.negligible set to 0, checked by
    replaying lam' through the r they form."""
    subset, c = _caratheodory(_GENERATORS @ lam, lam, lam_prime)
    protocol = subset.astype(np.uint8).tobytes() \
        + np.where(c > TOL.negligible, c, 0.0).tobytes()
    # self-check: the action reproduces the target
    if np.abs(4 * _protocol_rmatrix(protocol) @ lam - lam_prime).max() \
            > TOL.equality:
        raise NotConvertibleError("synthesized map fails to reproduce target")
    return protocol


def _protocol_rmatrix(protocol):
    """The read-only unit-sum dual state of a protocol: its four maps mixed
    with its weights, over 4."""
    maps = _GENERATORS.reshape(9, 16)[np.frombuffer(protocol, np.uint8, 4)]
    r = (np.frombuffer(protocol, offset=4) @ maps).reshape(4, 4) / 4
    r.setflags(write=False)
    return r
