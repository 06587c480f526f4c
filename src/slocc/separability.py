"""The separable polytope of symmetric four-qubit states.

Separability across the A|B cut is a convex polytope: the hull of the 60
local-unitary images of the two seed states D0 (Bell-correlated dephasing)
and G0 (a 2x2 block of weight 1/4).  Its nontrivial facets fall into five
witness families W0..W4; W0 is entrywise positivity and W1 is the PPT
condition.  The 1280 witnesses of witness_orbit() cut out the polytope and
each is a facet, so `is_separable` both decides and decomposes with them.
The module also provides a see-saw lower-bound check on each assembled
witness and the explicit symmetric-extension certificate that proves the
W2 family.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .numerics import (TOL, DimensionMismatchError, NumericsError,
                       InvalidStateError, is_hermitian, NonHermitianError,
                       partial_transpose)
from .symmetric import assemble

__all__ = [
    "CANONICAL_WITNESSES", "D0", "G0", "Witness", "ConvexDecomposition",
    "ViolatedWitness", "vertex_set", "witness_orbit", "witness_value",
    "is_separable", "validate_rmatrix", "seesaw_min_product",
    "verify_extension_certificate_W2", "symmetric_subspace_projector",
]


class InternalInconsistencyError(NumericsError):
    """The facet walk fails on an r-matrix that no witness rejects: a bug."""


class CertificateMismatchError(NumericsError):
    """The W2 extension identity fails: the certificate is wrong."""


D0 = np.eye(4) / 4.0
G0 = np.zeros((4, 4))
G0[:2, :2] = 0.25
D0.setflags(write=False)
G0.setflags(write=False)

_W0 = np.zeros((4, 4))
_W0[0, 0] = 1.0
_W1 = np.array([[1, 1, 1, -1],
                [1, 1, 1, -1],
                [1, 1, 1, -1],
                [-1, -1, -1, 1]], dtype=float)
_W2 = np.array([[1, 1, 0, -1],
                [0, 0, 1, 0],
                [0, 0, 1, 0],
                [0, 0, 1, 0]], dtype=float)
_W3 = np.array([[3, 3, 1, -1],
                [3, -1, 1, 3],
                [1, 1, 3, 1],
                [-1, -1, 1, -1]], dtype=float)
_W4 = np.array([[3, 3, 1, -1],
                [3, -1, 1, 3],
                [3, -1, 1, -1],
                [1, 1, -1, 1]], dtype=float)

CANONICAL_WITNESSES = {"W0": _W0, "W1": _W1, "W2": _W2, "W3": _W3, "W4": _W4}
for _w in CANONICAL_WITNESSES.values():
    _w.setflags(write=False)


@dataclass(frozen=True, slots=True)
class Witness:
    """matrix = base[row_perm][:, col_perm], base the canonical family
    witness or, if `transposed`, its transpose."""

    matrix: np.ndarray
    family: str
    row_perm: tuple
    col_perm: tuple
    transposed: bool


@dataclass(frozen=True, slots=True)
class ConvexDecomposition:
    """Separability certificate: r = sum weights[i] * vertex_set()[i].

    At most 16 vertices carry weight (Caratheodory: the polytope is
    15-dimensional), so only they are kept, as immutable bytes: `support`
    holds their indices into vertex_set() (uint8) and `coefficients` their
    weights (float64), in the same order, none at or below TOL.negligible.
    """

    support: bytes
    coefficients: bytes

    @property
    def weights(self):
        """The weight of every vertex of vertex_set(), zero off the
        support."""
        out = np.zeros(len(vertex_set()))
        out[np.frombuffer(self.support, dtype=np.uint8)] = \
            np.frombuffer(self.coefficients)
        return out


@dataclass(frozen=True, slots=True)
class ViolatedWitness:
    """Entanglement certificate: <witness, r> = value < 0."""

    witness: Witness
    value: float


_PERMS = tuple(itertools.permutations(range(4)))
_BASES = {"D0": D0, "G0": G0, **CANONICAL_WITNESSES}
# witness_orbit() scan order, cheapest first
_WITNESS_BASES = ([(f, False) for f in CANONICAL_WITNESSES]
                  + [(f, True) for f in ("W2", "W3", "W4")])


@lru_cache(maxsize=None)
def _orbit(name, transposed):
    """The distinct base[rp][:, cp] over S4 x S4, for base the seed or
    canonical witness `name` (its transpose if `transposed`): one read-only
    (n, 4, 4) array and the (rp, cp) of each image.  Built on first use,
    once per process, from all 576 images at once.

    Order contract: each image appears once, at the first (rp, cp) in
    lexicographic order that gives it.  Certificate indices into
    vertex_set() and witness_orbit() follow this order, so it must not
    change.
    """
    base = _BASES[name].T if transposed else _BASES[name]
    P = np.array(_PERMS)
    # image k = 24 i + j is base[P[i]][:, P[j]]: lexicographic in (rp, cp)
    images = base[P[:, None, :, None], P[None, :, None, :]].reshape(-1, 4, 4)
    first = {}
    for k, image in enumerate(images):
        first.setdefault(image.tobytes(), k)
    keep = list(first.values())
    images = images[keep]
    images.setflags(write=False)
    return images, tuple((_PERMS[k // 24], _PERMS[k % 24]) for k in keep)


@lru_cache(maxsize=1)
def vertex_set():
    """The 60 polytope vertices: S4 x S4 orbits of D0 (24) and G0 (36), each
    in _orbit's order, D0 before G0."""
    return tuple(_vertex_array().reshape(-1, 4, 4))


@lru_cache(maxsize=1)
def _vertex_origins():
    """{vertex bytes: (seed name, rp, cp)} over vertex_set()."""
    return {v.tobytes(): (name, rp, cp) for name in ("D0", "G0")
            for v, (rp, cp) in zip(*_orbit(name, False))}


def _vertex_origin(v):
    """(seed name, rp, cp) with v = seed[rp][:, cp], each entry within
    TOL.tie of 0 or 1/4; None if v is no vertex."""
    v = np.asarray(v, dtype=float)
    snapped = np.where(np.abs(v - 0.25) <= TOL.tie, 0.25,
                       np.where(np.abs(v) <= TOL.tie, 0.0, np.nan))
    return _vertex_origins().get(snapped.tobytes()) \
        if v.shape == (4, 4) else None


@lru_cache(maxsize=1)
def _vertex_array():
    """vertex_set() flattened into the rows of one read-only (60, 16)
    array."""
    out = np.concatenate([_orbit("D0", False)[0], _orbit("G0", False)[0]])
    out = out.reshape(-1, 16)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=1)
def witness_orbit():
    """All distinct row/column permutations of the canonical witnesses and of
    the transposes of W2..W4.

    The vertex set is closed under transposition, so a transposed witness is
    as valid as its original; W0 and W1 need none (their orbits already are).
    Scan order is cheapest-first: W0 (positivity), W1 (PPT), then W2..W4,
    then the transposed W2..W4, each family's orbit in _orbit's order.
    is_separable scans in two stages: the 16 W1 (PPT) witnesses first, and
    all 1280 only when none of those is violated.  Positivity is
    validate_rmatrix's job: it rejects an entry below -TOL.tie, so no W0
    row can report a violation.  Every witness is a facet: its zero set on
    the vertices has affine rank 15, and the W0 facets r_ij = 0 are ones
    the facet walk of is_separable needs to reach a vertex.
    """
    return tuple(Witness(matrix=w, family=family, row_perm=rp, col_perm=cp,
                         transposed=transposed)
                 for family, transposed in _WITNESS_BASES
                 for w, (rp, cp) in zip(*_orbit(family, transposed)))


@lru_cache(maxsize=1)
def _witness_stack():
    """witness_orbit()'s matrices flattened into the rows of one read-only
    (1280, 16) array."""
    out = np.concatenate([_orbit(*key)[0] for key in _WITNESS_BASES])
    out = out.reshape(-1, 16)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=1)
def _ppt_stack():
    """(start, rows): the W1 rows of _witness_stack(), a read-only (16, 16)
    view, and the scan index of the first of them, the W0 row count."""
    start = len(_orbit("W0", False)[0])
    return start, _witness_stack()[start:start + len(_orbit("W1", False)[0])]


def witness_value(witness, r):
    """<W, r> = sum_ij W[i,j] r[i,j]; equals tr of the assembled operators."""
    W = np.asarray(witness.matrix if isinstance(witness, Witness) else witness)
    if W.shape != (4, 4):
        raise DimensionMismatchError("witness must be 4x4")
    return float(np.sum(W * _rmatrix_array(r)))


def min_witness_values(r):
    """All 1280 values <W, r>, in witness_orbit() order, as one array."""
    return _witness_stack() @ np.asarray(r, dtype=float).ravel()


def _rmatrix_array(r):
    """r as a float array; InvalidStateError unless it is 4x4."""
    r = np.asarray(r, dtype=float)
    if r.shape != (4, 4):
        raise InvalidStateError("r-matrix must be 4x4")
    return r


def validate_rmatrix(r):
    r = _rmatrix_array(r)
    flat = r.ravel().tolist()
    # one negated comparison on Python floats: a NaN entry fails it through
    # the sum; numpy names the fault only once it has failed
    if not (min(flat) >= -TOL.tie and abs(sum(flat) - 1.0) <= TOL.equality):
        low = r.min()
        if not low >= -TOL.tie:
            kind = "non-finite" if np.isnan(low) else "negative"
            raise InvalidStateError(f"{kind} entry {low}")
        raise InvalidStateError(f"entries sum to {r.sum()}, expected 1")
    return r


@lru_cache(maxsize=1)
def _walk_tables():
    """Read-only tables of the facet walk: WV[k, j] = <W_j, v_k> for vertex
    v_k of vertex_set() and witness W_j of witness_orbit() (an exact
    multiple of 1/4), and on_facet[j, k] = (WV[k, j] == 0), the vertices
    each facet passes through."""
    # einsum, not a BLAS product: threaded OpenBLAS spends about 15 ms on
    # this small one (2 vCPU), einsum 0.5 ms
    WV = np.einsum("kx,jx->kj", _vertex_array(), _witness_stack())
    tables = (WV, np.ascontiguousarray(WV.T == 0))
    for table in tables:
        table.setflags(write=False)
    return tables


def _facet_walk(r, values):
    """Convex weights over vertex_set() that rebuild r, by a constructive
    Caratheodory walk across the facets, from r's witness values.

    The walk tracks the residual q (r minus the weight given out), its
    witness values u, and the face: the vertices on every facet made tight
    so far.  Each step peels off the face's vertex v_k farthest from q (the
    least aligned one, as every vertex has norm 1/2) as far as the
    witnesses allow: t = min u_j / WV[k, j] over the facets j off v_k.
    Facet j turns tight and the face keeps only its vertices, so u_j is
    never read again.  Each step leaves a proper face, so within 15 steps
    (the polytope's dimension) one vertex is left, and it gets the rest.
    WV's nonzero entries are powers of two, so each step is exact and u
    stays >= 0, short of subnormal rounding.
    """
    WV, on_facet = _walk_tables()
    V = _vertex_array()
    q = r.flatten()
    # values down to -TOL.witness are accepted: start them on their facet
    u = np.maximum(values, 0.0)
    face = np.ones(len(V), dtype=bool)
    weights = np.zeros(len(V))
    for _ in range(15):
        if np.count_nonzero(face) <= 1:
            break
        aligned = V @ q
        aligned[~face] = np.inf
        k = int(np.argmin(aligned))
        room = np.divide(u, WV[k], out=np.full_like(u, np.inf),
                         where=WV[k] > 0)
        j = int(np.argmin(room))
        weights[k] = t = room[j]
        q -= t * V[k]
        u -= t * WV[k]
        np.maximum(u, 0.0, out=u)  # a subnormal remainder can round below 0
        face &= on_facet[j]
    last = np.flatnonzero(face)
    if len(last) != 1:
        raise InternalInconsistencyError(
            f"facet walk ends on {len(last)} vertices, not one")
    # rounding can leave a zero mass a few ulps below 0
    weights[last[0]] = max(q.sum(), 0.0)
    return weights


def is_separable(r):
    """Certified separability of a symmetric state across the A|B cut.

    The witness orbit cuts out the separable polytope, so the scan decides.
    A value below -TOL.witness returns the first violated witness in scan
    order as a ViolatedWitness.  Positivity (the W0 witnesses) is the
    validation: validate_rmatrix rejects an entry below -TOL.tie.  The scan
    then runs in two stages: the 16 W1 (PPT) witnesses, which refute most
    entangled r, and then, only if they all hold, the full 1280, whose
    values the walk needs.  Either stage's first violation is the first of
    the full scan.  Otherwise the facet walk (_facet_walk)
    decomposes r over the 60 vertices, weights at or below TOL.negligible
    are dropped, and the ConvexDecomposition is returned once the weights
    it keeps rebuild r within TOL.solver.  Neither answer
    solves an LP.  InternalInconsistencyError is raised, as a bug, if the
    walk ends on other than one vertex, or if the rebuild misses r by more
    than TOL.solver.
    """
    r = validate_rmatrix(r)
    # validated entries are >= -TOL.tie > -TOL.witness: no W0 row can fail
    start, ppt = _ppt_stack()
    for k, value in enumerate((ppt @ r.ravel()).tolist()):
        if value < -TOL.witness:
            return ViolatedWitness(witness=witness_orbit()[start + k],
                                   value=value)
    vals = _witness_stack() @ r.ravel()
    # the first violation in scan order, not the deepest
    first = int(np.argmax(vals < -TOL.witness))
    if vals[first] < -TOL.witness:
        return ViolatedWitness(witness=witness_orbit()[first],
                               value=float(vals[first]))
    weights = _facet_walk(r, vals)
    weights[weights <= TOL.negligible] = 0.0  # rounding dust
    miss = float(np.abs(weights @ _vertex_array() - r.ravel()).max())
    if miss > TOL.solver:
        raise InternalInconsistencyError(
            f"facet walk rebuilds r within {miss:.3e}, not {TOL.solver:g}")
    support = np.flatnonzero(weights)
    return ConvexDecomposition(support=support.astype(np.uint8).tobytes(),
                               coefficients=weights[support].tobytes())


def seesaw_min_product(Z, restarts=200, rng=None):
    """Alternating minimization of <a b| Z |a b> over product vectors.

    Z is 16x16 Hermitian on C^4_A x C^4_B (qubits A' A'' B' B'').  Fixing
    one side, the optimal other side is the minimal eigenvector of the
    contracted 4x4 operator.  Each restart stops after 500 sweeps, or once
    two successive values agree within TOL.tie.  Returns (best value,
    (alpha, beta)); an upper bound on the true product-state minimum.
    """
    Z = np.asarray(Z, dtype=complex)
    if not is_hermitian(Z):
        raise NonHermitianError("see-saw input must be Hermitian")
    rng = np.random.default_rng(rng)
    Zt = Z.reshape(4, 4, 4, 4)
    best_val = np.inf
    best_pair = None
    for _ in range(restarts):
        a = rng.normal(size=4) + 1j * rng.normal(size=4)
        a /= np.linalg.norm(a)
        b = rng.normal(size=4) + 1j * rng.normal(size=4)
        b /= np.linalg.norm(b)
        prev = np.inf
        val = np.inf
        for _ in range(500):
            Ma = np.einsum("ikjl,k,l->ij", Zt, b.conj(), b)
            w, v = np.linalg.eigh((Ma + Ma.conj().T) / 2)
            a = v[:, 0]
            Mb = np.einsum("ikjl,i,j->kl", Zt, a.conj(), a)
            w, v = np.linalg.eigh((Mb + Mb.conj().T) / 2)
            b = v[:, 0]
            val = w[0]
            if abs(prev - val) < TOL.tie:
                break
            prev = val
        if val < best_val:
            best_val = val
            best_pair = (a.copy(), b.copy())
    return float(best_val), best_pair


# --- symmetric-extension certificate for the W2 family --------------------

# The PSD certificate is (1/2) sum_i |z_i><z_i| on two A copies and one B
# copy (each C^4); vectors listed as (sign, a1, a2, b) with labels in 0..3.
_Z2_VECTOR_TERMS = (
    ((+1, 0, 1, 0), (-1, 0, 2, 3), (+1, 1, 1, 1),
     (+1, 1, 3, 3), (+1, 2, 2, 1), (+1, 2, 3, 0)),
    ((+1, 1, 0, 3), (+1, 1, 1, 2), (+1, 2, 0, 0),
     (+1, 2, 2, 2), (-1, 3, 1, 0), (+1, 3, 2, 3)),
    ((+1, 0, 0, 0), (+1, 0, 2, 2), (+1, 1, 0, 1),
     (-1, 1, 3, 2), (+1, 3, 2, 1), (+1, 3, 3, 0)),
    ((+1, 0, 0, 3), (+1, 0, 1, 2), (-1, 2, 0, 1),
     (+1, 2, 3, 2), (+1, 3, 1, 1), (+1, 3, 3, 3)),
)


def z2_certificate_matrix():
    """The 64x64 PSD extension certificate; a qudit label i in 0..3 encodes
    the qubit pair (primed, double-primed) with the primed qubit as the most
    significant bit, on both parties."""
    out = np.zeros((64, 64))
    for terms in _Z2_VECTOR_TERMS:
        v = np.zeros(64)
        for sign, a1, a2, b in terms:
            v[a1 * 16 + a2 * 4 + b] += sign
        out += np.outer(v, v)
    return out / 2.0


def symmetric_subspace_projector(d=4):
    """Projector onto the symmetric subspace of C^d x C^d (rank d(d+1)/2)."""
    eye = np.eye(d * d)
    swap = eye.reshape(d, d, d, d).transpose(1, 0, 2, 3).reshape(d * d, d * d)
    return (eye + swap) / 2.0


@dataclass(frozen=True)
class ExtensionCertificateResult:
    residual: float            # max |LHS - RHS|


def verify_extension_certificate_W2():
    """Check the symmetric-extension identity that certifies the W2 witness.

    With two A copies and one B copy, the projected operator I_4 (x) Z_w2
    must equal the projected partial transpose (first A copy) of the PSD
    certificate.  Returns the residual, or raises CertificateMismatchError
    if it exceeds TOL.equality.
    """
    Zw = assemble(CANONICAL_WITNESSES["W2"])
    piA = symmetric_subspace_projector(4)
    P = np.kron(piA, np.eye(4))
    lhs = P @ np.kron(np.eye(4), Zw) @ P
    # partial transpose on the first C^4 factor of C^4 x C^4 x C^4
    Z2_pt = partial_transpose(z2_certificate_matrix(), (4, 4, 4), 0)
    residual = float(np.abs(lhs - P @ Z2_pt @ P).max())
    if residual > TOL.equality:
        raise CertificateMismatchError(
            f"W2 extension certificate residual {residual:.3e}")
    return ExtensionCertificateResult(residual=residual)
