"""The separable polytope of symmetric four-qubit states.

Separability across the A|B cut is a convex polytope: the hull of the 60
local-unitary images of the two seed states D0 (Bell-correlated dephasing)
and G0 (a 2x2 block of weight 1/4).  Its nontrivial facets fall into five
witness families W0..W4; W0 is entrywise positivity and W1 is the PPT
condition.  The witnesses cut out the polytope, so a negative witness value
certifies entanglement by itself; only a separable state needs the LP, for
its decomposition over the vertices.  The module also provides a see-saw
lower-bound check on each assembled witness and the explicit
symmetric-extension certificate that proves the W2 family.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .numerics import (TOL, NumericsError, Inside, InvalidStateError,
                       convex_membership, is_hermitian, NonHermitianError)
from .symmetric import QubitOrdering, assemble

__all__ = [
    "CANONICAL_WITNESSES", "D0", "G0", "Witness", "ConvexDecomposition",
    "ViolatedWitness", "vertex_set", "witness_orbit", "witness_value",
    "is_separable", "validate_rmatrix", "seesaw_min_product",
    "verify_extension_certificate_W2", "symmetric_subspace_projector",
]


class InternalInconsistencyError(NumericsError):
    """The LP put outside an r-matrix that no witness rejects: a bug."""


class NoEncodingMatchesError(NumericsError):
    pass


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


@dataclass(frozen=True)
class Witness:
    """matrix = base[row_perm][:, col_perm], base the canonical family
    witness or, if `transposed`, its transpose."""

    matrix: np.ndarray
    family: str
    row_perm: tuple
    col_perm: tuple
    transposed: bool


@dataclass(frozen=True)
class ConvexDecomposition:
    """Separability certificate: r = sum weights[i] * vertex_set()[i]."""

    weights: np.ndarray


@dataclass(frozen=True)
class ViolatedWitness:
    """Entanglement certificate: <witness, r> = value < 0."""

    witness: Witness
    value: float


@lru_cache(maxsize=1)
def vertex_set():
    """The 60 polytope vertices: S4 x S4 orbits of D0 (24) and G0 (36)."""
    seen = {}
    for base in (D0, G0):
        for rp in itertools.permutations(range(4)):
            for cp in itertools.permutations(range(4)):
                v = base[np.ix_(rp, cp)]
                key = v.tobytes()
                if key not in seen:
                    v = v.copy()
                    v.setflags(write=False)
                    seen[key] = v
    return tuple(seen.values())


@lru_cache(maxsize=1)
def _vertex_array():
    """vertex_set() stacked into one read-only (60, 4, 4) array."""
    out = np.stack(vertex_set())
    out.setflags(write=False)
    return out


@lru_cache(maxsize=1)
def witness_orbit():
    """All distinct row/column permutations of the canonical witnesses and of
    the transposes of W2..W4.

    The vertex set is closed under transposition, so a transposed witness is
    as valid as its original; W0 and W1 need none (their orbits already are).
    Scan order is cheapest-first: W0 (positivity), W1 (PPT), then W2..W4,
    then the transposed W2..W4.
    """
    out = []
    seen = set()
    for family, transposed in ([(f, False) for f in CANONICAL_WITNESSES]
                               + [(f, True) for f in ("W2", "W3", "W4")]):
        base = CANONICAL_WITNESSES[family]
        if transposed:
            base = base.T
        for rp in itertools.permutations(range(4)):
            for cp in itertools.permutations(range(4)):
                w = base[np.ix_(rp, cp)]
                key = w.tobytes()
                if key not in seen:
                    seen.add(key)
                    w = w.copy()
                    w.setflags(write=False)
                    out.append(Witness(matrix=w, family=family,
                                       row_perm=rp, col_perm=cp,
                                       transposed=transposed))
    return tuple(out)


@lru_cache(maxsize=1)
def _witness_stack():
    orbit = witness_orbit()
    return np.stack([w.matrix for w in orbit]).reshape(len(orbit), 16)


def witness_value(witness, r):
    """<W, r> = sum_ij W[i,j] r[i,j]; equals tr of the assembled operators."""
    W = witness.matrix if isinstance(witness, Witness) else np.asarray(witness)
    return float(np.sum(W * np.asarray(r)))


def min_witness_values(r):
    """Per-orbit values, vectorized; useful for bulk scans."""
    return _witness_stack() @ np.asarray(r, dtype=float).ravel()


def validate_rmatrix(r, tol_neg=1e-12, tol_sum=TOL.equality):
    r = np.asarray(r, dtype=float)
    if r.shape != (4, 4):
        raise InvalidStateError("r-matrix must be 4x4")
    if r.min() < -tol_neg:
        raise InvalidStateError(f"negative entry {r.min()}")
    if abs(r.sum() - 1.0) > tol_sum:
        raise InvalidStateError(f"entries sum to {r.sum()}, expected 1")
    return r


def is_separable(r):
    """Certified separability of a symmetric state across the A|B cut.

    The witness orbit cuts out the separable polytope, so the scan decides.
    A value below -TOL.witness returns the first violated witness in scan
    order as a ViolatedWitness, with no LP.  Otherwise the 60-vertex
    membership LP returns the ConvexDecomposition; if it finds r outside, the
    witness set is incomplete and InternalInconsistencyError is raised.
    """
    r = validate_rmatrix(r)
    vals = min_witness_values(r)
    # the first violation in scan order, not the deepest
    first = int(np.argmax(vals < -TOL.witness))
    if vals[first] < -TOL.witness:
        return ViolatedWitness(witness=witness_orbit()[first],
                               value=float(vals[first]))
    membership = convex_membership(_vertex_array().reshape(-1, 16), r.ravel())
    if isinstance(membership, Inside):
        return ConvexDecomposition(weights=membership.coefficients)
    raise InternalInconsistencyError(
        "LP puts r outside the polytope but no witness is violated "
        f"(min value {vals.min():.3e})")


def seesaw_min_product(Z, restarts=200, rng=None, max_sweeps=500,
                       conv_tol=1e-12):
    """Alternating minimization of <a b| Z |a b> over product vectors.

    Z is 16x16 Hermitian in CUT ordering (C^4_A x C^4_B).  Fixing one side,
    the optimal other side is the minimal eigenvector of the contracted 4x4
    operator.  Returns (best value, (alpha, beta)); an upper bound on the
    true product-state minimum.
    """
    Z = np.asarray(Z, dtype=complex)
    if not is_hermitian(Z, tol=1e-10):
        raise NonHermitianError("see-saw input must be Hermitian")
    rng = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng
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
        for _ in range(max_sweeps):
            Ma = np.einsum("ikjl,k,l->ij", Zt, b.conj(), b)
            w, v = np.linalg.eigh((Ma + Ma.conj().T) / 2)
            a = v[:, 0]
            Mb = np.einsum("ikjl,i,j->kl", Zt, a.conj(), a)
            w, v = np.linalg.eigh((Mb + Mb.conj().T) / 2)
            b = v[:, 0]
            val = w[0]
            if abs(prev - val) < conv_tol:
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

# Candidate encodings of a qudit label i in 0..3 as two qubits: either the
# primed qubit is the most significant bit (identity relabeling) or the
# least significant (swap relabeling).
_LABEL_SWAP = (0, 2, 1, 3)
_ENCODINGS = {
    "A-primed-msb|B-primed-msb": (None, None),
    "A-primed-msb|B-primed-lsb": (None, _LABEL_SWAP),
    "A-primed-lsb|B-primed-msb": (_LABEL_SWAP, None),
    "A-primed-lsb|B-primed-lsb": (_LABEL_SWAP, _LABEL_SWAP),
}


def _z_vector(terms, perm_a, perm_b):
    v = np.zeros(64)
    pa = perm_a or (0, 1, 2, 3)
    pb = perm_b or (0, 1, 2, 3)
    for sign, a1, a2, b in terms:
        v[pa[a1] * 16 + pa[a2] * 4 + pb[b]] += sign
    return v


def z2_certificate_matrix(encoding="A-primed-msb|B-primed-msb"):
    """The 64x64 PSD extension certificate under the given label encoding."""
    perm_a, perm_b = _ENCODINGS[encoding]
    out = np.zeros((64, 64))
    for terms in _Z2_VECTOR_TERMS:
        v = _z_vector(terms, perm_a, perm_b)
        out += np.outer(v, v)
    return out / 2.0


def symmetric_subspace_projector(d=4):
    """Projector onto the symmetric subspace of C^d x C^d (rank d(d+1)/2)."""
    P = np.zeros((d * d, d * d))
    eye = np.eye(d)
    for i in range(d):
        for j in range(d):
            sym = (np.kron(eye[i], eye[j]) + np.kron(eye[j], eye[i])) / 2.0
            P += np.outer(np.kron(eye[i], eye[j]), sym)
    return P


@dataclass(frozen=True)
class ExtensionCertificateResult:
    residuals: dict            # encoding -> max |LHS - RHS|
    matched_encoding: str
    residual: float


def verify_extension_certificate_W2(tol=1e-10):
    """Check the symmetric-extension identity that certifies the W2 witness.

    With two A copies and one B copy, the projected operator I_4 (x) Z_w2
    must equal the projected partial transpose (first A copy) of the PSD
    certificate.  Both sides are compared under each catalogued two-qubit
    label encoding; returns the residual table and the matching encoding, or
    raises NoEncodingMatchesError with the per-encoding residuals.
    """
    Zw = assemble(CANONICAL_WITNESSES["W2"], QubitOrdering.CUT)
    piA = symmetric_subspace_projector(4)
    P = np.kron(piA, np.eye(4))
    lhs = P @ np.kron(np.eye(4), Zw) @ P
    residuals = {}
    for name in _ENCODINGS:
        Z2 = z2_certificate_matrix(name)
        # partial transpose on the first C^4 factor of C^4 x C^4 x C^4
        T = Z2.reshape(4, 16, 4, 16)
        Z2_pt = np.transpose(T, (2, 1, 0, 3)).reshape(64, 64)
        rhs = P @ Z2_pt @ P
        residuals[name] = float(np.abs(lhs - rhs).max())
    best = min(residuals, key=residuals.get)
    if residuals[best] > tol:
        raise NoEncodingMatchesError(
            f"no catalogued encoding matches; residuals {residuals}")
    return ExtensionCertificateResult(residuals=residuals,
                                      matched_encoding=best,
                                      residual=residuals[best])
