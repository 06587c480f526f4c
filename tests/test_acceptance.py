"""Acceptance gate: twelve oracle-backed criteria, one pass/fail line each.

Every criterion prints a single [PASS]/[FAIL] line (run with -s to see them)
and asserts, so a red criterion is visible both ways.
"""

import json
import time

import numpy as np

from slocc.bell import weights_to_coords, weights_to_density
from slocc.choi import (apply_map_density, cj_rmatrix, cj_state,
                        channel_from_cj, kraus_for_vertex, map_action_bd,
                        quasi_reverse_map, rho_nd, rho_nd_prime)
from slocc.cli import _random_ordered_entangled, main as cli_main
from slocc.convert import (can_convert_bd, facet_inequalities,
                           lp_oracle_membership, monotones, plambda_vertices)
from slocc.normal_form import classify, filter_iteration, is_ppt
from slocc.numerics import convex_membership, partial_transpose
from slocc.separability import (CANONICAL_WITNESSES, min_witness_values,
                                seesaw_min_product,
                                symmetric_subspace_projector,
                                verify_extension_certificate_W2, vertex_set,
                                witness_orbit, z2_certificate_matrix)
from slocc.symmetric import assemble


def _report(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num}: {label}" + (f" ({detail})" if detail
                                                    else ""))
    assert ok, f"criterion {num} failed: {label} {detail}"


def _facet_saturating_vertices(lam):
    """Vertex lists of the reachable polytope saturating F1, F2, F3."""
    verts = plambda_vertices(lam)
    m = monotones(lam)
    by_facet = {1: [], 2: [], 3: []}
    for v in verts:
        if abs(v[0] - lam[0]) < 1e-12:
            by_facet[1].append(v)
        mv = (float(1 - 2 * v[1]), float(v[2] + v[3]))
        if abs(mv[0] * m.e2[1] - m.e2[0] * mv[1]) < 1e-12:
            by_facet[2].append(v)
        mv = (float(1 - 2 * v[1] - 2 * v[2]), float(v[3]))
        if abs(mv[0] * m.e3[1] - m.e3[0] * mv[1]) < 1e-12:
            by_facet[3].append(v)
    return by_facet


def _near_facet_pair(rng):
    """A (lam, lam') pair with lam' within ~1e-3 of a facet of P_lam."""
    for _ in range(50):
        lam = _random_ordered_entangled(rng, floor=0.55)
        by_facet = _facet_saturating_vertices(lam)
        facet = rng.integers(1, 4)
        sat = by_facet[facet]
        if len(sat) < 2:
            continue
        w = rng.dirichlet(np.ones(len(sat)))
        p = np.asarray(sat).T @ w                      # on the facet
        centroid = plambda_vertices(lam).mean(axis=0)  # strictly inside
        eps = rng.uniform(1e-4, 1e-3)
        cand = p + eps * (centroid - p) if rng.random() < 0.5 \
            else p + eps * (p - centroid)
        cand = np.sort(cand)[::-1]
        if cand.min() < 0 or cand[0] <= 0.5 + 1e-6:
            continue
        cand = cand / cand.sum()
        return lam, cand
    raise RuntimeError("could not sample a near-facet pair")


def test_criterion_1_monotones_match_lp_oracle():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    pairs = [(_random_ordered_entangled(rng, floor=0.5 + 1e-4),
              _random_ordered_entangled(rng, floor=0.5 + 1e-4))
             for _ in range(9000)]
    pairs += [_near_facet_pair(rng) for _ in range(1000)]
    mismatches = 0
    for lam, lam_p in pairs:
        decision = can_convert_bd(lam, lam_p, with_map=False)
        if decision.convertible != lp_oracle_membership(lam, lam_p):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    _report(1, "monotone decision matches LP oracle on 10^4 pairs",
            mismatches == 0 and elapsed < 60.0,
            f"{mismatches} mismatches, {elapsed:.1f}s of 60s")


def _random_rmatrix(rng, alpha):
    return rng.dirichlet(np.full(16, alpha)).reshape(4, 4)


def test_criterion_2_polytope_duality():
    rng = np.random.default_rng(2025)
    verts = np.stack([v.ravel() for v in vertex_set()])
    states = []
    # separable by construction: mixtures of the 60 vertices
    for _ in range(1000):
        w = rng.dirichlet(np.full(60, 0.2))
        states.append((verts.T @ w).reshape(4, 4))
    # entangled states: spiky random r-matrices filtered by the witness scan
    found = 0
    while found < 1000:
        r = _random_rmatrix(rng, 0.15)
        if min_witness_values(r).min() < -1e-10:
            states.append(r)
            found += 1
    disagreements = 0
    for r in states:
        lp_in = convex_membership(verts, r.ravel()) is not None
        wit_in = bool(min_witness_values(r).min() >= -1e-10)
        if lp_in != wit_in:
            disagreements += 1
    _report(2, "LP membership iff witness scan on 2x10^3 states",
            disagreements == 0, f"{disagreements} disagreements")


def test_criterion_3_ppt_equals_w1():
    rng = np.random.default_rng(2026)
    w1_idx = [k for k, w in enumerate(witness_orbit()) if w.family == "W1"]
    bad = 0
    for _ in range(1000):
        r = _random_rmatrix(rng, rng.choice([0.15, 0.5, 2.0]))
        rho = assemble(r)
        pt_min = np.linalg.eigvalsh(partial_transpose(rho, (4, 4), 1)).min()
        w1_min = min_witness_values(r)[w1_idx].min()
        if (pt_min >= -1e-10) != (w1_min >= -1e-10):
            bad += 1
    _report(3, "PPT iff W1-orbit nonnegative on 10^3 states", bad == 0,
            f"{bad} disagreements")


def test_criterion_4_facet_certification():
    ok = True
    details = []
    for name, W in CANONICAL_WITNESSES.items():
        vals = np.array([float(np.sum(W * v)) for v in vertex_set()])
        vmin = vals.min()
        sat = [v for v, val in zip(vertex_set(), vals) if val <= 1e-12]
        base = sat[0].ravel()
        span = np.stack([v.ravel() - base for v in sat[1:]])
        dim = np.linalg.matrix_rank(span, tol=1e-9)
        details.append(f"{name}: min {vmin:.1e}, dim {dim}")
        ok = ok and abs(vmin) <= 1e-12 and dim == 14
    _report(4, "each witness is a facet (min 0, affine dim 14)", ok,
            "; ".join(details))


def test_criterion_5_extension_certificate():
    res = verify_extension_certificate_W2()
    Z2 = z2_certificate_matrix()
    min_eig = np.linalg.eigvalsh(Z2).min()
    rank = np.linalg.matrix_rank(symmetric_subspace_projector(4))
    ok = res.residual <= 1e-10 and min_eig >= -1e-12 and rank == 10
    _report(5, "W2 symmetric-extension certificate verifies", ok,
            f"residual {res.residual:.1e}, Z2 min eig {min_eig:.1e}, "
            f"projector rank {rank}")


def test_criterion_6_witness_seesaw():
    details = []
    ok = True
    for k, name in enumerate(("W1", "W2", "W3", "W4")):
        Z = assemble(CANONICAL_WITNESSES[name])
        val, _ = seesaw_min_product(Z, restarts=200, rng=k)
        details.append(f"{name}: {val:.1e}")
        ok = ok and val >= -1e-8
    neg = np.zeros((4, 4))
    neg[3, 0] = -1.0
    ctrl, _ = seesaw_min_product(assemble(neg),
                                 restarts=200, rng=99)
    ok = ok and ctrl <= -0.2
    details.append(f"control: {ctrl:.3f}")
    _report(6, "see-saw minima nonnegative, negative control detected", ok,
            "; ".join(details))


def test_criterion_7_cj_round_trips():
    worst = 0.0
    for v in vertex_set():
        m = kraus_for_vertex(v)
        worst = max(worst, float(np.abs(cj_rmatrix(m) - v).max()))
    rng = np.random.default_rng(2027)
    m = kraus_for_vertex(vertex_set()[37])
    dual = cj_state(m)
    worst_action = 0.0
    for _ in range(20):
        A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = A @ A.conj().T
        rho /= np.trace(rho).real
        direct = sum(K @ rho @ K.conj().T for K in m.combined())
        via = channel_from_cj(dual, rho)
        worst_action = max(worst_action, float(np.abs(direct - via).max()))
    ok = worst <= 1e-10 and worst_action <= 1e-10
    _report(7, "all 60 CJ round trips and dual action reproduce", ok,
            f"vertex dev {worst:.1e}, action dev {worst_action:.1e}")


def test_criterion_8_quasi_reverse():
    worst = 0.0
    for b in (0.0, 0.1, 0.25, 0.4, 0.5):
        out, _ = apply_map_density(quasi_reverse_map(b), rho_nd_prime(b))
        worst = max(worst, float(np.abs(out - rho_nd(b)).max()))
    _report(8, "quasi-reverse map exact for b in {0,.1,.25,.4,.5}",
            worst <= 1e-10, f"worst residual {worst:.1e}")


def _random_filter(rng, max_cond):
    while True:
        F = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        s = np.linalg.svd(F, compute_uv=False)
        if s[0] / s[1] <= max_cond:
            return F


def test_criterion_9_normal_form():
    rng = np.random.default_rng(2028)
    worst_iter, worst_dev = 0, 0.0
    for _ in range(500):
        A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = A @ A.conj().T
        rho /= np.trace(rho).real
        res = filter_iteration(rho)
        worst_iter = max(worst_iter, res.iterations)
        worst_dev = max(worst_dev, res.marginal_deviation)
        if not res.converged or res.iterations > 200:
            _report(9, "filter convergence", False,
                    f"{res.iterations} iterations, dev {res.marginal_deviation:.1e}")
    # lambda invariance under condition-bounded product filters
    worst_inv = 0.0
    for _ in range(20):
        lam = _random_ordered_entangled(rng, floor=0.55)
        rho = weights_to_density(lam)
        K = np.kron(_random_filter(rng, 10.0), _random_filter(rng, 10.0))
        twisted = K @ rho @ K.conj().T
        twisted /= np.trace(twisted).real
        res = filter_iteration(twisted)
        back = np.sort(np.linalg.eigvalsh(res.state))[::-1]
        worst_inv = max(worst_inv, float(np.abs(back - lam).max()))
    # classification agrees with PPT across ranks
    bad = 0
    for k in range(1000):
        rank = 1 + k % 4
        A = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
        rho = A @ A.conj().T
        rho /= np.trace(rho).real
        c = classify(rho)
        if (c.kind == "separable") != is_ppt(rho):
            bad += 1
    ok = worst_iter <= 200 and worst_dev < 1e-10 and worst_inv < 1e-6 \
        and bad == 0
    _report(9, "normal form converges, lambda invariant, class iff PPT", ok,
            f"max iter {worst_iter}, invariance dev {worst_inv:.1e}, "
            f"{bad} class disagreements")


def test_criterion_10_bell_coordinates():
    expected = [(-1, 1, -1), (1, -1, -1), (-1, -1, 1), (1, 1, 1)]
    ok = all(tuple(weights_to_coords(np.eye(4)[k])) == expected[k]
             for k in range(4))
    _report(10, "Bell states at the tetrahedron corners, exactly", ok)


def test_criterion_11_facet_saturation_at_source():
    rng = np.random.default_rng(2029)
    worst = 0.0
    count = 0
    while count < 100:
        lam = _random_ordered_entangled(rng, floor=0.55)
        if lam[0] - lam[1] < 1e-6:
            continue
        count += 1
        f = facet_inequalities(lam)
        worst = max(worst, abs(f.f2(lam)[0] - 1.0), abs(f.f3(lam)[0] - 1.0))
    _report(11, "F2 and F3 equal 1 at lambda' = lambda on 100 samples",
            worst <= 1e-10, f"worst |LHS - 1| = {worst:.1e}")


def test_criterion_12_end_to_end_cli(tmp_path, capsys):
    src = tmp_path / "src.json"
    dst = tmp_path / "dst.json"
    src.write_text(json.dumps({"kind": "weights",
                               "lambda": [0.7, 0.1, 0.1, 0.1]}))
    dst.write_text(json.dumps({"kind": "weights",
                               "lambda": [0.6, 0.2, 0.1, 0.1]}))
    code_yes = cli_main(["convert", str(src), str(dst)])
    out_yes = capsys.readouterr().out
    rline = next(l for l in out_yes.splitlines() if l.startswith("rmatrix:"))
    r = np.array(json.loads(rline.split(":", 1)[1]))
    image, _ = map_action_bd(r, np.array([0.7, 0.1, 0.1, 0.1]))
    replay = float(np.abs(image - [0.6, 0.2, 0.1, 0.1]).max())
    code_no = cli_main(["convert", str(dst), str(src)])
    out_no = capsys.readouterr().out
    ok = (code_yes == 0 and "YES" in out_yes and replay <= 1e-10
          and code_no == 1 and "E1" in out_no)
    with capsys.disabled():
        _report(12, "CLI worked pair: YES with replaying map, reverse NO on E1",
                ok, f"replay dev {replay:.1e}")
