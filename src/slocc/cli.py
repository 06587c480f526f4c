"""Command-line surface: every decision leaves with a checked certificate.

Subcommands: monotones, convert, separable, normal-form, apply-map,
selfcheck.  Inputs are JSON state files (or '-' for stdin) with one of three
kinds:

    {"kind": "density", "matrix": [[[re, im], ...] x4]}   4x4 complex
    {"kind": "weights", "lambda": [l1, l2, l3, l4]}
    {"kind": "rmatrix", "r": [[...] x4]}

Exit codes: 0 affirmative, 1 negative, 2 input or internal error,
3 unsupported class for the subcommand (e.g. separable input to monotones).
Output is byte-deterministic for fixed inputs, flags and --seed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from .bell import canonical_order, density_to_weights, is_entangled_bd
from .choi import apply_map_density, map_action_bd, quasi_reverse_map, rho_nd, \
    rho_nd_prime
from .convert import can_convert_bd, lp_oracle_membership, monotones
from .normal_form import classify
from .numerics import Inside, NumericsError, convex_membership
from .separability import (CANONICAL_WITNESSES, ConvexDecomposition,
                           ViolatedWitness, is_separable,
                           seesaw_min_product, validate_rmatrix, vertex_set,
                           verify_extension_certificate_W2, witness_value)
from .symmetric import QubitOrdering, assemble

EXIT_YES = 0
EXIT_NO = 1
EXIT_ERROR = 2
EXIT_UNSUPPORTED = 3


class InputError(Exception):
    """Raised on malformed or out-of-contract input files; maps to exit 2."""


def _fmt(x):
    return f"{float(x):.12g}"


def _fmt_vec(v):
    return " ".join(_fmt(x) for x in v)


def _finite(x, where):
    if not isinstance(x, (int, float)) or isinstance(x, bool) \
            or not math.isfinite(x):
        raise InputError(f"{where}: expected a finite number, got {x!r}")
    return float(x)


def _read_json(path):
    try:
        text = sys.stdin.read() if path == "-" else Path(path).read_text()
    except OSError as exc:
        raise InputError(f"{path}: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(obj, dict) or "kind" not in obj:
        raise InputError(f"{path}: expected an object with a 'kind' field")
    return obj


def _parse_real_matrix(rows, where, shape=(4, 4)):
    if not isinstance(rows, list) or len(rows) != shape[0] \
            or any(not isinstance(r, list) or len(r) != shape[1] for r in rows):
        raise InputError(f"{where}: expected a {shape[0]}x{shape[1]} array")
    return np.array([[_finite(x, f"{where}[{i}][{j}]")
                      for j, x in enumerate(row)]
                     for i, row in enumerate(rows)])


def parse_state_file(path):
    """(kind, payload): weights vector, 4x4 density, or 4x4 r-matrix."""
    obj = _read_json(path)
    kind = obj["kind"]
    if kind == "weights":
        lam = obj.get("lambda")
        if not isinstance(lam, list) or len(lam) != 4:
            raise InputError(f"{path}: 'lambda' must be a list of 4 numbers")
        lam = np.array([_finite(x, f"{path}: lambda[{i}]")
                        for i, x in enumerate(lam)])
        if lam.min() < -1e-12 or abs(lam.sum() - 1.0) > 1e-10:
            raise InputError(f"{path}: weights must be nonnegative and sum to 1")
        return "weights", np.clip(lam, 0.0, None)
    if kind == "rmatrix":
        r = _parse_real_matrix(obj.get("r"), f"{path}: r")
        try:
            return "rmatrix", validate_rmatrix(r)
        except NumericsError as exc:
            raise InputError(f"{path}: {exc}") from exc
    if kind == "density":
        rows = obj.get("matrix")
        if not isinstance(rows, list) or len(rows) != 4:
            raise InputError(f"{path}: 'matrix' must be 4 rows")
        out = np.zeros((4, 4), dtype=complex)
        for i, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != 4:
                raise InputError(f"{path}: matrix[{i}] must have 4 entries")
            for j, cell in enumerate(row):
                if not isinstance(cell, list) or len(cell) != 2:
                    raise InputError(
                        f"{path}: matrix[{i}][{j}] must be [re, im]")
                out[i, j] = complex(_finite(cell[0], f"{path}: matrix[{i}][{j}].re"),
                                    _finite(cell[1], f"{path}: matrix[{i}][{j}].im"))
        return "density", out
    raise InputError(f"{path}: unknown kind {kind!r}")


def _weights_from_state(kind, payload, path, tol):
    if kind == "weights":
        return payload
    if kind == "density":
        try:
            return density_to_weights(payload, offdiag_tol=tol)
        except NumericsError as exc:
            raise InputError(f"{path}: {exc}") from exc
    raise InputError(f"{path}: kind {kind!r} not usable as Bell weights")


def _rmatrix_json(r):
    return json.dumps([[float(x) for x in row] for row in r],
                      separators=(",", ":"))


def _emit(args, text_lines, payload):
    if args.json:
        print(json.dumps(payload, separators=(",", ":"), sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def cmd_monotones(args):
    kind, payload = parse_state_file(args.state)
    lam = _weights_from_state(kind, payload, args.state, args.tol)
    lam, _ = canonical_order(lam)
    if not is_entangled_bd(lam):
        print("NOT_ENTANGLED: lambda_1 <= 1/2, monotones undefined",
              file=sys.stderr)
        return EXIT_UNSUPPORTED
    m = monotones(lam)
    e1, e2, e3 = m.as_floats()
    _emit(args, [
        f"lambda: {_fmt_vec(lam)}",
        f"E1 = {_fmt(e1)}",
        f"E2 = {_fmt(e2)} (ratio {_fmt(m.e2[0])}/{_fmt(m.e2[1])})",
        f"E3 = {_fmt(e3)} (ratio {_fmt(m.e3[0])}/{_fmt(m.e3[1])})",
    ], {
        "lambda": [float(x) for x in lam],
        "E1": e1,
        "E2": {"value": e2, "ratio": [float(m.e2[0]), float(m.e2[1])]},
        "E3": {"value": e3, "ratio": [float(m.e3[0]), float(m.e3[1])]},
    })
    return EXIT_YES


def cmd_convert(args):
    ks, ps = parse_state_file(args.source)
    kd, pd = parse_state_file(args.target)
    lam, _ = canonical_order(_weights_from_state(ks, ps, args.source, args.tol))
    lam_p, _ = canonical_order(_weights_from_state(kd, pd, args.target,
                                                   args.tol))
    if not is_entangled_bd(lam_p):
        _emit(args, ["YES", "rule: target separable"],
              {"convertible": True, "reason": "target separable"})
        return EXIT_YES
    if not is_entangled_bd(lam):
        _emit(args, ["NO", "rule: separable source, entangled target"],
              {"convertible": False,
               "reason": "separable source, entangled target"})
        return EXIT_NO
    decision = can_convert_bd(lam, lam_p, with_map=True)
    if not decision.convertible:
        name = decision.violated_monotone
        src = dict(zip(("E1", "E2", "E3"),
                       decision.source_monotones.as_floats()))[name]
        dst = dict(zip(("E1", "E2", "E3"),
                       decision.target_monotones.as_floats()))[name]
        _emit(args, ["NO",
                     f"{name} violated: {_fmt(src)} < {_fmt(dst)}"],
              {"convertible": False, "violated_monotone": name,
               "source_value": src, "target_value": dst,
               "reason": decision.reason})
        return EXIT_NO
    # replay the printed certificate before claiming YES
    r = decision.rmatrix
    image, weight = map_action_bd(r, lam)
    replay_dev = float(np.abs(image - lam_p).max())
    if replay_dev > 1e-10:
        print(f"internal error: replay deviation {replay_dev:.3e}",
              file=sys.stderr)
        return EXIT_ERROR
    _emit(args, ["YES",
                 "rmatrix: " + _rmatrix_json(r),
                 f"replay deviation: {_fmt(replay_dev)}",
                 f"success weight: {_fmt(weight)}"],
          {"convertible": True,
           "rmatrix": [[float(x) for x in row] for row in r],
           "replay_deviation": replay_dev, "success_weight": float(weight),
           "reason": decision.reason})
    return EXIT_YES


def cmd_separable(args):
    kind, payload = parse_state_file(args.state)
    if kind != "rmatrix":
        raise InputError(f"{args.state}: 'separable' expects kind 'rmatrix'")
    cert = is_separable(payload)
    if isinstance(cert, ConvexDecomposition):
        verts = vertex_set()
        recon = sum(w * v for w, v in zip(cert.weights, verts))
        dev = float(np.abs(recon - payload).max())
        if dev > 1e-8:
            print(f"internal error: decomposition deviation {dev:.3e}",
                  file=sys.stderr)
            return EXIT_ERROR
        support = [(i, float(w)) for i, w in enumerate(cert.weights)
                   if w > 1e-12]
        lines = ["SEPARABLE",
                 f"decomposition deviation: {_fmt(dev)}"]
        lines += [f"vertex {i}: weight {_fmt(w)}" for i, w in support]
        _emit(args, lines, {"separable": True,
                            "weights": {str(i): w for i, w in support},
                            "deviation": dev})
        return EXIT_YES
    assert isinstance(cert, ViolatedWitness)
    value = witness_value(cert.witness, payload)  # re-verify before exit
    if value > -1e-12:
        print("internal error: witness value not negative on re-check",
              file=sys.stderr)
        return EXIT_ERROR
    w = cert.witness
    lines = ["ENTANGLED", f"witness family: {w.family}"]
    if w.transposed:
        lines.append("transposed: true")
    lines += [f"row perm: {list(w.row_perm)}  col perm: {list(w.col_perm)}",
              f"value: {_fmt(value)}"]
    _emit(args, lines,
          {"separable": False, "family": w.family,
           "transposed": w.transposed,
           "row_perm": list(w.row_perm), "col_perm": list(w.col_perm),
           "value": float(value)})
    return EXIT_NO


def cmd_normal_form(args):
    kind, payload = parse_state_file(args.state)
    if kind != "density":
        raise InputError(f"{args.state}: 'normal-form' expects kind 'density'")
    try:
        result = classify(payload)
    except NumericsError as exc:
        raise InputError(f"{args.state}: {exc}") from exc
    if result.kind == "separable":
        _emit(args, ["class: Separable"], {"class": "Separable"})
    elif result.kind == "bell_diagonal":
        _emit(args, ["class: BellDiagonal",
                     f"lambda: {_fmt_vec(result.weights)}"],
              {"class": "BellDiagonal",
               "lambda": [float(x) for x in result.weights]})
    else:
        _emit(args, [f"class: NDClass b={result.b:.3f}"],
              {"class": "NDClass", "b": float(result.b)})
    return EXIT_YES


def cmd_apply_map(args):
    kind, r = parse_state_file(args.rmatrix)
    if kind != "rmatrix":
        raise InputError(f"{args.rmatrix}: 'apply-map' expects kind 'rmatrix'")
    ks, ps = parse_state_file(args.state)
    lam = _weights_from_state(ks, ps, args.state, args.tol)
    try:
        out, weight = map_action_bd(r, lam)
    except NumericsError as exc:
        raise InputError(str(exc)) from exc
    _emit(args, [f"weights: {_fmt_vec(out)}",
                 f"success weight: {_fmt(weight)}"],
          {"weights": [float(x) for x in out],
           "success_weight": float(weight)})
    return EXIT_YES


def _selfcheck_items(seed):
    rng = np.random.default_rng(seed)
    seeds = rng.integers(0, 2 ** 63, size=8)

    def seesaw_suite():
        for k, name in enumerate(("W1", "W2", "W3", "W4")):
            Z = assemble(CANONICAL_WITNESSES[name], QubitOrdering.CUT)
            val, _ = seesaw_min_product(Z, restarts=60, rng=int(seeds[k]))
            if val < -1e-8:
                return False, f"{name} see-saw min {val:.3e}"
        neg = np.zeros((4, 4))
        neg[3, 0] = -1.0
        Z = assemble(neg, QubitOrdering.CUT)
        val, _ = seesaw_min_product(Z, restarts=60, rng=int(seeds[4]))
        if val > -0.2:
            return False, f"negative control min {val:.3e}"
        return True, "W1..W4 >= -1e-8, control <= -0.2"

    def w2_certificate():
        res = verify_extension_certificate_W2(tol=1e-10)
        return True, f"residual {res.residual:.3e} ({res.matched_encoding})"

    def quasi_reverse():
        worst = 0.0
        for b in (0.0, 0.1, 0.25, 0.4, 0.5):
            out, _ = apply_map_density(quasi_reverse_map(b), rho_nd_prime(b))
            worst = max(worst, float(np.abs(out - rho_nd(b)).max()))
        if worst > 1e-10:
            return False, f"worst residual {worst:.3e}"
        return True, f"worst residual {worst:.3e}"

    def monotone_vs_lp():
        local = np.random.default_rng(int(seeds[5]))
        for _ in range(200):
            lam = _random_ordered_entangled(local)
            lam_p = _random_ordered_entangled(local)
            mono = can_convert_bd(lam, lam_p, with_map=False).convertible
            lp = lp_oracle_membership(lam, lam_p)
            if mono != lp:
                return False, f"disagreement at {lam} -> {lam_p}"
        return True, "200 sampled pairs agree"

    def maps_vs_separability():
        # synthesize_map certifies its maps by construction; is_separable
        # is the independent check
        local = np.random.default_rng(int(seeds[6]))
        checked = 0
        while checked < 50:
            lam = _random_ordered_entangled(local)
            lam_p = _random_ordered_entangled(local)
            r = can_convert_bd(lam, lam_p).rmatrix
            if r is None:
                continue
            if not isinstance(is_separable(r / r.sum()), ConvexDecomposition):
                return False, f"map for {lam} -> {lam_p} not separable"
            checked += 1
        return True, "50 synthesized maps separable"

    def witness_scan_vs_lp():
        # is_separable decides a NO by the witness scan alone; the
        # 60-vertex LP is the independent check
        local = np.random.default_rng(int(seeds[7]))
        verts = np.stack([v.ravel() for v in vertex_set()])
        separable = 0
        for _ in range(100):
            r = local.dirichlet(np.full(16, 1.4)).reshape(4, 4)
            scan = isinstance(is_separable(r), ConvexDecomposition)
            if scan != isinstance(convex_membership(verts, r.ravel()), Inside):
                return False, f"disagreement at r = {_rmatrix_json(r)}"
            separable += scan
        return True, f"100 r-matrices agree ({separable} separable)"

    return [("witness see-saw", seesaw_suite),
            ("W2 extension certificate", w2_certificate),
            ("quasi-reverse map", quasi_reverse),
            ("monotones vs LP oracle", monotone_vs_lp),
            ("synthesized maps vs separability oracle",
             maps_vs_separability),
            ("witness scan vs LP oracle", witness_scan_vs_lp)]


def _random_ordered_entangled(rng):
    lam = np.sort(rng.dirichlet(np.ones(4)))[::-1]
    if lam[0] <= 0.5:
        # pull the leading weight past 1/2, renormalize the tail
        t = rng.uniform(0.5 + 1e-6, 1.0)
        lam = np.concatenate(([t], lam[1:] * (1 - t) / lam[1:].sum()))
    return lam


def cmd_selfcheck(args):
    failures = 0
    for name, fn in _selfcheck_items(args.seed):
        t0 = time.perf_counter()
        try:
            ok, detail = fn()
        except Exception as exc:  # a crashed item is a failed item
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        status = "PASS" if ok else "FAIL"
        print(f"[{status}] {name}: {detail} ({dt:.1f}s)")
        failures += 0 if ok else 1
    return EXIT_YES if failures == 0 else EXIT_ERROR


def build_parser():
    parser = argparse.ArgumentParser(
        prog="slocc",
        description="SLOCC convertibility decisions for two-qubit states, "
                    "with checkable certificates.")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable JSON output")
    parser.add_argument("--seed", type=int, default=0,
                        help="RNG seed for selfcheck (default 0)")
    parser.add_argument("--tol", type=float, default=1e-10,
                        help="tolerance for Bell-diagonality checks")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("monotones", help="ordered lambda and E1..E3")
    p.add_argument("state")
    p.set_defaults(fn=cmd_monotones)

    p = sub.add_parser("convert", help="decide lambda -> lambda'")
    p.add_argument("source")
    p.add_argument("target")
    p.set_defaults(fn=cmd_convert)

    p = sub.add_parser("separable", help="certify an r-matrix state")
    p.add_argument("state")
    p.set_defaults(fn=cmd_separable)

    p = sub.add_parser("normal-form", help="classify a two-qubit density")
    p.add_argument("state")
    p.set_defaults(fn=cmd_normal_form)

    p = sub.add_parser("apply-map", help="act an r-matrix on Bell weights")
    p.add_argument("rmatrix")
    p.add_argument("state")
    p.set_defaults(fn=cmd_apply_map)

    p = sub.add_parser("selfcheck", help="run the built-in verification suite")
    p.set_defaults(fn=cmd_selfcheck)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except NumericsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
