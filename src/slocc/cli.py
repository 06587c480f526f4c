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

from .bell import (canonical_order, density_to_weights, is_entangled_bd,
                   validate_weights)
from .choi import apply_map_density, map_action_bd, quasi_reverse_map, rho_nd, \
    rho_nd_prime
from .convert import (_separable_endpoint, can_convert_bd,
                      lp_oracle_membership, monotones)
from .normal_form import _states, classify
from .numerics import TOL, NumericsError, convex_membership
from .separability import (CANONICAL_WITNESSES, ConvexDecomposition,
                           ViolatedWitness, _vertex_array, is_separable,
                           seesaw_min_product, validate_rmatrix,
                           verify_extension_certificate_W2, witness_value)
from .symmetric import assemble

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


def _json_value(x):
    """float(x), or None (JSON null) for an infinite monotone value."""
    x = float(x)
    return x if math.isfinite(x) else None


def _read_json(path):
    try:
        text = sys.stdin.read() if path == "-" else Path(path).read_text()
        obj = json.loads(text)
    except OSError as exc:
        raise InputError(f"{path}: {exc}") from exc
    except ValueError as exc:  # bad UTF-8 or JSON, or an over-long integer
        raise InputError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(obj, dict) or "kind" not in obj:
        raise InputError(f"{path}: expected an object with a 'kind' field")
    return obj


def _array(obj, shape, where):
    """Nested JSON lists of finite numbers as a float array of `shape`;
    InputError names the first entry, in reading order, that does not fit."""
    if not shape:
        try:  # a bool is an int to Python; a huge int overflows a float
            if not isinstance(obj, bool) and math.isfinite(obj):
                return float(obj)
        except (TypeError, OverflowError):
            pass
        raise InputError(f"{where}: expected a finite number, got {obj!r}")
    if not isinstance(obj, list) or len(obj) != shape[0]:
        raise InputError(f"{where}: expected a list of {shape[0]} entries")
    return np.array([_array(x, shape[1:], f"{where}[{i}]")
                     for i, x in enumerate(obj)])


# kind: (field, shape read, check of the array read); a density entry is a
# [re, im] pair, viewed bit for bit as one complex number, and the density
# must be a state: Hermitian, of unit trace and PSD
_KINDS = {
    "weights": ("lambda", (4,), validate_weights),
    "rmatrix": ("r", (4, 4), validate_rmatrix),
    "density": ("matrix", (4, 4, 2),
                lambda a: _states((a.view(complex)[..., 0],))[0][0]),
}


def parse_state_file(path):
    """(kind, payload): weights vector, 4x4 density, or 4x4 r-matrix."""
    obj = _read_json(path)
    kind = obj["kind"]
    if not isinstance(kind, str) or kind not in _KINDS:
        raise InputError(f"{path}: unknown kind {kind!r}")
    field, shape, check = _KINDS[kind]
    values = _array(obj.get(field), shape, f"{path}: {field}")
    try:
        return kind, check(values)
    except NumericsError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _weights_from_state(kind, payload, path):
    if kind == "weights":
        return payload
    if kind == "density":
        try:
            return density_to_weights(payload)
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
    lam = _weights_from_state(kind, payload, args.state)
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
        "E2": {"value": _json_value(e2), "ratio": [float(x) for x in m.e2]},
        "E3": {"value": _json_value(e3), "ratio": [float(x) for x in m.e3]},
    })
    return EXIT_YES


def cmd_convert(args):
    ks, ps = parse_state_file(args.source)
    kd, pd = parse_state_file(args.target)
    lam, _ = canonical_order(_weights_from_state(ks, ps, args.source))
    lam_p, _ = canonical_order(_weights_from_state(kd, pd, args.target))
    rule = _separable_endpoint(is_entangled_bd(lam), is_entangled_bd(lam_p))
    if rule is not None:
        _emit(args, ["YES" if rule.convertible else "NO",
                     f"rule: {rule.reason}"],
              {"convertible": rule.convertible, "reason": rule.reason})
        return EXIT_YES if rule.convertible else EXIT_NO
    decision = can_convert_bd(lam, lam_p, with_map=True)
    if not decision.convertible:
        name = decision.violated_monotone
        k = ("E1", "E2", "E3").index(name)
        src = monotones(lam).as_floats()[k]
        dst = monotones(lam_p).as_floats()[k]
        _emit(args, ["NO",
                     f"{name} violated: {_fmt(src)} < {_fmt(dst)}"],
              {"convertible": False, "violated_monotone": name,
               "source_value": _json_value(src),
               "target_value": _json_value(dst),
               "reason": decision.reason})
        return EXIT_NO
    # replay the printed certificate before claiming YES
    r = decision.rmatrix
    image, weight = map_action_bd(r, lam)
    replay_dev = float(np.abs(image - lam_p).max())
    if replay_dev > TOL.equality:
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
        support = list(zip(cert.support,
                           np.frombuffer(cert.coefficients).tolist()))
        verts = _vertex_array()
        # rebuilt from the printed weights alone, in ascending vertex order
        recon = sum(w * verts[i] for i, w in support)
        dev = float(np.abs(recon - payload.ravel()).max())
        if dev > TOL.solver:
            print(f"internal error: decomposition deviation {dev:.3e}",
                  file=sys.stderr)
            return EXIT_ERROR
        lines = ["SEPARABLE",
                 f"decomposition deviation: {_fmt(dev)}"]
        lines += [f"vertex {i}: weight {_fmt(w)}" for i, w in support]
        _emit(args, lines, {"separable": True,
                            "weights": {str(i): w for i, w in support},
                            "deviation": dev})
        return EXIT_YES
    assert isinstance(cert, ViolatedWitness)
    value = witness_value(cert.witness, payload)  # re-verify before exit
    if not value < -TOL.witness:
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
    result = classify(payload)
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
    lam = _weights_from_state(ks, ps, args.state)
    out, weight = map_action_bd(r, lam)
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
            Z = assemble(CANONICAL_WITNESSES[name])
            val, _ = seesaw_min_product(Z, restarts=60, rng=int(seeds[k]))
            if val < -TOL.solver:
                return False, f"{name} see-saw min {val:.3e}"
        neg = np.zeros((4, 4))
        neg[3, 0] = -1.0
        Z = assemble(neg)
        val, _ = seesaw_min_product(Z, restarts=60, rng=int(seeds[4]))
        if val > -0.2:
            return False, f"negative control min {val:.3e}"
        return True, "W1..W4 >= -1e-8, control <= -0.2"

    def w2_certificate():
        res = verify_extension_certificate_W2()
        return True, f"residual {res.residual:.3e}"

    def quasi_reverse():
        worst = 0.0
        for b in (0.0, 0.1, 0.25, 0.4, 0.5):
            out, _ = apply_map_density(quasi_reverse_map(b), rho_nd_prime(b))
            worst = max(worst, float(np.abs(out - rho_nd(b)).max()))
        if worst > TOL.equality:
            return False, f"worst residual {worst:.3e}"
        return True, f"worst residual {worst:.3e}"

    def monotone_vs_lp():
        # every YES also replays its map
        local = np.random.default_rng(int(seeds[5]))
        replayed = 0
        for _ in range(200):
            lam = _random_ordered_entangled(local)
            lam_p = _random_ordered_entangled(local)
            decision = can_convert_bd(lam, lam_p)
            if decision.convertible != lp_oracle_membership(lam, lam_p):
                return False, f"disagreement at {lam} -> {lam_p}"
            if decision.convertible:
                image, _ = map_action_bd(decision.rmatrix, lam)
                if np.abs(image - lam_p).max() > TOL.equality:
                    return False, f"map for {lam} -> {lam_p} fails replay"
                replayed += 1
        return True, f"200 sampled pairs agree, {replayed} maps replayed"

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
            if not isinstance(is_separable(r), ConvexDecomposition):
                return False, f"map for {lam} -> {lam_p} not separable"
            checked += 1
        return True, "50 synthesized maps separable"

    def witness_scan_vs_lp():
        # the 60-vertex LP is the independent check of both answers
        local = np.random.default_rng(int(seeds[7]))
        verts = _vertex_array()
        separable = 0
        worst, support = 0.0, 0
        for _ in range(100):
            r = local.dirichlet(np.full(16, 1.4)).reshape(4, 4)
            cert = is_separable(r)
            scan = isinstance(cert, ConvexDecomposition)
            if scan != (convex_membership(verts, r.ravel()) is not None):
                return False, f"disagreement at r = {_rmatrix_json(r)}"
            if scan:
                separable += 1
                worst = max(worst, float(
                    np.abs(cert.weights @ verts - r.ravel()).max()))
                support = max(support, len(cert.support))
        return True, (f"100 r-matrices agree ({separable} separable; walk "
                      f"rebuilds within {worst:.3e} on <= {support} "
                      "vertices)")

    return [("witness see-saw", seesaw_suite),
            ("W2 extension certificate", w2_certificate),
            ("quasi-reverse map", quasi_reverse),
            ("monotones vs LP oracle", monotone_vs_lp),
            ("synthesized maps vs separability oracle",
             maps_vs_separability),
            ("witness scan vs LP oracle", witness_scan_vs_lp)]


def _random_ordered_entangled(rng, floor=0.5 + 1e-6):
    lam = np.sort(rng.dirichlet(np.ones(4)))[::-1]
    if lam[0] <= floor:
        # pull the leading weight past the floor, renormalize the tail
        t = rng.uniform(floor, 1.0)
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
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, operands, text in (
            ("monotones", cmd_monotones, ["state"],
             "ordered lambda and E1..E3"),
            ("convert", cmd_convert, ["source", "target"],
             "decide lambda -> lambda'"),
            ("separable", cmd_separable, ["state"],
             "certify an r-matrix state"),
            ("normal-form", cmd_normal_form, ["state"],
             "classify a two-qubit density"),
            ("apply-map", cmd_apply_map, ["rmatrix", "state"],
             "act an r-matrix on Bell weights"),
            ("selfcheck", cmd_selfcheck, [],
             "run the built-in verification suite")):
        p = sub.add_parser(name, help=text)
        for operand in operands:
            p.add_argument(operand)
        p.set_defaults(fn=fn)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (InputError, NumericsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
