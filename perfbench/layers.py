"""The traced run: per-layer metrics from spans taken outside the program.

The timed window alternates blocks with and without the wrappers, so one
run gives both the per-layer numbers and the tracing overhead.  A short
coverage pass then runs a few requests of every workload traced, so that a
function the workload never calls still has a per-call time (its
`calls_per_op` stays 0).  Rank-deficient ascent, `-X importtime`, the
classification of near-rank-2 states and the two defect probes (on-facet
pairs, unsymmetrised r-matrices) are measured once per traced run.
"""

import re
import statistics
import sys
import time

import numpy as np

import checker
import harness
import reference
import tracing
import workloads

COVERAGE_SIZES = {"bd_convert": 10, "rmatrix_certify": 4, "two_qubit": 20,
                  "cli": 10}
COVERAGE_OP0 = 10 ** 9
CLI_SUBS = ("monotones", "convert", "separable", "normal-form", "apply-map")

# (metric suffix, unit) per function; the suffixes are computed in `_stat`.
LAYERS = {
    "numerics.convex_membership": (("calls_per_op", "count"),
                                   ("us_per_call", "us"),
                                   ("outside_share", "ratio")),
    "separability.is_separable": (("calls_per_op", "count"),
                                  ("self_us", "us")),
    "convert.synthesize_map": (("calls_per_op", "count"), ("self_us", "us")),
    "convert.monotones": (("calls_per_op", "count"), ("us_per_call", "us")),
    "convert.can_convert_bd": (("self_us", "us"),),
    "normal_form.filter_iteration": (("calls_per_op", "count"),
                                     ("us_per_call", "us"),
                                     ("sweeps_per_call", "count"),
                                     ("converged_share", "ratio")),
    "normal_form.is_ppt": (("calls_per_op", "count"), ("us_per_call", "us")),
    "normal_form.classify": (("self_us", "us"),),
    "choi.map_action_bd": (("us_per_call", "us"),),
    "bell.canonical_order": (("us_per_call", "us"),),
    "bell.density_to_weights": (("us_per_call", "us"),),
}

# ROADMAP baseline (2 vCPU, Python 3.11.7, numpy 2.4.6, scipy 1.17.1), us.
ROADMAP_US = {
    "monotones": 15.0,
    "can_convert_bd, NO (no map built)": 43.0,
    "can_convert_bd, YES with map (two LPs)": 5200.0,
    "9-vertex membership LP (in synthesize_map)": 3400.0,
    "is_separable (60-vertex LP + witness scan)": 3700.0,
    "filter_iteration, full-rank state": 7600.0,
    "classify, filtered nd state (100-restart ascent)": 22e6,
    "import slocc": 0.6e6,
}


def _mean(xs):
    return sum(xs) / len(xs) if xs else 0.0


def _stat(s, what, n_ops):
    if what == "calls_per_op":
        return s["calls"] / n_ops if s else 0.0
    if s is None:
        return 0.0
    if what == "us_per_call":
        return s["total"] / s["calls"] * 1e6
    if what == "self_us":
        return s["self"] / s["calls"] * 1e6
    if what == "outside_share":
        return _mean([float(x) for x in s["extras"]])
    if what == "sweeps_per_call":
        return _mean([x[0] for x in s["extras"]])
    if what == "converged_share":
        return _mean([float(x[1]) for x in s["extras"]])
    raise KeyError(what)


def _import_times(ref):
    """(import slocc.cli ms, scipy's part of it ms) from `-X importtime`.

    scipy's part is the cumulative time of the outermost scipy imports
    (those at the smallest nesting depth), so it includes what they pull in.
    """
    mark = ref.mark()
    code, _, err = harness._run_child(
        [sys.executable, "-X", "importtime", "-c", "import slocc.cli"])
    ref.slice()
    if code != 0:
        raise RuntimeError(f"importtime child failed: {err[-300:]}")
    total, scipy = 0, {}
    for line in err.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( +)(\S+)", line)
        if not m:
            continue
        cum_us, depth, name = int(m[1]), len(m[2]), m[3]
        if name in ("slocc", "slocc.cli"):
            total += cum_us
        if name.split(".")[0] == "scipy":
            scipy.setdefault(depth, []).append(cum_us)
    scipy_us = sum(scipy[min(scipy)]) if scipy else 0
    f = ref.factor(mark)
    return total * f / 1e3, scipy_us * f / 1e3


def _coverage(slocc, tracer, clock, cli_runner_for, seed):
    """Trace a few requests of every workload under op ids >= COVERAGE_OP0.

    Returns ({op id: reference mark}, {cli subcommand: untraced normalised
    seconds}).
    """
    rng = np.random.default_rng([seed, 1])
    marks, in_process = {}, {}
    op = COVERAGE_OP0

    def timed(fn):
        mark = clock.ref.mark()
        t0 = time.perf_counter()
        try:
            fn()
        except Exception:  # coverage only needs the spans and times
            pass
        dt = time.perf_counter() - t0
        clock.add(dt)
        return dt, mark

    for name, size in COVERAGE_SIZES.items():
        wl = workloads.WORKLOADS[name]
        pool = wl.make_pool(rng, size)
        runner = cli_runner_for(pool) if name == "cli" else None
        for i, req in enumerate(pool):
            if runner is None:
                def fn():
                    wl.call(slocc, req)
            else:
                def fn():
                    runner.in_process(slocc, i)
                for _ in range(3):
                    dt, mark = timed(fn)
                    in_process.setdefault(req["sub"], []).append(
                        dt * clock.ref.factor(mark))
            tracer.install()
            tracer.begin_op(op, name)
            try:
                _, marks[op] = timed(fn)
            finally:
                tracer.end_op()
                tracer.uninstall()
            op += 1
    return marks, in_process


def _nd_ascent(slocc, seed, ref):
    """One classify() on a locally filtered rank-deficient state."""
    rho, _, b = workloads.nd_state(np.random.default_rng([seed, 2]),
                                   filtered=True)
    mark = ref.mark()
    t0 = time.perf_counter()
    result = slocc.normal_form.classify(rho, rng=seed)
    dt = time.perf_counter() - t0
    ref.slice()
    err = abs(result.b - b) if result.b is not None else float("inf")
    return dt * ref.factor(mark), err


def _near_rank2_misclassified(slocc, seed, n=5):
    """Share of near-rank-2 filtered Bell-diagonal states that classify()
    does not call Bell-diagonal (the defect in NOTES.md), without the
    30 s ascent (estimate_b=False)."""
    rng = np.random.default_rng([seed, 3])
    wrong = 0
    for _ in range(n):
        rho, _ = workloads.near_rank2_bd(rng)
        result = slocc.normal_form.classify(rho, estimate_b=False)
        wrong += result.kind != "bell_diagonal"
    return wrong / n


def facet_tie_no_share(slocc, seed, n=200):
    """Share of pairs exactly on a facet of P_lambda that can_convert_bd
    answers NO (ROADMAP item 3).  Every such pair is convertible, so a NO
    is rounding alone; these pairs are kept out of the timed bd_convert
    mix."""
    rng = np.random.default_rng([seed, 4])
    wrong = 0
    for _ in range(n):
        lam, lam_p = workloads.facet_pair(rng)
        wrong += not slocc.convert.can_convert_bd(lam, lam_p).convertible
    return wrong / n


def transposed_facet_inconsistent_share(slocc, seed, n=20, depth=1e-3):
    """Share of r-matrices just outside a row/column permutation of the
    transposed W2 facet on which is_separable raises
    InternalInconsistencyError.

    Each point is a Dirichlet mix of the vertices on that facet, moved
    `depth` outward (in max norm) along the facet's zero-sum normal.
    witness_orbit() lacks the transposes of W2-W4, so the LP finds such a
    point outside while the witness scan does not; unsymmetrised random
    r-matrices meet this about once in 500 draws, which is why the timed
    rmatrix_certify mix is symmetrised.
    """
    rng = np.random.default_rng([seed, 5])
    Wt = slocc.separability.CANONICAL_WITNESSES["W2"].T
    on = checker.VERTICES[np.abs(np.tensordot(checker.VERTICES, Wt,
                                              axes=2)) < 1e-12]
    d = Wt - Wt.mean()
    d /= np.abs(d).max()
    bad = 0
    for _ in range(n):
        r = np.tensordot(rng.dirichlet(np.ones(len(on))), on, axes=1)
        r = (r - depth * d)[np.ix_(rng.permutation(4), rng.permutation(4))]
        try:
            slocc.separability.is_separable(r / r.sum())
        except slocc.separability.InternalInconsistencyError:
            bad += 1
    return bad / n


def _roadmap_table(per, nd_s, import_ms, span_us):
    """ROADMAP baseline rows beside the traced means.

    Each wrapped call inside a row's span adds about `span_us` (timed on a
    wrapped no-op), which matters for rows of a few microseconds;
    `corrected_us` subtracts it.
    """
    def mean_where(name, pred=lambda s, k: True):
        s = per.get(name)
        if not s:
            return None
        ks = [k for k in range(s["calls"]) if pred(s, k)]
        if not ks:
            return None
        us = _mean([s["durations"][k] for k in ks]) * 1e6
        return us, us - span_us * (1 + _mean([s["below"][k] for k in ks]))

    measured = {
        "monotones": mean_where("convert.monotones"),
        "can_convert_bd, NO (no map built)": mean_where(
            "convert.can_convert_bd", lambda s, k: s["extras"][k] is False),
        "can_convert_bd, YES with map (two LPs)": mean_where(
            "convert.can_convert_bd", lambda s, k: s["extras"][k] is True),
        "9-vertex membership LP (in synthesize_map)": mean_where(
            "numerics.convex_membership",
            lambda s, k: s["parents"][k] == "convert.synthesize_map"),
        "is_separable (60-vertex LP + witness scan)": mean_where(
            "separability.is_separable"),
        "filter_iteration, full-rank state": mean_where(
            "normal_form.filter_iteration",
            lambda s, k: s["extras"][k][1]),
        "classify, filtered nd state (100-restart ascent)": (nd_s * 1e6,) * 2,
        "import slocc": (import_ms * 1e3,) * 2,
    }
    rows = []
    for row, before in ROADMAP_US.items():
        now, corrected = measured[row] or (None, None)
        ratio = corrected / before if corrected else None
        rows.append({"row": row, "roadmap_us": before, "measured_us": now,
                     "corrected_us": corrected, "ratio": ratio,
                     "off_by_2x": ratio is None or not 0.5 <= ratio <= 2})
    return rows


def _merge(a, b):
    """Per-function stats of `a`, falling back to `b` where `a` has none."""
    return {name: a.get(name) or b.get(name) for name in set(a) | set(b)}


def traced_run(args, wl, pool, cli, clock, slocc, tmp):
    tracer = tracing.Tracer(slocc)
    if cli is not None:
        def invoke(idx):
            return cli.in_process(slocc, idx)
    else:
        def invoke(idx):
            return wl.call(slocc, pool[idx])
    harness.warm(invoke)
    records = harness.run_window(pool, invoke, args.seconds, clock, tracer)
    kinds = harness.check_records(wl, pool, records)

    def cli_runner_for(cov_pool):
        sub = tmp / "coverage"
        sub.mkdir(exist_ok=True)
        return harness.CliRunner(cov_pool, sub)

    cov_marks, cov_in_process = _coverage(slocc, tracer, clock,
                                          cli_runner_for, args.seed)
    nd_s, nd_err = _nd_ascent(slocc, args.seed, clock.ref)
    import_ms, scipy_ms = _import_times(clock.proc)

    # every span is scaled by the reference factor of its request
    scale_w = {i: clock.ref.factor(r[5]) for i, r in enumerate(records)
               if r[4]}
    scale_c = {op: clock.ref.factor(mark) for op, mark in cov_marks.items()}
    per_w, totals = tracing.aggregate(tracer.spans, scale_w)
    per_c, _ = tracing.aggregate(tracer.spans, scale_c)
    per_all, _ = tracing.aggregate(tracer.spans, {**scale_w, **scale_c})
    per = _merge(per_w, per_c)
    n_ops = len(scale_w)
    m = {}
    for name, stats in LAYERS.items():
        for what, unit in stats:
            src = per_w if what == "calls_per_op" else per
            m[f"{name}.{what}"] = (_stat(src.get(name), what, n_ops), unit)

    m["cli.import_ms"] = (import_ms, "ms")
    m["cli.import_scipy_ms"] = (scipy_ms, "ms")
    if cli is not None:
        by_sub = {}
        for idx, dt, answer, exc, traced, mark in records:
            if not traced:
                by_sub.setdefault(pool[idx]["sub"], []).append(
                    dt * clock.ref.factor(mark))
    else:
        by_sub = cov_in_process
    for sub in CLI_SUBS:
        m[f"cli.{sub}.in_process_ms"] = (
            statistics.median(by_sub[sub]) * 1e3, "ms")
    m["normal_form.nd_ascent_s"] = (nd_s, "s")
    m["normal_form.nd_ascent_b_err"] = (nd_err, "ratio")
    m["normal_form.near_rank2_misclassified_share"] = (
        _near_rank2_misclassified(slocc, args.seed), "ratio")
    m["convert.facet_tie_no_share"] = (
        facet_tie_no_share(slocc, args.seed), "ratio")
    m["separability.transposed_facet_inconsistent_share"] = (
        transposed_facet_inconsistent_share(slocc, args.seed), "ratio")

    busy = {True: 0.0, False: 0.0}
    count = {True: 0, False: 0}
    for _, dt, _, exc, traced, mark in records:
        busy[traced] += dt * clock.ref.factor(mark)
        count[traced] += exc is None
    traced_ops_s = count[True] / busy[True]
    untraced_ops_s = count[False] / busy[False]
    m["trace.ops_per_s_traced"] = (traced_ops_s, "1/s")
    m["trace.ops_per_s_untraced"] = (untraced_ops_s, "1/s")
    m["trace.overhead_share"] = (1 - traced_ops_s / untraced_ops_s, "ratio")
    m["trace.unaccounted_share"] = (totals["unaccounted"] / totals["wall"],
                                    "ratio")
    mark = clock.ref.mark()
    span_us = tracing.span_cost() * 1e6
    clock.ref.slice()
    span_us *= clock.ref.factor(mark)

    failures = {}
    for k in kinds:
        if k:
            failures[k] = failures.get(k, 0) + 1
    audit = {"workload": wl.name, "seed": args.seed, "trace": 1,
             "environment": harness.environment(), "r0": reference.R0,
             "reference_median_rate": clock.ref.median_rate(),
             "reference_slices": len(clock.ref.rates),
             "traced_ops": n_ops, "untraced_ops": count[False],
             "per_layer_source": {
                 name: "workload" if per_w.get(name) else "coverage"
                 for name in LAYERS},
             "self_time_us_per_op": {
                 name: s["self"] / n_ops * 1e6
                 for name, s in sorted(per_w.items())},
             "op_wall_us": totals["wall"] / n_ops * 1e6,
             "span_overhead_us": span_us,
             "roadmap_table": _roadmap_table(per_all, nd_s, import_ms,
                                             span_us),
             "failures": failures}
    result = {"correct": not failures,
              "attempted": len(records), "failed": sum(failures.values()),
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in m.items()}}
    return audit, result
