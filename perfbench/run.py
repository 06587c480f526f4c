"""slocc benchmark: closed-loop workloads with checked certificates.

    python3 perfbench/run.py --workload bd_convert --seed 1 --seconds 20 \\
        --trace 0

Run from the repository root.  The program is imported from ./src (and run
as `python -m slocc.cli` with ./src on PYTHONPATH for the cli workload).
The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; the line before it is an audit record with the
environment, the reference rate, raw and normalised values and the failure
kinds.  `--trace 0` reports the end-to-end metrics of BENCHMARK.json,
`--trace 1` the per-layer metrics.  NOTES.md explains the design.
"""

import argparse
import contextlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path

import numpy as np

import checker
import harness
import reference
import workloads
from harness import ROOT, SRC

# --- metrics --------------------------------------------------------------

def _p(values, q):
    if not values:
        return float("nan")
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _timings(wl, records, setup, factor, setup_factor):
    """Timing metrics, each duration scaled by `factor(mark)`."""
    yes, no = [], []
    busy = 0.0
    answered = 0
    for idx, dt, answer, exc, traced, mark in records:
        dt *= factor(mark)
        busy += dt
        if exc is None:
            answered += 1
            (yes if wl.is_yes(answer) else no).append(dt * 1e3)
    return {"setup_s": statistics.median(t * setup_factor(m)
                                         for t, m in setup),
            "ops_per_s": answered / busy,
            "yes_p50_ms": _p(yes, 50), "yes_p90_ms": _p(yes, 90),
            "no_p50_ms": _p(no, 50), "no_p90_ms": _p(no, 90)}, \
        {"yes": len(yes), "no": len(no)}


def end_to_end(wl, records, setup, clock, child, rss_mb, pool_failed,
               distinct):
    """(raw, normalised, sample counts); only timings are normalised."""
    def one(mark):
        return 1.0
    raw, samples = _timings(wl, records, setup, one, one)
    norm, _ = _timings(wl, records, setup, clock.series(child).factor,
                       clock.proc.factor)
    for d in (raw, norm):
        d["ok_share"] = 1 - pool_failed / distinct
        d["peak_rss_mb"] = rss_mb
    return raw, norm, samples


UNITS = {"setup_s": "s", "ops_per_s": "1/s", "yes_p50_ms": "ms",
         "yes_p90_ms": "ms", "no_p50_ms": "ms", "no_p90_ms": "ms",
         "ok_share": "ratio", "peak_rss_mb": "MB"}


def peak_rss_mb(cli):
    who = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


# --- main -----------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run(args, tmp):
    wl = workloads.WORKLOADS[args.workload]
    pool = wl.make_pool(np.random.default_rng(args.seed))
    is_cli = wl.name == "cli"
    cli = harness.CliRunner(pool, tmp) if is_cli else None
    clock = harness.Clock()
    setup = harness.measure_setup(wl, pool, clock, cli)

    sys.path.insert(0, str(SRC))
    import slocc
    if not Path(slocc.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported slocc from {slocc.__file__}")

    if args.trace:
        import layers
        return layers.traced_run(args, wl, pool, cli, clock, slocc, tmp)

    if is_cli:
        invoke = cli.fresh
    else:
        def invoke(idx):
            return wl.call(slocc, pool[idx])
        harness.warm(invoke)
    records = harness.run_window(pool, invoke, args.seconds, clock,
                                 child=is_cli)
    rss = peak_rss_mb(is_cli)
    extra = [] if is_cli else harness.complete_pool(wl, pool, records, invoke)
    kinds = harness.check_records(wl, pool, records + extra)
    failed_idx = {r[0] for r, k in zip(records + extra, kinds) if k}
    distinct = len({r[0] for r in records + extra})
    raw, norm, samples = end_to_end(wl, records, setup, clock, is_cli, rss,
                                    len(failed_idx), distinct)
    failures = {}
    for k in kinds:
        if k:
            failures[k] = failures.get(k, 0) + 1
    audit = {"workload": wl.name, "seed": args.seed, "trace": 0,
             "environment": harness.environment(), "r0": reference.R0,
             "r0_process": reference.R0_PROCESS,
             "reference_median_rate": clock.ref.median_rate(),
             "reference_slices": len(clock.ref.rates),
             "process_reference_median_rate": clock.proc.median_rate(),
             "process_reference_slices": len(clock.proc.rates),
             "reference_share": (clock.ref.seconds + clock.proc.seconds) / (
                 clock.ref.seconds + clock.proc.seconds
                 + sum(r[1] for r in records) + sum(t for t, _ in setup)),
             "raw": raw, "normalised": norm, "samples": samples,
             "pool_size": len(pool), "distinct_checked": distinct,
             "failures": failures,
             "failure_causes": {k: checker.KNOWN_DEFECTS.get(k, "UNKNOWN")
                                for k in failures}}
    if is_cli:
        audit["fresh_process_p50_ms"] = _per_sub_p50(pool, records,
                                                     clock.proc)
    result = {
        "correct": not failures
        and all(math.isfinite(v) for v in norm.values()),
        "attempted": len(records) + len(extra),
        "failed": sum(failures.values()),
        "metrics": {k: {"value": norm[k], "unit": u}
                    for k, u in UNITS.items()},
    }
    return audit, result


def _per_sub_p50(pool, records, ref):
    by = {}
    for idx, dt, *_, mark in records:
        by.setdefault(pool[idx]["sub"], []).append(dt * ref.factor(mark) * 1e3)
    return {k: statistics.median(v) for k, v in sorted(by.items())}


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "slocc" / "__init__.py").is_file():
        print(f"perfbench: no slocc sources under {SRC}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    tmp = ROOT / ".perfbench_tmp" / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        audit, result = run(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            tmp.parent.rmdir()
    print(json.dumps({"audit": audit}, default=float))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
