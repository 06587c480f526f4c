"""Run-to-run spread of the end-to-end metrics, raw and normalised.

    python3 perfbench/stability.py --workload bd_convert --seeds 1-10 \\
        --seconds 20

Runs run.py once per seed, one run at a time, from the repository root,
and prints for each metric the quartile spread (Q3 - Q1) / median, as
`statistics.quantiles(values, n=4)` gives the quartiles, and the largest
distance of a run from the median, both as shares of the median, for the
raw and the reference-normalised values side by side.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med, max(abs(v - med) for v in values) / med, med


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    p.add_argument("--seconds", default="20")
    args = p.parse_args(argv)
    audits = []
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", "0"],
            capture_output=True, text=True, cwd=HERE.parent, check=True)
        lines = out.stdout.splitlines()
        audit, result = json.loads(lines[-2])["audit"], json.loads(lines[-1])
        audits.append(audit)
        print(json.dumps({"seed": seed, "correct": result["correct"],
                          "attempted": result["attempted"],
                          "failed": result["failed"],
                          "reference_median_rate":
                              audit["reference_median_rate"],
                          "normalised": audit["normalised"]}), flush=True)
    print(f"{'metric':<12} {'median':>10} {'raw IQR':>8} {'raw max':>8} "
          f"{'norm IQR':>8} {'norm max':>8}")
    for key in audits[0]["normalised"]:
        r_iqr, r_max, _ = spread([a["raw"][key] for a in audits])
        n_iqr, n_max, med = spread([a["normalised"][key] for a in audits])
        print(f"{key:<12} {med:>10.4g} {r_iqr:>8.2%} {r_max:>8.2%} "
              f"{n_iqr:>8.2%} {n_max:>8.2%}")


if __name__ == "__main__":
    main()
