"""One set-up measurement in a fresh interpreter.

Reads a JSON list of warm-up calls on stdin, then times `import slocc` plus
those calls (which fill the vertex_set / witness_orbit caches) and prints
the seconds as JSON.  Only json, sys and time are imported before the clock
starts, so numpy and scipy are paid for inside the measurement, as a user
pays for them.  Run by run.py; not meant to be run by hand.
"""

import json
import sys
import time


def main():
    calls = json.load(sys.stdin)
    t0 = time.perf_counter()
    import numpy as np
    import slocc
    raised = []
    for name, *args in calls:
        arrays = [np.asarray(a["re"]) + 1j * np.asarray(a["im"])
                  if np.any(a["im"]) else np.asarray(a["re"]) for a in args]
        try:
            getattr(slocc, name)(*arrays)
        except slocc.numerics.NumericsError as exc:
            # a known-defect input still warms the caches; the timed
            # window checks and counts such answers, set-up does not
            raised.append(type(exc).__name__)
    print(json.dumps({"seconds": time.perf_counter() - t0,
                      "slocc": slocc.__file__, "raised": raised}))


if __name__ == "__main__":
    main()
