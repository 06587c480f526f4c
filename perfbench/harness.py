"""Shared machinery: reference clock, child processes, the closed loop."""

import contextlib
import importlib.metadata
import io
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import reference
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Workload time between in-process reference slices; a slice takes about
# 2 ms, so the reference is about 14% of an in-process run.
CHUNK_S = 0.012
SETUP_REPEATS = 5
# Length of the alternating traced and untraced blocks of a traced run.
TRACE_BLOCK_S = 0.5
CHILD_TIMEOUT_S = 120


class Clock:
    """Reference slices interleaved with the measured work.

    In-process work gets an in-process slice after every CHUNK_S; each
    child process gets a process slice after it.
    """

    def __init__(self):
        self.ref = reference.Reference()
        self.proc = reference.Reference(process=True, width=1)
        self.pending = 0.0
        self.ref.slice()
        self.proc.slice()

    def series(self, child):
        return self.proc if child else self.ref

    def add(self, seconds, child=False):
        if child:
            self.proc.slice()
            return
        self.pending += seconds
        while self.pending >= CHUNK_S:
            self.ref.slice()
            self.pending -= CHUNK_S


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _run_child(cmd, stdin=""):
    proc = subprocess.run(cmd, input=stdin, capture_output=True, text=True,
                          env=_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    return proc.returncode, proc.stdout, proc.stderr


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment():
    return {"nproc": os.cpu_count(), "cpu": _cpu_model(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": importlib.metadata.version("scipy")}


# --- requests -------------------------------------------------------------

class CliRunner:
    """Writes each request's input files once, then runs `slocc --json`."""

    def __init__(self, pool, tmp):
        self.argv = []
        for i, req in enumerate(pool):
            paths = []
            for k, text in enumerate(workloads.dump_files(req)):
                p = tmp / f"{i}_{k}.json"
                p.write_text(text)
                paths.append(str(p))
            self.argv.append(["--json", req["sub"], *paths])

    def fresh(self, i):
        code, out, _ = _run_child([sys.executable, "-m", "slocc.cli",
                                   *self.argv[i]])
        return code, out

    def in_process(self, slocc, i):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), \
                contextlib.redirect_stderr(io.StringIO()):
            code = slocc.cli.main(self.argv[i])
        return code, buf.getvalue()


def warm(invoke, n=3):
    """Untimed first requests: lazy state and caches, answers discarded."""
    for idx in range(n):
        try:
            invoke(idx)
        except Exception:  # the timed window counts and checks this request
            pass


def _label(req):
    return req["sub"] if isinstance(req, dict) else req[0]


def run_window(pool, invoke, seconds, clock, tracer=None, child=False):
    """Closed loop over the pool for `seconds`; one request in flight.

    Returns records (index, raw seconds, answer, exception, traced, mark),
    where `mark` places the request among the reference slices of
    `clock.series(child)`; `child` says each request is a process.  With a
    tracer, alternating blocks run with and without the wrappers installed.
    """
    records = []
    now = time.perf_counter()
    deadline, block_end, traced = now + seconds, now, False
    i = 0
    while now < deadline:
        if tracer is not None and now >= block_end:
            traced = not traced
            tracer.install() if traced else tracer.uninstall()
            block_end = now + TRACE_BLOCK_S
        idx = i % len(pool)
        if traced:
            tracer.begin_op(i, _label(pool[idx]))
        mark = clock.series(child).mark()
        t0 = time.perf_counter()
        answer = exc = None
        try:
            answer = invoke(idx)
        except Exception as e:  # a raising request is a failed request
            exc = e
        dt = time.perf_counter() - t0
        if traced:
            tracer.end_op()
        records.append((idx, dt, answer, exc, traced, mark))
        clock.add(dt, child)
        i += 1
        now = time.perf_counter()
    if tracer is not None:
        tracer.uninstall()
    return records


# --- set-up ---------------------------------------------------------------

def measure_setup(wl, pool, clock, cli):
    """(raw seconds, mark in clock.proc) of several fresh interpreters."""
    times = []
    if cli is not None:
        # one warm-up invocation of each subcommand in the mix
        firsts = {}
        for i, req in enumerate(pool):
            firsts.setdefault(req["sub"], i)
        for i in firsts.values():
            mark = clock.proc.mark()
            t0 = time.perf_counter()
            cli.fresh(i)
            times.append((time.perf_counter() - t0, mark))
            clock.add(0.0, child=True)
        return times
    calls = json.dumps(wl.warmup(pool))
    for _ in range(SETUP_REPEATS):
        mark = clock.proc.mark()
        code, out, err = _run_child(
            [sys.executable, str(HERE / "setup_child.py")], calls)
        if code != 0:
            raise RuntimeError(f"set-up child failed: {err.strip()[-300:]}")
        rec = json.loads(out)
        if not Path(rec["slocc"]).resolve().is_relative_to(SRC):
            raise RuntimeError(f"set-up child imported {rec['slocc']}")
        times.append((rec["seconds"], mark))
        clock.add(0.0, child=True)
    return times


# --- checking -------------------------------------------------------------

def check_records(wl, pool, records):
    """Failure kind (or None) for every record, checked after the window."""
    kinds = []
    for idx, _, answer, exc, *_ in records:
        req = pool[idx]
        kinds.append(wl.raised(req, exc) if exc is not None
                     else wl.check(req, answer))
    return kinds


def complete_pool(wl, pool, records, invoke):
    """Answer, untimed, every pool entry the window did not reach."""
    seen = {r[0] for r in records}
    extra = []
    for idx in range(len(pool)):
        if idx in seen:
            continue
        answer = exc = None
        try:
            answer = invoke(idx)
        except Exception as e:  # a raising request is a failed request
            exc = e
        extra.append((idx, 0.0, answer, exc, False, None))
    return extra
