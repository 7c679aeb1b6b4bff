"""One pass of a workload in a fresh interpreter.

Reads a job (JSON) on stdin and runs its ops through `bkl4.cli.main` in
this process, one after another, with stdout and stderr captured.  Each op's
latency, exit code and stdout go out as one JSON line as soon as it ends, so
the pass keeps no outputs in memory; a last line holds how far the pass
raised the process's peak resident set, the capped ops' results and, in trace
mode, the per-layer totals.  Modes:

  time   plain pass; each op also carries the CPU time of the calibration
         loop run before and after it (see calibrate)
  trace  every public layer function wrapped (layers.py)
  solve  library `solve_conjugacy` on pairs (job["assume_pa"] picks the path);
         one line per pair with its outcome and certificate, then one with
         the wall time

Warm-up ops (other classes, other seed) run first and are not timed.
Capped ops run after the pass and stay out of its latencies.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time


def calibrate() -> float:
    """CPU seconds of a fixed pure-Python loop (tuple keys, dict updates);
    its median on the reference machine is run.py's REFERENCE_S.

    The loop shares nothing with bkl4, so its time follows only the speed
    the host gives this process; run.py scales op times by it.
    """
    counts: dict = {}
    start = time.process_time()
    for i in range(15000):
        key = (i & 255, i % 7)
        counts[key] = counts.get(key, 0) + 1
    return time.process_time() - start


def _call(main, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        wall, cpu = time.perf_counter(), time.process_time()
        code = main(argv)
        cpu, wall = time.process_time() - cpu, time.perf_counter() - wall
    return (wall, cpu), code, out.getvalue(), err.getvalue()


def _max_rss_kib() -> int:
    """Peak resident set of this process image (Linux VmHWM).  getrusage's
    ru_maxrss would also hold the parent's size at the fork before exec."""
    with open("/proc/self/status") as f:
        return next(int(line.split()[1]) for line in f if line.startswith("VmHWM:"))


def _emit(record: dict) -> None:
    sys.stdout.write(json.dumps(record) + "\n")


def run(job: dict) -> None:
    import bkl4.cli

    tracer = None
    if job["mode"] == "trace":
        import layers

        tracer = layers.Tracer()
        tracer.install()
    for argv in job["warmup"]:
        _call(bkl4.cli.main, argv)
    if tracer is not None:
        tracer.reset()
    timed = job["mode"] == "time"
    before = calibrate() if timed else None
    base_rss = _max_rss_kib()
    for argv in job["ops"]:
        (wall, cpu), code, out, _ = _call(bkl4.cli.main, argv)
        after = calibrate() if timed else None
        record = {"latency": wall, "cpu": cpu, "code": code, "out": out}
        if timed:
            record["calibration"] = (before + after) / 2
            before = after
        _emit(record)
    last = {
        "peak_rise_mib": (_max_rss_kib() - base_rss) / 1024,
        "trace": tracer.summary() if tracer is not None else None,
    }
    last["capped"] = [_call(bkl4.cli.main, argv)[1:3] for argv in job["capped"]]
    _emit(last)


def solve(job: dict) -> None:
    from bkl4.solver import solve_conjugacy
    from bkl4.words import format_braid, parse_braid

    pairs = [(parse_braid(x), parse_braid(y)) for x, y in job["pairs"]]
    start = time.perf_counter()
    decisions = [solve_conjugacy(x, y, assume_pa=job["assume_pa"]) for x, y in pairs]
    wall = time.perf_counter() - start
    for d in decisions:
        cert = format_braid(d.certificate.z) if d.certificate else None
        _emit({"outcome": d.outcome, "certificate": cert})
    _emit({"wall_s": wall})


if __name__ == "__main__":
    job = json.load(sys.stdin)
    (solve if job["mode"] == "solve" else run)(job)
