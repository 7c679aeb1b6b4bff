"""The bkl4 benchmark: one workload, one seed, one JSON line of metrics.

    python3 perfbench/run.py --workload beta-sc|conj \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; bkl4 is imported from its src/.  Every
pass runs the workload's ops through `bkl4.cli.main` in a fresh interpreter
(worker.py), one op after another (a closed loop with one client), so no
memo can carry over between passes.  Passes repeat until S seconds have
gone.  Outputs are checked independently (checks.py); the last line of
stdout is the result:

  --trace 0  setup_s, pass_s, op_p90_ms, peak_rise_mib
  --trace 1  the per-layer metrics of traced passes (layers.py), with the
             tracing overhead against untraced passes printed before it
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import checks  # noqa: E402
import inputs  # noqa: E402
from bkl4.solver import solve_conjugacy  # noqa: E402
from bkl4.words import format_braid, parse_braid  # noqa: E402
from oracle import conjugates_to  # noqa: E402

WORKLOADS = ("beta-sc", "conj")
SIMPLES_IMPORT_RUNS = 9
SETUP_PER_PASS = 3  # setup_s samples taken after each timed pass
MIN_PASSES = 3  # untraced passes in a --trace 0 run
# CPU time of the import, with the calibration loop of worker.py run after it.
IMPORT = (
    "import time; t = time.process_time(); import bkl4, bkl4.cli; "
    "t = time.process_time() - t; import worker; "
    "print(t, (worker.calibrate() + worker.calibrate()) / 2)"
)
# CPU seconds of worker.calibrate on the machine the reference figures come
# from (its median there): times are scaled to a host of that speed.
REFERENCE_S = 0.0057
SUBPROCESS_TIMEOUT = 150


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def _python(args: list[str], stdin: str | None = None) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": SRC + os.pathsep + HERE}
    proc = subprocess.run(
        [sys.executable, *args],
        input=stdin,
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=SUBPROCESS_TIMEOUT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{args[0]} failed:\n{proc.stderr}")
    return proc


def _worker(job: dict) -> list[dict]:
    lines = _python([os.path.join(HERE, "worker.py")], json.dumps(job)).stdout.splitlines()
    return [json.loads(line) for line in lines]


def scaled(cpu: float, calibration: float) -> float:
    """CPU seconds scaled to the reference speed (see plain_metrics)."""
    return cpu * REFERENCE_S / calibration


def run_pass(job: dict) -> dict:
    """One pass in a fresh interpreter.  wall_s is the sum of the ops' wall
    latencies; a timed pass also has each op's scaled CPU time."""
    *ops, last = _worker(job)
    last["outputs"] = [[op["code"], op["out"]] for op in ops]
    last["wall_s"] = sum(op["latency"] for op in ops)
    if job["mode"] == "time":
        last["scaled"] = [scaled(op["cpu"], op["calibration"]) for op in ops]
    return last


def solve_pass(pairs: list, assume_pa: bool) -> tuple[float, list[str]]:
    """Library solves of conjugate pairs in a fresh interpreter: the wall
    time and a reason for every answer that is not a confirmed `conjugate`."""
    *decisions, last = _worker({"mode": "solve", "pairs": pairs, "assume_pa": assume_pa})
    wrong = [
        f"assume_pa={assume_pa} pair {i}: {d['outcome']}"
        for i, ((x, y), d) in enumerate(zip(pairs, decisions))
        if d["outcome"] != "conjugate" or not conjugates_to(y, d["certificate"], x)
    ]
    return last["wall_s"], wrong


def setup_time() -> float:
    """`import bkl4, bkl4.cli` inside a fresh interpreter, scaled CPU time."""
    return scaled(*map(float, _python(["-c", IMPORT]).stdout.split()))


def simples_import_times() -> list[float]:
    """Self time of importing bkl4.simples (table bootstrap and self-check)."""
    times = []
    for _ in range(SIMPLES_IMPORT_RUNS):
        err = _python(["-X", "importtime", "-c", "import bkl4, bkl4.cli"]).stderr
        match = re.search(r"import time:\s*(\d+) \|\s*\d+ \|\s*bkl4\.simples$", err, re.M)
        times.append(int(match.group(1)) / 1e6)
    return times


class Checker:
    """Checks every output of a workload; identical outputs are checked once."""

    def __init__(self, workload: str, inp: dict) -> None:
        self.workload = workload
        self.meta = inp["meta"]
        self.verdicts: dict[tuple, str | None] = {}
        self.first: list | None = None

    def _certify(self, x: str, y: str) -> str:
        decision = solve_conjugacy(parse_braid(x), parse_braid(y))
        return format_braid(decision.certificate.z) if decision.certificate else "d^0"

    def check(self, meta: dict, code: int, stdout: str) -> str | None:
        if self.workload == "beta-sc":
            return checks.check_beta(meta, code, stdout, self._certify)
        return checks.check_conj(meta, code, stdout)

    def wrong(self, outputs: list) -> list[str]:
        """Reasons for every wrong output of one pass."""
        if self.first is None:
            self.first = outputs
        reasons = []
        for i, (meta, (code, out)) in enumerate(zip(self.meta, outputs)):
            key = (i, code, out)
            if key not in self.verdicts:
                self.verdicts[key] = self.check(meta, code, out)
            if self.verdicts[key] is not None:
                reasons.append(f"op {i}: {self.verdicts[key]}")
        return reasons

    def self_test(self) -> list[tuple[str, str | None]]:
        """(corruption, reason) for corrupted copies of correct outputs; each
        must be rejected, that is, have a reason."""
        return [
            (name, self.check(meta, code, stdout))
            for name, meta, code, stdout in checks.corruptions(self.workload, self.meta, self.first)
        ]


def _capped_failures(result: dict) -> int:
    return sum(checks.check_capped(code, out) is not None for code, out in result["capped"])


def _quantile(values: list[float], percent: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[percent - 1]


def layer_metrics(summary: dict) -> dict[str, float]:
    """Per-layer metrics from one traced pass (layers.Tracer.summary)."""
    functions, edges = summary["functions"], summary["edges"]

    def stat(name, index):  # index: 0 calls, 1 inclusive s, 2 self s, 3 extra count
        return functions.get(name, [0, 0.0, 0.0, 0])[index]

    def calls(name):
        return stat(name, 0)

    def inclusive(name):
        return stat(name, 1)

    def own(name):
        return stat(name, 2)

    def extra(name):
        return stat(name, 3)

    def ratio(a, b):
        return a / b if b else 0.0

    walks = calls("sliding.slide_to_circuit")
    candidates = edges.get("circuits.minimal_arrows>engine.conjugate", 0)
    elements = extra("circuits.compute_sc")
    return {
        "words.parse_s": inclusive("words.parse_braid"),
        "words.format_s": inclusive("words.format_braid") + inclusive("words.format_braid_compact"),
        "engine.normalize_calls": calls("engine.normalize_factors"),
        "engine.normalize_self_s": own("engine.normalize_factors"),
        "engine.factors_per_normalize": ratio(extra("engine.normalize_factors"), calls("engine.normalize_factors")),
        "engine.multiply_calls": calls("engine.multiply"),
        "engine.multiply_self_s": own("engine.multiply"),
        "engine.conjugate_calls": calls("engine.conjugate"),
        "engine.conjugate_s": inclusive("engine.conjugate"),
        "engine.power_calls": calls("engine.power"),
        "sliding.slide_calls": calls("sliding.cyclic_sliding"),
        "sliding.slide_self_s": own("sliding.cyclic_sliding"),
        "sliding.circuit_walks": walks,
        "sliding.circuit_walk_s": inclusive("sliding.slide_to_circuit"),
        "sliding.slides_per_walk": ratio(edges.get("sliding.slide_to_circuit>sliding.cyclic_sliding", 0), walks),
        "sliding.cycling_calls": calls("sliding.cycling"),
        "circuits.compute_sc_s": inclusive("circuits.compute_sc"),
        "circuits.compute_sc_self_s": own("circuits.compute_sc"),
        "circuits.sc_elements": elements,
        "circuits.minimal_arrows_calls": calls("circuits.minimal_arrows"),
        "circuits.minimal_arrows_s": inclusive("circuits.minimal_arrows"),
        "circuits.candidate_conjugations": candidates,
        "circuits.conjugations_per_element": ratio(candidates, elements),
        "circuits.arrow_yield": ratio(extra("circuits.minimal_arrows"), candidates),
        "circuits.orbits": extra("circuits.quotient_graph"),
        "circuits.quotient_graph_s": inclusive("circuits.quotient_graph"),
        "solver.solve_s": inclusive("solver.solve_conjugacy"),
        "solver.solve_self_s": own("solver.solve_conjugacy"),
        "solver.elements_to_hit": ratio(summary["hit_elements"], summary["hits"]),
        "solver.is_periodic_calls": calls("solver.is_periodic"),
        "solver.is_periodic_s": inclusive("solver.is_periodic"),
        "solver.verify_calls": calls("solver.verify_certificate"),
        "solver.verify_s": inclusive("solver.verify_certificate"),
        "cli.self_s": own("cli.main"),
    }


def traced_metrics(args, inp: dict, passes: list, traced: list) -> tuple[dict[str, float], list[str]]:
    plain = statistics.median(p["wall_s"] for p in passes)
    slow = statistics.median(p["wall_s"] for p in traced)
    print(
        f"tracing overhead: traced wall_s {slow:.4f} s against untraced {plain:.4f} s "
        f"(x{slow / plain:.2f}), medians of {len(traced)} pass pairs"
    )
    per_pass = [layer_metrics(t["trace"]) for t in traced]
    metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    metrics["simples.import_s"] = statistics.median(simples_import_times())
    # The powering comparison always uses conj's non-rigid conjugate pairs.
    conj = inp if args.workload == "conj" else inputs.build("conj", args.seed)
    pairs = [[m["x"], m["y"]] for m in conj["meta"] if m["kind"] == "hit-nonrigid"]
    wrong = []
    for name, assume_pa in (("solver.powering_s", True), ("solver.general_nonrigid_s", False)):
        metrics[name], reasons = solve_pass(pairs, assume_pa)
        wrong.extend(reasons)
    out = os.path.join(HERE, "out")
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, f"trace-{args.workload}-{args.seed}.json"), "w") as f:
        json.dump({"passes": [t["trace"] for t in traced], "metrics": metrics}, f, indent=1)
    return metrics, wrong


def plain_metrics(passes: list, setup: list[float]) -> dict[str, float]:
    """Scaled CPU times, medians over the run; memory as the median over passes.

    On a shared 2-core virtual machine the speed of one process flips
    between a fast and a slow state from one second to the next (a loop of
    10^6 additions took 106 to 194 ms of CPU time), and the share of slow
    spells drifts over minutes.  So each op's CPU time is scaled by
    REFERENCE_S / c, c the calibration loop's CPU time just before and after
    the op: the op's cost on a host whose speed makes the loop take
    REFERENCE_S.  pass_s is the sum over ops of each op's median scaled
    time over the run's passes (each pass in a fresh interpreter);
    op_p90_ms is taken over those medians; setup_s is the median of the
    scaled import times spread over the run.
    """
    per_op = [statistics.median(run) for run in zip(*(p["scaled"] for p in passes))]
    walls = " ".join(f"{p['wall_s']:.3f}" for p in passes)
    print(f"{len(passes)} timed passes of {len(per_op)} ops, unscaled wall s {walls}")
    return {
        "setup_s": statistics.median(setup),
        "pass_s": sum(per_op),
        "op_p90_ms": _quantile(per_op, 90) * 1e3,
        "peak_rise_mib": statistics.median(p["peak_rise_mib"] for p in passes),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="bkl4 benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    checks.self_check_tables()
    inp = inputs.build(args.workload, args.seed)
    print(
        f"{args.workload} seed {args.seed}: inputs {inp['digest']}, "
        f"{len(inp['ops'])} ops + {len(inp['capped'])} capped"
    )
    job = {k: inp[k] for k in ("ops", "capped", "warmup")}
    passes, traced, setup = [], [], []
    _python(["-c", "import bkl4, bkl4.cli"])  # writes the bytecode cache
    start = time.perf_counter()
    least = 1 if args.trace else MIN_PASSES
    while len(passes) < least or time.perf_counter() - start < args.seconds:
        passes.append(run_pass({**job, "mode": "time"}))
        if args.trace:
            traced.append(run_pass({**job, "mode": "trace"}))
        else:
            setup.extend(setup_time() for _ in range(SETUP_PER_PASS))

    checker = Checker(args.workload, inp)
    attempted = failed = 0
    wrong: list[str] = []
    for result in passes + traced:
        reasons = checker.wrong(result["outputs"])
        wrong.extend(reasons)
        attempted += len(result["outputs"]) + len(result["capped"])
        failed += len(reasons) + _capped_failures(result)
    if args.trace:
        metrics, reasons = traced_metrics(args, inp, passes, traced)
        wrong.extend(reasons)
    else:
        metrics = plain_metrics(passes, setup)
    tests = checker.self_test()
    for name, reason in tests:
        print(f"self-test {name}: " + (f"rejected ({reason})" if reason else "ACCEPTED"))
    for line in wrong[:20]:
        print(line)
    spec = _spec()["per_layer" if args.trace else "end_to_end"]
    if {m["name"] for m in spec} != set(metrics):
        raise RuntimeError("measured metrics do not match BENCHMARK.json")
    result = {
        "correct": not wrong and all(reason for _, reason in tests),
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
