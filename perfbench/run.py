"""phaseret benchmark: one workload, one seed, end-to-end or traced metrics.

    python3 perfbench/run.py --workload recover-n1024 --seed 1 --seconds 25 --trace 0

Run from the repository root; phaseret is imported from ``src/``.  Each
workload runs in its own worker process with one caller and one BLAS thread
(see ``workloads.py`` for the workloads and ``NOTES.md`` for the metrics).

``--trace 0`` prints the end-to-end metrics: set-up time (the median over
``SETUP_SAMPLES`` fresh processes, each timed from launch until it has
imported phaseret, built its inputs and run one warm-up operation), then
throughput, per-operation latency, peak RSS and accuracy from a closed loop
of at least ``--seconds`` of operation time.  ``--trace 1`` runs each input
of the first pass twice, untraced and traced in alternating order, and prints
the per-layer metrics of the traced operations and the tracing overhead.

Operation times are scaled to a reference machine speed: each is multiplied
by ``CALIBRATION_REF_S`` over the time of a fixed calibration kernel
(``worker.calibrate``) measured next to it, which cancels the drift in speed
of a shared machine.  The table also prints them unscaled.  Set-up time is
not scaled: it is mostly imports, which do not track the kernel.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable table and the environment.  The same record, with the
environment, is written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"
SETUP_SAMPLES = 3
CALIBRATION_REF_S = 0.002   # times are reported at the speed where the kernel takes this
P90_MIN_OPS = 100   # a p90 needs at least ten samples beyond it

# The names of workloads.WORKLOADS, repeated because this process imports
# neither numpy nor phaseret.
WORKLOAD_NAMES = ("recover-n1024", "fit-speckle-n128", "montecarlo-crb-n32",
                  "lifted-n32")


class WorkerError(RuntimeError):
    pass


def run_worker(args, mode: str, trace: int, seconds: float):
    """Start one worker; return (set-up seconds, result dict or None)."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds),
           "--mode", mode, "--trace", str(trace)]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)
    setup_s = None
    result = None
    try:
        for line in proc.stdout:
            if line.startswith("READY") and setup_s is None:
                setup_s = perf_counter() - t0
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        code = proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or setup_s is None or (mode == "measure" and result is None):
        raise WorkerError(f"worker ({mode}, trace={trace}) exited with {code}")
    return setup_s, result


def percentile(values, q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[int(q) - 1]


def end_to_end(args) -> tuple[dict, dict, list[str]]:
    setups = [run_worker(args, "setup", 0, 0)[0]
              for _ in range(SETUP_SAMPLES - 1)]
    setup_s, res = run_worker(args, "measure", 0, args.seconds)
    setups.append(setup_s)
    d = res["durations"]
    d_ref = [t * CALIBRATION_REF_S / c for t, c in zip(d, res["calibration"])]
    n = len(d)
    # name: (value, unit, sample count, unscaled value or None)
    metrics = {
        "setup_s": (statistics.median(setups), "s", len(setups), None),
        "ops_per_s": (n / sum(d_ref), "1/s", n, n / sum(d)),
        "op_p50_ms": (1e3 * statistics.median(d_ref), "ms", n,
                      1e3 * statistics.median(d)),
        "peak_rss_mb": (res["peak_rss_mb"], "MiB", 1, None),
        "err_rel_p50": (res["accuracy_p50"], "ratio", res["accuracy_n"], None),
    }
    table = [f"{k:<14} {v:<12.6g} {u:<6} n={c:<5}"
             + ("" if raw is None else f" unscaled {raw:.6g}")
             for k, (v, u, c, raw) in metrics.items()]
    if n >= P90_MIN_OPS:
        table.append(f"{'op_p90_ms':<14} {1e3 * percentile(d_ref, 90):<12.6g} "
                     f"ms     n={n:<5} unscaled {1e3 * percentile(d, 90):.6g}")
    else:
        table.append(f"{'op_p90_ms':<14} {'-':<12} ms     n={n:<5} "
                     f"fewer than {P90_MIN_OPS}, not reported")
    table.append(f"{'fail_frac':<14} {res['failed'] / n:<12.6g} ratio  n={n}")
    table.append(f"(err_rel_p50 here: {res['accuracy']})")
    return {k: v[:2] for k, v in metrics.items()}, res, table


def traced(args) -> tuple[dict, dict, list[str]]:
    _, res = run_worker(args, "measure", 1, 0)
    metrics = {name: tuple(pair) for name, pair in res["layers"].items()}
    table = [f"{k:<36} {v:<12.6g} {u}" for k, (v, u) in metrics.items()]
    table.append(f"(first pass of {res['first_pass']} operations; overhead "
                 f"against the same inputs run untraced in between)")
    return metrics, res, table


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "phaseret" / "__init__.py").is_file():
        print(f"no phaseret sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        metrics, res, table = (traced if args.trace else end_to_end)(args)
    except WorkerError as exc:
        print(exc, file=sys.stderr)
        return 1

    n = len(res["durations"])
    summary = {
        "correct": res["wrong"] == 0,
        "attempted": n,
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "loop": "closed, 1 caller, 1 process", "env": res["env"],
              "failure_reasons": res["reasons"], **summary}
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=2) + "\n")

    print(f"# {args.workload} seed={args.seed} trace={args.trace}: "
          f"closed loop, 1 caller, 1 process")
    print("# env " + json.dumps(res["env"]))
    for reason in res["reasons"]:
        print(f"# failure: {reason}")
    for line in table:
        print(line)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
