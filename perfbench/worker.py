"""One benchmark process: set up one workload, then time its operations.

Started by ``run.py``; prints ``READY`` once set-up (imports, seeded inputs
and one untimed warm-up operation) is done, and in ``measure`` mode a final
``RESULT <json>`` line.  ``setup`` mode exits after ``READY``.
"""

from __future__ import annotations

import os

# BLAS/OpenMP pools are sized when numpy loads, so fix them first: one
# caller, one thread.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"


def environment() -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "threads": {var: os.environ[var] for var in THREAD_VARS}}


def calibrate() -> float:
    """Seconds for a fixed mix of FFTs, small ``eigh`` and interpreted Python.

    It touches no phaseret code, so a change to the program cannot move it;
    it moves only with the speed the shared machine gives this process, which
    drifts by up to 1.8x over seconds to minutes.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    x = rng.normal(size=4096) + 0j
    a = rng.normal(size=(33, 33))
    a = a + a.T
    t0 = perf_counter()
    for _ in range(10):
        np.fft.fft(x)
    for _ in range(3):
        np.linalg.eigh(a)
    total = 0
    for i in range(10000):
        total += i * i
    return perf_counter() - t0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure"), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    import tracing
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install_counters(tracer)
    # phaseret, and workloads, which imports it, load after the counters.
    sys.path.insert(0, str(SRC))
    import phaseret
    if Path(phaseret.__file__).resolve().parent != SRC / "phaseret":
        print(f"phaseret imported from {phaseret.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    api = tracing.Api(tracer)
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        pool, warm = workload.make_inputs(args.seed)
        workload.op(api, warm, workdir)
        print("READY", flush=True)
        if args.mode == "setup":
            return 0
        if tracer is None:
            result = measure(workload, api, pool, workdir, args.seconds)
        else:
            result = measure_traced(workload, api, tracer, pool, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result["accuracy"] = workload.accuracy
    result["env"] = environment()
    rusage = resource.getrusage(resource.RUSAGE_SELF)
    result["peak_rss_mb"] = rusage.ru_maxrss / 1024.0   # KiB on Linux
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer, workload.first_pass)
        result["layers"]["trace.overhead_frac"] = (result["overhead_frac"], "ratio")
        tracer.write(str(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"))
    print("RESULT " + json.dumps(result), flush=True)
    return 0


def run_one(workload, api, item, workdir, tracer=None, op_id=None):
    """Time one operation, then check its outputs outside the timed region."""
    from workloads import Verdict

    t0 = perf_counter()
    try:
        if tracer is None:
            out = workload.op(api, item, workdir)
        else:
            out = tracer.run_op(op_id, workload.op, api, item, workdir)
    except Exception as exc:  # noqa: BLE001 - a raising operation is a failure
        return perf_counter() - t0, Verdict("failed", None,
                                            f"{type(exc).__name__}: {exc}")
    elapsed = perf_counter() - t0
    return elapsed, workload.check(item, out)


def summarize(durations, verdicts, first: int) -> dict:
    accuracy = [v.accuracy for v in verdicts[:first] if v.accuracy is not None]
    return {
        "durations": durations,
        "first_pass": first,
        "failed": sum(v.status != "ok" for v in verdicts),
        "wrong": sum(v.status == "wrong" for v in verdicts),
        "accuracy_p50": statistics.median(accuracy) if accuracy else None,
        "accuracy_n": len(accuracy),
        "reasons": sorted({v.reason for v in verdicts if v.status != "ok"})[:20],
    }


def measure(workload, api, pool, workdir, seconds) -> dict:
    """Closed loop over the pool: at least one full pass, then until the
    operations' own time reaches ``seconds``.  The calibration kernel runs
    between operations; each operation is paired with the mean of the
    kernel times just before and just after it."""
    durations, verdicts, calibration = [], [], []
    busy = 0.0
    calibrate()  # the first call pays one-time costs
    before = calibrate()
    while len(durations) < len(pool) or busy < seconds:
        item = pool[len(durations) % len(pool)]
        elapsed, verdict = run_one(workload, api, item, workdir)
        after = calibrate()
        durations.append(elapsed)
        verdicts.append(verdict)
        calibration.append(0.5 * (before + after))
        busy += elapsed
        before = after
    result = summarize(durations, verdicts, len(pool))
    result["calibration"] = calibration
    return result


def measure_traced(workload, api, tracer, pool, workdir) -> dict:
    """One pass over the pool, each input run untraced and traced in
    alternating order, so drift in machine speed cancels out of the
    tracing overhead.  Only the traced operations are reported."""
    durations, verdicts, plain = [], [], []
    for i, item in enumerate(pool):
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            elapsed, verdict = run_one(workload, api, item, workdir,
                                       tracer if traced else None, i)
            if traced:
                durations.append(elapsed)
                verdicts.append(verdict)
            else:
                plain.append(elapsed)
    result = summarize(durations, verdicts, len(pool))
    result["overhead_frac"] = sum(durations) / sum(plain) - 1.0
    return result


if __name__ == "__main__":
    sys.exit(main())
