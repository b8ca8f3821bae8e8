"""The benchmark's four workloads: seeded inputs, one operation, its checks.

Every workload is a closed loop with one caller: the next operation starts
when the previous one has returned, as in a scientist's script.  Inputs are
generated from the workload seed before timing starts, and an operation
receives only arrays, measurement sets or files.  The loop cycles over a pool
of ``first_pass`` inputs; accuracy and count metrics come from that first
pass only, so they are the same on every run with the same seed.

Why each workload is here (sizes follow M = 4 * augmented length):

recover-n1024
    The steps ``phaseret recover`` runs on a file: augment, measure, add
    40 dB noise, write and read the measurement JSON, ``solve_cork``,
    ``kolmogorov_sf`` and ``deaugment`` at the CLI's transform length, write
    the estimate.  The impulse keeps the PSD constraint slack, so ADMM
    converges in one iteration: this workload shows gains in FFT length,
    factorization and I/O, and nothing from cutting iterations.
fit-speckle-n128
    ``solve_cork`` at tol_rel=1e-4 on i.i.d. Exp(1) speckle intensities
    (N=128, M=516).  No length-N signal fits speckle, so the PSD constraint
    binds and ADMM runs hundreds of iterations; nearly all the time is ADMM
    iterations.  Uniform b, as the bench's gap study draws it, was rejected:
    its iteration counts are bimodal (1 or thousands), so timings would not
    be steady.
montecarlo-crb-n32
    One ``bench.run_experiment`` CRB study (N=32, 8 trials at 15 sweep
    points: 120 small noisy recoveries and 15 ``compute_crb``), then
    ``aggregate_and_persist`` and ``check_thresholds``, as ``phaseret bench``
    runs it.  Per-call overhead dominates, so batching trials shows here and
    not on recover-n1024.  It is the only workload of the ``bench`` layer.
lifted-n32
    The desk-scale reference arms on a noisy 40 dB augmented N=32
    measurement: ``phaselift_value`` (lambda=0 bound), ``solve_cork`` (gap
    check), ``phaselift_sf``, ``fienup_sf`` and ``compute_crb``; then
    ``root_sf`` and ``is_min_phase`` on six correlations of fresh augmented
    signals whose length cycles over 2..48, the whole range ``root_sf``
    accepts, so its failures are counted rather than sized away.

Not workloads, on purpose: CLI argument parsing (microseconds, and no layer
a perf change targets) and the tier-1 test wall time (a test suite, not a
user's workload; it is reported by pytest itself).
"""

from __future__ import annotations

import math
import os
import statistics
import zlib
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from phaseret import signals
from phaseret.measurement import (AugmentationSpec, add_noise,
                                  augment_min_phase, default_delta, deaugment,
                                  measure_augmented)
from phaseret.specfact import InvalidCorrelationError, kolmogorov_sf

# A seed kept out of all tuning, so a later claim can be re-checked on it.
HELD_OUT_SEED = 1603
WARMUP_SEED = 0xC0FFEE

SNR_DB = 40.0

# Check thresholds, well clear of what correct outputs give at this commit:
# err_rel about 0.02 on recover-n1024 and 1e-3 on lifted-n32, root_sf within
# 3e-5 of kolmogorov_sf, MSE/CRB about 2 (about 1 once the CRB factor of 2
# in ROADMAP item 3a is fixed).
RECOVER_ERR_MAX = 1e-1
LIFTED_ERR_MAX = 1e-1
ROOT_AGREE_MAX = 1e-3          # root_sf vs kolmogorov_sf, relative squared
HIDDEN_CONVEXITY_SLACK = 1e-6  # cork fit <= lambda=0 bound + slack * ||b||^2
MSE_OVER_CRB_BAND = (0.5, 4.0)


@dataclass
class Verdict:
    """Outcome of one operation's checks.

    ``status`` is ``ok``, ``failed`` (an exception or a solver that did not
    converge) or ``wrong`` (an output failed a check).  ``accuracy`` is the
    workload's accuracy figure for this operation, when it has one.
    """

    status: str
    accuracy: float | None = None
    reason: str = ""


def _verdict(accuracy, wrong: list[str], failed: list[str]) -> Verdict:
    if wrong:
        return Verdict("wrong", accuracy, "; ".join(wrong + failed))
    if failed:
        return Verdict("failed", accuracy, "; ".join(failed))
    return Verdict("ok", accuracy)


def _complex_gaussian(rng: np.random.Generator, n: int) -> np.ndarray:
    return (rng.normal(size=n) + 1j * rng.normal(size=n)) / np.sqrt(2.0)


def _sigma2(b: np.ndarray, snr_db: float) -> float:
    return float(np.linalg.norm(b) ** 2 / (b.size * 10.0 ** (snr_db / 10.0)))


def _err_rel(s: np.ndarray, shat: np.ndarray) -> float:
    return signals.global_phase_distance(s, shat) / float(np.linalg.norm(s) ** 2)


# ------------------------------------------------------------ recover-n1024

RECOVER_N = 1024


def recover_inputs(rng, count):
    return [{"s": _complex_gaussian(rng, RECOVER_N),
             "noise_seed": int(rng.integers(2**32))} for _ in range(count)]


def recover_op(api, item, workdir):
    s = item["s"]
    spec = api.measurement.AugmentationSpec(api.measurement.default_delta(s))
    clean = api.measurement.measure_augmented(s, spec, 4 * (s.size + 1))
    noisy = api.measurement.add_noise(clean, _sigma2(clean.b, SNR_DB),
                                      item["noise_seed"])
    path = os.path.join(workdir, "measurement.json")
    api.io.save_measurement_file(path, noisy)
    ms = api.io.load_measurement_file(path)
    l = signals.default_transform_length(ms.n)
    r, diag = api.cork.solve_cork(ms, api.cork.AdmmOptions(l=l))
    xmin = api.specfact.kolmogorov_sf(r, api.specfact.SfOptions(l=l))
    shat = api.measurement.deaugment(xmin, ms.augmentation)
    api.io.save_signal_file(os.path.join(workdir, "estimate.json"), shat)
    return {"r": r, "diag": diag, "l": l, "shat": shat}


def recover_check(item, out) -> Verdict:
    wrong, failed = [], []
    if not out["diag"].converged:
        failed.append("solve_cork did not converge")
    err = _err_rel(item["s"], out["shat"])
    if not err <= RECOVER_ERR_MAX:
        wrong.append(f"err_rel {err:.3g} > {RECOVER_ERR_MAX}")
    _, _, psd_ok = signals.correlation_psd_check(out["r"], l=out["l"])
    if not psd_ok:
        wrong.append("r fails correlation_psd_check")
    return _verdict(err, wrong, failed)


# --------------------------------------------------------- fit-speckle-n128

SPECKLE_N = 128


def speckle_inputs(rng, count):
    m = 4 * (SPECKLE_N + 1)
    return [signals.MeasurementSet(rng.exponential(1.0, size=m), SPECKLE_N)
            for _ in range(count)]


def speckle_op(api, ms, workdir):
    return api.cork.solve_cork(ms, api.cork.AdmmOptions(tol_rel=1e-4))


def speckle_check(ms, out) -> Verdict:
    r, diag = out
    wrong, failed = [], []
    if not diag.converged:
        failed.append(f"solve_cork did not converge in {diag.iters} iterations")
    # The factorization's transform length, not ADMM's own, so the check
    # holds when the two are decoupled.
    l_sf = signals.default_transform_length(ms.n)
    _, _, psd_ok = signals.correlation_psd_check(r, l=l_sf)
    if not psd_ok:
        wrong.append("r fails correlation_psd_check")
    b2 = float(np.linalg.norm(ms.b) ** 2)
    fit = float(np.linalg.norm(ms.b - signals.correlation_to_intensity(r, ms.m)) ** 2)
    if abs(fit - diag.fit) > 1e-9 * b2:
        wrong.append(f"reported fit {diag.fit:.6g} != recomputed {fit:.6g}")
    if not fit < b2:
        wrong.append("fit no better than r = 0")
    return _verdict(fit / b2, wrong, failed)


# ------------------------------------------------------- montecarlo-crb-n32

def crb_inputs(rng, count):
    return [int(rng.integers(2**31)) for _ in range(count)]


def crb_op(api, master_seed, workdir):
    config = api.bench.ExperimentConfig(
        kind="crb", n=32, trials=8, master_seed=master_seed,
        thresholds={"mse_over_crb_max": MSE_OVER_CRB_BAND[1]})
    rows = api.bench.run_experiment(config)
    paths = api.bench.aggregate_and_persist(rows, os.path.join(workdir, "bench"))
    failures = api.bench.check_thresholds(config, rows)
    return {"rows": rows, "paths": paths, "failures": failures}


def crb_check(master_seed, out) -> Verdict:
    rows = out["rows"]
    wrong = list(out["failures"])
    if len(rows) != 15:
        wrong.append(f"{len(rows)} sweep points, expected 15")
    lo, hi = MSE_OVER_CRB_BAND
    for row in rows:
        values = (row["mse_norm"], row["crb_norm"], row["mse_over_crb"])
        if not all(math.isfinite(v) for v in values):
            wrong.append(f"non-finite row at {row['series']} x={row['x']}")
        elif not lo <= row["mse_over_crb"] <= hi:
            wrong.append(f"mse_over_crb {row['mse_over_crb']:.3g} outside "
                         f"[{lo}, {hi}] at {row['series']} x={row['x']}")
    for path in out["paths"].values():
        if not os.path.getsize(path):
            wrong.append(f"empty report file {os.path.basename(path)}")
    accuracy = statistics.median(row["mse_norm"] for row in rows) if rows else None
    return _verdict(accuracy, wrong, [])


# --------------------------------------------------------------- lifted-n32

LIFTED_N = 32
ROOT_CALLS_PER_OP = 6
ROOT_LENGTHS = range(2, 49)   # augmented lengths root_sf accepts


def lifted_inputs(rng, count):
    items = []
    position = 0
    for _ in range(count):
        s = _complex_gaussian(rng, LIFTED_N)
        spec = AugmentationSpec(default_delta(s))
        m = 4 * (LIFTED_N + 1)
        clean = measure_augmented(s, spec, m)
        sigma2 = _sigma2(clean.b, SNR_DB)
        ms = add_noise(clean, sigma2, int(rng.integers(2**32)))
        correlations = []
        for _ in range(ROOT_CALLS_PER_OP):
            n = ROOT_LENGTHS[position % len(ROOT_LENGTHS)]
            position += 1
            core = _complex_gaussian(rng, n - 1)
            x = augment_min_phase(core, AugmentationSpec(default_delta(core)))
            correlations.append(signals.autocorrelation(x))
        items.append({"s": s, "spec": spec, "smin": augment_min_phase(s, spec),
                      "ms": ms, "sigma2": sigma2, "correlations": correlations})
    return items


def lifted_op(api, item, workdir):
    ms = item["ms"]
    _, bound, _ = api.sdp.phaselift_value(ms, 0.0)
    _, cork_diag = api.cork.solve_cork(ms)
    x_pl, _, sdp_diag = api.sdp.phaselift_sf(ms)
    x_fienup = api.baselines.fienup_sf(ms)
    crb = api.crb.compute_crb(item["smin"], ms.m, item["sigma2"])
    roots = []
    for r in item["correlations"]:
        try:
            x = api.specfact.root_sf(r)
        except InvalidCorrelationError as exc:
            roots.append(exc)
            continue
        roots.append((x, api.specfact.is_min_phase(x)[0]))
    return {"bound": bound, "cork_diag": cork_diag, "x_pl": x_pl,
            "sdp_diag": sdp_diag, "x_fienup": x_fienup, "crb": crb,
            "roots": roots}


def lifted_check(item, out) -> Verdict:
    wrong, failed = [], []
    b2 = float(np.linalg.norm(item["ms"].b) ** 2)
    if out["cork_diag"].fit > out["bound"] + HIDDEN_CONVEXITY_SLACK * b2:
        wrong.append(f"cork fit {out['cork_diag'].fit:.6g} above the PhaseLift "
                     f"bound {out['bound']:.6g}")
    if not out["cork_diag"].converged:
        failed.append("solve_cork did not converge")
    if not out["sdp_diag"].converged:
        failed.append("phaselift_sf did not converge")
    err = _err_rel(item["s"], deaugment(out["x_pl"], item["spec"]))
    if not err <= LIFTED_ERR_MAX:
        wrong.append(f"phaselift_sf err_rel {err:.3g} > {LIFTED_ERR_MAX}")
    if not np.all(np.isfinite(out["x_fienup"])):
        wrong.append("fienup_sf returned non-finite entries")
    if not (math.isfinite(out["crb"]) and out["crb"] > 0):
        wrong.append(f"compute_crb returned {out['crb']}")
    for r, result in zip(item["correlations"], out["roots"]):
        if isinstance(result, InvalidCorrelationError):
            failed.append(f"root_sf N={r.size}: {result}")
            continue
        x, certified = result
        if not certified:
            wrong.append(f"root_sf N={r.size} output not certified min phase")
        x_ref = kolmogorov_sf(r)
        gap = signals.global_phase_distance(x, x_ref) / float(r[0].real)
        if not gap <= ROOT_AGREE_MAX:
            wrong.append(f"root_sf N={r.size} differs from kolmogorov_sf by {gap:.3g}")
    return _verdict(err, wrong, failed)


# ----------------------------------------------------------------- registry

@dataclass
class Workload:
    name: str
    first_pass: int   # pool size; deterministic metrics come from one pass
    inputs: Callable[[np.random.Generator, int], list]
    op: Callable[[Any, Any, str], Any]
    check: Callable[[Any, Any], Verdict]
    accuracy: str     # what err_rel_p50 is on this workload

    def make_inputs(self, seed: int):
        """The first-pass pool, and one warm-up input that does not depend
        on the seed, so set-up does the same work for every seed."""
        def rng(s):
            return np.random.default_rng(
                np.random.SeedSequence([s, zlib.crc32(self.name.encode())]))
        pool = self.inputs(rng(seed), self.first_pass)
        return pool, self.inputs(rng(WARMUP_SEED), 1)[0]


WORKLOADS = {w.name: w for w in (
    Workload("recover-n1024", 64, recover_inputs, recover_op, recover_check,
             "global-phase-aligned ||s - shat||^2 / ||s||^2 of the pipeline"),
    Workload("fit-speckle-n128", 48, speckle_inputs, speckle_op, speckle_check,
             "relative fit ||b - Re{F I~ r}||^2 / ||b||^2 (no true signal)"),
    Workload("montecarlo-crb-n32", 64, crb_inputs, crb_op, crb_check,
             "median mse_norm over the 15 sweep points"),
    Workload("lifted-n32", 24, lifted_inputs, lifted_op, lifted_check,
             "global-phase-aligned ||s - shat||^2 / ||s||^2 of phaselift_sf"),
)}
