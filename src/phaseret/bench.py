"""Monte-Carlo experiment runner: optimality gaps, recovery, CRB attainment.

Three experiment kinds:

* ``gap``: random measurement vectors drawn uniformly; every solver's fit is
  compared to the PhaseLift lambda=0 lower bound.
* ``recovery``: random complex-Gaussian signals measured directly and via
  the impulse-augmented minimum-phase arm; records global-phase-aligned
  errors per arm and solver.
* ``crb``: fixed signal, sweeps over measurement count and SNR; records
  normalized MSE of the ``cork`` pipeline against the normalized Cramer-Rao
  bound.

Gap and recovery trials run the solvers named in ``ExperimentConfig.solvers``
from ``SOLVERS``, the one table of minimum-phase solvers that ``phaseret
recover`` also uses; every solver samples at the default transform length.
Trials are deterministic: trial t uses
``SeedSequence([master_seed, t])``, so runs are reproducible and trivially
parallel.  Persistence writes results.jsonl (one trial per line),
summary.json, and plot-ready curves.csv.
"""

from __future__ import annotations

import csv
import io as _io
import json
import numbers
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .baselines import (GS_REFINE_ITERS, IterativeOptions, fienup_solve,
                        gs_solve)
from .cork import AdmmOptions, solve_cork
from .crb import compute_crb
from .io import atomic_write_text
from .measurement import AugmentationSpec, augment_min_phase, deaugment
from .sdp import SdpOptions, phaselift_sf, phaselift_value
from .signals import (MeasurementSet, autocorrelation, global_phase_distance,
                      intensity_measure)
from .specfact import kolmogorov_sf

__all__ = ["SOLVERS", "THRESHOLDS", "ExperimentConfig", "run_gap_trial",
           "run_recovery_trial", "run_crb_study", "run_experiment",
           "aggregate_and_persist"]

TIMING_FIELDS = ("times",)  # stripped when comparing runs byte-for-byte


def _fit(x, b: np.ndarray) -> float:
    model = intensity_measure(x, b.size)
    return float(np.linalg.norm(b - model) ** 2)


def _options(cls, **values):
    """``cls()`` with the given values that are not None."""
    return cls(**{k: v for k, v in values.items() if v is not None})


# Each solver maps (measurements, seed, optional max_iters and tol; None
# keeps the solver's default, phaselift-sf ignores tol, and cork, which
# stops at the KKT point, rejects one) to (minimum-phase estimate,
# diagnostics) at the default transform length; the diagnostics
# always hold ``fit`` and ``converged``.  ``cork`` also takes a stacked
# measurement set and returns one estimate and one diagnostics dict per
# row, which is how the CRB study runs its trials.  The entries call the
# solvers through this module's globals, so a caller that rebinds them (a
# tracer, a test) sees every call.

def _cork(ms, seed, max_iters=None, tol=None):
    if tol is not None:
        raise ValueError("cork takes no tolerance: it stops at the KKT point")
    r, diag = solve_cork(ms, _options(AdmmOptions, max_iters=max_iters))
    return kolmogorov_sf(r), diag.to_json()


def _phaselift_sf(ms, seed, max_iters=None, tol=None):
    x, _, diag = phaselift_sf(ms, _options(SdpOptions, max_iters=max_iters))
    return x, {"fit": diag.fit, "converged": diag.converged,
               "lower_bound": diag.lower_bound}


# The alternating-projection baselines certify nothing about accuracy; the
# min-phase certificate checks them.  GS has converged when its stalled-cost
# test fired before the cap (one cost per iteration, plus the last).
# Fienup's Dykstra phase has no stopping test, so its GS refinement decides.

def _fienup(ms, seed, max_iters=None, tol=None):
    x, history = fienup_solve(ms, _options(IterativeOptions, seed=seed,
                                           max_iters=max_iters, tol=tol))
    x = kolmogorov_sf(autocorrelation(x))
    return x, {"fit": _fit(x, ms.b),
               "converged": history.size <= GS_REFINE_ITERS}


def _gs(ms, seed, max_iters=None, tol=None):
    opts = _options(IterativeOptions, seed=seed, max_iters=max_iters, tol=tol)
    x, history = gs_solve(ms, opts)
    x = kolmogorov_sf(autocorrelation(x))
    return x, {"fit": _fit(x, ms.b), "converged": history.size <= opts.max_iters}


SOLVERS = {"cork": _cork, "phaselift-sf": _phaselift_sf, "fienup": _fienup,
           "gs": _gs}

# Each pass/fail threshold a config may set: name -> (label, the row's value
# or None).  A threshold fails when its worst value exceeds it, or when no
# row has a value.
THRESHOLDS = {
    "cork_gap_rel_max": ("cork relative gap",
                         lambda row: row.get("gaps_rel", {}).get("cork")),
    "minphase_err_rel_max": ("min-phase arm error",
                             lambda row: row.get("errors_rel", {}).get("cork_minphase")),
    "mse_over_crb_max": ("MSE/CRB", lambda row: row.get("mse_over_crb")),
}


@dataclass
class ExperimentConfig:
    kind: str = "gap"                      # gap | recovery | crb
    n: int = 32
    trials: int = 50
    m_multiplier: float = 4.0              # recovery: M = multiplier * N
    m_range: tuple[float, float] = (2.0, 8.0)   # gap: M ~ U[2N, 8N]
    snr_db: float = 40.0                   # crb: SNR for the M sweep
    snr_sweep: tuple[float, float, int] = (30.0, 60.0, 7)
    m_sweep: tuple[float, float, int] = (2.0, 16.0, 8)
    crb_m_multiplier: float = 8.0          # crb: M for the SNR sweep
    # gap and recovery: names from SOLVERS
    solvers: tuple[str, ...] = ("cork", "phaselift-sf", "fienup")
    master_seed: int = 0
    output_dir: str | None = None
    thresholds: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in ("gap", "recovery", "crb"):
            raise ValueError(f"unknown experiment kind: {self.kind!r}")
        if self.n < 1 or self.trials < 1:
            raise ValueError(f"need n >= 1 and trials >= 1 (got n={self.n}, "
                             f"trials={self.trials})")
        unknown = [name for name in self.solvers if name not in SOLVERS]
        if unknown:
            raise ValueError(f"unknown solvers {unknown}; "
                             f"choose from {list(SOLVERS)}")
        # every M the config draws or sweeps must reach 2N, as solve_cork
        # and compute_crb require
        lo, hi = self.m_range
        if not 2 <= lo <= hi:
            raise ValueError(f"m_range must have 2 <= lo <= hi, got {self.m_range}")
        lo, hi, _ = self.m_sweep
        if min(lo, hi) < 2:
            raise ValueError(f"m_sweep must stay >= 2, got {self.m_sweep}")
        for name in ("m_multiplier", "crb_m_multiplier"):
            if getattr(self, name) < 2:
                raise ValueError(f"{name} must be >= 2, got {getattr(self, name)}")
        th = self.thresholds
        if not (isinstance(th, dict) and set(th) <= set(THRESHOLDS) and all(
                isinstance(v, numbers.Real) and not isinstance(v, bool)
                and not np.isnan(v) for v in th.values())):
            raise ValueError(f"thresholds must map names from "
                             f"{list(THRESHOLDS)} to numbers, got {th!r}")

    def trial_rng(self, trial_index: int) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence([self.master_seed, trial_index]))

    @classmethod
    def from_json(cls, obj: dict) -> "ExperimentConfig":
        kwargs = {}
        for name in cls.__dataclass_fields__:
            if name in obj:
                value = obj[name]
                if isinstance(value, list):
                    value = tuple(value)
                kwargs[name] = value
        unknown = set(obj) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**kwargs)


def _solve(result: dict, key: str, name: str, ms: MeasurementSet, seed):
    """(estimate, diagnostics) of ``SOLVERS[name]`` on ``ms``, de-augmented
    when ``ms`` is augmented and timed under ``result["times"][key]``; None
    when it raised, with the message under ``result["errors"][key]``."""
    try:
        t0 = time.perf_counter()
        x, diag = SOLVERS[name](ms, seed)
        if ms.augmentation is not None:
            x = deaugment(x, ms.augmentation)
        result["times"][key] = time.perf_counter() - t0
    except Exception as exc:  # noqa: BLE001 - per-solver capture
        result["errors"][key] = str(exc)
        return None
    return x, diag


def run_gap_trial(config: ExperimentConfig, trial_index: int) -> dict:
    """One random least-squares instance; gaps against the SDP lower bound."""
    rng = config.trial_rng(trial_index)
    n = config.n
    lo, hi = config.m_range
    m = int(rng.integers(int(lo * n), int(hi * n) + 1))
    b = rng.uniform(size=m)
    bscale = float(np.linalg.norm(b) ** 2)
    ms = MeasurementSet(b, n)

    result = {"trial": trial_index, "kind": "gap", "n": n, "m": m,
              "b_norm2": bscale, "fits": {}, "gaps": {}, "gaps_rel": {},
              "iters": {}, "times": {}, "errors": {}}

    t0 = time.perf_counter()
    _, lower_bound, _ = phaselift_value(ms, 0.0)
    result["times"]["phaselift"] = time.perf_counter() - t0
    result["fits"]["phaselift"] = lower_bound
    result["lower_bound"] = lower_bound

    for name in config.solvers:
        solved = _solve(result, name, name, ms, trial_index)
        if solved is None:
            continue
        diag = solved[1]
        gap = diag["fit"] - lower_bound
        result["fits"][name] = diag["fit"]
        result["gaps"][name] = gap
        result["gaps_rel"][name] = gap / max(bscale, 1e-300)
        if "iters" in diag:
            result["iters"][name] = diag["iters"]
    return result


def run_recovery_trial(config: ExperimentConfig, trial_index: int) -> dict:
    """Direct vs minimum-phase measurement arms on one random signal."""
    rng = config.trial_rng(trial_index)
    n = config.n
    s = (rng.normal(size=n) + 1j * rng.normal(size=n)) / np.sqrt(2)
    s_energy = float(np.linalg.norm(s) ** 2)
    delta = 3.0 * n  # unit-variance heuristic impulse
    spec = AugmentationSpec(delta)
    smin = augment_min_phase(s, spec)
    m = int(config.m_multiplier * smin.size)

    result = {"trial": trial_index, "kind": "recovery", "n": n, "m": m,
              "delta": delta, "s_energy": s_energy,
              "errors_rel": {}, "fits_rel": {}, "times": {}, "errors": {}}

    # the direct arm runs the same solvers without augmentation
    arms = (("minphase", MeasurementSet(intensity_measure(smin, m), smin.size,
                                        augmentation=spec)),
            ("direct", MeasurementSet(
                intensity_measure(s, int(config.m_multiplier * n)), n)))
    for arm, ms in arms:
        bscale = float(np.linalg.norm(ms.b) ** 2)
        for name in config.solvers:
            key = f"{name}_{arm}"
            solved = _solve(result, key, name, ms, trial_index)
            if solved is None:
                continue
            shat, diag = solved
            result["errors_rel"][key] = \
                global_phase_distance(s, shat) / s_energy
            result["fits_rel"][key] = diag["fit"] / bscale
    return result


def run_crb_study(config: ExperimentConfig) -> list[dict]:
    """Sweep M at fixed SNR and SNR at fixed M with the ``cork`` solver;
    returns per-point rows.

    Each sweep point solves its trials as one stack.  Trial t's noise at
    every point is the first M samples of one standard-normal draw from
    ``trial_rng(t)`` scaled by sigma, the same values a draw of M samples at
    that scale gives.  The CRB is linear in sigma^2, so it is computed once
    per distinct M at sigma^2 = 1 and scaled.
    """
    rng = config.trial_rng(2**31 - 1)  # signal draw index, outside trial range
    n = config.n
    s = (rng.normal(size=n) + 1j * rng.normal(size=n)) / np.sqrt(2)
    s_energy = float(np.linalg.norm(s) ** 2)
    spec = AugmentationSpec(3.0 * n)
    smin = augment_min_phase(s, spec)

    points = []
    lo, hi, count = config.m_sweep
    for mult in np.linspace(lo, hi, int(count)):
        points.append((int(mult * smin.size), config.snr_db, "m_sweep",
                       float(mult)))
    lo, hi, count = config.snr_sweep
    for snr in np.linspace(lo, hi, int(count)):
        points.append((int(config.crb_m_multiplier * smin.size), float(snr),
                       "snr_sweep", float(snr)))
    m_max = max((p[0] for p in points), default=0)
    unit_noise = np.array([config.trial_rng(t).normal(size=m_max)
                           for t in range(config.trials)])
    unit_crb = {m: compute_crb(smin, m, 1.0) for m in sorted({p[0] for p in points})}

    def point(m: int, snr_db: float, series: str, x_value: float) -> dict:
        b_clean = intensity_measure(smin, m)
        power = float(np.linalg.norm(b_clean) ** 2)
        sigma2 = power / (m * 10.0 ** (snr_db / 10.0))
        crb = unit_crb[m] * sigma2
        t0 = time.perf_counter()
        noisy = b_clean + np.sqrt(sigma2) * unit_noise[:, :m]
        ms = MeasurementSet(noisy, smin.size, sigma2=sigma2, augmentation=spec)
        shat = deaugment(SOLVERS["cork"](ms, None)[0], spec)
        mse = float(np.mean([np.linalg.norm(s - row) ** 2 for row in shat]))
        elapsed = time.perf_counter() - t0
        return {"kind": "crb", "series": series, "x": x_value, "m": m,
                "snr_db": snr_db, "sigma2": sigma2,
                "mse_norm": mse / s_energy, "crb_norm": crb / s_energy,
                "mse_over_crb": mse / crb, "trials": config.trials,
                "times": {"sweep_point": elapsed}}

    return [point(*p) for p in points]


def run_experiment(config: ExperimentConfig) -> list[dict]:
    if config.kind == "gap":
        return [run_gap_trial(config, t) for t in range(config.trials)]
    if config.kind == "recovery":
        return [run_recovery_trial(config, t) for t in range(config.trials)]
    if config.kind == "crb":
        return run_crb_study(config)
    raise ValueError(f"unknown experiment kind: {config.kind!r}")


def _strip_timing(row: dict) -> dict:
    return {k: v for k, v in row.items() if k not in TIMING_FIELDS}


def _quantiles(values) -> dict:
    arr = np.asarray(values, dtype=float)
    return {"median": float(np.median(arr)),
            "q25": float(np.quantile(arr, 0.25)),
            "q75": float(np.quantile(arr, 0.75)),
            "min": float(arr.min()), "max": float(arr.max()),
            "mean": float(arr.mean()), "count": int(arr.size)}


def summarize(results: list[dict]) -> dict:
    """Medians/quantiles of every numeric per-trial metric."""
    if not results:
        raise ValueError("need at least one result")
    summary: dict = {"trials": len(results)}
    kind = results[0].get("kind")
    summary["kind"] = kind
    numeric: dict[str, list[float]] = {}
    for row in results:
        for key, value in _strip_timing(row).items():
            if isinstance(value, dict):
                for sub, v in value.items():
                    if isinstance(v, (int, float)) and not isinstance(v, bool):
                        numeric.setdefault(f"{key}.{sub}", []).append(float(v))
            elif isinstance(value, (int, float)) and not isinstance(value, bool):
                numeric.setdefault(key, []).append(float(value))
    summary["metrics"] = {k: _quantiles(v) for k, v in sorted(numeric.items())}
    return summary


def _curves_rows(results: list[dict]) -> list[tuple]:
    rows = []
    for row in results:
        if row.get("kind") == "crb":
            rows.append((row["x"], row["mse_norm"], f"{row['series']}:mse"))
            rows.append((row["x"], row["crb_norm"], f"{row['series']}:crb"))
        elif row.get("kind") == "gap":
            for solver, gap in row.get("gaps", {}).items():
                rows.append((row["trial"], gap, f"gap:{solver}"))
        elif row.get("kind") == "recovery":
            for arm, err in row.get("errors_rel", {}).items():
                rows.append((row["trial"], err, f"error:{arm}"))
    return rows


def aggregate_and_persist(results: list[dict], output_dir: str) -> dict:
    """Write results.jsonl, summary.json, and curves.csv; returns paths."""
    if not results:
        raise ValueError("need at least one result")
    os.makedirs(output_dir, exist_ok=True)
    paths = {
        "results": os.path.join(output_dir, "results.jsonl"),
        "summary": os.path.join(output_dir, "summary.json"),
        "curves": os.path.join(output_dir, "curves.csv"),
    }
    try:
        lines = [json.dumps(row, sort_keys=True) for row in results]
        atomic_write_text(paths["results"], "\n".join(lines) + "\n")
        atomic_write_text(paths["summary"],
                          json.dumps(summarize(results), indent=2, sort_keys=True) + "\n")
        buf = _io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["x", "y", "series"])
        writer.writerows(_curves_rows(results))
        atomic_write_text(paths["curves"], buf.getvalue())
    except OSError as exc:
        raise OSError(f"failed writing report under {output_dir}: {exc}") from exc
    return paths


def check_thresholds(config: ExperimentConfig, results: list[dict]) -> list[str]:
    """Evaluate the config's thresholds; returns failure messages."""
    failures = []
    for name, limit in config.thresholds.items():
        label, value = THRESHOLDS[name]
        worst = max((v for v in map(value, results) if v is not None),
                    default=float("inf"))
        if worst > limit:
            failures.append(f"{label} {worst:.3g} > {limit:.3g}")
    return failures
