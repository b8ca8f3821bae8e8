"""Monte-Carlo experiment runner: optimality gaps, recovery, CRB attainment.

Three experiment kinds:

* ``gap``: random measurement vectors drawn uniformly; every solver's fit is
  compared to the lower bound that ``solve_cork`` certifies, fit(r) - gap,
  which holds for the fit of every signal.
* ``recovery``: random complex-Gaussian signals measured directly and via
  the impulse-augmented minimum-phase arm; records errors per arm and
  solver, ||s - shat||^2 on the augmented arm, whose known impulse fixes
  the global phase, and the global-phase-aligned distance on the direct
  arm, where no measurement fixes it.
* ``crb``: fixed signal, sweeps over measurement count and SNR; records
  normalized MSE of the ``cork`` pipeline, run on all trials as one stack
  per distinct M and one factorization, against the normalized CRB,
  sigma^2 C / M from one Fisher factorization per study.  The squared
  errors of all rows are one ``np.vecdot`` reduction.

Gap and recovery trials run the solvers named in ``ExperimentConfig.solvers``
from ``SOLVERS``, the one table of minimum-phase solvers that ``phaseret
recover`` also uses; every solver runs at its default transform lengths, and
one that raises leaves its message under the row's ``errors`` while the
others' results stay.  A config file holds one JSON object whose keys are
``ExperimentConfig`` fields.  Trials are deterministic: trial t uses
``SeedSequence([master_seed, t])``, so runs are reproducible and trivially
parallel.  Persistence writes results.jsonl (one trial per line),
summary.json, and plot-ready curves.csv; only a row's ``times`` differ
between runs, and the summary leaves them out.  The summary reduces the
metrics that hold the same count of values as one array.
"""

from __future__ import annotations

import csv
import io as _io
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .baselines import IterativeOptions, fienup_solve, gs_converged, gs_solve
from .cork import AdmmOptions, solve_cork
from .crb import unit_crb
from .io import atomic_write_text
from .measurement import (AugmentationSpec, augment_min_phase, deaugment,
                          measure_augmented)
from .sdp import SdpOptions, phaselift_sf
from .signals import (MeasurementSet, as_count, as_real, autocorrelation,
                      global_phase_distance, intensity_measure, one_row)
from .specfact import kolmogorov_sf

__all__ = ["SOLVERS", "THRESHOLDS", "ExperimentConfig", "run_gap_trial",
           "run_recovery_trial", "run_crb_study", "run_experiment",
           "aggregate_and_persist"]

def _options(cls, **values):
    """``cls()`` with the given values that are not None."""
    return cls(**{k: v for k, v in values.items() if v is not None})


# Each solver maps (measurements, seed, optional max_iters and tol; None
# keeps the solver's default, and cork and phaselift-sf, which have no
# tolerance, reject one) to (minimum-phase estimate, diagnostics) at the
# default transform lengths; the diagnostics always hold ``fit`` and
# ``converged``; ``fit`` is ||b - |F_M x|^2||^2 of the estimate x returned.
# ``cork`` reports solve_cork's certified lower bound on every signal's fit,
# fit(r) - gap, as ``lower_bound``, as ``phaselift-sf`` reports its own, and
# its ``gap`` is the fit of x minus that bound.  Every entry takes one
# measurement row; a stacked set raises ``ValueError``.  The entries and the
# CRB study call the solvers through this module's globals, so a caller that
# rebinds them (a tracer, a test) sees every call.

def _fit(b, x) -> float:
    return float(np.linalg.norm(b - intensity_measure(x, b.size)) ** 2)


def _cork(ms, seed, max_iters=None, tol=None):
    if tol is not None:
        raise ValueError("cork takes no tolerance: it stops at the KKT point")
    b = one_row(ms, "cork")
    r, diag = solve_cork(ms, _options(AdmmOptions, max_iters=max_iters))
    x, out = kolmogorov_sf(r), diag.to_json()
    # solve_cork's fit and gap are those of r, which the factor need not
    # attain; its lower bound, fit(r) - gap, holds for every estimate
    out["lower_bound"] = out["fit"] - out["gap"]
    fit = _fit(b, x)
    out["gap"] += fit - out["fit"]
    out["fit"] = fit
    return x, out


def _phaselift_sf(ms, seed, max_iters=None, tol=None):
    if tol is not None:
        raise ValueError("phaselift-sf takes no tolerance: its stop is "
                         "fixed (sdp.GRAD_TOL)")
    x, _, diag = phaselift_sf(ms, _options(SdpOptions, max_iters=max_iters))
    return x, {"fit": diag.fit, "converged": diag.converged,
               "lower_bound": diag.lower_bound}


# The alternating-projection baselines certify nothing about accuracy; the
# min-phase certificate checks them.  GS has converged when its stalled-cost
# test fired, also on the last iteration the cap allows.  Fienup's Dykstra
# phase has no stopping test, so its GS refinement decides.

def _factored(ms, x, history, tol):
    x = kolmogorov_sf(autocorrelation(x))
    return x, {"fit": _fit(ms.b, x), "converged": gs_converged(history, tol)}


def _fienup(ms, seed, max_iters=None, tol=None):
    opts = _options(IterativeOptions, seed=seed, max_iters=max_iters, tol=tol)
    return _factored(ms, *fienup_solve(ms, opts), opts.tol)


def _gs(ms, seed, max_iters=None, tol=None):
    opts = _options(IterativeOptions, seed=seed, max_iters=max_iters, tol=tol)
    return _factored(ms, *gs_solve(ms, opts), opts.tol)


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
    thresholds: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in ("gap", "recovery", "crb"):
            raise ValueError(f"unknown experiment kind: {self.kind!r}")
        self.n = as_count(self.n, "n", 1)
        self.trials = as_count(self.trials, "trials", 1)
        self.master_seed = as_count(self.master_seed, "master_seed", 0)
        unknown = [name for name in self.solvers if name not in SOLVERS]
        if unknown:
            raise ValueError(f"unknown solvers {unknown}; "
                             f"choose from {list(SOLVERS)}")
        if self.kind != "crb" and not self.solvers:
            raise ValueError(f"a {self.kind} study needs a solver; "
                             f"choose from {list(SOLVERS)}")
        m_lo, m_hi = self.m_range
        lo, hi, m_count = self.m_sweep
        snr_lo, snr_hi, snr_count = self.snr_sweep
        for name, value in (
                ("m_range lo", m_lo), ("m_range hi", m_hi), ("m_sweep lo", lo),
                ("m_sweep hi", hi), ("m_multiplier", self.m_multiplier),
                ("crb_m_multiplier", self.crb_m_multiplier),
                ("snr_db", self.snr_db), ("snr_sweep lo", snr_lo),
                ("snr_sweep hi", snr_hi)):
            as_real(value, name)
        # every M the config draws or sweeps must reach 2N, as solve_cork
        # and compute_crb require
        multipliers = (m_lo, lo, hi, self.m_multiplier, self.crb_m_multiplier)
        if not (m_lo <= m_hi and all(v >= 2 for v in multipliers)):
            raise ValueError(
                f"M multipliers must be >= 2 and m_range lo <= hi, got "
                f"m_range={self.m_range}, m_sweep={self.m_sweep}, m_multiplier="
                f"{self.m_multiplier}, crb_m_multiplier={self.crb_m_multiplier}")
        points = (as_count(m_count, "m_sweep count", 0)
                  + as_count(snr_count, "snr_sweep count", 0))
        if self.kind == "crb" and points == 0:
            raise ValueError("a crb study needs a point: m_sweep and "
                             "snr_sweep both have count 0")
        th = self.thresholds
        if not (isinstance(th, dict) and set(th) <= set(THRESHOLDS)):
            raise ValueError(f"thresholds must map names from "
                             f"{list(THRESHOLDS)} to numbers, got {th!r}")
        for name, value in th.items():
            as_real(value, f"thresholds[{name!r}]")

    def trial_rng(self, trial_index: int) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence([self.master_seed, trial_index]))

    @classmethod
    def from_json(cls, obj: dict) -> "ExperimentConfig":
        """The config of a JSON object; its lists become tuples.  Any bad
        field, such as a string where a number belongs, raises a
        ``ValueError`` whose message starts with ``bad config:``."""
        try:
            if not isinstance(obj, dict):
                raise ValueError(f"a config must be a JSON object, got "
                                 f"{type(obj).__name__}")
            unknown = set(obj) - set(cls.__dataclass_fields__)
            if unknown:
                raise ValueError(f"unknown config keys: {sorted(unknown)}")
            return cls(**{k: tuple(v) if isinstance(v, list) else v
                          for k, v in obj.items()})
        except (TypeError, ValueError) as exc:
            raise ValueError(f"bad config: {exc}") from exc


def _solved(result: dict, config: ExperimentConfig, arms, seed):
    """Run every solver of ``config`` on each arm ``(suffix, ms)``.

    Yields ``(key, ms, estimate, diagnostics)`` with key = solver name +
    suffix, the estimate de-augmented when ``ms`` is augmented and timed
    under ``result["times"][key]``.  A solver that raises yields nothing;
    its message goes under ``result["errors"][key]``.
    """
    for suffix, ms in arms:
        for name in config.solvers:
            key = name + suffix
            try:
                t0 = time.perf_counter()
                x, diag = SOLVERS[name](ms, seed)
                if ms.augmentation is not None:
                    x = deaugment(x, ms.augmentation)
                result["times"][key] = time.perf_counter() - t0
            except Exception as exc:  # noqa: BLE001 - per-solver capture
                result["errors"][key] = str(exc)
                continue
            yield key, ms, x, diag


def _augmented_draw(rng: np.random.Generator, n: int):
    """A unit-variance complex-Gaussian signal s of length n, its energy and
    the three-sigma impulse spec that makes it minimum phase."""
    s = (rng.normal(size=n) + 1j * rng.normal(size=n)) / np.sqrt(2)
    return s, float(np.linalg.norm(s) ** 2), AugmentationSpec(3.0 * n)


def run_gap_trial(config: ExperimentConfig, trial_index: int) -> dict:
    """One random least-squares instance; every solver's gap is its fit
    minus ``solve_cork``'s certified lower bound, fit(r) - gap, read from
    the ``cork`` entry's row, or from a solve of its own when ``cork`` is
    not listed or raised."""
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
    solved = list(_solved(result, config, [("", ms)], trial_index))
    lower_bound = next((diag["lower_bound"] for name, _, _, diag in solved
                        if name == "cork"), None)
    if lower_bound is None:
        _, cork = solve_cork(ms)
        lower_bound = cork.fit - cork.gap
    result["lower_bound"] = lower_bound
    for name, _, _, diag in solved:
        gap = diag["fit"] - lower_bound
        result["fits"][name] = diag["fit"]
        result["gaps"][name] = gap
        result["gaps_rel"][name] = gap / max(bscale, 1e-300)
        if "iters" in diag:
            result["iters"][name] = diag["iters"]
    return result


def run_recovery_trial(config: ExperimentConfig, trial_index: int) -> dict:
    """Direct vs minimum-phase measurement arms on one random signal."""
    n = config.n
    s, s_energy, spec = _augmented_draw(config.trial_rng(trial_index), n)
    m = int(config.m_multiplier * (n + 1))  # of the augmented signal

    result = {"trial": trial_index, "kind": "recovery", "n": n, "m": m,
              "delta": spec.delta, "s_energy": s_energy,
              "errors_rel": {}, "fits_rel": {}, "times": {}, "errors": {}}

    # the direct arm runs the same solvers without augmentation
    arms = (("_minphase", measure_augmented(s, spec, m)),
            ("_direct", MeasurementSet(
                intensity_measure(s, int(config.m_multiplier * n)), n)))
    for key, ms, shat, diag in _solved(result, config, arms, trial_index):
        err = (global_phase_distance(s, shat) if ms.augmentation is None
               else float(np.linalg.norm(s - shat) ** 2))
        result["errors_rel"][key] = err / s_energy
        result["fits_rel"][key] = diag["fit"] / float(np.linalg.norm(ms.b) ** 2)
    return result


def run_crb_study(config: ExperimentConfig) -> list[dict]:
    """Sweep M at fixed SNR and SNR at fixed M with the ``cork`` pipeline;
    returns per-point rows.

    Trial t's noise at every point is the first M samples of one
    standard-normal draw from ``trial_rng(t)``, scaled by sigma.  All
    trials are recovered as one stack, at the ``cork`` entry's defaults and
    each row with its own bits: one ``solve_cork`` per distinct M, then one
    ``kolmogorov_sf`` and ``deaugment``; every row's ``times`` holds their
    wall time as ``stacked_recovery``.  The clean intensities are measured
    once per distinct M, and the squared errors of all rows are the two
    ``np.vecdot`` dots that ``np.linalg.norm`` takes, rounded through its
    square root, so each MSE keeps the bits of a mean of norm(s - x) ** 2.
    The CRB is exactly sigma^2 C / M, so ``unit_crb`` computes C once per
    study and each point scales it.
    """
    # the signal's draw index lies outside the trial range
    s, s_energy, spec = _augmented_draw(config.trial_rng(2**31 - 1), config.n)
    smin = augment_min_phase(s, spec)

    lo, hi, count = config.m_sweep
    points = [(int(mult * smin.size), config.snr_db, "m_sweep", float(mult))
              for mult in np.linspace(lo, hi, count)]
    lo, hi, count = config.snr_sweep
    points += [(int(config.crb_m_multiplier * smin.size), float(snr),
                "snr_sweep", float(snr)) for snr in np.linspace(lo, hi, count)]
    crb_c = unit_crb(smin)  # M * CRB / sigma^2 at every M
    m_values = sorted({p[0] for p in points})
    unit_noise = np.array([config.trial_rng(t).normal(size=m_values[-1])
                           for t in range(config.trials)])

    clean = {m: intensity_measure(smin, m) for m in m_values}
    rows, noisy = [], []
    for m, snr_db, series, x_value in points:
        b_clean = clean[m]
        sigma2 = float(np.linalg.norm(b_clean) ** 2) / (m * 10.0 ** (snr_db / 10.0))
        noisy.append(b_clean + np.sqrt(sigma2) * unit_noise[:, :m])
        rows.append({"kind": "crb", "series": series, "x": x_value, "m": m,
                     "snr_db": snr_db, "sigma2": sigma2, "trials": config.trials,
                     "crb_norm": crb_c / m * sigma2 / s_energy})
    t0 = time.perf_counter()
    r = np.empty((len(rows), config.trials, smin.size), dtype=complex)
    for m in m_values:
        at = [i for i, row in enumerate(rows) if row["m"] == m]
        ms = MeasurementSet(np.concatenate([noisy[i] for i in at]), smin.size)
        r[at] = solve_cork(ms)[0].reshape(len(at), config.trials, -1)
    shat = deaugment(kolmogorov_sf(r.reshape(-1, smin.size)), spec)
    elapsed = time.perf_counter() - t0
    e = s - shat
    sq = (np.vecdot(e.real, e.real) + np.vecdot(e.imag, e.imag)).tolist()
    sq = np.reshape([math.sqrt(v) ** 2 for v in sq],
                    (len(rows), config.trials))
    for row, mse in zip(rows, np.mean(sq, axis=1).tolist()):
        row.update(mse_norm=mse / s_energy, times={"stacked_recovery": elapsed},
                   mse_over_crb=mse / (crb_c / row["m"] * row["sigma2"]))
    return rows


def run_experiment(config: ExperimentConfig) -> list[dict]:
    if config.kind == "crb":
        return run_crb_study(config)
    trial = run_gap_trial if config.kind == "gap" else run_recovery_trial
    return [trial(config, t) for t in range(config.trials)]


def summarize(results: list[dict]) -> dict:
    """Medians/quantiles of every numeric per-trial metric but the timings,
    which differ between runs.  The metrics with the same count of values
    are one array, reduced along its rows by one call per statistic, each
    row with the bits of that metric's own reduction."""
    if not results:
        raise ValueError("need at least one result")
    numeric: dict[str, list[float]] = {}
    for row in results:
        for key, value in row.items():
            if isinstance(value, dict) and key != "times":
                for sub, v in value.items():
                    if isinstance(v, (int, float)) and not isinstance(v, bool):
                        numeric.setdefault(f"{key}.{sub}", []).append(float(v))
            elif isinstance(value, (int, float)) and not isinstance(value, bool):
                numeric.setdefault(key, []).append(float(value))
    groups: dict[int, list[str]] = {}
    for key, values in numeric.items():
        groups.setdefault(len(values), []).append(key)
    metrics = {}
    for count, keys in groups.items():
        arr = np.array([numeric[key] for key in keys])
        q25, q75 = np.quantile(arr, [0.25, 0.75], axis=1)
        stats = np.column_stack((np.median(arr, axis=1), q25, q75,
                                 arr.min(axis=1), arr.max(axis=1),
                                 arr.mean(axis=1)))
        for key, row in zip(keys, stats.tolist()):
            metrics[key] = dict(zip(("median", "q25", "q75", "min", "max",
                                     "mean"), row), count=count)
    return {"trials": len(results), "kind": results[0].get("kind"),
            "metrics": dict(sorted(metrics.items()))}


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
