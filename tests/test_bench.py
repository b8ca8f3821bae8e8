import json
from pathlib import Path

import numpy as np
import pytest

from phaseret.bench import (ExperimentConfig, aggregate_and_persist,
                            check_thresholds, run_crb_study, run_experiment,
                            run_gap_trial, run_recovery_trial, summarize)
from phaseret.cork import AdmmOptions, solve_cork
from phaseret.crb import compute_crb
from phaseret.measurement import AugmentationSpec, augment_min_phase, deaugment
from phaseret.signals import (MeasurementSet, default_transform_length,
                              intensity_measure)
from phaseret.specfact import SfOptions, kolmogorov_sf


def strip_times(row):
    return {k: v for k, v in row.items() if k != "times"}


def test_config_from_json_round_trip():
    cfg = ExperimentConfig.from_json({"kind": "recovery", "n": 8, "trials": 3,
                                      "m_range": [2.0, 4.0]})
    assert cfg.kind == "recovery" and cfg.n == 8 and cfg.m_range == (2.0, 4.0)
    with pytest.raises(ValueError, match="unknown config keys"):
        ExperimentConfig.from_json({"bogus": 1})


def test_trial_rng_is_deterministic_and_distinct():
    cfg = ExperimentConfig(master_seed=5)
    a = cfg.trial_rng(3).normal(size=4)
    b = cfg.trial_rng(3).normal(size=4)
    c = cfg.trial_rng(4).normal(size=4)
    np.testing.assert_array_equal(a, b)
    assert np.abs(a - c).max() > 0


def test_gap_trial_fits_dominate_lower_bound():
    cfg = ExperimentConfig(kind="gap", n=8, trials=1,
                           solvers=("cork", "phaselift-sf", "fienup"))
    row = run_gap_trial(cfg, 0)
    assert row["errors"] == {}
    for solver, gap in row["gaps"].items():
        assert gap >= -1e-6 * row["b_norm2"], solver
    # CoRK attains the bound (hidden convexity)
    assert row["gaps_rel"]["cork"] <= 1e-5


def test_gap_trial_determinism():
    cfg = ExperimentConfig(kind="gap", n=6, trials=1, solvers=("cork",))
    r1, r2 = run_gap_trial(cfg, 2), run_gap_trial(cfg, 2)
    assert strip_times(r1) == strip_times(r2)


def test_recovery_trial_min_phase_beats_direct():
    cfg = ExperimentConfig(kind="recovery", n=16, trials=1,
                           solvers=("cork",))
    row = run_recovery_trial(cfg, 0)
    assert row["errors"] == {}
    assert row["errors_rel"]["cork_minphase"] <= 1e-6
    assert row["fits_rel"]["cork_direct"] <= 1e-6
    # without augmentation the minimum-phase representative is far from s
    assert row["errors_rel"]["cork_direct"] >= 0.1


def test_recovery_trial_runs_every_listed_solver():
    cfg = ExperimentConfig(kind="recovery", n=8, trials=1,
                           solvers=("phaselift-sf",))
    row = run_recovery_trial(cfg, 0)
    assert row["errors"] == {}
    assert set(row["errors_rel"]) == {"phaselift-sf_minphase",
                                      "phaselift-sf_direct"}
    assert row["errors_rel"]["phaselift-sf_minphase"] <= 1e-3


def test_unknown_solver_is_rejected():
    with pytest.raises(ValueError, match="unknown solvers"):
        ExperimentConfig(solvers=("cork", "phaselift"))
    for bad in ({"kind": "gapp"}, {"n": 0}, {"trials": 0}):
        with pytest.raises(ValueError):
            ExperimentConfig(**bad)


@pytest.mark.parametrize("bad", [
    {"kind": "gap", "m_range": (1.0, 1.5)}, {"kind": "gap", "m_range": (4.0, 3.0)},
    {"kind": "recovery", "m_multiplier": 1.5}, {"kind": "crb", "m_sweep": (1, 2, 2)},
    {"kind": "crb", "m_sweep": (4, 1, 2)}, {"kind": "crb", "crb_m_multiplier": 1.5}])
def test_config_with_m_below_2n_is_rejected(bad):
    # solve_cork and compute_crb need M >= 2N: such a config is refused at
    # load, not recorded as an error in every row or raised mid-study
    with pytest.raises(ValueError, match=">= 2|2 <= lo"):
        ExperimentConfig(n=4, trials=1, **bad)


def test_run_experiment_rejects_unknown_kind():
    with pytest.raises(ValueError):
        run_experiment(ExperimentConfig(kind="nope"))


def test_summarize_and_persist(tmp_path):
    cfg = ExperimentConfig(kind="gap", n=4, trials=2, solvers=("cork",))
    results = run_experiment(cfg)
    summary = summarize(results)
    assert summary["trials"] == 2
    assert "fits.cork" in summary["metrics"]
    assert summary["metrics"]["fits.cork"]["count"] == 2
    # timing never leaks into the summary
    assert not any(k.startswith("times") for k in summary["metrics"])

    paths = aggregate_and_persist(results, str(tmp_path))
    lines = Path(paths["results"]).read_text().splitlines()
    assert len(lines) == 2
    assert [json.loads(ln)["trial"] for ln in lines] == [0, 1]
    assert json.loads(Path(paths["summary"]).read_text())["trials"] == 2
    header = Path(paths["curves"]).read_text().splitlines()[0].strip()
    assert header == "x,y,series"


def test_results_jsonl_identical_modulo_times(tmp_path):
    cfg = ExperimentConfig(kind="gap", n=4, trials=2, solvers=("cork",))
    out = []
    for name in ("a", "b"):
        d = tmp_path / name
        aggregate_and_persist(run_experiment(cfg), str(d))
        rows = [strip_times(json.loads(ln))
                for ln in (d / "results.jsonl").read_text().splitlines()]
        out.append(json.dumps(rows, sort_keys=True))
    assert out[0] == out[1]


CRB_CONFIG = dict(kind="crb", n=6, master_seed=9, m_sweep=(2.0, 5.0, 3),
                  snr_sweep=(30.0, 50.0, 2), crb_m_multiplier=3.5)


def test_crb_study_matches_per_trial_loop():
    # the stacked sweep point against one single-row recovery per trial,
    # each with its own noise draw at the point's scale
    cfg = ExperimentConfig(trials=3, **CRB_CONFIG)
    rows = run_crb_study(cfg)
    rng = cfg.trial_rng(2**31 - 1)
    s = (rng.normal(size=cfg.n) + 1j * rng.normal(size=cfg.n)) / np.sqrt(2)
    spec = AugmentationSpec(3.0 * cfg.n)
    smin = augment_min_phase(s, spec)
    l = default_transform_length(smin.size)
    assert [row["m"] for row in rows] == [14, 24, 35, 24, 24]
    for row in rows:
        m, sigma2 = row["m"], row["sigma2"]
        b_clean = intensity_measure(smin, m)
        errors = []
        for t in range(cfg.trials):
            noisy = b_clean + cfg.trial_rng(t).normal(scale=np.sqrt(sigma2), size=m)
            r, _ = solve_cork(MeasurementSet(noisy, smin.size, sigma2=sigma2),
                              AdmmOptions(l=l))
            shat = deaugment(kolmogorov_sf(r, SfOptions(l=l)), spec)
            errors.append(float(np.linalg.norm(s - shat) ** 2))
        s_energy = float(np.linalg.norm(s) ** 2)
        assert row["mse_norm"] == float(np.mean(errors)) / s_energy
        crb = compute_crb(smin, m, sigma2)
        assert row["crb_norm"] == pytest.approx(crb / s_energy, rel=1e-14)


def test_crb_results_jsonl_identical_modulo_times(tmp_path):
    cfg = ExperimentConfig(trials=4, **CRB_CONFIG)
    out = []
    for name in ("a", "b"):
        d = tmp_path / name
        aggregate_and_persist(run_experiment(cfg), str(d))
        rows = [strip_times(json.loads(ln))
                for ln in (d / "results.jsonl").read_text().splitlines()]
        out.append(json.dumps(rows, sort_keys=True))
    assert out[0] == out[1]


def test_crb_sweep_point_ffts_do_not_grow_with_trials(monkeypatch):
    # a sweep point solves its trials as one stack, so its transform count
    # is that of one recovery however many trials it holds
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("fft", "ifft", "rfft", "irfft"):
        monkeypatch.setattr(np.fft, name, counted(getattr(np.fft, name)))
    counts = []
    for trials in (2, 8):
        calls.clear()
        rows = run_crb_study(ExperimentConfig(
            kind="crb", n=8, trials=trials, m_sweep=(4.0, 4.0, 1),
            snr_sweep=(40.0, 40.0, 0)))
        assert len(rows) == 1
        counts.append(sorted(calls))
    assert counts[0] == counts[1]


def test_check_thresholds():
    cfg = ExperimentConfig(thresholds={"cork_gap_rel_max": 1e-3,
                                       "minphase_err_rel_max": 1e-6})
    ok_rows = [{"gaps_rel": {"cork": 1e-5}, "errors_rel": {"cork_minphase": 1e-9}}]
    assert check_thresholds(cfg, ok_rows) == []
    bad_rows = [{"gaps_rel": {"cork": 0.5}, "errors_rel": {"cork_minphase": 0.2}}]
    failures = check_thresholds(cfg, bad_rows)
    assert len(failures) == 2
