import json

import numpy as np
import pytest

from phaseret.bench import (ExperimentConfig, aggregate_and_persist,
                            check_thresholds, run_experiment, run_gap_trial,
                            run_recovery_trial, summarize)


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
    lines = open(paths["results"]).read().splitlines()
    assert len(lines) == 2
    assert [json.loads(ln)["trial"] for ln in lines] == [0, 1]
    assert json.load(open(paths["summary"]))["trials"] == 2
    header = open(paths["curves"]).readline().strip()
    assert header == "x,y,series"


def test_results_jsonl_identical_modulo_times(tmp_path):
    cfg = ExperimentConfig(kind="gap", n=4, trials=2, solvers=("cork",))
    out = []
    for name in ("a", "b"):
        d = tmp_path / name
        aggregate_and_persist(run_experiment(cfg), str(d))
        rows = [strip_times(json.loads(ln))
                for ln in open(d / "results.jsonl").read().splitlines()]
        out.append(json.dumps(rows, sort_keys=True))
    assert out[0] == out[1]


def test_check_thresholds():
    cfg = ExperimentConfig(thresholds={"cork_gap_rel_max": 1e-3,
                                       "minphase_err_rel_max": 1e-6})
    ok_rows = [{"gaps_rel": {"cork": 1e-5}, "errors_rel": {"cork_minphase": 1e-9}}]
    assert check_thresholds(cfg, ok_rows) == []
    bad_rows = [{"gaps_rel": {"cork": 0.5}, "errors_rel": {"cork_minphase": 0.2}}]
    failures = check_thresholds(cfg, bad_rows)
    assert len(failures) == 2
