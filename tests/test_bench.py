import json
from pathlib import Path

import numpy as np
import pytest

from phaseret import baselines, bench
from phaseret.baselines import (IterativeOptions, fienup_sf, fienup_solve,
                                gs_solve)
from phaseret.bench import (SOLVERS, ExperimentConfig, aggregate_and_persist,
                            check_thresholds, run_crb_study, run_experiment,
                            run_gap_trial, run_recovery_trial, summarize)
from phaseret.cork import AdmmOptions, solve_cork
from phaseret.crb import compute_crb
from phaseret.measurement import (AugmentationSpec, augment_min_phase,
                                  deaugment, measure_augmented)
from phaseret.sdp import phaselift_sf, phaselift_value
from phaseret.signals import (MeasurementSet, autocorrelation,
                              default_transform_length, intensity_measure)
from phaseret.specfact import SfOptions, kolmogorov_sf


def strip_times(row):
    return {k: v for k, v in row.items() if k != "times"}


def test_config_from_json_round_trip():
    cfg = ExperimentConfig.from_json({"kind": "recovery", "n": 8, "trials": 3,
                                      "m_range": [2.0, 4.0]})
    assert cfg.kind == "recovery" and cfg.n == 8 and cfg.m_range == (2.0, 4.0)
    with pytest.raises(ValueError, match="unknown config keys"):
        ExperimentConfig.from_json({"bogus": 1})
    for obj in ([], ["kind"], "gap", 3):
        with pytest.raises(ValueError, match="JSON object"):
            ExperimentConfig.from_json(obj)


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


def test_cork_gap_is_the_fit_of_the_returned_estimate():
    # the cork entry reported solve_cork's fit of the correlation r, which
    # the factor it returns need not attain: this trial's row read a gap of
    # -7.0e-6 * ||b||^2 below the PhaseLift bound, while the returned
    # estimate's fit is 2.6e-4 * ||b||^2 above it
    cfg = ExperimentConfig(kind="gap", n=16, trials=2, master_seed=1008,
                           solvers=("cork",))
    row = run_gap_trial(cfg, 1)
    rng = cfg.trial_rng(1)  # the trial's own draws of M and b
    m = int(rng.integers(2 * 16, 8 * 16 + 1))
    b = rng.uniform(size=m)
    assert m == row["m"] == 38
    x, diag = SOLVERS["cork"](MeasurementSet(b, 16), 1)
    assert row["fits"]["cork"] == diag["fit"]
    assert diag["fit"] == np.linalg.norm(b - intensity_measure(x, m)) ** 2
    assert row["gaps_rel"]["cork"] > 1e-4


def test_cork_gap_certifies_the_returned_estimate():
    # solve_cork's gap is that of its correlation fit: at this trial it read
    # 7.3e-18 * ||b||^2 while the returned estimate fits 2.6e-4 * ||b||^2
    # above the PhaseLift bound
    cfg = ExperimentConfig(kind="gap", n=16, trials=2, master_seed=1008,
                           solvers=("cork",))
    rng = cfg.trial_rng(1)
    m = int(rng.integers(2 * 16, 8 * 16 + 1))
    ms = MeasurementSet(rng.uniform(size=m), 16)
    b2 = float(np.linalg.norm(ms.b) ** 2)
    _, diag = SOLVERS["cork"](ms, 1)
    _, bound, _ = phaselift_value(ms, 0.0)
    assert diag["fit"] - bound > 1e-4 * b2
    assert diag["gap"] >= diag["fit"] - bound - 1e-9 * b2
    _, r_diag = solve_cork(ms)
    assert diag["gap"] == pytest.approx(diag["fit"] - (r_diag.fit - r_diag.gap),
                                        rel=1e-12)


def test_gap_study_runs_beyond_desk_scale():
    # the reference was phaselift_value's, which refuses N > 64: a cork-only
    # gap config at N = 128 raised before any solver ran
    cfg = ExperimentConfig(kind="gap", n=128, trials=3, master_seed=1008,
                           solvers=("cork",))
    for row in run_experiment(cfg):
        assert row["errors"] == {}
        assert row["gaps"]["cork"] >= -1e-12 * row["b_norm2"]
        assert set(row["fits"]) == set(row["times"]) == {"cork"}


def test_phaselift_sf_beyond_desk_scale_is_a_row_error():
    cfg = ExperimentConfig(kind="gap", n=128, trials=1,
                           solvers=("phaselift-sf", "cork"))
    row = run_gap_trial(cfg, 0)
    assert "desk-scale only" in row["errors"]["phaselift-sf"]
    assert set(row["gaps"]) == {"cork"}
    assert row["gaps"]["cork"] >= -1e-12 * row["b_norm2"]


def test_gap_trial_bound_is_solve_corks_certified_bound():
    # fit(r) - gap bounds every signal's fit from below, so it is at most
    # the lifted lambda = 0 objective
    cfg = ExperimentConfig(kind="gap", n=16, trials=5, master_seed=1008,
                           solvers=("cork",))
    for t in range(cfg.trials):
        row = run_gap_trial(cfg, t)
        rng = cfg.trial_rng(t)  # the trial's own draws of M and b
        m = int(rng.integers(2 * 16, 8 * 16 + 1))
        ms = MeasurementSet(rng.uniform(size=m), 16)
        _, diag = solve_cork(ms)
        assert row["lower_bound"] == diag.fit - diag.gap
        assert row["lower_bound"] <= phaselift_value(ms, 0.0)[1] \
            + 1e-9 * row["b_norm2"]


def test_gap_trial_determinism():
    cfg = ExperimentConfig(kind="gap", n=6, trials=1, solvers=("cork",))
    r1, r2 = run_gap_trial(cfg, 2), run_gap_trial(cfg, 2)
    assert strip_times(r1) == strip_times(r2)


def gap_trial_set(cfg, trial):
    """The measurements of a gap trial, from the trial's own draws."""
    rng = cfg.trial_rng(trial)
    lo, hi = cfg.m_range
    m = int(rng.integers(int(lo * cfg.n), int(hi * cfg.n) + 1))
    return MeasurementSet(rng.uniform(size=m), cfg.n)


@pytest.mark.parametrize("solvers", [("cork",), ("gs", "cork"), ("gs",)])
def test_gap_trial_solves_its_problem_once(monkeypatch, solvers):
    # the trial took its bound from a solve of its own, and a trial that
    # lists cork solved the same problem again inside the cork entry
    calls = []
    solve = bench.solve_cork

    def counted(ms, *args):
        calls.append(ms.m)
        return solve(ms, *args)

    cfg = ExperimentConfig(kind="gap", n=8, trials=3, master_seed=1008,
                           solvers=solvers)
    want = [strip_times(row) for row in run_experiment(cfg)]
    monkeypatch.setattr(bench, "solve_cork", counted)
    rows = run_experiment(cfg)
    assert calls == [row["m"] for row in rows]
    assert [strip_times(row) for row in rows] == want
    for row in rows:
        _, diag = solve(gap_trial_set(cfg, row["trial"]))
        assert row["lower_bound"] == diag.fit - diag.gap
        for name in solvers:
            assert row["gaps"][name] == row["fits"][name] - row["lower_bound"]


def test_gap_trial_bound_survives_a_raising_cork_entry(monkeypatch):
    def broken(ms, seed):
        raise ValueError("no factor")

    cfg = ExperimentConfig(kind="gap", n=8, trials=2, master_seed=1008,
                           solvers=("gs", "cork"))
    monkeypatch.setitem(SOLVERS, "cork", broken)
    for row in run_experiment(cfg):
        assert row["errors"] == {"cork": "no factor"}
        _, diag = solve_cork(gap_trial_set(cfg, row["trial"]))
        assert row["lower_bound"] == diag.fit - diag.gap
        assert row["gaps"] == {"gs": row["fits"]["gs"] - row["lower_bound"]}


def test_cork_entry_reports_solve_corks_lower_bound():
    ms = gap_trial_set(ExperimentConfig(kind="gap", n=16, master_seed=1008), 1)
    _, diag = SOLVERS["cork"](ms, 1)
    _, r_diag = solve_cork(ms)
    assert diag["lower_bound"] == r_diag.fit - r_diag.gap
    assert diag["gap"] == r_diag.gap + (diag["fit"] - r_diag.fit)


def test_recovery_trial_min_phase_beats_direct():
    cfg = ExperimentConfig(kind="recovery", n=16, trials=1,
                           solvers=("cork",))
    row = run_recovery_trial(cfg, 0)
    assert row["errors"] == {}
    assert row["errors_rel"]["cork_minphase"] <= 1e-6
    assert row["fits_rel"]["cork_direct"] <= 1e-6
    # without augmentation the minimum-phase representative is far from s
    assert row["errors_rel"]["cork_direct"] >= 0.1


def test_min_phase_error_sees_the_global_phase(monkeypatch):
    # the known impulse fixes the phase of an augmented estimate: a
    # de-augmentation that returned -s read an error of 0, as the distance
    # up to a global phase ignores the sign
    cfg = ExperimentConfig(kind="recovery", n=16, trials=1, solvers=("cork",))
    honest = run_recovery_trial(cfg, 0)
    flip = bench.deaugment
    monkeypatch.setattr(bench, "deaugment", lambda x, spec: -flip(x, spec))
    row = run_recovery_trial(cfg, 0)
    assert row["errors_rel"]["cork_minphase"] == pytest.approx(4.0, rel=1e-9)
    assert honest["errors_rel"]["cork_minphase"] <= 1e-12
    # the direct arm, whose phase nothing fixes, is never de-augmented
    assert row["errors_rel"]["cork_direct"] == \
        honest["errors_rel"]["cork_direct"]


def test_recovery_trial_runs_every_listed_solver():
    cfg = ExperimentConfig(kind="recovery", n=8, trials=1,
                           solvers=("phaselift-sf",))
    row = run_recovery_trial(cfg, 0)
    assert row["errors"] == {}
    assert set(row["errors_rel"]) == {"phaselift-sf_minphase",
                                      "phaselift-sf_direct"}
    assert row["errors_rel"]["phaselift-sf_minphase"] <= 1e-3


@pytest.mark.parametrize("kind", ["gap", "recovery"])
def test_a_raising_solver_leaves_the_others_results(monkeypatch, kind):
    def broken(ms, seed):
        raise ValueError(f"no estimate at M={ms.m}")

    monkeypatch.setitem(SOLVERS, "gs", broken)
    cfg = ExperimentConfig(kind=kind, n=6, trials=1, solvers=("gs", "cork"))
    row = (run_gap_trial if kind == "gap" else run_recovery_trial)(cfg, 0)
    suffixes = [""] if kind == "gap" else ["_minphase", "_direct"]
    results = row["gaps"] if kind == "gap" else row["errors_rel"]
    assert set(row["errors"]) == {"gs" + arm for arm in suffixes}
    assert all(msg.startswith("no estimate at M=")
               for msg in row["errors"].values())
    assert set(results) == {"cork" + arm for arm in suffixes}
    assert set(row["times"]) - {"phaselift"} == set(results)


@pytest.mark.parametrize("name", list(SOLVERS))
def test_solver_entries_are_their_library_compositions(name):
    # an entry takes no transform length: it factors at the default one
    rng = np.random.default_rng(11)
    s = rng.normal(size=8) + 1j * rng.normal(size=8)
    ms = measure_augmented(s, AugmentationSpec(delta=3.0 * 8), 36)
    seed = 3
    sf = SfOptions(l=default_transform_length(ms.n))
    want = {
        "cork": lambda: kolmogorov_sf(
            solve_cork(ms, AdmmOptions(l=sf.l))[0], sf),
        "phaselift-sf": lambda: phaselift_sf(ms)[0],
        "fienup": lambda: fienup_sf(ms, IterativeOptions(seed=seed)),
        "gs": lambda: kolmogorov_sf(autocorrelation(
            gs_solve(ms, IterativeOptions(seed=seed))[0]), sf),
    }[name]()
    x, diag = SOLVERS[name](ms, seed)
    assert np.array_equal(x, want)
    assert {"fit", "converged"} <= set(diag)


@pytest.mark.parametrize("solve", [
    *(lambda ms, name=name: SOLVERS[name](ms, 0) for name in SOLVERS),
    lambda ms: phaselift_value(ms, 0.0), phaselift_sf],
    ids=[*SOLVERS, "phaselift_value", "phaselift_sf"])
def test_single_row_solvers_reject_a_stacked_set(solve):
    # the cork entry fitted a stack row by row, which no caller passes, and
    # PhaseLift raised an IndexError from its lifted map
    stack = MeasurementSet(np.random.default_rng(4).uniform(size=(3, 40)), 8)
    with pytest.raises(ValueError, match="takes one measurement row; got a "
                                         "stack of 3 rows"):
        solve(stack)


def six_tap_set(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=6) + 1j * rng.normal(size=6)
    return MeasurementSet(intensity_measure(x, 24), 6)


@pytest.mark.parametrize("seed", range(6))
def test_gs_stalling_on_its_last_allowed_iteration_has_converged(seed):
    # a stall on iteration k leaves as many costs as a cap of k without
    # one; the flag follows the stall rule, not the history's size
    ms = six_tap_set(seed)
    _, history = gs_solve(ms, IterativeOptions(max_iters=100_000, tol=1e-6,
                                               seed=seed))
    k = history.size - 1
    flags = [SOLVERS["gs"](ms, seed, max_iters=cap, tol=1e-6)[1]["converged"]
             for cap in (k - 1, k, k + 1)]
    assert flags == [False, True, True]


@pytest.mark.parametrize("seed", range(6))
def test_fienup_refinement_stalling_at_its_cap_has_converged(seed,
                                                             monkeypatch):
    ms = six_tap_set(seed)
    opts = IterativeOptions(tol=1e-6, seed=seed)
    k = fienup_solve(ms, opts)[1].size - 1
    flags = []
    for cap in (k - 1, k, k + 1):
        monkeypatch.setattr(baselines, "GS_REFINE_ITERS", cap)
        flags.append(SOLVERS["fienup"](ms, seed, tol=1e-6)[1]["converged"])
    assert flags == [False, True, True]


def test_unknown_solver_is_rejected():
    with pytest.raises(ValueError, match="unknown solvers"):
        ExperimentConfig(solvers=("cork", "phaselift"))
    for bad in ({"kind": "gapp"}, {"n": 0}, {"trials": 0}):
        with pytest.raises(ValueError):
            ExperimentConfig(**bad)


@pytest.mark.parametrize("bad", [{"n": True}, {"trials": True},
                                 {"m_sweep": [2, 4, True]},
                                 {"snr_sweep": [30, 50, True]},
                                 {"master_seed": True}])
def test_config_count_must_not_be_a_bool(bad):
    # a JSON true is an int subclass, and read as 1: an m_sweep count of
    # true ran a one-point study, and a master_seed of true ran
    name, = bad
    count = {"n": "n must be an integer >= 1",
             "trials": "trials must be an integer >= 1",
             "master_seed": "master_seed must be an integer >= 0",
             "m_sweep": "m_sweep count must be an integer >= 0",
             "snr_sweep": "snr_sweep count must be an integer >= 0"}[name]
    with pytest.raises(ValueError, match=f"bad config: {count}, got True$"):
        ExperimentConfig.from_json({"kind": "crb", "n": 4, **bad})


@pytest.mark.parametrize("bad", [
    {"kind": "gap", "m_range": (1.0, 1.5)}, {"kind": "gap", "m_range": (4.0, 3.0)},
    {"kind": "recovery", "m_multiplier": 1.5}, {"kind": "crb", "m_sweep": (1, 2, 2)},
    {"kind": "crb", "m_sweep": (4, 1, 2)}, {"kind": "crb", "crb_m_multiplier": 1.5}])
def test_config_with_m_below_2n_is_rejected(bad):
    # solve_cork and compute_crb need M >= 2N: such a config is refused at
    # load, not recorded as an error in every row or raised mid-study
    with pytest.raises(ValueError, match=">= 2|2 <= lo"):
        ExperimentConfig(n=4, trials=1, **bad)


@pytest.mark.parametrize("sweeps,message", [
    ({"m_sweep": (2.0, 4.0, 0), "snr_sweep": (30.0, 50.0, 0)}, "needs a point"),
    ({"m_sweep": (2.0, 4.0, -1)},
     "m_sweep count must be an integer >= 0, got -1"),
    ({"snr_sweep": (30.0, 50.0, 2.5)},
     r"snr_sweep count must be an integer >= 0, got 2\.5"),
    ({"snr_sweep": (30.0, 50.0, "3")},
     "snr_sweep count must be an integer >= 0, got '3'")])
def test_config_rejects_a_crb_study_without_points(sweeps, message):
    # no point ran the study and then failed to persist it, a negative count
    # failed in np.linspace, and a fractional one was truncated
    with pytest.raises(ValueError, match=f"bad config: .*{message}"):
        ExperimentConfig.from_json({"kind": "crb", "n": 4, "trials": 1, **sweeps})


@pytest.mark.parametrize("bad,message", [
    ({"master_seed": 1.5}, r"master_seed must be an integer >= 0, got 1\.5"),
    ({"master_seed": "7"}, "master_seed must be an integer >= 0, got '7'"),
    ({"master_seed": -1}, "master_seed must be an integer >= 0, got -1"),
    ({"snr_db": "x"}, "snr_db must be a finite real number, got 'x'"),
    ({"snr_db": float("nan")}, "snr_db must be a finite real number, got nan"),
    ({"snr_sweep": [30, "x", 2]},
     "snr_sweep hi must be a finite real number, got 'x'"),
    ({"m_range": [2, float("inf")]},
     "m_range hi must be a finite real number, got inf"),
    ({"crb_m_multiplier": True},
     "crb_m_multiplier must be a finite real number, got True"),
    ({"output_dir": "x"}, r"unknown config keys: \['output_dir'\]")])
def test_config_rejects_a_field_of_the_wrong_type(bad, message):
    # every field is checked at load, also one that the kind does not read:
    # a string master_seed and an infinite m_range ran a crb study, and the
    # others raised mid-study or met the M rule's message; the output
    # directory is bench --output alone, so output_dir is no config key
    with pytest.raises(ValueError, match=f"^bad config: {message}$"):
        ExperimentConfig.from_json({"kind": "crb", "n": 4, "trials": 1, **bad})


@pytest.mark.parametrize("kind", ["gap", "recovery"])
def test_config_rejects_a_study_without_a_solver(kind):
    # no solver ran a study that compared nothing: empty rows, exit 0
    with pytest.raises(ValueError, match=f"^bad config: a {kind} study needs "
                                         "a solver; choose from "):
        ExperimentConfig.from_json({"kind": kind, "n": 8, "trials": 2,
                                    "solvers": []})
    # a crb study runs no solver from SOLVERS, so it ignores the list
    cfg = ExperimentConfig.from_json({"kind": "crb", "n": 4, "solvers": []})
    assert cfg.solvers == ()


def test_only_a_crb_study_needs_a_sweep_point():
    empty = {"m_sweep": (2.0, 4.0, 0), "snr_sweep": (30.0, 50.0, 0)}
    ExperimentConfig(kind="gap", **empty)
    cfg = ExperimentConfig(kind="crb", n=4, trials=1, m_sweep=(2.0, 4.0, 0),
                           snr_sweep=(30.0, 50.0, 2))
    assert [row["series"] for row in run_experiment(cfg)] == ["snr_sweep"] * 2


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


def per_metric_summary(results):
    """``summarize`` as it was before it grouped the metrics by count: five
    numpy reductions of each metric's own values."""
    numeric = {}
    for row in results:
        for key, value in row.items():
            if isinstance(value, dict) and key != "times":
                for sub, v in value.items():
                    if isinstance(v, (int, float)) and not isinstance(v, bool):
                        numeric.setdefault(f"{key}.{sub}", []).append(float(v))
            elif isinstance(value, (int, float)) and not isinstance(value, bool):
                numeric.setdefault(key, []).append(float(value))
    metrics = {}
    for key, values in sorted(numeric.items()):
        arr = np.asarray(values, dtype=float)
        q25, q75 = np.quantile(arr, [0.25, 0.75])
        metrics[key] = {"median": float(np.median(arr)), "q25": float(q25),
                        "q75": float(q75), "min": float(arr.min()),
                        "max": float(arr.max()), "mean": float(arr.mean()),
                        "count": int(arr.size)}
    return {"trials": len(results), "kind": results[0].get("kind"),
            "metrics": metrics}


def same_summary(results):
    # json.dumps tells NaN, infinities and -0.0 apart, and prints every
    # float with the digits that round-trip it
    got = summarize(results)
    assert json.dumps(got, sort_keys=True) == \
        json.dumps(per_metric_summary(results), sort_keys=True)
    return got


def test_summarize_equals_the_per_metric_reduction_on_ragged_rows(monkeypatch):
    # a solver that raises on odd trials leaves its metrics fewer values
    cork = SOLVERS["cork"]

    def odd_fails(ms, seed):
        if seed % 2:
            raise ValueError("odd trial")
        return cork(ms, seed)

    monkeypatch.setitem(SOLVERS, "gs", odd_fails)
    cfg = ExperimentConfig(kind="gap", n=6, trials=7, master_seed=4,
                           solvers=("cork", "gs"))
    metrics = same_summary(run_experiment(cfg))["metrics"]
    assert metrics["fits.cork"]["count"] == 7
    assert metrics["fits.gs"]["count"] == 4
    same_summary(run_experiment(ExperimentConfig(trials=2, **CRB_CONFIG)))


@pytest.mark.parametrize("trials", [1, 2, 3, 8, 9, 33])
def test_summarize_equals_the_per_metric_reduction_on_edge_values(trials):
    rng = np.random.default_rng(trials)
    rows = []
    for t in range(trials):
        rows.append({"kind": "crb", "trial": t, "tie": float(t // 3),
                     "sign": [np.inf, -np.inf, 1.0, -0.0][t % 4],
                     "nan": np.nan if t == trials // 2 else rng.normal(),
                     "wide": rng.normal() * 10.0 ** rng.integers(-200, 200),
                     "flag": True, "times": {"solve": rng.uniform()},
                     "fits": {"a": rng.normal(), "b": int(rng.integers(5))}})
    rows[-1]["once"] = 2.5
    rows[0]["twice"] = rng.normal()
    rows[-1]["twice"] = rng.normal()
    rows[trials // 2]["fits"]["c"] = 1e-300
    with np.errstate(invalid="ignore"):   # the mean of inf and -inf
        metrics = same_summary(rows)["metrics"]
    assert metrics["once"]["count"] == 1
    assert metrics["twice"]["count"] == (1 if trials == 1 else 2)
    assert "flag" not in metrics and "times.solve" not in metrics


def test_recovery_experiment_persists_an_error_series_per_arm(tmp_path):
    cfg = ExperimentConfig(kind="recovery", n=4, trials=2,
                           solvers=("cork", "gs"), master_seed=3)
    results = run_experiment(cfg)
    assert [strip_times(row) for row in results] == \
        [strip_times(run_recovery_trial(cfg, t)) for t in range(2)]
    paths = aggregate_and_persist(results, str(tmp_path))
    lines = Path(paths["curves"]).read_text().splitlines()
    want = [f"{row['trial']},{row['errors_rel'][key]!r},error:{key}"
            for row in results for key in ("cork_minphase", "gs_minphase",
                                           "cork_direct", "gs_direct")]
    assert lines == ["x,y,series"] + want


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


def per_point_crb_study(config):
    """The CRB study as it ran before its trials were stacked across sweep
    points: one ``solve_cork`` and ``kolmogorov_sf`` on each point's own
    stack."""
    rng = config.trial_rng(2**31 - 1)
    s = (rng.normal(size=config.n) + 1j * rng.normal(size=config.n)) / np.sqrt(2)
    s_energy = float(np.linalg.norm(s) ** 2)
    spec = AugmentationSpec(3.0 * config.n)
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
    m_max = max(p[0] for p in points)
    unit_noise = np.array([config.trial_rng(t).normal(size=m_max)
                           for t in range(config.trials)])
    rows = []
    for m, snr_db, series, x_value in points:
        b_clean = intensity_measure(smin, m)
        power = float(np.linalg.norm(b_clean) ** 2)
        sigma2 = power / (m * 10.0 ** (snr_db / 10.0))
        crb = compute_crb(smin, m, 1.0) * sigma2
        noisy = b_clean + np.sqrt(sigma2) * unit_noise[:, :m]
        ms = MeasurementSet(noisy, smin.size, sigma2=sigma2, augmentation=spec)
        shat = deaugment(kolmogorov_sf(solve_cork(ms)[0]), spec)
        mse = float(np.mean([np.linalg.norm(s - row) ** 2 for row in shat]))
        rows.append({"kind": "crb", "series": series, "x": x_value, "m": m,
                     "snr_db": snr_db, "sigma2": sigma2,
                     "mse_norm": mse / s_energy, "crb_norm": crb / s_energy,
                     "mse_over_crb": mse / crb, "trials": config.trials})
    return rows


@pytest.mark.parametrize("master_seed", [7, 1603])
def test_crb_study_stack_matches_per_point_stacks(master_seed):
    # the benchmark's own study shape: 15 points at 8 distinct M
    cfg = ExperimentConfig(kind="crb", n=32, trials=8, master_seed=master_seed)
    rows = run_crb_study(cfg)
    assert len({row["m"] for row in rows}) == 8
    assert [strip_times(row) for row in rows] == per_point_crb_study(cfg)
    # one recovery of the whole study, timed once for every row
    assert len({json.dumps(row["times"]) for row in rows}) == 1
    assert set(rows[0]["times"]) == {"stacked_recovery"}


def test_crb_study_calls_each_solver_once_per_distinct_m(monkeypatch):
    # however many trials and sweep points, the study factors and
    # de-augments once, and fits once per distinct M on all its rows
    calls = []

    def counted(name):
        fn = getattr(bench, name)

        def wrapper(first, *args, **kwargs):
            stack = first.b if name == "solve_cork" else np.atleast_2d(first)
            calls.append((name, stack.shape))
            return fn(first, *args, **kwargs)
        return wrapper

    for name in ("solve_cork", "kolmogorov_sf", "deaugment"):
        monkeypatch.setattr(bench, name, counted(name))
    for trials, m_sweep, snr_sweep in [(1, (4.0, 4.0, 1), (40.0, 40.0, 0)),
                                       (2, (4.0, 4.0, 1), (40.0, 40.0, 0)),
                                       (5, (2.0, 5.0, 3), (30.0, 50.0, 4))]:
        calls.clear()
        cfg = ExperimentConfig(kind="crb", n=6, trials=trials, m_sweep=m_sweep,
                               snr_sweep=snr_sweep, crb_m_multiplier=3.5)
        point_ms = [row["m"] for row in run_crb_study(cfg)]
        fits = [shape for name, shape in calls if name == "solve_cork"]
        assert sorted(m for _, m in fits) == sorted(set(point_ms))
        assert all(k == trials * point_ms.count(m) for k, m in fits)
        rows = (len(point_ms) * trials, 1 + 6)  # the impulse, then s
        assert [c for c in calls if c[0] != "solve_cork"] == [
            ("kolmogorov_sf", rows), ("deaugment", rows)]


def test_crb_study_measures_each_distinct_m_once(monkeypatch):
    # the clean intensities were measured once per sweep point: 15 calls
    # at the benchmark's study shape, whose points share 8 distinct M
    calls = []
    measure = bench.intensity_measure

    def counted(x, m):
        calls.append(m)
        return measure(x, m)

    monkeypatch.setattr(bench, "intensity_measure", counted)
    rows = run_crb_study(ExperimentConfig(kind="crb", n=32, trials=8,
                                          master_seed=1603))
    assert len(rows) == 15
    assert sorted(calls) == sorted({row["m"] for row in rows})


def test_crb_study_factors_the_fisher_information_once(monkeypatch):
    # J(M) = M J_1 at every M >= 2N: one factorization serves the 8
    # distinct M of the benchmark's study shape
    shapes = []
    cholesky = np.linalg.cholesky

    def counted(a, *args, **kwargs):
        shapes.append(a.shape)
        return cholesky(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    rows = run_crb_study(ExperimentConfig(kind="crb", n=32, trials=8,
                                          master_seed=1603))
    assert len({row["m"] for row in rows}) == 8
    assert shapes == [(66, 66)]


@pytest.mark.parametrize("thresholds", [
    {"cork_gap_max": -1}, {"cork_gap_rel_max": "1e-3"},
    {"mse_over_crb_max": float("nan")}, {"mse_over_crb_max": True},
    ["mse_over_crb_max"], {"mse_over_crb_max": float("inf")}])
def test_config_rejects_bad_thresholds(thresholds):
    # an unknown name would check nothing, NaN passes every comparison and
    # an infinite limit never fails
    with pytest.raises(ValueError, match="thresholds"):
        ExperimentConfig(thresholds=thresholds)


def test_check_thresholds():
    cfg = ExperimentConfig(thresholds={"cork_gap_rel_max": 1e-3,
                                       "minphase_err_rel_max": 1e-6})
    ok_rows = [{"gaps_rel": {"cork": 1e-5}, "errors_rel": {"cork_minphase": 1e-9}}]
    assert check_thresholds(cfg, ok_rows) == []
    bad_rows = [{"gaps_rel": {"cork": 0.5}, "errors_rel": {"cork_minphase": 0.2}}]
    failures = check_thresholds(cfg, bad_rows)
    assert len(failures) == 2
