import json
import re

import numpy as np
import pytest

from phaseret.cli import main
from phaseret.io import load_signal_file, save_signal_file
from phaseret.signals import autocorrelation, global_phase_distance


def write_signal(path, seed=0, n=8):
    rng = np.random.default_rng(seed)
    s = rng.normal(size=n) + 1j * rng.normal(size=n)
    save_signal_file(str(path), s)
    return s


def test_measure_then_recover_round_trip(tmp_path, capsys):
    sig = tmp_path / "sig.json"
    meas = tmp_path / "meas.json"
    out = tmp_path / "out.json"
    s = write_signal(sig)

    assert main(["measure", "--input", str(sig), "--output", str(meas)]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["n"] == 9 and info["m"] >= 2 * info["n"]
    assert not info["margin_violated"]

    assert main(["recover", "--input", str(meas), "--output", str(out),
                 "--reference", str(sig)]) == 0
    diag = json.loads(capsys.readouterr().out)
    assert diag["min_phase"]["flag"]
    assert diag["ref_error_rel"] <= 1e-10
    assert diag["cork"]["feasibility_lift"] >= 0.0
    shat = load_signal_file(str(out))
    assert global_phase_distance(s, shat) <= 1e-10 * np.vdot(s, s).real


@pytest.mark.parametrize("n", [8, 16])
def test_recover_gs_factors_before_deaugment(tmp_path, capsys, n):
    # GS output is not minimum phase; de-augmenting it directly is wrong
    sig = tmp_path / "sig.json"
    meas = tmp_path / "meas.json"
    out = tmp_path / "out.json"
    write_signal(sig, seed=n, n=n)
    assert main(["measure", "--input", str(sig), "--output", str(meas)]) == 0
    capsys.readouterr()
    assert main(["recover", "--input", str(meas), "--output", str(out),
                 "--solver", "gs", "--reference", str(sig),
                 "--max-iters", "10000", "--tol", "1e-8"]) == 0
    diag = json.loads(capsys.readouterr().out)
    assert diag["min_phase"]["flag"]
    assert diag["ref_error_rel"] <= 1e-6


def test_recover_keeps_the_solver_default_budget(tmp_path, capsys,
                                                 monkeypatch):
    # without --max-iters and --tol, fienup runs with its own defaults,
    # not with cork's
    from phaseret import baselines, bench
    seen = []
    solve = baselines.fienup_solve

    def spy(b, opts=None):
        seen.append(opts)
        return solve(b, opts)

    monkeypatch.setattr(bench, "fienup_solve", spy)
    sig = tmp_path / "sig.json"
    meas = tmp_path / "meas.json"
    write_signal(sig)
    assert main(["measure", "--input", str(sig), "--output", str(meas)]) == 0
    assert main(["recover", "--input", str(meas), "--output",
                 str(tmp_path / "out.json"), "--solver", "fienup"]) == 0
    capsys.readouterr()
    defaults = baselines.IterativeOptions()
    assert [(o.max_iters, o.tol) for o in seen] == [(defaults.max_iters,
                                                     defaults.tol)]


@pytest.mark.parametrize("solver", ["cork", "phaselift-sf", "fienup", "gs"])
def test_recover_each_solver(tmp_path, capsys, solver):
    sig = tmp_path / "sig.json"
    meas = tmp_path / "meas.json"
    write_signal(sig)
    assert main(["measure", "--input", str(sig), "--output", str(meas)]) == 0
    capsys.readouterr()
    assert main(["recover", "--input", str(meas), "--output",
                 str(tmp_path / "out.json"), "--solver", solver,
                 "--reference", str(sig)]) == 0
    diag = json.loads(capsys.readouterr().out)
    assert diag["min_phase"]["flag"]
    assert diag[solver]["converged"]
    assert diag["ref_error_rel"] <= 1e-6


@pytest.mark.parametrize("n,extra", [(8, ["--max-iters", "1"]), (16, [])])
def test_recover_gs_at_its_cap_exits_3(tmp_path, capsys, n, extra):
    # GS has converged only when its stalled-cost test fires before the cap;
    # N = 16 at GS's own budget (1000 iterations, tol 1e-10) reaches it
    sig = tmp_path / "sig.json"
    meas = tmp_path / "meas.json"
    write_signal(sig, seed=0 if n == 8 else n, n=n)
    assert main(["measure", "--input", str(sig), "--output", str(meas)]) == 0
    capsys.readouterr()
    assert main(["recover", "--input", str(meas), "--output",
                 str(tmp_path / "out.json"), "--solver", "gs"] + extra) == 3
    diag = json.loads(capsys.readouterr().out)
    assert diag["converged"] is False and diag["gs"]["converged"] is False


@pytest.mark.parametrize("n,extra", [(8, ["--tol", "-1"]), (32, [])])
def test_recover_fienup_at_its_refinement_cap_exits_3(tmp_path, capsys, n,
                                                      extra):
    # Fienup has converged only when its GS refinement stalls before
    # GS_REFINE_ITERS; a negative tol never stalls, and N = 32 at Fienup's
    # own budget reaches the cap
    sig = tmp_path / "sig.json"
    meas = tmp_path / "meas.json"
    write_signal(sig, seed=0 if n == 8 else n, n=n)
    assert main(["measure", "--input", str(sig), "--output", str(meas)]) == 0
    capsys.readouterr()
    assert main(["recover", "--input", str(meas), "--output",
                 str(tmp_path / "out.json"), "--solver", "fienup"] + extra) == 3
    diag = json.loads(capsys.readouterr().out)
    assert diag["converged"] is False and diag["fienup"]["converged"] is False


def test_recover_real_signal_from_the_measurement_file(tmp_path, capsys):
    # realness comes from the file that measure --real writes
    sig = tmp_path / "sig.json"
    meas = tmp_path / "meas.json"
    out = tmp_path / "out.json"
    s = np.random.default_rng(5).normal(size=8)
    save_signal_file(str(sig), s)
    assert main(["measure", "--input", str(sig), "--output", str(meas),
                 "--real"]) == 0
    assert json.loads(meas.read_text())["real_signal"] is True
    assert main(["recover", "--input", str(meas), "--output", str(out),
                 "--reference", str(sig)]) == 0
    assert json.loads(capsys.readouterr().out.splitlines()[-1])[
        "ref_error_rel"] <= 1e-10
    shat = load_signal_file(str(out))
    assert np.all(shat.imag == 0.0)


def test_recover_unconverged_solver_exits_3(tmp_path, capsys):
    from phaseret.io import save_measurement_file
    from phaseret.signals import MeasurementSet
    # speckle intensities fit no signal and bind the PSD constraint, so a
    # solve allowed no exchange step cannot converge
    rng = np.random.default_rng(2)
    meas = tmp_path / "meas.json"
    save_measurement_file(str(meas),
                          MeasurementSet(rng.exponential(size=64), 16))
    assert main(["recover", "--input", str(meas), "--output",
                 str(tmp_path / "out.json"), "--max-iters", "0"]) == 3
    diag = json.loads(capsys.readouterr().out)
    assert diag["converged"] is False and not diag["cork"]["converged"]


def test_recover_cork_rejects_a_tolerance(tmp_path, capsys):
    # the exchange solver stops at the KKT point and reads no tolerance
    sig = tmp_path / "sig.json"
    meas = tmp_path / "meas.json"
    write_signal(sig)
    assert main(["measure", "--input", str(sig), "--output", str(meas)]) == 0
    capsys.readouterr()
    assert main(["recover", "--input", str(meas), "--output",
                 str(tmp_path / "out.json"), "--tol", "1e-4"]) == 2
    assert "tolerance" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


def test_recover_uncertified_estimate_exits_3(tmp_path, capsys, monkeypatch):
    # the certificate runs at every N, also beyond root_sf's range
    monkeypatch.setattr("phaseret.cli.is_min_phase", lambda x: (False, 2.0))
    for n in (8, 64):
        sig = tmp_path / "sig.json"
        meas = tmp_path / "meas.json"
        write_signal(sig, n=n)
        assert main(["measure", "--input", str(sig), "--output", str(meas)]) == 0
        capsys.readouterr()
        assert main(["recover", "--input", str(meas),
                     "--output", str(tmp_path / "out.json")]) == 3, n
        assert json.loads(capsys.readouterr().out)["min_phase"]["flag"] is False


def test_recover_certifies_min_phase_at_n_64(tmp_path, capsys):
    sig = tmp_path / "sig.json"
    meas = tmp_path / "meas.json"
    write_signal(sig, n=64)
    assert main(["measure", "--input", str(sig), "--output", str(meas)]) == 0
    capsys.readouterr()
    assert main(["recover", "--input", str(meas),
                 "--output", str(tmp_path / "out.json")]) == 0
    certificate = json.loads(capsys.readouterr().out)["min_phase"]
    assert certificate["flag"] and certificate["margin"] > 0.0


def test_recover_direct_mode_warns(tmp_path, capsys):
    from phaseret.io import save_measurement_file
    from phaseret.signals import MeasurementSet, intensity_measure
    rng = np.random.default_rng(1)
    s = rng.normal(size=6) + 1j * rng.normal(size=6)
    meas = tmp_path / "meas.json"
    save_measurement_file(str(meas), MeasurementSet(intensity_measure(s, 24), 6))
    out = tmp_path / "out.json"
    assert main(["recover", "--input", str(meas), "--output", str(out)]) == 0
    diag = json.loads(capsys.readouterr().out)
    assert "direct mode" in diag["warning"]


def test_recover_rejects_insufficient_m(tmp_path, capsys):
    # no MeasurementSet holds M < 2N, so the file is written by hand
    meas = tmp_path / "meas.json"
    meas.write_text(json.dumps({"m": 8, "n": 6, "b": [1.0] * 8}))
    code = main(["recover", "--input", str(meas), "--output",
                 str(tmp_path / "o.json")])
    assert code == 2
    assert "M >= 2N" in capsys.readouterr().err


@pytest.mark.parametrize("augmentation", [{"gap": 0}, "prefix"])
def test_recover_malformed_augmentation_exits_2(tmp_path, capsys,
                                                augmentation):
    meas = tmp_path / "meas.json"
    meas.write_text(json.dumps({"m": 8, "n": 3, "b": [1.0] * 8,
                                "augmentation": augmentation}))
    code = main(["recover", "--input", str(meas), "--output",
                 str(tmp_path / "o.json")])
    assert code == 2
    assert "malformed measurement" in capsys.readouterr().err


def test_missing_input_gives_io_exit_code(tmp_path, capsys):
    code = main(["measure", "--input", str(tmp_path / "nope.json"),
                 "--output", str(tmp_path / "m.json")])
    assert code == 4


@pytest.mark.parametrize("case", ["empty_csv", "nan_signal", "nan_reference",
                                  "gap_beyond_n"])
def test_malformed_input_exits_2_without_a_traceback(tmp_path, capsys, case):
    # every malformed file is a validation error, whichever command reads it
    # and wherever in the command it is found; none writes an output
    sig = tmp_path / "sig.json"
    meas = tmp_path / "meas.json"
    bad = tmp_path / ("bad.csv" if case == "empty_csv" else "bad.json")
    out = tmp_path / "out.json"
    if case == "empty_csv":
        bad.write_text("")
    elif case in ("nan_signal", "nan_reference"):
        bad.write_text('{"n": 2, "real": [1.0, NaN], "imag": [0.0, 0.0]}')
    else:
        # N = 2 holds the impulse and no room for a gap of 5
        bad.write_text(json.dumps({"m": 8, "n": 2, "b": [1.0] * 8,
                                   "augmentation": {"delta_re": 3.0,
                                                    "gap": 5}}))
    if case == "nan_reference":
        write_signal(sig)
        assert main(["measure", "--input", str(sig), "--output",
                     str(meas)]) == 0
        capsys.readouterr()
        argv = ["recover", "--input", str(meas), "--reference", str(bad)]
    elif case == "gap_beyond_n":
        argv = ["recover", "--input", str(bad)]
    else:
        argv = ["measure", "--input", str(bad)]
    assert main(argv + ["--output", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_missing_file_exits_4_with_the_os_message(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    for argv in (["recover", "--input", missing, "--output",
                  str(tmp_path / "o.json")],
                 ["bench", "--config", missing, "--output",
                  str(tmp_path / "out")]):
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert err.startswith("I/O error: ") and missing in err


def test_factorize_exact_and_fft(tmp_path):
    r = autocorrelation([2.0, 1.0])  # [5, 2]
    rfile = tmp_path / "r.json"
    save_signal_file(str(rfile), r)
    for extra in ([], ["--exact"]):
        out = tmp_path / "x.json"
        assert main(["factorize", "--input", str(rfile),
                     "--output", str(out)] + extra) == 0
        x = load_signal_file(str(out))
        np.testing.assert_allclose(x, [2, 1], atol=1e-6)


def test_factorize_rejects_invalid_correlation(tmp_path, capsys):
    rfile = tmp_path / "r.json"
    save_signal_file(str(rfile), np.array([1.0, 0.9]))
    code = main(["factorize", "--input", str(rfile),
                 "--output", str(tmp_path / "x.json")])
    assert code == 2
    assert "not a valid correlation" in capsys.readouterr().err


@pytest.mark.parametrize("exact", [[], ["--exact"]])
def test_factorize_complex_r0_exits_2(tmp_path, capsys, exact):
    rfile = tmp_path / "r.json"
    rfile.write_text(json.dumps({"n": 2, "real": [1.0, 0.1],
                                 "imag": [0.5, 0.0]}))
    code = main(["factorize", "--input", str(rfile),
                 "--output", str(tmp_path / "x.json")] + exact)
    assert code == 2
    assert "r[0] must be real" in capsys.readouterr().err


@pytest.mark.parametrize("extra,message", [
    (["--m", "5"], "must be >= signal length 9"),
    (["--m", "12"], r"needs M >= 2N \(got M=12, N=9\)"),
    (["--gap", "-1"], "gap must be >= 0")])
def test_measure_out_of_range_exits_2(tmp_path, capsys, extra, message):
    # N = 8 augments to 9: M = 5 cannot be measured and M = 12 < 2N could
    # not be recovered, so neither writes a file
    sig = tmp_path / "sig.json"
    write_signal(sig)
    out = tmp_path / "m.json"
    assert main(["measure", "--input", str(sig), "--output", str(out)]
                + extra) == 2
    assert re.search(message, capsys.readouterr().err)
    assert not out.exists()


def test_factorize_exact_too_long_exits_2(tmp_path, capsys):
    rfile = tmp_path / "r.json"
    save_signal_file(str(rfile), autocorrelation(write_signal(
        tmp_path / "s.json", n=60)))
    code = main(["factorize", "--input", str(rfile), "--output",
                 str(tmp_path / "x.json"), "--exact"])
    assert code == 2
    assert "root_sf supports N <= 48" in capsys.readouterr().err


def test_recover_phaselift_beyond_desk_scale_exits_2(tmp_path, capsys):
    sig = tmp_path / "sig.json"
    meas = tmp_path / "meas.json"
    write_signal(sig, n=79)
    assert main(["measure", "--input", str(sig), "--output", str(meas)]) == 0
    capsys.readouterr()
    code = main(["recover", "--input", str(meas), "--output",
                 str(tmp_path / "o.json"), "--solver", "phaselift-sf"])
    assert code == 2
    assert "desk-scale only" in capsys.readouterr().err


def write_bench_config(path, outdir=None, thresholds=None, solvers=("cork",)):
    cfg = {"kind": "gap", "n": 4, "trials": 2, "solvers": list(solvers),
           "master_seed": 1}
    if outdir:
        cfg["output_dir"] = outdir
    if thresholds:
        cfg["thresholds"] = thresholds
    path.write_text(json.dumps(cfg))


def test_bench_runs_and_is_deterministic(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    write_bench_config(cfgfile)
    outputs = []
    for name in ("a", "b"):
        outdir = tmp_path / name
        assert main(["bench", "--config", str(cfgfile),
                     "--output", str(outdir)]) == 0
        capsys.readouterr()
        rows = [json.loads(ln) for ln in
                (outdir / "results.jsonl").read_text().splitlines()]
        for row in rows:
            row.pop("times", None)
        outputs.append(json.dumps(rows, sort_keys=True))
    assert outputs[0] == outputs[1]


def test_bench_threshold_failure_exit_code(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    # impossible threshold: every finite gap fails
    write_bench_config(cfgfile, thresholds={"cork_gap_rel_max": -1.0})
    code = main(["bench", "--config", str(cfgfile),
                 "--output", str(tmp_path / "out")])
    assert code == 3
    assert "FAIL" in capsys.readouterr().err


def test_bench_rejects_unknown_solver(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    write_bench_config(cfgfile, solvers=["nope"])
    code = main(["bench", "--config", str(cfgfile),
                 "--output", str(tmp_path / "out")])
    assert code == 2
    assert "unknown solvers" in capsys.readouterr().err
    # a bad kind, size or trial count is a config error too
    for bad in ({"kind": "gapp"}, {"n": 0}, {"trials": 0}):
        cfg = json.loads(cfgfile.read_text())
        cfg.update(solvers=["cork"], **bad)
        cfgfile.write_text(json.dumps(cfg))
        code = main(["bench", "--config", str(cfgfile),
                     "--output", str(tmp_path / "out")])
        assert code == 2
        assert "bad config" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [
    {"kind": "gap", "m_range": [1.0, 1.5]}, {"kind": "recovery", "m_multiplier": 1.5},
    {"kind": "crb", "m_sweep": [1, 2, 2]}, {"kind": "crb", "crb_m_multiplier": 1.5}])
def test_bench_rejects_m_below_2n(tmp_path, capsys, bad):
    cfgfile = tmp_path / "cfg.json"
    write_bench_config(cfgfile)
    cfg = json.loads(cfgfile.read_text())
    cfg.update(bad)
    cfgfile.write_text(json.dumps(cfg))
    code = main(["bench", "--config", str(cfgfile),
                 "--output", str(tmp_path / "out")])
    assert code == 2
    assert "bad config" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("thresholds", [{"cork_gap_max": -1},
                                        {"cork_gap_rel_max": "1e-3"}])
def test_bench_rejects_bad_thresholds_before_running(tmp_path, capsys,
                                                     thresholds):
    # a misspelled name would check nothing and a string would fail only
    # after the whole study ran
    cfgfile = tmp_path / "cfg.json"
    write_bench_config(cfgfile, thresholds=thresholds)
    code = main(["bench", "--config", str(cfgfile),
                 "--output", str(tmp_path / "out")])
    assert code == 2
    assert "bad config" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_bench_requires_output_dir(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    write_bench_config(cfgfile)
    assert main(["bench", "--config", str(cfgfile)]) == 2


def test_measure_oversampling_validation(tmp_path):
    sig = tmp_path / "sig.json"
    write_signal(sig)
    with pytest.raises(SystemExit):
        main(["measure", "--input", str(sig), "--output",
              str(tmp_path / "m.json"), "--oversampling", "1.5"])
