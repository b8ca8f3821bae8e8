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


@pytest.mark.parametrize("text", ["-1.74,-1.34\n",
                                  "0.77,0.55\n-1.17,-1.04\n"],
                         ids=["one", "two"])
def test_measure_then_recover_one_and_two_samples_exactly(tmp_path, capsys,
                                                          text):
    # the first draw of default_rng(8) and the eighth of default_rng(9),
    # rounded: each factor has a zero at modulus about 1/(1 + 1e-3), which a
    # fixed factor length of 32N left aliased (ref_error_rel 1.8e-5 and
    # 2.6e-5 at exit 0); the same signals run as a console-script CI step
    sig = tmp_path / "sig.csv"
    sig.write_text(text)
    meas, out = str(tmp_path / "meas.json"), str(tmp_path / "out.json")
    assert main(["measure", "--input", str(sig), "--output", meas]) == 0
    capsys.readouterr()
    assert main(["recover", "--input", meas, "--output", out,
                 "--reference", str(sig)]) == 0
    assert json.loads(capsys.readouterr().out)["ref_error_rel"] <= 1e-10


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
    # GS has converged only when its stalled-cost test fires;
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
    # Fienup has converged only when its GS refinement stalls within
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


def test_measure_real_rejects_a_complex_signal(tmp_path, capsys):
    # its measurements were written as real and recovered with a wrong
    # estimate (ref_error_rel 0.26) at exit 0
    sig = tmp_path / "sig.csv"
    sig.write_text("1,0.5\n2,-1\n-1,0.25\n0.5,1\n")
    meas = tmp_path / "meas.json"
    assert main(["measure", "--input", str(sig), "--output", str(meas),
                 "--real"]) == 2
    assert "nonzero imaginary part" in capsys.readouterr().err
    assert not meas.exists()


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


@pytest.mark.parametrize("solver", ["cork", "phaselift-sf"])
def test_recover_solver_without_a_tolerance_rejects_one(tmp_path, capsys,
                                                        solver):
    # the exchange solver stops at the KKT point and the lifted solve at a
    # fixed gradient tolerance, so a tolerance would go unread
    sig = tmp_path / "sig.json"
    meas = tmp_path / "meas.json"
    write_signal(sig)
    assert main(["measure", "--input", str(sig), "--output", str(meas)]) == 0
    capsys.readouterr()
    assert main(["recover", "--input", str(meas), "--output",
                 str(tmp_path / "out.json"), "--solver", solver,
                 "--tol", "1e-4"]) == 2
    assert "tolerance" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


def test_recover_phaselift_sf_without_a_step_exits_2(tmp_path, capsys):
    # with no step the lifted estimate is zero, which the factorization
    # would blame on the input
    sig = tmp_path / "sig.json"
    meas = tmp_path / "meas.json"
    write_signal(sig)
    assert main(["measure", "--input", str(sig), "--output", str(meas)]) == 0
    capsys.readouterr()
    assert main(["recover", "--input", str(meas), "--output",
                 str(tmp_path / "out.json"), "--solver", "phaselift-sf",
                 "--max-iters", "0"]) == 2
    assert "max_iters" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


def test_recover_reference_of_the_wrong_length_exits_2(tmp_path, capsys):
    # the error the user asked for cannot be computed, so nothing is written
    sig = tmp_path / "sig.json"
    meas = tmp_path / "meas.json"
    ref = tmp_path / "ref.json"
    out = tmp_path / "out.json"
    write_signal(sig)
    write_signal(ref, n=5)
    assert main(["measure", "--input", str(sig), "--output", str(meas)]) == 0
    capsys.readouterr()
    assert main(["recover", "--input", str(meas), "--output", str(out),
                 "--reference", str(ref)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(ref) in err
    assert "5" in err and "8" in err
    assert not out.exists()


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


def test_recover_reference_error_sees_the_global_phase(tmp_path, capsys,
                                                       monkeypatch):
    # the known impulse fixes the phase of an augmented estimate: a
    # de-augmentation that returned -s read ref_error_rel 0.0, as the
    # distance up to a global phase ignores the sign
    import phaseret.cli as cli
    sig, meas, out = (tmp_path / name for name in ("s.json", "m.json",
                                                   "o.json"))
    write_signal(sig, seed=6, n=6)
    assert main(["measure", "--input", str(sig), "--output", str(meas)]) == 0
    deaugment = cli.deaugment
    monkeypatch.setattr(cli, "deaugment", lambda x, spec: -deaugment(x, spec))
    assert main(["recover", "--input", str(meas), "--output", str(out),
                 "--reference", str(sig)]) == 0
    diag = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert diag["ref_error_rel"] == pytest.approx(4.0, rel=1e-9)


def test_recover_direct_mode_error_ignores_the_global_phase(tmp_path, capsys):
    # no measurement fixes the phase of a direct estimate: a minimum-phase
    # signal, measured without augmentation, against its negative
    from phaseret.io import save_measurement_file
    from phaseret.signals import MeasurementSet, intensity_measure
    s = np.r_[20.0, np.random.default_rng(2).normal(size=5)]
    meas, ref = tmp_path / "meas.json", tmp_path / "ref.json"
    save_measurement_file(str(meas), MeasurementSet(intensity_measure(s, 24), 6))
    save_signal_file(str(ref), -s)
    assert main(["recover", "--input", str(meas), "--output",
                 str(tmp_path / "out.json"), "--reference", str(ref)]) == 0
    assert json.loads(capsys.readouterr().out)["ref_error_rel"] <= 1e-10


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
                                  "gap_beyond_n", "negative_sigma2",
                                  "nan_sigma2", "fractional_n_signal",
                                  "string_n_reference", "suffix_side",
                                  "true_n_signal", "true_n_measurement",
                                  "true_gap_measurement", "nonzero_gap",
                                  "true_sigma2"])
def test_malformed_input_exits_2_without_a_traceback(tmp_path, capsys, case):
    # every malformed file is a validation error, whichever command reads it
    # and wherever in the command it is found; the error names the file, and
    # none writes an output
    sig = tmp_path / "sig.json"
    meas = tmp_path / "meas.json"
    bad = tmp_path / ("bad.csv" if case == "empty_csv" else "bad.json")
    out = tmp_path / "out.json"
    if case in ("nan_reference", "string_n_reference", "suffix_side",
                "nonzero_gap"):
        write_signal(sig)
        assert main(["measure", "--input", str(sig), "--output",
                     str(meas)]) == 0
        capsys.readouterr()
    if case == "empty_csv":
        bad.write_text("")
    elif case in ("nan_signal", "nan_reference"):
        bad.write_text('{"n": 2, "real": [1.0, NaN], "imag": [0.0, 0.0]}')
    elif case == "fractional_n_signal":
        # int() read n = 2.5 as 2, the length of the lists
        bad.write_text('{"n": 2.5, "real": [1.0, 2.0], "imag": [0.0, 0.0]}')
    elif case == "string_n_reference":
        # int() read "8" as 8, the length of the estimate
        bad.write_text(json.dumps({"n": "8", "real": [1.0] * 8,
                                   "imag": [0.0] * 8}))
    elif case == "true_n_signal":
        # a JSON true read as N = 1
        bad.write_text('{"n": true, "real": [1.0], "imag": [0.0]}')
    elif case == "true_n_measurement":
        bad.write_text('{"m": 4, "n": true, "b": [1.0, 1.0, 1.0, 1.0]}')
    elif case == "suffix_side":
        # a file of the appended-impulse mirror, which was de-augmented by
        # conjugate reversal; it must not be read as a prefix file
        obj = json.loads(meas.read_text())
        obj["augmentation"]["side"] = "suffix"
        bad.write_text(json.dumps(obj))
    elif case == "nonzero_gap":
        # a file whose augmentation held 2 zeros between the impulse and s:
        # de-augmented as the impulse alone, its estimate would start with
        # those zeros and lose the last two samples of s
        obj = json.loads(meas.read_text())
        obj["augmentation"]["gap"] = 2
        bad.write_text(json.dumps(obj))
    elif case == "true_gap_measurement":
        # a JSON true read as gap 1, and a gap-0 file then lost s_0
        bad.write_text(json.dumps({"m": 8, "n": 3, "b": [1.0] * 8,
                                   "augmentation": {"delta_re": 3.0,
                                                    "gap": True}}))
    elif case == "gap_beyond_n":
        # N = 2 holds the impulse and no room for a gap of 5; any nonzero
        # gap is refused
        bad.write_text(json.dumps({"m": 8, "n": 2, "b": [1.0] * 8,
                                   "augmentation": {"delta_re": 3.0,
                                                    "gap": 5}}))
    else:
        # a JSON true read as sigma2 1.0
        sigma2 = {"negative_sigma2": -1.0, "nan_sigma2": float("nan"),
                  "true_sigma2": True}[case]
        bad.write_text(json.dumps({"m": 8, "n": 2, "b": [1.0] * 8,
                                   "sigma2": sigma2}))
    if case in ("nan_reference", "string_n_reference"):
        argv = ["recover", "--input", str(meas), "--reference", str(bad)]
    elif case in ("gap_beyond_n", "negative_sigma2", "nan_sigma2",
                  "true_sigma2", "suffix_side", "true_n_measurement",
                  "true_gap_measurement", "nonzero_gap"):
        argv = ["recover", "--input", str(bad)]
    else:
        argv = ["measure", "--input", str(bad)]
    assert main(argv + ["--output", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {bad}: ")
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
    (["--m", "17"], r"needs M >= 2N \(got M=17, N=9\)"),
    (["--noise-sigma2", "-1"], "sigma2 must be finite and >= 0"),
    (["--noise-sigma2", "nan"], "sigma2 must be finite and >= 0"),
    (["--noise-sigma2", "inf"], "sigma2 must be finite and >= 0")])
def test_measure_out_of_range_exits_2(tmp_path, capsys, extra, message):
    # N = 8 augments to 9: M = 5 cannot be measured and M = 12 or 17 < 2N
    # could not be recovered, so none writes a file
    sig = tmp_path / "sig.json"
    write_signal(sig)
    out = tmp_path / "m.json"
    assert main(["measure", "--input", str(sig), "--output", str(out)]
                + extra) == 2
    assert re.search(message, capsys.readouterr().err)
    assert not out.exists()


def test_measure_has_no_gap_option(tmp_path, capsys):
    # the impulse alone is the augmentation: no zeros follow it
    sig = tmp_path / "sig.json"
    write_signal(sig)
    out = tmp_path / "m.json"
    with pytest.raises(SystemExit) as exc:
        main(["measure", "--input", str(sig), "--output", str(out),
              "--gap", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --gap 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("legacy", [{"gap": 0}, {"gap": 0, "side": "prefix"}])
def test_recover_reads_a_legacy_gap_zero_file_unchanged(tmp_path, capsys,
                                                        legacy):
    # files written while the augmentation held a gap carry "gap": 0
    sig = tmp_path / "sig.json"
    meas = tmp_path / "meas.json"
    write_signal(sig)
    assert main(["measure", "--input", str(sig), "--output", str(meas)]) == 0
    obj = json.loads(meas.read_text())
    assert "gap" not in obj["augmentation"]
    obj["augmentation"].update(legacy)
    old = tmp_path / "old.json"
    old.write_text(json.dumps(obj))
    estimates = []
    for name, path in (("new", meas), ("old", old)):
        out = tmp_path / f"{name}-est.json"
        assert main(["recover", "--input", str(path), "--output", str(out),
                     "--reference", str(sig)]) == 0
        estimates.append(out.read_bytes())
    assert estimates[0] == estimates[1]


@pytest.mark.parametrize("sigma", ["0", "-1", "nan", "inf"])
def test_measure_three_sigma_rejects_a_bad_sigma(tmp_path, capsys, sigma):
    # sigma = 0 made delta = 0: the file de-augmented to a wrong estimate
    # that recover certified and exited 0 on
    sig = tmp_path / "sig.json"
    save_signal_file(str(sig), np.array([1.0, 2.0, 3.0]))
    out = tmp_path / "m.json"
    assert main(["measure", "--input", str(sig), "--output", str(out),
                 "--impulse", "three-sigma", "--sigma", sigma]) == 2
    assert "--sigma must be finite and > 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("delta_re", [0.0, float("nan"), float("inf")])
def test_recover_rejects_a_zero_or_non_finite_impulse(tmp_path, capsys,
                                                      delta_re):
    # the measurement of s = [1, 2, 3] that measure wrote at --sigma 0
    sig = tmp_path / "sig.json"
    save_signal_file(str(sig), np.array([1.0, 2.0, 3.0]))
    meas = tmp_path / "meas.json"
    b = np.abs(np.fft.fft([0.0, 1.0, 2.0, 3.0], 16)) ** 2
    meas.write_text(json.dumps({"m": 16, "n": 4, "b": b.tolist(),
                                "augmentation": {"delta_re": delta_re}}))
    out = tmp_path / "out.json"
    assert main(["recover", "--input", str(meas), "--output", str(out),
                 "--reference", str(sig)]) == 2
    err = capsys.readouterr().err
    assert "malformed measurement" in err and "delta must be finite" in err
    assert not out.exists()


def test_measure_three_sigma_impulse_round_trip(tmp_path, capsys):
    # delta = 3 sigma N for N = 8; at sigma = 2 it exceeds ||s||_1, so the
    # noiseless measurement recovers s
    sig = tmp_path / "sig.json"
    meas = tmp_path / "meas.json"
    out = tmp_path / "out.json"
    s = write_signal(sig)
    assert main(["measure", "--input", str(sig), "--output", str(meas),
                 "--impulse", "three-sigma", "--sigma", "2"]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["delta"] == 3.0 * 2.0 * 8 and not info["margin_violated"]
    aug = json.loads(meas.read_text())["augmentation"]
    assert (aug["delta_re"], aug["delta_im"]) == (48.0, 0.0)
    assert main(["recover", "--input", str(meas), "--output", str(out),
                 "--reference", str(sig)]) == 0
    diag = json.loads(capsys.readouterr().out)
    assert diag["min_phase"]["flag"]
    assert diag["ref_error_rel"] <= 1e-10
    shat = load_signal_file(str(out))
    assert global_phase_distance(s, shat) <= 1e-10 * np.vdot(s, s).real


@pytest.mark.parametrize("solver", ["cork", "phaselift-sf", "fienup", "gs"])
def test_recover_negative_max_iters_exits_2(tmp_path, capsys, solver):
    sig = tmp_path / "sig.json"
    meas = tmp_path / "meas.json"
    out = tmp_path / "out.json"
    write_signal(sig)
    assert main(["measure", "--input", str(sig), "--output", str(meas)]) == 0
    capsys.readouterr()
    assert main(["recover", "--input", str(meas), "--output", str(out),
                 "--solver", solver, "--max-iters", "-3"]) == 2
    captured = capsys.readouterr()
    least = 1 if solver == "phaselift-sf" else 0
    assert (f"max_iters must be an integer >= {least}, got -3" in captured.err
            and not captured.out)
    assert not out.exists()


@pytest.mark.parametrize("solver", ["fienup", "gs"])
@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_recover_non_finite_tol_exits_2(tmp_path, capsys, solver, tol):
    # a NaN tolerance never stalls, so the solver ran to its cap and exited
    # 3; an infinite one stalls at the tenth iteration and exited 0
    sig = tmp_path / "sig.json"
    meas = tmp_path / "meas.json"
    out = tmp_path / "out.json"
    write_signal(sig)
    assert main(["measure", "--input", str(sig), "--output", str(meas)]) == 0
    capsys.readouterr()
    assert main(["recover", "--input", str(meas), "--output", str(out),
                 "--solver", solver, "--tol", tol]) == 2
    captured = capsys.readouterr()
    assert (f"tol must be a finite real number, got {tol}" in captured.err
            and not captured.out)
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


def write_bench_config(path, thresholds=None, solvers=("cork",)):
    cfg = {"kind": "gap", "n": 4, "trials": 2, "solvers": list(solvers),
           "master_seed": 1}
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


@pytest.mark.parametrize("text", ["[]", '"gap"', "3"])
def test_bench_config_that_is_not_an_object_exits_2(tmp_path, capsys, text):
    # a list once ran the default 50-trial gap study
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(text)
    assert main(["bench", "--config", str(cfgfile),
                 "--output", str(tmp_path / "out")]) == 2
    assert "JSON object" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text,message", [
    ('{"kind": "gap", "n": "x"}',
     "bad config: n must be an integer >= 1, got 'x'"),
    ('{"kind": "recovery", "n": 2.5}',
     "bad config: n must be an integer >= 1, got 2.5"),
    ('{"kind": "gap",', "invalid JSON at line 1"),
    ('{"kind": "crb", "m_sweep": [2, 4, 0], "snr_sweep": [30, 50, 0]}',
     "bad config: a crb study needs a point"),
    ('{"kind": "gap", "n": 4, "master_seed": 1.5}',
     "bad config: master_seed must be an integer >= 0, got 1.5"),
    ('{"kind": "gap", "n": 4, "master_seed": true}',
     "bad config: master_seed must be an integer >= 0, got True"),
    ('{"kind": "gap", "n": 4, "master_seed": "7"}',
     "bad config: master_seed must be an integer >= 0, got '7'"),
    ('{"kind": "gap", "n": 4, "master_seed": -1}',
     "bad config: master_seed must be an integer >= 0, got -1"),
    ('{"kind": "crb", "n": 4, "snr_db": "x"}',
     "bad config: snr_db must be a finite real number, got 'x'"),
    ('{"kind": "crb", "n": 4, "snr_sweep": [30, "x", 2]}',
     "bad config: snr_sweep hi must be a finite real number, got 'x'"),
    ('{"kind": "recovery", "n": 4, "m_multiplier": Infinity}',
     "bad config: m_multiplier must be a finite real number, got inf"),
    ('{"kind": "gap", "n": 4, "trials": 1, "output_dir": "x"}',
     "bad config: unknown config keys: ['output_dir']"),
    ('{"kind": "gap", "n": 8, "trials": 2, "solvers": []}',
     "bad config: a gap study needs a solver"),
    ('{"kind": "recovery", "n": 8, "trials": 2, "solvers": []}',
     "bad config: a recovery study needs a solver")])
def test_bench_bad_field_or_bad_json_exits_2(tmp_path, capsys, text, message):
    # a string n failed the config's checks with a TypeError, a fractional
    # n passed them and failed with one in the first trial, and a crb study
    # without a point ran and then failed to persist no rows; a fractional
    # master_seed or a string snr failed with a TypeError traceback, a
    # negative master_seed failed in the first trial, a JSON true or a
    # string master_seed ran, an infinite multiplier overflowed in the first
    # trial; bench --output is the one output directory, so a config's
    # output_dir is an unknown key; a gap or recovery study without a
    # solver wrote empty rows and exited 0
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(text)
    assert main(["bench", "--config", str(cfgfile),
                 "--output", str(tmp_path / "out")]) == 2
    assert f"error: {cfgfile}: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_bench_makes_its_output_directory_before_the_study(tmp_path, capsys,
                                                          monkeypatch):
    # an --output that names a regular file failed only after every trial
    cfgfile = tmp_path / "cfg.json"
    write_bench_config(cfgfile)
    taken = tmp_path / "taken"
    taken.write_text("keep")

    def no_study(config):
        raise AssertionError("the study ran before --output was made")

    monkeypatch.setattr("phaseret.cli.run_experiment", no_study)
    assert main(["bench", "--config", str(cfgfile),
                 "--output", str(taken)]) == 4
    assert capsys.readouterr().err.startswith("I/O error: ")
    assert taken.read_text() == "keep"


def test_bench_requires_output_dir(tmp_path, capsys, monkeypatch):
    cfgfile = tmp_path / "cfg.json"
    write_bench_config(cfgfile)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--config", str(cfgfile)])
    assert exc.value.code == 2
    assert "--output" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


@pytest.mark.parametrize("oversampling", ["1.5", "-3", "inf", "nan"])
def test_measure_oversampling_validation(tmp_path, capsys, oversampling):
    # identifiability needs M >= 2N, and an infinite or NaN factor gives no M
    sig = tmp_path / "sig.json"
    write_signal(sig)
    assert main(["measure", "--input", str(sig), "--output",
                 str(tmp_path / "m.json"), "--oversampling", oversampling]) == 2
    assert "--oversampling" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()
