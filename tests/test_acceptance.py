"""End-to-end acceptance suite.

Each test exercises one contract of the toolkit at scale, prints a single
PASS/FAIL line with the measured figure, and asserts the stated tolerance.
"""

import json
import time

import numpy as np
import pytest

from phaseret.bench import ExperimentConfig, run_experiment, run_recovery_trial
from phaseret.baselines import IterativeOptions, fienup_sf, fienup_solve, gs_solve
from phaseret.cli import main as cli_main
from phaseret.cork import AdmmOptions, solve_cork
from phaseret.crb import compute_crb
from phaseret.measurement import (AugmentationSpec, augment_min_phase,
                                  deaugment, default_delta)
from phaseret.sdp import phaselift_sf
from phaseret.signals import (MeasurementSet, autocorrelation,
                              correlation_psd_check,
                              correlation_to_intensity,
                              default_transform_length,
                              global_phase_distance, intensity_measure)
from phaseret.specfact import SfOptions, is_min_phase, kolmogorov_sf, root_sf


def report(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'}: {name} ({detail})")
    assert ok, f"{name}: {detail}"


def aligned_rel_err(x, xhat):
    """min over unit-modulus psi of ||x - psi*xhat||^2, relative to ||x||^2."""
    return global_phase_distance(x, xhat) / float(np.vdot(x, x).real)


def random_min_phase(rng, n):
    # The fft factorization's truncation error scales like rho^L with rho the
    # largest zero modulus, so the impulse margin grows as L = 32N shrinks to
    # keep every ensemble member resolvable at the stated tolerance.
    s = rng.normal(size=n) + 1j * rng.normal(size=n)
    margin = max(1e-3, 20.0 / (32.0 * (n + 1)))
    return augment_min_phase(s, AugmentationSpec(delta=default_delta(s, margin)))


def test_acceptance_1_intensity_identity():
    """|F_M x|^2 equals Re{F_M I~ r(x)} for random signals and M in {2N,4N,8N}."""
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(1, 257))
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        r = autocorrelation(x)
        for mult in (2, 4, 8):
            m = mult * n
            direct = intensity_measure(x, m)
            via_r = correlation_to_intensity(r, m)
            worst = max(worst, np.abs(direct - via_r).max()
                        / max(np.abs(direct).max(), 1e-300))
    elapsed = time.perf_counter() - t0
    report("identity suite",
           worst <= 1e-10 and elapsed < 10.0,
           f"500 signals, worst rel linf {worst:.2e}, {elapsed:.1f}s")


def test_acceptance_2_sf_round_trip():
    """kolmogorov_sf inverts autocorrelation of minimum-phase signals;
    root_sf agrees at small sizes."""
    rng = np.random.default_rng(1002)
    t0 = time.perf_counter()
    worst_k, worst_r = 0.0, 0.0
    for _ in range(200):
        n = int(rng.integers(2, 129))
        x = random_min_phase(rng, n - 1)  # augmented length n
        r = autocorrelation(x)
        l = default_transform_length(x.size)
        xhat = kolmogorov_sf(r, SfOptions(l=l))
        worst_k = max(worst_k, np.sqrt(max(aligned_rel_err(x, xhat), 0.0)))
        if x.size <= 32:
            xroot = root_sf(r)
            worst_r = max(worst_r, np.sqrt(max(aligned_rel_err(x, xroot), 0.0)))
    elapsed = time.perf_counter() - t0
    report("spectral factorization round-trip",
           worst_k <= 1e-6 and worst_r <= 1e-6 and elapsed < 30.0,
           f"200 signals, worst fft-method {worst_k:.2e}, "
           f"worst root-method {worst_r:.2e}, {elapsed:.1f}s")


def test_acceptance_3_hidden_convexity():
    """CoRK converges and attains the lifted lambda=0 lower bound within
    1e-6*||b||^2; the spectral factor of the lambda=0 PhaseLift solution
    lands within 1e-5*||b||^2 of it."""
    rng = np.random.default_rng(1003)
    t0 = time.perf_counter()
    n = 32
    worst_cork, worst_sdp = -np.inf, -np.inf
    for _ in range(50):
        m = int(rng.integers(2 * n, 8 * n + 1))
        ms = MeasurementSet(rng.uniform(size=m), n)
        bscale = float(np.dot(ms.b, ms.b))
        _, diag = solve_cork(ms)
        assert diag.converged
        # phaselift_sf's one solve is the lambda=0 bound
        _, _, sdiag = phaselift_sf(ms)
        bound = sdiag.lower_bound
        assert sdiag.converged
        worst_cork = max(worst_cork, (diag.fit - bound) / bscale)
        worst_sdp = max(worst_sdp, abs(sdiag.fit - bound) / bscale)
    elapsed = time.perf_counter() - t0
    report("hidden convexity",
           worst_cork <= 1e-6 and worst_sdp <= 1e-5 and elapsed < 600.0,
           f"50 trials, worst cork gap {worst_cork:.2e}, worst lift gap "
           f"{worst_sdp:.2e}, {elapsed:.0f}s")


def test_acceptance_4_perfect_recovery():
    """Noiseless minimum-phase arm recovers exactly; the direct arm fits the
    data perfectly yet misses the signal."""
    t0 = time.perf_counter()
    cfg = ExperimentConfig(kind="recovery", n=128, trials=100,
                           m_multiplier=4.0, solvers=("cork",),
                           master_seed=1004)
    rows = [run_recovery_trial(cfg, t) for t in range(cfg.trials)]
    assert all(not row["errors"] for row in rows)
    errs_min = np.array([r["errors_rel"]["cork_minphase"] for r in rows])
    errs_dir = np.array([r["errors_rel"]["cork_direct"] for r in rows])
    fits_dir = np.array([r["fits_rel"]["cork_direct"] for r in rows])
    frac_ambiguous = float(np.mean(errs_dir >= 0.1))
    elapsed = time.perf_counter() - t0
    report("perfect recovery",
           errs_min.max() <= 1e-6 and frac_ambiguous >= 0.95
           and fits_dir.max() <= 1e-6 and elapsed < 120.0,
           f"100 trials N=128, worst min-phase err {errs_min.max():.2e}, "
           f"direct arm ambiguous in {100 * frac_ambiguous:.0f}% "
           f"(worst direct fit {fits_dir.max():.2e}), {elapsed:.1f}s")


def test_acceptance_5_crb_attainment():
    """At 50 dB SNR the pipeline's mean MSE is within [0.8, 2.0] times the
    Cramer-Rao bound (a bound off by a constant factor fails one side), and
    the bound itself is exactly linear in the noise variance."""
    t0 = time.perf_counter()
    n = 64
    rng = np.random.default_rng([1005, 2**31 - 1])
    s = (rng.normal(size=n) + 1j * rng.normal(size=n)) / np.sqrt(2)
    spec = AugmentationSpec(3.0 * n)
    smin = augment_min_phase(s, spec)
    m = 8 * smin.size
    l = default_transform_length(smin.size)
    b_clean = intensity_measure(smin, m)
    sigma2 = float(np.dot(b_clean, b_clean)) / (m * 10.0 ** (50.0 / 10.0))
    crb = compute_crb(smin, m, sigma2)

    errors = []
    for t in range(100):
        trng = np.random.default_rng([1005, t])
        noisy = b_clean + trng.normal(scale=np.sqrt(sigma2), size=m)
        ms = MeasurementSet(noisy, smin.size, sigma2=sigma2, augmentation=spec)
        r, _ = solve_cork(ms, AdmmOptions(l=l))
        shat = deaugment(kolmogorov_sf(r, SfOptions(l=l)), spec)
        errors.append(global_phase_distance(s, shat))
    ratio = float(np.mean(errors)) / crb

    crb7 = compute_crb(smin, m, 7.0 * sigma2)
    linearity = abs(crb7 - 7.0 * crb) / abs(crb7)
    elapsed = time.perf_counter() - t0
    report("CRB attainment",
           0.8 <= ratio <= 2.0 and linearity <= 1e-12 and elapsed < 300.0,
           f"100 trials, mean MSE/CRB {ratio:.3f}, sigma2-linearity defect "
           f"{linearity:.1e}, {elapsed:.0f}s")


def test_acceptance_5_crb_attainment_at_large_n():
    """The bench's CRB study at N = 512 (M = 4 and 8 times N_tot at 40 dB,
    8 N_tot at 50 dB) keeps every point's MSE/CRB within [0.8, 2.0]: the
    bound is attained at the scale the paper claims, not only at N <= 64."""
    t0 = time.perf_counter()
    rows = run_experiment(ExperimentConfig(
        kind="crb", n=512, trials=20, master_seed=1005,
        m_sweep=(4.0, 8.0, 2), snr_sweep=(50.0, 50.0, 1)))
    ratios = [row["mse_over_crb"] for row in rows]
    elapsed = time.perf_counter() - t0
    report("CRB attainment at N=512",
           len(rows) == 3 and all(0.8 <= q <= 2.0 for q in ratios),
           f"20 trials per point, MSE/CRB {', '.join(f'{q:.3f}' for q in ratios)}, "
           f"{elapsed:.1f}s")


def test_acceptance_6_admm_behavior():
    """Every solve converges in a median of at most 200 iterations at
    tol_rel=1e-4, certifies a duality gap of at most 3e-5*||b||^2, and exits
    with a (numerically) nonnegative sampled spectrum."""
    t0 = time.perf_counter()
    iters, worst_feas, worst_gap = [], 0.0, 0.0
    for t in range(100):
        rng = np.random.default_rng([1006, t])
        n = 128
        ms = MeasurementSet(rng.uniform(size=4 * n), n)
        r, diag = solve_cork(ms, AdmmOptions(tol_rel=1e-4, max_iters=30000))
        assert diag.converged
        iters.append(diag.iters)
        worst_gap = max(worst_gap, diag.gap / float(np.dot(ms.b, ms.b)))
        min_val, _, _ = correlation_psd_check(r, diag.l)
        worst_feas = min(worst_feas, min_val)
    median_iters = float(np.median(iters))
    elapsed = time.perf_counter() - t0
    report("solver behavior",
           median_iters <= 200 and worst_feas >= -1e-8 and worst_gap <= 3e-5,
           f"100 instances N=128, median iters {median_iters:.0f} (max "
           f"{max(iters)}), worst duality gap {worst_gap:.1e} rel, worst exit "
           f"feasibility {worst_feas:.1e}, {elapsed:.0f}s")


def test_acceptance_7_baseline_contract():
    """GS never increases its cost; Fienup-SF keeps Fienup's fit while being
    certified minimum phase."""
    worst_increase = -np.inf
    worst_fit_gap = 0.0
    all_min_phase = True
    for seed in range(20):
        rng = np.random.default_rng([1007, seed])
        n = int(rng.integers(4, 33))
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        ms = MeasurementSet(intensity_measure(x, 4 * n), n)
        bscale = float(np.dot(ms.b, ms.b))

        _, history = gs_solve(ms, IterativeOptions(max_iters=300, seed=seed))
        worst_increase = max(worst_increase, float(np.diff(history).max()))

        opts = IterativeOptions(seed=seed)
        xf, _ = fienup_solve(ms, opts)
        xm = fienup_sf(ms, opts)

        def fit(v):
            d = np.sqrt(ms.b) - np.abs(np.fft.fft(np.asarray(v, complex), ms.m))
            return float(np.dot(d, d))

        worst_fit_gap = max(worst_fit_gap, abs(fit(xf) - fit(xm)) / bscale)
        flag, _ = is_min_phase(xm)
        all_min_phase = all_min_phase and flag
    report("baseline contract",
           worst_increase <= 0.0 and worst_fit_gap <= 1e-8 and all_min_phase,
           f"20 instances, worst GS cost increase {worst_increase:.1e}, "
           f"worst Fienup-SF fit gap {worst_fit_gap:.1e} rel, "
           f"min-phase certificate {'held' if all_min_phase else 'FAILED'}")


def test_acceptance_8_bench_determinism(tmp_path, capsys):
    """Two cmd_bench runs with one config produce byte-identical results.jsonl
    once timing fields are removed."""
    cfgfile = tmp_path / "config.json"
    cfgfile.write_text(json.dumps({
        "kind": "gap", "n": 16, "trials": 5, "master_seed": 1008,
        "solvers": ["cork", "phaselift-sf", "fienup"]}))
    payloads = []
    for name in ("run1", "run2"):
        outdir = tmp_path / name
        code = cli_main(["bench", "--config", str(cfgfile),
                         "--output", str(outdir)])
        capsys.readouterr()
        assert code == 0
        rows = []
        for line in (outdir / "results.jsonl").read_text().splitlines():
            row = json.loads(line)
            row.pop("times", None)
            rows.append(row)
        payloads.append(json.dumps(rows, sort_keys=True).encode())
    with capsys.disabled():
        report("bench determinism",
               payloads[0] == payloads[1],
               f"two runs, {len(payloads[0])} canonical bytes each, "
               "identical modulo timing")


@pytest.fixture(autouse=True)
def _show_report(capsys):
    """Let the PASS/FAIL lines through even when pytest captures stdout."""
    yield
    out = capsys.readouterr().out
    if out:
        with capsys.disabled():
            print(out, end="")
