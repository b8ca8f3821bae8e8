import numpy as np
import pytest

from phaseret.cork import AdmmOptions, solve_cork
from phaseret.signals import (MeasurementSet, autocorrelation,
                              correlation_psd_check, doubled_lags,
                              intensity_measure)


def make_instance(seed, n, m_mult=4):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n) + 1j * rng.normal(size=n)
    return x, MeasurementSet(intensity_measure(x, m_mult * n), n)


def test_noiseless_fit_reaches_zero():
    x, ms = make_instance(0, 16)
    r, diag = solve_cork(ms)
    assert diag.converged
    assert diag.fit <= 1e-12 * np.dot(ms.b, ms.b)
    want = autocorrelation(x)
    assert np.abs(r - want).max() <= 1e-6 * want[0].real


def test_scalar_instance():
    # N = 1: b is flat at |x0|^2, solution r = [|x0|^2]
    r, diag = solve_cork(MeasurementSet(np.full(4, 9.0), 1))
    assert r[0] == pytest.approx(9.0, abs=1e-10)
    assert diag.fit <= 1e-18


def test_single_iterate_matches_hand_computation():
    # N = 3, M = 7, L = 8: recompute one ADMM sweep, its residuals and the
    # lag-zero lift with explicit matrices.
    rng = np.random.default_rng(11)
    b = rng.exponential(1.0, size=7)  # a draw whose spectrum dips below 0
    n, m, l = 3, 7, 8
    rho = m / l
    r, diag = solve_cork(MeasurementSet(b, n), AdmmOptions(l=l, max_iters=1))

    fl = np.exp(-2j * np.pi * np.outer(np.arange(l), np.arange(n)) / l)
    fm = np.exp(-2j * np.pi * np.outer(np.arange(m), np.arange(n)) / m)
    itil = np.diag(doubled_lags(np.ones(n)))
    r0 = fm.conj().T @ b / m
    r0[0] = r0[0].real
    z0 = np.maximum(0.0, (fl @ (itil @ r0)).real)
    u0 = np.zeros(l)
    r_want = (fm.conj().T @ b + rho * fl.conj().T @ (z0 - u0)) / (m + rho * l)
    r_want[0] = r_want[0].real
    spec = (fl @ (itil @ r_want)).real
    z_want = np.maximum(0.0, spec + u0)
    primal = np.linalg.norm(spec - z_want)
    dual = rho * np.linalg.norm(itil @ fl.conj().T @ (z_want - z0))
    lift = max(0.0, -spec.min())
    r_want[0] += lift

    assert diag.iters == 1
    assert lift > 0.0 and diag.feasibility_lift == pytest.approx(lift, abs=1e-12)
    assert np.abs(r - r_want).max() <= 1e-12
    assert diag.primal == pytest.approx(primal, rel=1e-12, abs=1e-12)
    assert diag.dual == pytest.approx(dual, rel=1e-12, abs=1e-12)


def explicit_admm(b, n, l, iters, real_signal=False):
    """ADMM on dense real matrices over (Re r, Im r); A^*(z - u) formed densely.

    Returns ``(r, primal, dual)`` after ``iters`` sweeps and the lag-zero lift.
    """
    m = b.size
    rho = m / l

    def real_map(k):
        f = np.exp(-2j * np.pi * np.outer(np.arange(k), np.arange(n)) / k)
        a = f @ np.diag(doubled_lags(np.ones(n)))
        return np.hstack((a.real, -a.imag))     # Re{F_k I~ r} on (Re r, Im r)

    def constrain(v):
        v = v.copy()
        v[n] = 0.0                              # Im r0
        if real_signal:
            v[n:] = 0.0
        return v

    am, al = real_map(m), real_map(l)
    normal = am.T @ am + rho * al.T @ al
    fm = np.exp(-2j * np.pi * np.outer(np.arange(m), np.arange(n)) / m)
    r0 = fm.conj().T @ b / m
    v = constrain(np.r_[r0.real, r0.imag])
    z = np.maximum(0.0, al @ v)
    u = np.zeros(l)
    for _ in range(iters):
        rhs = am.T @ b + rho * al.T @ (z - u)
        v = constrain(np.linalg.lstsq(normal, rhs, rcond=1e-12)[0])
        spec = al @ v
        z_prev = z
        z = np.maximum(0.0, spec + u)
        u = u + spec - z
    primal = np.linalg.norm(spec - z)
    dual = rho * np.linalg.norm(al.T @ (z - z_prev))
    r = v[:n] + 1j * v[n:]
    r[0] += max(0.0, -spec.min())
    return r, primal, dual


@pytest.mark.parametrize("m,real_signal", [(7, False), (7, True), (5, False)])
def test_three_iterates_match_explicit_admm(m, real_signal):
    # after the first sweep u != 0, so a wrong running I~ F_L^H u shows in r
    # and in both residuals; M = 5 < 2N takes the CG r-update
    n, l = 3, 8
    rng = np.random.default_rng(11)
    b = rng.exponential(1.0, size=m)
    ms = MeasurementSet(b, n, real_signal=real_signal)
    r, diag = solve_cork(ms, AdmmOptions(l=l, max_iters=3, tol_abs=0.0,
                                         tol_rel=0.0))
    r_want, primal, dual = explicit_admm(b, n, l, 3, real_signal)

    assert diag.iters == 3 and diag.underdetermined == (m < 2 * n)
    assert np.abs(r - r_want).max() <= 1e-9 * np.abs(r_want).max()
    assert diag.primal == pytest.approx(primal, rel=1e-9, abs=1e-12)
    assert diag.dual == pytest.approx(dual, rel=1e-9, abs=1e-12)


def test_one_iteration_costs_two_real_ffts(monkeypatch):
    # one spectrum (irfft) and one adjoint (rfft) per iteration; I~ F_L^H u
    # is carried without a transform
    rng = np.random.default_rng(4)
    ms = MeasurementSet(rng.exponential(1.0, size=40), 10)
    opts = dict(l=64, tol_abs=0.0, tol_rel=0.0)
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("fft", "ifft", "rfft", "irfft"):
        monkeypatch.setattr(np.fft, name, counted(getattr(np.fft, name)))
    runs = []
    for iters in (5, 6):
        calls.clear()
        _, diag = solve_cork(ms, AdmmOptions(max_iters=iters, **opts))
        assert diag.iters == iters and not diag.converged
        runs.append(list(calls))
    assert len(runs[1]) - len(runs[0]) == 2
    assert sorted(runs[1]) == sorted(runs[0] + ["irfft", "rfft"])


@pytest.mark.parametrize("m", [6, 4])
def test_fewer_measurements_than_lags(m):
    # M < N folds the measurement rows; the adjoint must fold back
    rng = np.random.default_rng(10 + m)
    b = rng.uniform(0.5, 1.5, size=m)
    r, diag = solve_cork(MeasurementSet(b, 8))
    assert r.shape == (8,) and np.all(np.isfinite(r))
    assert diag.underdetermined
    assert diag.fit <= np.dot(b, b)


def test_least_squares_initialization_solves_noiseless():
    # for M >= 2N the first iterate is already the unconstrained optimum,
    # so a realizable b converges essentially immediately
    _, ms = make_instance(1, 8, m_mult=2)
    _, diag = solve_cork(ms)
    assert diag.iters <= 3


@pytest.mark.parametrize("seed", range(4))
def test_feasibility_at_exit(seed):
    rng = np.random.default_rng(seed)
    b = rng.uniform(0.0, 1.0, size=64)  # generic b: no exact factorization
    r, diag = solve_cork(MeasurementSet(b, 16))
    min_val, _, _ = correlation_psd_check(r, diag.l)
    assert min_val >= -1e-8 * max(r[0].real, 1.0)


def test_fit_optimality_against_random_candidates():
    # the returned fit must beat the fit of any random candidate signal
    rng = np.random.default_rng(5)
    b = rng.uniform(0.0, 1.0, size=48)
    _, diag = solve_cork(MeasurementSet(b, 12))
    for _ in range(50):
        x = rng.normal(size=12) + 1j * rng.normal(size=12)
        x *= np.sqrt(b.sum() / 48) / np.linalg.norm(x)
        d = b - intensity_measure(x, 48)
        assert diag.fit <= np.dot(d, d) + 1e-9 * np.dot(b, b)


def test_scale_equivariance():
    _, ms = make_instance(6, 10)
    r1, _ = solve_cork(ms)
    r2, _ = solve_cork(MeasurementSet(4.0 * ms.b, 10))
    assert np.abs(r2 - 4.0 * r1).max() <= 1e-6 * r2[0].real


def test_real_mode_returns_real_correlation():
    rng = np.random.default_rng(7)
    x = rng.normal(size=9)
    ms = MeasurementSet(intensity_measure(x, 36), 9, real_signal=True)
    r, _ = solve_cork(ms)
    assert np.abs(r.imag).max() == 0.0
    want = autocorrelation(x).real
    assert np.abs(r.real - want).max() <= 1e-6 * want[0]


def test_underdetermined_cg_path():
    # M < 2N exercises the conjugate-gradient solve for the r-update
    x, ms = make_instance(8, 12, m_mult=1)
    assert ms.m == 12 < 24
    r, diag = solve_cork(ms)
    assert diag.underdetermined
    assert diag.fit <= 1e-8 * np.dot(ms.b, ms.b)


def test_cg_failure_is_not_converged(monkeypatch):
    # a CG solve that stops short (info > 0) with a finite iterate
    monkeypatch.setattr("phaseret.cork.cg",
                        lambda op, rhs, x0, **kwargs: (x0, 1))
    _, ms = make_instance(8, 12, m_mult=1)
    _, diag = solve_cork(ms, AdmmOptions(max_iters=5))
    assert diag.underdetermined
    assert not diag.converged
    assert diag.cg_failures == diag.iters
    assert diag.to_json()["cg_failures"] == diag.iters


def test_residual_history_and_iters_to():
    rng = np.random.default_rng(9)
    b = rng.uniform(0.0, 1.0, size=64)
    _, diag = solve_cork(MeasurementSet(b, 16))
    k = diag.iters_to(1e-4)
    assert k is not None and 1 <= k <= diag.iters
    primal, dual, scale = diag.residual_history[k - 1]
    thresh = 1e-10 * np.sqrt(diag.l) + 1e-4 * scale
    assert primal <= thresh and dual <= thresh


def test_rejects_bad_transform_length():
    with pytest.raises(ValueError):
        solve_cork(MeasurementSet(np.ones(8), 2), AdmmOptions(l=100))
    with pytest.raises(ValueError):
        solve_cork(MeasurementSet(np.ones(8), 2), AdmmOptions(l=2))
