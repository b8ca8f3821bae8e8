import dataclasses
import itertools
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize

import phaseret
from phaseret.cork import (VIOLATION_TOL, AdmmOptions, CorkDiagnostics,
                           _nonnegative_qp, _violations, _working_set_kernel,
                           solve_cork)
from phaseret.sdp import _fista
from phaseret.signals import (MeasurementSet, autocorrelation,
                              check_transform_length, coarse_transform_length,
                              correlation_adjoint, correlation_psd_check,
                              correlation_spectrum, doubled_lags,
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


def explicit_maps(n, m, l):
    """Dense F_M, F_L (first N columns) and I~ for N-lag correlations."""
    def f(k):
        return np.exp(-2j * np.pi * np.outer(np.arange(k), np.arange(n)) / k)
    return f(m), f(l), np.diag(doubled_lags(np.ones(n)))


def test_single_iterate_matches_hand_computation():
    # N = 3, M = 7, L = 8: recompute the first exchange step with explicit
    # matrices: the local minima of the least-squares spectrum that join
    # the working set, the nonnegative QP on them (by enumerating its
    # supports), the primal point, the lag-zero lift and the duality gap.
    rng = np.random.default_rng(279)
    b = rng.exponential(1.0, size=7)  # a first step that leaves a dip
    n, m, l = 3, 7, 8
    r, diag = solve_cork(MeasurementSet(b, n), AdmmOptions(l=l, max_iters=1))

    fm, fl, itil = explicit_maps(n, m, l)
    w = np.diag(itil).real
    r_ls = fm.conj().T @ b / m
    r_ls[0] = r_ls[0].real
    spec_ls = (fl @ itil @ r_ls).real
    added = [j for j in range(l) if spec_ls[j] < 0.0
             and spec_ls[j] <= min(spec_ls[j - 1], spec_ls[(j + 1) % l])]
    hess = (fl @ itil @ fl.conj().T).real / (2 * m)   # A_L W^-1 A_L^* / (2M)
    lam = None
    for size in range(1, len(added) + 1):
        for support in map(list, itertools.combinations(added, size)):
            cand = np.zeros(l)
            cand[support] = np.linalg.solve(hess[np.ix_(support, support)],
                                            -spec_ls[support])
            if (cand[support] > 0).all() and (
                    hess @ cand + spec_ls)[added].min() >= -1e-12:
                lam = cand
    v = itil @ fl.conj().T @ lam
    v[0] = v[0].real
    r_want = r_ls + v / (2 * m * w)
    lift = max(0.0, -(fl @ itil @ r_want).real.min())
    r_want[0] += lift
    fit = np.sum((b - (fm @ itil @ r_want).real) ** 2)
    c0 = b @ b - m * np.sum(w * np.abs(r_ls) ** 2)
    h = np.sum(np.abs(v) ** 2 / w) / (4 * m) + lam @ spec_ls

    assert diag.iters == 1 and not diag.converged
    assert len(added) == 2 and diag.active == np.count_nonzero(lam) == 2
    assert np.abs(v.imag).max() > 0.0
    assert lift > 0.0 and diag.feasibility_lift == pytest.approx(lift, abs=1e-12)
    assert np.abs(r - r_want).max() <= 1e-12
    assert diag.fit == pytest.approx(fit, rel=1e-12)
    assert diag.gap == pytest.approx(fit - (c0 - h), rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("real_signal", [False, True])
@pytest.mark.parametrize("n,l", [(3, 8), (5, 8), (3, 16), (5, 16)])
def test_working_set_kernel_matches_dense_hessian(n, l, real_signal):
    # the QP Hessian K_S / (2M) against A_L W^-1 constrain(A_L^* .) / (2M),
    # on a set with adjacent grid points, 0, L/2 and mirrored pairs (w, -w).
    # A real signal's constrain keeps Re A_L^* lam, the adjoint of lam's
    # mirror average, so there K_S acts as the dense Hessian on multipliers
    # equal at w and -w, as an exchange on even data keeps them
    m = 2 * n
    _, fl, itil = explicit_maps(n, m, l)
    w = np.diag(itil).real
    v = itil @ fl.conj().T                          # A_L^* of unit vectors
    if real_signal:
        v = v.real.astype(complex)
    v[0] = v[0].real
    dense = (fl @ itil @ (v / w[:, None])).real / (2 * m)
    s = np.array([0, 1, 2, 3, l // 2, l - 3, l - 2, l - 1])
    got = _working_set_kernel(s, n, l) / (2 * m)
    want = dense[np.ix_(s, s)]
    if real_signal:
        mu = np.random.default_rng(n + l).uniform(0.5, 1.5, size=l)
        mu = (mu + mu[-np.arange(l) % l])[s]
        got, want = got @ mu, want @ mu
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def dense_reference(b, n, l, real_signal):
    """The sampled program on dense real matrices over (Re r, Im r).

    Solved by SLSQP.
    """
    fm, fl, itil = explicit_maps(n, b.size, l)

    def real_map(f):
        a = f @ itil
        return np.hstack((a.real, -a.imag))     # Re{F I~ r} on (Re r, Im r)

    # Im r0 is zero; a real signal has a real correlation
    free = [i for i in range(2 * n) if i < n or (i > n and not real_signal)]
    am, al = real_map(fm)[:, free], real_map(fl)[:, free]
    res = minimize(lambda u: np.sum((b - am @ u) ** 2), np.zeros(len(free)),
                   jac=lambda u: -2.0 * am.T @ (b - am @ u), method="SLSQP",
                   constraints=[{"type": "ineq", "fun": lambda u: al @ u,
                                 "jac": lambda u: al}],
                   options={"ftol": 1e-16, "maxiter": 1000})
    v = np.zeros(2 * n)
    v[free] = res.x
    return v[:n] + 1j * v[n:]


@pytest.mark.parametrize("real_signal", [False, True])
def test_matches_dense_reference(real_signal):
    # a draw whose binding samples couple Re r and Im r
    n, m, l = 3, 7, 8
    b = np.random.default_rng(28).exponential(1.0, size=m)
    ms = MeasurementSet(b, n, real_signal=real_signal)
    r, diag = solve_cork(ms, AdmmOptions(l=l))
    r_want = dense_reference(b, n, l, real_signal)

    assert diag.converged and diag.iters > 0
    assert np.abs(r - r_want).max() <= 1e-8
    assert 0.0 <= diag.feasibility_lift <= 1e-10
    assert correlation_psd_check(r, l)[0] >= -1e-12


def test_one_iteration_costs_two_real_ffts(monkeypatch):
    # one exchange step forms r(lam) by one adjoint (rfft) and its spectrum
    # by one irfft; the working-set QP takes none
    rng = np.random.default_rng(1)
    ms = MeasurementSet(rng.exponential(1.0, size=130), 32)  # needs 3 steps
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("fft", "ifft", "rfft", "irfft"):
        monkeypatch.setattr(np.fft, name, counted(getattr(np.fft, name)))
    runs = []
    for iters in (1, 2):
        calls.clear()
        _, diag = solve_cork(ms, AdmmOptions(max_iters=iters))
        assert diag.iters == iters and not diag.converged
        runs.append(list(calls))
    assert len(runs[1]) - len(runs[0]) == 2
    assert sorted(runs[1]) == sorted(runs[0] + ["irfft", "rfft"])


@pytest.mark.parametrize("m", [4, 6, 15])
def test_fewer_than_2n_measurements_raise(m):
    # below M = 2N the normal operator A_M^* A_M is not diagonal
    b = np.random.default_rng(10 + m).uniform(0.5, 1.5, size=m)
    with pytest.raises(ValueError, match="2N"):
        solve_cork(MeasurementSet(b, 8))
    _, diag = solve_cork(MeasurementSet(np.resize(b, 16), 8))
    assert diag.converged


def test_least_squares_initialization_solves_noiseless():
    # for M >= 2N the least-squares fit of a realizable b has a nonnegative
    # spectrum, so lam = 0 is optimal and no iteration runs
    _, ms = make_instance(1, 8, m_mult=2)
    _, diag = solve_cork(ms)
    assert diag.iters == 0 and diag.converged
    assert diag.gap == 0.0 and diag.feasibility_lift == 0.0


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


def test_converges_on_generic_uniform_b():
    # generic uniform b at the default L, where the constraint binds
    b = np.random.default_rng(204).uniform(0, 1, 48)
    _, diag = solve_cork(MeasurementSet(b, 12))
    assert diag.converged and 0 < diag.iters < 10000
    assert diag.fit == pytest.approx(1.4826865, rel=1e-7)


@pytest.mark.parametrize("seed,real_signal", [(1, False), (4, False),
                                              (1, True)])
def test_duality_gap_bounds_excess(seed, real_signal):
    # speckle draws on which the constraint binds; the gap of a solve
    # stopped after one exchange step bounds the excess of its fit over a
    # tightly solved reference
    b = np.random.default_rng(seed).exponential(1.0, size=130)
    ms = MeasurementSet(b, 32, real_signal=real_signal)
    b2 = np.dot(b, b)
    _, diag = solve_cork(ms, AdmmOptions(max_iters=1))
    _, ref = solve_cork(ms, AdmmOptions(max_iters=100000))
    assert diag.iters > 0 and ref.converged
    assert diag.gap >= diag.fit - ref.fit - 1e-12 * b2
    assert diag.gap > 1e-9 * b2
    assert 0.0 <= ref.gap <= 1e-8 * b2
    assert diag.to_json()["gap"] == diag.gap


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


@pytest.mark.parametrize("n", [32, 128])
def test_real_solve_is_the_complex_solve_of_the_even_part(n):
    # a real signal's intensities are even, b_m = b_{M-m}, and on even data
    # the optimum equals its own conjugate: the real solve of speckle b is
    # the complex-mode solve of b's even part, and the odd part, orthogonal
    # to every even spectrum, adds its squared norm to the fit
    rng = np.random.default_rng(n)
    binding = 0
    for _ in range(5):
        b = rng.exponential(1.0, size=4 * n + 4)
        even = (b + b[-np.arange(b.size) % b.size]) / 2
        r, diag = solve_cork(MeasurementSet(b, n, real_signal=True))
        r_even, diag_even = solve_cork(MeasurementSet(even, n))
        assert diag.converged and diag_even.converged
        assert np.abs(r.imag).max() == 0.0
        assert np.abs(r - r_even).max() <= 1e-12 * r_even[0].real
        assert abs(diag.fit - diag_even.fit - np.sum((b - even) ** 2)) \
            <= 1e-12 * np.dot(b, b)
        binding += diag.iters > 0
    assert binding >= 2


def test_diagnostics_json_keys_are_the_fields_in_order():
    _, diag = solve_cork(MeasurementSet(
        np.random.default_rng(1).exponential(1.0, 130), 32))
    fields = [f.name for f in dataclasses.fields(CorkDiagnostics)]
    assert list(diag.to_json()) == fields
    assert list(CorkDiagnostics().to_json()) == fields
    assert diag.to_json() == {name: getattr(diag, name) for name in fields}


def augmented_noisy_rows(rng, n, m, count, real_signal=False):
    """Intensities of [3N, s] plus noise: the impulse keeps the constraint
    slack, so these rows take the lam = 0 exit."""
    rows = []
    for _ in range(count):
        s = rng.normal(size=n - 1) + (0 if real_signal else 1j) * rng.normal(size=n - 1)
        rows.append(intensity_measure(np.r_[3.0 * n, s], m)
                    + rng.normal(scale=n, size=m))
    return rows


@pytest.mark.parametrize("rows", [1, 3])
def test_certified_rows_take_no_length_l_transform(monkeypatch, rows):
    # the coarse-grid certificate settles augmented rows at lam = 0 without
    # the length-L spectrum: every transform is shorter than L
    n, m = 33, 136
    l = check_transform_length(n, None)
    b = augmented_noisy_rows(np.random.default_rng(5), n, m, rows)
    ms = MeasurementSet(b[0] if rows == 1 else np.array(b), n)
    want = reference_solve(ms, AdmmOptions())
    lengths = []

    def counted(fn):
        def wrapper(a, length=None, *args, **kwargs):
            lengths.append(np.shape(a)[-1] if length is None else length)
            return fn(a, length, *args, **kwargs)
        return wrapper

    for name in ("fft", "ifft", "rfft", "irfft"):
        monkeypatch.setattr(np.fft, name, counted(getattr(np.fft, name)))
    r, diags = solve_cork(ms)
    assert lengths and max(lengths) < l
    assert np.array_equal(np.atleast_2d(r), want[0])
    diags = diags if rows > 1 else [diags]
    assert [d.to_json() for d in diags] == [d.to_json() for d in want[1]]
    assert all(d.iters == 0 and d.converged for d in diags)


@pytest.mark.parametrize("real_signal", [False, True])
def test_certified_rows_equal_the_reference_at_every_l(monkeypatch,
                                                       real_signal):
    # the coarse-grid certificate runs at every L, also at or below the
    # coarse length: a row it settles gets no length-L spectrum and takes the
    # lam = 0 exit that the reference reaches on the L samples, alone or
    # stacked
    n, m = 17, 72
    coarse = coarse_transform_length(n)
    rows = augmented_noisy_rows(np.random.default_rng(5), n, m, 3, real_signal)
    spectrum, lengths = phaseret.cork.correlation_spectrum, []
    monkeypatch.setattr(phaseret.cork, "correlation_spectrum",
                        lambda r, k: lengths.append(k) or spectrum(r, k))
    for l in (64, coarse // 2, coarse):  # 64: the power of two >= 2N
        opts = AdmmOptions(l=l)
        for b in (*rows, np.array(rows)):
            ms = MeasurementSet(b, n, real_signal=real_signal)
            lengths.clear()
            r, diags = solve_cork(ms, opts)
            assert lengths == [coarse, m]
            r_want, want = reference_solve(ms, opts)
            assert np.array_equal(np.atleast_2d(r), r_want)
            diags = diags if b.ndim > 1 else [diags]
            assert [d.to_json() for d in diags] == [d.to_json() for d in want]
            assert all(d.iters == 0 and d.l == l for d in diags)


@pytest.mark.parametrize("real_signal", [False, True])
def test_rows_nonnegative_on_the_l_grid_take_no_exchange_step(monkeypatch,
                                                              real_signal):
    # noiseless direct rows: |S|^2 dips too close to zero for the coarse-grid
    # certificate but is nonnegative on the L samples, so lam = 0 is optimal
    # and the exchange loop's first pass returns it, alone or stacked
    spectrum, lengths = phaseret.cork.correlation_spectrum, []
    monkeypatch.setattr(phaseret.cork, "correlation_spectrum",
                        lambda r, k: lengths.append(k) or spectrum(r, k))
    for n in (2, 5, 16, 64):
        l, picked = check_transform_length(n, None), []
        for seed in range(12):
            x, _ = make_instance(seed, n)
            ms = MeasurementSet(intensity_measure(x.real if real_signal else x,
                                                  4 * n), n,
                                real_signal=real_signal)
            lengths.clear()
            r, diag = solve_cork(ms)
            if l not in lengths or diag.feasibility_lift != 0.0:
                continue
            picked.append(ms.b)
            r_want, want = reference_solve(ms, AdmmOptions())
            assert np.array_equal(r, r_want[0])
            assert diag.to_json() == want[0].to_json()
            assert (diag.iters, diag.converged, diag.gap, diag.active) == \
                (0, True, 0.0, 0)
        assert len(picked) >= 2, n
        ms = MeasurementSet(np.array(picked), n, real_signal=real_signal)
        r, diags = solve_cork(ms)
        r_want, want = reference_solve(ms, AdmmOptions())
        assert np.array_equal(r, r_want)
        assert [d.to_json() for d in diags] == [d.to_json() for d in want]


def test_rejects_bad_transform_length():
    with pytest.raises(ValueError):
        solve_cork(MeasurementSet(np.ones(8), 2), AdmmOptions(l=100))
    with pytest.raises(ValueError):
        solve_cork(MeasurementSet(np.ones(8), 2), AdmmOptions(l=2))


@pytest.mark.parametrize("max_iters", [-1, True, 2.5])
def test_rejects_a_step_cap_that_is_not_a_count(max_iters):
    # each of these was accepted and the solve ran
    with pytest.raises(ValueError, match=f"^max_iters must be an integer "
                                         f">= 0, got {max_iters}$"):
        AdmmOptions(max_iters=max_iters)


@pytest.mark.parametrize("real_signal", [False, True])
def test_stacked_rows_equal_single_row_solves(real_signal):
    # augmented noisy rows exit at lam = 0; the speckle row (a draw that
    # iterates in both modes) has to iterate
    n, m = 17, 72
    rows = augmented_noisy_rows(np.random.default_rng(31), n, m, 4, real_signal)
    rows.insert(2, np.random.default_rng(11).exponential(float(n) ** 2, size=m))
    opts = AdmmOptions(l=256)
    r, diags = solve_cork(MeasurementSet(np.array(rows), n,
                                         real_signal=real_signal), opts)
    assert r.shape == (5, n) and len(diags) == 5
    for k, b in enumerate(rows):
        r_k, diag_k = solve_cork(MeasurementSet(b, n, real_signal=real_signal),
                                 opts)
        assert np.array_equal(r[k], r_k)
        assert diags[k] == diag_k
    assert diags[2].iters > 0 and diags.iters == diags[2].iters
    assert diags.converged and all(d.converged for d in diags)
    assert [d.iters for d in diags].count(0) == 4


def fista_reference_fit(ms, l, tol_rel):
    """Fit of the dual of the sampled program solved by accelerated
    projected gradient over all L multipliers, then lifted to feasibility."""
    n, m = ms.n, ms.m
    w = doubled_lags(np.ones(n)).real
    r_ls = correlation_adjoint(ms.b, n) / (m * w)
    r_ls[0] = r_ls[0].real

    def primal(lam):
        return r_ls + correlation_adjoint(lam, n) / (2 * m * w)

    tol = tol_rel * np.linalg.norm(correlation_spectrum(r_ls, l))
    lam, converged, _ = _fista(lambda y: correlation_spectrum(primal(y), l),
                               l / (2 * m), np.zeros(l),
                               lambda y: np.maximum(y, 0.0), 100000, tol)
    assert converged
    r = primal(lam)
    r[0] += max(0.0, -correlation_spectrum(r, l).min())
    return np.sum((ms.b - correlation_spectrum(r, m)) ** 2)


def test_binding_speckle_needs_no_lag_zero_lift():
    # speckle at N = 128 and M = 516, where the constraint binds: the fit is
    # the sampled optimum itself, not an inexact iterate raised onto
    # feasibility by a lag-zero lift
    rng = np.random.default_rng(52)
    for _ in range(12):
        ms = MeasurementSet(rng.exponential(1.0, size=516), 128)
        r, diag = solve_cork(ms)
        assert diag.converged
        assert diag.feasibility_lift <= 1e-6 * r[0].real
        assert diag.fit <= (fista_reference_fit(ms, diag.l, 1e-9)
                            + 1e-8 * np.dot(ms.b, ms.b))


@pytest.mark.parametrize("failing_step", [0, 1])
def test_failed_qp_step_keeps_the_previous_steps_multipliers(monkeypatch,
                                                            failing_step):
    # a QP that reports a singular kernel ends the solve unconverged, with
    # r, the lift, the gap and the working set all from the last good step
    from phaseret import cork
    ms = MeasurementSet(np.random.default_rng(1).exponential(1.0, 130), 32)
    r_cap, cap = solve_cork(ms, AdmmOptions(max_iters=failing_step))
    solve, calls = cork._nonnegative_qp, []

    def failing(*args):
        calls.append(None)
        return None if len(calls) > failing_step else solve(*args)

    monkeypatch.setattr(cork, "_nonnegative_qp", failing)
    r, diag = solve_cork(ms)
    assert len(calls) == failing_step + 1
    assert not diag.converged and not cap.converged
    assert np.array_equal(r, r_cap)
    assert diag.to_json() == cap.to_json()
    assert (diag.active == 0) == (failing_step == 0)


def test_import_loads_no_scipy():
    # scipy.linalg alone about doubles the start-up time and resident size
    # of a bare import of the package and its CLI
    src = str(Path(phaseret.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); "
         "import phaseret, phaseret.cli; print(sorted(m for m in sys.modules "
         "if m == 'scipy' or m.startswith('scipy.')))", src],
        capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


# Test-local copies of the exchange step as first written, with np.ix_ for
# the free block, np.roll for the neighbours, np.setdiff1d for the joining
# samples and np.r_ for the grown set; solve_cork must reproduce it bit for
# bit.

def reference_qp(k, c, mu, tol):
    free = mu > 0
    for _ in range(3 * mu.size + 1):
        grad = k @ mu + c
        grad[free] = np.inf
        j = np.argmin(grad)
        if grad[j] >= -tol:
            break
        free[j] = True
        while True:
            z = np.zeros_like(mu)
            try:
                z[free] = np.linalg.solve(k[np.ix_(free, free)], -c[free])
            except np.linalg.LinAlgError:
                return None
            if np.all(z[free] > 0):
                mu = z
                break
            blocked = np.flatnonzero(free & (z <= 0))
            step = mu[blocked] / (mu[blocked] - z[blocked])
            mu = mu + step.min() * (z - mu)
            mu[blocked[np.argmin(step)]] = 0.0
            free &= mu > 0
    return mu


def reference_violations(spec, tol):
    low = (spec < -tol) & (spec <= np.roll(spec, 1)) & (spec <= np.roll(spec, -1))
    return np.flatnonzero(low)


def reference_solve(b, opts):
    n, m = b.n, b.m
    l = check_transform_length(n, opts.l)

    def constrain(r):
        if b.real_signal:
            r = r.real.astype(complex)
        r[..., 0] = r[..., 0].real
        return r

    rows = np.atleast_2d(np.asarray(b.b, dtype=float))
    w = doubled_lags(np.ones(n)).real
    r_ls = constrain(correlation_adjoint(rows, n) / (m * w))
    spec_ls = correlation_spectrum(r_ls, l)
    r, diags = r_ls.copy(), []
    for k in range(len(rows)):
        tol = VIOLATION_TOL * np.abs(spec_ls[k]).max()
        spec, s, mu = spec_ls[k], np.zeros(0, dtype=int), np.zeros(0)
        lam, iters, converged = np.zeros(l), 0, True
        while spec_ls[k].min() < 0.0:
            new = np.setdiff1d(reference_violations(spec, tol), s)
            converged = new.size == 0
            if converged or iters == opts.max_iters:
                break
            grown = np.r_[s, new]
            step = reference_qp(_working_set_kernel(grown, n, l),
                                spec_ls[k, grown], np.r_[mu, np.zeros(new.size)],
                                tol / 2)
            if step is None or not (step[s.size:] > 0).any():
                break
            s, mu = grown[step > 0], step[step > 0]
            lam[:] = 0.0
            lam[s] = 2 * m * mu
            r[k] = r_ls[k] + constrain(correlation_adjoint(lam, n)) / (2 * m * w)
            spec = correlation_spectrum(r[k], l)
            iters += 1
        lift = max(0.0, -float(spec.min()))
        r[k, 0] += lift
        fit = float(np.linalg.norm(rows[k] - correlation_spectrum(r[k], m)) ** 2)
        diags.append(CorkDiagnostics(
            iters=iters, fit=fit, l=l, converged=converged,
            feasibility_lift=lift,
            gap=float(lam @ (spec + lift) + m * lift ** 2), active=s.size))
    return r, diags


def iterating_draws(kind, n, count, real_signal=False):
    """The first ``count`` draws of b (M = 4N + 4, seeds 0, 1, ...) on which
    the constraint binds, so that the exchange loop runs."""
    rows, seed = [], 0
    while len(rows) < count:
        rng = np.random.default_rng(seed)
        b = (rng.exponential(1.0, size=4 * n + 4) if kind == "speckle"
             else rng.uniform(0.0, 1.0, size=4 * n + 4))
        seed += 1
        ms = MeasurementSet(b, n, real_signal=real_signal)
        if solve_cork(ms)[1].iters > 0:
            rows.append(b)
    return rows


@pytest.mark.parametrize("kind,n,real_signal,count,max_iters", [
    ("speckle", 128, False, 3, 10000), ("uniform", 32, False, 4, 10000),
    ("speckle", 32, True, 3, 10000), ("speckle", 128, True, 2, 10000),
    ("speckle", 128, False, 1, 1), ("speckle", 512, False, 1, 10000),
    ("speckle", 512, True, 1, 10000)])
def test_exchange_bit_identical_to_reference_loop(kind, n, real_signal, count,
                                                  max_iters):
    opts = AdmmOptions(max_iters=max_iters)
    for b in iterating_draws(kind, n, count, real_signal=real_signal):
        ms = MeasurementSet(b, n, real_signal=real_signal)
        r, diag = solve_cork(ms, opts)
        assert diag.iters >= 1  # the exchange, real or complex, takes a step
        r_want, want = reference_solve(ms, opts)
        assert np.array_equal(r, r_want[0])
        assert diag.to_json() == want[0].to_json()


def test_stacked_exchange_bit_identical_to_reference_loop():
    # the iterating rows, two augmented rows that the coarse-grid
    # certificate settles, and x = [1, 1] (zero padded), whose spectrum
    # 2 + 2 cos w touches zero, so that it cannot be certified
    b = np.array(iterating_draws("speckle", 32, 2) + iterating_draws("uniform", 32, 1)
                 + augmented_noisy_rows(np.random.default_rng(3), 32, 132, 2)
                 + [intensity_measure(np.r_[1.0, 1.0, np.zeros(30)], 132)])
    ms = MeasurementSet(b, 32)
    r, diags = solve_cork(ms)
    r_want, want = reference_solve(ms, AdmmOptions())
    assert np.array_equal(r, r_want)
    assert [d.to_json() for d in diags] == [d.to_json() for d in want]


def test_violations_match_the_roll_form():
    # circular local minima below -tol, at both ends of the grid and on
    # equal-neighbour plateaus (both samples kept)
    rng = np.random.default_rng(17)
    spectra = [rng.normal(size=64) for _ in range(20)]
    first, last = rng.normal(size=64) + 3.0, rng.normal(size=64) + 3.0
    first[0], last[-1] = -2.0, -1.0
    plateau = np.ones(32)
    plateau[5:7] = plateau[8] = -1.0        # two equal neighbours, a single
    plateau[30:32] = plateau[0] = -0.5      # a plateau across the wrap
    spectra += [first, last, plateau, np.round(rng.normal(size=64), 1)]
    for spec in spectra:
        for tol in (0.0, 0.5):
            got = _violations(spec, tol)
            want = reference_violations(spec, tol)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
    assert _violations(first, 0.0)[0] == 0
    assert _violations(last, 0.0)[-1] == 63
    assert set(_violations(plateau, 0.0)) == {0, 5, 6, 8, 30, 31}


def test_no_violation_is_an_empty_integer_array():
    # an empty result keeps the working set integer when it is appended
    for spec in (np.ones(16), np.r_[-1e-13, np.ones(15)]):
        got = _violations(spec, 1e-12)
        assert got.size == 0 and got.dtype.kind == "i"
        assert np.concatenate((np.array([3]), got)).dtype.kind == "i"


@pytest.mark.parametrize("half_range", [False, True])
@pytest.mark.parametrize("seed", range(6))
def test_nonnegative_qp_meets_kkt(seed, half_range):
    # mu >= 0, and the gradient k mu + c is >= -tol where mu = 0 and within
    # tol of zero where mu > 0, on Dirichlet blocks over random grid sets,
    # drawn from the whole circle or from 0..L/2 only (a denser draw):
    # from a cold start, then warm from that solution with samples appended
    # at zero, as an exchange step grows the working set
    rng = np.random.default_rng(seed)
    n, l = 16, 128
    hi = l // 2 + 1 if half_range else l
    s = rng.choice(hi, size=rng.integers(6, 16), replace=False)
    k = _working_set_kernel(s, n, l)
    c = rng.normal(size=s.size) * k.diagonal().max()
    tol = 1e-9 * np.abs(c).max()
    half = s.size // 2
    cold = _nonnegative_qp(k[:half, :half], c[:half], np.zeros(half), tol)
    warm = np.concatenate((cold, np.zeros(s.size - half)))
    for kk, cc, mu0 in ((k[:half, :half], c[:half], np.zeros(half)),
                        (k, c, warm)):
        mu = _nonnegative_qp(kk, cc, mu0.copy(), tol)
        assert np.array_equal(mu, reference_qp(kk, cc, mu0.copy(), tol))
        grad = kk @ mu + cc
        assert (mu >= 0).all() and (mu > 0).any()
        assert (grad[mu == 0] >= -tol).all()
        assert np.abs(grad[mu > 0]).max() <= tol


def test_nonnegative_qp_singular_free_set_returns_none():
    # a duplicated grid index makes K singular on any free set holding both
    s = np.array([3, 3, 10])
    k = _working_set_kernel(s, 8, 32)
    assert _nonnegative_qp(k, -k.diagonal(), np.array([1.0, 1.0, 0.0]),
                           1e-12) is None


def qp_meets_kkt_like_reference(k, c, mu0, tol):
    """_nonnegative_qp from ``mu0`` meets the KKT conditions to ``tol`` and
    keeps the support of the Lawson-Hanson reference; returns its mu."""
    mu = _nonnegative_qp(k, c, mu0.copy(), tol)
    grad = k @ mu + c
    assert (mu >= 0).all() and (grad[mu == 0] >= -tol).all()
    assert np.abs(grad[mu > 0]).max(initial=0.0) <= tol
    assert np.array_equal(mu > 0, reference_qp(k, c, mu0.copy(), tol) > 0)
    return mu


@pytest.mark.parametrize("half_range", [False, True])
def test_nonnegative_qp_meets_kkt_on_large_dirichlet_blocks(half_range):
    # working sets of up to 60 grid indices at N = 64, L = 1024, from the
    # whole circle or from 0..L/2 only, cold and then warm with the other
    # half appended at zero
    n, l = 64, 1024
    hi = l // 2 + 1 if half_range else l
    for seed in range(100):
        rng = np.random.default_rng(seed)
        s = rng.choice(hi, size=rng.integers(8, 61), replace=False)
        k = _working_set_kernel(s, n, l)
        c = rng.normal(size=s.size) * k.diagonal().max()
        tol = 1e-9 * np.abs(c).max()
        half = s.size // 2
        cold = qp_meets_kkt_like_reference(k[:half, :half], c[:half],
                                           np.zeros(half), tol)
        qp_meets_kkt_like_reference(
            k, c, np.concatenate((cold, np.zeros(s.size - half))), tol)


def test_nonnegative_qp_meets_kkt_on_dense_spd_matrices():
    for seed in range(200):
        rng = np.random.default_rng(seed)
        size = rng.integers(2, 61)
        a = rng.normal(size=(size, size))
        k = a @ a.T + 1e-3 * size * np.eye(size)
        c = rng.normal(size=size) * k.diagonal().max()
        qp_meets_kkt_like_reference(k, c, np.zeros(size),
                                    1e-9 * np.abs(c).max())


def test_nonnegative_qp_without_a_solution_returns_none():
    # k = -1, c = -1: mu = 0 has gradient -1 and mu > 0 needs mu = -1, so
    # the free set flips forever; the round cap ends it with None, where
    # an active-set loop at its cap returned the non-KKT point mu = 0
    assert _nonnegative_qp(np.array([[-1.0]]), np.array([-1.0]), np.zeros(1),
                           1e-12) is None


def test_exchange_step_takes_few_dense_solves(monkeypatch):
    # speckle at N = 1024 works on about 180 samples in 3 exchange steps;
    # an active-set QP re-solved the free block 212 times, once per change
    # to it, where block pivoting exchanges every infeasible index at once
    calls = []
    solve = np.linalg.solve

    def counted(*args):
        calls.append(None)
        return solve(*args)

    monkeypatch.setattr(np.linalg, "solve", counted)
    b = np.random.default_rng(1031).exponential(1.0, size=4100)
    _, diag = solve_cork(MeasurementSet(b, 1024))
    assert diag.converged and diag.iters > 0
    assert len(calls) <= 3 * diag.iters


@pytest.mark.parametrize("n,real_signal", [(5, False), (17, True), (32, False)])
def test_stacked_fits_are_squared_residual_norms(n, real_signal):
    # every row's fit comes from one vecdot over the stack's residuals: it
    # keeps the bits of np.linalg.norm(res) ** 2 on that row and of the
    # row's own solve, for rows that iterate and rows that exit at lam = 0
    rng = np.random.default_rng(n)
    m = 4 * n + 4
    rows = []
    while len(rows) < 2:   # speckle draws on which the constraint binds
        b = rng.exponential(size=m)
        if solve_cork(MeasurementSet(b, n, real_signal=real_signal))[1].iters:
            rows.append(b)
    rows += augmented_noisy_rows(rng, n, m, 3, real_signal)
    rows += [rng.uniform(size=m) * 10.0 ** rng.uniform(-6, 6) for _ in range(3)]
    ms = MeasurementSet(np.array(rows), n, real_signal=real_signal)
    r, diags = solve_cork(ms)
    residual = ms.b - correlation_spectrum(r, m)
    for k, b in enumerate(rows):
        assert diags[k].fit == np.linalg.norm(residual[k]) ** 2
        alone = MeasurementSet(b, n, real_signal=real_signal)
        assert diags[k] == solve_cork(alone)[1]
    assert any(d.iters > 0 for d in diags)


def test_random_stacks_fit_as_their_rows_alone():
    # stacks of uniform rows, which may iterate, and augmented rows, which
    # exit at lam = 0, at random N, M and K
    rng = np.random.default_rng(2016)
    for _ in range(20):
        n, k = int(rng.integers(1, 40)), int(rng.integers(1, 6))
        m = int(rng.integers(2 * n, 8 * n + 1))
        b = np.where(rng.uniform(size=(k, 1)) < 0.5, rng.uniform(size=(k, m)),
                     [intensity_measure(np.r_[3.0 * n, rng.normal(size=n - 1)],
                                        m) for _ in range(k)])
        _, diags = solve_cork(MeasurementSet(b, n))
        for row, diag in zip(b, diags):
            assert diag == solve_cork(MeasurementSet(row, n))[1]
