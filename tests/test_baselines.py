import numpy as np
import pytest

from phaseret import baselines
from phaseret.baselines import (GS_REFINE_ITERS, IterativeOptions, fienup_sf,
                                fienup_solve, gs_solve)
from phaseret.signals import MeasurementSet, autocorrelation, intensity_measure
from phaseret.specfact import is_min_phase


def make_instance(seed, n, m_mult=4):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n) + 1j * rng.normal(size=n)
    b = intensity_measure(x, m_mult * n)
    return x, MeasurementSet(b, n)


def fit(x, ms):
    d = np.sqrt(ms.b) - np.abs(np.fft.fft(np.asarray(x, complex), ms.m))
    return float(np.dot(d, d))


@pytest.mark.parametrize("seed", range(5))
def test_gs_cost_is_monotone(seed):
    _, ms = make_instance(seed, 16)
    _, history = gs_solve(ms, IterativeOptions(max_iters=200, seed=seed))
    history = np.asarray(history)
    assert history.size >= 2
    assert np.all(np.diff(history) <= 1e-12 * max(history[0], 1.0))


def test_gs_fixed_point_stays_put():
    x, ms = make_instance(10, 8)
    y0 = np.zeros(ms.m, dtype=complex)
    y0[:8] = x
    xhat, history = gs_solve(ms, IterativeOptions(max_iters=20), y0=y0)
    b_energy = np.dot(ms.b, ms.b)
    assert history[-1] <= 1e-20 * b_energy
    assert np.abs(xhat - x).max() <= 1e-10 * np.abs(x).max()


def test_gs_final_history_entry_matches_returned_signal():
    _, ms = make_instance(11, 12)
    xhat, history = gs_solve(ms, IterativeOptions(max_iters=50, seed=7))
    assert history[-1] == pytest.approx(fit(xhat, ms), rel=1e-12, abs=1e-300)


def test_gs_deterministic_for_fixed_seed():
    _, ms = make_instance(11, 12)
    a1, h1 = gs_solve(ms, IterativeOptions(max_iters=50, seed=7))
    a2, h2 = gs_solve(ms, IterativeOptions(max_iters=50, seed=7))
    np.testing.assert_array_equal(a1, a2)
    np.testing.assert_array_equal(h1, h2)


@pytest.fixture
def transform_calls(monkeypatch):
    """The name of every FFT called, through the module's ufunc names
    ``_fft``/``_ifft`` or through ``np.fft``, in call order."""
    calls = []

    def counted(fn, name):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("fft", "ifft"):
        monkeypatch.setattr(baselines, "_" + name,
                            counted(getattr(baselines, "_" + name), name))
    for name in ("fft", "ifft", "rfft", "irfft"):
        monkeypatch.setattr(np.fft, name, counted(getattr(np.fft, name), name))
    return calls


def test_one_gs_iteration_costs_two_ffts(transform_calls):
    # one FFT of the support-projected iterate serves the cost and the
    # magnitude projection; the inverse FFT makes the other
    _, ms = make_instance(13, 12)
    calls = transform_calls
    runs = []
    for iters in (5, 6):
        calls.clear()
        _, history = gs_solve(ms, IterativeOptions(max_iters=iters, tol=-1.0))
        assert history.size == iters + 1
        runs.append(list(calls))
    assert sorted(runs[1]) == sorted(runs[0] + ["fft", "ifft"])


def test_one_dykstra_iteration_costs_two_ffts(transform_calls, monkeypatch):
    # the FFT of y + p and the inverse FFT of the magnitude projection; the
    # GS refinement runs its full, fixed length
    _, ms = make_instance(14, 12)
    calls = transform_calls
    monkeypatch.setattr(baselines, "GS_REFINE_ITERS", 3)
    runs = []
    for iters in (5, 6):
        calls.clear()
        _, history = fienup_solve(ms, IterativeOptions(max_iters=iters, tol=-1.0))
        assert history.size == 3 + 1
        runs.append(list(calls))
    assert sorted(runs[1]) == sorted(runs[0] + ["fft", "ifft"])


def test_fienup_reaches_low_fit_on_realizable_data():
    _, ms = make_instance(12, 16)
    xhat, _ = fienup_solve(ms, IterativeOptions(max_iters=400, seed=3))
    assert fit(xhat, ms) <= 1e-6 * np.dot(ms.b, ms.b)


@pytest.mark.parametrize("seed", range(4))
def test_fienup_sf_same_fit_and_min_phase(seed):
    _, ms = make_instance(100 + seed, 12)
    xf, _ = fienup_solve(ms, IterativeOptions(seed=seed))
    xm = fienup_sf(ms, IterativeOptions(seed=seed))
    f_plain, f_min = fit(xf, ms), fit(xm, ms)
    assert abs(f_plain - f_min) <= 1e-8 * np.dot(ms.b, ms.b)
    flag, _ = is_min_phase(xm)
    assert flag
    # same autocorrelation up to factorization accuracy
    rf, rm = autocorrelation(xf), autocorrelation(xm)
    assert np.abs(rf - rm).max() <= 1e-3 * rf[0].real


def test_gs_rejects_m_below_n():
    # the measurement set refuses M < 2N before any solver sees it
    with pytest.raises(ValueError, match="M >= 2N"):
        gs_solve(MeasurementSet(np.ones(3), 5))


@pytest.mark.parametrize("m", [31, 36, 37, 132])
def test_module_transforms_equal_numpy_fft(m):
    # the loops' ufunc calls, with the inverse factor computed once, give
    # np.fft's results to the bit, also zero-padding a short input
    rng = np.random.default_rng(m)
    inv_m = np.reciprocal(m, dtype=float)
    for length in (m, m // 4 + 1):
        a = rng.normal(size=length) + 1j * rng.normal(size=length)
        out = np.empty(m, dtype=complex)
        assert baselines._fft(a, 1, out=out) is out
        assert np.array_equal(out, np.fft.fft(a, m))
    spec = rng.normal(size=m) + 1j * rng.normal(size=m)
    assert np.array_equal(baselines._ifft(spec, inv_m, out=out),
                          np.fft.ifft(spec))


@pytest.mark.parametrize("length", [3, 8, 35, 37])
def test_gs_rejects_a_start_of_the_wrong_shape(length):
    # only a start of length M is a start: N = 8, M = 36
    ms = draw_b("uniform", 8, 4000)
    assert ms.m == 36
    with pytest.raises(ValueError, match=r"y0 must have shape \(M,\)"):
        gs_solve(ms, IterativeOptions(max_iters=0), y0=np.ones(length, complex))
    with pytest.raises(ValueError, match=r"y0 must have shape \(M,\)"):
        gs_solve(ms, y0=np.ones((1, 36), complex))


@pytest.mark.parametrize("bad,message", [
    ({"max_iters": True}, "max_iters must be an integer >= 0, got True"),
    ({"max_iters": 2.5}, r"max_iters must be an integer >= 0, got 2\.5"),
    ({"max_iters": -1}, "max_iters must be an integer >= 0, got -1"),
    ({"seed": True}, "seed must be an integer >= 0, got True"),
    ({"seed": 2.5}, r"seed must be an integer >= 0, got 2\.5"),
    ({"tol": float("nan")}, "tol must be a finite real number, got nan"),
    ({"tol": float("inf")}, "tol must be a finite real number, got inf"),
    ({"tol": "x"}, "tol must be a finite real number, got 'x'")])
def test_iterative_options_check_counts_and_tolerance(bad, message):
    # max_iters=True ran one GS iteration and 2.5 raised a TypeError from
    # range(); a NaN tol never stalled, so GS ran to its cap
    with pytest.raises(ValueError, match=f"^{message}$"):
        IterativeOptions(**bad)
    # a negative tol turns the stall rule off
    assert IterativeOptions(tol=-1).tol == -1.0


@pytest.mark.parametrize("solve", [gs_solve, fienup_solve])
def test_alternating_projections_reject_a_stacked_set(solve):
    stack = MeasurementSet(np.ones((2, 40)), 8)
    with pytest.raises(ValueError, match="one measurement row"):
        solve(stack)


# Test-local copies of the GS and Dykstra loops as first written, with
# M-length iterates; the solvers must reproduce them bit for bit.

def reference_support(v, n):
    out = v.copy()
    out[n:] = 0.0
    return out


def reference_with_magnitude(spectrum, root_b):
    mag = np.abs(spectrum)
    phase = np.where(mag > 0, spectrum / np.where(mag == 0, 1, mag), 1.0)
    return np.fft.ifft(root_b * phase)


def reference_start(root_b, seed):
    rng = np.random.default_rng(seed)
    return np.fft.ifft(root_b * np.exp(2j * np.pi * rng.uniform(size=root_b.size)))


def reference_gs(b, opts, y0=None):
    """The GS loop as first written: M-length iterates, an explicit support
    projection before each FFT, and the cost from ``np.linalg.norm``."""
    root_b = np.sqrt(np.maximum(np.asarray(b.b, dtype=float), 0.0))
    y = reference_start(root_b, opts.seed) if y0 is None else y0.copy()

    def cost(spectrum):
        return float(np.linalg.norm(root_b - np.abs(spectrum)) ** 2)

    history = []
    for _ in range(opts.max_iters):
        spectrum = np.fft.fft(reference_support(y, b.n))
        history.append(cost(spectrum))
        y = reference_with_magnitude(spectrum, root_b)
        if len(history) >= 11:
            prev, cur = history[-11], history[-1]
            if prev - cur <= opts.tol * max(prev, 1.0):
                break
    x_sup = reference_support(y, b.n)
    history.append(cost(np.fft.fft(x_sup)))
    return x_sup[:b.n], np.asarray(history)


def reference_fienup(b, opts):
    """The Dykstra loop as first written, then :func:`reference_gs`."""
    root_b = np.sqrt(np.maximum(np.asarray(b.b, dtype=float), 0.0))
    y = reference_start(root_b, opts.seed)
    p = np.zeros_like(y)
    q = np.zeros_like(y)
    for _ in range(opts.max_iters):
        w = reference_with_magnitude(np.fft.fft(y + p), root_b)
        p = y + p - w
        y = reference_support(w + q, b.n)
        q = w + q - y
    refine = IterativeOptions(max_iters=GS_REFINE_ITERS, tol=opts.tol,
                              seed=opts.seed)
    return reference_gs(b, refine, y0=y)

def draw_b(kind, n, seed):
    rng = np.random.default_rng(seed)
    m = 4 * n + 4
    b = rng.uniform(0.0, 1.0, m) if kind == "uniform" else rng.exponential(1.0, m)
    return MeasurementSet(b, n)


@pytest.mark.parametrize("kind", ["uniform", "exponential"])
@pytest.mark.parametrize("n", [1, 8, 33, 64])
def test_gs_and_fienup_bit_identical_to_reference_loops(kind, n):
    ms = draw_b(kind, n, 1000 + n)
    opts = IterativeOptions(max_iters=60, seed=n)
    for got, want in ((gs_solve(ms, opts), reference_gs(ms, opts)),
                      (fienup_solve(ms, opts), reference_fienup(ms, opts))):
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])


@pytest.mark.parametrize("n", [1, 8, 33])
def test_gs_from_zero_start_takes_the_zero_magnitude_guard(n):
    # a zero spectrum has no phase; both loops use phase 1 there
    ms = draw_b("exponential", n, 2000 + n)
    opts = IterativeOptions(max_iters=30)
    y0 = np.zeros(ms.m, dtype=complex)
    got = gs_solve(ms, opts, y0=y0)
    want = reference_gs(ms, opts, y0=y0)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])


def test_buffered_loops_leave_inputs_and_share_no_memory():
    # the loops reuse work buffers; a start is read, never written, and
    # every returned estimate owns its memory
    ms = draw_b("exponential", 8, 3000)
    opts = IterativeOptions(max_iters=20, seed=1)
    y0 = np.fft.ifft(np.sqrt(ms.b))
    kept = y0.copy()
    outs = [gs_solve(ms, opts, y0=y0)[0], gs_solve(ms, opts, y0=y0)[0],
            fienup_solve(ms, opts)[0], fienup_solve(ms, opts)[0]]
    assert np.array_equal(y0, kept)
    for i, a in enumerate(outs):
        assert not np.shares_memory(a, y0)
        for other in outs[i + 1:]:
            assert not np.shares_memory(a, other)
    assert np.array_equal(outs[0], outs[1])
    assert np.array_equal(outs[2], outs[3])
