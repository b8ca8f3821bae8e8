import numpy as np
import pytest
from scipy.linalg import toeplitz

from phaseret import sdp
from phaseret.cork import solve_cork
from phaseret.measurement import (AugmentationSpec, add_noise, default_delta,
                                  measure_augmented)
from phaseret.sdp import (SdpOptions, _hermitian_toeplitz, correlation_traces,
                          phaselift_sf, phaselift_value, psd_project)
from phaseret.signals import (MeasurementSet, as_correlation, autocorrelation,
                              correlation_to_intensity, global_phase_distance,
                              intensity_measure)


@pytest.fixture(autouse=True)
def no_kept_solve(monkeypatch):
    """Each test starts without the module's kept solve."""
    monkeypatch.setattr(sdp, "_last_solve", None)


def rel_err(x, xhat):
    return np.sqrt(max(global_phase_distance(x, xhat), 0.0)) / np.linalg.norm(x)


def test_psd_project_examples():
    np.testing.assert_allclose(psd_project(np.diag([2.0, -3.0])),
                               np.diag([2.0, 0.0]), atol=1e-12)
    a = np.array([[0.0, 1.0], [1.0, 0.0]])  # eigenvalues +-1
    np.testing.assert_allclose(psd_project(a), 0.5 * np.array([[1, 1], [1, 1]]),
                               atol=1e-12)
    # projection is idempotent, Hermitian, and PSD
    rng = np.random.default_rng(0)
    h = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    h = h + h.conj().T
    p = psd_project(h)
    assert np.abs(p - p.conj().T).max() <= 1e-12
    assert np.abs(psd_project(p) - p).max() <= 1e-10
    assert np.linalg.eigvalsh(p).min() >= -1e-12


def test_correlation_traces_match_autocorrelation():
    rng = np.random.default_rng(1)
    x = rng.normal(size=8) + 1j * rng.normal(size=8)
    big_x = np.outer(x, x.conj())
    got = correlation_traces(big_x)
    want = autocorrelation(x)
    assert np.abs(got - want).max() <= 1e-12 * want[0].real


@pytest.mark.parametrize("n", [1, 2, 33, 64])
def test_hermitian_toeplitz_matches_scipy(n):
    rng = np.random.default_rng(n)
    lags = rng.normal(size=n) + 1j * rng.normal(size=n)
    want = toeplitz(lags, np.conj(lags))
    np.fill_diagonal(want, lags[0].real)
    assert np.array_equal(_hermitian_toeplitz(lags), want)


def top_eigenvalue(op, n, iters=300):
    """Power iteration for a PSD operator on n x n Hermitian matrices."""
    rng = np.random.default_rng(n)
    x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    x = x + x.conj().T
    for _ in range(iters):
        x = op(x)
        x /= np.linalg.norm(x)
    return np.vdot(x, op(x)).real


@pytest.mark.parametrize("n,m", [(1, 2), (8, 16), (8, 33), (16, 40)])
def test_phaselift_lipschitz_constant_is_2mn(n, m):
    # the Hessian of sum_m (b_m - f_m X f_m^H)^2 is 2 A^* A, applied densely
    f = np.exp(-2j * np.pi * np.outer(np.arange(m), np.arange(n)) / m)

    def hessian(x_mat):
        a = np.einsum("mi,ij,mj->m", f, x_mat, f.conj()).real
        return 2.0 * (f.conj().T * a) @ f

    assert top_eigenvalue(hessian, n) == pytest.approx(2.0 * m * n, rel=1e-2)


def test_phaselift_value_scalar_closed_form():
    # N = 1: minimize sum_m (b_m - t)^2 over t >= 0, optimum t = mean(b)
    ms = MeasurementSet(np.array([2.0, 4.0]), 1)
    x_mat, fit, ok = phaselift_value(ms)
    assert ok
    assert x_mat[0, 0].real == pytest.approx(3.0, abs=1e-6)
    assert fit == pytest.approx(2.0, abs=1e-6)


def test_phaselift_value_zero_on_realizable_data():
    rng = np.random.default_rng(2)
    x = rng.normal(size=6) + 1j * rng.normal(size=6)
    ms = MeasurementSet(intensity_measure(x, 24), 6)
    _, fit, ok = phaselift_value(ms)
    assert ok
    assert fit <= 1e-9 * np.dot(ms.b, ms.b)


@pytest.mark.parametrize("seed", range(3))
def test_cork_matches_lift_lower_bound(seed):
    # hidden convexity: the correlation-domain fit equals the lifted bound
    rng = np.random.default_rng(seed)
    ms = MeasurementSet(rng.uniform(0.0, 1.0, size=40), 10)
    _, diag = solve_cork(ms)
    _, bound, ok = phaselift_value(ms)
    assert ok
    bscale = np.dot(ms.b, ms.b)
    assert diag.fit <= bound + 1e-6 * bscale
    assert bound <= diag.fit + 1e-6 * bscale


def min_phase_signal(seed, n):
    rng = np.random.default_rng(seed)
    s = rng.normal(size=n) + 1j * rng.normal(size=n)
    return np.r_[1.5 * np.abs(s).sum(), s]  # heavy leading tap: min phase


def test_phaselift_sf_recovers_min_phase_signal():
    x = min_phase_signal(3, 7)
    ms = MeasurementSet(intensity_measure(x, 40), 8)
    xhat, _, diag = phaselift_sf(ms)
    assert diag.converged and diag.solves == 1
    assert rel_err(x, xhat) <= 1e-6
    assert diag.fit <= diag.lower_bound + 1e-3 * np.dot(ms.b, ms.b)


def test_phaselift_needs_at_least_one_step():
    # with no step the lifted solution is zero, and phaselift_sf's
    # factorization blamed the input ("correlation spectrum is entirely <= 0");
    # True ran one step, and 2.5 raised a TypeError from range() in _fista
    for max_iters in (0, -1, True, 2.5):
        with pytest.raises(ValueError, match=f"max_iters must be an integer "
                                             f">= 1, got {max_iters}"):
            SdpOptions(max_iters=max_iters)
    x = min_phase_signal(3, 4)
    _, _, diag = phaselift_sf(MeasurementSet(intensity_measure(x, 20), 5),
                              SdpOptions(max_iters=1))
    assert not diag.converged


def test_phaselift_sf_noisy_stays_near_bound():
    rng = np.random.default_rng(4)
    x = min_phase_signal(4, 5)
    b = intensity_measure(x, 24) + rng.normal(scale=0.05, size=24)
    ms = MeasurementSet(b, 6)
    xhat, _, diag = phaselift_sf(ms)
    assert diag.converged
    assert abs(diag.fit - diag.lower_bound) <= 1e-9 * np.dot(b, b)


def test_phaselift_sf_attains_bound_on_augmented_noisy_data():
    # ||b||^2 is dominated by the impulse, so only a tight tolerance relative
    # to it shows whether the estimate sits on the bound
    rng = np.random.default_rng(0)
    s = rng.normal(size=16) + 1j * rng.normal(size=16)
    clean = measure_augmented(s, AugmentationSpec(default_delta(s)), 68)
    ms = add_noise(clean, float(np.dot(clean.b, clean.b)) / (68 * 1e4), 0)
    _, _, diag = phaselift_sf(ms)
    assert diag.converged
    assert diag.fit - diag.lower_bound <= 1e-9 * np.dot(ms.b, ms.b)


@pytest.mark.parametrize("seed", range(3))
def test_phaselift_sf_bound_without_rank_one_lift(seed):
    # the relaxation attains the optimal cost, but not necessarily at a
    # rank-one X; factoring the traces of X still attains it
    rng = np.random.default_rng(seed)
    ms = MeasurementSet(rng.uniform(0.0, 1.0, size=40), 10)
    _, x_mat, diag = phaselift_sf(ms)
    w = np.linalg.eigvalsh(x_mat)
    assert diag.converged
    assert w[-2] >= 0.1 * w[-1]
    assert abs(diag.fit - diag.lower_bound) <= 1e-9 * np.dot(ms.b, ms.b)


def partial_dft_matrix(n, m):
    """First N columns of the M-point DFT matrix, dense."""
    return np.exp(-2j * np.pi * np.outer(np.arange(m), np.arange(n)) / m)


def _intensity_op(f_mat, x_mat):
    """Dense reference for the lifted map A(X): row sums of (F X) * conj(F)."""
    return np.real(np.einsum("mn,mn->m", f_mat @ x_mat, f_mat.conj()))


def lift_equivalence_check(r, x_mat, m):
    """Max over rows of |Re{f_m^H I~ r} - f_m^H X f_m|.

    Returns ``(max_abs_diff, trace_violation)`` where the second entry
    diagnoses how well r_k = tr(T_k X) holds (reported, not enforced).
    """
    r = as_correlation(r)
    x_mat = np.asarray(x_mat, dtype=complex)
    lhs = correlation_to_intensity(r, m)
    rhs = _intensity_op(partial_dft_matrix(r.size, m),
                        0.5 * (x_mat + x_mat.conj().T))
    trace_violation = float(np.abs(correlation_traces(x_mat) - r).max())
    return float(np.abs(lhs - rhs).max()), trace_violation


def test_lift_equivalence_check():
    rng = np.random.default_rng(6)
    x = rng.normal(size=5) + 1j * rng.normal(size=5)
    big_x = np.outer(x, x.conj())
    diff, viol = lift_equivalence_check(autocorrelation(x), big_x, 20)
    assert diff <= 1e-10 * max(np.abs(big_x).max(), 1.0)
    assert viol <= 1e-12
    # a generic PSD matrix with matching traces also satisfies the identity
    g = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    x2 = g @ g.conj().T
    diff2, _ = lift_equivalence_check(correlation_traces(x2), x2, 20)
    assert diff2 <= 1e-9 * np.abs(x2).max()


def test_size_guard():
    with pytest.raises(ValueError):
        phaselift_value(MeasurementSet(np.ones(260), 130))


# --- one solve per input, and the projection gate

@pytest.fixture
def fista_calls(monkeypatch):
    """Count ``_fista`` runs."""
    calls = []
    fista = sdp._fista

    def counted(*args, **kwargs):
        calls.append(1)
        return fista(*args, **kwargs)
    monkeypatch.setattr(sdp, "_fista", counted)
    return calls


def uniform_ms(seed, n=6, m=24):
    return MeasurementSet(np.random.default_rng(seed).uniform(size=m), n)


def test_bound_then_estimate_share_one_solve(fista_calls):
    a, b = uniform_ms(0), uniform_ms(1)
    x_mat, bound, ok = phaselift_value(a, 0.0)
    _, x_sf, diag = phaselift_sf(a)
    assert len(fista_calls) == 1
    assert diag.solves == 0
    assert diag.lower_bound == bound and diag.converged == ok
    assert np.array_equal(x_sf, x_mat)
    # one entry: b -> a -> b solves three times
    fista_calls.clear()
    for ms in (b, a, b):
        assert phaselift_sf(ms)[2].solves == 1
    assert len(fista_calls) == 3


def test_a_different_input_solves_again(fista_calls):
    ms = uniform_ms(2)
    b = ms.b.copy()
    b[-1] += 1e-12
    other_b = MeasurementSet(b, ms.n)
    phaselift_value(ms)
    phaselift_value(other_b)
    phaselift_value(ms, 0.5)
    phaselift_value(ms, 0.5, SdpOptions(max_iters=3))
    assert len(fista_calls) == 4
    # opts=None is keyed like SdpOptions(), and lam=0 like 0.0
    phaselift_value(ms, 0.5, SdpOptions())
    phaselift_value(ms, 0.5)
    assert len(fista_calls) == 5
    phaselift_value(ms, 0)
    phaselift_value(ms, 0.0, SdpOptions())
    assert len(fista_calls) == 6


def test_a_returned_matrix_is_the_callers_own(fista_calls):
    ms = uniform_ms(3)
    x1, fit1, _ = phaselift_value(ms)
    want = x1.copy()
    x1[:] = 7.0
    x2, fit2, _ = phaselift_value(ms)
    _, x3, _ = phaselift_sf(ms)
    assert len(fista_calls) == 1
    assert fit2 == fit1
    assert np.array_equal(x2, want) and np.array_equal(x3, want)
    assert x2.flags.writeable and x3.flags.writeable
    assert not np.shares_memory(x2, x3)


def test_size_guard_raises_before_the_memo(fista_calls, monkeypatch):
    class Untouchable:
        def __getitem__(self, index):
            raise AssertionError("memo read")
    monkeypatch.setattr(sdp, "_last_solve", Untouchable())
    for call in (phaselift_value, phaselift_sf):
        with pytest.raises(ValueError, match="desk-scale"):
            call(MeasurementSet(np.ones(260), 130))
    assert fista_calls == []


def hermitian(seed, n, shift):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return g @ g.conj().T + shift * np.eye(n)


def test_gated_projection_skips_eigh_on_a_pd_step(monkeypatch):
    pd = hermitian(0, 8, 1.0)
    step = pd + 1e-3j * np.triu(np.ones((8, 8)), 1)   # not quite Hermitian
    project = sdp._gated_psd_project()

    def no_eigh(*args, **kwargs):
        raise AssertionError("eigh on a PD step")
    with monkeypatch.context() as m:
        m.setattr(np.linalg, "eigh", no_eigh)
        got = project(step)
    assert np.array_equal(got, 0.5 * (step + step.conj().T))


def test_gated_projection_matches_psd_project_on_indefinite_steps(monkeypatch):
    eighs = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda h: eighs.append(1) or eigh(h))
    project = sdp._gated_psd_project()
    indefinite = [hermitian(s, 8, -20.0) for s in (1, 2)]
    for h in indefinite:
        assert np.array_equal(project(h), psd_project(h))
    assert len(eighs) == 4
    # after a step that clamped, a PD step goes to eigh too; after one that
    # clamped nothing, the next tries Cholesky again
    pd = hermitian(3, 8, 1.0)
    eighs.clear()
    assert np.array_equal(project(pd), psd_project(pd))
    assert len(eighs) == 2
    assert np.array_equal(project(pd), 0.5 * (pd + pd.conj().T))
    assert len(eighs) == 2
