import numpy as np
import pytest

from phaseret.measurement import AugmentationSpec
from phaseret.signals import (MeasurementSet, as_correlation,
                              as_correlation_rows, as_rows, as_signal,
                              autocorrelation, chord_slack,
                              correlation_adjoint, correlation_psd_check,
                              correlation_spectrum, correlation_to_intensity,
                              default_transform_length, doubled_lags,
                              global_phase_distance, intensity_measure)


def naive_dft(x, m):
    """O(MN) oracle: direct evaluation of sum_n x_n e^{-2pi j nm/M}."""
    n = len(x)
    grid = np.exp(-2j * np.pi * np.outer(np.arange(m), np.arange(n)) / m)
    return grid @ np.asarray(x, dtype=complex)


@pytest.mark.parametrize("seed", range(5))
def test_dft_matches_naive(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 40))
    x = rng.normal(size=n) + 1j * rng.normal(size=n)
    m = 3 * n  # non-power-of-two on purpose
    got = intensity_measure(x, m)
    want = np.abs(naive_dft(x, m)) ** 2
    assert np.abs(got - want).max() <= 1e-12 * want.max()


def test_dft_rejects_short_m():
    # the M-point DFT of a length-N signal needs M >= N
    with pytest.raises(ValueError, match="must be >= signal length"):
        intensity_measure([1, 2, 3], 2)
    assert intensity_measure([1, 2, 3], 3).shape == (3,)


def test_intensity_impulse():
    np.testing.assert_allclose(intensity_measure([1], 4), np.ones(4))
    np.testing.assert_allclose(intensity_measure([1, 0], 4), np.ones(4))


def test_intensity_two_ones():
    # zero-padded to M = 4, the DFT is [2, 1-j, 0, 1+j] by direct evaluation
    np.testing.assert_allclose(intensity_measure([1, 1], 4), [4, 2, 0, 2],
                               atol=1e-13)


def test_autocorrelation_examples():
    np.testing.assert_allclose(autocorrelation([1, 0, 0]), [1, 0, 0])
    np.testing.assert_allclose(autocorrelation([1, 1j]), [2, 1j])
    np.testing.assert_allclose(autocorrelation([2, 1]), [5, 2])


def test_autocorrelation_r0_exactly_real():
    rng = np.random.default_rng(3)
    x = rng.normal(size=17) + 1j * rng.normal(size=17)
    r = autocorrelation(x)
    assert r[0].imag == 0.0
    assert r[0].real >= 0.0


def test_autocorrelation_scaling():
    rng = np.random.default_rng(4)
    x = rng.normal(size=9) + 1j * rng.normal(size=9)
    alpha = 0.7 - 1.3j
    r1 = autocorrelation(alpha * x)
    r2 = abs(alpha) ** 2 * autocorrelation(x)
    assert np.abs(r1 - r2).max() <= 1e-12 * np.abs(r2).max()


def test_correlation_to_intensity_examples():
    np.testing.assert_allclose(correlation_to_intensity([1, 0], 4), np.ones(4))
    # Re{2 + 2(-j)^m} per row, cross-checks intensity_measure([1,1],4)
    np.testing.assert_allclose(correlation_to_intensity([2, 1], 4),
                               [4, 2, 0, 2], atol=1e-13)


@pytest.mark.parametrize("m", [3, 5, 8, 11, 16, 21])
def test_correlation_adjoint_against_explicit_matrix(m):
    # below m = 2N - 1 the DFT rows alias and the map is refused; from there
    # up the explicit M x N matrix is the reference
    n = 8
    rng = np.random.default_rng(m)
    r = as_correlation(np.r_[rng.exponential(), rng.normal(size=n - 1)
                             + 1j * rng.normal(size=n - 1)])
    if m < 2 * n - 1:
        with pytest.raises(ValueError, match="2N-1"):
            correlation_to_intensity(r, m)
        return
    y = rng.normal(size=m)
    f = naive_dft(np.eye(n), m)
    itil = np.diag(doubled_lags(np.ones(n)))
    forward = (f @ itil @ r).real
    adjoint = itil @ f.conj().T @ y
    np.testing.assert_allclose(correlation_to_intensity(r, m), forward,
                               atol=1e-12)
    np.testing.assert_allclose(correlation_adjoint(y, n), adjoint, atol=1e-12)
    lhs = np.dot(correlation_to_intensity(r, m), y)
    rhs = np.vdot(r, correlation_adjoint(y, n)).real
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("m", [12, 13, 14, 15, 16])
def test_real_fft_paths_at_their_switch(m):
    # at N = 8 both validated wrappers refuse transforms shorter than
    # 2N - 1 = 15; from there up one irfft and one rfft are exact, and
    # Im r[0] is ignored
    n = 8
    rng = np.random.default_rng(m)
    r = rng.normal(size=n) + 1j * rng.normal(size=n)
    if m < 2 * n - 1:
        r[0] = abs(r[0])
        with pytest.raises(ValueError, match="m=.*2N-1=15"):
            correlation_to_intensity(r, m)
        with pytest.raises(ValueError, match="l=.*2N-1=15"):
            correlation_psd_check(r, m)
        return
    y = rng.normal(size=m)
    f = naive_dft(np.eye(n), m)
    itil = np.diag(doubled_lags(np.ones(n)))
    np.testing.assert_allclose(correlation_spectrum(r, m),
                               (f @ itil @ r).real, atol=1e-12)
    np.testing.assert_allclose(correlation_adjoint(y, n),
                               itil @ f.conj().T @ y, atol=1e-12)


@pytest.mark.parametrize("seed,m_mult", [(0, 2), (1, 3), (2, 4), (3, 8)])
def test_intensity_correlation_identity(seed, m_mult):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 64))
    x = rng.normal(size=n) + 1j * rng.normal(size=n)
    b1 = intensity_measure(x, m_mult * n)
    b2 = correlation_to_intensity(autocorrelation(x), m_mult * n)
    assert np.abs(b1 - b2).max() <= 1e-10 * np.abs(b1).max()


def test_conjugate_symmetry_real_signal():
    rng = np.random.default_rng(5)
    x = rng.normal(size=12)
    b = intensity_measure(x, 31)
    for m in range(1, 31):
        assert abs(b[m] - b[31 - m]) <= 1e-12 * max(b.max(), 1.0)


def test_psd_check_white():
    assert correlation_psd_check([1, 0, 0, 0])[0] == pytest.approx(1.0)


def test_psd_check_true_correlation_nonnegative():
    rng = np.random.default_rng(6)
    x = rng.normal(size=20) + 1j * rng.normal(size=20)
    r = autocorrelation(x)
    min_val, _, ok = correlation_psd_check(r, 32 * 32)
    assert ok
    assert min_val >= -1e-10 * r[0].real


def test_psd_check_invalid_correlation():
    # R(w) = 1 + 1.8 cos(w) dips to -0.8; brute-force sampling oracle
    omega = 2 * np.pi * np.arange(1024) / 1024
    brute = 1.0 + 1.8 * np.cos(omega)
    min_val, idx, ok = correlation_psd_check([1.0, 0.9], 1024)
    assert not ok
    assert min_val == pytest.approx(brute.min(), abs=1e-12)
    assert min_val < 0


def test_global_phase_distance():
    rng = np.random.default_rng(7)
    s = rng.normal(size=6) + 1j * rng.normal(size=6)
    assert global_phase_distance(s, s) == pytest.approx(0.0, abs=1e-12)
    assert global_phase_distance(s, np.exp(0.4j) * s) == pytest.approx(0.0, abs=1e-10)
    assert global_phase_distance([1, 0], [0, 1]) == pytest.approx(2.0)
    # invariance under simultaneous rotation
    shat = rng.normal(size=6) + 1j * rng.normal(size=6)
    d1 = global_phase_distance(s, shat)
    d2 = global_phase_distance(np.exp(1.1j) * s, np.exp(1.1j) * shat)
    assert d1 == pytest.approx(d2, rel=1e-12)
    with pytest.raises(ValueError):
        global_phase_distance([1], [1, 2])


def test_default_transform_length():
    assert default_transform_length(1) == 64
    assert default_transform_length(4) == 256  # strictly greater than 128
    assert default_transform_length(128) == 8192


def test_as_correlation_zeroes_r0_imag():
    r = as_correlation([2.0 + 1e-14j, 1.0])
    assert r[0].imag == 0.0
    with pytest.raises(ValueError):
        as_correlation([2.0 + 1.0j, 1.0])


def test_stacks_only_where_rows_are_accepted():
    stack = [[2.0 + 1e-14j, 1.0], [3.0, 0.5j]]
    r = as_correlation_rows(stack)
    assert r.shape == (2, 2) and r[0, 0].imag == 0.0
    assert as_rows(stack).shape == (2, 2)
    with pytest.raises(ValueError, match="r\\[0\\] must be real"):
        as_correlation_rows([[2.0, 1.0], [3.0 + 1.0j, 0.5]])
    for coerce in (as_signal, as_correlation):
        with pytest.raises(ValueError, match="1D sequence"):
            coerce(stack)
    for bad in (np.ones((2, 2, 2)), np.ones((2, 0))):
        with pytest.raises(ValueError):
            as_rows(bad)
    ms = MeasurementSet(np.ones((3, 8)), 2)
    assert ms.m == 8


def test_measurement_set_validation():
    ms = MeasurementSet([1.0, -0.5, 2.0], 1, sigma2=0.25)
    assert ms.m == 3
    assert np.isfinite(ms.snr_db())
    with pytest.raises(ValueError):
        MeasurementSet([np.nan], 1)
    with pytest.raises(ValueError, match="sigma2 must be finite and >= 0"):
        MeasurementSet([1.0, 2.0], 1, sigma2=-1.0)
    # a bool is refused as signals.as_real refuses it: True held sigma2 1.0
    for sigma2 in (np.nan, np.inf, True, "0.5"):
        with pytest.raises(ValueError,
                           match="sigma2 must be a finite real number"):
            MeasurementSet([1.0, 2.0], 1, sigma2=sigma2)
    assert MeasurementSet([1.0, 2.0], 1, sigma2=np.float64(0.5)).sigma2 == 0.5


def test_measurement_set_n_must_be_an_integer():
    # int(2.9) once made the length 2
    with pytest.raises(ValueError, match="n must be an integer >= 1, got 2.9"):
        MeasurementSet(np.ones(8), 2.9)
    ms = MeasurementSet(np.ones(8), np.int64(4))
    assert ms.n == 4 and type(ms.n) is int


def test_measurement_set_n_must_not_be_a_bool():
    # bool is numbers.Integral, and True read as N = 1
    with pytest.raises(ValueError, match="n must be an integer >= 1, got True"):
        MeasurementSet([1, 1, 1, 1], True)


def test_measurement_set_real_signal_must_be_a_bool():
    # bool("false") is True
    for flag in ("false", 1, None):
        with pytest.raises(ValueError, match="real_signal must be true or false"):
            MeasurementSet(np.ones(8), 4, real_signal=flag)
    assert MeasurementSet(np.ones(8), 4, real_signal=True).real_signal is True


def test_measurement_set_augmentation_must_leave_a_signal_sample():
    # [delta] holds no sample of s: the solve ran, and only deaugment
    # raised afterwards
    spec = AugmentationSpec(3.0)
    assert MeasurementSet(np.ones(8), 2, augmentation=spec).n == 2
    with pytest.raises(ValueError, match="n=1 leaves no signal sample after "
                                         "the impulse$"):
        MeasurementSet(np.ones(8), 1, augmentation=spec)


@pytest.mark.parametrize("shape", [(7,), (3, 7)])
def test_measurement_set_needs_2n_samples(shape):
    # one check at construction serves every solver, for one row or a stack
    with pytest.raises(ValueError, match=r"needs M >= 2N \(got M=7, N=4\)"):
        MeasurementSet(np.ones(shape), 4)
    assert MeasurementSet(np.ones(shape[:-1] + (8,)), 4).m == 8


@pytest.mark.parametrize("n", [2, 33, 1025])
def test_chord_slack_floor_is_below_the_fine_grid_minimum(n):
    # the smallest of k samples minus the chord slack never exceeds the
    # minimum of the polynomial, here read on 2^20 points; the draws mix
    # random lags with the highest frequency alone, which dips farthest
    # between samples for its l1 norm
    rng = np.random.default_rng(n)
    draws = [rng.normal(size=n) + 1j * rng.normal(size=n) for _ in range(4)]
    draws += [np.r_[rng.uniform(0.0, 1.0), np.zeros(n - 2), np.exp(2j * np.pi * u)]
              for u in rng.uniform(0.0, 1.0, size=4)]
    for r in draws:
        r[0] = r[0].real
        norm1 = np.abs(doubled_lags(r)).sum()
        fine = correlation_spectrum(r, 2 ** 20).min()
        for k in sorted({2 * n, 3 * n + 1, 5 * n - 1, 8 * n,
                         1 << (8 * n - 1).bit_length(),
                         *rng.integers(2 * n, 8 * n + 1, size=3)}):
            floor = correlation_spectrum(r, k).min() - chord_slack(n, k, norm1)
            assert floor <= fine + 1e-14 * norm1

