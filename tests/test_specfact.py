import numpy as np
import pytest

from phaseret.measurement import AugmentationSpec, augment_min_phase, default_delta
from phaseret.signals import (autocorrelation, default_transform_length,
                              global_phase_distance)
from phaseret.specfact import (FLOOR_EPS, MIN_PHASE_TOL, ROOT_SF_MAX_N,
                               InvalidCorrelationError, SfOptions,
                               is_min_phase, kolmogorov_sf, root_sf)


def rel_err(x, xhat):
    return np.sqrt(max(global_phase_distance(x, xhat), 0.0)) / np.linalg.norm(x)


def test_impulse_factorization():
    np.testing.assert_allclose(kolmogorov_sf([4.0, 0.0, 0.0]), [2, 0, 0],
                               atol=1e-10)
    np.testing.assert_allclose(root_sf([4.0, 0.0, 0.0]), [2, 0, 0], atol=1e-12)


def test_two_tap_example_both_methods():
    # r = [5, 2] factors as x = [2, 1]: the other candidate [1, 2] shares the
    # autocorrelation but has its zero outside the unit circle
    np.testing.assert_allclose(root_sf([5.0, 2.0]), [2, 1], atol=1e-12)
    np.testing.assert_allclose(kolmogorov_sf([5.0, 2.0]), [2, 1], atol=1e-8)
    np.testing.assert_allclose(autocorrelation([1.0, 2.0]), [5, 2])


def test_root_sf_leading_zero_and_origin_root():
    # r = [5, 2, 0]: z^2 R(z) has a zero leading coefficient and a root at
    # the origin, whose reciprocal partner is at infinity
    np.testing.assert_allclose(root_sf([5.0, 2.0, 0.0]), [2, 1, 0], atol=1e-12)


def test_root_sf_accepts_long_min_phase_correlations():
    # lengths 34..48 are inside ROOT_SF_MAX_N; every min-phase correlation
    # there must factor, certify and agree with the FFT route
    rng = np.random.default_rng(0)
    for n in np.repeat(np.arange(34, ROOT_SF_MAX_N + 1), 3):
        core = rng.normal(size=n - 1) + 1j * rng.normal(size=n - 1)
        r = autocorrelation(augment_min_phase(
            core, AugmentationSpec(delta=default_delta(core))))
        x = root_sf(r)
        assert is_min_phase(x)[0]
        assert global_phase_distance(x, kolmogorov_sf(r)) <= 1e-9 * r[0].real


def test_is_min_phase():
    # margin = min |P| on the circle of radius 1/(1+tol) over ||x_rho||_1
    flag, margin = is_min_phase([2.0, 1.0])
    assert flag and margin == pytest.approx(1 / 3, rel=1e-5)
    flag, margin = is_min_phase([1.0, 2.0])
    assert not flag and margin == pytest.approx(1 / 3, rel=1e-5)
    # trailing zeros put every zero at the origin
    assert is_min_phase([1.0, 0.0, 0.0]) == (True, 1.0)
    # 1 - z^-2 has its zeros on the unit circle at +-1
    flag, margin = is_min_phase([1.0, 0.0, -1.0])
    assert flag and 0.0 < margin <= 2e-6
    # x[0] == 0 is a zero at the origin of P
    assert is_min_phase([0.0, 1.0]) == (False, 0.0)


def _roots_min_phase(x):
    zeros = np.roots(x)
    return zeros.size == 0 or np.abs(zeros).max() <= 1.0 + MIN_PHASE_TOL


def test_is_min_phase_matches_roots_oracle():
    # augmented signals at impulse margins 1e-3, 1e-6 and 0, impulses below
    # the margin, and raw Gaussian signals
    rng = np.random.default_rng(3)
    for k in range(500):
        n = 1 + k % 48
        s = rng.normal(size=n) + 1j * rng.normal(size=n)
        kind = k % 5
        if kind < 3:
            delta = default_delta(s, margin=(1e-3, 1e-6, 0.0)[kind])
            x = np.r_[delta, s]
        elif kind == 3:
            x = np.r_[0.5 * default_delta(s, margin=0.0), s]
        else:
            x = s
        assert is_min_phase(x)[0] == _roots_min_phase(x), (k, x)


def test_is_min_phase_transform_stays_short_on_augmented_input(monkeypatch):
    # an augmented signal keeps |P| far from 0, so the winding count needs
    # no transform much longer than the signal
    lengths = []
    fft = np.fft.fft

    def spy(a, n=None, *args, **kwargs):
        lengths.append(np.shape(a)[-1] if n is None else n)
        return fft(a, n, *args, **kwargs)

    monkeypatch.setattr(np.fft, "fft", spy)
    s = np.random.default_rng(11).normal(size=1024) + 0j
    x = augment_min_phase(s, AugmentationSpec(delta=default_delta(s)))
    flag, margin = is_min_phase(x)
    assert flag and margin > 0.0
    assert lengths and max(lengths) <= 16 * x.size


@pytest.mark.parametrize("seed", range(6))
def test_kolmogorov_round_trip(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 40))
    s = rng.normal(size=n) + 1j * rng.normal(size=n)
    x = augment_min_phase(s, AugmentationSpec(delta=default_delta(s)))
    xhat = kolmogorov_sf(autocorrelation(x))
    assert rel_err(x, xhat) <= 1e-6
    assert abs(xhat[0].imag) <= 1e-12 * abs(xhat[0])


@pytest.mark.parametrize("seed", range(6))
def test_root_sf_round_trip(seed):
    rng = np.random.default_rng(100 + seed)
    n = int(rng.integers(2, 24))
    s = rng.normal(size=n) + 1j * rng.normal(size=n)
    x = augment_min_phase(s, AugmentationSpec(delta=default_delta(s)))
    xhat = root_sf(autocorrelation(x))
    assert rel_err(x, xhat) <= 1e-6
    assert xhat[0].real > 0 and abs(xhat[0].imag) <= 1e-12 * abs(xhat[0])


def test_methods_agree_on_random_min_phase():
    rng = np.random.default_rng(42)
    s = rng.normal(size=15) + 1j * rng.normal(size=15)
    r = autocorrelation(augment_min_phase(
        s, AugmentationSpec(delta=default_delta(s))))
    a = kolmogorov_sf(r)
    b = root_sf(r)
    assert rel_err(a, b) <= 1e-7


def test_real_correlation_gives_real_factor():
    rng = np.random.default_rng(8)
    s = rng.normal(size=10)
    x = augment_min_phase(s, AugmentationSpec(delta=default_delta(s)))
    r = autocorrelation(x).real
    out = kolmogorov_sf(r)
    assert np.abs(out.imag).max() <= 1e-8 * np.abs(out).max()


def test_unit_circle_double_root():
    # r = autocorr([1, 1]) = [2, 1]: R(z) has a double zero at z = -1.
    # Pairing must keep exactly one copy and return [1, 1].
    out = root_sf([2.0, 1.0])
    np.testing.assert_allclose(out, [1, 1], atol=1e-6)


def test_stacked_kolmogorov_rows_equal_single_rows():
    rng = np.random.default_rng(17)
    rs = []
    for _ in range(5):
        s = rng.normal(size=11) + 1j * rng.normal(size=11)
        rs.append(autocorrelation(augment_min_phase(s, AugmentationSpec(default_delta(s)))))
    rs = np.array(rs)
    xs = kolmogorov_sf(rs, SfOptions(l=128))
    assert xs.shape == rs.shape
    for k in range(len(rs)):
        assert np.array_equal(xs[k], kolmogorov_sf(rs[k], SfOptions(l=128)))


def _kolmogorov_reference(r):
    # the causal cepstrum of the log spectrum on L samples, exponentiated on
    # a grid of 8L: the same cepstrum with its wrap-around pushed out of reach
    n = r.size
    l = default_transform_length(n)
    two_sided = np.zeros(l, dtype=complex)
    two_sided[:n] = r
    two_sided[l - n + 1:] = np.conj(r[:0:-1])
    spectrum = np.fft.fft(two_sided).real
    spectrum = np.maximum(spectrum, FLOOR_EPS * spectrum.max())
    cepstrum = np.fft.ifft(np.log(spectrum))
    causal = np.zeros(8 * l, dtype=complex)
    causal[0] = 0.5 * cepstrum[0]
    causal[1:l // 2] = cepstrum[1:l // 2]
    causal[l // 2] = 0.5 * cepstrum[l // 2]
    return np.fft.ifft(np.exp(np.fft.fft(causal)))[:n]


def _augmented_correlation(rng, n):
    s = rng.normal(size=n) + 1j * rng.normal(size=n)
    return autocorrelation(augment_min_phase(
        s, AugmentationSpec(delta=default_delta(s))))


def test_kolmogorov_matches_same_cepstrum_reference():
    rng = np.random.default_rng(5)
    rs = [_augmented_correlation(rng, n) for n in (1, 2, 33, 257)]
    # zeros of Gaussian polynomials crowd the unit circle
    rs += [autocorrelation(rng.normal(size=n) + 1j * rng.normal(size=n))
           for n in (9, 33, 129)]
    for r in rs:
        err = np.abs(kolmogorov_sf(r) - _kolmogorov_reference(r)).max()
        assert err <= 1e-12 * np.sqrt(r[0].real), (r.size, err)
    np.testing.assert_allclose(kolmogorov_sf([4.0]), [2.0], rtol=1e-15)


@pytest.mark.parametrize("shape", [(33,), (8, 33)])
def test_kolmogorov_costs_two_real_ffts(monkeypatch, shape):
    # one irfft for the spectrum, one rfft for the cepstrum; no complex FFT
    rng = np.random.default_rng(6)
    r = np.array([_augmented_correlation(rng, shape[-1] - 1)
                  for _ in range(int(np.prod(shape[:-1])))]).reshape(shape)
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("fft", "ifft", "rfft", "irfft"):
        monkeypatch.setattr(np.fft, name, counted(getattr(np.fft, name)))
    assert kolmogorov_sf(r).shape == shape
    assert calls == ["irfft", "rfft"]


def test_kolmogorov_output_pins_no_transform_buffer():
    rng = np.random.default_rng(9)
    for r in (_augmented_correlation(rng, 32),
              np.array([_augmented_correlation(rng, 32) for _ in range(8)])):
        x = kolmogorov_sf(r)
        assert x.base is None or x.base.nbytes == x.nbytes


def test_root_sf_gaussian_correlations():
    # the N-1 innermost zeros of z^{N-1} R(z) reproduce r of signals with
    # zeros on both sides of the circle
    rng = np.random.default_rng(0)
    for k in range(100):
        n = 2 + k % 47
        r = autocorrelation(rng.normal(size=n) + 1j * rng.normal(size=n))
        err = np.abs(autocorrelation(root_sf(r)) - r).max()
        assert err <= 1e-9 * r[0].real, (n, err)


def test_root_sf_near_circle_augmented():
    # an impulse margin of 1e-6 puts zeros of x within about 1e-6 of the
    # circle, where a pairing tolerance would mistake one for a double zero
    rng = np.random.default_rng(7)
    for n in range(2, ROOT_SF_MAX_N + 1):
        s = rng.normal(size=n - 1) + 1j * rng.normal(size=n - 1)
        x = augment_min_phase(s, AugmentationSpec(delta=default_delta(s, 1e-6)))
        r = autocorrelation(x)
        assert global_phase_distance(x, root_sf(r)) <= 1e-12 * r[0].real, n


@pytest.mark.parametrize("r", [[-1e-12], [-1e-12, 0.0], [-1.0, 0.0]])
def test_root_sf_rejects_negative_r0(r):
    with pytest.raises(InvalidCorrelationError):
        root_sf(r)


def test_invalid_correlation_rejected():
    with pytest.raises((InvalidCorrelationError, ValueError)):
        root_sf([1.0, 0.9])  # spectrum dips negative


def test_root_sf_size_guard():
    assert ROOT_SF_MAX_N == 48
    with pytest.raises(ValueError):
        root_sf(np.r_[1.0, np.zeros(ROOT_SF_MAX_N)])


def test_floor_eps_keeps_kolmogorov_finite():
    # a zero of R on the sampled spectrum grid hits the log singularity;
    # the floor keeps the output finite and in the right energy ballpark
    r = autocorrelation([1.0, 1.0])
    out = kolmogorov_sf(r, SfOptions(l=64))
    assert np.all(np.isfinite(out))
    assert abs(autocorrelation(out)[0].real - r[0].real) <= 0.1 * r[0].real
