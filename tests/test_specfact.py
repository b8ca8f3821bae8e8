import numpy as np
import pytest

from phaseret.measurement import AugmentationSpec, augment_min_phase, default_delta
from phaseret.signals import autocorrelation, global_phase_distance
from phaseret.specfact import (InvalidCorrelationError, ROOT_SF_MAX_N,
                               SfOptions, is_min_phase, kolmogorov_sf, root_sf)


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
    flag, rad = is_min_phase([2.0, 1.0])
    assert flag and rad == pytest.approx(0.5)
    flag, rad = is_min_phase([1.0, 2.0])
    assert not flag and rad == pytest.approx(2.0)
    # trailing zeros put every zero at the origin
    assert is_min_phase([1.0, 0.0, 0.0]) == (True, 0.0)
    # 1 - z^-2 has its zeros on the unit circle at +-1
    flag, rad = is_min_phase([1.0, 0.0, -1.0])
    assert flag and rad == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        is_min_phase([0.0, 1.0])


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


def test_invalid_correlation_rejected():
    with pytest.raises((InvalidCorrelationError, ValueError)):
        root_sf([1.0, 0.9])  # spectrum dips negative; roots cannot pair


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
