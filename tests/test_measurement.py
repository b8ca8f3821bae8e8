import numpy as np
import pytest

from phaseret.bench import SOLVERS
from phaseret.cork import solve_cork
from phaseret.measurement import (AugmentationSpec, ImpulseMarginWarning,
                                  add_noise, augment_min_phase, deaugment,
                                  default_delta, margin_violated,
                                  measure_augmented)
from phaseret.signals import (MeasurementSet, global_phase_distance,
                              intensity_measure)
from phaseret.specfact import kolmogorov_sf


def test_augment_prefix_layout():
    spec = AugmentationSpec(delta=5.0)
    out = augment_min_phase([1.0, 2.0], spec)
    np.testing.assert_array_equal(out, [5, 1, 2])


def test_quadratic_roots_inside_when_margin_holds():
    # smin = [2, 1, -0.5]: roots of 2z^2 + z - 0.5 have moduli
    # (sqrt(5) -+ 1)/4 ~ 0.309, 0.809 by the quadratic formula
    smin = np.array([2.0, 1.0, -0.5])
    roots = np.roots(smin)
    moduli = np.sort(np.abs(roots))
    assert moduli[0] == pytest.approx((np.sqrt(5) - 1) / 4, rel=1e-12)
    assert moduli[1] == pytest.approx((np.sqrt(5) + 1) / 4, rel=1e-12)
    assert moduli.max() < 1.0


@pytest.mark.parametrize("seed", range(8))
def test_augmented_signal_is_min_phase(seed):
    rng = np.random.default_rng(seed)
    s = rng.normal(size=10) + 1j * rng.normal(size=10)
    spec = AugmentationSpec(delta=default_delta(s))
    smin = augment_min_phase(s, spec)
    roots = np.roots(smin)
    assert np.abs(roots).max() < 1.0
    assert not margin_violated(s, spec.delta)


def test_margin_violation_warns():
    s = np.array([1.0, 1.0])
    spec = AugmentationSpec(delta=0.5)  # |delta| < ||s||_1 = 2
    with pytest.warns(ImpulseMarginWarning):
        augment_min_phase(s, spec)
    assert margin_violated(s, spec.delta)


@pytest.mark.parametrize("delta", [0.0, 0j, np.nan, np.inf, complex(1.0, np.inf)])
def test_spec_rejects_a_zero_or_non_finite_delta(delta):
    with pytest.raises(ValueError, match="delta must be finite and nonzero"):
        AugmentationSpec(delta=delta)


def test_deaugment_round_trip():
    rng = np.random.default_rng(13)
    s = rng.normal(size=9) + 1j * rng.normal(size=9)
    spec = AugmentationSpec(delta=default_delta(s))
    xmin = augment_min_phase(s, spec)
    # global phase offset must be absorbed by the impulse pivot
    recovered = deaugment(np.exp(0.9j) * xmin, spec)
    assert global_phase_distance(s, recovered) <= 1e-14 * np.vdot(s, s).real


def test_stacked_deaugment_rows_equal_single_rows():
    rng = np.random.default_rng(19)
    xmin = rng.normal(size=(6, 12)) + 1j * rng.normal(size=(6, 12))
    spec = AugmentationSpec(delta=1.0)
    core = deaugment(xmin, spec)
    assert core.shape == (6, 11)
    for k in range(6):
        assert np.array_equal(core[k], deaugment(xmin[k], spec))


def test_deaugment_zero_pivot_rejected():
    with pytest.raises(ValueError):
        deaugment([0.0, 1.0, 2.0], AugmentationSpec(delta=1.0))


def test_default_delta_margin():
    s = np.array([3.0, -4.0])
    assert default_delta(s) == pytest.approx(7.0 * (1 + 1e-3))


def test_add_noise_statistics():
    ms = measure_augmented(np.ones(4), AugmentationSpec(delta=5.0), 16)
    noisy = add_noise(ms, sigma2=0.04, seed=99)
    again = add_noise(ms, sigma2=0.04, seed=99)
    np.testing.assert_array_equal(noisy.b, again.b)
    assert noisy.sigma2 == 0.04
    w = noisy.b - ms.b
    assert abs(np.var(w) - 0.04) < 0.04  # loose moment check, m = 16
    # different seed, different draw
    other = add_noise(ms, sigma2=0.04, seed=100)
    assert np.abs(other.b - noisy.b).max() > 0


def test_add_noise_draws_every_row_of_a_stack():
    ms = measure_augmented(np.ones(4), AugmentationSpec(delta=5.0), 16)
    noisy = add_noise(ms, sigma2=0.04, seed=99)
    want = ms.b + np.random.default_rng(99).normal(scale=0.2, size=16)
    np.testing.assert_array_equal(noisy.b, want)  # one row: same draw as ever
    stack = add_noise(MeasurementSet(np.zeros((3, 8)), 4), sigma2=1.0, seed=5)
    assert stack.b.shape == (3, 8)
    assert np.all(np.abs(np.diff(stack.b, axis=0)) > 0)


def test_measure_augmented_records_metadata():
    s = np.array([1.0, 2.0])
    spec = AugmentationSpec(delta=default_delta(s))
    ms = measure_augmented(s, spec, 12)
    assert ms.m == 12
    assert ms.n == 3  # impulse + signal
    assert ms.augmentation is spec
    np.testing.assert_allclose(
        ms.b, intensity_measure(augment_min_phase(s, spec), 12), atol=1e-12)


def test_measure_augmented_noiseless_round_trip():
    # fit, factor and de-augment noiseless measurements: s comes back up to
    # a global phase
    rng = np.random.default_rng(16)
    s = rng.normal(size=16) + 1j * rng.normal(size=16)
    spec = AugmentationSpec(delta=default_delta(s))
    ms = measure_augmented(s, spec, 4 * (s.size + 1))
    shat = deaugment(kolmogorov_sf(solve_cork(ms)[0]), spec)
    phase = np.vdot(shat, s) / abs(np.vdot(shat, s))
    assert np.linalg.norm(shat * phase - s) <= 1e-12 * np.linalg.norm(s)


@pytest.mark.parametrize("delta", [10.7j, -10.7, 10.7 * np.exp(0.7j)],
                         ids=["imaginary", "negative", "complex"])
def test_deaugment_takes_the_phase_of_delta(delta):
    # the known impulse fixes the global phase: the estimate comes back as
    # s itself, not s times the conjugate phase of delta
    rng = np.random.default_rng(6)
    s = rng.normal(size=6) + 1j * rng.normal(size=6)
    ms = measure_augmented(s, AugmentationSpec(delta), 4 * (s.size + 1))
    shat = deaugment(SOLVERS["cork"](ms, 0)[0], ms.augmentation)
    assert np.linalg.norm(shat - s) <= 1e-10 * np.linalg.norm(s)
