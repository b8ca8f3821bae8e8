import numpy as np
import pytest

from phaseret.crb import compute_crb, intensity_jacobian
from phaseret.measurement import AugmentationSpec, augment_min_phase, default_delta
from phaseret.signals import intensity_measure


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(0)
    n, m = 4, 12
    x = rng.normal(size=n) + 1j * rng.normal(size=n)
    g = intensity_jacobian(x, m)
    eps = 1e-7
    fd = np.zeros((m, 2 * n))
    for k in range(n):
        for part, col in ((1.0, k), (1j, n + k)):
            xp = x.copy(); xp[k] += eps * part
            xm = x.copy(); xm[k] -= eps * part
            fd[:, col] = (intensity_measure(xp, m) - intensity_measure(xm, m)) \
                / (2 * eps)
    assert np.abs(g - fd).max() <= 1e-5 * max(np.abs(fd).max(), 1.0)


def test_jacobian_requires_oversampling():
    with pytest.raises(ValueError):
        intensity_jacobian(np.ones(4), 7)


def make_min_phase(seed, n):
    rng = np.random.default_rng(seed)
    s = rng.normal(size=n) + 1j * rng.normal(size=n)
    return augment_min_phase(s, AugmentationSpec(delta=default_delta(s)))


def test_crb_exactly_linear_in_sigma2():
    smin = make_min_phase(1, 8)
    c1 = compute_crb(smin, 64, 1e-4)
    c2 = compute_crb(smin, 64, 7e-4)
    assert abs(c2 - 7.0 * c1) <= 1e-12 * abs(c2)


def test_crb_matches_direct_pinv():
    smin = make_min_phase(2, 6)
    sigma2 = 1e-3
    g = intensity_jacobian(smin, 48)
    cov = np.linalg.pinv((1.0 / sigma2) * g.T @ g, hermitian=True)
    n_tot = smin.size
    idx = [i for i in range(2 * n_tot) if i not in (0, n_tot)]
    want = cov[idx, idx].sum()
    assert compute_crb(smin, 48, sigma2) == pytest.approx(want, rel=1e-12)


def test_crb_decreases_with_more_measurements():
    smin = make_min_phase(3, 8)
    c_small = compute_crb(smin, 4 * smin.size, 1e-4)
    c_large = compute_crb(smin, 16 * smin.size, 1e-4)
    assert c_large < c_small


def test_crb_rejects_nonpositive_noise():
    with pytest.raises(ValueError):
        compute_crb(make_min_phase(4, 4), 40, 0.0)
