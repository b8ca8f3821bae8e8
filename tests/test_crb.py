import numpy as np
import pytest

from phaseret.crb import _fisher_information, compute_crb, unit_crb
from phaseret.measurement import AugmentationSpec, augment_min_phase, default_delta
from phaseret.signals import intensity_measure


def dense_jacobian(x, m):
    """Dense reference: M x 2N Jacobian of |F_M x|^2 over [Re x; Im x]."""
    f_mat = np.exp(-2j * np.pi * np.outer(np.arange(m), np.arange(x.size)) / m)
    weighted = np.conj(f_mat @ x)[:, None] * f_mat
    return np.hstack((2.0 * weighted.real, -2.0 * weighted.imag))


def dense_crb(smin, m, sigma2):
    """Dense reference: impulse-excluded trace of pinv(G^T G / sigma2)."""
    g = dense_jacobian(smin, m)
    cov = np.linalg.pinv((1.0 / sigma2) * g.T @ g, hermitian=True)
    n_tot = smin.size
    idx = [i for i in range(2 * n_tot) if i not in (0, n_tot)]
    return cov[idx, idx].sum()


def random_signal(seed, n):
    rng = np.random.default_rng(seed)
    return rng.normal(size=n) + 1j * rng.normal(size=n)


@pytest.mark.parametrize("n,m", [(7, 14), (7, 35), (9, 40), (33, 132)])
def test_fisher_matches_dense_gram(n, m):
    x = random_signal(n + m, n)
    g = dense_jacobian(x, m)
    want = g.T @ g
    got = _fisher_information(x, m)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("n,m", [(7, 14), (9, 40), (33, 132)])
def test_fisher_annihilates_global_phase(n, m):
    x = random_signal(n, n)
    v = np.concatenate((-x.imag, x.real)) / np.linalg.norm(x)
    fisher = _fisher_information(x, m)
    assert np.linalg.norm(fisher @ v) <= 1e-12 * np.linalg.norm(fisher, 2)


def test_fisher_matches_finite_differences():
    x = random_signal(0, 4)
    n, m = 4, 12
    eps = 1e-7
    fd = np.zeros((m, 2 * n))
    for k in range(n):
        for part, col in ((1.0, k), (1j, n + k)):
            xp = x.copy(); xp[k] += eps * part
            xm = x.copy(); xm[k] -= eps * part
            fd[:, col] = (intensity_measure(xp, m) - intensity_measure(xm, m)) \
                / (2 * eps)
    want = fd.T @ fd
    got = _fisher_information(x, m)
    assert np.abs(got - want).max() <= 1e-5 * np.abs(want).max()


def test_crb_requires_oversampling():
    with pytest.raises(ValueError):
        compute_crb(np.ones(4), 7, 1.0)


def make_min_phase(seed, n):
    s = random_signal(seed, n)
    return augment_min_phase(s, AugmentationSpec(delta=default_delta(s)))


def test_crb_exactly_linear_in_sigma2():
    smin = make_min_phase(1, 8)
    c1 = compute_crb(smin, 64, 1e-4)
    c2 = compute_crb(smin, 64, 7e-4)
    assert abs(c2 - 7.0 * c1) <= 1e-12 * abs(c2)


def test_crb_matches_direct_pinv():
    # every input of this module, and the M = 2N edge
    for seed, n, m in ((1, 8, 18), (1, 8, 64), (2, 6, 48), (3, 8, 36),
                       (3, 8, 144), (4, 4, 40)):
        smin = make_min_phase(seed, n)
        want = dense_crb(smin, m, 1e-3)
        assert compute_crb(smin, m, 1e-3) == pytest.approx(want, rel=1e-12)


def test_crb_decreases_with_more_measurements():
    smin = make_min_phase(3, 8)
    c_small = compute_crb(smin, 4 * smin.size, 1e-4)
    c_large = compute_crb(smin, 16 * smin.size, 1e-4)
    assert c_large < c_small


def test_crb_rejects_nonpositive_noise():
    with pytest.raises(ValueError):
        compute_crb(make_min_phase(4, 4), 40, 0.0)


@pytest.mark.parametrize("x", [[1, 1], [1, 0, 1], [1, 1e-3, 1]])
def test_crb_rejects_unidentifiable_signal(x):
    # A zero on the unit circle adds a second null direction to G^T G; the
    # pseudo-inverse would still return a finite, meaningless number.
    with pytest.raises(ValueError, match="singular beyond the global phase"):
        compute_crb(x, 4 * len(x), 1.0)


def test_crb_rejects_zero_signal():
    with pytest.raises(ValueError, match="zero signal"):
        compute_crb(np.zeros(3), 12, 1.0)


UNIDENTIFIABLE = [[1, 1], [1, -1], [1, 1j], [1, 1e-3, 1], [1, 0, 1]]


@pytest.mark.parametrize("x", UNIDENTIFIABLE)
def test_crb_rejects_unidentifiable_signal_at_every_m(x):
    # Whether the Cholesky factorization of J + c v v^T fails is decided by
    # roundoff: without the rank test [1, 1] got a finite bound of 1e13 to
    # 1e17 at 12 of these 40 M
    for m in range(2 * len(x), 2 * len(x) + 40):
        with pytest.raises(ValueError, match="singular beyond the global phase"):
            compute_crb(x, m, 1.0)


@pytest.mark.parametrize("n", [3, 8, 17, 33])
def test_crb_rank_test_accepts_random_signals(n):
    rng = np.random.default_rng(n)
    for _ in range(50):
        assert unit_crb(rng.normal(size=n) + 1j * rng.normal(size=n)) > 0


def per_m_crb(smin, m):
    """The unit-noise bound from M's own Fisher information, deflated as in
    ``crb`` and inverted by LU."""
    fisher = _fisher_information(smin, m)
    n_tot = smin.size
    v = np.concatenate((-smin.imag, smin.real)) / np.linalg.norm(smin)
    c = np.trace(fisher) / (2 * n_tot)
    variances = np.diag(np.linalg.inv(fisher + c * np.outer(v, v))) - v ** 2 / c
    variances[[0, n_tot]] = 0.0
    return variances.sum()


@pytest.mark.parametrize("n_tot", [4, 8, 33])
def test_crb_times_m_is_the_same_at_every_m(n_tot):
    # for M >= 2N the M-point DFT is a tight frame, so G^T G = M J_1 and the
    # bound is sigma^2 C / M; each M's own Fisher information agrees
    smin = make_min_phase(n_tot, n_tot - 1)
    c = unit_crb(smin)
    for m in range(2 * n_tot, 8 * n_tot + 1):
        assert compute_crb(smin, m, 1.0) * m == pytest.approx(c, rel=1e-13)
        assert per_m_crb(smin, m) * m == pytest.approx(c, rel=1e-13)
    assert compute_crb(smin, 40 * n_tot, 3e-5) == 3e-5 * c / (40 * n_tot)


@pytest.mark.parametrize("sigma2", [float("nan"), float("inf"), -1.0])
def test_crb_rejects_a_noise_variance_that_is_not_finite_and_positive(sigma2):
    with pytest.raises(ValueError, match="sigma2 must be finite and > 0"):
        compute_crb(make_min_phase(4, 4), 40, sigma2)


@pytest.mark.parametrize("m", [40.0, 40.5, True, "40", None])
def test_crb_m_must_be_an_integer(m):
    # m only divides the bound, so a fractional one would pass silently
    smin = make_min_phase(4, 4)
    with pytest.raises(ValueError, match="m must be an integer >= 10"):
        compute_crb(smin, m, 1.0)
    assert compute_crb(smin, np.int64(40), 1.0) == compute_crb(smin, 40, 1.0)
