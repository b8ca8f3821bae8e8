"""Cramer-Rao bound for intensity measurements of an augmented signal.

The noiseless intensity map is b_m(x) = |f_m^H x|^2 with additive real
Gaussian noise of variance sigma^2.  With the real parameter vector
theta = [Re x; Im x], the Fisher information is J = G^T G / sigma^2 (Kay,
*Estimation Theory*, ch. 3), where G is the Jacobian of the intensity
map.  The bound for estimating the embedded signal (impulse excluded) is
the trace of pinv(J) without the two impulse coordinates (indices 0 and
N_tot).
"""

from __future__ import annotations

import numpy as np

from .sdp import partial_dft_matrix
from .signals import as_signal

__all__ = ["intensity_jacobian", "compute_crb"]


def intensity_jacobian(x, m: int) -> np.ndarray:
    """M x 2N Jacobian of b(x) = |F_M x|^2 with respect to [Re x; Im x]."""
    x = as_signal(x)
    if m < 2 * x.size:
        raise ValueError("need m >= 2N for an informative Jacobian")
    f_mat = partial_dft_matrix(x.size, m)
    a = f_mat @ x  # a_m = f_m^H x
    weighted = np.conj(a)[:, None] * f_mat
    return np.hstack((2.0 * weighted.real, -2.0 * weighted.imag))


def compute_crb(smin, m: int, sigma2: float) -> float:
    """CRB on E||s - shat||^2, impulse coordinates excluded.

    ``smin`` is the full augmented signal (impulse first).  Exactly linear
    in ``sigma2``.
    """
    if sigma2 <= 0:
        raise ValueError("sigma2 must be positive")
    smin = as_signal(smin)
    n_tot = smin.size
    g = intensity_jacobian(smin, m)
    fisher = (g.T @ g) / sigma2
    cov = np.linalg.pinv(fisher, hermitian=True)
    keep = np.ones(2 * n_tot, dtype=bool)
    keep[0] = False
    keep[n_tot] = False
    return float(np.sum(np.diag(cov)[keep]))
