"""Cramer-Rao bound for intensity measurements of an augmented signal.

b_m(x) = |a_m|^2 with a = F_M x, plus real Gaussian noise of variance
sigma^2.  Over theta = [Re x; Im x] the Fisher information is G^T G / sigma^2
(Kay, *Estimation Theory*, ch. 3), with G the Jacobian of the intensity map.
G^T G comes from FFTs, without G: with T = fft(|a|^2), H = fft(conj(a)^2),
d = (n - n') mod M and s = n + n' (< M, as M >= 2N), its blocks are Toeplitz
plus Hankel: J_RR = 2Re(T[d] + H[s]), J_II = 2Re(T[d] - H[s]) and
J_RI = J_IR^T = 2Im(T[d] - H[s]).

For M >= 2N the M-point DFT is a tight frame (A_M^* A_M = M W, as
``solve_cork`` uses): T[d] = M conj(r_d) and H[s] = M conj((x * x)_s), so
G^T G = M J_1 with J_1 independent of M, and CRB(M, sigma^2) =
sigma^2 C / M.  ``unit_crb`` computes C once, from J = G^T G at M = 2N.

The global phase v = [-Im x; Re x]/||x|| is a null vector of J.  When it
spans the null space, J + c v v^T with c = tr(J)/(2N) is positive definite
and diag(J^+) = diag((J + c v v^T)^-1) - v^2/c, read off its Cholesky
factor L.  Otherwise (say, x's z-transform has a zero on the unit circle) x is
not locally identifiable: a rank test on L, min L_ii^2 <= 2N eps max L_ii^2
(or a factorization that fails), makes ``unit_crb`` and ``compute_crb``
raise ``ValueError``; augmented signals are strictly minimum phase and never
do.  The bound is sigma^2 times the trace of (G^T G)^+ without the impulse
coordinates 0 and N_tot.
"""

from __future__ import annotations

import numpy as np

from .signals import as_count, as_signal

__all__ = ["unit_crb", "compute_crb"]


def _fisher_information(x: np.ndarray, m: int) -> np.ndarray:
    """G^T G of b(x) = |F_M x|^2 over [Re x; Im x], from the FFTs of |a|^2
    and conj(a)^2; needs M >= 2N."""
    n = x.size
    a = np.fft.fft(x, m)
    k = np.arange(n)
    t = np.fft.fft(np.abs(a) ** 2)[np.subtract.outer(k, k) % m]  # T[d]
    h = np.fft.fft(np.conj(a) ** 2)[np.add.outer(k, k)]  # H[s]
    j_ri = 2.0 * (t.imag - h.imag)
    return np.block([[2.0 * (t.real + h.real), j_ri],
                     [j_ri.T, 2.0 * (t.real - h.real)]])


def unit_crb(smin) -> float:
    """C = M * CRB / sigma^2, the same at every M >= 2N.

    ``smin`` is the full augmented signal (impulse first).  The Fisher
    information is evaluated and factored once, at M = 2N.  Raises
    ``ValueError`` for the zero signal and for a signal whose Fisher
    information is singular beyond the global phase.
    """
    smin = as_signal(smin)
    n_tot = smin.size
    if not np.any(smin):
        raise ValueError("the zero signal has no finite bound")
    m0 = 2 * n_tot
    fisher = _fisher_information(smin, m0)
    v = np.concatenate((-smin.imag, smin.real)) / np.linalg.norm(smin)
    c = np.trace(fisher) / (2 * n_tot)
    singular = ValueError("Fisher information is singular beyond the global "
                          "phase (a zero on the unit circle?): no finite "
                          "bound")
    try:
        lower = np.linalg.cholesky(fisher + c * np.outer(v, v))
    except np.linalg.LinAlgError:
        raise singular from None
    pivots = np.diag(lower) ** 2
    if pivots.min() <= 2 * n_tot * np.finfo(float).eps * pivots.max():
        raise singular
    # (J + c v v^T)^-1 = L^-T L^-1: its diagonal is the column norms of L^-1
    variances = np.sum(np.linalg.inv(lower) ** 2, axis=0) - v ** 2 / c
    variances[[0, n_tot]] = 0.0
    return float(m0 * np.sum(variances))


def compute_crb(smin, m: int, sigma2: float) -> float:
    """CRB on E||s - shat||^2, impulse coordinates excluded:
    ``sigma2 * unit_crb(smin) / m``.

    ``smin`` is the full augmented signal (impulse first).  Exactly linear
    in ``sigma2`` and 1/M.  Raises ``ValueError`` for a ``sigma2`` that is
    not finite and positive, an ``m`` that is not an integer >= 2N, and
    wherever ``unit_crb`` does.
    """
    sigma2 = float(sigma2)
    if not 0.0 < sigma2 < np.inf:  # also NaN
        raise ValueError(f"sigma2 must be finite and > 0, got {sigma2}")
    smin = as_signal(smin)
    m = as_count(m, "m", 2 * smin.size)
    return float(sigma2 * unit_crb(smin) / m)
