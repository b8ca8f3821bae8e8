"""Spectral factorization: extract the minimum-phase signal of a correlation.

Two routes are provided.  The cepstral route (``kolmogorov_sf``) samples the
log spectrum of the correlation on L points, takes its causal cepstrum (the
coefficients c_k of log X(z) = sum_k c_k z^-k) by one real FFT, and
exponentiates that power series for the N taps it returns: 2 real FFTs and
N^2/2 complex multiply-adds per row, with no wrap-around.  The algebraic
route (``root_sf``) finds the zeros of the two-sided correlation polynomial
(companion-matrix eigenvalues, ``np.roots``), which come in
conjugate-reciprocal pairs, and keeps the N-1 innermost; it is accurate only
for small N and serves as a cross-validation oracle.  ``is_min_phase``
certifies a signal minimum phase at any N by the argument principle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .signals import (as_correlation, as_correlation_rows, as_signal,
                      check_transform_length, correlation_psd_check,
                      correlation_spectrum)

__all__ = ["SfOptions", "kolmogorov_sf", "root_sf", "is_min_phase",
           "InvalidCorrelationError"]

ROOT_SF_MAX_N = 48  # coefficient expansion loses accuracy as N approaches 64
FLOOR_EPS = 1e-12   # relative spectral floor before the log
MIN_PHASE_TOL = 1e-6       # zeros up to modulus 1 + tol count as inside
MIN_PHASE_MAX_L = 2 ** 22  # longest transform is_min_phase tries


class InvalidCorrelationError(ValueError):
    """The given sequence is not (numerically) a finite autocorrelation."""


@dataclass
class SfOptions:
    l: int | None = None       # transform length, power of two, >= 2N


def kolmogorov_sf(r, opts: SfOptions | None = None) -> np.ndarray:
    """Minimum-phase factor of the correlation ``r`` from its cepstrum.

    The log of the spectrum sampled on ``l`` points gives the causal
    cepstrum c_0..c_{N-1} of log X by one real FFT; X = exp(C) then obeys
    X' = C'X, so x_0 = exp(c_0) and t x_t = sum_{k=1..t} k c_k x_{t-k}.
    That is 2 real FFTs plus N^2/2 complex multiply-adds per row, and no
    length-``l`` inverse transform: the result is the factor that
    exponentiating on the ``l``-point grid would give, without its
    wrap-around terms.  Spectrum samples below ``FLOOR_EPS * max`` are
    clamped to the floor, which tolerates near-unit-circle zeros.  Accuracy
    improves with ``l``; the default is the smallest power of two above
    32N.  A 2D ``r`` is a stack of correlations as rows, factored together;
    each row gives what it gives alone.
    """
    r = as_correlation_rows(r)
    opts = opts or SfOptions()
    n = r.shape[-1]
    l = check_transform_length(n, opts.l)

    spectrum = correlation_spectrum(r, l)
    top = spectrum.max(axis=-1, keepdims=True)
    if np.any(top <= 0.0):
        raise InvalidCorrelationError("correlation spectrum is entirely <= 0")
    np.maximum(spectrum, FLOOR_EPS * top, out=spectrum)
    # the rfft of the real log spectrum holds conj(c_k) at k >= 1 and 2 c_0
    # at k = 0; vecdot conjugates its first argument, which undoes the conj
    c = np.fft.rfft(np.log(spectrum, out=spectrum))[..., :n] / l
    kc = (np.arange(n) * c)[..., ::-1].copy()
    x = np.empty(c.shape, dtype=complex)
    x[..., 0] = np.exp(0.5 * c[..., 0].real)
    for t in range(1, n):  # t x_t = sum_{k=1..t} k c_k x_{t-k}
        x[..., t] = np.vecdot(kc[..., n - 1 - t:n - 1], x[..., :t]) / t
    return x


def is_min_phase(x):
    """Certify that every zero of X(z) = sum x_n z^-n has |z| <= 1 + tol.

    Counts the zeros of P(w) = sum x_n w^n in |w| < 1/(1+tol) as the
    winding number about 0 of L samples fft(x_rho, L) on that circle.  L
    doubles from the power of two >= 4N until every chord between adjacent
    samples is farther from 0 than (pi/L)^2 (N-1)^2 ||x_rho||_1 / 2, the
    linear-interpolation error under Bernstein's |P''| <= (N-1)^2 max|P|;
    then P has no zero between samples and the winding is exact.  Past
    ``MIN_PHASE_MAX_L`` x is not certified.  Returns ``(flag, margin)``,
    margin = min |P| over the samples / ||x_rho||_1; x[0] == 0 (a zero at
    the origin) gives ``(False, 0.0)``.
    """
    x = as_signal(x)
    if x[0] == 0:
        return False, 0.0
    n = x.size
    x_rho = x * (1.0 + MIN_PHASE_TOL) ** -np.arange(n)
    norm1 = float(np.abs(x_rho).sum())
    l = 1 << (4 * n - 1).bit_length()
    while True:
        p = np.fft.fft(x_rho, l)
        p_next = np.roll(p, -1)
        step = p_next - p
        # the point of each chord p + t * step nearest to 0
        t = np.clip(-(np.conj(p) * step).real
                    / np.maximum(np.abs(step) ** 2, 1e-300), 0.0, 1.0)
        margin = float(np.abs(p).min()) / norm1
        if np.abs(p + t * step).min() > 0.5 * (np.pi * (n - 1) / l) ** 2 * norm1:
            winding = np.angle(p_next * np.conj(p)).sum() / (2 * np.pi)
            return bool(round(winding) == 0), margin
        if 2 * l > MIN_PHASE_MAX_L:
            return False, margin
        l *= 2


def root_sf(r) -> np.ndarray:
    """Algebraic spectral factorization through the zeros of R(z).

    The zeros of z^{N-1} R(z) pair as (z, 1/conj(z)), a zero at the origin
    with one at infinity, so the N-1 innermost are those of the
    minimum-phase factor.  ``r`` must pass ``correlation_psd_check``.  Only
    for N <= 48; the coefficient expansion is too ill-conditioned beyond
    that (use ``kolmogorov_sf``).  The output has energy r0 and a real
    positive leading entry.
    """
    r = as_correlation(r)
    n = r.size
    if n > ROOT_SF_MAX_N:
        raise ValueError(
            f"root_sf supports N <= {ROOT_SF_MAX_N}; use kolmogorov_sf for N={n}")
    # correlation_psd_check tolerates r0 slightly below 0; sqrt does not
    if r[0].real < 0:
        raise InvalidCorrelationError("r0 must be nonnegative")
    if not correlation_psd_check(r)[2]:
        raise InvalidCorrelationError(
            "sampled correlation spectrum has negative entries")
    # z^{N-1} R(z) has descending coefficients [r*_{N-1} .. r*_1, r0, r1 .. r_{N-1}]
    zeros = np.roots(np.concatenate((np.conj(r[:0:-1]), r)))
    inside = zeros[np.argsort(np.abs(zeros))[:n - 1]]
    x = np.zeros(n, dtype=complex)
    x[:inside.size + 1] = np.poly(inside)
    return x * (np.sqrt(r[0].real) / np.linalg.norm(x))
