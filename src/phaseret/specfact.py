"""Spectral factorization: extract the minimum-phase signal of a correlation.

Two routes are provided.  The cepstral route (``kolmogorov_sf``) samples the
log spectrum of the correlation on L points, takes its causal cepstrum (the
coefficients c_k of log X(z) = sum_k c_k z^-k) by one real FFT, and
exponentiates that power series for the N taps it returns: 2 real FFTs and
N^2/2 complex multiply-adds per row, with no wrap-around.  L starts at the
power of two >= 8N and doubles for each row whose factor x misses its own
correlation, ||x * x - r|| > ``FACTOR_TOL`` r0 (one transform pair at the
power of two >= 2N - 1 measures it), up to ``SfOptions.l``, by default the
larger of 2^16 and the smallest power of two above 32N.  The algebraic
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
                      check_transform_length, chord_slack,
                      coarse_transform_length, correlation_psd_check,
                      correlation_spectrum, default_transform_length)

__all__ = ["SfOptions", "kolmogorov_sf", "root_sf", "is_min_phase",
           "InvalidCorrelationError"]

ROOT_SF_MAX_N = 48  # coefficient expansion loses accuracy as N approaches 64
FLOOR_EPS = 1e-12   # relative spectral floor before the log
FACTOR_TOL = 1e-12         # largest factor residual rho kolmogorov_sf accepts
FACTOR_MAX_L = 2 ** 16     # kolmogorov_sf's default cap for N < 2048
MIN_PHASE_TOL = 1e-6       # zeros up to modulus 1 + tol count as inside
MIN_PHASE_MAX_L = 2 ** 22  # longest transform is_min_phase tries


class InvalidCorrelationError(ValueError):
    """The given sequence is not (numerically) a finite autocorrelation."""


@dataclass
class SfOptions:
    l: int | None = None       # longest transform length, power of two, >= 2N


def kolmogorov_sf(r, opts: SfOptions | None = None) -> np.ndarray:
    """Minimum-phase factor of the correlation ``r`` from its cepstrum.

    The log of the spectrum sampled on L points gives the causal cepstrum
    c_0..c_{N-1} of log X by one real FFT; X = exp(C) then obeys X' = C'X,
    so x_0 = exp(c_0) and t x_t = sum_{k=1..t} k c_k x_{t-k}, one dot
    product per tap: ``np.dot`` for one row, ``np.vecdot`` over the rows of
    a stack, which gives each row the same bits.  There is no length-L
    inverse transform: the result is the factor that exponentiating on the
    L-point grid would give, without its wrap-around terms.  Spectrum
    samples below ``FLOOR_EPS * max`` are clamped to the floor, which
    tolerates zeros on or close to the unit circle.

    L is first ``coarse_transform_length(N)``, the power of two >= 8N, and
    the cepstrum aliases there: c_{L-j} folds onto tap j.  So each factor
    is checked against its own correlation: rho = ||x * x - r|| / r0 over
    the 2N - 1 lags, by Parseval from one FFT of x and one spectrum of r at
    the power of two >= 2N - 1.  A minimum-phase x with rho at roundoff is
    r's factor.  L doubles for the rows above ``FACTOR_TOL`` until each
    clears or L reaches ``opts.l``, by default the larger of
    ``FACTOR_MAX_L`` and ``default_transform_length(N)``; a row whose
    spectrum touches zero on the circle (a binding fit) never clears and
    stops there.  A row that clears at L0 costs 2 real FFTs at L0, the
    residual's transform pair and N^2/2 complex multiply-adds.  A 2D ``r``
    is a stack of correlations as rows, factored together with one residual
    pair per length; each row stops at its own length, so each gives what
    it gives alone.
    """
    rows = np.atleast_2d(as_correlation_rows(r))
    opts = opts or SfOptions()
    n = rows.shape[1]
    cap = max(FACTOR_MAX_L, default_transform_length(n))
    l_max = check_transform_length(n, cap if opts.l is None else opts.l)
    l = min(coarse_transform_length(n), l_max)
    x = _factor(rows, l)
    todo = _uncleared(x, rows)
    while todo.any() and l < l_max:
        l *= 2
        x[todo] = redo = _factor(rows[todo], l)
        todo[todo] = _uncleared(redo, rows[todo])
    return x if np.ndim(r) == 2 else x[0]


def _factor(r: np.ndarray, l: int) -> np.ndarray:
    """The cepstral factor at length ``l`` of each row of the stack ``r``,
    from the log of its spectrum on ``l`` samples floored at ``FLOOR_EPS``
    times the row's largest sample."""
    n = r.shape[-1]
    spectrum = correlation_spectrum(r, l)
    top = spectrum.max(axis=-1, keepdims=True)
    if np.any(top <= 0.0):
        raise InvalidCorrelationError("correlation spectrum is entirely <= 0")
    np.maximum(spectrum, FLOOR_EPS * top, out=spectrum)
    c = np.fft.rfft(np.log(spectrum, out=spectrum))[:, :n] / l
    # the rfft of the real log spectrum holds conj(c_k) at k >= 1 and 2 c_0
    # at k = 0; vecdot conjugates its first argument, which undoes the conj,
    # and np.dot, which dispatches faster per tap, takes the conj'd taps
    kc = (np.arange(n) * c)[:, ::-1].copy()
    x = np.empty(c.shape, dtype=complex)
    x[:, 0] = np.exp(0.5 * c[:, 0].real)
    if len(x) == 1:
        kc, x1 = np.conj(kc[0]), x[0]
        for t in range(1, n):  # t x_t = sum_{k=1..t} k c_k x_{t-k}
            x1[t] = np.dot(kc[n - 1 - t:n - 1], x1[:t]) / t
        return x
    for t in range(1, n):
        x[:, t] = np.vecdot(kc[:, n - 1 - t:n - 1], x[:, :t]) / t
    return x


def _uncleared(x: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Rows whose factor residual rho exceeds ``FACTOR_TOL`` (or is NaN):
    ||x * x - r||^2 over the lags is the mean square of |X|^2 - R on q
    samples, since both are trigonometric polynomials of degree N - 1."""
    q = 1 << (2 * r.shape[-1] - 2).bit_length()
    f = np.fft.fft(x, q)
    gap = f.real ** 2 + f.imag ** 2 - correlation_spectrum(r, q)
    return ~(np.vecdot(gap, gap) <= q * (FACTOR_TOL * r[:, 0].real) ** 2)


def is_min_phase(x):
    """Certify that every zero of X(z) = sum x_n z^-n has |z| <= 1 + tol.

    Counts the zeros of P(w) = sum x_n w^n in |w| < 1/(1+tol) as the
    winding number about 0 of L samples fft(x_rho, L) on that circle.  L
    doubles from the power of two >= 4N until every chord between adjacent
    samples stays more than ``chord_slack(N, L, ||x_rho||_1)`` from 0, the
    most P can stray from a chord under Bernstein's |P''| <= (N-1)^2 max|P|;
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
        # the point of each chord p + t * step closest to 0
        t = np.clip(-(np.conj(p) * step).real
                    / np.maximum(np.abs(step) ** 2, 1e-300), 0.0, 1.0)
        margin = float(np.abs(p).min()) / norm1
        if np.abs(p + t * step).min() > chord_slack(n, l, norm1):
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
