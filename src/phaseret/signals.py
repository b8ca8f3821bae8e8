"""Core signal machinery: partial DFTs, autocorrelation, intensity maps, metrics.

Signals are plain 1D complex numpy arrays.  The one-sided autocorrelation
``r`` of a length-N signal is also a length-N complex array with ``r[0]``
real and nonnegative.  The intensity of the M-point DFT of a signal depends
on the signal only through ``r``: ``|F_M x|^2 = Re{F_M I~ r}``, where ``I~``
doubles every lag except lag zero.  That identity is the backbone of every
solver in this package; it is alias free for M >= 2N - 1, where one real
FFT applies the map or its adjoint.  The correlation maps, and the solvers
built on them, also take a 2D stack of equal-length rows along the last axis.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "as_signal",
    "as_rows",
    "as_correlation",
    "as_correlation_rows",
    "dft_partial",
    "intensity_measure",
    "autocorrelation",
    "doubled_lags",
    "correlation_to_intensity",
    "correlation_spectrum",
    "correlation_adjoint",
    "correlation_psd_check",
    "global_phase_distance",
    "default_transform_length",
    "check_transform_length",
    "MeasurementSet",
]


def as_signal(x) -> np.ndarray:
    """Coerce to a finite 1D complex array of length >= 1."""
    x = as_rows(x)
    if x.ndim != 1:
        raise ValueError("signal must be a 1D sequence of length >= 1")
    return x


def as_rows(x) -> np.ndarray:
    """Coerce to a finite complex array holding one signal (1D) or a stack
    of equal-length signals as rows (2D), each of length >= 1."""
    x = np.atleast_1d(np.asarray(x, dtype=complex))
    if x.ndim > 2 or x.size < 1:
        raise ValueError("signal must be a 1D sequence, or a 2D stack of "
                         "rows, of length >= 1")
    if not np.all(np.isfinite(x)):
        raise ValueError("signal entries must be finite")
    return x


def as_correlation(r) -> np.ndarray:
    """Coerce to a one-sided correlation array, hard-zeroing Im(r0).

    Solvers may leave ``|Im r0|`` up to ~1e-12*r0 from roundoff; anything
    beyond that is rejected.
    """
    r = as_correlation_rows(r)
    if r.ndim != 1:
        raise ValueError("signal must be a 1D sequence of length >= 1")
    return r


def as_correlation_rows(r) -> np.ndarray:
    """:func:`as_correlation` for one correlation (1D) or a stack of them as
    rows (2D)."""
    r = as_rows(r)
    r0 = r[..., 0]
    if np.any(np.abs(r0.imag) > 1e-12 * np.maximum(np.abs(r0), 1.0)):
        raise ValueError("r[0] must be real (lag-zero correlation is an energy)")
    r = r.copy()
    r[..., 0] = r0.real
    return r


def default_transform_length(n: int) -> int:
    """Smallest power of two strictly greater than 32N."""
    l = 1
    while l <= 32 * n:
        l *= 2
    return l


def check_transform_length(n: int, l: int | None) -> int:
    """``l``, default ``default_transform_length(n)``: a power of two >= 2N."""
    l = default_transform_length(n) if l is None else l
    if l & (l - 1) or l < 2 * n:
        raise ValueError(f"transform length l={l} must be a power of two >= 2N")
    return l


def dft_partial(x, m: int) -> np.ndarray:
    """First-N-columns M-point DFT: F_M @ x, computed by zero-padded FFT.

    Requires ``m >= len(x)``.
    """
    x = as_signal(x)
    if m < x.size:
        raise ValueError(f"m={m} must be >= signal length {x.size}")
    return np.fft.fft(x, n=m)


def intensity_measure(x, m: int) -> np.ndarray:
    """Squared modulus of the M-point DFT of ``x`` (noiseless measurements)."""
    return np.abs(dft_partial(x, m)) ** 2


def autocorrelation(x) -> np.ndarray:
    """One-sided autocorrelation r_k = sum_{n=k}^{N-1} x_n x_{n-k}^*.

    ``r[0] = ||x||^2`` is exactly real.
    """
    x = as_signal(x)
    n = x.size
    r = np.correlate(x, x, mode="full")[n - 1:]
    r[0] = r[0].real
    return r


def doubled_lags(r) -> np.ndarray:
    """Apply the lag-doubling weights diag(1, 2, 2, ..., 2) to ``r``."""
    w = np.asarray(r, dtype=complex).copy()
    w[..., 1:] *= 2.0
    return w


def correlation_to_intensity(r, m: int) -> np.ndarray:
    """Intensity Re{F_m I~ r} implied by a correlation, for ``m >= 2N - 1``."""
    r = as_correlation(r)
    if m < 2 * r.size - 1:
        raise ValueError(f"m={m} must be >= 2N-1={2 * r.size - 1}")
    return correlation_spectrum(r, m)


def correlation_spectrum(r: np.ndarray, m: int) -> np.ndarray:
    """Unvalidated kernel of :func:`correlation_to_intensity` for hot loops.

    ``r`` holds N lags along its last axis and ``m >= 2N - 1``; ``Im r[0]``
    is ignored.  The lags sit below the Nyquist bin, so one real inverse
    transform, which doubles lags 1..N-1, gives the spectrum of every row.
    """
    return m * np.fft.irfft(np.conj(r), m)


def correlation_adjoint(y: np.ndarray, n: int) -> np.ndarray:
    """Adjoint of ``r -> correlation_spectrum(r, m)``: I~ F_m^H y on N lags.

    ``y`` is real with ``m >= 2N - 1`` samples along its last axis, and
    ``<A r, y> = Re<r, A^* y>``.  The N lags are bins of one real forward
    transform of every row.
    """
    return doubled_lags(np.conj(np.fft.rfft(y)[..., :n]))


def correlation_psd_check(r, l: int | None = None, tol: float | None = None):
    """Sampled nonnegativity check of the correlation spectrum.

    Returns ``(min_value, argmin_index, ok)`` where ``min_value`` is the
    smallest of ``l >= 2N - 1`` samples of Re{F_L I~ r} and ``ok`` is True
    iff it is above ``-tol`` (default tol = 1e-9 * max(r0, 1)).
    """
    r = as_correlation(r)
    if l is None:
        l = default_transform_length(r.size)
    if l < 2 * r.size - 1:
        raise ValueError(f"l={l} must be >= 2N-1={2 * r.size - 1}")
    spectrum = correlation_spectrum(r, l)
    idx = int(np.argmin(spectrum))
    min_value = float(spectrum[idx])
    if tol is None:
        tol = 1e-9 * max(r[0].real, 1.0)
    return min_value, idx, min_value >= -tol


def global_phase_distance(s, shat) -> float:
    """min over |psi|=1 of ||s - psi*shat||^2, in closed form."""
    s = as_signal(s)
    shat = as_signal(shat)
    if s.size != shat.size:
        raise ValueError(f"length mismatch: {s.size} vs {shat.size}")
    val = (np.linalg.norm(s) ** 2 + np.linalg.norm(shat) ** 2
           - 2.0 * abs(np.vdot(shat, s)))
    return float(max(val, 0.0))


class MeasurementSet:
    """Intensity samples ``b`` of length M >= 2N for a length-N signal.

    M >= 2N, checked here once for every solver, makes A_M^* A_M = M I~.
    Entries may be negative under noise; they are never clamped.
    ``augmentation`` carries the impulse metadata needed to undo the
    minimum-phase construction (see :mod:`phaseret.measurement`).  A 2D
    ``b`` stacks K measurements of signals sharing N, M, ``sigma2`` and
    ``augmentation`` as rows; :func:`phaseret.cork.solve_cork` solves them
    together, and the other solvers take one row.
    """

    def __init__(self, b, n: int, sigma2: float = 0.0,
                 real_signal: bool = False, augmentation=None):
        b = np.atleast_1d(np.asarray(b, dtype=float))
        if b.ndim > 2 or b.size < 1:
            raise ValueError("b must be a 1D sequence, or a 2D stack of rows, "
                             "of length >= 1")
        if not np.all(np.isfinite(b)):
            raise ValueError("measurement entries must be finite")
        if n < 1:
            raise ValueError("n must be >= 1")
        if b.shape[-1] < 2 * n:
            raise ValueError(f"b needs M >= 2N (got M={b.shape[-1]}, N={n})")
        self.b = b
        self.n = int(n)
        self.sigma2 = float(sigma2)
        self.real_signal = bool(real_signal)
        self.augmentation = augmentation

    @property
    def m(self) -> int:
        return self.b.shape[-1]

    def snr_db(self) -> float:
        """10 log10(||b||^2 / (M sigma^2)), over all rows of a stack; +inf
        when noiseless."""
        if self.sigma2 <= 0.0:
            return float("inf")
        return float(10.0 * np.log10(np.linalg.norm(self.b) ** 2
                                     / (self.b.size * self.sigma2)))

    def __repr__(self):
        return (f"MeasurementSet(m={self.m}, n={self.n}, sigma2={self.sigma2},"
                f" real_signal={self.real_signal})")
