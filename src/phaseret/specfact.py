"""Spectral factorization: extract the minimum-phase signal of a correlation.

Two routes are provided.  The FFT route (``kolmogorov_sf``) takes half the
log of the sampled correlation spectrum, obtains the phase as its Hilbert
transform (log-magnitude and phase of a minimum-phase transfer function are
a Hilbert pair), and inverts.  The algebraic route (``root_sf``) factors the
two-sided correlation polynomial (companion-matrix eigenvalues, ``np.roots``),
whose zeros come in conjugate-reciprocal pairs, and keeps the ones inside the
unit circle; it is accurate only for small N and serves as a
cross-validation oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .signals import (as_correlation, as_correlation_rows, as_signal,
                      check_transform_length, correlation_spectrum)

__all__ = ["SfOptions", "kolmogorov_sf", "root_sf", "is_min_phase",
           "InvalidCorrelationError"]

ROOT_SF_MAX_N = 48  # coefficient expansion loses accuracy as N approaches 64
FLOOR_EPS = 1e-12   # relative spectral floor before the log


class InvalidCorrelationError(ValueError):
    """The given sequence is not (numerically) a finite autocorrelation."""


@dataclass
class SfOptions:
    l: int | None = None       # transform length, power of two, >= 2N


def kolmogorov_sf(r, opts: SfOptions | None = None) -> np.ndarray:
    """Minimum-phase factor of the correlation ``r`` via log-spectrum FFTs.

    Spectrum samples below ``FLOOR_EPS * max`` are clamped to the floor, which
    tolerates near-unit-circle zeros.  Accuracy improves with ``l``; the
    default is the smallest power of two above 32N.  A 2D ``r`` is a stack
    of correlations as rows, factored together; each row gives what it
    gives alone.
    """
    r = as_correlation_rows(r)
    opts = opts or SfOptions()
    n = r.shape[-1]
    l = check_transform_length(n, opts.l)

    spectrum = correlation_spectrum(r, l)
    top = spectrum.max(axis=-1, keepdims=True)
    if np.any(top <= 0.0):
        raise InvalidCorrelationError("correlation spectrum is entirely <= 0")
    spectrum = np.maximum(spectrum, FLOOR_EPS * top)

    gamma = 0.5 * np.log(spectrum)
    # gamma is real, so its Hilbert transform eta is too: half spectra suffice
    phi = np.fft.rfft(gamma)
    sign_half = np.full(phi.shape[-1], -1.0)
    sign_half[0] = sign_half[-1] = 0.0
    eta = np.fft.irfft(1j * sign_half * phi, l)
    x = np.fft.ifft(np.exp(gamma - 1j * eta))
    return x[..., :n]


def is_min_phase(x, tol: float = 1e-6):
    """True iff every zero of the z-transform of ``x`` has modulus <= 1+tol.

    Returns ``(flag, max_root_modulus)``.  Requires x[0] != 0 so the zero
    set is well posed.
    """
    x = as_signal(x)
    if x[0] == 0:
        raise ValueError("x[0] must be nonzero for a well-posed zero set")
    if x.size == 1:
        return True, 0.0
    roots = np.roots(x)
    max_mod = float(np.abs(roots).max()) if roots.size else 0.0
    return max_mod <= 1.0 + tol, max_mod


def _pair_roots(roots: np.ndarray) -> list[complex]:
    """Select one root per conjugate-reciprocal pair, preferring |z| <= 1."""
    remaining = list(range(len(roots)))
    chosen: list[complex] = []
    while remaining:
        i = remaining.pop(0)
        zi = roots[i]
        if zi == 0:
            # reciprocal partner is at infinity (trimmed leading coefficient)
            chosen.append(zi)
            continue
        if abs(abs(zi) - 1.0) <= 1e-8 and not remaining:
            chosen.append(zi)
            continue
        best_j, best_err = None, np.inf
        for j in remaining:
            err = abs(zi * np.conj(roots[j]) - 1.0)
            if err < best_err:
                best_j, best_err = j, err
        pair_tol = 1e-6 * (1.0 + abs(zi) ** 2)
        if best_j is None or best_err > pair_tol:
            if abs(abs(zi) - 1.0) <= 1e-6:
                # near-circle double root: keep one copy
                chosen.append(zi / abs(zi))
                continue
            raise InvalidCorrelationError(
                f"unpaired spectral zero at {zi} (pairing error {best_err:.3g})")
        zj = roots[best_j]
        remaining.remove(best_j)
        chosen.append(zi if abs(zi) <= abs(zj) else zj)
    return chosen


def root_sf(r) -> np.ndarray:
    """Algebraic spectral factorization through the zeros of R(z).

    Only for N <= 48; the coefficient expansion is too ill-conditioned
    beyond that (use ``kolmogorov_sf``).  The output is scaled to energy
    r0 with a real positive leading entry.
    """
    r = as_correlation(r)
    n = r.size
    if n > ROOT_SF_MAX_N:
        raise ValueError(
            f"root_sf supports N <= {ROOT_SF_MAX_N}; use kolmogorov_sf for N={n}")
    r0 = r[0].real
    if r0 < 0:
        raise InvalidCorrelationError("r0 must be nonnegative")
    if n == 1:
        return np.array([np.sqrt(r0)], dtype=complex)
    # z^{N-1} R(z) has descending coefficients [r*_{N-1} .. r*_1, r0, r1 .. r_{N-1}]
    coeffs = np.concatenate((np.conj(r[1:][::-1]), [r[0]], r[1:]))
    lead_trim = np.trim_zeros(coeffs, "f")
    if lead_trim.size <= 1:
        return np.concatenate(([np.sqrt(r0)], np.zeros(n - 1, dtype=complex)))
    roots = np.roots(coeffs)
    inside = _pair_roots(roots)
    x = np.array([1.0], dtype=complex)
    for zero in inside:
        x = np.convolve(x, [1.0, -zero])
    x = np.concatenate((x, np.zeros(n - x.size, dtype=complex)))[:n]
    x *= np.sqrt(r0) / np.linalg.norm(x)
    if x[0] != 0:
        x *= abs(x[0]) / x[0]
    return x
