"""Classical alternating-projection baselines: GS, Fienup, Fienup-SF.

Both iterate between the Fourier-magnitude set {y : |F y| = sqrt(b)} and the
compact-support set {y in C^M : y_n = 0 for n >= N}.  Plain alternating
projections is the Gerchberg-Saxton algorithm, which monotonically
decreases the cost

    cost(x) = min over unit-modulus psi of || diag(sqrt(b)) psi - F_M x ||^2
            = || sqrt(b) - |F_M x| ||^2.

Dykstra's correction with unit step gives Fienup's algorithm.  Fienup-SF
re-expresses the Fienup output through its autocorrelation and factors it at
the default transform length, yielding a minimum-phase estimate with the
identical fit (the intensity model depends on the signal only through its
autocorrelation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .signals import MeasurementSet, autocorrelation
from .specfact import kolmogorov_sf

__all__ = ["IterativeOptions", "gs_solve", "fienup_solve", "fienup_sf"]

GS_REFINE_ITERS = 5000   # cap on the GS refinement after Fienup


@dataclass
class IterativeOptions:
    max_iters: int = 1000
    tol: float = 1e-10
    seed: int = 0


def _magnitude_project(y: np.ndarray, root_b: np.ndarray) -> np.ndarray:
    """Signal-domain projection onto {y : |F y| = sqrt(b)}."""
    return _with_magnitude(np.fft.fft(y), root_b)


def _with_magnitude(spectrum: np.ndarray, root_b: np.ndarray) -> np.ndarray:
    """The signal whose spectrum has the phases of ``spectrum`` and the
    magnitudes ``root_b``: the projection of ifft(spectrum)."""
    mag = np.abs(spectrum)
    if mag.all():
        phase = spectrum / mag
    else:
        phase = np.where(mag > 0, spectrum / np.where(mag == 0, 1, mag), 1.0)
    return np.fft.ifft(root_b * phase)


def _support_project(y: np.ndarray, n: int) -> np.ndarray:
    out = y.copy()
    out[n:] = 0.0
    return out


def _gs_cost(spectrum: np.ndarray, root_b: np.ndarray) -> float:
    """The GS cost of the support-projected signal whose FFT is ``spectrum``."""
    d = root_b - np.abs(spectrum)
    return math.sqrt(d.dot(d)) ** 2   # as np.linalg.norm(d) ** 2 rounds it


def _random_start(root_b: np.ndarray, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    phases = np.exp(2j * np.pi * rng.uniform(size=root_b.size))
    return np.fft.ifft(root_b * phases)


def gs_solve(b: MeasurementSet, opts: IterativeOptions | None = None,
             y0: np.ndarray | None = None):
    """Alternating projections from a random-phase start.

    Returns ``(x, cost_history)`` where ``x`` has length N and the history
    holds the cost after every support projection (non-increasing).
    """
    opts = opts or IterativeOptions()
    root_b = np.sqrt(np.maximum(np.asarray(b.b, dtype=float), 0.0))
    y = _random_start(root_b, opts.seed) if y0 is None else y0
    # the iterate is the support-projected signal, kept at length N: the
    # M-point FFT zero-pads it, and that one FFT serves cost and projection
    x = y[: b.n].copy()
    history = []
    for _ in range(opts.max_iters):
        spectrum = np.fft.fft(x, b.m)
        history.append(_gs_cost(spectrum, root_b))
        x = _with_magnitude(spectrum, root_b)[: b.n]
        if len(history) >= 11:
            prev, cur = history[-11], history[-1]
            if prev - cur <= opts.tol * max(prev, 1.0):
                break
    history.append(_gs_cost(np.fft.fft(x, b.m), root_b))
    return x, np.asarray(history)


def fienup_solve(b: MeasurementSet, opts: IterativeOptions | None = None):
    """Dykstra-corrected alternating projections, then GS refinement.

    The Dykstra phase runs for ``opts.max_iters`` iterations (the increments
    make the iterates converge toward the intersection of the two sets when
    it is nonempty); the GS phase then polishes until the cost stalls, for
    at most ``GS_REFINE_ITERS`` iterations.  Returns ``(x, cost_history)``
    with the refinement's history, as :func:`gs_solve` gives it.
    """
    opts = opts or IterativeOptions()
    root_b = np.sqrt(np.maximum(np.asarray(b.b, dtype=float), 0.0))
    y = _random_start(root_b, opts.seed)
    p = np.zeros_like(y)
    q = np.zeros_like(y)
    for _ in range(opts.max_iters):
        t = y + p
        w = _magnitude_project(t, root_b)
        p = t - w
        q = w + q
        y = _support_project(q, b.n)
        q[: b.n] = 0.0   # w + q - y: zero on the support, w + q off it

    refine = IterativeOptions(max_iters=GS_REFINE_ITERS, tol=opts.tol,
                              seed=opts.seed)
    return gs_solve(b, refine, y0=y)


def fienup_sf(b: MeasurementSet, opts: IterativeOptions | None = None):
    """Fienup followed by autocorrelation + spectral factorization.

    The output is minimum phase and produces the same intensity model (and
    hence the same fit) as the raw Fienup estimate.
    """
    return kolmogorov_sf(autocorrelation(fienup_solve(b, opts)[0]))
