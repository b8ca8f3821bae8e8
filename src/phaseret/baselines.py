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


def _with_magnitude(spec: np.ndarray, mag: np.ndarray, root_b: np.ndarray,
                    out: np.ndarray) -> np.ndarray:
    """Write to ``out`` the signal whose spectrum has the phases of ``spec``
    and the magnitudes ``root_b``: the projection of ifft(spec).  ``mag``
    is |spec|; ``spec`` is overwritten."""
    if mag.all():
        np.divide(spec, mag, out=spec)
    else:
        keep = mag > 0
        np.divide(spec, mag, out=spec, where=keep)
        spec[~keep] = 1.0
    spec *= root_b
    return np.fft.ifft(spec, out=out)


def _gs_cost(mag: np.ndarray, root_b: np.ndarray, work: np.ndarray) -> float:
    """The GS cost of the support-projected signal whose spectrum has the
    magnitudes ``mag``; ``work`` is overwritten."""
    d = np.subtract(root_b, mag, out=work)
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
    # M-point FFT zero-pads it, and that one FFT and its magnitudes serve
    # cost and projection
    x = y[: b.n].astype(complex)
    spec = np.empty(b.m, dtype=complex)
    full = np.empty(b.m, dtype=complex)
    mag, work = np.empty(b.m), np.empty(b.m)
    history = []
    for _ in range(opts.max_iters):
        np.fft.fft(x, b.m, out=spec)
        np.abs(spec, out=mag)
        history.append(_gs_cost(mag, root_b, work))
        x[:] = _with_magnitude(spec, mag, root_b, full)[: b.n]
        if len(history) >= 11:
            prev, cur = history[-11], history[-1]
            if prev - cur <= opts.tol * max(prev, 1.0):
                break
    np.fft.fft(x, b.m, out=spec)
    history.append(_gs_cost(np.abs(spec, out=mag), root_b, work))
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
    t, spec, w = np.empty_like(y), np.empty_like(y), np.empty_like(y)
    mag = np.empty(b.m)
    for _ in range(opts.max_iters):
        np.add(y, p, out=t)
        np.fft.fft(t, out=spec)
        _with_magnitude(spec, np.abs(spec, out=mag), root_b, w)
        np.subtract(t, w, out=p)
        q += w
        y[: b.n] = q[: b.n]
        y[b.n:] = 0.0
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
