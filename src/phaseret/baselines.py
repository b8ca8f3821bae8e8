"""Classical alternating-projection baselines: GS, Fienup, Fienup-SF.

Both iterate between the Fourier-magnitude set {y : |F y| = sqrt(b)} and the
compact-support set {y in C^M : y_n = 0 for n >= N}.  Plain alternating
projections is the Gerchberg-Saxton algorithm, which monotonically
decreases the cost

    cost(x) = min over unit-modulus psi of || diag(sqrt(b)) psi - F_M x ||^2
            = || sqrt(b) - |F_M x| ||^2.

Dykstra's correction with unit step gives Fienup's algorithm.  Fienup-SF
re-expresses the Fienup output through its autocorrelation and factors it by
``kolmogorov_sf``, yielding a minimum-phase estimate with the
identical fit (the intensity model depends on the signal only through its
autocorrelation).

The loops make thousands of length-M transforms per solve, and at
desk-scale M (132 at N = 32) ``numpy.fft``'s Python wrapper (dtype, norm
and axis handling) costs more than the transform.  So they call the pocketfft ufuncs that ``np.fft.fft``
and ``np.fft.ifft`` end in, through the module names ``_fft`` and ``_ifft``
(looked up at each call): forward with factor 1, inverse with the factor
``np.reciprocal(M, dtype=float)`` computed once per solve, as numpy computes
it, and the forward ufunc zero-pads a length-N input to the length of
``out``.  The results are numpy's to the bit.  The random start and the
rest of the package stay on ``np.fft``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.fft import _pocketfft_umath

from .signals import (MeasurementSet, as_count, as_real, autocorrelation,
                      one_row)
from .specfact import kolmogorov_sf

__all__ = ["IterativeOptions", "gs_solve", "fienup_solve", "fienup_sf",
           "gs_converged"]

GS_REFINE_ITERS = 5000   # cap on the GS refinement after Fienup

_fft = _pocketfft_umath.fft     # (a, factor, out=): gufunc (n),()->(m)
_ifft = _pocketfft_umath.ifft


@dataclass
class IterativeOptions:
    max_iters: int = 1000
    tol: float = 1e-10            # a negative tol turns the stall rule off
    seed: int = 0

    def __post_init__(self):
        self.max_iters = as_count(self.max_iters, "max_iters", 0)
        self.tol = as_real(self.tol, "tol")
        self.seed = as_count(self.seed, "seed", 0)


def _with_magnitude(spec: np.ndarray, mag: np.ndarray, root_b: np.ndarray,
                    inv_m: np.float64, out: np.ndarray) -> np.ndarray:
    """Write to ``out`` the signal whose spectrum has the phases of ``spec``
    and the magnitudes ``root_b``: the projection of ifft(spec).  ``mag``
    is |spec| and ``inv_m`` is 1/M; ``spec`` is overwritten."""
    if np.count_nonzero(mag) == mag.size:
        np.divide(spec, mag, out=spec)
    else:
        keep = mag > 0
        np.divide(spec, mag, out=spec, where=keep)
        spec[~keep] = 1.0
    spec *= root_b
    return _ifft(spec, inv_m, out=out)


def _gs_cost(mag: np.ndarray, root_b: np.ndarray, work: np.ndarray) -> float:
    """The GS cost of the support-projected signal whose spectrum has the
    magnitudes ``mag``; ``work`` is overwritten."""
    d = np.subtract(root_b, mag, out=work)
    return math.sqrt(d.dot(d)) ** 2   # as np.linalg.norm(d) ** 2 rounds it


def _stalled(costs, tol: float) -> bool:
    """GS's stopping rule: the cost fell by at most ``tol`` relative to
    max(cost, 1) over the last 10 of ``costs``, one per iteration."""
    if len(costs) < 11:
        return False
    prev, cur = costs[-11], costs[-1]
    return prev - cur <= tol * max(prev, 1.0)


def gs_converged(history: np.ndarray, tol: float) -> bool:
    """Whether the GS loop that returned ``history`` at tolerance ``tol``
    stopped by its stall rule, also on the last iteration its cap allows,
    rather than at the cap.  ``history`` is as :func:`gs_solve` and
    :func:`fienup_solve` return it: one cost per iteration, which the rule
    saw, then the cost of the returned signal, which it did not."""
    return bool(_stalled(history[:-1], tol))


def _root_b(b: MeasurementSet, name: str) -> np.ndarray:
    """sqrt(max(b, 0)) of one measurement row."""
    return np.sqrt(np.maximum(one_row(b, name), 0.0))


def _random_start(root_b: np.ndarray, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    phases = np.exp(2j * np.pi * rng.uniform(size=root_b.size))
    return np.fft.ifft(root_b * phases)


def gs_solve(b: MeasurementSet, opts: IterativeOptions | None = None,
             y0: np.ndarray | None = None):
    """Alternating projections from a random-phase start, or from ``y0``
    of shape (M,).

    Returns ``(x, cost_history)`` where ``x`` has length N and the history
    holds the cost after every support projection (non-increasing).
    """
    opts = opts or IterativeOptions()
    n, m = b.n, b.m
    root_b = _root_b(b, "gs_solve")
    if y0 is None:
        y0 = _random_start(root_b, opts.seed)
    elif np.shape(y0) != (m,):
        raise ValueError(f"y0 must have shape (M,) = ({m},), got "
                         f"{np.shape(y0)}")
    # the iterate is the support-projected signal, kept at length N: the
    # M-point FFT zero-pads it, and that one FFT and its magnitudes serve
    # cost and projection; after the first step it is a view of ``full``,
    # which the next FFT reads before the next inverse FFT overwrites it
    x = np.asarray(y0)[:n].astype(complex)
    spec = np.empty(m, dtype=complex)
    full = np.empty(m, dtype=complex)
    mag, work = np.empty(m), np.empty(m)
    inv_m = np.reciprocal(m, dtype=float)
    history = []
    for _ in range(opts.max_iters):
        _fft(x, 1, out=spec)
        np.abs(spec, out=mag)
        history.append(_gs_cost(mag, root_b, work))
        x = _with_magnitude(spec, mag, root_b, inv_m, full)[:n]
        if _stalled(history, opts.tol):
            break
    _fft(x, 1, out=spec)
    history.append(_gs_cost(np.abs(spec, out=mag), root_b, work))
    return x.copy(), np.asarray(history)


def fienup_solve(b: MeasurementSet, opts: IterativeOptions | None = None):
    """Dykstra-corrected alternating projections, then GS refinement.

    The Dykstra phase runs for ``opts.max_iters`` iterations (the increments
    make the iterates converge toward the intersection of the two sets when
    it is nonempty); the GS phase then polishes until the cost stalls, for
    at most ``GS_REFINE_ITERS`` iterations.  Returns ``(x, cost_history)``
    with the refinement's history, as :func:`gs_solve` gives it.
    """
    opts = opts or IterativeOptions()
    n, m = b.n, b.m
    root_b = _root_b(b, "fienup_solve")
    y = _random_start(root_b, opts.seed)
    p = np.zeros_like(y)
    q = np.zeros_like(y)
    t, spec, w = np.empty_like(y), np.empty_like(y), np.empty_like(y)
    mag = np.empty(m)
    inv_m = np.reciprocal(m, dtype=float)
    # y = P_support(w + q) and q = w + q - y: q stays zero on the support
    # and y off it, so w + q goes to y on the support and to q off it
    w_in, w_out, q_in, q_out = w[:n], w[n:], q[:n], q[n:]
    y_in = y[:n]
    np.add(y, p, out=t)
    y[n:] = 0.0
    for _ in range(opts.max_iters):
        _fft(t, 1, out=spec)
        _with_magnitude(spec, np.abs(spec, out=mag), root_b, inv_m, w)
        np.subtract(t, w, out=p)
        np.add(q_in, w_in, out=y_in)
        q_out += w_out
        np.add(y, p, out=t)

    refine = IterativeOptions(max_iters=GS_REFINE_ITERS, tol=opts.tol,
                              seed=opts.seed)
    return gs_solve(b, refine, y0=y)


def fienup_sf(b: MeasurementSet, opts: IterativeOptions | None = None):
    """Fienup followed by autocorrelation + spectral factorization.

    The output is minimum phase and produces the same intensity model (and
    hence the same fit) as the raw Fienup estimate.
    """
    return kolmogorov_sf(autocorrelation(fienup_solve(b, opts)[0]))
