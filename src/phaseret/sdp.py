"""Desk-scale semidefinite solvers for lifted phase retrieval.

The lifted variable is a Hermitian PSD matrix X standing in for x x^H, so
intensities become linear traces b_m ~ f_m^H X f_m.  Those depend on X only
through its subdiagonal sums r_k = tr(T_k X), so the lifted map is applied
as A(X) = Re{F_M I~ r} with the correlation operator pair of
:mod:`phaseret.signals`, and its adjoint is a Hermitian Toeplitz matrix.
Two entry points:

* ``phaselift_value``: least-squares fit over the PSD cone, optionally with
  a -lambda*X00 pull; the lambda=0 objective is a lower bound on the fit of
  any length-N signal.
* ``phaselift_sf``: the lambda=0 solution reaches the lower bound but need
  not be rank one; its traces are a valid correlation with the same fit,
  and their minimum-phase factor (``kolmogorov_sf``) is the least-squares
  signal estimate.

The solve is ``_fista``, accelerated projected gradient with adaptive
restart, with projection onto the PSD cone and the closed-form Lipschitz
constant 2MN (exact because a ``MeasurementSet`` has M >= 2N).
Sizes are guarded to N <= 64; this module is a reference/bounding tool, not
the scalable path (that is :func:`phaseret.cork.solve_cork`, an exchange
method on the dual of the sampled correlation program).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .signals import (MeasurementSet, correlation_adjoint,
                      correlation_spectrum, intensity_measure)
from .specfact import kolmogorov_sf

__all__ = ["SdpOptions", "SdpDiagnostics", "psd_project", "phaselift_value",
           "phaselift_sf", "correlation_traces"]

SIZE_GUARD = 64
GRAD_TOL = 1e-7   # projected-gradient stop, relative to the initial gradient


@dataclass
class SdpOptions:
    max_iters: int = 4000


@dataclass
class SdpDiagnostics:
    lower_bound: float = 0.0
    fit: float = 0.0
    solves: int = 0
    converged: bool = True


def _hermitize(h: np.ndarray) -> np.ndarray:
    return 0.5 * (h + h.conj().T)


def psd_project(h: np.ndarray) -> np.ndarray:
    """Nearest PSD matrix in Frobenius norm: clamp negative eigenvalues."""
    h = _hermitize(np.asarray(h, dtype=complex))
    w, v = np.linalg.eigh(h)
    w = np.maximum(w, 0.0)
    return _hermitize((v * w) @ v.conj().T)


@lru_cache(maxsize=None)
def _lower_triangle(n: int):
    """Flat indices of the lower triangle of an n x n matrix, and their lags."""
    rows, cols = np.tril_indices(n)
    return rows * n + cols, rows - cols


def correlation_traces(x_mat: np.ndarray) -> np.ndarray:
    """r_k = tr(T_k X): sum of the k-th subdiagonal, k = 0..N-1."""
    x_mat = np.asarray(x_mat)
    n = x_mat.shape[0]
    flat, lag = _lower_triangle(n)
    v = x_mat.ravel().take(flat)
    return np.bincount(lag, v.real, n) + 1j * np.bincount(lag, v.imag, n)


@lru_cache(maxsize=None)
def _toeplitz_index(n: int) -> np.ndarray:
    """Entry (i, j) is i - j + n - 1, the position of lag i - j in the
    stacked lags ``conj(lags[:0:-1]), lags``."""
    i = np.arange(n)
    return i[:, None] - i[None, :] + (n - 1)


def _hermitian_toeplitz(lags: np.ndarray) -> np.ndarray:
    """Hermitian Toeplitz matrix with ``lags[k]`` on the k-th subdiagonal.

    ``Im lags[0]`` is dropped.
    """
    stacked = np.concatenate((np.conj(lags[:0:-1]), lags))
    h = stacked[_toeplitz_index(lags.size)]
    np.fill_diagonal(h, lags[0].real)
    return h


def _lifted_op(x_mat: np.ndarray, m: int) -> np.ndarray:
    """A(X)_m = f_m^H X f_m = Re{F_M I~ r} with r the traces of Hermitian X."""
    return correlation_spectrum(correlation_traces(x_mat), m)


def _lifted_adjoint(c: np.ndarray, n: int) -> np.ndarray:
    """A^*(c) = sum_m c_m f_m f_m^H, the Hermitian Toeplitz matrix of F_M^H c."""
    lags = correlation_adjoint(c, n)
    lags[1:] *= 0.5  # undo I~: the matrix holds lag k once in each triangle
    return _hermitian_toeplitz(lags)


def _fista(grad, lipschitz: float, x0: np.ndarray, project, max_iters: int,
          tol: float):
    """Accelerated projected gradient (FISTA with adaptive restart).

    Minimizes a smooth cost with gradient ``grad`` and Lipschitz constant
    ``lipschitz`` over the convex set whose Euclidean projection is
    ``project``.  Returns ``(x, converged, iters)``; converged means the
    projected-gradient norm fell to ``tol`` and a plain step confirmed it.
    """
    step = 1.0 / lipschitz
    x = y = x0
    t = 1.0
    for iters in range(1, max_iters + 1):
        g = grad(y)
        x_new = project(y - step * g)
        # adaptive restart when momentum points uphill
        if np.real(np.vdot(y - x_new, x_new - x)) > 0:
            y = x
            t = 1.0
            continue
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        y = x_new + ((t - 1.0) / t_new) * (x_new - x)
        pg_norm = np.linalg.norm(x_new - x) / step
        x, t = x_new, t_new
        if pg_norm <= tol:
            # confirm stationarity with a non-accelerated step
            x_chk = project(x - step * grad(x))
            if np.linalg.norm(x_chk - x) / step <= tol:
                return x_chk, True, iters
    return x, False, max_iters


def phaselift_value(b: MeasurementSet, lam: float = 0.0,
                    opts: SdpOptions | None = None):
    """Minimize sum_m (b_m - f_m^H X f_m)^2 - lam * X00 over PSD X.

    Returns ``(X, objective, converged)`` where ``objective`` is the fit
    alone (regularizer excluded), comparable across methods.
    """
    opts = opts or SdpOptions()
    n = b.n
    if n > SIZE_GUARD:
        raise ValueError(f"phaselift_value is desk-scale only (N <= {SIZE_GUARD})")
    m = b.m
    bvec = np.asarray(b.b, dtype=float)

    def grad(x_mat):
        g = 2.0 * _lifted_adjoint(_lifted_op(x_mat, m) - bvec, n)
        if lam != 0.0:
            g[0, 0] -= lam
        return g

    x0 = np.zeros((n, n), dtype=complex)
    tol = GRAD_TOL * max(np.linalg.norm(grad(x0)), 1.0)
    # ||A(X)||^2 = M ||traces(X)||_W^2 <= M N ||X||_F^2, equal at X = I
    x_mat, converged, _ = _fista(grad, 2.0 * m * n, x0, psd_project,
                                  opts.max_iters, tol)
    fit = float(np.sum((_lifted_op(x_mat, m) - bvec) ** 2))
    return x_mat, fit, converged


def phaselift_sf(b: MeasurementSet, opts: SdpOptions | None = None):
    """Minimum-phase least-squares estimate from one lambda=0 PhaseLift solve.

    The lifted solution X attains the lower bound but need not be rank one.
    X is PSD, so its traces r_k = tr(T_k X) are a valid correlation with the
    same fit, and their minimum-phase factor (``kolmogorov_sf`` at the
    default transform length) attains it too.  Returns ``(x, X,
    diagnostics)``: the factor, the lifted solution, and the bound, the fit
    of x, one solve and whether it converged.
    """
    x_mat, bound, converged = phaselift_value(b, 0.0, opts)
    x = kolmogorov_sf(correlation_traces(x_mat))
    fit = float(np.sum((intensity_measure(x, b.m) - b.b) ** 2))
    return x, x_mat, SdpDiagnostics(lower_bound=bound, fit=fit, solves=1,
                                    converged=converged)

