"""Desk-scale semidefinite solvers for lifted phase retrieval.

The lifted variable is a Hermitian PSD matrix X standing in for x x^H, so
intensities become linear traces b_m ~ f_m^H X f_m.  Those depend on X only
through its subdiagonal sums r_k = tr(T_k X), so the lifted map is applied
as A(X) = Re{F_M I~ r} with the correlation operator pair of
:mod:`phaseret.signals`, and its adjoint is a Hermitian Toeplitz matrix.
Three entry points:

* ``phaselift_value``: least-squares fit over the PSD cone, optionally with
  a -lambda*X00 pull; the lambda=0 objective is a lower bound on the fit of
  any length-N signal.
* ``phaselift_sf``: bisects lambda until the solution is numerically rank
  one while its fit stays at the lambda=0 lower bound; the rank-one factor
  is the minimum-phase least-squares signal estimate.
* ``sdp_sf``: spectral factorization by maximizing X00 subject to the
  correlation trace constraints, handled by quadratic penalty continuation.

All of them run on an accelerated projected-gradient engine (FISTA with
adaptive restart) whose proximal step is projection onto the PSD cone.
Sizes are guarded to N <= 64; this module is a reference/bounding tool, not
the scalable path (that is the ADMM solver).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.linalg import toeplitz

from .signals import (MeasurementSet, as_correlation, correlation_adjoint,
                      correlation_psd_check, correlation_spectrum,
                      correlation_to_intensity, doubled_lags)

__all__ = ["SdpOptions", "SdpDiagnostics", "psd_project", "phaselift_value",
           "phaselift_sf", "sdp_sf", "lift_equivalence_check",
           "correlation_traces"]

SIZE_GUARD = 64
MAX_BISECTIONS = 40


@dataclass
class SdpOptions:
    max_iters: int = 4000
    grad_tol: float = 1e-7
    rank_tol: float = 1e-6
    fit_slack: float = 1e-6


@dataclass
class SdpDiagnostics:
    lambda_star: float = 0.0
    lower_bound: float = 0.0
    fit: float = 0.0
    eig_ratio: float = 0.0
    solves: int = 0
    converged: bool = True
    eigenvalues: np.ndarray | None = field(default=None, repr=False)


def _hermitize(h: np.ndarray) -> np.ndarray:
    return 0.5 * (h + h.conj().T)


def psd_project(h: np.ndarray) -> np.ndarray:
    """Nearest PSD matrix in Frobenius norm: clamp negative eigenvalues."""
    h = _hermitize(np.asarray(h, dtype=complex))
    w, v = np.linalg.eigh(h)
    w = np.maximum(w, 0.0)
    return _hermitize((v * w) @ v.conj().T)


def partial_dft_matrix(n: int, m: int) -> np.ndarray:
    """First N columns of the M-point DFT matrix, dense."""
    return np.exp(-2j * np.pi * np.outer(np.arange(m), np.arange(n)) / m)


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


def _hermitian_toeplitz(lags: np.ndarray) -> np.ndarray:
    """Hermitian Toeplitz matrix with ``lags[k]`` on the k-th subdiagonal.

    ``Im lags[0]`` is dropped.
    """
    h = toeplitz(lags, np.conj(lags))
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


class _FistaEngine:
    """Accelerated projected gradient over the PSD cone for a smooth cost."""

    def __init__(self, n: int, grad, lipschitz: float, max_iters: int,
                 grad_tol: float, grad_scale: float):
        self.n = n
        self.grad = grad
        self.step = 1.0 / lipschitz
        self.max_iters = max_iters
        self.tol = grad_tol * max(grad_scale, 1.0)

    def run(self, x0: np.ndarray | None = None):
        n = self.n
        x = np.zeros((n, n), dtype=complex) if x0 is None else x0.copy()
        y = x.copy()
        t = 1.0
        converged = False
        for _ in range(self.max_iters):
            g = self.grad(y)
            x_new = psd_project(y - self.step * g)
            # adaptive restart when momentum points uphill
            if np.real(np.vdot(y - x_new, x_new - x)) > 0:
                y = x.copy()
                t = 1.0
                continue
            t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
            y = x_new + ((t - 1.0) / t_new) * (x_new - x)
            pg_norm = np.linalg.norm(x_new - x) / self.step
            x, t = x_new, t_new
            if pg_norm <= self.tol:
                # confirm stationarity with a non-accelerated step
                g = self.grad(x)
                x_chk = psd_project(x - self.step * g)
                if np.linalg.norm(x_chk - x) / self.step <= self.tol:
                    converged = True
                    x = x_chk
                    break
        return x, converged


def _intensity_op(f_mat: np.ndarray, x_mat: np.ndarray) -> np.ndarray:
    """Dense reference for A(X): row sums of (F X) * conj(F)."""
    return np.real(np.einsum("mn,mn->m", f_mat @ x_mat, f_mat.conj()))


def _operator_norm(op, n: int, iters: int = 60) -> float:
    """Power-iteration estimate of a PSD operator on Hermitian matrices."""
    rng = np.random.default_rng(12345)
    x = _hermitize(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    x /= np.linalg.norm(x)
    lam = 1.0
    for _ in range(iters):
        y = op(x)
        lam = np.linalg.norm(y)
        if lam == 0:
            return 1.0
        x = y / lam
    return float(lam) * 1.05  # safety margin over the power estimate


def phaselift_value(b: MeasurementSet, lam: float = 0.0,
                    opts: SdpOptions | None = None, x0: np.ndarray | None = None):
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
    lip = _operator_norm(
        lambda x_mat: 2.0 * _lifted_adjoint(_lifted_op(x_mat, m), n), n)

    def grad(x_mat):
        g = 2.0 * _lifted_adjoint(_lifted_op(x_mat, m) - bvec, n)
        if lam != 0.0:
            g[0, 0] -= lam
        return g

    grad_scale = np.linalg.norm(grad(np.zeros((n, n), dtype=complex)))
    engine = _FistaEngine(n, grad, lip, opts.max_iters, opts.grad_tol, grad_scale)
    x_mat, converged = engine.run(x0)
    fit = float(np.sum((_lifted_op(x_mat, m) - bvec) ** 2))
    return x_mat, fit, converged


def _rank_one_factor(x_mat: np.ndarray):
    w, v = np.linalg.eigh(x_mat)
    lead = np.sqrt(max(w[-1], 0.0)) * v[:, -1]
    if lead[0] != 0:
        lead = lead * (abs(lead[0]) / lead[0])
    ratio = float(max(w[-2], 0.0) / w[-1]) if w.size > 1 and w[-1] > 0 else 0.0
    return lead, ratio, w


def phaselift_sf(b: MeasurementSet, opts: SdpOptions | None = None):
    """Rank-one PhaseLift recovery by bisecting the -lambda*X00 weight.

    Accepts a lambda iff (a) the two leading eigenvalues of the solution
    satisfy lam2/lam1 <= rank_tol and (b) the fit is within
    fit_slack * ||b||^2 of the lambda=0 lower bound.  Solves are
    warm-started from the previous X.  Returns ``(x, lambda_star,
    diagnostics)``; on bracket exhaustion the nearest miss is returned with
    ``diagnostics.converged = False``.
    """
    opts = opts or SdpOptions()
    bvec = np.asarray(b.b, dtype=float)
    slack = opts.fit_slack * float(np.linalg.norm(bvec) ** 2)

    x_mat, f0, _ = phaselift_value(b, 0.0, opts)
    solves = 1
    x_warm = x_mat
    _, ratio0, w0 = _rank_one_factor(x_mat)

    def evaluate(lam):
        nonlocal solves, x_warm
        x_lam, fit, _ = phaselift_value(b, lam, opts, x0=x_warm)
        solves += 1
        x_warm = x_lam
        lead, ratio, w = _rank_one_factor(x_lam)
        return x_lam, fit, lead, ratio, w

    lo = 0.0
    hi = max(1e-3 * (f0 + float(np.linalg.norm(bvec) ** 2)), 1e-12)

    # grow hi until the solution is rank one
    x_hi = fit_hi = lead_hi = w_hi = None
    ratio_hi = np.inf
    for _ in range(60):
        x_hi, fit_hi, lead_hi, ratio_hi, w_hi = evaluate(hi)
        if ratio_hi <= opts.rank_tol:
            break
        lo = hi
        hi *= 4.0

    best = None  # (lam, fit, lead, ratio, w)
    if ratio_hi <= opts.rank_tol and fit_hi <= f0 + slack:
        best = (hi, fit_hi, lead_hi, ratio_hi, w_hi)
    nearest = (hi, fit_hi, lead_hi, ratio_hi, w_hi)

    if best is None:
        for _ in range(MAX_BISECTIONS):
            mid = 0.5 * (lo + hi)
            _, fit, lead, ratio, w = evaluate(mid)
            if ratio <= opts.rank_tol:
                hi = mid
                nearest = (mid, fit, lead, ratio, w)
                if fit <= f0 + slack:
                    best = nearest
                    break
            else:
                lo = mid

    lam_star, fit, lead, ratio, w = best if best is not None else nearest
    diag = SdpDiagnostics(lambda_star=lam_star, lower_bound=f0, fit=fit,
                          eig_ratio=ratio, solves=solves,
                          converged=best is not None, eigenvalues=w)
    return lead, lam_star, diag


def sdp_sf(r, opts: SdpOptions | None = None) -> np.ndarray:
    """Spectral factorization as trace-constrained X00 maximization.

    The trace constraints r_k = tr(T_k X) are enforced by a quadratic
    penalty whose pull term -lam * X00 is driven to zero by continuation;
    the optimum is rank one and its factor is the minimum-phase signal.
    """
    opts = opts or SdpOptions()
    r = as_correlation(r)
    n = r.size
    if n > SIZE_GUARD:
        raise ValueError(f"sdp_sf is desk-scale only (N <= {SIZE_GUARD})")
    r0 = r[0].real
    if r0 == 0.0:
        return np.zeros(n, dtype=complex)
    _, _, ok = correlation_psd_check(r, tol=1e-7 * max(r0, 1.0))
    if not ok:
        from .specfact import InvalidCorrelationError
        raise InvalidCorrelationError("r fails the sampled nonnegativity check")

    # real-constraint multiplicity: lag 0 contributes one equation, others
    # two, so subdiagonal k carries I~ d_k and superdiagonal the conjugate
    scale = r0 ** 2

    def make_grad(lam):
        def grad(x_mat):
            g = _hermitian_toeplitz(doubled_lags(correlation_traces(x_mat) - r)) / scale
            g[0, 0] -= lam
            return g
        return grad

    def penalty_hessian(x_mat):
        return _hermitian_toeplitz(doubled_lags(correlation_traces(x_mat))) / scale

    lip = _operator_norm(penalty_hessian, n)
    x_mat = np.outer(np.ones(n), np.ones(n)) * (r0 / n) + 0j
    lam = 1.0 / max(r0, 1e-12)
    engine_iters = opts.max_iters
    for _ in range(8):
        engine = _FistaEngine(n, make_grad(lam), lip, engine_iters,
                              opts.grad_tol, grad_scale=lam)
        x_mat, _ = engine.run(x_mat)
        violation = float(np.linalg.norm(correlation_traces(x_mat) - r)) / max(r0, 1e-12)
        _, ratio, _ = _rank_one_factor(x_mat)
        if violation <= 1e-9 and ratio <= max(opts.rank_tol, 1e-8):
            break
        lam *= 0.1
    lead, _, _ = _rank_one_factor(x_mat)
    return lead


def lift_equivalence_check(r, x_mat: np.ndarray, m: int):
    """Max over rows of |Re{f_m^H I~ r} - f_m^H X f_m|.

    Returns ``(max_abs_diff, trace_violation)`` where the second entry
    diagnoses how well r_k = tr(T_k X) holds (reported, not enforced).
    """
    r = as_correlation(r)
    f_mat = partial_dft_matrix(r.size, m)
    lhs = correlation_to_intensity(r, m)
    rhs = _intensity_op(f_mat, _hermitize(np.asarray(x_mat, dtype=complex)))
    trace_violation = float(np.abs(correlation_traces(x_mat) - r).max())
    return float(np.abs(lhs - rhs).max()), trace_violation
