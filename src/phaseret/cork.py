"""Autocorrelation retrieval by accelerated projected gradient on the dual.

Solves the sampled convex program

    minimize_r   || b - A_M r ||^2
    subject to   A_L r >= 0   (L samples of the correlation spectrum)

where A_K r = Re{F_K I~ r} is the shared operator pair of
:mod:`phaseret.signals`.  Every ``MeasurementSet`` has M >= 2N, so
A_M^* A_M = M W with W = I~ = diag(1, 2, ..., 2): the fit is
M ||r - r_ls||_W^2 + c0 with r_ls = W^-1 A_M^* b / M, and the dual
minimizes over lam >= 0

    h(lam) = ||A_L^* lam||_{W^-1}^2 / (4M) + lam^T A_L r_ls

with primal point r(lam) = r_ls + W^-1 A_L^* lam / (2M), gradient
A_L r(lam) and Lipschitz constant L / (2M).  :func:`phaseret.sdp.fista`
runs it with the projection lam -> max(lam, 0); each iteration costs two
real L-point FFTs, one adjoint (``rfft``) and one spectrum (``irfft``).
When A_L r_ls >= 0, lam = 0 already meets every KKT condition and r_ls is
returned after that one transform.  A stack of measurements (rows of a
2D ``b``) shares that start and test, one transform pair for all rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sdp import fista
from .signals import (MeasurementSet, check_transform_length,
                      correlation_adjoint, correlation_spectrum, doubled_lags)

__all__ = ["AdmmOptions", "CorkDiagnostics", "StackDiagnostics", "solve_cork"]

TOL_ABS = 1e-10   # absolute stop, scaled by sqrt(L)


@dataclass
class AdmmOptions:
    """Options of :func:`solve_cork`."""

    l: int | None = None          # transform length, power of two, >= 2N
    max_iters: int = 10000
    tol_rel: float = 1e-8


@dataclass
class CorkDiagnostics:
    iters: int
    fit: float
    l: int
    converged: bool
    feasibility_lift: float = 0.0
    gap: float = 0.0              # duality gap: fit minus a lower bound

    def to_json(self) -> dict:
        return {"iters": self.iters, "fit": self.fit, "l": self.l,
                "converged": self.converged,
                "feasibility_lift": self.feasibility_lift, "gap": self.gap}


class StackDiagnostics(list):
    """The per-row :class:`CorkDiagnostics` of a stacked solve.

    ``iters`` and ``converged`` read as for one solve: the stack's total
    iterations, and whether every row converged.
    """

    @property
    def iters(self) -> int:
        return sum(d.iters for d in self)

    @property
    def converged(self) -> bool:
        return all(d.converged for d in self)

    def to_json(self) -> list:
        return [d.to_json() for d in self]


def solve_cork(b: MeasurementSet, opts: AdmmOptions | None = None):
    """Fit a correlation to ``b`` under the sampled spectrum constraint.

    Returns ``(r, diagnostics)``.  When ``b.real_signal`` is set, r is kept
    real.  ``diagnostics.gap`` is fit - (c0 - h(lam)) with
    c0 = ||b||^2 - M ||r_ls||_W^2: by weak duality it bounds the excess of
    the returned fit over the optimum of the sampled program.

    A stacked ``b`` (K rows) gives r with K rows and a
    :class:`StackDiagnostics` of the rows' diagnostics, each equal to what
    that row alone gives.  The least-squares start and its feasibility test
    are one transform pair for the whole stack; rows that fail the test
    iterate one at a time.
    """
    opts = opts or AdmmOptions()
    n, m = b.n, b.m
    l = check_transform_length(n, opts.l)

    def constrain(r):
        if b.real_signal:
            r = r.real.astype(complex)
        r[..., 0] = r[..., 0].real
        return r

    rows = np.atleast_2d(np.asarray(b.b, dtype=float))
    w = doubled_lags(np.ones(n)).real
    r_ls = constrain(correlation_adjoint(rows, n) / (m * w))
    spec_ls = correlation_spectrum(r_ls, l)

    def primal(lam, start):
        v = constrain(correlation_adjoint(lam, n))
        return v, start + v / (2 * m * w)

    # lam = 0 is dual feasible, complementary and stationary wherever the
    # least-squares spectrum is nonnegative; the other rows iterate.
    # Adding d to r0 raises every spectrum sample by exactly d, so any
    # residual infeasibility is removed by a (tiny) lag-zero lift.
    k_rows = len(rows)
    lam, v = np.zeros((k_rows, l)), np.zeros((k_rows, n), dtype=complex)
    r = r_ls.copy()
    iters, converged, lift = [0] * k_rows, [True] * k_rows, [0.0] * k_rows
    for k in np.flatnonzero(spec_ls.min(axis=-1) < 0.0):
        start = r_ls[k]
        tol = TOL_ABS * np.sqrt(l) + opts.tol_rel * np.linalg.norm(spec_ls[k])
        lam[k], converged[k], iters[k] = fista(
            lambda y: correlation_spectrum(primal(y, start)[1], l), l / (2 * m),
            np.zeros(l), lambda y: np.maximum(y, 0.0), opts.max_iters, tol)
        v[k], r[k] = primal(lam[k], start)
        lift[k] = max(0.0, -float(correlation_spectrum(r[k], l).min()))

    r[:, 0] += lift
    residual = rows - correlation_spectrum(r, m)
    diags = []
    for k in range(k_rows):
        # fit - c0 = M ||r - r_ls||_W^2 exactly, so the gap is formed
        # without cancelling against ||b||^2
        gap = (m * np.dot(w, np.abs(r[k] - r_ls[k]) ** 2)
               + np.dot(np.abs(v[k]) ** 2, 1.0 / w) / (4 * m)
               + np.dot(lam[k], spec_ls[k]))
        diags.append(CorkDiagnostics(
            iters=iters[k],
            fit=float(np.linalg.norm(residual[k]) ** 2),
            l=l,
            converged=converged[k],
            feasibility_lift=lift[k],
            gap=float(gap),
        ))
    if b.b.ndim == 1:
        return r[0], diags[0]
    return r, StackDiagnostics(diags)
