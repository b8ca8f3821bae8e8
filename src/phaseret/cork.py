"""Autocorrelation retrieval by the exchange method on the dual.

Solves the sampled convex program

    minimize_r   || b - A_M r ||^2
    subject to   A_L r >= 0   (L samples of the correlation spectrum)

where A_K r = Re{F_K I~ r} is the shared operator pair of
:mod:`phaseret.signals`.  Every ``MeasurementSet`` has M >= 2N, so
A_M^* A_M = M W with W = I~ = diag(1, 2, ..., 2): the fit is
M ||r - r_ls||_W^2 + c0 with r_ls = W^-1 A_M^* b / M, and the dual
minimizes over lam >= 0

    h(lam) = ||A_L^* lam||_{W^-1}^2 / (4M) + lam^T A_L r_ls

with primal point r(lam) = r_ls + W^-1 A_L^* lam / (2M) and gradient
A_L r(lam), the spectrum of r(lam).  At the optimum only a handful of the
L multipliers are positive, so the exchange method of semi-infinite
programming (Hettich & Kortanek 1993, SIAM Review 35:380) solves for them
on a working set S of grid frequencies w_j = 2 pi j / L.  On S, h is a
nonnegative QP with Hessian K_S / (2M), where K is the Dirichlet kernel

    K_ij = D(w_i - w_j),   D(d) = sin((2N - 1) d / 2) / sin(d / 2),

or (D(w_i - w_j) + D(w_i + w_j)) / 2 for a real signal, whose spectrum is
even, so S then stays in 0..L/2.  Block principal pivoting (Portugal,
Judice & Vicente 1994, Math. Comp. 63:625; Kim & Park 2011, SIAM J. Sci.
Comput. 33:3261) solves the QP from the previous step's support plus the
joining samples: each round is one dense solve of the free block and
exchanges every infeasible index at once, with Murty's single-index rule
as a backup when the count of them stalls, so a step takes a few solves.
Each exchange step then costs two real L-point FFTs, r(lam) by one
``rfft`` and its spectrum by one ``irfft``; every local minimum of the
spectrum below a roundoff threshold joins S, and zero multipliers leave
it.  When nothing joins, lam is dual feasible, complementary on S and
stationary by construction, which is the KKT point of the sampled
program; h falls at every step, so no working set repeats.

When A_L r_ls >= 0, lam = 0 already meets every KKT condition and r_ls is
returned after that one transform.  A stack of measurements (rows of a
2D ``b``) shares that start and test, one transform pair for all rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .signals import (MeasurementSet, check_transform_length,
                      correlation_adjoint, correlation_spectrum, doubled_lags)

__all__ = ["AdmmOptions", "CorkDiagnostics", "StackDiagnostics", "solve_cork"]

VIOLATION_TOL = 1e-12   # relative to max |A_L r_ls|: spectrum roundoff


@dataclass
class AdmmOptions:
    """Options of :func:`solve_cork`.

    ``tol_rel`` has no reader; it is kept for the callers that pass it.
    The exchange stops at roundoff within a few steps.  On speckle at
    N = 128 the steps before the last leave samples 1.6e-4 r0 or more below
    zero, so a looser stop would only come back as a lag-zero lift.
    """

    l: int | None = None          # transform length, power of two, >= 2N
    max_iters: int = 10000        # exchange steps
    tol_rel: float = 1e-8


@dataclass
class CorkDiagnostics:
    iters: int
    fit: float
    l: int
    converged: bool
    feasibility_lift: float = 0.0
    gap: float = 0.0              # duality gap: fit minus a lower bound
    active: int = 0               # working-set size at exit

    def to_json(self) -> dict:
        return {"iters": self.iters, "fit": self.fit, "l": self.l,
                "converged": self.converged,
                "feasibility_lift": self.feasibility_lift, "gap": self.gap,
                "active": self.active}


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


def _dirichlet(d, n: int, l: int) -> np.ndarray:
    """D(2 pi d / L) = sum over |k| < N of exp(2 pi i k d / L), integer d."""
    d = np.asarray(d) % l
    x = np.pi * np.where(d == 0, 1, d) / l
    return np.where(d == 0, 2.0 * n - 1, np.sin((2 * n - 1) * x) / np.sin(x))


def _working_set_kernel(s: np.ndarray, n: int, l: int,
                        real_signal: bool) -> np.ndarray:
    """K_S, the block of A_L W^-1 A_L^* on the grid indices ``s``."""
    k = _dirichlet(s[:, None] - s[None, :], n, l)
    if real_signal:
        k = 0.5 * (k + _dirichlet(s[:, None] + s[None, :], n, l))
    return k


def _nonnegative_qp(k: np.ndarray, c: np.ndarray, mu: np.ndarray,
                    tol: float) -> np.ndarray | None:
    """argmin over mu >= 0 of mu^T k mu / 2 + c^T mu, by block pivoting.

    Starts from a ``mu`` that is optimal on its own support and returns one
    whose gradient k mu + c is >= -tol wherever it is zero.  Each round
    solves the free block once and flips every infeasible index at once: a
    free one whose solution is <= 0 and a bound one whose gradient is below
    -tol.  After three rounds in which the count of them does not fall,
    only the largest flips (Murty's rule), until it falls again.  Returns
    None when k is singular on the free set or no solution is reached in
    10 |S| + 10 rounds.
    """
    free, z, grad = mu > 0, mu, k @ mu + c
    best, chances = mu.size + 1, 3
    for _ in range(10 * mu.size + 10):
        flip = np.where(free, z <= 0, grad < -tol)
        count = flip.sum()
        if count == 0:
            return z
        if count < best:
            best, chances = count, 3
        elif chances:
            chances -= 1
        else:
            flip[:flip.nonzero()[0][-1]] = False
        free ^= flip
        idx = free.nonzero()[0]
        try:
            zf = np.linalg.solve(k[idx[:, None], idx], -c[idx])
        except np.linalg.LinAlgError:
            return None
        z = np.zeros_like(mu)
        z[idx] = zf
        grad = k @ z + c
    return None


def _violations(spec: np.ndarray, tol: float, real_signal: bool) -> np.ndarray:
    """Grid indices of the circular local minima of ``spec`` below -tol."""
    l = spec.size
    cand = np.flatnonzero(spec < -tol)
    if real_signal:
        cand = cand[cand <= l // 2]
    low = cand[spec[cand] <= spec[cand - 1]]
    return low[spec[low] <= spec[(low + 1) % l]]


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

    # lam = 0 is dual feasible, complementary and stationary wherever the
    # least-squares spectrum is nonnegative; the other rows iterate.
    # Adding d to r0 raises every spectrum sample by exactly d, so any
    # residual infeasibility is removed by a (tiny) lag-zero lift.
    k_rows = len(rows)
    r = r_ls.copy()
    iters, converged = [0] * k_rows, [True] * k_rows
    lift, gap, active = [0.0] * k_rows, [0.0] * k_rows, [0] * k_rows
    for k in np.flatnonzero(spec_ls.min(axis=-1) < 0.0):
        tol = VIOLATION_TOL * np.abs(spec_ls[k]).max()
        spec, s, mu = spec_ls[k], np.zeros(0, dtype=int), np.zeros(0)
        lam = np.zeros(l)
        while True:
            new = _violations(spec, tol, b.real_signal)
            new = new[~(new[:, None] == s).any(axis=1)]
            converged[k] = new.size == 0
            if converged[k] or iters[k] == opts.max_iters:
                break
            # mu = lam / (2M) on S, so the QP's gradient is the spectrum.
            # Samples below -tol must move the optimum of a QP run to
            # tol / 2; when none of them joins, K_S is singular or the QP
            # reaches its round cap, the step fails and the solve ends with
            # the previous step's lam.
            grown = np.concatenate((s, new))
            step = _nonnegative_qp(
                _working_set_kernel(grown, n, l, b.real_signal),
                spec_ls[k, grown], np.concatenate((mu, np.zeros(new.size))),
                tol / 2)
            if step is None or not (step[s.size:] > 0).any():
                break
            s, mu = grown[step > 0], step[step > 0]
            lam[:] = 0.0
            lam[s] = 2 * m * mu
            r[k] = r_ls[k] + constrain(correlation_adjoint(lam, n)) / (2 * m * w)
            spec = correlation_spectrum(r[k], l)
            iters[k] += 1
        lift[k] = max(0.0, -float(spec.min()))
        active[k] = s.size
        # with r = r(lam) + d e0, fit - c0 + h(lam) reduces exactly to
        # lam^T A_L r + M d^2, a sum of nonnegative terms
        gap[k] = float(lam @ (spec + lift[k]) + m * lift[k] ** 2)

    r[:, 0] += lift
    residual = rows - correlation_spectrum(r, m)
    diags = [CorkDiagnostics(iters=iters[k],
                             fit=float(np.linalg.norm(residual[k]) ** 2),
                             l=l, converged=converged[k],
                             feasibility_lift=lift[k], gap=gap[k],
                             active=active[k])
             for k in range(k_rows)]
    if b.b.ndim == 1:
        return r[0], diags[0]
    return r, StackDiagnostics(diags)
