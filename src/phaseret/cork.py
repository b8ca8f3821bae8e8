"""Autocorrelation retrieval by FFT-structured ADMM.

Solves the sampled convex program

    minimize_r   || b - Re{F_M I~ r} ||^2
    subject to   Re{F_L I~ r} >= 0   (L samples of the correlation spectrum)

with the three-step splitting

    r <- (F_M^H b + rho F_L^H (z - u)) / (M + rho L)
    z <- max(0, Re{F_L I~ r} + u)
    u <- u + Re{F_L I~ r} - z

whose per-iteration cost is two real L-point FFTs: one spectrum
Re{F_L I~ r}, shared by the z- and u-updates and the primal residual, and
one adjoint I~ F_L^H z, shared by the next r-update and the dual residual.
Both maps are the shared operator pair of :mod:`phaseret.signals`.  For
L >= 2N the adjoint maps the spectrum of r back to L I~ r, so I~ F_L^H u
follows the u-update without a transform.  The scalar divisor relies on
F_M^H F_M = M I, valid for M >= 2N; below that the r-update falls back to
a conjugate-gradient solve of the exact normal equations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse.linalg import LinearOperator, cg

from .signals import (MeasurementSet, as_correlation, correlation_adjoint,
                      correlation_spectrum, default_transform_length,
                      doubled_lags)

__all__ = ["AdmmOptions", "CorkDiagnostics", "solve_cork"]


@dataclass
class AdmmOptions:
    l: int | None = None          # transform length, power of two, >= 2N
    rho: float | None = None      # defaults to M/L
    max_iters: int = 10000
    tol_abs: float = 1e-10
    tol_rel: float = 1e-8


@dataclass
class CorkDiagnostics:
    iters: int
    primal: float
    dual: float
    fit: float
    l: int
    rho: float
    converged: bool
    underdetermined: bool = False
    feasibility_lift: float = 0.0
    cg_failures: int = 0          # r-updates whose CG solve did not converge
    residual_history: list = field(default_factory=list, repr=False)

    def iters_to(self, tol_rel: float, tol_abs: float = 1e-10) -> int | None:
        """First iteration at which both residuals met the given tolerances.

        History rows are (primal, dual, scale); the threshold mirrors the
        solver's stopping rule ``tol_abs*sqrt(L) + tol_rel*scale``.
        """
        sqrt_l = np.sqrt(self.l)
        for i, (primal, dual, scale) in enumerate(self.residual_history):
            eps = tol_abs * sqrt_l + tol_rel * scale
            if primal <= eps and dual <= eps:
                return i + 1
        return None

    def to_json(self) -> dict:
        return {"iters": self.iters, "primal": self.primal, "dual": self.dual,
                "fit": self.fit, "l": self.l, "rho": self.rho,
                "converged": self.converged,
                "underdetermined": self.underdetermined,
                "feasibility_lift": self.feasibility_lift,
                "cg_failures": self.cg_failures}


def _r_update_cg(rhs: np.ndarray, r0: np.ndarray, m: int, l: int,
                 rho: float) -> tuple[np.ndarray, int]:
    """Exact normal-equation solve for M < 2N, over the real view of r.

    Minimizes ||b - Re{F_M I~ r}||^2 + rho ||Re{F_L I~ r} - (z-u)||^2; the
    normal operator is applied with FFTs inside a CG loop.  Returns
    ``(r, info)`` with CG's ``info`` (0 when it converged).
    """
    n = r0.size

    def as_complex(v):
        return v[:n] + 1j * v[n:]

    def as_real(x):
        return np.concatenate((x.real, x.imag))

    def normal_op(v):
        r = as_complex(v)
        g = (correlation_adjoint(correlation_spectrum(r, m), n)
             + rho * correlation_adjoint(correlation_spectrum(r, l), n))
        return as_real(g)

    op = LinearOperator((2 * n, 2 * n), matvec=normal_op, dtype=float)
    v, info = cg(op, as_real(rhs), x0=as_real(r0), rtol=1e-12, atol=0.0,
                 maxiter=10 * n)
    if info != 0 and not np.all(np.isfinite(v)):
        raise FloatingPointError("CG r-update diverged")
    return as_complex(v), info


def solve_cork(b: MeasurementSet, opts: AdmmOptions | None = None):
    """Run the ADMM iterates to convergence; returns ``(r, diagnostics)``.

    When ``b.real_signal`` is set, every iterate is kept real.
    """
    opts = opts or AdmmOptions()
    n, m = b.n, b.m
    l = opts.l if opts.l is not None else default_transform_length(n)
    if l & (l - 1) or l < 2 * n:
        raise ValueError(f"transform length l={l} must be a power of two >= 2N")
    rho = opts.rho if opts.rho is not None else m / l
    if rho <= 0:
        raise ValueError("rho must be positive")

    def constrain(r):
        if b.real_signal:
            r = r.real.astype(complex)
        r[0] = r[0].real
        return r

    bvec = np.asarray(b.b, dtype=float)
    lag_weights = doubled_lags(np.ones(n)).real
    adj_b = correlation_adjoint(bvec, n)          # I~ F_M^H b
    # Start from the unconstrained least-squares fit (exact for M >= 2N).
    r = constrain(adj_b / (m * lag_weights))
    spec = correlation_spectrum(r, l)
    z = np.maximum(0.0, spec)
    u = np.zeros(l)
    adj_z = correlation_adjoint(z, n)             # I~ F_L^H z
    adj_u = np.zeros(n, dtype=complex)            # I~ F_L^H u
    primal = dual = 0.0
    history = []
    sqrt_l = np.sqrt(l)
    converged = False
    iters = 0
    cg_failures = 0
    for iters in range(1, opts.max_iters + 1):
        rhs = adj_b + rho * (adj_z - adj_u)
        if m >= 2 * n:
            # F_M^H F_M = M I makes the normal operator (M + rho L) I~
            r = rhs / ((m + rho * l) * lag_weights)
        else:
            r, info = _r_update_cg(rhs, r, m, l, rho)
            cg_failures += info != 0
        r = constrain(r)
        if not np.all(np.isfinite(r)):
            raise FloatingPointError(
                f"ADMM diverged at iteration {iters} (NaN/Inf in iterates)")
        spec = correlation_spectrum(r, l)
        z = np.maximum(0.0, spec + u)
        u = u + spec - z
        adj_z_prev = adj_z
        adj_z = correlation_adjoint(z, n)
        # I~ F_L^H spec = L I~ r for L >= 2N (r0 is real here)
        adj_u += l * lag_weights * r - adj_z
        primal = float(np.linalg.norm(spec - z))
        dual = float(rho * np.linalg.norm(adj_z - adj_z_prev))
        scale = max(float(np.linalg.norm(spec)), float(np.linalg.norm(z)))
        history.append((primal, dual, scale))
        eps = opts.tol_abs * sqrt_l + opts.tol_rel * scale
        if primal <= eps and dual <= eps:
            converged = True
            break

    # Adding d to r0 raises every spectrum sample by exactly d, so any
    # residual infeasibility is removed by a (tiny) lag-zero lift.
    lift = max(0.0, -float(spec.min()))
    r = as_correlation(r)
    r[0] += lift
    diag = CorkDiagnostics(
        iters=iters,
        primal=primal,
        dual=dual,
        fit=float(np.linalg.norm(bvec - correlation_spectrum(r, m)) ** 2),
        l=l,
        rho=rho,
        converged=converged and cg_failures == 0,
        underdetermined=m < 2 * n,
        feasibility_lift=lift,
        cg_failures=cg_failures,
        residual_history=history,
    )
    return r, diag
