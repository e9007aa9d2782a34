"""Data-consistency block: regularized normal-equation solves by CG.

Given measured k-space y and a dictionary approximation x_approx of the
image, the block solves

    (A^H A + lam I) x = A^H y + lam x_approx

with a fixed number of conjugate-gradient iterations.  The iteration count
is part of the network configuration (not adaptive) so that the computation
graph has static depth; every iteration's intermediates are recorded in a trace
for the hand-written backward pass.  lam > 0 makes the operator Hermitian
positive definite, so plain CG applies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteValue, ShapeMismatch
from .operators import CoilMaps, SamplingMask, normal_apply


class NormalOperator:
    """H = A^H A + lam I for fixed coil maps and sampling mask."""

    def __init__(self, coils: CoilMaps, mask: SamplingMask, lam: float):
        self.coils = coils
        self.mask = mask
        self.lam = float(lam)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        out = normal_apply(x, self.coils, self.mask)
        out += self.lam * x
        return out


@dataclass(frozen=True)
class CgIteration:
    """Quantities of one CG iteration kept for the backward pass."""

    p: np.ndarray
    q: np.ndarray          # H p
    r_next: np.ndarray     # residual after the update
    rho: float             # ||r||^2 entering the iteration
    pi: float              # Re<p, H p>
    alpha: float
    beta: float | None     # None on the final recorded iteration


@dataclass(frozen=True)
class CgTrace:
    """Initial state plus the per-iteration records of one solve."""

    x0: np.ndarray
    r0: np.ndarray
    iterations: tuple


@dataclass(frozen=True)
class CgResult:
    image: np.ndarray
    residuals: tuple       # residual norms, initial value first
    trace: CgTrace


def cg_solve(rhs: np.ndarray, operator, x0: np.ndarray, n_cg: int) -> CgResult:
    """Run exactly n_cg CG iterations on operator(x) = rhs from x0.

    Stops early only on an exactly zero residual (the system is solved).
    The last recorded iteration has beta None: no search direction follows.
    """
    if n_cg < 1:
        raise ValueError(f"n_cg must be >= 1, got {n_cg}")
    if rhs.shape != x0.shape:
        raise ShapeMismatch(f"rhs shape {rhs.shape} vs start shape {x0.shape}")
    x = x0.astype(np.complex128, copy=True)
    r = rhs - operator(x0)
    if not np.all(np.isfinite(r)):
        raise NonFiniteValue("non-finite residual at CG start")
    r0 = r
    p = r.copy()
    rho = float(np.vdot(r, r).real)
    residuals = [np.sqrt(rho)]
    records = []
    for i in range(n_cg):
        if rho == 0.0:
            break
        q = operator(p)
        if not np.all(np.isfinite(q)):
            raise NonFiniteValue("non-finite operator output during CG")
        pi = float(np.vdot(p, q).real)
        alpha = rho / pi
        x = x + alpha * p
        r_next = r - alpha * q
        rho_next = float(np.vdot(r_next, r_next).real)
        residuals.append(np.sqrt(rho_next))
        last = i == n_cg - 1 or rho_next == 0.0
        beta = None if last else rho_next / rho
        records.append(
            CgIteration(p=p, q=q, r_next=r_next, rho=rho, pi=pi, alpha=alpha, beta=beta)
        )
        if last:
            break
        p = r_next + beta * p
        r = r_next
        rho = rho_next
    if not np.all(np.isfinite(x)):
        raise NonFiniteValue("non-finite CG iterate")
    trace = CgTrace(x0=x0.astype(np.complex128, copy=False), r0=r0,
                    iterations=tuple(records))
    return CgResult(image=x, residuals=tuple(residuals), trace=trace)
