"""Data-consistency block: regularized normal-equation solves by CG.

Given measured k-space y and a dictionary approximation x_approx of the
image, the block solves

    (A^H A + lam I) x = A^H y + lam x_approx

with a fixed number of conjugate-gradient iterations.  The iteration count
is part of the network configuration (not adaptive) so that the computation
graph has static depth; every iteration's inputs are recorded in a trace
for the hand-written backward pass.  lam > 0 makes the operator Hermitian
positive definite, so plain CG applies.

A non-finite value stops the solve with a NonFiniteValue that names the CG
iteration it showed in.  The solve's VJP, :func:`cg_backward`, sits beside
it, in the cotangent convention of :mod:`ucdl.backprop`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteValue, ShapeMismatch
from .operators import CoilMaps, SamplingMask, normal_apply


class NormalOperator:
    """H = A^H A + lam I for fixed coil maps and sampling mask, acting on
    frames-first (N_t, N_x, N_y) images."""

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
    """The inputs of one CG iteration, kept for the backward pass.

    The first iteration's p is its r.  beta_{i-1} is its[i].rho /
    its[i-1].rho, and an iteration's outgoing residual is the next record's r.
    """

    r: np.ndarray
    p: np.ndarray
    q: np.ndarray          # H p
    rho: float             # ||r||^2
    pi: float              # Re<p, H p>
    alpha: float           # rho / pi


@dataclass(frozen=True)
class CgTrace:
    """The start of one solve plus its per-iteration records."""

    x0: np.ndarray
    iterations: tuple


@dataclass(frozen=True)
class CgResult:
    image: np.ndarray
    residuals: tuple       # residual norms, initial value first
    trace: CgTrace


def cg_solve(rhs: np.ndarray, operator, x0: np.ndarray, n_cg: int) -> CgResult:
    """Run exactly n_cg CG iterations on operator(x) = rhs from x0.

    Stops early only on an exactly zero residual (the system is solved).
    """
    if n_cg < 1:
        raise ValueError(f"n_cg must be >= 1, got {n_cg}")
    if rhs.shape != x0.shape:
        raise ShapeMismatch(f"rhs shape {rhs.shape} vs start shape {x0.shape}")
    x = x0.astype(np.complex128, copy=True)
    r = rhs - operator(x0)
    if not np.all(np.isfinite(r)):
        raise NonFiniteValue("non-finite residual at CG start")
    p = r
    rho = float(np.vdot(r, r).real)
    residuals = [np.sqrt(rho)]
    records = []
    for i in range(n_cg):
        if rho == 0.0:
            break
        if records:
            p = r + (rho / records[-1].rho) * p
        q = operator(p)
        if not np.all(np.isfinite(q)):
            raise NonFiniteValue(f"non-finite operator output at CG iteration {i}")
        pi = float(np.vdot(p, q).real)
        alpha = rho / pi
        x += alpha * p
        records.append(CgIteration(r=r, p=p, q=q, rho=rho, pi=pi, alpha=alpha))
        r = r - alpha * q
        rho = float(np.vdot(r, r).real)
        residuals.append(np.sqrt(rho))
    if not np.all(np.isfinite(x)):
        raise NonFiniteValue(f"non-finite CG iterate after {len(records)} iterations")
    trace = CgTrace(x0=x0.astype(np.complex128, copy=False), iterations=tuple(records))
    return CgResult(image=x, residuals=tuple(residuals), trace=trace)


def _real_inner(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.real(np.vdot(a, b)))


def cg_backward(trace: CgTrace, x_out_bar: np.ndarray, operator: NormalOperator,
                need_x0: bool = True):
    """VJP of the truncated CG solve x = cg(rhs, H, x0).

    Returns cotangents of (rhs, x0) plus the lam contribution collected
    from every application of H = A^H A + lam I.  Without `need_x0` the
    start carries no parameters, and its cotangent (one application of H)
    is None.
    """
    lam_bar = 0.0
    x_bar = np.array(x_out_bar, dtype=np.complex128)
    its = trace.iterations
    p_bar = np.zeros_like(x_bar)   # cotangent of p_{i+1}, then of p_i
    r_bar = np.zeros_like(x_bar)   # cotangent of r_{i+1}, then of r_i
    rho_bar = 0.0                  # beta_i's share of the cotangent of rho_{i+1}
    for i in range(len(its) - 1, -1, -1):
        it = its[i]
        # r_{i+1} = r_i - alpha_i q_i
        q_bar = -it.alpha * r_bar
        alpha_bar = -_real_inner(r_bar, it.q)
        # x_{i+1} = x_i + alpha_i p_i
        p_bar += it.alpha * x_bar
        alpha_bar += _real_inner(x_bar, it.p)
        # alpha_i = rho_i / pi_i
        rho_bar += alpha_bar / it.pi
        pi_bar = -alpha_bar * it.alpha / it.pi
        # pi_i = Re<p_i, q_i>
        p_bar += pi_bar * it.q
        q_bar += pi_bar * it.p
        # q_i = H p_i
        p_bar += operator(q_bar)
        lam_bar += _real_inner(q_bar, it.p)
        # p_i = r_i + beta_{i-1} p_{i-1}, with p_0 = r_0
        r_bar += p_bar
        rho_prev_bar = 0.0
        if i > 0:
            prev = its[i - 1]
            beta = it.rho / prev.rho
            beta_bar = _real_inner(p_bar, prev.p)
            p_bar *= beta
            # beta_{i-1} = rho_i / rho_{i-1}
            rho_bar += beta_bar / prev.rho
            rho_prev_bar = -beta_bar * beta / prev.rho
        # rho_i = <r_i, r_i>
        r_bar += rho_bar * 2.0 * it.r
        rho_bar = rho_prev_bar
    # r_0 = rhs - H x0, so r_bar is the cotangent of rhs
    x0_bar = x_bar - operator(r_bar) if need_x0 else None
    lam_bar -= _real_inner(r_bar, trace.x0)
    if not np.isfinite(lam_bar):
        raise NonFiniteValue("non-finite lam cotangent")
    return r_bar, x0_bar, lam_bar
