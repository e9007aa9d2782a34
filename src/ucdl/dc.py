"""Data-consistency block: regularized normal-equation solves by CG.

Given measured k-space y and a dictionary approximation x_approx of the
image, the block solves

    (A^H A + lam I) x = A^H y + lam x_approx

with a fixed number of conjugate-gradient iterations.  The iteration count
is part of the network configuration (not adaptive) so that the computation
graph has static depth.  lam > 0 makes the operator Hermitian positive
definite, so plain CG applies.

The backward of a solve depends on how far it got, which :func:`solve_record`
decides from the forward's own final residual.  A converged solve
(||r|| <= CONVERGED_RTOL ||rhs||) is x = H^{-1} rhs, so its record keeps only
x, and :func:`cg_backward` reverses it implicitly: rhs_bar = H^{-1} x_bar by
CG from zero (:func:`cg_to_tolerance`), lam_bar = -Re<rhs_bar, x>, and the
warm start drops out.  An unconverged solve keeps every iteration's inputs
(CgTrace) and is reversed iteration by iteration.

A non-finite value stops the solve with a NonFiniteValue that names the CG
iteration it showed in.  The solve's VJP, :func:`cg_backward`, sits beside
it, in the cotangent convention of :mod:`ucdl.backprop`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteValue, ShapeMismatch
from .operators import CoilMaps, SamplingMask, normal_apply

# a solve whose final residual is at most this fraction of its right-hand
# side counts as exact; the implicit backward solves to the same fraction
CONVERGED_RTOL = 1e-9
# the implicit backward's CG stops with an error after this many times n_cg
# iterations
ADJOINT_CAP = 4


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
class CgSolution:
    """The solution of a converged solve, all its implicit backward needs."""

    x: np.ndarray
    n_cg: int              # the forward's iteration count, which bounds the backward's


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


def solve_record(result: CgResult, rhs: np.ndarray, n_cg: int):
    """What the backward of the solve `result` of operator(x) = rhs needs:
    a CgSolution if the solve converged, else its CgTrace."""
    if result.residuals[-1] <= CONVERGED_RTOL * np.sqrt(_real_inner(rhs, rhs)):
        return CgSolution(x=result.image, n_cg=n_cg)
    return result.trace


def cg_to_tolerance(b: np.ndarray, operator, max_iterations: int):
    """Solve operator(x) = b by CG from x = 0 until ||r|| <= CONVERGED_RTOL ||b||.

    Returns (x, residual norms, initial value first).  A non-finite b, or
    not reaching the tolerance within `max_iterations`, raises NonFiniteValue.
    """
    r = np.asarray(b, dtype=np.complex128)
    x = np.zeros_like(r)
    rho = _real_inner(r, r)
    if not np.isfinite(rho):
        raise NonFiniteValue("non-finite residual at adjoint CG start")
    residuals = [np.sqrt(rho)]
    stop = CONVERGED_RTOL * residuals[0]
    p = r
    for i in range(max_iterations):
        if residuals[-1] <= stop:
            break
        if i > 0:
            p = r + (rho / rho_prev) * p
        q = operator(p)
        alpha = rho / _real_inner(p, q)
        x += alpha * p
        r = r - alpha * q
        rho, rho_prev = _real_inner(r, r), rho
        residuals.append(np.sqrt(rho))
    if not residuals[-1] <= stop:
        raise NonFiniteValue(
            f"adjoint CG left relative residual {residuals[-1] / residuals[0]:.1e} "
            f"after {max_iterations} iterations"
        )
    return x, tuple(residuals)


def cg_backward(record, x_out_bar: np.ndarray, operator: NormalOperator,
                need_x0: bool = True):
    """VJP of the CG solve x = cg(rhs, H, x0) that left `record`.

    Returns cotangents of (rhs, x0) plus the lam contribution.  Without
    `need_x0` the start carries no parameters, and its cotangent is None.
    A CgTrace is reversed iteration by iteration.  A CgSolution is
    x = H^{-1} rhs, so rhs_bar = H^{-1} x_bar (H is Hermitian),
    lam_bar = -Re<rhs_bar, x> from dH/dlam = I, and x0's cotangent is zero.
    """
    if isinstance(record, CgTrace):
        return _unrolled_backward(record, x_out_bar, operator, need_x0)
    rhs_bar, _ = cg_to_tolerance(x_out_bar, operator, ADJOINT_CAP * record.n_cg)
    x0_bar = np.zeros_like(rhs_bar) if need_x0 else None
    return rhs_bar, x0_bar, -_real_inner(rhs_bar, record.x)


def _unrolled_backward(trace: CgTrace, x_out_bar: np.ndarray, operator: NormalOperator,
                       need_x0: bool):
    """VJP of the truncated solve, from the lam contribution of every
    application of H = A^H A + lam I; x0's cotangent costs one more."""
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
