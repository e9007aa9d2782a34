"""Data-consistency block: regularized normal-equation solves by CG.

Given measured k-space y and a dictionary approximation x_approx of the
image, the block solves

    (A^H A + lam I) x = A^H y + lam x_approx

with a fixed number of conjugate-gradient iterations.  The iteration count
is part of the network configuration (not adaptive) so that the computation
graph has static depth.  lam > 0 makes the operator Hermitian positive
definite, so plain CG applies.

Every CG here (the forward solve, the implicit backward's adjoint solve and
an unrolled backward's replay) is one loop that updates x, r and p in place
and keeps of an iteration only its scalars rho, pi and alpha.

The backward of a solve depends on how far it got, which :func:`solve_record`
decides from the forward's own final residual.  A converged solve
(||r|| <= CONVERGED_RTOL ||rhs||) is x = H^{-1} rhs, so its record keeps only
x, and :func:`cg_backward` reverses it implicitly: rhs_bar = H^{-1} x_bar by
CG from zero (:func:`cg_to_tolerance`), lam_bar = -Re<rhs_bar, x>, and the
warm start drops out.  An unconverged solve keeps its start x0, r0 and the
iterations' scalars (CgTrace); its backward replays it from there (n_cg more
applications of H), checks the replayed scalars against the record, and
reverses it iteration by iteration.

A non-finite value stops the solve with a NonFiniteValue that names the CG
iteration it showed in.  The solve's VJP, :func:`cg_backward`, sits beside
it, in the cotangent convention of :mod:`ucdl.backprop`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteValue, ShapeMismatch
from .operators import CoilMaps, SamplingMask, normal_apply
from .tensors import real_inner

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
    """The scalars of one CG iteration; beta_{i-1} is its[i].rho / its[i-1].rho."""

    rho: float             # ||r||^2
    pi: float              # Re<p, H p>
    alpha: float           # rho / pi


@dataclass(frozen=True)
class CgTrace:
    """The start of one solve and the scalars of each iteration it ran, from
    which its backward replays the iterations' r, p and H p."""

    x0: np.ndarray
    r0: np.ndarray         # rhs - H x0
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


def _run_cg(x, r, operator, max_iterations: int, rtol: float, name: str, kept=None):
    """CG on operator(x) = b in place from x and r = b - operator(x), until
    ||r|| <= rtol ||r_0|| or for `max_iterations` iterations.  Returns the
    CgIterations and the residual norms, initial value first; a list `kept`
    gets a copy of each iteration's (r, p, H p).  p *= beta; p += r and
    q *= alpha; r -= q give the bits of r + beta p and r - alpha q."""
    rho = real_inner(r, r)
    if not np.isfinite(rho):
        raise NonFiniteValue(f"non-finite residual at {name} start")
    residuals = [np.sqrt(rho)]
    iterations = []
    while len(iterations) < max_iterations and not residuals[-1] <= rtol * residuals[0]:
        if iterations:
            p *= rho / iterations[-1].rho
            p += r
        else:
            p = r.copy()
        q = operator(p)
        # a non-finite entry of q makes pi non-finite (0 inf is nan)
        pi = real_inner(p, q)
        if not np.isfinite(pi):
            raise NonFiniteValue(
                f"non-finite operator output at {name} iteration {len(iterations)}")
        it = CgIteration(rho=rho, pi=pi, alpha=rho / pi)
        iterations.append(it)
        if kept is not None:
            kept.append((r.copy(), p.copy(), q.copy()))
        q *= it.alpha
        r -= q
        np.multiply(p, it.alpha, out=q)  # H p is spent: q now holds alpha p
        x += q
        rho = real_inner(r, r)
        residuals.append(np.sqrt(rho))
    return iterations, residuals


def cg_solve(rhs: np.ndarray, operator, x0: np.ndarray, n_cg: int) -> CgResult:
    """Run exactly n_cg CG iterations on operator(x) = rhs from x0.

    Stops early only on an exactly zero residual (the system is solved).
    """
    if n_cg < 1:
        raise ValueError(f"n_cg must be >= 1, got {n_cg}")
    if rhs.shape != x0.shape:
        raise ShapeMismatch(f"rhs shape {rhs.shape} vs start shape {x0.shape}")
    x = x0.astype(np.complex128, copy=True)
    r0 = rhs - operator(x0)
    iterations, residuals = _run_cg(x, r0.copy(), operator, n_cg, 0.0, "CG")
    if not np.all(np.isfinite(x)):
        raise NonFiniteValue(f"non-finite CG iterate after {len(iterations)} iterations")
    trace = CgTrace(x0=x0.astype(np.complex128, copy=False), r0=r0, iterations=tuple(iterations))
    return CgResult(image=x, residuals=tuple(residuals), trace=trace)


def solve_record(result: CgResult, rhs: np.ndarray, n_cg: int):
    """What the backward of the solve `result` of operator(x) = rhs needs:
    a CgSolution if the solve converged, else its CgTrace."""
    if result.residuals[-1] <= CONVERGED_RTOL * np.sqrt(real_inner(rhs, rhs)):
        return CgSolution(x=result.image, n_cg=n_cg)
    return result.trace


def cg_to_tolerance(b: np.ndarray, operator, max_iterations: int):
    """Solve operator(x) = b by CG from x = 0 until ||r|| <= CONVERGED_RTOL ||b||.

    Returns (x, residual norms, initial value first).  A non-finite value,
    or not reaching the tolerance within `max_iterations`, raises
    NonFiniteValue.
    """
    x = np.zeros_like(b, dtype=np.complex128)
    _, residuals = _run_cg(x, np.array(b, dtype=np.complex128), operator, max_iterations,
                           CONVERGED_RTOL, "adjoint CG")
    if not residuals[-1] <= CONVERGED_RTOL * residuals[0]:
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
    A CgTrace is replayed and reversed iteration by iteration.  A CgSolution
    is x = H^{-1} rhs, so rhs_bar = H^{-1} x_bar (H is Hermitian),
    lam_bar = -Re<rhs_bar, x> from dH/dlam = I, and x0's cotangent is zero.
    """
    if isinstance(record, CgSolution):
        rhs_bar, _ = cg_to_tolerance(x_out_bar, operator, ADJOINT_CAP * record.n_cg)
        x0_bar = np.zeros_like(rhs_bar) if need_x0 else None
        return rhs_bar, x0_bar, -real_inner(rhs_bar, record.x)
    # the replay regenerates each iteration's r, p and H p; the lam
    # contribution then comes from every application of H = A^H A + lam I
    its, kept = record.iterations, []
    replayed, _ = _run_cg(record.x0.copy(), record.r0.copy(), operator, len(its), 0.0,
                          "replayed CG", kept)
    if tuple(replayed) != its:
        raise NonFiniteValue("the replayed CG iterations differ from the solve's record")
    lam_bar = 0.0
    x_bar = np.array(x_out_bar, dtype=np.complex128)
    p_bar = np.zeros_like(x_bar)   # cotangent of p_{i+1}, then of p_i
    r_bar = np.zeros_like(x_bar)   # cotangent of r_{i+1}, then of r_i
    rho_bar = 0.0                  # beta_i's share of the cotangent of rho_{i+1}
    for i in range(len(its) - 1, -1, -1):
        it = its[i]
        r, p, q = kept.pop()
        # r_{i+1} = r_i - alpha_i q_i
        q_bar = -it.alpha * r_bar
        alpha_bar = -real_inner(r_bar, q)
        # x_{i+1} = x_i + alpha_i p_i
        p_bar += it.alpha * x_bar
        alpha_bar += real_inner(x_bar, p)
        # alpha_i = rho_i / pi_i
        rho_bar += alpha_bar / it.pi
        pi_bar = -alpha_bar * it.alpha / it.pi
        # pi_i = Re<p_i, q_i>
        p_bar += pi_bar * q
        q_bar += pi_bar * p
        # q_i = H p_i
        p_bar += operator(q_bar)
        lam_bar += real_inner(q_bar, p)
        # p_i = r_i + beta_{i-1} p_{i-1}, with p_0 = r_0
        r_bar += p_bar
        rho_prev_bar = 0.0
        if i > 0:
            prev = its[i - 1]
            beta = it.rho / prev.rho
            beta_bar = real_inner(p_bar, kept[-1][1])
            p_bar *= beta
            # beta_{i-1} = rho_i / rho_{i-1}
            rho_bar += beta_bar / prev.rho
            rho_prev_bar = -beta_bar * beta / prev.rho
        # rho_i = <r_i, r_i>
        r_bar += rho_bar * 2.0 * r
        rho_bar = rho_prev_bar
    # r_0 = rhs - H x0, so r_bar is the cotangent of rhs
    x0_bar = x_bar - operator(r_bar) if need_x0 else None
    lam_bar -= real_inner(r_bar, record.x0)
    if not np.isfinite(lam_bar):
        raise NonFiniteValue("non-finite lam cotangent")
    return r_bar, x0_bar, lam_bar
