"""Hand-written reverse-mode differentiation of the unrolled network.

The forward pass records every intermediate needed to pull a loss gradient
back through T outer iterations: each ADMM sweep (Sherman-Morrison solve,
soft threshold, dual update), the dictionary synthesis, and every CG
iteration of the data-consistency solve.  No autodiff framework is used.

Cotangent convention for a complex quantity w: w_bar = dL/dRe(w) + i dL/dIm(w).
Under this convention the vector-Jacobian rules used below are

    y = M w, M complex-linear      ->  w_bar += M^H y_bar
    y = conj(w)                    ->  w_bar += conj(y_bar)
    y = a w (a complex constant)   ->  w_bar += conj(a) y_bar
    y = t w (t real parameter)     ->  t_bar += Re<y_bar, w>
    y = |w|^2 (real output)        ->  w_bar += 2 y_bar w
    y = F w (unnormalized DFT)     ->  w_bar += N ifft(y_bar)
    y = F^{-1} w                   ->  w_bar += (1/N) fft(y_bar)
    y = A^{-1} b, A Hermitian      ->  b_bar += A^{-1} y_bar

where <a, b> = sum(conj(a) b).  The soft threshold uses subgradient 0 at
its kink.  Gradients of the log-parameterized weights are produced by the
chain rule through lam = exp(log_lam) etc. and gamma = beta/lam,
tau = alpha/beta.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csc import AdmmStepTrace, SUpdateTrace, _broadcast_spectra, _solve
from .dc import CgTrace, NormalOperator
from .errors import NonFiniteValue, ShapeMismatch, TraceMismatch
from .network import NetworkTrace, _kernels_frames_first, _kernels_public
from .tensors import crop_filter, dft_forward, dft_inverse


@dataclass(frozen=True)
class GradientSet:
    """Gradient of a scalar loss with respect to all trainable parameters."""

    d_filters: np.ndarray
    d_log_lam: float
    d_log_alpha: float
    d_log_beta: float

    def __post_init__(self):
        finite = (
            np.all(np.isfinite(self.d_filters))
            and np.isfinite(self.d_log_lam)
            and np.isfinite(self.d_log_alpha)
            and np.isfinite(self.d_log_beta)
        )
        if not finite:
            raise NonFiniteValue("gradient contains non-finite entries")


def _real_inner(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.real(np.vdot(a, b)))


def _sum_batch(arr: np.ndarray, n_spatial: int) -> np.ndarray:
    """Reduce (K, *batch, *spatial) to (K, *spatial)."""
    return arr.sum(axis=tuple(range(1, arr.ndim - n_spatial)))


def prox_backward(v: np.ndarray, tau: float, u_bar: np.ndarray):
    """VJP of u = soft_threshold(v, tau) acting per real channel."""
    active_re = np.abs(v.real) > tau
    active_im = np.abs(v.imag) > tau
    v_bar = active_re * u_bar.real + 1j * (active_im * u_bar.imag)
    tau_bar = -float((np.sign(v.real) * u_bar.real)[active_re].sum())
    tau_bar -= float((np.sign(v.imag) * u_bar.imag)[active_im].sum())
    return v_bar, tau_bar


def s_update_backward(trace: SUpdateTrace, s_bar: np.ndarray):
    """Closed-form VJP of the per-frequency Sherman-Morrison solve.

    s_hat = A^{-1} r with A = conj(d) d^T + gamma I Hermitian, so r_bar =
    A^{-1} s_hat_bar.  With rho = d^T r_bar and the synthesis residual
    e = d^T s_hat - x_hat, dA s_hat yields the spectra and gamma cotangents
    below, using gamma (w_hat - s_hat) = conj(d) e.

    Returns cotangents of (x, u, z, spectra, gamma), the spectra one reduced
    over batch axes to the (K, *spatial) layout.
    """
    gamma = trace.gamma
    spectra = trace.spectra
    n_spatial = spectra.ndim - 1
    d = _broadcast_spectra(spectra, trace.x_hat.ndim)
    n_freq = float(np.prod(spectra.shape[1:]))

    s_hat_bar = dft_forward(s_bar, ndim=n_spatial) / n_freq
    r_bar = _solve(d, np.conj(d), s_hat_bar, gamma, trace.g,
                   scratch=np.empty_like(s_hat_bar))
    # r = conj(d) x_hat + gamma w_hat ; x_hat = F x ; w_hat = F (u + z)
    rho = (d * r_bar).sum(axis=0)
    e = (d * trace.s_hat).sum(axis=0) - trace.x_hat
    d_bar = -_sum_batch(np.conj(r_bar) * e[np.newaxis]
                        + rho[np.newaxis] * np.conj(trace.s_hat), n_spatial)
    gamma_bar = _real_inner(rho, e) / gamma
    x_bar = n_freq * dft_inverse(rho, ndim=n_spatial)
    w_bar = n_freq * dft_inverse(gamma * r_bar, ndim=n_spatial)
    return x_bar, w_bar.copy(), w_bar, d_bar, gamma_bar


def admm_step_backward(step: AdmmStepTrace, s_bar, u_bar, z_bar):
    """VJP of one s -> u -> z ADMM sweep.

    Takes cotangents of the step outputs (s_new, u_new, z_new) and returns
    cotangents of (x, u_prev, z_prev) plus the spectra/gamma/tau pieces.
    """
    # z_new = z_prev + (u_new - s_new)
    z_prev_bar = z_bar.copy()
    u_bar = u_bar + z_bar
    s_bar = s_bar - z_bar
    # u_new = soft_threshold(v, tau), v = s_new - z_prev
    v_bar, tau_bar = prox_backward(step.v, step.tau, u_bar)
    s_bar = s_bar + v_bar
    z_prev_bar -= v_bar
    # s_new = s_update_traced(x, u_prev, z_prev)[0]
    x_bar, u_prev_bar, z_prev_add, d_bar, gamma_bar = s_update_backward(
        step.s_trace, s_bar
    )
    z_prev_bar += z_prev_add
    return x_bar, u_prev_bar, z_prev_bar, d_bar, gamma_bar, tau_bar


def synthesis_backward(s_hat: np.ndarray, spectra: np.ndarray,
                       synth_bar: np.ndarray):
    """VJP of the spectral dictionary synthesis sum_k d_k * s_k, given s_hat."""
    n_spatial = spectra.ndim - 1
    d = _broadcast_spectra(spectra, synth_bar.ndim)
    n_freq = float(np.prod(spectra.shape[1:]))
    f_synth_bar = dft_forward(synth_bar, ndim=n_spatial)
    s_bar = dft_inverse(np.conj(d) * f_synth_bar[np.newaxis], ndim=n_spatial)
    d_bar = _sum_batch(np.conj(s_hat) * f_synth_bar[np.newaxis], n_spatial) / n_freq
    return s_bar, d_bar


def spectra_to_kernel_grad(d_bar: np.ndarray, kernel_shape: tuple) -> np.ndarray:
    """Chain a spectra cotangent back to the real zero-padded kernels."""
    n_freq = float(np.prod(d_bar.shape[1:]))
    pad_bar = n_freq * dft_inverse(d_bar, ndim=d_bar.ndim - 1)
    return np.stack(
        [crop_filter(pad_bar[k], kernel_shape).real for k in range(len(d_bar))]
    )


def cg_backward(trace: CgTrace, x_out_bar: np.ndarray, operator: NormalOperator):
    """VJP of the truncated CG solve x = cg(rhs, H, x0).

    Returns cotangents of (rhs, x0) plus the lam contribution collected
    from every application of H = A^H A + lam I.
    """
    lam_bar = 0.0
    x_bar = np.array(x_out_bar, dtype=np.complex128)
    p_bar = np.zeros_like(x_bar)
    r_bar = np.zeros_like(x_bar)
    rho_bar = 0.0  # cotangent of rho_{i+1} flowing into iteration i
    for i in range(len(trace.iterations) - 1, -1, -1):
        it = trace.iterations[i]
        rho_prev_bar = 0.0
        # the last iteration (beta None) sets no search direction
        if it.beta is not None:
            # p_{i+1} = r_{i+1} + beta_i p_i
            r_bar = r_bar + p_bar
            beta_bar = _real_inner(p_bar, it.p)
            p_bar = it.beta * p_bar
            # beta_i = rho_{i+1} / rho_i
            rho_bar += beta_bar / it.rho
            rho_prev_bar = -beta_bar * it.beta / it.rho
            # rho_{i+1} = <r_{i+1}, r_{i+1}>
            r_bar = r_bar + rho_bar * 2.0 * it.r_next
        # r_{i+1} = r_i - alpha_i q_i
        q_bar = -it.alpha * r_bar
        alpha_bar = -_real_inner(r_bar, it.q)
        # x_{i+1} = x_i + alpha_i p_i
        p_bar = p_bar + it.alpha * x_bar
        alpha_bar += _real_inner(x_bar, it.p)
        # alpha_i = rho_i / pi_i
        rho_prev_bar += alpha_bar / it.pi
        pi_bar = -alpha_bar * it.alpha / it.pi
        # pi_i = Re<p_i, q_i>
        p_bar = p_bar + pi_bar * it.q
        q_bar = q_bar + pi_bar * it.p
        # q_i = H p_i
        p_bar = p_bar + operator(q_bar)
        lam_bar += _real_inner(q_bar, it.p)
        rho_bar = rho_prev_bar
    # rho_0 = <r_0, r_0>; p_0 = r_0; r_0 = rhs - H x0
    r0_bar = r_bar + p_bar + rho_bar * 2.0 * trace.r0
    rhs_bar = r0_bar
    x0_bar = x_bar - operator(r0_bar)
    lam_bar -= _real_inner(r0_bar, trace.x0)
    return rhs_bar, x0_bar, lam_bar


def backward(trace: NetworkTrace, d_image: np.ndarray) -> GradientSet:
    """Pull a loss cotangent of the network output back to the parameters."""
    config = trace.config
    params = trace.params
    if len(trace.outer) != config.n_outer:
        raise TraceMismatch(
            f"trace holds {len(trace.outer)} outer iterations, "
            f"config asks for {config.n_outer}"
        )
    if any(len(outer.admm) != config.n_admm for outer in trace.outer):
        raise TraceMismatch("trace ADMM depth disagrees with config")
    image_shape = trace.sample.image_shape
    if d_image.shape != image_shape:
        raise ShapeMismatch(
            f"loss cotangent shape {d_image.shape}, expected {image_shape}"
        )

    lam, alpha, beta = params.lam, params.alpha, params.beta
    operator = NormalOperator(trace.sample.coils, trace.sample.mask, lam)

    # the trace is frames-first, (N_t, N_x, N_y)
    x_bar = np.ascontiguousarray(np.moveaxis(d_image, -1, 0), dtype=np.complex128)
    if trace.outer:
        u_bar = np.zeros_like(trace.outer[0].admm[0].s_trace.s_hat)
        z_bar = np.zeros_like(u_bar)
    d_bar = np.zeros_like(trace.spectra)
    lam_bar = 0.0
    gamma_bar = 0.0
    tau_bar = 0.0

    for outer in reversed(trace.outer):
        rhs_bar, x_bar, lam_add = cg_backward(outer.cg, x_bar, operator)
        lam_bar += lam_add
        # rhs = A^H y + lam * approx
        approx_bar = lam * rhs_bar
        lam_bar += _real_inner(rhs_bar, outer.approx)
        s_bar, d_add = synthesis_backward(
            outer.admm[-1].s_trace.s_hat, trace.spectra, approx_bar
        )
        d_bar += d_add
        reg_x_bar = np.zeros_like(approx_bar)
        for step in reversed(outer.admm):
            x_add, u_bar, z_bar, d_add, gamma_add, tau_add = admm_step_backward(
                step, s_bar, u_bar, z_bar
            )
            reg_x_bar += x_add
            d_bar += d_add
            gamma_bar += gamma_add
            tau_bar += tau_add
            s_bar = np.zeros_like(s_bar)  # earlier steps never read s
        x_bar = x_bar + reg_x_bar
    # x_0 = A^H y and the initial zero code state carry no parameters
    kernel_shape = _kernels_frames_first(params.filters.kernels).shape[1:]
    d_filters = _kernels_public(spectra_to_kernel_grad(d_bar, kernel_shape))

    # gamma = beta/lam, tau = alpha/beta, then the exp reparameterization
    lam_total = lam_bar - gamma_bar * beta / lam**2
    alpha_total = tau_bar / beta
    beta_total = gamma_bar / lam - tau_bar * alpha / beta**2
    return GradientSet(
        d_filters=d_filters,
        d_log_lam=lam_total * lam,
        d_log_alpha=alpha_total * alpha,
        d_log_beta=beta_total * beta,
    )
