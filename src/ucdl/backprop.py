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
    y = F^{-1} sum_k d_k w_k       ->  w_bar_k += conj(d_k) fft(y_bar) / N
    y = A^{-1} b, A Hermitian      ->  b_bar += A^{-1} y_bar

where <a, b> = sum(conj(a) b).  The soft threshold uses subgradient 0 at
its kink.  Gradients of the log-parameterized weights are produced by the
chain rule through lam = exp(log_lam) etc. and gamma = beta/lam,
tau = alpha/beta.

The code cotangent stays in the spectral domain between the synthesis and
the s-update: the synthesis hands over the cotangent of s_hat, conj(d)
F(approx_bar)/N, by the second F^{-1} rule, and a sweep adds the prox and
dual parts F(v_bar - z_bar)/N, so each sweep transforms one K-map
cotangent forward and one back.  Cotangents that reach no parameter are not
computed: nothing reads the last sweep's u and z, so its prox VJP and that
transform are skipped, and outer iteration 0 starts from x = A^H y and zero
codes, so it computes no cotangent of x (neither CG's warm start nor the
sweeps' image) nor of its first sweep's start state.  The sweeps of one
outer iteration share x's spectrum, so their x cotangents are summed as
spectra and transformed once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csc import (AdmmStepTrace, SUpdateTrace, _broadcast_spectra, _channels,
                  _from_channels, _solve)
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
    """Reduce (K, *batch, *spatial) to (K, *spatial); `arr` itself if there
    are no batch axes."""
    axes = tuple(range(1, arr.ndim - n_spatial))
    return arr.sum(axis=axes) if axes else arr


def _n_freq(spectra: np.ndarray) -> float:
    return float(np.prod(spectra.shape[1:]))


def prox_backward(v: np.ndarray, tau: float, u_bar: np.ndarray):
    """VJP of u = soft_threshold(v, tau), in one pass over the float64
    channels: a channel passes where |v| > tau, v_bar = u_bar there and 0
    elsewhere, and tau_bar = -<sign v, v_bar>."""
    v = np.asarray(v)
    channels = _channels(v)
    scratch = np.abs(channels)
    passing = np.greater(scratch, tau)
    v_bar = np.multiply(_channels(np.asarray(u_bar, dtype=v.dtype)), passing)
    np.sign(channels, out=scratch)
    tau_bar = -float(np.multiply(scratch, v_bar, out=scratch).sum())
    return _from_channels(v_bar, v), tau_bar


def s_update_backward(trace: SUpdateTrace, s_hat_bar: np.ndarray,
                      conj_d: np.ndarray, need_w: bool = True):
    """Closed-form VJP of the per-frequency Sherman-Morrison solve.

    Takes the cotangent of the new s's spectrum s_hat, F(s_bar)/N for a
    cotangent s_bar of s = F^{-1} s_hat, and overwrites it.  s_hat = A^{-1} r
    with A = conj(d) d^T + gamma I Hermitian, so r_bar = A^{-1} s_hat_bar.
    With rho = d^T r_bar and the synthesis residual e = d^T s_hat - x_hat,
    dA s_hat yields the spectra and gamma cotangents below, using
    gamma (w_hat - s_hat) = conj(d) e.  `conj_d` is conj(trace.spectra).

    Returns the cotangents of x_hat (rho, spectral), of w = u + z (spatial;
    None unless `need_w`), of the spectra, reduced over batch axes to the
    (K, *spatial) layout, and of gamma.
    """
    gamma = trace.gamma
    spectra = trace.spectra
    n_spatial = spectra.ndim - 1
    d = _broadcast_spectra(spectra, trace.x_hat.ndim)
    conj_d = _broadcast_spectra(conj_d, trace.x_hat.ndim)
    scratch = np.empty_like(s_hat_bar)
    r_bar = _solve(d, conj_d, s_hat_bar, gamma, trace.g, scratch)
    # r = conj(d) x_hat + gamma w_hat ; x_hat = F x ; w_hat = F (u + z)
    rho = np.multiply(d, r_bar, out=scratch).sum(axis=0)
    e = np.multiply(d, trace.s_hat, out=scratch).sum(axis=0)
    e -= trace.x_hat
    d_bar = np.conjugate(r_bar, out=scratch)
    d_bar *= e[np.newaxis]
    term = np.conj(trace.s_hat)
    term *= rho[np.newaxis]
    d_bar += term
    d_bar = _sum_batch(d_bar, n_spatial)
    np.negative(d_bar, out=d_bar)
    gamma_bar = _real_inner(rho, e) / gamma
    w_bar = None
    if need_w:
        w_bar = dft_inverse(np.multiply(gamma, r_bar, out=r_bar), ndim=n_spatial)
        w_bar *= _n_freq(spectra)
    return rho, w_bar, d_bar, gamma_bar


def admm_step_backward(step: AdmmStepTrace, s_hat_bar, u_bar, z_bar,
                       conj_d: np.ndarray, need_state: bool = True):
    """VJP of one s -> u -> z ADMM sweep.

    Takes the cotangents of the step outputs: s_hat_bar of the new s's
    spectrum (from the synthesis, which reads the last sweep's s; it may be
    overwritten), u_bar and z_bar of the new u and z.  None stands for a
    zero cotangent, and u_bar and z_bar are both None or both arrays.
    `conj_d` is conj(step.s_trace.spectra).  Without `need_state` the sweep started from a state that carries no
    parameters, and its cotangents are not computed.

    Returns the cotangent of x_hat (spectral), those of (u_prev, z_prev)
    (spatial, or None), and the spectra/gamma/tau pieces.
    """
    tau_bar = 0.0
    sz_bar = None
    if u_bar is not None:
        # z_new = z_prev + (u_new - s_new); u_new = soft_threshold(v, tau)
        # with v = s_new - z_prev: s_new gets v_bar - z_bar, z_prev the negation
        v_bar, tau_bar = prox_backward(step.v, step.tau, u_bar + z_bar)
        sz_bar = np.subtract(v_bar, z_bar, out=v_bar)
        spectra = step.s_trace.spectra
        sz_hat_bar = dft_forward(sz_bar, ndim=spectra.ndim - 1)
        sz_hat_bar /= _n_freq(spectra)
        if s_hat_bar is not None:
            sz_hat_bar += s_hat_bar
        s_hat_bar = sz_hat_bar
    # s_new = s_update_traced(x, u_prev, z_prev)[0]
    x_hat_bar, w_bar, d_bar, gamma_bar = s_update_backward(
        step.s_trace, s_hat_bar, conj_d, need_w=need_state
    )
    if not (np.isfinite(gamma_bar) and np.isfinite(tau_bar)):
        raise NonFiniteValue("non-finite gamma or tau cotangent")
    z_prev_bar = None
    if need_state:
        z_prev_bar = w_bar.copy() if sz_bar is None else np.subtract(w_bar, sz_bar)
    return x_hat_bar, w_bar, z_prev_bar, d_bar, gamma_bar, tau_bar


def synthesis_backward(s_hat: np.ndarray, conj_d: np.ndarray, synth_bar: np.ndarray):
    """VJP of the spectral dictionary synthesis sum_k d_k * s_k, given s_hat
    and the conjugate kernel spectra conj(d).

    Returns the cotangent of s_hat, conj(d) F(synth_bar)/N, which the
    s-update's VJP takes as it is, and that of the spectra.
    """
    n_spatial = conj_d.ndim - 1
    f_synth_bar = dft_forward(synth_bar, ndim=n_spatial)
    f_synth_bar /= _n_freq(conj_d)
    if not np.all(np.isfinite(f_synth_bar)):
        raise NonFiniteValue("non-finite synthesis cotangent")
    s_hat_bar = _broadcast_spectra(conj_d, synth_bar.ndim) * f_synth_bar[np.newaxis]
    d_bar = np.conj(s_hat)
    d_bar *= f_synth_bar[np.newaxis]
    return s_hat_bar, _sum_batch(d_bar, n_spatial)


def spectra_to_kernel_grad(d_bar: np.ndarray, kernel_shape: tuple) -> np.ndarray:
    """Chain a spectra cotangent back to the real zero-padded kernels."""
    n_freq = float(np.prod(d_bar.shape[1:]))
    pad_bar = n_freq * dft_inverse(d_bar, ndim=d_bar.ndim - 1)
    return np.stack(
        [crop_filter(pad_bar[k], kernel_shape).real for k in range(len(d_bar))]
    )


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
    x0_bar = x_bar - operator(r0_bar) if need_x0 else None
    lam_bar -= _real_inner(r0_bar, trace.x0)
    if not np.isfinite(lam_bar):
        raise NonFiniteValue("non-finite lam cotangent")
    return rhs_bar, x0_bar, lam_bar


def backward(trace: NetworkTrace, d_image: np.ndarray) -> GradientSet:
    """Pull a loss cotangent of the network output back to the parameters.

    A non-finite cotangent raises NonFiniteValue naming the outer iteration
    and the block that met it.
    """
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
    conj_d = np.conj(trace.spectra)
    n_spatial = trace.spectra.ndim - 1

    # the trace is frames-first, (N_t, N_x, N_y)
    x_bar = np.ascontiguousarray(np.moveaxis(d_image, -1, 0), dtype=np.complex128)
    u_bar = z_bar = None  # the final u and z are not read
    d_bar = np.zeros_like(trace.spectra)
    lam_bar = 0.0
    gamma_bar = 0.0
    tau_bar = 0.0

    # x_0 = A^H y and the initial zero code state carry no parameters, so
    # outer iteration 0 computes no cotangent of its x or of its first
    # sweep's start state
    for t in range(len(trace.outer) - 1, -1, -1):
        outer = trace.outer[t]
        block = "cg_backward"
        try:
            rhs_bar, x_bar, lam_add = cg_backward(outer.cg, x_bar, operator, need_x0=t > 0)
            lam_bar += lam_add
            # rhs = A^H y + lam * approx
            approx_bar = lam * rhs_bar
            lam_bar += _real_inner(rhs_bar, outer.approx)
            block = "synthesis_backward"
            s_hat_bar, d_add = synthesis_backward(
                outer.admm[-1].s_trace.s_hat, conj_d, approx_bar
            )
            d_bar += d_add
            block = "admm_step_backward"
            x_hat_bar = 0.0  # the sweeps share x's spectrum
            for j in range(len(outer.admm) - 1, -1, -1):
                x_hat_add, u_bar, z_bar, d_add, gamma_add, tau_add = admm_step_backward(
                    outer.admm[j], s_hat_bar, u_bar, z_bar, conj_d,
                    need_state=t > 0 or j > 0,
                )
                x_hat_bar = x_hat_bar + x_hat_add
                d_bar += d_add
                gamma_bar += gamma_add
                tau_bar += tau_add
                s_hat_bar = None  # earlier sweeps' s is not read
        except NonFiniteValue as err:
            raise NonFiniteValue(f"backward outer iteration {t}: {block}: {err}") from err
        if t > 0:
            x_bar += _n_freq(trace.spectra) * dft_inverse(x_hat_bar, ndim=n_spatial)
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
