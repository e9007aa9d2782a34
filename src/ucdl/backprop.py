"""Hand-written reverse-mode differentiation of the unrolled network.

The forward pass records every intermediate needed to pull a loss gradient
back through T outer iterations: the kernel constants once
(csc.KernelSpectra), per outer iteration each ADMM sweep's varying part
(csc.AdmmStepTrace: s_hat, the image c of its closed-form solve, the prox
input and threshold), the dictionary approximation and the record of the
data-consistency solve: its solution alone if it converged (dc.CgSolution),
else the inputs of every CG iteration (dc.CgTrace).  No autodiff
framework is used.  Each block's VJP sits beside its forward:
the sweep, prox, synthesis and kernel-spectra VJPs in :mod:`ucdl.csc`, the
CG VJP in :mod:`ucdl.dc`, which reverses a converged solve implicitly by the
last rule below (one adjoint CG solve, and no cotangent reaches the warm
start) and any other step by step.  This module holds the convention they
share and :func:`backward`, which chains them through the network trace.

Cotangent convention for a complex quantity w: w_bar = dL/dRe(w) + i dL/dIm(w).
Under this convention the vector-Jacobian rules of the VJPs are

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
tau = alpha/beta; gamma comes from csc.AdmmConfig, as in the forward, so
both directions use the same bits.

The forward forms the dictionary approximation as F^{-1}(x_hat - gamma c)
from the last sweep's record; that is the same function of the parameters
as F^{-1} sum_k d_k s_hat_k, so the synthesis VJP reverses it.

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

from .csc import AdmmConfig, admm_step_backward, spectra_to_kernel_grad, synthesis_backward
from .dc import NormalOperator, cg_backward
from .errors import NonFiniteValue, ShapeMismatch, TraceMismatch
from .network import NetworkTrace, _kernels_frames_first, _kernels_public
from .tensors import dft_inverse


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
    admm_cfg = AdmmConfig(lam=lam, alpha=alpha, beta=beta)
    operator = NormalOperator(trace.sample.coils, trace.sample.mask, lam)
    spectra = trace.spectra

    # the trace is frames-first, (N_t, N_x, N_y)
    x_bar = np.ascontiguousarray(np.moveaxis(d_image, -1, 0), dtype=np.complex128)
    u_bar = z_bar = None  # the final u and z are not read
    d_bar = np.zeros(spectra.d.shape[:1] + spectra.power.shape, dtype=np.complex128)
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
            lam_bar += float(np.real(np.vdot(rhs_bar, outer.approx)))
            block = "synthesis_backward"
            s_hat_bar, d_add = synthesis_backward(spectra, outer.admm[-1].s_hat, approx_bar)
            d_bar += d_add
            block = "admm_step_backward"
            x_hat_bar = 0.0  # the sweeps share x's spectrum
            for j in range(len(outer.admm) - 1, -1, -1):
                x_hat_add, u_bar, z_bar, d_add, gamma_add, tau_add = admm_step_backward(
                    outer.admm[j], spectra, admm_cfg, s_hat_bar, u_bar, z_bar,
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
            x_bar += spectra.n_freq * dft_inverse(x_hat_bar, ndim=spectra.n_spatial)
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
