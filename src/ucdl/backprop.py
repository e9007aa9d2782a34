"""Hand-written reverse-mode differentiation of the unrolled network.

The forward pass records every intermediate needed to pull a loss gradient
back through T outer iterations: the kernel constants once
(csc.KernelSpectra), per outer iteration each ADMM sweep's varying part
(csc.AdmmStepTrace: s_hat, the image c of its closed-form solve, the prox
input and threshold), the dictionary approximation and the record of the
data-consistency solve: its solution alone if it converged (dc.CgSolution),
else its start and the scalars of every CG iteration (dc.CgTrace).  No
autodiff framework is used.  Each block's VJP sits beside its forward:
the sweep, synthesis, kernel-spectra and weight VJPs in :mod:`ucdl.csc`, the
CG VJP in :mod:`ucdl.dc`, which reverses a converged solve implicitly by the
last rule below (one adjoint CG solve, and no cotangent reaches the warm
start) and replays any other, then reverses it step by step.  This module holds the convention they
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
its kink.  The weights lam, alpha, beta and gamma = beta/lam are read from
the trace's AdmmConfig, the forward's own, so both directions use the same
bits; the VJP of gamma and tau = alpha/beta is AdmmConfig.weights_backward
in :mod:`ucdl.csc`, and :func:`backward` adds only the chain rule through
lam = exp(log_lam) etc.

The forward forms the dictionary approximation as F^{-1}(x_hat - gamma c)
from the last sweep's record; that is the same function of the parameters
as F^{-1} sum_k d_k s_hat_k, so the synthesis VJP reverses it.

The code cotangent stays in the spectral domain between the synthesis and
the s-update: the synthesis VJP hands over the image f = F(approx_bar)/N
alone, and the last sweep's VJP, which owns every pass over its record,
takes from f the cotangent conj(d) f of s_hat (the second F^{-1} rule) and
the synthesis's kernel share conj(s_hat) f.  The state between sweeps is
the prox input v alone (:mod:`ucdl.csc`), so one K-map cotangent v_bar runs
back through the sweeps, across outer iterations too: each sweep's VJP
takes the cotangent of its new v and the previous sweep's recorded v, and
returns the cotangent of that v.  Each sweep transforms v_bar forward one
filter block at a time and one K-map back.  Cotangents that reach no
parameter are not computed: nothing reads the last sweep's v, so its VJP
is handed none, and outer iteration 0 starts from x = A^H y and zero
codes, so it computes no cotangent of x (neither CG's warm start nor the
sweeps' image) nor of its first sweep's input.  The sweeps of one outer
iteration share x's spectrum, so their x cotangents are summed as spectra
and transformed once.

The sweep VJPs work in the cotangent buffer they are handed, transform it
in block scratch, and add the kernel cotangents into backward's one
accumulator, so the backward holds about 2.7 K-map stacks beyond its
trace: the accumulator, v_bar, and the block scratch and images of the
VJPs and of CG's.  The trace itself is read-only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csc import admm_step_backward, spectra_to_kernel_grad, synthesis_backward
from .dc import NormalOperator, cg_backward
from .errors import NonFiniteValue, ShapeMismatch
from .network import NetworkTrace, _kernels_frames_first, _kernels_public
from .tensors import dft_inverse, real_inner


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
    image_shape = trace.sample.image_shape
    if d_image.shape != image_shape:
        raise ShapeMismatch(
            f"loss cotangent shape {d_image.shape}, expected {image_shape}"
        )

    admm_cfg = trace.admm
    lam = admm_cfg.lam
    operator = NormalOperator(trace.sample.coils, trace.sample.mask, lam)
    spectra = trace.spectra

    # the trace is frames-first, (N_t, N_x, N_y)
    x_bar = np.ascontiguousarray(np.moveaxis(d_image, -1, 0), dtype=np.complex128)
    v_bar = None  # the final v is not read
    d_bar = np.zeros(spectra.d.shape[:1] + spectra.power.shape, dtype=np.complex128)
    lam_bar = 0.0
    gamma_bar = 0.0
    tau_bar = 0.0
    # each sweep's input v is the previous sweep's recorded one, across outer
    # iterations too; the first sweep starts from zero codes
    inputs = [None] + [step.v for outer in trace.outer for step in outer.admm][:-1]

    # x_0 = A^H y and the initial zero codes carry no parameters, so outer
    # iteration 0 computes no cotangent of its x or of its first sweep's input
    for t in range(len(trace.outer) - 1, -1, -1):
        outer = trace.outer[t]
        block = "cg_backward"
        try:
            rhs_bar, x_bar, lam_add = cg_backward(outer.cg, x_bar, operator, need_x0=t > 0)
            lam_bar += lam_add
            # rhs = A^H y + lam * approx
            lam_bar += real_inner(rhs_bar, outer.approx)
            block = "synthesis_backward"
            f = synthesis_backward(spectra, lam * rhs_bar)
            del rhs_bar
            block = "admm_step_backward"
            x_hat_bar = 0.0  # the sweeps share x's spectrum
            for step in reversed(outer.admm):
                x_hat_add, v_bar, gamma_add, tau_add = admm_step_backward(
                    step, inputs.pop(), spectra, admm_cfg, f, v_bar, d_bar)
                x_hat_bar = x_hat_bar + x_hat_add
                gamma_bar += gamma_add
                tau_bar += tau_add
                f = None  # earlier sweeps' s is not synthesized
        except NonFiniteValue as err:
            raise NonFiniteValue(f"backward outer iteration {t}: {block}: {err}") from err
        if t > 0:
            x_bar += spectra.n_freq * dft_inverse(x_hat_bar, ndim=spectra.n_spatial)
    kernel_shape = _kernels_frames_first(trace.params.filters.kernels).shape[1:]
    d_filters = _kernels_public(spectra_to_kernel_grad(d_bar, kernel_shape))

    # gamma and tau reversed in csc, then the exp reparameterization
    lam_share, alpha_bar, beta_bar = admm_cfg.weights_backward(gamma_bar, tau_bar)
    return GradientSet(
        d_filters=d_filters,
        d_log_lam=(lam_bar + lam_share) * lam,
        d_log_alpha=alpha_bar * admm_cfg.alpha,
        d_log_beta=beta_bar * admm_cfg.beta,
    )
