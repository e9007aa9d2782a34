"""Reference computations shared by the tests.

The package keeps one implementation of each forward block; the helpers
here exist only so the tests can check those blocks against them.
"""

from dataclasses import dataclass

import numpy as np

from ucdl.backprop import GradientSet
from ucdl.csc import (CodeState, FilterBank, admm_step_traced, filter_spectra,
                      kernel_spectra, spectra_to_kernel_grad)
from ucdl.dc import CgSolution, NormalOperator, cg_backward
from ucdl.errors import ShapeMismatch
from ucdl.operators import adjoint_apply
from ucdl.tensors import dft_forward, dft_inverse, norm2_sq, zero_pad_filter


def frames_first(image):
    """A public (N_x, N_y, N_t) image in the network's (N_t, N_x, N_y) layout."""
    return np.moveaxis(image, -1, 0)


def frames_first_bank(filters):
    """The bank the network runs: a (K, k_x, k_y, k_t) one as (K, k_t, k_x, k_y)."""
    kernels = filters.kernels
    return FilterBank(np.moveaxis(kernels, -1, 1) if kernels.ndim == 4 else kernels)


def circular_convolve(kernel, image):
    """Circular (periodic) convolution of a centered kernel with an image.

    The convolution acts on the trailing ``kernel.ndim`` axes of `image`;
    leading axes are batch dimensions.  Computed via the spectral product of
    the zero-padded kernel with the image spectrum.
    """
    kernel = np.asarray(kernel)
    image = np.asarray(image, dtype=np.complex128)
    if kernel.ndim > image.ndim:
        raise ShapeMismatch(
            f"kernel has more dimensions ({kernel.ndim}) than image ({image.ndim})"
        )
    spatial = image.shape[image.ndim - kernel.ndim:]
    kf = dft_forward(zero_pad_filter(kernel, spatial))
    return dft_inverse(dft_forward(image, kernel.ndim) * kf, kernel.ndim)


def synthesize(filters, s):
    """sum_k d_k * s_k, one circular convolution per kernel."""
    return sum(circular_convolve(kernel, codes) for kernel, codes in zip(filters.kernels, s))


def csc_objective(x, state, filters, config) -> float:
    """Augmented objective: fidelity + sparsity of u + scaled-dual penalty."""
    synth = synthesize(filters, state.s)
    fidelity = 0.5 * config.lam * norm2_sq(x - synth)
    l1 = np.abs(state.u.real).sum() + np.abs(state.u.imag).sum()
    penalty = 0.5 * config.beta * norm2_sq(state.u - state.s + state.z)
    return float(fidelity + config.alpha * l1 + penalty)


def spectra_of(x, filters):
    """The image spectrum and kernel constants a sweep on image x takes."""
    spectra = kernel_spectra(filters, x.shape)
    return dft_forward(x, ndim=spectra.n_spatial), spectra


def run_admm(x, filters, config, n_steps, state=None):
    """`n_steps` sweeps of admm_step_traced, cold-started from zero codes."""
    if state is None:
        state = CodeState.zeros(filters.count, x.shape)
    x_hat, spectra = spectra_of(x, filters)
    for _ in range(n_steps):
        state, _ = admm_step_traced(x_hat, state, spectra, config)
    return state


def _broadcast(spectra, image_ndim):
    """(K, *spatial) spectra with singleton axes for the batch axes of an image."""
    n_batch = image_ndim - (spectra.ndim - 1)
    return spectra.reshape(spectra.shape[:1] + (1,) * n_batch + spectra.shape[1:])


def s_update(x, u, z, filters, gamma):
    """The s-update as the Sherman-Morrison solve of
    (conj(d) d^T + gamma I) s_hat = conj(d) x_hat + gamma w_hat, the
    reference for the package's closed form; returns (s, s_hat)."""
    n_spatial = len(filters.kernel_shape)
    spectra = filter_spectra(filters, x.shape[-n_spatial:])
    d = _broadcast(spectra, x.ndim)
    x_hat = dft_forward(x, ndim=n_spatial)
    w_hat = dft_forward(u + z, ndim=n_spatial)
    g = gamma + (np.abs(spectra) ** 2).sum(axis=0)
    b = np.conj(d) * x_hat[np.newaxis] + gamma * w_hat
    s_hat = b / gamma - np.conj(d) * ((d * b).sum(axis=0) / (gamma * g))[np.newaxis]
    return dft_inverse(s_hat, ndim=n_spatial), s_hat


def closed_form_s_update(x, u, z, filters, gamma):
    """The closed-form s-update s_hat = w_hat + conj(d) c,
    c = (x_hat - d^T w_hat) / (gamma + P), as plain formulas, one temporary
    per operation; returns (s, s_hat, c).  The package's in-place update
    runs the same operations in the same order, so it must return the same
    bits."""
    n_spatial = len(filters.kernel_shape)
    spectra = filter_spectra(filters, x.shape[-n_spatial:])
    d = _broadcast(spectra, x.ndim)
    x_hat = dft_forward(x, ndim=n_spatial)
    w_hat = dft_forward(u + z, ndim=n_spatial)
    power = (np.abs(spectra) ** 2).sum(axis=0)
    c = (x_hat - (d * w_hat).sum(axis=0)) / (gamma + power)
    s_hat = w_hat + np.conj(d) * c[np.newaxis]
    return dft_inverse(s_hat, ndim=n_spatial), s_hat, c


def soft_threshold(values, tau):
    """sign(v) max(|v| - tau, 0) on each real channel, as plain formulas."""
    values = np.asarray(values)
    if np.iscomplexobj(values):
        re = np.sign(values.real) * np.maximum(np.abs(values.real) - tau, 0.0)
        im = np.sign(values.imag) * np.maximum(np.abs(values.imag) - tau, 0.0)
        return re + 1j * im
    return np.sign(values) * np.maximum(np.abs(values) - tau, 0.0)


def admm_step(x, state, filters, config):
    """One s -> u -> z sweep from the plain formulas; returns
    (state, s_hat, c)."""
    s, s_hat, c = closed_form_s_update(x, state.u, state.z, filters, config.gamma)
    u = soft_threshold(s - state.z, config.threshold)
    return CodeState(s=s, u=u, z=state.z + (u - s)), s_hat, c


# -- the backward with the code cotangent handed over in space --------------
#
# Each VJP below returns spatial cotangents, so the synthesis inverse-
# transforms its code cotangent and the s-update transforms it back, and
# every outer iteration computes the cotangents of x and of the start state.
# The s-update's VJP is that of the Sherman-Morrison solve, which recomputes
# the synthesis residual from the image spectrum.

def prox_backward(v, tau, u_bar):
    """VJP of u = soft_threshold(v, tau), one real channel at a time."""
    active_re = np.abs(v.real) > tau
    active_im = np.abs(v.imag) > tau
    v_bar = active_re * u_bar.real + 1j * (active_im * u_bar.imag)
    tau_bar = -float((np.sign(v.real) * u_bar.real)[active_re].sum())
    tau_bar -= float((np.sign(v.imag) * u_bar.imag)[active_im].sum())
    return v_bar, tau_bar


def _sum_batch(arr, n_spatial):
    return arr.sum(axis=tuple(range(1, arr.ndim - n_spatial)))


def sherman_morrison_backward(x_hat, s_hat, spectra, gamma, s_hat_bar):
    """VJP of the Sherman-Morrison solve s_hat = A^{-1} r, A = conj(d) d^T +
    gamma I, r = conj(d) x_hat + gamma w_hat, from the cotangent of s_hat:
    r_bar = A^{-1} s_hat_bar, and with rho = d^T r_bar and the synthesis
    residual e = d^T s_hat - x_hat recomputed, returns the cotangents
    (rho, gamma r_bar, d_bar, gamma_bar) of x_hat, w_hat, the (K, *spatial)
    spectra and gamma."""
    n_spatial = spectra.ndim - 1
    d = _broadcast(spectra, x_hat.ndim)
    g = gamma + (np.abs(spectra) ** 2).sum(axis=0)
    c = (d * s_hat_bar).sum(axis=0) / (gamma * g)
    r_bar = s_hat_bar / gamma - np.conj(d) * c[np.newaxis]
    rho = (d * r_bar).sum(axis=0)
    e = (d * s_hat).sum(axis=0) - x_hat
    d_bar = -_sum_batch(np.conj(r_bar) * e[np.newaxis]
                        + rho[np.newaxis] * np.conj(s_hat), n_spatial)
    gamma_bar = float(np.real(np.vdot(rho, e))) / gamma
    return rho, gamma * r_bar, d_bar, gamma_bar


def s_update_backward(x_hat, s_hat, spectra, gamma, s_bar):
    """VJP of the s-update from the spatial cotangent of s, given its image
    spectrum, its recorded s_hat and the (K, *spatial) kernel spectra;
    returns the cotangents of (x, u, z, spectra, gamma)."""
    n_spatial = spectra.ndim - 1
    n_freq = float(np.prod(spectra.shape[1:]))
    s_hat_bar = dft_forward(s_bar, ndim=n_spatial) / n_freq
    rho, w_hat_bar, d_bar, gamma_bar = sherman_morrison_backward(
        x_hat, s_hat, spectra, gamma, s_hat_bar)
    x_bar = n_freq * dft_inverse(rho, ndim=n_spatial)
    w_bar = n_freq * dft_inverse(w_hat_bar, ndim=n_spatial)
    return x_bar, w_bar.copy(), w_bar, d_bar, gamma_bar


def admm_step_backward(x_hat, step, spectra, gamma, s_bar, u_bar, z_bar):
    """VJP of one sweep from spatial cotangents of (s, u, z)."""
    z_prev_bar = z_bar.copy()
    u_bar = u_bar + z_bar
    s_bar = s_bar - z_bar
    v_bar, tau_bar = prox_backward(step.v, step.tau, u_bar)
    s_bar = s_bar + v_bar
    z_prev_bar -= v_bar
    x_bar, u_prev_bar, z_prev_add, d_bar, gamma_bar = s_update_backward(
        x_hat, step.s_hat, spectra, gamma, s_bar)
    z_prev_bar += z_prev_add
    return x_bar, u_prev_bar, z_prev_bar, d_bar, gamma_bar, tau_bar


def synthesis_backward(s_hat, spectra, synth_bar):
    """VJP of the synthesis: the spatial cotangent of s and that of the spectra."""
    n_spatial = spectra.ndim - 1
    d = _broadcast(spectra, synth_bar.ndim)
    n_freq = float(np.prod(spectra.shape[1:]))
    f_synth_bar = dft_forward(synth_bar, ndim=n_spatial)
    s_bar = dft_inverse(np.conj(d) * f_synth_bar[np.newaxis], ndim=n_spatial)
    d_bar = _sum_batch(np.conj(s_hat) * f_synth_bar[np.newaxis], n_spatial) / n_freq
    return s_bar, d_bar


def solution(record):
    """The image a traced CG solve ended at, bitwise as the solve formed it."""
    if isinstance(record, CgSolution):
        return record.x
    x = np.array(record.x0, dtype=np.complex128)
    for it in record.iterations:
        x += it.alpha * it.p
    return x


def outer_inputs(trace):
    """Each outer iteration's input image, frames-first: A^H y, then the
    solution of the previous iteration's solve."""
    sample = trace.sample
    x = np.ascontiguousarray(frames_first(adjoint_apply(sample.y, sample.coils, sample.mask)))
    inputs = []
    for outer in trace.outer:
        inputs.append(x)
        x = solution(outer.cg)
    return inputs


def backward(trace, d_image):
    """The network's backward from the spatial-handoff VJPs above, with the
    kernel spectra and gamma formed from the parameters and each outer
    iteration's image spectrum from its input image."""
    params = trace.params
    lam, alpha, beta = params.lam, params.alpha, params.beta
    gamma = beta / lam
    operator = NormalOperator(trace.sample.coils, trace.sample.mask, lam)
    x_bar = np.ascontiguousarray(frames_first(d_image), dtype=np.complex128)
    kernels = frames_first_bank(params.filters).kernels
    spectra = filter_spectra(FilterBank(kernels), x_bar.shape[1 - kernels.ndim:])
    u_bar = z_bar = np.zeros((len(kernels),) + x_bar.shape, dtype=np.complex128)
    d_bar = np.zeros_like(spectra)
    lam_bar = gamma_bar = tau_bar = 0.0
    for outer, x in reversed(list(zip(trace.outer, outer_inputs(trace)))):
        x_hat = dft_forward(x, ndim=spectra.ndim - 1)
        rhs_bar, x_bar, lam_add = cg_backward(outer.cg, x_bar, operator)
        lam_bar += lam_add + float(np.real(np.vdot(rhs_bar, outer.approx)))
        s_bar, d_add = synthesis_backward(outer.admm[-1].s_hat, spectra, lam * rhs_bar)
        d_bar += d_add
        for step in reversed(outer.admm):
            x_add, u_bar, z_bar, d_add, gamma_add, tau_add = admm_step_backward(
                x_hat, step, spectra, gamma, s_bar, u_bar, z_bar)
            x_bar = x_bar + x_add
            d_bar += d_add
            gamma_bar += gamma_add
            tau_bar += tau_add
            s_bar = np.zeros_like(s_bar)
    pad_bar = spectra_to_kernel_grad(d_bar, kernels.shape[1:])
    d_filters = np.moveaxis(pad_bar, 1, -1) if pad_bar.ndim == 4 else pad_bar
    lam_total = lam_bar - gamma_bar * beta / lam**2
    beta_total = gamma_bar / lam - tau_bar * alpha / beta**2
    return GradientSet(d_filters=d_filters, d_log_lam=lam_total * lam,
                       d_log_alpha=tau_bar / beta * alpha, d_log_beta=beta_total * beta)


# -- CG that records each iteration's outputs --------------------------------
#
# Each record holds the next residual and beta (None on the last record), and
# the trace keeps r_0 beside its copy p_0, so the backward treats the last
# iteration and the start apart.  The package's CG records only each
# iteration's inputs; both must give the same bits.

@dataclass(frozen=True)
class OutputCgIteration:
    p: np.ndarray
    q: np.ndarray
    r_next: np.ndarray
    rho: float
    pi: float
    alpha: float
    beta: float | None


@dataclass(frozen=True)
class OutputCgTrace:
    x0: np.ndarray
    r0: np.ndarray
    iterations: tuple


def output_cg_solve(rhs, operator, x0, n_cg):
    """n_cg CG iterations from x0; returns (image, residual norms, trace)."""
    x = x0.astype(np.complex128, copy=True)
    r = rhs - operator(x0)
    r0 = r
    p = r.copy()
    rho = float(np.vdot(r, r).real)
    residuals = [np.sqrt(rho)]
    records = []
    for i in range(n_cg):
        if rho == 0.0:
            break
        q = operator(p)
        pi = float(np.vdot(p, q).real)
        alpha = rho / pi
        x = x + alpha * p
        r_next = r - alpha * q
        rho_next = float(np.vdot(r_next, r_next).real)
        residuals.append(np.sqrt(rho_next))
        last = i == n_cg - 1 or rho_next == 0.0
        beta = None if last else rho_next / rho
        records.append(OutputCgIteration(p=p, q=q, r_next=r_next, rho=rho, pi=pi,
                                         alpha=alpha, beta=beta))
        if last:
            break
        p = r_next + beta * p
        r = r_next
        rho = rho_next
    trace = OutputCgTrace(x0=x0.astype(np.complex128, copy=False), r0=r0,
                          iterations=tuple(records))
    return x, tuple(residuals), trace


def _real_inner(a, b):
    return float(np.real(np.vdot(a, b)))


def output_cg_backward(trace, x_out_bar, operator, need_x0=True):
    """VJP of :func:`output_cg_solve`: cotangents of (rhs, x0) and of lam."""
    lam_bar = 0.0
    x_bar = np.array(x_out_bar, dtype=np.complex128)
    p_bar = np.zeros_like(x_bar)
    r_bar = np.zeros_like(x_bar)
    rho_bar = 0.0
    for it in reversed(trace.iterations):
        rho_prev_bar = 0.0
        if it.beta is not None:
            r_bar = r_bar + p_bar
            beta_bar = _real_inner(p_bar, it.p)
            p_bar = it.beta * p_bar
            rho_bar += beta_bar / it.rho
            rho_prev_bar = -beta_bar * it.beta / it.rho
            r_bar = r_bar + rho_bar * 2.0 * it.r_next
        q_bar = -it.alpha * r_bar
        alpha_bar = -_real_inner(r_bar, it.q)
        p_bar = p_bar + it.alpha * x_bar
        alpha_bar += _real_inner(x_bar, it.p)
        rho_prev_bar += alpha_bar / it.pi
        pi_bar = -alpha_bar * it.alpha / it.pi
        p_bar = p_bar + pi_bar * it.q
        q_bar = q_bar + pi_bar * it.p
        p_bar = p_bar + operator(q_bar)
        lam_bar += _real_inner(q_bar, it.p)
        rho_bar = rho_prev_bar
    r0_bar = r_bar + p_bar + rho_bar * 2.0 * trace.r0
    x0_bar = x_bar - operator(r0_bar) if need_x0 else None
    lam_bar -= _real_inner(r0_bar, trace.x0)
    return r0_bar, x0_bar, lam_bar


# -- the sampling mask with one branch per family -----------------------------

def two_branch_mask(shape, accel=4.0, family="columns", seed=0, center_fraction=0.08):
    """The variable-density mask drawn by a columns branch and a points branch
    that each repeat the keep count, centre set, weights and per-frame draw."""
    nx, ny, nt = shape
    rng = np.random.default_rng(seed)
    mask = np.zeros(shape, dtype=bool)

    def circular_dist(n):
        idx = np.arange(n)
        return np.minimum(idx, n - idx) / max(n / 2.0, 1.0)

    if family == "columns":
        n_keep = max(1, round(ny / accel))
        dist = circular_dist(ny)
        n_center = min(n_keep, max(1, round(center_fraction * ny)))
        center = np.argsort(dist, kind="stable")[:n_center]
        weights = np.exp(-0.5 * (dist / 0.35) ** 2)
        candidates = np.setdiff1d(np.arange(ny), center)
        for t in range(nt):
            cols = list(center)
            extra = n_keep - len(cols)
            if extra > 0:
                p = weights[candidates] / weights[candidates].sum()
                cols.extend(rng.choice(candidates, size=extra, replace=False, p=p))
            mask[:, sorted(cols), t] = True
    else:
        n_keep = max(1, round(nx * ny / accel))
        dx = circular_dist(nx)[:, None]
        dy = circular_dist(ny)[None, :]
        rad = np.sqrt(dx**2 + dy**2)
        n_center = min(n_keep, max(1, round(center_fraction * nx * ny)))
        center = np.argsort(rad, axis=None, kind="stable")[:n_center]
        weights = np.exp(-0.5 * (rad / 0.35) ** 2).ravel()
        candidates = np.setdiff1d(np.arange(nx * ny), center)
        for t in range(nt):
            flat = list(center)
            extra = n_keep - len(flat)
            if extra > 0:
                p = weights[candidates] / weights[candidates].sum()
                flat.extend(rng.choice(candidates, size=extra, replace=False, p=p))
            frame = np.zeros(nx * ny, dtype=bool)
            frame[flat] = True
            mask[:, :, t] = frame.reshape(nx, ny)
    return mask
