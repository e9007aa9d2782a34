"""Reference computations shared by the tests.

The package keeps one implementation of each forward block; the helpers
here exist only so the tests can check those blocks against them.
"""

import numpy as np

from ucdl.csc import (CodeState, FilterBank, _broadcast_spectra, admm_step_traced,
                      dictionary_synthesis, filter_spectra, kernel_spectra)
from ucdl.errors import ShapeMismatch
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


def csc_objective(x, state, filters, config) -> float:
    """Augmented objective: fidelity + sparsity of u + scaled-dual penalty."""
    synth = dictionary_synthesis(filters, state.s)
    fidelity = 0.5 * config.lam * norm2_sq(x - synth)
    l1 = np.abs(state.u.real).sum() + np.abs(state.u.imag).sum()
    penalty = 0.5 * config.beta * norm2_sq(state.u - state.s + state.z)
    return float(fidelity + config.alpha * l1 + penalty)


def run_admm(x, filters, config, n_steps, state=None):
    """`n_steps` sweeps of admm_step_traced, cold-started from zero codes."""
    if state is None:
        state = CodeState.zeros(filters.count, x.shape)
    spectra = kernel_spectra(filters, x.shape[-len(filters.kernel_shape):])
    for _ in range(n_steps):
        state, _ = admm_step_traced(x, state, filters, config, spectra=spectra)
    return state


def s_update(x, u, z, filters, gamma):
    """The s-update as plain formulas, one temporary per operation.

    Returns (s, s_hat).  The package's in-place solve runs the same
    operations in the same order, so it must return the same bits.
    """
    n_spatial = len(filters.kernel_shape)
    spectra = filter_spectra(filters, x.shape[-n_spatial:])
    d = _broadcast_spectra(spectra, x.ndim)
    x_hat = dft_forward(x, ndim=n_spatial)
    w_hat = dft_forward(u + z, ndim=n_spatial)
    g = gamma + (np.abs(spectra) ** 2).sum(axis=0)
    b = np.conj(d) * x_hat[np.newaxis] + gamma * w_hat
    s_hat = b / gamma - np.conj(d) * ((d * b).sum(axis=0) / (gamma * g))[np.newaxis]
    return dft_inverse(s_hat, ndim=n_spatial), s_hat


def soft_threshold(values, tau):
    """sign(v) max(|v| - tau, 0) on each real channel, as plain formulas."""
    values = np.asarray(values)
    if np.iscomplexobj(values):
        re = np.sign(values.real) * np.maximum(np.abs(values.real) - tau, 0.0)
        im = np.sign(values.imag) * np.maximum(np.abs(values.imag) - tau, 0.0)
        return re + 1j * im
    return np.sign(values) * np.maximum(np.abs(values) - tau, 0.0)


def admm_step(x, state, filters, config):
    """One s -> u -> z sweep from the plain formulas; returns (state, s_hat)."""
    s, s_hat = s_update(x, state.u, state.z, filters, config.gamma)
    u = soft_threshold(s - state.z, config.threshold)
    return CodeState(s=s, u=u, z=state.z + (u - s)), s_hat
