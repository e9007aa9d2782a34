"""Reference computations shared by the tests.

The package keeps one implementation of each forward block; the helpers
here exist only so the tests can check those blocks against them.
"""

import numpy as np

from ucdl.csc import CodeState, admm_step_traced, dictionary_synthesis, filter_spectra
from ucdl.errors import ShapeMismatch
from ucdl.tensors import dft_forward, dft_inverse, norm2_sq, zero_pad_filter


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
    spectra = filter_spectra(filters, x.shape[-len(filters.kernel_shape):])
    for _ in range(n_steps):
        state, _ = admm_step_traced(x, state, filters, config, spectra=spectra)
    return state
