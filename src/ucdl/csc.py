"""ADMM solver for the convolutional sparse-coding subproblem.

For a fixed complex image x, a bank of real unit-norm kernels {d_k} and
positive weights (lam, alpha, beta), the solver addresses

    min_{s,u} (lam/2)||x - sum_k d_k * s_k||^2 + alpha sum_k ||u_k||_1
    subject to u_k = s_k,

where * is circular convolution and the L1 norm of a complex map is the
sum of absolute values of its real and imaginary channels.  Scaled ADMM
alternates three closed-form updates:

  s: per-frequency solve of (conj(d) d^T + gamma I) s = r with
     gamma = beta/lam and r = conj(d) x^f + gamma (u^f + z^f), evaluated
     with the Sherman-Morrison identity so the cost per frequency is O(K);
  u: componentwise soft threshold of s - z at level alpha/beta, applied
     independently to real and imaginary parts;
  z: dual ascent z <- z + u - s.

Arrays carrying coefficient maps have shape (K, *image_shape); the image
shape may include leading batch axes ahead of the spatial axes, which are
always the trailing axes matching the kernel dimensionality.  The s-update
and the full sweep also return the intermediates that the hand-written
backward pass consumes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteValue, ShapeMismatch
from .tensors import dft_forward, dft_inverse, zero_pad_filter


@dataclass(frozen=True)
class FilterBank:
    """A bank of K real-valued convolution kernels, one per coefficient map.

    Kernels are shared across the real and imaginary channels of the complex
    maps they synthesize.  Shape is (K, k1, k2) or (K, k1, k2, k3).
    """

    kernels: np.ndarray

    def __post_init__(self):
        kernels = np.asarray(self.kernels, dtype=np.float64)
        if kernels.ndim not in (3, 4):
            raise ShapeMismatch(
                f"kernels must be (K, k1, k2) or (K, k1, k2, k3), got shape {kernels.shape}"
            )
        if not np.all(np.isfinite(kernels)):
            raise NonFiniteValue("filter bank contains non-finite entries")
        object.__setattr__(self, "kernels", kernels)

    @property
    def count(self) -> int:
        return self.kernels.shape[0]

    @property
    def kernel_shape(self) -> tuple:
        return self.kernels.shape[1:]

    def norms(self) -> np.ndarray:
        axes = tuple(range(1, self.kernels.ndim))
        return np.sqrt((self.kernels**2).sum(axis=axes))


@dataclass(frozen=True)
class CodeState:
    """ADMM iterate: coefficient maps s, auxiliaries u, scaled duals z."""

    s: np.ndarray
    u: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        if not (self.s.shape == self.u.shape == self.z.shape):
            raise ShapeMismatch(
                f"code state parts disagree: {self.s.shape}, {self.u.shape}, {self.z.shape}"
            )

    @classmethod
    def zeros(cls, n_filters: int, image_shape: tuple) -> "CodeState":
        shape = (n_filters,) + tuple(image_shape)
        return cls(
            s=np.zeros(shape, dtype=np.complex128),
            u=np.zeros(shape, dtype=np.complex128),
            z=np.zeros(shape, dtype=np.complex128),
        )


@dataclass(frozen=True)
class AdmmConfig:
    """Weights of the sparse-coding problem."""

    lam: float
    alpha: float
    beta: float

    def __post_init__(self):
        if not (np.isfinite(self.lam) and self.lam > 0):
            raise ValueError(f"lam must be positive, got {self.lam}")
        if not (np.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if not (np.isfinite(self.beta) and self.beta > 0):
            raise ValueError(f"beta must be positive, got {self.beta}")

    @property
    def gamma(self) -> float:
        return self.beta / self.lam

    @property
    def threshold(self) -> float:
        return self.alpha / self.beta


def filter_spectra(filters: FilterBank, spatial_shape: tuple) -> np.ndarray:
    """DFT spectra of the zero-padded kernels, shaped (K, *spatial_shape)."""
    padded = np.stack(
        [zero_pad_filter(k, spatial_shape) for k in filters.kernels]
    )
    return dft_forward(padded, ndim=len(spatial_shape))


def _broadcast_spectra(spectra: np.ndarray, image_ndim: int) -> np.ndarray:
    """Insert singleton batch axes between the filter axis and spatial axes."""
    n_spatial = spectra.ndim - 1
    n_batch = image_ndim - n_spatial
    shape = (spectra.shape[0],) + (1,) * n_batch + spectra.shape[1:]
    return spectra.reshape(shape)


def _solve(d, b, gamma, g):
    """(conj(d) d^T + gamma I)^{-1} b per frequency, g = gamma + sum_k |d_k|^2."""
    return b / gamma - np.conj(d) * ((d * b).sum(axis=0) / (gamma * g))[np.newaxis]


@dataclass(frozen=True)
class SUpdateTrace:
    """Intermediates of one s-update, consumed by the backward pass.

    The solve's matrix is Hermitian, so the backward pass reverses it with
    the same solve and needs neither its right-hand side nor w_hat.
    """

    spectra: np.ndarray   # (K, *spatial)
    gamma: float
    g: np.ndarray         # (*spatial), gamma + ||d||^2 per frequency
    x_hat: np.ndarray     # (*image)
    s_hat: np.ndarray     # (K, *image), spectrum of the new s


def s_update_traced(x, u, z, filters: FilterBank, gamma: float, spectra=None):
    """Exact minimizer of the s-subproblem, plus its backward trace."""
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    n_spatial = len(filters.kernel_shape)
    spatial = x.shape[-n_spatial:]
    if u.shape != (filters.count,) + x.shape or z.shape != u.shape:
        raise ShapeMismatch(
            f"code maps {u.shape} do not extend image shape {x.shape} "
            f"by {filters.count} filters"
        )
    if spectra is None:
        spectra = filter_spectra(filters, spatial)
    d = _broadcast_spectra(spectra, x.ndim)
    x_hat = dft_forward(x, ndim=n_spatial)
    w_hat = dft_forward(u + z, ndim=n_spatial)
    g = gamma + (np.abs(spectra) ** 2).sum(axis=0)
    s_hat = _solve(d, np.conj(d) * x_hat[np.newaxis] + gamma * w_hat, gamma, g)
    trace = SUpdateTrace(spectra=spectra, gamma=gamma, g=g, x_hat=x_hat, s_hat=s_hat)
    return dft_inverse(s_hat, ndim=n_spatial), trace


def soft_threshold(values: np.ndarray, tau: float) -> np.ndarray:
    """Shrink real and imaginary channels toward zero by tau, clamping at zero."""
    values = np.asarray(values)
    if np.iscomplexobj(values):
        re = np.sign(values.real) * np.maximum(np.abs(values.real) - tau, 0.0)
        im = np.sign(values.imag) * np.maximum(np.abs(values.imag) - tau, 0.0)
        return re + 1j * im
    return np.sign(values) * np.maximum(np.abs(values) - tau, 0.0)


def dictionary_synthesis(filters: FilterBank, s: np.ndarray, spectra=None) -> np.ndarray:
    """Sum of circular convolutions sum_k d_k * s_k, evaluated spectrally."""
    if s.shape[0] != filters.count:
        raise ShapeMismatch(
            f"expected {filters.count} coefficient maps, got {s.shape[0]}"
        )
    n_spatial = len(filters.kernel_shape)
    spatial = s.shape[-n_spatial:]
    if spectra is None:
        spectra = filter_spectra(filters, spatial)
    d = _broadcast_spectra(spectra, s.ndim - 1)
    s_hat = dft_forward(s, ndim=n_spatial)
    return dft_inverse((d * s_hat).sum(axis=0), ndim=n_spatial)


@dataclass(frozen=True)
class AdmmStepTrace:
    """Everything the backward pass needs to reverse one ADMM step."""

    s_trace: SUpdateTrace
    v: np.ndarray        # u-update input s_new - z_old
    tau: float


def admm_step_traced(x, state: CodeState, filters: FilterBank, config: AdmmConfig,
                     spectra=None):
    """One s -> u -> z sweep, returning the new state and its trace."""
    s_new, s_trace = s_update_traced(
        x, state.u, state.z, filters, config.gamma, spectra=spectra
    )
    v = s_new - state.z
    tau = config.threshold
    u_new = soft_threshold(v, tau)
    # grouping keeps z bitwise unchanged at a fixed point (u == s)
    z_new = state.z + (u_new - s_new)
    new_state = CodeState(s=s_new, u=u_new, z=z_new)
    return new_state, AdmmStepTrace(s_trace=s_trace, v=v, tau=tau)

