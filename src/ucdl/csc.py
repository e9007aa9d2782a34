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
  z: dual ascent z <- z + (u - s).

Arrays carrying coefficient maps have shape (K, *image_shape); the image
shape may include leading batch axes ahead of the spatial axes, which are
always the trailing axes matching the kernel dimensionality.  The s-update
and the full sweep also return the intermediates that the hand-written
backward pass consumes.

Each pass over the K coefficient maps is made once.  The kernel spectra d,
their conjugates and sum_k |d_k|^2 depend only on the kernels, so a
forward builds them once (:func:`kernel_spectra`) and hands them to every
sweep.  The solve and the soft threshold write into buffers of their own
instead of allocating a temporary per operation.  They run the plain
formulas' operations in the same order and return the same bits, except
that a code entry the threshold sets to zero keeps the sign of its input.
The dictionary synthesis reuses the spectrum s^f that the last s-update
computed, rather than transforming s again, and the sweeps of one outer
iteration share the spectrum x^f of their image.
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


@dataclass(frozen=True)
class KernelSpectra:
    """Kernel spectra at one spatial shape, with the constants every
    s-update derives from them."""

    d: np.ndarray       # (K, *spatial)
    conj: np.ndarray    # (K, *spatial), conj(d)
    power: np.ndarray   # (*spatial), sum_k |d_k|^2


def kernel_spectra(filters: FilterBank, spatial_shape: tuple) -> KernelSpectra:
    """Spectra of `filters` at `spatial_shape`, computed once for a forward."""
    d = filter_spectra(filters, spatial_shape)
    return KernelSpectra(d=d, conj=np.conj(d), power=(np.abs(d) ** 2).sum(axis=0))


def _broadcast_spectra(spectra: np.ndarray, image_ndim: int) -> np.ndarray:
    """Insert singleton batch axes between the filter axis and spatial axes."""
    n_spatial = spectra.ndim - 1
    n_batch = image_ndim - n_spatial
    shape = (spectra.shape[0],) + (1,) * n_batch + spectra.shape[1:]
    return spectra.reshape(shape)


def _solve(d, conj_d, b, gamma, g, scratch):
    """Overwrite b with (conj(d) d^T + gamma I)^{-1} b per frequency.

    g = gamma + sum_k |d_k|^2.  `scratch` is a buffer of b's shape that is
    overwritten too.  The operations are those of
    b / gamma - conj(d) * ((d * b).sum(axis=0) / (gamma * g)), in that order.
    """
    np.multiply(d, b, out=scratch)
    c = scratch.sum(axis=0)
    c /= gamma * g
    np.multiply(conj_d, c[np.newaxis], out=scratch)
    np.divide(b, gamma, out=b)
    np.subtract(b, scratch, out=b)
    return b


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


def s_update_traced(x, u, z, filters: FilterBank, gamma: float,
                    spectra: KernelSpectra | None = None,
                    x_hat: np.ndarray | None = None):
    """Exact minimizer of the s-subproblem, plus its backward trace.

    `x_hat`, when given, is the DFT of `x` over its spatial axes; the J
    sweeps of one outer iteration share it instead of transforming x each.
    """
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
        spectra = kernel_spectra(filters, spatial)
    d = _broadcast_spectra(spectra.d, x.ndim)
    conj_d = _broadcast_spectra(spectra.conj, x.ndim)
    if x_hat is None:
        x_hat = dft_forward(x, ndim=n_spatial)
    w_hat = dft_forward(u + z, ndim=n_spatial)
    g = gamma + spectra.power
    # right-hand side conj(d) x_hat + gamma w_hat, then the solve in place;
    # w_hat is dead once scaled into the sum and serves as the scratch
    s_hat = np.multiply(conj_d, x_hat[np.newaxis])
    np.multiply(gamma, w_hat, out=w_hat)
    np.add(s_hat, w_hat, out=s_hat)
    _solve(d, conj_d, s_hat, gamma, g, scratch=w_hat)
    trace = SUpdateTrace(spectra=spectra.d, gamma=gamma, g=g, x_hat=x_hat, s_hat=s_hat)
    return dft_inverse(s_hat, ndim=n_spatial), trace


def soft_threshold(values: np.ndarray, tau: float) -> np.ndarray:
    """Shrink real and imaginary channels toward zero by tau, clamping at zero.

    Runs in place on one output buffer over the interleaved float64
    channels.  An entry shrunk to zero keeps the sign of its input, so a
    negative one reads -0.0.
    """
    values = np.asarray(values)
    channels = _channels(values)
    out = np.abs(channels)
    np.subtract(out, tau, out=out)
    np.maximum(out, 0.0, out=out)
    np.copysign(out, channels, out=out)
    return _from_channels(out, values)


def _channels(values: np.ndarray) -> np.ndarray:
    """The real and imaginary float64 channels of `values`, interleaved in
    one flat array: a view of a C-contiguous complex128 or float64 input,
    a copy of any other."""
    dtype = np.complex128 if np.iscomplexobj(values) else np.float64
    return np.ravel(values.astype(dtype, copy=False)).view(np.float64)


def _from_channels(channels: np.ndarray, like: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_channels`: `channels` as an array shaped like `like`."""
    values = channels.view(np.complex128) if np.iscomplexobj(like) else channels
    return values.reshape(like.shape)


def dictionary_synthesis(filters: FilterBank, s: np.ndarray,
                         spectra: KernelSpectra | None = None,
                         s_hat: np.ndarray | None = None) -> np.ndarray:
    """Sum of circular convolutions sum_k d_k * s_k, evaluated spectrally.

    `s_hat`, when given, is the DFT of `s` over its spatial axes, such as
    the one an s-update has just computed; `s` is then not transformed.
    """
    if s.shape[0] != filters.count:
        raise ShapeMismatch(
            f"expected {filters.count} coefficient maps, got {s.shape[0]}"
        )
    n_spatial = len(filters.kernel_shape)
    spatial = s.shape[-n_spatial:]
    d = filter_spectra(filters, spatial) if spectra is None else spectra.d
    d = _broadcast_spectra(d, s.ndim - 1)
    if s_hat is None:
        s_hat = dft_forward(s, ndim=n_spatial)
    return dft_inverse((d * s_hat).sum(axis=0), ndim=n_spatial)


@dataclass(frozen=True)
class AdmmStepTrace:
    """Everything the backward pass needs to reverse one ADMM step."""

    s_trace: SUpdateTrace
    v: np.ndarray        # u-update input s_new - z_old
    tau: float


def admm_step_traced(x, state: CodeState, filters: FilterBank, config: AdmmConfig,
                     spectra: KernelSpectra | None = None,
                     x_hat: np.ndarray | None = None):
    """One s -> u -> z sweep, returning the new state and its trace."""
    s_new, s_trace = s_update_traced(
        x, state.u, state.z, filters, config.gamma, spectra=spectra, x_hat=x_hat
    )
    v = s_new - state.z
    tau = config.threshold
    u_new = soft_threshold(v, tau)
    # grouping keeps z bitwise unchanged at a fixed point (u == s)
    z_new = np.subtract(u_new, s_new)
    np.add(state.z, z_new, out=z_new)
    new_state = CodeState(s=s_new, u=u_new, z=z_new)
    return new_state, AdmmStepTrace(s_trace=s_trace, v=v, tau=tau)
