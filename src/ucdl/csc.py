"""ADMM solver for the convolutional sparse-coding subproblem, and its VJPs.

For a fixed complex image x, a bank of real unit-norm kernels {d_k} and
positive weights (lam, alpha, beta), the solver addresses

    min_{s,u} (lam/2)||x - sum_k d_k * s_k||^2 + alpha sum_k ||u_k||_1
    subject to u_k = s_k,

where * is circular convolution and the L1 norm of a complex map is the
sum of absolute values of its real and imaginary channels.  Scaled ADMM
alternates three closed-form updates:

  s: per-frequency solve of (conj(d) d^T + gamma I) s = r with
     gamma = beta/lam and r = conj(d) x^f + gamma w^f, w = u + z, in the
     closed form s^f = w^f + conj(d) c with c = (x^f - d^T w^f)/(gamma + P)
     and P = sum_k |d_k|^2, so the cost per frequency is O(K);
  u: componentwise soft threshold of s - z at level alpha/beta, applied
     independently to real and imaginary parts;
  z: dual ascent z <- z + (u - s).

Arrays carrying coefficient maps have shape (K, *image_shape); the image
shape may include leading batch axes ahead of the spatial axes, which are
always the trailing axes matching the kernel dimensionality.

The sweep is posed in the DFT domain (Wohlberg, IEEE TIP 2016) and is one
function, :func:`admm_step_traced`, as its VJP is :func:`admm_step_backward`.
A forward builds the kernel constants once (:class:`KernelSpectra`) and hands
them, with the image spectrum x^f that the J sweeps of an outer iteration
share, to every sweep.  A sweep records only what varies
(:class:`AdmmStepTrace`): s^f, the image c, and the prox input and
threshold.  Since d^T s^f = x^f - gamma c, the network's synthesis is the
inverse DFT of that image and needs no K-map product.  A sweep consumes its
input state: w = u + z and then s^f are formed in u's buffer, and the new s
and z in the old ones' buffers, so a traced sweep's only fresh K-map arrays
are the new u and the recorded v.  An untraced sweep records only c and tau:
it forms v in its block scratch and the new u in s^f's buffer, so it
allocates no K-map array.  Between its two whole-array DFTs it runs
elementwise passes over blocks of filters, all in one block-sized scratch
array; d^T w^f is summed one filter at a time, in filter order, as
sum(axis=0) does.  The forward's first sweep starts from zero codes (state
None) and skips u + z, its transform and d^T w^f: c = x^f / (gamma + P) and
s^f = +0 + conj(d) c; untraced, it inverts s^f in place and allocates only
the s, u and z it returns.
The solve and the soft threshold run the plain formulas' operations in the
same order and return the same bits, except that a code entry the threshold
zeroes keeps the sign of its input.  :class:`AdmmConfig` rejects weights
whose gamma or tau is not a finite number > 0, and reverses the two: its
weights_backward gives the weights' shares of their cotangents.  The
network trace records the forward's config, which the backward reads.

Each block's vector-Jacobian product sits beside it, in the cotangent
convention of :mod:`ucdl.backprop`, and reads the same two records; the
sweep's VJP reverses its soft threshold inline, on the float64 channels of
the recorded v.  The synthesis VJP only turns its cotangent into the
image f = F(approx_bar)/N, and the VJP of the sweep whose s is synthesized
runs every K-map pass over its record: from f it forms the code cotangent
conj(d) f and the synthesis's kernel share conj(s^f) f.  It works in the
buffers it is handed, adds the kernel cotangents into the caller's
accumulator one filter block at a time and runs its two K-map DFTs in
place, so beyond its inputs it allocates only the threshold VJP's |v|
scratch (without a prox part, a zero s^f cotangent), two block-sized
scratch arrays and images.  Its sums keep the forward's order and bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteValue, ShapeMismatch
from .tensors import crop_filter, dft_forward, dft_inverse, real_inner, zero_pad_filter


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
    """ADMM iterate: coefficient maps s, auxiliaries u, scaled duals z.

    A sweep writes the next state into these buffers, so each field is a
    distinct, writable, C-contiguous complex128 array: a field that is not
    one, or that may share memory with an earlier field, is stored as a copy.
    """

    s: np.ndarray
    u: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        held = []
        for name in ("s", "u", "z"):
            value = getattr(self, name)
            if not (isinstance(value, np.ndarray) and value.dtype == np.complex128
                    and value.flags.c_contiguous and value.flags.writeable
                    and not any(np.may_share_memory(value, other) for other in held)):
                object.__setattr__(self, name, np.array(value, dtype=np.complex128, order="C"))
            held.append(getattr(self, name))
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
    """Weights of the sparse-coding problem, and the two the sweep derives
    from them, gamma = beta/lam and the threshold tau = alpha/beta: each a
    finite number > 0.  The forward's config is recorded in its trace, and
    :meth:`weights_backward` reverses gamma and tau for the backward."""

    lam: float
    alpha: float
    beta: float

    def __post_init__(self):
        for name in ("lam", "alpha", "beta"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive, got {value}")
        for name, value in (("gamma = beta/lam", self.gamma), ("tau = alpha/beta", self.threshold)):
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be a finite number > 0, got {value} "
                                 f"(lam={self.lam}, alpha={self.alpha}, beta={self.beta})")

    @property
    def gamma(self) -> float:
        return self.beta / self.lam

    @property
    def threshold(self) -> float:
        return self.alpha / self.beta

    def weights_backward(self, gamma_bar: float, tau_bar: float) -> tuple:
        """VJP of gamma and tau: the shares (lam_bar, alpha_bar, beta_bar)
        of the weights' cotangents that gamma_bar and tau_bar give."""
        return (-gamma_bar * self.beta / self.lam**2, tau_bar / self.beta,
                gamma_bar / self.lam - tau_bar * self.alpha / self.beta**2)


def filter_spectra(filters: FilterBank, spatial_shape: tuple) -> np.ndarray:
    """DFT spectra of the zero-padded kernels, shaped (K, *spatial_shape)."""
    padded = np.stack(
        [zero_pad_filter(k, spatial_shape) for k in filters.kernels]
    )
    return dft_forward(padded, ndim=len(spatial_shape))


@dataclass(frozen=True)
class KernelSpectra:
    """Kernel spectra at one image shape, with the constants every sweep and
    every sweep VJP derive from them.

    d carries singleton batch axes between the filter axis and the spatial
    axes, so it broadcasts against (K, *image) code maps.  conj(d) is not
    kept: a product conj(d) y is formed as conj(d conj(y)) in its own buffer.
    """

    d: np.ndarray       # (K, 1, ..., 1, *spatial)
    power: np.ndarray   # (*spatial), sum_k |d_k|^2
    n_spatial: int

    @property
    def n_freq(self) -> float:
        """N, the number of frequencies of the spatial DFT."""
        return float(self.power.size)


def kernel_spectra(filters: FilterBank, image_shape: tuple) -> KernelSpectra:
    """Spectra of `filters` for images of `image_shape`, whose trailing axes
    are the spatial ones; computed once per forward."""
    n_spatial = len(filters.kernel_shape)
    n_batch = len(image_shape) - n_spatial
    d = filter_spectra(filters, tuple(image_shape[n_batch:]))
    power = (np.abs(d) ** 2).sum(axis=0)
    d = d.reshape(d.shape[:1] + (1,) * n_batch + d.shape[1:])
    return KernelSpectra(d=d, power=power, n_spatial=n_spatial)


def _conj_times(d: np.ndarray, conj_y: np.ndarray, out: np.ndarray) -> np.ndarray:
    """conj(d) y for filter spectra d and the conjugate of an image y, as
    conj(d conj(y)) in the block scratch `out`: the bits of conj(d) y except
    where an imaginary part cancels exactly, whose zero may carry the other
    sign."""
    out = np.multiply(d, conj_y, out=out)
    return np.conjugate(out, out=out)


# bytes of the scratch block that a sweep's elementwise passes share; a
# filter's map larger than this makes a block of one filter
_BLOCK_BYTES = 256 * 1024


def _filter_blocks(maps_shape: tuple) -> list:
    """(slice, scratch) for each block of at most _BLOCK_BYTES along the
    filter axis of (K, *image) maps, in filter order; the scratch arrays,
    shaped like the block, are views of one buffer."""
    n_filters, image_shape = maps_shape[0], maps_shape[1:]
    step = min(n_filters, max(1, _BLOCK_BYTES // (16 * math.prod(image_shape))))
    buffer = np.empty((step,) + image_shape, dtype=np.complex128)
    return [(slice(lo, lo + step), buffer[:min(step, n_filters - lo)])
            for lo in range(0, n_filters, step)]


def soft_threshold(values: np.ndarray, tau: float) -> np.ndarray:
    """Shrink real and imaginary channels toward zero by tau, clamping at zero.

    Runs on one output buffer over the interleaved float64 channels.  An
    entry shrunk to zero keeps the sign of its input, so a negative one reads
    -0.0.  tau must be a finite number >= 0.
    """
    tau_array = np.asarray(tau)
    if not (tau_array.dtype.kind in "biuf"
            and np.all(np.isfinite(tau_array) & (tau_array >= 0))):
        raise ValueError(f"tau must be a finite number >= 0, got {tau_array}")
    values = np.asarray(values)
    values = values.astype(np.complex128 if np.iscomplexobj(values) else np.float64, copy=False)
    out = np.empty(values.shape, dtype=values.dtype)
    _shrink(np.ravel(values).view(np.float64), tau, out.reshape(-1).view(np.float64))
    return out


def _shrink(channels: np.ndarray, tau: float, out: np.ndarray) -> np.ndarray:
    """sign(v) max(|v| - tau, 0) of the float64 channels v into `out`, as
    v - clip(v, -tau, tau) with v's sign: the same bits, -0.0 included, in
    one pass fewer."""
    np.clip(channels, -tau, tau, out=out)
    np.subtract(channels, out, out=out)
    return np.copysign(out, channels, out=out)


def dictionary_synthesis(spectra: KernelSpectra, s_hat: np.ndarray) -> np.ndarray:
    """Sum of circular convolutions sum_k d_k * s_k from the code spectrum
    s_hat.  For the s_hat of an s-update this is F^{-1}(x_hat - gamma c),
    which the network forms from the update's record instead.  The VJP of
    either is :func:`synthesis_backward`, which hands on f = F(synth_bar)/N,
    and the sweep's VJP, which forms from f the cotangents of s_hat and of
    the spectra."""
    if s_hat.shape[0] != len(spectra.d):
        raise ShapeMismatch(
            f"expected {len(spectra.d)} coefficient maps, got {s_hat.shape[0]}"
        )
    return dft_inverse((spectra.d * s_hat).sum(axis=0), ndim=spectra.n_spatial)


@dataclass(frozen=True)
class AdmmStepTrace:
    """What varies between the sweeps, kept to reverse one of them; an
    untraced sweep's record holds only c and tau."""

    s_hat: np.ndarray | None   # spectrum of the new s
    c: np.ndarray              # s_hat = w_hat + conj(d) c, so d^T s_hat = x_hat - gamma c
    v: np.ndarray | None       # u-update input s_new - z_old
    tau: float


def admm_step_traced(x_hat, state: CodeState | None, spectra: KernelSpectra,
                     config: AdmmConfig, want_trace: bool = True):
    """One s -> u -> z sweep for the image spectrum x_hat, returning the new
    state and its record; the module docstring gives its formulas and order.

    The sweep consumes `state`: w = u + z is formed in u's buffer and becomes
    the recorded s_hat, and the new s and z are formed in the old s's and z's
    buffers, so a caller that reads `state` afterwards hands over a copy.
    None stands for zero codes, from which the sweep returns the bits of a
    sweep from zeros, in fresh arrays, without transforming them.  Without
    `want_trace` the sweep records neither s_hat nor v, so it forms v in its
    block scratch and the new u in s_hat's buffer, which is dead once s is
    formed; from zero codes it then inverts s_hat in place, and allocates
    only the s, u and z it returns.
    """
    d = spectra.d
    shape = d.shape[:1] + x_hat.shape
    if state is not None and state.s.shape != shape:
        raise ShapeMismatch(
            f"code maps {state.s.shape} do not extend image shape {x_hat.shape} "
            f"by {len(d)} filters"
        )
    blocks = _filter_blocks(shape)
    if state is None:
        s_hat = np.empty(shape, dtype=np.complex128)
        c = np.divide(x_hat, config.gamma + spectra.power)
    else:
        s, u, z = state.s, state.u, state.z
        s_hat = dft_forward(np.add(u, z, out=u), ndim=spectra.n_spatial, overwrite_x=True)
        c = np.zeros_like(x_hat)
        for blk, scratch in blocks:
            for product in np.multiply(d[blk], s_hat[blk], out=scratch):
                c += product
        np.subtract(x_hat, c, out=c)
        c /= config.gamma + spectra.power
    conj_c = np.conj(c)
    for blk, scratch in blocks:
        part = _conj_times(d[blk], conj_c, out=scratch)
        np.add(0.0 if state is None else s_hat[blk], part, out=s_hat[blk])
        if state is not None:
            np.copyto(s[blk], s_hat[blk])
    del conj_c
    if state is None:
        s = dft_inverse(s_hat, ndim=spectra.n_spatial, overwrite_x=not want_trace)
        z = np.empty_like(s)
    else:
        s = dft_inverse(s, ndim=spectra.n_spatial, overwrite_x=True)
    tau = config.threshold
    if want_trace:
        v, u = np.empty_like(s), np.empty_like(s)
    else:
        v, u = None, (np.empty_like(s) if state is None else s_hat)
    for blk, scratch in blocks:
        z_old = 0.0 if state is None else z[blk]
        v_blk = scratch if v is None else v[blk]
        np.subtract(s[blk], z_old, out=v_blk)
        _shrink(v_blk.view(np.float64), tau, u[blk].view(np.float64))
        # z + (u - s): the grouping keeps z bitwise unchanged at a fixed point (u == s)
        np.add(z_old, np.subtract(u[blk], s[blk], out=scratch), out=z[blk])
    return CodeState(s=s, u=u, z=z), AdmmStepTrace(s_hat=s_hat if want_trace else None,
                                                   c=c, v=v, tau=tau)


# ---------------------------------------------------------------------------
# Vector-Jacobian products, in the cotangent convention of ucdl.backprop
# ---------------------------------------------------------------------------

def _sum_batch(arr: np.ndarray, n_spatial: int) -> np.ndarray:
    """Reduce (K, *batch, *spatial) to (K, *spatial); `arr` itself if there
    are no batch axes."""
    axes = tuple(range(1, arr.ndim - n_spatial))
    return arr.sum(axis=axes) if axes else arr


def admm_step_backward(step: AdmmStepTrace, spectra: KernelSpectra,
                       config: AdmmConfig, f, u_bar, z_bar, d_bar: np.ndarray,
                       need_state: bool = True):
    """VJP of one s -> u -> z ADMM sweep.

    Takes the sweep's record and constants, and the cotangents of its outputs:
    the image f that :func:`synthesis_backward` returns if this sweep's s is
    synthesized (else None), which stands for the cotangent conj(d) f of
    s_hat and the kernel share conj(s_hat) f, and u_bar and z_bar of the new
    u and z, both None or both C-contiguous complex arrays.  The VJP works in
    the buffers it is handed: it overwrites u_bar and z_bar and returns the
    cotangents of u_prev and z_prev in their buffers (without u_bar, in the
    buffer of a zero s_hat cotangent and a copy).  It adds the synthesis's
    and then the sweep's spectra cotangent into d_bar, the (K, *spatial)
    accumulator of the backward, one filter block at a time.  Without
    `need_state` the sweep started from a state that carries no parameters,
    and its cotangents are not computed.

    The threshold u = soft_threshold(v, tau) is reversed per float64 channel
    of the recorded v: v_bar = u_bar where |v| > tau and 0 elsewhere, and
    tau_bar = -<sign v, v_bar>.  The s-update s_hat = w_hat + conj(d) c,
    c = (x_hat - d^T w_hat) / (gamma + P), is reversed in closed form from the
    recorded s_hat and c and the cotangent s_hat_bar of s_hat, which is
    F(s_bar)/N for a cotangent s_bar of s = F^{-1} s_hat plus conj(d) f.
    With rho = d^T s_hat_bar / (gamma + P), the cotangents are

        x_hat_bar = rho,  w_hat_bar = s_hat_bar - conj(d) rho,
        d_bar = conj(w_hat_bar) c - conj(s_hat) rho,  gamma_bar = -Re<rho, c>,

    the VJP of the Sherman-Morrison solve, whose synthesis residual
    d^T s_hat - x_hat is -gamma c.

    Returns the cotangent of x_hat (rho, spectral), those of (u_prev, z_prev)
    (spatial, or None), and the gamma and tau pieces.
    """
    d, n_spatial = spectra.d, spectra.n_spatial
    shape = step.s_hat.shape
    if f is not None and f.shape != step.c.shape:
        raise ShapeMismatch(f"synthesis cotangent shape {f.shape}, "
                            f"expected the image shape {step.c.shape}")
    tau_bar = 0.0
    if u_bar is not None:
        # z_new = z_prev + (u_new - s_new); u_new = soft_threshold(v, tau)
        # with v = s_new - z_prev: s_new gets v_bar - z_bar, z_prev the negation
        u_bar += z_bar
        # the threshold's VJP over the float64 channels, into u_bar's buffer
        channels = step.v.reshape(-1).view(np.float64)
        v_bar = u_bar.reshape(-1).view(np.float64)
        scratch = np.abs(channels)
        np.multiply(v_bar, np.greater(scratch, step.tau), out=v_bar)
        np.sign(channels, out=scratch)
        tau_bar = -real_inner(scratch, v_bar)
        del scratch
        # s_bar - z_bar in u_bar's buffer, kept in z_bar's for z_prev_bar,
        # and then transformed in place
        np.copyto(z_bar, np.subtract(u_bar, z_bar, out=u_bar))
        s_hat_bar = dft_forward(u_bar, ndim=n_spatial, overwrite_x=True)
        s_hat_bar /= spectra.n_freq
    else:
        s_hat_bar = np.zeros(shape, dtype=np.complex128)
    # the scratch blocks are allocated once the threshold's scratch is freed
    blocks, others = _filter_blocks(shape), _filter_blocks(shape)
    conj_f = None if f is None else np.conj(f)
    if f is not None:
        # the synthesis's kernel share conj(s_hat) f, summed over batch axes, in
        # a pass of its own, so that each pass's block streams stay in cache
        for blk, other in others:
            piece = np.conjugate(step.s_hat[blk], out=other)
            piece *= f
            d_bar[blk] += _sum_batch(piece, n_spatial)
    # the s-update, with w = u_prev + z_prev; rho is summed from zero one
    # filter at a time, in filter order, as sum(axis=0) does
    rho = np.zeros(step.c.shape, dtype=np.complex128)
    for blk, scratch in blocks:
        if conj_f is not None:
            s_hat_bar[blk] += _conj_times(d[blk], conj_f, out=scratch)
        for product in np.multiply(d[blk], s_hat_bar[blk], out=scratch):
            rho += product
    rho /= config.gamma + spectra.power
    conj_rho, conj_c = np.conj(rho), np.conj(step.c)
    w_hat_bar = s_hat_bar
    for (blk, scratch), (_, other) in zip(blocks, others):
        w_hat_bar[blk] -= _conj_times(d[blk], conj_rho, out=scratch)
        # d_bar += conj(w_hat_bar conj(c) - s_hat conj(rho)), conjugated
        # once after the batch sum
        piece = np.multiply(w_hat_bar[blk], conj_c, out=scratch)
        piece -= np.multiply(step.s_hat[blk], conj_rho, out=other)
        piece = _sum_batch(piece, n_spatial)
        d_bar[blk] += np.conjugate(piece, out=piece)
    del blocks, others, conj_f, conj_rho, conj_c
    gamma_bar = -real_inner(rho, step.c)
    if not (np.isfinite(gamma_bar) and np.isfinite(tau_bar)):
        raise NonFiniteValue("non-finite gamma or tau cotangent")
    if not need_state:
        return rho, None, None, gamma_bar, tau_bar
    w_bar = dft_inverse(w_hat_bar, ndim=n_spatial, overwrite_x=True)
    w_bar *= spectra.n_freq
    z_prev_bar = w_bar.copy() if u_bar is None else np.subtract(w_bar, z_bar, out=z_bar)
    return rho, w_bar, z_prev_bar, gamma_bar, tau_bar


def synthesis_backward(spectra: KernelSpectra, synth_bar: np.ndarray) -> np.ndarray:
    """VJP of dictionary_synthesis(spectra, s_hat) up to the synthesis
    spectrum d^T s_hat: returns its cotangent f = F(synth_bar)/N.

    The cotangents f stands for, conj(d) f of s_hat and conj(s_hat) f of the
    spectra, are formed by the VJP of the sweep whose s_hat is synthesized,
    :func:`admm_step_backward`, in its own pass over s_hat.
    """
    f = dft_forward(synth_bar, ndim=spectra.n_spatial)
    f /= spectra.n_freq
    if not np.all(np.isfinite(f)):
        raise NonFiniteValue("non-finite synthesis cotangent")
    return f


def spectra_to_kernel_grad(d_bar: np.ndarray, kernel_shape: tuple) -> np.ndarray:
    """Chain a (K, *spatial) spectra cotangent back to the real kernels
    through filter_spectra's zero padding."""
    n_freq = float(np.prod(d_bar.shape[1:]))
    pad_bar = n_freq * dft_inverse(d_bar, ndim=d_bar.ndim - 1)
    return np.stack(
        [crop_filter(pad_bar[k], kernel_shape).real for k in range(len(d_bar))]
    )
