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
  u: componentwise soft threshold u = soft(v) of v = s - z at level
     tau = alpha/beta, applied independently to real and imaginary parts;
  z: dual ascent z <- z + (u - s) = u - v = -clip(v, -tau, tau).

The last line is the Moreau decomposition: soft(v) and clip(v, -tau, tau)
sum to v (Parikh & Boyd, "Proximal Algorithms", 2014, section 2.5).  So
the state a sweep hands the next is v alone (:class:`CodeState` holds it
beside the codes s): the next sweep forms w = u + z = soft(v) - clip(v),
and its new v = s - z = s + clip(v_old), and the scaled dual is bounded,
|z| <= tau per channel.

Arrays carrying coefficient maps have shape (K, *image_shape); the image
shape may include leading batch axes ahead of the spatial axes, which are
always the trailing axes matching the kernel dimensionality.

The sweep is posed in the DFT domain (Wohlberg, IEEE TIP 2016) and is one
function, :func:`admm_step_traced`, as its VJP is :func:`admm_step_backward`.
A forward builds the kernel constants once (:class:`KernelSpectra`) and hands
them, with the image spectrum x^f that the J sweeps of an outer iteration
share, to every sweep.  A sweep records only what varies
(:class:`AdmmStepTrace`): the image c, its new v and the threshold.  Since
d^T s^f = x^f - gamma c, the network's synthesis is the inverse DFT of that
image and needs no K-map product.  No sweep records s^f = F(soft(v_in) -
clip(v_in)) + conj(d) c either: it is a function of c and the sweep's input
v_in, the previous sweep's record, and the VJP re-forms it by the same
operations (recomputation for memory, as in Chen et al., arXiv:1604.06174).
A sweep works in v and one K-map of its input state: it forms w from v in
s's buffer, transforms it there and forms s^f and the new s there, and it
leaves clip(v_in), block by block, where the new v = s + clip(v_in) is
formed.  A traced sweep forms that v in a fresh array, the only K-map array
it allocates, and leaves the old v, the previous sweep's record, as it was;
an untraced sweep records only c and tau and forms the new v in the old
one's buffer, so it allocates no K-map array.  Between its two whole-array
DFTs it runs elementwise passes over blocks of filters, all in one
block-sized scratch array; d^T w^f is summed one filter at a time, in
filter order, as sum(axis=0) does.  The forward's first sweep starts from
zero codes (state None) and skips w, its transform and d^T w^f: c = x^f /
(gamma + P) and s^f = +0 + conj(d) c, which it inverts in place, so it
allocates only the s and v it returns.  The solve and the prox run the
plain formulas' operations in the same order and return the same bits.
:class:`AdmmConfig` rejects weights whose gamma or tau is not a finite
number > 0, and reverses the two: its weights_backward gives the weights'
shares of their cotangents.  The network trace records the forward's
config, which the backward reads.

Each block's vector-Jacobian product sits beside it, in the cotangent
convention of :mod:`ucdl.backprop`, and reads the same two records; the
sweep's VJP takes the cotangent of its new v and returns that of its input
v, the previous sweep's record, from which it re-forms s^f one filter block
at a time and on whose float64 channels it reverses the prox.  The
synthesis VJP only turns its cotangent into the image f = F(approx_bar)/N,
and the VJP of the sweep whose s is synthesized runs every K-map pass over
its record and takes from f both the code cotangent conj(d) f and the
synthesis's kernel share conj(s^f) f.  It transforms the cotangent of the
new v one block of filters at a time in block scratch, and by linearity
inverts only conj(d) (f - rho), so beyond its inputs it allocates only the
cotangent it returns when it is handed none, two block-sized scratch arrays
and images, and it adds the kernel cotangents into the caller's
accumulator one filter block at a time; its sums run in filter order
whatever the block size.
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
    """ADMM iterate: the codes s of the last sweep and the prox input v =
    s - z_old of its u-update, from which the next sweep forms the
    auxiliaries u = soft(v) and the scaled duals z = -clip(v, -tau, tau).

    A sweep writes the next state into these buffers: s and v are distinct,
    writable, C-contiguous complex128 arrays of one shape.
    """

    s: np.ndarray
    v: np.ndarray

    @classmethod
    def zeros(cls, n_filters: int, image_shape: tuple) -> "CodeState":
        shape = (n_filters,) + tuple(image_shape)
        return cls(s=np.zeros(shape, dtype=np.complex128),
                   v=np.zeros(shape, dtype=np.complex128))


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


def _prox_sum(v: np.ndarray, tau: float, clip: np.ndarray, out: np.ndarray) -> np.ndarray:
    """w = u + z = soft(v) - clip(v, -tau, tau) of the C-contiguous complex
    block v, per float64 channel, into `out`, with clip(v) left in `clip`:
    (v - clip(v)) - clip(v).  The sign of a zero that soft(v) = v - clip(v)
    shrinks to never reaches w, since there w = +-0 - v = -v."""
    v, clip, out = (a.view(np.float64) for a in (v, clip, out))
    np.clip(v, -tau, tau, out=clip)
    np.subtract(v, clip, out=out)
    return np.subtract(out, clip, out=out)


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
    untraced sweep's record holds only c and tau.  The spectrum s_hat of
    the new s is not kept: the VJP re-forms it from c and the sweep's input
    v, the previous sweep's record, by the sweep's own operations."""

    c: np.ndarray              # s_hat = w_hat + conj(d) c, so d^T s_hat = x_hat - gamma c
    v: np.ndarray | None       # u-update input s_new - z_old, the next sweep's state
    tau: float


def admm_step_traced(x_hat, state: CodeState | None, spectra: KernelSpectra,
                     config: AdmmConfig, want_trace: bool = True):
    """One s -> u -> z sweep for the image spectrum x_hat, returning the new
    state and its record; the module docstring gives its formulas and order.

    The sweep consumes `state`: w = u + z is formed from v in s's buffer and
    transformed there, and the new s is formed there too, so a caller that
    reads `state.s` afterwards hands over a copy.  No sweep records s_hat.
    A traced sweep records its new v in a fresh array, the only K-map array
    it allocates, and leaves the old v as it was, for it is the previous
    sweep's record; without `want_trace` the new v is written into the old
    one's buffer and not recorded.  None stands for zero codes, from which
    the sweep returns the bits of a sweep from zeros without transforming
    them, and allocates only the s and v it returns.
    """
    d = spectra.d
    shape = d.shape[:1] + x_hat.shape
    if state is not None and state.v.shape != shape:
        raise ShapeMismatch(
            f"code maps {state.v.shape} do not extend image shape {x_hat.shape} "
            f"by {len(d)} filters"
        )
    blocks = _filter_blocks(shape)
    tau = config.threshold
    if state is None:
        s_hat = np.empty(shape, dtype=np.complex128)
        c = np.divide(x_hat, config.gamma + spectra.power)
    else:
        # clip(v_old) is left where the new v is formed: in the recorded v,
        # or in the old v's own buffer once w is formed from it
        s, v_old = state.s, state.v
        v = np.empty_like(v_old) if want_trace else v_old
        for blk, scratch in blocks:
            _prox_sum(v_old[blk], tau, v[blk] if want_trace else scratch, s[blk])
            if not want_trace:
                np.copyto(v[blk], scratch)
        s_hat = dft_forward(s, ndim=spectra.n_spatial, overwrite_x=True)
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
    del conj_c
    s = dft_inverse(s_hat, ndim=spectra.n_spatial, overwrite_x=True)
    if state is None:
        # s - z_old with z_old = -clip(0) = -0.0, as from zero codes
        v = np.add(s, 0.0)
    else:
        # the new v = s - z_old = s + clip(v_old), in place of the clip
        np.add(s, v, out=v)
    return CodeState(s=s, v=v), AdmmStepTrace(c=c, v=v if want_trace else None, tau=tau)


# ---------------------------------------------------------------------------
# Vector-Jacobian products, in the cotangent convention of ucdl.backprop
# ---------------------------------------------------------------------------

def _sum_batch(arr: np.ndarray, n_spatial: int) -> np.ndarray:
    """Reduce (K, *batch, *spatial) to (K, *spatial); `arr` itself if there
    are no batch axes."""
    axes = tuple(range(1, arr.ndim - n_spatial))
    return arr.sum(axis=axes) if axes else arr


def admm_step_backward(step: AdmmStepTrace, v_in, spectra: KernelSpectra,
                       config: AdmmConfig, f, v_bar, d_bar: np.ndarray):
    """VJP of one s -> u -> z ADMM sweep.

    Takes the sweep's record, its input v_in (the previous sweep's recorded
    v, or None for zero codes) and constants, and the cotangents of its
    outputs: the image f that :func:`synthesis_backward` returns if this
    sweep's s is synthesized (else None), which stands for the cotangent
    conj(d) f of s_hat and the kernel share conj(s_hat) f, and v_bar of the
    new v (None if nothing reads it), a C-contiguous complex array.  The VJP
    works in the buffers it is handed: it returns the cotangent of v_in in
    v_bar's buffer (without v_bar, in a fresh array) and adds the synthesis's
    and the sweep's spectra cotangents into d_bar, the (K, *spatial)
    accumulator of the backward.  It transforms v_bar one block of filters
    at a time in block scratch, so it allocates no K-map array but the one
    it may return.  No record holds s_hat: the VJP re-forms each filter
    block of it in that scratch by the sweep's own operations, the prox sum
    of v_in's block, its forward DFT and + conj(d) c (from zero codes,
    +0 + conj(d) c), before it forms H, and so pays one forward DFT of a
    K-map per sweep with an input v.

    The new v = s + clip(v_in) hands v_bar to s, whose spectrum gets
    s_hat_bar = V + conj(d) f with V = F(v_bar)/N.  The s-update s_hat =
    w_hat + conj(d) c, c = (x_hat - d^T w_hat) / (gamma + P), is reversed in
    closed form from the re-formed s_hat and the recorded c.  With rho =
    d^T s_hat_bar / (gamma + P) and H = conj(d) f - conj(d) rho, the
    cotangents are

        x_hat_bar = rho,  w_hat_bar = s_hat_bar - conj(d) rho = V + H,
        d_bar = conj(s_hat) f + conj(w_hat_bar) c - conj(s_hat) rho
              = conj(V) c + conj(s_hat) (f - rho) + conj(H) c,
        gamma_bar = -Re<rho, c>,

    the VJP of the Sherman-Morrison solve, whose synthesis residual
    d^T s_hat - x_hat is -gamma c, and of the synthesis.  By linearity w_bar
    = N F^{-1} w_hat_bar = v_bar + q with q = N F^{-1} H, and w = soft(v_in)
    - clip(v_in) and the clip in the new v are reversed per float64 channel
    of v_in: where |v_in| <= tau, v_in_bar = v_bar - w_bar = -q; where
    |v_in| > tau, v_in_bar = w_bar = v_bar + q and tau_bar gets
    sign(v_in) (v_bar - 2 w_bar) = -sign(v_in) (v_bar + 2 q).

    Returns the cotangent of x_hat (rho, spectral), that of v_in (spatial,
    or None with v_in), and the gamma and tau pieces.
    """
    d, n_spatial, n_freq = spectra.d, spectra.n_spatial, spectra.n_freq
    shape = d.shape[:1] + step.c.shape
    if f is not None and f.shape != step.c.shape:
        raise ShapeMismatch(f"synthesis cotangent shape {f.shape}, "
                            f"expected the image shape {step.c.shape}")
    blocks = list(zip(_filter_blocks(shape), _filter_blocks(shape)))
    conj_c, conj_f = np.conj(step.c), None if f is None else np.conj(f)
    # rho is summed from zero one filter at a time, in filter order
    rho = np.zeros(step.c.shape, dtype=np.complex128)
    for (blk, s_hat_bar), (_, other) in blocks:
        if v_bar is None and f is None:  # nothing reaches s_hat
            break
        if v_bar is not None:
            np.copyto(s_hat_bar, v_bar[blk])
            v_hat = dft_forward(s_hat_bar, ndim=n_spatial, overwrite_x=True)
            v_hat /= n_freq
            # d_bar += conj(V) c as conj(V conj(c)), conjugated once after
            # the batch sum
            piece = _sum_batch(np.multiply(v_hat, conj_c, out=other), n_spatial)
            d_bar[blk] += np.conjugate(piece, out=piece)
            if f is not None:
                s_hat_bar += _conj_times(d[blk], conj_f, out=other)
        else:
            _conj_times(d[blk], conj_f, out=s_hat_bar)
        for product in np.multiply(d[blk], s_hat_bar, out=other):
            rho += product
    rho /= config.gamma + spectra.power
    conj_rho = np.conj(rho)
    conj_g = -conj_rho if f is None else conj_f - conj_rho  # conj(f - rho)
    gamma_bar, tau_bar = -real_inner(rho, step.c), 0.0
    v_in_bar = None
    if v_in is not None:
        v_in_bar = np.zeros(shape, dtype=np.complex128) if v_bar is None else v_bar
    for (blk, h), (_, other) in blocks:
        # s_hat = w_hat + conj(d) c re-formed in `other` by the sweep's own
        # operations, with h as the clip's scratch; zero codes' w_hat is +0
        if v_in is None:
            s_hat = np.add(0.0, _conj_times(d[blk], conj_c, out=other), out=other)
        else:
            _prox_sum(v_in[blk], step.tau, h, other)
            s_hat = dft_forward(other, ndim=n_spatial, overwrite_x=True)
            np.add(s_hat, _conj_times(d[blk], conj_c, out=h), out=s_hat)
        # d_bar += conj(s_hat) (f - rho) + conj(H) c, each as conj(a conj(b))
        # conjugated once after the batch sum
        piece = _sum_batch(np.multiply(s_hat, conj_g, out=s_hat), n_spatial)
        d_bar[blk] += np.conjugate(piece, out=piece)
        _conj_times(d[blk], conj_rho, out=h)
        if f is None:
            np.negative(h, out=h)
        else:
            np.subtract(_conj_times(d[blk], conj_f, out=other), h, out=h)
        piece = _sum_batch(np.multiply(h, conj_c, out=other), n_spatial)
        d_bar[blk] += np.conjugate(piece, out=piece)
        if v_in is None:
            continue
        q = dft_inverse(h, ndim=n_spatial, overwrite_x=True)
        q *= n_freq
        v, q, out, sign = (a.view(np.float64) for a in (v_in[blk], q, v_in_bar[blk], other))
        active = np.greater(np.abs(v, out=sign), step.tau)
        np.copysign(active, v, out=sign)  # sign(v) where active, a zero elsewhere
        np.add(out, q, out=out, where=active)
        # v_bar + 2 q where active, for tau_bar, summed one filter at a time
        np.add(out, q, out=q, where=active)
        for sign_k, q_k in zip(sign, q):
            tau_bar -= real_inner(sign_k, q_k)
        np.negative(q, out=out, where=~active)
    if not (np.isfinite(gamma_bar) and np.isfinite(tau_bar)):
        raise NonFiniteValue("non-finite gamma or tau cotangent")
    return rho, v_in_bar, gamma_bar, tau_bar


def synthesis_backward(spectra: KernelSpectra, synth_bar: np.ndarray) -> np.ndarray:
    """VJP of dictionary_synthesis(spectra, s_hat) up to the synthesis
    spectrum d^T s_hat: returns its cotangent f = F(synth_bar)/N.

    The cotangents f stands for, conj(d) f of s_hat and conj(s_hat) f of the
    spectra, are taken by the VJP of the sweep whose s_hat is synthesized,
    :func:`admm_step_backward`, in its passes over s_hat.
    """
    f = dft_forward(synth_bar, ndim=spectra.n_spatial)
    f /= spectra.n_freq
    if not np.all(np.isfinite(f)):
        raise NonFiniteValue("non-finite synthesis cotangent")
    return f


def spectra_to_kernel_grad(d_bar: np.ndarray, kernel_shape: tuple) -> np.ndarray:
    """Chain a (K, *spatial) spectra cotangent back to the real kernels
    through filter_spectra's zero padding; works in d_bar's buffer."""
    n_freq = float(np.prod(d_bar.shape[1:]))
    pad_bar = dft_inverse(d_bar, ndim=d_bar.ndim - 1, overwrite_x=True)
    pad_bar *= n_freq
    # one kernel at a time: a cropped kernel is a view of its rolled map
    grad = np.empty((len(d_bar),) + tuple(kernel_shape))
    for k, padded in enumerate(pad_bar):
        grad[k] = crop_filter(padded, kernel_shape).real
    return grad
