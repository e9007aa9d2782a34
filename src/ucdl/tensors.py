"""Complex tensor arithmetic: DFTs, kernel padding and cropping, inner products.

Complex images are plain ``numpy.complex128`` arrays in row-major layout.
Every DFT in the package runs through ``scipy.fft``, here and in
:mod:`ucdl.operators`, so that all paths share one backend's roundoff.
The DFT convention used throughout is an unnormalized forward transform
together with a ``1/N`` inverse, so the convolution theorem
``F(d * s) = F(d) . F(s)`` holds without scale factors.

Filter kernels follow a centered origin convention: when a kernel is
zero-padded to image size, its center entry ``kernel[k//2, ...]`` lands on
index 0 with circular wrap-around (an fftshift-style embedding).  Spatially
centered kernels therefore act as centered convolutions.
"""

from __future__ import annotations

import numpy as np
import scipy.fft

from .errors import ShapeMismatch

COMPLEX_DTYPE = np.complex128


def _spatial_axes(x: np.ndarray, ndim: int | None) -> tuple[int, ...]:
    """Trailing `ndim` axes of `x` (all axes when `ndim` is None)."""
    if ndim is None:
        ndim = x.ndim
    if not 1 <= ndim <= x.ndim:
        raise ShapeMismatch(f"cannot transform {ndim} axes of a {x.ndim}-d array")
    return tuple(range(x.ndim - ndim, x.ndim))


def dft_forward(x: np.ndarray, ndim: int | None = None, overwrite_x: bool = False) -> np.ndarray:
    """Unnormalized forward DFT over the trailing `ndim` axes.

    By default all axes are transformed.  Leading axes that are not
    transformed act as batch dimensions.  With `overwrite_x` the transform
    may destroy `x`; scipy.fft then returns it in `x`'s own buffer when `x`
    is a C-contiguous complex128 array, with the same bits.
    """
    x = np.asarray(x, dtype=COMPLEX_DTYPE)
    return scipy.fft.fftn(x, axes=_spatial_axes(x, ndim), overwrite_x=overwrite_x)


def dft_inverse(x: np.ndarray, ndim: int | None = None, overwrite_x: bool = False) -> np.ndarray:
    """Inverse of :func:`dft_forward`, including the 1/N normalization."""
    x = np.asarray(x, dtype=COMPLEX_DTYPE)
    return scipy.fft.ifftn(x, axes=_spatial_axes(x, ndim), overwrite_x=overwrite_x)


def _check_fits(kernel: tuple[int, ...], shape: tuple[int, ...]) -> None:
    """Raise ShapeMismatch unless a kernel of shape `kernel` fits inside `shape`."""
    if len(kernel) != len(shape) or any(k > n for k, n in zip(kernel, shape)):
        raise ShapeMismatch(f"kernel shape {tuple(kernel)} does not fit inside {tuple(shape)}")


def zero_pad_filter(kernel: np.ndarray, target_shape: tuple[int, ...]) -> np.ndarray:
    """Embed a small kernel into an image-sized array for spectral use.

    The kernel center ``kernel[k0//2, k1//2, ...]`` is placed at index 0 and
    the remaining entries wrap circularly, so that the pointwise spectral
    product with an image spectrum realizes a centered circular convolution.

    Raises
    ------
    ShapeMismatch
        If the dimensionalities differ or any kernel dimension exceeds the
        corresponding target dimension.
    """
    kernel = np.asarray(kernel)
    _check_fits(kernel.shape, target_shape)
    out = np.zeros(target_shape, dtype=COMPLEX_DTYPE)
    out[tuple(slice(0, k) for k in kernel.shape)] = kernel
    shift = [-(k // 2) for k in kernel.shape]
    return np.roll(out, shift, axis=tuple(range(kernel.ndim)))


def crop_filter(padded: np.ndarray, kernel_shape: tuple[int, ...]) -> np.ndarray:
    """Adjoint of :func:`zero_pad_filter`: read the kernel entries back out."""
    padded = np.asarray(padded)
    _check_fits(kernel_shape, padded.shape)
    shift = [k // 2 for k in kernel_shape]
    rolled = np.roll(padded, shift, axis=tuple(range(padded.ndim)))
    return rolled[tuple(slice(0, k) for k in kernel_shape)]


def real_inner(a: np.ndarray, b: np.ndarray) -> float:
    """Re<a, b> over real and imaginary channels, by np.einsum on the interleaved
    float64 channel views: NumPy runs that loop itself, in an order fixed by the
    size alone, not by the BLAS thread count or the buffers' alignment."""
    dtype = np.result_type(a, b, np.float64)
    a, b = (np.ravel(np.asarray(v, dtype=dtype)).view(np.float64) for v in (a, b))
    return float(np.einsum("i,i->", a, b))
