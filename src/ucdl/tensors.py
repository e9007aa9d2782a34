"""Complex tensor arithmetic: DFTs, kernel padding and cropping, squared norms.

Complex images are plain ``numpy.complex128`` arrays in row-major layout.
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

from .errors import ShapeMismatch

COMPLEX_DTYPE = np.complex128


def _spatial_axes(x: np.ndarray, ndim: int | None) -> tuple[int, ...]:
    """Trailing `ndim` axes of `x` (all axes when `ndim` is None)."""
    if ndim is None:
        ndim = x.ndim
    if not 1 <= ndim <= x.ndim:
        raise ShapeMismatch(f"cannot transform {ndim} axes of a {x.ndim}-d array")
    return tuple(range(x.ndim - ndim, x.ndim))


def dft_forward(x: np.ndarray, ndim: int | None = None) -> np.ndarray:
    """Unnormalized forward DFT over the trailing `ndim` axes.

    By default all axes are transformed.  Leading axes that are not
    transformed act as batch dimensions.
    """
    x = np.asarray(x, dtype=COMPLEX_DTYPE)
    return np.fft.fftn(x, axes=_spatial_axes(x, ndim))


def dft_inverse(x: np.ndarray, ndim: int | None = None) -> np.ndarray:
    """Inverse of :func:`dft_forward`, including the 1/N normalization."""
    x = np.asarray(x, dtype=COMPLEX_DTYPE)
    return np.fft.ifftn(x, axes=_spatial_axes(x, ndim))


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
    if kernel.ndim != len(target_shape):
        raise ShapeMismatch(
            f"kernel is {kernel.ndim}-d but target shape has {len(target_shape)} dims"
        )
    if any(k > n for k, n in zip(kernel.shape, target_shape)):
        raise ShapeMismatch(
            f"kernel shape {kernel.shape} does not fit inside {tuple(target_shape)}"
        )
    out = np.zeros(target_shape, dtype=COMPLEX_DTYPE)
    out[tuple(slice(0, k) for k in kernel.shape)] = kernel
    shift = [-(k // 2) for k in kernel.shape]
    return np.roll(out, shift, axis=tuple(range(kernel.ndim)))


def crop_filter(padded: np.ndarray, kernel_shape: tuple[int, ...]) -> np.ndarray:
    """Adjoint of :func:`zero_pad_filter`: read the kernel entries back out."""
    padded = np.asarray(padded)
    if padded.ndim != len(kernel_shape):
        raise ShapeMismatch(
            f"array is {padded.ndim}-d but kernel shape has {len(kernel_shape)} dims"
        )
    if any(k > n for k, n in zip(kernel_shape, padded.shape)):
        raise ShapeMismatch(
            f"kernel shape {tuple(kernel_shape)} does not fit inside {padded.shape}"
        )
    shift = [k // 2 for k in kernel_shape]
    rolled = np.roll(padded, shift, axis=tuple(range(padded.ndim)))
    return rolled[tuple(slice(0, k) for k in kernel_shape)]


def norm2_sq(a: np.ndarray) -> float:
    """Squared L2 norm, summed over real and imaginary channels."""
    a = np.asarray(a)
    return float(np.vdot(a, a).real)

