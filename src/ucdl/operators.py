"""Multi-coil masked Fourier measurement model and simulation.

The forward operator weights a dynamic image ``x`` of shape
``(N_x, N_y, N_t)`` by each coil-sensitivity map, applies an orthonormal 2D
DFT per temporal frame, and keeps only the k-space locations selected by a
sampling mask.  The orthonormal scaling makes the adjoint the exact reverse
path (zero-fill, inverse DFT, conjugate coil weighting, coil sum) and gives
``A^H A = I`` for a fully sampled single unit coil.

:func:`normal_apply` takes the network's frames-first ``(N_t, N_x, N_y)``
images, with k_y the contiguous last axis.  When the mask is constant along
k_x, as for whole k_y lines (the ``columns`` family), it commutes with the
k_x DFT and ``F^H M F = F_y^H M F_y``, so :func:`normal_apply` runs one 1D
DFT pair along k_y instead of the 2D pair.  :class:`SamplingMask` decides
this once, when it is built; any other mask, such as the ``points``
family, takes the 2D path.  All transforms use ``scipy.fft``.

Measured data is stored compactly as ``(N_c, M)`` where ``M`` is the number
of sampled k-space locations, ordered row-major over ``(N_x, N_y, N_t)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.fft

from .errors import ShapeMismatch
from .io import read_manifest, read_tensor, write_json, write_tensor

DEFAULT_NOISE_SIGMA = 0.02


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class CoilMaps:
    """Coil-sensitivity maps of shape ``(N_c, N_x, N_y)``.

    ``maps`` is a read-only copy of the input, and ``conj_maps`` its
    conjugate, computed once here for the adjoint.
    """

    maps: np.ndarray
    conj_maps: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        maps = np.array(self.maps, dtype=np.complex128)
        if maps.ndim != 3:
            raise ShapeMismatch(f"coil maps must be (N_c, N_x, N_y), got {maps.shape}")
        if not np.all((np.abs(maps) ** 2).sum(axis=0) > 0):
            raise ValueError("coil maps have dead pixels (zero total sensitivity)")
        object.__setattr__(self, "maps", _read_only(maps))
        object.__setattr__(self, "conj_maps", _read_only(np.conj(maps)))

    @property
    def count(self) -> int:
        return self.maps.shape[0]

    @property
    def spatial_shape(self) -> tuple[int, int]:
        return self.maps.shape[1:]


@dataclass(frozen=True)
class SamplingMask:
    """Boolean k-space sampling pattern of shape ``(N_x, N_y, N_t)``.

    ``mask`` is a read-only copy of the input.  ``separable`` says whether it
    is constant along k_x; ``weights`` is the frames-first float mask that
    :func:`normal_apply` multiplies by: the ``(N_t, 1, N_y)`` k_y lines when
    separable, the whole ``(N_t, N_x, N_y)`` mask otherwise.
    """

    mask: np.ndarray
    separable: bool = field(init=False, repr=False, compare=False)
    weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mask = np.array(self.mask, dtype=bool)
        if mask.ndim != 3:
            raise ShapeMismatch(f"mask must be (N_x, N_y, N_t), got {mask.shape}")
        if not mask.any(axis=(0, 1)).all():
            raise ValueError("every temporal frame needs at least one sampled location")
        separable = bool((mask == mask[:1]).all())
        frames = np.moveaxis(mask, -1, 0)
        weights = np.ascontiguousarray(frames[:, :1] if separable else frames, dtype=np.float64)
        object.__setattr__(self, "mask", _read_only(mask))
        object.__setattr__(self, "separable", separable)
        object.__setattr__(self, "weights", _read_only(weights))

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.mask.shape

    @property
    def num_sampled(self) -> int:
        return int(self.mask.sum())


@dataclass(frozen=True)
class KSpaceSample:
    """One measured dataset: data, sampling pattern, coils, and noise level."""

    y: np.ndarray
    mask: SamplingMask
    coils: CoilMaps
    noise_sigma: float = 0.0

    def __post_init__(self):
        y = np.asarray(self.y, dtype=np.complex128)
        expected = (self.coils.count, self.mask.num_sampled)
        if y.shape != expected:
            raise ShapeMismatch(f"k-space data shape {y.shape}, expected {expected}")
        if self.coils.spatial_shape != self.mask.shape[:2]:
            raise ShapeMismatch("coil maps and mask disagree on the spatial shape")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")
        object.__setattr__(self, "y", y)

    @property
    def image_shape(self) -> tuple[int, int, int]:
        return self.mask.shape


def _check_image(x: np.ndarray, coils: CoilMaps, mask: SamplingMask, shape) -> np.ndarray:
    x = np.asarray(x, dtype=np.complex128)
    if x.shape != shape:
        raise ShapeMismatch(f"image shape {x.shape}, expected {shape} for mask {mask.shape}")
    if coils.spatial_shape != mask.shape[:2]:
        raise ShapeMismatch("coil maps and mask disagree on the spatial shape")
    return x


def forward_apply(x: np.ndarray, coils: CoilMaps, mask: SamplingMask) -> np.ndarray:
    """Apply the measurement operator: coil weighting, per-frame DFT, masking."""
    x = _check_image(x, coils, mask, mask.shape)
    weighted = coils.maps[:, :, :, None] * x[None]
    kspace = scipy.fft.fft2(weighted, axes=(1, 2), norm="ortho", overwrite_x=True)
    return kspace[:, mask.mask]


def adjoint_apply(y: np.ndarray, coils: CoilMaps, mask: SamplingMask) -> np.ndarray:
    """Adjoint of :func:`forward_apply`: zero-fill, inverse DFT, coil combine."""
    y = np.asarray(y, dtype=np.complex128)
    expected = (coils.count, mask.num_sampled)
    if y.shape != expected:
        raise ShapeMismatch(f"k-space data shape {y.shape}, expected {expected}")
    full = np.zeros((coils.count,) + mask.shape, dtype=np.complex128)
    full[:, mask.mask] = y
    imgs = scipy.fft.ifft2(full, axes=(1, 2), norm="ortho", overwrite_x=True)
    imgs *= coils.conj_maps[:, :, :, None]
    return imgs.sum(axis=0)


def normal_apply(x: np.ndarray, coils: CoilMaps, mask: SamplingMask) -> np.ndarray:
    """Fused ``A^H A x`` on a frames-first ``(N_t, N_x, N_y)`` image; equals
    adjoint_apply(forward_apply(x)) with the frame axis moved first, to
    roundoff.  A mask constant along k_x needs only the k_y transforms."""
    nx, ny, nt = mask.shape
    x = _check_image(x, coils, mask, (nt, nx, ny))
    axes = (3,) if mask.separable else (2, 3)
    weighted = coils.maps[:, None] * x[None]
    kspace = scipy.fft.fftn(weighted, axes=axes, norm="ortho", overwrite_x=True)
    kspace *= mask.weights
    imgs = scipy.fft.ifftn(kspace, axes=axes, norm="ortho", overwrite_x=True)
    imgs *= coils.conj_maps[:, None]
    return imgs.sum(axis=0)


def simulate_measurement(
    x_truth: np.ndarray,
    coils: CoilMaps,
    mask: SamplingMask,
    sigma: float = DEFAULT_NOISE_SIGMA,
    rng_seed: int = 0,
) -> KSpaceSample:
    """Measure `x_truth` and add i.i.d. complex Gaussian noise of scale `sigma`.

    The noise has standard deviation `sigma` per real component and is
    reproducible from `rng_seed`.
    """
    if not (np.isfinite(sigma) and sigma >= 0):
        raise ValueError(f"sigma must be a finite number >= 0, got {sigma}")
    y = forward_apply(x_truth, coils, mask)
    if sigma > 0:
        rng = np.random.default_rng(rng_seed)
        noise = rng.standard_normal(y.shape) + 1j * rng.standard_normal(y.shape)
        y = y + sigma * noise
    return KSpaceSample(y=y, mask=mask, coils=coils, noise_sigma=float(sigma))


def make_coil_maps(n_coils: int, spatial_shape: tuple[int, int]) -> CoilMaps:
    """Smooth synthetic coil profiles, normalized so the coil sum-of-squares is 1.

    Each coil is a complex Gaussian bump centered on a ring around the field
    of view with a mild linear phase; construction is deterministic.
    """
    nx, ny = spatial_shape
    xs = np.linspace(-1.0, 1.0, nx)[:, None]
    ys = np.linspace(-1.0, 1.0, ny)[None, :]
    maps = np.zeros((n_coils, nx, ny), dtype=np.complex128)
    for j in range(n_coils):
        ang = 2.0 * np.pi * j / n_coils
        cx, cy = 0.75 * np.cos(ang), 0.75 * np.sin(ang)
        mag = np.exp(-((xs - cx) ** 2 + (ys - cy) ** 2) / (2.0 * 0.55**2))
        phase = 0.9 * (np.cos(ang) * xs + np.sin(ang) * ys) + 0.3 * j
        maps[j] = mag * np.exp(1j * phase)
    maps /= np.sqrt((np.abs(maps) ** 2).sum(axis=0))
    return CoilMaps(maps)


def make_mask(
    shape: tuple[int, int, int],
    accel: float = 4.0,
    family: str = "columns",
    seed: int = 0,
    center_fraction: float = 0.08,
) -> SamplingMask:
    """Variable-density Cartesian undersampling mask with guaranteed center.

    ``family="columns"`` keeps full k-space columns (per-frame independent
    draws); ``family="points"`` keeps individual k-space locations.  Low
    frequencies near DC are always included and the rest are drawn with a
    Gaussian variable-density profile.  ``accel`` is the nominal
    undersampling factor.
    """
    nx, ny, nt = shape
    if not (np.isfinite(accel) and accel >= 1):
        raise ValueError(f"accel must be a finite number >= 1, got {accel}")
    if family not in ("columns", "points"):
        raise ValueError(f"unknown mask family {family!r}")
    # the candidate cells: k-space columns, or single (k_x, k_y) locations
    rows = nx if family == "points" else 1
    rng = np.random.default_rng(seed)

    def circular_dist(n: int) -> np.ndarray:
        idx = np.arange(n)
        return np.minimum(idx, n - idx) / max(n / 2.0, 1.0)

    rad = np.sqrt(circular_dist(rows)[:, None] ** 2 + circular_dist(ny)[None, :] ** 2)
    n_keep = max(1, round(rows * ny / accel))
    n_center = min(n_keep, max(1, round(center_fraction * rows * ny)))
    center = np.argsort(rad, axis=None, kind="stable")[:n_center]
    weights = np.exp(-0.5 * (rad / 0.35) ** 2).ravel()
    candidates = np.setdiff1d(np.arange(rows * ny), center)
    mask = np.zeros(shape, dtype=bool)
    for t in range(nt):
        frame = np.zeros(rows * ny, dtype=bool)
        frame[center] = True
        if n_keep > n_center:
            p = weights[candidates] / weights[candidates].sum()
            frame[rng.choice(candidates, size=n_keep - n_center, replace=False, p=p)] = True
        mask[:, :, t] = frame.reshape(rows, ny)
    return SamplingMask(mask)


def save_kspace_sample(directory: str | Path, sample: KSpaceSample, seed: int | None = None) -> None:
    """Write a sample as tensor files plus a JSON sidecar into `directory`."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_tensor(directory / "y.bin", sample.y)
    write_tensor(directory / "mask.bin", sample.mask.mask.astype(np.complex128))
    write_tensor(directory / "coils.bin", sample.coils.maps)
    sidecar = {
        "y": "y.bin",
        "mask": "mask.bin",
        "coils": "coils.bin",
        "sigma": sample.noise_sigma,
        "seed": seed,
    }
    write_json(directory / "sample.json", sidecar)


def load_kspace_sample(directory: str | Path) -> KSpaceSample:
    """Read a sample written by :func:`save_kspace_sample`."""
    directory = Path(directory)
    sidecar = read_manifest(directory / "sample.json",
                            {"y": str, "mask": str, "coils": str, "sigma": float})
    y = read_tensor(directory / sidecar["y"])
    mask = read_tensor(directory / sidecar["mask"])
    if not np.isin(mask, (0, 1)).all():
        raise ValueError(f"{directory / sidecar['mask']}: entries must be 0 or 1")
    coils = CoilMaps(read_tensor(directory / sidecar["coils"]))
    return KSpaceSample(y=y, mask=SamplingMask(mask == 1), coils=coils,
                        noise_sigma=float(sidecar["sigma"]))
