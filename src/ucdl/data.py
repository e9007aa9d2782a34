"""Synthetic dynamic phantoms and dataset assembly for training runs.

A phantom is a stack of soft-edged ellipses whose centers oscillate
sinusoidally over the frame axis, carrying a mild smooth spatial phase so
the images are genuinely complex.  Edges are smoothed with a tanh profile
rather than binarized, which keeps the images compressible by small
convolutional dictionaries without being trivially sparse.

Every quantity is drawn from a generator seeded through the spec, and
dataset assembly derives one child seed per sample, so a dataset is a pure
function of (spec, n_samples, coils, mask settings, sigma).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ShapeMismatch
from .io import read_manifest, read_tensor, write_json, write_tensor
from .operators import (
    CoilMaps,
    load_kspace_sample,
    make_mask,
    save_kspace_sample,
    simulate_measurement,
)

DEFAULT_EDGE_WIDTH = 0.12


@dataclass(frozen=True)
class PhantomSpec:
    """Geometry, motion, and intensity ranges of one dynamic phantom."""

    image_shape: tuple            # (N_x, N_y, N_t)
    n_ellipses: int = 4
    motion_amplitude: float = 0.08   # center excursion, fraction of FOV
    motion_period: float = 8.0       # frames per oscillation cycle
    intensity_range: tuple = (0.4, 1.0)
    phase_scale: float = 0.3         # peak magnitude of the smooth phase, rad
    rng_seed: int = 0

    def __post_init__(self):
        shape = tuple(int(n) for n in self.image_shape)
        if len(shape) != 3 or any(n < 1 for n in shape):
            raise ValueError(f"image shape must be positive (N_x, N_y, N_t), got {shape}")
        object.__setattr__(self, "image_shape", shape)
        if self.n_ellipses < 1:
            raise ValueError(f"need at least one ellipse, got {self.n_ellipses}")
        if not 0 <= self.motion_amplitude < 0.5:
            raise ValueError(f"motion amplitude {self.motion_amplitude} outside [0, 0.5)")
        if self.motion_period <= 0:
            raise ValueError(f"motion period must be positive, got {self.motion_period}")
        lo, hi = self.intensity_range
        if not 0 < lo <= hi:
            raise ValueError(f"bad intensity range {self.intensity_range}")
        # largest admissible half-axis: ellipse plus motion must stay inside
        if self.motion_amplitude + 0.1 >= 0.5:
            raise ValueError("motion amplitude leaves no room for ellipses")


def _smooth_phase(rng, nx, ny, scale):
    """Random low-order polynomial phase surface, peak magnitude `scale`."""
    xs = np.linspace(-1.0, 1.0, nx)[:, None]
    ys = np.linspace(-1.0, 1.0, ny)[None, :]
    coeff = rng.uniform(-1.0, 1.0, size=5)
    surface = (
        coeff[0] * xs
        + coeff[1] * ys
        + coeff[2] * xs * ys
        + coeff[3] * xs**2
        + coeff[4] * ys**2
    )
    peak = np.abs(surface).max()
    if peak > 0:
        surface = surface / peak
    return scale * surface


def make_phantom(spec: PhantomSpec) -> np.ndarray:
    """Render the dynamic phantom as a complex (N_x, N_y, N_t) image."""
    nx, ny, nt = spec.image_shape
    rng = np.random.default_rng(spec.rng_seed)
    lo, hi = spec.intensity_range
    amp = spec.motion_amplitude

    xs = np.linspace(0.0, 1.0, nx, endpoint=False)[:, None] + 0.5 / nx
    ys = np.linspace(0.0, 1.0, ny, endpoint=False)[None, :] + 0.5 / ny
    magnitude = np.zeros((nx, ny, nt))
    for _ in range(spec.n_ellipses):
        axes = rng.uniform(0.1, 0.25, size=2)
        margin = axes.max() + amp + 0.02
        clearance = 0.5 - margin
        center = 0.5 + rng.uniform(-1.0, 1.0, size=2) * max(clearance, 0.0)
        intensity = rng.uniform(lo, hi)
        direction = rng.uniform(0.0, 2.0 * np.pi)
        offset = rng.uniform(0.0, 2.0 * np.pi)
        for t in range(nt):
            swing = amp * np.sin(2.0 * np.pi * t / spec.motion_period + offset)
            cx = center[0] + swing * np.cos(direction)
            cy = center[1] + swing * np.sin(direction)
            q = ((xs - cx) / axes[0]) ** 2 + ((ys - cy) / axes[1]) ** 2
            magnitude[:, :, t] += intensity * 0.5 * (
                1.0 + np.tanh((1.0 - q) / DEFAULT_EDGE_WIDTH)
            )
    phase = _smooth_phase(rng, nx, ny, spec.phase_scale)
    return magnitude * np.exp(1j * phase[:, :, None])


def synth_dataset(spec: PhantomSpec, n_samples: int, coils: CoilMaps,
                  mask_family: str = "columns", sigma: float = 0.02,
                  accel: float = 4.0):
    """Simulate n_samples measured phantoms; returns (sample, target) pairs."""
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    seed_rng = np.random.default_rng(spec.rng_seed)
    pairs = []
    for _ in range(n_samples):
        phantom_seed, mask_seed, noise_seed = (
            int(s) for s in seed_rng.integers(0, 2**31, size=3)
        )
        target = make_phantom(replace(spec, rng_seed=phantom_seed))
        mask = make_mask(spec.image_shape, accel=accel, family=mask_family,
                         seed=mask_seed)
        sample = simulate_measurement(target, coils, mask, sigma=sigma,
                                      rng_seed=noise_seed)
        pairs.append((sample, target))
    return pairs


MANIFEST_NAME = "dataset.json"
TARGET_NAME = "target.bin"


def sample_dir_name(index: int) -> str:
    return f"sample_{index:03d}"


def save_dataset(directory: str | Path, pairs, settings: dict | None = None) -> None:
    """Write (sample, target) pairs as one subdirectory each plus a manifest."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    names = []
    for i, (sample, target) in enumerate(pairs):
        name = sample_dir_name(i)
        sub = directory / name
        save_kspace_sample(sub, sample)
        write_tensor(sub / TARGET_NAME, np.asarray(target, dtype=np.complex128))
        names.append(name)
    manifest = {"n_samples": len(names), "samples": names}
    if settings:
        manifest["settings"] = settings
    write_json(directory / MANIFEST_NAME, manifest)


def load_dataset(directory: str | Path):
    """Read back the (sample, target) pairs written by :func:`save_dataset`;
    a target must be finite and of its sample's image shape."""
    directory = Path(directory)
    manifest = read_manifest(directory / MANIFEST_NAME, {"samples": list[str]})
    pairs = []
    for name in manifest["samples"]:
        sub = directory / name
        sample = load_kspace_sample(sub)
        target = read_tensor(sub / TARGET_NAME)
        if target.shape != sample.image_shape:
            raise ShapeMismatch(f"{sub / TARGET_NAME}: shape {target.shape}, "
                                f"the sample's images are {sample.image_shape}")
        pairs.append((sample, target))
    return pairs
