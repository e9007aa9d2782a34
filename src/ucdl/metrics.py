"""Image-quality metrics over a centered region of interest.

All reported metrics operate on ROI-cropped magnitude images.  roi_crop
turns a complex reconstruction into the real magnitude crop; psnr, nrmse
and ssim then compare two such real-valued arrays.  Dynamic arrays with a
trailing frame axis are scored per 2D frame and averaged, so a video
metric is the mean of its frame metrics.

Asymmetries are deliberate and documented: the second argument is the
reference, which supplies the PSNR peak, the NRMSE normalizer and the
SSIM dynamic range.  Everything else is symmetric in the two images.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.signal import fftconvolve

from .errors import RoiTooLarge, ShapeMismatch, ZeroReference
from .io import _named, atomic_write
from .tensors import real_inner

SSIM_K1 = 0.01
SSIM_K2 = 0.03
SSIM_WINDOW = 11
SSIM_SIGMA = 1.5


def _spatial_shape(x: np.ndarray) -> tuple[int, int]:
    if x.ndim not in (2, 3):
        raise ShapeMismatch(
            f"expected a 2D image or a (N_x, N_y, N_t) stack, got shape {x.shape}"
        )
    return x.shape[0], x.shape[1]


def roi_size_default(spatial: tuple[int, int]) -> tuple[int, int]:
    """Half of each spatial dimension, the standard central-ROI fraction."""
    return max(1, spatial[0] // 2), max(1, spatial[1] // 2)


def roi_offset(spatial: tuple[int, int], size: tuple[int, int]) -> tuple[int, int]:
    """Start indices of the centered crop; odd residuals leave the extra
    margin on the high-index side."""
    return (spatial[0] - size[0]) // 2, (spatial[1] - size[1]) // 2


def roi_crop(x: np.ndarray, size=None) -> np.ndarray:
    """Magnitude of the centered spatial crop of `x`.

    `size` is an (h, w) pair, a single integer for a square ROI, or None
    for the default half-size ROI.  A trailing frame axis is preserved.
    """
    x = np.asarray(x)
    spatial = _spatial_shape(x)
    if size is None:
        size = roi_size_default(spatial)
    elif np.isscalar(size):
        size = (int(size), int(size))
    else:
        size = (int(size[0]), int(size[1]))
    if size[0] < 1 or size[1] < 1:
        raise ValueError(f"ROI size must be positive, got {size}")
    if size[0] > spatial[0] or size[1] > spatial[1]:
        raise RoiTooLarge(f"ROI {size} exceeds spatial shape {spatial}")
    ox, oy = roi_offset(spatial, size)
    crop = x[ox:ox + size[0], oy:oy + size[1]]
    return np.abs(crop).astype(np.float64)


def _check_pair(x: np.ndarray, ref: np.ndarray):
    x = np.asarray(x, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    if x.shape != ref.shape:
        raise ShapeMismatch(f"image shape {x.shape} != reference shape {ref.shape}")
    _spatial_shape(x)
    return x, ref


def _frame_mean(metric, x: np.ndarray, ref: np.ndarray) -> float:
    if x.ndim == 2:
        return metric(x, ref)
    values = [metric(x[:, :, t], ref[:, :, t]) for t in range(x.shape[2])]
    return float(np.mean(values))


def _psnr_frame(x: np.ndarray, ref: np.ndarray) -> float:
    mse = float(np.mean((x - ref) ** 2))
    if mse == 0.0:
        return float("inf")
    peak = float(np.max(np.abs(ref)))
    with np.errstate(divide="ignore"):
        return float(10.0 * np.log10(peak * peak / mse))


def psnr(x: np.ndarray, ref: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB, peak taken from the reference.

    Identical inputs return the +infinity sentinel.  Frame stacks return
    the mean of the per-frame values.
    """
    x, ref = _check_pair(x, ref)
    return _frame_mean(_psnr_frame, x, ref)


def _nrmse_frame(x: np.ndarray, ref: np.ndarray) -> float:
    denom = real_inner(ref, ref)
    if denom == 0.0:
        raise ZeroReference("reference frame is identically zero")
    err = x - ref
    return float(np.sqrt(real_inner(err, err) / denom))


def nrmse(x: np.ndarray, ref: np.ndarray) -> float:
    """Normalized root-mean-square error ||x - ref|| / ||ref||."""
    x, ref = _check_pair(x, ref)
    return _frame_mean(_nrmse_frame, x, ref)


def _ssim_window() -> np.ndarray:
    half = (SSIM_WINDOW - 1) // 2
    coords = np.arange(-half, half + 1, dtype=np.float64)
    g = np.exp(-(coords ** 2) / (2.0 * SSIM_SIGMA ** 2))
    g /= g.sum()
    return np.outer(g, g)


def _ssim_frame(x: np.ndarray, ref: np.ndarray) -> float:
    if min(x.shape) < SSIM_WINDOW:
        raise ValueError(
            f"image shape {x.shape} is smaller than the "
            f"{SSIM_WINDOW}x{SSIM_WINDOW} SSIM window"
        )
    dyn_range = float(np.max(np.abs(ref)))
    if dyn_range == 0.0:
        raise ZeroReference("reference frame is identically zero")
    c1 = (SSIM_K1 * dyn_range) ** 2
    c2 = (SSIM_K2 * dyn_range) ** 2
    window = _ssim_window()
    mu_x = fftconvolve(x, window, mode="valid")
    mu_y = fftconvolve(ref, window, mode="valid")
    # Gaussian-weighted (biased) second moments
    var_x = fftconvolve(x * x, window, mode="valid") - mu_x ** 2
    var_y = fftconvolve(ref * ref, window, mode="valid") - mu_y ** 2
    cov = fftconvolve(x * ref, window, mode="valid") - mu_x * mu_y
    num = (2.0 * mu_x * mu_y + c1) * (2.0 * cov + c2)
    den = (mu_x ** 2 + mu_y ** 2 + c1) * (var_x + var_y + c2)
    return float(np.mean(num / den))


def ssim(x: np.ndarray, ref: np.ndarray) -> float:
    """Mean local structural similarity with an 11x11 Gaussian window.

    Dynamic range is the maximum magnitude of the reference; apart from
    that the index is symmetric in its arguments.  Only fully supported
    window positions enter the mean, so each frame must be at least as
    large as the window.
    """
    x, ref = _check_pair(x, ref)
    return _frame_mean(_ssim_frame, x, ref)


@dataclass(frozen=True)
class MetricReport:
    """PSNR/NRMSE/SSIM over one ROI, with the crop geometry recorded.

    `roi` stores ((offset_x, offset_y), (height, width)) of the spatial
    crop the metrics were computed on.
    """

    psnr: float
    nrmse: float
    ssim: float
    roi: tuple

    def __post_init__(self):
        if not (self.nrmse >= 0.0):
            raise ValueError(f"nrmse must be >= 0, got {self.nrmse}")
        if not (self.ssim <= 1.0 + 1e-9):
            raise ValueError(f"ssim must be <= 1, got {self.ssim}")

    @property
    def roi_size(self) -> tuple[int, int]:
        return self.roi[1]

    def to_json_dict(self) -> dict:
        return {
            "psnr": self.psnr,
            "nrmse": self.nrmse,
            "ssim": self.ssim,
            "roi": list(self.roi_size),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


def compute_report(x: np.ndarray, ref: np.ndarray, size=None) -> MetricReport:
    """Crop both images to the same centered ROI and score them."""
    x = np.asarray(x)
    ref = np.asarray(ref)
    if x.shape != ref.shape:
        raise ShapeMismatch(f"image shape {x.shape} != reference shape {ref.shape}")
    x_roi = roi_crop(x, size)
    ref_roi = roi_crop(ref, size)
    roi_shape = (x_roi.shape[0], x_roi.shape[1])
    offset = roi_offset(_spatial_shape(x), roi_shape)
    return MetricReport(
        psnr=psnr(x_roi, ref_roi),
        nrmse=nrmse(x_roi, ref_roi),
        ssim=ssim(x_roi, ref_roi),
        roi=(offset, roi_shape),
    )


CSV_HEADER = "label,psnr,nrmse,ssim,roi_h,roi_w"


def append_report_csv(path: str | Path, report: MetricReport, label: str = "") -> None:
    """Append one report row to a CSV file, writing the header if new.

    The old bytes and the new row are written to a fresh file that then
    replaces the old one, so a failed append leaves the file as it was.
    """
    if "," in label or "\n" in label:
        raise ValueError(f"label {label!r} must not contain ',' or newlines")
    path = Path(path)
    try:
        old = path.read_bytes() if path.exists() else b""
    except OSError as err:  # a directory in path's place, a failed read
        raise _named(path, err) from err
    h, w = report.roi_size
    row = (
        f"{label},{repr(float(report.psnr))},{repr(float(report.nrmse))},"
        f"{repr(float(report.ssim))},{h},{w}\n"
    )
    if not old:
        row = CSV_HEADER + "\n" + row
    with atomic_write(path, "wb") as fh:
        fh.write(old + row.encode())
