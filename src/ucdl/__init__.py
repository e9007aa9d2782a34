"""Unrolled convolutional-dictionary reconstruction for undersampled MRI.

The package provides, in dependency order: FFT/kernel utilities
(:mod:`ucdl.tensors`), the multi-coil measurement model
(:mod:`ucdl.operators`), ADMM convolutional sparse coding with
frequency-domain rank-one solves (:mod:`ucdl.csc`), conjugate-gradient
data consistency (:mod:`ucdl.dc`), the unrolled network
(:mod:`ucdl.network`), hand-written reverse-mode gradients
(:mod:`ucdl.backprop`), Adam training (:mod:`ucdl.training`), synthetic
dynamic phantoms (:mod:`ucdl.data`), image-quality metrics
(:mod:`ucdl.metrics`), and the command-line interface (:mod:`ucdl.cli`).
"""

from ucdl.csc import (
    AdmmConfig,
    CodeState,
    FilterBank,
    dictionary_synthesis,
    soft_threshold,
)
from ucdl.data import PhantomSpec, load_dataset, make_phantom, save_dataset, synth_dataset
from ucdl.dc import NormalOperator, cg_solve
from ucdl.errors import (
    NonFiniteValue,
    RoiTooLarge,
    ShapeMismatch,
    UcdlError,
    ZeroReference,
)
from ucdl.metrics import MetricReport, compute_report, nrmse, psnr, roi_crop, ssim
from ucdl.network import (
    NetworkConfig,
    NetworkParams,
    ReconResult,
    forward_reconstruct,
    init_network,
    load_checkpoint,
    save_checkpoint,
)
from ucdl.operators import (
    CoilMaps,
    KSpaceSample,
    SamplingMask,
    adjoint_apply,
    forward_apply,
    make_coil_maps,
    make_mask,
    simulate_measurement,
)
from ucdl.training import train

__all__ = [
    "AdmmConfig",
    "CodeState",
    "CoilMaps",
    "FilterBank",
    "KSpaceSample",
    "MetricReport",
    "NetworkConfig",
    "NetworkParams",
    "NonFiniteValue",
    "NormalOperator",
    "PhantomSpec",
    "ReconResult",
    "RoiTooLarge",
    "SamplingMask",
    "ShapeMismatch",
    "UcdlError",
    "ZeroReference",
    "adjoint_apply",
    "cg_solve",
    "compute_report",
    "dictionary_synthesis",
    "forward_apply",
    "forward_reconstruct",
    "init_network",
    "load_checkpoint",
    "load_dataset",
    "make_coil_maps",
    "make_mask",
    "make_phantom",
    "nrmse",
    "psnr",
    "roi_crop",
    "save_checkpoint",
    "save_dataset",
    "simulate_measurement",
    "soft_threshold",
    "ssim",
    "synth_dataset",
    "train",
]
