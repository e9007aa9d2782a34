"""Unrolled reconstruction network alternating sparse coding and data consistency.

The network runs T outer iterations, each one call of :func:`outer_iteration`.
Each iteration applies J ADMM sweeps to the convolutional sparse-coding
state for the current image estimate, synthesizes the dictionary
approximation, and solves the regularized data-consistency system with n_cg
CG iterations, warm-started from the current estimate.  The initial
estimate is the zero-filled adjoint A^H y.

Trainable parameters are the filter bank plus log_lambda, log_alpha and
log_beta; the weights themselves are exp-transformed so positivity holds
for any real parameter value.  One parameter set is shared by all outer
iterations.

Both regularization modes run on frames-first images (N_t, N_x, N_y) and
codes (K, N_t, N_x, N_y), transposed from and to the public (N_x, N_y, N_t)
once per forward.  The kernels act on the trailing axes: a "3d" bank on
the whole volume, a "2d" bank on each frame, the frame axis being a batch
axis.  Kernels keep the public (K, k_x, k_y[, k_t]) layout in parameters
and files; a 3D bank runs as (K, k_t, k_x, k_y).

The code state a sweep hands the next is the prox input v of its u-update,
from which the next sweep forms u and the scaled dual z, beside the codes s
(:func:`ucdl.csc.admm_step_traced`).  Each sweep forms w, its spectrum and
the new s in the buffer of the s it replaces, so a forward holds one code
state at a time beside what the sweeps record.  An untraced forward hands
its want_trace down to the sweeps, which then record no K-map array and
write the new v into the old one's buffer: such a forward holds the two
K-map stacks s and v and little else.  An untraced sweep stops once its c
is formed, and the next sweep's read of the state runs the rest; the image
reads only the last sweep's c, so an untraced forward returns its codes
pending, formed when `ReconResult.code_state` is first read, and runs one
inverse DFT of a K-map fewer when they are not.  A traced sweep records its new v,
which is the state the next sweep reads, and no code spectrum, which the
backward re-forms from the sweep's c and input v, so a traced forward holds
only s beside its trace, and its trace one K-map stack per sweep beside the
kernel spectra.  The codes start at zero, which outer iteration 0 hands its
first sweep as None, so that sweep does not transform them.  A traced
forward records read-only arrays; its output image is its own.

A non-finite value stops the forward with an error naming the outer
iteration and the CG step where it showed.  Sparse coding has no check of
its own: a non-finite value from it surfaces at the next CG start.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields, is_dataclass, replace
from pathlib import Path

import numpy as np

from .csc import (
    AdmmConfig,
    CodeState,
    FilterBank,
    KernelSpectra,
    admm_step_traced,
    kernel_spectra,
)
from .dc import CgSolution, CgTrace, NormalOperator, cg_solve, solve_record
from .errors import NonFiniteValue, ShapeMismatch, ZeroFilter
from .io import all_or_nothing, make_directory, read_manifest, read_tensor, write_json, write_tensor
from .operators import KSpaceSample, adjoint_apply
from .tensors import check_fits, dft_forward, dft_inverse

MODE_3D = "3d"
MODE_2D = "2d"

# paper-scale bank sizes per mode
DEFAULT_BANK = {MODE_3D: (16, 7), MODE_2D: (96, 9)}


@dataclass(frozen=True)
class NetworkConfig:
    """Architecture of the unrolled network.

    n_filters/kernel_size default to the mode's standard bank (16 filters
    of 7^3 in 3d, 96 filters of 9^2 in 2d).  n_outer = 0 degenerates to
    the zero-filled reconstruction and is permitted for testing.
    """

    mode: str = MODE_3D
    n_filters: int | None = None
    kernel_size: int | None = None
    n_outer: int = 4
    n_admm: int = 1
    n_cg: int = 12
    train_filters: bool = True

    def __post_init__(self):
        if self.mode not in (MODE_2D, MODE_3D):
            raise ValueError(f"mode must be '2d' or '3d', got {self.mode!r}")
        default_k, default_kf = DEFAULT_BANK[self.mode]
        if self.n_filters is None:
            object.__setattr__(self, "n_filters", default_k)
        if self.kernel_size is None:
            object.__setattr__(self, "kernel_size", default_kf)
        minimum = {"n_filters": 1, "kernel_size": 1, "n_outer": 0, "n_admm": 1, "n_cg": 1}
        for name, low in minimum.items():
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < low:
                raise ValueError(f"{name} must be >= {low}, got {value}")
        if not isinstance(self.train_filters, (bool, np.bool_)):
            raise ValueError(f"train_filters must be true or false, got {self.train_filters!r}")

    @property
    def kernel_shape(self) -> tuple:
        d = 2 if self.mode == MODE_2D else 3
        return (self.kernel_size,) * d

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "NetworkConfig":
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown config keys {unknown}")
        return cls(**data)


@dataclass(frozen=True)
class NetworkParams:
    """Trainable state: kernels plus unconstrained log-weights."""

    filters: FilterBank
    log_lam: float = 0.0
    log_alpha: float = 0.0
    log_beta: float = 0.0

    @property
    def lam(self) -> float:
        return float(np.exp(self.log_lam))

    @property
    def alpha(self) -> float:
        return float(np.exp(self.log_alpha))

    @property
    def beta(self) -> float:
        return float(np.exp(self.log_beta))


def init_network(config: NetworkConfig, rng_seed: int = 0) -> NetworkParams:
    """Draw a unit-norm random filter bank; weights start at one."""
    rng = np.random.default_rng(rng_seed)
    kernels = rng.standard_normal((config.n_filters,) + config.kernel_shape)
    return NetworkParams(filters=project_bank(FilterBank(kernels)))


def project_bank(filters: FilterBank) -> FilterBank:
    """Rescale every kernel to unit L2 norm."""
    norms = filters.norms()
    if np.any(norms < 1e-30):
        raise ZeroFilter(f"cannot normalize kernels with norms {norms}")
    shape = (filters.count,) + (1,) * len(filters.kernel_shape)
    return FilterBank(filters.kernels / norms.reshape(shape))


def project_filters(params: NetworkParams) -> NetworkParams:
    """Project the kernels onto the unit sphere, all other fields unchanged."""
    return replace(params, filters=project_bank(params.filters))


def _kernels_frames_first(kernels: np.ndarray) -> np.ndarray:
    """A (K, k_x, k_y, k_t) bank as (K, k_t, k_x, k_y); a 2D bank as it is."""
    return np.moveaxis(kernels, -1, 1) if kernels.ndim == 4 else kernels


def _kernels_public(kernels: np.ndarray) -> np.ndarray:
    """Inverse of _kernels_frames_first, as a C-contiguous array."""
    return np.ascontiguousarray(np.moveaxis(kernels, 1, -1) if kernels.ndim == 4 else kernels)


def _check_mode_kernels(config: NetworkConfig, filters: FilterBank) -> None:
    want = 2 if config.mode == MODE_2D else 3
    if len(filters.kernel_shape) != want:
        raise ShapeMismatch(
            f"mode {config.mode!r} needs {want}-dimensional kernels, "
            f"got shape {filters.kernel_shape}"
        )


def check_kernels_fit(config: NetworkConfig, image_shape: tuple) -> None:
    """Raise ShapeMismatch, as the forward would, unless the kernels of
    `config` fit the frames-first form of (N_x, N_y, N_t) images."""
    frames_first = (image_shape[-1],) + tuple(image_shape[:-1])
    check_fits(config.kernel_shape, frames_first[len(frames_first) - len(config.kernel_shape):])


@dataclass(frozen=True)
class OuterTrace:
    """Intermediates of one outer iteration."""

    admm: tuple          # J AdmmStepTrace entries; the last one's c is synthesized
    approx: np.ndarray   # frames-first dictionary approximation
    cg: CgSolution | CgTrace   # the solution of a converged solve, else its iterations


@dataclass(frozen=True)
class NetworkTrace:
    """Complete forward record needed by the backward pass."""

    admm: AdmmConfig         # the forward's own weights, gamma and tau
    params: NetworkParams
    sample: KSpaceSample
    spectra: KernelSpectra   # of the frames-first bank
    outer: tuple


@dataclass(frozen=True)
class ReconResult:
    """The image of a forward, its final code state and, if traced, its
    trace.  An untraced forward's code state is pending: its last sweep's
    tail forms s and v on their first read, in buffers the result holds."""

    image: np.ndarray        # (N_x, N_y, N_t)
    code_state: CodeState    # final codes s and prox input v, (K, N_t, N_x, N_y)
    trace: NetworkTrace | None = None


def outer_iteration(x: np.ndarray, state: CodeState | None, aty: np.ndarray,
                    spectra: KernelSpectra, operator: NormalOperator, admm_cfg: AdmmConfig,
                    config: NetworkConfig, want_trace: bool):
    """One outer iteration from the frames-first image x: J ADMM sweeps, the
    synthesis and the CG solve warm-started at x.  Returns the next (x, state)
    and the iteration's OuterTrace; nothing else of it outlives the call.
    The sweeps consume `state`: the next s lives in its s buffer.  None
    stands for zero codes, the forward's start.  Without `want_trace` the
    sweeps record only c and tau, which is all an untraced forward reads,
    and the next v lives in the v buffer too."""
    x_hat = dft_forward(x, ndim=spectra.n_spatial)
    steps = []
    for _ in range(config.n_admm):
        state, step = admm_step_traced(x_hat, state, spectra, admm_cfg, want_trace)
        steps.append(step)
    # sum_k d_k * s_k from the last sweep's record: d^T s_hat = x_hat - gamma c
    approx = dft_inverse(x_hat - admm_cfg.gamma * step.c, ndim=spectra.n_spatial)
    rhs = aty + operator.lam * approx
    cg = cg_solve(rhs, operator, x, config.n_cg)
    record = OuterTrace(admm=tuple(steps), approx=approx,
                        cg=solve_record(cg, rhs, config.n_cg))
    return cg.image, state, record


def forward_reconstruct(sample: KSpaceSample, params: NetworkParams,
                        config: NetworkConfig, want_trace: bool = False) -> ReconResult:
    """Run the unrolled network on one measured sample."""
    _check_mode_kernels(config, params.filters)
    admm_cfg = AdmmConfig(lam=params.lam, alpha=params.alpha, beta=params.beta)
    operator = NormalOperator(sample.coils, sample.mask, admm_cfg.lam)
    filters = FilterBank(_kernels_frames_first(params.filters.kernels))

    aty = np.ascontiguousarray(
        np.moveaxis(adjoint_apply(sample.y, sample.coils, sample.mask), -1, 0)
    )
    x = aty
    spectra = kernel_spectra(filters, aty.shape)
    state = None  # zero codes, which the first sweep does not transform

    outer_traces = []
    for t in range(config.n_outer):
        try:
            x, state, record = outer_iteration(x, state, aty, spectra, operator, admm_cfg,
                                               config, want_trace)
        except NonFiniteValue as err:  # only CG checks; see the module docstring
            raise NonFiniteValue(f"outer iteration {t}: cg_solve: {err}") from err
        if want_trace:
            outer_traces.append(_read_only(record))
        # an untraced forward keeps no record: drop it before the next
        # iteration's sweeps allocate theirs
        del record
    trace = None
    if want_trace:
        trace = NetworkTrace(admm=admm_cfg, params=params, sample=sample,
                             spectra=_read_only(spectra), outer=tuple(outer_traces))
    if state is None:  # n_outer = 0
        state = CodeState.zeros(filters.count, aty.shape)
    # a copy even where the transpose is a view (N_t = 1): x is recorded
    return ReconResult(image=np.moveaxis(x, 0, -1).copy(), code_state=state, trace=trace)


def _read_only(record):
    """`record` with `writeable` cleared on every array it and the records in
    it hold, so that a VJP writing into the trace raises instead of changing
    what a second backward reads."""
    for value in vars(record).values():
        for item in value if isinstance(value, tuple) else (value,):
            if isinstance(item, np.ndarray):
                item.flags.writeable = False
            elif is_dataclass(item):
                _read_only(item)
    return record


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

KERNEL_FILE = "filters.bin"
MANIFEST_FILE = "checkpoint.json"


def save_checkpoint(directory: str | Path, params: NetworkParams,
                    config: NetworkConfig) -> None:
    """Write a JSON manifest plus the kernel tensor into `directory`."""
    manifest = {
        "config": config.to_dict(),
        "log_lambda": params.log_lam,
        "log_alpha": params.log_alpha,
        "log_beta": params.log_beta,
        "kernels_file": KERNEL_FILE,
    }
    with all_or_nothing():
        directory = make_directory(directory)
        write_tensor(directory / KERNEL_FILE, params.filters.kernels.astype(np.complex128))
        write_json(directory / MANIFEST_FILE, manifest)


def load_checkpoint(directory: str | Path):
    """Read back (params, config) written by save_checkpoint."""
    directory = Path(directory)
    path = directory / MANIFEST_FILE
    manifest = read_manifest(path, {"config": dict, "kernels_file": str, "log_lambda": float,
                                    "log_alpha": float, "log_beta": float})
    try:
        config = NetworkConfig.from_dict(manifest["config"])
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from err
    for key in ("log_lambda", "log_alpha", "log_beta"):
        with np.errstate(over="ignore"):
            weight = np.exp(manifest[key])
        if not 0 < weight < np.inf:
            raise ValueError(f"{path}: key {key!r} gives the weight exp({manifest[key]!r}) = "
                             f"{weight}, not a finite positive number")
    kernels = read_tensor(directory / manifest["kernels_file"])
    if np.any(kernels.imag != 0):
        raise ValueError(f"{directory / manifest['kernels_file']}: kernels must be real-valued")
    want = (config.n_filters,) + config.kernel_shape
    if kernels.shape != want:
        raise ShapeMismatch(
            f"{directory}: kernels have shape {kernels.shape}, "
            f"the manifest config asks for {want}"
        )
    params = NetworkParams(
        filters=FilterBank(kernels.real),
        log_lam=float(manifest["log_lambda"]),
        log_alpha=float(manifest["log_alpha"]),
        log_beta=float(manifest["log_beta"]),
    )
    return params, config
