"""The benchmark's workloads: seeded inputs, rounds of operations, output checks.

A workload's ``setup`` builds every input from the seed, writes the files
the workload reads and runs one operation as warm-up.  ``round`` lists the
operations of one round as ``(kind, callable)`` pairs; ``kind`` is
``"step"`` for the workload's main operation (a ``train_step``, or a CLI
``reconstruct`` + ``evaluate``) and ``"forward"`` for an untraced in-process
``forward_reconstruct``.  ``check``
runs after the timed phase and compares the outputs against independent
computations or properties the method must have, never against stored
copies of earlier output.  It marks each operation a check rejects and
returns the quality figures the timed phase produced.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io as stdio
import json
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from ucdl import cli, data, network, training
from ucdl.backprop import backward
from ucdl.csc import FilterBank
from ucdl.data import PhantomSpec, save_dataset
from ucdl.io import read_tensor
from ucdl.metrics import psnr, roi_crop
from ucdl.network import NetworkConfig, init_network, load_checkpoint, save_checkpoint
from ucdl.operators import (adjoint_apply, forward_apply, load_kspace_sample,
                            make_coil_maps, make_mask, simulate_measurement)
from ucdl.training import AdamState, loss_mse, loss_mse_grad

NORM_TOL = 1e-12          # unit kernel norm after every Adam step
ADJOINT_TOL = 1e-10       # <A x, y> against <x, A^H y>
METRIC_TOL = 1e-12        # CLI metrics against the plain-NumPy recomputation
FD_STEP = 1e-4           # halved up to FD_HALVINGS times to avoid soft-threshold kinks
FD_HALVINGS = 8
FD_TOL = 1e-5             # relative, directional derivative; as tests/test_backprop.py
# The validation phantoms and the initial filter bank are the same for every
# seed (the acceptance gate's validation and run seeds), so recon_psnr_db
# compares programs, not draws of phantoms or of the initial bank; the
# training data, sample order and probe directions follow the seed.
VAL_SEED = 200
INIT_SEED = 0


@dataclass
class CheckResult:
    correct: bool
    psnr_db: float
    notes: list = field(default_factory=list)


def seeds(seed: int, n: int) -> list:
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**31, size=n)]


# ---------------------------------------------------------------------------
# Training workloads
# ---------------------------------------------------------------------------

def acceptance_pairs(rng_seed, n_samples, coils, shape):
    """The dataset recipe of the acceptance gate's training fixture."""
    spec = PhantomSpec(image_shape=shape, rng_seed=rng_seed,
                       intensity_range=(0.8, 2.0), motion_amplitude=0.04)
    seed_rng = np.random.default_rng(rng_seed)
    pairs = []
    for _ in range(n_samples):
        ps, ms, ns = (int(v) for v in seed_rng.integers(0, 2**31, size=3))
        target = data.make_phantom(dataclasses.replace(spec, rng_seed=ps))
        mask = make_mask(shape, accel=4.0, seed=ms, center_fraction=0.05)
        pairs.append((simulate_measurement(target, coils, mask, sigma=0.02,
                                           rng_seed=ns), target))
    return pairs


def synth_pairs(rng_seed, n_samples, coils, shape, mask_family="columns"):
    return data.synth_dataset(PhantomSpec(image_shape=shape, rng_seed=rng_seed),
                              n_samples, coils, mask_family=mask_family,
                              sigma=0.02, accel=4.0)


@dataclass
class TrainState:
    config: NetworkConfig
    train_set: list
    val_set: list
    params: object
    adam: AdamState
    order_rng: np.random.Generator
    direction_seed: int
    params0: object = None
    first_index: int | None = None


def active_pattern(trace) -> list:
    """Which real and imaginary channels pass each soft threshold."""
    return [np.abs(np.stack([step.v.real, step.v.imag])) > step.tau
            for outer in trace.outer for step in outer.admm]


class TrainWorkload:
    """Rounds of ``train_step`` over the training set, then the validation
    forwards that ``evaluate_loss`` would run, one per sample."""

    def __init__(self, shape, n_coils, config, n_train, n_val, make_pairs):
        self.shape = shape
        self.n_coils = n_coils
        self.config = config
        self.n_train = n_train
        self.n_val = n_val
        self.make_pairs = make_pairs
        # (shape, axes) of the coefficient maps whose DFT pair is the unit of cost
        self.reference = ((config.n_filters,) + shape, (1, 2, 3))

    def setup(self, seed: int, workdir: Path):
        train_seed, order_seed, direction_seed = seeds(seed, 3)
        coils = make_coil_maps(self.n_coils, self.shape[:2])
        train_set = self.make_pairs(train_seed, self.n_train, coils, self.shape)
        val_set = self.make_pairs(VAL_SEED, self.n_val, coils, self.shape)
        params = init_network(self.config, rng_seed=INIT_SEED)
        adam = AdamState.init(params)
        # warm-up: one step whose update is discarded
        sample, target = train_set[0]
        training.train_step(sample, target, params, self.config, adam)
        return TrainState(self.config, train_set, val_set, params, adam,
                          np.random.default_rng(order_seed), direction_seed)

    def round(self, state: TrainState):
        order = state.order_rng.permutation(len(state.train_set))
        if state.first_index is None:
            state.params0, state.first_index = state.params, int(order[0])
        ops = [("step", partial(self._step, state, int(i))) for i in order]
        ops += [("forward", partial(self._forward, state, j))
                for j in range(len(state.val_set))]
        return ops

    @staticmethod
    def _step(state: TrainState, index: int):
        sample, target = state.train_set[index]
        state.params, state.adam, loss = training.train_step(
            sample, target, state.params, state.config, state.adam)
        return loss, state.params

    @staticmethod
    def _forward(state: TrainState, index: int):
        sample, target = state.val_set[index]
        image = network.forward_reconstruct(sample, state.params, state.config).image
        loss = loss_mse(image, target)
        if not np.isfinite(loss):
            raise FloatingPointError(f"non-finite validation loss {loss}")
        return index, image

    def check(self, state: TrainState, ops: list) -> CheckResult:
        notes = []
        steps = [op for op in ops if op.kind == "step" and op.error is None]
        for op in steps:
            loss, params = op.out
            deviation = float(np.abs(params.filters.norms() - 1.0).max())
            if not np.isfinite(loss):
                op.error = f"non-finite loss {loss}"
            elif deviation > NORM_TOL:
                op.error = f"kernel norm off by {deviation:.2e} after the Adam step"
        fd_error, h = self._gradient_defect(state)
        notes.append(f"directional gradient defect {fd_error:.2e} at step {h:.3g}")
        if not fd_error <= FD_TOL and ops[0].error is None:
            ops[0].error = f"backward disagrees with finite differences ({fd_error:.2e})"

        first_round = [op for op in ops[: self.n_train + self.n_val]
                       if op.kind == "forward" and op.error is None]
        values = [psnr(roi_crop(image), roi_crop(state.val_set[j][1]))
                  for j, image in (op.out for op in first_round)]
        psnr_db = float(np.mean(values)) if values else float("nan")
        correct = len(first_round) == self.n_val and np.isfinite(psnr_db)
        return CheckResult(correct=bool(correct), psnr_db=psnr_db, notes=notes)

    def _gradient_defect(self, state: TrainState):
        """Relative gap between ``backward`` on the first step and a central
        difference of the loss along a seeded random direction.

        The step is halved while any soft-threshold channel at either end of
        the interval is active where it is inactive at the centre, so the
        difference is taken on a piece where the loss is smooth.  Returns
        the gap and the step used.
        """
        sample, target = state.train_set[state.first_index]
        params0, config = state.params0, state.config
        result = network.forward_reconstruct(sample, params0, config, want_trace=True)
        grads = backward(result.trace, loss_mse_grad(result.image, target))
        pattern0 = active_pattern(result.trace)
        del result

        rng = np.random.default_rng(state.direction_seed)
        d_kernels = rng.standard_normal(params0.filters.kernels.shape)
        d_logs = rng.standard_normal(3)
        scale = np.sqrt((d_kernels**2).sum() + (d_logs**2).sum())
        d_kernels, d_logs = d_kernels / scale, d_logs / scale
        analytic = float((grads.d_filters * d_kernels).sum()
                         + d_logs @ [grads.d_log_lam, grads.d_log_alpha, grads.d_log_beta])

        def loss_and_pattern(eps):
            params = dataclasses.replace(
                params0,
                filters=FilterBank(params0.filters.kernels + eps * d_kernels),
                log_lam=params0.log_lam + eps * d_logs[0],
                log_alpha=params0.log_alpha + eps * d_logs[1],
                log_beta=params0.log_beta + eps * d_logs[2],
            )
            res = network.forward_reconstruct(sample, params, config, want_trace=True)
            return loss_mse(res.image, target), active_pattern(res.trace)

        h = FD_STEP
        for attempt in range(FD_HALVINGS + 1):
            (up, p_up), (down, p_down) = loss_and_pattern(h), loss_and_pattern(-h)
            smooth = all(np.array_equal(a, b) and np.array_equal(a, c)
                         for a, b, c in zip(pattern0, p_up, p_down))
            if smooth or attempt == FD_HALVINGS:
                break
            h /= 2
        numeric = (up - down) / (2 * h)
        return abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-30), h


# ---------------------------------------------------------------------------
# CLI reconstruction workload
# ---------------------------------------------------------------------------

@dataclass
class ReconState:
    workdir: Path
    checkpoint: Path
    sample_dirs: list
    samples: list          # the same samples, loaded as the CLI loads them
    params: object
    config: NetworkConfig
    adjoint_seed: int
    n_written: int = 0


def run_cli(argv) -> str:
    """Run ``ucdl`` in this process; return what it printed."""
    out = stdio.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"ucdl {argv[0]} exited with status {code}")
    return out.getvalue()


def plain_psnr_nrmse(image: np.ndarray, target: np.ndarray):
    """ROI PSNR and NRMSE from their definitions: magnitudes of the central
    half-size crop, scored per frame and averaged over frames."""
    nx, ny = target.shape[:2]
    h, w = nx // 2, ny // 2
    ox, oy = (nx - h) // 2, (ny - w) // 2
    x = np.abs(image[ox:ox + h, oy:oy + w])
    ref = np.abs(target[ox:ox + h, oy:oy + w])
    psnrs, nrmses = [], []
    for t in range(ref.shape[2]):
        err = x[:, :, t] - ref[:, :, t]
        peak = ref[:, :, t].max()
        psnrs.append(10.0 * np.log10(peak * peak / np.mean(err * err)))
        nrmses.append(np.sqrt((err * err).sum() / (ref[:, :, t] ** 2).sum()))
    return float(np.mean(psnrs)), float(np.mean(nrmses))


def close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b))


class ReconWorkload:
    """CLI ``reconstruct`` then ``evaluate`` of each sample with a 2d-mode
    checkpoint, each followed by the in-process ``forward_reconstruct``
    that the bit-identity check compares against; no training, no backward
    pass."""

    def __init__(self, shape, n_coils, n_samples, mask_family):
        self.shape = shape
        self.n_coils = n_coils
        self.n_samples = n_samples
        self.mask_family = mask_family
        self.config = NetworkConfig(mode="2d")
        nx, ny, nt = shape
        self.reference = ((self.config.n_filters, nt, nx, ny), (2, 3))

    def setup(self, seed: int, workdir: Path):
        data_seed, init_seed, adjoint_seed = seeds(seed, 3)
        coils = make_coil_maps(self.n_coils, self.shape[:2])
        pairs = synth_pairs(data_seed, self.n_samples, coils, self.shape,
                            mask_family=self.mask_family)
        save_dataset(workdir / "data", pairs)
        save_checkpoint(workdir / "checkpoint",
                        init_network(self.config, rng_seed=init_seed), self.config)
        sample_dirs = sorted(p for p in (workdir / "data").iterdir() if p.is_dir())
        params, config = load_checkpoint(workdir / "checkpoint")
        state = ReconState(workdir, workdir / "checkpoint", sample_dirs,
                           [load_kspace_sample(d) for d in sample_dirs],
                           params, config, adjoint_seed)
        self._reconstruct(state, 0)  # warm-up
        return state

    def round(self, state: ReconState):
        ops = []
        for i in range(len(state.samples)):
            ops += [("step", partial(self._reconstruct, state, i)),
                    ("forward", partial(self._forward, state, i))]
        return ops

    @staticmethod
    def _reconstruct(state: ReconState, index: int):
        sample = state.sample_dirs[index]
        out = state.workdir / f"recon_{state.n_written:04d}.bin"
        state.n_written += 1
        run_cli(["reconstruct", "--checkpoint", state.checkpoint,
                 "--sample", sample, "--out", out])
        printed = run_cli(["evaluate", "--recon", out, "--target", sample / "target.bin"])
        report = json.loads(printed.strip().splitlines()[-1])
        return index, out, report

    @staticmethod
    def _forward(state: ReconState, index: int):
        image = network.forward_reconstruct(state.samples[index], state.params,
                                            state.config).image
        if not np.isfinite(image).all():
            raise FloatingPointError("non-finite reconstruction")
        return index, image

    def check(self, state: ReconState, ops: list) -> CheckResult:
        rng = np.random.default_rng(state.adjoint_seed)
        worst_adjoint = 0.0
        for sample in state.samples:
            x = rng.standard_normal(sample.image_shape) + 1j * rng.standard_normal(sample.image_shape)
            y = rng.standard_normal(sample.y.shape) + 1j * rng.standard_normal(sample.y.shape)
            lhs = np.vdot(forward_apply(x, sample.coils, sample.mask), y)
            rhs = np.vdot(x, adjoint_apply(y, sample.coils, sample.mask))
            worst_adjoint = max(worst_adjoint,
                                abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-30))
        targets = [read_tensor(d / "target.bin") for d in state.sample_dirs]

        # each CLI step is followed by the in-process forward of its sample
        for step, forward in zip(ops[0::2], ops[1::2]):
            if step.error is not None:
                continue
            if forward.error is not None:
                step.error = "no in-process reconstruction to compare against"
                continue
            index, path, report = step.out
            image = forward.out[1]
            want_psnr, want_nrmse = plain_psnr_nrmse(image, targets[index])
            if not np.array_equal(read_tensor(path), image):
                step.error = "written reconstruction differs from forward_reconstruct"
            elif not (close(report["psnr"], want_psnr, METRIC_TOL)
                      and close(report["nrmse"], want_nrmse, METRIC_TOL)):
                step.error = (f"evaluate printed {report}, expected psnr {want_psnr}, "
                              f"nrmse {want_nrmse}")

        first_round = [op.out[2]["psnr"] for op in ops[: 2 * self.n_samples]
                       if op.kind == "step" and op.error is None]
        psnr_db = float(np.mean(first_round)) if first_round else float("nan")
        correct = (worst_adjoint <= ADJOINT_TOL and len(first_round) == self.n_samples
                   and np.isfinite(psnr_db))
        return CheckResult(correct=bool(correct), psnr_db=psnr_db,
                           notes=[f"adjoint defect {worst_adjoint:.2e}"])


WORKLOADS = {
    "fixture-epoch": TrainWorkload(
        shape=(32, 32, 8), n_coils=3,
        config=NetworkConfig(mode="3d", n_filters=8, kernel_size=5,
                             n_outer=4, n_admm=1, n_cg=12),
        n_train=24, n_val=8, make_pairs=acceptance_pairs),
    "paper3d-train": TrainWorkload(
        shape=(48, 48, 16), n_coils=3,
        config=NetworkConfig(mode="3d", n_outer=4, n_admm=1, n_cg=12),
        n_train=2, n_val=2, make_pairs=synth_pairs),
    "recon2d-points": ReconWorkload(
        shape=(32, 32, 8), n_coils=8, n_samples=8, mask_family="points"),
}
