"""Supervised training of the unrolled reconstruction network.

One training step runs the traced forward pass on a single sample, pulls
the squared-error loss back through the trace, and applies an Adam update
to the kernels and the three log-weights, re-projecting every kernel onto
the unit sphere afterwards.  With train_filters disabled the filter
gradients are discarded outright and the kernels (including their Adam
moments) are left untouched, so the fixed-filter baseline keeps its bank
bitwise intact across any number of epochs.

A training run can mirror itself into a directory: config.json with every
configuration field, losses.csv with one row per epoch (row zero holds the
pre-training losses), and one parameter checkpoint per epoch.  An epoch's
files land together or not at all (`io.all_or_nothing`), and the epochs
before it stay.  All randomness is drawn from a single seeded generator, so
identical seeds give byte-identical loss logs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .backprop import GradientSet, backward
from .csc import FilterBank
from .errors import NonFiniteValue, ShapeMismatch
from .io import all_or_nothing, atomic_write, make_directory, write_json
from .network import (
    NetworkConfig,
    NetworkParams,
    check_kernels_fit,
    forward_reconstruct,
    init_network,
    project_filters,
    save_checkpoint,
)
from .tensors import real_inner

DEFAULT_LR = 5e-4
DEFAULT_EPOCHS = 16
# Adam moment decay rates and denominator guard
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def loss_mse(x_out: np.ndarray, x_target: np.ndarray) -> float:
    """Squared L2 error summed over real and imaginary channels."""
    if x_out.shape != x_target.shape:
        raise ShapeMismatch(f"output shape {x_out.shape} vs target shape {x_target.shape}")
    err = x_out - x_target
    return real_inner(err, err)


def loss_mse_grad(x_out: np.ndarray, x_target: np.ndarray) -> np.ndarray:
    """Cotangent of loss_mse on x_out, dL/dRe + i dL/dIm."""
    if x_out.shape != x_target.shape:
        raise ShapeMismatch(f"output shape {x_out.shape} vs target shape {x_target.shape}")
    return 2.0 * (x_out - x_target)


@dataclass(frozen=True)
class AdamState:
    """Adam moment accumulators for the kernels and the three log-weights."""

    m_filters: np.ndarray
    v_filters: np.ndarray
    m_logs: np.ndarray     # (3,) for log_lam, log_alpha, log_beta
    v_logs: np.ndarray
    step: int = 0
    lr: float = DEFAULT_LR

    @classmethod
    def init(cls, params: NetworkParams, lr: float = DEFAULT_LR) -> "AdamState":
        shape = params.filters.kernels.shape
        return cls(
            m_filters=np.zeros(shape),
            v_filters=np.zeros(shape),
            m_logs=np.zeros(3),
            v_logs=np.zeros(3),
            lr=lr,
        )


def _adam_update(grad, m, v, lr: float, step: int):
    m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * grad
    v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * grad**2
    m_hat = m / (1.0 - ADAM_BETA1**step)
    v_hat = v / (1.0 - ADAM_BETA2**step)
    return lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS), m, v


def adam_step(params: NetworkParams, grads: GradientSet, state: AdamState,
              update_filters: bool = True):
    """One Adam update of all parameters, kernels re-projected to unit norm.

    With update_filters False the kernel entries, their moments, and their
    norms are left bitwise unchanged; only the log-weights move.
    """
    if grads.d_filters.shape != params.filters.kernels.shape:
        raise ShapeMismatch(
            f"filter gradient shape {grads.d_filters.shape} vs "
            f"kernel shape {params.filters.kernels.shape}"
        )
    step = state.step + 1
    logs = np.array([params.log_lam, params.log_alpha, params.log_beta])
    g_logs = np.array([grads.d_log_lam, grads.d_log_alpha, grads.d_log_beta])
    delta_logs, m_logs, v_logs = _adam_update(
        g_logs, state.m_logs, state.v_logs, state.lr, step
    )
    logs = logs - delta_logs
    new_params = replace(
        params, log_lam=float(logs[0]), log_alpha=float(logs[1]),
        log_beta=float(logs[2])
    )
    m_filters, v_filters = state.m_filters, state.v_filters
    if update_filters:
        delta, m_filters, v_filters = _adam_update(
            grads.d_filters, state.m_filters, state.v_filters, state.lr, step
        )
        if delta.any():
            # an exactly-zero step (zero gradients, or lr = 0) leaves the
            # bank untouched instead of re-projecting, which would jitter
            # the last bits of already-normalized kernels
            bank = FilterBank(params.filters.kernels - delta)
            new_params = project_filters(replace(new_params, filters=bank))
    new_state = replace(
        state, m_filters=m_filters, v_filters=v_filters,
        m_logs=m_logs, v_logs=v_logs, step=step,
    )
    return new_params, new_state


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    train_loss: float
    val_loss: float


def evaluate_loss(dataset, params: NetworkParams, config: NetworkConfig) -> float:
    """Mean squared-error loss of the current network over a dataset."""
    if not dataset:
        raise ValueError("dataset is empty")
    total = 0.0
    for sample, target in dataset:
        # the result is dropped once scored, before the next forward runs
        total += loss_mse(forward_reconstruct(sample, params, config).image, target)
    return total / len(dataset)


def train_step(sample, target, params, config, state: AdamState):
    """Forward, backward, and Adam update on one sample; returns its loss."""
    result = forward_reconstruct(sample, params, config, want_trace=True)
    image, trace = result.image, result.trace
    del result  # the backward reads the trace alone: the final code maps go now
    loss = loss_mse(image, target)
    if not np.isfinite(loss):
        raise NonFiniteValue(f"non-finite training loss {loss}")
    grads = backward(trace, loss_mse_grad(image, target))
    params, state = adam_step(
        params, grads, state, update_filters=config.train_filters
    )
    return params, state, loss


def write_loss_log(path, history) -> None:
    """Write the epoch/loss table; float repr keeps full precision."""
    lines = ["epoch,train_loss,val_loss"]
    lines += [
        f"{rec.epoch},{repr(float(rec.train_loss))},{repr(float(rec.val_loss))}"
        for rec in history
    ]
    with atomic_write(path) as fh:
        fh.write("\n".join(lines) + "\n")


def _write_run_config(run_dir: Path, config, epochs, seed, lr) -> None:
    payload = config.to_dict()
    payload.update({"epochs": epochs, "seed": seed, "lr": lr})
    write_json(run_dir / "config.json", payload)


def train(dataset, val_dataset, config: NetworkConfig,
          epochs: int = DEFAULT_EPOCHS, seed: int = 0, lr: float = DEFAULT_LR,
          run_dir=None, step_callback=None):
    """Full training loop; returns final parameters and the loss history.

    Row zero of the history holds the losses of the freshly initialized
    network; row e holds the mean per-sample loss seen while training epoch
    e and the validation loss after it.  step_callback, when given, is
    invoked with the parameters after every optimizer step.
    """
    if not dataset or not val_dataset:
        raise ValueError("training and validation datasets must be nonempty")
    if epochs < 0:
        raise ValueError(f"epochs must be >= 0, got {epochs}")
    # lr = 0 is allowed: it runs the loop with every parameter frozen
    if not (np.isfinite(lr) and lr >= 0):
        raise ValueError(f"lr must be a finite number >= 0, got {lr}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    for sample, _ in (*dataset, *val_dataset):
        check_kernels_fit(config, sample.image_shape)
    params = init_network(config, rng_seed=seed)
    state = AdamState.init(params, lr=lr)
    rng = np.random.default_rng(seed)

    # the run directory before the epoch-0 forwards; it goes again if they or its files fail
    with all_or_nothing():
        if run_dir is not None:
            run_dir = make_directory(run_dir)
        history = [
            EpochRecord(
                epoch=0,
                train_loss=evaluate_loss(dataset, params, config),
                val_loss=evaluate_loss(val_dataset, params, config),
            )
        ]
        if run_dir is not None:
            _write_run_config(run_dir, config, epochs, seed, lr)
            save_checkpoint(run_dir / "checkpoints" / "epoch_000", params, config)
            write_loss_log(run_dir / "losses.csv", history)

    for epoch in range(1, epochs + 1):
        order = rng.permutation(len(dataset))
        epoch_total = 0.0
        for index in order:
            sample, target = dataset[index]
            params, state, loss = train_step(sample, target, params, config, state)
            epoch_total += loss
            if step_callback is not None:
                step_callback(params)
        history.append(
            EpochRecord(
                epoch=epoch,
                train_loss=epoch_total / len(dataset),
                val_loss=evaluate_loss(val_dataset, params, config),
            )
        )
        if run_dir is not None:  # an epoch's files land together; earlier epochs stay
            with all_or_nothing():
                save_checkpoint(
                    run_dir / "checkpoints" / f"epoch_{epoch:03d}", params, config
                )
                write_loss_log(run_dir / "losses.csv", history)
    return params, history
