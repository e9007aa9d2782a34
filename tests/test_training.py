"""Training loop, loss, and Adam optimizer tests.

The Adam oracle is a hand-written scalar trace of the standard update with
bias correction; loop-level properties (zero-learning-rate invariance,
determinism of the loss log, baseline-mode kernel freezing) are checked on
deliberately tiny networks so each test runs in well under a second.
"""

import dataclasses

import numpy as np
import pytest

from ucdl.backprop import GradientSet
from ucdl.csc import FilterBank
from ucdl.data import PhantomSpec, synth_dataset
from ucdl.errors import NonFiniteValue, ShapeMismatch
from ucdl.network import (
    NetworkConfig,
    forward_reconstruct,
    init_network,
    load_checkpoint,
)
from ucdl.operators import make_coil_maps
from ucdl.training import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    DEFAULT_EPOCHS,
    DEFAULT_LR,
    AdamState,
    adam_step,
    evaluate_loss,
    loss_mse,
    loss_mse_grad,
    train,
    write_loss_log,
)


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def tiny_config(**overrides):
    fields = dict(
        mode="3d", n_filters=2, kernel_size=3, n_outer=1, n_admm=1, n_cg=2
    )
    fields.update(overrides)
    return NetworkConfig(**fields)


def tiny_dataset(n_samples, seed=0, shape=(8, 8, 3)):
    coils = make_coil_maps(2, shape[:2])
    spec = PhantomSpec(image_shape=shape, n_ellipses=2, rng_seed=seed)
    return synth_dataset(spec, n_samples, coils, sigma=0.01, accel=2.0)


def zero_grads(params):
    return GradientSet(
        d_filters=np.zeros_like(params.filters.kernels),
        d_log_lam=0.0,
        d_log_alpha=0.0,
        d_log_beta=0.0,
    )


class TestLoss:
    def test_identical_inputs_give_zero(self):
        x = random_complex(np.random.default_rng(1), (4, 4, 2))
        assert loss_mse(x, x) == 0.0

    def test_unit_difference_counts_components(self):
        x = np.zeros((3, 5), dtype=complex)
        assert loss_mse(x + (1.0 + 0.0j), x) == pytest.approx(15.0)
        assert loss_mse(x + 1.0j, x) == pytest.approx(15.0)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        x = random_complex(rng, (3, 3))
        target = random_complex(rng, (3, 3))
        grad = loss_mse_grad(x, target)
        h = 1e-6
        for idx in np.ndindex(3, 3):
            for step, channel in ((1.0, grad[idx].real), (1j, grad[idx].imag)):
                up = x.copy()
                up[idx] += step * h
                dn = x.copy()
                dn[idx] -= step * h
                fd = (loss_mse(up, target) - loss_mse(dn, target)) / (2 * h)
                assert fd == pytest.approx(channel, rel=1e-6, abs=1e-8)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            loss_mse(np.zeros((2, 2)), np.zeros((2, 3)))
        with pytest.raises(ShapeMismatch):
            loss_mse_grad(np.zeros((2, 2)), np.zeros((2, 3)))


class TestAdam:
    def test_default_hyperparameters(self):
        params = init_network(tiny_config(), rng_seed=0)
        state = AdamState.init(params)
        assert state.lr == 5e-4
        assert (ADAM_BETA1, ADAM_BETA2, ADAM_EPS) == (0.9, 0.999, 1e-8)
        assert not any(hasattr(state, name) for name in ("beta1", "beta2", "eps"))
        assert state.step == 0
        assert DEFAULT_LR == 5e-4
        assert DEFAULT_EPOCHS == 16

    def test_first_step_matches_hand_trace(self):
        # m1 = (1-b1) g, v1 = (1-b2) g^2; bias correction cancels both
        # factors, so the first step is lr * g / (|g| + eps)
        params = init_network(tiny_config(), rng_seed=1)
        state = AdamState.init(params, lr=1e-3)
        g = -2.5
        grads = dataclasses.replace(zero_grads(params), d_log_lam=g)
        new_params, new_state = adam_step(params, grads, state)
        expected = params.log_lam - 1e-3 * g / (abs(g) + 1e-8)
        assert new_params.log_lam == pytest.approx(expected, abs=1e-15)
        assert new_state.step == 1

    def test_unit_gradient_moves_by_learning_rate(self):
        params = init_network(tiny_config(), rng_seed=2)
        state = AdamState.init(params, lr=7e-4)
        grads = dataclasses.replace(zero_grads(params), d_log_beta=1.0)
        new_params, _ = adam_step(params, grads, state)
        assert params.log_beta - new_params.log_beta == pytest.approx(7e-4, rel=1e-6)

    def test_two_scalar_steps_match_recurrence(self):
        params = init_network(tiny_config(), rng_seed=3)
        state = AdamState.init(params, lr=1e-2)
        values = []
        x, m, v = params.log_alpha, 0.0, 0.0
        for step, g in ((1, 0.8), (2, -1.7)):
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            x -= 1e-2 * (m / (1 - 0.9**step)) / (np.sqrt(v / (1 - 0.999**step)) + 1e-8)
            values.append(x)
        grads1 = dataclasses.replace(zero_grads(params), d_log_alpha=0.8)
        grads2 = dataclasses.replace(zero_grads(params), d_log_alpha=-1.7)
        p1, s1 = adam_step(params, grads1, state)
        p2, _ = adam_step(p1, grads2, s1)
        assert p1.log_alpha == pytest.approx(values[0], abs=1e-15)
        assert p2.log_alpha == pytest.approx(values[1], abs=1e-15)

    def test_zero_gradient_keeps_parameters(self):
        params = init_network(tiny_config(), rng_seed=4)
        new_params, state = adam_step(params, zero_grads(params), AdamState.init(params))
        assert new_params.log_lam == params.log_lam
        assert new_params.log_alpha == params.log_alpha
        assert new_params.log_beta == params.log_beta
        np.testing.assert_allclose(
            new_params.filters.kernels, params.filters.kernels, atol=1e-15
        )
        assert state.step == 1

    def test_projection_after_every_step(self):
        rng = np.random.default_rng(5)
        params = init_network(tiny_config(), rng_seed=5)
        state = AdamState.init(params, lr=0.05)
        for _ in range(4):
            grads = GradientSet(
                d_filters=rng.standard_normal(params.filters.kernels.shape),
                d_log_lam=rng.standard_normal(),
                d_log_alpha=rng.standard_normal(),
                d_log_beta=rng.standard_normal(),
            )
            params, state = adam_step(params, grads, state)
            assert float(np.abs(params.filters.norms() - 1.0).max()) <= 1e-12

    def test_projected_update_is_tangent_to_first_order(self):
        # both old and new kernels are unit vectors, so the update direction
        # satisfies <delta, d_old> = -|delta|^2 / 2 exactly: the component
        # along d_old is second order in the step size, and the normalized
        # overlap <delta, d_old>/|delta| shrinks linearly with lr
        rng = np.random.default_rng(6)
        params = init_network(tiny_config(), rng_seed=6)
        grads = GradientSet(
            d_filters=rng.standard_normal(params.filters.kernels.shape),
            d_log_lam=0.0, d_log_alpha=0.0, d_log_beta=0.0,
        )

        def overlap(lr):
            new_params, _ = adam_step(params, grads, AdamState.init(params, lr=lr))
            worst = 0.0
            for k in range(params.filters.count):
                old = params.filters.kernels[k].ravel()
                delta = new_params.filters.kernels[k].ravel() - old
                along = float(np.dot(delta, old))
                assert abs(along + 0.5 * float(np.dot(delta, delta))) <= 1e-12
                worst = max(worst, abs(along) / float(np.linalg.norm(delta)))
            return worst

        coarse, fine = overlap(1e-3), overlap(1e-4)
        assert fine <= 1e-3
        assert fine <= 0.2 * coarse

    def test_frozen_filters_stay_bitwise_identical(self):
        rng = np.random.default_rng(7)
        params = init_network(tiny_config(), rng_seed=7)
        state = AdamState.init(params, lr=0.05)
        before = params.filters.kernels.copy()
        for _ in range(3):
            grads = GradientSet(
                d_filters=rng.standard_normal(before.shape),
                d_log_lam=0.3, d_log_alpha=-0.2, d_log_beta=0.1,
            )
            params, state = adam_step(params, grads, state, update_filters=False)
        np.testing.assert_array_equal(params.filters.kernels, before)
        assert np.all(state.m_filters == 0.0)
        assert np.all(state.v_filters == 0.0)
        assert params.log_lam != 0.0

    def test_rejects_mismatched_gradient_shape(self):
        params = init_network(tiny_config(), rng_seed=8)
        grads = GradientSet(
            d_filters=np.zeros((3, 3, 3)), d_log_lam=0.0,
            d_log_alpha=0.0, d_log_beta=0.0,
        )
        with pytest.raises(ShapeMismatch):
            adam_step(params, grads, AdamState.init(params))


class TestTrainLoop:
    def test_zero_learning_rate_freezes_everything(self):
        data = tiny_dataset(2, seed=10)
        val = tiny_dataset(1, seed=11)
        config = tiny_config()
        params, history = train(data, val, config, epochs=2, seed=3, lr=0.0)
        reference = init_network(config, rng_seed=3)
        np.testing.assert_array_equal(
            params.filters.kernels, reference.filters.kernels
        )
        assert params.log_lam == reference.log_lam
        assert len(history) == 3
        for record in history[1:]:
            assert record.train_loss == history[0].train_loss
            assert record.val_loss == history[0].val_loss

    @pytest.mark.parametrize("lr", [-1.0, np.inf, np.nan])
    def test_bad_learning_rate_rejected_before_any_work(self, tmp_path, lr):
        with pytest.raises(ValueError, match="^lr must be a finite number >= 0, got "):
            train(tiny_dataset(1, seed=10), tiny_dataset(1, seed=11), tiny_config(),
                  epochs=1, lr=lr, run_dir=tmp_path / "run")
        assert not (tmp_path / "run").exists()

    def test_history_shape_and_epoch_zero_row(self):
        data = tiny_dataset(2, seed=12)
        val = tiny_dataset(1, seed=13)
        config = tiny_config()
        params, history = train(data, val, config, epochs=1, seed=0, lr=1e-3)
        assert [rec.epoch for rec in history] == [0, 1]
        pre = evaluate_loss(data, init_network(config, rng_seed=0), config)
        assert history[0].train_loss == pytest.approx(pre, rel=1e-12)
        assert np.isfinite(history[1].train_loss)

    def test_determinism_and_run_directory(self, tmp_path):
        data = tiny_dataset(2, seed=14)
        val = tiny_dataset(1, seed=15)
        config = tiny_config()
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        params_a, hist_a = train(data, val, config, epochs=2, seed=9,
                                 lr=1e-3, run_dir=dir_a)
        params_b, hist_b = train(data, val, config, epochs=2, seed=9,
                                 lr=1e-3, run_dir=dir_b)
        assert (dir_a / "losses.csv").read_bytes() == (dir_b / "losses.csv").read_bytes()
        np.testing.assert_array_equal(
            params_a.filters.kernels, params_b.filters.kernels
        )
        assert (dir_a / "config.json").exists()
        for epoch in range(3):
            ck = dir_a / "checkpoints" / f"epoch_{epoch:03d}"
            loaded, loaded_config = load_checkpoint(ck)
            assert loaded_config == config
        np.testing.assert_array_equal(
            loaded.filters.kernels, params_a.filters.kernels
        )

    def test_loss_log_format(self, tmp_path):
        from ucdl.training import EpochRecord

        path = tmp_path / "losses.csv"
        write_loss_log(path, [
            EpochRecord(0, 1.5, 2.25), EpochRecord(1, 0.1, 0.5),
        ])
        text = path.read_text()
        assert text == "epoch,train_loss,val_loss\n0,1.5,2.25\n1,0.1,0.5\n"

    def test_baseline_mode_keeps_kernels(self):
        data = tiny_dataset(2, seed=16)
        val = tiny_dataset(1, seed=17)
        config = tiny_config(train_filters=False)
        params, history = train(data, val, config, epochs=2, seed=5, lr=1e-3)
        reference = init_network(config, rng_seed=5)
        np.testing.assert_array_equal(
            params.filters.kernels, reference.filters.kernels
        )
        assert params.log_lam != reference.log_lam

    def test_filter_norms_hold_at_every_step(self):
        data = tiny_dataset(2, seed=18)
        val = tiny_dataset(1, seed=19)
        worst = []
        train(data, val, tiny_config(), epochs=2, seed=6, lr=5e-3,
              step_callback=lambda p: worst.append(
                  float(np.abs(p.filters.norms() - 1.0).max())
              ))
        assert len(worst) == 4  # two epochs of two samples
        assert max(worst) <= 1e-12

    def test_aborts_on_non_finite_loss(self):
        data = tiny_dataset(1, seed=20)
        sample, target = data[0]
        poisoned = [(sample, np.full_like(target, np.nan))]
        with pytest.raises(NonFiniteValue):
            train(poisoned, data, tiny_config(), epochs=1, seed=0)

    def test_rejects_empty_datasets(self):
        data = tiny_dataset(1, seed=21)
        with pytest.raises(ValueError):
            train([], data, tiny_config(), epochs=1, seed=0)
        with pytest.raises(ValueError):
            train(data, [], tiny_config(), epochs=1, seed=0)
        with pytest.raises(ValueError):
            evaluate_loss([], init_network(tiny_config()), tiny_config())

    def test_training_reduces_loss_on_fixed_sample(self):
        # a handful of steps on one sample must reduce that sample's loss
        data = tiny_dataset(1, seed=22)
        config = tiny_config(n_outer=2)
        params, history = train(data, data, config, epochs=8, seed=2, lr=1e-2)
        assert history[-1].val_loss < history[0].val_loss


class TestEvaluateLoss:
    def test_mean_over_samples(self):
        data = tiny_dataset(1, seed=23)
        params = init_network(tiny_config(), rng_seed=1)
        single = evaluate_loss(data, params, tiny_config())
        doubled = evaluate_loss(data + data, params, tiny_config())
        assert doubled == pytest.approx(single, rel=1e-12)

    def test_matches_manual_forward(self):
        data = tiny_dataset(2, seed=24)
        config = tiny_config()
        params = init_network(config, rng_seed=2)
        manual = np.mean([
            loss_mse(forward_reconstruct(s, params, config).image, t)
            for s, t in data
        ])
        assert evaluate_loss(data, params, config) == pytest.approx(manual, rel=1e-12)
