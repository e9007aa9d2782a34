"""Unrolled network assembly tests: modes, determinism, checkpoints."""

import json
import weakref

import numpy as np
import pytest

import oracles
from oracles import frames_first_bank
from ucdl import dc, network
from ucdl.csc import AdmmConfig, CodeState, FilterBank
from ucdl.data import PhantomSpec, make_phantom
from ucdl.errors import NonFiniteValue, ShapeMismatch, ZeroFilter
from ucdl.network import (
    NetworkConfig,
    NetworkParams,
    forward_reconstruct,
    init_network,
    load_checkpoint,
    project_filters,
    save_checkpoint,
)
from ucdl.operators import (
    CoilMaps,
    SamplingMask,
    adjoint_apply,
    forward_apply,
    make_coil_maps,
    make_mask,
    simulate_measurement,
)
from ucdl.tensors import real_inner


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def measured_instance(rng, shape=(8, 8, 4), n_coils=2, accel=2.0, sigma=0.0):
    coils = make_coil_maps(n_coils, shape[:2])
    mask = make_mask(shape, accel=accel, seed=int(rng.integers(2**31)))
    x = random_complex(rng, shape)
    return x, simulate_measurement(x, coils, mask, sigma=sigma, rng_seed=5)


class TestConfig:
    def test_mode_defaults(self):
        c3 = NetworkConfig(mode="3d")
        assert (c3.n_filters, c3.kernel_size) == (16, 7)
        assert c3.kernel_shape == (7, 7, 7)
        c2 = NetworkConfig(mode="2d")
        assert (c2.n_filters, c2.kernel_size) == (96, 9)
        assert c2.kernel_shape == (9, 9)

    def test_paper_scale_depth_defaults(self):
        cfg = NetworkConfig()
        assert cfg.n_outer == 4
        assert cfg.n_cg == 12
        assert cfg.n_admm == 1
        assert cfg.train_filters

    def test_validation(self):
        with pytest.raises(ValueError):
            NetworkConfig(mode="4d")
        with pytest.raises(ValueError):
            NetworkConfig(n_outer=-1)
        with pytest.raises(ValueError):
            NetworkConfig(n_admm=0)
        with pytest.raises(ValueError):
            NetworkConfig(n_cg=0)

    def test_dict_roundtrip(self):
        cfg = NetworkConfig(mode="2d", n_filters=4, kernel_size=3, n_outer=2)
        assert NetworkConfig.from_dict(cfg.to_dict()) == cfg

    @pytest.mark.parametrize("key,value", [("bogus", 1), ("n_filters", "2"),
                                           ("kernel_size", 3.0), ("n_cg", True),
                                           ("train_filters", "false")])
    def test_from_dict_rejects_malformed_entries(self, key, value):
        data = {**NetworkConfig().to_dict(), key: value}
        with pytest.raises(ValueError, match=key):
            NetworkConfig.from_dict(data)


class TestInitAndProjection:
    def test_unit_norms_and_determinism(self):
        cfg = NetworkConfig(mode="3d", n_filters=4, kernel_size=3)
        a = init_network(cfg, rng_seed=3)
        b = init_network(cfg, rng_seed=3)
        assert np.array_equal(a.filters.kernels, b.filters.kernels)
        assert np.max(np.abs(a.filters.norms() - 1.0)) <= 1e-12
        assert a.lam == a.alpha == a.beta == 1.0

    def test_different_seeds_differ(self):
        cfg = NetworkConfig(mode="2d", n_filters=2, kernel_size=3)
        a = init_network(cfg, rng_seed=0)
        b = init_network(cfg, rng_seed=1)
        assert not np.array_equal(a.filters.kernels, b.filters.kernels)

    def test_projection_restores_direction(self):
        cfg = NetworkConfig(mode="2d", n_filters=2, kernel_size=3)
        params = init_network(cfg, rng_seed=7)
        scaled = NetworkParams(
            filters=FilterBank(7.0 * params.filters.kernels),
            log_lam=0.3, log_alpha=-0.2, log_beta=0.1,
        )
        proj = project_filters(scaled)
        assert np.max(np.abs(proj.filters.norms() - 1.0)) <= 1e-12
        assert np.allclose(proj.filters.kernels, params.filters.kernels, atol=1e-13)
        assert proj.log_lam == 0.3 and proj.log_alpha == -0.2 and proj.log_beta == 0.1

    def test_projection_idempotent(self):
        cfg = NetworkConfig(mode="3d", n_filters=2, kernel_size=3)
        params = init_network(cfg, rng_seed=1)
        again = project_filters(params)
        assert np.max(np.abs(again.filters.kernels - params.filters.kernels)) <= 1e-15

    def test_zero_filter_rejected(self):
        params = NetworkParams(filters=FilterBank(np.zeros((1, 3, 3))))
        with pytest.raises(ZeroFilter):
            project_filters(params)


class TestForward:
    def test_t0_returns_zero_filled(self):
        rng = np.random.default_rng(2)
        _, sample = measured_instance(rng)
        cfg = NetworkConfig(mode="3d", n_filters=2, kernel_size=3, n_outer=0)
        params = init_network(cfg, rng_seed=0)
        out = forward_reconstruct(sample, params, cfg)
        assert np.array_equal(
            out.image, adjoint_apply(sample.y, sample.coils, sample.mask)
        )
        assert out.trace is None

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        _, sample = measured_instance(rng)
        cfg = NetworkConfig(mode="3d", n_filters=2, kernel_size=3, n_outer=2, n_cg=4)
        params = init_network(cfg, rng_seed=0)
        a = forward_reconstruct(sample, params, cfg)
        b = forward_reconstruct(sample, params, cfg)
        assert np.array_equal(a.image, b.image)

    def test_trace_shape(self):
        rng = np.random.default_rng(4)
        _, sample = measured_instance(rng)
        cfg = NetworkConfig(mode="3d", n_filters=2, kernel_size=3, n_outer=3,
                            n_admm=2, n_cg=4)
        params = init_network(cfg, rng_seed=0)
        out = forward_reconstruct(sample, params, cfg, want_trace=True)
        assert len(out.trace.outer) == 3
        assert all(len(o.admm) == 2 for o in out.trace.outer)
        # two coils with sum |S|^2 = 1 on a columns mask: every solve converges
        # and keeps only its solution
        assert all(isinstance(o.cg, dc.CgSolution) for o in out.trace.outer)
        assert all(o.cg.x.shape == (4, 8, 8) and o.cg.n_cg == 4 for o in out.trace.outer)

    def test_mode_kernel_mismatch(self):
        rng = np.random.default_rng(5)
        _, sample = measured_instance(rng)
        cfg3 = NetworkConfig(mode="3d", n_filters=2, kernel_size=3, n_outer=1)
        params2d = init_network(
            NetworkConfig(mode="2d", n_filters=2, kernel_size=3), rng_seed=0
        )
        with pytest.raises(ShapeMismatch):
            forward_reconstruct(sample, params2d, cfg3)

    def test_kernel_too_large_for_frames(self):
        rng = np.random.default_rng(6)
        _, sample = measured_instance(rng, shape=(8, 8, 2))
        cfg = NetworkConfig(mode="3d", n_filters=2, kernel_size=3, n_outer=1)
        params = init_network(cfg, rng_seed=0)
        with pytest.raises(ShapeMismatch):
            forward_reconstruct(sample, params, cfg)

    def test_weights_whose_threshold_overflows_rejected(self):
        # exp(400) / exp(-400) is beyond the float range: tau = inf
        _, sample = measured_instance(np.random.default_rng(8))
        cfg = NetworkConfig(mode="3d", n_filters=2, kernel_size=3, n_outer=1)
        params = NetworkParams(filters=init_network(cfg).filters, log_alpha=400.0,
                               log_beta=-400.0)
        with pytest.raises(ValueError, match="^tau = alpha/beta must be a finite number > 0, "
                                             "got inf "):
            forward_reconstruct(sample, params, cfg)

    def test_2d_mode_runs(self):
        rng = np.random.default_rng(7)
        _, sample = measured_instance(rng, shape=(8, 8, 3))
        cfg = NetworkConfig(mode="2d", n_filters=3, kernel_size=3, n_outer=2, n_cg=4)
        params = init_network(cfg, rng_seed=0)
        out = forward_reconstruct(sample, params, cfg)
        assert out.image.shape == sample.image_shape
        assert out.code_state.s.shape == (3, 3, 8, 8)

    def test_3d_bank_keeps_its_axes(self):
        # codes are (K, N_t, N_x, N_y); the public bank, run on the codes
        # moved to (K, N_x, N_y, N_t), synthesises the forward's approximation
        rng = np.random.default_rng(9)
        _, sample = measured_instance(rng, shape=(8, 6, 4), sigma=0.01)
        cfg = NetworkConfig(mode="3d", n_filters=2, kernel_size=3, n_outer=2, n_cg=4)
        params = init_network(cfg, rng_seed=3)
        result = forward_reconstruct(sample, params, cfg, want_trace=True)
        assert result.image.shape == (8, 6, 4)
        assert result.code_state.s.shape == (2, 4, 8, 6)
        synth = oracles.synthesize(params.filters, np.moveaxis(result.code_state.s, 1, -1))
        approx = np.moveaxis(result.trace.outer[-1].approx, 0, -1)
        assert relative_error(approx, synth) <= 1e-13


# both modes at the initial weights and at trained-looking ones
SWEEP_CASES = [(mode, weights) for mode in ("2d", "3d")
               for weights in ((0.0, 0.0, 0.0), (np.log(0.8), np.log(0.02), np.log(1.3)))]


class TestSweepBuffers:
    """The sweeps write into buffers of their own: nothing the forward is
    handed or has traced is overwritten later."""

    @pytest.mark.parametrize("mode,weights", SWEEP_CASES)
    def test_inputs_and_traced_spectra_survive(self, mode, weights):
        rng = np.random.default_rng(15)
        _, sample = measured_instance(rng, shape=(8, 8, 4), sigma=0.01)
        cfg = NetworkConfig(mode=mode, n_filters=3, kernel_size=3, n_outer=2,
                            n_admm=2, n_cg=4)
        params = NetworkParams(init_network(cfg, rng_seed=1).filters, *weights)
        inputs = [sample.y, sample.coils.maps, sample.coils.conj_maps,
                  sample.mask.mask, sample.mask.weights, params.filters.kernels]
        before = [a.copy() for a in inputs]
        trace = forward_reconstruct(sample, params, cfg, want_trace=True).trace
        assert all(a.tobytes() == b.tobytes() for a, b in zip(inputs, before))
        # replay every sweep from the plain formulas, from the traced inputs
        admm = AdmmConfig(lam=params.lam, alpha=params.alpha, beta=params.beta)
        assert trace.admm == admm
        bank = frames_first_bank(params.filters)
        state, v_in = CodeState.zeros(3, trace.outer[0].approx.shape), None
        for outer, x in zip(trace.outer, oracles.outer_inputs(trace)):
            for step in outer.admm:
                state, s_hat, c = oracles.admm_step(x, state, bank, admm)
                # no record holds s_hat: it is re-formed from c and the input v
                recorded = oracles.recorded_s_hat(step, v_in, trace.spectra)
                assert recorded.tobytes() == s_hat.tobytes()
                v_in = step.v
                assert step.c.tobytes() == c.tobytes()
                assert step.v.tobytes() == state.v.tobytes()
            synth = oracles.synthesize(bank, state.s)
            assert relative_error(outer.approx, synth) <= 1e-13

    @pytest.mark.parametrize("mode,weights", SWEEP_CASES)
    def test_approx_is_synthesis_of_the_final_codes(self, mode, weights):
        rng = np.random.default_rng(16)
        _, sample = measured_instance(rng, shape=(8, 8, 4), sigma=0.01)
        cfg = NetworkConfig(mode=mode, n_filters=3, kernel_size=3, n_outer=3, n_cg=4)
        params = NetworkParams(init_network(cfg, rng_seed=2).filters, *weights)
        result = forward_reconstruct(sample, params, cfg, want_trace=True)
        synth = oracles.synthesize(frames_first_bank(params.filters), result.code_state.s)
        assert relative_error(result.trace.outer[-1].approx, synth) <= 1e-13


class TestIterationLifetime:
    """Nothing of outer iteration t but its traced record outlives it: its
    sweep arrays and its solve's start residual are freed before iteration
    t+1's first sweep allocates."""

    def run(self, monkeypatch, want_trace):
        """A 3-outer-iteration forward with J = 2 on a mask where every
        solve converges.  Returns the result, per iteration t+1 >= 1 how
        many of the arrays iteration t's sweeps recorded were still alive at
        its first sweep, of how many, and each solve's image."""
        rng = np.random.default_rng(4)
        _, sample = measured_instance(rng)
        cfg = NetworkConfig(mode="3d", n_filters=2, kernel_size=3, n_outer=3,
                            n_admm=2, n_cg=4)
        sweep_refs, cg_refs, alive, solutions = [], [], [], []
        admm_step, solve = network.admm_step_traced, network.cg_solve
        n_sweeps = iter(range(cfg.n_outer * cfg.n_admm))

        def watched_step(*args):
            if next(n_sweeps) % cfg.n_admm == 0 and cg_refs:
                alive.append({"sweep": sum(r() is not None for r in sweep_refs),
                              "recorded": len(sweep_refs),
                              "cg": sum(r() is not None for r in cg_refs)})
                sweep_refs.clear()
                cg_refs.clear()
            state, step = admm_step(*args)
            # an untraced record holds no v
            sweep_refs.extend(weakref.ref(a) for a in (step.c, step.v) if a is not None)
            return state, step

        def watched_solve(*args):
            result = solve(*args)
            solutions.append(result.image)
            cg_refs.append(weakref.ref(result.trace.r0))
            return result

        monkeypatch.setattr(network, "admm_step_traced", watched_step)
        monkeypatch.setattr(network, "cg_solve", watched_solve)
        result = forward_reconstruct(sample, init_network(cfg, rng_seed=0), cfg,
                                     want_trace=want_trace)
        assert len(alive) == cfg.n_outer - 1
        return result, alive, solutions

    def test_untraced_keeps_nothing(self, monkeypatch):
        _, alive, _ = self.run(monkeypatch, want_trace=False)
        # each sweep recorded its c alone
        assert alive == [{"sweep": 0, "recorded": 2, "cg": 0}] * 2

    def test_traced_keeps_only_the_solution(self, monkeypatch):
        result, alive, solutions = self.run(monkeypatch, want_trace=True)
        # the record keeps every array both sweeps recorded: c and v of each
        assert alive == [{"sweep": 4, "recorded": 4, "cg": 0}] * 2
        assert all(isinstance(o.cg, dc.CgSolution) for o in result.trace.outer)
        assert all(o.cg.x is x for o, x in zip(result.trace.outer, solutions))

    @pytest.mark.parametrize("want_trace", [False, True])
    def test_one_call_per_outer_iteration(self, monkeypatch, want_trace):
        rng = np.random.default_rng(5)
        _, sample = measured_instance(rng)
        cfg = NetworkConfig(mode="2d", n_filters=2, kernel_size=3, n_outer=3, n_cg=4)
        calls = []
        original = network.outer_iteration

        def counted(*args):
            calls.append(len(calls))
            return original(*args)

        monkeypatch.setattr(network, "outer_iteration", counted)
        result = forward_reconstruct(sample, init_network(cfg, rng_seed=0), cfg,
                                     want_trace=want_trace)
        assert len(calls) == cfg.n_outer
        if want_trace:
            assert len(result.trace.outer) == cfg.n_outer


class TestReadOnlyTrace:
    """A traced forward records read-only arrays, so a VJP that wrote into
    the trace would raise instead of changing what a second backward reads;
    its output image stays the caller's own."""

    @pytest.mark.parametrize("n_cg,kind", [(4, dc.CgSolution), (1, dc.CgTrace)])
    def test_every_recorded_array_is_read_only(self, n_cg, kind):
        rng = np.random.default_rng(21)
        _, sample = measured_instance(rng)
        cfg = NetworkConfig(mode="3d", n_filters=2, kernel_size=3, n_outer=2,
                            n_admm=2, n_cg=n_cg)
        trace = forward_reconstruct(sample, init_network(cfg, rng_seed=0), cfg,
                                    want_trace=True).trace
        assert all(isinstance(outer.cg, kind) for outer in trace.outer)
        for name, a in oracles.recorded_arrays(trace):
            assert not a.flags.writeable, name
            with pytest.raises(ValueError):
                a *= 1.0

    @pytest.mark.parametrize("n_frames", [1, 4])
    @pytest.mark.parametrize("n_cg", [1, 4])
    def test_output_image_is_writable_and_its_own(self, n_frames, n_cg):
        # with one frame the public transpose of the recorded x is a view of it
        rng = np.random.default_rng(22)
        _, sample = measured_instance(rng, shape=(8, 8, n_frames))
        cfg = NetworkConfig(mode="2d", n_filters=2, kernel_size=3, n_outer=2, n_cg=n_cg)
        params = init_network(cfg, rng_seed=0)
        result = forward_reconstruct(sample, params, cfg, want_trace=True)
        image = result.image
        assert image.flags.writeable and image.flags.c_contiguous
        assert not any(np.shares_memory(image, a)
                       for _, a in oracles.recorded_arrays(result.trace))
        last = oracles.solution(result.trace.outer[-1].cg,
                                dc.NormalOperator(sample.coils, sample.mask, params.lam))
        assert image.tobytes() == np.moveaxis(last, 0, -1).copy().tobytes()


class TestForwardMemory:
    """Each sweep writes its new state into the buffers of the state it
    replaces, so a forward holds, beyond what it records, the code state, the
    sweep's scratch and little else.  K-map stacks (K, N_t, N_x, N_y)
    dominate the images here, and the bounds are in K-maps: the traced
    forward peaks about 1.4 of them above its trace at every J (its state's
    v is its record), the untraced one about 3.6 in all, and 2.3 at the
    recon2d-points shape, where the images weigh less beside the codes s
    and v.  Fresh buffers for the sweep's s or s_hat, or an input state kept
    alive through the sweeps, break the bounds; at the recon2d-points shape,
    so does a fresh v."""

    n_filters = 32

    def instance(self, n_admm, n_outer=3):
        rng = np.random.default_rng(93)
        _, sample = measured_instance(rng, shape=(16, 16, 8), accel=1.5, sigma=0.01)
        cfg = NetworkConfig(mode="3d", n_filters=self.n_filters, kernel_size=3,
                            n_outer=n_outer, n_admm=n_admm, n_cg=6)
        kmap = self.n_filters * np.prod(sample.image_shape) * np.dtype(np.complex128).itemsize
        return sample, cfg, init_network(cfg, rng_seed=0), kmap

    @pytest.mark.parametrize("n_admm", [1, 2])
    def test_traced_peak_above_its_trace(self, n_admm):
        sample, cfg, params, kmap = self.instance(n_admm)
        trace = forward_reconstruct(sample, params, cfg, want_trace=True).trace
        trace_bytes = sum(a.nbytes for _, a in oracles.recorded_arrays(trace))
        del trace
        peak = oracles.traced_peak(lambda: forward_reconstruct(sample, params, cfg,
                                                               want_trace=True))
        assert peak - trace_bytes <= 2.5 * kmap

    def test_trace_size(self):
        # T = 4, J = 1: d and each sweep's v (5 K-maps), and c, approx and x
        # of each outer iteration, 1/32 K-map each (5.39 in all); no s_hat,
        # which each sweep's VJP re-forms from c and the input v
        sample, cfg, params, kmap = self.instance(1, n_outer=4)
        trace = forward_reconstruct(sample, params, cfg, want_trace=True).trace
        size = sum(a.nbytes for _, a in oracles.recorded_arrays(trace))
        assert size <= 5.5 * kmap, size / kmap

    def test_untraced_peak(self):
        sample, cfg, params, kmap = self.instance(1)
        peak = oracles.traced_peak(lambda: forward_reconstruct(sample, params, cfg))
        assert peak <= 8.5 * kmap

    def test_untraced_peak_at_the_recon2d_shape(self):
        # 96 filters of 9^2 on 32x32x8 with 8 coils: the images weigh little
        # beside the code state s and v, whose buffers the sweeps reuse
        sample = network_sample((32, 32, 8), 8, "points")
        cfg = NetworkConfig(mode="2d")
        params = init_network(cfg, rng_seed=0)
        kmap = cfg.n_filters * np.prod(sample.image_shape) * np.dtype(np.complex128).itemsize
        peak = oracles.traced_peak(lambda: forward_reconstruct(sample, params, cfg))
        assert peak <= 2.6 * kmap, peak / kmap


def network_sample(shape, n_coils, family):
    """A phantom measured on `family`'s mask at 4x, with noise."""
    truth = make_phantom(PhantomSpec(image_shape=shape, rng_seed=0))
    mask = make_mask(shape, accel=4.0, family=family, seed=1)
    return simulate_measurement(truth, make_coil_maps(n_coils, shape[:2]), mask,
                                sigma=0.01, rng_seed=2)


# (image shape, coils, mask family, network): the paper3d, fixture and
# recon2d-points workloads' networks, an unconverged one, J = 3, one frame
UNTRACED_CASES = {
    "paper3d": ((48, 48, 16), 3, "columns", dict(mode="3d")),
    "fixture": ((32, 32, 8), 3, "columns", dict(mode="3d", n_filters=8, kernel_size=5)),
    "recon2d": ((32, 32, 8), 8, "points", dict(mode="2d")),
    "unconverged": ((24, 24, 4), 3, "points", dict(mode="2d", n_filters=12, kernel_size=5,
                                                   n_outer=3, n_admm=2, n_cg=3)),
    "j3": ((24, 24, 8), 3, "columns", dict(mode="3d", n_filters=8, kernel_size=5,
                                           n_outer=3, n_admm=3)),
    "one_frame": ((24, 24, 1), 3, "columns", dict(mode="2d", n_filters=8, kernel_size=5,
                                                  n_outer=3, n_admm=2, n_cg=5)),
}


class TestUntracedForward:
    """An untraced forward runs its sweeps in the code state's own buffers and
    returns the traced forward's image and code state bit for bit."""

    @pytest.mark.parametrize("case", sorted(UNTRACED_CASES))
    def test_same_bits_as_the_traced_forward(self, case):
        shape, n_coils, family, settings = UNTRACED_CASES[case]
        sample = network_sample(shape, n_coils, family)
        cfg = NetworkConfig(**settings)
        params = NetworkParams(init_network(cfg, rng_seed=0).filters,
                               log_alpha=float(np.log(0.05)))
        untraced = forward_reconstruct(sample, params, cfg)
        traced = forward_reconstruct(sample, params, cfg, want_trace=True)
        assert untraced.trace is None
        assert untraced.image.tobytes() == traced.image.tobytes()
        for name in ("s", "v"):
            got, want = getattr(untraced.code_state, name), getattr(traced.code_state, name)
            assert got.tobytes() == want.tobytes(), name


def relative_error(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


class TestCrossModeConsistency:
    def test_single_frame_modes_agree(self):
        rng = np.random.default_rng(8)
        _, sample = measured_instance(rng, shape=(8, 8, 1), accel=2.0)
        cfg2 = NetworkConfig(mode="2d", n_filters=3, kernel_size=3, n_outer=3, n_cg=6)
        params2 = init_network(cfg2, rng_seed=4)
        # temporally flat 3D kernels carrying the same spatial values
        kernels3 = params2.filters.kernels[:, :, :, np.newaxis]
        params3 = NetworkParams(
            filters=FilterBank(kernels3),
            log_lam=params2.log_lam,
            log_alpha=params2.log_alpha,
            log_beta=params2.log_beta,
        )
        cfg3 = NetworkConfig(mode="3d", n_filters=3, kernel_size=3, n_outer=3, n_cg=6)
        out2 = forward_reconstruct(sample, params2, cfg2)
        out3 = forward_reconstruct(sample, params3, cfg3)
        assert np.max(np.abs(out2.image - out3.image)) <= 1e-10


class TestSolverBehavior:
    def build_representable_instance(self, seed=11, shape=(8, 8, 4), n_filters=2):
        rng = np.random.default_rng(seed)
        cfg = NetworkConfig(mode="3d", n_filters=n_filters, kernel_size=3,
                            n_outer=1, n_cg=8)
        params = init_network(cfg, rng_seed=seed)
        codes = np.zeros((n_filters,) + shape, dtype=complex)
        spikes = rng.integers(0, np.prod(shape), size=6)
        for k in range(n_filters):
            flat = codes[k].ravel()
            flat[spikes] = random_complex(rng, spikes.shape)
        x_truth = oracles.synthesize(params.filters, codes)
        coils = CoilMaps(np.ones((1,) + shape[:2], dtype=complex))
        mask = SamplingMask(np.ones(shape, dtype=bool))
        sample = simulate_measurement(x_truth, coils, mask, sigma=0.0)
        return x_truth, sample, params, cfg

    def test_nrmse_decreases_with_depth(self):
        x_truth, sample, params, cfg = self.build_representable_instance()
        params = NetworkParams(filters=params.filters, log_lam=0.0,
                               log_alpha=np.log(1e-3), log_beta=0.0)
        errors = []
        for depth in (1, 2, 4):
            out = forward_reconstruct(
                sample, params, NetworkConfig(**{**cfg.to_dict(), "n_outer": depth})
            )
            errors.append(
                np.linalg.norm(out.image - x_truth) / np.linalg.norm(x_truth)
            )
        assert errors[0] > errors[1] > errors[2]

    def test_objective_nonincreasing_when_depth_doubles(self):
        rng = np.random.default_rng(13)
        _, sample = measured_instance(rng, shape=(8, 8, 4), accel=2.0, sigma=0.01)
        base = NetworkConfig(mode="3d", n_filters=2, kernel_size=3, n_outer=1,
                             n_admm=2, n_cg=8)
        params = init_network(base, rng_seed=2)
        params = NetworkParams(filters=params.filters, log_lam=0.0,
                               log_alpha=np.log(0.05), log_beta=0.0)

        def objective(result):
            resid = forward_apply(result.image, sample.coils, sample.mask) - sample.y
            tau = AdmmConfig(lam=params.lam, alpha=params.alpha, beta=params.beta).threshold
            u, _ = oracles.prox_parts(result.code_state.v, tau)
            synth = oracles.synthesize(frames_first_bank(params.filters), u)
            err = result.image - np.moveaxis(synth, 0, -1)
            l1 = np.abs(u.real).sum() + np.abs(u.imag).sum()
            return (
                0.5 * real_inner(resid, resid)
                + 0.5 * params.lam * real_inner(err, err)
                + params.alpha * l1
            )

        values = []
        for depth in (1, 2, 4, 8):
            cfg = NetworkConfig(**{**base.to_dict(), "n_outer": depth})
            values.append(objective(forward_reconstruct(sample, params, cfg)))
        assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))


class TestForwardFailures:
    """A non-finite value stops the forward in CG, and the error names the
    outer iteration and the CG step where it showed."""

    def run(self, monkeypatch, module, name, call, part=lambda out: out):
        """Run a 2-outer-iteration forward whose `call`-th call (from 0) of
        module.name returns an output with a NaN in the array `part(output)`."""
        rng = np.random.default_rng(17)
        _, sample = measured_instance(rng, shape=(8, 8, 2), sigma=0.01)
        cfg = NetworkConfig(mode="2d", n_filters=2, kernel_size=3, n_outer=2, n_cg=3)
        original = getattr(module, name)
        calls = []

        def poisoned(*args, **kwargs):
            out = original(*args, **kwargs)
            if len(calls) == call:
                part(out).flat[0] = np.nan
            calls.append(name)
            return out

        monkeypatch.setattr(module, name, poisoned)
        forward_reconstruct(sample, init_network(cfg, rng_seed=1), cfg)

    # per outer iteration: the start residual, then one call per CG step
    @pytest.mark.parametrize("call,where", [
        (0, "outer iteration 0: cg_solve: non-finite residual at CG start"),
        (2, "outer iteration 0: cg_solve: non-finite operator output at CG iteration 1"),
        (4, "outer iteration 1: cg_solve: non-finite residual at CG start"),
        (7, "outer iteration 1: cg_solve: non-finite operator output at CG iteration 2"),
    ])
    def test_nan_from_the_normal_operator(self, monkeypatch, call, where):
        with pytest.raises(NonFiniteValue, match=f"^{where}$"):
            self.run(monkeypatch, dc, "normal_apply", call)

    @pytest.mark.parametrize("call", [0, 1])
    def test_nan_from_sparse_coding_shows_at_the_next_cg_start(self, monkeypatch, call):
        with pytest.raises(NonFiniteValue, match=f"^outer iteration {call}: cg_solve: "
                                                 "non-finite residual at CG start$"):
            # the sweep's record c, from which the synthesis is formed
            self.run(monkeypatch, network, "admm_step_traced", call, lambda out: out[1].c)


class TestCheckpoint:
    def test_roundtrip_bitexact(self, tmp_path):
        cfg = NetworkConfig(mode="3d", n_filters=3, kernel_size=3, n_outer=2)
        params = init_network(cfg, rng_seed=9)
        params = NetworkParams(filters=params.filters, log_lam=0.12,
                               log_alpha=-1.5, log_beta=0.7)
        save_checkpoint(tmp_path / "ck", params, cfg)
        back_params, back_cfg = load_checkpoint(tmp_path / "ck")
        assert back_cfg == cfg
        assert np.array_equal(back_params.filters.kernels, params.filters.kernels)
        assert back_params.log_lam == params.log_lam
        assert back_params.log_alpha == params.log_alpha
        assert back_params.log_beta == params.log_beta

    @pytest.mark.parametrize("field,value", [("n_filters", 16), ("kernel_size", 7),
                                             ("mode", "2d")])
    def test_manifest_disagreeing_with_kernels_rejected(self, tmp_path, field, value):
        cfg = NetworkConfig(mode="3d", n_filters=2, kernel_size=3)
        save_checkpoint(tmp_path / "ck", init_network(cfg, rng_seed=1), cfg)
        manifest_path = tmp_path / "ck" / "checkpoint.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["config"][field] = value
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ShapeMismatch):
            load_checkpoint(tmp_path / "ck")
