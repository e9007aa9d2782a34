"""Data-consistency block tests: CG against dense solves and closed forms."""

import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import oracles
from oracles import frames_first, output_cg_backward, output_cg_solve, synthesize
from ucdl import network
from ucdl.csc import CodeState, FilterBank
from ucdl.dc import (CONVERGED_RTOL, CgSolution, NormalOperator, cg_backward,
                     cg_solve, cg_to_tolerance, solve_record)
from ucdl.errors import NonFiniteValue, ShapeMismatch
from ucdl.network import NetworkConfig, NetworkParams, forward_reconstruct
from ucdl.operators import (
    CoilMaps,
    SamplingMask,
    adjoint_apply,
    forward_apply,
    make_coil_maps,
    make_mask,
    simulate_measurement,
)
from ucdl.tensors import norm2_sq

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from tracer import array_bytes  # noqa: E402


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def small_instance(rng, shape=(4, 4, 2), n_coils=2, accel=2.0, sigma=0.0):
    coils = make_coil_maps(n_coils, shape[:2])
    mask = make_mask(shape, accel=accel, seed=int(rng.integers(2**31)))
    x = random_complex(rng, shape)
    sample = simulate_measurement(x, coils, mask, sigma=sigma, rng_seed=0)
    return x, sample


def dense_normal_matrix(coils, mask, lam):
    """Assemble A^H A + lam I column by column from unit basis images in the
    public (N_x, N_y, N_t) layout."""
    shape = mask.shape
    n = int(np.prod(shape))
    mat = np.zeros((n, n), dtype=complex)
    for j in range(n):
        e = np.zeros(n, dtype=complex)
        e[j] = 1.0
        col = adjoint_apply(forward_apply(e.reshape(shape), coils, mask), coils, mask)
        mat[:, j] = col.ravel() + lam * e
    return mat


def identity_operator_instance(shape, lam):
    """H = (1 + lam) I on frames-first images of the public `shape`."""
    coils = CoilMaps(np.ones((1,) + shape[:2], dtype=complex))
    mask = SamplingMask(np.ones(shape, dtype=bool))
    return NormalOperator(coils, mask, lam)


def frames_first_shape(shape):
    return (shape[2], shape[0], shape[1])


def network_instance(rng, lam, **config):
    """2d-mode parameters with a random 2-filter 3x3 bank and weight lam."""
    kernels = rng.standard_normal((2, 3, 3))
    kernels /= np.sqrt((kernels**2).sum(axis=(1, 2), keepdims=True))
    params = NetworkParams(filters=FilterBank(kernels), log_lam=float(np.log(lam)))
    return params, NetworkConfig(mode="2d", n_filters=2, kernel_size=3, **config)


def forward_rhs(monkeypatch, sample, params, config):
    """Run the traced forward; return the right-hand side of every CG solve."""
    seen = []

    def spy(rhs, operator, x0, n_cg):
        seen.append(rhs)
        return cg_solve(rhs, operator, x0, n_cg)

    monkeypatch.setattr(network, "cg_solve", spy)
    result = forward_reconstruct(sample, params, config, want_trace=True)
    return seen, result


class TestConfig:
    def test_validation(self):
        rhs = np.ones((4, 4, 1), dtype=complex)
        with pytest.raises(ValueError):
            cg_solve(rhs, identity_operator_instance(rhs.shape, 1.0), rhs, n_cg=0)


class TestBuildRhs:
    """The forward's data-consistency right-hand side A^H y + lam * approx."""

    def test_zero_inputs(self, monkeypatch):
        rng = np.random.default_rng(0)
        _, sample = small_instance(rng, shape=(6, 6, 2))
        zero_y = sample.__class__(
            y=np.zeros_like(sample.y), mask=sample.mask, coils=sample.coils
        )
        params, config = network_instance(rng, 0.7, n_outer=2)
        seen, result = forward_rhs(monkeypatch, zero_y, params, config)
        assert len(seen) == 2
        assert not any(rhs.any() for rhs in seen)
        assert not result.image.any()

    def test_hand_assembled_single_coil(self, monkeypatch):
        # unit coil, full mask: A^H y is the orthonormal inverse DFT of y
        rng = np.random.default_rng(2)
        shape = (6, 6, 2)
        coils = CoilMaps(np.ones((1, 6, 6), dtype=complex))
        mask = SamplingMask(np.ones(shape, dtype=bool))
        x = random_complex(rng, shape)
        sample = simulate_measurement(x, coils, mask, sigma=0.0)
        lam = 0.3
        params, config = network_instance(rng, lam, n_outer=1, n_cg=2)
        seen, result = forward_rhs(monkeypatch, sample, params, config)
        want = frames_first(np.fft.ifft2(
            sample.y.reshape(shape), axes=(0, 1), norm="ortho"
        )) + lam * result.trace.outer[0].approx
        assert np.allclose(seen[0], want, atol=1e-13)

    def test_affine_in_approx(self, monkeypatch):
        rng = np.random.default_rng(3)
        _, sample = small_instance(rng, shape=(6, 6, 2))
        lam = 0.9
        params, config = network_instance(rng, lam, n_outer=3, n_cg=2)
        seen, result = forward_rhs(monkeypatch, sample, params, config)
        aty = frames_first(adjoint_apply(sample.y, sample.coils, sample.mask))
        assert len(seen) == 3
        for rhs, outer in zip(seen, result.trace.outer):
            assert outer.approx.any()
            assert np.array_equal(rhs, aty + lam * outer.approx)

    def test_shape_mismatch(self):
        # a right-hand side must match the warm start it is solved from
        rng = np.random.default_rng(5)
        _, sample = small_instance(rng)
        op = NormalOperator(sample.coils, sample.mask, 1.0)
        x0 = np.zeros(sample.image_shape, dtype=complex)
        with pytest.raises(ShapeMismatch):
            cg_solve(np.zeros((2, 2, 2), dtype=complex), op, x0, 3)

    def test_adjoint_applied_once(self, monkeypatch):
        rng = np.random.default_rng(4)
        _, sample = small_instance(rng, shape=(6, 6, 2))
        params, config = network_instance(rng, 0.5, n_outer=3, n_cg=2)
        calls = []

        def counting_adjoint(*args):
            calls.append(args)
            return adjoint_apply(*args)

        monkeypatch.setattr(network, "adjoint_apply", counting_adjoint)
        forward_reconstruct(sample, params, config)
        assert len(calls) == 1


class TestCgSolve:
    def test_identity_closed_form_one_iteration(self):
        rng = np.random.default_rng(5)
        shape = (4, 4, 2)
        lam = 0.8
        op = identity_operator_instance(shape, lam)
        rhs = random_complex(rng, frames_first_shape(shape))
        res = cg_solve(rhs, op, np.zeros_like(rhs), 1)
        assert np.max(np.abs(res.image - rhs / (1.0 + lam))) <= 1e-12

    def test_zero_rhs_zero_start(self):
        shape = (4, 4, 2)
        op = identity_operator_instance(shape, 0.5)
        rhs = np.zeros(frames_first_shape(shape), dtype=complex)
        res = cg_solve(rhs, op, np.zeros_like(rhs), 5)
        assert not res.image.any()

    @pytest.mark.parametrize("lam", [0.1, 1.0])
    def test_matches_dense_solve(self, lam):
        rng = np.random.default_rng(6)
        shape = (4, 4, 4)  # 64 unknowns
        coils = make_coil_maps(2, shape[:2])
        mask = make_mask(shape, accel=2.0, seed=9)
        op = NormalOperator(coils, mask, lam)
        rhs = random_complex(rng, shape)
        res = cg_solve(frames_first(rhs), op, np.zeros_like(frames_first(rhs)), 64)
        mat = dense_normal_matrix(coils, mask, lam)
        want = frames_first(np.linalg.solve(mat, rhs.ravel()).reshape(shape))
        rel = np.linalg.norm(res.image - want) / np.linalg.norm(want)
        assert rel <= 1e-8

    def test_residual_norms_nonincreasing(self):
        rng = np.random.default_rng(7)
        shape = (8, 8, 2)
        coils = make_coil_maps(2, shape[:2])
        mask = make_mask(shape, accel=2.5, seed=3)
        op = NormalOperator(coils, mask, 0.2)
        rhs = random_complex(rng, frames_first_shape(shape))
        res = cg_solve(rhs, op, random_complex(rng, rhs.shape), 20)
        resid = np.array(res.residuals)
        assert np.all(np.diff(resid) <= 1e-10 * resid[0])

    def test_exact_iteration_count_and_determinism(self):
        rng = np.random.default_rng(8)
        shape = (4, 4, 2)
        coils = make_coil_maps(2, shape[:2])
        mask = make_mask(shape, accel=2.0, seed=1)
        op = NormalOperator(coils, mask, 0.5)
        rhs = random_complex(rng, frames_first_shape(shape))
        x0 = random_complex(rng, rhs.shape)
        a = cg_solve(rhs, op, x0, 7)
        b = cg_solve(rhs, op, x0, 7)
        assert len(a.residuals) == 8  # initial plus one per iteration
        assert np.array_equal(a.image, b.image)

    def test_records_hold_each_iterations_inputs(self):
        rng = np.random.default_rng(9)
        shape = (4, 4, 2)
        op = NormalOperator(make_coil_maps(2, shape[:2]), make_mask(shape, seed=2), 0.5)
        rhs = random_complex(rng, frames_first_shape(shape))
        for n_cg in (1, 2, 5):
            result = cg_solve(rhs, op, np.zeros_like(rhs), n_cg)
            assert [f.name for f in fields(result.trace)] == ["x0", "iterations"]
            its = result.trace.iterations
            assert len(its) == n_cg
            assert [f.name for f in fields(its[0])] == ["r", "p", "q", "rho", "pi", "alpha"]
            assert all(getattr(it, f.name) is not None for it in its for f in fields(it))
            assert its[0].p is its[0].r
            for it, nxt in zip(its, its[1:]):
                assert np.array_equal(nxt.r, it.r - it.alpha * it.q)
            # x0, then r, p, q per iteration, with the first p being its r
            assert array_bytes(result.trace) == 3 * n_cg * rhs.nbytes

    def test_nonfinite_detection(self):
        shape = (4, 4, 1)

        class BadOp:
            lam = 1.0

            def __call__(self, x):
                out = x.copy()
                out[0, 0, 0] = np.nan
                return out

        rhs = np.ones(shape, dtype=complex)
        with pytest.raises(NonFiniteValue):
            cg_solve(rhs, BadOp(), np.zeros_like(rhs), 3)


def cg_case(family, n_cg, start, lam=0.6):
    """A 3-coil CG system on a column or points mask, with rhs, start and a
    cotangent of the solution."""
    rng = np.random.default_rng(n_cg)
    shape = (12, 10, 3)
    op = NormalOperator(make_coil_maps(3, shape[:2]),
                        make_mask(shape, accel=3.0, family=family, seed=4), lam)
    rhs = random_complex(rng, frames_first_shape(shape))
    x0 = {"zero": np.zeros_like(rhs), "warm": random_complex(rng, rhs.shape),
          "solved": random_complex(rng, rhs.shape)}[start]
    if start == "solved":
        rhs = op(x0)
    return rhs, op, x0, random_complex(rng, rhs.shape)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestAgainstOutputRecords:
    """CG that records each iteration's inputs gives the same bits as CG that
    records the next residual and beta (tests/oracles.py), forward and
    backward."""

    @pytest.mark.parametrize("need_x0", [True, False])
    @pytest.mark.parametrize("start", ["zero", "warm", "solved"])
    @pytest.mark.parametrize("n_cg", [1, 2, 5, 12])
    @pytest.mark.parametrize("family", ["columns", "points"])
    def test_bitwise_equal(self, family, n_cg, start, need_x0):
        rhs, op, x0, x_bar = cg_case(family, n_cg, start)
        got = cg_solve(rhs, op, x0, n_cg)
        image, residuals, trace = output_cg_solve(rhs, op, x0, n_cg)
        assert len(got.trace.iterations) == len(trace.iterations)
        assert len(trace.iterations) == (0 if start == "solved" else n_cg)
        assert same_bits(got.image, image)
        assert same_bits(got.residuals, residuals)
        rhs_bar, x0_bar, lam_bar = cg_backward(got.trace, x_bar, op, need_x0=need_x0)
        want_rhs_bar, want_x0_bar, want_lam_bar = output_cg_backward(
            trace, x_bar, op, need_x0=need_x0)
        assert same_bits(rhs_bar, want_rhs_bar)
        assert same_bits(lam_bar, want_lam_bar)
        if need_x0:
            assert same_bits(x0_bar, want_x0_bar)
        else:
            assert x0_bar is None is want_x0_bar


    @pytest.mark.parametrize("start", ["zero", "warm"])
    def test_oracle_replays_the_solution(self, start):
        rhs, op, x0, _ = cg_case("points", 5, start)
        result = cg_solve(rhs, op, x0, 5)
        assert same_bits(oracles.solution(result.trace), result.image)


def real_inner(a, b):
    return float(np.real(np.vdot(a, b)))


class TestImplicitBackward:
    """A converged solve keeps only its solution and is reversed by an
    adjoint solve that stops on its own residual."""

    @pytest.mark.parametrize("family", ["columns", "points"])
    def test_solves_to_its_tolerance(self, family):
        _, op, _, b = cg_case(family, 3, "zero")
        x, residuals = cg_to_tolerance(b, op, 200)
        assert residuals[0] == pytest.approx(np.linalg.norm(b), rel=1e-15)
        assert residuals[-1] <= CONVERGED_RTOL * residuals[0] < residuals[-2]
        assert np.linalg.norm(op(x) - b) <= 10 * CONVERGED_RTOL * residuals[0]

    def test_zero_right_hand_side_takes_no_step(self):
        _, op, _, b = cg_case("points", 3, "zero")
        x, residuals = cg_to_tolerance(np.zeros_like(b), op, 5)
        assert residuals == (0.0,) and not x.any()

    def test_cap_and_non_finite_values_raise(self):
        _, op, _, b = cg_case("points", 3, "zero")
        with pytest.raises(NonFiniteValue, match="after 2 iterations"):
            cg_to_tolerance(b, op, 2)
        b[0, 1, 2] = np.nan
        with pytest.raises(NonFiniteValue, match="^non-finite residual at adjoint CG start"):
            cg_to_tolerance(b, op, 50)

    def test_record_follows_the_final_residual(self):
        rhs, op, x0, _ = cg_case("points", 3, "warm")
        short = cg_solve(rhs, op, x0, 3)
        assert solve_record(short, rhs, 3) is short.trace
        long = cg_solve(rhs, op, x0, 80)
        assert long.residuals[-1] <= CONVERGED_RTOL * np.linalg.norm(rhs)
        record = solve_record(long, rhs, 80)
        assert type(record) is CgSolution and record.x is long.image and record.n_cg == 80

    @pytest.mark.parametrize("need_x0", [True, False])
    def test_vjp_of_the_exact_solve(self, need_x0):
        rhs, op, x0, x_bar = cg_case("points", 4, "warm")
        result = cg_solve(rhs, op, x0, 80)
        record = solve_record(result, rhs, 80)
        rhs_bar, x0_bar, lam_bar = cg_backward(record, x_bar, op, need_x0=need_x0)
        # H rhs_bar = x_bar, and the start drops out
        assert np.linalg.norm(op(rhs_bar) - x_bar) <= 1e-8 * np.linalg.norm(x_bar)
        if need_x0:
            assert x0_bar.shape == x0.shape and not x0_bar.any()
        else:
            assert x0_bar is None
        # lam_bar = d/dlam Re<x_bar, H(lam)^{-1} rhs> by central differences
        h = 1e-5

        def loss(lam):
            shifted = NormalOperator(op.coils, op.mask, lam)
            return real_inner(x_bar, cg_solve(rhs, shifted, x0, 80).image)

        fd = (loss(op.lam + h) - loss(op.lam - h)) / (2 * h)
        assert abs(lam_bar - fd) <= 1e-6 * abs(fd)
        # the unrolled VJP of the same solve agrees up to its truncation
        unrolled_rhs_bar, _, unrolled_lam_bar = cg_backward(result.trace, x_bar, op)
        assert (np.linalg.norm(rhs_bar - unrolled_rhs_bar)
                <= 1e-7 * np.linalg.norm(unrolled_rhs_bar))
        assert abs(lam_bar - unrolled_lam_bar) <= 1e-7 * abs(unrolled_lam_bar)


class TestDcStep:
    """The data-consistency step as the forward runs it."""

    def test_large_lambda_returns_synthesis(self):
        rng = np.random.default_rng(10)
        _, sample = small_instance(rng, shape=(8, 8, 2))
        params, config = network_instance(rng, 1e6, n_outer=1, n_admm=3, n_cg=30)
        result = forward_reconstruct(sample, params, config, want_trace=True)
        synth = result.trace.outer[0].approx
        rel = np.linalg.norm(frames_first(result.image) - synth) / np.linalg.norm(synth)
        assert rel <= 1e-4

    def test_decreases_quadratic_objective(self):
        rng = np.random.default_rng(11)
        _, sample = small_instance(rng, shape=(8, 8, 2))
        lam = 0.5
        params, config = network_instance(rng, lam, n_outer=1, n_admm=3, n_cg=12)
        result = forward_reconstruct(sample, params, config, want_trace=True)
        synth = np.moveaxis(result.trace.outer[0].approx, 0, -1)

        def objective(img):
            resid = forward_apply(img, sample.coils, sample.mask) - sample.y
            return norm2_sq(resid) / 2.0 + lam * norm2_sq(img - synth) / 2.0

        x0 = adjoint_apply(sample.y, sample.coils, sample.mask)
        assert objective(result.image) < objective(x0)

    def test_warm_start_at_solution_stays(self):
        rng = np.random.default_rng(12)
        shape = (4, 4, 2)
        lam = 0.7
        coils = CoilMaps(np.ones((1, 4, 4), dtype=complex))
        mask = SamplingMask(np.ones(shape, dtype=bool))
        x = random_complex(rng, shape)
        sample = simulate_measurement(x, coils, mask, sigma=0.0)
        kernels = np.zeros((1, 3, 3, 1))
        kernels[0, 1, 1, 0] = 1.0
        bank = FilterBank(kernels)
        s = random_complex(rng, (1,) + shape)
        state = CodeState(s=s, u=s.copy(), z=np.zeros_like(s))
        rhs = adjoint_apply(sample.y, coils, mask) + lam * synthesize(bank, state.s)
        rhs = frames_first(rhs)
        operator = NormalOperator(coils, mask, lam)
        exact = cg_solve(rhs, operator, np.zeros_like(rhs), 40).image
        out = cg_solve(rhs, operator, exact, 5).image
        assert np.max(np.abs(out - exact)) <= 1e-10
