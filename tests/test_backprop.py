"""Hand-written reverse-mode differentiation tests.

The oracle throughout is central finite differences of a scalar loss on the
real and imaginary channels of every input, evaluated through the same
forward routines the backward pass reverses.  Block-level tests check each
VJP in isolation (prox, Sherman-Morrison solve, full ADMM sweep, synthesis,
CG); whole-network tests pull a reconstruction loss back to the kernels and
the three log-weights.  All fixtures are checked to sit away from the
soft-threshold kinks so the subgradient convention never contaminates the
comparison.
"""

import dataclasses

import numpy as np
import pytest

from ucdl.backprop import (
    GradientSet,
    admm_step_backward,
    backward,
    cg_backward,
    prox_backward,
    s_update_backward,
    spectra_to_kernel_grad,
    synthesis_backward,
)
from ucdl.csc import (
    AdmmConfig,
    CodeState,
    FilterBank,
    admm_step_traced,
    dictionary_synthesis,
    s_update_traced,
    soft_threshold,
)
from ucdl.dc import NormalOperator, cg_solve
from ucdl.errors import NonFiniteValue, ShapeMismatch, TraceMismatch
from ucdl.network import (
    NetworkConfig,
    forward_reconstruct,
    init_network,
)
from ucdl.operators import make_coil_maps, make_mask, simulate_measurement
from ucdl.tensors import dft_forward, norm2_sq

from oracles import run_admm

FD_STEP = 1e-6


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_bank(rng, n_filters, kernel_shape):
    kernels = rng.standard_normal((n_filters,) + kernel_shape)
    kernels /= np.sqrt(
        (kernels**2).sum(axis=tuple(range(1, kernels.ndim)), keepdims=True)
    )
    return FilterBank(kernels)


def real_weighted(weight, value):
    """Loss functional Re<weight, value>; its cotangent on value is weight."""
    return float(np.real(np.vdot(weight, value)))


def numeric_grad(loss, arr, h=FD_STEP):
    """Central-difference gradient of a scalar loss over every component.

    For complex arrays the result follows the dL/dRe + i dL/dIm convention.
    """
    arr = np.asarray(arr)
    steps = (1.0, 1j) if np.iscomplexobj(arr) else (1.0,)
    grad = np.zeros(arr.shape, dtype=np.complex128 if np.iscomplexobj(arr) else np.float64)
    for idx in np.ndindex(*arr.shape):
        for step in steps:
            up = arr.copy()
            up[idx] += step * h
            dn = arr.copy()
            dn[idx] -= step * h
            grad[idx] += step * (loss(up) - loss(dn)) / (2 * h)
    return grad


def numeric_grad_scalar(loss, value, h=FD_STEP):
    return (loss(value + h) - loss(value - h)) / (2 * h)


def assert_grad_close(numeric, analytic, rel_tol=1e-5):
    """Componentwise relative error with an absolute floor of 1e-8.

    The floor keeps finite-difference roundoff on components whose true
    gradient is essentially zero from registering as relative failures.
    """
    numeric = np.asarray(numeric)
    analytic = np.asarray(analytic)
    denom = np.maximum(np.maximum(np.abs(numeric), np.abs(analytic)), 1e-8)
    rel = np.abs(numeric - analytic) / denom
    assert float(rel.max()) <= rel_tol, f"max relative gradient error {rel.max():.3e}"


def prox_kink_margin(values, tau):
    """Distance of every real/imag channel from the soft-threshold kink."""
    return min(
        float(np.abs(np.abs(values.real) - tau).min()),
        float(np.abs(np.abs(values.imag) - tau).min()),
    )


def trace_kink_margin(trace):
    margins = [
        prox_kink_margin(step.v, step.tau)
        for outer in trace.outer
        for step in outer.admm
    ]
    return min(margins) if margins else np.inf


# ---------------------------------------------------------------------------
# Soft-threshold prox
# ---------------------------------------------------------------------------

class TestProxBackward:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        v = 1.5 * random_complex(rng, (3, 4))
        tau = 0.4
        weight = random_complex(rng, (3, 4))
        assert prox_kink_margin(v, tau) > 1e-3

        v_bar, tau_bar = prox_backward(v, tau, weight)
        fd_v = numeric_grad(lambda a: real_weighted(weight, soft_threshold(a, tau)), v)
        fd_tau = numeric_grad_scalar(
            lambda t: real_weighted(weight, soft_threshold(v, t)), tau
        )
        assert_grad_close(fd_v, v_bar)
        assert_grad_close(fd_tau, tau_bar)

    def test_inactive_components_get_zero(self):
        rng = np.random.default_rng(12)
        v = 0.1 * random_complex(rng, (4, 4))
        v_bar, tau_bar = prox_backward(v, 5.0, random_complex(rng, (4, 4)))
        assert np.all(v_bar == 0)
        assert tau_bar == 0.0

    def test_mixed_activity_channels(self):
        # one channel active, the other clamped, in the same component
        v = np.array([2.0 + 0.1j])
        weight = np.array([1.0 + 1.0j])
        v_bar, tau_bar = prox_backward(v, 0.5, weight)
        assert v_bar[0] == 1.0 + 0.0j
        assert tau_bar == -1.0


# ---------------------------------------------------------------------------
# Sherman-Morrison s-update
# ---------------------------------------------------------------------------

class TestSUpdateBackward:
    def run_case(self, rng, image_shape, kernel_shape, admm_steps=0):
        """Random u and z, or with admm_steps > 0 the state that many ADMM
        sweeps on x reach from zero codes."""
        bank = random_bank(rng, 2, kernel_shape)
        gamma = 0.7
        x = random_complex(rng, image_shape)
        u = random_complex(rng, (2,) + image_shape)
        z = random_complex(rng, (2,) + image_shape)
        if admm_steps:
            config = AdmmConfig(lam=1.0, alpha=0.05, beta=gamma)
            state = run_admm(x, bank, config, n_steps=admm_steps)
            assert norm2_sq(state.u - state.s) < 1e-20 * norm2_sq(state.s)
            u, z = state.u, state.z
        weight = random_complex(rng, (2,) + image_shape)

        s, trace = s_update_traced(x, u, z, bank, gamma)
        x_bar, u_bar, z_bar, d_bar, gamma_bar = s_update_backward(trace, weight)

        def loss(x_=x, u_=u, z_=z, bank_=bank, gamma_=gamma):
            return real_weighted(weight, s_update_traced(x_, u_, z_, bank_, gamma_)[0])

        assert_grad_close(numeric_grad(lambda a: loss(x_=a), x), x_bar)
        assert_grad_close(numeric_grad(lambda a: loss(u_=a), u), u_bar)
        assert_grad_close(numeric_grad(lambda a: loss(z_=a), z), z_bar)
        fd_kernels = numeric_grad(
            lambda k: loss(bank_=FilterBank(k)), bank.kernels
        )
        assert_grad_close(fd_kernels, spectra_to_kernel_grad(d_bar, kernel_shape))
        fd_gamma = numeric_grad_scalar(lambda g: loss(gamma_=g), gamma)
        assert_grad_close(fd_gamma, gamma_bar)

    def test_plain_image(self):
        self.run_case(np.random.default_rng(21), (5, 4), (3, 3))

    def test_batched_frames(self):
        self.run_case(np.random.default_rng(22), (3, 5, 4), (3, 3))

    def test_three_dim_kernels(self):
        self.run_case(np.random.default_rng(23), (4, 4, 3), (3, 3, 3))

    def test_converged_admm_state(self):
        # at an ADMM fixed point u = s, so w_hat - s_hat = F z and the
        # synthesis residual e are small next to s_hat and x_hat
        self.run_case(np.random.default_rng(25), (3, 5, 4), (3, 3), admm_steps=2000)

    def test_u_and_z_cotangents_are_independent_arrays(self):
        rng = np.random.default_rng(24)
        bank = random_bank(rng, 2, (3, 3))
        x = random_complex(rng, (4, 4))
        u = random_complex(rng, (2, 4, 4))
        z = random_complex(rng, (2, 4, 4))
        _, trace = s_update_traced(x, u, z, bank, 0.5)
        _, u_bar, z_bar, _, _ = s_update_backward(trace, random_complex(rng, (2, 4, 4)))
        np.testing.assert_array_equal(u_bar, z_bar)
        u_bar += 1.0  # mutation must not leak into the other cotangent
        assert not np.array_equal(u_bar, z_bar)


# ---------------------------------------------------------------------------
# Full ADMM sweep
# ---------------------------------------------------------------------------

class TestAdmmStepBackward:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(33)
        bank = random_bank(rng, 2, (3, 3))
        x = random_complex(rng, (4, 4))
        state = CodeState(
            s=np.zeros((2, 4, 4), dtype=np.complex128),
            u=0.5 * random_complex(rng, (2, 4, 4)),
            z=0.5 * random_complex(rng, (2, 4, 4)),
        )
        gamma, tau = 0.8, 0.15
        w_s = random_complex(rng, (2, 4, 4))
        w_u = random_complex(rng, (2, 4, 4))
        w_z = random_complex(rng, (2, 4, 4))

        def run(x_=x, u_=state.u, z_=state.z, bank_=bank, gamma_=gamma, tau_=tau):
            # gamma and tau pin down the sweep; beta itself cancels out
            cfg = AdmmConfig(lam=1.0 / gamma_, alpha=tau_, beta=1.0)
            st = CodeState(s=state.s, u=u_, z=z_)
            new, trace = admm_step_traced(x_, st, bank_, cfg)
            return new, trace

        new_state, trace = run()
        assert prox_kink_margin(trace.v, tau) > 1e-3

        def loss(**kw):
            new, _ = run(**kw)
            return (
                real_weighted(w_s, new.s)
                + real_weighted(w_u, new.u)
                + real_weighted(w_z, new.z)
            )

        x_bar, u_bar, z_bar, d_bar, gamma_bar, tau_bar = admm_step_backward(
            trace, w_s, w_u, w_z
        )
        assert_grad_close(numeric_grad(lambda a: loss(x_=a), x), x_bar)
        assert_grad_close(numeric_grad(lambda a: loss(u_=a), state.u), u_bar)
        assert_grad_close(numeric_grad(lambda a: loss(z_=a), state.z), z_bar)
        fd_kernels = numeric_grad(lambda k: loss(bank_=FilterBank(k)), bank.kernels)
        assert_grad_close(fd_kernels, spectra_to_kernel_grad(d_bar, (3, 3)))
        assert_grad_close(
            numeric_grad_scalar(lambda g: loss(gamma_=g), gamma), gamma_bar
        )
        assert_grad_close(numeric_grad_scalar(lambda t: loss(tau_=t), tau), tau_bar)


# ---------------------------------------------------------------------------
# Dictionary synthesis
# ---------------------------------------------------------------------------

class TestSynthesisBackward:
    def run_case(self, rng, code_shape, kernel_shape):
        bank = random_bank(rng, code_shape[0], kernel_shape)
        s = random_complex(rng, code_shape)
        weight = random_complex(rng, code_shape[1:])
        spectra = None

        def loss(s_=s, bank_=bank):
            return real_weighted(weight, dictionary_synthesis(bank_, s_))

        from ucdl.csc import filter_spectra

        spectra = filter_spectra(bank, code_shape[-len(kernel_shape):])
        s_hat = dft_forward(s, ndim=len(kernel_shape))
        s_bar, d_bar = synthesis_backward(s_hat, spectra, weight)
        assert_grad_close(numeric_grad(lambda a: loss(s_=a), s), s_bar)
        fd_kernels = numeric_grad(lambda k: loss(bank_=FilterBank(k)), bank.kernels)
        assert_grad_close(fd_kernels, spectra_to_kernel_grad(d_bar, kernel_shape))

    def test_plain_codes(self):
        self.run_case(np.random.default_rng(41), (2, 5, 4), (3, 3))

    def test_batched_codes(self):
        self.run_case(np.random.default_rng(42), (2, 3, 4, 4), (3, 3))


# ---------------------------------------------------------------------------
# Truncated CG
# ---------------------------------------------------------------------------

class SpectrumOperator:
    """Hermitian positive-definite test operator with well-spread eigenvalues.

    Diagonal in the Fourier basis so that truncated CG stays genuinely
    truncated; the MRI normal operator has too few distinct eigenvalues for
    that on tiny grids.  Mirrors the H = (base) + lam I structure the lam
    accounting of the backward pass relies on.
    """

    def __init__(self, weights, lam):
        self.weights = weights
        self.lam = lam

    def __call__(self, x):
        from ucdl.tensors import dft_forward, dft_inverse

        mixed = dft_inverse(self.weights * dft_forward(x, ndim=x.ndim), ndim=x.ndim)
        return mixed + self.lam * x


class TestCgBackward:
    def make_system(self, rng, shape=(4, 4, 3), lam=0.7, accel=1.5):
        coils = make_coil_maps(2, shape[:2])
        mask = make_mask(shape, accel=accel, family="columns", seed=5)
        operator = NormalOperator(coils, mask, lam)
        frames_first = (shape[2], shape[0], shape[1])
        rhs = random_complex(rng, frames_first)
        x0 = random_complex(rng, frames_first)
        return coils, mask, operator, rhs, x0

    def test_truncated_matches_finite_differences(self):
        rng = np.random.default_rng(51)
        shape = (4, 4, 3)
        weights = rng.uniform(0.5, 2.5, size=shape)
        lam = 0.7
        operator = SpectrumOperator(weights, lam)
        rhs = random_complex(rng, shape)
        x0 = random_complex(rng, shape)
        weight = random_complex(rng, shape)

        result = cg_solve(rhs, operator, x0, 4)
        assert result.residuals[-1] > 1e-6  # still truncated, not converged
        rhs_bar, x0_bar, lam_bar = cg_backward(result.trace, weight, operator)

        def loss(rhs_=rhs, x0_=x0, lam_=lam):
            op = SpectrumOperator(weights, lam_)
            out = cg_solve(rhs_, op, x0_, 4)
            return real_weighted(weight, out.image)

        assert_grad_close(numeric_grad(lambda a: loss(rhs_=a), rhs), rhs_bar)
        assert_grad_close(numeric_grad(lambda a: loss(x0_=a), x0), x0_bar)
        assert_grad_close(numeric_grad_scalar(lambda v: loss(lam_=v), lam), lam_bar)

    def test_single_iteration(self):
        rng = np.random.default_rng(52)
        coils, mask, operator, rhs, x0 = self.make_system(rng)
        weight = random_complex(rng, rhs.shape)
        result = cg_solve(rhs, operator, x0, 1)
        rhs_bar, x0_bar, _ = cg_backward(result.trace, weight, operator)

        def loss(rhs_=rhs, x0_=x0):
            return real_weighted(weight, cg_solve(rhs_, operator, x0_, 1).image)

        assert_grad_close(numeric_grad(lambda a: loss(rhs_=a), rhs), rhs_bar)
        assert_grad_close(numeric_grad(lambda a: loss(x0_=a), x0), x0_bar)

    def test_converged_solve_forgets_warm_start(self):
        # once CG has fully converged, x solves H x = rhs, so the pullback
        # onto rhs must satisfy H rhs_bar = weight and x0 must drop out
        rng = np.random.default_rng(53)
        coils, mask, operator, rhs, x0 = self.make_system(
            rng, shape=(3, 3, 2), lam=1.1, accel=1.0
        )
        weight = random_complex(rng, rhs.shape)
        result = cg_solve(rhs, operator, x0, 40)
        assert result.residuals[-1] < 1e-12
        rhs_bar, x0_bar, _ = cg_backward(result.trace, weight, operator)
        scale = float(np.abs(weight).max())
        assert float(np.abs(operator(rhs_bar) - weight).max()) <= 1e-7 * scale
        assert float(np.abs(x0_bar).max()) <= 1e-7 * scale


# ---------------------------------------------------------------------------
# Whole network
# ---------------------------------------------------------------------------

def make_instance(mode, image_shape, seed, n_outer, n_admm, n_cg, kernel_size=3):
    rng = np.random.default_rng(seed)
    coils = make_coil_maps(2, image_shape[:2])
    mask = make_mask(image_shape, accel=1.5, family="columns", seed=seed + 1)
    target = random_complex(rng, image_shape)
    sample = simulate_measurement(target, coils, mask, sigma=0.01, rng_seed=seed + 2)
    config = NetworkConfig(
        mode=mode,
        n_filters=2,
        kernel_size=kernel_size,
        n_outer=n_outer,
        n_admm=n_admm,
        n_cg=n_cg,
    )
    params = dataclasses.replace(
        init_network(config, rng_seed=seed + 3),
        log_lam=float(np.log(0.8)),
        log_alpha=float(np.log(0.05)),
        log_beta=float(np.log(1.3)),
    )
    return sample, config, params, target


def recon_loss(sample, config, params, target):
    result = forward_reconstruct(sample, params, config)
    return norm2_sq(result.image - target)


def check_network_gradients(sample, config, params, target, h=FD_STEP, rel_tol=1e-5):
    result = forward_reconstruct(sample, params, config, want_trace=True)
    assert trace_kink_margin(result.trace) > 50 * h
    grads = backward(result.trace, 2.0 * (result.image - target))

    fd_kernels = numeric_grad(
        lambda k: recon_loss(
            sample, config, dataclasses.replace(params, filters=FilterBank(k)), target
        ),
        params.filters.kernels,
        h=h,
    )
    assert_grad_close(fd_kernels, grads.d_filters, rel_tol=rel_tol)
    for name, value in (
        ("log_lam", grads.d_log_lam),
        ("log_alpha", grads.d_log_alpha),
        ("log_beta", grads.d_log_beta),
    ):
        fd = numeric_grad_scalar(
            lambda v: recon_loss(
                sample, config, dataclasses.replace(params, **{name: v}), target
            ),
            getattr(params, name),
            h=h,
        )
        assert_grad_close(fd, value, rel_tol=rel_tol)
    return grads


class TestNetworkGradients:
    def test_single_outer_single_cg(self):
        sample, config, params, target = make_instance(
            "2d", (6, 6, 2), seed=65, n_outer=1, n_admm=1, n_cg=1
        )
        check_network_gradients(sample, config, params, target)

    def test_two_outer_deeper_cg(self):
        sample, config, params, target = make_instance(
            "2d", (6, 6, 2), seed=61, n_outer=2, n_admm=1, n_cg=3
        )
        check_network_gradients(sample, config, params, target)

    def test_two_admm_sweeps(self):
        sample, config, params, target = make_instance(
            "2d", (6, 6, 2), seed=62, n_outer=2, n_admm=2, n_cg=2
        )
        check_network_gradients(sample, config, params, target)

    def test_three_dim_mode(self):
        sample, config, params, target = make_instance(
            "3d", (6, 6, 4), seed=63, n_outer=1, n_admm=1, n_cg=2
        )
        check_network_gradients(sample, config, params, target)

    def test_gradients_are_nonvacuous(self):
        # guard against a silently inactive prox or a zero kernel pullback
        sample, config, params, target = make_instance(
            "2d", (6, 6, 2), seed=61, n_outer=2, n_admm=1, n_cg=3
        )
        result = forward_reconstruct(sample, params, config, want_trace=True)
        grads = backward(result.trace, 2.0 * (result.image - target))
        assert float(np.abs(grads.d_filters).min()) > 1e-4
        assert abs(grads.d_log_lam) > 1e-4
        assert abs(grads.d_log_alpha) > 1e-4
        assert abs(grads.d_log_beta) > 1e-4


class TestBackwardApi:
    def make_trace(self, n_outer=1):
        sample, config, params, target = make_instance(
            "2d", (6, 6, 2), seed=71, n_outer=n_outer, n_admm=1, n_cg=2
        )
        result = forward_reconstruct(sample, params, config, want_trace=True)
        return result, sample, config, params, target

    def test_zero_cotangent_gives_zero_gradients(self):
        result, sample, *_ = self.make_trace()
        grads = backward(result.trace, np.zeros(sample.image_shape, dtype=complex))
        assert np.all(grads.d_filters == 0)
        assert grads.d_log_lam == 0.0
        assert grads.d_log_alpha == 0.0
        assert grads.d_log_beta == 0.0

    def test_linear_in_the_cotangent(self):
        result, sample, *_ = self.make_trace()
        rng = np.random.default_rng(72)
        c1 = random_complex(rng, sample.image_shape)
        c2 = random_complex(rng, sample.image_shape)
        g1 = backward(result.trace, c1)
        g2 = backward(result.trace, c2)
        combo = backward(result.trace, 2.0 * c1 - 0.5 * c2)
        expect = 2.0 * g1.d_filters - 0.5 * g2.d_filters
        scale = float(np.abs(expect).max())
        assert float(np.abs(combo.d_filters - expect).max()) <= 1e-12 * scale
        assert combo.d_log_lam == pytest.approx(
            2.0 * g1.d_log_lam - 0.5 * g2.d_log_lam, rel=1e-12
        )
        assert combo.d_log_beta == pytest.approx(
            2.0 * g1.d_log_beta - 0.5 * g2.d_log_beta, rel=1e-12
        )

    def test_zero_depth_network_has_zero_gradients(self):
        result, sample, *_ = self.make_trace(n_outer=0)
        rng = np.random.default_rng(73)
        grads = backward(result.trace, random_complex(rng, sample.image_shape))
        assert np.all(grads.d_filters == 0)
        assert grads.d_log_lam == 0.0

    def test_rejects_outer_count_mismatch(self):
        result, *_ = self.make_trace()
        bad = dataclasses.replace(
            result.trace, config=dataclasses.replace(result.trace.config, n_outer=3)
        )
        with pytest.raises(TraceMismatch):
            backward(bad, np.zeros((6, 6, 2), dtype=complex))

    def test_rejects_admm_depth_mismatch(self):
        result, *_ = self.make_trace()
        bad = dataclasses.replace(
            result.trace, config=dataclasses.replace(result.trace.config, n_admm=2)
        )
        with pytest.raises(TraceMismatch):
            backward(bad, np.zeros((6, 6, 2), dtype=complex))

    def test_rejects_wrong_cotangent_shape(self):
        result, *_ = self.make_trace()
        with pytest.raises(ShapeMismatch):
            backward(result.trace, np.zeros((6, 6, 3), dtype=complex))

    def test_gradient_set_rejects_non_finite(self):
        with pytest.raises(NonFiniteValue):
            GradientSet(
                d_filters=np.array([[[np.nan]]]),
                d_log_lam=0.0,
                d_log_alpha=0.0,
                d_log_beta=0.0,
            )
