"""Hand-written reverse-mode differentiation tests.

The oracle throughout is central finite differences of a scalar loss on the
real and imaginary channels of every input, evaluated through the same
forward routines the backward pass reverses.  Block-level tests check each
VJP in isolation (prox, Sherman-Morrison solve, full ADMM sweep, synthesis,
CG); whole-network tests pull a reconstruction loss back to the kernels and
the three log-weights, on solves that converge (reversed implicitly) and
on solves that stop short (reversed step by step).  All fixtures are checked to sit away from the
soft-threshold kinks so the subgradient convention never contaminates the
comparison.  The backward itself, which hands cotangents over as spectra and
skips those that reach no parameter, is also checked against the plain
spatial-handoff backward of the oracles module.
"""

import dataclasses

import numpy as np
import pytest

from ucdl import backprop, network
from ucdl.backprop import GradientSet, backward
from ucdl.csc import (
    AdmmConfig,
    CodeState,
    FilterBank,
    admm_step_backward,
    admm_step_traced,
    kernel_spectra,
    prox_backward,
    s_update_backward,
    s_update_traced,
    soft_threshold,
    spectra_to_kernel_grad,
    synthesis_backward,
)
from ucdl.data import PhantomSpec, synth_dataset
from ucdl.dc import CgSolution, CgTrace, NormalOperator, cg_backward, cg_solve
from ucdl.errors import NonFiniteValue, ShapeMismatch, TraceMismatch
from ucdl.network import (
    NetworkConfig,
    forward_reconstruct,
    init_network,
)
from ucdl.operators import make_coil_maps, make_mask, simulate_measurement
from ucdl.tensors import dft_forward, dft_inverse, norm2_sq

import oracles
from oracles import run_admm, spectra_of

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


def spectral(s_bar, n_spatial):
    """The cotangent of s_hat for a cotangent s_bar of s = F^{-1} s_hat."""
    return dft_forward(s_bar, ndim=n_spatial) / np.prod(s_bar.shape[-n_spatial:])


def spatial(x_hat_bar, n_spatial):
    """The cotangent of x for a cotangent x_hat_bar of x_hat = F x."""
    return np.prod(x_hat_bar.shape[-n_spatial:]) * dft_inverse(x_hat_bar, ndim=n_spatial)


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
# Closed-form s-update
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

        x_hat, spectra = spectra_of(x, bank)
        _, (s_hat, c) = s_update_traced(x_hat, u, z, spectra, gamma)
        n_spatial = len(kernel_shape)
        x_hat_bar, w_bar, d_bar, gamma_bar = s_update_backward(
            s_hat, c, spectra, gamma, spectral(weight, n_spatial)
        )
        x_bar = spatial(x_hat_bar, n_spatial)
        # w = u + z
        u_bar = z_bar = w_bar

        def loss(x_=x, u_=u, z_=z, bank_=bank, gamma_=gamma):
            x_hat_, spectra_ = spectra_of(x_, bank_)
            return real_weighted(weight, s_update_traced(x_hat_, u_, z_, spectra_, gamma_)[0])

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
        # at an ADMM fixed point u = s, so w_hat - s_hat = F z and c, the
        # synthesis residual over -gamma, are small next to s_hat and x_hat
        self.run_case(np.random.default_rng(25), (3, 5, 4), (3, 3), admm_steps=2000)


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

        def config(gamma_, tau_):
            # gamma and tau pin down the sweep; beta itself cancels out
            return AdmmConfig(lam=1.0 / gamma_, alpha=tau_, beta=1.0)

        def run(x_=x, u_=state.u, z_=state.z, bank_=bank, gamma_=gamma, tau_=tau):
            x_hat_, spectra_ = spectra_of(x_, bank_)
            st = CodeState(s=state.s, u=u_, z=z_)
            return admm_step_traced(x_hat_, st, spectra_, config(gamma_, tau_))

        new_state, trace = run()
        assert prox_kink_margin(trace.v, tau) > 1e-3

        def loss(**kw):
            new, _ = run(**kw)
            return (
                real_weighted(w_s, new.s)
                + real_weighted(w_u, new.u)
                + real_weighted(w_z, new.z)
            )

        _, spectra = spectra_of(x, bank)
        x_hat_bar, u_bar, z_bar, d_bar, gamma_bar, tau_bar = admm_step_backward(
            trace, spectra, config(gamma, tau), spectral(w_s, 2), w_u, w_z
        )
        x_bar = spatial(x_hat_bar, 2)
        assert_grad_close(numeric_grad(lambda a: loss(x_=a), x), x_bar)
        assert_grad_close(numeric_grad(lambda a: loss(u_=a), state.u), u_bar)
        assert_grad_close(numeric_grad(lambda a: loss(z_=a), state.z), z_bar)
        fd_kernels = numeric_grad(lambda k: loss(bank_=FilterBank(k)), bank.kernels)
        assert_grad_close(fd_kernels, spectra_to_kernel_grad(d_bar, (3, 3)))
        assert_grad_close(
            numeric_grad_scalar(lambda g: loss(gamma_=g), gamma), gamma_bar
        )
        assert_grad_close(numeric_grad_scalar(lambda t: loss(tau_=t), tau), tau_bar)

    def test_u_and_z_cotangents_are_independent_arrays(self):
        rng = np.random.default_rng(24)
        bank = random_bank(rng, 2, (3, 3))
        x = random_complex(rng, (4, 4))
        state = CodeState(*(random_complex(rng, (2, 4, 4)) for _ in range(3)))
        x_hat, spectra = spectra_of(x, bank)
        cfg = AdmmConfig(lam=1.0, alpha=0.1, beta=0.5)
        _, trace = admm_step_traced(x_hat, state, spectra, cfg)
        # with the outputs u and z read, and with only s read
        for u_bar in (random_complex(rng, (2, 4, 4)), None):
            z_bar = None if u_bar is None else random_complex(rng, (2, 4, 4))
            s_hat_bar = spectral(random_complex(rng, (2, 4, 4)), 2)
            _, u_prev_bar, z_prev_bar, *_ = admm_step_backward(
                trace, spectra, cfg, s_hat_bar, u_bar, z_bar
            )
            assert not np.shares_memory(u_prev_bar, z_prev_bar)
            before = z_prev_bar.copy()
            u_prev_bar += 1.0  # mutation must not leak into the other cotangent
            assert np.array_equal(z_prev_bar, before)

    def test_skipped_state_cotangents(self):
        # a sweep from a parameter-free state hands back no state cotangents,
        # and the rest of its output is unchanged
        rng = np.random.default_rng(26)
        bank = random_bank(rng, 2, (3, 3))
        x = random_complex(rng, (4, 4))
        state = CodeState(*(random_complex(rng, (2, 4, 4)) for _ in range(3)))
        x_hat, spectra = spectra_of(x, bank)
        cfg = AdmmConfig(lam=1.0, alpha=0.1, beta=0.5)
        _, trace = admm_step_traced(x_hat, state, spectra, cfg)
        s_hat_bar = spectral(random_complex(rng, (2, 4, 4)), 2)
        u_bar, z_bar = random_complex(rng, (2, 4, 4)), random_complex(rng, (2, 4, 4))
        inputs = (trace, spectra, cfg)
        full = admm_step_backward(*inputs, s_hat_bar.copy(), u_bar, z_bar)
        skipped = admm_step_backward(*inputs, s_hat_bar.copy(), u_bar, z_bar,
                                     need_state=False)
        assert skipped[1] is None and skipped[2] is None
        for a, b in zip(full[:1] + full[3:], skipped[:1] + skipped[3:]):
            np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# Dictionary synthesis
# ---------------------------------------------------------------------------

class TestSynthesisBackward:
    def run_case(self, rng, code_shape, kernel_shape):
        bank = random_bank(rng, code_shape[0], kernel_shape)
        s = random_complex(rng, code_shape)
        weight = random_complex(rng, code_shape[1:])

        def loss(s_=s, bank_=bank):
            return real_weighted(weight, oracles.synthesize(bank_, s_))

        spectra = kernel_spectra(bank, code_shape[1:])
        s_hat = dft_forward(s, ndim=len(kernel_shape))
        s_hat_bar, d_bar = synthesis_backward(spectra, s_hat, weight)
        s_bar = spatial(s_hat_bar, len(kernel_shape))
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

def make_instance(mode, image_shape, seed, n_outer, n_admm, n_cg, kernel_size=3,
                  scale=1.0, family="columns"):
    rng = np.random.default_rng(seed)
    coils = make_coil_maps(2, image_shape[:2])
    mask = make_mask(image_shape, accel=1.5, family=family, seed=seed + 1)
    target = scale * random_complex(rng, image_shape)
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


def check_network_gradients(sample, config, params, target, record=None, h=FD_STEP,
                            rel_tol=1e-5):
    """Finite differences against the backward; with a `record` type
    (CgSolution or CgTrace), every solve must have left one."""
    result = forward_reconstruct(sample, params, config, want_trace=True)
    assert record is None or all(type(outer.cg) is record for outer in result.trace.outer)
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
    # two coils with sum |S|^2 = 1 on a columns mask: even one CG step
    # converges, so these solves are reversed implicitly
    def test_single_outer_single_cg(self):
        sample, config, params, target = make_instance(
            "2d", (6, 6, 2), seed=65, n_outer=1, n_admm=1, n_cg=1
        )
        check_network_gradients(sample, config, params, target, CgSolution)

    def test_two_outer_deeper_cg(self):
        sample, config, params, target = make_instance(
            "2d", (6, 6, 2), seed=61, n_outer=2, n_admm=1, n_cg=3
        )
        check_network_gradients(sample, config, params, target, CgSolution)

    def test_two_admm_sweeps(self):
        sample, config, params, target = make_instance(
            "2d", (6, 6, 2), seed=62, n_outer=2, n_admm=2, n_cg=2
        )
        check_network_gradients(sample, config, params, target, CgSolution)

    def test_three_dim_mode(self):
        sample, config, params, target = make_instance(
            "3d", (6, 6, 4), seed=63, n_outer=1, n_admm=1, n_cg=2
        )
        check_network_gradients(sample, config, params, target, CgSolution)

    # on a points mask a few CG steps stop short of the solution, so the
    # solves keep their iterations and are reversed step by step
    @pytest.mark.parametrize("mode,image_shape,seed,n_outer,n_admm,n_cg", [
        ("2d", (6, 6, 2), 65, 1, 1, 1),
        ("2d", (6, 6, 2), 62, 2, 1, 3),
        ("2d", (6, 6, 2), 62, 2, 2, 2),
        ("3d", (6, 6, 4), 65, 2, 1, 3),
    ])
    def test_unconverged_solves(self, mode, image_shape, seed, n_outer, n_admm, n_cg):
        sample, config, params, target = make_instance(
            mode, image_shape, seed=seed, n_outer=n_outer, n_admm=n_admm, n_cg=n_cg,
            family="points",
        )
        check_network_gradients(sample, config, params, target, CgTrace)

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


def relative_error(got, want):
    return float(np.linalg.norm(np.asarray(got) - want) / np.linalg.norm(want))


def log_weight_grads(grads):
    return np.array([grads.d_log_lam, grads.d_log_alpha, grads.d_log_beta])


# the benchmark workloads' networks and data recipes: mode, image shape,
# coils, filters, kernel size, mask family
WORKLOAD_INSTANCES = {
    "fixture-epoch": ("3d", (32, 32, 8), 3, 8, 5, "columns"),
    "paper3d-train": ("3d", (48, 48, 16), 3, 16, 7, "columns"),
    "recon2d-points": ("2d", (32, 32, 8), 8, 96, 9, "points"),
}


class TestImplicitAgainstUnrolled:
    """At n_cg = 12 every solve of the workloads converges, and the implicit
    backward gives the unrolled one's gradients up to the forward's
    truncation."""

    @pytest.mark.parametrize("name", sorted(WORKLOAD_INSTANCES))
    def test_gradients_agree(self, monkeypatch, name):
        mode, shape, n_coils, n_filters, kernel_size, family = WORKLOAD_INSTANCES[name]
        coils = make_coil_maps(n_coils, shape[:2])
        [(sample, target)] = synth_dataset(PhantomSpec(image_shape=shape, rng_seed=17), 1,
                                           coils, mask_family=family, sigma=0.02, accel=4.0)
        config = NetworkConfig(mode=mode, n_filters=n_filters, kernel_size=kernel_size,
                               n_outer=4, n_admm=1, n_cg=12)
        params = dataclasses.replace(init_network(config, rng_seed=18),
                                     log_lam=float(np.log(0.8)),
                                     log_alpha=float(np.log(0.02)),
                                     log_beta=float(np.log(1.3)))
        result = forward_reconstruct(sample, params, config, want_trace=True)
        assert all(isinstance(outer.cg, CgSolution) for outer in result.trace.outer)
        image, d_image = result.image, 2.0 * (result.image - target)
        implicit = backward(result.trace, d_image)
        del result

        # the same forward, with every solve keeping its iterations
        monkeypatch.setattr(network, "solve_record", lambda cg, rhs, n_cg: cg.trace)
        unrolled_result = forward_reconstruct(sample, params, config, want_trace=True)
        assert all(isinstance(outer.cg, CgTrace) for outer in unrolled_result.trace.outer)
        assert np.array_equal(unrolled_result.image, image)
        unrolled = backward(unrolled_result.trace, d_image)
        assert relative_error(implicit.d_filters, unrolled.d_filters) <= 1e-8
        assert relative_error(log_weight_grads(implicit), log_weight_grads(unrolled)) <= 1e-8


# the two weight sets of test_network.TestSweepBuffers: (log lam, log alpha, log beta)
HANDOFF_WEIGHTS = [(0.0, 0.0, 0.0), (np.log(0.8), np.log(0.02), np.log(1.3))]


def handoff_grid(test):
    """Run `test` on both modes, J and T in {1, 2} and {1, 3}, and both weight sets."""
    test = pytest.mark.parametrize("mode", ["2d", "3d"])(test)
    test = pytest.mark.parametrize("n_admm", [1, 2])(test)
    test = pytest.mark.parametrize("n_outer", [1, 3])(test)
    return pytest.mark.parametrize("weights", HANDOFF_WEIGHTS, ids=["unit", "fitted"])(test)


class TestAgainstSpatialHandoff:
    """The backward hands the code cotangent over as a spectrum and skips
    what reaches no parameter; the spatial-handoff backward of the oracles
    computes everything.  Both give the same gradients up to roundoff, on
    the columns mask, where the 4-step solves converge and are reversed
    implicitly, and on the points mask, where they stop short and are
    reversed step by step."""

    @handoff_grid
    def test_gradients_match(self, mode, n_admm, n_outer, weights):
        self.check(mode, n_admm, n_outer, weights, "columns", CgSolution)

    @handoff_grid
    def test_unrolled_gradients_match(self, mode, n_admm, n_outer, weights):
        self.check(mode, n_admm, n_outer, weights, "points", CgTrace)

    def check(self, mode, n_admm, n_outer, weights, family, record):
        sample, config, params, target = make_instance(
            mode, (8, 8, 4), seed=81, n_outer=n_outer, n_admm=n_admm, n_cg=4, scale=4.0,
            family=family,
        )
        params = dataclasses.replace(params, log_lam=weights[0], log_alpha=weights[1],
                                     log_beta=weights[2])
        result = forward_reconstruct(sample, params, config, want_trace=True)
        assert all(type(outer.cg) is record for outer in result.trace.outer)
        passing = np.mean([np.abs(step.v.view(np.float64)) > step.tau
                           for outer in result.trace.outer for step in outer.admm])
        assert 0 < passing < 1
        d_image = 2.0 * (result.image - target)
        got = backward(result.trace, d_image)
        want = oracles.backward(result.trace, d_image)
        assert relative_error(got.d_filters, want.d_filters) <= 1e-12
        assert relative_error(log_weight_grads(got), log_weight_grads(want)) <= 1e-12


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


class TestNonFiniteCotangents:
    """A non-finite cotangent stops the backward in the first block that
    meets it, and the error names that block and its outer iteration."""

    def make_trace(self, n_admm=1):
        sample, config, params, target = make_instance(
            "2d", (6, 6, 2), seed=74, n_outer=3, n_admm=n_admm, n_cg=2
        )
        result = forward_reconstruct(sample, params, config, want_trace=True)
        return result.trace, 2.0 * (result.image - target)

    def test_nan_in_the_loss_cotangent(self):
        trace, d_image = self.make_trace()
        d_image[3, 2, 1] = np.nan
        with pytest.raises(NonFiniteValue,
                           match=r"^backward outer iteration 2: cg_backward: non-finite"):
            backward(trace, d_image)

    # (block with a poisoned output, which output, on which of its calls,
    # counted from 0 in the order backward makes them, J, where the error
    # is reported)
    @pytest.mark.parametrize("block,output,call,n_admm,where", [
        ("cg_backward", 0, 1, 1, "outer iteration 1: synthesis_backward"),
        ("synthesis_backward", 0, 2, 1, "outer iteration 0: admm_step_backward"),
        ("admm_step_backward", 1, 0, 2, "outer iteration 2: admm_step_backward"),
        ("admm_step_backward", 2, 1, 2, "outer iteration 1: admm_step_backward"),
    ])
    def test_nan_handed_on_by_a_block(self, monkeypatch, block, output, call, n_admm, where):
        trace, d_image = self.make_trace(n_admm)
        original = getattr(backprop, block)
        calls = []

        def poisoned(*args, **kwargs):
            out = original(*args, **kwargs)
            if len(calls) == call:
                out[output].flat[0] = np.nan
            calls.append(block)
            return out

        monkeypatch.setattr(backprop, block, poisoned)
        with pytest.raises(NonFiniteValue, match=f"^backward {where}: non-finite"):
            backward(trace, d_image)

    def test_each_block_rejects_a_nan_cotangent(self):
        trace, d_image = self.make_trace()
        outer = trace.outer[-1]
        operator = NormalOperator(trace.sample.coils, trace.sample.mask, trace.params.lam)
        bad = np.full(outer.approx.shape, np.nan + 0j)
        assert isinstance(outer.cg, CgSolution)
        with pytest.raises(NonFiniteValue):
            cg_backward(outer.cg, bad, operator)
        with pytest.raises(NonFiniteValue):
            cg_backward(cg_solve(outer.approx, operator, outer.approx, 2).trace, bad, operator)
        with pytest.raises(NonFiniteValue):
            synthesis_backward(trace.spectra, outer.admm[-1].s_hat, bad)
        step = outer.admm[-1]
        codes = np.full(step.v.shape, np.nan + 0j)
        params = trace.params
        inputs = (step, trace.spectra,
                  AdmmConfig(lam=params.lam, alpha=params.alpha, beta=params.beta))
        with pytest.raises(NonFiniteValue):
            admm_step_backward(*inputs, codes, None, None)
        with pytest.raises(NonFiniteValue):
            admm_step_backward(*inputs, None, codes, np.zeros_like(codes))
