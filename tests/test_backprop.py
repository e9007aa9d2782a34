"""Hand-written reverse-mode differentiation tests.

The oracle throughout is central finite differences of a scalar loss on the
real and imaginary channels of every input, evaluated through the same
forward routines the backward pass reverses.  Block-level tests check each
VJP in isolation (the prox, through the sweep's VJP, Sherman-Morrison solve,
full ADMM sweep, synthesis, CG); whole-network tests pull a reconstruction loss back to the kernels and
the three log-weights, on solves that converge (reversed implicitly) and
on solves that stop short (reversed step by step).  All fixtures are checked to sit away from the
soft-threshold kinks so the subgradient convention never contaminates the
comparison.  The backward itself, which hands cotangents over as spectra and
skips those that reach no parameter, is also checked against the plain
spatial-handoff backward of the oracles module.
"""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ucdl import backprop, csc, network
from ucdl.backprop import GradientSet, backward
from ucdl.csc import (
    AdmmConfig,
    CodeState,
    FilterBank,
    admm_step_backward,
    admm_step_traced,
    kernel_spectra,
    spectra_to_kernel_grad,
    synthesis_backward,
)
from ucdl.data import PhantomSpec, synth_dataset
from ucdl.dc import CgSolution, CgTrace, NormalOperator, cg_backward, cg_solve
from ucdl.errors import NonFiniteValue, ShapeMismatch
from ucdl.network import (
    NetworkConfig,
    forward_reconstruct,
    init_network,
)
from ucdl.operators import make_coil_maps, make_mask, simulate_measurement
from ucdl.tensors import dft_forward, dft_inverse, real_inner
from ucdl.training import AdamState, loss_mse_grad, train_step

import oracles
from oracles import (kernel_accumulator, prox_parts, run_admm, s_update_sweep, soft_threshold,
                     spectra_of, traced_peak)

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

def prox_through_sweep(v, tau, u_bar):
    """The soft threshold's VJP as admm_step_backward runs it, beside the oracle's.

    Each channel pair of v is the input of its own map in a sweep on a 1x1
    image with zero kernels, whose DFTs are exact: its s is w = soft(v) -
    clip(v) and its new v is s + clip(v).  A cotangent u_bar of that new v
    comes back as w_bar = u_bar, so the VJP returns v_bar = u_bar where
    |v| > tau, u_bar - w_bar = 0 elsewhere, and tau_bar = -<sign v, v_bar>:
    the soft threshold's VJP.  Returns the package's and the oracle's
    (v_bar, tau_bar).
    """
    maps = np.array(v, dtype=np.complex128).reshape(-1, 1, 1)
    bank = FilterBank(np.zeros((len(maps), 1, 1)))
    x_hat, spectra = spectra_of(np.zeros((1, 1), dtype=np.complex128), bank)
    config = AdmmConfig(lam=1.0, alpha=0.1, beta=0.5)
    _, step = admm_step_traced(x_hat, None, spectra, config)
    step = dataclasses.replace(step, tau=tau)
    _, v_bar, _, tau_bar = admm_step_backward(
        step, maps, spectra, config, None,
        np.array(u_bar, dtype=np.complex128).reshape(maps.shape), kernel_accumulator(spectra))
    return (v_bar.reshape(np.shape(v)), tau_bar), oracles.prox_backward(np.asarray(v), tau, u_bar)


def assert_matches_oracle(got, want):
    """The package's v_bar and tau_bar against the oracle's, which sums in
    another order."""
    np.testing.assert_allclose(got[0], want[0], rtol=1e-12, atol=1e-12 * float(np.abs(want[0]).max()))
    assert got[1] == pytest.approx(want[1], rel=1e-12, abs=0)


class TestProxBackward:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        v = 1.5 * random_complex(rng, (2, 3, 4))
        tau = 0.4
        weight = random_complex(rng, (2, 3, 4))
        assert prox_kink_margin(v, tau) > 1e-3

        got, want = prox_through_sweep(v, tau, weight)
        assert_matches_oracle(got, want)
        fd_v = numeric_grad(lambda a: real_weighted(weight, soft_threshold(a, tau)), v)
        fd_tau = numeric_grad_scalar(
            lambda t: real_weighted(weight, soft_threshold(v, t)), tau
        )
        assert_grad_close(fd_v, got[0])
        assert_grad_close(fd_tau, got[1])

    def test_inactive_components_get_zero(self):
        rng = np.random.default_rng(12)
        v = 0.1 * random_complex(rng, (2, 4, 4))
        got, want = prox_through_sweep(v, 5.0, random_complex(rng, (2, 4, 4)))
        # no channel passes, so every cotangent of the threshold is zero
        assert np.all(got[0] == 0)
        assert got[1] == 0.0
        assert_matches_oracle(got, want)

    def test_zero_threshold_passes_every_nonzero_channel(self):
        v = np.array([[[0.3 - 0.2j, 0.0 + 1.0j]]])
        got, want = prox_through_sweep(v, 0.0, np.array([[[2.0 + 3.0j, 2.0 + 3.0j]]]))
        np.testing.assert_allclose(got[0], [[[2.0 + 3.0j, 3.0j]]], rtol=0, atol=1e-14)
        assert got[1] == -(2.0 - 3.0 + 3.0)
        assert_matches_oracle(got, want)

    def test_mixed_activity_channels(self):
        # one channel active, the other clamped, in the same component
        v = np.array([[[2.0 + 0.1j]]])
        got, want = prox_through_sweep(v, 0.5, np.array([[[1.0 + 1.0j]]]))
        np.testing.assert_allclose(got[0], [[[1.0 + 0.0j]]], rtol=0, atol=1e-15)
        assert got[1] == -1.0
        assert_matches_oracle(got, want)

    @pytest.mark.parametrize("tau", [0.0, 0.5, 5e-324], ids=["zero", "half", "subnormal"])
    def test_channels_at_the_kink_at_signed_zero_and_subnormal(self, tau):
        # every channel value sits on a kink or at the edge of the float range;
        # the package and the oracle must pass the same channels
        tiny, smallest_normal = np.finfo(float).smallest_subnormal, np.finfo(float).smallest_normal
        reals = [tau, -tau, 0.0, -0.0, tiny, -tiny, smallest_normal, -smallest_normal]
        v = np.zeros((2, 2, 2), dtype=np.complex128)
        v.real.flat, v.imag.flat = reals, reals[::-1]  # assigned, so -0.0 stays -0.0
        weight = random_complex(np.random.default_rng(13), v.shape)
        got, want = prox_through_sweep(v, tau, weight)
        assert_matches_oracle(got, want)
        for part in ("real", "imag"):
            passed = np.where(np.abs(getattr(v, part)) > tau, getattr(weight, part), 0.0)
            np.testing.assert_allclose(getattr(got[0], part), passed, rtol=0, atol=1e-14)


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
            u, z = prox_parts(state.v, config.threshold)
            gap = u - state.s
            assert real_inner(gap, gap) < 1e-20 * real_inner(state.s, state.s)
        weight = random_complex(rng, image_shape)

        x_hat, spectra = spectra_of(x, bank)
        _, step, config, v = s_update_sweep(x_hat, u, z, spectra, gamma)
        n_spatial = len(kernel_shape)
        # the VJP of the sweep's s-update and the synthesis of its s, from the
        # v = -(u + z) that no channel of passes: no cotangent of its new v
        d_bar = kernel_accumulator(spectra)
        x_hat_bar, v_bar, gamma_bar, _ = admm_step_backward(
            step, v, spectra, config, synthesis_backward(spectra, weight), None, d_bar
        )
        u_bar = z_bar = -v_bar
        x_bar = spatial(x_hat_bar, n_spatial)

        def loss(x_=x, u_=u, z_=z, bank_=bank, gamma_=gamma):
            x_hat_, spectra_ = spectra_of(x_, bank_)
            s_new = s_update_sweep(x_hat_, u_, z_, spectra_, gamma_)[0]
            return real_weighted(weight, oracles.synthesize(bank_, s_new))

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
        # the new s is read through its synthesis, and the new v directly, as
        # the network reads them; the input v sits away from the kinks
        rng = np.random.default_rng(33)
        bank = random_bank(rng, 2, (3, 3))
        x = random_complex(rng, (4, 4))
        v = 0.5 * random_complex(rng, (2, 4, 4))
        gamma, tau = 0.8, 0.15
        w_s = random_complex(rng, (4, 4))
        w_v = random_complex(rng, (2, 4, 4))
        assert prox_kink_margin(v, tau) > 1e-3
        assert 0 < np.mean(np.abs(v.view(np.float64)) > tau) < 1

        def config(gamma_, tau_):
            # gamma and tau pin down the sweep; beta itself cancels out
            return AdmmConfig(lam=1.0 / gamma_, alpha=tau_, beta=1.0)

        def run(x_=x, v_=v, bank_=bank, gamma_=gamma, tau_=tau):
            x_hat_, spectra_ = spectra_of(x_, bank_)
            st = CodeState(s=np.empty_like(v), v=np.array(v_, dtype=np.complex128))
            return admm_step_traced(x_hat_, st, spectra_, config(gamma_, tau_))

        def loss(**kw):
            new, _ = run(**kw)
            return (real_weighted(w_s, oracles.synthesize(kw.get("bank_", bank), new.s))
                    + real_weighted(w_v, new.v))

        _, trace = run()
        _, spectra = spectra_of(x, bank)
        # the VJP overwrites its cotangent; loss() still reads w_v
        d_bar = kernel_accumulator(spectra)
        x_hat_bar, v_bar, gamma_bar, tau_bar = admm_step_backward(
            trace, v, spectra, config(gamma, tau), synthesis_backward(spectra, w_s), w_v.copy(),
            d_bar
        )
        x_bar = spatial(x_hat_bar, 2)
        assert_grad_close(numeric_grad(lambda a: loss(x_=a), x), x_bar)
        assert_grad_close(numeric_grad(lambda a: loss(v_=a), v), v_bar)
        fd_kernels = numeric_grad(lambda k: loss(bank_=FilterBank(k)), bank.kernels)
        assert_grad_close(fd_kernels, spectra_to_kernel_grad(d_bar, (3, 3)))
        assert_grad_close(
            numeric_grad_scalar(lambda g: loss(gamma_=g), gamma), gamma_bar
        )
        assert_grad_close(numeric_grad_scalar(lambda t: loss(tau_=t), tau), tau_bar)

    def test_input_cotangent_is_formed_in_a_handed_buffer(self):
        # in v_bar's buffer if the new v is read, else in w_bar's, a fresh
        # array; never in the record or the input v
        rng = np.random.default_rng(24)
        bank = random_bank(rng, 2, (3, 3))
        x_hat, spectra = spectra_of(random_complex(rng, (4, 4)), bank)
        v = random_complex(rng, (2, 4, 4))
        cfg = AdmmConfig(lam=1.0, alpha=0.1, beta=0.5)
        _, trace = admm_step_traced(x_hat, CodeState(np.empty_like(v), v), spectra, cfg)
        for v_bar in (random_complex(rng, (2, 4, 4)), None):
            f = spectral(random_complex(rng, (4, 4)), 2)
            _, v_in_bar, *_ = admm_step_backward(
                trace, v, spectra, cfg, f, v_bar, kernel_accumulator(spectra)
            )
            assert v_bar is None or v_in_bar is v_bar
            assert not any(np.shares_memory(v_in_bar, a)
                           for a in (v, f, trace.s_hat, trace.c, trace.v))

    def test_skipped_state_cotangents(self):
        # a sweep from zero codes hands back no input cotangent and no tau
        # piece, whose prox is its input's, and the rest of its output is
        # unchanged
        rng = np.random.default_rng(26)
        bank = random_bank(rng, 2, (3, 3))
        x = random_complex(rng, (4, 4))
        v = random_complex(rng, (2, 4, 4))
        x_hat, spectra = spectra_of(x, bank)
        cfg = AdmmConfig(lam=1.0, alpha=0.1, beta=0.5)
        _, trace = admm_step_traced(x_hat, CodeState(np.empty_like(v), v), spectra, cfg)
        f = spectral(random_complex(rng, (4, 4)), 2)
        v_bar = random_complex(rng, (2, 4, 4))
        full_d_bar, skipped_d_bar = kernel_accumulator(spectra), kernel_accumulator(spectra)
        full = admm_step_backward(trace, v, spectra, cfg, f, v_bar.copy(), full_d_bar)
        skipped = admm_step_backward(trace, None, spectra, cfg, f, v_bar.copy(), skipped_d_bar)
        assert skipped[1] is None and skipped[3] == 0.0 and full[3] != 0.0
        for a, b in zip((full[0], full[2], full_d_bar), (skipped[0], skipped[2], skipped_d_bar)):
            np.testing.assert_array_equal(a, b)

    def test_rejects_a_code_cotangent_that_is_not_an_image(self):
        # the synthesis cotangent is one image; a (K, *image) array would
        # broadcast against a block of filter spectra
        rng = np.random.default_rng(27)
        bank = random_bank(rng, 2, (3, 3))
        x_hat, spectra = spectra_of(random_complex(rng, (4, 4)), bank)
        cfg = AdmmConfig(lam=1.0, alpha=0.1, beta=0.5)
        _, trace = admm_step_traced(x_hat, None, spectra, cfg)
        codes = spectral(random_complex(rng, (2, 4, 4)), 2)
        with pytest.raises(ShapeMismatch, match="synthesis cotangent"):
            admm_step_backward(trace, None, spectra, cfg, codes, None,
                               kernel_accumulator(spectra))


class TestBlockedVjps:
    """The sweep's VJP runs its elementwise passes, the synthesis's kernel
    share among them, over blocks of filters: every output, the kernel
    cotangent included, must be the one-block run's, bit for bit."""

    @pytest.mark.parametrize("n_filters,kernel_shape,image_shape,budget", [
        (7, (3, 3), (3, 8, 6), 3),          # K not a multiple of the block, batched frames
        (4, (3, 3, 3), (6, 8, 4), 0.4),     # a filter's map larger than the block
        (5, (3, 3, 3), (6, 8, 4), 2),       # a 3d bank
    ], ids=["K7_by3", "map_over_budget", "3d_K5_by2"])
    @pytest.mark.parametrize("prox", [True, False], ids=["prox", "no_prox"])
    def test_blocks_and_synthesis_image_keep_the_bits(self, monkeypatch, n_filters,
                                                     kernel_shape, image_shape, budget, prox):
        rng = np.random.default_rng(n_filters)
        bank = random_bank(rng, n_filters, kernel_shape)
        x_hat, spectra = spectra_of(random_complex(rng, image_shape), bank)
        maps = (n_filters,) + image_shape
        v = random_complex(rng, maps)
        cfg = AdmmConfig(lam=1.0, alpha=0.1, beta=0.5)
        _, step = admm_step_traced(x_hat, CodeState(np.empty_like(v), v), spectra, cfg)
        synth_bar = random_complex(rng, image_shape)
        v_bar = random_complex(rng, maps) if prox else None

        def run():
            d_bar = kernel_accumulator(spectra)
            out = admm_step_backward(step, v, spectra, cfg, synthesis_backward(spectra, synth_bar),
                                     None if v_bar is None else v_bar.copy(), d_bar)
            return [np.asarray(a).tobytes() for a in out + (d_bar,)]

        monkeypatch.setattr(csc, "_BLOCK_BYTES", 100 * 16 * int(np.prod(maps)))
        whole = run()
        monkeypatch.setattr(csc, "_BLOCK_BYTES", int(budget * 16 * int(np.prod(image_shape))))
        assert len(csc._filter_blocks(maps)) > 1
        assert run() == whole


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
        n_spatial = len(kernel_shape)
        s_hat = dft_forward(s, ndim=n_spatial)
        f = synthesis_backward(spectra, weight)
        # the cotangent of s_hat is conj(d) f
        s_bar = spatial(np.conj(spectra.d) * f, n_spatial)
        assert_grad_close(numeric_grad(lambda a: loss(s_=a), s), s_bar)
        # the kernel share conj(s_hat) f is added by the VJP of the sweep whose
        # s is synthesized; on a record with c = 0 that sweep's own share is
        # -conj(s_hat) rho, which is added back
        record = csc.AdmmStepTrace(s_hat=s_hat, c=np.zeros(code_shape[1:], dtype=complex),
                                   v=None, tau=1.0)
        d_bar = kernel_accumulator(spectra)
        rho, *_ = admm_step_backward(record, None, spectra,
                                     AdmmConfig(lam=1.0, alpha=1.0, beta=1.0), f, None, d_bar)
        d_bar += oracles._sum_batch(np.conj(s_hat) * rho, n_spatial)
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
                  scale=1.0, family="columns", n_filters=2):
    rng = np.random.default_rng(seed)
    coils = make_coil_maps(2, image_shape[:2])
    mask = make_mask(image_shape, accel=1.5, family=family, seed=seed + 1)
    target = scale * random_complex(rng, image_shape)
    sample = simulate_measurement(target, coils, mask, sigma=0.01, rng_seed=seed + 2)
    config = NetworkConfig(
        mode=mode,
        n_filters=n_filters,
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
    err = result.image - target
    return real_inner(err, err)


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


class TestTraceReuse:
    """The VJPs work in the cotangent buffers they are handed, never in the
    trace: a second backward on one trace reads what the first one did."""

    @pytest.mark.parametrize("family,record", [("columns", CgSolution), ("points", CgTrace)])
    def test_second_backward_gives_the_same_bits(self, family, record):
        sample, config, params, target = make_instance(
            "3d", (8, 8, 4), seed=91, n_outer=3, n_admm=2, n_cg=4, scale=4.0, family=family)
        result = forward_reconstruct(sample, params, config, want_trace=True)
        assert all(type(outer.cg) is record for outer in result.trace.outer)

        def digests():
            return [(name, hashlib.sha256(a.tobytes()).hexdigest())
                    for name, a in oracles.recorded_arrays(result.trace)]

        before = digests()
        d_image = 2.0 * (result.image - target)
        first, second = (backward(result.trace, d_image) for _ in range(2))
        for field in dataclasses.fields(GradientSet):
            a, b = (np.asarray(getattr(g, field.name)) for g in (first, second))
            assert a.tobytes() == b.tobytes(), field.name
        assert digests() == before


class TestStepMemory:
    """A train step holds, beyond its trace, only what its remaining work
    reads.  K-map stacks (K, N_t, N_x, N_y) dominate the images here, and
    the bounds are in K-maps: the backward peaks at about 2.9 of them above
    its trace (the kernel cotangent, v_bar, the block scratch and images) and
    the train step at about 3.0.  A new buffer for each sweep cotangent, a
    whole-array DFT of v_bar in a sweep's VJP, or the final code maps held
    through the backward, breaks the bound."""

    n_filters = 32

    def instance(self, n_admm=1, n_cg=12, family="columns"):
        sample, config, params, target = make_instance(
            "3d", (16, 16, 8), seed=93, n_outer=3, n_admm=n_admm, n_cg=n_cg,
            family=family, n_filters=self.n_filters)
        kmap = self.n_filters * np.prod(sample.image_shape) * np.dtype(np.complex128).itemsize
        return sample, config, params, target, kmap

    @pytest.mark.parametrize("n_admm,n_cg,family", [(1, 12, "columns"), (2, 3, "points")])
    def test_backward_peak_above_its_trace(self, n_admm, n_cg, family):
        sample, config, params, target, kmap = self.instance(n_admm, n_cg, family)
        result = forward_reconstruct(sample, params, config, want_trace=True)
        trace, d_image = result.trace, loss_mse_grad(result.image, target)
        del result
        assert traced_peak(lambda: backward(trace, d_image)) <= 3.6 * kmap

    def test_train_step_holds_no_code_maps(self):
        sample, config, params, target, kmap = self.instance()
        trace = forward_reconstruct(sample, params, config, want_trace=True).trace
        trace_bytes = sum(a.nbytes for _, a in oracles.recorded_arrays(trace))
        del trace
        state = AdamState.init(params)
        peak = traced_peak(lambda: train_step(sample, target, params, config, state))
        assert peak - trace_bytes <= 3.6 * kmap

    def test_sweep_vjp_allocates_one_scratch_stack(self):
        # with a prox part and the synthesis cotangent: beyond its inputs, no
        # K-map array, only two block scratch arrays (a quarter K-map each
        # here) and images
        sample, config, params, target, kmap = self.instance()
        trace = forward_reconstruct(sample, params, config, want_trace=True).trace
        step, v_in, spectra = trace.outer[1].admm[-1], trace.outer[0].admm[-1].v, trace.spectra
        rng = np.random.default_rng(94)
        v_bar = random_complex(rng, step.s_hat.shape)
        f = random_complex(rng, step.c.shape)
        d_bar = kernel_accumulator(spectra)
        cfg = AdmmConfig(lam=params.lam, alpha=params.alpha, beta=params.beta)
        peak = traced_peak(lambda: admm_step_backward(step, v_in, spectra, cfg, f, v_bar, d_bar))
        assert peak <= 1.0 * kmap


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

    @pytest.mark.parametrize("field", ["rho", "alpha"])
    def test_replay_that_departs_from_the_record(self, field):
        # on a points mask the 2-step solves stop short and keep their scalars
        sample, config, params, target = make_instance(
            "2d", (6, 6, 2), seed=74, n_outer=3, n_admm=1, n_cg=2, family="points"
        )
        result = forward_reconstruct(sample, params, config, want_trace=True)
        outer = list(result.trace.outer)
        record = outer[1].cg
        assert isinstance(record, CgTrace)
        its = list(record.iterations)
        its[-1] = dataclasses.replace(
            its[-1], **{field: np.nextafter(getattr(its[-1], field), np.inf)})
        outer[1] = dataclasses.replace(
            outer[1], cg=dataclasses.replace(record, iterations=tuple(its)))
        trace = dataclasses.replace(result.trace, outer=tuple(outer))
        with pytest.raises(NonFiniteValue, match=r"^backward outer iteration 1: cg_backward: "
                                                 r"the replayed CG iterations differ"):
            backward(trace, 2.0 * (result.image - target))

    # (block with a poisoned output, which output, on which of its calls,
    # counted from 0 in the order backward makes them, J, where the error
    # is reported)
    @pytest.mark.parametrize("block,output,call,n_admm,where", [
        ("cg_backward", 0, 1, 1, "outer iteration 1: synthesis_backward"),
        ("synthesis_backward", 0, 2, 1, "outer iteration 0: admm_step_backward"),
        ("admm_step_backward", 1, 0, 2, "outer iteration 2: admm_step_backward"),
        ("admm_step_backward", 1, 1, 2, "outer iteration 1: admm_step_backward"),
    ])
    def test_nan_handed_on_by_a_block(self, monkeypatch, block, output, call, n_admm, where):
        trace, d_image = self.make_trace(n_admm)
        original = getattr(backprop, block)
        calls = []

        def poisoned(*args, **kwargs):
            out = original(*args, **kwargs)
            if len(calls) == call:
                # synthesis_backward returns one array, the others a tuple
                (out[output] if isinstance(out, tuple) else out).flat[0] = np.nan
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
            synthesis_backward(trace.spectra, bad)
        step = outer.admm[-1]
        codes = np.full(step.v.shape, np.nan + 0j)
        inputs = (step, trace.outer[-2].admm[-1].v, trace.spectra, trace.admm)
        d_bar = kernel_accumulator(trace.spectra)
        with pytest.raises(NonFiniteValue):
            admm_step_backward(*inputs, np.full(step.c.shape, np.nan + 0j), None, d_bar)
        with pytest.raises(NonFiniteValue):
            admm_step_backward(*inputs, None, codes, d_bar)


# one paper-scale forward and backward, printed as the sha256 of each output
# field; tau = alpha/beta = 0.05 lets codes pass the threshold, so every
# GradientSet field is nonzero
PAPER3D_GRADIENTS = """
import hashlib
import json
import dataclasses
import numpy as np
from ucdl.backprop import backward
from ucdl.data import PhantomSpec, make_phantom
from ucdl.network import NetworkConfig, forward_reconstruct, init_network
from ucdl.operators import make_coil_maps, make_mask, simulate_measurement
shape = (48, 48, 16)
target = make_phantom(PhantomSpec(image_shape=shape, rng_seed=0))
sample = simulate_measurement(target, make_coil_maps(3, shape[:2]),
                              make_mask(shape, accel=4.0, seed=1), sigma=0.02, rng_seed=2)
config = NetworkConfig(mode="3d", n_filters=16, kernel_size=7, n_outer=4, n_admm=1, n_cg=12)
params = dataclasses.replace(init_network(config), log_alpha=float(np.log(0.05)))
result = forward_reconstruct(sample, params, config, want_trace=True)
grads = backward(result.trace, result.image - target)
fields = {"image": result.image, **dataclasses.asdict(grads)}
assert all(np.any(np.asarray(v) != 0) for v in fields.values())
print(json.dumps({k: hashlib.sha256(np.asarray(v).tobytes()).hexdigest()
                  for k, v in fields.items()}))
"""


def test_gradient_bits_do_not_depend_on_the_blas_thread_count():
    # OpenBLAS splits a long dot product across its threads; every inner
    # product of the package is reduced by NumPy in one fixed order instead
    src = str(Path(network.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", PAPER3D_GRADIENTS], env=env,
                              capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
        digests.append(json.loads(proc.stdout))
    assert set(digests[0]) == {"image", *(f.name for f in dataclasses.fields(GradientSet))}
    assert digests[0] == digests[1]
