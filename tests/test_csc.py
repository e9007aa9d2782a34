"""Convolutional sparse coding ADMM tests.

Oracles used here are deliberately independent of the implementation:
a dense per-frequency K x K solve for the s-update, a 1-D grid scan for
the soft-threshold prox, a straight-line transcript built from explicit
DFT matrices for full ADMM steps, and hand arithmetic for the objective.
"""

import dataclasses

import numpy as np
import pytest

import oracles
from oracles import (circular_convolve, csc_objective, kernel_accumulator, prox_parts, run_admm,
                     s_update_sweep, soft_threshold, spectra_of)

from ucdl import csc
from ucdl.csc import (
    AdmmConfig,
    CodeState,
    FilterBank,
    admm_step_backward,
    admm_step_traced,
    dictionary_synthesis,
    filter_spectra,
    kernel_spectra,
    synthesis_backward,
)
from ucdl.errors import ShapeMismatch
from ucdl.tensors import dft_forward, dft_inverse, real_inner


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def s_update(x, u, z, bank, gamma):
    """The package's s-update on image x with `bank`: the new s of one sweep."""
    x_hat, spectra = spectra_of(x, bank)
    return s_update_sweep(x_hat, u, z, spectra, gamma)[0]


def admm_step(x, state, bank, config):
    """The package's sweep on image x with `bank`: (state, trace)."""
    x_hat, spectra = spectra_of(x, bank)
    return admm_step_traced(x_hat, state, spectra, config)


def synthesis(bank, s):
    """The package's dictionary synthesis of the codes s with `bank`."""
    spectra = kernel_spectra(bank, s.shape[1:])
    return dictionary_synthesis(spectra, dft_forward(s, ndim=spectra.n_spatial))


def random_bank(rng, n_filters, kernel_shape):
    kernels = rng.standard_normal((n_filters,) + kernel_shape)
    kernels /= np.sqrt((kernels**2).sum(axis=tuple(range(1, kernels.ndim)), keepdims=True))
    return FilterBank(kernels)


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

def naive_padded_spectra(kernels, spatial_shape):
    """Spectra of centered zero-padded kernels via explicit DFT sums."""
    k_shape = kernels.shape[1:]
    padded = np.zeros((kernels.shape[0],) + spatial_shape, dtype=complex)
    for k in range(kernels.shape[0]):
        for idx in np.ndindex(*k_shape):
            dest = tuple((i - (n // 2)) % m for i, n, m in zip(idx, k_shape, spatial_shape))
            padded[(k,) + dest] = kernels[(k,) + idx]
    out = np.zeros_like(padded)
    for k in range(kernels.shape[0]):
        for freq in np.ndindex(*spatial_shape):
            acc = 0.0 + 0.0j
            for pos in np.ndindex(*spatial_shape):
                phase = sum(f * p / m for f, p, m in zip(freq, pos, spatial_shape))
                acc += padded[(k,) + pos] * np.exp(-2j * np.pi * phase)
            out[(k,) + freq] = acc
    return out


def dense_s_update(x, u, z, kernels, gamma):
    """Solve the per-frequency normal equations with a dense K x K solve."""
    spatial = x.shape
    spectra = naive_padded_spectra(kernels, spatial)
    n_filters = kernels.shape[0]
    x_hat = np.fft.fftn(x)
    w_hat = np.fft.fftn(u + z, axes=tuple(range(1, u.ndim)))
    s_hat = np.zeros_like(w_hat)
    for freq in np.ndindex(*spatial):
        d = spectra[(slice(None),) + freq]
        rhs = np.conj(d) * x_hat[freq] + gamma * w_hat[(slice(None),) + freq]
        mat = np.outer(np.conj(d), d) + gamma * np.eye(n_filters)
        s_hat[(slice(None),) + freq] = np.linalg.solve(mat, rhs)
    return np.fft.ifftn(s_hat, axes=tuple(range(1, u.ndim)))


def grid_prox(v, tau, pitch=1e-4):
    """Brute-force argmin of tau*|t| + (t - v)^2 / 2 over a dense grid."""
    lo = min(0.0, v) - 0.1
    hi = max(0.0, v) + 0.1
    grid = np.arange(lo, hi + pitch, pitch)
    vals = tau * np.abs(grid) + 0.5 * (grid - v) ** 2
    return grid[np.argmin(vals)]


def transcript_admm(x, kernels, lam, alpha, beta, n_steps):
    """Straight-line scaled ADMM on explicit spectra, cold-started."""
    gamma = beta / lam
    tau = alpha / beta
    spatial = x.shape
    spectra = naive_padded_spectra(kernels, spatial)
    n_filters = kernels.shape[0]
    s = np.zeros((n_filters,) + spatial, dtype=complex)
    u = np.zeros_like(s)
    z = np.zeros_like(s)
    history = []
    for _ in range(n_steps):
        s = dense_s_update(x, u, z, kernels, gamma)
        v = s - z
        u = (
            np.sign(v.real) * np.maximum(np.abs(v.real) - tau, 0.0)
            + 1j * np.sign(v.imag) * np.maximum(np.abs(v.imag) - tau, 0.0)
        )
        z = z + u - s
        history.append((s.copy(), u.copy(), z.copy()))
    return history


def dense_synthesis(kernels, s):
    """Direct spatial-domain sum of circular convolutions."""
    spatial = s.shape[1:]
    out = np.zeros(spatial, dtype=complex)
    k_shape = kernels.shape[1:]
    centers = tuple(n // 2 for n in k_shape)
    for k in range(kernels.shape[0]):
        for pos in np.ndindex(*spatial):
            acc = 0.0 + 0.0j
            for idx in np.ndindex(*k_shape):
                src = tuple(
                    (p - i + c) % m for p, i, c, m in zip(pos, idx, centers, spatial)
                )
                acc += kernels[(k,) + idx] * s[(k,) + src]
            out[pos] += acc
    return out


# ---------------------------------------------------------------------------
# FilterBank / config validation
# ---------------------------------------------------------------------------

class TestTypes:
    def test_bank_shape_and_norms(self):
        bank = random_bank(np.random.default_rng(0), 3, (3, 3))
        assert bank.count == 3
        assert bank.kernel_shape == (3, 3)
        assert np.allclose(bank.norms(), 1.0, atol=1e-12)

    def test_bank_rejects_bad_ndim(self):
        with pytest.raises(ShapeMismatch):
            FilterBank(np.zeros((3, 3)))
        with pytest.raises(ShapeMismatch):
            FilterBank(np.zeros((2, 3, 3, 3, 3)))

    def test_config_positivity(self):
        cfg = AdmmConfig(lam=0.5, alpha=0.1, beta=2.0)
        assert cfg.gamma == pytest.approx(4.0)
        assert cfg.threshold == pytest.approx(0.05)
        for bad in (
            dict(lam=0.0, alpha=0.1, beta=1.0),
            dict(lam=1.0, alpha=-0.1, beta=1.0),
            dict(lam=1.0, alpha=0.1, beta=0.0),
        ):
            with pytest.raises(ValueError):
                AdmmConfig(**bad)

    @pytest.mark.parametrize("weights,derived", [
        (dict(lam=1e300, alpha=1.0, beta=1e-300), "gamma = beta/lam"),   # gamma = 0
        (dict(lam=1.0, alpha=1e300, beta=1e-300), "tau = alpha/beta"),   # tau = inf
    ], ids=["gamma-zero", "tau-inf"])
    def test_config_rejects_derived_weights(self, weights, derived):
        # three positive weights whose ratio leaves the float range
        with pytest.raises(ValueError, match=f"^{derived} must be a finite number > 0, ") as err:
            AdmmConfig(**weights)
        assert all(f"{name}={value}" in str(err.value) for name, value in weights.items())

    @pytest.mark.parametrize("weights", [(1.0, 0.1, 0.5), (0.3, 2.0, 1.7), (5.0, 0.05, 0.2)])
    def test_weights_backward_matches_central_differences(self, weights):
        # the (lam, alpha, beta) shares of gamma_bar d(gamma) + tau_bar d(tau)
        gamma_bar, tau_bar = 0.7, -1.3
        shares = AdmmConfig(*weights).weights_backward(gamma_bar, tau_bar)
        for i, share in enumerate(shares):
            step = 1e-5 * weights[i]
            plus, minus = (AdmmConfig(*(w + sign * step * (j == i) for j, w in enumerate(weights)))
                           for sign in (1, -1))
            numeric = (gamma_bar * (plus.gamma - minus.gamma)
                       + tau_bar * (plus.threshold - minus.threshold)) / (2 * step)
            assert share == pytest.approx(numeric, rel=1e-8), i

    def test_code_state_zeros(self):
        state = CodeState.zeros(2, (4, 4))
        assert state.s.shape == state.v.shape == (2, 4, 4)
        assert state.v.dtype == np.complex128
        assert not state.s.any() and not state.v.any()
        assert not np.shares_memory(state.s, state.v)


# ---------------------------------------------------------------------------
# s-update
# ---------------------------------------------------------------------------

class TestSUpdate:
    def test_zero_filters_reduce_to_u_plus_z(self):
        rng = np.random.default_rng(1)
        bank = FilterBank(np.zeros((2, 3, 3)))
        u = random_complex(rng, (2, 6, 6))
        z = random_complex(rng, (2, 6, 6))
        x = random_complex(rng, (6, 6))
        s = s_update(x, u, z, bank, gamma=0.7)
        assert np.allclose(s, u + z, atol=1e-12)

    @pytest.mark.parametrize("n_filters,spatial", [(1, (4, 4)), (2, (4, 4)), (3, (5, 4)), (2, (4, 4, 3))])
    def test_matches_dense_solve(self, n_filters, spatial):
        rng = np.random.default_rng(2 + n_filters + len(spatial))
        kdim = (3,) * len(spatial) if len(spatial) == 2 else (3, 3, 3)
        bank = random_bank(rng, n_filters, kdim)
        x = random_complex(rng, spatial)
        u = random_complex(rng, (n_filters,) + spatial)
        z = random_complex(rng, (n_filters,) + spatial)
        gamma = 0.9
        got = s_update(x, u, z, bank, gamma)
        want = dense_s_update(x, u, z, bank.kernels, gamma)
        scale = np.max(np.abs(want))
        assert np.max(np.abs(got - want)) <= 1e-10 * max(1.0, scale)

    def test_satisfies_normal_equations(self):
        rng = np.random.default_rng(3)
        bank = random_bank(rng, 4, (3, 3))
        x = random_complex(rng, (8, 8))
        u = random_complex(rng, (4, 8, 8))
        z = random_complex(rng, (4, 8, 8))
        gamma = 1.3
        s = s_update(x, u, z, bank, gamma)
        spectra = filter_spectra(bank, (8, 8))
        s_hat = np.fft.fftn(s, axes=(1, 2))
        rhs = np.conj(spectra) * np.fft.fftn(x) + gamma * np.fft.fftn(u + z, axes=(1, 2))
        lhs = np.conj(spectra) * (spectra * s_hat).sum(axis=0) + gamma * s_hat
        assert np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs) <= 1e-9

    def test_decreases_quadratic_objective(self):
        # the s-update exactly minimizes the s-subproblem, so it cannot increase it.
        rng = np.random.default_rng(4)
        bank = random_bank(rng, 2, (3, 3))
        x = random_complex(rng, (6, 6))
        u = random_complex(rng, (2, 6, 6))
        z = random_complex(rng, (2, 6, 6))
        s_old = random_complex(rng, (2, 6, 6))
        lam, beta = 0.8, 1.7
        gamma = beta / lam

        def quad(s):
            synth = oracles.synthesize(bank, s)
            err, gap = x - synth, u - s + z
            return 0.5 * lam * real_inner(err, err) + 0.5 * beta * real_inner(gap, gap)

        s_new = s_update(x, u, z, bank, gamma)
        assert quad(s_new) <= quad(s_old) + 1e-12

    def test_batched_matches_loop(self):
        rng = np.random.default_rng(5)
        bank = random_bank(rng, 2, (3, 3))
        x = random_complex(rng, (4, 6, 6))  # batch of 4 frames
        u = random_complex(rng, (2, 4, 6, 6))
        z = random_complex(rng, (2, 4, 6, 6))
        batched = s_update(x, u, z, bank, gamma=0.6)
        for b in range(4):
            single = s_update(x[b], u[:, b], z[:, b], bank, gamma=0.6)
            assert np.allclose(batched[:, b], single, atol=1e-13)

    def test_rejects_nonpositive_gamma(self):
        bank = random_bank(np.random.default_rng(6), 1, (3, 3))
        x = np.zeros((4, 4), dtype=complex)
        u = np.zeros((1, 4, 4), dtype=complex)
        with pytest.raises(ValueError):
            s_update(x, u, u, bank, gamma=0.0)


# the frames-first image and bank of each benchmark workload:
# (kernel shape, filters, image shape)
WORKLOAD_SHAPES = {
    "fixture-epoch": ((5, 5, 5), 8, (8, 32, 32)),
    "paper3d-train": ((7, 7, 7), 16, (16, 48, 48)),
    "recon2d-points": ((9, 9), 96, (8, 32, 32)),
}


def relative_error(got, want):
    return float(np.linalg.norm(np.asarray(got) - want) / np.linalg.norm(want))


class TestClosedFormAgainstShermanMorrison:
    """The closed-form s-update and its VJP against the Sherman-Morrison
    solve and VJP they replace (tests/oracles.py), at the shapes of the
    benchmark workloads, for the network's initial gamma and a fitted one.
    The VJP is taken from the cotangent of the synthesis of the new s, as
    the network's last sweep takes it, so its kernel cotangent holds the
    synthesis's share too; the reference's synthesis share is taken off it
    before the comparison, because the two shares nearly cancel (at
    recon2d-points the sum is about 1/95 of the synthesis share) and the sum
    of the references carries the roundoff of its parts.  The bounds sit
    above the reference's own roundoff, which is largest where gamma + P is
    dominated by P."""

    def run_case(self, workload, gamma):
        kernel_shape, n_filters, image_shape = WORKLOAD_SHAPES[workload]
        rng = np.random.default_rng(24)
        bank = random_bank(rng, n_filters, kernel_shape)
        x = random_complex(rng, image_shape)
        u, z = (random_complex(rng, (n_filters,) + image_shape) for _ in range(2))
        synth_bar = random_complex(rng, image_shape)
        x_hat, spectra = spectra_of(x, bank)
        _, step, config, v = s_update_sweep(x_hat, u, z, spectra, gamma)
        return x, u, z, bank, x_hat, spectra, step, config, synth_bar, v

    @pytest.mark.parametrize("gamma", [1.0, 1.625])
    @pytest.mark.parametrize("workload", sorted(WORKLOAD_SHAPES))
    def test_forward(self, workload, gamma):
        x, u, z, bank, x_hat, spectra, step, *_, v = self.run_case(workload, gamma)
        s_hat = oracles.recorded_s_hat(step, v, spectra)
        assert relative_error(s_hat, oracles.s_update(x, u, z, bank, gamma)[1]) <= 1e-14
        # the synthesis the network forms from the record
        approx = dft_inverse(x_hat - gamma * step.c, ndim=spectra.n_spatial)
        assert relative_error(approx, dictionary_synthesis(spectra, s_hat)) <= 1e-13

    @pytest.mark.parametrize("gamma", [1.0, 1.625])
    @pytest.mark.parametrize("workload", sorted(WORKLOAD_SHAPES))
    def test_backward(self, workload, gamma):
        x, _, _, bank, x_hat, spectra, step, config, synth_bar, v = self.run_case(workload, gamma)
        f = synthesis_backward(spectra, synth_bar)
        d_bar = kernel_accumulator(spectra)
        # the prox passes no channel of v = -w, so v's cotangent is -w_bar
        rho, v_bar, gamma_bar, _ = admm_step_backward(step, v, spectra, config, f, None, d_bar)
        w_bar = -v_bar
        n_spatial = spectra.n_spatial
        raw = filter_spectra(bank, x.shape[-n_spatial:])
        # the cotangent of s_hat is conj(d) f
        s_hat_bar = np.conj(spectra.d) * f
        s_hat = oracles.recorded_s_hat(step, v, spectra)
        want = oracles.sherman_morrison_backward(x_hat, s_hat, raw, gamma, s_hat_bar)
        want_rho, want_w_hat_bar, want_d_bar, want_gamma_bar = want
        d_bar -= oracles.synthesis_backward(s_hat, raw, synth_bar)[1]
        assert relative_error(rho, want_rho) <= 1e-12
        want_w_bar = spectra.n_freq * dft_inverse(want_w_hat_bar, ndim=n_spatial)
        assert relative_error(w_bar, want_w_bar) <= 1e-14
        assert relative_error(d_bar, want_d_bar) <= 1e-12
        assert relative_error(gamma_bar, want_gamma_bar) <= 1e-11


# ---------------------------------------------------------------------------
# u-update (prox) and dual update
# ---------------------------------------------------------------------------

class TestUUpdate:
    """The soft threshold of tests/oracles.py, whose bits the sweep's u
    runs (TestAgainstPlainFormulas), and the u and z a sweep's v stands for."""

    def test_scalar_values(self):
        assert soft_threshold(np.array(1.2), 0.5) == pytest.approx(0.7)
        assert soft_threshold(np.array(-0.3), 0.5) == pytest.approx(0.0)
        assert soft_threshold(np.array(-1.0), 0.5) == pytest.approx(-0.5)

    def test_zero_alpha_is_identity(self):
        rng = np.random.default_rng(7)
        s = random_complex(rng, (2, 4, 4))
        z = random_complex(rng, (2, 4, 4))
        assert np.array_equal(soft_threshold(s - z, 0.0 / 1.5), s - z)

    def test_matches_grid_prox(self):
        rng = np.random.default_rng(8)
        values = rng.uniform(-2.0, 2.0, size=60)
        taus = rng.uniform(0.0, 1.0, size=60)
        for v, tau in zip(values, taus):
            want = grid_prox(v, tau)
            got = soft_threshold(np.array(v), tau)
            assert abs(got - want) <= 1e-4

    @pytest.mark.parametrize("tau", [-0.5, np.nan, np.inf])
    def test_rejects_a_threshold_that_is_not_finite_and_nonnegative(self, tau):
        with pytest.raises(ValueError, match="tau"):
            soft_threshold(np.array(0.3 - 0.2j), tau)

    def test_componentwise_on_complex(self):
        v = np.array([1.0 - 0.2j, -0.4 + 2.0j])
        out = soft_threshold(v, 0.5)
        assert np.allclose(out, np.array([0.5 + 0.0j, 0.0 + 1.5j]))

    def test_penalty_scaling_invariance(self):
        # scaling lam, alpha and beta together keeps gamma and the threshold
        rng = np.random.default_rng(9)
        bank = random_bank(rng, 2, (3, 3))
        x = random_complex(rng, (4, 4))
        state = CodeState(*(random_complex(rng, (2, 4, 4)) for _ in range(2)))
        cfg = AdmmConfig(lam=0.8, alpha=0.3, beta=1.1)
        scaled = AdmmConfig(lam=0.8 * 7.0, alpha=0.3 * 7.0, beta=1.1 * 7.0)
        a, _ = admm_step(x, oracles.copy_state(state), bank, cfg)
        b, _ = admm_step(x, oracles.copy_state(state), bank, scaled)
        u_a, u_b = prox_parts(a.v, cfg.threshold)[0], prox_parts(b.v, scaled.threshold)[0]
        assert np.allclose(u_a, u_b, atol=1e-12)

    def test_z_update(self):
        # the new v is s - z_old, with z_old = -clip(v_old) the scaled dual of
        # the old v; the dual ascent z_old + (u - s) is u - v, its clip
        rng = np.random.default_rng(10)
        bank = random_bank(rng, 2, (3, 3))
        x = random_complex(rng, (3, 3))
        state = CodeState(*(random_complex(rng, (2, 3, 3)) for _ in range(2)))
        cfg = AdmmConfig(lam=1.0, alpha=0.2, beta=1.3)
        new, _ = admm_step(x, oracles.copy_state(state), bank, cfg)
        _, z_old = prox_parts(state.v, cfg.threshold)
        assert np.array_equal(new.v, new.s - z_old)


# ---------------------------------------------------------------------------
# In-place sweep against the plain formulas
# ---------------------------------------------------------------------------

# (kernel shape, image shape): a 2d bank over a batch of 3 frames, a 3d bank
SWEEP_SHAPES = [((3, 3), (3, 8, 6)), ((3, 3, 3), (6, 8, 4))]
# the network's initial weights, and trained-looking ones where few channels
# stay below the threshold
SWEEP_WEIGHTS = [(1.0, 1.0, 1.0), (0.8, 0.02, 1.3)]


def sweep_inputs(seed, kernel_shape, image_shape, weights):
    rng = np.random.default_rng(seed)
    bank = random_bank(rng, 4, kernel_shape)
    x = random_complex(rng, image_shape)
    state = CodeState(*(random_complex(rng, (4,) + image_shape) for _ in range(2)))
    lam, alpha, beta = weights
    return x, state, bank, AdmmConfig(lam=lam, alpha=alpha, beta=beta)


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def same_buffer(a, b):
    """Whether a and b are the same memory, start and size."""
    return (a.__array_interface__["data"][0] == b.__array_interface__["data"][0]
            and a.nbytes == b.nbytes)


class TestAgainstPlainFormulas:
    """The in-place solve and prox run the plain formulas' operations in
    their order, so one sweep returns the same bits as the v-form oracle."""

    @pytest.mark.parametrize("kernel_shape,image_shape", SWEEP_SHAPES)
    @pytest.mark.parametrize("weights", SWEEP_WEIGHTS)
    def test_sweep_is_bitwise_equal(self, kernel_shape, image_shape, weights):
        x, state, bank, cfg = sweep_inputs(20, kernel_shape, image_shape, weights)
        new, trace = admm_step(x, oracles.copy_state(state), bank, cfg)
        want, want_s_hat, want_c = oracles.admm_step(x, state, bank, cfg)
        assert same_bits(new.s, want.s)
        s_hat = oracles.recorded_s_hat(trace, state.v, spectra_of(x, bank)[1])
        assert same_bits(s_hat, want_s_hat)
        assert same_bits(trace.c, want_c)
        assert same_bits(new.v, want.v)
        assert trace.v is new.v
        # some channels of the input v pass the threshold, and some do not
        passing = np.abs(state.v.view(np.float64)) > cfg.threshold
        assert 0 < passing.mean() < 1

    @pytest.mark.parametrize("kernel_shape,image_shape", SWEEP_SHAPES)
    def test_sweep_leaves_its_inputs_alone(self, kernel_shape, image_shape):
        # the sweep consumes its state's s and keeps x_hat, the spectra, the
        # kernels and the old v, the previous sweep's record
        x, state, bank, cfg = sweep_inputs(21, kernel_shape, image_shape, SWEEP_WEIGHTS[1])
        x_hat, spectra = spectra_of(x, bank)
        inputs = [x_hat, spectra.d, spectra.power, bank.kernels, state.v]
        before = [a.copy() for a in inputs]
        old_s = state.s
        new, trace = admm_step_traced(x_hat, state, spectra, cfg)
        assert all(same_bits(a, b) for a, b in zip(inputs, before))
        outputs = [new.s, trace.v, trace.c]
        for i, out in enumerate(outputs):
            assert not any(np.shares_memory(out, a) for a in inputs)
            assert not any(np.shares_memory(out, b) for b in outputs[i + 1:])
        # the new s is formed in the old s's buffer; v is fresh
        assert same_buffer(new.s, old_s)
        assert new.v is trace.v

    @pytest.mark.parametrize("tau", [0.0, 0.5, 1.25])
    def test_soft_threshold_matches_plain_formula(self, tau):
        rng = np.random.default_rng(22)
        real = rng.uniform(-2.0, 2.0, size=(5, 6, 8))
        # exact hits on the kink and signed zeros
        real.flat[:6] = [tau, -tau, 0.0, -0.0, np.nextafter(tau, 0.0), -np.nextafter(tau, 3.0)]
        cplx = real + 1j * rng.permuted(real, axis=2)
        cplx.flat[6:10] = [tau - 0.0j, -tau + tau * 1j, -0.0 - 0.0j, 0.0 - tau * 1j]
        inputs = [real, cplx, real[:, ::2], cplx[:, :, ::3], cplx.transpose(2, 0, 1),
                  cplx.real, cplx.imag, np.asfortranarray(cplx), real[0, 0, 0]]
        for values in inputs:
            before = np.array(values, copy=True)
            got = soft_threshold(values, tau)
            want = oracles.plain_soft_threshold(values, tau)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert np.array_equal(got, want)
            # the whole-array threshold's bits, the signs of zeros included
            assert same_bits(got, oracles.threshold_channels(values, tau))
            assert same_bits(np.asarray(values), before)
            assert not np.shares_memory(got, values)

    @pytest.mark.parametrize("tau", [5e-324, 0.05, 1.0, 1e300])
    def test_prox_sum_matches_the_four_pass_form(self, tau):
        # the copysign the sweep no longer runs never reached w: the same
        # int64 bits on the kink and the floats next to it, signed zeros,
        # subnormals, huge values and infinities, each in both channels
        rng = np.random.default_rng(23)
        edges = [0.0, -0.0, tau, -tau, 5e-324, -5e-324, 1e-310, -1e-310, 1e300, -1e300,
                 np.inf, -np.inf]
        edges += [np.nextafter(t, toward) for t in (tau, -tau) for toward in (0.0, 2 * t)]
        scaled = rng.standard_normal(100_000) * 10.0 ** rng.uniform(-8, 8, 100_000)
        channels = np.concatenate([edges, scaled, tau * rng.uniform(-2.0, 2.0, 1000)])
        v = np.concatenate([channels, channels[::-1]]).view(np.complex128)
        got = csc._prox_sum(v, tau, np.empty_like(v), np.empty_like(v))
        want = oracles.four_pass_prox_sum(v, tau)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


# weights at which most channels pass the threshold over the sweeps below
# (alpha = 0.05: 70-81 %), and at which none does (alpha = 50)
V_STATE_WEIGHTS = {"active": (1.0, 0.05, 1.0), "inactive": (1.0, 50.0, 1.0)}


class TestVState:
    """The state is v alone: u = soft(v) and z = -clip(v) per channel, by the
    Moreau decomposition, so J sweeps agree with scaled ADMM on (s, u, z)
    with the dual ascent z + (u - s) up to roundoff, and its scaled dual is
    bounded by tau."""

    J = 5

    def sweeps(self, regime):
        rng = np.random.default_rng(30)
        bank = random_bank(rng, 4, (3, 3))
        x = random_complex(rng, (3, 8, 6))
        cfg = AdmmConfig(*V_STATE_WEIGHTS[regime])
        x_hat, spectra = spectra_of(x, bank)
        state, states = None, []
        for _ in range(self.J):
            state, _ = admm_step_traced(x_hat, state, spectra, cfg)
            states.append(oracles.copy_state(state))
        return x, bank, cfg, states

    @pytest.mark.parametrize("regime", sorted(V_STATE_WEIGHTS))
    def test_matches_the_v_form_oracle_bitwise(self, regime):
        x, bank, cfg, states = self.sweeps(regime)
        want = CodeState.zeros(4, x.shape)
        for got in states:
            want, _, _ = oracles.admm_step(x, want, bank, cfg)
            assert same_bits(got.s, want.s) and same_bits(got.v, want.v)

    @pytest.mark.parametrize("regime", sorted(V_STATE_WEIGHTS))
    def test_agrees_with_the_three_buffer_sweeps(self, regime):
        # roundoff only: the dual is the clip of v instead of z + (u - s)
        x, bank, cfg, states = self.sweeps(regime)
        u = z = np.zeros((4,) + x.shape, dtype=np.complex128)
        passing = []
        for got in states:
            s, u, z = oracles.three_buffer_step(x, u, z, bank, cfg)
            got_u, got_z = prox_parts(got.v, cfg.threshold)
            for a, b in ((got.s, s), (got_u, u), (got_z, z)):
                assert np.max(np.abs(a - b)) <= 1e-14 * np.max(np.abs(s))
            passing.append(np.mean(np.abs(got.v.view(np.float64)) > cfg.threshold))
        if regime == "active":
            assert 0 < min(passing) and max(passing) < 1
        else:
            assert max(passing) == 0

    def test_dual_is_bounded(self):
        # |z| <= tau per channel, where the three-buffer sweeps reach it only
        # up to the roundoff of the dual ascent
        x, bank, cfg, states = self.sweeps("active")
        tau = cfg.threshold
        u = z = np.zeros((4,) + x.shape, dtype=np.complex128)
        for got in states:
            _, u, z = oracles.three_buffer_step(x, u, z, bank, cfg)
            got_z = prox_parts(got.v, tau)[1]
            assert np.max(np.abs(got_z.view(np.float64))) <= tau
            assert np.max(np.abs(z.view(np.float64))) <= tau * (1 + 1e-12)
            # a channel that passes holds its dual at the bound
            active = np.abs(got.v.view(np.float64)) > tau
            assert np.all(np.abs(got_z.view(np.float64))[active] == tau)


# ---------------------------------------------------------------------------
# Sweep over blocks of filters against the whole-array sweep
# ---------------------------------------------------------------------------

# (n_filters, kernel shape, image shape, block budget in filter maps; None
# for the package's own budget)
BLOCK_CASES = [
    (7, (3, 3), (3, 8, 6), 3),          # K not a multiple of the block
    (1, (3, 3), (3, 8, 6), 3),          # one filter
    (4, (3, 3, 3), (6, 8, 4), 0.4),     # a filter's map larger than the block
    (5, (3, 3, 3), (6, 8, 4), 2),       # a 3d bank
    (6, (3, 3), (8, 6), 100),           # one block holds every filter
    (3, (3, 3), (5, 72, 64), None),     # the package's budget, one filter per block
]
BLOCK_IDS = ["K7_by3", "K1", "map_over_budget", "3d_K5_by2", "one_block", "own_budget"]


def sweep_record(state, trace, s_hat):
    """The sweep's state, record and the s_hat the record stands for."""
    return [state.s, state.v, s_hat, trace.c, trace.v]


def package_sweep(x_hat, state, spectra, cfg):
    """The package's traced sweep from `state` (None for zero codes) and
    its sweep_record, with s_hat re-formed from the record and the input v."""
    v_in = None if state is None else state.v
    state, trace = admm_step_traced(x_hat, state, spectra, cfg)
    return state, trace, sweep_record(state, trace,
                                      oracles.recorded_s_hat(trace, v_in, spectra))


# (K-map stack shape, transformed trailing axes): the three workloads' code
# maps, a filter whose map is over the block budget, a batch axis of one frame
BLOCK_DFT_CASES = {
    "paper3d-train": ((16, 16, 48, 48), 3),
    "recon2d-points": ((96, 8, 32, 32), 2),
    "fixture-epoch": ((8, 8, 32, 32), 3),
    "map_over_budget": ((3, 4, 64, 72), 2),
    "one_frame": ((8, 1, 24, 24), 2),
}


class TestBlockTransforms:
    """The sweep transforms w in place over the whole stack and its VJP
    re-forms s_hat one filter block at a time in block scratch, so a DFT of
    a block must give the bits of the whole-array DFT's block, and an
    in-place DFT those of an out-of-place one."""

    @pytest.mark.parametrize("case", sorted(BLOCK_DFT_CASES))
    @pytest.mark.parametrize("transform", [dft_forward, dft_inverse], ids=["forward", "inverse"])
    def test_a_block_at_a_time_keeps_the_bits(self, case, transform):
        shape, n_spatial = BLOCK_DFT_CASES[case]
        maps = random_complex(np.random.default_rng(len(shape) + shape[0]), shape)
        whole = transform(maps, ndim=n_spatial)
        blocks = csc._filter_blocks(shape)
        if case == "map_over_budget":
            assert 16 * maps[0].size > csc._BLOCK_BYTES and len(blocks) == shape[0]
        for blk, scratch in blocks:
            np.copyto(scratch, maps[blk])
            got = transform(scratch, ndim=n_spatial, overwrite_x=True)
            assert np.shares_memory(got, scratch)
            assert got.tobytes() == whole[blk].tobytes()

    @pytest.mark.parametrize("case", sorted(BLOCK_DFT_CASES))
    def test_in_place_forward_keeps_the_bits(self, case):
        shape, n_spatial = BLOCK_DFT_CASES[case]
        maps = random_complex(np.random.default_rng(shape[0]), shape)
        want = dft_forward(maps, ndim=n_spatial)
        got = dft_forward(maps, ndim=n_spatial, overwrite_x=True)
        assert np.shares_memory(got, maps)
        assert got.tobytes() == want.tobytes()


class TestBlockedSweep:
    """The sweep's elementwise passes run over blocks of filters; state and
    record must be the whole-array sweep's, bit for bit, and an untraced
    sweep's state the traced sweep's, in its input state's buffers."""

    def setup_case(self, monkeypatch, n_filters, kernel_shape, image_shape, budget):
        map_bytes = 16 * int(np.prod(image_shape))
        if budget is not None:
            monkeypatch.setattr(csc, "_BLOCK_BYTES", int(budget * map_bytes))
        step = max(1, min(n_filters, int(csc._BLOCK_BYTES // map_bytes)))
        blocks = csc._filter_blocks((n_filters,) + image_shape)
        assert [len(scratch) for _, scratch in blocks] == [
            min(step, n_filters - lo) for lo in range(0, n_filters, step)]
        return self.inputs(n_filters, kernel_shape, image_shape)

    @staticmethod
    def inputs(n_filters, kernel_shape, image_shape):
        rng = np.random.default_rng(n_filters)
        bank = random_bank(rng, n_filters, kernel_shape)
        x = random_complex(rng, image_shape)
        state = CodeState(*(random_complex(rng, (n_filters,) + image_shape) for _ in range(2)))
        return x, state, bank

    @pytest.mark.parametrize("n_filters,kernel_shape,image_shape,budget", BLOCK_CASES,
                             ids=BLOCK_IDS)
    @pytest.mark.parametrize("n_sweeps", [1, 2, 3])
    def test_matches_the_whole_array_sweep(self, monkeypatch, n_filters, kernel_shape,
                                           image_shape, budget, n_sweeps):
        x, state, bank = self.setup_case(monkeypatch, n_filters, kernel_shape, image_shape,
                                         budget)
        x_hat, spectra = spectra_of(x, bank)
        cfg = AdmmConfig(*SWEEP_WEIGHTS[1])
        want = oracles.copy_state(state)
        for _ in range(n_sweeps):
            state, trace, got = package_sweep(x_hat, state, spectra, cfg)
            want, want_trace, want_s_hat = oracles.admm_step_traced(x_hat, want, spectra, cfg)
            expected = sweep_record(want, want_trace, want_s_hat)
            assert all(same_bits(a, b) for a, b in zip(got, expected))
            assert trace.tau == want_trace.tau

    @pytest.mark.parametrize("n_filters,kernel_shape,image_shape,budget", BLOCK_CASES,
                             ids=BLOCK_IDS)
    @pytest.mark.parametrize("n_sweeps", [1, 2, 3])
    def test_zero_start_matches_a_sweep_from_zeros(self, monkeypatch, n_filters, kernel_shape,
                                                   image_shape, budget, n_sweeps):
        # None stands for zero codes, which the first sweep does not transform
        x, _, bank = self.setup_case(monkeypatch, n_filters, kernel_shape, image_shape, budget)
        x_hat, spectra = spectra_of(x, bank)
        cfg = AdmmConfig(*SWEEP_WEIGHTS[0])
        state, zeros = None, CodeState.zeros(n_filters, image_shape)
        want = oracles.copy_state(zeros)
        for _ in range(n_sweeps):
            state, _, got = package_sweep(x_hat, state, spectra, cfg)
            zeros, _, got_zeros = package_sweep(x_hat, zeros, spectra, cfg)
            want, want_trace, want_s_hat = oracles.admm_step_traced(x_hat, want, spectra, cfg)
            expected = sweep_record(want, want_trace, want_s_hat)
            assert all(same_bits(a, b) for a, b in zip(got, expected))
            assert all(same_bits(a, b) for a, b in zip(got_zeros, expected))

    def test_sweep_allocates_only_what_it_returns(self):
        # from a non-zero state the recorded v is the only fresh K-map: w is
        # transformed in s's buffer; the whole-array sweep also held s_hat,
        # u, z and d w_hat
        n_filters, image_shape = 64, (4, 32, 32)
        x, state, bank = self.inputs(n_filters, (3, 3), image_shape)
        x_hat, spectra = spectra_of(x, bank)
        cfg = AdmmConfig(*SWEEP_WEIGHTS[1])
        k_map = 16 * n_filters * int(np.prod(image_shape))
        peak = oracles.traced_peak(lambda: admm_step_traced(x_hat, state, spectra, cfg))
        assert peak <= 1.3 * k_map, peak / k_map

    @pytest.mark.parametrize("want_trace", [True, False], ids=["traced", "untraced"])
    def test_zero_start_records_no_s_hat(self, want_trace):
        # its s_hat = +0 + conj(d) c, which the VJP re-forms from the record's c
        x, _, bank = self.inputs(5, (3, 3), (3, 8, 6))
        x_hat, spectra = spectra_of(x, bank)
        cfg = AdmmConfig(*SWEEP_WEIGHTS[1])
        state, record = admm_step_traced(x_hat, None, spectra, cfg, want_trace)
        assert not hasattr(record, "s_hat")
        assert record.v is state.v if want_trace else record.v is None

    def test_no_record_holds_s_hat(self):
        # every sweep's s_hat is re-formed by its VJP from c and the input v
        assert [f.name for f in dataclasses.fields(csc.AdmmStepTrace)] == ["c", "v", "tau"]

    def test_traced_zero_start_allocates_only_what_it_returns(self):
        # the s and v it returns, the recorded v being the returned one, and
        # images and block scratch: no s_hat beside them
        n_filters, image_shape = 64, (4, 32, 32)
        x, _, bank = self.inputs(n_filters, (3, 3), image_shape)
        x_hat, spectra = spectra_of(x, bank)
        cfg = AdmmConfig(*SWEEP_WEIGHTS[1])
        k_map = 16 * n_filters * int(np.prod(image_shape))
        peak = oracles.traced_peak(lambda: admm_step_traced(x_hat, None, spectra, cfg))
        assert peak <= 2.3 * k_map, peak / k_map

    @pytest.mark.parametrize("n_filters,kernel_shape,image_shape,budget", BLOCK_CASES,
                             ids=BLOCK_IDS)
    @pytest.mark.parametrize("zero_start", [False, True], ids=["state", "zeros"])
    def test_untraced_matches_the_traced_sweep(self, monkeypatch, n_filters, kernel_shape,
                                               image_shape, budget, zero_start):
        x, state, bank = self.setup_case(monkeypatch, n_filters, kernel_shape, image_shape,
                                         budget)
        x_hat, spectra = spectra_of(x, bank)
        cfg = AdmmConfig(*SWEEP_WEIGHTS[1])
        untraced = None if zero_start else state
        traced = None if zero_start else oracles.copy_state(state)
        for _ in range(3):
            old = None if untraced is None else (untraced.s, untraced.v)
            untraced, record = admm_step_traced(x_hat, untraced, spectra, cfg, False)
            traced, want = admm_step_traced(x_hat, traced, spectra, cfg)
            new = (untraced.s, untraced.v)
            assert all(same_bits(a, b) for a, b in zip(new, (traced.s, traced.v)))
            assert same_bits(record.c, want.c) and record.tau == want.tau
            assert record.v is None
            # the record holds nothing of the returned state
            assert not any(np.shares_memory(record.c, a) for a in new)
            if old is not None:
                assert all(same_buffer(a, b) for a, b in zip(new, old))

    @pytest.mark.parametrize("zero_start,bound", [(False, 0.3), (True, 2.3)],
                             ids=["state", "zeros"])
    def test_untraced_sweep_allocates_only_what_it_returns(self, zero_start, bound):
        # from a state, c, conj(c) and the block scratch; from zeros, the s
        # and v it returns
        n_filters, image_shape = 64, (4, 32, 32)
        x, state, bank = self.inputs(n_filters, (3, 3), image_shape)
        x_hat, spectra = spectra_of(x, bank)
        cfg = AdmmConfig(*SWEEP_WEIGHTS[1])
        state = None if zero_start else state
        k_map = 16 * n_filters * int(np.prod(image_shape))
        peak = oracles.traced_peak(lambda: admm_step_traced(x_hat, state, spectra, cfg, False))
        assert peak <= bound * k_map, peak / k_map


# ---------------------------------------------------------------------------
# Synthesis
# ---------------------------------------------------------------------------

class TestSynthesis:
    def test_zero_codes(self):
        bank = random_bank(np.random.default_rng(11), 2, (3, 3))
        s = np.zeros((2, 5, 5), dtype=complex)
        assert not synthesis(bank, s).any()

    def test_delta_filter_passthrough(self):
        delta = np.zeros((1, 3, 3))
        delta[0, 1, 1] = 1.0  # center of a 3x3 kernel
        bank = FilterBank(delta)
        rng = np.random.default_rng(12)
        s = random_complex(rng, (1, 6, 6))
        assert np.allclose(synthesis(bank, s), s[0], atol=1e-12)

    def test_matches_direct_convolution_sum(self):
        rng = np.random.default_rng(13)
        bank = random_bank(rng, 2, (3, 3))
        s = random_complex(rng, (2, 4, 5))
        got = synthesis(bank, s)
        want = dense_synthesis(bank.kernels, s)
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))

    def test_matches_per_filter_convolve(self):
        rng = np.random.default_rng(14)
        bank = random_bank(rng, 3, (3, 3, 3))
        s = random_complex(rng, (3, 6, 6, 4))
        want = sum(circular_convolve(bank.kernels[k], s[k]) for k in range(3))
        assert np.allclose(synthesis(bank, s), want, atol=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(15)
        bank = random_bank(rng, 2, (3, 3))
        s = random_complex(rng, (2, 6, 6))
        t = random_complex(rng, (2, 6, 6))
        a, b = 1.5 - 0.5j, -0.2 + 2.0j
        lhs = synthesis(bank, a * s + b * t)
        rhs = a * synthesis(bank, s) + b * synthesis(bank, t)
        assert np.allclose(lhs, rhs, atol=1e-11)

    def test_adjoint_identity(self):
        rng = np.random.default_rng(16)
        bank = random_bank(rng, 2, (3, 3))
        s = random_complex(rng, (2, 6, 6))
        x = random_complex(rng, (6, 6))
        spectra = filter_spectra(bank, (6, 6))
        # adjoint maps image -> codes through conjugate spectra
        adj = np.fft.ifftn(np.conj(spectra) * np.fft.fftn(x), axes=(1, 2))
        lhs = np.vdot(synthesis(bank, s), x)
        rhs = np.vdot(s, adj)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


# ---------------------------------------------------------------------------
# Full ADMM steps
# ---------------------------------------------------------------------------

class TestAdmmStep:
    def test_matches_transcript(self):
        rng = np.random.default_rng(17)
        bank = random_bank(rng, 2, (3, 3))
        x = random_complex(rng, (4, 4))
        lam, alpha, beta = 0.9, 0.15, 1.4
        cfg = AdmmConfig(lam=lam, alpha=alpha, beta=beta)
        history = transcript_admm(x, bank.kernels, lam, alpha, beta, n_steps=5)
        state = CodeState.zeros(2, (4, 4))
        for s_ref, u_ref, z_ref in history:
            state, _ = admm_step(x, state, bank, cfg)
            u, z = prox_parts(state.v, cfg.threshold)
            assert np.max(np.abs(state.s - s_ref)) <= 1e-10
            assert np.max(np.abs(u - u_ref)) <= 1e-10
            assert np.max(np.abs(z - z_ref)) <= 1e-10

    def test_fixed_point_invariance(self):
        # Run to near-convergence, then one more step must not move the state.
        rng = np.random.default_rng(18)
        bank = random_bank(rng, 2, (3, 3))
        x = random_complex(rng, (6, 6))
        cfg = AdmmConfig(lam=1.0, alpha=0.4, beta=1.0)
        state = run_admm(x, bank, cfg, n_steps=4000)
        after, _ = admm_step(x, oracles.copy_state(state), bank, cfg)
        (u, z), (u_after, z_after) = (prox_parts(a.v, cfg.threshold) for a in (state, after))
        assert np.max(np.abs(after.s - state.s)) <= 1e-9
        assert np.max(np.abs(u_after - u)) <= 1e-9
        assert np.max(np.abs(z_after - z)) <= 1e-9

    def test_primal_residual_convergence(self):
        rng = np.random.default_rng(19)
        bank = random_bank(rng, 2, (3, 3))
        x = random_complex(rng, (8, 8))
        cfg = AdmmConfig(lam=1.0, alpha=0.5, beta=1.0)
        state = run_admm(x, bank, cfg, n_steps=200)
        u, _ = prox_parts(state.v, cfg.threshold)
        assert np.max(np.abs(u - state.s)) <= 1e-5

    def test_objective_improves_with_more_steps(self):
        rng = np.random.default_rng(20)
        cfg = AdmmConfig(lam=1.2, alpha=0.3, beta=1.0)
        for seed in range(3):
            local = np.random.default_rng(200 + seed)
            bank = random_bank(local, 2, (3, 3))
            x = random_complex(local, (8, 8))
            short = run_admm(x, bank, cfg, n_steps=1)
            long = run_admm(x, bank, cfg, n_steps=50)
            assert csc_objective(x, long, bank, cfg) <= csc_objective(x, short, bank, cfg) + 1e-10


# ---------------------------------------------------------------------------
# Objective
# ---------------------------------------------------------------------------

class TestObjective:
    def test_all_zero(self):
        bank = FilterBank(np.zeros((1, 1, 1)))
        cfg = AdmmConfig(lam=1.0, alpha=1.0, beta=1.0)
        state = CodeState.zeros(1, (2, 2))
        assert csc_objective(np.zeros((2, 2), dtype=complex), state, bank, cfg) == 0.0

    def test_zero_state_is_fidelity_only(self):
        rng = np.random.default_rng(22)
        bank = random_bank(rng, 2, (3, 3))
        x = random_complex(rng, (4, 4))
        cfg = AdmmConfig(lam=0.8, alpha=1.0, beta=1.0)
        state = CodeState.zeros(2, (4, 4))
        assert csc_objective(x, state, bank, cfg) == pytest.approx(0.4 * real_inner(x, x))

    def test_hand_computed_instance(self):
        # 2x2 image, K=1 identity kernel, lam=2, alpha=3, beta=4, so tau = 0.75;
        # v = 1.25 + 0.5j gives u = 0.5 and z = -0.75 - 0.5j:
        # fidelity (2/2)*||2*1 - 1||^2 = 4; L1 3*sum(|0.5|+|0|) = 6;
        # penalty (4/2)*||0.5 - 1 - 0.75 - 0.5j||^2 = 2*4*1.8125 = 14.5.
        bank = FilterBank(np.ones((1, 1, 1)))
        x = 2.0 * np.ones((2, 2), dtype=complex)
        s = np.ones((1, 2, 2), dtype=complex)
        v = (1.25 + 0.5j) * np.ones((1, 2, 2))
        cfg = AdmmConfig(lam=2.0, alpha=3.0, beta=4.0)
        got = csc_objective(x, CodeState(s=s, v=v), bank, cfg)
        assert got == pytest.approx(24.5, abs=1e-12)
