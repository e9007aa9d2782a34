"""Convolutional sparse coding ADMM tests.

Oracles used here are deliberately independent of the implementation:
a dense per-frequency K x K solve for the s-update, a 1-D grid scan for
the soft-threshold prox, a straight-line transcript built from explicit
DFT matrices for full ADMM steps, and hand arithmetic for the objective.
"""

import numpy as np
import pytest

from oracles import circular_convolve, csc_objective, run_admm

from ucdl.csc import (
    AdmmConfig,
    CodeState,
    FilterBank,
    admm_step_traced,
    dictionary_synthesis,
    filter_spectra,
    s_update_traced,
    soft_threshold,
)
from ucdl.errors import ShapeMismatch
from ucdl.tensors import norm2_sq


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


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

    def test_code_state_zeros(self):
        state = CodeState.zeros(2, (4, 4))
        assert state.s.shape == (2, 4, 4)
        assert state.u.dtype == np.complex128
        assert not state.s.any() and not state.u.any() and not state.z.any()


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
        s = s_update_traced(x, u, z, bank, gamma=0.7)[0]
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
        got = s_update_traced(x, u, z, bank, gamma)[0]
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
        s = s_update_traced(x, u, z, bank, gamma)[0]
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
            synth = dictionary_synthesis(bank, s)
            return 0.5 * lam * norm2_sq(x - synth) + 0.5 * beta * norm2_sq(u - s + z)

        s_new = s_update_traced(x, u, z, bank, gamma)[0]
        assert quad(s_new) <= quad(s_old) + 1e-12

    def test_batched_matches_loop(self):
        rng = np.random.default_rng(5)
        bank = random_bank(rng, 2, (3, 3))
        x = random_complex(rng, (4, 6, 6))  # batch of 4 frames
        u = random_complex(rng, (2, 4, 6, 6))
        z = random_complex(rng, (2, 4, 6, 6))
        batched = s_update_traced(x, u, z, bank, gamma=0.6)[0]
        for b in range(4):
            single = s_update_traced(x[b], u[:, b], z[:, b], bank, gamma=0.6)[0]
            assert np.allclose(batched[:, b], single, atol=1e-13)

    def test_rejects_nonpositive_gamma(self):
        bank = random_bank(np.random.default_rng(6), 1, (3, 3))
        x = np.zeros((4, 4), dtype=complex)
        u = np.zeros((1, 4, 4), dtype=complex)
        with pytest.raises(ValueError):
            s_update_traced(x, u, u, bank, gamma=0.0)


# ---------------------------------------------------------------------------
# u-update (prox) and dual update
# ---------------------------------------------------------------------------

class TestUUpdate:
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

    def test_componentwise_on_complex(self):
        v = np.array([1.0 - 0.2j, -0.4 + 2.0j])
        out = soft_threshold(v, 0.5)
        assert np.allclose(out, np.array([0.5 + 0.0j, 0.0 + 1.5j]))

    def test_penalty_scaling_invariance(self):
        # scaling lam, alpha and beta together keeps gamma and the threshold
        rng = np.random.default_rng(9)
        bank = random_bank(rng, 2, (3, 3))
        x = random_complex(rng, (4, 4))
        state = CodeState(*(random_complex(rng, (2, 4, 4)) for _ in range(3)))
        cfg = AdmmConfig(lam=0.8, alpha=0.3, beta=1.1)
        scaled = AdmmConfig(lam=0.8 * 7.0, alpha=0.3 * 7.0, beta=1.1 * 7.0)
        a, _ = admm_step_traced(x, state, bank, cfg)
        b, _ = admm_step_traced(x, state, bank, scaled)
        assert np.allclose(a.u, b.u, atol=1e-12)

    def test_z_update(self):
        # the dual ascent adds the primal residual u - s of the new iterate
        rng = np.random.default_rng(10)
        bank = random_bank(rng, 2, (3, 3))
        x = random_complex(rng, (3, 3))
        state = CodeState(*(random_complex(rng, (2, 3, 3)) for _ in range(3)))
        cfg = AdmmConfig(lam=1.0, alpha=0.2, beta=1.3)
        new, _ = admm_step_traced(x, state, bank, cfg)
        assert np.array_equal(new.z, state.z + (new.u - new.s))


# ---------------------------------------------------------------------------
# Synthesis
# ---------------------------------------------------------------------------

class TestSynthesis:
    def test_zero_codes(self):
        bank = random_bank(np.random.default_rng(11), 2, (3, 3))
        s = np.zeros((2, 5, 5), dtype=complex)
        assert not dictionary_synthesis(bank, s).any()

    def test_delta_filter_passthrough(self):
        delta = np.zeros((1, 3, 3))
        delta[0, 1, 1] = 1.0  # center of a 3x3 kernel
        bank = FilterBank(delta)
        rng = np.random.default_rng(12)
        s = random_complex(rng, (1, 6, 6))
        assert np.allclose(dictionary_synthesis(bank, s), s[0], atol=1e-12)

    def test_matches_direct_convolution_sum(self):
        rng = np.random.default_rng(13)
        bank = random_bank(rng, 2, (3, 3))
        s = random_complex(rng, (2, 4, 5))
        got = dictionary_synthesis(bank, s)
        want = dense_synthesis(bank.kernels, s)
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))

    def test_matches_per_filter_convolve(self):
        rng = np.random.default_rng(14)
        bank = random_bank(rng, 3, (3, 3, 3))
        s = random_complex(rng, (3, 6, 6, 4))
        want = sum(circular_convolve(bank.kernels[k], s[k]) for k in range(3))
        assert np.allclose(dictionary_synthesis(bank, s), want, atol=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(15)
        bank = random_bank(rng, 2, (3, 3))
        s = random_complex(rng, (2, 6, 6))
        t = random_complex(rng, (2, 6, 6))
        a, b = 1.5 - 0.5j, -0.2 + 2.0j
        lhs = dictionary_synthesis(bank, a * s + b * t)
        rhs = a * dictionary_synthesis(bank, s) + b * dictionary_synthesis(bank, t)
        assert np.allclose(lhs, rhs, atol=1e-11)

    def test_adjoint_identity(self):
        rng = np.random.default_rng(16)
        bank = random_bank(rng, 2, (3, 3))
        s = random_complex(rng, (2, 6, 6))
        x = random_complex(rng, (6, 6))
        spectra = filter_spectra(bank, (6, 6))
        # adjoint maps image -> codes through conjugate spectra
        adj = np.fft.ifftn(np.conj(spectra) * np.fft.fftn(x), axes=(1, 2))
        lhs = np.vdot(dictionary_synthesis(bank, s), x)
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
            state, _ = admm_step_traced(x, state, bank, cfg)
            assert np.max(np.abs(state.s - s_ref)) <= 1e-10
            assert np.max(np.abs(state.u - u_ref)) <= 1e-10
            assert np.max(np.abs(state.z - z_ref)) <= 1e-10

    def test_fixed_point_invariance(self):
        # Run to near-convergence, then one more step must not move the state.
        rng = np.random.default_rng(18)
        bank = random_bank(rng, 2, (3, 3))
        x = random_complex(rng, (6, 6))
        cfg = AdmmConfig(lam=1.0, alpha=0.4, beta=1.0)
        state = run_admm(x, bank, cfg, n_steps=4000)
        after, _ = admm_step_traced(x, state, bank, cfg)
        assert np.max(np.abs(after.s - state.s)) <= 1e-9
        assert np.max(np.abs(after.u - state.u)) <= 1e-9
        assert np.max(np.abs(after.z - state.z)) <= 1e-9

    def test_primal_residual_convergence(self):
        rng = np.random.default_rng(19)
        bank = random_bank(rng, 2, (3, 3))
        x = random_complex(rng, (8, 8))
        cfg = AdmmConfig(lam=1.0, alpha=0.5, beta=1.0)
        state = run_admm(x, bank, cfg, n_steps=200)
        assert np.max(np.abs(state.u - state.s)) <= 1e-5

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
        assert csc_objective(x, state, bank, cfg) == pytest.approx(0.4 * norm2_sq(x))

    def test_hand_computed_instance(self):
        # 2x2 image, K=1 identity kernel, lam=2, alpha=3, beta=4:
        # fidelity (2/2)*||2*1 - 1||^2 = 4; L1 3*sum(|0.5|+|0.25|) = 9;
        # penalty (4/2)*||(0.5+0.25j) - 1 + 0.5j||^2 = 2*4*0.8125 = 6.5.
        bank = FilterBank(np.ones((1, 1, 1)))
        x = 2.0 * np.ones((2, 2), dtype=complex)
        s = np.ones((1, 2, 2), dtype=complex)
        u = (0.5 + 0.25j) * np.ones((1, 2, 2))
        z = 0.5j * np.ones((1, 2, 2))
        cfg = AdmmConfig(lam=2.0, alpha=3.0, beta=4.0)
        got = csc_objective(x, CodeState(s=s, u=u, z=z), bank, cfg)
        assert got == pytest.approx(19.5, abs=1e-12)
