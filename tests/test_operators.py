"""Measurement operator tests: adjointness, linearity, noise statistics."""

import numpy as np
import pytest

from ucdl.errors import ShapeMismatch
from ucdl.operators import (
    CoilMaps,
    KSpaceSample,
    SamplingMask,
    adjoint_apply,
    forward_apply,
    load_kspace_sample,
    make_coil_maps,
    make_mask,
    normal_apply,
    save_kspace_sample,
    simulate_measurement,
)


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_setup(rng, shape=(8, 8, 3), n_coils=2, accel=2.5):
    coils = make_coil_maps(n_coils, shape[:2])
    mask = make_mask(shape, accel=accel, seed=int(rng.integers(2**31)))
    return coils, mask


def unit_coil_full_mask(shape):
    coils = CoilMaps(np.ones((1,) + shape[:2], dtype=complex))
    mask = SamplingMask(np.ones(shape, dtype=bool))
    return coils, mask


class TestForwardAdjoint:
    def test_zero_image_gives_zero_data(self):
        coils, mask = random_setup(np.random.default_rng(0))
        y = forward_apply(np.zeros((8, 8, 3), dtype=complex), coils, mask)
        assert np.all(y == 0)

    def test_unit_coil_full_mask_is_plain_dft(self):
        rng = np.random.default_rng(1)
        x = random_complex(rng, (6, 6, 2))
        coils, mask = unit_coil_full_mask((6, 6, 2))
        y = forward_apply(x, coils, mask)
        want = np.fft.fft2(x, axes=(0, 1), norm="ortho")[mask.mask]
        assert np.allclose(y, want, atol=1e-13)

    def test_adjoint_of_full_mask_unit_coil_is_inverse_dft(self):
        rng = np.random.default_rng(2)
        coils, mask = unit_coil_full_mask((6, 6, 2))
        y = random_complex(rng, (1, mask.num_sampled))
        x = adjoint_apply(y, coils, mask)
        full = y.reshape(6, 6, 2)
        assert np.allclose(x, np.fft.ifft2(full, axes=(0, 1), norm="ortho"), atol=1e-13)

    def test_adjoint_of_zero_is_zero(self):
        coils, mask = random_setup(np.random.default_rng(3))
        x = adjoint_apply(np.zeros((2, mask.num_sampled), dtype=complex), coils, mask)
        assert np.all(x == 0)

    @pytest.mark.parametrize("seed", range(10))
    def test_adjoint_identity(self, seed):
        rng = np.random.default_rng(100 + seed)
        shape = (int(rng.integers(4, 17)), int(rng.integers(4, 17)), int(rng.integers(1, 5)))
        n_coils = int(rng.integers(1, 4))
        coils, mask = random_setup(rng, shape, n_coils)
        x = random_complex(rng, shape)
        y = random_complex(rng, (n_coils, mask.num_sampled))
        ax = forward_apply(x, coils, mask)
        ahy = adjoint_apply(y, coils, mask)
        defect = abs(np.vdot(ax, y) - np.vdot(x, ahy))
        scale = np.linalg.norm(ax) * np.linalg.norm(y)
        assert defect / scale <= 1e-10

    def test_linearity(self):
        rng = np.random.default_rng(4)
        coils, mask = random_setup(rng)
        x1 = random_complex(rng, (8, 8, 3))
        x2 = random_complex(rng, (8, 8, 3))
        a, b = 0.7 - 1.1j, 2.3 + 0.4j
        lhs = forward_apply(a * x1 + b * x2, coils, mask)
        rhs = a * forward_apply(x1, coils, mask) + b * forward_apply(x2, coils, mask)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(rhs)))

    def test_normal_operator_psd_and_fused(self):
        rng = np.random.default_rng(5)
        coils, mask = random_setup(rng)
        for _ in range(20):
            x = random_complex(rng, (8, 8, 3))
            hx = normal_apply(x, coils, mask)
            two_step = adjoint_apply(forward_apply(x, coils, mask), coils, mask)
            assert np.allclose(hx, two_step, atol=1e-13)
            quad = np.vdot(x, hx)
            assert abs(quad.imag) < 1e-10
            assert quad.real >= -1e-12

    def test_masking_idempotence(self):
        # Forward of an adjoint image only ever sees the masked k-space support.
        rng = np.random.default_rng(6)
        coils, mask = random_setup(rng)
        y = random_complex(rng, (2, mask.num_sampled))
        x = adjoint_apply(y, coils, mask)
        again = forward_apply(x, coils, mask)
        # Full-plane computation restricted to the mask support agrees.
        full = np.fft.fft2(coils.maps[:, :, :, None] * x[None], axes=(1, 2), norm="ortho")
        assert np.allclose(again, full[:, mask.mask], atol=1e-12)

    def test_shape_mismatch_rejected(self):
        coils, mask = random_setup(np.random.default_rng(7))
        with pytest.raises(ShapeMismatch):
            forward_apply(np.zeros((4, 4, 3), dtype=complex), coils, mask)
        with pytest.raises(ShapeMismatch):
            adjoint_apply(np.zeros((5, 3), dtype=complex), coils, mask)


class TestSimulation:
    def test_zero_sigma_is_exact_forward(self):
        rng = np.random.default_rng(8)
        coils, mask = random_setup(rng)
        x = random_complex(rng, (8, 8, 3))
        sample = simulate_measurement(x, coils, mask, sigma=0.0, rng_seed=11)
        assert np.array_equal(sample.y, forward_apply(x, coils, mask))

    def test_default_sigma(self):
        from ucdl.operators import DEFAULT_NOISE_SIGMA

        assert DEFAULT_NOISE_SIGMA == 0.02

    def test_seed_reproducibility(self):
        rng = np.random.default_rng(9)
        coils, mask = random_setup(rng)
        x = random_complex(rng, (8, 8, 3))
        a = simulate_measurement(x, coils, mask, sigma=0.05, rng_seed=42)
        b = simulate_measurement(x, coils, mask, sigma=0.05, rng_seed=42)
        assert np.array_equal(a.y, b.y)

    def test_noise_variance_matches_sigma(self):
        shape = (128, 128, 4)
        coils = make_coil_maps(2, shape[:2])
        mask = SamplingMask(np.ones(shape, dtype=bool))
        x = np.zeros(shape, dtype=complex)
        sigma = 0.02
        sample = simulate_measurement(x, coils, mask, sigma=sigma, rng_seed=3)
        noise = sample.y  # clean signal is zero
        comps = np.concatenate([noise.real.ravel(), noise.imag.ravel()])
        assert comps.size >= 2 * 10**5
        assert abs(comps.var() - sigma**2) / sigma**2 < 0.05


class TestSynthesis:
    def test_coil_maps_sum_of_squares_is_one(self):
        for n_coils in (1, 3, 8):
            coils = make_coil_maps(n_coils, (16, 12))
            ssq = (np.abs(coils.maps) ** 2).sum(axis=0)
            assert np.allclose(ssq, 1.0, atol=1e-12)

    @pytest.mark.parametrize("family", ["columns", "points"])
    def test_mask_properties(self, family):
        shape = (32, 32, 6)
        mask = make_mask(shape, accel=4.0, family=family, seed=5)
        frac = mask.num_sampled / mask.mask.size
        assert abs(frac - 0.25) < 0.05
        assert mask.mask.any(axis=(0, 1)).all()
        # DC (k-space origin) is always sampled
        assert mask.mask[0, 0, :].all() if family == "points" else mask.mask[:, 0, :].all()

    def test_mask_determinism(self):
        a = make_mask((16, 16, 3), accel=3.0, seed=7)
        b = make_mask((16, 16, 3), accel=3.0, seed=7)
        assert np.array_equal(a.mask, b.mask)

    def test_invalid_mask_rejected(self):
        bad = np.zeros((4, 4, 2), dtype=bool)
        bad[:, :, 0] = True  # frame 1 has no samples
        with pytest.raises(ValueError):
            SamplingMask(bad)


class TestSerialization:
    def test_sample_roundtrip(self, tmp_path):
        rng = np.random.default_rng(10)
        coils, mask = random_setup(rng)
        x = random_complex(rng, (8, 8, 3))
        sample = simulate_measurement(x, coils, mask, sigma=0.02, rng_seed=1)
        save_kspace_sample(tmp_path / "s0", sample, seed=1)
        back = load_kspace_sample(tmp_path / "s0")
        assert np.array_equal(back.y, sample.y)
        assert np.array_equal(back.mask.mask, sample.mask.mask)
        assert np.array_equal(back.coils.maps, sample.coils.maps)
        assert back.noise_sigma == sample.noise_sigma

    def test_sample_shape_validation(self):
        coils = make_coil_maps(2, (8, 8))
        mask = make_mask((8, 8, 2), accel=2.0)
        with pytest.raises(ShapeMismatch):
            KSpaceSample(y=np.zeros((2, 3), dtype=complex), mask=mask, coils=coils)
