"""Measurement operator tests: adjointness, linearity, noise statistics."""

import re

import numpy as np
import pytest
import scipy.fft

from oracles import frames_first, two_branch_mask
from ucdl.errors import ShapeMismatch
from ucdl.io import write_tensor
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
            hx = normal_apply(frames_first(x), coils, mask)
            two_step = adjoint_apply(forward_apply(x, coils, mask), coils, mask)
            assert np.allclose(hx, frames_first(two_step), atol=1e-13)
            quad = np.vdot(frames_first(x), hx)
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
        # the normal operator takes frames-first images only
        with pytest.raises(ShapeMismatch):
            normal_apply(np.zeros((8, 8, 3), dtype=complex), coils, mask)


def dense_normal(x, coils, mask):
    """A^H A x through the full 2D DFT pair, whatever the mask, in the
    public layout."""
    kspace = np.fft.fft2(coils.maps[:, :, :, None] * x[None], axes=(1, 2), norm="ortho")
    kspace *= mask.mask
    imgs = np.fft.ifft2(kspace, axes=(1, 2), norm="ortho")
    return (np.conj(coils.maps)[:, :, :, None] * imgs).sum(axis=0)


def transformed_axes(monkeypatch, x, coils, mask):
    """The axes of each scipy.fft transform that one normal_apply runs on
    the frames-first `x`."""
    called = []
    for name in ("fftn", "ifftn", "fft2", "ifft2", "fft", "ifft"):
        original = getattr(scipy.fft, name)

        def spy(*args, _name=name, _original=original, **kwargs):
            called.append((_name, tuple(kwargs["axes"])))
            return _original(*args, **kwargs)

        monkeypatch.setattr(scipy.fft, name, spy)
    normal_apply(x, coils, mask)
    return called


def flip_one_entry(pattern):
    pattern[5, 7, 2] = not pattern[5, 7, 2]
    return pattern


def relative_error(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


class TestNormalPaths:
    @pytest.mark.parametrize("shape", [(32, 32, 1), (12, 20, 1), (32, 32, 8), (48, 48, 16),
                                       (12, 20, 5)], ids=lambda s: "x".join(map(str, s)))
    def test_columns_ky_path_matches_2d(self, shape, monkeypatch):
        rng = np.random.default_rng(shape[1] * shape[2])
        coils = make_coil_maps(3, shape[:2])
        mask = make_mask(shape, accel=4.0, family="columns", seed=shape[2])
        x = random_complex(rng, shape)
        assert mask.separable
        assert mask.weights.shape == (shape[2], 1, shape[1])
        assert relative_error(normal_apply(frames_first(x), coils, mask),
                              frames_first(dense_normal(x, coils, mask))) <= 1e-13
        assert transformed_axes(monkeypatch, frames_first(x), coils, mask) == [
            ("fftn", (3,)), ("ifftn", (3,))]

    @pytest.mark.parametrize("alter", [flip_one_entry, lambda p: p.transpose(1, 0, 2)],
                             ids=["flipped-entry", "kx-lines"])
    def test_nonseparable_columns_take_2d_path(self, alter, monkeypatch):
        shape = (16, 16, 4)
        rng = np.random.default_rng(20)
        coils = make_coil_maps(3, shape[:2])
        pattern = make_mask(shape, accel=4.0, family="columns", seed=3).mask.copy()
        mask = SamplingMask(alter(pattern))
        x = random_complex(rng, shape)
        assert not mask.separable
        assert mask.weights.shape == (shape[2], shape[0], shape[1])
        assert relative_error(normal_apply(frames_first(x), coils, mask),
                              frames_first(dense_normal(x, coils, mask))) <= 1e-13
        assert transformed_axes(monkeypatch, frames_first(x), coils, mask) == [
            ("fftn", (2, 3)), ("ifftn", (2, 3))]

    @pytest.mark.parametrize("seed", range(4))
    def test_points_take_2d_path(self, seed, monkeypatch):
        shape = (16, 12, 3)
        rng = np.random.default_rng(30 + seed)
        coils = make_coil_maps(8, shape[:2])
        mask = make_mask(shape, accel=4.0, family="points", seed=seed)
        x = random_complex(rng, shape)
        assert not mask.separable
        assert relative_error(normal_apply(frames_first(x), coils, mask),
                              frames_first(dense_normal(x, coils, mask))) <= 1e-13
        assert transformed_axes(monkeypatch, frames_first(x), coils, mask) == [
            ("fftn", (2, 3)), ("ifftn", (2, 3))]

    @pytest.mark.parametrize("family", ["columns", "points"])
    def test_normal_is_gram_of_forward(self, family):
        shape = (16, 16, 4)
        rng = np.random.default_rng(40)
        coils = make_coil_maps(3, shape[:2])
        mask = make_mask(shape, accel=3.0, family=family, seed=8)
        x = random_complex(rng, shape)
        y = random_complex(rng, shape)
        lhs = np.vdot(frames_first(x), normal_apply(frames_first(y), coils, mask))
        rhs = np.vdot(forward_apply(x, coils, mask), forward_apply(y, coils, mask))
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs)

    @pytest.mark.parametrize("family", ["columns", "points"])
    def test_separability_survives_roundtrip(self, family, tmp_path):
        shape = (8, 8, 3)
        rng = np.random.default_rng(50)
        coils = make_coil_maps(2, shape[:2])
        mask = make_mask(shape, accel=2.0, family=family, seed=9)
        sample = simulate_measurement(random_complex(rng, shape), coils, mask, sigma=0.0)
        save_kspace_sample(tmp_path / "s", sample)
        back = load_kspace_sample(tmp_path / "s").mask
        assert back.separable == mask.separable == (family == "columns")
        assert np.array_equal(back.weights, mask.weights)


class TestCachedArrays:
    def test_coil_maps_are_read_only(self):
        coils = make_coil_maps(2, (6, 6))
        for array in (coils.maps, coils.conj_maps):
            with pytest.raises(ValueError):
                array[0, 0, 0] = 0.0

    def test_mask_is_read_only(self):
        mask = make_mask((6, 6, 2), accel=2.0)
        for array in (mask.mask, mask.weights):
            with pytest.raises(ValueError):
                array[0, 0] = False

    def test_inputs_are_copied(self):
        maps = np.ones((1, 4, 4), dtype=complex)
        pattern = np.ones((4, 4, 2), dtype=bool)
        coils, mask = CoilMaps(maps), SamplingMask(pattern)
        maps[0, 0, 0] = 2.0
        pattern[0, 0, 0] = False
        assert coils.maps[0, 0, 0] == 1.0 and coils.conj_maps[0, 0, 0] == 1.0
        assert mask.mask.all() and mask.separable
        assert maps.flags.writeable and pattern.flags.writeable


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

    @pytest.mark.parametrize("sigma", [np.nan, np.inf, -0.1])
    def test_bad_sigma_rejected(self, sigma):
        rng = np.random.default_rng(8)
        coils, mask = random_setup(rng)
        with pytest.raises(ValueError, match="^sigma must be a finite number >= 0, got "):
            simulate_measurement(random_complex(rng, (8, 8, 3)), coils, mask, sigma=sigma)


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

    @pytest.mark.parametrize("shape", [(3, 30, 2), (6, 15, 3), (1, 8, 2), (8, 8, 1),
                                       (5, 7, 2), (30, 3, 2), (12, 20, 5), (16, 16, 4),
                                       (32, 32, 8), (48, 48, 3)],
                             ids=lambda s: "x".join(map(str, s)))
    @pytest.mark.parametrize("family", ["columns", "points"])
    def test_mask_matches_two_branch_draw(self, family, shape):
        for accel in (1.0, 2.5, 4.0, 8.0):
            for center_fraction in (0.05, 0.08, 0.3):
                for seed in range(3):
                    got = make_mask(shape, accel=accel, family=family, seed=seed,
                                    center_fraction=center_fraction).mask
                    want = two_branch_mask(shape, accel=accel, family=family, seed=seed,
                                           center_fraction=center_fraction)
                    assert np.array_equal(got, want), (accel, center_fraction, seed)

    def test_unknown_mask_family(self):
        with pytest.raises(ValueError, match="unknown mask family"):
            make_mask((8, 8, 2), family="radial")

    @pytest.mark.parametrize("accel", [np.nan, np.inf, 0.5])
    def test_bad_accel_rejected(self, accel):
        with pytest.raises(ValueError, match="^accel must be a finite number >= 1, got "):
            make_mask((8, 8, 2), accel=accel)

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

    @pytest.mark.parametrize("value,message", [(np.nan, "non-finite entries"),
                                               (0.7, "entries must be 0 or 1"),
                                               (1j, "entries must be 0 or 1"),
                                               (2.0, "entries must be 0 or 1")])
    def test_mask_entries_other_than_zero_or_one_rejected(self, tmp_path, value, message):
        rng = np.random.default_rng(10)
        coils, mask = random_setup(rng)
        sample = simulate_measurement(random_complex(rng, (8, 8, 3)), coils, mask, sigma=0.0)
        save_kspace_sample(tmp_path, sample)
        path = tmp_path / "mask.bin"
        values = mask.mask.astype(complex)
        values[np.unravel_index(np.argmax(mask.mask), mask.shape)] = value  # a sampled point
        write_tensor(path, values)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {message}$"):
            load_kspace_sample(tmp_path)
