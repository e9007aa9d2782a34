"""Tensor arithmetic tests against naive direct-summation oracles."""

import numpy as np
import pytest

from oracles import circular_convolve

from ucdl.errors import ShapeMismatch
from ucdl.tensors import (
    crop_filter,
    dft_forward,
    dft_inverse,
    real_inner,
    zero_pad_filter,
)


def naive_dft2(x):
    """O(N^2) direct-summation 2D DFT, the oracle for dft_forward."""
    n1, n2 = x.shape
    out = np.zeros((n1, n2), dtype=complex)
    for k1 in range(n1):
        for k2 in range(n2):
            acc = 0.0 + 0.0j
            for m1 in range(n1):
                for m2 in range(n2):
                    acc += x[m1, m2] * np.exp(-2j * np.pi * (k1 * m1 / n1 + k2 * m2 / n2))
            out[k1, k2] = acc
    return out


def naive_circular_convolve2(kernel, image):
    """Direct double-loop centered circular convolution, 2D."""
    kh, kw = kernel.shape
    ch, cw = kh // 2, kw // 2
    nh, nw = image.shape
    out = np.zeros_like(image, dtype=complex)
    for n1 in range(nh):
        for n2 in range(nw):
            acc = 0.0 + 0.0j
            for i1 in range(kh):
                for i2 in range(kw):
                    acc += kernel[i1, i2] * image[(n1 - i1 + ch) % nh, (n2 - i2 + cw) % nw]
            out[n1, n2] = acc
    return out


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestDft:
    def test_delta_has_flat_spectrum(self):
        x = np.zeros((4, 5), dtype=complex)
        x[0, 0] = 1.0
        assert np.allclose(dft_forward(x), np.ones((4, 5)), atol=1e-14)

    def test_constant_has_dc_only_spectrum(self):
        c = 0.7 - 0.2j
        x = np.full((3, 4), c)
        spec = dft_forward(x)
        expected = np.zeros((3, 4), dtype=complex)
        expected[0, 0] = 12 * c
        assert np.allclose(spec, expected, atol=1e-12)

    def test_matches_naive_dft_oracle(self):
        rng = np.random.default_rng(0)
        x = random_complex(rng, (4, 4))
        got = dft_forward(x)
        want = naive_dft2(x)
        assert np.max(np.abs(got - want)) / np.max(np.abs(want)) < 1e-12

    def test_inverse_of_flat_spectrum_is_delta(self):
        spec = np.ones((4, 5), dtype=complex)
        x = dft_inverse(spec)
        expected = np.zeros((4, 5), dtype=complex)
        expected[0, 0] = 1.0
        assert np.allclose(x, expected, atol=1e-14)

    @pytest.mark.parametrize("shape", [(8, 8), (7, 5), (6, 4, 3), (5, 5, 5)])
    def test_roundtrip_identity(self, shape):
        rng = np.random.default_rng(hash(shape) % 2**31)
        x = random_complex(rng, shape)
        back = dft_inverse(dft_forward(x))
        assert np.max(np.abs(back - x)) / np.max(np.abs(x)) < 1e-12

    def test_inverse_is_linear(self):
        rng = np.random.default_rng(1)
        X = random_complex(rng, (6, 6))
        Y = random_complex(rng, (6, 6))
        a, b = 1.3 - 0.4j, -0.2 + 2.1j
        lhs = dft_inverse(a * X + b * Y)
        rhs = a * dft_inverse(X) + b * dft_inverse(Y)
        assert np.allclose(lhs, rhs, atol=1e-13)

    def test_trailing_axes_transform_leaves_batch_alone(self):
        rng = np.random.default_rng(2)
        batch = random_complex(rng, (3, 6, 5))
        got = dft_forward(batch, ndim=2)
        want = np.stack([dft_forward(batch[i]) for i in range(3)])
        assert np.allclose(got, want, atol=1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        x = random_complex(rng, (9, 7))
        a = dft_forward(x)
        b = dft_forward(x.copy())
        assert np.array_equal(a, b)


class TestCircularConvolve:
    def test_delta_kernel_is_identity(self):
        rng = np.random.default_rng(4)
        s = random_complex(rng, (6, 6))
        d = np.zeros((3, 3))
        d[1, 1] = 1.0
        assert np.allclose(circular_convolve(d, s), s, atol=1e-13)

    def test_shifted_delta_shifts_circularly(self):
        rng = np.random.default_rng(5)
        s = random_complex(rng, (6, 6))
        d = np.zeros((3, 3))
        d[2, 1] = 1.0  # one below center: shifts content down by one row
        got = circular_convolve(d, s)
        assert np.allclose(got, np.roll(s, 1, axis=0), atol=1e-13)

    def test_matches_direct_summation_oracle(self):
        rng = np.random.default_rng(6)
        d = rng.standard_normal((3, 3))
        s = random_complex(rng, (6, 6))
        got = circular_convolve(d, s)
        want = naive_circular_convolve2(d, s)
        assert np.max(np.abs(got - want)) / np.max(np.abs(want)) < 1e-12

    def test_even_kernel_matches_oracle(self):
        rng = np.random.default_rng(7)
        d = rng.standard_normal((2, 4))
        s = random_complex(rng, (5, 7))
        got = circular_convolve(d, s)
        want = naive_circular_convolve2(d, s)
        assert np.max(np.abs(got - want)) / np.max(np.abs(want)) < 1e-12

    def test_batched_matches_per_image(self):
        rng = np.random.default_rng(8)
        d = rng.standard_normal((3, 3))
        s = random_complex(rng, (4, 6, 6))
        got = circular_convolve(d, s)
        want = np.stack([circular_convolve(d, s[i]) for i in range(4)])
        assert np.allclose(got, want, atol=1e-12)

    def test_kernel_larger_than_image_rejected(self):
        with pytest.raises(ShapeMismatch):
            circular_convolve(np.ones((7, 7)), np.ones((6, 6), dtype=complex))


class TestZeroPad:
    def test_one_by_one_kernel_lands_at_origin(self):
        padded = zero_pad_filter(np.array([[2.5]]), (4, 4))
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = 2.5
        assert np.array_equal(padded, expected)

    def test_spectral_product_reproduces_spatial_convolution(self):
        rng = np.random.default_rng(9)
        d = rng.standard_normal((3, 3))
        s = random_complex(rng, (8, 8))
        spectral = dft_inverse(dft_forward(zero_pad_filter(d, (8, 8))) * dft_forward(s))
        spatial = circular_convolve(d, s)
        assert np.max(np.abs(spectral - spatial)) / np.max(np.abs(spatial)) < 1e-10

    @pytest.mark.parametrize("kshape", [(3, 3), (2, 4), (1, 1), (3, 3, 3)])
    def test_pad_then_crop_is_lossless(self, kshape):
        rng = np.random.default_rng(10)
        d = rng.standard_normal(kshape)
        target = tuple(4 * k + 1 for k in kshape)
        back = crop_filter(zero_pad_filter(d, target), kshape)
        assert np.array_equal(back.real, d)
        assert np.array_equal(back.imag, np.zeros(kshape))

    def test_oversized_kernel_rejected(self):
        with pytest.raises(ShapeMismatch):
            zero_pad_filter(np.ones((5, 5)), (4, 8))


class TestInnerProduct:
    def test_self_inner_product_is_squared_norm(self):
        rng = np.random.default_rng(11)
        a = random_complex(rng, (5, 5))
        sq = real_inner(a, a)
        assert isinstance(sq, float)
        assert np.isclose(sq, (a.real**2).sum() + (a.imag**2).sum())

    def test_parseval_scale_factor(self):
        rng = np.random.default_rng(13)
        a = random_complex(rng, (6, 7))
        a_hat = dft_forward(a)
        assert np.isclose(real_inner(a, a), real_inner(a_hat, a_hat) / a.size, rtol=1e-12)

    @pytest.mark.parametrize("kind", ["complex", "float64", "strided", "mixed"])
    def test_matches_vdot(self, kind):
        rng = np.random.default_rng(17)
        a = random_complex(rng, (4, 48, 48))
        b = a + 0.1 * random_complex(rng, a.shape)  # keeps Re<a, b> away from zero
        if kind == "float64":
            a, b = a.real.copy(), b.real.copy()
        elif kind == "strided":
            a, b = a[:, ::2].T, b[:, ::2].T
            assert not a.flags.c_contiguous
        elif kind == "mixed":
            b = b.real.copy()
        want = np.vdot(a, b).real
        assert abs(real_inner(a, b) - want) <= 1e-14 * abs(want)

    def test_same_bits_at_every_alignment(self):
        # the reduction's order follows the size alone, so shifting both
        # buffers by 8 bytes at a time gives the same bits
        rng = np.random.default_rng(19)
        n = 2 * 36864
        x, y = rng.standard_normal(n), rng.standard_normal(n)
        values = set()
        for offset in range(8):
            xs, ys = np.empty(n + 8), np.empty(n + 8)
            xs[offset:offset + n] = x
            ys[7 - offset:7 - offset + n] = y
            xs, ys = xs[offset:offset + n], ys[7 - offset:7 - offset + n]
            values.add(real_inner(xs, ys))
            values.add(real_inner(xs.view(np.complex128), ys.view(np.complex128)))
        assert len(values) == 1
