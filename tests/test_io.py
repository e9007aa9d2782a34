"""On-disk tensor and image format tests."""

import struct

import numpy as np
import pytest

from ucdl.io import (
    MAGIC,
    TensorFormatError,
    quantize_window,
    read_tensor,
    write_pgm,
    write_tensor,
)


class TestTensorFormat:
    @pytest.mark.parametrize("shape", [(3,), (4, 5), (2, 3, 4), (1, 1, 1, 7)])
    def test_roundtrip_bitexact(self, tmp_path, shape):
        rng = np.random.default_rng(hash(shape) % 2**31)
        arr = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(np.complex128)
        p = tmp_path / "t.bin"
        write_tensor(p, arr)
        back = read_tensor(p)
        assert back.shape == arr.shape
        assert back.dtype == np.complex128
        assert np.array_equal(back, arr)

    def test_noncontiguous_input(self, tmp_path):
        arr = np.arange(24, dtype=complex).reshape(4, 6)[:, ::2]
        p = tmp_path / "t.bin"
        write_tensor(p, arr)
        assert np.array_equal(read_tensor(p), arr)

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "t.bin"
        write_tensor(p, np.ones((2, 2), dtype=complex))
        raw = bytearray(p.read_bytes())
        raw[:4] = b"XXXX"
        p.write_bytes(bytes(raw))
        with pytest.raises(TensorFormatError):
            read_tensor(p)

    def test_bad_version_rejected(self, tmp_path):
        p = tmp_path / "t.bin"
        write_tensor(p, np.ones((2, 2), dtype=complex))
        raw = bytearray(p.read_bytes())
        raw[4:8] = struct.pack("<I", 999)
        p.write_bytes(bytes(raw))
        with pytest.raises(TensorFormatError):
            read_tensor(p)

    def test_truncated_payload_rejected(self, tmp_path):
        p = tmp_path / "t.bin"
        write_tensor(p, np.ones((4, 4), dtype=complex))
        raw = p.read_bytes()
        p.write_bytes(raw[:-8])
        with pytest.raises(TensorFormatError):
            read_tensor(p)

    @pytest.mark.parametrize("keep", [6, 10, 16, 20])
    def test_truncated_header_rejected(self, tmp_path, keep):
        p = tmp_path / "t.bin"
        write_tensor(p, np.ones((4, 4), dtype=complex))
        p.write_bytes(p.read_bytes()[:keep])
        with pytest.raises(TensorFormatError, match="truncated header"):
            read_tensor(p)

    def test_header_layout(self, tmp_path):
        p = tmp_path / "t.bin"
        write_tensor(p, np.zeros((2, 3), dtype=complex))
        raw = p.read_bytes()
        assert raw[:4] == MAGIC
        version, ndim = struct.unpack_from("<II", raw, 4)
        assert version == 1 and ndim == 2
        dims = struct.unpack_from("<2Q", raw, 12)
        assert dims == (2, 3)


class TestPgm:
    def test_quantize_window_endpoints(self):
        vals = np.array([-1.0, 0.0, 1.0, 2.0])
        q = quantize_window(vals, -1.0, 1.0)
        assert q.dtype == np.uint8
        assert q[0] == 0 and q[2] == 255 and q[3] == 255
        assert q[1] == 127 or q[1] == 128

    def test_pgm_bytes(self, tmp_path):
        img = np.array([[0, 128], [255, 64]], dtype=np.uint8)
        p = tmp_path / "im.pgm"
        write_pgm(p, img)
        raw = p.read_bytes()
        header, payload = raw.split(b"255\n", 1)
        assert header.startswith(b"P5\n")
        assert b"2 2" in header
        assert payload == bytes([0, 128, 255, 64])

    def test_pgm_rejects_wrong_dtype(self, tmp_path):
        with pytest.raises(ValueError):
            write_pgm(tmp_path / "x.pgm", np.zeros((2, 2), dtype=float))

    def test_scalar_tensor_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_tensor(tmp_path / "s.bin", np.complex128(1.0 + 2.0j))
