"""On-disk tensor, manifest and image format tests."""

import json
import os
import re
import struct
from pathlib import Path

import numpy as np
import pytest

from oracles import listing
import ucdl.io
from ucdl.cli import _build_parser
from ucdl.io import (
    MAGIC,
    TensorFormatError,
    all_or_nothing,
    make_directory,
    quantize_window,
    read_manifest,
    read_tensor,
    reserve,
    write_json,
    write_pgm,
    write_tensor,
)
from ucdl.metrics import MetricReport, append_report_csv
from ucdl.network import NetworkConfig, NetworkParams, init_network, save_checkpoint
from ucdl.operators import make_coil_maps, make_mask, save_kspace_sample, simulate_measurement
from ucdl.training import EpochRecord, _write_run_config, write_loss_log


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

    @pytest.mark.parametrize("extra", [1, 40])
    def test_bytes_after_the_payload_rejected(self, tmp_path, extra):
        p = tmp_path / "t.bin"
        write_tensor(p, np.arange(3, dtype=complex))
        p.write_bytes(p.read_bytes() + bytes(extra))
        with pytest.raises(TensorFormatError, match=f"t.bin: {extra} bytes after the payload"):
            read_tensor(p)

    @pytest.mark.parametrize("keep", [6, 10, 16, 20])
    def test_truncated_header_rejected(self, tmp_path, keep):
        p = tmp_path / "t.bin"
        write_tensor(p, np.ones((4, 4), dtype=complex))
        p.write_bytes(p.read_bytes()[:keep])
        with pytest.raises(TensorFormatError, match="truncated header"):
            read_tensor(p)

    @pytest.mark.parametrize("dims,message", [
        ((2**20, 2**20), "truncated payload"), ((2**64 - 1,) * 2, "truncated payload"),
    ])
    def test_header_promising_more_than_the_file_rejected(self, tmp_path, dims, message):
        # a 64-byte file whose dims claim far more payload than it holds
        p = tmp_path / "t.bin"
        write_tensor(p, np.zeros((1, 2), dtype=complex))
        raw = bytearray(p.read_bytes())
        raw[12:28] = struct.pack("<2Q", *dims)
        p.write_bytes(bytes(raw))
        assert len(raw) == 64
        with pytest.raises(TensorFormatError, match=message):
            read_tensor(p)

    def test_ndim_beyond_the_file_rejected(self, tmp_path):
        p = tmp_path / "t.bin"
        write_tensor(p, np.zeros((1, 2), dtype=complex))
        raw = bytearray(p.read_bytes())
        raw[8:12] = struct.pack("<I", 2**32 - 1)
        p.write_bytes(bytes(raw))
        with pytest.raises(TensorFormatError, match="truncated header"):
            read_tensor(p)

    def test_payload_is_not_copied(self, tmp_path, monkeypatch):
        p = tmp_path / "t.bin"
        write_tensor(p, np.arange(6, dtype=complex).reshape(2, 3))
        read = []
        original = np.fromfile

        def spy(*args, **kwargs):
            read.append(original(*args, **kwargs))
            return read[-1]

        monkeypatch.setattr(np, "fromfile", spy)
        out = read_tensor(p)
        assert np.shares_memory(out, read[0])
        assert np.array_equal(out, np.arange(6).reshape(2, 3))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(0, np.nan)],
                             ids=["nan", "inf", "-inf", "nan-imag"])
    def test_non_finite_entries_rejected(self, tmp_path, value):
        p = tmp_path / "t.bin"
        arr = np.ones((3, 4), dtype=complex)
        arr[2, 1] = value
        write_tensor(p, arr)
        with pytest.raises(TensorFormatError, match=f"^{re.escape(str(p))}: non-finite entries$"):
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


class TestManifest:
    def test_reads_object_with_keys(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"a": 1, "b": ["2"]}')
        assert read_manifest(path, {"a": float, "b": list[str]}) == {"a": 1, "b": ["2"]}

    def test_missing_key_names_file_and_key(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"a": 1}')
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: missing key 'b'$"):
            read_manifest(path, {"a": float, "b": str})

    def test_rejects_non_object(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="expected a JSON object"):
            read_manifest(path, {})

    @pytest.mark.parametrize("expected,value,accepted", [
        (float, 1, True), (float, -2.5, True), (float, True, False), (float, "1", False),
        (float, [1], False), (str, "a", True), (str, 7, False), (dict, {}, True),
        (dict, 5, False), (list[str], [], True), (list[str], ["a"], True),
        (list[str], [1], False), (list[str], 3, False), (list[str], "ab", False),
    ])
    def test_checks_the_type_of_each_key(self, tmp_path, expected, value, accepted):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"k": value}))
        if accepted:
            assert read_manifest(path, {"k": expected}) == {"k": value}
        else:
            with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: key 'k' must be "):
                read_manifest(path, {"k": expected})

    @pytest.mark.parametrize("text,shown", [("NaN", "nan"), ("Infinity", "inf"),
                                            ("-Infinity", "-inf"), ("1e400", "inf"),
                                            ("1" + "0" * 400, None)],
                             ids=["NaN", "Infinity", "-Infinity", "1e400", "huge-int"])
    def test_rejects_non_finite_numbers(self, tmp_path, text, shown):
        path = tmp_path / "m.json"
        path.write_text(f'{{"k": {text}}}')
        message = f"^{re.escape(str(path))}: key 'k' must be a finite number, got "
        if shown is not None:
            message += re.escape(shown) + "$"
        with pytest.raises(ValueError, match=message):
            read_manifest(path, {"k": float})


def test_sample_manifest_is_written_like_the_others(tmp_path):
    save_sample(tmp_path, 3)
    text = (tmp_path / "sample.json").read_text()
    write_json(tmp_path / "again.json", json.loads(text))
    assert (tmp_path / "again.json").read_text() == text


class HalfWriter:
    """A file whose first write stores half its data and then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        self.fh.flush()
        raise OSError("no space left on device")


CONFIG = NetworkConfig(mode="2d", n_filters=2, kernel_size=3)


def save_params(directory, version):
    params = NetworkParams(init_network(CONFIG).filters, log_lam=float(version))
    save_checkpoint(directory, params, CONFIG)


def save_sample(directory, version):
    coils = make_coil_maps(1, (4, 4))
    sample = simulate_measurement(np.ones((4, 4, 2)), coils, make_mask((4, 4, 2)), sigma=0.0)
    save_kspace_sample(directory, sample, seed=version)


def evaluate_report(directory, version):
    """`ucdl evaluate --json` of two tensors that differ more with `version`;
    run without `main`, which would turn the error into an exit status."""
    target = np.ones((24, 24, 1), dtype=complex)
    write_tensor(directory / "target.bin", target)
    write_tensor(directory / "recon.bin", target + 0.1 * version * np.eye(24)[:, :, None])
    args = _build_parser().parse_args([
        "evaluate", "--recon", str(directory / "recon.bin"),
        "--target", str(directory / "target.bin"), "--json", str(directory / "report.json"),
    ])
    args.func(args)


def append_csv_report(directory, version):
    """One `ucdl evaluate --csv` row per call, its values set by `version`."""
    report = MetricReport(psnr=20.0 + version, nrmse=0.1, ssim=0.9, roi=((0, 0), (4, 4)))
    append_report_csv(directory / "report.csv", report, label=f"v{version}")


# (file, writer of a given version of it into a directory)
ATOMIC_WRITERS = {
    "tensor.bin": lambda d, v: write_tensor(d / "tensor.bin", np.full(5, v + 1j)),
    "checkpoint.json": save_params,
    "losses.csv": lambda d, v: write_loss_log(d / "losses.csv", [EpochRecord(0, v, v)]),
    "config.json": lambda d, v: _write_run_config(d, CONFIG, epochs=v, seed=0, lr=1e-3),
    "sample.json": save_sample,
    "report.json": evaluate_report,
    "report.csv": append_csv_report,
    "preview.pgm": lambda d, v: write_pgm(d / "preview.pgm", np.full((2, 3), v, np.uint8)),
}


class TestAtomicWrites:
    @pytest.mark.parametrize("name", sorted(ATOMIC_WRITERS))
    def test_failed_write_keeps_the_old_file(self, tmp_path, monkeypatch, name):
        write = ATOMIC_WRITERS[name]
        write(tmp_path, 1)
        old = (tmp_path / name).read_bytes()
        listing = sorted(os.listdir(tmp_path))

        def failing_open(path, mode="r"):
            fh = open(path, mode)
            return HalfWriter(fh) if Path(path).name.startswith(f".{name}.") else fh

        monkeypatch.setattr(ucdl.io, "open", failing_open, raising=False)
        with pytest.raises(OSError, match="no space"):
            write(tmp_path, 2)
        assert (tmp_path / name).read_bytes() == old
        assert sorted(os.listdir(tmp_path)) == listing
        monkeypatch.undo()
        write(tmp_path, 2)
        assert (tmp_path / name).read_bytes() != old
        assert sorted(os.listdir(tmp_path)) == listing

    def test_directory_in_place_rejected_before_the_block(self, tmp_path):
        (tmp_path / "out").mkdir()
        ran = []
        with pytest.raises(IsADirectoryError, match=f"^{re.escape(str(tmp_path / 'out'))}: "):
            with ucdl.io.atomic_write(tmp_path / "out") as fh:
                ran.append(fh)
        assert ran == [] and os.listdir(tmp_path) == ["out"]


class TestAllOrNothing:
    def test_clean_exit_replaces_every_target_in_first_written_order(self, tmp_path,
                                                                     monkeypatch):
        (tmp_path / "a.bin").write_bytes(b"old")
        replaced = []
        replace = os.replace
        monkeypatch.setattr(os, "replace",
                            lambda src, dst: replaced.append(Path(dst).name) or replace(src, dst))
        with all_or_nothing():
            write_tensor(tmp_path / "b.bin", np.ones(2))
            write_tensor(tmp_path / "a.bin", np.ones(3))
            write_tensor(tmp_path / "b.bin", np.ones(4))
            assert (tmp_path / "a.bin").read_bytes() == b"old"
            assert not (tmp_path / "b.bin").exists()
        assert replaced == ["b.bin", "a.bin"]
        assert read_tensor(tmp_path / "a.bin").shape == (3,)
        assert read_tensor(tmp_path / "b.bin").shape == (4,)  # the last bytes win
        assert sorted(os.listdir(tmp_path)) == ["a.bin", "b.bin"]

    @pytest.mark.parametrize("error", [KeyboardInterrupt, OSError, ValueError])
    def test_exception_leaves_old_targets_and_no_made_directory(self, tmp_path, error):
        # also a BaseException: the temporary files and the directories the
        # block made go, and the directories that were there stay
        (tmp_path / "kept").mkdir()
        (tmp_path / "kept" / "a.json").write_text("old")
        before = listing(tmp_path)
        with pytest.raises(error):
            with all_or_nothing():
                write_json(make_directory(tmp_path / "kept") / "a.json", {"new": 1})
                write_json(tmp_path / "kept" / "b.json", {"new": 2})
                made = make_directory(tmp_path / "made" / "sub")
                write_tensor(made / "x.bin", np.ones(2))
                make_directory(tmp_path / "kept" / "inner")
                raise error("injected")
        assert listing(tmp_path) == before

    def test_nested_block_commits_with_the_outermost(self, tmp_path):
        path = tmp_path / "a.json"
        write_json(path, "old")
        with all_or_nothing():
            with all_or_nothing():
                write_json(path, "new")
            assert json.loads(path.read_text()) == "old"
        assert json.loads(path.read_text()) == "new"
        with pytest.raises(KeyboardInterrupt):
            with all_or_nothing():
                with all_or_nothing():
                    write_json(path, "newer")
                raise KeyboardInterrupt
        assert json.loads(path.read_text()) == "new" and os.listdir(tmp_path) == ["a.json"]

    def test_failed_write_caught_in_the_block_is_not_committed(self, tmp_path):
        with all_or_nothing():
            write_json(tmp_path / "a.json", 1)
            with pytest.raises(RuntimeError):
                with ucdl.io.atomic_write(tmp_path / "b.json") as fh:
                    fh.write("half")
                    raise RuntimeError
        assert os.listdir(tmp_path) == ["a.json"]

    def test_overlapping_writes_of_one_path(self, tmp_path):
        # each write has a temporary file of its own; the last to finish wins
        path = tmp_path / "a.txt"
        with ucdl.io.atomic_write(path) as outer:
            outer.write("outer")
            with ucdl.io.atomic_write(path) as inner:
                inner.write("inner")
        assert path.read_text() == "outer" and os.listdir(tmp_path) == ["a.txt"]

    def test_checkpoint_is_all_or_nothing(self, tmp_path):
        # a manifest that cannot be replaced leaves the old kernels in place
        save_params(tmp_path, 1)
        (tmp_path / "checkpoint.json").unlink()
        (tmp_path / "checkpoint.json").mkdir()
        before = listing(tmp_path)
        params = NetworkParams(init_network(CONFIG, rng_seed=7).filters, log_lam=2.0)
        with pytest.raises(IsADirectoryError, match="checkpoint.json: "):
            save_checkpoint(tmp_path, params, CONFIG)
        assert listing(tmp_path) == before


class TestReserve:
    def test_the_write_fills_the_reserved_temporary(self, tmp_path):
        path = tmp_path / "a.bin"
        with all_or_nothing():
            reserve(path)
            (tmp,) = tmp_path.iterdir()
            assert tmp.name.startswith(".a.bin.") and tmp.read_bytes() == b""
            write_tensor(path, np.ones(3))
            assert list(tmp_path.iterdir()) == [tmp] and tmp.stat().st_size > 0
        assert os.listdir(tmp_path) == ["a.bin"] and read_tensor(path).shape == (3,)

    @pytest.mark.parametrize("defect", ["directory", "missing"])
    def test_unwritable_output_fails_when_reserved(self, tmp_path, defect):
        # as atomic_write would fail, and the outputs reserved before go
        path = tmp_path / ("out" if defect == "directory" else "missing/a.bin")
        if defect == "directory":
            path.mkdir()
        before = listing(tmp_path)
        with pytest.raises(OSError) as err:
            with all_or_nothing():
                reserve(tmp_path / "first.bin")
                reserve(path)
                raise AssertionError("not reached")
        assert str(err.value).startswith(f"{path}: ") and "Errno" not in str(err.value)
        assert listing(tmp_path) == before

    def test_unwritten_reservation_is_removed(self, tmp_path):
        with all_or_nothing():
            reserve(tmp_path / "a.bin")
            reserve(tmp_path / "a.bin")  # the same temporary again
            assert len(os.listdir(tmp_path)) == 1
            write_json(tmp_path / "b.json", 1)
        assert os.listdir(tmp_path) == ["b.json"]

    def test_needs_an_open_block(self, tmp_path):
        with pytest.raises(RuntimeError, match="all_or_nothing"):
            reserve(tmp_path / "a.bin")
        assert os.listdir(tmp_path) == []


class TestMakeDirectory:
    @pytest.mark.parametrize("where", ["itself", "parent"])
    def test_file_in_the_way_named(self, tmp_path, where):
        (tmp_path / "f").write_text("kept")
        path = tmp_path / "f" if where == "itself" else tmp_path / "f" / "sub"
        with pytest.raises(OSError) as err:
            make_directory(path)
        assert str(err.value).startswith(f"{path}: ") and "Errno" not in str(err.value)
        assert (tmp_path / "f").read_text() == "kept"


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
