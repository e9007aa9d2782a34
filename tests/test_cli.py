"""CLI tests: every subcommand in process, exits checked, golden pipeline."""

import contextlib
import io
import json
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oracles import listing
from ucdl import cli, training
from ucdl.cli import main
from ucdl.data import load_dataset
from ucdl.io import read_tensor, write_tensor
from ucdl.network import (NetworkConfig, forward_reconstruct, init_network, load_checkpoint,
                          save_checkpoint)
from ucdl.operators import load_kspace_sample

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_metrics.json"


def run_cli(*args) -> tuple[int, str]:
    """Invoke the entry point in process, capturing stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([str(a) for a in args])
    return code, out.getvalue()


def gen_data(out, samples=2, nx=16, ny=16, nt=4, coils=2, accel=2.0,
             sigma=0.02, seed=11):
    code, _ = run_cli(
        "gen-data", "--out", out, "--samples", samples, "--nx", nx,
        "--ny", ny, "--nt", nt, "--coils", coils, "--accel", accel,
        "--sigma", sigma, "--seed", seed,
    )
    assert code == 0
    return Path(out)


def read_pgm_header(path) -> tuple[int, int]:
    blob = Path(path).read_bytes()
    magic, dims, depth = blob.split(b"\n", 3)[:3]
    assert magic == b"P5"
    assert depth == b"255"
    w, h = (int(v) for v in dims.split())
    return w, h


@pytest.fixture(autouse=True)
def no_temporary_file_left(tmp_path):
    """Fail a test that leaves an atomic write's temporary file behind."""
    yield
    assert sorted(p.relative_to(tmp_path) for p in tmp_path.rglob(".*.tmp")) == []


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One tiny trained run shared by the reconstruct/evaluate/export tests."""
    base = tmp_path_factory.mktemp("cli")
    data = gen_data(base / "data", samples=2, seed=11)
    val = gen_data(base / "val", samples=1, seed=12)
    run = base / "run"
    code, _ = run_cli(
        "train", "--data", data, "--val", val, "--out", run,
        "--mode", "3d", "--K", 2, "--kf", 3, "--T", 1, "--J", 1,
        "--ncg", 3, "--epochs", 1, "--seed", 5,
    )
    assert code == 0
    recon = base / "recon.bin"
    code, _ = run_cli(
        "reconstruct", "--checkpoint", run / "final",
        "--sample", data / "sample_000", "--out", recon,
    )
    assert code == 0
    return {"base": base, "data": data, "val": val, "run": run, "recon": recon}


class TestGenData:
    def test_creates_loadable_dataset(self, tmp_path):
        out = gen_data(tmp_path / "ds", samples=3, seed=2)
        manifest = json.loads((out / "dataset.json").read_text())
        assert manifest["n_samples"] == 3
        pairs = load_dataset(out)
        assert len(pairs) == 3
        sample, target = pairs[0]
        assert target.shape == (16, 16, 4)
        assert sample.image_shape == (16, 16, 4)

    def test_deterministic_across_runs(self, tmp_path):
        a = gen_data(tmp_path / "a", seed=7)
        b = gen_data(tmp_path / "b", seed=7)
        c = gen_data(tmp_path / "c", seed=8)
        blob_a = (a / "sample_000" / "y.bin").read_bytes()
        assert blob_a == (b / "sample_000" / "y.bin").read_bytes()
        assert blob_a != (c / "sample_000" / "y.bin").read_bytes()


class TestTrain:
    def test_run_dir_contents(self, workspace):
        run = workspace["run"]
        lines = (run / "losses.csv").read_text().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss"
        assert len(lines) == 3  # header + row 0 + one epoch
        config = json.loads((run / "config.json").read_text())
        assert config["n_filters"] == 2
        assert config["epochs"] == 1
        assert (run / "checkpoints" / "epoch_001").is_dir()
        params, config_back = load_checkpoint(run / "final")
        assert config_back.n_filters == 2
        assert config_back.kernel_size == 3

    def test_config_file_with_flag_override(self, tmp_path):
        data = gen_data(tmp_path / "d", samples=1, seed=3)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"mode": "3d", "K": 2, "kf": 3, "T": 1, "ncg": 2, "epochs": 3}
        ))
        run = tmp_path / "run"
        code, _ = run_cli("train", "--data", data, "--val", data,
                          "--out", run, "--config", cfg, "--epochs", 1)
        assert code == 0
        written = json.loads((run / "config.json").read_text())
        assert written["epochs"] == 1   # flag wins over the config file
        assert written["n_filters"] == 2
        assert written["n_cg"] == 2

    def test_malformed_config_file_named(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"K": 2,}')
        code, _ = run_cli("train", "--data", tmp_path / "d", "--val", tmp_path / "d",
                          "--out", tmp_path / "run", "--config", cfg)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"{cfg}: Expecting property name") and err.count("\n") == 1
        assert not (tmp_path / "run").exists()

    def test_unknown_config_key_rejected(self, tmp_path):
        data = gen_data(tmp_path / "d", samples=1, seed=3)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"learning_rate": 0.1}))
        code, _ = run_cli("train", "--data", data, "--val", data,
                          "--out", tmp_path / "run", "--config", cfg)
        assert code == 1

    def test_accepts_wide_2d_configuration(self, tmp_path):
        data = gen_data(tmp_path / "d", samples=1, nt=2, seed=4)
        run = tmp_path / "run"
        code, _ = run_cli("train", "--data", data, "--val", data,
                          "--out", run, "--mode", "2d", "--K", 96,
                          "--kf", 9, "--epochs", 0)
        assert code == 0
        _, config = load_checkpoint(run / "final")
        assert config.mode == "2d"
        assert config.n_filters == 96
        assert config.kernel_size == 9

    def test_fixed_filters_flag(self, tmp_path):
        data = gen_data(tmp_path / "d", samples=1, seed=3)
        run = tmp_path / "run"
        code, _ = run_cli("train", "--data", data, "--val", data,
                          "--out", run, "--mode", "3d", "--K", 2, "--kf", 3,
                          "--T", 1, "--ncg", 2, "--epochs", 1,
                          "--fixed-filters")
        assert code == 0
        _, config = load_checkpoint(run / "final")
        assert config.train_filters is False

    @pytest.mark.parametrize("key,value", [
        ("T", "4"), ("K", True), ("epochs", 1.5), ("seed", None), ("lr", "fast"),
        ("fixed_filters", 1), ("mode", 3),
        # a JSON integer of 401 digits, beyond the float range
        pytest.param("lr", 10**400, id="lr-int-beyond-float"),
    ])
    def test_config_value_of_wrong_type_rejected(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        code, _ = run_cli("train", "--data", tmp_path / "d", "--val", tmp_path / "d",
                          "--out", tmp_path / "run", "--config", cfg)
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and repr(key) in err
        assert not (tmp_path / "run").exists()


class TestReconstruct:
    def test_writes_tensor(self, workspace):
        image = read_tensor(workspace["recon"])
        assert image.shape == (16, 16, 4)
        assert image.dtype == np.complex128
        assert np.isfinite(image).all()

    def test_pgm_previews(self, workspace, tmp_path):
        prefix = tmp_path / "prev"
        code, _ = run_cli(
            "reconstruct", "--checkpoint", workspace["run"] / "final",
            "--sample", workspace["data"] / "sample_000",
            "--out", tmp_path / "r.bin", "--pgm", prefix,
        )
        assert code == 0
        frames = sorted(tmp_path.glob("prev_t*.pgm"))
        assert len(frames) == 4
        assert read_pgm_header(frames[0]) == (16, 16)

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_overflowing_input_exits_two(self, workspace, tmp_path, capsys):
        # finite data whose reconstruction overflows is a numerical failure
        sample_dir = tmp_path / "huge_sample"
        shutil.copytree(workspace["data"] / "sample_000", sample_dir)
        write_tensor(sample_dir / "y.bin", 1e300 * read_tensor(sample_dir / "y.bin"))
        code, _ = run_cli(
            "reconstruct", "--checkpoint", workspace["run"] / "final",
            "--sample", sample_dir, "--out", tmp_path / "r.bin",
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("numerical failure: ")
        assert not (tmp_path / "r.bin").exists()


class TestEvaluate:
    def test_identical_files(self, workspace):
        target = workspace["data"] / "sample_000" / "target.bin"
        code, out = run_cli("evaluate", "--recon", target,
                            "--target", target, "--roi", 12, 12)
        assert code == 0
        report = json.loads(out)
        assert report["nrmse"] == 0.0
        assert report["ssim"] == 1.0
        assert report["psnr"] == float("inf")
        assert report["roi"] == [12, 12]

    def test_json_and_csv_outputs(self, workspace, tmp_path):
        target = workspace["data"] / "sample_000" / "target.bin"
        json_path = tmp_path / "report.json"
        csv_path = tmp_path / "scores.csv"
        code, out = run_cli(
            "evaluate", "--recon", workspace["recon"], "--target", target,
            "--roi", 12, 12, "--json", json_path, "--csv", csv_path,
            "--label", "first",
        )
        assert code == 0
        assert json_path.read_text().strip() == out.strip()
        code, _ = run_cli(
            "evaluate", "--recon", workspace["recon"], "--target", target,
            "--roi", 12, 12, "--csv", csv_path, "--label", "second",
        )
        assert code == 0
        lines = csv_path.read_text().splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("first,")
        assert lines[2].startswith("second,")
        report = json.loads(out)
        assert float(lines[1].split(",")[1]) == report["psnr"]

    def test_default_roi_is_half(self, tmp_path):
        rng = np.random.default_rng(0)
        img = rng.standard_normal((24, 24)) + 1j * rng.standard_normal((24, 24))
        a = tmp_path / "a.bin"
        write_tensor(a, img)
        code, out = run_cli("evaluate", "--recon", a, "--target", a)
        assert code == 0
        assert json.loads(out)["roi"] == [12, 12]

    def test_pure_function_of_inputs(self, workspace):
        target = workspace["data"] / "sample_000" / "target.bin"
        args = ("evaluate", "--recon", workspace["recon"], "--target",
                target, "--roi", 12, 12)
        code_a, out_a = run_cli(*args)
        code_b, out_b = run_cli(*args)
        assert (code_a, out_a) == (code_b, out_b)

    def test_truncated_header_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"UCDL" + bytes(6))
        code, out = run_cli("evaluate", "--recon", bad, "--target", bad)
        assert code == 1
        assert out == ""
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "truncated header" in err

    def test_header_promising_more_than_the_file_exits_one(self, tmp_path, capsys):
        # 64 bytes on disk, 16 TiB promised by the dims
        bad = tmp_path / "bad.bin"
        write_tensor(bad, np.zeros((1, 2), dtype=complex))
        raw = bytearray(bad.read_bytes())
        raw[12:28] = struct.pack("<2Q", 2**20, 2**20)
        bad.write_bytes(bytes(raw))
        code, out = run_cli("evaluate", "--recon", bad, "--target", bad)
        assert code == 1
        assert out == ""
        err = capsys.readouterr().err
        assert err == f"{bad}: truncated payload\n"


class TestExports:
    def test_export_filters(self, workspace, tmp_path):
        out = tmp_path / "filters"
        code, _ = run_cli("export-filters", "--checkpoint",
                          workspace["run"] / "final", "--out", out,
                          "--zoom", 2)
        assert code == 0
        params, _ = load_checkpoint(workspace["run"] / "final")
        dumped = read_tensor(out / "filters.bin")
        np.testing.assert_array_equal(dumped.real, params.filters.kernels)
        # bank (2, 3, 3, 3): one row per filter, temporal slices as columns
        w, h = read_pgm_header(out / "filters.pgm")
        assert (w, h) == (2 * 11, 2 * 7)

    def test_checkpoint_disagreeing_with_its_kernels_exits_one(
            self, workspace, tmp_path, capsys):
        checkpoint = tmp_path / "ck"
        checkpoint.mkdir()
        src = workspace["run"] / "final"
        for name in ("filters.bin", "checkpoint.json"):
            (checkpoint / name).write_bytes((src / name).read_bytes())
        manifest = json.loads((checkpoint / "checkpoint.json").read_text())
        manifest["config"].update(n_filters=16, kernel_size=7)
        (checkpoint / "checkpoint.json").write_text(json.dumps(manifest))
        code, _ = run_cli("export-filters", "--checkpoint", checkpoint,
                          "--out", tmp_path / "filters")
        assert code == 1
        assert "(16, 7, 7, 7)" in capsys.readouterr().err
        assert not (tmp_path / "filters").exists()

    def test_export_feature_maps(self, workspace, tmp_path):
        # the trained 3d checkpoint and an untrained 2d one; each file holds
        # one (N_x, N_y, N_t) map of the forward's frames-first codes
        config_2d = NetworkConfig(mode="2d", n_filters=3, kernel_size=3, n_outer=1, n_cg=3)
        save_checkpoint(tmp_path / "ck2d", init_network(config_2d, rng_seed=2), config_2d)
        sample_dir = workspace["data"] / "sample_000"
        for checkpoint, count in ((workspace["run"] / "final", 2), (tmp_path / "ck2d", 3)):
            out = tmp_path / f"feats_{checkpoint.name}"
            code, _ = run_cli("export-feature-maps", "--checkpoint", checkpoint,
                              "--sample", sample_dir, "--out", out)
            assert code == 0
            bins = sorted(out.glob("feature_*.bin"))
            pgms = sorted(out.glob("feature_*.pgm"))
            assert len(bins) == count and len(pgms) == count
            params, config = load_checkpoint(checkpoint)
            codes = forward_reconstruct(load_kspace_sample(sample_dir), params, config)
            for k, path in enumerate(bins):
                maps = read_tensor(path)
                assert maps.shape == (16, 16, 4)
                assert np.array_equal(maps, np.moveaxis(codes.code_state.s[k], 0, -1))
            assert read_pgm_header(pgms[0]) == (16, 16)


class TestBrokenManifests:
    """A manifest without a key it needs, or with a malformed network config,
    exits 1 with one line that names the file and the key."""

    def edit_manifest(self, src, dst, name, edit):
        shutil.copytree(src, dst)
        manifest = json.loads((dst / name).read_text())
        edit(manifest)
        (dst / name).write_text(json.dumps(manifest))
        return dst / name

    def test_checkpoint_missing_key(self, workspace, tmp_path, capsys):
        path = self.edit_manifest(workspace["run"] / "final", tmp_path / "ck",
                                  "checkpoint.json", lambda m: m.pop("log_alpha"))
        code, _ = run_cli("export-filters", "--checkpoint", tmp_path / "ck",
                          "--out", tmp_path / "filters")
        assert code == 1
        assert capsys.readouterr().err == f"{path}: missing key 'log_alpha'\n"

    def test_sample_missing_key(self, workspace, tmp_path, capsys):
        path = self.edit_manifest(workspace["data"] / "sample_000", tmp_path / "s",
                                  "sample.json", lambda m: m.pop("sigma"))
        code, _ = run_cli("reconstruct", "--checkpoint", workspace["run"] / "final",
                          "--sample", tmp_path / "s", "--out", tmp_path / "r.bin")
        assert code == 1
        assert capsys.readouterr().err == f"{path}: missing key 'sigma'\n"

    def test_dataset_missing_key(self, workspace, tmp_path, capsys):
        path = self.edit_manifest(workspace["data"], tmp_path / "d",
                                  "dataset.json", lambda m: m.pop("samples"))
        code, _ = run_cli("train", "--data", tmp_path / "d", "--val", workspace["val"],
                          "--out", tmp_path / "run", "--K", 2, "--kf", 3, "--epochs", 1)
        assert code == 1
        assert capsys.readouterr().err == f"{path}: missing key 'samples'\n"

    @pytest.mark.parametrize("key,value", [("n_filters", "2"), ("n_cg", True),
                                           ("bogus", 1)])
    def test_malformed_checkpoint_config(self, workspace, tmp_path, capsys, key, value):
        path = self.edit_manifest(workspace["run"] / "final", tmp_path / "ck",
                                  "checkpoint.json",
                                  lambda m: m["config"].update({key: value}))
        code, _ = run_cli("export-filters", "--checkpoint", tmp_path / "ck",
                          "--out", tmp_path / "filters")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"{path}: ") and key in err
        assert err.count("\n") == 1


    @pytest.mark.parametrize("name,key,value", [
        ("checkpoint.json", "log_lambda", [1]), ("checkpoint.json", "config", 5),
        ("checkpoint.json", "kernels_file", 7), ("sample.json", "sigma", [1]),
        ("sample.json", "y", 3), ("dataset.json", "samples", 3),
        ("dataset.json", "samples", [1]),
    ])
    def test_wrongly_typed_value(self, workspace, tmp_path, capsys, name, key, value):
        run, sample = workspace["run"] / "final", workspace["data"] / "sample_000"
        source = {"checkpoint.json": run, "sample.json": sample,
                  "dataset.json": workspace["data"]}[name]
        path = self.edit_manifest(source, tmp_path / "m", name,
                                  lambda m: m.update({key: value}))
        recon = ["reconstruct", "--checkpoint", run, "--sample", sample,
                 "--out", tmp_path / "r.bin"]
        argv = {
            "checkpoint.json": recon[:2] + [tmp_path / "m"] + recon[3:],
            "sample.json": recon[:4] + [tmp_path / "m"] + recon[5:],
            "dataset.json": ["train", "--data", tmp_path / "m", "--val", workspace["val"],
                             "--out", tmp_path / "run", "--K", 2, "--kf", 3, "--epochs", 1],
        }[name]
        code, _ = run_cli(*argv)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"{path}: key {key!r} must be ")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("name,key,value", [
        ("checkpoint.json", "log_lambda", float("nan")),
        ("checkpoint.json", "log_lambda", float("-inf")),
        ("sample.json", "sigma", float("inf")),
        ("sample.json", "sigma", float("nan")),
    ])
    def test_non_finite_number(self, workspace, tmp_path, capsys, name, key, value):
        run, sample = workspace["run"] / "final", workspace["data"] / "sample_000"
        source = run if name == "checkpoint.json" else sample
        path = self.edit_manifest(source, tmp_path / "m", name,
                                  lambda m: m.update({key: value}))
        assert ("NaN" if np.isnan(value) else "Infinity") in path.read_text()
        argv = ["reconstruct", "--checkpoint", run, "--sample", sample,
                "--out", tmp_path / "r.bin"]
        argv[2 if name == "checkpoint.json" else 4] = tmp_path / "m"
        code, _ = run_cli(*argv)
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"{path}: key {key!r} must be a finite number, got {value!r}\n"
        assert not (tmp_path / "r.bin").exists()

    @pytest.mark.parametrize("name", ["checkpoint.json", "sample.json", "dataset.json"])
    def test_malformed_json(self, workspace, tmp_path, capsys, name):
        run, sample = workspace["run"] / "final", workspace["data"] / "sample_000"
        source = {"checkpoint.json": run, "sample.json": sample,
                  "dataset.json": workspace["data"]}[name]
        shutil.copytree(source, tmp_path / "m")
        (tmp_path / "m" / name).write_text("{'samples': 1}")
        argv = {
            "checkpoint.json": ["export-filters", "--checkpoint", tmp_path / "m",
                                "--out", tmp_path / "filters"],
            "sample.json": ["reconstruct", "--checkpoint", run, "--sample", tmp_path / "m",
                            "--out", tmp_path / "r.bin"],
            "dataset.json": ["train", "--data", tmp_path / "m", "--val", workspace["val"],
                             "--out", tmp_path / "run", "--K", 2, "--kf", 3, "--epochs", 1],
        }[name]
        code, _ = run_cli(*argv)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"{tmp_path / 'm' / name}: Expecting property name")
        assert err.count("\n") == 1

    # json.loads rejects an integer of more than 4,300 digits with a ValueError
    # that is not a JSONDecodeError, and bytes that are not UTF-8 fail to decode
    @pytest.mark.parametrize("defect", ["int-over-digit-limit", "not-utf8"])
    @pytest.mark.parametrize("name", ["config.json", "checkpoint.json", "sample.json",
                                      "dataset.json"])
    def test_undecodable_json(self, workspace, tmp_path, capsys, name, defect):
        run, sample = workspace["run"] / "final", workspace["data"] / "sample_000"
        if name == "config.json":
            path = tmp_path / name
        else:
            source = {"checkpoint.json": run, "sample.json": sample,
                      "dataset.json": workspace["data"]}[name]
            shutil.copytree(source, tmp_path / "m")
            path = tmp_path / "m" / name
        path.write_bytes({"int-over-digit-limit": b'{"n": ' + b"1" * 5001 + b"}",
                          "not-utf8": b'{"n": "\xff"}'}[defect])
        argv = {
            "config.json": ["train", "--data", workspace["data"], "--val", workspace["val"],
                            "--out", tmp_path / "run", "--config", path],
            "checkpoint.json": ["export-filters", "--checkpoint", tmp_path / "m",
                                "--out", tmp_path / "filters"],
            "sample.json": ["reconstruct", "--checkpoint", run, "--sample", tmp_path / "m",
                            "--out", tmp_path / "r.bin"],
            "dataset.json": ["train", "--data", tmp_path / "m", "--val", workspace["val"],
                             "--out", tmp_path / "run", "--K", 2, "--kf", 3, "--epochs", 1],
        }[name]
        code, _ = run_cli(*argv)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"{path}: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not any((tmp_path / out).exists() for out in ("run", "filters", "r.bin"))


class TestUnreadableFiles:
    """A manifest or tensor that is missing, or is a directory, exits 1 with
    one line that starts with its path, before any output is written: the
    reader, not its caller, names the path."""

    @pytest.mark.parametrize("defect", ["missing", "directory"])
    @pytest.mark.parametrize("name", ["config.json", "checkpoint.json", "sample.json",
                                      "dataset.json", "y.bin", "recon.bin"])
    def test_file_that_cannot_be_read(self, workspace, tmp_path, capsys, name, defect):
        run, sample = workspace["run"] / "final", workspace["data"] / "sample_000"
        source = {"checkpoint.json": run, "sample.json": sample, "y.bin": sample,
                  "dataset.json": workspace["data"]}.get(name)
        if source is None:
            path = tmp_path / name
        else:
            shutil.copytree(source, tmp_path / "m")
            path = tmp_path / "m" / name
            path.unlink()
        if defect == "directory":
            path.mkdir()
        outputs = [tmp_path / out for out in ("run", "filters", "r.bin", "report.json")]
        argv = {
            "config.json": ["train", "--data", workspace["data"], "--val", workspace["val"],
                            "--out", outputs[0], "--config", path],
            "checkpoint.json": ["export-filters", "--checkpoint", tmp_path / "m",
                                "--out", outputs[1]],
            "sample.json": ["reconstruct", "--checkpoint", run, "--sample", tmp_path / "m",
                            "--out", outputs[2]],
            "y.bin": ["reconstruct", "--checkpoint", run, "--sample", tmp_path / "m",
                      "--out", outputs[2]],
            "dataset.json": ["train", "--data", tmp_path / "m", "--val", workspace["val"],
                             "--out", outputs[0], "--K", 2, "--kf", 3, "--epochs", 1],
            "recon.bin": ["evaluate", "--recon", path, "--target", sample / "target.bin",
                          "--json", outputs[3]],
        }[name]
        code, out = run_cli(*argv)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"{path}: ") and err.count("\n") == 1
        assert "Errno" not in err and "Traceback" not in err
        assert out == "" and not any(p.exists() for p in outputs)


class TestUnwritableFiles:
    """An output path that cannot be written, a directory or one in a missing
    directory, exits 1 with one line that starts with that path and names no
    temporary file, prints nothing and leaves no file behind: neither the
    outputs written before the failed one (previews before a reconstruction,
    a JSON report before a CSV append) nor those after it.  A CSV label that
    cannot be written leaves none either."""

    @pytest.mark.parametrize("flag,defect", [("--json", "directory"), ("--json", "missing"),
                                             ("--csv", "directory"), ("--out", "directory"),
                                             ("--pgm", "missing"),
                                             ("--out", "directory-after-previews"),
                                             ("--csv", "directory-after-json"),
                                             ("--json", "directory-before-csv"),
                                             ("--label", "comma-after-json")])
    def test_output_that_cannot_be_written(self, workspace, tmp_path, capsys, flag, defect):
        sample = workspace["data"] / "sample_000"
        if defect.startswith("directory"):
            path = tmp_path / "out"
            path.mkdir()
        else:
            path = tmp_path / "missing" / ("p" if flag == "--pgm" else "x.json")
        reconstruct = ["reconstruct", "--checkpoint", workspace["run"] / "final",
                       "--sample", sample, "--out"]
        evaluate = ["evaluate", "--recon", workspace["recon"], "--target",
                    sample / "target.bin", "--roi", 12, 12]
        report, table = tmp_path / "r.json", tmp_path / "s.csv"
        argv = {
            ("--out", "directory"): reconstruct + [path],
            ("--pgm", "missing"): reconstruct + [tmp_path / "r.bin", "--pgm", path],
            ("--out", "directory-after-previews"): reconstruct + [path, "--pgm", tmp_path / "p"],
            ("--csv", "directory-after-json"): evaluate + ["--json", report, "--csv", path],
            ("--json", "directory-before-csv"): evaluate + ["--json", path, "--csv", table],
            ("--label", "comma-after-json"): evaluate + ["--json", report, "--csv", table,
                                                         "--label", "a,b"],
        }.get((flag, defect), evaluate + [flag, path])
        code, out = run_cli(*argv)
        assert code == 1
        err = capsys.readouterr().err
        named = {"--pgm": f"{path}_t00.pgm: ",
                 "--label": "label 'a,b' must not contain"}.get(flag, f"{path}: ")
        assert err.startswith(named) and err.count("\n") == 1
        assert "Errno" not in err and ".tmp" not in err and "Traceback" not in err
        assert out == ""
        assert [p.name for p in tmp_path.rglob("*")] == (["out"] if defect.startswith("directory")
                                                         else [])

    @pytest.mark.parametrize("command", ["export-filters", "export-feature-maps", "gen-data",
                                         "train"])
    def test_output_directory_that_is_a_file(self, workspace, tmp_path, capsys, command):
        path = tmp_path / "out"
        path.write_text("kept")
        checkpoint, sample = workspace["run"] / "final", workspace["data"] / "sample_000"
        argv = {
            "export-filters": ["--checkpoint", checkpoint],
            "export-feature-maps": ["--checkpoint", checkpoint, "--sample", sample],
            "gen-data": ["--samples", 1, "--nx", 8, "--ny", 8, "--nt", 2],
            "train": ["--data", workspace["data"], "--val", workspace["val"], "--K", 2,
                      "--kf", 3, "--T", 1, "--ncg", 2, "--epochs", 1],
        }[command]
        code, out = run_cli(command, *argv, "--out", path)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"{path}: ") and err.count("\n") == 1
        assert "Errno" not in err and "Traceback" not in err
        assert out == "" and path.read_text() == "kept"

    @pytest.mark.parametrize("command,blocked", [("export-filters", "filters.pgm"),
                                                 ("export-feature-maps", "feature_01.pgm"),
                                                 ("gen-data", "sample_001/y.bin")])
    def test_file_of_a_set_that_cannot_be_written(self, workspace, tmp_path, capsys, command,
                                                  blocked):
        # a directory at one file of the set: the output directory, which was
        # there, keeps exactly what it held, and the directories the command
        # made (gen-data's sample_000) are gone
        out = tmp_path / "out"
        (out / blocked).mkdir(parents=True)
        (out / "filters.bin").write_bytes(b"old")
        (out / "feature_00.bin").write_bytes(b"old")
        (out / "dataset.json").write_text("old")
        before = listing(out)
        checkpoint, sample = workspace["run"] / "final", workspace["data"] / "sample_000"
        argv = {
            "export-filters": ["--checkpoint", checkpoint],
            "export-feature-maps": ["--checkpoint", checkpoint, "--sample", sample],
            "gen-data": ["--samples", 3, "--nx", 8, "--ny", 8, "--nt", 2],
        }[command]
        code, out_text = run_cli(command, *argv, "--out", out)
        assert code == 1 and out_text == ""
        err = capsys.readouterr().err
        assert err.startswith(f"{out / blocked}: ") and err.count("\n") == 1
        assert "Errno" not in err and "Traceback" not in err
        assert listing(out) == before

    def test_evaluate_json_and_csv_at_one_path(self, workspace, tmp_path, capsys):
        # the CSV append, written last, wins: the path holds its old rows
        # and the new one, as after an append alone
        sample = workspace["data"] / "sample_000"
        evaluate = ["evaluate", "--recon", workspace["recon"], "--target",
                    sample / "target.bin", "--roi", 12, 12]
        both, alone = tmp_path / "both.csv", tmp_path / "alone.csv"
        assert run_cli(*evaluate, "--csv", both)[0] == 0
        alone.write_bytes(both.read_bytes())
        assert run_cli(*evaluate, "--csv", alone, "--label", "x")[0] == 0
        code, out = run_cli(*evaluate, "--json", both, "--csv", both, "--label", "x")
        assert code == 0 and capsys.readouterr().err == ""
        assert json.loads(out) and both.read_bytes() == alone.read_bytes()

    def test_reconstruct_out_at_a_preview_path(self, workspace, tmp_path):
        # --out, written last, wins over the preview of the same path
        reconstruct = ["reconstruct", "--checkpoint", workspace["run"] / "final",
                       "--sample", workspace["data"] / "sample_000", "--out"]
        assert run_cli(*reconstruct, tmp_path / "r.bin")[0] == 0
        code, _ = run_cli(*reconstruct, tmp_path / "p_t00.pgm", "--pgm", tmp_path / "p")
        assert code == 0
        assert (tmp_path / "p_t00.pgm").read_bytes() == (tmp_path / "r.bin").read_bytes()
        assert read_pgm_header(tmp_path / "p_t03.pgm") == (16, 16)

    @pytest.mark.parametrize("command,defect", [("reconstruct", "directory"),
                                                ("reconstruct", "missing"),
                                                ("export-feature-maps", "directory"),
                                                ("export-feature-maps", "missing")])
    def test_output_that_cannot_be_written_fails_before_the_forward(
            self, workspace, tmp_path, capsys, monkeypatch, command, defect):
        # a directory at an output file, or an output whose parent is
        # missing; export-feature-maps makes a missing output directory, so
        # its parent there is a file, where that directory cannot be made
        calls = []
        forward = cli.forward_reconstruct
        monkeypatch.setattr(cli, "forward_reconstruct",
                            lambda *args, **kwargs: calls.append(args) or forward(*args, **kwargs))
        (tmp_path / "file").write_text("kept")
        if command == "reconstruct":
            out = path = tmp_path / ("out" if defect == "directory" else "missing/r.bin")
        else:
            out = tmp_path / ("maps" if defect == "directory" else "file/maps")
            path = out / "feature_01.pgm" if defect == "directory" else out
        if defect == "directory":
            path.mkdir(parents=True)
        before = listing(tmp_path)
        code, text = run_cli(command, "--checkpoint", workspace["run"] / "final",
                             "--sample", workspace["data"] / "sample_000", "--out", out)
        assert code == 1 and text == ""
        err = capsys.readouterr().err
        assert err.startswith(f"{path}: ") and err.count("\n") == 1
        assert "Errno" not in err and ".tmp" not in err and "Traceback" not in err
        assert calls == [] and listing(tmp_path) == before

    def test_train_makes_its_run_directory_before_any_forward(self, workspace, tmp_path,
                                                              capsys, monkeypatch):
        path = tmp_path / "out"
        path.write_text("kept")
        calls = []
        forward = training.forward_reconstruct
        monkeypatch.setattr(training, "forward_reconstruct",
                            lambda *args, **kwargs: calls.append(args) or forward(*args, **kwargs))
        code, out = run_cli("train", "--data", workspace["data"], "--val", workspace["val"],
                            "--K", 2, "--kf", 3, "--T", 1, "--ncg", 2, "--epochs", 1,
                            "--out", path)
        assert code == 1 and out == ""
        assert capsys.readouterr().err == f"{path}: File exists\n"
        assert calls == [] and path.read_text() == "kept"


class TestBadTensors:
    """A tensor read from disk with a NaN entry, or a target that does not
    fit its sample, exits 1 with one line that names the file, before any
    output is written."""

    @pytest.mark.parametrize("source,name,value", [("checkpoint", "filters.bin", np.nan),
                                                   ("sample", "y.bin", np.inf),
                                                   ("sample", "coils.bin", np.nan)],
                             ids=["filters", "y", "coils"])
    def test_non_finite_reconstruct_input(self, workspace, tmp_path, capsys, source, name,
                                          value):
        argv = {"checkpoint": workspace["run"] / "final",
                "sample": workspace["data"] / "sample_000"}
        argv[source] = tmp_path / source
        shutil.copytree(workspace["run"] / "final" if source == "checkpoint"
                        else workspace["data"] / "sample_000", argv[source])
        path = argv[source] / name
        values = read_tensor(path)
        values.flat[1] = value
        write_tensor(path, values)
        code, _ = run_cli("reconstruct", "--checkpoint", argv["checkpoint"],
                          "--sample", argv["sample"], "--out", tmp_path / "r.bin")
        assert code == 1
        assert capsys.readouterr().err == f"{path}: non-finite entries\n"
        assert not (tmp_path / "r.bin").exists()

    @pytest.mark.parametrize("defect", ["non-finite", "frame count"])
    def test_bad_training_target(self, workspace, tmp_path, capsys, defect):
        data = tmp_path / "d"
        shutil.copytree(workspace["data"], data)
        path = data / "sample_001" / "target.bin"
        target = read_tensor(path)
        if defect == "non-finite":
            target[2, 3, 1] = np.nan
        else:
            target = target[:, :, :3]
        write_tensor(path, target)
        code, _ = run_cli("train", "--data", data, "--val", workspace["val"],
                          "--out", tmp_path / "run", "--K", 2, "--kf", 3, "--epochs", 1)
        assert code == 1
        err = capsys.readouterr().err
        if defect == "non-finite":
            assert err == f"{path}: non-finite entries\n"
        else:
            assert err == (f"{path}: shape (16, 16, 3), "
                           f"the sample's images are (16, 16, 4)\n")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("name", ["recon", "target"])
    def test_non_finite_evaluate_input(self, workspace, tmp_path, capsys, name):
        paths = {"recon": tmp_path / "recon.bin", "target": tmp_path / "target.bin"}
        write_tensor(paths["recon"], read_tensor(workspace["recon"]))
        shutil.copy(workspace["data"] / "sample_000" / "target.bin", paths["target"])
        values = read_tensor(paths[name])
        values[3, 4, 1] = np.nan
        write_tensor(paths[name], values)
        code, out = run_cli("evaluate", "--recon", paths["recon"], "--target", paths["target"],
                            "--json", tmp_path / "report.json")
        assert code == 1 and out == ""
        assert capsys.readouterr().err == f"{paths[name]}: non-finite entries\n"
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("value,message", [(np.nan, "non-finite entries"),
                                               (0.7, "entries must be 0 or 1")])
    def test_bad_mask_entry(self, workspace, tmp_path, capsys, value, message):
        shutil.copytree(workspace["data"] / "sample_000", tmp_path / "s")
        path = tmp_path / "s" / "mask.bin"
        values = read_tensor(path)
        values[0, 0, 0] = value  # k-space DC, always sampled
        write_tensor(path, values)
        code, _ = run_cli("reconstruct", "--checkpoint", workspace["run"] / "final",
                          "--sample", tmp_path / "s", "--out", tmp_path / "r.bin")
        assert code == 1
        assert capsys.readouterr().err == f"{path}: {message}\n"
        assert not (tmp_path / "r.bin").exists()


class TestBadSettings:
    """A setting that cannot work exits 1 with one line naming it, before
    anything is written."""

    @pytest.mark.parametrize("flags,config", [
        (["--lr", "-1.0"], None), (["--lr", "nan"], None), ([], '{"lr": 1e400}'),
    ], ids=["negative", "nan", "inf-in-config"])
    def test_learning_rate(self, workspace, tmp_path, capsys, flags, config):
        if config is not None:
            (tmp_path / "cfg.json").write_text(config)
            flags = ["--config", tmp_path / "cfg.json"]
        code, _ = run_cli("train", "--data", workspace["data"], "--val", workspace["val"],
                          "--out", tmp_path / "run", "--K", 2, "--kf", 3, "--T", 1,
                          "--epochs", 1, *flags)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("lr must be a finite number >= 0, got ") and err.count("\n") == 1
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("flag", ["--sigma", "--accel"])
    def test_non_finite_gen_data_setting(self, tmp_path, capsys, flag):
        code, _ = run_cli("gen-data", "--out", tmp_path / "d", "--samples", 1, "--nx", 8,
                          "--ny", 8, "--nt", 2, flag, "nan")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"{flag[2:]} must be a finite number") and err.count("\n") == 1
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("coils", [0, -1])
    def test_coil_count_below_one(self, tmp_path, capsys, coils):
        code, _ = run_cli("gen-data", "--out", tmp_path / "d", "--samples", 1, "--nx", 8,
                          "--ny", 8, "--nt", 2, "--coils", coils)
        assert code == 1
        assert capsys.readouterr().err == f"coils must be >= 1, got {coils}\n"
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("command,config", [
        ("gen-data", None), ("train", None), ("train", '{"seed": -1}'),
    ], ids=["gen-data", "train", "train-config"])
    def test_negative_seed(self, workspace, tmp_path, capsys, command, config):
        if command == "gen-data":
            argv = ["gen-data", "--samples", 1, "--nx", 8, "--ny", 8, "--nt", 2, "--seed", -1]
        else:
            argv = ["train", "--data", workspace["data"], "--val", workspace["val"],
                    "--K", 2, "--kf", 3, "--T", 1, "--epochs", 1]
            if config is None:
                argv += ["--seed", -1]
            else:
                (tmp_path / "cfg.json").write_text(config)
                argv += ["--config", tmp_path / "cfg.json"]
        code, _ = run_cli(*argv, "--out", tmp_path / "out")
        assert code == 1
        assert capsys.readouterr().err == "seed must be >= 0, got -1\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("zoom", [0, -2])
    def test_zoom_below_one(self, workspace, tmp_path, capsys, zoom):
        code, _ = run_cli("export-filters", "--checkpoint", workspace["run"] / "final",
                          "--out", tmp_path / "filters", "--zoom", zoom)
        assert code == 1
        assert capsys.readouterr().err == f"zoom must be >= 1, got {zoom}\n"
        assert not (tmp_path / "filters").exists()

    def test_kernels_larger_than_the_images(self, tmp_path, capsys):
        data = gen_data(tmp_path / "d", samples=1, nx=8, ny=8, nt=2)
        code, _ = run_cli("train", "--data", data, "--val", data, "--out", tmp_path / "run",
                          "--kf", 20, "--epochs", 1)
        assert code == 1
        assert capsys.readouterr().err == (
            "kernel shape (20, 20, 20) does not fit inside (2, 8, 8)\n")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("key,value", [("log_lambda", 800.0), ("log_beta", -800.0)])
    def test_log_weight_without_a_finite_positive_exp(self, workspace, tmp_path, capsys,
                                                      key, value):
        shutil.copytree(workspace["run"] / "final", tmp_path / "ck")
        path = tmp_path / "ck" / "checkpoint.json"
        manifest = json.loads(path.read_text())
        manifest[key] = value
        path.write_text(json.dumps(manifest))
        code, _ = run_cli("reconstruct", "--checkpoint", tmp_path / "ck",
                          "--sample", workspace["data"] / "sample_000", "--out", tmp_path / "r.bin")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"{path}: key {key!r} gives the weight exp({value!r}) = ")
        assert err.count("\n") == 1
        assert not (tmp_path / "r.bin").exists()


class TestUsageErrors:
    def test_no_arguments(self, capsys):
        assert main([]) == 1
        assert capsys.readouterr().err != ""

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1
        assert capsys.readouterr().err != ""

    def test_missing_required_flag(self, capsys):
        assert main(["train", "--out", "x"]) == 1
        assert capsys.readouterr().err != ""

    def test_bad_mode_choice(self, tmp_path, capsys):
        code = main(["train", "--data", "d", "--val", "v",
                     "--out", str(tmp_path / "r"), "--mode", "4d"])
        assert code == 1
        assert capsys.readouterr().err != ""

    def test_missing_input_file(self, tmp_path, capsys):
        code = main(["evaluate", "--recon", str(tmp_path / "nope.bin"),
                     "--target", str(tmp_path / "nope.bin")])
        assert code == 1
        assert capsys.readouterr().err != ""


def run_golden_pipeline(base: Path) -> str:
    """The seeded gen-data/train/reconstruct/evaluate chain behind the
    committed metric fixture; returns the evaluate report line."""
    data = gen_data(base / "data", samples=2, seed=11)
    val = gen_data(base / "val", samples=1, seed=12)
    run = base / "run"
    code, _ = run_cli(
        "train", "--data", data, "--val", val, "--out", run,
        "--mode", "3d", "--K", 2, "--kf", 3, "--T", 1, "--J", 1,
        "--ncg", 3, "--epochs", 1, "--seed", 5,
    )
    assert code == 0
    recon = base / "recon.bin"
    code, _ = run_cli(
        "reconstruct", "--checkpoint", run / "final",
        "--sample", data / "sample_000", "--out", recon,
    )
    assert code == 0
    code, out = run_cli(
        "evaluate", "--recon", recon,
        "--target", data / "sample_000" / "target.bin", "--roi", 12, 12,
    )
    assert code == 0
    return out


class TestGoldenPipeline:
    def test_reproduces_committed_report(self, tmp_path):
        got = run_golden_pipeline(tmp_path)
        assert got.encode() == GOLDEN_PATH.read_bytes()


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "ucdl", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "gen-data" in proc.stdout
