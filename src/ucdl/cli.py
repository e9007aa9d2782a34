"""Command-line entry points: data synthesis, training, reconstruction,
evaluation, and checkpoint exports.

Exit codes: 0 on success, 1 on usage or input errors, 2 when a numerical
failure (non-finite values, singular solves) aborts the computation.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .data import PhantomSpec, load_dataset, save_dataset, synth_dataset
from .errors import NonFiniteValue, UcdlError
from .io import atomic_write, quantize_window, read_manifest, read_tensor, write_pgm, write_tensor
from .metrics import append_report_csv, compute_report
from .network import (
    NetworkConfig,
    forward_reconstruct,
    load_checkpoint,
    save_checkpoint,
)
from .operators import load_kspace_sample, make_coil_maps
from .training import train

FEATURE_WINDOW_SIGMAS = 15.0

# `train` key (flag or --config entry) -> (NetworkConfig field or train()
# argument, type of its value); a key given neither way is not passed on,
# so its default is the one of NetworkConfig or train()
TRAIN_KEYS = {
    "mode": ("mode", str),
    "K": ("n_filters", int),
    "kf": ("kernel_size", int),
    "T": ("n_outer", int),
    "J": ("n_admm", int),
    "ncg": ("n_cg", int),
    "fixed_filters": ("fixed_filters", bool),
    "lr": ("lr", float),
    "epochs": ("epochs", int),
    "seed": ("seed", int),
}
TRAIN_ARGS = ("lr", "epochs", "seed")
TYPE_NAMES = {str: "a string", int: "an integer", float: "a number",
              bool: "true or false"}


class UsageError(Exception):
    """Bad command line or unusable input files."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage problems; route them through
    # the exception path instead so usage errors report status 1
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="ucdl",
        description="Unrolled convolutional-dictionary reconstruction toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-data", help="synthesize a phantom dataset")
    gen.add_argument("--out", required=True, help="output dataset directory")
    gen.add_argument("--samples", type=int, default=8)
    gen.add_argument("--nx", type=int, default=32)
    gen.add_argument("--ny", type=int, default=32)
    gen.add_argument("--nt", type=int, default=8)
    gen.add_argument("--coils", type=int, default=3)
    gen.add_argument("--accel", type=float, default=4.0)
    gen.add_argument("--sigma", type=float, default=0.02)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--ellipses", type=int, default=4)
    gen.add_argument("--mask-family", default="columns")
    gen.set_defaults(func=cmd_gen_data)

    tr = sub.add_parser("train", help="train the unrolled network")
    tr.add_argument("--data", required=True, help="training dataset directory")
    tr.add_argument("--val", required=True, help="validation dataset directory")
    tr.add_argument("--out", required=True, help="run directory")
    tr.add_argument("--config", help="JSON file with default hyper-parameters")
    tr.add_argument("--mode", choices=["2d", "3d"], default=None)
    tr.add_argument("--K", type=int, default=None, help="number of filters")
    tr.add_argument("--kf", type=int, default=None, help="kernel side length")
    tr.add_argument("--T", type=int, default=None, help="outer iterations")
    tr.add_argument("--J", type=int, default=None, help="ADMM sweeps per iteration")
    tr.add_argument("--ncg", type=int, default=None, help="CG iterations")
    tr.add_argument("--lr", type=float, default=None, help="Adam step size")
    tr.add_argument("--epochs", type=int, default=None)
    tr.add_argument("--seed", type=int, default=None)
    tr.add_argument("--fixed-filters", action="store_true", default=None,
                    help="freeze the random filter bank, train weights only")
    tr.set_defaults(func=cmd_train)

    rec = sub.add_parser("reconstruct", help="run a checkpoint on one sample")
    rec.add_argument("--checkpoint", required=True)
    rec.add_argument("--sample", required=True, help="sample directory")
    rec.add_argument("--out", required=True, help="output tensor file")
    rec.add_argument("--pgm", help="prefix for per-frame magnitude previews")
    rec.set_defaults(func=cmd_reconstruct)

    ev = sub.add_parser("evaluate", help="score a reconstruction against a target")
    ev.add_argument("--recon", required=True, help="reconstruction tensor file")
    ev.add_argument("--target", required=True, help="reference tensor file")
    ev.add_argument("--roi", type=int, nargs=2, metavar=("H", "W"), default=None)
    ev.add_argument("--json", dest="json_out", help="also write the report here")
    ev.add_argument("--csv", help="append the report to this CSV file")
    ev.add_argument("--label", default="", help="row label for the CSV file")
    ev.set_defaults(func=cmd_evaluate)

    ef = sub.add_parser("export-filters", help="dump a checkpoint's filter bank")
    ef.add_argument("--checkpoint", required=True)
    ef.add_argument("--out", required=True, help="output directory")
    ef.add_argument("--zoom", type=int, default=16, help="preview upscaling factor")
    ef.set_defaults(func=cmd_export_filters)

    em = sub.add_parser("export-feature-maps",
                        help="dump the sparse feature maps for one sample")
    em.add_argument("--checkpoint", required=True)
    em.add_argument("--sample", required=True, help="sample directory")
    em.add_argument("--out", required=True, help="output directory")
    em.set_defaults(func=cmd_export_feature_maps)

    return parser


def cmd_gen_data(args) -> int:
    spec = PhantomSpec(
        image_shape=(args.nx, args.ny, args.nt),
        n_ellipses=args.ellipses,
        rng_seed=args.seed,
    )
    coils = make_coil_maps(args.coils, (args.nx, args.ny))
    pairs = synth_dataset(spec, args.samples, coils,
                          mask_family=args.mask_family,
                          sigma=args.sigma, accel=args.accel)
    settings = {
        "samples": args.samples,
        "shape": [args.nx, args.ny, args.nt],
        "coils": args.coils,
        "accel": args.accel,
        "sigma": args.sigma,
        "seed": args.seed,
        "ellipses": args.ellipses,
        "mask_family": args.mask_family,
    }
    save_dataset(args.out, pairs, settings=settings)
    print(f"wrote {len(pairs)} samples to {args.out}")
    return 0


def _config_value(key, value):
    """`value` of config-file key `key` as its type; bool is no number."""
    kind = TRAIN_KEYS[key][1]
    allowed = (int, float) if kind is float else kind
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, allowed):
        raise UsageError(
            f"config key {key!r} must be {TYPE_NAMES[kind]}, got {value!r}"
        )
    return kind(value)


def _load_train_settings(args) -> dict:
    """Fields and train() arguments set by the config file or by flags."""
    settings = {}
    if args.config is not None:
        file_settings = read_manifest(args.config, {})
        unknown = sorted(set(file_settings) - set(TRAIN_KEYS))
        if unknown:
            raise UsageError(
                f"unknown config keys {unknown}; allowed: {sorted(TRAIN_KEYS)}"
            )
        settings = {key: _config_value(key, value)
                    for key, value in file_settings.items()}
    for key in TRAIN_KEYS:
        value = getattr(args, key)
        if value is not None:
            settings[key] = value
    return {TRAIN_KEYS[key][0]: value for key, value in settings.items()}


def cmd_train(args) -> int:
    fields = _load_train_settings(args)
    train_args = {name: fields.pop(name) for name in TRAIN_ARGS if name in fields}
    if "fixed_filters" in fields:
        fields["train_filters"] = not fields.pop("fixed_filters")
    config = NetworkConfig(**fields)
    dataset = load_dataset(args.data)
    val_dataset = load_dataset(args.val)
    params, history = train(dataset, val_dataset, config, run_dir=args.out,
                            **train_args)
    save_checkpoint(Path(args.out) / "final", params, config)
    first, last = history[0], history[-1]
    print(f"epoch 0: val loss {first.val_loss:.6e}")
    print(f"epoch {last.epoch}: val loss {last.val_loss:.6e}")
    print(f"run directory: {args.out}")
    return 0


def cmd_reconstruct(args) -> int:
    params, config = load_checkpoint(args.checkpoint)
    sample = load_kspace_sample(args.sample)
    result = forward_reconstruct(sample, params, config)
    if not np.isfinite(result.image).all():
        raise NonFiniteValue("reconstruction produced non-finite values")
    write_tensor(args.out, result.image)
    if args.pgm:
        magnitude = np.abs(result.image)
        hi = float(magnitude.max()) or 1.0
        for t in range(magnitude.shape[2]):
            frame = quantize_window(magnitude[:, :, t], 0.0, hi)
            write_pgm(f"{args.pgm}_t{t:02d}.pgm", frame)
    print(f"wrote reconstruction to {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    recon = read_tensor(args.recon)
    target = read_tensor(args.target)
    size = tuple(args.roi) if args.roi is not None else None
    report = compute_report(recon, target, size=size)
    text = report.to_json()
    print(text)
    if args.json_out:
        with atomic_write(args.json_out) as fh:
            fh.write(text + "\n")
    if args.csv:
        label = args.label or Path(args.recon).name
        append_report_csv(args.csv, report, label=label)
    return 0


def _tile_grid(cells, rows: int, cols: int, fill: float) -> np.ndarray:
    """Lay out equally shaped 2D arrays in a grid with 1-pixel separators."""
    h, w = cells[0].shape
    grid = np.full((rows * (h + 1) - 1, cols * (w + 1) - 1), fill)
    for idx, cell in enumerate(cells):
        r, c = divmod(idx, cols)
        grid[r * (h + 1):r * (h + 1) + h, c * (w + 1):c * (w + 1) + w] = cell
    return grid


def cmd_export_filters(args) -> int:
    params, config = load_checkpoint(args.checkpoint)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    kernels = params.filters.kernels
    write_tensor(out / "filters.bin", kernels.astype(np.complex128))
    peak = float(np.abs(kernels).max()) or 1.0
    if kernels.ndim == 3:
        cells = [kernels[k] for k in range(kernels.shape[0])]
        cols = int(np.ceil(np.sqrt(len(cells))))
        rows = int(np.ceil(len(cells) / cols))
    else:
        # one row per filter, temporal slices left to right
        cells = [
            kernels[k, :, :, t]
            for k in range(kernels.shape[0])
            for t in range(kernels.shape[3])
        ]
        rows, cols = kernels.shape[0], kernels.shape[3]
    grid = _tile_grid(cells, rows, cols, fill=-peak)
    zoom = max(1, args.zoom)
    grid = np.kron(grid, np.ones((zoom, zoom)))
    write_pgm(out / "filters.pgm", quantize_window(grid, -peak, peak))
    print(f"wrote {kernels.shape[0]} filters to {out}")
    return 0


def cmd_export_feature_maps(args) -> int:
    params, config = load_checkpoint(args.checkpoint)
    sample = load_kspace_sample(args.sample)
    result = forward_reconstruct(sample, params, config)
    # (K, N_t, N_x, N_y) codes to the (K, N_x, N_y, N_t) file layout
    maps = np.moveaxis(result.code_state.s, 1, -1)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    sigma = float(np.std(np.abs(maps))) or 1.0
    lo, hi = -FEATURE_WINDOW_SIGMAS * sigma, FEATURE_WINDOW_SIGMAS * sigma
    central = maps.shape[3] // 2
    for k in range(maps.shape[0]):
        write_tensor(out / f"feature_{k:02d}.bin", maps[k])
        frame = np.abs(maps[k, :, :, central])
        write_pgm(out / f"feature_{k:02d}.pgm", quantize_window(frame, lo, hi))
    print(f"wrote {maps.shape[0]} feature maps to {out}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (UcdlError, OSError, ValueError, KeyError,
            json.JSONDecodeError) as exc:
        print(str(exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
