"""ucdl benchmark: one workload per invocation, a closed loop with one caller.

    python3 perfbench/run.py --workload fixture-epoch --seed 0 --seconds 20 --trace 0

The run sets the workload up ``N_SETUPS`` times, once before the timed
phase and the rest spread evenly over it (set-up time is their median).  It
runs whole rounds of operations until ``--seconds`` of operations have
passed, then checks every output.  Operations are timed as a cost against
a reference kernel (``Reference``).  With ``--trace 0`` it prints the end-to-end metrics;
with ``--trace 1`` it alternates untraced and traced rounds and prints the
per-layer metrics, the traced operations' remainder outside every layer
span, and the tracing overhead against the untraced rounds.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit status is 0 only when every check
passed and no operation failed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tracer import OPERATION_TARGETS, SETUP_TARGETS, Tracer, ucdl_targets

ROOT = Path(__file__).resolve().parent.parent
# Set-ups are spread over the run, so their median samples the machine's
# slow and fast stretches as the operations do; taken back to back they
# fell within one stretch, and their median spread 35 % between runs.
N_SETUPS = 7

END_TO_END = {
    "setup_s": "s",
    "step_cost": "ref",
    "forward_cost": "ref",
    "peak_rss_mb": "MB",
    "recon_psnr_db": "dB",
}

# per-layer self times in ms per operation, keyed by span label; io and
# metrics have no nested spans, so their self time is their whole time
LAYER_TIMES = {
    label: f"{label}.ms" if label.startswith(("io.", "metrics.")) else f"{label}.self_ms"
    for label in dict.fromkeys(row[2] for row in OPERATION_TARGETS)
}

PER_LAYER = {
    **{name: "ms" for name in LAYER_TIMES.values()},
    "operators.normal_apply.calls": "count",
    "operators.normal_apply.fft_melems": "Melem",
    "tensors.dft.calls": "count",
    "tensors.dft.melems": "Melem",
    "dc.cg_iterations": "count",
    "dc.cg_rel_residual": "ratio",
    "network.trace_mb": "MB",
    "data.make_phantom.s": "s",
    "data.synth_dataset.s": "s",
    "io.mb": "MB",
    "trace.op_ms": "ms",
    "trace.remainder_ms": "ms",
    "trace.count_ms": "ms",
    "trace.untraced_op_ms": "ms",
    "trace.overhead_ms": "ms",
    "trace.overhead_pct": "%",
    "trace.ref_ms": "ms",
}


class Reference:
    """A fixed NumPy kernel, timed on the caller's thread between operations:
    one forward and one inverse DFT of an array shaped like the workload's
    coefficient maps, the transform pair sparse coding runs.

    An operation's cost is its wall time divided by the mean of the
    reference times just before and just after it.  On a shared virtual
    machine a neighbouring tenant can slow everything by half for stretches
    of 10-20 s, and the machine's speed drifts between runs; both slow a
    reference of the workload's own array size about as much as the
    operation, so the cost follows the program and not the machine (README).
    """

    def __init__(self, shape, axes):
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        self.axes = axes

    def seconds(self) -> float:
        start = time.perf_counter()
        np.fft.ifftn(np.fft.fftn(self.x, axes=self.axes), axes=self.axes)
        return time.perf_counter() - start


@dataclass
class Op:
    """One timed operation; `out` is what the workload's checks read."""

    kind: str
    seconds: float
    traced: bool
    error: str | None = None
    out: object = None
    ref_seconds: float = float("nan")  # mean of the reference before and after


def set_up(workload, seed, workdir, times, tracer=None):
    """One set-up in a fresh directory under `workdir`; appends its
    seconds to `times` and returns the state and the directory."""
    directory = workdir / f"setup{len(times)}"
    directory.mkdir(parents=True)
    targets = ucdl_targets(SETUP_TARGETS) if tracer else ()
    t0 = time.perf_counter()
    with tracer.installed(targets) if tracer else contextlib.nullcontext():
        state = workload.setup(seed, directory)
    times.append(time.perf_counter() - t0)
    return state, directory


def timed_phase(workload, state, seconds, set_up_again, n_again, tracer=None, targets=()):
    """Whole rounds until `seconds` of operations have passed.  With a
    tracer, odd rounds are traced and the phase ends on an even round count.

    `set_up_again` runs `n_again` times between operations, evenly spread
    over the phase; its time does not count towards `seconds`.
    """
    reference = Reference(*workload.reference)
    ops = []
    busy = 0.0  # seconds of the phase outside the set-ups
    n_rounds = n_done = 0
    while True:
        traced = tracer is not None and n_rounds % 2 == 1
        ref_before = reference.seconds()
        for kind, fn in workload.round(state):
            if n_done < n_again and busy >= seconds * (n_done + 1) / (n_again + 1):
                set_up_again()
                n_done += 1
                ref_before = reference.seconds()
            start = time.perf_counter()
            with tracer.installed(targets) if traced else contextlib.nullcontext():
                t0 = time.perf_counter()
                try:
                    out, error = (tracer.span("op", fn) if traced else fn()), None
                except Exception as exc:  # a failed operation is counted, the run goes on
                    out, error = None, f"{type(exc).__name__}: {exc}"
                elapsed = time.perf_counter() - t0
            ref_after = reference.seconds()
            ops.append(Op(kind, elapsed, traced, error, out, (ref_before + ref_after) / 2))
            ref_before = ref_after
            busy += time.perf_counter() - start
        n_rounds += 1
        if busy >= seconds and (tracer is None or n_rounds % 2 == 0):
            break
    for _ in range(n_again - n_done):
        set_up_again()
    return ops


def cost(ops, kind, traced=False):
    """Median over completed operations of a kind of wall time divided by
    the mean reference time measured just before and just after each."""
    ratios = [op.seconds / op.ref_seconds for op in ops
              if op.kind == kind and op.traced == traced and op.error is None]
    return statistics.median(ratios) if ratios else float("nan")


def end_to_end(ops, setups, rss_mb, checked):
    return {
        "setup_s": statistics.median(setups),
        "step_cost": cost(ops, "step"),
        "forward_cost": cost(ops, "forward"),
        "peak_rss_mb": rss_mb,
        "recon_psnr_db": checked.psnr_db,
    }


def per_layer(tracer, ops, setup_tracer, n_setups):
    n = sum(op.traced for op in ops)
    untraced = [op.seconds for op in ops if not op.traced]
    op_s = sum(tracer.self_s.values()) / n
    counts = tracer.counts
    metrics = {name: 1e3 * tracer.self_s[label] / n for label, name in LAYER_TIMES.items()}
    metrics.update({
        "operators.normal_apply.calls": tracer.calls["operators.normal_apply"] / n,
        "operators.normal_apply.fft_melems": counts["normal_apply.fft_elems"] / n / 1e6,
        "tensors.dft.calls": tracer.calls["tensors.dft"] / n,
        "tensors.dft.melems": counts["dft.elems"] / n / 1e6,
        "dc.cg_iterations": counts["cg.iterations"] / n,
        "dc.cg_rel_residual": counts["cg.rel_residual_sum"] / max(counts["cg.solves"], 1),
        "network.trace_mb": counts["trace.bytes"] / max(counts["trace.forwards"], 1) / 1e6,
        "data.make_phantom.s": setup_tracer.self_s["data.make_phantom"] / n_setups,
        "data.synth_dataset.s": setup_tracer.self_s["data.synth_dataset"] / n_setups,
        "io.mb": counts["io.bytes"] / n / 1e6,
        "trace.op_ms": 1e3 * op_s,
        "trace.remainder_ms": 1e3 * tracer.self_s["op"] / n,
        "trace.count_ms": 1e3 * tracer.self_s["count"] / n,
        "trace.untraced_op_ms": 1e3 * statistics.fmean(untraced),
        "trace.overhead_ms": 1e3 * (op_s - statistics.fmean(untraced)),
        "trace.overhead_pct": 100 * (cost(ops, "step", traced=True) / cost(ops, "step") - 1),
        "trace.ref_ms": 1e3 * statistics.median(op.ref_seconds for op in ops),
    })
    return metrics


def result_line(correct, attempted, failed, values, units):
    """The closing JSON line."""
    metrics = {name: {"value": float(values[name]), "unit": units[name]} for name in units}
    return json.dumps({"correct": bool(correct), "attempted": int(attempted),
                       "failed": int(failed), "metrics": metrics})


def declared_units(spec: dict, section: str) -> dict:
    return {m["name"]: m["unit"] for m in spec[section]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "ucdl").is_dir() or not spec_path.is_file():
        print(f"no ucdl sources or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    spec = json.loads(spec_path.read_text())
    section = "per_layer" if args.trace else "end_to_end"
    units = declared_units(spec, section)
    table = PER_LAYER if args.trace else END_TO_END
    if table != units:
        print(f"BENCHMARK.json {section} disagrees with the harness", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    tracer = Tracer() if args.trace else None
    setup_tracer = Tracer() if args.trace else None
    setups = []

    def set_up_again():
        _, directory = set_up(workload, args.seed, workdir, setups, setup_tracer)
        shutil.rmtree(directory)

    try:
        state, _ = set_up(workload, args.seed, workdir, setups, setup_tracer)
        targets = ucdl_targets(OPERATION_TARGETS) if args.trace else ()
        ops = timed_phase(workload, state, args.seconds, set_up_again, N_SETUPS - 1,
                          tracer, targets)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        checked = workload.check(state, ops)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    failed = [op for op in ops if op.error is not None]
    for op in failed[:5]:
        print(f"failed {op.kind}: {op.error}", file=sys.stderr)
    for note in checked.notes:
        print(f"{args.workload}: {note}", file=sys.stderr)
    if args.trace:
        values = per_layer(tracer, ops, setup_tracer, len(setups))
    else:
        values = end_to_end(ops, setups, rss_mb, checked)
    for name, value in values.items():
        print(f"{args.workload} {name} {value:.6g} {units[name]}")
    print(f"{args.workload} attempted {len(ops)} failed {len(failed)}")
    print(result_line(checked.correct, len(ops), len(failed), values, units))
    return 0 if checked.correct and not failed else 1


if __name__ == "__main__":
    sys.exit(main())
