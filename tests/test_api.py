"""Public surface checks: the benchmark's trace targets resolve, the trace
fields it reads exist, names removed from the package stay out of it, no
module reaches into the private helpers of the solvers, and no module of
the package uses numpy's FFT."""

import ast
import importlib
import inspect
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import ucdl
from ucdl import backprop, cli, dc, network
from ucdl.dc import cg_to_tolerance
from ucdl.network import NetworkConfig, init_network
from ucdl.operators import make_coil_maps, make_mask, simulate_measurement

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from tracer import (OPERATION_TARGETS, SETUP_TARGETS, Tracer,  # noqa: E402
                    array_bytes, ucdl_targets)
from workloads import active_pattern  # noqa: E402

SRC = Path(ucdl.__file__).resolve().parent

REMOVED = {
    "csc": ["s_update", "admm_step", "run_admm", "u_update", "z_update",
            "csc_objective", "SUpdateTrace", "_broadcast_spectra", "_solve"],
    "dc": ["dc_step", "build_rhs", "DcConfig"],
    "tensors": ["inner_product", "as_channels", "from_channels", "circular_convolve"],
    "operators": ["zero_filled_recon"],
    "network": ["replace_filters", "mode_2d_merge", "mode_2d_split"],
    "errors": ["NonPositiveGamma", "NonPositiveBeta", "FilterTooLarge"],
    "cli": ["TRAIN_DEFAULTS"],
}


@pytest.mark.parametrize("module,name",
                         [row[:2] for row in OPERATION_TARGETS + SETUP_TARGETS])
def test_trace_target_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"ucdl.{module}"), name))


# the same network on two masks: on the points mask its 3-step solves stop
# short and are reversed step by step; on the columns mask they converge
# and are reversed by an adjoint solve
@pytest.mark.parametrize("family,record", [("points", dc.CgTrace), ("columns", dc.CgSolution)],
                         ids=["unrolled", "converged"])
def test_benchmark_counts_a_traced_forward(monkeypatch, family, record):
    # T=2 outer iterations of J=2 ADMM sweeps and 3 CG steps on 8x8x2
    config = NetworkConfig(mode="2d", n_filters=2, kernel_size=3, n_outer=2,
                           n_admm=2, n_cg=3)
    shape = (8, 8, 2)
    rng = np.random.default_rng(0)
    target = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    sample = simulate_measurement(target, make_coil_maps(2, shape[:2]),
                                  make_mask(shape, accel=2.0, family=family, seed=1),
                                  sigma=0.01, rng_seed=2)
    params = init_network(config)
    adjoint_iterations = []

    def counted(b, operator, max_iterations):
        x, residuals = cg_to_tolerance(b, operator, max_iterations)
        adjoint_iterations.append(len(residuals) - 1)
        return x, residuals

    monkeypatch.setattr(dc, "cg_to_tolerance", counted)
    tracer = Tracer()
    # called through their modules, where the tracer rebinds them
    with tracer.installed(ucdl_targets(OPERATION_TARGETS)):
        result = network.forward_reconstruct(sample, params, config, want_trace=True)
        forward_dfts = tracer.calls["tensors.dft"]
        forward_normals = tracer.calls["operators.normal_apply"]
        backprop.backward(result.trace, result.image - target)
    assert all(type(outer.cg) is record for outer in result.trace.outer)
    # the kernel spectra, then per outer iteration x, per sweep u + z and the
    # new s, and the synthesis, which reuses the last sweep's s spectrum
    assert forward_dfts == 1 + 2 * (2 * 2 + 2)
    # per outer iteration the synthesis cotangent, per sweep the prox and
    # dual cotangent (none on the very last sweep, whose u and z nothing
    # reads) and w = u + z (none on the first, which starts from zero codes),
    # and x except on iteration 0, then the kernel gradient
    assert tracer.calls["tensors.dft"] - forward_dfts == (1 + 1 + 2 + 1) + (1 + 2 + 1) + 1
    backward_normals = tracer.calls["operators.normal_apply"] - forward_normals
    if record is dc.CgTrace:
        # per outer iteration one H per CG step and one for the warm start's
        # cotangent, which iteration 0, starting from A^H y, does without
        assert not adjoint_iterations
        assert backward_normals == 2 * (3 + 1) - 1
    else:
        # one H per adjoint step, none for the warm start, which drops out
        assert len(adjoint_iterations) == 2 and min(adjoint_iterations) > 0
        assert backward_normals == sum(adjoint_iterations)
    pattern = active_pattern(result.trace)
    assert len(pattern) == 4
    # (re/im, K, N_t, N_x, N_y)
    assert all(p.shape == (2, 2, 2, 8, 8) for p in pattern)
    assert tracer.counts["trace.forwards"] == 1
    assert tracer.counts["trace.bytes"] == array_bytes(result.trace) > 0
    assert tracer.counts["cg.solves"] == 2
    assert tracer.counts["cg.iterations"] == 6
    assert 0 < tracer.counts["cg.rel_residual_sum"] < 2
    assert tracer.calls["csc.admm_step"] == 4
    assert tracer.calls["backprop.admm_step_backward"] == 4
    assert tracer.calls["backprop.synthesis_backward"] == 2


def test_exports_resolve():
    for name in ucdl.__all__:
        assert hasattr(ucdl, name), name


@pytest.mark.parametrize("module,names", sorted(REMOVED.items()))
def test_removed_names_are_gone(module, names):
    mod = importlib.import_module(f"ucdl.{module}")
    for name in names:
        assert name not in ucdl.__all__
        assert not hasattr(ucdl, name)
        assert not hasattr(mod, name), f"ucdl.{module}.{name}"


def test_backprop_keeps_only_the_backward():
    # each block's VJP sits beside its forward in csc or dc; backprop
    # imports the ones backward calls
    for name in ["prox_backward", "s_update_backward", "_real_inner", "_sum_batch", "_n_freq"]:
        assert not hasattr(backprop, name), name


@pytest.mark.parametrize("function", [network.forward_reconstruct, backprop.backward,
                                      cli.cmd_export_feature_maps],
                         ids=lambda f: f"{f.__module__}.{f.__name__}")
def test_numeric_path_does_not_read_the_mode(function):
    # both modes run frames-first through the same code
    tree = ast.parse(textwrap.dedent(inspect.getsource(function)))
    names = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert not names & {"mode", "MODE_2D", "MODE_3D"}


def private_solver_names(source: str) -> list[str]:
    """Underscore names of ucdl.csc or ucdl.dc that `source` imports or reads."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] in ("csc", "dc"):
            names += [a.name for a in node.names if a.name.startswith("_")]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in ("csc", "dc") and node.attr.startswith("_")):
            names.append(node.attr)
    return names


def test_private_name_guard_sees_each_spelling():
    source = ("from .csc import _solve, soft_threshold\nfrom ucdl.dc import (cg_solve, _x)\n"
              "from .network import _kernels_public\ny = csc._channels(v)\nz = dc.cg_solve\n")
    assert private_solver_names(source) == ["_solve", "_x", "_channels"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_uses_private_solver_names(path):
    # each block's VJP sits beside its forward, so the solvers' helpers
    # stay private to them
    assert private_solver_names(path.read_text()) == [], path.name


def numpy_fft_uses(source: str) -> list[int]:
    """Lines of `source` that import or reference numpy's FFT module."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            hit = (node.attr == "fft" and isinstance(node.value, ast.Name)
                   and node.value.id in ("np", "numpy"))
        elif isinstance(node, ast.Import):
            hit = any(a.name.startswith("numpy.fft") for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            hit = (module.startswith("numpy.fft")
                   or (module == "numpy" and any(a.name == "fft" for a in node.names)))
        else:
            hit = False
        if hit:
            lines.append(node.lineno)
    return sorted(lines)


def test_numpy_fft_guard_sees_each_spelling():
    source = ("import numpy as np\nimport numpy.fft\nfrom numpy import fft\n"
              "from numpy.fft import fft2\ny = np.fft.fft(x)\nz = numpy.fft.ifft(y)\n"
              "import scipy.fft\nw = scipy.fft.fft(x)\n")
    assert numpy_fft_uses(source) == [2, 3, 4, 5, 6]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_one_fft_backend(path):
    # every DFT goes through scipy.fft, so the operator's two paths and the
    # sparse-coding transforms share one backend's roundoff
    assert numpy_fft_uses(path.read_text()) == [], path.name
