"""Public surface checks: the benchmark's trace targets resolve, the trace
fields it reads exist, names removed from the package stay out of it, no
module reaches into the private helpers of the solvers, no public function
or class is there for the tests alone, and no module of the package uses
numpy's FFT or reduces an inner product through BLAS."""

import ast
import importlib
import inspect
import re
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
            "csc_objective", "SUpdateTrace", "_broadcast_spectra", "_solve", "s_update_traced",
            "s_update_backward", "prox_backward", "_channels", "_from_channels", "_check_tau",
            "soft_threshold", "_shrink"],
    "dc": ["dc_step", "build_rhs", "DcConfig", "_real_inner"],
    "tensors": ["inner_product", "as_channels", "from_channels", "circular_convolve", "norm2_sq"],
    "operators": ["zero_filled_recon"],
    "network": ["replace_filters", "mode_2d_merge", "mode_2d_split"],
    "errors": ["NonPositiveGamma", "NonPositiveBeta", "FilterTooLarge", "TraceMismatch"],
    "cli": ["TRAIN_DEFAULTS"],
}


@pytest.mark.parametrize("module,name",
                         [row[:2] for row in OPERATION_TARGETS + SETUP_TARGETS])
def test_trace_target_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"ucdl.{module}"), name))


def counted_network(family):
    """(config, sample, params, target) of T=2 outer iterations of J=2 ADMM
    sweeps and 3 CG steps on 8x8x2, measured on `family`'s mask."""
    config = NetworkConfig(mode="2d", n_filters=2, kernel_size=3, n_outer=2,
                           n_admm=2, n_cg=3)
    shape = (8, 8, 2)
    rng = np.random.default_rng(0)
    target = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    sample = simulate_measurement(target, make_coil_maps(2, shape[:2]),
                                  make_mask(shape, accel=2.0, family=family, seed=1),
                                  sigma=0.01, rng_seed=2)
    return config, sample, init_network(config), target


# the same network on two masks: on the points mask its 3-step solves stop
# short and are reversed step by step; on the columns mask they converge
# and are reversed by an adjoint solve
@pytest.mark.parametrize("family,record", [("points", dc.CgTrace), ("columns", dc.CgSolution)],
                         ids=["unrolled", "converged"])
def test_benchmark_counts_a_traced_forward(monkeypatch, family, record):
    config, sample, params, target = counted_network(family)
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
    # new s, and the synthesis, which reuses the last sweep's s spectrum;
    # less u + z of the first sweep, which starts from zero codes
    assert forward_dfts == 1 + 2 * (2 * 2 + 2) - 1
    # per outer iteration the synthesis cotangent, per sweep the prox and
    # dual cotangent (none on the very last sweep, whose u and z nothing
    # reads), w = u + z and the re-formed s_hat (neither on the first, which
    # starts from zero codes), and x except on iteration 0, then the kernel
    # gradient
    assert tracer.calls["tensors.dft"] - forward_dfts == (1 + 2 + 3 + 1) + (1 + 3 + 1) + 1
    backward_normals = tracer.calls["operators.normal_apply"] - forward_normals
    if record is dc.CgTrace:
        # per outer iteration one H per CG step to replay the solve, whose
        # record keeps only its start and scalars, one per CG step to reverse
        # it, and one for the warm start's cotangent, which iteration 0,
        # starting from A^H y, does without
        assert not adjoint_iterations
        assert backward_normals == 2 * 3 + 2 * (3 + 1) - 1
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


def test_benchmark_counts_an_untraced_forward():
    config, sample, params, _ = counted_network("points")
    tracer, inverse = Tracer(), Tracer()
    with tracer.installed(ucdl_targets(OPERATION_TARGETS)):
        result = network.forward_reconstruct(sample, params, config)
        forward_dfts = tracer.calls["tensors.dft"]
        # the codes are read under a second tracer that sees inverse DFTs alone
        with inverse.installed(ucdl_targets([("tensors", "dft_inverse", "inverse", None)])):
            first = (result.code_state.s, result.code_state.v)
            read_dfts = tracer.calls["tensors.dft"]
            second = (result.code_state.s, result.code_state.v)
    # the traced forward's transforms less the last sweep's inverse DFT of
    # s_hat, which only the codes read: the image reads that sweep's c
    assert forward_dfts == 1 + 2 * (2 * 2 + 2) - 2
    assert tracer.calls["csc.admm_step"] == 4
    # the first read of the codes runs that transform, and a second none
    assert read_dfts - forward_dfts == inverse.calls["inverse"] == 1
    assert tracer.calls["tensors.dft"] == read_dfts
    assert all(a is b for a, b in zip(first, second))


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
    # imports the ones backward calls, and reads gamma and tau's VJP from
    # the trace's AdmmConfig
    for name in ["prox_backward", "s_update_backward", "_real_inner", "_sum_batch", "_n_freq",
                 "AdmmConfig"]:
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


def unreferenced_definitions(sources: dict) -> list:
    """(module, name) of each public module-level function or class in
    `sources` (module name -> source) that no module of them reads by name,
    bare or as an attribute."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}
    return [(module, node.name) for module, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_") and node.name not in read]


def test_unreferenced_definition_guard_sees_each_spelling():
    sources = {"a": "def bare():\n    pass\nclass Attr:\n    pass\ndef unused():\n    pass\n"
                    "def _private():\n    pass\ny = bare()\n",
               "b": "from .a import unused\nz = a.Attr\ndef also_unused(x):\n    return x\n"}
    assert unreferenced_definitions(sources) == [("a", "unused"), ("b", "also_unused")]


def names_read(source: str) -> set:
    """Every name `source` reads, bare, as an attribute or by import."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def exports_read_outside() -> set:
    """The names of ucdl.__all__ that the benchmark (perfbench/) or the
    README's library example read."""
    root = SRC.parent.parent
    sources = [path.read_text() for path in sorted((root / "perfbench").glob("*.py"))]
    sources += re.findall(r"```python\n(.*?)```", (root / "README.md").read_text(), re.S)
    assert len(sources) > 4
    return set(ucdl.__all__) & set().union(*(names_read(source) for source in sources))


def test_export_readers_see_each_spelling():
    source = "import ucdl\nfrom ucdl.csc import FilterBank as Bank\nx = ucdl.train(a)\ny = make_mask\n"
    assert names_read(source) >= {"FilterBank", "train", "make_mask"}
    assert {"PhantomSpec", "train", "forward_reconstruct"} <= exports_read_outside()


def test_no_public_definition_only_the_tests_call():
    # a public function or class is read inside the package, exported for
    # the benchmark or the README's library example, or timed by the
    # benchmark (which reads dictionary_synthesis alone)
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    timed = {(module, name) for module, name, *_ in OPERATION_TARGETS + SETUP_TARGETS}
    read_outside = exports_read_outside()
    unused = [(module, name) for module, name in unreferenced_definitions(sources)
              if name not in read_outside and (module, name) not in timed]
    assert unused == []


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


# numpy functions whose reductions run through BLAS, and so in an order
# that follows its thread count
BLAS_REDUCTIONS = {"vdot", "dot", "inner", "matmul"}


def blas_reduction_uses(source: str) -> list[int]:
    """Lines of `source` that reduce through BLAS: numpy's vdot, dot, inner
    or matmul (also as an array method), numpy.linalg.norm, or the @
    operator."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            owner = getattr(node.value, "attr", getattr(node.value, "id", None))
            hit = node.attr in BLAS_REDUCTIONS or (node.attr == "norm" and owner == "linalg")
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            hit = ((module == "numpy" and any(a.name in BLAS_REDUCTIONS for a in node.names))
                   or (module == "numpy.linalg" and any(a.name == "norm" for a in node.names)))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)):
            hit = isinstance(node.op, ast.MatMult)
        else:
            hit = False
        if hit:
            lines.append(node.lineno)
    return sorted(lines)


def test_blas_reduction_guard_sees_each_spelling():
    source = ("import numpy as np\na = np.vdot(x, y)\nb = numpy.dot(x, y)\nc = x.dot(y)\n"
              "d = np.inner(x, y)\ne = np.matmul(x, y)\nf = np.linalg.norm(x)\n"
              "g = x @ y\nx @= y\nfrom numpy import vdot\nfrom numpy.linalg import norm\n"
              "from numpy import linalg\nh = linalg.norm(x)\ni = np.einsum('i,i->', x, y)\n"
              "k = np.linalg.LinAlgError\nfrom numpy.linalg import LinAlgError\n")
    assert blas_reduction_uses(source) == [2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 13]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_one_inner_product(path):
    # every inner product and norm is tensors.real_inner, whose order, and
    # so whose bits, do not depend on the BLAS thread count
    assert blas_reduction_uses(path.read_text()) == [], path.name


def directory_creations(source: str) -> list[int]:
    """Lines of `source` that create a directory: a `mkdir` or `makedirs`
    attribute (Path.mkdir, os.mkdir, os.makedirs) or one imported from os."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            hit = node.attr in ("mkdir", "makedirs")
        elif isinstance(node, ast.ImportFrom):
            hit = node.module == "os" and any(a.name in ("mkdir", "makedirs")
                                              for a in node.names)
        else:
            hit = False
        if hit:
            lines.append(node.lineno)
    return sorted(lines)


def test_directory_guard_sees_each_spelling():
    source = ("import os\nout.mkdir(parents=True)\nos.makedirs(d)\nos.mkdir(d)\n"
              "from os import makedirs\nPath(p).mkdir()\nos.path.isdir(d)\nmake_directory(d)\n")
    assert directory_creations(source) == [2, 3, 4, 5, 6]


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py")) if p.name != "io.py"],
                         ids=lambda p: p.name)
def test_one_directory_maker(path):
    # io.make_directory creates every output directory, and names the path
    # when it cannot
    assert directory_creations(path.read_text()) == [], path.name


# os functions that replace or remove a file, and shutil's tree removal
FILE_REMOVERS = {"os": ("replace", "rename", "remove", "unlink"), "shutil": ("rmtree",)}


def file_removals(source: str) -> list[int]:
    """Lines of `source` that replace or remove a file or a directory tree:
    any `.unlink` attribute (Path.unlink), `os.replace`, `os.rename`,
    `os.remove`, `os.unlink` and `shutil.rmtree`, or one of these imported."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            hit = node.attr == "unlink" or (isinstance(node.value, ast.Name)
                                            and node.attr in FILE_REMOVERS.get(node.value.id, ()))
        elif isinstance(node, ast.ImportFrom):
            hit = any(a.name in FILE_REMOVERS.get(node.module, ()) for a in node.names)
        else:
            hit = False
        if hit:
            lines.append(node.lineno)
    return sorted(lines)


def test_removal_guard_sees_each_spelling():
    source = ("import os, shutil\nos.replace(a, b)\nos.rename(a, b)\nos.remove(a)\n"
              "os.unlink(a)\ntmp.unlink(missing_ok=True)\nshutil.rmtree(d)\n"
              "from os import replace\nfrom shutil import rmtree\n"
              "text.replace('a', 'b')\ndataclasses.replace(p, x=1)\nos.path.exists(a)\n"
              "from dataclasses import replace\nshutil.copy(a, b)\n")
    assert file_removals(source) == [2, 3, 4, 5, 6, 7, 8, 9]


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py")) if p.name != "io.py"],
                         ids=lambda p: p.name)
def test_one_owner_of_failed_writes(path):
    # io decides what a failed write leaves behind: its all_or_nothing blocks
    # replace the targets and remove temporary files and the directories made
    assert file_removals(path.read_text()) == [], path.name
