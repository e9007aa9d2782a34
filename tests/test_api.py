"""Public surface checks: the benchmark's trace targets resolve, the trace
fields it reads exist, and names removed from the package stay out of it."""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

import ucdl
from ucdl import backprop, network
from ucdl.network import NetworkConfig, init_network
from ucdl.operators import make_coil_maps, make_mask, simulate_measurement

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from tracer import (OPERATION_TARGETS, SETUP_TARGETS, Tracer,  # noqa: E402
                    array_bytes, ucdl_targets)
from workloads import active_pattern  # noqa: E402

REMOVED = {
    "csc": ["s_update", "admm_step", "run_admm", "u_update", "z_update",
            "csc_objective"],
    "dc": ["dc_step", "build_rhs", "DcConfig"],
    "tensors": ["inner_product", "as_channels", "from_channels", "circular_convolve"],
    "operators": ["zero_filled_recon"],
    "network": ["replace_filters"],
    "errors": ["NonPositiveGamma", "NonPositiveBeta", "FilterTooLarge"],
    "cli": ["TRAIN_DEFAULTS"],
}


@pytest.mark.parametrize("module,name",
                         [row[:2] for row in OPERATION_TARGETS + SETUP_TARGETS])
def test_trace_target_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"ucdl.{module}"), name))


def test_benchmark_counts_a_traced_forward():
    # T=2 outer iterations of J=2 ADMM sweeps and 3 CG steps on 8x8x2
    config = NetworkConfig(mode="2d", n_filters=2, kernel_size=3, n_outer=2,
                           n_admm=2, n_cg=3)
    shape = (8, 8, 2)
    rng = np.random.default_rng(0)
    target = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    sample = simulate_measurement(target, make_coil_maps(2, shape[:2]),
                                  make_mask(shape, accel=2.0, seed=1),
                                  sigma=0.01, rng_seed=2)
    params = init_network(config)
    tracer = Tracer()
    # called through their modules, where the tracer rebinds them
    with tracer.installed(ucdl_targets(OPERATION_TARGETS)):
        result = network.forward_reconstruct(sample, params, config, want_trace=True)
        backprop.backward(result.trace, result.image - target)
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
