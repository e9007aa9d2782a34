"""Public surface checks: the benchmark's trace targets resolve, and names
removed from the package stay out of it."""

import importlib
import sys
from pathlib import Path

import pytest

import ucdl

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from tracer import OPERATION_TARGETS, SETUP_TARGETS  # noqa: E402

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
