"""The benchmark's span targets resolve against the package, and its
operations pass their own correctness checks.

``bench/run.py --trace 1`` wraps every ``bench/spans.py`` ``TARGETS`` entry
by name, so removing or renaming one of those functions breaks the traced
benchmark. A benchmark run whose operations ``bench/workloads.py`` calls
incorrect is refused. These tests fail first.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


spans = _load("spans")
workloads = _load("workloads")


@pytest.mark.parametrize("name", sorted(spans.TARGETS))
def test_span_target_resolves(name):
    module, path = spans.TARGETS[name]
    importlib.import_module(f"cvdist.{module}")
    owner, attr, fn = spans._resolve(module, path)
    assert callable(fn) and getattr(owner, attr) is fn


@pytest.mark.parametrize("name, n_ops", [("nogo-wide", 5), ("fig1-verify", 8)])
def test_workload_operations_pass_their_checks(tmp_path, name, n_ops):
    wl = workloads.WORKLOADS[name]
    inputs = workloads.make_inputs(wl, 11, str(tmp_path))
    for k in range(n_ops):
        assert workloads.run_op(wl, inputs, 11, k).problems == []
