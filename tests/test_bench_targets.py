"""The benchmark's span targets resolve against the package.

``bench/run.py --trace 1`` wraps every ``bench/spans.py`` ``TARGETS`` entry
by name, so removing or renaming one of those functions breaks the traced
benchmark. This test fails first.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


@pytest.mark.parametrize("name", sorted(spans.TARGETS))
def test_span_target_resolves(name):
    module, path = spans.TARGETS[name]
    importlib.import_module(f"cvdist.{module}")
    owner, attr, fn = spans._resolve(module, path)
    assert callable(fn) and getattr(owner, attr) is fn
