"""Tests of the benchmark itself: metrics emitted, checks that catch faults,
and inputs and call counts that repeat at a fixed seed.

Run from the repository root with ``python3 -m pytest -q bench``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import cvdist.nogo  # noqa: E402
import cvdist.protocols  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from cvdist.nogo import CSV_COLUMNS  # noqa: E402
from cvdist.states import GaussianState  # noqa: E402

SMALL = {
    "nogo-wide": dict(starts=4, budget=25, traced_ops=2),
    "fig1-verify": dict(samples=20, traced_ops=2),
}


@pytest.fixture
def small(monkeypatch):
    """Shrink every workload so one operation takes well under a second."""
    for name, changes in SMALL.items():
        monkeypatch.setitem(workloads.WORKLOADS, name,
                            dataclasses.replace(workloads.WORKLOADS[name], **changes))
    return workloads.WORKLOADS


def _result(argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(argv) == 0
    return json.loads(out.getvalue().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(SMALL))
@pytest.mark.parametrize("trace", [0, 1])
def test_small_run_emits_every_declared_metric(small, name, trace):
    result = _result(["--workload", name, "--seed", "11", "--seconds", "0",
                      "--trace", str(trace)])
    declared = run.declared_metrics(trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace == 0:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        assert result["metrics"]["trace.self_coverage"]["value"] > 0.95


def test_declared_workloads_exist():
    with open(BENCH.parent / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_perturbed_fig1_covariance_fails(small, monkeypatch):
    real = cvdist.protocols.run_fig1

    def perturbed(*args, **kwargs):
        res = real(*args, **kwargs)
        out = res.corrected_output
        bad = GaussianState(mean=out.mean, cov=out.cov + 1e-6 * np.eye(out.cov.shape[0]))
        return dataclasses.replace(res, corrected_output=bad)

    monkeypatch.setattr(cvdist.protocols, "run_fig1", perturbed)
    wl = small["fig1-verify"]
    pool = workloads.make_inputs(wl, 3, str(run.OUT_DIR))
    op = workloads.run_op(wl, pool, 3, 0)
    assert len(op.problems) == len(workloads.FIG1_SHAPES)
    assert all("cov deviation" in p for p in op.problems)


def test_forced_negative_gap_fails(small, monkeypatch):
    real = cvdist.nogo.objective
    monkeypatch.setattr(cvdist.nogo, "objective", lambda *a: real(*a) + 1.0)
    run.prepare()
    wl = small["nogo-wide"]
    inputs = workloads.make_inputs(wl, 3, str(run.OUT_DIR))
    op = workloads.run_op(wl, inputs, 3, 0)
    assert op.problems == ["exit code 5"]


def _csv(gap=0.0, input_en=0.4, n_evals=10):
    header = ",".join(CSV_COLUMNS)
    return f"{header}\n0.2,{input_en!r},0.4,{gap!r},1,{n_evals},7\n"


@pytest.mark.parametrize("rc, text, problem", [
    (0, _csv(gap=-1e-3), "gap"),
    (0, _csv(input_en=0.41), "input E_N"),
    (0, _csv(n_evals=11), "n_evals"),
    (5, _csv(), "exit code"),
    (0, "", "no certificate"),
])
def test_nogo_check_counts_each_violation(rc, text, problem):
    problems, _ = workloads.check_nogo(rc, text, expected_en=0.4, max_evals=10)
    assert len(problems) == 1 and problem in problems[0]
    assert workloads.check_nogo(0, _csv(), 0.4, 10)[0] == []


def test_fixed_seed_repeats_inputs_and_call_counts(small):
    run.prepare()
    wl = small["fig1-verify"]
    a, b, c = (workloads.make_inputs(wl, s, str(run.OUT_DIR)) for s in (5, 5, 6))
    assert all(np.array_equal(x[2], y[2]) and np.array_equal(x[3].cov, y[3].cov)
               and np.array_equal(x[3].mean, y[3].mean) for x, y in zip(a, b))
    assert not np.array_equal(a[0][2], c[0][2])
    assert workloads.op_seed(5, 3) == workloads.op_seed(5, 3) != workloads.op_seed(6, 3)
    for name in SMALL:
        counts = []
        for _ in range(2):
            metrics = _result(["--workload", name, "--seed", "5", "--seconds", "0",
                               "--trace", "1"])["metrics"]
            counts.append({k: v["value"] for k, v in metrics.items()
                           if k.endswith(".calls")})
        assert counts[0] == counts[1]
        assert any(counts[0].values())
