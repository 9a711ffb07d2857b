"""cvdist benchmark: no-go search throughput and Fig. 1 verification speed.

Run from the repository root:

    python3 bench/run.py --workload nogo-wide --seed 1 --seconds 50 --trace 0

``--trace 0`` runs a closed loop of operations for ``--seconds`` seconds,
with slices of a reference kernel between them (see reference.py), and
reports the end-to-end metrics declared in BENCHMARK.json. ``--trace 1``
runs the workload's fixed list of operations twice each, once plain and once
with span wrappers installed (see spans.py), and reports the per-module
metrics and the tracing overhead. The last line of standard output is the
result object; the full result, with an environment block, goes to
``bench/out/``. See README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "bench" / "out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Fresh processes that time set-up; setup_s is their median. Each is
#: bracketed by reference slices of SETUP_REF_S.
SETUP_REPEATS = 5
SETUP_REF_S = 0.15
#: A reference slice (see reference.py) is due after this much operation
#: time, and lasts this share of it, so it takes a fifth of a plain run.
REF_EVERY_S = 0.5
REF_SLICE_SHARE = 0.25


def prepare() -> None:
    """Pin BLAS to one thread and put the checkout's sources on the path."""
    if not (ROOT / "src" / "cvdist" / "__init__.py").is_file():
        raise SystemExit(f"no cvdist sources under {ROOT / 'src'}; run from a checkout")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    OUT_DIR.mkdir(exist_ok=True)


def declared_metrics(trace: int) -> list:
    """The metrics BENCHMARK.json declares for a plain or a traced run."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": git_commit(),
    }


def setup_seconds(workload: str, seed: int, ref):
    """Import + input generation, timed in fresh processes.

    A reference slice runs before each process and after the last; returns
    the times and, per process, the mean rate of the slices around it.
    """
    times, rates = [], [ref.rate(SETUP_REF_S)]
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, __file__, "--setup-probe", "--workload", workload,
             "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(proc.stdout.split()[-1]))
        rates.append(ref.rate(SETUP_REF_S))
    return times, [(a + b) / 2.0 for a, b in zip(rates, rates[1:])]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def closed_loop(wl, inputs, seed: int, seconds: float, ref):
    """Operations back to back until ``seconds`` have passed (at least one).

    A reference slice runs before the first operation and after every
    REF_EVERY_S of operation time; each operation gets the mean rate of the
    two slices around it. Returns the operations and those rates.
    """
    from workloads import run_op

    ops, rates, pending = [], [], []
    last = ref.rate(REF_SLICE_SHARE * REF_EVERY_S)
    end = time.perf_counter() + seconds
    while not ops or time.perf_counter() < end:
        op = run_op(wl, inputs, seed, len(ops))
        ops.append(op)
        pending.append(op)
        op_s = sum(o.seconds for o in pending)
        if op_s >= REF_EVERY_S or time.perf_counter() >= end:
            now = ref.rate(REF_SLICE_SHARE * op_s)
            rates += [(last + now) / 2.0] * len(pending)
            last, pending = now, []
    return ops, rates


def end_to_end(ops, rates, setup: list, setup_rates: list) -> dict:
    """Declared metrics on normalized times, plus the raw ones for the record.

    A normalized time is the operation's wall time scaled by the reference
    rate around it, so it reads as seconds on a machine whose reference rate
    is REF_RATE. Throughput is the median of per-operation rates.
    """
    from reference import REF_RATE

    norm_s = [op.seconds * rate / REF_RATE for op, rate in zip(ops, rates)]
    metrics = {
        "norm_work_per_s": statistics.median(
            op.units / t for op, t in zip(ops, norm_s)),
        "norm_op_p50_ms": 1e3 * statistics.median(norm_s),
        "setup_s": statistics.median(
            t * rate / REF_RATE for t, rate in zip(setup, setup_rates)),
        "peak_rss_mb": peak_rss_mb(),
        "setup_raw_s": statistics.median(setup),
        "work_per_s": sum(op.units for op in ops) / sum(op.seconds for op in ops),
        "op_p50_ms": 1e3 * statistics.median(op.seconds for op in ops),
        "ref_rate_p50": statistics.median(rates),
    }
    if len(ops) >= 200:  # at least ten samples beyond the 95th percentile
        metrics["norm_op_p95_ms"] = 1e3 * statistics.quantiles(norm_s, n=20)[-1]
        metrics["op_p95_ms"] = 1e3 * statistics.quantiles(
            [op.seconds for op in ops], n=20)[-1]
    return metrics


def traced(wl, inputs, seed: int):
    """Each fixed operation plain, then traced; returns ops, recorder, walls."""
    from spans import Recorder, install
    from workloads import run_op

    rec = Recorder()
    ops = []
    plain_s = traced_s = 0.0
    for k in range(wl.traced_ops):
        t0 = time.perf_counter()
        run_op(wl, inputs, seed, k)
        plain_s += time.perf_counter() - t0
        restore = install(rec)
        rec.op_id = k
        rec.open(0)
        try:
            ops.append(run_op(wl, inputs, seed, k))
        finally:
            traced_s += rec.close()
            restore()
    return ops, rec, plain_s, traced_s


def per_layer(wl, ops, rec, plain_s: float, traced_s: float) -> dict:
    from spans import ROOT as ROOT_SPAN

    metrics = {}
    for i, name in enumerate(rec.names):
        calls = int(rec.calls[i])
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.mean_us"] = 1e6 * rec.total_s[i] / calls if calls else 0.0
        metrics[f"{name}.self_ms"] = 1e3 * rec.self_s[i]
        metrics[f"{name}.raised"] = int(rec.raised[i])
    units = sum(op.units for op in ops)
    per_op_budget = wl.starts * wl.budget + 1 if wl.kind == "nogo" else 0
    metrics["nogo.budget_used"] = (
        metrics["nogo.objective.calls"] / (per_op_budget * len(ops))
        if per_op_budget else 0.0
    )
    metrics["states.GaussianState.per_eval"] = (
        metrics["states.GaussianState.calls"] / units if units else 0.0
    )
    root = rec.name_id[ROOT_SPAN]
    metrics["trace.self_coverage"] = (
        float(rec.self_s.sum() - rec.self_s[root]) / float(rec.total_s[root])
    )
    metrics["trace.overhead_s"] = traced_s - plain_s
    metrics["trace.overhead_share"] = (traced_s - plain_s) / plain_s
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)  # child process timing set-up
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    prepare()
    from workloads import WORKLOADS, make_inputs

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    inputs = make_inputs(wl, args.seed, str(OUT_DIR))
    if args.setup_probe:
        print(time.perf_counter() - t0)
        return 0
    declared = declared_metrics(args.trace)

    start = time.perf_counter()
    extra = {}
    if args.trace:
        ops, rec, plain_s, traced_s = traced(wl, inputs, args.seed)
        metrics = per_layer(wl, ops, rec, plain_s, traced_s)
        spans_path = OUT_DIR / f"{wl.name}-seed{args.seed}.spans.npz"
        rec.save(spans_path)
        extra["spans"] = str(spans_path.relative_to(ROOT))
        extra["top_self_ms"] = dict(sorted(
            ((k[:-len(".self_ms")], round(v, 3)) for k, v in metrics.items()
             if k.endswith(".self_ms")), key=lambda kv: -kv[1])[:8])
    else:
        from reference import Reference

        ref = Reference()
        setup, setup_rates = setup_seconds(wl.name, args.seed, ref)
        ops, rates = closed_loop(wl, inputs, args.seed, args.seconds, ref)
        metrics = end_to_end(ops, rates, setup, setup_rates)
        extra["ref_rates"] = rates
        extra["setup_runs_s"] = setup
        extra["setup_ref_rates"] = setup_rates
    extra["wall_s"] = time.perf_counter() - start
    failed = sum(1 for op in ops if op.problems)
    metrics["fail_share"] = failed / len(ops)
    metrics["fig1.mean_dev_max"] = max(op.detail.get("mean_dev", 0.0) for op in ops)
    record = {
        "environment": environment(args.seed),
        "workload": asdict(wl),
        "trace": args.trace,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
        "extra": extra,
        "ops": [asdict(op) for op in ops],
    }
    path = OUT_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))

    for op in ops:
        for problem in op.problems:
            print(f"FAILED op: {problem}")
    print(f"{wl.name}: {len(ops)} operations, {failed} failed, "
          f"{extra['wall_s']:.1f} s; full result in {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
