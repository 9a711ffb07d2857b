"""Workload definitions: inputs from a seed, one operation, its check.

Every operation is a closed loop step: the next starts only when the
previous one has returned. Only public entry points are driven:
``cvdist.cli.main`` for the no-go search, ``cvdist.protocols.run_fig1`` and
``cvdist.channels.apply`` for the Fig. 1 check. They are looked up on their
module at call time, so the tracing wrappers and the tests' fault injection
see every call.
"""

from __future__ import annotations

import contextlib
import csv
import io
import os
import time
from dataclasses import dataclass

import numpy as np

import cvdist.channels
import cvdist.cli
import cvdist.protocols
from cvdist.nogo import CSV_COLUMNS, GAP_TOL
from cvdist.states import GaussianState, random_state, tmsv

#: Criterion 4's pure inputs, tmsv(r) x 2 through ``--rs``.
NOGO_RS = (0.2, 0.5, 0.8, 1.1)
#: Criterion 4's mixed input, tmsv(0.8) + 0.2 I, through ``--input``.
MIXED_NOISE = 0.2
MIXED_R = 0.8
#: Input E_N of a pure input must equal 2r to this (criterion 4's tolerance).
EN_TOL = 1e-9

#: Criterion 1's channel shapes (n_in, n_out); a Fig. 1 operation runs each.
FIG1_SHAPES = ((1, 1), (1, 2), (2, 1), (2, 2))
#: Corrected output covariance must match channels.apply to this.
COV_TOL = 1e-9
#: Random Fig. 1 inputs made in set-up; operations past the pool reuse them
#: with fresh Bell-outcome draws.
FIG1_POOL = 1024


@dataclass(frozen=True)
class Workload:
    """One workload; BENCHMARK.json and README.md say why each was chosen."""

    name: str
    kind: str  # "nogo" or "fig1"
    starts: int = 0
    budget: int = 0
    samples: int = 0
    traced_ops: int = 5  # fixed, so traced call counts repeat exactly


WORKLOADS = {
    w.name: w
    for w in (
        # many starts at a short budget: where batching across starts helps
        Workload("nogo-wide", "nogo", starts=50, budget=50),
        # criterion 1's shape, one run_fig1 call per channel shape
        Workload("fig1-verify", "fig1", samples=20, traced_ops=50),
    )
}


@dataclass
class OpResult:
    seconds: float  # wall time of the timed public calls
    units: int  # objective evaluations, or Bell samples
    problems: list
    detail: dict


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def mixed_state() -> GaussianState:
    return GaussianState(mean=np.zeros(4),
                         cov=tmsv(MIXED_R).cov + MIXED_NOISE * np.eye(4))


def make_inputs(wl: Workload, seed: int, out_dir: str):
    """Everything the operations of ``wl`` read, made from ``seed`` alone."""
    if wl.kind == "nogo":
        path = os.path.join(out_dir, "mixed_input.json")
        tmp = f"{path}.{os.getpid()}"
        with open(tmp, "w") as fh:
            fh.write(mixed_state().to_json())
        os.replace(tmp, path)
        specs = [(f"tmsv({r})", ["--rs", repr(r)], 2.0 * r) for r in NOGO_RS]
        specs.append((f"tmsv({MIXED_R}) + {MIXED_NOISE} I", ["--input", path], None))
        return specs
    pool = []
    for k in range(FIG1_POOL):
        rng = np.random.default_rng([seed, k])
        n_in, n_out = FIG1_SHAPES[k % len(FIG1_SHAPES)]
        choi_cov = random_state(n_in + n_out, rng, nu_spread=0.8,
                                symplectic_scale=0.35).cov
        state = random_state(n_in, rng, nu_spread=1.0, symplectic_scale=0.4,
                             mean_scale=0.5)
        pool.append((n_in, n_out, choi_cov, state))
    return pool


def op_seed(seed: int, k: int) -> int:
    """Seed handed to ``cvdist nogo`` for operation k."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


# ---------------------------------------------------------------------------
# operations and their checks
# ---------------------------------------------------------------------------


def check_nogo(rc: int, stdout: str, expected_en, max_evals: int):
    """Problems with one certificate's CSV output (empty list: correct)."""
    rows = list(csv.reader(io.StringIO(stdout)))
    if rc != 0:
        return [f"exit code {rc}"], {}
    if len(rows) < 2 or tuple(rows[0]) != CSV_COLUMNS:
        return ["no certificate row in the output"], {}
    row = dict(zip(CSV_COLUMNS, rows[1]))
    gap = float(row["gap"])
    input_en = float(row["input_EN"])
    n_evals = int(row["n_evals"])
    problems = []
    if not gap >= -GAP_TOL:
        problems.append(f"gap {gap:.3e} < -{GAP_TOL:.0e}")
    if expected_en is not None and not abs(input_en - expected_en) <= EN_TOL:
        problems.append(f"input E_N {input_en!r} != 2r = {expected_en!r}")
    if not 0 < n_evals <= max_evals:
        problems.append(f"n_evals {n_evals} outside 1..{max_evals}")
    return problems, {"gap": gap, "input_EN": input_en, "n_evals": n_evals}


def nogo_op(wl: Workload, inputs, seed: int, k: int) -> OpResult:
    label, argv_input, expected_en = inputs[k % len(inputs)]
    argv = ["nogo", *argv_input, "--starts", str(wl.starts),
            "--budget", str(wl.budget), "--seed", str(op_seed(seed, k))]
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cvdist.cli.main(argv)
    except Exception as exc:  # noqa: BLE001 - a raising call is a failed operation
        return OpResult(time.perf_counter() - t0, 0, [f"raised {exc!r}"], {"input": label})
    seconds = time.perf_counter() - t0
    problems, detail = check_nogo(rc, out.getvalue(), expected_en,
                                  wl.starts * wl.budget + 1)
    detail["input"] = label
    return OpResult(seconds, detail.get("n_evals", 0), problems, detail)


def check_fig1(run, reference):
    """Problems with one run_fig1 result against channels.apply."""
    cov_dev = float(np.abs(run.corrected_output.cov - reference.cov).max())
    mean_dev = float(np.abs(run.corrected_output.mean - reference.mean).max())
    worst = max(cov_dev, run.max_cov_deviation)
    problems = [] if worst <= COV_TOL else [f"cov deviation {worst:.3e}"]
    return problems, {"cov_dev": worst, "mean_dev": mean_dev}


def fig1_op(wl: Workload, pool, seed: int, k: int) -> OpResult:
    """One run_fig1 call per channel shape, each checked on its own."""
    seconds = 0.0
    units = 0
    problems = []
    detail = {"cov_dev": 0.0, "mean_dev": 0.0}
    for j in range(len(FIG1_SHAPES)):
        idx = len(FIG1_SHAPES) * k + j
        n_in, n_out, choi_cov, state = pool[idx % len(pool)]
        rng = np.random.default_rng([seed, idx, 1])
        try:
            ch = cvdist.channels.GaussianChannel(n_in=n_in, n_out=n_out,
                                                 choi_cov=choi_cov)
            t0 = time.perf_counter()
            run = cvdist.protocols.run_fig1(ch, state, wl.samples, rng)
            seconds += time.perf_counter() - t0
            reference = cvdist.channels.apply(ch, state)
        except Exception as exc:  # noqa: BLE001 - a raising call is a failed operation
            problems.append(f"shape {(n_in, n_out)} raised {exc!r}")
            continue
        units += wl.samples
        bad, dev = check_fig1(run, reference)
        problems += [f"shape {(n_in, n_out)}: {p}" for p in bad]
        detail = {key: max(detail[key], dev[key]) for key in detail}
    return OpResult(seconds, units, problems, detail)


def run_op(wl: Workload, inputs, seed: int, k: int) -> OpResult:
    op = nogo_op if wl.kind == "nogo" else fig1_op
    return op(wl, inputs, seed, k)
