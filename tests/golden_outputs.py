"""Committed CLI outputs: the cases, the environment they were made in, and
their regeneration.

Each case is one ``cvdist`` command. It runs in a working directory that
holds the files it reads, all of them committed under ``tests/golden/``,
and its stdout and every file it writes are compared byte for byte with the
committed ones (``tests/test_golden.py``). Float64 bits depend on numpy and
on the BLAS it calls, so ``environment.json`` records both, and a run in a
different environment fails and names the difference instead of comparing.

A change that moves output bits on purpose regenerates the files:

    PYTHONPATH=src python tests/golden_outputs.py

and lists each moved file in CHANGES.md with its largest numeric difference.

``api-calls.sha256`` pins the library calls the CLI cases never reach: a
SHA-256 over the float64 bits that a fixed, seeded list of measurement,
channel, protocol and no-go calls returns (``api_calls_digest``). It is
regenerated with the other files.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import tempfile
from pathlib import Path

import numpy as np

from cvdist.channels import GaussianChannel, apply, choi_from_truncated_epr, conditional_output_mean
from cvdist.cli import main
from cvdist.measurements import DyneKind, DyneSpec, bell_measure, condition, sample_outcome
from cvdist.nogo import optimize
from cvdist.protocols import build_fig2, run_fig1
from cvdist.states import GaussianState, apply_symplectic, random_state, tmsv, vacuum
from cvdist.symplectic import random_symplectic

GOLDEN = Path(__file__).parent / "golden"
ENVIRONMENT = "environment.json"
API_CALLS = "api-calls.sha256"
SEED = "404"

#: A 50:50 beamsplitter on a party's two modes, and its mirror image, as the
#: 16 comma-separated entries ``fig2 run --sa/--sb`` parse. The same splitter
#: on both sides keeps the input's E_N; the mirror makes the heterodyne
#: outcomes enter the correction.
_C = repr(float(np.sqrt(0.5)))
_BS = ",".join([_C, "0", _C, "0", "0", _C, "0", _C,
                "-" + _C, "0", _C, "0", "0", "-" + _C, "0", _C])
_BS_MIRROR = ",".join([_C, "0", "-" + _C, "0", "0", _C, "0", "-" + _C,
                       _C, "0", _C, "0", "0", _C, "0", _C])


def _case(name, argv, reads=(), writes=()):
    return {"name": name, "argv": argv, "reads": tuple(reads), "writes": tuple(writes)}


#: In order: a case reads only committed inputs or what an earlier case wrote.
CASES = [
    _case("state-vacuum", ["state", "--kind", "vacuum", "--modes", "2",
                           "--out", "state-vacuum.json"], writes=["state-vacuum.json"]),
    _case("state-tmsv", ["state", "--kind", "tmsv", "--r", "0.5",
                         "--out", "state-tmsv.json"], writes=["state-tmsv.json"]),
    _case("state-thermal", ["state", "--kind", "thermal", "--nbar", "0.3", "--modes", "2",
                            "--out", "state-thermal.json"], writes=["state-thermal.json"]),
    _case("state-custom-json", ["state", "--kind", "custom-json", "--input", "input-pure3.json",
                                "--out", "state-custom-json.json"],
          reads=["input-pure3.json"], writes=["state-custom-json.json"]),
    _case("channel-identity-approx", ["channel", "make", "--kind", "identity-approx",
                                      "--modes", "2", "--r-approx", "6", "--seed", SEED,
                                      "--out", "channel-identity-approx.json"],
          writes=["channel-identity-approx.json"]),
    _case("channel-filter", ["channel", "make", "--kind", "filter", "--r", "0.5",
                             "--seed", SEED, "--out", "channel-filter.json"],
          writes=["channel-filter.json"]),
    _case("channel-attenuation", ["channel", "make", "--kind", "attenuation", "--eta", "0.5",
                                  "--r-approx", "6", "--seed", SEED,
                                  "--out", "channel-attenuation.json"],
          writes=["channel-attenuation.json"]),
    _case("channel-random-locc", ["channel", "make", "--kind", "random-locc", "--seed", SEED,
                                  "--out", "channel-random-locc.json"],
          writes=["channel-random-locc.json"]),
    _case("channel-apply", ["channel", "apply", "--channel", "channel-random-locc.json",
                            "--state", "input-mixed.json", "--out", "channel-apply.json"],
          reads=["channel-random-locc.json", "input-mixed.json"], writes=["channel-apply.json"]),
    _case("logneg", ["entanglement", "logneg", "--state", "input-mixed.json", "--alice", "0",
                     "--out", "logneg.json"],
          reads=["input-mixed.json"], writes=["logneg.json"]),
    _case("canon", ["canon", "--state", "state-custom-json.json", "--inputs", "0,1",
                    "--output-mode", "2", "--out", "canon.json"],
          reads=["state-custom-json.json"], writes=["canon.json"]),
    _case("fig1-verify", ["fig1", "verify", "--channel", "channel-random-locc.json",
                          "--state", "input-mixed.json", "--samples", "20", "--seed", SEED,
                          "--out", "fig1-verify.json"],
          reads=["channel-random-locc.json", "input-mixed.json"], writes=["fig1-verify.json"]),
    _case("fig1-verify-identity", ["fig1", "verify", "--channel", "channel-identity-approx.json",
                                   "--state", "input-mixed.json", "--samples", "5",
                                   "--seed", SEED, "--out", "fig1-verify-identity.json"],
          reads=["channel-identity-approx.json", "input-mixed.json"],
          writes=["fig1-verify-identity.json"]),
    _case("fig2-run", ["fig2", "run", "--r", "0.5", "--seed", SEED, "--out", "fig2-run.json"],
          writes=["fig2-run.json"]),
    _case("fig2-run-sa-sb", ["fig2", "run", "--copy1", "input-mixed.json", "--sa", _BS,
                             "--sb", _BS, "--seed", SEED, "--out", "fig2-run-sa-sb.json"],
          reads=["input-mixed.json"], writes=["fig2-run-sa-sb.json"]),
    _case("fig2-run-sampled", ["fig2", "run", "--copy1", "input-mixed.json", "--sa", _BS,
                               "--sb", _BS_MIRROR, "--sample-outcomes", "--seed", SEED,
                               "--out", "fig2-run-sampled.json"],
          reads=["input-mixed.json"], writes=["fig2-run-sampled.json"]),
    _case("nogo-rs", ["nogo", "--rs", "0.2,0.5", "--starts", "8", "--budget", "200",
                      "--seed", SEED, "--csv", "nogo-rs.csv",
                      "--certificates", "nogo-rs.json"],
          writes=["nogo-rs.csv", "nogo-rs.json"]),
    _case("nogo-input", ["nogo", "--input", "input-mixed.json", "--starts", "8",
                         "--budget", "200", "--seed", SEED, "--csv", "nogo-input.csv",
                         "--certificates", "nogo-input.json"],
          reads=["input-mixed.json"], writes=["nogo-input.csv", "nogo-input.json"]),
]


def environment() -> dict:
    """What float64 output bits depend on: numpy, its BLAS/LAPACK build and
    the CPU features that pick their kernels."""
    config = np.show_config(mode="dicts")
    deps = config["Build Dependencies"]
    return {
        "numpy": np.__version__,
        "machine": platform.machine(),
        "simd": config["SIMD Extensions"]["found"],
        **{lib: {key: deps[lib].get(key) for key in
                 ("name", "version", "openblas configuration")}
           for lib in ("blas", "lapack")},
    }


def environment_difference(recorded: dict) -> list:
    """Keys whose current value differs from ``recorded``, as messages."""
    if recorded.get("numpy") != np.__version__:  # show_config's dict form may be missing
        return [f"numpy: recorded {recorded.get('numpy')!r}, running {np.__version__!r}"]
    current = environment()
    return [f"{key}: recorded {recorded.get(key)!r}, running {current.get(key)!r}"
            for key in sorted(set(current) | set(recorded))
            if current.get(key) != recorded.get(key)]


def _hash(digest, *values) -> None:
    """Add each value's float64 bits and shape; None and states too."""
    for value in values:
        if isinstance(value, GaussianState):
            _hash(digest, value.mean, value.cov)
        elif value is None:
            digest.update(b"none")
        else:
            array = np.ascontiguousarray(value, dtype=float)
            digest.update(repr(array.shape).encode() + array.tobytes())


def _random_channel(rng) -> tuple:
    """A channel of random shape, partition, Choi state and mean, and an input."""
    n_in, n_out = rng.integers(1, 3, size=2)
    partition = tuple(rng.permutation(["in"] * n_in + ["out"] * n_out))
    choi = random_state(n_in + n_out, rng, nu_spread=0.5, symplectic_scale=0.3,
                        mean_scale=0.5)
    ch = GaussianChannel(n_in=int(n_in), n_out=int(n_out), choi_cov=choi.cov,
                         choi_mean=choi.mean, partition=partition)
    return ch, random_state(int(n_in), rng, mean_scale=1.0)


def api_calls_digest() -> str:
    """SHA-256 of what a fixed list of seeded library calls returns.

    It covers ``sample_outcome`` and ``condition`` under six specs and
    under all-mode homodyne and heterodyne, ``bell_measure`` with and
    without remaining modes, ``run_fig1``, ``apply`` and
    ``conditional_output_mean`` on random channels of every shape,
    ``build_fig2`` with zero and with sampled outcomes, and three small
    ``optimize`` runs. Any change to those bits changes the digest.
    """
    digest = hashlib.sha256()
    rng = np.random.default_rng(2020)
    specs = [DyneSpec((0,), DyneKind.HETERODYNE), DyneSpec((0, 2), DyneKind.HETERODYNE),
             DyneSpec((1,), DyneKind.HOMODYNE_X), DyneSpec((1,), DyneKind.HOMODYNE_P),
             DyneSpec((0, 2), DyneKind.HOMODYNE_X),
             DyneSpec((2, 0), DyneKind.GENERAL, random_state(2, rng).cov)]
    every_mode = [DyneSpec((0, 1, 2), kind) for kind in DyneKind if kind is not DyneKind.GENERAL]
    for _ in range(100):
        state = random_state(3, rng, mean_scale=1.0)
        for spec in specs:
            record = sample_outcome(state, spec, rng)
            _hash(digest, record.outcome, record.conditioned_state,
                  condition(state, spec, record.outcome))
        for spec in every_mode:
            record = sample_outcome(state, spec, rng)
            _hash(digest, record.outcome, record.conditioned_state)
        for pair in [(0, 2), (2, 1)]:
            record = bell_measure(state, pair, rng)
            _hash(digest, record.outcome, record.conditioned_state)
        record = bell_measure(random_state(2, rng, mean_scale=1.0), (1, 0), rng)
        _hash(digest, record.outcome, record.conditioned_state)
    channels = [choi_from_truncated_epr(n, r) for n in (1, 2) for r in (2.0, 6.0)]
    for k in range(200):
        if k < len(channels):
            ch = channels[k]
            state = random_state(ch.n_in, rng, mean_scale=1.0)
        else:
            ch, state = _random_channel(rng)
        run = run_fig1(ch, state, int(rng.integers(1, 20)), rng)
        _hash(digest, np.array(run.sampled_outcomes), run.corrected_output,
              run.reference_output, [run.max_cov_deviation, run.max_mean_deviation],
              apply(ch, state),
              conditional_output_mean(ch, state, rng.normal(size=2 * ch.n_in)))
    for k in range(100):
        s_a, s_b = random_symplectic(2, rng, scale=0.5), random_symplectic(2, rng, scale=0.5)
        copy1 = tmsv(float(rng.uniform(0.1, 1.0))).with_mean(rng.normal(size=4))
        copy2 = random_state(2, rng, mean_scale=1.0)
        for pro in [build_fig2(s_a, s_b, copy1, copy2),
                    build_fig2(s_a, s_b, copy1, copy2, seed=rng)]:
            _hash(digest, pro.outcomes, pro.correction, pro.output,
                  [pro.report.log_negativity])
    for seed, r in [(0, 0.3), (404, 0.5), (12345, 0.8)]:
        cert = optimize((tmsv(r), tmsv(r)), n_starts=4, seed=seed, budget=100)
        _hash(digest, [cert.best_e_n, cert.gap, cert.n_evals, cert.n_nonfinite_evals],
              cert.best_params, cert.start_n_evals,
              [np.nan if e is None else e for e in cert.start_best_e_n])
    return digest.hexdigest()


def run_case(case: dict) -> str:
    """Run ``case`` in the current directory; its stdout. Raises unless it exits 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(case["argv"])
    if code != 0:
        raise RuntimeError(f"{case['name']} exited {code}")
    return out.getvalue()


def _write_inputs(directory: Path) -> None:
    """The committed inputs: a mixed, displaced, entangled two-mode state and
    a pure three-mode state."""
    mixed = GaussianState(mean=np.array([0.3, -0.2, 0.1, 0.4]),
                          cov=tmsv(0.7).cov + 0.2 * np.eye(4))
    pure3 = apply_symplectic(vacuum(3), random_symplectic(3, np.random.default_rng(3)))
    (directory / "input-mixed.json").write_text(mixed.to_json())
    (directory / "input-pure3.json").write_text(pure3.to_json())


def regenerate() -> None:
    """Rewrite every golden file from the code on the import path."""
    GOLDEN.mkdir(exist_ok=True)
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        _write_inputs(work)
        os.chdir(work)
        try:
            for case in CASES:
                (work / f"{case['name']}.stdout").write_text(run_case(case))
        finally:
            os.chdir(cwd)
        for path in work.iterdir():
            shutil.copyfile(path, GOLDEN / path.name)
    (GOLDEN / API_CALLS).write_text(api_calls_digest() + "\n")
    (GOLDEN / ENVIRONMENT).write_text(json.dumps(environment(), indent=1) + "\n")


if __name__ == "__main__":
    regenerate()
