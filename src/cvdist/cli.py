"""Command-line surface for the toolkit.

Commands
--------
state                    build a state JSON (vacuum / tmsv / thermal / custom-json)
channel make | apply     build a channel JSON, or apply one to a state file
entanglement logneg      log-negativity report for a two-party state
fig1 verify              teleportation-equivalence check for a channel + input
fig2 run                 one two-copy protocol evaluation, transcript JSON
nogo                     no-go sweep/optimize; CSV plus optional certificates
canon                    canonicalize a pure three-mode state

Exit codes: 0 ok, 2 usage/parse problem or malformed numeric input (NaN/inf
entries, asymmetric covariance), 3 unphysical input, 4 dimension mismatch,
5 claim violation (verification failure or an apparent distillation
gap, which CI should treat as an alarm, not a crash).

All file writes are atomic (temp file + rename). Every command is
deterministic for a fixed seed; the default seed is DEFAULT_SEED and can be
overridden by the CVDIST_SEED environment variable, which in turn loses to an
explicit --seed flag.

``main`` builds the argparse tree once per process and reads CVDIST_SEED on
every call, so callers that run many commands in one process (the benchmark,
the tests) pay for the parser once. Importing this module loads numpy but not
scipy; scipy loads only for random states (``channel make --kind
random-locc``) and for ``canon``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import nogo as nogo_mod
from .channels import (
    GaussianChannel,
    apply as apply_channel,
    attenuation_channel,
    choi_from_truncated_epr,
    filter_channel,
    make_separable_channel,
    random_locc_spec,
)
from .entanglement import BipartiteSplit, log_negativity
from .errors import (
    CvdistError,
    DimensionError,
    DimensionMismatch,
    EmptyKeepSet,
    InvalidSplit,
    NotPhysical,
    NotPositiveDefinite,
    NotPure,
    NotThreeMode,
    UnknownKind,
)
from .protocols import build_fig2, canonicalize_pure_3mode, run_fig1
from .states import GaussianState, thermal, tmsv, vacuum

#: Fixed default seed so default invocations are reproducible.
DEFAULT_SEED = 20120521

#: ``fig1 verify`` pass bound on the corrected covariance and mean: rounding
#: stays near 1e-11 even at r_approx = 6 (entries ~e^12), while a 10% error
#: in the correction gain shows near 1e-2.
FIG1_TOL = 1e-9

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_UNPHYSICAL = 3
EXIT_DIMENSION = 4
EXIT_CLAIM = 5

_DIMENSION_ERRORS = (DimensionError, DimensionMismatch, EmptyKeepSet,
                     InvalidSplit, NotThreeMode)
_UNPHYSICAL_ERRORS = (NotPhysical, NotPositiveDefinite, NotPure)


def _default_seed() -> int:
    return int(os.environ.get("CVDIST_SEED", DEFAULT_SEED))


def write_text_atomic(path: str, text: str) -> None:
    """Write via a temp file and rename, so interrupted runs never leave
    partial output."""
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _load_state(path: str) -> GaussianState:
    return GaussianState.from_dict(_load_json(path))


def _load_channel(path: str) -> GaussianChannel:
    return GaussianChannel.from_dict(_load_json(path))


def _parse_floats(text: str):
    values = [part for part in text.split(",") if part.strip()]
    if not values:
        raise ValueError("empty list")
    return [float(v) for v in values]


def _parse_modes(text: str):
    return [int(v) for v in text.split(",") if v.strip()]


def _count(text: str) -> int:
    """argparse type for sample, start and evaluation counts: an int >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------


def _cmd_state(args) -> int:
    if args.kind == "vacuum":
        state = vacuum(args.modes)
    elif args.kind == "tmsv":
        state = tmsv(args.r)
    elif args.kind == "thermal":
        state = thermal(args.nbar, args.modes)
    elif args.kind == "custom-json":
        if not args.input:
            print("state --kind custom-json needs --input", file=sys.stderr)
            return EXIT_USAGE
        state = _load_state(args.input)
    else:  # argparse choices guard this
        raise UnknownKind(args.kind)
    state.require_physical()
    write_text_atomic(args.out, state.to_json())
    print(f"wrote {args.kind} state ({state.modes} modes) to {args.out}")
    return EXIT_OK


def _cmd_channel_make(args) -> int:
    if args.kind == "identity-approx":
        ch = choi_from_truncated_epr(args.modes, args.r_approx)
    elif args.kind == "filter":
        ch = filter_channel(args.r)
    elif args.kind == "attenuation":
        ch = attenuation_channel(args.eta, args.r_approx)
    elif args.kind == "random-locc":
        rng = np.random.default_rng(args.seed)
        ch = make_separable_channel(random_locc_spec(rng))
    else:
        raise UnknownKind(args.kind)
    write_text_atomic(args.out, ch.to_json())
    print(f"wrote {args.kind} channel ({ch.n_in}-in/{ch.n_out}-out) to {args.out}")
    return EXIT_OK


def _cmd_channel_apply(args) -> int:
    ch = _load_channel(args.channel)
    state = _load_state(args.state)
    out = apply_channel(ch, state)
    write_text_atomic(args.out, out.to_json())
    print(f"wrote output state ({out.modes} modes) to {args.out}")
    return EXIT_OK


def _cmd_logneg(args) -> int:
    state = _load_state(args.state)
    alice = _parse_modes(args.alice)
    bob = _parse_modes(args.bob) if args.bob else \
        [m for m in range(state.modes) if m not in set(alice)]
    report = log_negativity(state, BipartiteSplit(tuple(alice), tuple(bob)))
    text = report.to_json()
    if args.out:
        write_text_atomic(args.out, text)
    print(text)
    return EXIT_OK


def _cmd_fig1_verify(args) -> int:
    ch = _load_channel(args.channel)
    state = _load_state(args.state)
    run = run_fig1(ch, state, args.samples, np.random.default_rng(args.seed),
                   correction_scale=args.corrupt_correction_gain)
    ok = run.max_cov_deviation < FIG1_TOL and run.max_mean_deviation < FIG1_TOL
    print(f"samples: {args.samples}")
    print(f"max covariance deviation: {run.max_cov_deviation:.3e}")
    print(f"max mean deviation:       {run.max_mean_deviation:.3e}")
    print(f"equivalence: {'PASS' if ok else 'FAIL'}")
    if args.out:
        write_text_atomic(args.out, json.dumps({
            "samples": args.samples,
            "max_cov_deviation": run.max_cov_deviation,
            "max_mean_deviation": run.max_mean_deviation,
            "pass": ok,
            "seed": args.seed,
        }))
    return EXIT_OK if ok else EXIT_CLAIM


def _cmd_fig2_run(args) -> int:
    if args.copy1:
        copy1 = _load_state(args.copy1)
        copy2 = _load_state(args.copy2) if args.copy2 else copy1
    else:
        copy1 = copy2 = tmsv(args.r)
    s_a = np.array(_parse_floats(args.sa)).reshape(4, 4) if args.sa else np.eye(4)
    s_b = np.array(_parse_floats(args.sb)).reshape(4, 4) if args.sb else np.eye(4)
    pro = build_fig2(s_a, s_b, copy1, copy2,
                     seed=np.random.default_rng(args.seed),
                     sample_heterodyne=args.sample_outcomes)
    transcript = {
        "s_a": pro.s_a.tolist(),
        "s_b": pro.s_b.tolist(),
        "copies": [copy1.to_dict(), copy2.to_dict()],
        "outcomes": pro.outcomes.tolist(),
        "correction": pro.correction.tolist(),
        "output": pro.output.to_dict(),
        "report": pro.report.to_dict(),
        "seed": args.seed,
    }
    text = json.dumps(transcript)
    if args.out:
        write_text_atomic(args.out, text)
    print(f"output E_N = {pro.report.log_negativity:.12g}")
    return EXIT_OK


def _cmd_nogo(args) -> int:
    if args.input:
        state = _load_state(args.input)
        certs = [nogo_mod.optimize((state, state), n_starts=args.starts,
                                   seed=args.seed, budget=args.budget,
                                   input_description=f"custom copies from {args.input}")]
        rs = [float("nan")]
    else:
        if not args.rs:
            print("nogo needs --rs or --input", file=sys.stderr)
            return EXIT_USAGE
        rs = _parse_floats(args.rs)
        certs = nogo_mod.sweep(rs, n_starts=args.starts, seed=args.seed,
                               budget=args.budget)
    csv_text = nogo_mod.certificates_csv(certs, rs)
    if args.csv:
        write_text_atomic(args.csv, csv_text)
    print(csv_text, end="")
    if args.certificates:
        write_text_atomic(
            args.certificates, json.dumps([c.to_dict() for c in certs])
        )
    worst = min(c.gap for c in certs)
    if worst < -nogo_mod.GAP_TOL:
        print(
            f"NO-GO VIOLATION: gap {worst:.3e} < -{nogo_mod.GAP_TOL:.0e} "
            "(apparent distillation; inspect the certificate)",
            file=sys.stderr,
        )
        return EXIT_CLAIM
    print(f"no-go holds: min gap {worst:.3e} >= -{nogo_mod.GAP_TOL:.0e}")
    return EXIT_OK


def _cmd_canon(args) -> int:
    state = _load_state(args.state)
    inputs = _parse_modes(args.inputs)
    form = canonicalize_pure_3mode(state, tuple(inputs), args.output_mode)
    payload = {
        "a": form.a, "b": form.b, "c": form.c,
        "d1": form.d1, "d2": form.d2,
        "e1": form.e1, "e2": form.e2, "e3": form.e3,
        "input_symplectic": form.input_symplectic.tolist(),
        "output_symplectic": form.output_symplectic.tolist(),
        "canonical_state": form.canonical_state.to_dict(),
    }
    text = json.dumps(payload)
    if args.out:
        write_text_atomic(args.out, text)
    print(f"a={form.a:.9g} b={form.b:.9g} c={form.c:.9g} "
          f"d1={form.d1:.9g} d2={form.d2:.9g} "
          f"e=({form.e1:.3g},{form.e2:.3g},{form.e3:.3g})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree; ``main`` sets every ``--seed`` default per call."""
    fmt = argparse.ArgumentDefaultsHelpFormatter
    parser = argparse.ArgumentParser(
        prog="cvdist",
        description="Gaussian-state / Gaussian-channel toolkit with a "
                    "distillation no-go certification harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("state", help="write a Gaussian state JSON",
                       formatter_class=fmt)
    p.add_argument("--kind", choices=["vacuum", "tmsv", "thermal", "custom-json"],
                   required=True)
    p.add_argument("--modes", type=int, default=1, help="mode count")
    p.add_argument("--r", type=float, default=0.5, help="tmsv squeezing")
    p.add_argument("--nbar", type=float, default=0.0, help="thermal occupation")
    p.add_argument("--input", default=None, help="input JSON for custom-json")
    p.add_argument("--out", required=True, help="output path")
    p.set_defaults(func=_cmd_state)

    p = sub.add_parser("channel", help="make or apply Gaussian channels")
    ch_sub = p.add_subparsers(dest="channel_command", required=True)

    pm = ch_sub.add_parser("make", help="write a channel JSON", formatter_class=fmt)
    pm.add_argument("--kind",
                    choices=["identity-approx", "filter", "attenuation", "random-locc"],
                    required=True)
    pm.add_argument("--modes", type=int, default=1, help="identity-approx modes")
    pm.add_argument("--r", type=float, default=0.5, help="filter strength")
    pm.add_argument("--r-approx", type=float, default=6.0,
                    help="finite-squeezing approximation parameter")
    pm.add_argument("--eta", type=float, default=0.5, help="attenuation transmissivity")
    pm.add_argument("--seed", type=int, help="seed for random-locc")
    pm.add_argument("--out", required=True, help="output path")
    pm.set_defaults(func=_cmd_channel_make)

    pa = ch_sub.add_parser("apply", help="apply a channel to a state file",
                           formatter_class=fmt)
    pa.add_argument("--channel", required=True, help="channel JSON path")
    pa.add_argument("--state", required=True, help="input state JSON path")
    pa.add_argument("--out", required=True, help="output path")
    pa.set_defaults(func=_cmd_channel_apply)

    p = sub.add_parser("entanglement", help="entanglement figures")
    ent_sub = p.add_subparsers(dest="entanglement_command", required=True)
    pl = ent_sub.add_parser("logneg", help="log-negativity report",
                            formatter_class=fmt)
    pl.add_argument("--state", required=True, help="state JSON path")
    pl.add_argument("--alice", default="0", help="comma-separated Alice modes")
    pl.add_argument("--bob", default="", help="Bob modes (default: the rest)")
    pl.add_argument("--out", default=None, help="optional report path")
    pl.set_defaults(func=_cmd_logneg)

    p = sub.add_parser("fig1", help="deterministic-equivalence verification")
    f1_sub = p.add_subparsers(dest="fig1_command", required=True)
    pv = f1_sub.add_parser("verify", help="run the teleportation protocol and "
                           "compare against the closed form", formatter_class=fmt)
    pv.add_argument("--channel", required=True, help="channel JSON path")
    pv.add_argument("--state", required=True, help="input state JSON path")
    pv.add_argument("--samples", type=_count, default=20, help="Bell outcome samples")
    pv.add_argument("--seed", type=int, help="RNG seed")
    pv.add_argument("--out", default=None, help="optional JSON report path")
    pv.add_argument("--corrupt-correction-gain", type=float, default=1.0,
                    help=argparse.SUPPRESS)  # negative-control hook for tests
    pv.set_defaults(func=_cmd_fig1_verify)

    p = sub.add_parser("fig2", help="two-copy distillation protocol")
    f2_sub = p.add_subparsers(dest="fig2_command", required=True)
    pr = f2_sub.add_parser("run", help="run the protocol once", formatter_class=fmt)
    pr.add_argument("--r", type=float, default=0.5, help="tmsv copies squeezing")
    pr.add_argument("--copy1", default=None, help="state JSON overriding --r")
    pr.add_argument("--copy2", default=None, help="second copy (defaults to copy1)")
    pr.add_argument("--sa", default=None, help="16 comma-separated floats (4x4)")
    pr.add_argument("--sb", default=None, help="16 comma-separated floats (4x4)")
    pr.add_argument("--sample-outcomes", action="store_true",
                    help="sample heterodyne outcomes instead of forcing 0")
    pr.add_argument("--seed", type=int, help="RNG seed")
    pr.add_argument("--out", default=None, help="transcript JSON path")
    pr.set_defaults(func=_cmd_fig2_run)

    p = sub.add_parser("nogo", help="no-go certification sweep",
                       formatter_class=fmt)
    p.add_argument("--rs", default="", help="comma-separated tmsv squeezings")
    p.add_argument("--input", default=None,
                   help="state JSON used for both copies instead of --rs")
    p.add_argument("--starts", type=_count, default=50, help="optimizer starts")
    p.add_argument("--budget", type=_count, default=2000,
                   help="objective evaluations per start")
    p.add_argument("--seed", type=int, help="RNG seed")
    p.add_argument("--csv", default=None, help="CSV output path")
    p.add_argument("--certificates", default=None,
                   help="JSON path for full certificates (incl. best params)")
    p.set_defaults(func=_cmd_nogo)

    p = sub.add_parser("canon", help="canonicalize a pure three-mode state",
                       formatter_class=fmt)
    p.add_argument("--state", required=True, help="state JSON path")
    p.add_argument("--inputs", default="0,1", help="the two input modes")
    p.add_argument("--output-mode", type=int, default=2)
    p.add_argument("--out", default=None, help="optional JSON output path")
    p.set_defaults(func=_cmd_canon)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def _set_seed_defaults(parser: argparse.ArgumentParser, seed: int) -> None:
    """Make ``seed`` the default of every --seed option in the tree."""
    for action in parser._actions:  # argparse has no public walk of the tree
        if action.dest == "seed":
            action.default = seed
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                _set_seed_defaults(sub, seed)


def main(argv=None) -> int:
    parser = _parser()
    _set_seed_defaults(parser, _default_seed())
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FileNotFoundError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"input problem: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _DIMENSION_ERRORS as exc:
        print(f"dimension problem: {exc}", file=sys.stderr)
        return EXIT_DIMENSION
    except _UNPHYSICAL_ERRORS as exc:
        print(f"unphysical input: {exc}", file=sys.stderr)
        return EXIT_UNPHYSICAL
    except CvdistError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
