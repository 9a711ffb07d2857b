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

Exit codes: 0 ok, 2 usage/parse problem, a file that cannot be read or
written (any ``OSError``), malformed numeric input (an
asymmetric covariance, or a number, in a file or on the command line, that
breaks the one float64-range rule: NaN, inf or above ``MAX_ENTRY`` in
magnitude, see ``symplectic._require_entries``), a count above its memory
bound (MAX_MODES, MAX_STARTS, MAX_SAMPLE_ENTRIES), a covariance too
ill-conditioned for float64 to resolve its symplectic spectrum or
physicality (``SingularConditioning``), or a measured block or a channel's
conditioning matrix too degenerate to condition on
(``DegenerateQuadrature``), 3 unphysical input (any ``NotPhysical``: a
state, checked when ``state`` builds it or a command loads it, or a Choi
covariance failing Gamma + i Omega >= 0, a covariance with an eigenvalue
negative beyond rounding, or a state that is not pure), 4 dimension problem
(any ``DimensionMismatch``: a mode count below 1, refused so by every
constructor and in a channel file, a list of mode indices that is empty,
repeats a mode or misses one (``--alice``, ``--bob``, ``canon --inputs``), a
state that is not three-mode, or two objects whose dimensions differ), 5
claim violation (verification failure or an apparent distillation gap, which
CI should treat as an alarm, not a crash). Each error class carries its exit code and the label printed
before its message (``cvdist.errors``), so ``main`` has one handler for them.

All file writes go through ``write_text_atomic`` (temp file + rename; a
failed write or rename removes the temp file). A command's only inputs
are its argv and the files it names; no module of cvdist reads the
environment. Every command is deterministic for a fixed seed: --seed, else
DEFAULT_SEED. The seeded commands (``channel make``, ``fig1 verify``,
``fig2 run``, ``nogo``) share one --seed option, so its default and help
text are stated once.
``state`` and ``channel make`` refuse, with exit 2 and no file written, an
option that their ``--kind`` does not read, rather than ignore it, and
``fig2 run`` refuses ``--r`` with ``--copy1``.

``main`` builds the argparse tree once per process and changes nothing in it
afterwards, so callers that run many commands in one process (the benchmark,
the tests) pay for the parser once. cvdist needs numpy alone: no command,
random states included (``channel make --kind random-locc``), loads scipy.
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
    random_locc_channel,
)
from .entanglement import BipartiteSplit, log_negativity
from .errors import CvdistError
from .protocols import build_fig2, canonicalize_pure_3mode, run_fig1
from .states import GaussianState, thermal, tmsv, vacuum

#: Fixed default seed so default invocations are reproducible.
DEFAULT_SEED = 20120521

#: ``fig1 verify`` pass bound on the corrected covariance and mean, relative
#: to the largest |entry| of the Choi and input covariances and means (at
#: least 1), since rounding grows with them: it reads at most 3.7e-16 of them
#: (input means of 1e7, r_approx up to 15), a 10% error in the correction
#: gain 7e-4 to 0.1 (filter and identity-approx, vacuum and coherent inputs).
FIG1_TOL = 1e-9

#: Counts above these exit 2 before anything they size is allocated, each set
#: by the memory of what it sizes (tracemalloc peaks, numpy 2.4).
MAX_MODES = 512  # (2n)^2 float64 as JSON: 61 MB for state, 252 MB for identity-approx
MAX_STARTS = 10_000  # nogo's 21 x 20 simplex per start, 10 kB with working copies: 100 MB
MAX_SAMPLE_ENTRIES = 4_000_000  # run_fig1's (samples, 2N) stacks, N input + Choi modes: 120 MB

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CLAIM = 5

#: The one --seed option, added to every seeded command through ``parents``.
_SEEDED = argparse.ArgumentParser(add_help=False)
_SEEDED.add_argument("--seed", type=int, default=DEFAULT_SEED, help="RNG seed")


class _Given(argparse.Action):
    """Store the value, and record in ``given`` that the option was given."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.given = {**getattr(namespace, "given", {}), self.dest: None}


def _build(args, kinds: dict):
    """Call ``args.kind``'s builder with the options it reads. Any other option
    given is refused, not ignored; ``--seed`` is shared, and never refused."""
    reads, builder = kinds[args.kind]
    unread = [f"--{dest.replace('_', '-')}" for dest in getattr(args, "given", {})
              if dest not in reads]
    if unread:
        raise ValueError(f"--kind {args.kind} does not read {', '.join(unread)}")
    return builder(*(getattr(args, dest) for dest in reads))


def _at_most(option: str, value: int, bound: int) -> None:
    if value > bound:
        raise ValueError(f"{option} {value} is above {bound}, the largest accepted here")


def write_text_atomic(path: str, text: str) -> None:
    """Write via a temp file and rename, so interrupted runs never leave
    partial output; a write or rename that fails removes the temp file."""
    tmp = f"{path}.tmp.{os.getpid()}"
    fh = open(tmp, "w")  # if this fails, there is no temp file to remove
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def _load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _load_state(path: str) -> GaussianState:
    return GaussianState.from_dict(_load_json(path)).require_physical()


def _load_channel(path: str) -> GaussianChannel:
    return GaussianChannel.from_dict(_load_json(path))


def _parse_floats(text: str):
    values = [float(part) for part in text.split(",") if part.strip()]
    if not values:
        raise ValueError("empty list")
    return values


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


def _custom_state(path) -> GaussianState:
    if not path:
        raise ValueError("state --kind custom-json needs --input")
    return GaussianState.from_dict(_load_json(path))


#: Per ``--kind`` of ``state`` and of ``channel make``: the options it reads
#: (argparse dests) and its builder, which ``_build`` calls with them.
_STATE_KINDS = {"vacuum": (("modes",), vacuum), "tmsv": (("r",), tmsv),
                "thermal": (("nbar", "modes"), thermal),
                "custom-json": (("input",), _custom_state)}
_CHANNEL_KINDS = {"identity-approx": (("modes", "r_approx"), choi_from_truncated_epr),
                  "filter": (("r",), filter_channel),
                  "attenuation": (("eta", "r_approx"), attenuation_channel),
                  "random-locc": (("seed",), lambda seed: random_locc_channel(
                      np.random.default_rng(seed)))}


def _cmd_state(args) -> int:
    _at_most("--modes", args.modes, MAX_MODES)
    state = _build(args, _STATE_KINDS).require_physical()
    write_text_atomic(args.out, state.to_json())
    print(f"wrote {args.kind} state ({state.modes} modes) to {args.out}")
    return EXIT_OK


def _cmd_channel_make(args) -> int:
    _at_most("--modes", args.modes, MAX_MODES)
    ch = _build(args, _CHANNEL_KINDS)
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
    _at_most("--samples", args.samples,
             MAX_SAMPLE_ENTRIES // (len(state.cov) + len(ch.choi_cov)))
    run = run_fig1(ch, state, args.samples, args.seed)
    bound = FIG1_TOL * max(1.0, *(float(np.abs(a).max()) for a in
                                  (ch.choi_cov, ch.choi_mean, state.cov, state.mean)))
    ok = run.max_cov_deviation < bound and run.max_mean_deviation < bound
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
    copy1 = _load_state(args.copy1) if args.copy1 else tmsv(args.r)
    copy2 = _load_state(args.copy2) if args.copy2 else copy1
    s_a = np.array(_parse_floats(args.sa)).reshape(4, 4) if args.sa else np.eye(4)
    s_b = np.array(_parse_floats(args.sb)).reshape(4, 4) if args.sb else np.eye(4)
    pro = build_fig2(s_a, s_b, copy1, copy2, seed=args.seed if args.sample_outcomes else None)
    transcript = {
        "s_a": s_a.tolist(),
        "s_b": s_b.tolist(),
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
    _at_most("--starts", args.starts, MAX_STARTS)
    if args.input:
        state = _load_state(args.input)
        certs = [nogo_mod.optimize((state, state), n_starts=args.starts,
                                   seed=args.seed, budget=args.budget,
                                   input_description=f"custom copies from {args.input}")]
        rs = [float("nan")]
    else:
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
        "d1": form.d1, "d2": form.d2, "e": form.e,
        "input_symplectic": form.input_symplectic.tolist(),
        "output_symplectic": form.output_symplectic.tolist(),
        "canonical_state": form.canonical_state.to_dict(),
    }
    text = json.dumps(payload)
    if args.out:
        write_text_atomic(args.out, text)
    print(f"a={form.a:.9g} b={form.b:.9g} c={form.c:.9g} "
          f"d1={form.d1:.9g} d2={form.d2:.9g} "
          f"e={form.e:.3g}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree; ``main`` builds it once and only parses with it."""
    fmt = argparse.ArgumentDefaultsHelpFormatter
    parser = argparse.ArgumentParser(
        prog="cvdist",
        description="Gaussian-state / Gaussian-channel toolkit with a "
                    "distillation no-go certification harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("state", help="write a Gaussian state JSON",
                       formatter_class=fmt)
    p.add_argument("--kind", choices=list(_STATE_KINDS), required=True)
    p.add_argument("--modes", type=int, default=1, action=_Given, help="mode count")
    p.add_argument("--r", type=float, default=0.5, action=_Given, help="tmsv squeezing")
    p.add_argument("--nbar", type=float, default=0.0, action=_Given,
                   help="thermal occupation")
    p.add_argument("--input", default=None, action=_Given, help="input JSON for custom-json")
    p.add_argument("--out", required=True, help="output path")
    p.set_defaults(func=_cmd_state)

    p = sub.add_parser("channel", help="make or apply Gaussian channels")
    ch_sub = p.add_subparsers(dest="channel_command", required=True)

    pm = ch_sub.add_parser("make", help="write a channel JSON", formatter_class=fmt,
                           parents=[_SEEDED])
    pm.add_argument("--kind", choices=list(_CHANNEL_KINDS), required=True)
    pm.add_argument("--modes", type=int, default=1, action=_Given,
                    help="identity-approx modes")
    pm.add_argument("--r", type=float, default=0.5, action=_Given, help="filter strength")
    pm.add_argument("--r-approx", type=float, default=6.0, action=_Given,
                    help="finite-squeezing approximation parameter")
    pm.add_argument("--eta", type=float, default=0.5, action=_Given,
                    help="attenuation transmissivity")
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
                           "compare against the closed form", formatter_class=fmt,
                           parents=[_SEEDED])
    pv.add_argument("--channel", required=True, help="channel JSON path")
    pv.add_argument("--state", required=True, help="input state JSON path")
    pv.add_argument("--samples", type=_count, default=20, help="Bell outcome samples")
    pv.add_argument("--out", default=None, help="optional JSON report path")
    pv.set_defaults(func=_cmd_fig1_verify)

    p = sub.add_parser("fig2", help="two-copy distillation protocol")
    f2_sub = p.add_subparsers(dest="fig2_command", required=True)
    pr = f2_sub.add_parser("run", help="run the protocol once", formatter_class=fmt,
                           parents=[_SEEDED])
    first = pr.add_mutually_exclusive_group()
    first.add_argument("--r", type=float, default=0.5, help="tmsv copies squeezing")
    first.add_argument("--copy1", default=None, help="state JSON instead of --r")
    pr.add_argument("--copy2", default=None, help="second copy (defaults to copy1)")
    pr.add_argument("--sa", default=None, help="16 comma-separated floats (4x4)")
    pr.add_argument("--sb", default=None, help="16 comma-separated floats (4x4)")
    pr.add_argument("--sample-outcomes", action="store_true",
                    help="sample heterodyne outcomes instead of forcing 0")
    pr.add_argument("--out", default=None, help="transcript JSON path")
    pr.set_defaults(func=_cmd_fig2_run)

    p = sub.add_parser("nogo", help="no-go certification sweep",
                       formatter_class=fmt, parents=[_SEEDED])
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--rs", help="comma-separated tmsv squeezings")
    source.add_argument("--input", help="state JSON used for both copies")
    p.add_argument("--starts", type=_count, default=50, help="optimizer starts")
    p.add_argument("--budget", type=_count, default=2000,
                   help="objective evaluations per start")
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


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CvdistError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    except (OSError, KeyError, ValueError) as exc:
        print(f"input problem: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
