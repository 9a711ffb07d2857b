import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from channel_helpers import correlated_channel, corrupt_correction_gain

import cvdist
import cvdist.cli
from cvdist import errors
from cvdist.channels import choi_from_truncated_epr
from cvdist.cli import DEFAULT_SEED, main
from cvdist.entanglement import BipartiteSplit
from cvdist.measurements import DyneKind, DyneSpec, bell_measure, condition
from cvdist.protocols import canonicalize_pure_3mode
from cvdist.states import (
    GaussianState,
    partial_trace,
    random_state,
    tensor,
    thermal,
    tmsv,
    vacuum,
)
from cvdist.symplectic import mode_permutation, random_symplectic

COSH1 = 1.5430806348152437


def run_cli(args):
    return main(args)


def test_state_tmsv(tmp_path, capsys):
    out = tmp_path / "st.json"
    assert run_cli(["state", "--kind", "tmsv", "--r", "0.5", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["modes"] == 2
    assert abs(payload["cov"][0][0] - COSH1) <= 1e-7
    assert not list(tmp_path.glob("*.tmp.*"))  # atomic write left no droppings


def test_state_vacuum(tmp_path):
    out = tmp_path / "v.json"
    assert run_cli(["state", "--kind", "vacuum", "--modes", "2", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["cov"] == np.eye(4).tolist()


def test_state_custom_unphysical_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "modes": 1, "mean": [0.0, 0.0],
        "cov": [[0.5, 0.0], [0.0, 0.5]],
    }))
    out = tmp_path / "out.json"
    code = run_cli(["state", "--kind", "custom-json", "--input", str(bad),
                    "--out", str(out)])
    assert code == 3
    assert "eigenvalue" in capsys.readouterr().err
    assert not out.exists()


def test_state_custom_non_finite_exits_2(tmp_path, capsys):
    bad = tmp_path / "nan.json"
    bad.write_text('{"modes": 1, "mean": [0.0, 0.0], "cov": [[NaN, 0.0], [0.0, 1.0]]}')
    out = tmp_path / "out.json"
    code = run_cli(["state", "--kind", "custom-json", "--input", str(bad),
                    "--out", str(out)])
    assert code == 2
    assert "covariance entry of magnitude nan" in capsys.readouterr().err
    assert not out.exists()


def test_state_bad_params_exit_2(tmp_path):
    code = run_cli(["state", "--kind", "thermal", "--nbar", "-1.0",
                    "--out", str(tmp_path / "x.json")])
    assert code == 2


def test_custom_json_state_without_input_exits_2(tmp_path, capsys):
    out = tmp_path / "x.json"
    assert run_cli(["state", "--kind", "custom-json", "--out", str(out)]) == 2
    assert capsys.readouterr().err == \
        "input problem: state --kind custom-json needs --input\n"
    assert not out.exists()


def test_channel_make_and_apply(tmp_path):
    ch = tmp_path / "ch.json"
    st = tmp_path / "st.json"
    out = tmp_path / "out.json"
    assert run_cli(["channel", "make", "--kind", "filter", "--r", "0.5",
                    "--out", str(ch)]) == 0
    assert run_cli(["state", "--kind", "vacuum", "--modes", "1",
                    "--out", str(st)]) == 0
    assert run_cli(["channel", "apply", "--channel", str(ch), "--state", str(st),
                    "--out", str(out)]) == 0
    result = GaussianState.from_dict(json.loads(out.read_text()))
    assert np.abs(result.cov - np.eye(2)).max() <= 1e-10


def test_channel_apply_dimension_exit_4(tmp_path):
    ch = tmp_path / "ch.json"
    st = tmp_path / "st.json"
    run_cli(["channel", "make", "--kind", "filter", "--out", str(ch)])
    run_cli(["state", "--kind", "vacuum", "--modes", "2", "--out", str(st)])
    code = run_cli(["channel", "apply", "--channel", str(ch), "--state", str(st),
                    "--out", str(tmp_path / "o.json")])
    assert code == 4


@pytest.mark.parametrize("modes", ["0", "-1"])
def test_identity_approx_without_modes_exits_4(tmp_path, capsys, modes):
    out = tmp_path / "ch.json"
    code = run_cli(["channel", "make", "--kind", "identity-approx", "--modes", modes,
                    "--out", str(out)])
    assert code == 4
    assert "mode count must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["vacuum", "thermal"])
@pytest.mark.parametrize("modes", ["0", "-1"])
def test_state_without_modes_exits_4(tmp_path, capsys, kind, modes):
    out = tmp_path / "st.json"
    assert run_cli(["state", "--kind", kind, "--modes", modes, "--out", str(out)]) == 4
    assert "mode count must be >= 1" in capsys.readouterr().err
    assert not out.exists()


#: Every entry point that takes a mode count, as a library call of the count or
#: as the CLI arguments that precede it.
MODE_COUNT_ENTRY_POINTS = {
    "vacuum": vacuum,
    "thermal": lambda n: thermal(0.5, n),
    "choi_from_truncated_epr": lambda n: choi_from_truncated_epr(n, 6.0),
    "random_symplectic": lambda n: random_symplectic(n, np.random.default_rng(1)),
    "random_state": lambda n: random_state(n, np.random.default_rng(1)),
    "cli-state-vacuum": ["state", "--kind", "vacuum", "--modes"],
    "cli-state-thermal": ["state", "--kind", "thermal", "--modes"],
    "cli-identity-approx": ["channel", "make", "--kind", "identity-approx", "--modes"],
    "channel-json-n_in": "n_in",
    "channel-json-n_out": "n_out",
}


@pytest.mark.parametrize("n", [0, -1])
@pytest.mark.parametrize("entry", MODE_COUNT_ENTRY_POINTS.values(),
                         ids=MODE_COUNT_ENTRY_POINTS.keys())
def test_every_mode_count_below_1_is_one_dimension_problem(tmp_path, capsys, entry, n):
    message = f"mode count must be >= 1, got {n}"
    if callable(entry):
        with pytest.raises(errors.DimensionMismatch, match=f"^{re.escape(message)}$"):
            entry(n)
        return
    out = tmp_path / "out.json"
    if isinstance(entry, str):  # that field of a channel file, which is applied
        ch, st = tmp_path / "ch.json", tmp_path / "st.json"
        ch.write_text(json.dumps({**_amplifier_channel(), entry: n}))
        st.write_text(vacuum(1).to_json())
        argv = ["channel", "apply", "--channel", str(ch), "--state", str(st)]
    else:
        argv = [*entry, str(n)]
    assert run_cli([*argv, "--out", str(out)]) == 4
    captured = capsys.readouterr()
    assert captured.err == f"dimension problem: {message}\n" and not captured.out
    assert not out.exists()


#: A bad list of mode indices at every site that takes one, as a library call
#: or as CLI arguments (TWO is a two-mode state file, THREE a pure three-mode
#: one), and the message of the one rule that refuses them all.
BAD_MODE_LISTS = {
    "split-empty-party": (lambda: BipartiteSplit((), (1,)),
                          "mode indices () must be 1 or more distinct values >= 0"),
    "split-repeated": (lambda: BipartiteSplit((0, 0), (1,)),
                       "mode indices (0, 0) must be 1 or more distinct values >= 0"),
    "split-overlap": (lambda: BipartiteSplit((0, 1), (1,)),
                      "mode indices (0, 1, 1) must be 1 or more distinct values >= 0"),
    "split-negative": (lambda: BipartiteSplit((-1,), (0,)),
                       "mode indices (-1,) must be 1 or more distinct values >= 0"),
    "split-misses-a-mode": (lambda: BipartiteSplit((0,), (2,)).validate_for(3),
                            "mode indices (0, 2) must be 3 distinct values in 0..2"),
    "dyne-spec": (lambda: DyneSpec((1, 1), DyneKind.HETERODYNE),
                  "mode indices (1, 1) must be 1 or more distinct values >= 0"),
    "dyne-beyond-state": (lambda: condition(tmsv(0.3), DyneSpec((2,), DyneKind.HETERODYNE),
                                            [0, 0]),
                          "mode indices (2,) must be 1 or more distinct values in 0..1"),
    "bell-repeated": (lambda: bell_measure(tmsv(0.3), (0, 0), 1),
                      "mode indices (0, 0) must be 2 distinct values in 0..1"),
    "bell-beyond-state": (lambda: bell_measure(tmsv(0.3), (0, 2), 1),
                          "mode indices (0, 2) must be 2 distinct values in 0..1"),
    "bell-three-modes": (lambda: bell_measure(vacuum(3), (0, 1, 2), 1),
                         "mode indices (0, 1, 2) must be 2 distinct values in 0..2"),
    "partial-trace-empty": (lambda: partial_trace(vacuum(2), []),
                            "mode indices () must be 1 or more distinct values in 0..1"),
    "partial-trace-repeated": (lambda: partial_trace(vacuum(2), [0, 0]),
                               "mode indices (0, 0) must be 1 or more distinct values in 0..1"),
    "partial-trace-beyond-state": (lambda: partial_trace(vacuum(2), [2]),
                                   "mode indices (2,) must be 1 or more distinct values in 0..1"),
    # a float index was truncated: [1.9] read as mode 1, (0.5,) as mode 0
    "partial-trace-float": (lambda: partial_trace(tmsv(0.3), [1.9]),
                            "mode indices (1.9,) must be 1 or more distinct values in 0..1"),
    "split-float": (lambda: BipartiteSplit((0.5,), (1,)),
                    "mode indices (0.5,) must be 1 or more distinct values >= 0"),
    "canon": (lambda: canonicalize_pure_3mode(vacuum(3), (0, 2), 2),
              "mode indices (0, 2, 2) must be 3 distinct values in 0..2"),
    "mode-permutation": (lambda: mode_permutation((0, 1), 3),
                         "mode indices (0, 1) must be 3 distinct values in 0..2"),
    "cli-logneg-repeated": (["entanglement", "logneg", "--state", "TWO", "--alice", "0,0"],
                            "mode indices (0, 0) must be 1 or more distinct values >= 0"),
    "cli-logneg-overlap": (["entanglement", "logneg", "--state", "TWO", "--alice", "0",
                            "--bob", "0"],
                           "mode indices (0, 0) must be 1 or more distinct values >= 0"),
    "cli-logneg-misses-a-mode": (["entanglement", "logneg", "--state", "THREE", "--alice",
                                  "0", "--bob", "2"],
                                 "mode indices (0, 2) must be 3 distinct values in 0..2"),
    "cli-canon-repeated": (["canon", "--state", "THREE", "--inputs", "0,0", "--out", "OUT"],
                           "mode indices (0, 0, 2) must be 3 distinct values in 0..2"),
}


@pytest.mark.parametrize("entry, message", BAD_MODE_LISTS.values(), ids=BAD_MODE_LISTS.keys())
def test_every_bad_mode_list_is_one_dimension_problem(tmp_path, capsys, entry, message):
    if callable(entry):
        with pytest.raises(errors.DimensionMismatch, match=f"^{re.escape(message)}$"):
            entry()
        return
    paths = {"TWO": tmp_path / "two.json", "THREE": tmp_path / "three.json",
             "OUT": tmp_path / "out.json"}
    paths["TWO"].write_text(tmsv(0.3).to_json())
    paths["THREE"].write_text(tensor(tmsv(0.3), vacuum(1)).to_json())
    assert run_cli([str(paths.get(a, a)) for a in entry]) == 4
    captured = capsys.readouterr()
    assert captured.err == f"dimension problem: {message}\n" and not captured.out
    assert not paths["OUT"].exists()


#: A 1+1-mode channel and a one-mode input: 2N = 6 quadratures together.
_FIG1_FILES = ["fig1", "verify", "--channel", "CH", "--state", "ST", "--out", "OUT"]


@pytest.mark.parametrize("argv, message", [
    (["state", "--kind", "vacuum", "--modes", "100000000"], "--modes 100000000"),
    (["state", "--kind", "thermal", "--modes", "100000000"], "--modes 100000000"),
    (["state", "--kind", "vacuum", "--modes", str(cvdist.cli.MAX_MODES + 1)],
     f"--modes {cvdist.cli.MAX_MODES + 1} is above {cvdist.cli.MAX_MODES},"),
    (["channel", "make", "--kind", "identity-approx", "--modes", "100000000"],
     "--modes 100000000"),
    (["nogo", "--rs", "0.5", "--starts", "100000000000000", "--budget", "1", "--csv", "OUT"],
     "--starts 100000000000000"),
    (["nogo", "--rs", "0.5", "--starts", str(cvdist.cli.MAX_STARTS + 1), "--csv", "OUT"],
     f"--starts {cvdist.cli.MAX_STARTS + 1} is above {cvdist.cli.MAX_STARTS},"),
    ([*_FIG1_FILES, "--samples", "100000000000000"], "--samples 100000000000000"),
    ([*_FIG1_FILES, "--samples", str(cvdist.cli.MAX_SAMPLE_ENTRIES // 6 + 1)],
     f"--samples {cvdist.cli.MAX_SAMPLE_ENTRIES // 6 + 1} is above "
     f"{cvdist.cli.MAX_SAMPLE_ENTRIES // 6},"),
], ids=["vacuum", "thermal", "vacuum-bound", "identity-approx", "starts", "starts-bound",
        "samples", "samples-bound"])
def test_counts_too_large_to_allocate_are_input_problems(tmp_path, capsys, argv, message):
    # refused before anything they size is allocated: the larger counts here
    # would ask numpy for petabytes
    ch, st, out = tmp_path / "ch.json", tmp_path / "st.json", tmp_path / "out"
    ch.write_text(choi_from_truncated_epr(1, 2.0).to_json())
    st.write_text(GaussianState(mean=[0.0, 0.0], cov=np.eye(2)).to_json())
    if argv[0] in ("state", "channel"):
        argv = [*argv, "--out", "OUT"]
    paths = {"CH": str(ch), "ST": str(st), "OUT": str(out)}
    assert run_cli([paths.get(a, a) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"input problem: {message}")
    assert captured.err.count("\n") == 1 and not captured.out
    assert not out.exists()


def test_pure_state_the_nu_test_refused_round_trips(tmp_path, capsys):
    # the nu test refused tmsv(3.96) (nu_min 0.999999998628, exit 3)
    out = tmp_path / "st.json"
    assert run_cli(["state", "--kind", "tmsv", "--r", "3.96", "--out", str(out)]) == 0
    loaded = GaussianState.from_dict(json.loads(out.read_text()))
    assert np.array_equal(loaded.cov, tmsv(3.96).cov)
    assert run_cli(["entanglement", "logneg", "--state", str(out)]) == 0
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert abs(report["log_negativity"] - 7.92) <= 1e-8


@pytest.mark.parametrize("argv", [
    ["state", "--kind", "tmsv", "--r", "5", "--out", "{out}"],
    ["entanglement", "logneg", "--state", "{state}"],
], ids=["state", "logneg"])
def test_unresolvable_spectrum_exits_2(tmp_path, capsys, argv):
    # both states are pure and positive definite in float64: tmsv(5) exited 3
    # as unphysical, and tmsv(9.5) read E_N = 17.11 instead of 19
    st = tmp_path / "st.json"
    st.write_text(tmsv(9.5).to_json())
    out = tmp_path / "out.json"
    argv = [a.format(state=st, out=out) for a in argv]
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert "condition number" in captured.err
    assert "log_negativity" not in captured.out and not out.exists()


@pytest.mark.parametrize("r", [10.0, 20.0, 100.0])
@pytest.mark.parametrize("argv", [
    ["state", "--kind", "tmsv", "--r", "{r}", "--out", "{out}"],
    ["state", "--kind", "custom-json", "--input", "{state}", "--out", "{out}"],
    ["entanglement", "logneg", "--state", "{state}"],
], ids=["state", "custom-json", "logneg"])
def test_unresolvable_pure_state_exits_2_everywhere(tmp_path, capsys, argv, r):
    # tmsv(r) beyond r = 9.5 is not positive definite in float64: eigvalsh
    # rounds its smallest eigenvalue to 0 or just below, within its rounding
    # of the largest, so it is unresolved (exit 2), as tmsv(9) is, not
    # unphysical (it exited 3). The command that builds it and the commands
    # that read it refuse it alike
    st = tmp_path / "st.json"
    st.write_text(tmsv(r).to_json())
    out = tmp_path / "out.json"
    argv = [a.format(state=st, out=out, r=r) for a in argv]
    assert run_cli(argv) == 2
    assert "condition number above 1e+07" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("r", ["115.48", "354.95"])
def test_squeezing_near_the_top_of_float64_is_refused_without_a_warning(tmp_path, capsys, r):
    # tmsv(354.95) has finite entries of 1.0e308, whose sum overflowed when
    # the covariance was symmetrized as (cov + cov.T) / 2. A squeezer whose
    # cosh passes symplectic.MAX_ENTRY is refused before it is built
    out = tmp_path / "st.json"
    assert run_cli(["state", "--kind", "tmsv", "--r", r, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"input problem: squeezing of magnitude {2 * float(r):.4g} is "
                            "outside the accepted range (finite, at most 231)\n")
    assert not out.exists()


def _amplifier_channel() -> dict:
    """The gain-4 amplifier, as the Choi state of tmsv(3):
    [[cosh 6 I, 2 sinh 6 Z], [2 sinh 6 Z, (4 cosh 6 + 3) I]]."""
    z = np.diag([1.0, -1.0])
    cov = np.block([[np.cosh(6.0) * np.eye(2), 2.0 * np.sinh(6.0) * z],
                    [2.0 * np.sinh(6.0) * z, (4.0 * np.cosh(6.0) + 3.0) * np.eye(2)]])
    return {"n_in": 1, "n_out": 1, "partition": ["in", "out"],
            "choi_mean": [0.0] * 4, "choi_cov": cov.tolist()}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", [["channel", "apply"], ["fig1", "verify"]],
                         ids=["channel-apply", "fig1-verify"])
def test_a_mean_beyond_max_entry_is_refused_before_the_channel_acts(tmp_path, capsys,
                                                                   command):
    # the amplifier doubled a mean of 1e308 to inf: channel apply wrote
    # "mean": [Infinity, 0.0], and fig1 verify read a mean deviation of nan
    # and reported a claim violation (exit 5)
    ch, st, out = tmp_path / "ch.json", tmp_path / "st.json", tmp_path / "out.json"
    ch.write_text(json.dumps(_amplifier_channel()))
    st.write_text(json.dumps({"modes": 1, "mean": [1e308, 0.0], "cov": np.eye(2).tolist()}))
    argv = [*command, "--channel", str(ch), "--state", str(st), "--out", str(out)]
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == ("input problem: mean entry of magnitude 1e+308 is outside the "
                            "accepted range (finite, at most 1e+100)\n")
    assert not captured.out and not out.exists()
    # the same files with a mean of 1e99 pass, and the output may then hold
    # entries beyond MAX_ENTRY: 2 x 1e99 here
    st.write_text(json.dumps({"modes": 1, "mean": [1e99, 0.0], "cov": np.eye(2).tolist()}))
    assert run_cli(argv) == 0


@pytest.mark.parametrize("command", [["channel", "apply"], ["fig1", "verify"]],
                         ids=["channel-apply", "fig1-verify"])
def test_refused_channel_names_its_conditioning_matrix(tmp_path, capsys, command):
    ch = tmp_path / "ch.json"
    st = tmp_path / "st.json"
    ch.write_text(correlated_channel(6, np.random.default_rng(19)).to_json())
    st.write_text(tmsv(3.0).to_json())
    out = tmp_path / "out.json"
    assert run_cli([*command, "--channel", str(ch), "--state", str(st), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "the channel's conditioning matrix A + R Gamma R" in err
    assert "measured quadrature variance below 1e-12" in err
    assert not out.exists()


def test_logneg_command(tmp_path, capsys):
    st = tmp_path / "st.json"
    run_cli(["state", "--kind", "tmsv", "--r", "0.5", "--out", str(st)])
    assert run_cli(["entanglement", "logneg", "--state", str(st)]) == 0
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert abs(report["log_negativity"] - 1.0) <= 1e-9
    assert report["ppt"] is False


@pytest.mark.parametrize("flags, modes", [(["--alice", "0,0"], "(0, 0)"),
                                          (["--bob", "1,1"], "(1, 1)")],
                         ids=["alice", "bob"])
def test_logneg_repeated_mode_exits_4(tmp_path, capsys, flags, modes):
    st = tmp_path / "st.json"
    run_cli(["state", "--kind", "tmsv", "--r", "0.5", "--out", str(st)])
    capsys.readouterr()
    assert run_cli(["entanglement", "logneg", "--state", str(st), *flags]) == 4
    captured = capsys.readouterr()
    assert captured.err == (f"dimension problem: mode indices {modes} must be 1 or more "
                            "distinct values >= 0\n")
    assert "ppt_conclusive" not in captured.out


def test_fig1_verify_pass_and_negative_control(tmp_path, capsys, monkeypatch):
    ch = tmp_path / "ch.json"
    st = tmp_path / "st.json"
    run_cli(["channel", "make", "--kind", "random-locc", "--seed", "5",
             "--out", str(ch)])
    run_cli(["state", "--kind", "tmsv", "--r", "0.5", "--out", str(st)])
    assert run_cli(["fig1", "verify", "--channel", str(ch), "--state", str(st),
                    "--samples", "10", "--seed", "7"]) == 0
    assert "PASS" in capsys.readouterr().out

    corrupt_correction_gain(monkeypatch, 0.5)
    code = run_cli(["fig1", "verify", "--channel", str(ch), "--state", str(st),
                    "--samples", "5", "--seed", "7"])
    assert code == 5
    assert "FAIL" in capsys.readouterr().out


def test_fig1_verify_reports_mean_deviation(tmp_path, capsys):
    ch = tmp_path / "ch.json"
    st = tmp_path / "st.json"
    report = tmp_path / "report.json"
    run_cli(["channel", "make", "--kind", "attenuation", "--eta", "0.4",
             "--out", str(ch)])
    st.write_text(GaussianState(mean=[0.7, -0.3], cov=np.eye(2)).to_json())
    assert run_cli(["fig1", "verify", "--channel", str(ch), "--state", str(st),
                    "--samples", "10", "--seed", "7", "--out", str(report)]) == 0
    assert "max mean deviation:" in capsys.readouterr().out
    payload = json.loads(report.read_text())
    assert payload["pass"] is True
    assert payload["max_mean_deviation"] <= 1e-9


def _fig1_verify(tmp_path, channel_argv, mean):
    ch = tmp_path / "ch.json"
    st = tmp_path / "st.json"
    assert run_cli(["channel", "make", *channel_argv, "--out", str(ch)]) == 0
    st.write_text(GaussianState(mean=mean, cov=np.eye(2)).to_json())
    return run_cli(["fig1", "verify", "--channel", str(ch), "--state", str(st),
                    "--samples", "20", "--seed", "7"])


@pytest.mark.parametrize("channel_argv, mean", [
    (["--kind", "identity-approx"], [1e7, -3e6]),
    (["--kind", "identity-approx", "--r-approx", "9"], [0.0, 0.0]),
    (["--kind", "identity-approx", "--r-approx", "15"], [0.0, 0.0]),
], ids=["mean-1e7", "r-approx-9", "r-approx-15"])
def test_fig1_verify_bound_scales_with_the_entries(tmp_path, capsys, channel_argv, mean):
    # rounding of a correct run grows with the entries: 3.7e-9 absolute here
    assert _fig1_verify(tmp_path, channel_argv, mean) == 0
    assert "equivalence: PASS" in capsys.readouterr().out


@pytest.mark.parametrize("channel_argv, mean", [
    (["--kind", "filter"], [1.0, -0.3]),
    (["--kind", "identity-approx"], [1e7, -3e6]),
], ids=["unit-scale", "mean-1e7"])
def test_fig1_verify_fails_a_ten_percent_gain_error(tmp_path, capsys, monkeypatch,
                                                    channel_argv, mean):
    corrupt_correction_gain(monkeypatch, 0.9)
    assert _fig1_verify(tmp_path, channel_argv, mean) == 5
    assert "equivalence: FAIL" in capsys.readouterr().out


#: Two-mode squeezer(8) with entry (0, 2) off by a relative 1e-10, as --sa
#: or --sb takes it: refused by the relative part of the symplectic bound.
_SQUEEZER8_OFF = ("1490.479161252178,0.0,1490.4788259385982,0.0,0.0,1490.479161252178,0.0,"
                  "-1490.4788257895502,1490.4788257895502,0.0,1490.479161252178,0.0,0.0,"
                  "-1490.4788257895502,0.0,1490.479161252178")


@pytest.mark.parametrize("argv, message", [
    (["--sb", "1,0,0,0,0,1,0,0.3,0,0,1,0,0,0,0,1.001"], "3.000e-01 > 1.0e-10"),
    (["--sa", "2,0,0,0,0,1,0,0,0,0,1,0,0,0,0,1"], "1.000e+00 > 1.0e-10"),
    (["--sa", _SQUEEZER8_OFF], "2.222e-04 > 2.2e-08"),
    (["--sb", _SQUEEZER8_OFF, "--sa", "1,0,0,0,0,1,0,0,0,0,1,0,0,0,0,1.5"],
     "5.000e-01 > 2.2e-08"),
], ids=["sb-shear", "sa-scaled", "sa-squeezer-off", "sa-scaled-sb-squeezer"])
def test_fig2_run_refuses_a_non_symplectic_party(capsys, argv, message):
    # the messages of the permuted product build_fig2 checked before
    assert run_cli(["fig2", "run", *argv]) == 2
    assert capsys.readouterr().err == f"error: ||S Omega S^T - Omega||_max = {message}\n"


_EYE16 = "1,0,0,0,0,1,0,0,0,0,1,0,0,0,0,1"

#: Commands and the option of each that takes a squeezing: "OUT" is replaced
#: by a path in the test's directory.
_SQUEEZING_OPTIONS = [
    ["state", "--kind", "tmsv", "--out", "OUT", "--r"],
    ["channel", "make", "--kind", "filter", "--out", "OUT", "--r"],
    ["channel", "make", "--kind", "identity-approx", "--out", "OUT", "--r-approx"],
    ["channel", "make", "--kind", "attenuation", "--out", "OUT", "--r-approx"],
    ["fig2", "run", "--out", "OUT", "--r"],
    ["nogo", "--starts", "2", "--budget", "5", "--csv", "OUT", "--rs"],
]


@pytest.mark.parametrize("argv", [
    *[[*cmd, value] for cmd in _SQUEEZING_OPTIONS
      for value in ("inf", "nan", "1e300", "354.95")],
    ["nogo", "--rs", "0.2,-inf", "--csv", "OUT"],
    ["fig2", "run", "--sb", _EYE16[:-1] + "inf", "--out", "OUT"],
    ["fig2", "run", "--sa", "nan" + _EYE16[1:], "--out", "OUT"],
    ["fig2", "run", "--sa", "1e300" + _EYE16[1:], "--out", "OUT"],
    ["state", "--kind", "thermal", "--nbar", "inf", "--out", "OUT"],
    ["state", "--kind", "thermal", "--nbar", "1e308", "--out", "OUT"],
    *[["channel", "make", "--kind", "attenuation", "--out", "OUT", f"--eta={value}"]
      for value in ("nan", "inf", "-inf")],
], ids=lambda argv: " ".join(a for a in argv if a != "OUT"))
def test_non_finite_or_overflowing_numbers_are_input_problems(tmp_path, capsys, argv):
    # refused with MalformedInput before numpy sees them: a RuntimeWarning
    # (overflow in sinh, invalid value in matmul) fails the test as an error.
    # A squeezing of 354.95 read exit 3 (state, nogo), 0 (attenuation) or an
    # overflow warning in a row sum (filter, identity-approx)
    out = tmp_path / "out"
    assert run_cli([str(out) if a == "OUT" else a for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("input problem: ") and captured.err.count("\n") == 1
    assert "Warning" not in captured.err and not captured.out
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["fig1", "verify", "--channel", "c.json", "--state", "s.json",
      "--samples", "0"], "--samples: must be >= 1"),
    (["fig1", "verify", "--channel", "c.json", "--state", "s.json",
      "--samples", "-4"], "--samples: must be >= 1"),
    (["nogo", "--rs", "0.5", "--starts", "-3", "--budget", "5"], "--starts: must be >= 1"),
    (["nogo", "--rs", "0.5", "--starts", "2", "--budget", "-5"], "--budget: must be >= 1"),
    (["nogo", "--rs", "0.5", "--starts", "2", "--budget", "0"], "--budget: must be >= 1"),
    (["nogo", "--rs", "0.5", "--starts", "abc"], "--starts: invalid int value: 'abc'"),
], ids=["samples-0", "samples-neg", "starts-neg", "budget-neg", "budget-0", "starts-abc"])
def test_counts_that_are_not_positive_ints_exit_2(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {message}" in capsys.readouterr().err


def test_fig2_run(tmp_path, capsys):
    out = tmp_path / "transcript.json"
    assert run_cli(["fig2", "run", "--r", "0.4", "--out", str(out)]) == 0
    transcript = json.loads(out.read_text())
    assert abs(transcript["report"]["log_negativity"] - 0.8) <= 1e-9
    assert transcript["output"]["modes"] == 2


def test_fig2_run_honours_copy2_alone(tmp_path, capsys):
    from cvdist.states import tensor, thermal

    copy2 = tensor(thermal(0.5), thermal(0.5))
    st = tmp_path / "thermal.json"
    st.write_text(copy2.to_json())
    out = tmp_path / "transcript.json"
    assert run_cli(["fig2", "run", "--r", "0.4", "--copy2", str(st),
                    "--out", str(out)]) == 0
    copies = json.loads(out.read_text())["copies"]
    assert copies[0] == tmsv(0.4).to_dict()
    assert copies[1] == copy2.to_dict()


def test_fig2_run_refuses_r_with_copy1(tmp_path, capsys):
    copy1 = tmp_path / "c.json"
    copy1.write_text(tmsv(0.3).to_json())
    out = tmp_path / "transcript.json"
    with pytest.raises(SystemExit) as exc:
        main(["fig2", "run", "--r", "0.9", "--copy1", str(copy1), "--out", str(out)])
    assert exc.value.code == 2
    assert "argument --copy1: not allowed with argument --r" in capsys.readouterr().err
    assert not out.exists()


def test_nogo_sweep_csv(tmp_path, capsys):
    csv_path = tmp_path / "sweep.csv"
    args = ["nogo", "--rs", "0.2,0.5", "--starts", "2", "--budget", "150",
            "--seed", "7", "--csv", str(csv_path)]
    assert run_cli(args) == 0
    first = csv_path.read_bytes()
    assert run_cli(args) == 0
    assert csv_path.read_bytes() == first  # byte-identical rerun
    lines = first.decode().strip().splitlines()
    assert lines[0].startswith("r,input_EN,best_EN,gap")
    assert len(lines) == 3


def test_nogo_violation_exits_5_and_still_writes_the_csv(tmp_path, capsys, monkeypatch):
    # an objective one above E_N(tmsv(0.5)) = 1 is an apparent distillation
    monkeypatch.setattr(cvdist.nogo, "objective", lambda x, g0: np.full(len(x), 2.0))
    csv_path = tmp_path / "sweep.csv"
    assert run_cli(["nogo", "--rs", "0.5", "--starts", "2", "--budget", "5",
                    "--csv", str(csv_path)]) == 5
    assert capsys.readouterr().err == ("NO-GO VIOLATION: gap -1.000e+00 < -1e-06 "
                                       "(apparent distillation; inspect the certificate)\n")
    row = dict(zip(*(line.split(",") for line in csv_path.read_text().splitlines())))
    assert abs(float(row["gap"]) + 1.0) <= 1e-9


def test_nogo_empty_rs_exit_2(capsys):
    assert run_cli(["nogo", "--rs", "", "--starts", "1"]) == 2


@pytest.mark.parametrize("argv, message", [
    (["nogo", "--starts", "1"], "one of the arguments --rs --input is required"),
    (["nogo", "--rs", "0.5", "--input", "x.json"], "not allowed with argument"),
], ids=["neither", "both"])
def test_nogo_needs_exactly_one_of_rs_and_input(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_cli_import_does_not_load_scipy_optimize():
    # the no-go search has its own Nelder-Mead; scipy.optimize costs ~0.2 s
    code = "import sys, cvdist.cli; print('scipy.optimize' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(cvdist.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("argv", [
    ["nogo", "--rs", "0.5", "--starts", "2", "--budget", "30"],
    ["canon", "--state", "{state}"],
], ids=["nogo", "canon"])
def test_fixed_input_commands_load_no_scipy(tmp_path, argv):
    # the no-go search and the canonical form are numpy alone; importing
    # scipy.linalg would dominate their start-up
    st = tmp_path / "three.json"
    st.write_text(tensor(tmsv(0.7), vacuum(1)).to_json())
    argv = [a.format(state=st) for a in argv]
    code = (
        "import sys, cvdist.cli, cvdist.nogo, cvdist.protocols, cvdist.channels\n"
        f"rc = cvdist.cli.main({argv!r})\n"
        "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cvdist.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.splitlines()[-1] == "0 []"


def test_random_commands_load_no_scipy(tmp_path):
    # random states come from a numpy matrix exponential, so drawing a
    # channel and verifying Fig. 1 on it load no scipy either
    ch, st = tmp_path / "ch.json", tmp_path / "st.json"
    st.write_text(tmsv(0.5).to_json())
    code = (
        "import sys, cvdist.cli\n"
        "rc = [cvdist.cli.main(a) for a in (\n"
        f"    ['channel', 'make', '--kind', 'random-locc', '--seed', '5', '--out', {str(ch)!r}],\n"
        f"    ['fig1', 'verify', '--channel', {str(ch)!r}, '--state', {str(st)!r},\n"
        "     '--samples', '10', '--seed', '7'])]\n"
        "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cvdist.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.splitlines()[-1] == "[0, 0] []"


def test_parser_is_built_once_and_the_seed_defaults_to_default_seed(tmp_path, monkeypatch):
    built = []
    real = cvdist.cli.build_parser
    monkeypatch.setattr(cvdist.cli, "build_parser", lambda: built.append(1) or real())
    cvdist.cli._parser.cache_clear()
    try:
        with pytest.raises(SystemExit) as exc:
            main(["nogo", "--starts", "0"])
        assert exc.value.code == 2
        transcripts = []
        for seed in ([], ["--seed", str(DEFAULT_SEED)]):
            out = tmp_path / f"fig2-{len(seed)}.json"
            assert main(["fig2", "run", "--r", "0.4", "--sample-outcomes", *seed,
                         "--out", str(out)]) == 0
            transcripts.append(out.read_bytes())
        assert json.loads(transcripts[0])["seed"] == DEFAULT_SEED
        assert transcripts[0] == transcripts[1]
        assert len(built) == 1
    finally:
        cvdist.cli._parser.cache_clear()


def test_environment_is_not_an_input(tmp_path, monkeypatch):
    # a set CVDIST_SEED, well-formed or not, changes no output and no exit code
    commands = {"channel": ["channel", "make", "--kind", "random-locc"],
                "fig2": ["fig2", "run", "--r", "0.4", "--sample-outcomes"]}
    written = {name: set() for name in commands}
    for value in (None, "5", "abc"):
        if value is None:
            monkeypatch.delenv("CVDIST_SEED", raising=False)
        else:
            monkeypatch.setenv("CVDIST_SEED", value)
        for name, argv in commands.items():
            out = tmp_path / f"{name}-{value}.json"
            assert (value, main([*argv, "--out", str(out)])) == (value, 0)
            written[name].add(out.read_bytes())
    assert {name: len(files) for name, files in written.items()} == \
        {"channel": 1, "fig2": 1}


def test_canon_command(tmp_path, capsys):
    st = tmp_path / "three.json"
    from cvdist.states import apply_symplectic
    from cvdist.symplectic import mode_permutation

    state = tensor(tmsv(0.7), vacuum(1))
    state = apply_symplectic(state, mode_permutation((0, 2, 1), 3))
    st.write_text(state.to_json())
    assert run_cli(["canon", "--state", str(st), "--inputs", "0,1",
                    "--output-mode", "2"]) == 0
    out = capsys.readouterr().out
    assert "b=1" in out


def test_canon_dimension_exit_4(tmp_path):
    st = tmp_path / "two.json"
    st.write_text(tmsv(0.3).to_json())
    assert run_cli(["canon", "--state", str(st), "--inputs", "0,1",
                    "--output-mode", "2"]) == 4


@pytest.mark.parametrize("argv, code, err", [
    (["state", "--kind", "vacuum", "--modes", "0", "--out", "{out}"], 4,
     r"dimension problem: mode count must be >= 1, got 0"),
    (["state", "--kind", "custom-json", "--input", "{odd}", "--out", "{out}"], 4,
     r"dimension problem: mean length 3 is not a positive even number"),
    (["entanglement", "logneg", "--state", "{two}", "--alice", "0", "--bob", "0"], 4,
     r"dimension problem: mode indices \(0, 0\) must be 1 or more distinct values >= 0"),
    (["entanglement", "logneg", "--state", "{mixed}", "--alice", "0", "--bob", "1"], 4,
     r"dimension problem: mode indices \(0, 1\) must be 3 distinct values in 0\.\.2"),
    (["canon", "--state", "{two}", "--inputs", "0,1", "--output-mode", "2"], 4,
     r"dimension problem: state has 2 modes"),
    (["canon", "--state", "{mixed}", "--inputs", "0,1", "--output-mode", "2"], 3,
     r"unphysical input: symplectic eigenvalues \[.*\] not all 1"),
], ids=["vacuum-no-modes", "odd-mean", "parties-overlap", "split-short", "canon-two-mode",
        "canon-mixed"])
def test_error_exit_code_label_and_message(tmp_path, capsys, argv, code, err):
    # one line on stderr, its label then its message, and nothing written
    files = {"two": tmsv(0.3), "mixed": tensor(thermal(0.5), tmsv(0.3))}
    paths = {"out": tmp_path / "out.json", "odd": tmp_path / "odd.json"}
    paths["odd"].write_text(json.dumps({"mean": [0.0] * 3, "cov": np.eye(3).tolist()}))
    for name, state in files.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(state.to_json())
    assert run_cli([a.format(**paths) for a in argv]) == code
    captured = capsys.readouterr()
    assert re.fullmatch(err + "\n", captured.err) and not captured.out
    assert not paths["out"].exists()


def test_missing_file_exit_2(tmp_path):
    assert run_cli(["entanglement", "logneg", "--state",
                    str(tmp_path / "nope.json")]) == 2


@pytest.mark.parametrize("flag, text", [
    ("--state", "[1, 2]"),
    ("--state", '"hello"'),
    ("--state", '{"mean": {"a": 1}, "cov": [[1, 0], [0, 1]]}'),
    ("--channel", "[]"),
], ids=["state-list", "state-string", "state-object-mean", "channel-list"])
def test_malformed_json_exits_2(tmp_path, capsys, flag, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    st = tmp_path / "st.json"
    assert run_cli(["state", "--kind", "vacuum", "--out", str(st)]) == 0
    if flag == "--state":
        argv = ["entanglement", "logneg", "--state", str(bad)]
    else:
        argv = ["channel", "apply", "--channel", str(bad), "--state", str(st),
                "--out", str(tmp_path / "o.json")]
    capsys.readouterr()
    assert run_cli(argv) == 2
    assert "input problem" in capsys.readouterr().err


def test_help_lists_default_seed(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fig1", "verify", "--help"])
    assert exc.value.code == 0
    assert str(DEFAULT_SEED) in capsys.readouterr().out


NEG_3I = {"modes": 2, "mean": [0.0] * 4, "cov": (-3.0 * np.eye(4)).tolist()}


@pytest.mark.parametrize("argv", [
    ["state", "--kind", "custom-json", "--input", "{state}", "--out", "{out}"],
    ["entanglement", "logneg", "--state", "{state}"],
    ["nogo", "--input", "{state}", "--starts", "1", "--budget", "1"],
    ["channel", "apply", "--channel", "{channel}", "--state", "{state}",
     "--out", "{out}"],
    ["fig1", "verify", "--channel", "{channel}", "--state", "{state}",
     "--out", "{out}"],
    ["fig2", "run", "--r", "0.4", "--copy2", "{state}", "--out", "{out}"],
], ids=["state", "logneg", "nogo", "channel-apply", "fig1-verify", "fig2-copy2"])
def test_negative_definite_state_exits_3(tmp_path, capsys, argv):
    # -3 I has |eigvals(Omega Gamma)| = 3, but it is no covariance at all
    st = tmp_path / "neg.json"
    st.write_text(json.dumps(NEG_3I))
    ch = tmp_path / "ch.json"
    ch.write_text(choi_from_truncated_epr(2, 3.0).to_json())
    out = tmp_path / "out.json"
    argv = [a.format(state=st, channel=ch, out=out) for a in argv]
    assert run_cli(argv) == 3
    captured = capsys.readouterr()
    assert "unphysical input" in captured.err and "eigenvalue -3" in captured.err
    assert "no-go holds" not in captured.out and not out.exists()


#: Documented exit code of every error class: 3 for NotPhysical, 4 for
#: DimensionMismatch, 2 for the rest.
EXIT_CODES = {
    errors.CvdistError: 2,
    errors.MalformedInput: 2,
    errors.NotSymplectic: 2,
    errors.SingularConditioning: 2,
    errors.DegenerateQuadrature: 2,
    errors.ParamOutOfRange: 2,
    errors.NotPhysical: 3,
    errors.DimensionMismatch: 4,
}


def test_exit_code_table_lists_every_error_class():
    classes = {c for c in vars(errors).values()
               if isinstance(c, type) and issubclass(c, errors.CvdistError)}
    assert classes == set(EXIT_CODES)


@pytest.mark.parametrize("cls", list(EXIT_CODES), ids=lambda c: c.__name__)
def test_every_error_class_maps_to_its_exit_code(tmp_path, capsys, monkeypatch, cls):
    def fail(*args):
        raise cls("injected")

    monkeypatch.setitem(cvdist.cli._STATE_KINDS, "vacuum", (("modes",), fail))
    assert run_cli(["state", "--kind", "vacuum", "--out", str(tmp_path / "v.json")]) \
        == EXIT_CODES[cls]
    assert "injected" in capsys.readouterr().err


@pytest.mark.parametrize("argv, unread", [
    (["state", "--kind", "tmsv", "--modes", "3"], "--modes"),
    (["state", "--kind", "vacuum", "--r", "2", "--nbar", "4"], "--r, --nbar"),
    (["state", "--kind", "vacuum", "--input", "x.json"], "--input"),
    (["state", "--kind", "thermal", "--r", "0.3"], "--r"),
    (["state", "--kind", "custom-json", "--input", "x.json", "--modes", "2"], "--modes"),
    (["channel", "make", "--kind", "filter", "--eta", "0.3"], "--eta"),
    (["channel", "make", "--kind", "identity-approx", "--r", "0.3"], "--r"),
    (["channel", "make", "--kind", "attenuation", "--modes", "2"], "--modes"),
    (["channel", "make", "--kind", "random-locc", "--r-approx", "3"], "--r-approx"),
], ids=["tmsv-modes", "vacuum-r-nbar", "vacuum-input", "thermal-r", "custom-json-modes",
        "filter-eta", "identity-approx-r", "attenuation-modes", "random-locc-r-approx"])
def test_kind_refuses_an_option_it_does_not_read(tmp_path, capsys, argv, unread):
    out = tmp_path / "out.json"
    assert run_cli([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err.strip().endswith(f"does not read {unread}")
    assert not out.exists()


@pytest.mark.parametrize("argv, field, expected", [
    (["state", "--kind", "vacuum", "--modes", "3"], "modes", 3),
    (["state", "--kind", "tmsv", "--r", "0.3"], "modes", 2),
    (["state", "--kind", "thermal", "--nbar", "0.3", "--modes", "2"], "modes", 2),
    (["state", "--kind", "custom-json", "--input", "{state}"], "modes", 2),
    (["channel", "make", "--kind", "identity-approx", "--modes", "2", "--r-approx", "3",
      "--seed", "5"], "n_in", 2),
    (["channel", "make", "--kind", "filter", "--r", "0.3", "--seed", "5"], "n_in", 1),
    (["channel", "make", "--kind", "attenuation", "--eta", "0.3", "--r-approx", "3",
      "--seed", "5"], "n_in", 1),
    (["channel", "make", "--kind", "random-locc", "--seed", "5"], "n_in", 2),
], ids=["vacuum", "tmsv", "thermal", "custom-json", "identity-approx", "filter",
        "attenuation", "random-locc"])
def test_kind_reads_its_own_options(tmp_path, argv, field, expected):
    state = tmp_path / "in.json"
    state.write_text(tmsv(0.2).to_json())
    out = tmp_path / "out.json"
    argv = [a.format(state=state) for a in argv]
    assert run_cli([*argv, "--out", str(out)]) == 0
    assert json.loads(out.read_text())[field] == expected
