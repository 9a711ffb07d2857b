import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cvdist
import cvdist.cli
from cvdist.cli import DEFAULT_SEED, main
from cvdist.states import GaussianState, tmsv

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
    assert "covariance has non-finite" in capsys.readouterr().err
    assert not out.exists()


def test_state_bad_params_exit_2(tmp_path):
    code = run_cli(["state", "--kind", "thermal", "--nbar", "-1.0",
                    "--out", str(tmp_path / "x.json")])
    assert code == 2


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


def test_logneg_command(tmp_path, capsys):
    st = tmp_path / "st.json"
    run_cli(["state", "--kind", "tmsv", "--r", "0.5", "--out", str(st)])
    assert run_cli(["entanglement", "logneg", "--state", str(st)]) == 0
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert abs(report["log_negativity"] - 1.0) <= 1e-9
    assert report["ppt"] is False


def test_fig1_verify_pass_and_negative_control(tmp_path, capsys):
    ch = tmp_path / "ch.json"
    st = tmp_path / "st.json"
    run_cli(["channel", "make", "--kind", "random-locc", "--seed", "5",
             "--out", str(ch)])
    run_cli(["state", "--kind", "tmsv", "--r", "0.5", "--out", str(st)])
    assert run_cli(["fig1", "verify", "--channel", str(ch), "--state", str(st),
                    "--samples", "10", "--seed", "7"]) == 0
    assert "PASS" in capsys.readouterr().out

    code = run_cli(["fig1", "verify", "--channel", str(ch), "--state", str(st),
                    "--samples", "5", "--seed", "7",
                    "--corrupt-correction-gain", "0.5"])
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


@pytest.mark.parametrize("argv, flag", [
    (["fig1", "verify", "--channel", "c.json", "--state", "s.json",
      "--samples", "0"], "--samples"),
    (["fig1", "verify", "--channel", "c.json", "--state", "s.json",
      "--samples", "-4"], "--samples"),
    (["nogo", "--rs", "0.5", "--starts", "-3", "--budget", "5"], "--starts"),
    (["nogo", "--rs", "0.5", "--starts", "2", "--budget", "-5"], "--budget"),
    (["nogo", "--rs", "0.5", "--starts", "2", "--budget", "0"], "--budget"),
])
def test_non_positive_counts_exit_2(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {flag}: must be >= 1" in capsys.readouterr().err


def test_fig2_run(tmp_path, capsys):
    out = tmp_path / "transcript.json"
    assert run_cli(["fig2", "run", "--r", "0.4", "--out", str(out)]) == 0
    transcript = json.loads(out.read_text())
    assert abs(transcript["report"]["log_negativity"] - 0.8) <= 1e-9
    assert transcript["output"]["modes"] == 2


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


def test_nogo_empty_rs_exit_2(capsys):
    assert run_cli(["nogo", "--rs", "", "--starts", "1"]) == 2


def test_cli_import_does_not_load_scipy_optimize():
    # the no-go search has its own Nelder-Mead; scipy.optimize costs ~0.2 s
    code = "import sys, cvdist.cli; print('scipy.optimize' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(cvdist.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "False"


def test_nogo_run_loads_no_scipy():
    # the no-go path is numpy alone; importing scipy.linalg would dominate its start-up
    code = (
        "import sys, cvdist.cli, cvdist.nogo, cvdist.protocols, cvdist.channels\n"
        "rc = cvdist.cli.main(['nogo', '--rs', '0.5', '--starts', '2', '--budget', '30'])\n"
        "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cvdist.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.splitlines()[-1] == "0 []"


def test_parser_is_built_once_and_reads_the_seed_per_call(tmp_path, monkeypatch):
    built = []
    real = cvdist.cli.build_parser
    monkeypatch.setattr(cvdist.cli, "build_parser", lambda: built.append(1) or real())
    cvdist.cli._parser.cache_clear()
    try:
        outcomes = []
        for seed in ("11", "12"):
            monkeypatch.setenv("CVDIST_SEED", seed)
            out = tmp_path / f"fig2-{seed}.json"
            assert main(["fig2", "run", "--r", "0.4", "--sample-outcomes",
                         "--out", str(out)]) == 0
            transcript = json.loads(out.read_text())
            assert transcript["seed"] == int(seed)
            outcomes.append(transcript["outcomes"])
        assert outcomes[0] != outcomes[1]
        with pytest.raises(SystemExit) as exc:
            main(["nogo", "--starts", "0"])
        assert exc.value.code == 2
        monkeypatch.delenv("CVDIST_SEED")
        out = tmp_path / "fig2-default.json"
        assert main(["fig2", "run", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["seed"] == DEFAULT_SEED
        assert len(built) == 1
    finally:
        cvdist.cli._parser.cache_clear()


def test_canon_command(tmp_path, capsys):
    st = tmp_path / "three.json"
    from cvdist.states import apply_symplectic, tensor, vacuum
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


def test_missing_file_exit_2(tmp_path):
    assert run_cli(["entanglement", "logneg", "--state",
                    str(tmp_path / "nope.json")]) == 2


def test_help_lists_default_seed(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fig1", "verify", "--help"])
    assert exc.value.code == 0
    assert str(DEFAULT_SEED) in capsys.readouterr().out


def test_env_seed_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CVDIST_SEED", "4242")
    with pytest.raises(SystemExit):
        main(["fig2", "run", "--help"])
    assert "4242" in capsys.readouterr().out
