"""Every golden CLI run reproduces its committed stdout and files byte for byte,
and the seeded library calls reproduce their committed digest.

The cases and their regeneration are in ``golden_outputs.py``.
"""

import json
import shutil

import pytest

from golden_outputs import (
    API_CALLS,
    CASES,
    ENVIRONMENT,
    GOLDEN,
    api_calls_digest,
    environment_difference,
    run_case,
)


@pytest.fixture(scope="module")
def recorded_environment():
    differences = environment_difference(json.loads((GOLDEN / ENVIRONMENT).read_text()))
    assert not differences, (
        "the golden files were made in another environment; regenerate them "
        "there or run where they were made: " + "; ".join(differences))


@pytest.mark.parametrize("case", CASES, ids=[case["name"] for case in CASES])
def test_cli_output_matches_golden(case, recorded_environment, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name in case["reads"]:
        shutil.copyfile(GOLDEN / name, tmp_path / name)
    stdout = run_case(case)
    assert stdout.encode() == (GOLDEN / f"{case['name']}.stdout").read_bytes()
    for name in case["writes"]:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


def test_api_calls_match_golden(recorded_environment):
    assert api_calls_digest() + "\n" == (GOLDEN / API_CALLS).read_text()
