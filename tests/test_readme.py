"""README's command-line examples run as written.

Each ``cvdist ...`` line of the first ``sh`` block under "## Command line"
runs through ``cli.main``, in order, in an empty directory and with the
default seed, as a reader pasting the block into a shell would run it.
"""

import shlex
from pathlib import Path

from cvdist.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def command_lines() -> list:
    section = README.read_text().split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("cvdist ")]


def test_command_line_examples_run_as_written(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    lines = command_lines()
    assert lines
    for line in lines:
        assert (line, main(shlex.split(line)[1:])) == (line, 0)
