"""Every ``periodica ...`` line of README's command block runs and exits as
documented: 0, or 5 for the dual numbers' formality row (the expected FAIL
verdict)."""

import os
import re
import shlex

import pytest

from periodica.cli import main

ROOT = os.path.join(os.path.dirname(__file__), "..")
EXPECTED_FAIL = {"hochschild formality --name dual --m 2 --qmax 8": 5}


def _readme_commands():
    with open(os.path.join(ROOT, "README.md"), "r", encoding="utf-8") as fh:
        text = fh.read()
    blocks = re.findall(r"```\n(.*?)```", text, re.S)
    return [line.split(None, 1)[1] for block in blocks
            for line in block.splitlines() if line.startswith("periodica ")]


def test_readme_has_the_command_block():
    assert len(_readme_commands()) == 20


@pytest.mark.usefixtures("normal_form_scalars")
@pytest.mark.parametrize("command", _readme_commands())
def test_readme_example_exits_as_documented(command, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    code = main(shlex.split(command))
    out, err = capsys.readouterr()
    assert code == EXPECTED_FAIL.get(" ".join(command.split()), 0), err
    assert out
