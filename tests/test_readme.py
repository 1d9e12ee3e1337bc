"""The README's examples are part of the public surface: run them."""

import re
import shlex
from pathlib import Path

import pytest

from motivic import guards
from motivic.checks import SUITES
from motivic.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _block_after(heading, lang):
    """Body of the first ```lang fence after the given heading line."""
    tail = README[README.index(heading) :]
    return re.search(r"```%s\n(.*?)```" % lang, tail, re.S).group(1)


def _transcripts():
    """(argv, expected stdout) for each `$ motivic ...` in the CLI examples."""
    out = []
    for chunk in _block_after("Examples:", "text").split("\n\n"):
        command, *lines = chunk.strip().splitlines()
        assert command.startswith("$ motivic ")
        out.append((shlex.split(command)[2:], "".join(line + "\n" for line in lines)))
    return out


def test_library_tour_runs(capsys):
    exec(_block_after("## Library tour", "python"), {})
    assert capsys.readouterr().out == "1/2*[Gm^2] - 3/4*[Gm]\n1/(l^2 - 2*l + 1)*[Gm^2]\n"


def test_check_suite_list_states_the_limits():
    # each suite's limit is stated once in SUITES; the README list must agree
    section = README[README.index("### Check suites") :]
    section = section[: section.index("\n### ")]
    listed = re.findall(r"^\* `([a-z0-9-]+)` \(`M <= (\d+)`", section, re.M)
    assert {name: int(limit) for name, limit in listed} == {
        name: limit for name, (limit, _) in SUITES.items()
    }


def test_size_guard_list_is_the_guard_table():
    # each guard is defined once in motivic.guards; the README list must agree
    section = README[README.index("### Size guards") :]
    section = section[: section.index("\n### ")]
    listed = re.findall(r"^\* `([A-Z_]+) = (\d+)`", section, re.M)
    assert len(listed) == len({name for name, _ in listed})
    assert {name: int(value) for name, value in listed} == {
        name: value for name, value in vars(guards).items() if name.endswith(("_GUARD", "_MAX"))
    }


TRANSCRIPTS = _transcripts()


@pytest.mark.parametrize("argv,expected", TRANSCRIPTS, ids=[" ".join(a) for a, _ in TRANSCRIPTS])
def test_cli_transcript(argv, expected, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out == expected
