"""The README's examples run as written: its Python quick start, with
warnings as errors, and each ``polyagraph`` line of its command-line
examples through ``cli.main``, each expected to exit 0."""

import re
import shlex
import warnings
from pathlib import Path

import pytest

from polyagraph.cli import EXIT_OK, main

README = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")


def _section(title):
    return README.split(f"## {title}\n", 1)[1].split("\n## ", 1)[0]


def _blocks(text, lang=""):
    return re.findall(rf"^```{lang}\n(.*?)^```$", text, flags=re.MULTILINE | re.DOTALL)


def _commands():
    # the fenced block after "Examples:", continuation lines joined
    block = _blocks(_section("Command line").split("Examples:", 1)[1])[0]
    return [line for line in block.replace("\\\n", " ").splitlines() if line.startswith("polyagraph ")]


def test_quick_start_runs_without_a_warning(tmp_path, monkeypatch):
    (code,) = _blocks(_section("Library quick start"), "python")
    assert code.count("\n") >= 15
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exec(compile(code, "README.md", "exec"), {})


def test_the_command_examples_are_found():
    assert [line.split()[1] for line in _commands()] == ["generate", "pi-e", "histogram", "memory-sweep", "validate"]


@pytest.mark.parametrize("line", _commands(), ids=lambda line: line.split()[1])
def test_command_example_exits_0(tmp_path, monkeypatch, capsys, line):
    monkeypatch.setenv("POLYAGRAPH_OUT_DIR", str(tmp_path))
    monkeypatch.chdir(tmp_path)
    assert main(shlex.split(line)[1:]) == EXIT_OK, capsys.readouterr().err
