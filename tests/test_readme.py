"""The examples of README.md run as written: its python blocks, and each
``icfhi`` command of its sh blocks, in order, through ``cli.main``."""

import re
import shlex
from pathlib import Path

from icfhi.cli import main
from icfhi.cohort import SynthConfig, serialize, synthesize

README = Path(__file__).resolve().parent.parent / "README.md"


def _blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```$", README.read_text(encoding="utf-8"),
                      re.M | re.S)


def test_readme_python_examples_run(tmp_path, monkeypatch, capsys):
    # the examples read a cohort from cohort/ in the working directory
    serialize(synthesize(SynthConfig(seed=42, n_persons=5)), tmp_path / "cohort")
    monkeypatch.chdir(tmp_path)
    blocks = _blocks("python")
    assert blocks
    namespace = {"__name__": "readme"}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert capsys.readouterr().out


def test_readme_icfhi_commands_exit_0(tmp_path, monkeypatch):
    # each command reads what the commands above it write in the working directory
    monkeypatch.chdir(tmp_path)
    lines = "\n".join(_blocks("sh")).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("icfhi ")]
    assert commands
    for argv in commands:
        assert main(argv) == 0, argv
