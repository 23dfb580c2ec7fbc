"""The python examples of README.md run as written."""

import re
from pathlib import Path

from icfhi import SynthConfig, serialize, synthesize

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_examples_run(tmp_path, monkeypatch, capsys):
    # the examples read a cohort from cohort/ in the working directory
    serialize(synthesize(SynthConfig(seed=42, n_persons=5)), tmp_path / "cohort")
    monkeypatch.chdir(tmp_path)
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        re.M | re.S)
    assert blocks
    namespace = {"__name__": "readme"}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert capsys.readouterr().out
