"""Work counts as a gate: the calls that carry the cost of ``index``,
``profile`` and ``validate`` on the seed-42 60-person cohort, at one worker,
against ``work_counts_seed42.json``.

A timing moves with the machine; the number of weighings, scorings, curve
fits and correlations a command makes does not.  A change that moves a count
re-records the file and says which count moved and why.
"""

import importlib
import json
from collections import Counter
from pathlib import Path

import pytest

import icfhi
from icfhi.cli import main

EXPECTED = Path(__file__).resolve().parent / "work_counts_seed42.json"

# counted function -> the module that defines it
COUNTED = {"link_answers": "linkage", "build_tree": "codes", "compile_records": "engine",
           "_weigh": "engine", "_score": "engine", "fit_curve": "weighting",
           "pearson": "analysis", "_evaluate_job": "engine"}
MODULES = ("analysis", "cli", "codes", "cohort", "engine", "linkage", "weighting")

COMMANDS = {
    "index": ["index", "--records", "{linked}/records.csv", "--workers", "1"],
    "profile": ["profile", "--records", "{linked}/records.csv", "--workers", "1"],
    "validate": ["validate", "--data", "{cohort}", "--grid", "y=2,3.8;gamma=1/3@30,1",
                 "--workers", "1"],
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    base = tmp_path_factory.mktemp("work")
    cohort, linked = base / "cohort", base / "linked"
    assert main(["synth", "--out", str(cohort), "--seed", "42", "--persons", "60"]) == 0
    assert main(["link", "--data", str(cohort), "--out", str(linked)]) == 0
    return {"cohort": str(cohort), "linked": str(linked), "out": str(base / "out")}


def _count_calls(monkeypatch) -> Counter:
    """Count the calls of each COUNTED function through every name that
    binds it in the package's modules."""
    counts = Counter()
    namespaces = [icfhi, *(importlib.import_module(f"icfhi.{m}") for m in MODULES)]
    for name, home in COUNTED.items():
        original = getattr(importlib.import_module(f"icfhi.{home}"), name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for namespace in namespaces:
            for attr, value in list(vars(namespace).items()):
                if value is original:
                    monkeypatch.setattr(namespace, attr, counted)
    return counts


@pytest.mark.parametrize("command", COMMANDS)
def test_work_counts_match_the_recorded_ones(inputs, monkeypatch, capsys, command):
    argv = [arg.format(**inputs) for arg in COMMANDS[command]]
    argv += ["--out", f"{inputs['out']}/{command}"]
    counts = _count_calls(monkeypatch)
    assert main(argv) == 0
    capsys.readouterr()
    got = {name: counts[name] for name in COUNTED}
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))[command]
    assert got == expected, f"{command}: {json.dumps(got, sort_keys=True)}"
