"""Work counts as a gate: the calls that carry the cost of ``index``,
``profile`` and ``validate`` on the seed-42 60-person cohort, at one worker,
and of the (gamma, y) sweep pattern that scores index values one at a time
through ``CohortEvaluator.hi``, against ``work_counts_seed42.json``.

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
from icfhi import GroupSpec, InsufficientDataError, default_rules, ingest, make_spec, parse_gamma
from icfhi.analysis import CohortEvaluator, eqvas_vs_hi, form_groups, maxpain_vs_hi
from icfhi.cli import main

EXPECTED = Path(__file__).resolve().parent / "work_counts_seed42.json"

# counted function -> the module that defines it
COUNTED = {"link_answers": "linkage", "build_tree": "codes", "compile_records": "engine",
           "_weigh": "engine", "_score": "engine", "_values": "engine", "fit_curve": "weighting",
           "pearson": "analysis", "_evaluate_job": "engine"}
MODULES = ("analysis", "cli", "codes", "cohort", "engine", "linkage", "weighting")

COMMANDS = {
    "index": ["index", "--records", "{linked}/records.csv", "--workers", "1"],
    "profile": ["profile", "--records", "{linked}/records.csv", "--workers", "1"],
    "validate": ["validate", "--data", "{cohort}", "--grid", "y=2,3.8;gamma=1/3@30,1",
                 "--workers", "1"],
}
# the sweep pattern: both statistics of each (gamma, y) cell, gamma outermost,
# on the 30-day, 5-visit group
HI_GAMMAS, HI_YS = ("1/3@30", "1"), (2.0, 3.8)


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


def _assert_recorded(counts: Counter, scenario: str) -> None:
    got = {name: counts[name] for name in COUNTED}
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))[scenario]
    assert got == expected, f"{scenario}: {json.dumps(got, sort_keys=True)}"


@pytest.mark.parametrize("command", COMMANDS)
def test_work_counts_match_the_recorded_ones(inputs, monkeypatch, capsys, command):
    argv = [arg.format(**inputs) for arg in COMMANDS[command]]
    argv += ["--out", f"{inputs['out']}/{command}"]
    counts = _count_calls(monkeypatch)
    assert main(argv) == 0
    capsys.readouterr()
    _assert_recorded(counts, command)


def test_work_counts_of_the_hi_pattern_match_the_recorded_ones(inputs, monkeypatch):
    # hi weighs each (person, day) once per gamma and runs the value pass
    # alone for each y: a weighing per spec would double the _weigh count
    store = ingest(inputs["cohort"])
    evaluator = CohortEvaluator(store, default_rules())
    group = GroupSpec(30, 5)
    pids = form_groups(store, [group])[group]
    counts = _count_calls(monkeypatch)
    for gamma in HI_GAMMAS:
        for y in HI_YS:
            spec = make_spec(y, parse_gamma(gamma))
            for statistic in (eqvas_vs_hi, maxpain_vs_hi):
                try:
                    statistic(evaluator, pids, spec)
                except InsufficientDataError:
                    pass
    _assert_recorded(counts, "hi")
