"""Shared fixtures: the worked tree example and its hand-derived values."""

import functools
import json
import math
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import settings

import icfhi

from icfhi import (
    QualifierRecord,
    build_tree,
    compile_records,
    default_rules,
    evaluate_table,
    make_spec,
    parse_code,
    qualifiers,
)

# On CI (GitHub Actions sets CI) every run tries the same examples, and none
# fails for taking long: property tests that evaluate trees must not flake on
# a slow runner.
settings.register_profile("ci", derandomize=True, deadline=None)
if os.environ.get("CI"):
    settings.load_profile("ci")

# gamma giving a 30-day-old qualifier one third of its weight
GAMMA_THIRD_30 = (1.0 / 3.0) ** (1.0 / 30.0)
GAMMA_TWENTIETH_30 = (1.0 / 20.0) ** (1.0 / 30.0)

# Hand-derived values for the worked example (computed independently with a
# spreadsheet-style calculation before the engine existed):
#   parent node carries (1, age 0, r 1.0) and (0, age 15, r 0.9); one child
#   carries (2, age 0, r 1.0) plus a shared-source (1, age 30, r 0.8); the
#   sibling child carries the same shared source answer, so both copies get
#   uniqueness 1/2.  With gamma = (1/3)**(1/30):
#     weights: 1, 0.9/sqrt(3), 1, 2/15, 2/15          (sum 2.78628190893733)
#     value  : 49 / (34 + 13.5/sqrt(3))               = 1.1724106796905387
#     alpha  : (1 + 0.3 + 1 + 2/45 + 2/45) / sum      = 0.8573751569165503
#     rel    : (1 + 0.46761.. + 1 + 2*0.10666..)/sum  = 0.9622095462692938
#   the node is the only data-bearing branch, so the root raw equals it and
#   the index is nint(100 - 25 * 1.17241068) = nint(70.6897) = 71.
WORKED_NODE_X = 49.0 / (34.0 + 13.5 / math.sqrt(3.0))
WORKED_NODE_ALPHA = 0.8573751569165503
WORKED_NODE_R = 0.9622095462692938
WORKED_HI = 71

# a linkage rule whose records carry reliability 0: a person whose only
# instrument it is cannot be evaluated
UNRATED_RULE = {"source_item_id": "unrated:item", "targets": ["b280"],
                "translation": {"kind": "affine", "scale": 1.0, "offset": 0.0, "domain": [0, 4]},
                "reliability": 0.0}


def default_rules_json() -> dict:
    """The bundled rule file as a fresh JSON object, for a test to add rules to."""
    text = resources.files("icfhi").joinpath("data/default_rules.json").read_text("utf-8")
    return json.loads(text)


def worked_example_records():
    return [
        QualifierRecord("p", 30, "srcA", parse_code("b28010"), 2.0, 1.0),
        QualifierRecord("p", 0, "srcB", parse_code("b28010"), 1.0, 0.8),
        QualifierRecord("p", 0, "srcB", parse_code("b28013"), 1.0, 0.8),
        QualifierRecord("p", 30, "srcC", parse_code("b2801"), 1.0, 1.0),
        QualifierRecord("p", 15, "srcD", parse_code("b2801"), 0.0, 0.9),
    ]


@pytest.fixture
def worked_records():
    return worked_example_records()


@pytest.fixture
def worked_tree(worked_records):
    return build_tree({r.code for r in worked_records})


@pytest.fixture
def linear_spec_third():
    """Linear curve with the one-third-over-30-days decay."""
    return make_spec(2.0, GAMMA_THIRD_30)


def report_on(records, day, spec, *, tree=None, audit=False):
    """The report of ``records`` as of ``day``: compile them against
    ``tree`` (by default the tree of their codes) and evaluate that day."""
    if tree is None:
        tree = build_tree({r.code for r in records})
    [[(_, report)]] = evaluate_table(compile_records(tree, records), [day], [spec], audit=audit)
    return report


def engine_alphas(ages, gamma):
    """The time weights the engine gives records of the given ages (days),
    one record per age on one code, read through ``qualifiers``."""
    today = max(ages)
    records = [QualifierRecord("p", today - age, f"s{i}", parse_code("b280"), 2.0, 1.0)
               for i, age in enumerate(ages)]
    table = compile_records(build_tree({parse_code("b280")}), records)
    [quals] = qualifiers(table, today, gamma).values()
    return [q.alpha for q in quals]


@functools.cache
def shipped_translation(instrument):
    """The value translation of the bundled rules of ``instrument``
    (``odi``, ``eq5d``, ``pain_vas`` or ``machine``), which all its rules share."""
    rules = [rule for rule in default_rules() if rule.source_item_id.startswith(f"{instrument}:")]
    assert rules and all(rule.translation == rules[0].translation for rule in rules)
    return rules[0].translation.translate


def run_python(*args, timeout=120):
    """Run a fresh interpreter with the package on its path."""
    src = str(Path(icfhi.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=timeout)
