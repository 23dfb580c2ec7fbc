"""The icfhi benchmark: link, index and sweep workloads.

usage: python3 perfbench/run.py --workload {link,index,sweep,all} [--seed N]
           [--seconds S] [--trace 0|1] [--confirm-seed M]

Run from the root of a checkout; the package is imported from ``src`` and
the correctness gate uses ``tests/oracle.py``.  Inputs are generated from
the seed and written under ``.bench_work/`` before any timing starts.  Each
timed pass is a fresh process with tracing off and one worker, which first
sets up and then does the work.  The benchmark runs as many passes as end
within ``--seconds`` seconds, and at least three, and reports medians:

  wall_s            the CLI command after the import (link, index) or the
                    cell loop (sweep)
  setup_s           from the process start to the end of ``import icfhi.cli``
                    (link, index); for sweep also ingest, CohortEvaluator and
                    form_groups
  peak_rss_mb       peak RSS of the working process
  throughput_per_s  records written (link) or index values delivered
                    (index, sweep: person x day x spec, counted from the
                    inputs) per second of wall_s

The speed of a shared VM drifts by tens of percent from second to second
and from minute to minute.  So each pass runs pinned to one CPU, with a
thread that times a fixed loop on it (``child.SpeedProbe``), and wall_s and
setup_s are medians of the pass's phases scaled by PROBE_NOMINAL_S over the
probe's median duration in the same phase: seconds at a fixed machine
speed.  The measured times are printed beside them.

Failures are counted, not fatal: a link run that exits non-zero, a person
reported as ``error (data)`` by index, a sweep cell with a statistic that
raises ``InsufficientDataError``.

``--trace 1`` alternates untraced and traced work samples instead and
reports the per-layer metrics from the spans of ``tracer.py`` and from
``python -X importtime``.  ``--confirm-seed`` repeats the run on a second,
held-out seed.  The last line of standard output is the JSON result; the
lines before it are a table of every metric and the run's metadata
(versions, cohort sizes, sha256 of every output file).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

from child import SWEEP_GAMMAS, SWEEP_GROUP, SWEEP_YS
from tracer import EVALUATE_FAMILY, LAYERS, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
WORK = ROOT / ".bench_work"

# the nominal cohort sizes, and the work of one pass on them at seed 42
# (see person_work)
NOMINAL_PERSONS = {"link": 2000, "index": 200, "sweep": 60}
WORK_TARGET = {"link": 293_919, "index": 1_712, "sweep": 424}
INDEX_GAMMA, INDEX_Y = "1/3@30", "2"
# a median needs three samples, even where they outlast --seconds
MIN_SAMPLES = 3
# wall_s and setup_s are given at the speed at which child.SpeedProbe's loop
# takes this long (about its duration on an idle 2-vCPU Sapphire Rapids guest)
PROBE_NOMINAL_S = 250e-6
CHECK_SAMPLE = 40  # rows (index), index values (sweep) or persons (link) re-checked
TIMEOUT_S = 150

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "throughput_per_s": "1/s"}

# per-layer metric prefix -> traced function: "<prefix>_s" is the self time
# of the calls into that function, "<prefix>_calls" their number (tracer.py)
_TRACED = {
    "engine.attach": "engine.attach",
    "codes.build_tree": "codes.build_tree",
    "analysis.evaluator_init": "analysis.CohortEvaluator.__init__",
    "analysis.hi": "analysis.CohortEvaluator.hi",
    "analysis.pearson": "analysis.pearson",
    "weighting.make_spec": "weighting.make_spec",
    "weighting.apply_curve": "weighting.apply_curve",
    "weighting.normalize_weights": "weighting.normalize_weights",
    "cohort.ingest": "cohort.ingest",
    "linkage.apply_rules": "linkage.apply_rules",
    "linkage.records_to_csv": "linkage.records_to_csv",
    "linkage.records_from_csv": "linkage.records_from_csv",
    "codes.parse_code": "codes.parse_code",
    "cli.write_csv": "cli._write_csv",
}
_COUNTS = ("engine.attached_records", "codes.tree_nodes", "cohort.answers", "linkage.records",
           "cli.write_csv_rows")

PER_LAYER = {
    **{f"{m}_s": "s" for m in _TRACED},
    **{f"{m}_calls": "count" for m in _TRACED},
    **{name: "count" for name in _COUNTS},
    "engine.evaluate_s": "s", "engine.evaluate_calls": "count",
    "engine.eval_ms_p50": "ms", "engine.eval_ms_p99": "ms",
    "analysis.hi_cache_hit_ratio": "ratio",
    "cli.import_s": "s", "cli.import_scipy_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.spans": "count", "trace.overhead_ratio": "ratio",
}


# ---------------------------------------------------------------------------
# processes

def child_env() -> dict:
    # a fixed hash seed keeps set and dict layouts, and so timings, alike across samples
    return dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")


def timed_process(argv, log_dir: Path) -> dict:
    """Run one process to completion: start and wall time, peak RSS, exit code, output."""
    log_dir.mkdir(parents=True, exist_ok=True)
    out_path, err_path = log_dir / "stdout.txt", log_dir / "stderr.txt"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, env=child_env(), stdout=out, stderr=err)
        killer = threading.Timer(TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # SIGTERM or Ctrl-C: end the child before leaving
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"start": start, "wall_s": wall, "rss_mb": usage.ru_maxrss / 1024.0,
            "rc": proc.returncode,
            "stdout": out_path.read_text(), "stderr": err_path.read_text()}


def python(*args) -> list[str]:
    return [sys.executable, *args]


def import_times(work: Path) -> tuple[float, float]:
    """(icfhi.cli, scipy) import times in seconds from ``python -X importtime``.

    A module's parent is the next line one level less indented; scipy time is
    the cumulative time of the scipy modules imported from outside scipy.
    """
    run = timed_process(python("-X", "importtime", "-c", "import icfhi.cli"), work / "logs")
    if run["rc"] != 0:
        raise RuntimeError(f"import icfhi.cli failed:\n{run['stderr']}")
    rows = []
    for line in run["stderr"].splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, field = line[len("import time:"):].split("|")
        name = field.strip()
        rows.append((name, (len(field) - len(field.lstrip()) - 1) // 2, int(cumulative)))
    icfhi_us = scipy_us = 0
    ancestors: list[str] = []
    for name, depth, cumulative in reversed(rows):
        parent = ancestors[depth - 1] if 0 < depth <= len(ancestors) else ""
        del ancestors[depth:]
        ancestors.append(name)
        top = name.split(".")[0]
        if depth == 0 and top == "icfhi":
            icfhi_us += cumulative
        if top == "scipy" and parent.split(".")[0] != "scipy":
            scipy_us += cumulative
    return icfhi_us / 1e6, scipy_us / 1e6


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def median(values):
    return statistics.median(values) if values else 0.0


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def timed(samples, key: str) -> list[float]:
    """The samples' ``key``; a sample whose child died before reporting has none."""
    return [s[key] for s in samples if key in s]


# ---------------------------------------------------------------------------
# workloads: inputs, one timed sample, the correctness gate

def person_work(name: str, person, rules) -> int:
    """A person's share of one pass: records written (link), person-days
    evaluated (index), or, per sweep cell, the days on which the protocol
    compares the index with a self-report: EQ-VAS days, and the pain days of
    a person with the three a correlation needs (sweep, eligible persons)."""
    from icfhi import analysis, cohort

    if name == "link":
        return sum(len(rules.get(a.source_item_id).targets) for a in person.answers)
    if name == "index":
        return len({a.day for a in person.answers if rules.get(a.source_item_id).targets})
    group = analysis.GroupSpec(*SWEEP_GROUP)
    if not analysis.form_groups(cohort.CohortStore([person]), [group])[group]:
        return 0
    pain = analysis.max_pain_by_day(person)
    return len(set(person.eqvas) | (set(pain) if len(pain) >= 3 else set()))


def prepare(name: str, seed: int, work: Path) -> dict:
    """Write the seeded inputs and count the work a pass must deliver.

    The cohort is the shortest prefix of the seeded synthetic persons whose
    work reaches the target, so that a pass costs about the same at every
    seed; at seed 42 that is the nominal cohort.
    """
    from icfhi import cohort, linkage

    rules = linkage.default_rules()
    pool_size = NOMINAL_PERSONS[name] * 11 // 10
    while True:
        config = cohort.SynthConfig(seed=seed, n_persons=pool_size)
        chosen, total = [], 0
        for person in cohort.synthesize(config):
            if total >= WORK_TARGET[name]:
                break
            chosen.append(person)
            total += person_work(name, person, rules)
        if total >= WORK_TARGET[name]:
            break
        pool_size *= 2
    store = cohort.CohortStore(chosen)
    cohort.serialize(store, work / "cohort")
    inputs = {"store": store, "rules": rules, "persons": len(store),
              "answers": sum(len(p.answers) for p in store),
              "items": sum(person_work(name, p, rules) for p in store)}
    if name == "link":
        inputs["attempted"] = 1
    elif name == "index":
        records = [r for p in store for r in linkage.apply_rules(p.answers, rules)]
        linkage.records_to_csv(records, work / "records.csv")
        inputs["records"] = len(records)
        inputs["attempted"] = len({r.person_id for r in records})
    else:
        inputs["attempted"] = len(SWEEP_GAMMAS) * len(SWEEP_YS)
        inputs["items"] *= inputs["attempted"]
    return inputs


OUTPUTS = {"link": ("records.csv", "code_counts.csv"), "index": ("index.csv",),
           "sweep": ("cells.json",)}


def work_sample(name: str, work: Path, inputs: dict, tag: str, spans: Path | None = None) -> dict:
    """One pass of the workload in a fresh process, traced when ``spans`` is set."""
    out = work / f"out-{tag}"
    shutil.rmtree(out, ignore_errors=True)
    if name == "link":
        args = ["link", "--data", str(work / "cohort"), "--out", str(out)]
    elif name == "index":
        args = ["index", "--records", str(work / "records.csv"), "--out", str(out),
                "--gamma", INDEX_GAMMA, "--y", INDEX_Y, "--workers", "1"]
    if name == "sweep":
        argv = python(str(HERE / "child.py"), "sweep", str(work / "cohort"), str(out))
        if spans is not None:
            argv.append(str(spans))
    else:
        argv = python(str(HERE / "child.py"), "cli", str(spans or "-"), *args)
    run = timed_process(argv, work / "logs")
    sample = {"process_s": run["wall_s"], "rss_mb": run["rss_mb"], "rc": run["rc"]}
    # the child's last line holds its timings unless it died before reporting them
    lines = run["stdout"].splitlines()
    times = json.loads(lines[-1]) if lines and lines[-1].startswith('{"setup_end"') else None
    if times is not None:
        setup = times["setup_end"] - run["start"]
        wall = times["work_end"] - times["work_start"]
        sample.update(measured_setup_s=setup, measured_wall_s=wall,
                      setup_probe_s=times["setup_probe"], work_probe_s=times["work_probe"])
        # a phase too short for a single probe has no scaled time
        if times["setup_probe"]:
            sample["setup_s"] = setup * PROBE_NOMINAL_S / times["setup_probe"]
        if times["work_probe"]:
            sample["wall_s"] = wall * PROBE_NOMINAL_S / times["work_probe"]
    if name == "sweep" and times is not None:
        sample["failed"] = times["failed"]
    elif name == "index" and run["rc"] in (0, 3):
        sample["failed"] = sum(line.startswith("error (data): person")
                               for line in run["stderr"].splitlines())
    else:
        sample["failed"] = inputs["attempted"] if run["rc"] != 0 else 0
    if run["rc"] != 0:
        sample["stderr"] = run["stderr"][-4000:]
    sample["sha256"] = {f: sha256(out / f) for f in OUTPUTS[name] if (out / f).exists()}
    sample["out"] = out
    return sample


def check_link(out: Path, inputs: dict, seed: int) -> tuple[list[str], list[str]]:
    from icfhi import linkage

    errors = []
    sample = set(random.Random(seed).sample(inputs["store"].person_ids,
                                            min(CHECK_SAMPLE, inputs["persons"])))
    kept = [list(linkage.RECORD_COLUMNS)]
    rows = 0
    with open(out / "records.csv", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            rows += 1
            value, reliability = float(row[4]), float(row[5])
            if not (0.0 <= value <= 4.0 and 0.0 <= reliability <= 1.0) and len(errors) < 5:
                errors.append(f"records.csv row {rows}: value {value} or reliability "
                              f"{reliability} out of range")
            if row[0] in sample:
                kept.append(row)
    if rows != inputs["items"]:
        errors.append(f"records.csv has {rows} records, the rules give {inputs['items']}")
    roundtrip = out.parent / "roundtrip.csv"
    with open(roundtrip, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(kept)
    store, rules = inputs["store"], inputs["rules"]
    expected = sorted((r for pid in sample
                       for r in linkage.apply_rules(store.person(pid).answers, rules)),
                      key=lambda r: (r.person_id, r.day, r.source_id, r.code))
    if linkage.records_from_csv(roundtrip) != expected:
        errors.append("records_from_csv(records.csv) differs from apply_rules "
                      "on the sampled persons")
    return errors, []


def oracle_hi(records, gamma: float, day: int, tree_codes, f=None) -> tuple[float, int]:
    """Raw value and index from ``tests/oracle.py`` on the tree of ``tree_codes``.

    The program evaluates every person on the cohort-wide tree, and where a
    code that is a leaf in a person's own tree has children in the cohort's,
    a curve other than the identity applies once more there; so the oracle
    gets the cohort's tree in place of the one it derives from the records.
    """
    import oracle

    children_map = oracle.children_map
    oracle.children_map = lambda _codes: children_map(tree_codes)
    try:
        return (oracle.brute_force_evaluate(records, gamma, day, f)[0],
                oracle.brute_force_hi(records, gamma, day, f=f))
    finally:
        oracle.children_map = children_map


def tie_flip(oracle_raw: float, index: int) -> bool:
    """True when ``index`` differs from the oracle's only because the oracle's
    scaled value lies on a .5 tie of nint, where float dust picks the side."""
    scaled = 100.0 - 100.0 * oracle_raw / 4.0
    return (abs(scaled - math.floor(scaled) - 0.5) <= 1e-9
            and index in (math.floor(scaled), math.ceil(scaled)))


def check_index(out: Path, inputs: dict, seed: int) -> tuple[list[str], list[str]]:
    errors, notes = [], []
    with open(out / "index.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != inputs["items"]:
        errors.append(f"index.csv has {len(rows)} rows, the records give {inputs['items']}")
    by_person: dict[str, list] = {}
    with open(out.parent / "records.csv", newline="", encoding="utf-8") as fh:
        for r in csv.DictReader(fh):
            by_person.setdefault(r["person_id"], []).append(
                (r["code"], float(r["value"]), int(r["day"]), float(r["reliability"]),
                 r["source_id"]))
    tree_codes = {r[0] for records in by_person.values() for r in records}
    gamma = (1.0 / 3.0) ** (1.0 / 30.0)
    for row in random.Random(seed).sample(rows, min(CHECK_SAMPLE, len(rows))):
        day = int(row["day"])
        records = [r for r in by_person[row["person_id"]] if r[2] <= day]
        raw, index = oracle_hi(records, gamma, day, tree_codes)
        got = int(row["health_index"])
        message = (f"{row['person_id']} day {day}: raw {row['raw']} index {got}, "
                   f"oracle raw {raw!r} index {index}")
        if abs(raw - float(row["raw"])) > 1e-9 or (index != got and not tie_flip(raw, got)):
            errors.append(message)
        elif index != got:
            notes.append(f"nint tie moved by float dust: {message}")
    return errors, notes


def degenerate(xs, ys) -> bool:
    """True when a correlation of the two series is undefined."""
    return len(xs) < 3 or len(set(xs)) == 1 or len(set(ys)) == 1


def check_sweep(out: Path, inputs: dict, seed: int) -> tuple[list[str], list[str]]:
    import oracle

    from icfhi import linkage, weighting

    errors, notes = [], []
    with open(out / "cells.json", encoding="utf-8") as fh:
        cells = json.load(fh)["cells"]
    if len(cells) != inputs["attempted"]:
        errors.append(f"{len(cells)} sweep cells, expected {inputs['attempted']}")
    candidates = []
    for cell in cells:
        label = f"cell gamma={cell['gamma']!r} y={cell['y']}"
        eqvas = [float(p[2]) for p in cell["eqvas_pairs"]]
        his = [float(p[3]) for p in cell["eqvas_pairs"]]
        candidates.extend((cell, pid, day, hi) for pid, day, _, hi in cell["eqvas_pairs"])
        if "eqvas_error" in cell:
            if not degenerate(eqvas, his):
                errors.append(f"{label}: {cell['eqvas_error']}, but its EQ-VAS pairs are not "
                              "degenerate")
        elif (cell["eqvas_n"] != len(eqvas)
              or abs(oracle.two_pass_pearson(eqvas, his) - cell["eqvas_coefficient"]) > 1e-9):
            errors.append(f"{label}: pooled EQ-VAS coefficient {cell['eqvas_coefficient']!r} "
                          f"differs from the two-pass recomputation")
        if "maxpain_error" in cell and not all(
                degenerate([pain for _, pain, hi in series if hi is not None],
                           [hi for _, _, hi in series if hi is not None])
                for series in cell["maxpain"].values()):
            errors.append(f"{label}: {cell['maxpain_error']}, but a pain series is not "
                          "degenerate")
    store, rules = inputs["store"], inputs["rules"]
    linked = {p.person_id: [(r.code.text, r.value, r.day, r.reliability, r.source_id)
                            for r in linkage.apply_rules(p.answers, rules)] for p in store}
    tree_codes = {r[0] for records in linked.values() for r in records}
    for cell, pid, day, hi in random.Random(seed).sample(candidates,
                                                         min(CHECK_SAMPLE, len(candidates))):
        spec = weighting.make_spec(cell["y"], cell["gamma"])
        records = [r for r in linked[pid] if r[2] <= day]
        raw, want = oracle_hi(records, spec.gamma, day, tree_codes,
                              f=lambda x: weighting.apply_curve(spec, x))
        message = (f"{pid} day {day} gamma={spec.gamma!r} y={spec.y}: index {hi}, "
                   f"oracle raw {raw!r} index {want}")
        if want != hi:
            (notes if tie_flip(raw, hi) else errors).append(message)
    return errors, notes


CHECKS = {"link": check_link, "index": check_index, "sweep": check_sweep}


# ---------------------------------------------------------------------------
# measurement

def more_time(deadline: float, durations: list[float]) -> bool:
    """Whether a step as long as the median of ``durations`` ends before ``deadline``."""
    return perf_counter() + median(durations) <= deadline


def measure(name: str, work: Path, inputs: dict, seconds: float):
    """Untraced samples within ``seconds`` (at least MIN_SAMPLES); the end-to-end
    metrics as medians."""
    samples = []
    deadline = perf_counter() + seconds
    while len(samples) < MIN_SAMPLES or more_time(deadline, [s["process_s"] for s in samples]):
        samples.append(work_sample(name, work, inputs, str(len(samples))))
    wall = median(timed(samples, "wall_s"))
    return samples, [], {
        "wall_s": wall,
        "setup_s": median(timed(samples, "setup_s")),
        "peak_rss_mb": median([s["rss_mb"] for s in samples]),
        "throughput_per_s": ratio(inputs["items"], wall),
    }


def layer_metrics(summary: dict) -> dict:
    calls, self_s, counts = summary["calls"], summary["self_s"], summary["counts"]
    metrics = {}
    for prefix, fn in _TRACED.items():
        metrics[f"{prefix}_s"] = self_s.get(fn, 0.0)
        metrics[f"{prefix}_calls"] = calls.get(fn, 0)
    metrics.update({name: counts.get(name, 0) for name in _COUNTS})
    metrics["engine.evaluate_s"] = sum(self_s.get(fn, 0.0) for fn in EVALUATE_FAMILY)
    metrics["engine.evaluate_calls"] = sum(calls.get(fn, 0) for fn in EVALUATE_FAMILY)
    eval_ms = summary["eval_ms"]
    if len(eval_ms) >= 2:
        centiles = statistics.quantiles(eval_ms, n=100, method="inclusive")
        metrics["engine.eval_ms_p50"], metrics["engine.eval_ms_p99"] = centiles[49], centiles[98]
    else:
        metrics["engine.eval_ms_p50"] = metrics["engine.eval_ms_p99"] = sum(eval_ms)
    hi_calls = calls.get("analysis.CohortEvaluator.hi", 0)
    metrics["analysis.hi_cache_hit_ratio"] = summary["hi_hits"] / hi_calls if hi_calls else 0.0
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = summary["layer_self_s"].get(layer, 0.0)
    metrics["trace.spans"] = summary["spans"]
    return metrics


def measure_traced(name: str, work: Path, inputs: dict, seconds: float):
    """Alternate untraced and traced samples within ``seconds`` (at least one
    pair); per-layer metrics as medians over the traced samples, whose counts
    must repeat exactly."""
    plain, traced, per_sample = [], [], []
    deadline = perf_counter() + seconds
    while not traced or more_time(deadline, [a["process_s"] + b["process_s"]
                                             for a, b in zip(plain, traced)]):
        tag = str(len(traced))
        plain.append(work_sample(name, work, inputs, tag))
        spans = work / f"spans-{tag}.json"
        traced.append(work_sample(name, work, inputs, f"traced-{tag}", spans))
        with open(spans, encoding="utf-8") as fh:
            per_sample.append(layer_metrics(summarize(json.load(fh))))
        spans.unlink()
    imports = [import_times(work) for _ in range(3)]
    metrics, errors = {}, []
    for key in per_sample[0]:
        values = [m[key] for m in per_sample]
        if PER_LAYER[key] == "count" and len(set(values)) != 1:
            errors.append(f"{key} differs between traced samples: {values}")
        metrics[key] = median(values)
    metrics["cli.import_s"] = median([t[0] for t in imports])
    metrics["cli.import_scipy_s"] = median([t[1] for t in imports])
    metrics["trace.overhead_ratio"] = ratio(median(timed(traced, "wall_s")),
                                            median(timed(plain, "wall_s"))) - 1.0
    return plain + traced, errors, {key: metrics[key] for key in PER_LAYER}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy
    import scipy

    work = WORK / f"{name}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    inputs = prepare(name, seed, work)
    samples, errors, metrics = (measure_traced if trace else measure)(name, work, inputs,
                                                                      seconds)
    failed = max(s["failed"] for s in samples)
    notes: list[str] = []
    hashes = samples[0]["sha256"]
    if any(s["sha256"] != hashes for s in samples):
        errors.append("outputs differ between samples: "
                      + "; ".join(json.dumps(s["sha256"]) for s in samples))
    if len(hashes) != len(OUTPUTS[name]):
        errors.append(f"missing outputs: {sorted(set(OUTPUTS[name]) - set(hashes))}")
    else:
        check_errors, notes = CHECKS[name](samples[0]["out"], inputs, seed)
        errors.extend(check_errors)
    meta = {
        "workload": name, "seed": seed, "trace": int(trace), "seconds": seconds,
        **{k: v for k, v in inputs.items() if isinstance(v, int)},
        "samples": [{k: v for k, v in s.items() if k != "out"} for s in samples],
        "sha256": hashes, "errors": errors, "notes": notes,
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
    }
    result = {"correct": not errors, "attempted": inputs["attempted"], "failed": failed,
              "metrics": metrics, "meta": meta}
    # inputs and outputs follow from the seed; only the result is kept
    shutil.rmtree(work)
    work.mkdir()
    with open(work / "result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, default=str)
    return result


def print_table(result: dict) -> None:
    meta = result["meta"]
    name = meta["workload"]
    units = PER_LAYER if meta["trace"] else END_TO_END
    print(f"== {name}  seed {meta['seed']}  persons {meta['persons']}  "
          f"samples {len(meta['samples'])}  correct {result['correct']}")
    for key, value in result["metrics"].items():
        print(f"  {key:34s} {value:14.6g} {units[key]}")
    if not meta["trace"]:
        throughput = "records_per_s" if name == "link" else "evals_per_s"
        print(f"  {throughput:34s} {result['metrics']['throughput_per_s']:14.6g} 1/s")
        print(f"  {'failed_ratio':34s} {result['failed'] / result['attempted']:14.6g} ratio"
              f"  ({result['failed']} of {result['attempted']})")
        for key in ("measured_wall_s", "measured_setup_s", "work_probe_s"):
            value = median(timed(meta["samples"], key))
            print(f"  {key:34s} {value:14.6g} s")
    for error in meta["errors"]:
        print(f"  INCORRECT: {error}")
    for note in meta["notes"]:
        print(f"  NOTE: {note}")
    print("meta " + json.dumps(meta, default=str, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*NOMINAL_PERSONS, "all"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--confirm-seed", type=int,
                        help="also run on this held-out seed; the result is correct only "
                             "if both runs are")
    args = parser.parse_args(argv)
    # a terminated run unwinds, so that timed_process ends its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "icfhi" / "__init__.py").is_file() or not (TESTS / "oracle.py").is_file():
        print(f"error: {ROOT} is not an icfhi checkout (need src/icfhi and tests/oracle.py)",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(TESTS)]
    import icfhi.cli  # noqa: F401  (compiles the package before any timing)

    names = list(NOMINAL_PERSONS) if args.workload == "all" else [args.workload]
    seeds = [args.seed] + ([args.confirm_seed] if args.confirm_seed is not None else [])
    results = []
    for name in names:
        for seed in seeds:
            results.append(run_workload(name, seed, args.seconds, bool(args.trace)))
            print_table(results[-1])
    main_runs = [r for r in results if r["meta"]["seed"] == args.seed]
    units = PER_LAYER if args.trace else END_TO_END
    metrics = {}
    for run in main_runs:
        prefix = f"{run['meta']['workload']}." if len(main_runs) > 1 else ""
        for key, value in run["metrics"].items():
            metrics[prefix + key] = {"value": value, "unit": units[key]}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in main_runs),
        "failed": sum(r["failed"] for r in main_runs),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
