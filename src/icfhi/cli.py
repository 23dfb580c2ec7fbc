"""Command line front end: link, index, profile, validate, synth, fit-weights.

Every command is deterministic given its inputs and seed; reruns write
byte-identical outputs and the worker count never changes results, only
wall time.  Exit codes: 0 success, 2 configuration error, 3 data error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
from collections import Counter
from operator import attrgetter
from pathlib import Path

from . import analysis, cohort, engine, linkage, weighting
from .codes import build_tree
from .errors import ConfigError, DataError, IcfHiError, InsufficientDataError
from .formatting import format_cell

CONFIG_ENV = "ICFHI_CONFIG"

DEFAULT_GAMMAS = "1/20@30,1/3@30,1"
DEFAULT_GRID = "y=0.2:3.8:0.2;gamma=" + DEFAULT_GAMMAS

_DEFAULTS = {
    "link": {"rules": None, "out": "."},
    "index": {"gamma": "1/3@30", "y": 2.0, "scaling": "theoretical", "workers": 1, "out": "."},
    "profile": {"gamma": "1/3@30", "y": 2.0, "workers": 1, "out": "."},
    "validate": {
        "rules": None,
        "gamma": DEFAULT_GAMMAS,
        "y": 2.0,
        "groups": "90:10,30:5",
        "grid": None,
        "workers": 1,
        "alpha": 0.05,
        "out": ".",
    },
    "synth": {"seed": 42, "persons": 200, "trend": "improving", "out": "."},
    "fit-weights": {},
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    try:
        _merge_config(args)
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"error (configuration): {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"error (data): {exc}", file=sys.stderr)
        return 3
    except IcfHiError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="icfhi",
        description="Personal health index over the ICF hierarchy.",
    )
    parser.set_defaults(command=None)
    sub = parser.add_subparsers(dest="command")

    def common(p, *names):
        if "config" in names:
            p.add_argument("--config", help=f"run-config JSON (default: ${CONFIG_ENV})")
        if "rules" in names:
            p.add_argument("--rules", help="linkage rule file (default: bundled rule set)")
        if "data" in names:
            p.add_argument("--data", help="answers CSV or cohort directory")
        if "out" in names:
            p.add_argument("--out", help="output directory")
        if "gamma" in names:
            p.add_argument("--gamma", help="time decay: value or FRACTION@DAYS, comma list allowed")
        if "y" in names:
            p.add_argument("--y", type=float, help="value-weighting tuning parameter in (0,4)")
        if "workers" in names:
            p.add_argument("--workers", type=int, help="parallel workers (default 1)")

    p = sub.add_parser("link", help="translate raw answers into qualifier records")
    common(p, "config", "rules", "data", "out")

    p = sub.add_parser("index", help="compute per-person per-day health indices")
    common(p, "config", "out", "gamma", "y", "workers")
    p.add_argument("--records", help="qualifier record CSV from 'link'")
    p.add_argument("--scaling", choices=["theoretical", "empirical"],
                   help="index scaling bounds: 0..4 or observed raw min/max")

    p = sub.add_parser("profile", help="compute per-component health profiles")
    common(p, "config", "out", "gamma", "y", "workers")
    p.add_argument("--records", help="qualifier record CSV from 'link'")

    p = sub.add_parser("validate", help="run the cohort validation statistics")
    common(p, "config", "rules", "data", "out", "gamma", "y", "workers")
    p.add_argument("--groups", help="group thresholds, e.g. '90:10,30:5'")
    p.add_argument("--grid", help=f"sweep grid, e.g. '{DEFAULT_GRID}' or 'default'")
    p.add_argument("--alpha", type=float, help="significance level (default 0.05)")

    p = sub.add_parser("synth", help="generate a seeded synthetic cohort")
    common(p, "config", "out")
    p.add_argument("--synth-config", help="synthetic-cohort config JSON")
    p.add_argument("--seed", type=int, help="random seed")
    p.add_argument("--persons", type=int, help="number of persons")
    p.add_argument("--trend", choices=list(cohort.TRENDS), help="latent health trend")

    p = sub.add_parser("fit-weights", help="print fitted curve parameters for y values")
    common(p, "config")
    p.add_argument("--y", required=True, help="y value or comma list, each in (0,4)")

    return parser


def _merge_config(args) -> None:
    """Fill missing flags from the config file, then from built-in defaults."""
    path = args.config if getattr(args, "config", None) else os.environ.get(CONFIG_ENV)
    section = {}
    if path:
        try:
            with open(path, encoding="utf-8") as fh:
                config = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
        if not isinstance(config, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        section = config.get(args.command, {})
        if not isinstance(section, dict):
            raise ConfigError(f"config section {args.command!r} must be an object")
    merged = dict(_DEFAULTS.get(args.command, {}))
    merged.update(section)
    for key, value in merged.items():
        dest = key.replace("-", "_")
        if getattr(args, dest, None) is None:
            setattr(args, dest, value)


def _require(args, name: str):
    value = getattr(args, name, None)
    if value is None:
        raise ConfigError(f"missing required option --{name.replace('_', '-')}")
    return value


def _out_dir(args) -> Path:
    out = Path(_require(args, "out"))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(header))
        for row in rows:
            writer.writerow([format_cell(cell) for cell in row])


def _load_rules(args) -> linkage.RuleSet:
    if getattr(args, "rules", None):
        return linkage.load_rules(args.rules)
    return linkage.default_rules()


def _parse_gammas(text) -> list[float]:
    if isinstance(text, (int, float)):
        return [float(text)]
    return [weighting.parse_gamma(part) for part in str(text).split(",") if part.strip()]


def _parse_groups(text) -> list[analysis.GroupSpec]:
    specs = []
    for part in str(text).split(","):
        part = part.strip()
        if not part:
            continue
        try:
            duration, _, length = part.partition(":")
            specs.append(analysis.GroupSpec(int(duration), int(length)))
        except ValueError as exc:
            raise ConfigError(f"cannot parse group spec {part!r}: {exc}") from None
    if not specs:
        raise ConfigError(f"no group specs in {text!r}")
    return specs


def _parse_grid(text):
    """Grid syntax: 'y=START:STOP:STEP|v1,v2,...;gamma=g1,g2,...'."""
    if text in ("default", ""):
        text = DEFAULT_GRID
    ys, gammas = None, None
    for clause in str(text).split(";"):
        clause = clause.strip()
        if not clause:
            continue
        key, _, body = clause.partition("=")
        key = key.strip().lower()
        if key == "y":
            ys = _parse_float_axis(body)
        elif key == "gamma":
            gammas = _parse_gammas(body)
        else:
            raise ConfigError(f"unknown grid axis {key!r} (expected y or gamma)")
    if not ys or not gammas:
        raise ConfigError(f"grid {text!r} must define both y and gamma axes")
    return gammas, ys


def _parse_float_axis(body: str) -> list[float]:
    body = body.strip()
    try:
        if ":" in body:
            start_s, stop_s, step_s = body.split(":")
            start, stop, step = float(start_s), float(stop_s), float(step_s)
            if step <= 0:
                raise ValueError("step must be positive")
            values = []
            k = 0
            while True:
                v = round(start + k * step, 12)
                if v > stop + 1e-9:
                    break
                values.append(v)
                k += 1
            return values
        return [float(part) for part in body.split(",") if part.strip()]
    except ValueError as exc:
        raise ConfigError(f"cannot parse grid axis {body!r}: {exc}") from None


# ---------------------------------------------------------------------------
# link

def cmd_link(args) -> int:
    rules = _load_rules(args)
    store = cohort.ingest(_require(args, "data"))
    out = _out_dir(args)
    n_records = 0
    records_per_code: Counter[str] = Counter()
    persons_per_code: Counter[str] = Counter()
    # the store holds the persons in person-id order and each answer carries
    # its person's id, so writing one person at a time keeps records.csv in
    # canonical order without holding every record
    records_csv = out / "records.csv"
    partial = out / "records.csv.partial"
    try:
        with open(partial, "w", newline="", encoding="utf-8") as fh:
            writer = linkage.RecordWriter(fh)
            for person in store:
                linked = linkage.apply_rules(person.answers, rules)
                writer.write(linked)
                n_records += len(linked)
                per_code = Counter(map(attrgetter("code.text"), linked))
                records_per_code.update(per_code)
                persons_per_code.update(per_code.keys())
    except BaseException:
        # a person that cannot be linked leaves no records.csv, not part of one
        partial.unlink(missing_ok=True)
        raise
    partial.replace(records_csv)

    counts = sorted(
        persons_per_code,
        key=lambda code: (-persons_per_code[code], -records_per_code[code], code),
    )
    _write_csv(
        out / "code_counts.csv",
        ["code", "n_persons", "n_records"],
        [[code, persons_per_code[code], records_per_code[code]] for code in counts],
    )
    if not n_records:
        print("warning: no records produced (empty input data)", file=sys.stderr)
    print(f"wrote {n_records} records for {len(store)} persons to {records_csv}")
    return 0


# ---------------------------------------------------------------------------
# index / profile

def _evaluate_cohort_rows(args, records):
    """Each person's (day, (raw, alpha, r, {component: raw})) rows under
    the one --gamma and --y, raw so that scaling can follow (the empirical
    mode needs every value first), and the persons that failed."""
    by_person: dict[str, list] = {}
    for record in records:
        by_person.setdefault(record.person_id, []).append(record)
    tree = build_tree({r.code for r in records})
    y = float(_require(args, "y"))
    gammas = _parse_gammas(_require(args, "gamma"))
    if len(gammas) != 1:
        raise ConfigError("index/profile take exactly one --gamma value")
    spec = weighting.make_spec(y, gammas[0])
    # compiled here, one person at a time, so that a worker gets a table
    jobs = ((pid, engine.compile_records(tree, recs), sorted({r.day for r in recs}))
            for pid, recs in sorted(by_person.items()))
    results, failures = [], {}
    for pid, outcome in engine.evaluate_cohort(jobs, [spec], int(args.workers or 1)):
        if isinstance(outcome, IcfHiError):
            failures[pid] = str(outcome)
        else:
            results.append((pid, outcome[0]))
    _report_failures(failures)
    return results, failures


def _report_failures(failures: dict[str, str]) -> None:
    """Name each person whose evaluation failed; the run goes on without them."""
    for pid, message in failures.items():
        print(f"error (data): person {pid}: {message}", file=sys.stderr)


def cmd_index(args) -> int:
    records = linkage.records_from_csv(_require(args, "records"))
    out = _out_dir(args)
    header = ["person_id", "day", "health_index", "raw",
              "score_b", "score_d", "score_e", "score_s", "alpha_root", "r_root"]
    if not records:
        _write_csv(out / "index.csv", header, [])
        print("warning: record file is empty; wrote empty index", file=sys.stderr)
        return 0
    results, failures = _evaluate_cohort_rows(args, records)

    lo, hi = 0.0, 4.0
    if args.scaling == "empirical":
        raws = [value[0] for _, rows in results for _, value in rows]
        if not raws:
            raise DataError("empirical scaling impossible: no evaluations succeeded")
        lo, hi = min(raws), max(raws)
        if lo == hi:
            raise DataError(
                f"empirical scaling impossible: all raw values equal {lo!r}"
            )
    table = []
    for pid, rows in results:
        for day, (raw, alpha, rel, comp_raws) in rows:
            scores = {
                c: engine.scale_index(v, lo, hi) for c, v in comp_raws.items()
            }
            table.append([
                pid, day, engine.scale_index(raw, lo, hi), raw,
                scores.get("b"), scores.get("d"), scores.get("e"), scores.get("s"),
                alpha, rel,
            ])
    _write_csv(out / "index.csv", header, table)
    print(f"wrote {len(table)} index rows to {out / 'index.csv'}")
    return 3 if failures else 0


def cmd_profile(args) -> int:
    records = linkage.records_from_csv(_require(args, "records"))
    out = _out_dir(args)
    header = ["person_id", "day", "component", "score", "raw"]
    if not records:
        _write_csv(out / "profile.csv", header, [])
        print("warning: record file is empty; wrote empty profile", file=sys.stderr)
        return 0
    results, failures = _evaluate_cohort_rows(args, records)
    table = []
    for pid, rows in results:
        for day, (_, _, _, comp_raws) in rows:
            for comp in sorted(comp_raws):
                raw = comp_raws[comp]
                table.append([pid, day, comp, engine.scale_index(raw), raw])
    _write_csv(out / "profile.csv", header, table)
    print(f"wrote {len(table)} profile rows to {out / 'profile.csv'}")
    return 3 if failures else 0


# ---------------------------------------------------------------------------
# validate

def _defined(where: str, name: str, statistic, *args):
    """``statistic(*args)``, or None after a warning if it is undefined."""
    try:
        return statistic(*args)
    except InsufficientDataError as exc:
        print(f"warning: {where} {name} is undefined: {exc.reason}", file=sys.stderr)
        return None


def cmd_validate(args) -> int:
    rules = _load_rules(args)
    store = cohort.ingest(_require(args, "data"))
    out = _out_dir(args)
    y = float(_require(args, "y"))
    gammas = _parse_gammas(_require(args, "gamma"))
    alpha = float(args.alpha)
    group_specs = _parse_groups(_require(args, "groups"))
    grid = _parse_grid(args.grid) if args.grid is not None else None

    evaluator = analysis.CohortEvaluator(store, rules)
    groups = analysis.form_groups(store, group_specs)

    specs = [weighting.make_spec(y, g) for g in gammas]
    if grid is not None:
        specs.extend(weighting.make_spec(gy, gg) for gg in grid[0] for gy in grid[1])
    eligible = sorted({pid for pids in groups.values() for pid in pids})
    failures = evaluator.precompute(eligible, specs, int(args.workers or 1))
    _report_failures(failures)
    groups = {g: [pid for pid in pids if pid not in failures] for g, pids in groups.items()}

    eqvas_rows, summary_rows, person_rows, bin_rows, sweep_rows = [], [], [], [], []
    for spec_def in group_specs:
        pids = groups[spec_def]
        for gamma in gammas:
            wspec = weighting.make_spec(y, gamma)
            where = f"group {spec_def.label} gamma={format_cell(gamma)} y={format_cell(y)}"
            eq = _defined(where, "eqvas", analysis.eqvas_vs_hi, evaluator, pids, wspec, alpha)
            if eq is not None:
                eqvas_rows.append([
                    spec_def.label, gamma, y, eq.n, eq.coefficient, eq.p_value,
                    int(eq.bonferroni_significant),
                ])
            mp = _defined(where, "maxpain", analysis.maxpain_vs_hi, evaluator, pids, wspec,
                          alpha)
            if mp is None:
                continue
            summary_rows.append([
                spec_def.label, gamma, y, mp.n, mp.median, mp.significant_portion,
                mp.omitted_constant_trajectories, mp.boxplot.q1, mp.boxplot.q3,
                mp.boxplot.whisker_low, mp.boxplot.whisker_high, mp.threshold,
            ])
            for c in mp.correlations:
                person_rows.append([
                    spec_def.label, gamma, y, c.person_id, c.n_days,
                    c.coefficient, c.p_value, int(c.significant),
                ])
            bins = _defined(where, "sequence_bins", analysis.bin_by_sequence_length, store, mp)
            for b in bins or ():
                bin_rows.append([
                    spec_def.label, gamma, y, b.index, b.min_length, b.max_length,
                    b.n, b.significant_portion, b.median_correlation,
                ])
        if grid is not None:
            for cell in analysis.sweep(evaluator, pids, grid[0], grid[1], alpha):
                sweep_rows.append([
                    spec_def.label, cell.gamma, cell.y, cell.eqvas_n,
                    cell.eqvas_coefficient, cell.eqvas_p, cell.maxpain_n,
                    cell.maxpain_median, cell.maxpain_significant_portion,
                    cell.distinct_index_values, cell.status,
                ])
                if cell.status != "ok":
                    print(f"warning: sweep cell group={spec_def.label} "
                          f"gamma={format_cell(cell.gamma)} y={format_cell(cell.y)} "
                          f"is undefined: {cell.status}", file=sys.stderr)

    _write_csv(out / "eqvas_correlations.csv",
               ["group", "gamma", "y", "n", "coefficient", "p_value", "significant"],
               eqvas_rows)
    _write_csv(out / "maxpain_summary.csv",
               ["group", "gamma", "y", "n", "median", "significant_portion", "omitted",
                "q1", "q3", "whisker_low", "whisker_high", "bonferroni_threshold"],
               summary_rows)
    _write_csv(out / "maxpain_person.csv",
               ["group", "gamma", "y", "person_id", "n_days", "coefficient", "p_value",
                "significant"],
               person_rows)
    _write_csv(out / "sequence_bins.csv",
               ["group", "gamma", "y", "bin", "min_length", "max_length", "n",
                "significant_portion", "median_correlation"],
               bin_rows)
    if grid is not None:
        _write_csv(out / "sweep.csv",
                   ["group", "gamma", "y", "eqvas_n", "eqvas_coefficient", "eqvas_p",
                    "maxpain_n", "maxpain_median", "maxpain_significant_portion",
                    "distinct_index_values", "status"],
                   sweep_rows)

    info = {
        "alpha": alpha,
        "gammas": gammas,
        "y": y,
        "groups": {g.label: len(groups[g]) for g in group_specs},
        "persons": len(store),
        "reliabilities": rules.reliabilities(),
        "grid": None if grid is None else {"gamma": grid[0], "y": grid[1]},
    }
    with open(out / "run_info.json", "w", encoding="utf-8") as fh:
        json.dump(info, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote validation tables to {out}")
    return 3 if failures else 0


# ---------------------------------------------------------------------------
# synth / fit-weights

def cmd_synth(args) -> int:
    if getattr(args, "synth_config", None):
        config = cohort.load_synth_config(args.synth_config)
    else:
        config = cohort.SynthConfig(
            seed=int(_require(args, "seed")),
            n_persons=int(_require(args, "persons")),
            trend=str(_require(args, "trend")),
        )
    store = cohort.synthesize(config)
    out = _out_dir(args)
    cohort.serialize(store, out)
    with open(out / "synth_config.json", "w", encoding="utf-8") as fh:
        json.dump(dataclasses.asdict(config), fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote synthetic cohort of {len(store)} persons to {out}")
    return 0


def cmd_fit_weights(args) -> int:
    writer = csv.writer(sys.stdout)
    writer.writerow(["y", "kind", "a", "b", "c"])
    for part in str(_require(args, "y")).split(","):
        try:
            y = float(part)
        except ValueError:
            raise ConfigError(f"cannot parse y value {part!r}") from None
        params = weighting.fit_curve(y)
        writer.writerow([format_cell(v) for v in (y, params.kind, params.a, params.b, params.c)])
    return 0


_COMMANDS = {
    "link": cmd_link,
    "index": cmd_index,
    "profile": cmd_profile,
    "validate": cmd_validate,
    "synth": cmd_synth,
    "fit-weights": cmd_fit_weights,
}


if __name__ == "__main__":
    sys.exit(main())
