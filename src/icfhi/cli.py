"""Command line front end: link, index, profile, validate, synth, fit-weights.

Every command is deterministic given its inputs and seed; reruns write
byte-identical outputs and the worker count never changes results, only
wall time.  Exit codes: 0 success, 2 configuration error, 3 data error.

A JSON config file (--config or $ICFHI_CONFIG) holds a section per
command, whose entry "key": value acts as --key value given before the
command's flags, so flags win; a null entry is skipped.  An unknown key or
a bad value exits 2.  --workers must be at least 1, --alpha lie in (0, 1).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
from collections import Counter
from pathlib import Path

from . import analysis, cohort, engine, linkage, weighting
from .codes import build_tree
from .errors import ConfigError, DataError, IcfHiError, InsufficientDataError
from .formatting import format_cell

CONFIG_ENV = "ICFHI_CONFIG"

DEFAULT_GAMMAS = "1/20@30,1/3@30,1"
DEFAULT_GRID = "y=0.2:3.8:0.2;gamma=" + DEFAULT_GAMMAS


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_help()
            return 2
        args = _apply_config(parser, args, argv)
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


class _Parser(argparse.ArgumentParser):
    """An option that argparse rejects is a configuration error like any other."""

    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="icfhi", description="Personal health index over the ICF hierarchy.")
    sub = parser.add_subparsers(dest="command")

    def common(p, *names, gamma="1/3@30"):
        p.add_argument("--config", help=f"run-config JSON (default: ${CONFIG_ENV})")
        if "rules" in names:
            p.add_argument("--rules", help="linkage rule file (default: bundled rule set)")
        if "data" in names:
            p.add_argument("--data", help="answers CSV or cohort directory")
        if "out" in names:
            p.add_argument("--out", type=Path, default=".", help="output directory")
        if "gamma" in names:
            p.add_argument("--gamma", type=_parse_gammas, default=gamma,
                           help="time decay: value or FRACTION@DAYS, comma list allowed")
        if "y" in names:
            p.add_argument("--y", type=float, default=2.0,
                           help="value-weighting tuning parameter in (0,4)")
        if "workers" in names:
            p.add_argument("--workers", type=_workers, default=1,
                           help="parallel workers, at least 1 (default 1)")

    p = sub.add_parser("link", help="translate raw answers into qualifier records")
    common(p, "rules", "data", "out")

    p = sub.add_parser("index", help="compute per-person per-day health indices")
    common(p, "out", "gamma", "y", "workers")
    p.add_argument("--records", help="qualifier record CSV from 'link'")
    p.add_argument("--scaling", choices=["theoretical", "empirical"], default="theoretical",
                   help="index scaling bounds: 0..4 or observed raw min/max")

    p = sub.add_parser("profile", help="compute per-component health profiles")
    common(p, "out", "gamma", "y", "workers")
    p.add_argument("--records", help="qualifier record CSV from 'link'")

    p = sub.add_parser("validate", help="run the cohort validation statistics")
    common(p, "rules", "data", "out", "gamma", "y", "workers", gamma=DEFAULT_GAMMAS)
    p.add_argument("--groups", type=_parse_groups, default="90:10,30:5",
                   help="group thresholds, e.g. '90:10,30:5'")
    p.add_argument("--grid", type=_parse_grid,
                   help=f"sweep grid, e.g. '{DEFAULT_GRID}' or 'default'")
    p.add_argument("--alpha", type=_alpha, default=0.05,
                   help="significance level in (0, 1) (default 0.05)")

    p = sub.add_parser("synth", help="generate a seeded synthetic cohort")
    common(p, "out")
    p.add_argument("--synth-config",
                   help="synthetic-cohort config JSON; the flags below override it")
    p.add_argument("--seed", type=int, help="random seed (default 42)")
    p.add_argument("--persons", type=int, help="number of persons (default 200)")
    p.add_argument("--trend", choices=list(cohort.TRENDS),
                   help="latent health trend (default improving)")

    p = sub.add_parser("fit-weights", help="print fitted curve parameters for y values")
    common(p)
    p.add_argument("--y", type=_parse_ys, help="y value or comma list, each in (0,4)")

    return parser


def _apply_config(parser, args, argv):
    """ARGV parsed again with the entries of the command's section of the
    config file given first, each "key": value as --key=value, so that a
    flag on the command line wins; a null entry is skipped."""
    path = args.config or os.environ.get(CONFIG_ENV)
    if not path:
        return args
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
    where = f"config file {path} section {args.command!r}"
    flags = []
    for key, value in section.items():
        dest = key.replace("-", "_")
        if dest in ("command", "config") or dest not in vars(args):
            raise ConfigError(f"{where}: unknown key {key!r}")
        if value is not None:
            flags.append(f"--{dest.replace('_', '-')}={value}")
    at = argv.index(args.command) + 1
    try:
        return parser.parse_args(argv[:at] + flags + argv[at:])
    except ConfigError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _require(args, name: str):
    value = getattr(args, name, None)
    if value is None:
        raise ConfigError(f"missing required option --{name.replace('_', '-')}")
    return value


def _out_dir(args) -> Path:
    args.out.mkdir(parents=True, exist_ok=True)
    return args.out


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(header))
        for row in rows:
            writer.writerow([format_cell(cell) for cell in row])


def _load_rules(args) -> linkage.RuleSet:
    return linkage.load_rules(args.rules) if args.rules else linkage.default_rules()


def _workers(text: str) -> int:
    if not text.strip().isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a whole number of at least 1, got {text!r}")
    return int(text)


def _alpha(text: str) -> float:
    try:
        if 0.0 < float(text) < 1.0:
            return float(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a significance level in (0, 1), got {text!r}")


def _parse_ys(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"cannot parse y values {text!r}: {exc}") from None


def _parse_gammas(text: str) -> list[float]:
    gammas = [weighting.parse_gamma(part) for part in text.split(",") if part.strip()]
    if not gammas:
        raise ConfigError(f"no gamma values in {text!r}")
    return gammas


def _parse_groups(text: str) -> list[analysis.GroupSpec]:
    specs = []
    for part in text.split(","):
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


def _parse_grid(text: str):
    """Grid syntax: 'y=START:STOP:STEP|v1,v2,...;gamma=g1,g2,...'."""
    if text in ("default", ""):
        text = DEFAULT_GRID
    ys, gammas = None, None
    for clause in text.split(";"):
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
    # canonical order without holding every link
    records_csv = out / "records.csv"
    partial = out / "records.csv.partial"
    try:
        with open(partial, "w", newline="", encoding="utf-8") as fh:
            writer = linkage.RecordWriter(fh)
            for person in store:
                links = linkage.link_answers(person.answers, rules)
                writer.write(links)
                per_code = Counter([code for link in links for code in link.targets])
                n_records += per_code.total()
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

def _evaluate_records(args, header, table) -> int:
    """Evaluate each person in --records under the one --gamma and --y, then
    write <command>.csv with the rows ``table`` builds from each person's
    (day, report) pairs; failed persons are named."""
    records = linkage.records_from_csv(_require(args, "records"))
    path = _out_dir(args) / f"{args.command}.csv"
    if not records:
        _write_csv(path, header, [])
        print(f"warning: record file is empty; wrote empty {args.command}", file=sys.stderr)
        return 0
    if len(args.gamma) != 1:
        raise ConfigError("index/profile take exactly one --gamma value")
    by_person: dict[str, list] = {}
    for record in records:
        by_person.setdefault(record.person_id, []).append(record)
    tree = build_tree({r.code for r in records})
    spec = weighting.make_spec(args.y, args.gamma[0])
    # compiled here, one person at a time, so that a worker gets a table
    jobs = ((pid, engine.compile_records(tree, recs), sorted({r.day for r in recs}))
            for pid, recs in sorted(by_person.items()))
    results, failures = [], {}
    for pid, outcome in engine.evaluate_cohort(jobs, [spec], args.workers, len(by_person)):
        if isinstance(outcome, IcfHiError):
            failures[pid] = str(outcome)
        else:
            results.append((pid, outcome[0]))
    _report_failures(failures)
    rows = table(results)
    _write_csv(path, header, rows)
    print(f"wrote {len(rows)} {args.command} rows to {path}")
    return 3 if failures else 0


def _report_failures(failures: dict[str, str]) -> None:
    """Name each person whose evaluation failed; the run goes on without them."""
    for pid, message in failures.items():
        print(f"error (data): person {pid}: {message}", file=sys.stderr)


def cmd_index(args) -> int:
    def table(results):
        lo, hi = 0.0, 4.0
        if args.scaling == "empirical":
            raws = [report.raw for _, reports in results for _, report in reports]
            if not raws:
                raise DataError("empirical scaling impossible: no evaluations succeeded")
            lo, hi = min(raws), max(raws)
            if lo == hi:
                raise DataError(f"empirical scaling impossible: all raw values equal {lo!r}")
        index_rows = []
        for pid, reports in results:
            for day, report in reports:
                scores = {c: engine.scale_index(v, lo, hi) for c, v in report.components.items()}
                index_rows.append([pid, day, engine.scale_index(report.raw, lo, hi), report.raw,
                                   scores.get("b"), scores.get("d"), scores.get("e"),
                                   scores.get("s"), report.alpha, report.reliability])
        return index_rows

    return _evaluate_records(args, ["person_id", "day", "health_index", "raw", "score_b",
                                    "score_d", "score_e", "score_s", "alpha_root", "r_root"],
                             table)


def cmd_profile(args) -> int:
    def table(results):
        return [[pid, day, comp, engine.scale_index(raw), raw]
                for pid, reports in results
                for day, report in reports
                for comp, raw in sorted(report.components.items())]

    return _evaluate_records(args, ["person_id", "day", "component", "score", "raw"], table)


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
    y, alpha, grid = args.y, args.alpha, args.grid
    # a repeated --gamma or --groups entry is evaluated and written once
    gammas, group_specs = list(dict.fromkeys(args.gamma)), list(dict.fromkeys(args.groups))

    evaluator = analysis.CohortEvaluator(store, rules)
    groups = analysis.form_groups(store, group_specs)

    specs = [weighting.make_spec(y, g) for g in gammas]
    if grid is not None:
        specs.extend(weighting.make_spec(gy, gg) for gg in grid[0] for gy in grid[1])
    # a --gamma x --y spec that is also a grid cell is evaluated once
    specs = list(dict.fromkeys(specs))
    eligible = sorted({pid for pids in groups.values() for pid in pids})
    failures = evaluator.precompute(eligible, specs, args.workers)
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
    config = (cohort.load_synth_config(args.synth_config) if args.synth_config
              else cohort.SynthConfig())
    flags = {"seed": args.seed, "n_persons": args.persons, "trend": args.trend}
    config = dataclasses.replace(config, **{k: v for k, v in flags.items() if v is not None})
    store = cohort.synthesize(config)
    out = _out_dir(args)
    cohort.serialize(store, out)
    with open(out / "synth_config.json", "w", encoding="utf-8") as fh:
        json.dump(dataclasses.asdict(config), fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote synthetic cohort of {len(store)} persons to {out}")
    return 0


def cmd_fit_weights(args) -> int:
    ys = _require(args, "y")
    writer = csv.writer(sys.stdout)
    writer.writerow(["y", "kind", "a", "b", "c"])
    for y in ys:
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
