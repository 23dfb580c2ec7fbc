"""Command line front end: link, index, profile, validate, synth, fit-weights.

Every command is deterministic given its inputs and seed; reruns write
byte-identical outputs and the worker count never changes results, only
wall time.  Exit codes: 0 success, 2 configuration error, 3 data error.
An input that cannot be read (missing, a directory, not UTF-8, a CSV field
over csv's size limit, invalid JSON) is an error of its kind: a rule,
config or synthetic-config file exits 2, a --data or --records file 3.
Every output file is written whole or not at all (``errors.writing``); one
that cannot be written (say, its path is a directory) exits 2 in one line.

A JSON config file (--config or $ICFHI_CONFIG) holds a section per
command, whose entry "key": value acts as --key value given before the
command's flags, so flags win; a null entry is skipped.  An unknown key or
a bad value exits 2.  --workers must be at least 1, --alpha lie in (0, 1).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from collections import Counter
from pathlib import Path

# analysis and cohort (and dataclasses with them) are imported by the commands
# that use them, so that index, profile and fit-weights never load them
from . import engine, linkage, weighting
from .codes import COMPONENTS, QUALIFIER_MAX, QUALIFIER_MIN, build_tree
from .errors import ConfigError, DataError, IcfHiError, reading, writing
from .formatting import format_cell, write_csv as _write_csv  # perfbench traces the name

CONFIG_ENV = "ICFHI_CONFIG"

DEFAULT_GAMMAS = "1/20@30,1/3@30,1"
DEFAULT_GRID = "y=0.2:3.8:0.2;gamma=" + DEFAULT_GAMMAS
# the most values a grid range may give; the default grid's y axis has 19
MAX_RANGE_VALUES = 1000


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
            p.add_argument("--y", type=float, default=weighting.LINEAR_Y,
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
    # SynthConfig checks the trend, so that building the parser never imports cohort
    p.add_argument("--trend", help="latent health trend: improving (the default), "
                                   "worsening, flat or mixed")

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
    with reading(path, "config file", ConfigError) as fh:
        config = json.load(fh)
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
    try:
        args.out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {args.out}: {exc}") from None
    return args.out


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


def _listed(parse, what: str):
    """An option type for a comma list: ``parse`` of each non-empty entry, at
    least one; a ValueError from ``parse`` is a ConfigError naming the entry."""
    def parse_list(text: str) -> list:
        values = []
        for part in filter(None, map(str.strip, text.split(","))):
            try:
                values.append(parse(part))
            except ValueError as exc:
                raise ConfigError(f"cannot parse {what} {part!r}: {exc}") from None
        if not values:
            raise ConfigError(f"no {what} values in {text!r}")
        return values
    return parse_list


def _group(text: str):
    from .analysis import GroupSpec

    duration, _, length = text.partition(":")
    return GroupSpec(int(duration), int(length))


_parse_gammas = _listed(weighting.parse_gamma, "gamma")
_parse_groups = _listed(_group, "group spec")
_parse_ys = _listed(float, "y")


def _parse_y_axis(body: str) -> list[float]:
    """A grid's y axis: a comma list, or START:STOP:STEP for the values
    START + k*STEP, rounded to 12 places, up to STOP."""
    body = body.strip()
    if ":" not in body:
        return _parse_ys(body)
    try:
        start, stop, step = map(float, body.split(":"))
    except ValueError as exc:
        raise ConfigError(f"cannot parse grid range {body!r}: {exc}") from None
    span = (stop - start + 1e-9) / step if 0 < step < math.inf else math.nan
    if not 0 <= span < MAX_RANGE_VALUES:  # False for nan
        raise ConfigError(f"grid range {body!r} must give 1 to {MAX_RANGE_VALUES} values: "
                          "finite START <= STOP and STEP > 0")
    # span is inexact, so one more k is tried and the bound decides
    return [v for v in (round(start + k * step, 12) for k in range(int(span) + 2))
            if v <= stop + 1e-9]


def _parse_grid(text: str):
    """Grid syntax: 'y=START:STOP:STEP|y1,y2,...;gamma=g1,g2,...'."""
    if text in ("default", ""):
        text = DEFAULT_GRID
    axes = {"y": _parse_y_axis, "gamma": _parse_gammas}
    values = {}
    for clause in filter(None, map(str.strip, text.split(";"))):
        key, _, body = clause.partition("=")
        key = key.strip().lower()
        if key not in axes:
            raise ConfigError(f"unknown grid axis {key!r} (expected y or gamma)")
        if key in values:
            raise ConfigError(f"grid axis {key!r} is given twice")
        values[key] = axes[key](body)
    if not (values.get("y") and values.get("gamma")):
        raise ConfigError(f"grid {text!r} must define both y and gamma axes")
    return values["gamma"], values["y"]


# ---------------------------------------------------------------------------
# link

def cmd_link(args) -> int:
    from . import cohort

    rules = _load_rules(args)
    store = cohort.ingest(_require(args, "data"))
    out = _out_dir(args)
    n_records = 0
    records_per_code: Counter[str] = Counter()
    persons_per_code: Counter[str] = Counter()
    # the store holds the persons in person-id order and each answer carries
    # its person's id, so writing one person at a time keeps records.csv in
    # canonical order without holding every link; a person that cannot be
    # linked leaves no records.csv, not part of one
    records_csv = out / "records.csv"
    with writing(records_csv) as fh:
        writer = linkage.RecordWriter(fh)
        for person in store:
            links = linkage.link_answers(person.answers, rules)
            writer.write(links)
            per_code = Counter([code for link in links for code in link.targets])
            n_records += per_code.total()
            records_per_code.update(per_code)
            persons_per_code.update(per_code.keys())

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
    if len(args.gamma) != 1:
        raise ConfigError("index/profile take exactly one --gamma value")
    records = linkage.records_from_csv(_require(args, "records"))
    path = _out_dir(args) / f"{args.command}.csv"
    if not records:
        _write_csv(path, header, [])
        print(f"warning: record file is empty; wrote empty {args.command}", file=sys.stderr)
        return 0
    by_person: dict[str, list] = {}
    for record in records:
        by_person.setdefault(record.person_id, []).append(record)
    tree = build_tree({r.code for r in records})
    spec = weighting.make_spec(args.y, args.gamma[0])
    # compiled here, one person at a time, so that a worker gets a table
    tables = ((pid, engine.compile_records(tree, recs)) for pid, recs in sorted(by_person.items()))
    jobs = ((pid, table, table.days) for pid, table in tables)
    results, failures = [], {}
    for pid, outcome in engine.evaluate_cohort(jobs, [spec], args.workers):
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
        lo, hi = QUALIFIER_MIN, QUALIFIER_MAX
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
                                   *map(scores.get, COMPONENTS), report.alpha,
                                   report.reliability])
        return index_rows

    return _evaluate_records(args, ["person_id", "day", "health_index", "raw",
                                    *[f"score_{c}" for c in COMPONENTS], "alpha_root", "r_root"],
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

def cmd_validate(args) -> int:
    from . import analysis, cohort

    rules = _load_rules(args)
    store = cohort.ingest(_require(args, "data"))
    out = _out_dir(args)
    result = analysis.validate(store, rules, args.groups, args.gamma, args.y, args.grid,
                               args.alpha, args.workers)
    _report_failures(result.failures)
    for line in result.warnings:
        print(f"warning: {line}", file=sys.stderr)
    for name, rows in result.tables.items():
        _write_csv(out / f"{name}.csv", analysis.VALIDATION_TABLES[name], rows)
    with writing(out / "run_info.json") as fh:
        json.dump(result.info, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote validation tables to {out}")
    return 3 if result.failures else 0


# ---------------------------------------------------------------------------
# synth / fit-weights

def cmd_synth(args) -> int:
    import dataclasses

    from . import cohort

    config = (cohort.load_synth_config(args.synth_config) if args.synth_config
              else cohort.SynthConfig())
    flags = {"seed": args.seed, "n_persons": args.persons, "trend": args.trend}
    config = dataclasses.replace(config, **{k: v for k, v in flags.items() if v is not None})
    store = cohort.synthesize(config)
    out = _out_dir(args)
    cohort.serialize(store, out)
    with writing(out / "synth_config.json") as fh:
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
