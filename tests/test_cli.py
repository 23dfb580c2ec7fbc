import codecs
import csv
import hashlib
import json
import random
import shutil
from pathlib import Path

import pytest

import icfhi
from icfhi import analysis
from icfhi.cli import _parse_grid, main
from icfhi.formatting import format_cell, write_csv
from icfhi.linkage import records_to_csv

from conftest import GAMMA_THIRD_30, UNRATED_RULE, default_rules_json, run_python


def run(*argv):
    return main(list(argv))


def read(path):
    return path.read_bytes()


def synth_args(out, seed=42, persons=40):
    return ["synth", "--out", str(out), "--seed", str(seed), "--persons", str(persons),
            "--trend", "improving"]


@pytest.fixture
def cohort_dir(tmp_path):
    out = tmp_path / "cohort"
    assert run(*synth_args(out)) == 0
    return out


def test_synth_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(*synth_args(a)) == 0
    assert run(*synth_args(b)) == 0
    for name in ("persons.csv", "answers.csv", "eqvas.csv", "synth_config.json"):
        assert read(a / name) == read(b / name)
    c = tmp_path / "c"
    assert run(*synth_args(c, seed=7)) == 0
    assert read(a / "answers.csv") != read(c / "answers.csv")


def test_link_produces_records_and_counts(cohort_dir, tmp_path):
    out = tmp_path / "linked"
    assert run("link", "--data", str(cohort_dir), "--out", str(out)) == 0
    with open(out / "records.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows, "no records written"
    assert set(rows[0]) == {"person_id", "day", "source_id", "code", "value", "reliability"}
    with open(out / "code_counts.csv") as fh:
        counts = list(csv.DictReader(fh))
    by_code = {r["code"]: int(r["n_persons"]) for r in counts}
    assert by_code["b780"] == max(by_code.values())  # the most prevalent code
    assert [int(r["n_persons"]) for r in counts] == sorted(
        (int(r["n_persons"]) for r in counts), reverse=True
    )


def test_link_writes_what_records_to_csv_writes_for_any_order(cohort_dir, tmp_path):
    # link writes one person at a time; records_to_csv sorts all records at once
    out = tmp_path / "linked"
    assert run("link", "--data", str(cohort_dir), "--out", str(out)) == 0
    rules = icfhi.default_rules()
    records = [r for person in icfhi.ingest(cohort_dir)
               for r in icfhi.apply_rules(person.answers, rules)]
    random.Random(11).shuffle(records)
    records_to_csv(records, tmp_path / "shuffled.csv")
    assert read(out / "records.csv") == read(tmp_path / "shuffled.csv")


def test_link_failure_leaves_no_partial_records(cohort_dir, tmp_path, capsys):
    out = tmp_path / "linked"
    assert run("link", "--data", str(cohort_dir), "--out", str(out)) == 0
    before = read(out / "records.csv")
    # a person between others in id order has an answer outside the pain scale
    with open(cohort_dir / "answers.csv", "a") as fh:
        fh.write("p0010x,0,pain_vas,back,11\n")
    assert run("link", "--data", str(cohort_dir), "--out", str(out)) == 3
    assert "person p0010x" in capsys.readouterr().err
    assert read(out / "records.csv") == before
    assert sorted(p.name for p in out.iterdir()) == ["code_counts.csv", "records.csv"]


def test_link_missing_rule_file_is_config_error(cohort_dir, tmp_path, capsys):
    code = run("link", "--data", str(cohort_dir), "--rules", "/no/such/rules.json",
               "--out", str(tmp_path / "x"))
    assert code == 2
    assert "/no/such/rules.json" in capsys.readouterr().err


def test_link_empty_data_warns_zero_exit(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("person_id,day,instrument,item,value\n")
    out = tmp_path / "out"
    assert run("link", "--data", str(empty), "--out", str(out)) == 0
    assert "warning" in capsys.readouterr().err.lower()
    assert (out / "records.csv").exists()


def test_malformed_data_is_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("person_id,day,instrument,item,value\np1,zzz,odi,lifting,2\n")
    assert run("link", "--data", str(bad), "--out", str(tmp_path / "o")) == 3


def test_missing_data_path_is_data_error(tmp_path, capsys):
    assert run("link", "--data", str(tmp_path / "nowhere.csv"),
               "--out", str(tmp_path / "o")) == 3
    assert "nowhere.csv" in capsys.readouterr().err


def _link_and_index(cohort_dir, tmp_path, *extra):
    linked = tmp_path / "linked"
    assert run("link", "--data", str(cohort_dir), "--out", str(linked)) == 0
    indexed = tmp_path / "indexed"
    assert run("index", "--records", str(linked / "records.csv"),
               "--out", str(indexed), *extra) == 0
    return indexed / "index.csv"


def test_index_output_shape(cohort_dir, tmp_path):
    index_csv = _link_and_index(cohort_dir, tmp_path)
    with open(index_csv) as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    assert list(rows[0]) == ["person_id", "day", "health_index", "raw", "score_b",
                             "score_d", "score_e", "score_s", "alpha_root", "r_root"]
    for row in rows:
        assert 0 <= int(row["health_index"]) <= 100
        assert 0.0 <= float(row["raw"]) <= 4.0
        assert 0.0 <= float(row["alpha_root"]) <= 1.0
        assert 0.0 <= float(row["r_root"]) <= 1.0
    # canonical ordering
    keys = [(r["person_id"], int(r["day"])) for r in rows]
    assert keys == sorted(keys)


def test_index_gamma_spellings_equivalent(cohort_dir, tmp_path):
    a = _link_and_index(cohort_dir, tmp_path / "a", "--gamma", "1/3@30")
    b = _link_and_index(cohort_dir, tmp_path / "b", "--gamma", repr(GAMMA_THIRD_30))
    assert read(a) == read(b)


@pytest.mark.parametrize("command, y, rows, workers", [
    pytest.param("index", "2", "records", "4", id="index"),
    pytest.param("profile", "2", "records", "4", id="profile"),
    pytest.param("index", "0.75", "reversed", "1", id="index-reversed-y0.75"),
    pytest.param("index", "3.25", "reversed", "1", id="index-reversed-y3.25"),
    pytest.param("profile", "2", "reversed", "1", id="profile-reversed"),
])
def test_index_workers_identical(cohort_dir, tmp_path, command, y, rows, workers):
    # neither four workers nor the record rows in reverse, so that each
    # person's rows run from the last day to the first, change what is written
    linked = tmp_path / "linked"
    assert run("link", "--data", str(cohort_dir), "--out", str(linked)) == 0
    header, *lines = (linked / "records.csv").read_text().splitlines(keepends=True)
    (linked / "reversed.csv").write_text(header + "".join(reversed(lines)))
    outputs = []
    for name, n in (("records", "1"), (rows, workers)):
        out = tmp_path / f"{name}-w{n}"
        assert run(command, "--records", str(linked / f"{name}.csv"), "--out", str(out),
                   "--y", y, "--workers", n) == 0
        outputs.append(read(out / f"{command}.csv"))
    assert outputs[0] == outputs[1]


def test_index_empirical_scaling(cohort_dir, tmp_path):
    theo = _link_and_index(cohort_dir, tmp_path / "t", "--scaling", "theoretical")
    emp = _link_and_index(cohort_dir, tmp_path / "e", "--scaling", "empirical")
    with open(theo) as fh:
        t_rows = list(csv.DictReader(fh))
    with open(emp) as fh:
        e_rows = list(csv.DictReader(fh))
    # raw values identical; scaled values differ and span the full range
    assert [r["raw"] for r in t_rows] == [r["raw"] for r in e_rows]
    values = [int(r["health_index"]) for r in e_rows]
    assert min(values) == 0 and max(values) == 100
    raws = [float(r["raw"]) for r in e_rows]
    low = [r for r in e_rows if float(r["raw"]) == min(raws)]
    assert all(int(r["health_index"]) == 100 for r in low)


def test_profile_long_format(cohort_dir, tmp_path):
    linked = tmp_path / "linked"
    assert run("link", "--data", str(cohort_dir), "--out", str(linked)) == 0
    out = tmp_path / "prof"
    assert run("profile", "--records", str(linked / "records.csv"), "--out", str(out)) == 0
    with open(out / "profile.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    assert set(r["component"] for r in rows) <= {"b", "d", "e", "s"}
    assert all(0 <= int(r["score"]) <= 100 for r in rows)


# every file that validate --grid writes
VALIDATE_OUTPUTS = ("eqvas_correlations.csv", "maxpain_summary.csv", "maxpain_person.csv",
                    "sequence_bins.csv", "sweep.csv", "run_info.json")


def test_validate_outputs(tmp_path):
    cohort = tmp_path / "cohort"
    assert run(*synth_args(cohort, seed=42, persons=120)) == 0
    out = tmp_path / "val"
    assert run("validate", "--data", str(cohort), "--out", str(out),
               "--groups", "90:10,30:5") == 0
    with open(out / "eqvas_correlations.csv") as fh:
        rows = list(csv.DictReader(fh))
    # two groups x three default gammas, side by side
    assert len(rows) == 6
    assert {r["group"] for r in rows} == {"90d_10v", "30d_5v"}
    with open(out / "run_info.json") as fh:
        info = json.load(fh)
    assert info["reliabilities"]["pain_vas:back"] == 1.0
    assert set(info["groups"]) == {"90d_10v", "30d_5v"}
    for name in ("maxpain_summary.csv", "maxpain_person.csv", "sequence_bins.csv"):
        assert (out / name).exists()
    assert not (out / "sweep.csv").exists()


def test_validate_grid_flag_honored(tmp_path):
    cohort = tmp_path / "cohort"
    assert run(*synth_args(cohort, seed=42, persons=120)) == 0
    out = tmp_path / "val"
    assert run("validate", "--data", str(cohort), "--out", str(out),
               "--groups", "30:5", "--grid", "y=1.0,2.0;gamma=1/3@30,1") == 0
    with open(out / "sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    assert {r["y"] for r in rows} == {"1", "2"}


def test_validate_reports_undefined_sweep_cells_and_goes_on(tmp_path, capsys):
    # at y = 3.8 the curve, applied at every tree level, maps every pooled
    # index value of this cohort to one value
    cohort = tmp_path / "cohort"
    assert run(*synth_args(cohort, seed=42, persons=60)) == 0
    out = tmp_path / "val"
    assert run("validate", "--data", str(cohort), "--out", str(out),
               "--groups", "30:5", "--grid", "y=2,3.8;gamma=1") == 0
    assert capsys.readouterr().err == (
        "warning: sweep cell group=30d_5v gamma=1 y=3.8 is undefined: zero_variance\n")
    for name in VALIDATE_OUTPUTS:
        assert (out / name).exists()
    with open(out / "sweep.csv") as fh:
        linear, steep = csv.DictReader(fh)
    assert (steep["y"], steep["status"], steep["distinct_index_values"]) == ("3.8", "zero_variance",
                                                                            "1")
    assert steep["eqvas_n"] == steep["eqvas_coefficient"] == steep["eqvas_p"] == ""
    assert linear["status"] == "ok" and int(linear["distinct_index_values"]) > 1

    store = icfhi.ingest(cohort)
    evaluator = analysis.CohortEvaluator(store, icfhi.default_rules())
    group = icfhi.GroupSpec(30, 5)
    pids = analysis.form_groups(store, [group])[group]
    spec = icfhi.make_spec(2.0, 1.0)
    eq = analysis.eqvas_vs_hi(evaluator, pids, spec)
    mp = analysis.maxpain_vs_hi(evaluator, pids, spec)
    assert [linear[k] for k in ("eqvas_n", "eqvas_coefficient", "eqvas_p", "maxpain_n",
                                "maxpain_median", "maxpain_significant_portion")] == [
        format_cell(v) for v in (eq.n, eq.coefficient, eq.p_value, mp.n, mp.median,
                                 mp.significant_portion)]


def test_validate_leaves_out_undefined_group_statistics_and_goes_on(tmp_path, capsys):
    cohort = tmp_path / "cohort"
    assert run(*synth_args(cohort, seed=42, persons=60)) == 0
    capsys.readouterr()
    out = tmp_path / "val"
    assert run("validate", "--data", str(cohort), "--out", str(out),
               "--groups", "30:5", "--y", "3.8", "--gamma", "1") == 0
    assert capsys.readouterr().err == (
        "warning: group 30d_5v gamma=1 y=3.8 eqvas is undefined: zero_variance\n"
        "warning: group 30d_5v gamma=1 y=3.8 maxpain is undefined: no_correlations\n")
    for name in ("eqvas_correlations.csv", "maxpain_summary.csv", "maxpain_person.csv",
                 "sequence_bins.csv"):
        with open(out / name) as fh:
            assert list(csv.DictReader(fh)) == []
    with open(out / "run_info.json") as fh:
        assert json.load(fh)["groups"] == {"30d_5v": 38}

    # two maximum-pain correlations in the 90:10 group cannot fill three bins
    small = tmp_path / "small"
    assert run(*synth_args(small, seed=42, persons=8)) == 0
    capsys.readouterr()
    assert run("validate", "--data", str(small), "--out", str(out),
               "--groups", "30:5,90:10", "--gamma", "1") == 0
    assert capsys.readouterr().err == (
        "warning: group 90d_10v gamma=1 y=2 sequence_bins is undefined: too_few_correlations\n")
    with open(out / "maxpain_summary.csv") as fh:
        assert [(r["group"], r["n"]) for r in csv.DictReader(fh)] == [("30d_5v", "5"),
                                                                      ("90d_10v", "2")]
    with open(out / "sequence_bins.csv") as fh:
        assert {r["group"] for r in csv.DictReader(fh)} == {"30d_5v"}


def test_validate_library_call_is_what_the_cli_writes_and_prints(tmp_path, capsys):
    # y = 3.8 leaves group statistics and one sweep cell undefined
    cohort = tmp_path / "cohort"
    assert run(*synth_args(cohort, seed=42, persons=60)) == 0
    capsys.readouterr()
    out = tmp_path / "val"
    assert run("validate", "--data", str(cohort), "--out", str(out), "--groups", "30:5,90:10",
               "--y", "3.8", "--grid", "y=2,3.8;gamma=1") == 0
    err = capsys.readouterr().err
    result = icfhi.validate(icfhi.ingest(cohort), icfhi.default_rules(),
                            [icfhi.GroupSpec(30, 5), icfhi.GroupSpec(90, 10)],
                            [icfhi.parse_gamma(g) for g in ("1/20@30", "1/3@30", "1")], 3.8,
                            grid=([1.0], [2.0, 3.8]))
    assert result.failures == {}
    assert err == "".join(f"warning: {line}\n" for line in result.warnings)
    assert "sweep cell" in err and "eqvas is undefined" in err
    assert list(result.tables) == list(icfhi.VALIDATION_TABLES)
    for name, rows in result.tables.items():
        with open(out / f"{name}.csv", newline="") as fh:
            header, *written = csv.reader(fh)
        assert header == list(icfhi.VALIDATION_TABLES[name])
        assert written == [[format_cell(cell) for cell in row] for row in rows], name
    with open(out / "run_info.json") as fh:
        assert json.load(fh) == json.loads(json.dumps(result.info))


def test_validate_repeated_groups_and_gammas_count_once(tmp_path, capsys):
    # a repeated entry must not count a group's persons, or write its rows or
    # warnings, twice; at y = 3.8 the sweep cell is undefined, so it warns
    cohort = tmp_path / "cohort"
    assert run(*synth_args(cohort, seed=42, persons=60)) == 0
    once, repeated = tmp_path / "once", tmp_path / "repeated"
    errs = []
    for out, groups, gammas in ((once, "30:5", "1"), (repeated, "30:5,30:5", "1,1")):
        capsys.readouterr()
        assert run("validate", "--data", str(cohort), "--out", str(out), "--groups", groups,
                   "--gamma", gammas, "--grid", "y=2,3.8;gamma=1") == 0
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1] and "y=3.8 is undefined" in errs[0]
    for name in VALIDATE_OUTPUTS:
        assert read(repeated / name) == read(once / name), name


def test_validate_repeated_grid_values_count_once(tmp_path, capsys):
    # a repeated grid y or gamma must not sweep, warn about or record a cell
    # twice; at y = 3.8 the cell is undefined, so it warns
    cohort = tmp_path / "cohort"
    assert run(*synth_args(cohort, seed=42, persons=60)) == 0
    once, repeated = tmp_path / "once", tmp_path / "repeated"
    capsys.readouterr()
    assert run("validate", "--data", str(cohort), "--out", str(once), "--groups", "30:5",
               "--gamma", "1", "--grid", "y=2,3.8;gamma=1,1/3@30") == 0
    err = capsys.readouterr().err
    assert run("validate", "--data", str(cohort), "--out", str(repeated), "--groups", "30:5",
               "--gamma", "1", "--grid", "y=2,3.8,2.0,3.8;gamma=1,1/3@30,1") == 0
    assert capsys.readouterr().err == err and "y=3.8 is undefined" in err
    for name in VALIDATE_OUTPUTS:
        assert read(repeated / name) == read(once / name), name
    # the library call counts 2 and 2.0 once as well
    result = icfhi.validate(icfhi.ingest(cohort), icfhi.default_rules(),
                            [icfhi.GroupSpec(30, 5)], [1.0], 2.0, grid=([1, 1.0], [2, 2.0, 3.8]))
    assert [row[1:3] for row in result.tables["sweep"]] == [[1, 2], [1, 3.8]]
    assert result.info["grid"] == {"gamma": [1], "y": [2, 3.8]}


def test_validate_deterministic_across_runs_and_workers(tmp_path, capsys):
    # the same files, and the same warning lines in the same order, at any
    # worker count
    cohort = tmp_path / "cohort"
    assert run(*synth_args(cohort, seed=42, persons=120)) == 0
    outs, errs = [], []
    for name, workers in (("v1", "1"), ("v2", "1"), ("v8", "4")):
        out = tmp_path / name
        capsys.readouterr()
        assert run("validate", "--data", str(cohort), "--out", str(out), "--groups", "30:5",
                   "--grid", "y=2,3.8;gamma=1/3@30,1", "--workers", workers) == 0
        outs.append(out)
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1] == errs[2] and "is undefined" in errs[0]
    for name in VALIDATE_OUTPUTS:
        assert read(outs[0] / name) == read(outs[1] / name) == read(outs[2] / name), name


def test_fit_weights_prints_parameters(capsys):
    assert run("fit-weights", "--y", "0.75,2,3.25") == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "y,kind,a,b,c"
    rows = [line.split(",") for line in out[1:]]
    assert rows[0][1] == "exponential"
    assert float(rows[0][2]) == pytest.approx(0.225, abs=1e-9)
    assert rows[1][1] == "linear"
    assert rows[2][1] == "logarithmic"


def test_bad_y_is_config_error(capsys):
    assert run("fit-weights", "--y", "4.5") == 2
    assert run("fit-weights", "--y", "banana") == 2


def test_config_file_supplies_defaults(tmp_path, capsys, monkeypatch):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"fit-weights": {"y": "0.75"}}))
    monkeypatch.setenv("ICFHI_CONFIG", str(config))
    assert run("fit-weights", "--y", "2") == 0  # flag wins over config
    out = capsys.readouterr().out
    assert "linear" in out and "exponential" not in out
    # without the flag the config value applies: y comes from the file
    assert run("fit-weights") == 0
    out = capsys.readouterr().out
    assert "exponential" in out and "linear" not in out


def test_index_from_config_writes_what_the_flags_write(cohort_dir, tmp_path, monkeypatch):
    linked = tmp_path / "linked"
    assert run("link", "--data", str(cohort_dir), "--out", str(linked)) == 0
    options = {"records": str(linked / "records.csv"), "gamma": "1/20@30", "y": 3.25,
               "scaling": "empirical", "workers": 2}
    flags = [f"--{key}={value}" for key, value in options.items()]
    assert run("index", "--out", str(tmp_path / "flags"), *flags) == 0
    assert run("index", "--out", str(tmp_path / "defaults"), "--records",
               options["records"]) == 0
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"index": {**options, "out": str(tmp_path / "config")}}))
    monkeypatch.setenv("ICFHI_CONFIG", str(config))
    assert run("index") == 0
    configured = read(tmp_path / "config" / "index.csv")
    assert configured == read(tmp_path / "flags" / "index.csv")
    assert configured != read(tmp_path / "defaults" / "index.csv")


@pytest.mark.parametrize("config, argv, named", [
    ({"index": {"workers": "many"}}, ["index"], "--workers"),
    ({"index": {"scaling": "empiricall"}}, ["index"], "--scaling"),
    ({"index": {"worker": 4}}, ["index"], "'worker'"),
    (None, ["validate", "--alpha", "5"], "--alpha"),
    ({"validate": {"alpha": 5}}, ["validate"], "--alpha"),
    (None, ["index", "--workers", "0"], "--workers"),
    (None, ["index", "--workers", "-3"], "--workers"),
    (None, ["validate", "--gamma", ","], "no gamma values"),
    (None, ["synth", "--seed", "-1"], "seed"),
])
def test_bad_option_or_config_key_exits_2_with_one_line(tmp_path, capsys, monkeypatch,
                                                        config, argv, named):
    # each input is valid, so only the option can be at fault
    inputs = {
        "index": ["--records", str(tmp_path / "records.csv")],
        "validate": ["--data", str(tmp_path / "answers.csv")],
        "synth": [],
    }
    (tmp_path / "records.csv").write_text("person_id,day,source_id,code,value,reliability\n"
                                          "p,0,s1,b280,2,1\n")
    (tmp_path / "answers.csv").write_text("person_id,day,instrument,item,value\n"
                                          "p1,0,pain_vas,back,5\n")
    if config is not None:
        (tmp_path / "run.json").write_text(json.dumps(config))
        monkeypatch.setenv("ICFHI_CONFIG", str(tmp_path / "run.json"))
    assert run(*argv, *inputs[argv[0]], "--out", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error (configuration): ") and err.count("\n") == 1
    assert named in err
    if config is not None:
        assert f"config file {tmp_path / 'run.json'} section {argv[0]!r}" in err


@pytest.mark.parametrize("command", ["index", "profile"])
@pytest.mark.parametrize("rows", ["", "p,0,s1,b280,2,1\n"])
def test_several_gammas_exit_2_whatever_the_records(tmp_path, capsys, command, rows):
    # the option is checked before the record file is read, empty or not
    records = tmp_path / "records.csv"
    records.write_text("person_id,day,source_id,code,value,reliability\n" + rows)
    assert run(command, "--records", str(records), "--out", str(tmp_path / "out"),
               "--gamma", "1,0.5") == 2
    assert "exactly one --gamma value" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_missing_records_file_is_data_error(tmp_path):
    assert run("index", "--records", str(tmp_path / "none.csv"),
               "--out", str(tmp_path / "o")) == 3


# ---------------------------------------------------------------------------
# outside input: a file that cannot be read or a value of the wrong type is
# one line on stderr and exit 2 (settings) or 3 (data).  main runs in this
# process, so an exception that escapes it fails the test as a traceback would.

ANSWERS_HEADER = "person_id,day,instrument,item,value\n"
CSV_HEADERS = {"answers.csv": ANSWERS_HEADER, "eqvas.csv": "person_id,day,value\n",
               "persons.csv": "person_id\n",
               "records.csv": "person_id,day,source_id,code,value,reliability\n"}
# (option, file name, exit code); --data names a cohort directory holding the file
OUTSIDE_INPUTS = [("--rules", "rules.json", 2), ("--config", "run.json", 2),
                  ("--synth-config", "synth.json", 2), ("--data", "answers.csv", 3),
                  ("--data", "eqvas.csv", 3), ("--data", "persons.csv", 3),
                  ("--records", "records.csv", 3)]


def _command(option, path, cohort, out):
    """A command that reads ``path`` through ``option`` before anything else
    can fail."""
    return {"--rules": ["link", "--data", str(cohort), "--rules", str(path), "--out", out],
            "--config": ["fit-weights", "--y", "2", "--config", str(path)],
            "--synth-config": ["synth", "--synth-config", str(path), "--out", out],
            "--data": ["link", "--data", str(cohort), "--out", out],
            "--records": ["index", "--records", str(path), "--out", out]}[option]


def _assert_one_line(capsys, prefix, *named):
    err = capsys.readouterr().err
    assert err.startswith(prefix) and err.count("\n") == 1, err
    for text in named:
        assert text in err, err


@pytest.mark.parametrize("option, name, code, fault", [
    (option, name, code, fault) for option, name, code in OUTSIDE_INPUTS
    for fault in ("directory", "not UTF-8", "field over csv's limit")
    if name.endswith(".csv") or fault != "field over csv's limit"])
def test_unreadable_outside_input_exits_with_one_line_naming_it(tmp_path, capsys, option,
                                                               name, code, fault):
    cohort = tmp_path / "cohort"
    cohort.mkdir()
    path = cohort / name
    if name != "answers.csv":
        (cohort / "answers.csv").write_text(ANSWERS_HEADER + "p1,0,pain_vas,back,5\n")
    header = CSV_HEADERS.get(name, "")
    if fault == "directory":
        path.mkdir()
    elif fault == "not UTF-8":
        path.write_bytes(header.encode() + b"p1,0,\xff\n")
    else:
        path.write_text(header + "x" * 131_073 + "\n")
    assert run(*_command(option, path, cohort, str(tmp_path / "out"))) == code
    prefix = "error (configuration): " if code == 2 else "error (data): "
    _assert_one_line(capsys, prefix + "cannot read ", str(path))


def test_a_byte_order_mark_opening_an_outside_input_is_skipped(cohort_dir, tmp_path):
    # a spreadsheet's "CSV UTF-8" export starts with one
    def with_bom(path):
        marked = path.with_name("bom_" + path.name)
        marked.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
        return marked

    bom_cohort = tmp_path / "bom_cohort"
    shutil.copytree(cohort_dir, bom_cohort)
    for name in ("answers.csv", "eqvas.csv", "persons.csv"):
        (bom_cohort / name).write_bytes(codecs.BOM_UTF8 + (cohort_dir / name).read_bytes())
    rules = tmp_path / "rules.json"
    rules.write_text(json.dumps(default_rules_json()))
    for data, rules_file, out in ((cohort_dir, rules, "linked"),
                                  (bom_cohort, with_bom(rules), "bom_linked")):
        assert run("link", "--data", str(data), "--rules", str(rules_file),
                   "--out", str(tmp_path / out)) == 0
    for name in ("records.csv", "code_counts.csv"):
        assert read(tmp_path / "linked" / name) == read(tmp_path / "bom_linked" / name)

    records = tmp_path / "linked" / "records.csv"
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"index": {"gamma": "1/20@30", "y": 3.25}}))
    for records_file, config_file, out in ((records, config, "indexed"),
                                           (with_bom(records), with_bom(config), "bom_indexed")):
        assert run("index", "--records", str(records_file), "--config", str(config_file),
                   "--out", str(tmp_path / out)) == 0
    assert read(tmp_path / "indexed" / "index.csv") == read(tmp_path / "bom_indexed" / "index.csv")

    synth_config = tmp_path / "synth.json"
    synth_config.write_text(json.dumps({"seed": 9, "n_persons": 5}))
    for config_file, out in ((synth_config, "synth"), (with_bom(synth_config), "bom_synth")):
        assert run("synth", "--synth-config", str(config_file), "--out", str(tmp_path / out)) == 0
    assert read(tmp_path / "synth" / "answers.csv") == read(tmp_path / "bom_synth" / "answers.csv")


@pytest.mark.parametrize("option, content, named", [
    ("--rules", {"reliability": "high"}, "'unrated:item'"),
    ("--rules", {"validation_only": True, "reliability": "high"}, "'unrated:item'"),
    ("--rules", {"translation": {"kind": "discrete_map", "map": {"x": 1}}}, "'unrated:item'"),
    ("--rules", {"translation": {"kind": "interval_map", "breaks": 5, "qualifiers": [1]}},
     "'unrated:item'"),
    ("--rules", {"targets": None}, "'unrated:item'"),
    ("--rules", {"translation": None}, "'unrated:item'"),
    ("--rules", {"translation": {"scale": 1}}, "'unrated:item' is missing field 'kind'"),
    ("--rules", {"translation": {"kind": "bogus"}}, "'unrated:item': unknown translation kind"),
    ("--synth-config", {"visit_gap_days": 5}, "visit gap range 5"),
    ("--synth-config", {"visit_gap_days": [3]}, "visit gap range (3,)"),
    ("--synth-config", {"visit_gap_days": ["a", "b"]}, "visit gap range ('a', 'b')"),
    ("--synth-config", {"noise": "x"}, "noise"),
    ("--synth-config", [1, 2], "must be a JSON object"),
    # whole numbers of days, not bools, whose max_visits gaps add up within int64
    ("--synth-config", {"visit_gap_days": [1, 1e300]}, "visit gap range (1, 1e+300)"),
    ("--synth-config", {"visit_gap_days": [1.5, 2.5]}, "visit gap range (1.5, 2.5)"),
    ("--synth-config", {"visit_gap_days": [True, 2]}, "visit gap range (True, 2)"),
    ("--synth-config", {"visit_gap_days": [2**62, 2**62], "max_visits": 5},
     f"visit gap range ({2**62}, {2**62})"),
    # an interval map with one break would fail on its first answer in the domain
    ("--rules", {"translation": {"kind": "interval_map", "breaks": [0], "qualifiers": []}},
     "'unrated:item': interval_map needs at least two breaks"),
    ("--rules", {"translation": {"kind": "discrete_map", "map": [1, 2]}},
     "'unrated:item': discrete_map needs a non-empty JSON object"),
    # an empty map would fail every answer as a data error
    ("--rules", {"translation": {"kind": "discrete_map", "map": {}}},
     "'unrated:item': discrete_map needs a non-empty JSON object"),
    # a string of targets would be read one character at a time
    ("--rules", {"targets": "b"}, "'unrated:item': targets must be a JSON list"),
])
def test_setting_of_the_wrong_type_exits_2_with_one_line(tmp_path, capsys, option, content,
                                                         named):
    if option == "--rules":
        content = {"rules": [{**UNRATED_RULE, **content}]}
    path = tmp_path / "settings.json"
    path.write_text(json.dumps(content))
    # the settings are read first: the cohort need not exist
    assert run(*_command(option, path, tmp_path / "none", str(tmp_path / "out"))) == 2
    _assert_one_line(capsys, "error (configuration): ", named)


@pytest.mark.parametrize("grid", [
    "y=nan:1:0.1;gamma=1", "y=-inf:1:0.1;gamma=1", "y=0:inf:1;gamma=1", "y=0:1:nan;gamma=1",
    "y=0:1:inf;gamma=1", "y=0:1:0;gamma=1", "y=0:1e7:1e-3;gamma=1", "y=0:1000:1;gamma=1",
])
def test_grid_range_without_a_bounded_count_exits_2_at_once(tmp_path, grid):
    # in a fresh interpreter under a time and an address-space limit, so that
    # a range that never ends fails this test instead of stalling the suite
    proc = run_python(
        "-c", "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30)); "
              "from icfhi.cli import main; sys.exit(main(sys.argv[1:]))",
        "validate", "--data", str(tmp_path / "none"), "--out", str(tmp_path / "out"),
        "--grid", grid, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error (configuration): grid range ")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


@pytest.mark.parametrize("text, ys", [
    ("default", [round(0.2 * k, 12) for k in range(1, 20)]),
    ("y=0.2:3.8:0.2;gamma=1", [round(0.2 * k, 12) for k in range(1, 20)]),
    # STOP is reached within 1e-9
    ("y=1:1:1e-10;gamma=1", [round(1 + k * 1e-10, 12) for k in range(11)]),
    ("y=0:999:1;gamma=1", [float(k) for k in range(1000)]),
    ("y=3,,1;gamma=1", [3.0, 1.0]),
])
def test_grid_range_values(text, ys):
    assert _parse_grid(text)[1] == ys


@pytest.mark.parametrize("blocked", ["file", "file/sub"])
def test_out_that_cannot_be_made_exits_2(tmp_path, capsys, blocked):
    (tmp_path / "file").write_text("")
    out = tmp_path / blocked
    assert run("synth", "--persons", "1", "--out", str(out)) == 2
    _assert_one_line(capsys, "error (configuration): cannot create output directory ", str(out))


# ---------------------------------------------------------------------------
# outputs: every file is written whole or not at all, and one that cannot be
# written is one line on stderr and exit 2

# (command, an output file of it); each command reads the cohort or its records
UNWRITABLE_OUTPUTS = [("link", "records.csv"), ("link", "code_counts.csv"),
                      ("index", "index.csv"), ("profile", "profile.csv"),
                      ("validate", "sweep.csv"), ("validate", "run_info.json"),
                      ("synth", "eqvas.csv"), ("synth", "synth_config.json")]


@pytest.mark.parametrize("command, name", UNWRITABLE_OUTPUTS)
def test_output_that_cannot_be_written_exits_2_with_one_line(cohort_dir, tmp_path, capsys,
                                                             command, name):
    linked = tmp_path / "linked"
    assert run("link", "--data", str(cohort_dir), "--out", str(linked)) == 0
    capsys.readouterr()
    inputs = {"link": ["--data", str(cohort_dir)],
              "index": ["--records", str(linked / "records.csv")],
              "profile": ["--records", str(linked / "records.csv")],
              "validate": ["--data", str(cohort_dir), "--groups", "30:5",
                           "--grid", "y=2;gamma=1"],
              "synth": ["--persons", "3"]}[command]
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    assert run(command, *inputs, "--out", str(out)) == 2
    _assert_one_line(capsys, f"error (configuration): cannot write {out / name}: ")
    assert (out / name).is_dir() and not list(out.glob("*.partial"))


@pytest.mark.parametrize("fault, raised", [
    (RuntimeError("midway"), RuntimeError), (KeyboardInterrupt(), KeyboardInterrupt),
    (icfhi.DataError("midway"), icfhi.DataError),
    # an OSError names the file as ConfigError does
    (OSError(28, "No space left on device"), icfhi.ConfigError),
])
def test_write_csv_that_fails_midway_leaves_the_file_as_it_was(tmp_path, fault, raised):
    path = tmp_path / "table.csv"
    write_csv(path, ["a", "b"], [[1, 2.5]])
    before = read(path)

    def rows():
        yield [3, 4]
        raise fault

    with pytest.raises(raised) as info:
        write_csv(path, ["a", "b"], rows())
    if raised is icfhi.ConfigError:
        assert str(info.value) == f"cannot write {path}: No space left on device"
    assert read(path) == before
    assert [p.name for p in tmp_path.iterdir()] == ["table.csv"]


RECORDS_HEADER = CSV_HEADERS["records.csv"]


@pytest.mark.parametrize("argv, files, code, line", [
    (["validate", "--data", "{tmp}/answers.csv", "--groups", "0:5"], {}, 2,
     "error (configuration): cannot parse group spec '0:5': group thresholds must be positive"),
    (["validate", "--data", "{tmp}/answers.csv", "--grid", "z=1"], {}, 2,
     "error (configuration): unknown grid axis 'z' (expected y or gamma)"),
    (["validate", "--data", "{tmp}/answers.csv", "--grid", "y=1"], {}, 2,
     "error (configuration): grid 'y=1' must define both y and gamma axes"),
    (["link", "--data", "{tmp}/none", "--rules", "{tmp}/rules.json"], {"rules.json": []}, 2,
     "error (configuration): rule file must be an object with a 'rules' list"),
    (["link", "--data", "{tmp}/none", "--rules", "{tmp}/rules.json"],
     {"rules.json": {"rules": [{}]}}, 2,
     "error (configuration): rule entry without source_item_id: {}"),
    (["link", "--data", "{tmp}/none", "--rules", "{tmp}/rules.json"],
     {"rules.json": {"rules": [{**UNRATED_RULE, "translation": {
         "kind": "interval_map", "breaks": [1, 2], "qualifiers": [0, 1]}}]}}, 2,
     "error (configuration): rule 'unrated:item': interval_map needs exactly len(breaks)-1 "
     "qualifiers"),
    (["link", "--data", "{tmp}/none", "--rules", "{tmp}/rules.json"],
     {"rules.json": {"rules": [{**UNRATED_RULE, "translation": {
         "kind": "affine", "scale": 1, "offset": 0, "domain": [2, 1]}}]}}, 2,
     "error (configuration): rule 'unrated:item': affine domain must satisfy low < high"),
    (["link", "--data", "{tmp}/none", "--rules", "{tmp}/rules.json"],
     {"rules.json": {"rules": [{**UNRATED_RULE, "targets": []}]}}, 2,
     "error (configuration): rule 'unrated:item' has no target codes"),
    (["index"], {}, 2, "error (configuration): missing required option --records"),
    (["index", "--records", "{tmp}/records.csv"], {"records.csv": "a,b\n1,2\n"}, 3,
     "error (data): {tmp}/records.csv: expected columns ('person_id', 'day', 'source_id', "
     "'code', 'value', 'reliability'), got ['a', 'b']"),
    (["index", "--records", "{tmp}/records.csv"], {"records.csv": ""}, 0,
     "warning: record file is empty; wrote empty index"),
    (["index", "--records", "{tmp}/records.csv", "--scaling", "empirical"],
     {"records.csv": RECORDS_HEADER + "p,0,s,b280,2,1\nq,0,s,b280,2,1\n"}, 3,
     "error (data): empirical scaling impossible: all raw values equal 2.0"),
    (["validate", "--data", "{tmp}/cohort"], {"cohort/persons.csv": "person_id\n"}, 3,
     "error (data): cohort directory {tmp}/cohort has no answers.csv"),
    (["link", "--data", "{tmp}/cohort"],
     {"cohort/answers.csv": "person_id,day,instrument,item,value\np1,0,pain_vas,back,5\n",
      "cohort/persons.csv": "pid\np1\n"}, 3,
     "error (data): {tmp}/cohort/persons.csv: expected a person_id column; got ['pid']"),
    (["profile", "--records", "{tmp}/records.csv"],
     {"records.csv": RECORDS_HEADER + "p,0,s,b280,2,1\np,1,s,b280\n"}, 3,
     "error (data): {tmp}/records.csv:3: expected 6 columns, got 4"),
    # SynthConfig checks the trend, argparse does not
    (["synth", "--trend", "bogus"], {}, 2,
     "error (configuration): trend must be one of ('improving', 'worsening', 'flat', 'mixed'), "
     "got 'bogus'"),
    (["validate", "--data", "{tmp}/answers.csv", "--grid", "y=2;gamma=1;y=3"], {}, 2,
     "error (configuration): grid axis 'y' is given twice"),
])
def test_exit_code_and_its_one_stderr_line(tmp_path, capsys, argv, files, code, line):
    (tmp_path / "answers.csv").write_text(ANSWERS_HEADER + "p1,0,pain_vas,back,5\n")
    for name, content in files.items():
        path = tmp_path / name
        path.parent.mkdir(exist_ok=True)
        path.write_text(content if isinstance(content, str) else json.dumps(content))
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    assert run(*argv, "--out", str(tmp_path / "out")) == code
    assert capsys.readouterr().err == line.replace("{tmp}", str(tmp_path)) + "\n"


def test_list_options_skip_empty_entries(capsys):
    assert run("fit-weights", "--y", "0.75,2") == 0
    expected = capsys.readouterr().out
    assert run("fit-weights", "--y", ",0.75,,2,") == 0
    assert capsys.readouterr().out == expected


def test_cli_import_does_not_load_scipy():
    # scipy serves only the p-values of validate; link and index never need it
    proc = run_python("-c", "import sys, icfhi.cli; "
                            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_one_worker_never_loads_the_process_pool(cohort_dir, tmp_path):
    # the process pool serves only evaluate_cohort with more than one worker
    linked, indexed = tmp_path / "linked", tmp_path / "indexed"
    proc = run_python("-c", f"""if True:
        import sys
        loaded = lambda: print("pool loaded:", "concurrent.futures.process" in sys.modules)
        from icfhi.cli import _parse_grid, main
        loaded()
        assert main(["link", "--data", {str(cohort_dir)!r}, "--out", {str(linked)!r}]) == 0
        loaded()
        assert main(["index", "--records", {str(linked / "records.csv")!r},
                     "--out", {str(indexed)!r}, "--workers", "1"]) == 0
        loaded()
    """)
    assert proc.returncode == 0, proc.stderr
    assert [line for line in proc.stdout.splitlines()
            if line.startswith("pool loaded:")] == ["pool loaded: False"] * 3


class _PoolSpy:
    """Stands in for ProcessPoolExecutor: records what it is asked for and
    runs the tasks in this process."""

    max_workers = []

    def __init__(self, max_workers):
        self.max_workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable, chunksize=1):
        return map(fn, iterable)


@pytest.mark.parametrize("persons, workers, pools", [(1, "4", []), (2, "8", [2])])
def test_index_starts_no_more_processes_than_persons(tmp_path, monkeypatch, persons, workers,
                                                    pools):
    import concurrent.futures

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _PoolSpy)
    monkeypatch.setattr(_PoolSpy, "max_workers", [])
    records = [icfhi.QualifierRecord(f"p{i}", day, f"s{i}{day}", icfhi.parse_code("b280"),
                                     2.0, 1.0)
               for i in range(persons) for day in (0, 3)]
    records_to_csv(records, tmp_path / "records.csv")
    assert run("index", "--records", str(tmp_path / "records.csv"), "--out",
               str(tmp_path / "out"), "--workers", workers) == 0
    assert _PoolSpy.max_workers == pools
    with open(tmp_path / "out" / "index.csv") as fh:
        assert len(list(csv.DictReader(fh))) == 2 * persons


def _modules_after(package, *argv):
    """The modules of ``package`` a fresh interpreter holds after ``icfhi ARGV``."""
    proc = run_python("-c", "import sys; from icfhi.cli import main; code = main(sys.argv[2:]); "
                            "print(code, sorted(m for m in sys.modules "
                            "if m.split('.')[0] == sys.argv[1]))",
                      package, *argv)
    assert proc.returncode == 0, proc.stderr
    code, modules = proc.stdout.strip().splitlines()[-1].split(" ", 1)
    assert code == "0", proc.stderr
    return modules


# modules that index, profile and fit-weights never run: numpy serves only
# synth and validate's statistics, scipy validate's p-values (and logging
# with it), and analysis and cohort would bring dataclasses and datetime
# with them
NOT_FOR_RECORDS = ("icfhi.analysis", "icfhi.cohort", "dataclasses", "logging", "numpy",
                   "scipy")


def test_each_command_loads_only_the_modules_it_runs(tmp_path):
    records = tmp_path / "records.csv"
    records.write_text(RECORDS_HEADER + "p,0,s1,b280,2,1\np,3,s2,b28010,1,0.8\n")
    (tmp_path / "cohort").mkdir()
    (tmp_path / "cohort" / "answers.csv").write_text(ANSWERS_HEADER + "p1,0,pain_vas,back,5\n")
    proc = run_python("-c", f"""if True:
        import sys
        from icfhi.cli import main
        loaded = lambda: print(sorted(m for m in {NOT_FOR_RECORDS!r} if m in sys.modules))
        loaded()
        for command in ("index", "profile"):
            assert main([command, "--records", {str(records)!r},
                         "--out", {str(tmp_path / "out")!r}]) == 0
        assert main(["fit-weights", "--y", "0.75,2,3.25"]) == 0
        loaded()
        assert main(["link", "--data", {str(tmp_path / "cohort")!r},
                     "--out", {str(tmp_path / "linked")!r}]) == 0
        loaded()
    """)
    assert proc.returncode == 0, proc.stderr
    # link reads a cohort, but neither validates it nor draws one: no numpy
    assert [line for line in proc.stdout.splitlines() if line.startswith("[")] == [
        "[]", "[]", "['dataclasses', 'icfhi.cohort']"]


def test_the_trend_help_names_every_trend(capsys):
    with pytest.raises(SystemExit):
        main(["synth", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    for trend in icfhi.cohort.TRENDS:
        assert trend in help_text


def test_index_with_a_logarithmic_curve_loads_no_scipy(cohort_dir, tmp_path):
    assert run("link", "--data", str(cohort_dir), "--out", str(tmp_path / "link")) == 0
    assert _modules_after("scipy", "index", "--records", str(tmp_path / "link" / "records.csv"),
                          "--out", str(tmp_path / "idx"), "--y", "3.25") == "[]"


def test_validate_loads_no_scipy_optimize(cohort_dir, tmp_path):
    modules = _modules_after("scipy", "validate", "--data", str(cohort_dir),
                             "--out", str(tmp_path / "val"), "--groups", "30:5",
                             "--grid", "y=2,3.25;gamma=1")
    assert "scipy.special" in modules and "scipy.optimize" not in modules
    assert "scipy.stats" not in modules


@pytest.mark.parametrize("command", ["index", "profile"])
def test_a_record_without_person_id_is_data_error(tmp_path, capsys, command):
    records = tmp_path / "records.csv"
    records.write_text("person_id,day,source_id,code,value,reliability\n"
                       "p,0,s1,b280,2,1\n"
                       ",0,s1,b280,2,1\n")
    assert run(command, "--records", str(records), "--out", str(tmp_path / "out")) == 3
    assert f"{records}:3: empty person_id" in capsys.readouterr().err
    assert not (tmp_path / "out" / f"{command}.csv").exists()


@pytest.mark.parametrize("value, reliability", [("7", "1"), ("nan", "1"), ("2", "-1")])
def test_index_out_of_range_record_is_data_error(tmp_path, capsys, value, reliability):
    records = tmp_path / "records.csv"
    records.write_text(
        "person_id,day,source_id,code,value,reliability\n"
        "p,0,s1,b280,2,1\n"
        f"p,1,s2,b280,{value},{reliability}\n"
    )
    assert run("index", "--records", str(records), "--out", str(tmp_path / "out")) == 3
    assert f"{records}:3" in capsys.readouterr().err


def test_index_out_of_range_record_exits_3_without_traceback(tmp_path):
    records = tmp_path / "records.csv"
    records.write_text("person_id,day,source_id,code,value,reliability\n"
                       "p,0,s1,b280,7,1\n")
    proc = run_python("-m", "icfhi.cli", "index", "--records", str(records),
                      "--out", str(tmp_path / "out"))
    assert proc.returncode == 3
    assert f"{records}:2: qualifier value '7' outside [0, 4]" in proc.stderr
    assert "Traceback" not in proc.stderr


def _cohort_with_short_eqvas_row(tmp_path):
    cohort = tmp_path / "cohort"
    cohort.mkdir()
    (cohort / "answers.csv").write_text("person_id,day,instrument,item,value\n"
                                        "p1,0,pain_vas,back,5\n")
    (cohort / "eqvas.csv").write_text("person_id,day,value\np1,0\n")
    return cohort


@pytest.mark.parametrize("command", ["link", "validate"])
def test_short_eqvas_row_is_data_error(tmp_path, capsys, command):
    cohort = _cohort_with_short_eqvas_row(tmp_path)
    assert run(command, "--data", str(cohort), "--out", str(tmp_path / "out")) == 3
    assert f"{cohort / 'eqvas.csv'}:2: expected 3 columns, got 2" in capsys.readouterr().err


def test_short_eqvas_row_exits_3_without_traceback(tmp_path):
    cohort = _cohort_with_short_eqvas_row(tmp_path)
    proc = run_python("-m", "icfhi.cli", "link", "--data", str(cohort),
                      "--out", str(tmp_path / "out"))
    assert proc.returncode == 3
    assert f"{cohort / 'eqvas.csv'}:2: expected 3 columns, got 2" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("workers", ["1", "2"])
def test_index_per_person_failure_logged_run_continues(tmp_path, capsys, workers):
    records = tmp_path / "records.csv"
    records.write_text(
        "person_id,day,source_id,code,value,reliability\n"
        "bad,0,s1,b280,2,0\n"      # zero reliability: degenerate aggregation
        "good,0,s2,b280,2,1\n"
    )
    out = tmp_path / "out"
    assert run("index", "--records", str(records), "--out", str(out), "--workers", workers) == 3
    err = capsys.readouterr().err
    assert "error (data): person bad: all contribution weights" in err
    with open(out / "index.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["person_id"] for r in rows] == ["good"]
    assert rows[0]["health_index"] == "50"
    assert run("profile", "--records", str(records), "--out", str(out), "--workers", workers) == 3
    assert "error (data): person bad: all contribution weights" in capsys.readouterr().err
    with open(out / "profile.csv") as fh:
        assert [r["person_id"] for r in csv.DictReader(fh)] == ["good"]


@pytest.mark.parametrize("workers", ["1", "2"])
def test_validate_per_person_failure_logged_run_continues(tmp_path, capsys, workers):
    cohort = tmp_path / "cohort"
    assert run(*synth_args(cohort, persons=60)) == 0
    ref = tmp_path / "ref"
    assert run("validate", "--data", str(cohort), "--out", str(ref), "--groups", "30:5") == 0
    # one more person, whose only instrument links with reliability 0
    with open(cohort / "answers.csv", "a") as answers, open(cohort / "eqvas.csv", "a") as eqvas:
        for day in range(0, 50, 10):
            answers.write(f"zbad,{day},unrated,item,3\n")
            eqvas.write(f"zbad,{day},50\n")
    rules = default_rules_json()
    rules["rules"].append(UNRATED_RULE)
    rule_file = tmp_path / "rules.json"
    rule_file.write_text(json.dumps(rules))
    out = tmp_path / "val"
    assert run("validate", "--data", str(cohort), "--out", str(out), "--rules", str(rule_file),
               "--groups", "30:5", "--workers", workers) == 3
    assert "error (data): person zbad: all contribution weights" in capsys.readouterr().err
    # the others give the tables they give without that person
    for name in ("eqvas_correlations.csv", "maxpain_summary.csv", "maxpain_person.csv",
                 "sequence_bins.csv"):
        assert read(out / name) == read(ref / name)
    assert (out / "run_info.json").exists()


def _without_person(src, dst, person_id):
    """The CSV files of cohort directory ``src`` in ``dst``, without the rows
    of ``person_id``."""
    dst.mkdir()
    for path in src.glob("*.csv"):
        lines = path.read_text().splitlines(keepends=True)
        (dst / path.name).write_text("".join(
            line for line in lines if line.rstrip("\n").split(",")[0] != person_id))


@pytest.mark.parametrize("workers", ["1", "2"])
def test_validate_leaves_out_a_person_it_cannot_link(tmp_path, capsys, workers):
    cohort = tmp_path / "cohort"
    assert run(*synth_args(cohort, persons=60)) == 0
    ref = tmp_path / "ref"
    _without_person(cohort, tmp_path / "others", "p0000")
    assert run("validate", "--data", str(tmp_path / "others"), "--out", str(ref),
               "--groups", "30:5", "--workers", workers) == 0
    # a pain VAS answer of 12 is outside the 0-10 the rules translate
    with open(cohort / "answers.csv") as fh:
        rows = list(csv.reader(fh))
    row = next(row for row in rows if row[0] == "p0000" and row[2] == "pain_vas")
    row[4] = "12"
    with open(cohort / "answers.csv", "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    capsys.readouterr()
    out = tmp_path / "val"
    assert run("validate", "--data", str(cohort), "--out", str(out), "--groups", "30:5",
               "--workers", workers) == 3
    assert capsys.readouterr().err.startswith(
        "error (data): person p0000: cannot translate 'pain_vas:back' answer for person p0000")
    for name in ("eqvas_correlations.csv", "maxpain_summary.csv", "maxpain_person.csv",
                 "sequence_bins.csv"):
        assert read(out / name) == read(ref / name), name
    info, ref_info = (json.loads((d / "run_info.json").read_text()) for d in (out, ref))
    assert (info["groups"], info["persons"]) == (ref_info["groups"], ref_info["persons"] + 1)


def test_unparsable_code_in_records_names_file_and_line(tmp_path, capsys):
    records = tmp_path / "records.csv"
    # a superscript two is a digit to str.isdigit, but not in an ICF code
    for code, message in (("x99", "unknown ICF component letter"),
                          ("b²80", "malformed ICF code 'b²80'")):
        records.write_text("person_id,day,source_id,code,value,reliability\n"
                           "p,0,s1,b280,2,1\n"
                           f"p,1,s2,{code},2,1\n", encoding="utf-8")
        assert run("index", "--records", str(records), "--out", str(tmp_path / "out")) == 3
        assert f"error (data): {records}:3: {message}" in capsys.readouterr().err


def test_index_reproduces_worked_example(tmp_path):
    records = tmp_path / "records.csv"
    records.write_text(
        "person_id,day,source_id,code,value,reliability\n"
        "p,30,srcA,b28010,2,1\n"
        "p,0,srcB,b28010,1,0.8\n"
        "p,0,srcB,b28013,1,0.8\n"
        "p,30,srcC,b2801,1,1\n"
        "p,15,srcD,b2801,0,0.9\n"
    )
    out = tmp_path / "out"
    assert run("index", "--records", str(records), "--out", str(out),
               "--gamma", "1/3@30", "--y", "2") == 0
    with open(out / "index.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["day"]) for r in rows] == [0, 15, 30]
    final = rows[-1]
    assert int(final["health_index"]) == 71
    assert float(final["raw"]) == pytest.approx(1.1724106796905387, abs=1e-9)
    assert final["score_b"] == "71"


def test_synth_config_file(tmp_path):
    config = tmp_path / "synth.json"
    config.write_text(json.dumps({"seed": 5, "n_persons": 8, "trend": "flat",
                                  "max_visits": 4}))
    out = tmp_path / "cohort"
    assert run("synth", "--synth-config", str(config), "--out", str(out)) == 0
    with open(out / "persons.csv") as fh:
        assert len(list(csv.DictReader(fh))) == 8
    echoed = json.loads((out / "synth_config.json").read_text())
    assert echoed["seed"] == 5 and echoed["trend"] == "flat"
    # a flag given beside the file overrides its entry, and only that one
    assert run("synth", "--synth-config", str(config), "--out", str(out), "--seed", "7",
               "--persons", "3") == 0
    with open(out / "persons.csv") as fh:
        assert len(list(csv.DictReader(fh))) == 3
    echoed = json.loads((out / "synth_config.json").read_text())
    assert (echoed["seed"], echoed["trend"], echoed["max_visits"]) == (7, "flat", 4)


# ---------------------------------------------------------------------------
# golden outputs: byte identity of every command's files on a seed-42 cohort

GOLDEN = Path(__file__).with_name("golden_seed42.json")
GOLDEN_PERSONS = 12
GOLDEN_YS = ("0.75", "2", "3.25")


def golden_outputs(work):
    """Run synth (seed 42), link, index and profile at each of GOLDEN_YS,
    validate --groups 30:5, and validate --groups 30:5 over a grid of every
    GOLDEN_YS, so that each plan is scored under all three curve kinds,
    under ``work``; the bytes of every file written after synth, by path
    relative to ``work``."""
    cohort, linked = work / "cohort", work / "link"
    assert run(*synth_args(cohort, persons=GOLDEN_PERSONS)) == 0
    assert run("link", "--data", str(cohort), "--out", str(linked)) == 0
    for y in GOLDEN_YS:
        for command in ("index", "profile"):
            assert run(command, "--records", str(linked / "records.csv"),
                       "--out", str(work / f"{command}-y{y}"), "--y", y) == 0
    assert run("validate", "--data", str(cohort), "--out", str(work / "validate"),
               "--groups", "30:5") == 0
    assert run("validate", "--data", str(cohort), "--out", str(work / "validate-grid"),
               "--groups", "30:5", "--grid", f"y={','.join(GOLDEN_YS)};gamma=1/20@30,1") == 0
    return {path.relative_to(work).as_posix(): path.read_bytes()
            for path in sorted(work.rglob("*"))
            if path.is_file() and cohort not in path.parents}


def _row_digests(data):
    """Four hex digits of sha256 per line; they only locate a difference,
    the whole-file sha256 decides it."""
    return "".join(hashlib.sha256(row).hexdigest()[:4] for row in data.splitlines())


def _first_difference(data, golden_rows):
    rows, digests = data.splitlines(), _row_digests(data)
    for i, row in enumerate(rows):
        if digests[4 * i:4 * i + 4] != golden_rows[4 * i:4 * i + 4]:
            return f"first differing row {i + 1}: {row.decode()!r}"
    return f"{len(rows)} rows, golden has {len(golden_rows) // 4}"


def test_golden_outputs_seed42(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    outputs = golden_outputs(tmp_path)
    assert sorted(outputs) == sorted(golden)
    mismatches = [
        f"{name}: {_first_difference(data, golden[name]['rows'])}"
        for name, data in outputs.items()
        if hashlib.sha256(data).hexdigest() != golden[name]["sha256"]
    ]
    assert not mismatches, "outputs differ from the golden sha256:\n" + "\n".join(mismatches)


if __name__ == "__main__":
    # PYTHONPATH=src python tests/test_cli.py re-records the golden file from
    # the current code; do so only for an output change that is intended
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        outputs = golden_outputs(Path(tmp))
    GOLDEN.write_text(json.dumps(
        {name: {"sha256": hashlib.sha256(data).hexdigest(), "rows": _row_digests(data)}
         for name, data in outputs.items()}, indent=1, sort_keys=True) + "\n")
