import csv
import hashlib
import json
import random
from pathlib import Path

import pytest

import icfhi
from icfhi.cli import main
from icfhi.formatting import format_cell

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
    icfhi.records_to_csv(records, tmp_path / "shuffled.csv")
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


@pytest.mark.parametrize("command", ["index", "profile"])
def test_index_workers_identical(cohort_dir, tmp_path, command):
    linked = tmp_path / "linked"
    assert run("link", "--data", str(cohort_dir), "--out", str(linked)) == 0
    outputs = []
    for workers in ("1", "4"):
        out = tmp_path / f"w{workers}"
        assert run(command, "--records", str(linked / "records.csv"), "--out", str(out),
                   "--workers", workers) == 0
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
    for name in ("eqvas_correlations.csv", "maxpain_summary.csv", "maxpain_person.csv",
                 "sequence_bins.csv", "sweep.csv", "run_info.json"):
        assert (out / name).exists()
    with open(out / "sweep.csv") as fh:
        linear, steep = csv.DictReader(fh)
    assert (steep["y"], steep["status"], steep["distinct_index_values"]) == ("3.8", "zero_variance",
                                                                            "1")
    assert steep["eqvas_n"] == steep["eqvas_coefficient"] == steep["eqvas_p"] == ""
    assert linear["status"] == "ok" and int(linear["distinct_index_values"]) > 1

    store = icfhi.ingest(cohort)
    evaluator = icfhi.CohortEvaluator(store, icfhi.default_rules())
    group = icfhi.GroupSpec(30, 5)
    pids = icfhi.form_groups(store, [group])[group]
    spec = icfhi.make_spec(2.0, 1.0)
    eq = icfhi.eqvas_vs_hi(evaluator, pids, spec)
    mp = icfhi.maxpain_vs_hi(evaluator, pids, spec)
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


def test_validate_repeated_groups_and_gammas_count_once(tmp_path):
    # a repeated entry must not count a group's persons, or write its rows, twice
    cohort = tmp_path / "cohort"
    assert run(*synth_args(cohort, seed=42, persons=60)) == 0
    once, repeated = tmp_path / "once", tmp_path / "repeated"
    assert run("validate", "--data", str(cohort), "--out", str(once),
               "--groups", "30:5", "--gamma", "1") == 0
    assert run("validate", "--data", str(cohort), "--out", str(repeated),
               "--groups", "30:5,30:5", "--gamma", "1,1") == 0
    for name in ("eqvas_correlations.csv", "maxpain_summary.csv", "maxpain_person.csv",
                 "sequence_bins.csv", "run_info.json"):
        assert read(repeated / name) == read(once / name), name


def test_validate_deterministic_across_runs_and_workers(tmp_path):
    cohort = tmp_path / "cohort"
    assert run(*synth_args(cohort, seed=42, persons=120)) == 0
    outs = []
    for name, workers in (("v1", "1"), ("v2", "1"), ("v8", "4")):
        out = tmp_path / name
        assert run("validate", "--data", str(cohort), "--out", str(out),
                   "--groups", "30:5", "--workers", workers) == 0
        outs.append(out)
    for name in ("eqvas_correlations.csv", "maxpain_summary.csv", "maxpain_person.csv",
                 "sequence_bins.csv", "run_info.json"):
        assert read(outs[0] / name) == read(outs[1] / name) == read(outs[2] / name)


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


def test_missing_records_file_is_data_error(tmp_path):
    assert run("index", "--records", str(tmp_path / "none.csv"),
               "--out", str(tmp_path / "o")) == 3


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
        from icfhi.cli import main
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
    icfhi.records_to_csv(records, tmp_path / "records.csv")
    assert run("index", "--records", str(tmp_path / "records.csv"), "--out",
               str(tmp_path / "out"), "--workers", workers) == 0
    assert _PoolSpy.max_workers == pools
    with open(tmp_path / "out" / "index.csv") as fh:
        assert len(list(csv.DictReader(fh))) == 2 * persons


def _scipy_modules_after(*argv):
    """The scipy modules a fresh interpreter holds after ``icfhi ARGV``."""
    proc = run_python("-c", "import sys; from icfhi.cli import main; code = main(sys.argv[1:]); "
                            "print(code, sorted(m for m in sys.modules if m.startswith('scipy')))",
                      *argv)
    assert proc.returncode == 0, proc.stderr
    code, modules = proc.stdout.strip().splitlines()[-1].split(" ", 1)
    assert code == "0", proc.stderr
    return modules


def test_index_with_a_logarithmic_curve_loads_no_scipy(cohort_dir, tmp_path):
    assert run("link", "--data", str(cohort_dir), "--out", str(tmp_path / "link")) == 0
    assert _scipy_modules_after("index", "--records", str(tmp_path / "link" / "records.csv"),
                                "--out", str(tmp_path / "idx"), "--y", "3.25") == "[]"


def test_validate_loads_no_scipy_optimize(cohort_dir, tmp_path):
    modules = _scipy_modules_after("validate", "--data", str(cohort_dir),
                                   "--out", str(tmp_path / "val"), "--groups", "30:5",
                                   "--grid", "y=2,3.25;gamma=1")
    assert "scipy.special" in modules and "scipy.optimize" not in modules


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
    """Run synth (seed 42), link, index and profile at each of GOLDEN_YS and
    validate --groups 30:5 under ``work``; the bytes of every file written
    after synth, by path relative to ``work``."""
    cohort, linked = work / "cohort", work / "link"
    assert run(*synth_args(cohort, persons=GOLDEN_PERSONS)) == 0
    assert run("link", "--data", str(cohort), "--out", str(linked)) == 0
    for y in GOLDEN_YS:
        for command in ("index", "profile"):
            assert run(command, "--records", str(linked / "records.csv"),
                       "--out", str(work / f"{command}-y{y}"), "--y", y) == 0
    assert run("validate", "--data", str(cohort), "--out", str(work / "validate"),
               "--groups", "30:5") == 0
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
