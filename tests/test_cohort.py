import gc
import re
import tracemalloc

import numpy as np
import pytest

from icfhi import (
    CohortStore,
    ConfigError,
    DataError,
    Person,
    RawAnswer,
    SynthConfig,
    ingest,
    serialize,
    stats,
    synthesize,
)

from conftest import run_python


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


HEADER = "person_id,day,instrument,item,value\n"


def test_ingest_day_offsets(tmp_path):
    path = _write(tmp_path / "a.csv", HEADER + "\n".join([
        "p1,0,pain_vas,back,5",
        "p1,7,pain_vas,back,4",
        "p1,21,pain_vas,back,2",
    ]))
    store = ingest(path)
    person = store.person("p1")
    assert person.days == [0, 7, 21]
    assert (stats(person).duration, stats(person).sequence_length) == (21, 3)


def test_ingest_shares_one_string_per_distinct_text(tmp_path):
    path = _write(tmp_path / "a.csv", HEADER + "\n".join([
        "p1,0,pain_vas,back,5",
        " p1,0,pain_vas,neck,4",
        "p2,0,PAIN_VAS,back,2",
        "p1,7,pain_vas,back,3",
    ]))
    store = ingest(path)
    answers = [a for person in store for a in person.answers]
    for field in ("person_id", "instrument", "item"):
        by_text = {}
        for answer in answers:
            text = getattr(answer, field)
            assert by_text.setdefault(text, text) is text


def test_ingest_three_weeks_four_visits(tmp_path):
    path = _write(tmp_path / "a.csv", HEADER + "\n".join(
        f"p1,{d},pain_vas,back,3" for d in (0, 7, 14, 21)
    ))
    st = stats(ingest(path).person("p1"))
    assert st.duration == 21
    assert st.sequence_length == 4


def test_ingest_dates_normalize_to_offsets(tmp_path):
    path = _write(tmp_path / "a.csv", HEADER + "\n".join([
        "p1,2019-03-05,pain_vas,back,5",
        "p1,2019-03-12,pain_vas,back,4",
        "p2,2018-11-01,pain_vas,neck,2",
    ]))
    store = ingest(path)
    assert store.person("p1").days == [0, 7]
    assert store.person("p2").days == [0]


def test_ingest_is_translation_invariant(tmp_path):
    a = _write(tmp_path / "a.csv", HEADER + "\n".join([
        "p1,2019-03-05,pain_vas,back,5",
        "p1,2019-03-19,machine,f110,30",
    ]))
    b = _write(tmp_path / "b.csv", HEADER + "\n".join([
        "p1,2021-07-01,pain_vas,back,5",
        "p1,2021-07-15,machine,f110,30",
    ]))
    sa, sb = ingest(a), ingest(b)
    assert sa.person("p1").answers == sb.person("p1").answers


def test_ingest_nonzero_integer_days_are_rebased(tmp_path):
    path = _write(tmp_path / "a.csv", HEADER + "p1,100,pain_vas,back,5\np1,130,pain_vas,back,1\n")
    assert ingest(path).person("p1").days == [0, 30]


def test_ingest_eqvas_rows_are_split_out(tmp_path):
    path = _write(tmp_path / "a.csv", HEADER + "\n".join([
        "p1,0,pain_vas,back,5",
        "p1,0,eqvas,overall_health,55",
    ]))
    person = ingest(path).person("p1")
    assert person.eqvas == {0: 55.0}
    assert len(person.answers) == 1


def test_ingest_rejects_duplicates(tmp_path):
    path = _write(tmp_path / "a.csv", HEADER + "p1,0,odi,lifting,2\np1,0,odi,lifting,3\n")
    with pytest.raises(DataError) as err:
        ingest(path)
    assert "duplicate" in str(err.value)
    assert "odi:lifting" in str(err.value)


def test_ingest_reports_malformed_rows_with_line_numbers(tmp_path):
    path = _write(tmp_path / "a.csv", HEADER + "\n".join([
        "p1,0,pain_vas,back,5",
        "p1,zzz,pain_vas,back,4",
        "p1,3,pain_vas,back,not_a_number",
    ]))
    with pytest.raises(DataError) as err:
        ingest(path)
    message = str(err.value)
    assert ":3:" in message and ":4:" in message


def test_ingest_rejects_mixed_day_kinds_per_person(tmp_path):
    path = _write(tmp_path / "a.csv", HEADER + "p1,0,odi,lifting,2\np1,2019-01-05,odi,walking,1\n")
    with pytest.raises(DataError):
        ingest(path)


def test_ingest_error_texts_and_first_day_across_files(tmp_path):
    cohort = tmp_path / "cohort"
    cohort.mkdir()
    answers = _write(cohort / "answers.csv",
                     HEADER + "p1,5,odi,lifting,2\n \t, ,,,\n,,,,\n"
                              "p1,9,odi,lifting,3\np1,5,odi,lifting,1\n")
    with pytest.raises(DataError, match=re.escape(
            f"duplicate rows:\n  {answers}:6: duplicate answer for (p1, day 5, odi:lifting); "
            f"first seen on {answers}:2")):
        ingest(cohort)
    _write(cohort / "answers.csv", HEADER + "p1,5,odi,lifting,2\np1,9,odi,lifting,3\n")
    _write(cohort / "eqvas.csv", "person_id,day,value\np1,3,70\n")
    person = ingest(cohort).person("p1")
    assert [a.day for a in person.answers] == [2, 6]  # day 0 is the EQ-VAS day
    assert person.eqvas == {0: 70.0}
    _write(cohort / "eqvas.csv", "person_id,day,value\np1,2019-01-05,70\n")
    with pytest.raises(DataError, match="^person 'p1' mixes integer day offsets and calendar "
                                        "dates$"):
        ingest(cohort)


def test_ingest_short_eqvas_row_is_data_error(tmp_path):
    cohort = tmp_path / "cohort"
    cohort.mkdir()
    _write(cohort / "answers.csv", HEADER + "p1,0,pain_vas,back,5\n")
    eqvas = _write(cohort / "eqvas.csv", "person_id,day,value\np1,0\n")
    with pytest.raises(DataError, match=re.escape(f"{eqvas}:2: expected 3 columns, got 2")):
        ingest(cohort)


def test_ingest_eqvas_row_without_person_id_is_data_error(tmp_path):
    cohort = tmp_path / "cohort"
    cohort.mkdir()
    _write(cohort / "answers.csv", HEADER + "p1,0,pain_vas,back,5\n")
    eqvas = _write(cohort / "eqvas.csv", "person_id,day,value\np1,0,70\n ,1,60\n")
    with pytest.raises(DataError, match=re.escape(f"{eqvas}:3: empty person_id")):
        ingest(cohort)


def test_ingest_empty_file_warns_and_returns_empty(tmp_path):
    # ingest returns the empty store; link, in a process of its own so that
    # any logging would reach its stderr, warns once that it linked nothing
    for name, text in (("header_only", HEADER), ("empty", "")):
        path = _write(tmp_path / f"{name}.csv", text)
        assert len(ingest(path)) == 0
        proc = run_python("-c", "from icfhi.cli import main; raise SystemExit(main(["
                                f"'link', '--data', {str(path)!r}, "
                                f"'--out', {str(tmp_path / name)!r}]))")
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.splitlines() == ["warning: no records produced (empty input data)"]


def test_ingest_rejects_bad_header(tmp_path):
    path = _write(tmp_path / "a.csv", "who,when,what\nx,y,z\n")
    with pytest.raises(DataError):
        ingest(path)


def test_ingest_eqvas_range_checked(tmp_path):
    path = _write(tmp_path / "a.csv", HEADER + "p1,0,eqvas,overall_health,140\n")
    with pytest.raises(DataError):
        ingest(path)


def test_ingest_second_eqvas_answer_on_a_day_is_a_duplicate(tmp_path):
    # whatever its item or file, a second EQ-VAS answer for (person, day)
    path = _write(tmp_path / "a.csv", HEADER + "p1,0,eqvas,overall_health,55\n"
                                               "p1,0,eqvas,vas,80\n")
    with pytest.raises(DataError, match=re.escape(
            f"duplicate rows:\n  {path}:3: duplicate answer for (p1, day 0, eqvas:vas); "
            f"first seen on {path}:2")):
        ingest(path)
    cohort = tmp_path / "cohort"
    cohort.mkdir()
    answers = _write(cohort / "answers.csv",
                     HEADER + "p1,0,pain_vas,back,5\np1,4,eqvas,overall_health,60\n")
    eqvas = _write(cohort / "eqvas.csv", "person_id,day,value\np1,4,70\n")
    with pytest.raises(DataError, match=re.escape(
            f"duplicate rows:\n  {eqvas}:2: duplicate answer for (p1, day 4, "
            f"eqvas:overall_health); first seen on {answers}:3")):
        ingest(cohort)


def test_ingest_reports_every_malformed_eqvas_row(tmp_path):
    cohort = tmp_path / "cohort"
    cohort.mkdir()
    _write(cohort / "answers.csv", HEADER + "p1,0,pain_vas,back,5\n")
    eqvas = _write(cohort / "eqvas.csv", "person_id,day,value\np1,zzz,70\np1,1,60\np1,2,high\n")
    with pytest.raises(DataError) as err:
        ingest(cohort)
    message = str(err.value)
    assert message.startswith(f"malformed rows in {eqvas}:")
    assert f"{eqvas}:2: cannot parse day/date 'zzz'" in message
    assert f"{eqvas}:4: could not convert string to float: 'high'" in message


def test_ingest_malformed_rows_win_over_mixed_day_kinds(tmp_path):
    path = _write(tmp_path / "a.csv", HEADER + "p1,0,odi,lifting,2\n"
                                               "p1,2019-01-05,odi,walking,1\n"
                                               "p1,3,odi,sitting,lots\n")
    with pytest.raises(DataError, match=re.escape(
            f"malformed rows in {path}:\n  {path}:4: could not convert string to float")):
        ingest(path)


def _persons(store):
    return [(p.person_id, p.answers, list(p.eqvas.items())) for p in store]


def test_ingest_interleaved_dated_rows_equal_the_sorted_rows(tmp_path):
    answers = [
        "p2,2020-02-10,pain_vas,back,4",
        "p1,2019-03-12,machine,f110,30",
        "p2,2020-02-03,eqvas,overall_health,55",
        "p1,2019-03-05,pain_vas,back,5",
        "p3,2018-12-31,odi,lifting,2",
        "p1,2019-03-12,eqvas,overall_health,70",
        "p2,2020-02-03,pain_vas,neck,6",
        "p1,2019-03-05,pain_vas,neck,3",
    ]
    eqvas = ["p1,2019-03-01,40", "p3,2019-01-02,90", "p2,2020-02-10,65", "p1,2019-03-19,80"]
    stores = []
    for name, order in (("interleaved", list), ("sorted", sorted)):
        cohort = tmp_path / name
        cohort.mkdir()
        _write(cohort / "answers.csv", "person_id,date,instrument,item,value\n"
                                       + "\n".join(order(answers)) + "\n")
        _write(cohort / "eqvas.csv", "person_id,date,value\n" + "\n".join(order(eqvas)) + "\n")
        stores.append(ingest(cohort))
    interleaved, ordered = stores
    assert _persons(interleaved) == _persons(ordered)
    p1 = interleaved.person("p1")
    assert p1.eqvas == {0: 40.0, 11: 70.0, 18: 80.0}  # day 0 is the first EQ-VAS date
    assert [(a.day, a.item) for a in p1.answers] == [(4, "back"), (4, "neck"), (11, "f110")]
    assert interleaved.person("p3").days == [0, 2]


# rows of every kind that ingest skips, rejects or reads through its caches
# of day, instrument and item cells: blank, whitespace-only, short, without
# a person id, and with padded or upper-cased cells
ODD_ROWS = [
    "p1, 3 ,PAIN_VAS, Back ,5",
    "",
    " \t, ,  ,,",
    "p1,4,odi",
    " ,4,odi,lifting,2",
    ",,,,",
    "p2, 2019-01-05 , Machine ,F110,30",
    "   ,",
    "p2,2019-01-12,machine,f110,20",
    "p3,x ,odi,lifting,1",
    "p3,1, ,lifting,1",
    "p3,1,odi,LIFTING,abc",
    "p3, 1,odi,lifting",
    "p3,1,odi,lifting,1,extra",
    "p1,10,pain_vas,back,4",
]


def test_ingest_skips_rejects_and_reads_odd_rows(tmp_path):
    path = _write(tmp_path / "odd.csv", HEADER + "\n".join(ODD_ROWS) + "\n")
    with pytest.raises(DataError) as err:
        ingest(path)
    assert str(err.value) == (
        f"malformed rows in {path}:\n"
        f"  {path}:5: expected 5 columns, got 3\n"
        f"  {path}:6: empty person_id\n"
        f"  {path}:11: cannot parse day/date 'x '\n"
        f"  {path}:12: empty instrument or item\n"
        f"  {path}:13: could not convert string to float: 'abc'\n"
        f"  {path}:14: expected 5 columns, got 4")

    cohort = tmp_path / "cohort"
    cohort.mkdir()
    malformed = {3, 4, 9, 10, 11, 12}  # indexes into ODD_ROWS
    _write(cohort / "answers.csv",
           HEADER + "\n".join(row for i, row in enumerate(ODD_ROWS) if i not in malformed))
    _write(cohort / "eqvas.csv", "person_id,day,value\n p1 , 10 ,70\n\n , ,\np3, 2 ,40\n")
    assert _persons(ingest(cohort)) == [
        ("p1", [RawAnswer("p1", 0, "pain_vas", "back", 5.0),
                RawAnswer("p1", 7, "pain_vas", "back", 4.0)], [(7, 70.0)]),
        ("p2", [RawAnswer("p2", 0, "machine", "f110", 30.0),
                RawAnswer("p2", 7, "machine", "f110", 20.0)], []),
        ("p3", [RawAnswer("p3", 0, "odi", "lifting", 1.0)], [(1, 40.0)]),
    ]

    # a padded or upper-cased cell names the same (person, day, instrument, item)
    _write(cohort / "answers.csv", HEADER + "p1,3,pain_vas,back,5\np1, 3 ,Pain_VAS,BACK ,6\n")
    with pytest.raises(DataError) as err:
        ingest(cohort)
    assert str(err.value) == (
        f"duplicate rows:\n  {cohort / 'answers.csv'}:3: duplicate answer for "
        f"(p1, day 3, pain_vas:back); first seen on {cohort / 'answers.csv'}:2")


def test_ingest_reads_the_persons_header_as_the_answers_header(tmp_path):
    # p2 has no answers: only persons.csv names them
    cohort = tmp_path / "cohort"
    cohort.mkdir()
    _write(cohort / "answers.csv", HEADER + "p1,0,pain_vas,back,5\n")
    _write(cohort / "persons.csv", "name, Person_ID \nx,p1\ny, p2 \nz,\nshort\n")
    assert ingest(cohort).person_ids == ["p1", "p2"]
    persons = _write(cohort / "persons.csv", "pid\np1\np2\n")
    with pytest.raises(DataError) as err:
        ingest(cohort)
    assert str(err.value) == f"{persons}: expected a person_id column; got ['pid']"


def test_ingest_peak_memory_stays_near_what_it_keeps(tmp_path):
    # every row lives only as its CSV cells and then as its answer: the
    # peak traced while ingesting stays close to the memory of the result
    serialize(synthesize(SynthConfig(seed=7, n_persons=300)), tmp_path / "cohort")
    gc.collect()
    tracemalloc.start()
    try:
        store = ingest(tmp_path / "cohort")
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(store) == 300
    assert peak <= 1.5 * retained, (peak, retained)


def test_stats_examples():
    from icfhi import TreatmentStats

    single = Person("a", [RawAnswer("a", 0, "pain_vas", "back", 3.0)])
    assert stats(single) == TreatmentStats(0, 1)
    multi = Person("b", [RawAnswer("b", d, "pain_vas", "back", 3.0) for d in (0, 7, 21)])
    assert stats(multi) == TreatmentStats(21, 3)
    two = Person("c", [RawAnswer("c", d, "pain_vas", "back", 3.0) for d in (0, 69)])
    assert stats(two) == TreatmentStats(69, 2)


def test_store_rejects_duplicate_person():
    with pytest.raises(DataError):
        CohortStore([Person("a"), Person("a")])


# ---------------------------------------------------------------------------
# synthesis

def test_synthesize_is_deterministic():
    config = SynthConfig(seed=42, n_persons=50)
    a, b = synthesize(config), synthesize(config)
    assert a.person_ids == b.person_ids
    for pa, pb in zip(a, b):
        assert pa.answers == pb.answers
        assert pa.eqvas == pb.eqvas
    c = synthesize(SynthConfig(seed=43, n_persons=50))
    assert any(
        pa.answers != pc.answers for pa, pc in zip(a, c)
    )


def test_synthesize_improving_trend_reduces_pain():
    store = synthesize(SynthConfig(seed=7, n_persons=1000, max_visits=6, trend="improving"))
    first, last = [], []
    for person in store:
        pain = [a for a in person.answers if a.instrument == "pain_vas"]
        days = sorted({a.day for a in pain})
        if len(days) < 2:
            continue
        first.append(max(a.value for a in pain if a.day == days[0]))
        last.append(max(a.value for a in pain if a.day == days[-1]))
    assert len(first) > 200
    assert np.mean(last) < np.mean(first) - 0.5


def test_synthesize_prevalence_shape():
    # b780 must be the most frequent code, then the trunk machine codes
    from icfhi import apply_rules, default_rules

    store = synthesize(SynthConfig(seed=11, n_persons=300))
    rules = default_rules()
    persons_per_code = {}
    for person in store:
        for record in apply_rules(person.answers, rules):
            persons_per_code.setdefault(record.code.text, set()).add(person.person_id)
    counts = {code: len(pids) for code, pids in persons_per_code.items()}
    top = max(counts, key=lambda c: (counts[c], c))
    assert top == "b780"
    for code in ("b7305", "b7355", "b7401"):
        assert counts[code] > counts["b7302"]
        assert counts[code] > counts["b28013"]


def test_synthesize_eqvas_tracks_health():
    store = synthesize(SynthConfig(seed=3, n_persons=400))
    pain_vs_eqvas = []
    for person in store:
        for day, eqvas in person.eqvas.items():
            pains = [a.value for a in person.answers
                     if a.instrument == "pain_vas" and a.day == day]
            if pains:
                pain_vs_eqvas.append((max(pains), eqvas))
    assert len(pain_vs_eqvas) > 100
    pains, eqvs = zip(*pain_vs_eqvas)
    assert np.corrcoef(pains, eqvs)[0, 1] < -0.5


def test_synth_round_trip_preserves_everything(tmp_path):
    store = synthesize(SynthConfig(seed=21, n_persons=40))
    serialize(store, tmp_path / "cohort")
    loaded = ingest(tmp_path / "cohort")
    assert loaded.person_ids == store.person_ids
    for original, back in zip(store, loaded):
        assert stats(original) == stats(back)
        assert back.answers == [
            RawAnswer(a.person_id, a.day, a.instrument, a.item, float(a.value))
            for a in original.answers
        ]
        assert back.eqvas == {d: float(v) for d, v in original.eqvas.items()}


def test_synth_config_validation():
    with pytest.raises(Exception):
        SynthConfig(trend="skyrocketing")
    with pytest.raises(Exception):
        SynthConfig(n_persons=0)
    with pytest.raises(Exception):
        SynthConfig.from_json({"bogus_knob": 1})
    config = SynthConfig.from_json({"seed": 9, "n_persons": 5, "visit_gap_days": [2, 5]})
    assert config.visit_gap_days == (2, 5)
    # seed and counts are plain integers, the seed not negative
    for bad in ({"seed": -1}, {"seed": True}, {"seed": 4.0}, {"n_persons": "5"},
                {"n_persons": 2.5}, {"n_persons": False}, {"max_visits": "3"}):
        with pytest.raises(ConfigError) as err:
            SynthConfig.from_json(bad)
        assert str(err.value).startswith(next(iter(bad))) and "\n" not in str(err.value)
    assert SynthConfig(seed=0).seed == 0


def test_visit_gaps_are_whole_days_that_add_up_within_int64():
    top = (2**63 - 1) // 2
    for bad in ((0, 3), (4, 3), (1, top + 1), (np.int64(1), 3), "ab"):
        with pytest.raises(ConfigError, match="invalid visit gap range"):
            SynthConfig(max_visits=2, visit_gap_days=bad)
    # the largest gap: two visits, days 0 and at most 2**63 - 1
    store = synthesize(SynthConfig(n_persons=4, max_visits=2, visit_gap_days=(top, top)))
    assert {day for person in store for day in person.days} <= {0, top}
