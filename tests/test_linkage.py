import csv
import io
import json
import math
import pickle
import random
import re
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from icfhi import (
    CohortStore,
    ConfigError,
    DataError,
    Link,
    LinkageRule,
    Person,
    QualifierRecord,
    RawAnswer,
    RuleSet,
    apply_rules,
    default_rules,
    ingest,
    link_answers,
    load_rules,
    parse_code,
)
from icfhi.cli import main
from icfhi.cohort import SynthConfig, serialize, synthesize
from icfhi.formatting import format_cell
from icfhi.linkage import (RECORD_COLUMNS, AffineMap, RecordWriter, _quote, records_from_csv,
                           records_to_csv)

from conftest import default_rules_json, shipped_translation

ODI_EXPECTED = {0: 0, 1: 1, 2: 2, 3: 3, 4: 3, 5: 4}
PAIN_EXPECTED = {0: 0, 1: 0, 2: 1, 3: 1, 4: 2, 5: 2, 6: 2, 7: 3, 8: 3, 9: 4, 10: 4}


# the value translations that the bundled rules of each instrument share
def translate_odi(answer):
    return shipped_translation("odi")(answer)


def translate_eq5d(answer):
    return shipped_translation("eq5d")(answer)


def translate_pain_vas(answer):
    return shipped_translation("pain_vas")(answer)


def translate_machine(relative_change_pct):
    return shipped_translation("machine")(relative_change_pct)


def test_odi_table_exhaustive():
    for answer, qualifier in ODI_EXPECTED.items():
        assert translate_odi(answer) == qualifier


def test_eq5d_affine_map_exhaustive():
    for answer in range(1, 6):
        assert translate_eq5d(answer) == answer - 1


def test_pain_vas_table_exhaustive():
    for answer, qualifier in PAIN_EXPECTED.items():
        assert translate_pain_vas(answer) == qualifier


@pytest.mark.parametrize("pct,qualifier", [
    (0, 0), (4, 0), (3.9, 0),
    (4.0001, 1), (20, 1), (24, 1),
    (24.5, 2), (30, 2), (49, 2),
    (49.5, 3), (95, 3),
    (95.5, 4), (100, 4),
])
def test_machine_intervals(pct, qualifier):
    assert translate_machine(pct) == qualifier


@pytest.mark.parametrize("func,bad", [
    (translate_odi, -1), (translate_odi, 6), (translate_odi, 2.5),
    (translate_eq5d, 0), (translate_eq5d, 6), (translate_eq5d, 3.5),
    (translate_pain_vas, -1), (translate_pain_vas, 11), (translate_pain_vas, 4.2),
    (translate_machine, 100.5),
])
def test_translators_reject_out_of_range(func, bad):
    with pytest.raises(ValueError):
        func(bad)


def test_tables_monotone_non_decreasing():
    for func, domain in [
        (translate_odi, range(6)),
        (translate_eq5d, range(1, 6)),
        (translate_pain_vas, range(11)),
        (translate_machine, [x / 2 for x in range(201)]),
    ]:
        outs = [func(v) for v in domain]
        assert all(b >= a for a, b in zip(outs, outs[1:]))


# ---------------------------------------------------------------------------
# rule application

def test_back_pain_answer_three_links_as_mild():
    records = apply_rules([RawAnswer("p1", 0, "pain_vas", "back", 3)], default_rules())
    assert len(records) == 1
    assert records[0].code.text == "b28013"
    assert records[0].value == 1


def test_machine_20_percent_links_mild_on_four_codes():
    records = apply_rules([RawAnswer("p1", 0, "machine", "f110", 20.0)], default_rules())
    assert {r.code.text for r in records} == {"b7305", "b7355", "b7401", "b780"}
    assert all(r.value == 1 for r in records)
    assert len({r.source_id for r in records}) == 1


def test_machine_f110_30_percent_links_moderate():
    records = apply_rules([RawAnswer("p1", 0, "machine", "f110", 30.0)], default_rules())
    assert {r.code.text for r in records} == {"b7305", "b7355", "b7401", "b780"}
    assert all(r.value == 2 for r in records)


def test_machine_f120_links_five_codes():
    records = apply_rules([RawAnswer("p1", 0, "machine", "f120", 30.0)], default_rules())
    assert {r.code.text for r in records} == {"b7302", "b7305", "b7355", "b7401", "b780"}
    assert all(r.value == 2 for r in records)


def test_machine_better_than_reference_clamps_to_zero():
    records = apply_rules([RawAnswer("p1", 0, "machine", "f110", -12.5)], default_rules())
    assert all(r.value == 0 for r in records)


def test_odi_lifting_shares_source_across_targets():
    records = apply_rules([RawAnswer("p9", 3, "odi", "lifting", 2)], default_rules())
    assert {r.code.text for r in records} == {"b280", "d430"}
    assert all(r.value == 2 for r in records)
    assert len({r.source_id for r in records}) == 1


def test_record_count_is_sum_of_target_counts():
    answers = [
        RawAnswer("p", 0, "odi", "sex_life", 1),        # 3 targets
        RawAnswer("p", 0, "eq5d", "self_care", 2),      # 3 targets
        RawAnswer("p", 0, "pain_vas", "neck", 5),       # 1 target
        RawAnswer("p", 0, "machine", "f140", 50.0),     # 5 targets
    ]
    records = apply_rules(answers, default_rules())
    assert len(records) == 12
    values = {r.code.text: r.value for r in records if r.code.text.startswith("d5")}
    assert values == {"d5": 1.0, "d510": 1.0, "d540": 1.0}


def test_eqvas_is_validation_only():
    records = apply_rules([RawAnswer("p", 0, "eqvas", "overall_health", 70)], default_rules())
    assert records == []


def test_unknown_source_item_is_named():
    with pytest.raises(DataError) as err:
        apply_rules([RawAnswer("p", 0, "grip", "strength", 1)], default_rules())
    assert "grip:strength" in str(err.value)


def test_translation_failure_carries_context():
    with pytest.raises(DataError) as err:
        apply_rules([RawAnswer("p7", 2, "odi", "walking", 9)], default_rules())
    message = str(err.value)
    assert "odi:walking" in message and "p7" in message and "day 2" in message


def test_all_bundled_rules_emit_integer_qualifiers_in_range():
    rules = default_rules()
    answers = []
    for instrument, item, domain in [
        ("odi", "pain_intensity", range(6)),
        ("eq5d", "mobility", range(1, 6)),
        ("pain_vas", "back", range(11)),
        ("machine", "f160", [0, 3.2, 17.0, 42.5, 80.0, 99.9]),
    ]:
        answers.extend(RawAnswer("p", 0, instrument, item, v) for v in domain)
    for record in apply_rules(answers, rules):
        assert record.value in (0, 1, 2, 3, 4)


# ---------------------------------------------------------------------------
# rule files

def test_default_reliabilities_are_declared():
    rel = default_rules().reliabilities()
    assert rel["pain_vas:back"] == 1.0
    assert "eqvas:overall_health" not in rel
    assert len(rel) == 25  # 10 ODI + 5 EQ-5D + 4 pain + 6 machine


def test_load_rules_missing_file():
    with pytest.raises(ConfigError) as err:
        load_rules("/nonexistent/rules.json")
    assert "/nonexistent/rules.json" in str(err.value)


def test_rule_validation_rejects_bad_qualifier_range(tmp_path):
    path = tmp_path / "rules.json"
    path.write_text(json.dumps({"rules": [{
        "source_item_id": "x:y",
        "targets": ["b280"],
        "translation": {"kind": "discrete_map", "map": {"0": 0, "1": 5}},
        "reliability": 1.0,
    }]}))
    with pytest.raises(ConfigError):
        load_rules(path)


def test_rule_validation_rejects_bad_reliability(tmp_path):
    path = tmp_path / "rules.json"
    path.write_text(json.dumps({"rules": [{
        "source_item_id": "x:y",
        "targets": ["b280"],
        "translation": {"kind": "discrete_map", "map": {"0": 0}},
        "reliability": 1.5,
    }]}))
    with pytest.raises(ConfigError):
        load_rules(path)


def test_rule_validation_rejects_duplicate_ids(tmp_path):
    entry = {
        "source_item_id": "x:y",
        "targets": ["b280"],
        "translation": {"kind": "discrete_map", "map": {"0": 0}},
        "reliability": 1.0,
    }
    path = tmp_path / "rules.json"
    path.write_text(json.dumps({"rules": [entry, entry]}))
    with pytest.raises(ConfigError):
        load_rules(path)


def test_rule_validation_rejects_bad_interval_breaks(tmp_path):
    path = tmp_path / "rules.json"
    path.write_text(json.dumps({"rules": [{
        "source_item_id": "x:y",
        "targets": ["b280"],
        "translation": {"kind": "interval_map", "breaks": [0, 10, 5], "qualifiers": [0, 1]},
        "reliability": 1.0,
    }]}))
    with pytest.raises(ConfigError):
        load_rules(path)


B280 = (parse_code("b280"),)


@pytest.mark.parametrize("rule, message", [
    (LinkageRule("x:y", (), AffineMap(1.0, 0.0, (0.0, 4.0)), 1.0),
     "rule 'x:y' has no target codes"),
    (LinkageRule("x:y", B280, None, 1.0), "rule 'x:y' has no translation"),
    (LinkageRule("x:y", B280, AffineMap(2.0, 0.0, (0.0, 4.0)), 1.0),
     "rule 'x:y' can emit qualifier 8.0 outside [0, 4]"),
    (LinkageRule("x:y", B280, AffineMap(1.0, 0.0, (0.0, 4.0)), 1.5),
     "rule 'x:y' reliability 1.5 outside [0, 1]"),
    (LinkageRule("x:y", (), None, -0.5, validation_only=True),
     "rule 'x:y' reliability -0.5 outside [0, 1]"),
])
def test_rule_set_checks_each_rule_it_admits(rule, message):
    # a LinkageRule is a named tuple: it is checked when a RuleSet admits it
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        RuleSet([*default_rules(), rule])


def test_rule_set_admits_a_validation_only_rule_without_targets_or_translation():
    rules = RuleSet([LinkageRule("x:y", (), None, 0.0, validation_only=True)])
    assert rules.reliabilities() == {}


def test_custom_reliability_flows_to_records(tmp_path):
    path = tmp_path / "rules.json"
    path.write_text(json.dumps({"rules": [{
        "source_item_id": "pain_vas:back",
        "targets": ["b28013"],
        "translation": {"kind": "discrete_map",
                        "map": {str(k): v for k, v in PAIN_EXPECTED.items()}},
        "reliability": 0.8,
    }]}))
    rules = load_rules(path)
    records = apply_rules([RawAnswer("p", 0, "pain_vas", "back", 7)], rules)
    assert records[0].reliability == 0.8
    assert records[0].value == 3


def test_records_csv_round_trip(tmp_path):
    answers = [
        RawAnswer("p2", 5, "machine", "f110", 49.5),
        RawAnswer("p1", 0, "odi", "lifting", 4),
    ]
    records = apply_rules(answers, default_rules())
    path = tmp_path / "records.csv"
    records_to_csv(records, path)
    loaded = records_from_csv(path)
    assert sorted(loaded, key=lambda r: (r.person_id, r.code)) == sorted(
        records, key=lambda r: (r.person_id, r.code)
    )


def _linked_cohort(persons=12):
    rules = default_rules()
    store = synthesize(SynthConfig(seed=7, n_persons=persons))
    return [r for person in store for r in apply_rules(person.answers, rules)]


def test_records_to_csv_ignores_input_order(tmp_path):
    records = _linked_cohort()
    canonical = sorted(records, key=lambda r: (r.person_id, r.day, r.source_id, r.code))
    shuffled = records[:]
    random.Random(3).shuffle(shuffled)
    records_to_csv(canonical, tmp_path / "sorted.csv")
    records_to_csv(shuffled, tmp_path / "shuffled.csv")
    assert (tmp_path / "shuffled.csv").read_bytes() == (tmp_path / "sorted.csv").read_bytes()
    assert records_from_csv(tmp_path / "shuffled.csv") == canonical


def test_multi_target_answer_rows_are_contiguous_in_code_order(tmp_path):
    # f120 links to five codes, the lifting item to three, and the custom
    # item to codes whose digits alone would order them differently
    custom = RuleSet.from_json({"rules": [{
        "source_item_id": "custom:item", "targets": ["d1", "b280", "s7"],
        "translation": {"kind": "discrete_map", "map": {"0": 0, "1": 4}}}]})
    rules = RuleSet([*default_rules(), *custom])
    answers = [RawAnswer("p", 0, "machine", "f120", 20.0),
               RawAnswer("p", 0, "odi", "lifting", 4),
               RawAnswer("p", 0, "custom", "item", 1),
               RawAnswer("p", 0, "pain_vas", "back", 3)]
    records = apply_rules(answers, rules)
    random.Random(5).shuffle(records)
    records_to_csv(records, tmp_path / "records.csv")
    with open(tmp_path / "records.csv", newline="") as fh:
        sources = [(row["source_id"], row["code"]) for row in csv.DictReader(fh)]
    for answer in answers:
        source_id = f"{answer.person_id}:{answer.day}:{answer.source_item_id}"
        rows = [i for i, (source, _) in enumerate(sources) if source == source_id]
        assert rows == list(range(rows[0], rows[0] + len(rows)))
        targets = rules.get(answer.source_item_id).targets
        assert [sources[i][1] for i in rows] == [c.text for c in sorted(targets)]


def test_writer_writes_equal_targets_of_two_rules_as_csv_writer_does():
    # the rules' target tuples are equal but distinct objects; the third
    # rule's differ in reliability only
    rules = RuleSet.from_json({"rules": [
        {"source_item_id": f"custom:{item}", "targets": ["d1", "b280"],
         "translation": {"kind": "discrete_map", "map": {"0": 0, "1": 4}},
         "reliability": reliability}
        for item, reliability in (("a", 1.0), ("b", 1.0), ("c", 0.5))]})
    first, second = rules.get("custom:a").targets, rules.get("custom:b").targets
    assert first == second and first is not second
    answers = [RawAnswer("p", day, "custom", item, day % 2)
               for day in range(3) for item in "abc"]
    written = io.StringIO(newline="")
    RecordWriter(written).write(link_answers(answers, rules))
    records = sorted(apply_rules(answers, rules),
                     key=lambda r: (r.person_id, r.day, r.source_id, r.code))
    expected = io.StringIO(newline="")
    csv.writer(expected).writerows([RECORD_COLUMNS, *([*r[:4], format_cell(r.value),
                                                       format_cell(r.reliability)]
                                                      for r in records)])
    assert written.getvalue() == expected.getvalue()


def test_records_and_answers_are_slotted_and_pickle():
    record = QualifierRecord("p", 0, "p:0:odi:lifting", parse_code("b7305"), 3.0, 1.0)
    link = Link("p", 0, "p:0:odi:lifting", (parse_code("b7305"), parse_code("d430")), 3.0, 1.0)
    answer = RawAnswer("p", 0, "odi", "lifting", 4.0)
    assert QualifierRecord._fields == ("person_id", "day", "source_id", "code", "value",
                                       "reliability")
    assert Link._fields == ("person_id", "day", "source_id", "targets", "value", "reliability")
    assert RawAnswer._fields == ("person_id", "day", "instrument", "item", "value")
    assert answer.source_item_id == "odi:lifting"
    assert link_answers([answer], default_rules())[0].source_id == "p:0:odi:lifting"
    for obj in (record, link, answer):
        assert not hasattr(obj, "__dict__")
        copy = pickle.loads(pickle.dumps(obj))
        assert copy == obj and hash(copy) == hash(obj)
        with pytest.raises(AttributeError):
            obj.day = 1


def test_apply_rules_expands_link_answers_in_rule_order():
    rules = default_rules()
    for person in synthesize(SynthConfig(seed=11, n_persons=8)):
        links = link_answers(person.answers, rules)
        assert [link.targets for link in links] == [
            rules.get(a.source_item_id).targets for a in person.answers
            if not rules.get(a.source_item_id).validation_only]
        assert apply_rules(person.answers, rules) == [
            QualifierRecord(link.person_id, link.day, link.source_id, code, link.value,
                            link.reliability)
            for link in links for code in link.targets]


def _csv_writer_field(text):
    """``text`` as csv.writer writes it between two other fields of a row."""
    out = io.StringIO()
    csv.writer(out).writerow(["a", text, "b"])
    row = out.getvalue()
    assert row.startswith("a,") and row.endswith(",b\r\n")
    return row[2:-4]


@given(st.text(alphabet=st.one_of(st.sampled_from('\x00\r\n", \t\'\\'), st.characters()))
       | st.text())
def test_quote_matches_csv_writer(text):
    try:
        expected = _csv_writer_field(text)
    except csv.Error:
        # before Python 3.11 csv.writer cannot write a NUL at all (and
        # csv.reader cannot read one, so no ingested id holds one)
        assert "\x00" in text and sys.version_info < (3, 11)
        return
    assert _quote(text) == expected


def test_link_writes_odd_ids_as_records_to_csv_does(tmp_path):
    # a person id with a comma and a quote, and an item with a quote, are
    # quoted in records.csv exactly as csv.writer quotes them
    odd = 'p,"1'
    custom = {"source_item_id": 'custom:it"em', "targets": ["d1", "b280", "s7"],
              "translation": {"kind": "discrete_map", "map": {"0": 0, "1": 4}}}
    rule_file = tmp_path / "rules.json"
    rule_file.write_text(json.dumps({"rules": [*default_rules_json()["rules"], custom]}))
    persons = []
    for i, person in enumerate(synthesize(SynthConfig(seed=5, n_persons=4))):
        pid = odd if i == 1 else person.person_id
        answers = [a._replace(person_id=pid) for a in person.answers]
        answers.append(RawAnswer(pid, answers[0].day, "custom", 'it"em', i % 2))
        persons.append(Person(pid, answers, dict(person.eqvas)))
    serialize(CohortStore(persons), tmp_path / "cohort")
    assert main(["link", "--data", str(tmp_path / "cohort"), "--out", str(tmp_path / "out"),
                 "--rules", str(rule_file)]) == 0

    rules = load_rules(rule_file)
    records = [r for person in ingest(tmp_path / "cohort")
               for r in apply_rules(person.answers, rules)]
    assert {r.person_id for r in records} >= {odd} and any('"' in r.source_id for r in records)
    random.Random(9).shuffle(records)
    records_to_csv(records, tmp_path / "expected.csv")
    linked = tmp_path / "out" / "records.csv"
    assert linked.read_bytes() == (tmp_path / "expected.csv").read_bytes()
    canonical = sorted(records, key=lambda r: (r.person_id, r.day, r.source_id, r.code))
    assert records_from_csv(linked) == canonical
    # and what csv.writer itself writes for those rows
    out = io.StringIO(newline="")
    csv.writer(out).writerows([["person_id", "day", "source_id", "code", "value", "reliability"],
                               *([*r[:3], r.code.text, format_cell(r.value),
                                  format_cell(r.reliability)] for r in canonical)])
    assert linked.read_bytes() == out.getvalue().encode()


def _one_record_csv(tmp_path, value, reliability):
    path = tmp_path / "records.csv"
    path.write_text("person_id,day,source_id,code,value,reliability\n"
                    "p,0,s1,b280,2,1\n"
                    f"p,1,s2,b280,{value},{reliability}\n")
    return path


@pytest.mark.parametrize("value, reliability, field", [
    ("7", "1", "qualifier value"),
    ("-0.5", "1", "qualifier value"),
    ("nan", "1", "qualifier value"),
    ("inf", "1", "qualifier value"),
    ("2", "-1", "reliability"),
    ("2", "1.5", "reliability"),
    ("2", "nan", "reliability"),
])
def test_records_from_csv_rejects_out_of_range(tmp_path, value, reliability, field):
    path = _one_record_csv(tmp_path, value, reliability)
    with pytest.raises(DataError, match=re.escape(f"{path}:3: {field}")):
        records_from_csv(path)


def test_records_from_csv_accepts_range_ends(tmp_path):
    for value, reliability in (("0", "0"), ("4", "1")):
        [_, record] = records_from_csv(_one_record_csv(tmp_path, value, reliability))
        assert (record.value, record.reliability) == (float(value), float(reliability))


@pytest.mark.parametrize("person_id", ["", " "])
def test_records_from_csv_rejects_an_empty_person_id(tmp_path, person_id):
    # the blank rows before it are skipped, so the error names line 5
    path = tmp_path / "records.csv"
    path.write_text("person_id,day,source_id,code,value,reliability\n"
                    "p,0,s1,b280,2,1\n"
                    "\n"
                    " , ,,,,\n"
                    f"{person_id},3,s3,b280,2,1\n")
    with pytest.raises(DataError, match=re.escape(f"{path}:5: empty person_id")):
        records_from_csv(path)


def test_records_from_csv_reads_a_padded_upper_case_header_as_the_plain_one(tmp_path):
    rows = "p,0,s1,b280,2,1\np,1,s2,b2801,3,0.5\n"
    plain, padded = tmp_path / "plain.csv", tmp_path / "padded.csv"
    plain.write_text("person_id,day,source_id,code,value,reliability\n" + rows)
    padded.write_text(" Person_ID , DAY , Source_ID ,CODE, Value , RELIABILITY\n" + rows)
    assert records_from_csv(padded) == records_from_csv(plain)
    assert len(records_from_csv(plain)) == 2


def test_records_from_csv_names_the_columns_of_a_short_row(tmp_path):
    path = tmp_path / "records.csv"
    path.write_text("person_id,day,source_id,code,value,reliability\n"
                    "p,0,s1,b280,2,1\n"
                    "p,1,s2,b280\n")
    with pytest.raises(DataError, match=f"^{re.escape(f'{path}:3: expected 6 columns, got 4')}$"):
        records_from_csv(path)


# the bundled rules plus an affine map that keeps the sign of a zero answer:
# -0.0 gives -0.0 and 0.0 gives 0.0, though the two compare equal
SIGNED_ZERO_RULES = RuleSet([*default_rules(),
                             LinkageRule("signed:zero", (parse_code("b280"),),
                                         AffineMap(1.0, -0.0, (0.0, 4.0)), 1.0)])
SOURCES = sorted({rule.source_item_id for rule in SIGNED_ZERO_RULES} | {"unknown:item"})
# one source of each kind of rule
KIND_SOURCES = ["eq5d:mobility", "eqvas:overall_health", "machine:f110", "odi:lifting",
                "pain_vas:back", "signed:zero", "unknown:item"]
ANSWER_VALUES = st.one_of(
    st.booleans(),
    st.integers(-2, 110),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]),
    st.integers(-2, 110).map(float),
    st.floats(-2.0, 110.0),
)


def _equal_forms(value) -> list:
    """``value`` and the values of another type or sign that compare equal to it."""
    forms = [value]
    if isinstance(value, (int, float)) and math.isfinite(value) and float(value).is_integer():
        forms += [int(value), float(value)]
        if value in (0, 1):
            forms.append(bool(value))
        if value == 0:
            forms.append(-0.0)
    return forms


@st.composite
def _answer_draws(draw):
    """(person number, source, value) triples over a source of each kind and
    a few values with their equal forms, 0 and 1 among them, so that unlike
    answers often meet under one cache key."""
    sources = KIND_SOURCES + draw(st.lists(st.sampled_from(SOURCES), max_size=3))
    values = [form for value in [0, 1, *draw(st.lists(ANSWER_VALUES, min_size=1, max_size=3))]
              for form in _equal_forms(value)]
    return draw(st.lists(st.tuples(st.integers(0, 2), st.sampled_from(sources),
                                   st.sampled_from(values)), min_size=1, max_size=40))


def _translate_each(answers, rules):
    """``link_answers`` written out: (links, None), or (None, the error text)
    of the first answer that cannot be linked."""
    links = []
    for answer in answers:
        source = f"{answer.instrument}:{answer.item}"
        rule = rules.get(source)
        if rule is None:
            return None, f"no linkage rule for source item {source!r}"
        if rule.validation_only:
            continue
        try:
            value = rule.translation.translate(answer.value)
        except ValueError as exc:
            return None, (f"cannot translate {source!r} answer for person {answer.person_id} "
                          f"on day {answer.day}: {exc}")
        links.append(Link(answer.person_id, answer.day,
                          f"{answer.person_id}:{answer.day}:{source}", rule.targets, value,
                          rule.reliability))
    return links, None


@given(_answer_draws())
def test_cached_link_answers_equals_translate_per_answer(draws):
    # one rule set throughout, so that each answer after the first links
    # through a cache that the answers before it filled
    rules = RuleSet(SIGNED_ZERO_RULES)
    answers = [RawAnswer(f"p{person}", day, *source.split(":"), value)
               for day, (person, source, value) in enumerate(draws)]
    by_person = [[a for a in answers if a.person_id == person] for person in ("p0", "p1", "p2")]
    for batch in [[answer] for answer in answers] + by_person:
        expected, error = _translate_each(batch, rules)
        if error is None:
            links = link_answers(batch, rules)
            assert links == expected
            assert [math.copysign(1.0, link.value) for link in links] == \
                [math.copysign(1.0, link.value) for link in expected]
        else:
            with pytest.raises(DataError) as err:
                link_answers(batch, rules)
            assert str(err.value) == error


def test_warm_link_cache_still_raises_for_the_failing_answer():
    rules = RuleSet(SIGNED_ZERO_RULES)
    link_answers([RawAnswer("p1", 0, "odi", "lifting", 1),
                  RawAnswer("p1", 0, "signed", "zero", 0.0)], rules)
    # True equals 1, which is cached, but it is no integer answer
    with pytest.raises(DataError, match="^" + re.escape(
            "cannot translate 'odi:lifting' answer for person p2 on day 3: "
            "answer must be an integer, got True") + "$"):
        link_answers([RawAnswer("p2", 3, "odi", "lifting", True)], rules)
    [negative] = link_answers([RawAnswer("p2", 0, "signed", "zero", -0.0)], rules)
    assert math.copysign(1.0, negative.value) == -1.0
    # a failure is not kept: the same answer of another person names that person
    for person, day in (("p3", 5), ("p4", 8)):
        with pytest.raises(DataError, match="^" + re.escape(
                f"cannot translate 'pain_vas:back' answer for person {person} on day {day}: "
                "answer out of range 0-10: 12") + "$"):
            link_answers([RawAnswer(person, 0, "pain_vas", "back", 3),
                          RawAnswer(person, day, "pain_vas", "back", 12)], rules)
