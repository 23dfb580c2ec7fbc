import csv
import json
import pickle
import random
import re

import pytest

from icfhi import (
    ConfigError,
    DataError,
    QualifierRecord,
    RawAnswer,
    RuleSet,
    SynthConfig,
    apply_rules,
    default_rules,
    load_rules,
    parse_code,
    records_from_csv,
    records_to_csv,
    synthesize,
)

from conftest import shipped_translation

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

def test_default_rules_round_trip():
    rules = default_rules()
    clone = RuleSet.from_json(rules.to_json())
    assert clone.to_json() == rules.to_json()
    assert len(clone) == len(rules)


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
        rows = [i for i, (source, _) in enumerate(sources) if source == answer.source_id]
        assert rows == list(range(rows[0], rows[0] + len(rows)))
        targets = rules.get(answer.source_item_id).targets
        assert [sources[i][1] for i in rows] == [c.text for c in sorted(targets)]


def test_records_and_answers_are_slotted_and_pickle():
    record = QualifierRecord("p", 0, "p:0:odi:lifting", parse_code("b7305"), 3.0, 1.0)
    answer = RawAnswer("p", 0, "odi", "lifting", 4.0)
    assert QualifierRecord._fields == ("person_id", "day", "source_id", "code", "value",
                                       "reliability")
    assert RawAnswer._fields == ("person_id", "day", "instrument", "item", "value")
    assert (answer.source_item_id, answer.source_id) == ("odi:lifting", "p:0:odi:lifting")
    for obj in (record, answer):
        assert not hasattr(obj, "__dict__")
        copy = pickle.loads(pickle.dumps(obj))
        assert copy == obj and hash(copy) == hash(obj)
        with pytest.raises(AttributeError):
            obj.day = 1


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
