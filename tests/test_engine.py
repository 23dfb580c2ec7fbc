import math
import pickle
import random
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from icfhi import (
    EvaluationError,
    QualifierRecord,
    build_tree,
    compile_records,
    evaluate_table,
    make_spec,
    parse_code,
    parse_gamma,
    qualifiers,
)

from conftest import (
    GAMMA_THIRD_30,
    WORKED_HI,
    WORKED_NODE_ALPHA,
    WORKED_NODE_R,
    WORKED_NODE_X,
    report_on,
    worked_example_records,
)
import oracle
import icfhi.engine as engine
from icfhi.engine import _evaluate_job, _score, _weigh, evaluate_cohort, scale_index
from icfhi.weighting import apply_curve, normalize_weights
from oracle import brute_force_evaluate, brute_force_hi, random_case


def _records(*triples, reliability=1.0):
    """Shorthand: triples of (code, value, day[, reliability[, source]])."""
    out = []
    for i, t in enumerate(triples):
        code, value, day = t[0], t[1], t[2]
        rel = t[3] if len(t) > 3 else reliability
        src = t[4] if len(t) > 4 else f"auto{i}"
        out.append(QualifierRecord("p", day, src, parse_code(code), float(value), rel))
    return out


def _qualifiers(records, day, spec, tree=None):
    """The qualifiers of ``records`` as seen on ``day`` (see engine.qualifiers)."""
    if tree is None:
        tree = build_tree({r.code for r in records})
    return qualifiers(compile_records(tree, records), day, spec.gamma)


def test_nint_half_away_from_zero():
    # on bounds [0, 100] the scaled value is 100 - raw
    def nint(scaled):
        return scale_index(100.0 - scaled, 0.0, 100.0)

    assert nint(0.5) == 1
    assert nint(1.5) == 2
    assert nint(2.5) == 3
    assert nint(2.4999) == 2
    assert nint(-0.5) == -1
    assert nint(70.68973) == 71


def test_scale_anchors():
    assert scale_index(0.0) == 100
    assert scale_index(2.0) == 50
    assert scale_index(4.0) == 0


def test_scale_index_empirical_bounds():
    assert scale_index(0.5, 0.5, 3.5) == 100
    assert scale_index(3.5, 0.5, 3.5) == 0
    assert scale_index(2.0, 0.5, 3.5) == 50
    with pytest.raises(EvaluationError):
        scale_index(1.0, 2.0, 2.0)


# ---------------------------------------------------------------------------
# attachment

def test_attach_worked_example_alphas(worked_records, worked_tree, linear_spec_third):
    quals = _qualifiers(worked_records, 30, linear_spec_third, worked_tree)
    b28010 = quals[parse_code("b28010")]
    assert [(q.value, q.reliability) for q in b28010] == [(2.0, 1.0), (1.0, 0.8)]
    assert b28010[0].alpha == pytest.approx(1.0, abs=1e-15)
    assert b28010[1].alpha == pytest.approx(1.0 / 3.0, abs=1e-12)
    b28013 = quals[parse_code("b28013")]
    assert b28013[0].alpha == pytest.approx(1.0 / 3.0, abs=1e-12)
    b2801 = quals[parse_code("b2801")]
    assert b2801[0].alpha == pytest.approx(1.0, abs=1e-15)
    assert b2801[1].alpha == pytest.approx(GAMMA_THIRD_30 ** 15, abs=1e-12)


def test_attach_shared_source_uniqueness(worked_records, worked_tree, linear_spec_third):
    quals = _qualifiers(worked_records, 30, linear_spec_third, worked_tree)
    shared = [
        q
        for code in ("b28010", "b28013")
        for q in quals[parse_code(code)]
        if q.source_id == "srcB"
    ]
    assert len(shared) == 2
    assert all(q.uniqueness == 0.5 for q in shared)
    solo = [q for q in quals[parse_code("b28010")] if q.source_id == "srcA"]
    assert solo[0].uniqueness == 1.0


def test_uniqueness_scales_with_fanout():
    spec = make_spec(2.0, 1.0)
    for z in (1, 2, 4):
        codes = [f"b280{i}" for i in range(z)]
        records = [
            QualifierRecord("p", 0, "shared", parse_code(c), 2.0, 1.0) for c in codes
        ]
        quals = _qualifiers(records, 0, spec)
        for code in codes:
            (qual,) = quals[parse_code(code)]
            assert qual.uniqueness == pytest.approx(1.0 / z, abs=1e-15)


def test_uniqueness_only_counts_siblings():
    # same source on codes under different parents keeps u = 1
    spec = make_spec(2.0, 1.0)
    records = [
        QualifierRecord("p", 0, "s", parse_code("b280"), 2.0, 1.0),
        QualifierRecord("p", 0, "s", parse_code("d430"), 2.0, 1.0),
    ]
    quals = _qualifiers(records, 0, spec)
    for code in ("b280", "d430"):
        assert quals[parse_code(code)][0].uniqueness == 1.0


def test_attach_rejects_future_and_unknown(worked_tree):
    # a record on a code outside the tree cannot be compiled; records newer
    # than an evaluated day are simply not visible on it
    stranger = [QualifierRecord("p", 0, "s", parse_code("e120"), 1.0, 1.0)]
    with pytest.raises(EvaluationError):
        compile_records(worked_tree, stranger)


@pytest.mark.parametrize("value, reliability, named", [
    (7.0, 1.0, "qualifier value 7.0 outside [0, 4]"),
    (-0.5, 1.0, "qualifier value -0.5 outside [0, 4]"),
    (math.nan, 1.0, "qualifier value nan outside [0, 4]"),
    (2.0, -0.5, "reliability -0.5 outside [0, 1]"),
    (2.0, 1.5, "reliability 1.5 outside [0, 1]"),
    (2.0, math.nan, "reliability nan outside [0, 1]"),
])
def test_compile_rejects_a_record_outside_the_model_ranges(value, reliability, named):
    # so that no compiled table carries a value the curve cannot take or a
    # negative weight
    records = [QualifierRecord("p", 0, "s1", parse_code("b280"), 2.0, 1.0),
               QualifierRecord("p", 1, "s2", parse_code("b2801"), value, reliability)]
    with pytest.raises(EvaluationError) as err:
        compile_records(build_tree({r.code for r in records}), records)
    assert str(err.value) == f"record for ICF code b2801 has {named}"


@pytest.mark.parametrize("gamma", [-0.5, math.nan, 0.0, 1.5])
def test_a_gamma_outside_the_unit_interval_is_one_error_naming_it(gamma):
    # make_spec rejects such a gamma; a hand-built spec must not reach the
    # weighing, where it would make negative, nan or growing time weights
    spec = make_spec(2.0, 1.0)._replace(gamma=gamma)
    records = _records(("b280", 2, 0, 1.0, "a"), ("b2801", 3, 5, 0.5, "b"))
    table = compile_records(build_tree({r.code for r in records}), records)
    named = f"time decay constant gamma must lie in (0, 1], got {gamma!r}"
    for evaluate in (lambda: evaluate_table(table, [0, 5], [make_spec(2.0, 1.0), spec]),
                     lambda: qualifiers(table, 5, gamma)):
        with pytest.raises(EvaluationError) as err:
            evaluate()
        assert str(err.value) == named
    [(pid, error)] = evaluate_cohort([("p", table, [0, 5])], [spec], workers=1)
    assert pid == "p" and isinstance(error, EvaluationError) and str(error) == named


# ---------------------------------------------------------------------------
# node aggregation and the worked example

def test_worked_example_node_value(worked_records, worked_tree, linear_spec_third):
    report = report_on(worked_records, 30, linear_spec_third, tree=worked_tree, audit=True)
    by_code = {a.code: a.result for a in report.audits}
    node = by_code["b2801"]
    assert node.x == pytest.approx(WORKED_NODE_X, abs=1e-9)
    assert node.alpha == pytest.approx(WORKED_NODE_ALPHA, abs=1e-9)
    assert node.reliability == pytest.approx(WORKED_NODE_R, abs=1e-9)


def test_audits_only_on_request(worked_records, worked_tree, linear_spec_third):
    table = compile_records(worked_tree, worked_records)
    [[(_, plain)]] = evaluate_table(table, [30], [linear_spec_third])
    [[(_, audited)]] = evaluate_table(table, [30], [linear_spec_third], audit=True)
    assert plain.audits is None
    assert [a.code for a in audited.audits] == ["b2801", "b280", "b2", "b", ""]
    assert audited._replace(audits=None) == plain


def test_report_round_trips_through_pickle(worked_records, worked_tree, linear_spec_third):
    # a process pool sends every report back pickled
    for audit in (False, True):
        report = report_on(worked_records, 30, linear_spec_third, tree=worked_tree, audit=audit)
        copy = pickle.loads(pickle.dumps(report))
        assert type(copy) is type(report) and copy == report
        assert copy.index == report.index == WORKED_HI


def test_worked_example_health_index(worked_records, worked_tree, linear_spec_third):
    report = report_on(worked_records, 30, linear_spec_third, tree=worked_tree)
    assert report.raw == pytest.approx(WORKED_NODE_X, abs=1e-9)
    assert report.index == WORKED_HI
    # independent recursive evaluator agrees
    plain = [(r.code.text, r.value, r.day, r.reliability, r.source_id)
             for r in worked_example_records()]
    assert brute_force_hi(plain, GAMMA_THIRD_30, 30) == WORKED_HI


def test_single_direct_qualifier_passes_through():
    spec = make_spec(2.0, 1.0)
    assert report_on(_records(("b280", 3, 0)), 0, spec).raw == pytest.approx(3.0, abs=1e-12)


def test_two_equal_children_average():
    spec = make_spec(2.0, 1.0)
    records = _records(("b2800", 2, 0), ("b2801", 2, 0))
    assert report_on(records, 0, spec).raw == pytest.approx(2.0, abs=1e-12)


def test_two_equal_children_nonlinear_curve_at_node():
    # equal weights mean the parent's value is exactly f(2) = y
    spec = make_spec(0.75, 1.0)
    records = _records(("b2800", 2, 0), ("b2801", 2, 0))
    report = report_on(records, 0, spec, audit=True)
    parent = next(a.result for a in report.audits if a.code == "b280")
    assert parent.x == pytest.approx(0.75, abs=1e-9)


def test_component_without_data_has_no_audit_or_score():
    spec = make_spec(2.0, 1.0)
    tree = build_tree({"b280", "d450"})
    report = report_on(_records(("b280", 2, 0)), 0, spec, tree=tree, audit=True)
    assert [a.code for a in report.audits] == ["b2", "b", ""]
    assert set(report.components) == {"b"}


def test_all_zero_qualifiers_score_100():
    spec = make_spec(2.0, GAMMA_THIRD_30)
    records = _records(("b28013", 0, 0), ("d450", 0, 3), ("b780", 0, 5))
    assert report_on(records, 5, spec).index == 100


def test_all_four_qualifiers_score_0():
    spec = make_spec(2.0, GAMMA_THIRD_30)
    records = _records(("b28013", 4, 0), ("d450", 4, 3), ("b780", 4, 5))
    assert report_on(records, 5, spec).index == 0


def test_raw_two_scores_50():
    spec = make_spec(2.0, 1.0)
    assert report_on(_records(("b280", 2, 0)), 0, spec).index == 50


def test_empty_tree_evaluation_fails():
    spec = make_spec(2.0, 1.0)
    tree = build_tree({"b280"})
    # no record is visible, so there is no report
    assert report_on([], 0, spec, tree=tree) is None


def test_all_zero_reliability_is_degenerate():
    spec = make_spec(2.0, 1.0)
    records = _records(("b280", 2, 0, 0.0), ("b2800", 1, 0, 0.0))
    with pytest.raises(EvaluationError) as err:
        report_on(records, 0, spec)
    assert "zero" in str(err.value)


@pytest.mark.parametrize("triples, label", [
    ([("b280", 2, 0)], "b2"),
    ([("b", 2, 0), ("d", 1, 0)], "root"),
])
def test_a_node_whose_weights_are_all_zero_is_named_in_the_error(triples, label):
    # r = 0 on every record: the log-space weighing finds no weight either
    records = _records(*triples, reliability=0.0)
    with pytest.raises(EvaluationError) as err:
        report_on(records, 0, make_spec(2.0, 1.0))
    assert str(err.value) == (f"all contribution weights at node {label} are zero "
                              "(reliability and/or time weights vanish); the node "
                              "cannot be aggregated")


def test_a_bare_component_whose_only_record_underflows_scores_its_value():
    # the b record is 8000 days old, so its one weight underflows to zero;
    # weighed from its log time weight, it is the whole of its component
    spec = make_spec(2.0, parse_gamma("1/20@30"))
    records = _records(("b", 3, 0), ("d450", 1, 8000))
    assert spec.gamma ** 8000 == 0.0
    report = report_on(records, 8000, spec)
    assert report.components["b"] == 3.0


def test_long_horizon_underflow_is_evaluated():
    # the b280 record is 8000 days old: its time weight 20**(-8000/30)
    # underflows to zero, which alone must not stop the evaluation
    spec = make_spec(2.0, parse_gamma("1/20@30"))
    records = _records(("b280", 3, 0), ("d450", 1, 8000))
    tree = build_tree({r.code for r in records})
    report = report_on(records, 8000, spec, tree=tree)
    assert report is not None
    assert report.raw == report_on(records[1:], 8000, spec, tree=tree).raw
    assert report.components["b"] == pytest.approx(3.0, abs=1e-12)


@pytest.mark.parametrize("y", [0.75, 2.0, 3.25])
def test_old_records_alone_keep_their_day_zero_raw(y):
    # every time weight underflows at day 8000; the weights still rank as
    # they do on day 0, where the records are new
    spec = make_spec(y, parse_gamma("1/20@30"))
    records = _records(("b28010", 3, 0, 0.7, "a"), ("b28013", 1, 0, 0.9, "b"))
    tree = build_tree({r.code for r in records})
    old = report_on(records, 8000, spec, tree=tree)
    assert old.raw == pytest.approx(report_on(records, 0, spec, tree=tree).raw,
                                          abs=1e-12)


@pytest.mark.parametrize("y", [0.75, 2.0, 3.25])
def test_audits_where_every_time_weight_underflows_keep_the_day_zero_weights(y):
    # every time weight underflows at day 8000, so the day is weighed from
    # log time weights, and the audit reads those weights
    spec = make_spec(y, parse_gamma("1/20@30"))
    records = _records(("b28010", 3, 0, 0.7, "a"), ("b28013", 1, 0, 0.9, "b"))
    assert spec.gamma ** 8000 == 0.0
    table = compile_records(build_tree({r.code for r in records}), records)
    [[(_, new), (_, old)]] = evaluate_table(table, [0, 8000], [spec], audit=True)
    assert [a.code for a in old.audits] == [a.code for a in new.audits]
    for old_audit, new_audit in zip(old.audits, new.audits):
        assert old_audit.normalized_weights == pytest.approx(new_audit.normalized_weights,
                                                             abs=1e-12), old_audit.code
    assert _score(_weigh(table, 8000, spec.gamma, audit=True), spec) == old


@pytest.mark.parametrize("day", [7300, 7379, 7409])
def test_subnormal_time_weights_keep_the_day_zero_raw(day):
    # 20**(-day/30) is subnormal on these days: normalized as they are,
    # such weights keep a few significant bits and move raw in the fourth digit
    spec = make_spec(2.0, parse_gamma("1/20@30"))
    records = _records(("b28010", 3, 0, 0.7, "a"), ("b28013", 1, 0, 0.9, "b"))
    assert 0.0 < spec.gamma ** day < sys.float_info.min
    tree = build_tree({r.code for r in records})
    old = report_on(records, day, spec, tree=tree)
    assert old.raw == pytest.approx(report_on(records, 0, spec, tree=tree).raw,
                                          abs=1e-12)


def test_interior_node_direct_qualifiers_not_double_counted():
    # a mid-tree node with its own qualifier and a child qualifier: the
    # grandparent must see the node only through its calculated value
    spec = make_spec(2.0, 1.0)
    records = _records(("b2801", 4, 0), ("b28010", 0, 0))
    raw = report_on(records, 0, spec).raw
    plain = [("b2801", 4.0, 0, 1.0, "a"), ("b28010", 0.0, 0, 1.0, "b")]
    expected, *_ = brute_force_evaluate(plain, 1.0, 0)
    assert raw == pytest.approx(expected, abs=1e-12)
    assert raw == pytest.approx(2.0, abs=1e-12)


def test_repeat_evaluation_is_identical(worked_records, worked_tree, linear_spec_third):
    table = compile_records(worked_tree, worked_records)
    first = evaluate_table(table, [30], [linear_spec_third])
    second = evaluate_table(table, [30], [linear_spec_third])
    assert first == second


def test_nonlinear_curve_applied_at_every_node():
    spec = make_spec(0.75, 1.0)
    raw = report_on(_records(("b28010", 2, 0)), 0, spec).raw
    # leaf flows raw value 2 to b2801; each computed ancestor applies f
    f = lambda x: 0.225 * math.exp(math.log(13 / 3) / 2 * x) - 0.225
    expected = 2.0
    for _ in range(5):  # b2801, b280, b2, b, root
        expected = f(expected)
    assert raw == pytest.approx(expected, abs=1e-9)


# ---------------------------------------------------------------------------
# profiles

def test_profile_single_component(worked_records, worked_tree, linear_spec_third):
    components = report_on(worked_records, 30, linear_spec_third, tree=worked_tree).components
    assert set(components) == {"b"}
    assert scale_index(components["b"]) == WORKED_HI
    assert components["b"] == pytest.approx(WORKED_NODE_X, abs=1e-9)


def test_profile_components_scored_independently():
    spec = make_spec(2.0, 1.0)
    records = _records(("b280", 0, 0), ("d450", 4, 0))
    report = report_on(records, 0, spec)
    components = report.components
    assert scale_index(components["b"]) == 100
    assert scale_index(components["d"]) == 0
    assert "s" not in components and "e" not in components
    assert report.index == 50


def test_profile_leaf_component_reported():
    # data attached directly on a bare component letter
    spec = make_spec(2.0, 1.0)
    records = _records(("b", 1, 0), ("d450", 3, 0))
    components = report_on(records, 0, spec).components
    assert components["b"] == pytest.approx(1.0, abs=1e-12)
    assert components["d"] == pytest.approx(3.0, abs=1e-12)


# ---------------------------------------------------------------------------
# trajectories

def test_trajectory_single_day():
    spec = make_spec(2.0, GAMMA_THIRD_30)
    records = _records(("b28013", 2, 0))
    [out] = evaluate_table(compile_records(build_tree({"b28013"}), records), [0], [spec])
    assert len(out) == 1
    assert out[0][0] == 0 and out[0][1].index == 50


def test_trajectory_none_before_first_record():
    spec = make_spec(2.0, 1.0)
    tree = build_tree({"b280"})
    [out] = evaluate_table(compile_records(tree, _records(("b280", 2, 5))), [0, 5], [spec])
    assert out[0] == (0, None)
    assert out[1][1].index == 50
    assert evaluate_table(compile_records(tree, []), [0, 5], [spec]) == [[(0, None), (5, None)]]


def test_trajectory_leafness_comes_from_the_tree():
    # b280 is a leaf on its own tree; on a cohort tree that also holds
    # b2800 it is calculated, so the curve applies once more
    spec = make_spec(0.75, 1.0)
    records = _records(("b280", 2, 0))
    f = lambda x: apply_curve(spec, x)
    [[(_, own)]] = evaluate_table(compile_records(build_tree({"b280"}), records), [0], [spec])
    cohort_tree = build_tree({"b280", "b2800"})
    [[(_, cohort)]] = evaluate_table(compile_records(cohort_tree, records), [0], [spec])
    assert own.raw == pytest.approx(f(f(f(2.0))), abs=1e-12)
    assert cohort.raw == pytest.approx(f(f(f(f(2.0)))), abs=1e-12)


def test_trajectory_constant_without_decay_or_new_data():
    spec = make_spec(2.0, 1.0)
    records = _records(("b28013", 3, 0), ("b780", 1, 0))
    table = compile_records(build_tree({"b28013", "b780"}), records)
    [out] = evaluate_table(table, [0, 10, 40], [spec])
    values = [report.index for _, report in out]
    assert values[0] == values[1] == values[2]


def test_trajectory_improving_person_rises():
    spec = make_spec(2.0, GAMMA_THIRD_30)
    records = _records(
        ("b28013", 4, 0), ("b28013", 3, 10), ("b28013", 2, 20), ("b28013", 1, 30),
    )
    table = compile_records(build_tree({"b28013"}), records)
    [out] = evaluate_table(table, [0, 10, 20, 30], [spec])
    values = [report.index for _, report in out]
    assert values[-1] > values[0]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_trajectory_requires_sorted_days():
    spec = make_spec(2.0, 1.0)
    with pytest.raises(EvaluationError) as err:
        evaluate_table(compile_records(build_tree({"b280"}), _records(("b280", 1, 0))),
                       [10, 0], [spec])
    assert str(err.value) == "evaluation days must be sorted ascending"


def test_evaluation_days_may_be_an_iterator():
    # the days are read once, so an iterator gives the reports of its list
    table = compile_records(build_tree({"b280"}), _records(("b280", 1, 0), ("b280", 3, 5)))
    specs = [make_spec(2.0, 1.0), make_spec(1.0, GAMMA_THIRD_30)]
    assert evaluate_table(table, iter([0, 5]), specs) == evaluate_table(table, [0, 5], specs)
    with pytest.raises(EvaluationError, match="^evaluation days must be sorted ascending$"):
        evaluate_table(table, iter([5, 0]), specs)


def test_uniqueness_counts_a_source_reused_on_a_later_day():
    # a source on two siblings on day 0 and on a third sibling on day 10:
    # u is 1/2 as of day 5 and 1/3 from day 10 on
    spec = make_spec(2.0, 1.0)
    records = _records(("b2800", 4, 0, 1.0, "s"), ("b2801", 4, 0, 1.0, "s"),
                       ("b2809", 0, 0, 1.0, "solo"), ("b2802", 1, 10, 1.0, "s"))
    tree = build_tree({r.code for r in records})
    early = [r for r in records if r.day <= 5]
    assert [q.uniqueness for q in _qualifiers(early, 5, spec, tree)[parse_code("b2800")]] \
        == [0.5]
    later = _qualifiers(records, 10, spec, tree)
    assert [later[parse_code(c)][0].uniqueness for c in ("b2800", "b2801", "b2802")] \
        == [1.0 / 3.0] * 3
    [trajectory] = evaluate_table(compile_records(tree, records), [5, 10], [spec])
    # the shared source keeps half of the weight at b280, spread over its
    # records: (4 + 4) / 2 / 2 on day 5, (4 + 4 + 1) / 3 / 2 on day 10
    assert trajectory[0][1].raw == pytest.approx(2.0, abs=1e-12)
    assert trajectory[1][1].raw == pytest.approx(1.5, abs=1e-12)
    assert trajectory[1][1] == report_on(records, 10, spec, tree=tree)


# ---------------------------------------------------------------------------
# the compiled trajectory kernel against the single-day path and the oracle

KERNEL_YS = (0.2, 0.75, 2.0, 3.25, 3.8)
KERNEL_GAMMAS = ("1/20@30", "1/3@30", "1")


def _random_cohort(seed, n_persons=4):
    """Multi-day persons: each source of an oracle case gets a day, and two
    sources come back on a later day under the same parent, so their fanout
    u grows over time.  Returns the persons' records and a cohort tree that
    also holds a child of some record codes (a leaf for the person, not for
    the tree)."""
    rng = random.Random(seed)
    persons = []
    for p in range(n_persons):
        case, _, _ = random_case(seed * 100 + p, int_values=False)
        days = sorted(rng.sample(range(90), rng.randint(2, 5)))
        day_of = {}
        records = [QualifierRecord(f"p{p}", day_of.setdefault(src, rng.choice(days)), src,
                                   parse_code(code), value, rel)
                   for code, value, _, rel, src in case]
        for old in rng.sample(records, min(2, len(records))):
            records.append(QualifierRecord(old.person_id, old.day + rng.randint(1, 30),
                                           old.source_id, old.code, rng.uniform(0, 4),
                                           old.reliability))
        persons.append(records)
    codes = {r.code for records in persons for r in records}
    extra = {parse_code(c.text + {0: "1", 1: "01", 2: "1", 3: "1"}[c.level])
             for c in rng.sample(sorted(codes), len(codes) // 3) if c.level < 4}
    return persons, build_tree(codes | extra)


@pytest.mark.parametrize("seed", range(8))
def test_trajectory_kernel_matches_single_day_path_and_oracle(seed, monkeypatch):
    persons, tree = _random_cohort(seed)
    # the oracle derives its tree from the records: give it the cohort's
    cohort_texts = {c.text for c in tree.codes}
    children_map = oracle.children_map
    monkeypatch.setattr(oracle, "children_map", lambda _texts: children_map(cohort_texts))
    for records in persons:
        table = compile_records(tree, records)
        record_days = sorted({r.day for r in records})
        days = [record_days[0] - 1, *record_days, record_days[-1] + 7]
        for gamma_text in KERNEL_GAMMAS:
            # one weight plan per day serves every y of its gamma, with or without audits
            plans = {audit: [(day, _weigh(table, day, parse_gamma(gamma_text), audit))
                             for day in days] for audit in (False, True)}
            for y in KERNEL_YS:
                spec = make_spec(y, parse_gamma(gamma_text))
                [trajectory] = evaluate_table(table, days, [spec])
                assert [day for day, _ in trajectory] == days
                for audit, day_plans in plans.items():
                    assert [[(day, None if plan is None else _score(plan, spec))
                             for day, plan in day_plans]] \
                        == evaluate_table(table, days, [spec], audit=audit)
                for day, report in trajectory:
                    visible = [r for r in records if r.day <= day]
                    if not visible:
                        assert report is None
                        continue
                    assert report == report_on(visible, day, spec, tree=tree)
                    plain = [(r.code.text, r.value, r.day, r.reliability, r.source_id)
                             for r in visible]
                    raw, alpha, rel, _ = brute_force_evaluate(
                        plain, spec.gamma, day, lambda x: apply_curve(spec, x))
                    label = f"seed {seed} {records[0].person_id} day {day} {gamma_text} y={y}"
                    assert report.raw == pytest.approx(raw, abs=1e-9), label
                    assert report.alpha == pytest.approx(alpha, abs=1e-9), label
                    assert report.reliability == pytest.approx(rel, abs=1e-9), label


@pytest.mark.parametrize("seed", range(8))
def test_audit_weights_of_nodes_without_calculated_children_come_from_the_qualifiers(seed):
    # alpha*r for the node's own records, then alpha*r*u for each leaf
    # child's records, in tree child order, normalized
    persons, tree = _random_cohort(seed)
    checked = 0
    for records in persons:
        table = compile_records(tree, records)
        for gamma_text in KERNEL_GAMMAS:
            gamma = parse_gamma(gamma_text)
            for day in sorted({r.day for r in records}):
                seen = qualifiers(table, day, gamma)
                [[(_, report)]] = evaluate_table(table, [day], [make_spec(2.0, gamma)],
                                                 audit=True)
                calculated = {audit.code for audit in report.audits}
                for audit in report.audits:
                    children = [tree.slot_codes[child]
                                for child in tree.child_slots[tree.slots[audit.code or None]]]
                    if calculated.intersection(children):
                        continue
                    weights = [q.alpha * q.reliability for q in seen.get(audit.code, ())]
                    for child in children:
                        weights += [q.alpha * q.reliability * q.uniqueness
                                    for q in seen.get(child, ())]
                    assert list(audit.normalized_weights) == normalize_weights(weights), \
                        f"seed {seed} day {day} {gamma_text} {audit.code}"
                    checked += 1
    assert checked > 0


@pytest.mark.parametrize("seed", range(30))
def test_record_order_does_not_change_any_report(seed):
    # a table groups each node's records in record order and sums them
    # with fsum, so shuffled records give == reports on every day,
    # including one where every time weight but gamma = 1's underflows
    persons, tree = _random_cohort(seed)
    rng = random.Random(seed)
    specs = [make_spec(y, parse_gamma(text)) for text in KERNEL_GAMMAS for y in KERNEL_YS]
    assert parse_gamma("1/3@30") ** 30_000 == 0.0
    for records in persons:
        shuffled = records[:]
        rng.shuffle(shuffled)
        record_days = sorted({r.day for r in records})
        days = [record_days[0] - 1, *record_days, record_days[-1] + 7,
                record_days[-1] + 30_000]
        assert evaluate_table(compile_records(tree, shuffled), days, specs) \
            == evaluate_table(compile_records(tree, records), days, specs), f"seed {seed}"


def test_a_source_on_several_days_has_its_u_counted_per_day():
    # _random_cohort brings sources back on later days, so their tables
    # count u on each day; every other table fixes u = 1/z when compiled
    tables = []
    for seed in range(8):
        persons, tree = _random_cohort(seed)
        tables += [compile_records(tree, records) for records in persons]
    assert any(table.spread for table in tables)
    records = _records(("b2800", 4, 0, 1.0, "s"), ("b2801", 4, 0, 1.0, "s"))
    table = compile_records(build_tree({r.code for r in records}), records)
    assert (table.sources, table.us, table.spread) == (("s",), (0.5,), ())


def test_cohort_job_groups_specs_by_gamma_in_spec_order():
    persons, tree = _random_cohort(3)
    gammas = [parse_gamma(text) for text in KERNEL_GAMMAS]
    # gamma interleaved, so that grouping must restore the spec order
    specs = [make_spec(y, gammas[i % 3]) for i, y in enumerate((0.75, 2.0, 3.25, 2.0, 0.2, 3.8,
                                                                 1.4))]
    for records in persons:
        job = ("p", compile_records(tree, records), sorted({r.day for r in records}))
        pid, rows = _evaluate_job(specs, job)
        assert pid == "p"
        assert rows == [_evaluate_job([spec], job)[1][0] for spec in specs]


def test_an_audit_weighs_each_day_once_per_gamma(monkeypatch):
    # the audit comes from the plan its day was weighed for, not from a
    # second weighing per spec
    persons, tree = _random_cohort(3)
    specs = [make_spec(y, parse_gamma(text)) for text in KERNEL_GAMMAS for y in KERNEL_YS]
    calls = []
    weigh = engine._weigh

    def counted(*args, **kwargs):
        calls.append(args)
        return weigh(*args, **kwargs)

    monkeypatch.setattr(engine, "_weigh", counted)
    for records in persons:
        record_days = sorted({r.day for r in records})
        days = [record_days[0] - 1, *record_days]
        calls.clear()
        [reports, *_] = evaluate_table(compile_records(tree, records), days, specs, audit=True)
        assert all(report.audits for _, report in reports[1:])
        assert len(calls) == len(days) * len(KERNEL_GAMMAS)


def _case_records(seed, shift=0):
    records, gamma, ref = random_case(seed, int_values=False)
    return ([QualifierRecord("p", day + shift, src, parse_code(code), value, rel)
             for code, value, day, rel, src in records], gamma, ref + shift)


@given(st.integers(0, 10_000), st.integers(-5_000, 100_000))
def test_shifting_every_day_leaves_the_evaluation_bit_identical(seed, k):
    records, gamma, ref = _case_records(seed)
    shifted, _, shifted_ref = _case_records(seed, k)
    spec = make_spec(2.0, gamma)
    base, moved = report_on(records, ref, spec), report_on(shifted, shifted_ref, spec)
    assert (moved.raw, moved.alpha, moved.reliability) \
        == (base.raw, base.alpha, base.reliability)


@given(st.integers(0, 10_000), st.integers(1, 2_000), st.sampled_from((0.75, 2.0, 3.25)))
def test_moving_the_reference_day_alone_leaves_raw(seed, k, y):
    # every time weight is multiplied by gamma**k, which normalization cancels
    records, gamma, ref = _case_records(seed)
    spec = make_spec(y, gamma)
    moved = report_on(records, ref + k, spec)
    assert moved.raw == pytest.approx(report_on(records, ref, spec).raw, abs=1e-12)


@given(st.integers(0, 10_000), st.floats(700.0, 2_000.0), st.data())
def test_an_underflowing_record_changes_raw_by_at_most_its_weight(seed, decay, data):
    # one record old enough that gamma**age = exp(-decay) < 1e-300, which is
    # zero in floats beyond decay 745, next to the recent records of a
    # random case: on one of their codes, or alone on a branch of its own
    records, gamma, ref = random_case(seed, int_values=False)
    age = math.ceil(decay / -math.log(gamma))
    codes = sorted(oracle.closure({code for code, *_ in records})) + ["b1", "d4500", "s750"]
    old = QualifierRecord("p", 0, "old", parse_code(data.draw(st.sampled_from(codes))),
                          data.draw(st.floats(0.0, 4.0)), data.draw(st.floats(0.2, 1.0)))
    assert gamma ** age < 1e-300
    recent = [QualifierRecord("p", day + age, src, parse_code(code), value, rel)
              for code, value, day, rel, src in records]
    # one tree for both evaluations, so that leaves stay leaves
    tree = build_tree({r.code for r in recent} | {old.code})
    spec = make_spec(data.draw(st.sampled_from((0.75, 2.0, 3.25))), gamma)
    with_old = report_on([old, *recent], ref + age, spec, tree=tree)
    without = report_on(recent, ref + age, spec, tree=tree)
    assert with_old.raw == pytest.approx(without.raw, abs=1e-12)


# ---------------------------------------------------------------------------
# property suite against the independent oracle

def test_oracle_equivalence_on_random_trees():
    for seed in range(300):
        records, gamma, ref = random_case(seed)
        spec = make_spec(2.0, gamma)
        qrecords = [
            QualifierRecord("p", day, src, parse_code(code), value, rel)
            for code, value, day, rel, src in records
        ]
        report = report_on(qrecords, ref, spec, audit=True)
        raw, alpha, rel_, per_node = brute_force_evaluate(records, gamma, ref)
        assert report.raw == pytest.approx(raw, abs=1e-9), f"seed {seed}"
        assert report.alpha == pytest.approx(alpha, abs=1e-9), f"seed {seed}"
        assert report.reliability == pytest.approx(rel_, abs=1e-9), f"seed {seed}"
        # every calculated node agrees, not only the root
        engine_nodes = {a.code: a.result for a in report.audits if a.code}
        assert set(engine_nodes) == set(per_node), f"seed {seed}"
        for code, (x, a, r) in per_node.items():
            assert engine_nodes[code].x == pytest.approx(x, abs=1e-9), f"seed {seed} {code}"
        # normalized weights always sum to one
        for audit in report.audits:
            assert math.fsum(audit.normalized_weights) == pytest.approx(1.0, abs=1e-12)
        # alpha and reliability stay inside [0, 1]
        for result in engine_nodes.values():
            assert -1e-12 <= result.alpha <= 1 + 1e-12
            assert -1e-12 <= result.reliability <= 1 + 1e-12


def test_processing_is_input_order_independent():
    rng = random.Random(7)
    for seed in range(40):
        records, gamma, ref = random_case(seed)
        spec = make_spec(2.0, gamma)
        qrecords = [
            QualifierRecord("p", day, src, parse_code(code), value, rel)
            for code, value, day, rel, src in records
        ]
        baseline = report_on(qrecords, ref, spec).raw
        shuffled = qrecords[:]
        rng.shuffle(shuffled)
        assert report_on(shuffled, ref, spec).raw == pytest.approx(
            baseline, abs=1e-12
        )


def test_monotonic_in_qualifier_values():
    for seed in range(120):
        records, gamma, ref = random_case(seed, int_values=True)
        spec = make_spec(2.0, gamma)
        base_records = [
            QualifierRecord("p", day, src, parse_code(code), value, rel)
            for code, value, day, rel, src in records
        ]
        base = report_on(base_records, ref, spec).index
        rng = random.Random(seed)
        i = rng.randrange(len(base_records))
        bumped = base_records[:]
        old = bumped[i]
        if old.value >= 4.0:
            continue
        bumped[i] = QualifierRecord(
            old.person_id, old.day, old.source_id, old.code, old.value + 1.0, old.reliability
        )
        assert report_on(bumped, ref, spec).index <= base, f"seed {seed}"


def test_gamma_one_is_day_permutation_invariant():
    spec = make_spec(2.0, 1.0)
    rng = random.Random(123)
    for seed in range(40):
        records, _, ref = random_case(seed)
        qrecords = [
            QualifierRecord("p", day, src, parse_code(code), value, rel)
            for code, value, day, rel, src in records
        ]
        baseline = report_on(qrecords, ref, spec).raw
        days = [r.day for r in qrecords]
        rng.shuffle(days)
        permuted = [
            QualifierRecord(r.person_id, d, r.source_id, r.code, r.value, r.reliability)
            for r, d in zip(qrecords, days)
        ]
        assert report_on(permuted, ref, spec).raw == pytest.approx(
            baseline, abs=1e-12
        )


def test_linear_raw_bounded_by_contributions():
    for seed in range(60):
        records, gamma, ref = random_case(seed, int_values=False)
        spec = make_spec(2.0, gamma)
        qrecords = [
            QualifierRecord("p", day, src, parse_code(code), value, rel)
            for code, value, day, rel, src in records
        ]
        raw = report_on(qrecords, ref, spec).raw
        values = [r.value for r in qrecords]
        assert min(values) - 1e-9 <= raw <= max(values) + 1e-9
