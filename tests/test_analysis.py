import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.stats import pearsonr
from scipy.stats import t as student_t

from icfhi import (
    CohortStore,
    DataError,
    EvaluationError,
    GroupSpec,
    InsufficientDataError,
    Person,
    RawAnswer,
    RuleSet,
    WeightingSpec,
    apply_rules,
    compile_records,
    default_rules,
    evaluate_table,
    make_spec,
    validate,
)

from icfhi.analysis import (DEFAULT_ALPHA, CohortEvaluator, _cell, _sequence_bins, _split,
                            eqvas_vs_hi, form_groups, max_pain_by_day, maxpain_vs_hi, pearson)
from icfhi.cohort import SynthConfig, synthesize
from icfhi.engine import evaluate_cohort
from icfhi.formatting import format_cell
from icfhi.weighting import fit_curve

from conftest import (
    GAMMA_THIRD_30,
    GAMMA_TWENTIETH_30,
    UNRATED_RULE,
    default_rules_json,
    run_python,
)


def _person_with_days(pid, days):
    return Person(pid, [RawAnswer(pid, d, "pain_vas", "back", 3.0) for d in days])


def test_form_groups_predicates():
    specs = [GroupSpec(90, 10), GroupSpec(30, 5)]
    store = CohortStore([
        # duration 95, sequence 12: in both groups
        _person_with_days("both", [0, 9, 18, 27, 36, 45, 54, 63, 72, 81, 90, 95]),
        # duration 98, sequence 8: only the (30, 5) group
        _person_with_days("thirty_only", [0, 20, 40, 60, 95, 96, 97, 98]),
        # duration 10: neither
        _person_with_days("neither", [0, 5, 10]),
        # listed only in persons.csv: no days, so no treatment stats
        Person("listed_only"),
    ])
    groups = form_groups(store, specs)
    assert groups[specs[0]] == ["both"]
    assert groups[specs[1]] == ["both", "thirty_only"]
    # a repeated group lists each of its persons once
    assert form_groups(store, [specs[1], specs[1]]) == {specs[1]: ["both", "thirty_only"]}


def test_pearson_perfect_and_inverse():
    assert pearson([1, 2, 3], [2, 4, 6])[0] == pytest.approx(1.0, abs=1e-15)
    assert pearson([1, 2, 3], [6, 4, 2])[0] == pytest.approx(-1.0, abs=1e-15)


def test_pearson_hand_example():
    r, p = pearson([1, 2, 3, 4], [1, 3, 2, 4])
    assert r == pytest.approx(0.8, abs=1e-12)
    ref_r, ref_p = pearsonr([1, 2, 3, 4], [1, 3, 2, 4])
    assert r == pytest.approx(ref_r, abs=1e-12)
    assert p == pytest.approx(ref_p, abs=1e-12)


def test_pearson_matches_scipy_on_random_data():
    rng = np.random.default_rng(5)
    for n in (3, 7, 30, 200):
        xs = rng.normal(size=n)
        ys = 0.4 * xs + rng.normal(size=n)
        r, p = pearson(list(xs), list(ys))
        ref_r, ref_p = pearsonr(xs, ys)
        assert r == pytest.approx(float(ref_r), abs=1e-12)
        assert p == pytest.approx(float(ref_p), abs=1e-10)


def test_pearson_matches_textbook_two_pass():
    from oracle import two_pass_pearson

    rng = np.random.default_rng(17)
    for n in (5, 12, 64, 300):
        xs = list(rng.uniform(-10, 10, size=n))
        ys = list(0.7 * np.asarray(xs) + rng.normal(size=n) * 3)
        r, _ = pearson(xs, ys)
        assert r == pytest.approx(two_pass_pearson(xs, ys), abs=1e-12)


@given(st.lists(st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)), min_size=3,
                max_size=60))
def test_pearson_p_is_the_student_t_survival_function(pairs):
    xs, ys = zip(*pairs)
    result = pearson(xs, ys)
    if result is None or abs(result[0]) == 1.0:
        return
    r, p = result
    n = len(pairs)
    t = r * math.sqrt((n - 2) / (1.0 - r * r))
    assert p == min(2.0 * float(student_t.sf(abs(t), n - 2)), 1.0)


def test_pearson_loads_no_scipy_stats():
    proc = run_python("-c", "import sys; from icfhi.analysis import pearson; "
                            "pearson([1, 2, 3, 4], [1, 3, 2, 4]); "
                            "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_importing_analysis_loads_neither_numpy_nor_scipy():
    # the statistics import them where they first need them
    proc = run_python("-c", "import sys, icfhi.analysis; "
                            "print(sorted(m for m in ('numpy', 'scipy') if m in sys.modules))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_pearson_zero_variance_is_undefined():
    assert pearson([1, 1, 1], [1, 2, 3]) is None
    assert pearson([1, 2, 3], [5, 5, 5]) is None


def test_pearson_of_tiny_values_is_scale_free():
    # sxx * syy underflows to zero although neither series is constant
    r, p = pearson([0.0, 0.0, 1e-125], [0.0, 1e-120, 0.0])
    assert (r, p) == pytest.approx(pearson([0, 0, 1], [0, 1, 0]), abs=1e-12)


def test_pearson_preconditions():
    with pytest.raises(ValueError):
        pearson([1, 2], [1, 2])
    with pytest.raises(ValueError):
        pearson([1, 2, 3], [1, 2])


def test_max_pain_by_day():
    person = Person("p", [
        RawAnswer("p", 0, "pain_vas", "back", 3.0),
        RawAnswer("p", 0, "pain_vas", "neck", 7.0),
        RawAnswer("p", 0, "machine", "f110", 99.0),
        RawAnswer("p", 5, "pain_vas", "back", 2.0),
    ])
    assert max_pain_by_day(person) == {0: 7.0, 5: 2.0}


def _coupled_store(n_persons=60, seed=1):
    """Persons whose pain falls linearly and EQ-VAS mirrors health exactly."""
    rng = np.random.default_rng(seed)
    persons = []
    for i in range(n_persons):
        pid = f"c{i:03d}"
        n_days = int(rng.integers(4, 12))
        days = [0] + sorted(rng.choice(np.arange(1, 120), size=n_days - 1, replace=False))
        start_pain = int(rng.integers(6, 11))
        answers, eqvas = [], {}
        for j, day in enumerate(days):
            pain = max(0, round(start_pain * (1 - j / max(len(days) - 1, 1))))
            answers.append(RawAnswer(pid, int(day), "pain_vas", "back", float(pain)))
            eqvas[int(day)] = float(100 - 10 * pain)
        persons.append(Person(pid, answers, eqvas))
    return CohortStore(persons)


def test_eqvas_vs_hi_strong_coupling():
    store = _coupled_store()
    evaluator = CohortEvaluator(store, default_rules())
    spec = make_spec(2.0, GAMMA_THIRD_30)
    report = eqvas_vs_hi(evaluator, store.person_ids, spec)
    assert report.n == sum(len(p.eqvas) for p in store)
    assert report.coefficient > 0.9
    assert report.bonferroni_significant


def test_eqvas_vs_hi_null_is_near_zero():
    rng = np.random.default_rng(2)
    persons = []
    for i in range(250):
        pid = f"n{i:03d}"
        days = [0, 10, 20]
        answers = [RawAnswer(pid, d, "pain_vas", "back", float(rng.integers(0, 11)))
                   for d in days]
        eqvas = {d: float(rng.integers(0, 101)) for d in days}
        persons.append(Person(pid, answers, eqvas))
    store = CohortStore(persons)
    evaluator = CohortEvaluator(store, default_rules())
    report = eqvas_vs_hi(evaluator, store.person_ids, make_spec(2.0, 1.0))
    assert abs(report.coefficient) < 0.1
    assert report.n >= 500


def test_eqvas_vs_hi_requires_three_pairs():
    store = CohortStore([Person("p", [RawAnswer("p", 0, "pain_vas", "back", 3.0)],
                                 {0: 70.0})])
    evaluator = CohortEvaluator(store, default_rules())
    with pytest.raises(InsufficientDataError):
        eqvas_vs_hi(evaluator, store.person_ids, make_spec(2.0, 1.0))


def test_maxpain_vs_hi_perfect_inverse_person():
    # pains [10, 5, 0] translate to qualifiers [4, 2, 0]; with gamma = 1 the
    # index is 100 - 25 * running mean = [0, 25, 50], an exact affine
    # decreasing function of the max pain [10, 5, 0]: correlation -1
    persons = []
    for i in range(12):
        pid = f"a{i:02d}"
        gap = 5 + i
        answers = [RawAnswer(pid, gap * j, "pain_vas", "back", p)
                   for j, p in enumerate((10.0, 5.0, 0.0))]
        persons.append(Person(pid, answers))
    store = CohortStore(persons)
    evaluator = CohortEvaluator(store, default_rules())
    report = maxpain_vs_hi(evaluator, store.person_ids, make_spec(2.0, 1.0))
    assert report.median == pytest.approx(-1.0, abs=1e-12)
    assert all(c.coefficient == pytest.approx(-1.0, abs=1e-12)
               for c in report.correlations)
    assert report.significant_portion == 1.0
    assert report.threshold == pytest.approx(0.05 / report.n, abs=1e-15)


def test_maxpain_omits_constant_trajectories():
    flat = Person("flat", [RawAnswer("flat", d, "pain_vas", "back", 5.0)
                           for d in (0, 10, 20, 30)])
    store = _coupled_store(n_persons=10, seed=4)
    persons = list(store) + [flat]
    store = CohortStore(persons)
    evaluator = CohortEvaluator(store, default_rules())
    report = maxpain_vs_hi(evaluator, store.person_ids, make_spec(2.0, 1.0))
    assert report.omitted_constant_trajectories == 1
    assert all(c.person_id != "flat" for c in report.correlations)
    # omissions + computed = eligible persons
    assert report.n + report.omitted_constant_trajectories == 11


def test_maxpain_requires_three_pain_days():
    brief = Person("brief", [RawAnswer("brief", d, "pain_vas", "back", float(5 - d))
                             for d in (0, 1)])
    store = CohortStore([brief])
    evaluator = CohortEvaluator(store, default_rules())
    with pytest.raises(InsufficientDataError):
        maxpain_vs_hi(evaluator, ["brief"], make_spec(2.0, 1.0))


def test_bonferroni_threshold_example():
    # 133 tests at alpha 0.05 -> per-test threshold 0.05/133
    store = _coupled_store(n_persons=20, seed=5)
    evaluator = CohortEvaluator(store, default_rules())
    report = maxpain_vs_hi(evaluator, store.person_ids, make_spec(2.0, 1.0))
    assert report.threshold == pytest.approx(0.05 / len(report.correlations), abs=1e-15)
    corrected = {c.person_id for c in report.correlations if c.significant}
    uncorrected = {c.person_id for c in report.correlations if c.p_value < 0.05}
    assert corrected <= uncorrected


def test_bins_exact_tertiles():
    persons = [_person_with_days(f"p{i}", [(j * 7) for j in range(i + 1)])
               for i in range(1, 10)]  # sequence lengths 2..10
    # give each person a varying pain trajectory so correlations exist
    persons = []
    for i in range(1, 10):
        pid = f"p{i}"
        days = [j * 7 for j in range(i + 2)]
        answers = [RawAnswer(pid, d, "pain_vas", "back", float(max(0, 9 - j)))
                   for j, d in enumerate(days)]
        persons.append(Person(pid, answers))
    store = CohortStore(persons)
    evaluator = CohortEvaluator(store, default_rules())
    report = maxpain_vs_hi(evaluator, store.person_ids, make_spec(2.0, 1.0))
    bins = _sequence_bins(store, report)
    assert [n for _, _, _, n, _, _ in bins] == [3, 3, 3]
    assert [(low, high) for _, low, high, _, _, _ in bins] == [(3, 5), (6, 8), (9, 11)]


def test_bins_sizes_with_ties():
    persons = []
    for i in range(10):
        pid = f"t{i}"
        length = 4 if i < 7 else 8  # heavy ties
        days = [j * 5 for j in range(length)]
        answers = [RawAnswer(pid, d, "pain_vas", "back", float((j + i) % 10))
                   for j, d in enumerate(days)]
        persons.append(Person(pid, answers))
    store = CohortStore(persons)
    evaluator = CohortEvaluator(store, default_rules())
    report = maxpain_vs_hi(evaluator, store.person_ids, make_spec(2.0, 1.0))
    sizes = [n for _, _, _, n, _, _ in _sequence_bins(store, report)]
    assert sum(sizes) == report.n
    assert max(sizes) - min(sizes) <= 1


def test_maxpain_skips_a_person_with_fewer_than_three_index_days():
    # with pain_vas:back validation-only, the pain of "late" links to nothing:
    # its one ODI answer, on day 2, gives an index on two of its four pain days
    rules = default_rules_json()
    rules["rules"] = [{"source_item_id": "pain_vas:back", "validation_only": True}
                      if rule["source_item_id"] == "pain_vas:back" else rule
                      for rule in rules["rules"]]
    late = Person("late", [RawAnswer("late", d, "pain_vas", "back", float(d)) for d in range(4)]
                  + [RawAnswer("late", 2, "odi", "walking", 2.0)])
    # neck pain links, so these persons have an index on every pain day
    others = [Person(pid, [RawAnswer(pid, d, "pain_vas", "neck", float(d * (i + 2) % 11))
                           for d in range(4)])
              for i, pid in enumerate(("a", "b", "c"))]
    evaluator = CohortEvaluator(CohortStore([late, *others]), RuleSet.from_json(rules))
    spec = make_spec()
    assert [evaluator.hi("late", d, spec) for d in range(4)] == [None, None, 50, 50]
    report = maxpain_vs_hi(evaluator, ["late", "a", "b", "c"], spec)
    assert (report.n, report.omitted_constant_trajectories) == (3, 0)
    assert [c.person_id for c in report.correlations] == ["a", "b", "c"]


def test_bins_need_enough_persons():
    store = _coupled_store(n_persons=2, seed=6)
    evaluator = CohortEvaluator(store, default_rules())
    report = maxpain_vs_hi(evaluator, store.person_ids, make_spec(2.0, 1.0))
    with pytest.raises(InsufficientDataError):
        _sequence_bins(store, report)


def test_sweep_contains_linear_row_matching_direct_results():
    store = synthesize(SynthConfig(seed=31, n_persons=60, max_visits=12))
    evaluator = CohortEvaluator(store, default_rules())
    group = [p.person_id for p in store if len(p.days) >= 4]
    gammas = [GAMMA_THIRD_30, 1.0]
    ys = [1.0, 2.0]
    cells = {(gamma, y): _cell(evaluator, group, make_spec(y, gamma), DEFAULT_ALPHA)
             for gamma in gammas for y in ys}
    assert len(cells) == 4
    direct_eq = eqvas_vs_hi(evaluator, group, make_spec(2.0, GAMMA_THIRD_30))
    direct_mp = maxpain_vs_hi(evaluator, group, make_spec(2.0, GAMMA_THIRD_30))
    eqvas, maxpain, undefined, _ = cells[GAMMA_THIRD_30, 2.0]
    assert eqvas.coefficient == direct_eq.coefficient
    assert maxpain.median == direct_mp.median
    assert eqvas.n == direct_eq.n
    assert undefined == {}  # status "ok"


def test_sweep_reports_undefined_statistics_as_status():
    lone = CohortStore([Person("p", [RawAnswer("p", 0, "pain_vas", "back", 3.0)], {0: 70.0})])
    eqvas, maxpain, undefined, distinct = _cell(CohortEvaluator(lone, default_rules()), ["p"],
                                                make_spec(2.0, 1.0), DEFAULT_ALPHA)
    assert distinct == 1
    assert eqvas is None
    assert maxpain is None
    # in order: the first reason is the cell's status
    assert list(undefined.items()) == [("eqvas", "too_few_pairs"), ("maxpain", "no_correlations")]
    # two pain days per person: the pooled EQ-VAS correlation is defined, but
    # no person has the three days a maximum-pain correlation needs
    persons = [Person(pid, [RawAnswer(pid, d, "pain_vas", "back", float(2 + i + d))
                            for d in (0, 1)], {0: 40.0 + i, 1: 90.0 - 7 * i})
               for i, pid in enumerate(("a", "b", "c"))]
    store = CohortStore(persons)
    evaluator = CohortEvaluator(store, default_rules())
    eqvas, maxpain, undefined, distinct = _cell(evaluator, store.person_ids,
                                                make_spec(2.0, 1.0), DEFAULT_ALPHA)
    direct = eqvas_vs_hi(evaluator, store.person_ids, make_spec(2.0, 1.0))
    assert (eqvas.n, eqvas.coefficient, eqvas.p_value) == (
        direct.n, direct.coefficient, direct.p_value)
    assert maxpain is None
    assert undefined == {"maxpain": "no_correlations"}
    assert distinct == len({evaluator.hi(p.person_id, day, make_spec(2.0, 1.0))
                            for p in persons for day in p.eqvas}) > 1
    with pytest.raises(InsufficientDataError) as raised:
        maxpain_vs_hi(evaluator, store.person_ids, make_spec(2.0, 1.0))
    assert raised.value.reason == "no_correlations"


def test_validate_builds_its_sweep_rows_and_warnings_from_its_cells():
    store = synthesize(SynthConfig(seed=42, n_persons=60))
    group, gammas, ys = GroupSpec(30, 5), [GAMMA_THIRD_30, 1.0], [2.0, 3.8]
    result = validate(store, default_rules(), [group], [1.0], 2.0, grid=(gammas, ys))
    evaluator = CohortEvaluator(store, default_rules())
    pids = form_groups(store, [group])[group]
    rows, warnings = [], []
    for gamma in gammas:
        for y in ys:
            eqvas, maxpain, undefined, distinct = _cell(evaluator, pids, make_spec(y, gamma),
                                                        DEFAULT_ALPHA)
            status = next(iter(undefined.values()), "ok")
            rows.append([group.label, gamma, y, eqvas.n if eqvas else None,
                         eqvas.coefficient if eqvas else None, eqvas.p_value if eqvas else None,
                         maxpain.n if maxpain else None, maxpain.median if maxpain else None,
                         maxpain.significant_portion if maxpain else None, distinct, status])
            if undefined:
                warnings.append(f"sweep cell group=30d_5v gamma={format_cell(gamma)} "
                                f"y={format_cell(y)} is undefined: {status}")
    assert result.failures == {}
    assert result.tables["sweep"] == rows
    assert [line for line in result.warnings if line.startswith("sweep cell")] == warnings
    # both kinds of cell occur: y = 3.8 leaves every pooled index value the same
    assert {row[-1] for row in rows} == {"ok", "zero_variance"}


def test_summaries_deterministic():
    def run():
        store = synthesize(SynthConfig(seed=13, n_persons=50, max_visits=10))
        evaluator = CohortEvaluator(store, default_rules())
        group = [p.person_id for p in store if len(p.days) >= 3]
        report = maxpain_vs_hi(evaluator, group, make_spec(2.0, GAMMA_THIRD_30))
        return report

    assert run() == run()


def test_boxplot_stats_match_numpy():
    store = _coupled_store(n_persons=25, seed=8)
    evaluator = CohortEvaluator(store, default_rules())
    report = maxpain_vs_hi(evaluator, store.person_ids, make_spec(2.0, GAMMA_THIRD_30))
    coeffs = np.array([c.coefficient for c in report.correlations])
    assert report.q1 == float(np.percentile(coeffs, 25))
    assert report.q3 == float(np.percentile(coeffs, 75))
    assert report.median == float(np.median(coeffs))
    assert report.whisker_low >= coeffs.min()
    assert report.whisker_high <= coeffs.max()


def test_split_is_numpys_array_split():
    for k in range(1, 13):
        for n in range(k, 150):
            assert _split(list(range(n)), k) == \
                [c.tolist() for c in np.array_split(np.arange(n), k)]


def test_hi_equals_the_trajectory_value():
    # one report shape: evaluate_cohort's reports are evaluate_table's, for
    # all specs at once or one at a time, and hi is their index
    store = synthesize(SynthConfig(seed=5, n_persons=10, max_visits=8))
    evaluator = CohortEvaluator(store, default_rules())
    specs = [make_spec(y, gamma) for y in (0.75, 2.0, 3.25)
             for gamma in (GAMMA_TWENTIETH_30, GAMMA_THIRD_30, 1.0)]
    for person in store:
        records = apply_rules(person.answers, default_rules())
        table = compile_records(evaluator.tree, records)
        days = [-1, *person.days]
        [(_, per_spec)] = evaluate_cohort([(person.person_id, table, days)], specs, workers=1)
        assert per_spec == evaluate_table(table, days, specs)
        for spec, reports in zip(specs, per_spec):
            assert [reports] == evaluate_table(table, days, [spec])
            for day, report in reports:
                want = None if report is None else report.index
                assert evaluator.hi(person.person_id, day, spec) == want


@pytest.mark.parametrize("workers", [1, 2])
def test_evaluate_cohort_indices_are_the_reports_indices(workers):
    # what precompute's workers send back: the index of each report, or None
    store = synthesize(SynthConfig(seed=5, n_persons=6, max_visits=6))
    evaluator = CohortEvaluator(store, default_rules())
    specs = [make_spec(y, gamma) for y in (0.75, 3.25) for gamma in (GAMMA_THIRD_30, 1.0)]
    jobs = [(pid, table, [-1, *store.person(pid).days]) for pid, table in evaluator.tables.items()]
    reports = list(evaluate_cohort(jobs, specs, workers))
    assert list(evaluate_cohort(jobs, specs, workers, indices=True)) == [
        (pid, [[(day, None if report is None else report.index) for day, report in pairs]
               for pairs in per_spec])
        for pid, per_spec in reports]


def test_evaluate_cohort_sizes_its_pool_from_a_generator_of_jobs():
    # the engine counts the jobs itself: a generator gives what a list gives,
    # and one job stays in this process at any worker count
    store = synthesize(SynthConfig(seed=5, n_persons=6, max_visits=6))
    evaluator = CohortEvaluator(store, default_rules())
    specs = [make_spec(0.75, GAMMA_THIRD_30), make_spec(3.25, 1.0)]
    jobs = [(pid, table, table.days) for pid, table in evaluator.tables.items()]
    for some in (jobs, jobs[:1]):
        want = list(evaluate_cohort(some, specs, 1))
        assert len(want) == len(some)
        for workers in (1, 2):
            assert list(evaluate_cohort((job for job in some), specs, workers)) == want


def _cached(evaluator):
    """The evaluator's index cache as flat (person, day, gamma, y) -> value
    entries."""
    return {(pid, day, gamma, y): value
            for (gamma, y), by_person in evaluator._cache.items()
            for pid, by_day in by_person.items() for day, value in by_day.items()}


def test_hi_across_gamma_switches_matches_a_fresh_evaluator():
    # the plans of one gamma are kept and dropped at the switch to another
    store = synthesize(SynthConfig(seed=5, n_persons=8, max_visits=6))
    evaluator = CohortEvaluator(store, default_rules())
    for gamma in (GAMMA_THIRD_30, GAMMA_TWENTIETH_30, GAMMA_THIRD_30):
        for y in (0.75, 3.25):
            spec = make_spec(y, gamma)
            fresh = CohortEvaluator(store, default_rules())
            for person in store:
                for day in [-1, *person.days]:
                    assert evaluator.hi(person.person_id, day, spec) \
                        == fresh.hi(person.person_id, day, spec)
        # so that a gamma seen before is scored again, from fresh plans
        evaluator._cache.clear()


def test_precompute_matches_serial_hi():
    # at every worker count the cache gets what hi computes one value at a
    # time, on exactly the days the statistics read: EQ-VAS and pain days
    # (at seed 6 some measurement days have neither)
    store = synthesize(SynthConfig(seed=6, n_persons=6, max_visits=6))
    specs = [make_spec(y, gamma) for y in (0.75, 3.25) for gamma in (GAMMA_THIRD_30, 1.0)]
    read = {(person.person_id, day) for person in store
            for day in {*person.eqvas, *max_pain_by_day(person)}}
    assert read < {(person.person_id, day) for person in store for day in person.days}
    serial = CohortEvaluator(store, default_rules())
    for workers in (1, 2):
        evaluator = CohortEvaluator(store, default_rules())
        assert evaluator.precompute(store.person_ids, specs, workers=workers) == {}
        assert sorted(_cached(evaluator)) == sorted(
            (pid, day, spec.gamma, spec.y) for pid, day in read for spec in specs)
        for (pid, day, gamma, y), value in _cached(evaluator).items():
            assert serial.hi(pid, day, make_spec(y, gamma)) == value


def test_hi_and_precompute_in_either_order_keep_each_others_values():
    # hi on days no statistic reads (day -1 and, at seed 6, some measurement
    # days), before precompute on one evaluator and after it on another:
    # both end with every value of either call, each a fresh evaluator's
    store = synthesize(SynthConfig(seed=6, n_persons=6, max_visits=6))
    specs = [make_spec(y, gamma) for y in (0.75, 3.25) for gamma in (GAMMA_THIRD_30, 1.0)]
    read = {(person.person_id, day) for person in store
            for day in {*person.eqvas, *max_pain_by_day(person)}}
    unread = {(person.person_id, day) for person in store for day in (-1, *person.days)} - read
    assert any(day >= 0 for _, day in unread)

    def hi_on_unread_days(evaluator):
        for spec in specs:
            for pid, day in sorted(unread):
                evaluator.hi(pid, day, spec)

    hi_first, precompute_first = (CohortEvaluator(store, default_rules()) for _ in range(2))
    hi_on_unread_days(hi_first)
    by_hi = _cached(hi_first)
    assert hi_first.precompute(store.person_ids, specs) == {}
    assert precompute_first.precompute(store.person_ids, specs) == {}
    by_precompute = _cached(precompute_first)
    hi_on_unread_days(precompute_first)
    both = _cached(hi_first)
    assert _cached(precompute_first) == both
    assert by_hi.items() <= both.items() and by_precompute.items() <= both.items()
    assert sorted(both) == sorted(
        (pid, day, spec.gamma, spec.y) for pid, day in read | unread for spec in specs)
    fresh = CohortEvaluator(store, default_rules())
    for (pid, day, gamma, y), value in both.items():
        assert fresh.hi(pid, day, make_spec(y, gamma)) == value


@pytest.mark.parametrize("workers", [1, 2])
def test_precompute_reports_a_failed_person(workers):
    # "bad" answers one instrument only, and its rule has reliability 0;
    # its EQ-VAS answers make the statistics read those days
    good = synthesize(SynthConfig(seed=5, n_persons=3, max_visits=4))
    bad = Person("bad", [RawAnswer("bad", day, "unrated", "item", 3.0) for day in (0, 5)],
                 {0: 50.0, 5: 60.0})
    rules = default_rules_json()
    rules["rules"].append(UNRATED_RULE)
    evaluator = CohortEvaluator(CohortStore([bad, *good]), RuleSet.from_json(rules))
    failures = evaluator.precompute(["bad", *good.person_ids], [make_spec()], workers)
    assert list(failures) == ["bad"]
    assert failures["bad"].startswith("all contribution weights at node")
    assert len(_cached(evaluator)) == sum(len({*person.eqvas, *max_pain_by_day(person)})
                                          for person in good)
    assert "bad" not in {pid for pid, _, _, _ in _cached(evaluator)}


def test_a_person_who_cannot_be_linked_is_kept_as_a_failure():
    # a pain VAS answer of 12 is outside the 0-10 that the rules translate
    good = synthesize(SynthConfig(seed=5, n_persons=3, max_visits=4))
    bad = Person("bad", [RawAnswer("bad", 0, "pain_vas", "back", 12.0)], {0: 50.0})
    evaluator = CohortEvaluator(CohortStore([bad, *good]), default_rules())
    others = CohortEvaluator(good, default_rules())
    assert "bad" not in evaluator.tables and list(evaluator.link_errors) == ["bad"]
    assert evaluator.tree.slot_codes == others.tree.slot_codes
    with pytest.raises(DataError, match="cannot translate 'pain_vas:back'") as raised:
        evaluator.hi("bad", 0, make_spec())
    assert raised.value is evaluator.link_errors["bad"]
    failures = evaluator.precompute(["bad", *good.person_ids], [make_spec()])
    assert failures == {"bad": str(raised.value)}
    assert others.precompute(good.person_ids, [make_spec()]) == {}
    assert _cached(evaluator) == _cached(others)


def test_an_unknown_person_id_is_a_data_error():
    # "eqvas_only" is in the store but has no linkable record, so has no index
    good = synthesize(SynthConfig(seed=5, n_persons=3, max_visits=4))
    eqvas_only = Person("eqvas_only", [], {0: 50.0})
    evaluator = CohortEvaluator(CohortStore([eqvas_only, *good]), default_rules())
    assert evaluator.hi("eqvas_only", 0, make_spec()) is None
    with pytest.raises(DataError, match="unknown person id 'nobody'") as raised:
        evaluator.hi("nobody", 0, make_spec())
    failures = evaluator.precompute(["nobody", "eqvas_only", *good.person_ids], [make_spec()])
    assert failures == {"nobody": str(raised.value)}
    assert "nobody" not in {pid for pid, _, _, _ in _cached(evaluator)}


@pytest.mark.parametrize("gamma", [1.5, 0.0, math.nan])
def test_hi_rejects_a_gamma_outside_the_unit_interval_for_every_person(gamma):
    # a person without linkable records has no table to weigh, but such a
    # gamma is an error for them as for a person with records, and hi
    # caches nothing for either
    good = synthesize(SynthConfig(seed=5, n_persons=3, max_visits=4))
    eqvas_only = Person("eqvas_only", [], {0: 50.0})
    evaluator = CohortEvaluator(CohortStore([eqvas_only, *good]), default_rules())
    spec = WeightingSpec(2.0, gamma, fit_curve(2.0))
    for pid in ("eqvas_only", good.person_ids[0]):
        with pytest.raises(EvaluationError) as err:
            evaluator.hi(pid, 0, spec)
        assert str(err.value) == f"time decay constant gamma must lie in (0, 1], got {gamma!r}"
    assert _cached(evaluator) == {}


def test_every_statistic_raises_the_data_error_of_an_unknown_person_id():
    store = synthesize(SynthConfig(seed=5, n_persons=3, max_visits=4))
    evaluator = CohortEvaluator(store, default_rules())
    person_ids = [*store.person_ids, "nobody"]
    for statistic in (eqvas_vs_hi, maxpain_vs_hi):
        with pytest.raises(DataError, match="^unknown person id 'nobody'$"):
            statistic(evaluator, person_ids, make_spec())


def test_precompute_skips_a_failure_on_days_no_statistic_reads():
    # without EQ-VAS or pain answers no statistic reads the failing days
    bad = Person("bad", [RawAnswer("bad", day, "unrated", "item", 3.0) for day in (0, 5)])
    rules = default_rules_json()
    rules["rules"].append(UNRATED_RULE)
    evaluator = CohortEvaluator(CohortStore([bad]), RuleSet.from_json(rules))
    assert evaluator.precompute(["bad"], [make_spec()]) == {}
    assert _cached(evaluator) == {}
