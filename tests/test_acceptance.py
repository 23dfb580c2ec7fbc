"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one ``ACCEPTANCE <name>: PASS/FAIL`` line; run with
``pytest tests/test_acceptance.py -v -s`` to see them.
"""

import functools
import math
import random

from icfhi import (
    CohortEvaluator,
    DEFAULT_GROUPS,
    QualifierRecord,
    SynthConfig,
    apply_curve,
    apply_rules,
    bin_by_sequence_length,
    build_tree,
    compile_records,
    default_rules,
    eqvas_vs_hi,
    fit_curve,
    form_groups,
    make_spec,
    maxpain_vs_hi,
    parse_code,
    qualifiers,
    scale_index,
    synthesize,
)
from icfhi.cli import main as cli_main

from conftest import (
    GAMMA_THIRD_30,
    GAMMA_TWENTIETH_30,
    WORKED_HI,
    WORKED_NODE_X,
    engine_alphas,
    report_on,
    shipped_translation,
    worked_example_records,
)
from oracle import brute_force_evaluate, random_case

REFERENCE_GAMMAS = (GAMMA_TWENTIETH_30, GAMMA_THIRD_30, 1.0)


def criterion(name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper():
            try:
                fn()
            except BaseException:
                print(f"\nACCEPTANCE {name}: FAIL")
                raise
            print(f"\nACCEPTANCE {name}: PASS")

        return wrapper

    return decorate


def _to_records(plain):
    return [
        QualifierRecord("p", day, src, parse_code(code), value, rel)
        for code, value, day, rel, src in plain
    ]


def _evaluate(plain, gamma, reference_day, audit=False):
    return report_on(_to_records(plain), reference_day, make_spec(2.0, gamma), audit=audit)


@criterion("scale anchors")
def test_scale_anchors():
    assert scale_index(0.0) == 100
    assert scale_index(2.0) == 50
    assert scale_index(4.0) == 0


@functools.lru_cache(maxsize=1)
def _oracle_suite():
    """1,000 seeded random trees evaluated by both routes; returns the list
    of (engine_report, oracle_result) pairs for reuse by several criteria."""
    results = []
    for seed in range(1000):
        plain, gamma, ref = random_case(seed)
        report = _evaluate(plain, gamma, ref, audit=True)
        reference = brute_force_evaluate(plain, gamma, ref)
        results.append((report, reference))
    return results


@criterion("oracle equivalence (1,000 random trees, 1e-9)")
def test_oracle_equivalence():
    for report, (raw, alpha, rel, per_node) in _oracle_suite():
        assert abs(report.raw - raw) < 1e-9
        assert abs(report.alpha - alpha) < 1e-9
        assert abs(report.reliability - rel) < 1e-9
        engine_nodes = {a.code: a.result for a in report.audits if a.code}
        assert set(engine_nodes) == set(per_node)
        for code, (x, _a, _r) in per_node.items():
            assert abs(engine_nodes[code].x - x) < 1e-9


@criterion("worked example (x_b2801 and health index)")
def test_worked_example():
    spec = make_spec(2.0, GAMMA_THIRD_30)
    report = report_on(worked_example_records(), 30, spec, audit=True)
    node = next(a.result for a in report.audits if a.code == "b2801")
    # hand-derived independently: 49 / (34 + 13.5/sqrt(3)) = 1.1724106796905387
    assert abs(node.x - WORKED_NODE_X) < 1e-4   # stated tolerance
    assert abs(node.x - WORKED_NODE_X) < 1e-9   # and in fact exact
    assert report.index == WORKED_HI
    assert abs(report.raw - WORKED_NODE_X) < 1e-9


@criterion("curve fitting (100 random y)")
def test_curve_fitting():
    rng = random.Random(4)
    checked = 0
    while checked < 100:
        y = rng.uniform(0.02, 3.98)
        if abs(y - 2.0) < 0.02:
            continue
        checked += 1
        params = fit_curve(y)
        assert abs(apply_curve(params, 0.0) - 0.0) < 1e-9
        assert abs(apply_curve(params, 2.0) - y) < 1e-9
        assert abs(apply_curve(params, 4.0) - 4.0) < 1e-9
        xs = [i * 4.0 / 100 for i in range(101)]
        values = [apply_curve(params, x) for x in xs]
        assert all(b > a for a, b in zip(values, values[1:]))
        interior = list(zip(xs, values))[1:-1]
        if y < 2.0:
            assert all(v <= x + 1e-12 for x, v in interior)
        else:
            assert all(v >= x - 1e-12 for x, v in interior)


@criterion("time decay constants and gamma=1 day-permutation invariance")
def test_time_decay():
    # the engine's own time weight of a record 30 days old
    [third] = engine_alphas([30], GAMMA_THIRD_30)
    [twentieth] = engine_alphas([30], GAMMA_TWENTIETH_30)
    assert abs(third - 1.0 / 3.0) < 1e-12
    assert abs(twentieth - 0.05) < 1e-12
    rng = random.Random(99)
    for seed in range(100):
        plain, _, ref = random_case(seed)
        baseline = _evaluate(plain, 1.0, ref).index
        days = [day for _c, _v, day, _r, _s in plain]
        rng.shuffle(days)
        permuted = [(c, v, d, r, s) for (c, v, _d, r, s), d in zip(plain, days)]
        assert _evaluate(permuted, 1.0, ref).index == baseline


@criterion("normalization (sum of normalized weights = 1 +- 1e-12)")
def test_normalization():
    for report, _ in _oracle_suite():
        for audit in report.audits:
            assert abs(math.fsum(audit.normalized_weights) - 1.0) < 1e-12


@criterion("linkage tables (exhaustive) and worked translations")
def test_linkage_tables():
    # the translations of the bundled rules, which apply_rules uses
    odi, eq5d = shipped_translation("odi"), shipped_translation("eq5d")
    pain_vas, machine = shipped_translation("pain_vas"), shipped_translation("machine")
    assert [odi(a) for a in range(6)] == [0, 1, 2, 3, 3, 4]
    assert [eq5d(a) for a in range(1, 6)] == [0, 1, 2, 3, 4]
    assert [pain_vas(a) for a in range(11)] == [0, 0, 1, 1, 2, 2, 2, 3, 3, 4, 4]
    machine_expected = {0: 0, 4: 0, 4.5: 1, 24: 1, 24.5: 2, 49: 2, 49.5: 3,
                        95: 3, 95.5: 4, 100: 4, 20: 1}
    for pct, qualifier in machine_expected.items():
        assert machine(pct) == qualifier

    rules = default_rules()
    from icfhi import RawAnswer

    pain = apply_rules([RawAnswer("p", 0, "pain_vas", "back", 3)], rules)
    assert [(r.code.text, r.value) for r in pain] == [("b28013", 1.0)]
    machine = apply_rules([RawAnswer("p", 0, "machine", "f110", 20.0)], rules)
    assert {r.code.text for r in machine} == {"b7305", "b7355", "b7401", "b780"}
    assert all(r.value == 1.0 for r in machine)


@criterion("uniqueness (u = 1/z; doubling fan-out halves pre-normalization weight)")
def test_uniqueness():
    spec = make_spec(2.0, 1.0)

    def shared_weights(z):
        # one source on z sibling codes plus one independent qualifier
        records = [
            QualifierRecord("p", 0, "shared", parse_code(f"b280{i}"), 4.0, 1.0)
            for i in range(z)
        ]
        records.append(QualifierRecord("p", 0, "solo", parse_code("b2809"), 0.0, 1.0))
        tree = build_tree({r.code for r in records})
        quals = qualifiers(compile_records(tree, records), 0, spec.gamma)
        for i in range(z):
            (qual,) = quals[parse_code(f"b280{i}")]
            assert qual.uniqueness == 1.0 / z
        report = report_on(records, 0, spec, tree=tree, audit=True)
        parent = next(a for a in report.audits if a.code == "b280")
        # weights: z shared contributions of u/z each, one solo contribution
        weights = sorted(parent.normalized_weights)
        return weights[0]

    w2 = shared_weights(2)
    w4 = shared_weights(4)
    assert abs(w2 - 1.0 / 4.0) < 1e-12   # 1/z / (1 + 1) with z = 2
    assert abs(w4 - 1.0 / 8.0) < 1e-12   # halved again with z = 4
    assert abs(w4 - w2 / 2.0) < 1e-12


@criterion("monotonicity (500 random trees, linear curve)")
def test_monotonicity():
    tested = 0
    seed = 0
    while tested < 500:
        plain, gamma, ref = random_case(seed)
        seed += 1
        rng = random.Random(seed)
        i = rng.randrange(len(plain))
        code, value, day, rel, src = plain[i]
        if value >= 4.0:
            continue
        tested += 1
        baseline = _evaluate(plain, gamma, ref).index
        bumped = list(plain)
        bumped[i] = (code, value + 1.0, day, rel, src)
        assert _evaluate(bumped, gamma, ref).index <= baseline


@criterion("sign reproduction on a pain-coupled synthetic cohort")
def test_sign_reproduction():
    store = synthesize(SynthConfig(seed=202, n_persons=250, trend="improving"))
    evaluator = CohortEvaluator(store, default_rules())
    groups = form_groups(store, list(DEFAULT_GROUPS))
    for spec_def in DEFAULT_GROUPS:
        pids = groups[spec_def]
        assert len(pids) >= 30, f"group {spec_def.label} too small: {len(pids)}"
        for gamma in REFERENCE_GAMMAS:
            wspec = make_spec(2.0, gamma)
            eq = eqvas_vs_hi(evaluator, pids, wspec)
            assert eq.coefficient > 0.3, (spec_def.label, gamma, eq.coefficient)
            mp = maxpain_vs_hi(evaluator, pids, wspec)
            assert mp.median < -0.3, (spec_def.label, gamma, mp.median)
        bins = bin_by_sequence_length(
            store, maxpain_vs_hi(evaluator, pids, make_spec(2.0, GAMMA_THIRD_30))
        )
        portions = [b.significant_portion for b in bins]
        assert portions[0] <= portions[1] <= portions[2], (spec_def.label, portions)
        assert portions[2] > portions[0], (spec_def.label, portions)


@criterion("determinism (pipeline reruns and worker counts byte-identical)")
def test_determinism(tmp_path_factory=None):
    import tempfile
    from pathlib import Path

    base = Path(tempfile.mkdtemp(prefix="icfhi_accept_"))

    def pipeline(tag, workers):
        root = base / tag
        cohort = root / "cohort"
        linked = root / "linked"
        indexed = root / "indexed"
        validated = root / "validated"
        assert cli_main(["synth", "--out", str(cohort), "--seed", "42",
                         "--persons", "60", "--trend", "improving"]) == 0
        assert cli_main(["link", "--data", str(cohort), "--out", str(linked)]) == 0
        assert cli_main(["index", "--records", str(linked / "records.csv"),
                         "--out", str(indexed), "--workers", str(workers)]) == 0
        assert cli_main(["validate", "--data", str(cohort), "--out", str(validated),
                         "--groups", "30:5", "--workers", str(workers)]) == 0
        out = {}
        for sub in (cohort, linked, indexed, validated):
            for file in sorted(sub.iterdir()):
                out[f"{sub.name}/{file.name}"] = file.read_bytes()
        return out

    first = pipeline("run1", 1)
    second = pipeline("run2", 1)
    parallel = pipeline("run8", 8)
    assert first.keys() == second.keys() == parallel.keys()
    for name in first:
        assert first[name] == second[name], f"rerun differs: {name}"
        assert first[name] == parallel[name], f"worker count changed output: {name}"
