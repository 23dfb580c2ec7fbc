"""Cohort-level validation statistics for the health index.

Implements the validation protocol: eligibility groups by treatment
duration and sequence length, pooled EQ-VAS vs. index correlation, per
person maximum-pain vs. index trajectory correlations with Bonferroni
correction and tertile binning by sequence length.  ``validate`` runs the
whole protocol on a cohort, a (gamma, y) sweep included, and returns the
rows of its tables, the persons it left out and the statistics it found
undefined.  All outputs are deterministic given the cohort and grid.

Medians and quartiles are numpy's and p-values scipy's, each imported
inside the function that needs it, so that importing this module loads
neither.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from typing import NamedTuple, Sequence

from .codes import IcfTree, build_tree
from .cohort import PAIN_INSTRUMENT, CohortStore, Person, stats
from .engine import (RecordTable, _check_gamma, _Plan, _score, _weigh, compile_records,
                     evaluate_cohort)
from .errors import DataError, IcfHiError, InsufficientDataError
from .formatting import format_cell
from .linkage import RuleSet, apply_rules
from .weighting import WeightingSpec, make_spec

DEFAULT_ALPHA = 0.05


@dataclass(frozen=True, order=True)
class GroupSpec:
    """Eligibility thresholds: minimum treatment duration (days) and
    minimum length of the treatment sequence (distinct measurement days)."""

    min_duration: int
    min_sequence_length: int

    def __post_init__(self):
        if self.min_duration <= 0 or self.min_sequence_length <= 0:
            raise ValueError("group thresholds must be positive")

    @property
    def label(self) -> str:
        return f"{self.min_duration}d_{self.min_sequence_length}v"


DEFAULT_GROUPS = (GroupSpec(90, 10), GroupSpec(30, 5))


def form_groups(store: CohortStore, specs: Sequence[GroupSpec]) -> dict[GroupSpec, list[str]]:
    """Person ids per group, once per group however often ``specs`` repeats
    it; a person may satisfy several groups at once."""
    groups: dict[GroupSpec, list[str]] = {spec: [] for spec in specs}
    for person in store:
        if not person.days:
            continue
        st = stats(person)
        for spec in groups:
            if st.duration >= spec.min_duration and st.sequence_length >= spec.min_sequence_length:
                groups[spec].append(person.person_id)
    return groups


def pearson(xs: Sequence[float], ys: Sequence[float]):
    """Pearson product-moment coefficient with a two-sided p-value from the
    t distribution on n-2 degrees of freedom; None when either series has
    zero variance (undefined, the caller decides how to treat omission)."""
    if len(xs) != len(ys):
        raise ValueError(f"series lengths differ: {len(xs)} vs {len(ys)}")
    n = len(xs)
    if n < 3:
        raise ValueError(f"need at least 3 pairs, got {n}")
    mx = math.fsum(xs) / n
    my = math.fsum(ys) / n
    sxx = math.fsum((x - mx) ** 2 for x in xs)
    syy = math.fsum((y - my) ** 2 for y in ys)
    sxy = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
    if sxx == 0.0 or syy == 0.0:
        return None
    denominator = math.sqrt(sxx * syy)
    if not 0.0 < denominator < math.inf:  # the product under- or overflowed
        denominator = math.sqrt(sxx) * math.sqrt(syy)
    r = max(-1.0, min(1.0, sxy / denominator))
    if abs(r) == 1.0:
        return r, 0.0
    # the Student t survival function as scipy.stats.t.sf evaluates it,
    # without importing scipy.stats, which takes about a second
    from scipy.special import stdtr  # imported here: slow, and only needed here

    t = r * math.sqrt((n - 2) / (1.0 - r * r))
    p = 2.0 * float(stdtr(n - 2, -abs(t)))
    return r, min(p, 1.0)


@dataclass(frozen=True)
class CorrelationReport:
    n: int
    coefficient: float
    p_value: float
    bonferroni_significant: bool


@dataclass(frozen=True)
class PersonCorrelation:
    person_id: str
    n_days: int
    coefficient: float
    p_value: float
    significant: bool


@dataclass(frozen=True)
class BoxplotStats:
    n: int
    median: float
    q1: float
    q3: float
    whisker_low: float
    whisker_high: float


@dataclass(frozen=True)
class MaxPainReport:
    correlations: tuple[PersonCorrelation, ...]
    median: float
    significant_portion: float
    omitted_constant_trajectories: int
    boxplot: BoxplotStats
    alpha: float
    threshold: float

    @property
    def n(self) -> int:
        return len(self.correlations)


@dataclass(frozen=True)
class SequenceBin:
    index: int
    min_length: int
    max_length: int
    n: int
    significant_portion: float
    median_correlation: float


class CohortEvaluator:
    """Links a cohort once, holds the cohort-wide tree skeleton, every
    person's records compiled against it and every person's maximum pain
    by day, and caches index values by (gamma, y), then person, then day,
    so that a value costs a slot in a person's dict of days.  The weight
    plans of one gamma at a time are kept per (person, day), so that
    each y of that gamma only runs the value pass.  A plan keeps only what
    that pass reads: a weighted mean per node without a calculated child,
    the weights only of nodes with one, and the root's alpha and r.  The
    ``DataError`` of a person whose answers cannot be linked is kept in
    ``link_errors``."""

    def __init__(self, store: CohortStore, rules: RuleSet):
        self.store = store
        records, self.link_errors = {}, {}
        for person in store:
            try:
                records[person.person_id] = apply_rules(person.answers, rules)
            except DataError as exc:
                self.link_errors[person.person_id] = exc
        codes = {r.code for recs in records.values() for r in recs}
        self.tree: IcfTree | None = build_tree(codes) if codes else None
        self.tables: dict[str, RecordTable] = {
            pid: compile_records(self.tree, recs) for pid, recs in records.items() if recs
        }
        self.max_pain: dict[str, dict[int, float]] = {
            person.person_id: max_pain_by_day(person) for person in store}
        self._cache: dict[tuple[float, float], dict[str, dict[int, "int | None"]]] = {}
        # built on demand in hi, and dropped when hi is asked for another gamma
        self._plans: dict[tuple[str, int], _Plan | None] = {}
        self._plans_gamma: float | None = None

    def _check(self, person_id: str) -> None:
        """Raise the DataError of an unknown person id, or the link error of
        a person whose answers cannot be linked."""
        self.store.person(person_id)
        if person_id in self.link_errors:
            raise self.link_errors[person_id]

    def hi(self, person_id: str, day: int, spec: WeightingSpec) -> "int | None":
        """Index value at ``day`` from records up to that day, None before the
        first or for a person without linkable records; raises a DataError
        for an unknown person id, the person's link error if their answers
        cannot be linked, and, for any person, an EvaluationError for a gamma
        outside (0, 1]."""
        spec_key = (spec.gamma, spec.y)
        try:
            return self._cache[spec_key][person_id][day]
        except KeyError:
            pass
        self._check(person_id)
        _check_gamma(spec.gamma)
        table = self.tables.get(person_id)
        plan = None
        if table is not None:
            if spec.gamma != self._plans_gamma:
                self._plans, self._plans_gamma = {}, spec.gamma
            plan_key = (person_id, day)
            if plan_key not in self._plans:
                self._plans[plan_key] = _weigh(table, day, spec.gamma)
            plan = self._plans[plan_key]
        value = None if plan is None else _score(plan, spec).index
        self._cache.setdefault(spec_key, {}).setdefault(person_id, {})[day] = value
        return value

    def precompute(self, person_ids: Sequence[str], specs: Sequence[WeightingSpec],
                   workers: int = 1) -> dict[str, str]:
        """Add to the cache, beside what it already holds, the values ``hi``
        would compute for every (person, statistic day, spec), for any
        worker count; return the error message of each person who is
        unknown, cannot be linked or whose evaluation fails.

        The statistic days of a person are the days the statistics read:
        EQ-VAS days and pain days.  A person whose evaluation would fail
        only on another day is not reported."""
        jobs = ((pid, self.tables[pid],
                 sorted(set(self.store.person(pid).eqvas).union(self.max_pain[pid])))
                for pid in person_ids if pid in self.tables)
        failures = {}
        for pid in person_ids:
            try:
                self._check(pid)
            except DataError as exc:
                failures[pid] = str(exc)
        for pid, outcome in evaluate_cohort(jobs, specs, workers, indices=True):
            if isinstance(outcome, IcfHiError):
                failures[pid] = str(outcome)
                continue
            for spec, values in zip(specs, outcome):
                if values:
                    by_person = self._cache.setdefault((spec.gamma, spec.y), {})
                    by_person.setdefault(pid, {}).update(values)
        return failures


def eqvas_vs_hi(evaluator: CohortEvaluator, person_ids: Sequence[str],
                spec: WeightingSpec, alpha: float = DEFAULT_ALPHA) -> CorrelationReport:
    """Pooled correlation between every EQ-VAS answer in the group and the
    index evaluated at that answer's day.  Answers given before a person has
    any linkable record are skipped."""
    return _pooled_correlation(*_eqvas_pairs(evaluator, person_ids, spec), alpha)


def _eqvas_pairs(evaluator: CohortEvaluator, person_ids: Sequence[str],
                 spec: WeightingSpec) -> tuple[list[float], list[float]]:
    """The pooled (EQ-VAS answer, index on its day) series of the group."""
    eqvas_values: list[float] = []
    hi_values: list[float] = []
    for pid in person_ids:
        person = evaluator.store.person(pid)
        for day, value in person.eqvas.items():
            hi = evaluator.hi(pid, day, spec)
            if hi is None:
                continue
            eqvas_values.append(value)
            hi_values.append(float(hi))
    return eqvas_values, hi_values


def _pooled_correlation(eqvas_values: Sequence[float], hi_values: Sequence[float],
                        alpha: float) -> CorrelationReport:
    if len(eqvas_values) < 3:
        raise InsufficientDataError(
            f"only {len(eqvas_values)} EQ-VAS/index pairs in the group; need at least 3",
            "too_few_pairs",
        )
    result = pearson(eqvas_values, hi_values)
    if result is None:
        raise InsufficientDataError("pooled EQ-VAS/index series has zero variance",
                                    "zero_variance")
    r, p = result
    return CorrelationReport(
        n=len(eqvas_values), coefficient=r, p_value=p, bonferroni_significant=p < alpha
    )


def max_pain_by_day(person: Person) -> dict[int, float]:
    """Highest raw pain VAS answer per measurement day."""
    out: dict[int, float] = {}
    for answer in person.answers:
        if answer.instrument == PAIN_INSTRUMENT:
            day = answer.day
            out[day] = max(out.get(day, 0.0), answer.value)
    return dict(sorted(out.items()))


def maxpain_vs_hi(evaluator: CohortEvaluator, person_ids: Sequence[str],
                  spec: WeightingSpec, alpha: float = DEFAULT_ALPHA) -> MaxPainReport:
    """Per-person correlation between the maximum-pain trajectory and the
    index trajectory on the same days, Bonferroni-corrected at alpha/n.

    Persons with fewer than three pain days are not eligible; persons whose
    index (or pain) trajectory is constant are omitted and counted.  An
    unknown person id is a DataError, as in ``eqvas_vs_hi``.
    """
    import numpy as np  # imported here, as pearson imports scipy: only validate needs it

    raw: list[tuple[str, int, float, float]] = []
    omitted = 0
    for pid in person_ids:
        evaluator.store.person(pid)  # the DataError of an unknown person id
        pain = evaluator.max_pain[pid]
        if len(pain) < 3:
            continue
        days = list(pain)
        his = [evaluator.hi(pid, day, spec) for day in days]
        series = [(p, h) for p, h in zip(pain.values(), his) if h is not None]
        if len(series) < 3:
            continue
        result = pearson([p for p, _ in series], [float(h) for _, h in series])
        if result is None:
            omitted += 1
            continue
        raw.append((pid, len(series), result[0], result[1]))
    if not raw:
        raise InsufficientDataError("no person in the group has a computable "
                                    "maximum-pain/index correlation", "no_correlations")
    threshold = alpha / len(raw)
    correlations = tuple(
        PersonCorrelation(pid, n_days, r, p, p < threshold) for pid, n_days, r, p in raw
    )
    coeffs = [c.coefficient for c in correlations]
    portion = sum(c.significant for c in correlations) / len(correlations)
    return MaxPainReport(
        correlations=correlations,
        median=float(np.median(coeffs)),
        significant_portion=portion,
        omitted_constant_trajectories=omitted,
        boxplot=_boxplot_stats(coeffs),
        alpha=alpha,
        threshold=threshold,
    )


def _boxplot_stats(values: Sequence[float]) -> BoxplotStats:
    import numpy as np  # imported here, as in maxpain_vs_hi

    ordered = sorted(values)
    q1, median, q3 = map(float, np.percentile(values, (25, 50, 75)))
    iqr = q3 - q1
    low_fence, high_fence = q1 - 1.5 * iqr, q3 + 1.5 * iqr
    inside = [v for v in ordered if low_fence <= v <= high_fence]
    return BoxplotStats(
        n=len(ordered),
        median=median,
        q1=q1,
        q3=q3,
        whisker_low=inside[0],
        whisker_high=inside[-1],
    )


def _split(items: list, k: int) -> list[list]:
    """``items`` in ``k`` consecutive chunks, as ``numpy.array_split`` cuts
    them: the first ``len(items) % k`` chunks hold one item more."""
    size, extra = divmod(len(items), k)
    bounds = [i * size + min(i, extra) for i in range(k + 1)]
    return [items[start:end] for start, end in zip(bounds, bounds[1:])]


def bin_by_sequence_length(store: CohortStore, report: MaxPainReport,
                           k: int = 3) -> list[SequenceBin]:
    """Split the per-person correlations into ``k`` near-equal bins by the
    person's treatment sequence length (ties broken by person id)."""
    import numpy as np  # imported here, as in maxpain_vs_hi

    if len(report.correlations) < k:
        raise InsufficientDataError(
            f"cannot form {k} bins from {len(report.correlations)} correlations",
            "too_few_correlations",
        )
    keyed = sorted(
        ((stats(store.person(c.person_id)).sequence_length, c.person_id, c)
         for c in report.correlations),
    )
    bins: list[SequenceBin] = []
    for i, members in enumerate(_split(keyed, k), start=1):
        corrs = [c.coefficient for _, _, c in members]
        bins.append(
            SequenceBin(
                index=i,
                min_length=members[0][0],
                max_length=members[-1][0],
                n=len(members),
                significant_portion=sum(c.significant for _, _, c in members) / len(members),
                median_correlation=float(np.median(corrs)),
            )
        )
    return bins


def _cell(evaluator: CohortEvaluator, person_ids: Sequence[str], spec: WeightingSpec,
          alpha: float) -> tuple:
    """One (group, spec) cell of ``validate``: the EQ-VAS and maximum-pain
    reports, each None when it is undefined, the reason of each undefined
    one by name, "eqvas" before "maxpain", and the number of distinct index
    values in the pooled EQ-VAS series."""
    eqvas_values, hi_values = _eqvas_pairs(evaluator, person_ids, spec)
    undefined: dict[str, str] = {}
    eq = _defined(undefined, "eqvas", _pooled_correlation, eqvas_values, hi_values, alpha)
    mp = _defined(undefined, "maxpain", maxpain_vs_hi, evaluator, person_ids, spec, alpha)
    return eq, mp, undefined, len(set(hi_values))


def _defined(undefined: dict[str, str], name: str, statistic, *args):
    """``statistic(*args)``, or None with its reason kept as ``undefined[name]``."""
    try:
        return statistic(*args)
    except InsufficientDataError as exc:
        undefined[name] = exc.reason
        return None


# the header of each table ``validate`` returns, in write order
VALIDATION_TABLES = {
    "eqvas_correlations": ("group", "gamma", "y", "n", "coefficient", "p_value", "significant"),
    "maxpain_summary": ("group", "gamma", "y", "n", "median", "significant_portion", "omitted",
                        "q1", "q3", "whisker_low", "whisker_high", "bonferroni_threshold"),
    "maxpain_person": ("group", "gamma", "y", "person_id", "n_days", "coefficient", "p_value",
                       "significant"),
    "sequence_bins": ("group", "gamma", "y", "bin", "min_length", "max_length", "n",
                      "significant_portion", "median_correlation"),
    "sweep": ("group", "gamma", "y", "eqvas_n", "eqvas_coefficient", "eqvas_p", "maxpain_n",
              "maxpain_median", "maxpain_significant_portion", "distinct_index_values", "status"),
}


class Validation(NamedTuple):
    """The rows of each VALIDATION_TABLES table by name, in write order
    (``sweep`` only under a grid), the error of each person left out, one
    line per undefined statistic, and the settings and group sizes."""

    tables: dict[str, list[list]]
    failures: dict[str, str]
    warnings: list[str]
    info: dict


def validate(store: CohortStore, rules: RuleSet, groups: Sequence[GroupSpec],
             gammas: Sequence[float], y: float,
             grid: tuple[Sequence[float], Sequence[float]] | None = None,
             alpha: float = DEFAULT_ALPHA, workers: int = 1) -> Validation:
    """The validation protocol: per group and gamma at ``y``, the EQ-VAS
    correlation, maximum-pain summary and persons, and sequence bins; with
    a ``grid`` of (gammas, ys), a sweep row per group and cell, whose status
    names its first undefined statistic's reason, or "ok".  Each undefined
    statistic warns, a sweep cell once.  A repeated group, gamma or grid
    value counts once; a failed person is left out of every group."""
    gammas, groups = list(dict.fromkeys(gammas)), list(dict.fromkeys(groups))
    grid_gammas, grid_ys = (list(dict.fromkeys(axis)) for axis in grid or ((), ()))
    evaluator = CohortEvaluator(store, rules)
    members = form_groups(store, groups)
    group_specs = [make_spec(y, gamma) for gamma in gammas]
    grid_specs = [make_spec(grid_y, gamma) for gamma in grid_gammas for grid_y in grid_ys]
    eligible = sorted({pid for pids in members.values() for pid in pids})
    # a group spec that is also a grid cell is evaluated once
    failures = evaluator.precompute(eligible, list(dict.fromkeys(group_specs + grid_specs)),
                                    workers)
    members = {g: [pid for pid in pids if pid not in failures] for g, pids in members.items()}

    tables = {name: [] for name in VALIDATION_TABLES if name != "sweep" or grid is not None}
    warnings = []
    for group in groups:
        label, pids = group.label, members[group]
        for spec in group_specs:
            eq, mp, undefined, _ = _cell(evaluator, pids, spec, alpha)
            key = [label, spec.gamma, y]
            if eq is not None:
                tables["eqvas_correlations"].append(
                    key + [eq.n, eq.coefficient, eq.p_value, int(eq.bonferroni_significant)])
            if mp is not None:
                tables["maxpain_summary"].append(
                    key + [mp.n, mp.median, mp.significant_portion,
                           mp.omitted_constant_trajectories, mp.boxplot.q1, mp.boxplot.q3,
                           mp.boxplot.whisker_low, mp.boxplot.whisker_high, mp.threshold])
                tables["maxpain_person"].extend(
                    key + [c.person_id, c.n_days, c.coefficient, c.p_value, int(c.significant)]
                    for c in mp.correlations)
                bins = _defined(undefined, "sequence_bins", bin_by_sequence_length, store, mp)
                tables["sequence_bins"].extend(key + list(astuple(b)) for b in bins or ())
            where = f"group {label} gamma={format_cell(spec.gamma)} y={format_cell(y)}"
            warnings.extend(f"{where} {name} is undefined: {reason}"
                            for name, reason in undefined.items())
        for spec in grid_specs:
            eq, mp, undefined, distinct = _cell(evaluator, pids, spec, alpha)
            status = next(iter(undefined.values()), "ok")
            tables["sweep"].append(
                [label, spec.gamma, spec.y,
                 *((None,) * 3 if eq is None else (eq.n, eq.coefficient, eq.p_value)),
                 *((None,) * 3 if mp is None else (mp.n, mp.median, mp.significant_portion)),
                 distinct, status])
            if undefined:
                warnings.append(f"sweep cell group={label} gamma={format_cell(spec.gamma)} "
                                f"y={format_cell(spec.y)} is undefined: {status}")

    return Validation(tables, failures, warnings, dict(
        alpha=alpha, gammas=gammas, y=y, groups={g.label: len(members[g]) for g in groups},
        persons=len(store), reliabilities=rules.reliabilities(),
        grid=None if grid is None else {"gamma": grid_gammas, "y": grid_ys}))
