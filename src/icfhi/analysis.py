"""Cohort-level validation statistics for the health index.

Implements the validation protocol: eligibility groups by treatment
duration and sequence length, pooled EQ-VAS vs. index correlation, per
person maximum-pain vs. index trajectory correlations with Bonferroni
correction, tertile binning by sequence length, and (gamma, y) parameter
sweeps.  All outputs are deterministic given the cohort and grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .codes import IcfTree, build_tree
from .cohort import CohortStore, Person, stats
from .engine import RecordTable, _Plan, _plan, _score, compile_records, evaluate_cohort
from .errors import IcfHiError, InsufficientDataError
from .linkage import RuleSet, apply_rules
from .weighting import WeightingSpec, make_spec

DEFAULT_ALPHA = 0.05

PAIN_INSTRUMENT = "pain_vas"


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


@dataclass(frozen=True)
class SweepCell:
    """One (gamma, y) cell.  A statistic that is undefined for the cell has
    None values, and ``status`` names the reason of the first undefined
    one, EQ-VAS before maximum pain ("ok" when both are defined)."""

    gamma: float
    y: float
    eqvas_n: int | None
    eqvas_coefficient: float | None
    eqvas_p: float | None
    maxpain_n: int | None
    maxpain_median: float | None
    maxpain_significant_portion: float | None
    distinct_index_values: int
    status: str


class CohortEvaluator:
    """Links a cohort once, holds the cohort-wide tree skeleton, every
    person's records compiled against it and every person's maximum pain
    by day, and caches per (person, day, gamma, y) index evaluations.  The
    weight plans of one gamma at a time are kept per (person, day), so that
    each y of that gamma only runs the value pass."""

    def __init__(self, store: CohortStore, rules: RuleSet):
        self.store = store
        records = {person.person_id: apply_rules(person.answers, rules) for person in store}
        codes = {r.code for recs in records.values() for r in recs}
        self.tree: IcfTree | None = build_tree(codes) if codes else None
        self.tables: dict[str, RecordTable] = {
            pid: compile_records(self.tree, recs) for pid, recs in records.items() if recs
        }
        self.max_pain: dict[str, dict[int, float]] = {
            person.person_id: max_pain_by_day(person) for person in store}
        self._cache: dict[tuple, "int | None"] = {}
        # built on demand in hi, and dropped when hi is asked for another gamma
        self._plans: dict[tuple[str, int], _Plan | None] = {}
        self._plans_gamma: float | None = None

    def hi(self, person_id: str, day: int, spec: WeightingSpec) -> "int | None":
        """Index value at ``day`` from records up to that day; None when the
        person has no linkable records yet."""
        key = (person_id, day, spec.gamma, spec.y)
        if key not in self._cache:
            table = self.tables.get(person_id)
            plan = None
            if table is not None:
                if spec.gamma != self._plans_gamma:
                    self._plans, self._plans_gamma = {}, spec.gamma
                plan_key = (person_id, day)
                if plan_key not in self._plans:
                    self._plans[plan_key] = _plan(table, day, spec.gamma)
                plan = self._plans[plan_key]
            self._cache[key] = None if plan is None else _score(plan, spec).index
        return self._cache[key]

    def precompute(self, person_ids: Sequence[str], specs: Sequence[WeightingSpec],
                   workers: int = 1) -> dict[str, str]:
        """Fill the cache for every (person, statistic day, spec), with the
        values ``hi`` would compute, for any worker count; return the error
        message of each person whose evaluation fails.

        The statistic days of a person are the days the statistics read:
        EQ-VAS days and pain days.  A person whose evaluation would fail
        only on another day is not reported."""
        pids = [pid for pid in person_ids if pid in self.tables]
        jobs = ((pid, self.tables[pid], self._statistic_days(pid)) for pid in pids)
        failures = {}
        for pid, outcome in evaluate_cohort(jobs, specs, workers, len(pids)):
            if isinstance(outcome, IcfHiError):
                failures[pid] = str(outcome)
                continue
            for spec, reports in zip(specs, outcome):
                for day, report in reports:
                    self._cache[(pid, day, spec.gamma, spec.y)] = (
                        None if report is None else report.index)
        return failures

    def _statistic_days(self, person_id: str) -> list[int]:
        """The days on which the statistics read a person's index: EQ-VAS
        days and maximum-pain days, sorted."""
        return sorted(set(self.store.person(person_id).eqvas).union(self.max_pain[person_id]))


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
    index (or pain) trajectory is constant are omitted and counted.
    """
    raw: list[tuple[str, int, float, float]] = []
    omitted = 0
    for pid in person_ids:
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
    arr = np.asarray(values, dtype=float)
    q1, median, q3 = (float(v) for v in np.percentile(arr, [25, 50, 75]))
    iqr = q3 - q1
    low_fence, high_fence = q1 - 1.5 * iqr, q3 + 1.5 * iqr
    inside = arr[(arr >= low_fence) & (arr <= high_fence)]
    return BoxplotStats(
        n=len(arr),
        median=median,
        q1=q1,
        q3=q3,
        whisker_low=float(inside.min()),
        whisker_high=float(inside.max()),
    )


def bin_by_sequence_length(store: CohortStore, report: MaxPainReport,
                           k: int = 3) -> list[SequenceBin]:
    """Split the per-person correlations into ``k`` near-equal bins by the
    person's treatment sequence length (ties broken by person id)."""
    if len(report.correlations) < k:
        raise InsufficientDataError(
            f"cannot form {k} bins from {len(report.correlations)} correlations",
            "too_few_correlations",
        )
    keyed = sorted(
        ((stats(store.person(c.person_id)).sequence_length, c.person_id, c)
         for c in report.correlations),
    )
    chunks = np.array_split(np.arange(len(keyed)), k)
    bins: list[SequenceBin] = []
    for i, chunk in enumerate(chunks, start=1):
        members = [keyed[j] for j in chunk]
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


def sweep(evaluator: CohortEvaluator, person_ids: Sequence[str],
          gammas: Sequence[float], ys: Sequence[float],
          alpha: float = DEFAULT_ALPHA) -> list[SweepCell]:
    """One row per (gamma, y): the pooled EQ-VAS correlation and the
    maximum-pain median correlation for the group, and the number of
    distinct index values in the pooled EQ-VAS series.  A cell whose
    statistic is undefined is reported with its status, not raised."""
    cells: list[SweepCell] = []
    for gamma in gammas:
        for y in ys:
            spec = make_spec(y, gamma)
            eqvas_values, hi_values = _eqvas_pairs(evaluator, person_ids, spec)
            reasons = []
            try:
                eq = _pooled_correlation(eqvas_values, hi_values, alpha)
                eq_values = (eq.n, eq.coefficient, eq.p_value)
            except InsufficientDataError as exc:
                reasons.append(exc.reason)
                eq_values = (None, None, None)
            try:
                mp = maxpain_vs_hi(evaluator, person_ids, spec, alpha)
                mp_values = (mp.n, mp.median, mp.significant_portion)
            except InsufficientDataError as exc:
                reasons.append(exc.reason)
                mp_values = (None, None, None)
            cells.append(SweepCell(gamma, y, *eq_values, *mp_values,
                                   distinct_index_values=len(set(hi_values)),
                                   status=reasons[0] if reasons else "ok"))
    return cells
