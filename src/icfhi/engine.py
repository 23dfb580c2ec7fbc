"""Bottom-up health index evaluation over an ICF code tree.

A person's records are compiled against a tree once: ``compile_records``
turns each record into a row (day, node slot, fanout-key id, value, r) of
the tree's integer slots, where the fanout key stands for the (parent slot,
source id) pair.  Every evaluated day then works from these rows alone.  A
record of age TE days carries the time weight alpha = gamma**TE, worked out
once per distinct record day, and a source that feeds z visible qualifiers
across the children of one parent gives each of them the uniqueness
u = 1/z, counted over the records visible that day.

The roll-up runs from the deepest level to the synthetic root: a node with
children aggregates its own (direct) qualifiers with weight alpha*r, the
calculated values of its children with weight alpha*r, and the qualifiers of
its children that have no calculated value (leaves) with weight alpha*r*u,
all weights normalized to sum to one.  The node value is the tuning curve
applied to the weighted mean; the node's alpha and r are the same weighted
means over the contributing alpha and r values.  Ancestors see a calculated
node only through its value, so every record reaches the root along exactly
one path.  The raw root value in [0, 4] is inverted and scaled to the 0-100
health index.

A node's normalized weights come from alpha, r and u alone, never from a
value, and only the values depend on the curve parameter y.  So a day is
evaluated in two steps.  The weight plan (``_plan``) depends on the day and
gamma: the visible rows, alpha per record day, the fanout u, and per
calculated node its normalized weights, its record values, the children
whose values fill in, and its alpha and r.  The value pass (``_score``)
depends on y: bottom-up, each node's value is the curve at the weighted
mean of its values.  One plan serves every y of its gamma.  When every
weight at a node is zero or subnormal because old time weights underflowed,
the node is weighed again from log time weights, (day - d)*log(gamma).

There is one way to evaluate: ``compile_records`` once per person and
tree, then one ``evaluate_table`` call for any days and any number of
weighting specs, which weighs each day once per gamma and scores it under
every spec of that gamma, with per-node audits on request; ``qualifiers``
shows the alpha, r and u of each record on a day.  ``evaluate_cohort``
runs ``evaluate_table`` on many persons' compiled tables, in this process
or in a process pool, and reports a person whose evaluation fails instead
of stopping.  Every evaluation, on any of these paths, is one
``EvaluationReport`` from ``_score``: the raw root value, its alpha and r,
and the raw value per component, with the 0-100 index as
``report.index``.  Every step is pure: the tree and the table are never
changed, so repeated evaluations are identical.
"""

from __future__ import annotations

import math
import sys
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property, partial
from operator import mul
from typing import Iterable, Iterator, NamedTuple, Sequence

from .codes import ROOT_SLOT, IcfCode, IcfTree
from .errors import EvaluationError, IcfHiError
from .linkage import QUALIFIER_MAX, QUALIFIER_MIN, QualifierRecord
from .weighting import WeightingSpec, apply_curve, normalize_weights

RAW_MIN, RAW_MAX = 0.0, 4.0

# below it a float is subnormal and keeps fewer significant bits
_SMALLEST_NORMAL = sys.float_info.min


@dataclass(frozen=True)
class AttachedQualifier:
    """One record's qualifier as an evaluation on some day sees it."""

    value: float
    alpha: float
    reliability: float
    source_id: str
    uniqueness: float = 1.0


@dataclass(frozen=True)
class NodeResult:
    """Calculated (x, alpha, r) triple of a node."""

    x: float
    alpha: float
    reliability: float


@dataclass(frozen=True)
class NodeAudit:
    """Per-node evaluation diagnostics: the normalized contribution weights."""

    code: str  # "" for the root
    normalized_weights: tuple[float, ...]
    result: NodeResult


class EvaluationReport(NamedTuple):
    """One person-day's evaluation: the raw root value in [0, 4], the root's
    alpha and r, the raw value of each scored component by its letter
    (components without data are absent) and, on request, every calculated
    node's audit.  ``index`` is the raw root value on the 0-100 scale."""

    raw: float
    alpha: float
    reliability: float
    components: dict[str, float]
    audits: tuple[NodeAudit, ...] | None = None

    @property
    def index(self) -> int:
        return scale_index(self.raw)


def nint(value: float) -> int:
    """Nearest integer, halves rounded away from zero."""
    return int(math.copysign(math.floor(abs(value) + 0.5), value))


def scale_index(raw: float, min_raw: float = RAW_MIN, max_raw: float = RAW_MAX) -> int:
    """Invert and scale a raw value onto the 0 (worst) - 100 (best) index."""
    if max_raw <= min_raw:
        raise EvaluationError(f"degenerate scaling bounds [{min_raw}, {max_raw}]")
    return nint(100.0 - 100.0 * (raw - min_raw) / (max_raw - min_raw))


@dataclass(frozen=True)
class RecordTable:
    """One person's records compiled against a tree.

    ``rows`` holds (day, node slot, fanout-key id, value, r) per record, in
    record order; ``keys`` maps a fanout-key id to its (parent slot, source
    id) pair.  ``nodes`` is the tree's bottom-up order cut down to the slots
    on the records' paths to the root, each with its children on those
    paths: a node off them never gets a contribution.
    """

    tree: IcfTree
    rows: tuple[tuple[int, int, int, float, float], ...]
    keys: tuple[tuple[int, str], ...]
    nodes: tuple[tuple[int, tuple[int, ...]], ...]

    # derived once per table, for every day's weighing; kept in the
    # instance __dict__, outside the fields
    @cached_property
    def _days(self) -> tuple[int, ...]:
        return tuple(sorted({row[0] for row in self.rows}))

    @cached_property
    def _calculated(self) -> frozenset[int]:
        return frozenset(slot for slot, _ in self.nodes)


def compile_records(tree: IcfTree, records: Iterable[QualifierRecord]) -> RecordTable:
    """Resolve each record against ``tree`` once, for any number of
    evaluations on any days and weighting specs.  A record whose code is not
    in the tree, whose value lies outside [0, 4] or whose reliability lies
    outside [0, 1] (nan included) is an EvaluationError."""
    slots, parent_slots = tree.slots, tree.parent_slots
    keys: dict[tuple[int, str], int] = {}
    rows = []
    for record in records:
        slot = slots.get(record.code)
        if slot is None:
            raise EvaluationError(
                f"record for ICF code {record.code} which is not in the tree"
            )
        value, r = float(record.value), record.reliability
        # the comparisons are False for nan, so nan is rejected too
        if not QUALIFIER_MIN <= value <= QUALIFIER_MAX:
            raise EvaluationError(f"record for ICF code {record.code} has qualifier value "
                                  f"{value!r} outside [{QUALIFIER_MIN:g}, {QUALIFIER_MAX:g}]")
        if not 0.0 <= r <= 1.0:
            raise EvaluationError(f"record for ICF code {record.code} has reliability {r!r} "
                                  "outside [0, 1]")
        key = keys.setdefault((parent_slots[slot], record.source_id), len(keys))
        rows.append((record.day, slot, key, value, r))
    on_path: set[int] = set()
    for _, slot, _, _, _ in rows:
        while slot >= 0 and slot not in on_path:
            on_path.add(slot)
            slot = parent_slots[slot]
    nodes = tuple((slot, tuple(child for child in tree.child_slots[slot] if child in on_path))
                  for slot in tree.bottom_up if slot in on_path)
    return RecordTable(tree, tuple(rows), tuple(keys), nodes)


def _visible(table: RecordTable, day: int, gamma: float):
    """The rows visible on ``day`` in record order, the time weight
    gamma**(day - d) of each of their days d, and the fanout z of each
    fanout key over them."""
    visible = [row for row in table.rows if row[0] <= day]
    # counted, not assumed: one source may feed its siblings on several days
    fanout = [0] * len(table.keys)
    for row in visible:
        fanout[row[2]] += 1
    alphas = {d: gamma ** (day - d) for d in table._days if d <= day}
    return visible, alphas, fanout


def qualifiers(table: RecordTable, day: int,
               gamma: float) -> dict[IcfCode, tuple[AttachedQualifier, ...]]:
    """Every code with a record visible on ``day``, with its qualifiers in
    record order: value, time weight gamma**(day - d), r, source and u.
    Built on request for inspection; the roll-up reads the table."""
    codes, keys = table.tree.slot_codes, table.keys
    out: dict[IcfCode, list[AttachedQualifier]] = {}
    visible, alphas, fanout = _visible(table, day, gamma)
    for d, slot, key, value, r in visible:
        out.setdefault(codes[slot], []).append(
            AttachedQualifier(value, alphas[d], r, keys[key][1], 1.0 / fanout[key]))
    return {code: tuple(quals) for code, quals in out.items()}


class _Day(NamedTuple):
    """One day's visible rows, fanouts and steps weighed so far under one
    gamma: what ``_normalize`` reads when it has to work in log space."""

    table: RecordTable
    visible: list
    fanout: list
    day: int
    gamma: float
    steps: dict


def _normalize(ctx: _Day, slot: int, children: Sequence[int], weights: Sequence[float]):
    """The normalized contribution weights of one node.

    When every weight is zero or subnormal, they are recomputed from log
    time weights, so that time weights that underflow on a long horizon,
    to zero or to a few significant bits, still rank as they should; only
    a node whose contributions all have r*u = 0 cannot be aggregated.
    """
    if max(weights) >= _SMALLEST_NORMAL:
        return normalize_weights(weights)
    # compile_records admits no negative weight, so all are zero or subnormal
    normed = _log_normalize(_log_terms(ctx, dict(ctx.table.nodes), slot, children))
    if normed is None:
        label = "root" if slot == ROOT_SLOT else ctx.table.tree.slot_codes[slot]
        raise EvaluationError(
            f"all contribution weights at node {label} are zero (reliability and/or "
            "time weights vanish); the node cannot be aggregated"
        )
    return normed


def _log_terms(ctx: _Day, children_of: dict, slot: int, children: Sequence[int]) -> list:
    """(log alpha, weight over alpha) of each contribution of a node, in the
    order ``_plan`` gives them: (day - d)*log(gamma) for a record, the
    logsumexp of its weighted contributions for a calculated child."""
    _, visible, fanout, day, gamma, steps = ctx
    log_gamma = math.log(gamma)
    terms = [((day - d) * log_gamma, r) for d, s, _, _, r in visible if s == slot]
    for child in children:
        step = steps.get(child)
        if step is not None:
            child_terms = _log_terms(ctx, children_of, child, children_of[child])
            terms.append((_logsumexp([math.log(w) + log_alpha for w, (log_alpha, _)
                                      in zip(step[1], child_terms) if w > 0.0]), step[5]))
        else:
            terms += [((day - d) * log_gamma, r * (1.0 / fanout[key]))
                      for d, s, key, _, r in visible if s == child]
    return terms


def _logsumexp(logs: Sequence[float]) -> float:
    top = max(logs)
    return top + math.log(math.fsum(math.exp(x - top) for x in logs))


def _log_normalize(terms: list) -> list[float] | None:
    """Normalized weights from (log alpha, weight over alpha) terms, with
    the largest log weight subtracted first; None when every term has
    weight zero."""
    logs = [log_alpha + math.log(k) if k > 0.0 else -math.inf for log_alpha, k in terms]
    top = max(logs)
    if top == -math.inf:
        return None
    return normalize_weights([math.exp(x - top) for x in logs])


class _Plan(NamedTuple):
    """What one day's evaluation under one gamma needs beyond y.

    ``steps`` holds one (slot, normalized weights, values, fills, alpha, r)
    per calculated node in bottom-up order: ``values`` are the
    contribution values, with 0.0 where a calculated child's value goes,
    and ``fills`` the (position, child slot) of each such child.
    ``components`` holds (component, slot, bare) per scored component in
    the order of the tree, where ``bare`` is the (normalized weights,
    values) of a component with data on the bare letter alone, else None.
    Nothing in a plan is changed after ``_plan`` returns it.
    """

    tree: IcfTree
    steps: tuple
    components: tuple
    alpha: float
    reliability: float


def _plan(table: RecordTable, day: int, gamma: float) -> _Plan | None:
    """Weigh the records visible on ``day`` under ``gamma``: everything an
    evaluation needs but the values of calculated nodes, which alone
    depend on y.  None when no record is visible.

    A node with children is calculated in the tree's bottom-up order; a
    leaf never is, its qualifiers flow into its parent.  A component with
    data on the bare letter alone is scored from its own qualifiers.
    """
    visible, alphas, fanout = _visible(table, day, gamma)
    if not visible:
        return None
    # a calculated node's qualifiers are direct, with weight alpha*r; a
    # leaf's flow into its parent with weight alpha*r*u
    calculated = table._calculated
    direct: defaultdict[int, list[tuple]] = defaultdict(list)
    as_leaf: defaultdict[int, list[tuple]] = defaultdict(list)
    for d, slot, key, value, r in visible:
        alpha = alphas[d]
        if slot in calculated:
            direct[slot].append((value, alpha, r, alpha * r))
        else:
            u = 1.0 / fanout[key]
            as_leaf[slot].append((value, alpha, r, alpha * r * u))
    # slot -> (slot, normed, values, fills, alpha, r), in bottom-up order
    steps: dict[int, tuple] = {}
    ctx = _Day(table, visible, fanout, day, gamma, steps)
    for slot, children in table.nodes:
        contributions = direct.get(slot, [])
        fills = []
        for child in children:
            step = steps.get(child)
            if step is not None:
                fills.append((len(contributions), child))
                contributions.append((0.0, step[4], step[5], step[4] * step[5]))
            elif child in as_leaf:
                contributions += as_leaf[child]
        if not contributions:
            continue
        values, alphas_c, rels, weights = zip(*contributions)
        normed = _normalize(ctx, slot, children, weights)
        # convex combinations of values in [0, 1]; clip float dust at the ends
        steps[slot] = (slot, normed, values, fills or (),
                       min(max(math.fsum(map(mul, normed, alphas_c)), 0.0), 1.0),
                       min(max(math.fsum(map(mul, normed, rels)), 0.0), 1.0))

    tree = table.tree
    components = []
    for child in table.nodes[-1][1]:  # the components, in the order of the tree
        bare = None
        if child not in steps:
            if child not in as_leaf:
                continue
            # data on the bare letter alone, with weight alpha*r
            values, alphas_c, rels, _ = zip(*as_leaf[child])
            bare = (_normalize(ctx, child, (), list(map(mul, alphas_c, rels))), values)
        components.append((tree.slot_codes[child].component, child, bare))
    root = steps[ROOT_SLOT]  # every visible record reaches the root
    return _Plan(tree, tuple(steps.values()), tuple(components), root[4], root[5])


def _score(plan: _Plan, spec: WeightingSpec, audit: bool = False) -> EvaluationReport:
    """The report of a plan under ``spec``, from the value pass: each
    calculated node's value is the curve at the weighted mean of its
    values, bottom-up from the plan's weights.  With ``audit`` the report
    also carries every calculated node's weights and result."""
    xs = {}  # slot -> x
    for slot, normed, values, fills, _, _ in plan.steps:
        if fills:
            values = list(values)
            for i, child in fills:
                values[i] = xs[child]
        xs[slot] = apply_curve(spec, math.fsum(map(mul, normed, values)))
    components = {comp: xs[slot] if bare is None else apply_curve(spec, math.fsum(map(mul, *bare)))
                  for comp, slot, bare in plan.components}
    audits = None
    if audit:
        codes = plan.tree.slot_codes
        audits = tuple(NodeAudit(code="" if slot == ROOT_SLOT else codes[slot],
                                 normalized_weights=tuple(normed),
                                 result=NodeResult(xs[slot], alpha, r))
                       for slot, normed, _, _, alpha, r in plan.steps)
    return EvaluationReport(xs[ROOT_SLOT], plan.alpha, plan.reliability, components, audits)


def evaluate_table(
    table: RecordTable,
    days: Sequence[int],
    specs: Sequence[WeightingSpec],
    *,
    audit: bool = False,
) -> list[list[tuple[int, EvaluationReport | None]]]:
    """Evaluate a compiled table on each requested day under each spec: per
    spec, in spec order, the (day, report or None) pairs of the days in
    order.  A day uses only the records available by that day and the day
    itself as the decay reference; the report is None on a day before the
    first record.  Each day is weighed once per gamma and scored under every
    spec of that gamma.  With ``audit`` each report also carries every
    calculated node's normalized weights and result.

    Which nodes are leaves comes from the table's tree: on a cohort-wide
    tree a code that is a leaf for this person may have children, and the
    tuning curve f then applies once more at it.  For example, a record on
    b280 evaluated at y = 0.75 gives raw f^4(v) on a tree that also holds
    b2800, and f^3(v) on the record's own tree.
    """
    if list(days) != sorted(days):
        raise EvaluationError("evaluation days must be sorted ascending")
    by_gamma: dict[float, list[int]] = {}
    for i, spec in enumerate(specs):
        by_gamma.setdefault(spec.gamma, []).append(i)
    reports: list[list] = [[] for _ in specs]
    for gamma, indices in by_gamma.items():
        for day in days:
            plan = _plan(table, day, gamma)
            for i in indices:
                reports[i].append((day, None if plan is None else _score(plan, specs[i], audit)))
    return reports


def _evaluate_job(specs: Sequence[WeightingSpec], job: tuple):
    """One person's (day, report or None) pairs per spec, or the error that
    stopped the evaluation.  At module level and private, so that it
    pickles as itself."""
    pid, table, days = job
    try:
        return pid, evaluate_table(table, days, specs)
    except IcfHiError as exc:
        return pid, exc


def evaluate_cohort(jobs: Iterable[tuple[str, RecordTable, Sequence[int]]],
                    specs: Sequence[WeightingSpec], workers: int,
                    n_jobs: int | None = None) -> Iterator[tuple[str, list | IcfHiError]]:
    """Evaluate each (person id, table, days) job under every spec, in job
    order: (person id, reports per spec), or (person id, error) when the
    person's evaluation raises.  The reports are what ``evaluate_table``
    returns for the job's table and days, without audits.  ``n_jobs`` is the number of jobs, by
    default ``len(jobs)``.  One worker, or one job, takes one job at a time
    from ``jobs`` in this process; otherwise a process pool of
    min(workers, n_jobs) processes shares them out.  The results are the
    same for any worker count."""
    task = partial(_evaluate_job, tuple(specs))
    workers = min(workers, len(jobs) if n_jobs is None else n_jobs)
    if workers <= 1:
        yield from map(task, jobs)
        return
    # imported here, so that a run in one process never loads multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(task, jobs, chunksize=4)
