"""Bottom-up health index evaluation over an ICF code tree.

A person's records are compiled against a tree once: ``compile_records``
groups them by the slot of their code, each record one row (day, value, r,
fanout-key id) in record order, where the fanout key stands for the
(parent slot, source id) pair.  Every evaluated day then takes, per node,
the visible rows of the node and of its leaf children from these groups
alone.  A
record of age TE days carries the time weight alpha = gamma**TE, worked out
once per distinct record day, and a source that feeds z visible qualifiers
across the children of one parent gives each of them the uniqueness
u = 1/z, counted over the records visible that day.  When a source's
records share one day, as those of every source that linkage makes do, u
is fixed when the table is compiled; otherwise each day counts it.

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
evaluated in two steps.  The weight plan (``_weigh``) depends on the day and
gamma.  While it weighs, taking from each group the rows of records
visible that day, it holds each calculated node's normalized weights,
alpha and r.  The plan it returns keeps only what the value pass reads:
per calculated node without a calculated child its weighted mean of
values, the same under every y, and per node with one its weights,
contribution values and the positions its children's values fill, plus
the root's alpha and r; a plan weighed for an audit also keeps every
calculated node's weights, alpha and r.  The value pass (``_score``)
depends on y: bottom-up, each node's value is the curve at its weighted
mean, summed in the pass only at a node with a calculated child.  One
plan serves every y of its gamma.  When every weight at a node is zero or
subnormal because old time weights underflowed, the node is weighed again
from log time weights, (day - d)*log(gamma).

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
from bisect import bisect_right
from collections import defaultdict
from functools import partial
from itertools import chain, islice
from operator import mul
from typing import Iterable, Iterator, NamedTuple, Sequence

from .codes import QUALIFIER_MAX, QUALIFIER_MIN, ROOT_SLOT, IcfCode, IcfTree
from .errors import EvaluationError, IcfHiError
from .linkage import QualifierRecord
from .weighting import WeightingSpec, curve_function, normalize_weights

# below it a float is subnormal and keeps fewer significant bits
_SMALLEST_NORMAL = sys.float_info.min


class AttachedQualifier(NamedTuple):
    """One record's qualifier as an evaluation on some day sees it."""

    value: float
    alpha: float
    reliability: float
    source_id: str
    uniqueness: float = 1.0


class NodeResult(NamedTuple):
    """Calculated (x, alpha, r) triple of a node."""

    x: float
    alpha: float
    reliability: float


class NodeAudit(NamedTuple):
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


def scale_index(raw: float, min_raw: float = QUALIFIER_MIN, max_raw: float = QUALIFIER_MAX) -> int:
    """Invert and scale a raw value onto the 0 (worst) - 100 (best) index,
    rounded to the nearest integer with halves away from zero."""
    if max_raw <= min_raw:
        raise EvaluationError(f"degenerate scaling bounds [{min_raw}, {max_raw}]")
    scaled = 100.0 - 100.0 * (raw - min_raw) / (max_raw - min_raw)
    return int(math.copysign(math.floor(abs(scaled) + 0.5), scaled))


class RecordTable(NamedTuple):
    """One person's records compiled against a tree, grouped by code.

    ``nodes`` is the tree's bottom-up order cut down to the slots on the
    records' paths to the root, each with its children on those paths: a
    node off them never gets a contribution.  ``rows`` maps the slot of
    each code with records to their rows in record order, one row (day,
    value, r, key id) per record: a calculated node's rows are its own, a
    leaf's flow into its parent.  The key id numbers the record's fanout
    key, its (parent slot, source id) pair; ``sources`` holds each key's
    source id and ``us`` its u = 1/z, where z counts the key's records.
    ``spread`` holds a (key id, sorted days) pair per key whose records
    span several days: its z grows with the day, so each evaluated day
    counts those visible.  ``days`` holds the distinct record days in
    order.
    """

    tree: IcfTree
    nodes: tuple[tuple[int, tuple[int, ...]], ...]
    rows: dict[int, tuple[tuple[int, float, float, int], ...]]
    days: tuple[int, ...]
    sources: tuple[str, ...]
    us: tuple[float, ...]
    spread: tuple[tuple[int, tuple[int, ...]], ...]


def compile_records(tree: IcfTree, records: Iterable[QualifierRecord]) -> RecordTable:
    """Resolve each record against ``tree`` once, for any number of
    evaluations on any days and weighting specs.  A record whose code is not
    in the tree, whose value lies outside [0, 4] or whose reliability lies
    outside [0, 1] (nan included) is an EvaluationError."""
    slots, parent_slots, child_slots = tree.slots, tree.parent_slots, tree.child_slots
    keys: dict[tuple[int, str], int] = {}  # fanout key -> its id
    first = []  # per key id, the day of its first record
    more: dict[int, int] = {}  # key id -> z, for each key with more than one record
    spread = set()  # the ids of keys whose records span several days
    # slot -> one (day, value, r, key id) row per record, in record order
    groups: defaultdict[int, list] = defaultdict(list)
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
        day = record.day
        key = keys.setdefault((parent_slots[slot], record.source_id), len(first))
        if key == len(first):
            first.append(day)
        else:
            more[key] = more.get(key, 1) + 1
            if first[key] != day:
                spread.add(key)
        groups[slot].append((day, value, r, key))
    us = [1.0] * len(first)
    for key, z in more.items():
        us[key] = 1.0 / z
    # a key whose records span several days keeps their days, to count its u per day
    spread_days: dict[int, list[int]] = {key: [] for key in spread}
    if spread_days:
        for group in groups.values():
            for day, _, _, key in group:
                if key in spread_days:
                    spread_days[key].append(day)
    days = set(first).union(*spread_days.values())
    on_path: set[int] = set()
    for slot in groups:
        while slot >= 0 and slot not in on_path:
            on_path.add(slot)
            slot = parent_slots[slot]
    nodes = tuple((slot, tuple(child for child in child_slots[slot] if child in on_path))
                  for slot in tree.bottom_up if slot in on_path)
    return RecordTable(tree, nodes, {slot: tuple(group) for slot, group in groups.items()},
                       tuple(sorted(days)), tuple([source for _, source in keys]),
                       tuple(us),
                       tuple((key, tuple(sorted(ds))) for key, ds in spread_days.items()))


def _check_gamma(gamma: float) -> None:
    """Reject a time decay constant that would make a time weight negative,
    nan or grow with age, once per call and not per node."""
    # the comparisons are False for nan, so nan is rejected too
    if not 0.0 < gamma <= 1.0:
        raise EvaluationError(f"time decay constant gamma must lie in (0, 1], got {gamma!r}")


def _uniqueness(table: RecordTable, day: int) -> Sequence[float]:
    """The u of each fanout key on ``day``, by key id: where a key's records
    span several days, 1/z for the z of them visible."""
    if not table.spread:
        return table.us
    us = list(table.us)
    for key, key_days in table.spread:
        z = bisect_right(key_days, day)
        if z:  # else no record of the key is visible, and its u is not read
            us[key] = 1.0 / z
    return us


def qualifiers(table: RecordTable, day: int,
               gamma: float) -> dict[IcfCode, tuple[AttachedQualifier, ...]]:
    """Every code with a record visible on ``day``, in code order, with its
    qualifiers in record order: value, time weight gamma**(day - d), r,
    source and u.  Built on request for inspection; the roll-up reads the
    table."""
    _check_gamma(gamma)
    codes, sources, us = table.tree.slot_codes, table.sources, _uniqueness(table, day)
    out: dict[IcfCode, tuple[AttachedQualifier, ...]] = {}
    for slot, rows in table.rows.items():
        quals = tuple(AttachedQualifier(value, gamma ** (day - d), r, sources[key], us[key])
                      for d, value, r, key in rows if d <= day)
        if quals:
            out[codes[slot]] = quals
    return dict(sorted(out.items()))


def _normalize(weights: Sequence[float], table: RecordTable, us: Sequence[float], day: int,
               gamma: float, weighed: dict, slot: int, children: Sequence[int]) -> list[float]:
    """The normalized contribution weights of one node, in the order
    ``_weigh`` gives them; ``weighed`` maps each calculated node weighed
    so far to its (normalized weights, alpha, r).

    When every weight is zero or subnormal, they are recomputed from log
    time weights, so that time weights that underflow on a long horizon,
    to zero or to a few significant bits, still rank as they should; only
    a node whose contributions all have r*u = 0 cannot be aggregated.
    The weights are non-negative: ``compile_records`` admits no r outside
    [0, 1] and every evaluation no gamma outside (0, 1].
    """
    if max(weights) >= _SMALLEST_NORMAL:
        total = math.fsum(weights)
        return [w / total for w in weights]
    log_gamma = math.log(gamma)
    children_of = dict(table.nodes)

    def terms(slot: int, children: Sequence[int]) -> list:
        """(log alpha, weight over alpha) of each contribution of a node:
        (day - d)*log(gamma) for a record, the logsumexp of its weighted
        contributions for a calculated child."""
        out = [((day - d) * log_gamma, r) for d, _, r, _ in table.rows.get(slot, ()) if d <= day]
        for child in children:
            node = weighed.get(child)
            if node is not None:
                logs = [math.log(w) + log_alpha for w, (log_alpha, _)
                        in zip(node[0], terms(child, children_of[child])) if w > 0.0]
                top = max(logs)
                log_sum = top + math.log(math.fsum(math.exp(x - top) for x in logs))
                out.append((log_sum, node[2]))
            else:  # a leaf, or a calculated child none of whose records is visible
                out += [((day - d) * log_gamma, r * us[key])
                        for d, _, r, key in table.rows.get(child, ()) if d <= day]
        return out

    logs = [log_alpha + math.log(k) if k > 0.0 else -math.inf
            for log_alpha, k in terms(slot, children)]
    top = max(logs)
    if top == -math.inf:
        label = "root" if slot == ROOT_SLOT else table.tree.slot_codes[slot]
        raise EvaluationError(
            f"all contribution weights at node {label} are zero (reliability and/or "
            "time weights vanish); the node cannot be aggregated"
        )
    return normalize_weights([math.exp(x - top) for x in logs])


class _Plan(NamedTuple):
    """What one day's evaluation under one gamma needs beyond y, and no more:
    the value pass reads it all.

    ``steps`` holds one (slot, normalized weights, values, fills) per
    calculated node in bottom-up order, where ``fills`` holds the
    (position, child slot) of each calculated child.  Without fills,
    ``values`` is the node's weighted mean, the same under every y, and the
    weights are not kept (None); with them, it is the contribution values,
    with 0.0 where a calculated child's value goes.  ``components`` holds
    (component, slot, bare) per scored component in the order of the tree,
    where ``bare`` is the weighted mean of a component with data on the
    bare letter alone, else None.  ``alpha`` and ``reliability`` are the
    root's.  ``audits`` holds, for a plan weighed with ``audit``, one
    (slot, code, normalized weights, alpha, r) per calculated node in
    bottom-up order, the code "" for the root; otherwise None.
    Nothing in a plan is changed after ``_weigh`` returns it.
    """

    steps: tuple
    components: tuple
    alpha: float
    reliability: float
    audits: tuple | None


def _weigh(table: RecordTable, day: int, gamma: float, audit: bool = False) -> _Plan | None:
    """Weigh the records visible on ``day`` under ``gamma``: the plan of
    everything an evaluation needs but the values of calculated nodes,
    which alone depend on y, with ``audit`` every calculated node's
    weights, alpha and r too.  None when no record is visible.

    The nodes are weighed in the tree's bottom-up order: a node aggregates
    its own visible records with weight alpha*r, then, per child in the
    order of the tree, the child's calculated value with weight alpha*r
    or, for a leaf, its visible records with weight alpha*r*u.  A
    component with data on the bare letter alone is scored from its own
    records, with weight alpha*r.
    """
    days = table.days
    if not days or day < days[0]:
        return None
    alphas = {d: gamma ** (day - d) for d in days if d <= day}
    us = _uniqueness(table, day)
    weighed: dict[int, tuple] = {}  # slot -> (normed, alpha, r), in bottom-up order
    steps = []
    fsum = math.fsum
    nodes = table.nodes
    rows_of = table.rows
    for slot, children in nodes:
        values, alphas_c, rels, weights, fills = [], [], [], [], []
        for d, value, r, _ in rows_of.get(slot, ()):
            if d <= day:
                alpha = alphas[d]
                values.append(value)
                alphas_c.append(alpha)
                rels.append(r)
                weights.append(alpha * r)
        for child in children:
            node = weighed.get(child)
            if node is not None:
                _, alpha, r = node
                fills.append((len(values), child))
                values.append(0.0)
                alphas_c.append(alpha)
                rels.append(r)
                weights.append(alpha * r)
                continue
            # a leaf, or a calculated child none of whose records is visible
            for d, value, r, key in rows_of.get(child, ()):
                if d <= day:
                    alpha = alphas[d]
                    values.append(value)
                    alphas_c.append(alpha)
                    rels.append(r)
                    weights.append(alpha * r * us[key])
        if not weights:
            continue
        if max(weights) >= _SMALLEST_NORMAL:  # _normalize's fast path, inline: no call per node
            total = fsum(weights)
            normed = [w / total for w in weights]
        else:
            normed = _normalize(weights, table, us, day, gamma, weighed, slot, children)
        if fills:
            steps.append((slot, tuple(normed), tuple(values), tuple(fills)))
        else:  # no value fills in, so the weighted mean is the same under every y
            steps.append((slot, None, fsum(map(mul, normed, values)), ()))
        alpha, r = fsum(map(mul, normed, alphas_c)), fsum(map(mul, normed, rels))
        # convex combinations of values in [0, 1]; clip float dust at the ends
        weighed[slot] = (normed, 0.0 if alpha < 0.0 else 1.0 if alpha > 1.0 else alpha,
                         0.0 if r < 0.0 else 1.0 if r > 1.0 else r)

    components = []
    codes = table.tree.slot_codes
    for child in nodes[-1][1]:  # the components, in the order of the tree
        bare = None
        if child not in weighed:
            # data on the bare letter alone, with weight alpha*r
            visible = [row for row in rows_of.get(child, ()) if row[0] <= day]
            if not visible:
                continue
            normed = _normalize([alphas[d] * r for d, _, r, _ in visible],
                                table, us, day, gamma, weighed, child, ())
            bare = fsum(map(mul, normed, [row[1] for row in visible]))
        components.append((codes[child].component, child, bare))
    audits = None
    if audit:
        audits = tuple((slot, "" if slot == ROOT_SLOT else codes[slot], tuple(normed), alpha, r)
                       for slot, (normed, alpha, r) in weighed.items())
    _, alpha, r = weighed[ROOT_SLOT]  # every visible record reaches the root
    return _Plan(tuple(steps), tuple(components), alpha, r, audits)


def _score(plan: _Plan, spec: WeightingSpec) -> EvaluationReport:
    """The report of a plan under ``spec``, from the value pass: each
    calculated node's value is the curve at its weighted mean, bottom-up.
    The plan holds that mean, but for a node with calculated children,
    whose values are filled in and weighed here.  A plan weighed for an
    audit gives a report that carries every calculated node's weights and
    result."""
    curve = curve_function(spec.curve)
    xs = {}  # slot -> x
    for slot, normed, mean, fills in plan.steps:
        if fills:  # the slot holds the values, with the children's still to fill in
            values = list(mean)
            for i, child in fills:
                values[i] = xs[child]
            mean = math.fsum(map(mul, normed, values))
        xs[slot] = curve(mean)
    components = {comp: xs[slot] if bare is None else curve(bare)
                  for comp, slot, bare in plan.components}
    audits = None
    if plan.audits is not None:
        audits = tuple(NodeAudit(code, normed, NodeResult(xs[slot], alpha, r))
                       for slot, code, normed, alpha, r in plan.audits)
    return EvaluationReport(xs[ROOT_SLOT], plan.alpha, plan.reliability, components, audits)


def evaluate_table(
    table: RecordTable,
    days: Iterable[int],
    specs: Sequence[WeightingSpec],
    *,
    audit: bool = False,
) -> list[list[tuple[int, EvaluationReport | None]]]:
    """Evaluate a compiled table on each requested day under each spec: per
    spec, in spec order, the (day, report or None) pairs of the days in
    order.  ``days`` is any iterable, read once; days out of ascending
    order are an EvaluationError.  A day uses only the records available by
    that day and the day itself as the decay reference; the report is None
    on a day before the first record.  Each day is weighed once per gamma
    and scored under every spec of that gamma.  With ``audit`` each report
    also carries every calculated node's normalized weights and result.  A
    spec's gamma outside (0, 1], nan included, is an EvaluationError,
    raised before any day is weighed.

    Which nodes are leaves comes from the table's tree: on a cohort-wide
    tree a code that is a leaf for this person may have children, and the
    tuning curve f then applies once more at it.  For example, a record on
    b280 evaluated at y = 0.75 gives raw f^4(v) on a tree that also holds
    b2800, and f^3(v) on the record's own tree.
    """
    days = list(days)
    if days != sorted(days):
        raise EvaluationError("evaluation days must be sorted ascending")
    by_gamma: dict[float, list[int]] = {}
    for i, spec in enumerate(specs):
        by_gamma.setdefault(spec.gamma, []).append(i)
    for gamma in by_gamma:
        _check_gamma(gamma)
    reports: list[list] = [[] for _ in specs]
    for gamma, indices in by_gamma.items():
        for day in days:
            plan = _weigh(table, day, gamma, audit)
            for i in indices:
                reports[i].append((day, None if plan is None else _score(plan, specs[i])))
    return reports


def _evaluate_job(specs: Sequence[WeightingSpec], job: tuple, indices: bool = False):
    """One person's (day, report or None) pairs per spec, with ``indices``
    (day, index or None) pairs, or the error that stopped the evaluation.
    At module level and private, so that it pickles as itself."""
    pid, table, days = job
    try:
        reports = evaluate_table(table, days, specs)
    except IcfHiError as exc:
        return pid, exc
    if indices:
        reports = [[(day, None if report is None else report.index) for day, report in pairs]
                   for pairs in reports]
    return pid, reports


def evaluate_cohort(jobs: Iterable[tuple[str, RecordTable, Sequence[int]]],
                    specs: Sequence[WeightingSpec], workers: int, *,
                    indices: bool = False) -> Iterator[tuple[str, list | IcfHiError]]:
    """Evaluate each (person id, table, days) job under every spec, in job
    order: (person id, reports per spec), or (person id, error) when the
    person's evaluation raises.  The reports are what ``evaluate_table``
    returns for the job's table and days, without audits, or with
    ``indices`` only their ``index``, so that a pool pickles back no more.
    ``jobs`` may be any iterable, a generator too: the first ``workers``
    jobs are taken from it to size the pool.  One worker, or one job,
    takes one job at a time in this process; otherwise a process pool of
    min(workers, number of jobs) processes shares them out.  The results
    are the same for any worker count."""
    task = partial(_evaluate_job, tuple(specs), indices=indices)
    jobs = iter(jobs)
    first = list(islice(jobs, workers))
    if len(first) <= 1:
        yield from map(task, chain(first, jobs))
        return
    # imported here, so that a run in one process never loads multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=len(first)) as pool:
        yield from pool.map(task, chain(first, jobs), chunksize=4)
