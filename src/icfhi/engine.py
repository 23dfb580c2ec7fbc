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

There is one way to evaluate: ``compile_records`` once per person and
tree, then ``evaluate_table`` for any days and weighting specs, with
per-node audits on request; ``evaluate_trajectory`` does both in one call
and ``qualifiers`` shows the alpha, r and u of each record on a day.
``evaluate_cohort`` runs many persons' compiled tables under many specs,
in this process or in a process pool, and reports a person whose
evaluation fails instead of stopping.  Every step is pure: the tree and
the table are never changed, so repeated evaluations are identical.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from operator import mul
from typing import Iterable, Iterator, Sequence

from .codes import ROOT_SLOT, IcfCode, IcfTree, build_tree
from .errors import EvaluationError, IcfHiError
from .linkage import QualifierRecord
from .weighting import WeightingSpec, apply_curve, normalize_weights

RAW_MIN, RAW_MAX = 0.0, 4.0


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
class HealthIndex:
    value: int
    raw: float
    evaluated_at: int


@dataclass(frozen=True)
class ComponentScore:
    component: str
    value: int
    raw: float


@dataclass(frozen=True)
class HealthProfile:
    """Scaled score per ICF component; components without data are absent."""

    scores: dict[str, ComponentScore]

    def __contains__(self, component: str) -> bool:
        return component in self.scores

    def __getitem__(self, component: str) -> ComponentScore:
        return self.scores[component]


@dataclass(frozen=True)
class NodeAudit:
    """Per-node evaluation diagnostics: the normalized contribution weights."""

    code: str  # "" for the root
    normalized_weights: tuple[float, ...]
    result: NodeResult


@dataclass(frozen=True)
class EvaluationReport:
    index: HealthIndex
    alpha: float
    reliability: float
    profile: HealthProfile
    audits: tuple[NodeAudit, ...] | None = None


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


def compile_records(tree: IcfTree, records: Iterable[QualifierRecord]) -> RecordTable:
    """Resolve each record against ``tree`` once, for any number of
    evaluations on any days and weighting specs."""
    slots, parent_slots = tree.slots, tree.parent_slots
    keys: dict[tuple[int, str], int] = {}
    rows = []
    for record in records:
        slot = slots.get(record.code)
        if slot is None:
            raise EvaluationError(
                f"record for ICF code {record.code.text} which is not in the tree"
            )
        key = keys.setdefault((parent_slots[slot], record.source_id), len(keys))
        rows.append((record.day, slot, key, float(record.value), record.reliability))
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
    alphas = {d: gamma ** (day - d) for d in {row[0] for row in visible}}
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


def _aggregate(tree: IcfTree, slot: int, contributions: list[tuple], spec: WeightingSpec):
    """The (x, alpha, r) of one node from its (value, alpha, r, weight)
    contributions, and the normalized weights."""
    values, alphas, rels, weights = zip(*contributions)
    try:
        normed = normalize_weights(weights)
    except ValueError:
        label = "root" if slot == ROOT_SLOT else tree.slot_codes[slot].text
        raise EvaluationError(
            f"all contribution weights at node {label} are zero (reliability and/or "
            "time weights vanish); the node cannot be aggregated"
        ) from None
    x = apply_curve(spec, math.fsum(map(mul, normed, values)))
    # convex combinations of values in [0, 1]; clip float dust at the ends
    alpha_q = min(max(math.fsum(map(mul, normed, alphas)), 0.0), 1.0)
    r_q = min(max(math.fsum(map(mul, normed, rels)), 0.0), 1.0)
    return (x, alpha_q, r_q), tuple(normed)


def _roll_up(table: RecordTable, day: int, spec: WeightingSpec,
             audit: bool) -> EvaluationReport | None:
    """Roll the records visible on ``day`` up to the root and report the
    index, the root alpha/r and the profile; None when no record is
    visible.

    A node with children is calculated in the tree's bottom-up order; a
    leaf never is, its qualifiers flow into its parent.  A component with
    data on the bare letter alone is scored from its own qualifiers.
    """
    visible, alphas, fanout = _visible(table, day, spec.gamma)
    if not visible:
        return None
    tree = table.tree
    # a calculated node's qualifiers are direct, with weight alpha*r; a
    # leaf's flow into its parent with weight alpha*r*u
    calculated = {slot for slot, _ in table.nodes}
    direct: dict[int, list[tuple]] = {}
    as_leaf: dict[int, list[tuple]] = {}
    for d, slot, key, value, r in visible:
        alpha = alphas[d]
        if slot in calculated:
            direct.setdefault(slot, []).append((value, alpha, r, alpha * r))
        else:
            u = 1.0 / fanout[key]
            as_leaf.setdefault(slot, []).append((value, alpha, r, alpha * r * u))
    results = [None] * len(tree)  # slot -> (x, alpha, r)
    audits: list[NodeAudit] = []
    for slot, children in table.nodes:
        contributions = direct.get(slot, [])
        for child in children:
            res = results[child]
            if res is not None:
                contributions.append((*res, res[1] * res[2]))
            elif child in as_leaf:
                contributions += as_leaf[child]
        if not contributions:
            continue
        res, normed = _aggregate(tree, slot, contributions, spec)
        results[slot] = res
        if audit:
            audits.append(NodeAudit(code="" if slot == ROOT_SLOT else tree.slot_codes[slot].text,
                                    normalized_weights=normed, result=NodeResult(*res)))

    scores = {}
    for child in table.nodes[-1][1]:  # the components, in the order of the tree
        res = results[child]
        if res is None and child in as_leaf:  # data on the bare letter alone
            res, _ = _aggregate(tree, child, [(v, a, r, a * r) for v, a, r, _ in as_leaf[child]],
                                spec)
        if res is not None:
            comp = tree.slot_codes[child].component
            scores[comp] = ComponentScore(comp, scale_index(res[0]), res[0])
    x, alpha, r = results[ROOT_SLOT]  # every visible record reaches the root
    return EvaluationReport(
        index=HealthIndex(value=scale_index(x), raw=x, evaluated_at=day),
        alpha=alpha,
        reliability=r,
        profile=HealthProfile(scores),
        audits=tuple(audits) if audit else None,
    )


def _check_days(days: Sequence[int]) -> None:
    if list(days) != sorted(days):
        raise EvaluationError("trajectory days must be sorted ascending")


def evaluate_table(
    table: RecordTable,
    days: Sequence[int],
    spec: WeightingSpec,
    *,
    audit: bool = False,
) -> list[tuple[int, EvaluationReport | None]]:
    """Evaluate a compiled table on each requested day, using only the
    records available by that day and the day itself as the decay
    reference; the report is None on a day before the first record.  With
    ``audit`` each report also carries every calculated node's normalized
    weights and result."""
    _check_days(days)
    return [(day, _roll_up(table, day, spec, audit)) for day in days]


def evaluate_trajectory(
    records: Sequence[QualifierRecord],
    days: Sequence[int],
    spec: WeightingSpec,
    *,
    tree: IcfTree | None = None,
) -> list[tuple[int, EvaluationReport | None]]:
    """Compile ``records`` and evaluate them on each requested day, as
    ``evaluate_table`` does.

    The tree defaults to the one spanned by the record codes.  Which nodes
    are leaves comes from the tree passed in: on a cohort-wide tree a code
    that is a leaf for this person may have children, and the tuning curve f
    then applies once more at it.  For example, a record on b280 evaluated
    at y = 0.75 gives raw f^4(v) on a tree that also holds b2800, and f^3(v)
    on the record's own tree.
    """
    if not records:
        _check_days(days)
        return [(day, None) for day in days]
    if tree is None:
        tree = build_tree({r.code for r in records})
    return evaluate_table(compile_records(tree, records), days, spec)


def _evaluate_job(specs: Sequence[WeightingSpec], job: tuple):
    """One person's rows per spec, each (day, None | (raw, alpha, r,
    {component: raw})), or the error that stopped the evaluation.  At
    module level and private, so that it pickles as itself."""
    pid, table, days = job
    try:
        return pid, [
            [(day, None if report is None else
              (report.index.raw, report.alpha, report.reliability,
               {c: score.raw for c, score in report.profile.scores.items()}))
             for day, report in evaluate_table(table, days, spec)]
            for spec in specs
        ]
    except IcfHiError as exc:
        return pid, exc


def evaluate_cohort(jobs: Iterable[tuple[str, RecordTable, Sequence[int]]],
                    specs: Sequence[WeightingSpec],
                    workers: int) -> Iterator[tuple[str, list | IcfHiError]]:
    """Evaluate each (person id, table, days) job under every spec, in job
    order: (person id, rows per spec), or (person id, error) when the
    person's evaluation raises.  One worker takes one job at a time from
    ``jobs``; more share them out over a process pool.  The results are the
    same for any worker count."""
    task = partial(_evaluate_job, tuple(specs))
    if workers <= 1:
        yield from map(task, jobs)
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(task, jobs, chunksize=4)
