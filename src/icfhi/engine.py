"""Bottom-up health index evaluation over an ICF code tree.

``attach`` places qualifier records on a tree as of a reference day, each
carrying a time weight gamma**age, the rule reliability, and a source
uniqueness factor 1/z when the same source feeds z sibling codes under one
parent.  ``evaluate_report`` then rolls the qualifiers up from the deepest
level to the synthetic root: a node with children aggregates its own
(direct) qualifiers with weight alpha*r, the calculated values of its
children with weight alpha*r, and the qualifiers of its children that have
no calculated value (leaves) with weight alpha*r*u, all weights normalized
to sum to one.  The node value is the tuning curve applied to the weighted
mean; the node's alpha and r are the same weighted means over the
contributing alpha and r values.

Ancestors see a calculated node only through its value, so every record
reaches the root along exactly one path.  The raw root value in [0, 4] is
inverted and scaled to the 0-100 health index.  Both steps are pure: the
tree is never changed and the results live in a local table, so repeated
evaluations of one attachment are identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .codes import IcfCode, IcfTree, build_tree
from .errors import EvaluationError
from .linkage import QualifierRecord
from .weighting import WeightingSpec, apply_curve, normalize_weights

RAW_MIN, RAW_MAX = 0.0, 4.0


@dataclass(frozen=True)
class AttachedQualifier:
    """One qualifier placed on a tree node for an evaluation."""

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
class AttachedTree:
    """Qualifier records placed on a tree as of one reference day.

    ``qualifiers`` maps every code that has records to its qualifiers in
    record order.  The tree is shared, not copied.
    """

    tree: IcfTree
    reference_day: int
    qualifiers: dict[IcfCode, tuple[AttachedQualifier, ...]]


def attach(
    tree: IcfTree,
    records: Iterable[QualifierRecord],
    reference_day: int,
    spec: WeightingSpec,
) -> AttachedTree:
    """Place qualifier records on ``tree`` as of ``reference_day``.

    Each record's time weight is gamma**(reference_day - day).  A source
    linked to z qualifiers across the children of one parent gets
    uniqueness u = 1/z on each.
    """
    placed = []
    fanout: dict[tuple, int] = {}  # (parent code, source id) -> z
    for record in records:
        if record.code not in tree:
            raise EvaluationError(
                f"record for ICF code {record.code.text} which is not in the tree"
            )
        if record.day > reference_day:
            raise EvaluationError(
                f"record on day {record.day} is newer than reference day {reference_day}"
            )
        key = (tree.parents[record.code], record.source_id)
        fanout[key] = fanout.get(key, 0) + 1
        placed.append((record, key))
    qualifiers: dict[IcfCode, list[AttachedQualifier]] = {}
    for record, key in placed:
        qualifiers.setdefault(record.code, []).append(
            AttachedQualifier(
                value=float(record.value),
                alpha=spec.gamma ** (reference_day - record.day),
                reliability=record.reliability,
                source_id=record.source_id,
                uniqueness=1.0 / fanout[key],
            )
        )
    return AttachedTree(tree, reference_day,
                        {code: tuple(quals) for code, quals in qualifiers.items()})


def _direct(qualifiers: Iterable[AttachedQualifier]) -> list[tuple]:
    """(value, alpha, r, weight alpha*r) of a node's own qualifiers."""
    return [(q.value, q.alpha, q.reliability, q.alpha * q.reliability) for q in qualifiers]


def _aggregate(code: "IcfCode | None", contributions: list[tuple], spec: WeightingSpec):
    """The (x, alpha, r) of one node from its (value, alpha, r, weight)
    contributions, and the normalized weights."""
    values, alphas, rels, weights = zip(*contributions)
    try:
        normed = normalize_weights(weights)
    except ValueError:
        label = "root" if code is None else code.text
        raise EvaluationError(
            f"all contribution weights at node {label} are zero (reliability and/or "
            "time weights vanish); the node cannot be aggregated"
        ) from None
    x = apply_curve(spec, math.fsum(w * v for w, v in zip(normed, values)))
    # convex combinations of values in [0, 1]; clip float dust at the ends
    alpha_q = min(max(math.fsum(w * a for w, a in zip(normed, alphas)), 0.0), 1.0)
    r_q = min(max(math.fsum(w * r for w, r in zip(normed, rels)), 0.0), 1.0)
    return NodeResult(x=x, alpha=alpha_q, reliability=r_q), tuple(normed)


def evaluate_report(
    attached: AttachedTree,
    spec: WeightingSpec,
    *,
    min_raw: float = RAW_MIN,
    max_raw: float = RAW_MAX,
    audit: bool = False,
) -> EvaluationReport:
    """Roll the attached qualifiers up to the root and report the index,
    the root alpha/r and the profile.

    A node with children is calculated in the tree's bottom-up order; a
    leaf never is, its qualifiers flow into its parent.  A component with
    data on the bare letter alone is scored from its own qualifiers.
    """
    qualifiers = attached.qualifiers
    results: dict[IcfCode | None, NodeResult] = {}
    audits: list[NodeAudit] = []
    for node in attached.tree.bottom_up:
        contributions = _direct(qualifiers.get(node.code, ()))
        for child in node.children:
            res = results.get(child.code)
            if res is not None:
                contributions.append((res.x, res.alpha, res.reliability,
                                      res.alpha * res.reliability))
            else:
                contributions.extend(
                    (q.value, q.alpha, q.reliability, q.alpha * q.reliability * q.uniqueness)
                    for q in qualifiers.get(child.code, ())
                )
        if not contributions:
            continue
        result, normed = _aggregate(node.code, contributions, spec)
        results[node.code] = result
        if audit:
            audits.append(NodeAudit(code="" if node.is_root else node.code.text,
                                    normalized_weights=normed, result=result))

    root = results.get(None)
    if root is None:
        raise EvaluationError("cannot evaluate a tree without any attached qualifiers")
    scores = {}
    for child in attached.tree.root.children:
        res = results.get(child.code)
        if res is None and child.code in qualifiers:
            res, _ = _aggregate(child.code, _direct(qualifiers[child.code]), spec)
        if res is not None:
            comp = child.code.component
            scores[comp] = ComponentScore(comp, scale_index(res.x, min_raw, max_raw), res.x)
    return EvaluationReport(
        index=HealthIndex(
            value=scale_index(root.x, min_raw, max_raw),
            raw=root.x,
            evaluated_at=attached.reference_day,
        ),
        alpha=root.alpha,
        reliability=root.reliability,
        profile=HealthProfile(scores),
        audits=tuple(audits) if audit else None,
    )


def evaluate(
    attached: AttachedTree,
    spec: WeightingSpec,
    *,
    min_raw: float = RAW_MIN,
    max_raw: float = RAW_MAX,
) -> HealthIndex:
    """Roll the attached qualifiers up to the root and scale to the 0-100 index."""
    return evaluate_report(attached, spec, min_raw=min_raw, max_raw=max_raw).index


def evaluate_profile(
    attached: AttachedTree,
    spec: WeightingSpec,
    *,
    min_raw: float = RAW_MIN,
    max_raw: float = RAW_MAX,
) -> HealthProfile:
    """Per-component scaled scores from the same roll-up as ``evaluate``."""
    return evaluate_report(attached, spec, min_raw=min_raw, max_raw=max_raw).profile


def evaluate_trajectory(
    records: Sequence[QualifierRecord],
    days: Sequence[int],
    spec: WeightingSpec,
    *,
    tree: IcfTree | None = None,
    min_raw: float = RAW_MIN,
    max_raw: float = RAW_MAX,
) -> list[tuple[int, EvaluationReport | None]]:
    """Evaluate on each requested day, using only the records available by
    that day and the day itself as the decay reference; the report is None
    on a day before the first record.

    The tree defaults to the one spanned by the record codes.  Which nodes
    are leaves comes from the tree passed in: on a cohort-wide tree a code
    that is a leaf for this person may have children, and the tuning curve f
    then applies once more at it.  For example, a record on b280 evaluated
    at y = 0.75 gives raw f^4(v) on a tree that also holds b2800, and f^3(v)
    on the record's own tree.
    """
    if list(days) != sorted(days):
        raise EvaluationError("trajectory days must be sorted ascending")
    if tree is None and records:
        tree = build_tree({r.code for r in records})
    out: list[tuple[int, EvaluationReport | None]] = []
    for day in days:
        visible = [r for r in records if r.day <= day]
        report = None
        if visible:
            report = evaluate_report(attach(tree, visible, day, spec), spec,
                                     min_raw=min_raw, max_raw=max_raw)
        out.append((day, report))
    return out
