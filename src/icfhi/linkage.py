"""Translate raw instrument answers into ICF qualifier records.

A linkage rule maps one source item (questionnaire question, pain scale,
machine test) to one or more ICF codes through a value translation and
carries a user-defined reliability.  Rules live in a JSON file so new
instruments can be added without code changes; the four instruments used
for development (ODI, EQ-5D-5L, pain VAS, rehabilitation machine tests)
ship as a bundled default rule set.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from importlib import resources
from operator import attrgetter
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple

from .codes import IcfCode, parse_code
from .errors import CodeParseError, ConfigError, DataError
from .formatting import format_cell

if TYPE_CHECKING:
    from .cohort import RawAnswer

QUALIFIER_MIN, QUALIFIER_MAX = 0.0, 4.0


def _require_int(answer, what: str) -> int:
    if isinstance(answer, bool) or (isinstance(answer, float) and not answer.is_integer()):
        raise ValueError(f"{what} must be an integer, got {answer!r}")
    try:
        return int(answer)
    except (TypeError, ValueError):
        raise ValueError(f"{what} must be an integer, got {answer!r}") from None


# ---------------------------------------------------------------------------
# value translations as configurable objects

@dataclass(frozen=True)
class DiscreteMap:
    """Integer answers through an explicit answer -> qualifier table."""

    mapping: Mapping[int, float]
    kind = "discrete_map"

    def translate(self, value) -> float:
        answer = _require_int(value, "answer")
        if answer not in self.mapping:
            low, high = min(self.mapping), max(self.mapping)
            raise ValueError(f"answer out of range {low}-{high}: {value!r}")
        return float(self.mapping[answer])

    def to_json(self) -> dict:
        return {"kind": self.kind, "map": {str(k): v for k, v in sorted(self.mapping.items())}}


@dataclass(frozen=True)
class IntervalMap:
    """Real answers through ordered intervals; the first interval is closed
    at its low end, later ones are half-open (low, high]."""

    breaks: tuple[float, ...]
    qualifiers: tuple[float, ...]
    clamp_low: float | None = None
    kind = "interval_map"

    def translate(self, value) -> float:
        x = float(value)
        if self.clamp_low is not None and x < self.clamp_low:
            x = self.clamp_low
        if not self.breaks[0] <= x <= self.breaks[-1]:
            raise ValueError(
                f"answer {value!r} outside interval domain [{self.breaks[0]}, {self.breaks[-1]}]"
            )
        for high, qualifier in zip(self.breaks[1:], self.qualifiers):
            if x <= high:
                return float(qualifier)
        raise AssertionError("unreachable: breaks cover the domain")

    def to_json(self) -> dict:
        out = {"kind": self.kind, "breaks": list(self.breaks), "qualifiers": list(self.qualifiers)}
        if self.clamp_low is not None:
            out["clamp_low"] = self.clamp_low
        return out


@dataclass(frozen=True)
class AffineMap:
    """Qualifier = scale*answer + offset over a declared input domain."""

    scale: float
    offset: float
    domain: tuple[float, float]
    require_integer: bool = False
    kind = "affine"

    def translate(self, value) -> float:
        x = float(_require_int(value, "answer")) if self.require_integer else float(value)
        if not self.domain[0] <= x <= self.domain[1]:
            raise ValueError(f"answer {value!r} outside domain [{self.domain[0]}, {self.domain[1]}]")
        return self.scale * x + self.offset

    def to_json(self) -> dict:
        out = {
            "kind": self.kind,
            "scale": self.scale,
            "offset": self.offset,
            "domain": list(self.domain),
        }
        if self.require_integer:
            out["require_integer"] = True
        return out


ValueTranslation = DiscreteMap | IntervalMap | AffineMap


def _translation_outputs(translation: ValueTranslation) -> list[float]:
    if isinstance(translation, DiscreteMap):
        return [float(v) for v in translation.mapping.values()]
    if isinstance(translation, IntervalMap):
        return [float(v) for v in translation.qualifiers]
    low = translation.scale * translation.domain[0] + translation.offset
    high = translation.scale * translation.domain[1] + translation.offset
    return [low, high]


def translation_from_json(obj: dict) -> ValueTranslation:
    try:
        kind = obj["kind"]
        if kind == "discrete_map":
            return DiscreteMap({int(k): float(v) for k, v in obj["map"].items()})
        if kind == "interval_map":
            breaks = tuple(float(v) for v in obj["breaks"])
            qualifiers = tuple(float(v) for v in obj["qualifiers"])
            if len(qualifiers) != len(breaks) - 1:
                raise ConfigError("interval_map needs exactly len(breaks)-1 qualifiers")
            if any(b >= c for b, c in zip(breaks, breaks[1:])):
                raise ConfigError("interval_map breaks must be strictly increasing")
            clamp = obj.get("clamp_low")
            return IntervalMap(breaks, qualifiers, None if clamp is None else float(clamp))
        if kind == "affine":
            lo, hi = obj["domain"]
            if not float(lo) < float(hi):
                raise ConfigError("affine domain must satisfy low < high")
            return AffineMap(
                float(obj["scale"]),
                float(obj["offset"]),
                (float(lo), float(hi)),
                bool(obj.get("require_integer", False)),
            )
        raise ConfigError(f"unknown translation kind {kind!r}")
    except KeyError as exc:
        raise ConfigError(f"translation is missing field {exc}") from None


# ---------------------------------------------------------------------------
# rules

@dataclass(frozen=True)
class LinkageRule:
    """One source item's mapping onto ICF codes, with linkage reliability."""

    source_item_id: str
    targets: tuple[IcfCode, ...]
    translation: ValueTranslation | None
    reliability: float
    validation_only: bool = False

    def __post_init__(self):
        if not self.validation_only:
            if not self.targets:
                raise ConfigError(f"rule {self.source_item_id!r} has no target codes")
            if self.translation is None:
                raise ConfigError(f"rule {self.source_item_id!r} has no translation")
            for out in _translation_outputs(self.translation):
                if not QUALIFIER_MIN <= out <= QUALIFIER_MAX:
                    raise ConfigError(
                        f"rule {self.source_item_id!r} can emit qualifier {out} outside [0, 4]"
                    )
        if not 0.0 <= self.reliability <= 1.0:
            raise ConfigError(
                f"rule {self.source_item_id!r} reliability {self.reliability} outside [0, 1]"
            )


class QualifierRecord(NamedTuple):
    """One linked measurement: a qualifier value on one ICF code.

    A named tuple, so building one is a single tuple allocation; it equals
    a plain tuple of the same fields."""

    person_id: str
    day: int
    source_id: str
    code: IcfCode
    value: float
    reliability: float


class RuleSet:
    """Linkage rules keyed by source item id (``instrument:item``)."""

    def __init__(self, rules: Iterable[LinkageRule]):
        self._rules: dict[str, LinkageRule] = {}
        for rule in rules:
            if rule.source_item_id in self._rules:
                raise ConfigError(f"duplicate rule for source item {rule.source_item_id!r}")
            self._rules[rule.source_item_id] = rule

    def __len__(self) -> int:
        return len(self._rules)

    def __iter__(self):
        return iter(self._rules.values())

    def get(self, source_item_id: str) -> LinkageRule | None:
        return self._rules.get(source_item_id)

    def reliabilities(self) -> dict[str, float]:
        """Reliability actually used per source item; reported by the validation harness."""
        return {
            rule.source_item_id: rule.reliability
            for rule in self._rules.values()
            if not rule.validation_only
        }

    def to_json(self) -> dict:
        rules = []
        for rule in self._rules.values():
            if rule.validation_only:
                rules.append({"source_item_id": rule.source_item_id, "validation_only": True})
                continue
            rules.append(
                {
                    "source_item_id": rule.source_item_id,
                    "targets": [c.text for c in rule.targets],
                    "translation": rule.translation.to_json(),
                    "reliability": rule.reliability,
                }
            )
        return {"rules": rules}

    @classmethod
    def from_json(cls, obj: dict) -> "RuleSet":
        try:
            entries = obj["rules"]
        except (TypeError, KeyError):
            raise ConfigError("rule file must be an object with a 'rules' list") from None
        rules = []
        for entry in entries:
            try:
                source = entry["source_item_id"]
            except (TypeError, KeyError):
                raise ConfigError(f"rule entry without source_item_id: {entry!r}") from None
            if entry.get("validation_only"):
                rules.append(
                    LinkageRule(source, (), None, float(entry.get("reliability", 1.0)), True)
                )
                continue
            try:
                targets = tuple(parse_code(t) for t in entry["targets"])
                translation = translation_from_json(entry["translation"])
                reliability = float(entry.get("reliability", 1.0))
            except KeyError as exc:
                raise ConfigError(f"rule {source!r} is missing field {exc}") from None
            except DataError as exc:
                raise ConfigError(f"rule {source!r}: {exc}") from None
            rules.append(LinkageRule(source, targets, translation, reliability))
        return cls(rules)


def load_rules(path) -> RuleSet:
    """Load a rule file (JSON)."""
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"rule file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"rule file {path} is not valid JSON: {exc}") from None
    return RuleSet.from_json(obj)


def default_rules() -> RuleSet:
    """The bundled rule set for the four development instruments."""
    text = resources.files("icfhi").joinpath("data/default_rules.json").read_text("utf-8")
    return RuleSet.from_json(json.loads(text))


def apply_rules(answers: "Iterable[RawAnswer]", rules: RuleSet) -> list[QualifierRecord]:
    """Link raw answers into qualifier records.

    One answer linked to k codes yields k records sharing the answer's
    source id; that shared id drives source-uniqueness down-weighting in
    the evaluation engine.  Validation-only sources (EQ-VAS) emit nothing.
    """
    records: list[QualifierRecord] = []
    append = records.append
    for answer in answers:
        rule = rules.get(answer.source_item_id)
        if rule is None:
            raise DataError(f"no linkage rule for source item {answer.source_item_id!r}")
        if rule.validation_only:
            continue
        try:
            value = rule.translation.translate(answer.value)
        except ValueError as exc:
            raise DataError(
                f"cannot translate {answer.source_item_id!r} answer for person "
                f"{answer.person_id} on day {answer.day}: {exc}"
            ) from None
        # shared by every target of the answer
        person_id, day, source_id = answer.person_id, answer.day, answer.source_id
        reliability = rule.reliability
        for code in rule.targets:
            append(QualifierRecord(person_id, day, source_id, code, value, reliability))
    return records


RECORD_COLUMNS = ("person_id", "day", "source_id", "code", "value", "reliability")

# a code is one letter plus digits, so its text sorts as the code does
_CANONICAL = attrgetter("person_id", "day", "source_id", "code.text")


class RecordWriter:
    """Writes a record CSV: the header, then each batch of records in
    canonical (person, day, source, code) order.  The file is in canonical
    order when every batch sorts after the one before it, as the records
    of one person after another in person-id order do."""

    def __init__(self, fh):
        self._writer = csv.writer(fh)
        self._writer.writerow(RECORD_COLUMNS)
        self._cells: dict[float, str] = {}  # few distinct numbers occur

    def write(self, records: Iterable[QualifierRecord]) -> None:
        ordered = sorted(records, key=_CANONICAL)
        cells = self._cells
        numbers = {*map(attrgetter("value"), ordered), *map(attrgetter("reliability"), ordered)}
        for x in numbers - cells.keys():
            cells[x] = format_cell(x)
        self._writer.writerows(
            (r.person_id, r.day, r.source_id, r.code.text, cells[r.value], cells[r.reliability])
            for r in ordered
        )


def records_to_csv(records: Iterable[QualifierRecord], path) -> None:
    """Write qualifier records, in any order, in canonical (person, day,
    source, code) order."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        RecordWriter(fh).write(records)


def records_from_csv(path) -> list[QualifierRecord]:
    """Read a record CSV as written by ``records_to_csv``.  A malformed row,
    a value outside [0, 4] or a reliability outside [0, 1] (nan included)
    is a DataError naming the file and line."""
    try:
        fh = open(path, newline="", encoding="utf-8")
    except FileNotFoundError:
        raise DataError(f"record file not found: {path}") from None
    with fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip().lower() for h in next(reader)]
        except StopIteration:
            return []
        if header != list(RECORD_COLUMNS):
            raise DataError(f"{path}: expected columns {RECORD_COLUMNS}, got {header}")
        records = []
        codes: dict[str, IcfCode] = {}  # few distinct codes occur, so each is parsed once
        for lineno, row in enumerate(reader, start=2):
            if not "".join(row).strip():
                continue
            try:
                person_id, day, source_id = row[0].strip(), int(row[1]), row[2].strip()
                text = row[3].strip()
                code = codes.get(text)
                if code is None:
                    code = codes[text] = parse_code(text)
                record = QualifierRecord(person_id, day, source_id, code,
                                         float(row[4]), float(row[5]))
            except (ValueError, IndexError, CodeParseError) as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from None
            # the comparisons are False for nan, so nan is rejected too
            if not QUALIFIER_MIN <= record.value <= QUALIFIER_MAX:
                raise DataError(f"{path}:{lineno}: qualifier value {row[4].strip()!r} "
                                f"outside [{QUALIFIER_MIN:g}, {QUALIFIER_MAX:g}]")
            if not 0.0 <= record.reliability <= 1.0:
                raise DataError(f"{path}:{lineno}: reliability {row[5].strip()!r} "
                                "outside [0, 1]")
            records.append(record)
    return records
