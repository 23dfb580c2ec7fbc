"""Translate raw instrument answers into ICF qualifier records.

A linkage rule maps one source item (questionnaire question, pain scale,
machine test) to one or more ICF codes through a value translation and
carries a user-defined reliability.  Rules live in a JSON file so new
instruments can be added without code changes; the four instruments used
for development (ODI, EQ-5D-5L, pain VAS, rehabilitation machine tests)
ship as a bundled default rule set.

``link_answers`` links each answer through its rule into one ``Link``: the
rule's target codes, in rule order, with the answer's qualifier value and
the rule's reliability.  ``apply_rules`` expands each link into one
``QualifierRecord`` per code, and ``RecordWriter`` writes links as the
record CSV rows of those records.
"""

from __future__ import annotations

import csv
import json
from operator import itemgetter
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple

from .codes import QUALIFIER_MAX, QUALIFIER_MIN, IcfCode, parse_code
from .errors import CodeParseError, ConfigError, DataError, csv_header, reading, writing
from .formatting import format_cell

if TYPE_CHECKING:
    from .cohort import RawAnswer


def _require_int(answer, what: str) -> int:
    if isinstance(answer, bool) or (isinstance(answer, float) and not answer.is_integer()):
        raise ValueError(f"{what} must be an integer, got {answer!r}")
    try:
        return int(answer)
    except (TypeError, ValueError):
        raise ValueError(f"{what} must be an integer, got {answer!r}") from None


# ---------------------------------------------------------------------------
# value translations as configurable objects

class DiscreteMap(NamedTuple):
    """Integer answers through an explicit answer -> qualifier table."""

    mapping: Mapping[int, float]

    def translate(self, value) -> float:
        answer = _require_int(value, "answer")
        if answer not in self.mapping:
            low, high = min(self.mapping), max(self.mapping)
            raise ValueError(f"answer out of range {low}-{high}: {value!r}")
        return float(self.mapping[answer])


class IntervalMap(NamedTuple):
    """Real answers through ordered intervals; the first interval is closed
    at its low end, later ones are half-open (low, high]."""

    breaks: tuple[float, ...]
    qualifiers: tuple[float, ...]
    clamp_low: float | None = None

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


class AffineMap(NamedTuple):
    """Qualifier = scale*answer + offset over a declared input domain."""

    scale: float
    offset: float
    domain: tuple[float, float]
    require_integer: bool = False

    def translate(self, value) -> float:
        x = float(_require_int(value, "answer")) if self.require_integer else float(value)
        if not self.domain[0] <= x <= self.domain[1]:
            raise ValueError(f"answer {value!r} outside domain [{self.domain[0]}, {self.domain[1]}]")
        return self.scale * x + self.offset


ValueTranslation = DiscreteMap | IntervalMap | AffineMap


def _translation_outputs(translation: ValueTranslation) -> list[float]:
    if isinstance(translation, DiscreteMap):
        return [float(v) for v in translation.mapping.values()]
    if isinstance(translation, IntervalMap):
        return [float(v) for v in translation.qualifiers]
    low = translation.scale * translation.domain[0] + translation.offset
    high = translation.scale * translation.domain[1] + translation.offset
    return [low, high]


def _translation_from_json(obj: dict) -> ValueTranslation:
    """A translation from JSON; a bad field raises KeyError, TypeError, ValueError
    or ConfigError."""
    kind = obj["kind"]
    if kind == "discrete_map":
        mapping = obj["map"]
        if not isinstance(mapping, dict) or not mapping:
            raise ConfigError("discrete_map needs a non-empty JSON object as its map")
        return DiscreteMap({int(k): float(v) for k, v in mapping.items()})
    if kind == "interval_map":
        breaks = tuple(float(v) for v in obj["breaks"])
        qualifiers = tuple(float(v) for v in obj["qualifiers"])
        if len(breaks) < 2:
            raise ConfigError("interval_map needs at least two breaks")
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


# ---------------------------------------------------------------------------
# rules

class LinkageRule(NamedTuple):
    """One source item's mapping onto ICF codes, with linkage reliability;
    checked when a ``RuleSet`` admits it (``_check_rule``)."""

    source_item_id: str
    targets: tuple[IcfCode, ...]
    translation: ValueTranslation | None
    reliability: float
    validation_only: bool = False


def _check_rule(rule: LinkageRule) -> None:
    """A rule that links must have target codes and a translation whose
    every output lies in [0, 4]; every rule a reliability in [0, 1]."""
    if not rule.validation_only:
        if not rule.targets:
            raise ConfigError(f"rule {rule.source_item_id!r} has no target codes")
        if rule.translation is None:
            raise ConfigError(f"rule {rule.source_item_id!r} has no translation")
        for out in _translation_outputs(rule.translation):
            if not QUALIFIER_MIN <= out <= QUALIFIER_MAX:
                raise ConfigError(
                    f"rule {rule.source_item_id!r} can emit qualifier {out} outside [0, 4]"
                )
    if not 0.0 <= rule.reliability <= 1.0:
        raise ConfigError(
            f"rule {rule.source_item_id!r} reliability {rule.reliability} outside [0, 1]"
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
    """Linkage rules keyed by source item id (``instrument:item``).

    Construction checks each rule (``_check_rule``) and rejects a second
    rule for one source item; the rules never change after it.  The set
    also owns the cache through which ``link_answers`` looks up a rule and
    translates an answer once per distinct (instrument, item, value).  Its
    key is the answer's (instrument, item, type of value, value), with the
    repr of a zero value in place of the zero; its entry the link's
    (targets, qualifier value, reliability), or ``()`` for a
    validation-only source.  Only answers that link are kept, so one that
    fails raises its own error each time, and the cache grows with the
    number of distinct (instrument, item, value) keys linked."""

    def __init__(self, rules: Iterable[LinkageRule]):
        self._rules: dict[str, LinkageRule] = {}
        for rule in rules:
            _check_rule(rule)
            if rule.source_item_id in self._rules:
                raise ConfigError(f"duplicate rule for source item {rule.source_item_id!r}")
            self._rules[rule.source_item_id] = rule
        self._linked: dict[tuple, tuple] = {}

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

    @classmethod
    def from_json(cls, obj: dict) -> "RuleSet":
        """Rules from a rule file's JSON object; a bad entry is a ConfigError naming it."""
        entries = obj.get("rules") if isinstance(obj, dict) else None
        if not isinstance(entries, list):
            raise ConfigError("rule file must be an object with a 'rules' list")
        rules = []
        for entry in entries:
            try:
                source = entry["source_item_id"]
            except (TypeError, KeyError):
                raise ConfigError(f"rule entry without source_item_id: {entry!r}") from None
            validation_only = bool(entry.get("validation_only"))
            try:
                targets = () if validation_only else entry["targets"]
                if not isinstance(targets, (list, tuple)):
                    raise ConfigError(f"targets must be a JSON list of codes, got {targets!r}")
                targets = tuple(map(parse_code, targets))
                translation = (None if validation_only
                               else _translation_from_json(entry["translation"]))
                reliability = float(entry.get("reliability", 1.0))
            except KeyError as exc:
                raise ConfigError(f"rule {source!r} is missing field {exc}") from None
            except (TypeError, ValueError, ConfigError, DataError) as exc:
                raise ConfigError(f"rule {source!r}: {exc}") from None
            rules.append(LinkageRule(source, targets, translation, reliability, validation_only))
        return cls(rules)


def load_rules(path) -> RuleSet:
    """Load a rule file (JSON)."""
    with reading(path, "rule file", ConfigError) as fh:
        return RuleSet.from_json(json.load(fh))


def default_rules() -> RuleSet:
    """The bundled rule set for the four development instruments."""
    from importlib import resources  # imported here: only the bundled rules need it

    text = resources.files("icfhi").joinpath("data/default_rules.json").read_text("utf-8")
    return RuleSet.from_json(json.loads(text))


class Link(NamedTuple):
    """One linked answer: its qualifier value and reliability on each of the
    rule's target codes, in rule order.  The codes share the answer's source
    id, which drives source-uniqueness down-weighting in the evaluation
    engine; the links of one rule share its ``targets`` tuple."""

    person_id: str
    day: int
    source_id: str
    targets: tuple[IcfCode, ...]
    value: float
    reliability: float


def _link_entry(answer: "RawAnswer", rules: RuleSet) -> tuple:
    """(targets, qualifier value, reliability) of an answer's link, or ``()``
    for a validation-only source; an answer that cannot be linked is a
    DataError naming it."""
    rule = rules.get(answer.source_item_id)
    if rule is None:
        raise DataError(f"no linkage rule for source item {answer.source_item_id!r}")
    if rule.validation_only:
        return ()
    try:
        value = rule.translation.translate(answer.value)
    except ValueError as exc:
        raise DataError(
            f"cannot translate {answer.source_item_id!r} answer for person "
            f"{answer.person_id} on day {answer.day}: {exc}"
        ) from None
    return rule.targets, value, rule.reliability


def link_answers(answers: "Iterable[RawAnswer]", rules: RuleSet) -> list[Link]:
    """Link each raw answer through its rule, in answer order.
    Validation-only sources (EQ-VAS) emit nothing.

    The rule lookup and translation run once per distinct (instrument,
    item, value) and ``rules``, through the cache that ``rules`` owns (see
    ``RuleSet``); an answer that fails is not kept there, so it raises,
    naming its own person and day, whatever was linked before it."""
    linked = rules._linked
    new_link = tuple.__new__  # Link(...) without its Python-level __new__
    links: list[Link] = []
    append = links.append
    for answer in answers:
        person_id, day, instrument, item, value = answer
        # values that compare equal can translate differently: True is not
        # an integer answer where 1 is, and an affine map can give -0.0 for
        # -0.0 but 0.0 for 0.0; so the key holds the value's type, and a
        # zero's repr in place of the zero
        key = (instrument, item, type(value), value if value else repr(value))
        entry = linked.get(key)
        if entry is None:
            entry = linked[key] = _link_entry(answer, rules)
        if entry:
            # the source id, person:day:instrument:item, is unique per answer
            # given the duplicate-row check at ingestion
            append(new_link(Link, (person_id, day, f"{person_id}:{day}:{instrument}:{item}",
                                   *entry)))
    return links


def apply_rules(answers: "Iterable[RawAnswer]", rules: RuleSet) -> list[QualifierRecord]:
    """Link raw answers into qualifier records: one record per target code
    of each link of ``link_answers``, in rule order.  One answer linked to k
    codes yields k records sharing the answer's source id."""
    return [QualifierRecord(person_id, day, source_id, code, value, reliability)
            for person_id, day, source_id, targets, value, reliability
            in link_answers(answers, rules)
            for code in targets]


RECORD_COLUMNS = ("person_id", "day", "source_id", "code", "value", "reliability")

# a row of RecordWriter.write by (person, day, source, first code)
_CANONICAL = itemgetter(0, 1, 2, 3)


def _quote(field: str) -> str:
    """``field`` as csv.writer's excel dialect writes it within a row: as it
    is, or in double quotes with each quote doubled when it holds a quote, a
    comma or a line break."""
    if '"' in field:
        return '"' + field.replace('"', '""') + '"'
    if "," in field or "\r" in field or "\n" in field:
        return '"' + field + '"'
    return field


class RecordWriter:
    """Writes a record CSV: the header, then each batch of ``Link``s (from
    ``link_answers``) in canonical (person, day, source, code) order, byte
    for byte as csv.writer writes the records of those links.

    A batch is sorted by (person, day, source, first target code) and each
    link's targets by code, so links that share a (person, day, source) must
    have one target each, as the links of ``records_to_csv`` do.  The file
    is in canonical order when every batch sorts after the one before it,
    as the links of one person after another in person-id order do.

    The text after the source id is cached by (targets, value,
    reliability); few distinct ones occur."""

    def __init__(self, fh):
        self._fh = fh
        fh.write(",".join(RECORD_COLUMNS) + "\r\n")
        # (targets, value, reliability) -> (first code, ("",
        # "code,value,reliability\r\n", ...)), both in code order
        self._tails: dict[tuple[tuple[IcfCode, ...], float, float],
                          tuple[IcfCode, tuple[str, ...]]] = {}

    def _tail(self, targets: tuple[IcfCode, ...], value: float,
              reliability: float) -> tuple[IcfCode, tuple[str, ...]]:
        numbers = f",{format_cell(value)},{format_cell(reliability)}\r\n"
        codes = sorted(targets)
        return codes[0], ("", *[code + numbers for code in codes])

    def write(self, links: Iterable[Link]) -> None:
        tails = self._tails
        rows = []
        append = rows.append
        for person_id, day, source_id, targets, value, reliability in links:
            key = (targets, value, reliability)
            first_tail = tails.get(key)
            if first_tail is None:
                first_tail = tails[key] = self._tail(targets, value, reliability)
            append((person_id, day, source_id, *first_tail))
        rows.sort(key=_CANONICAL)
        quote = _quote
        # a batch holds few persons, so each id is quoted once
        quoted = {person_id: quote(person_id) for person_id in {row[0] for row in rows}}
        # prefix.join(("", row, ...)) puts the prefix before every row
        self._fh.write("".join([f"{quoted[person_id]},{day},{quote(source_id)},".join(tail)
                                for person_id, day, source_id, _, tail in rows]))


def records_to_csv(records: Iterable[QualifierRecord], path) -> None:
    """Write qualifier records, in any order, in canonical (person, day,
    source, code) order."""
    by_person: dict[str, list[QualifierRecord]] = {}
    for record in records:
        by_person.setdefault(record.person_id, []).append(record)
    with writing(path) as fh:
        writer = RecordWriter(fh)
        # a batch per person, so that no more than one person's rows are held
        for person_id in sorted(by_person):
            writer.write(Link(r.person_id, r.day, r.source_id, (r.code,), r.value,
                              r.reliability)
                         for r in by_person[person_id])


def records_from_csv(path) -> list[QualifierRecord]:
    """Read a record CSV as written by ``records_to_csv``.  A malformed row,
    an empty person id, a value outside [0, 4] or a reliability outside
    [0, 1] (nan included) is a DataError naming the file and line; a blank
    row is skipped."""
    with reading(path, "record file", DataError) as fh:
        reader = csv.reader(fh)
        header = csv_header(reader)
        if header is None:
            return []
        if header != list(RECORD_COLUMNS):
            raise DataError(f"{path}: expected columns {RECORD_COLUMNS}, got {header}")
        records = []
        codes: dict[str, IcfCode] = {}  # few distinct codes occur, so each is parsed once
        new_record = tuple.__new__  # QualifierRecord(...) without its Python-level __new__
        for lineno, row in enumerate(reader, start=2):
            try:
                person_id = row[0].strip() if row else ""
                if not person_id:
                    # a row with a person id is not blank, so only these are tested
                    if not "".join(row).strip():
                        continue
                    raise ValueError("empty person_id")
                day, source_id = int(row[1]), row[2].strip()
                text = row[3].strip()
                code = codes.get(text)
                if code is None:
                    code = codes[text] = parse_code(text)
                record = new_record(QualifierRecord, (person_id, day, source_id, code,
                                                      float(row[4]), float(row[5])))
            except (ValueError, IndexError, CodeParseError) as exc:
                width = len(RECORD_COLUMNS)
                reason = exc if len(row) >= width else f"expected {width} columns, got {len(row)}"
                raise DataError(f"{path}:{lineno}: {reason}") from None
            # the comparisons are False for nan, so nan is rejected too
            if not QUALIFIER_MIN <= record.value <= QUALIFIER_MAX:
                raise DataError(f"{path}:{lineno}: qualifier value {row[4].strip()!r} "
                                f"outside [{QUALIFIER_MIN:g}, {QUALIFIER_MAX:g}]")
            if not 0.0 <= record.reliability <= 1.0:
                raise DataError(f"{path}:{lineno}: reliability {row[5].strip()!r} "
                                "outside [0, 1]")
            records.append(record)
    return records
