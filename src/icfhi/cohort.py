"""Cohort data model, CSV ingestion, treatment statistics and synthesis.

Calendar dates are converted to per-person day offsets at the ingestion
boundary (day 0 is a person's first measurement day); nothing downstream
ever sees dates.  The synthetic generator produces seeded, reproducible
cohorts whose instruments are drawn from the bundled rule set and whose
EQ-VAS answers are a noisy monotone transform of the latent health state,
so validation statistics have a known ground truth to recover.
"""

from __future__ import annotations

import csv
import json
import logging
from dataclasses import dataclass, field
from datetime import date
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .errors import ConfigError, DataError
from .formatting import format_cell

log = logging.getLogger(__name__)

EQVAS_INSTRUMENT = "eqvas"

ANSWER_COLUMNS = ("person_id", "day", "instrument", "item", "value")
_DAY_HEADERS = ("day", "date", "day_or_date")


class RawAnswer(NamedTuple):
    """One raw instrument answer on one measurement day (a named tuple)."""

    person_id: str
    day: int
    instrument: str
    item: str
    value: float

    @property
    def source_item_id(self) -> str:
        return f"{self.instrument}:{self.item}"

    @property
    def source_id(self) -> str:
        # unique per answer given the duplicate-row check at ingestion
        return f"{self.person_id}:{self.day}:{self.instrument}:{self.item}"


@dataclass
class Person:
    person_id: str
    answers: list[RawAnswer] = field(default_factory=list)
    eqvas: dict[int, float] = field(default_factory=dict)

    @property
    def days(self) -> list[int]:
        """All measurement days (instrument answers and EQ-VAS), sorted."""
        return sorted({a.day for a in self.answers} | set(self.eqvas))


@dataclass(frozen=True)
class TreatmentStats:
    duration: int
    sequence_length: int


def stats(person: Person) -> TreatmentStats:
    """Treatment period duration (max day - min day) and sequence length
    (number of distinct measurement days)."""
    days = person.days
    if not days:
        raise DataError(f"person {person.person_id} has no measurement days")
    return TreatmentStats(duration=days[-1] - days[0], sequence_length=len(days))


class CohortStore:
    """Immutable-after-build collection of persons keyed by id."""

    def __init__(self, persons: Iterable[Person]):
        self._persons: dict[str, Person] = {}
        for person in persons:
            if person.person_id in self._persons:
                raise DataError(f"duplicate person id {person.person_id!r}")
            self._persons[person.person_id] = person
        self._persons = dict(sorted(self._persons.items()))

    def __len__(self) -> int:
        return len(self._persons)

    def __iter__(self) -> Iterator[Person]:
        return iter(self._persons.values())

    def __contains__(self, person_id: str) -> bool:
        return person_id in self._persons

    def person(self, person_id: str) -> Person:
        try:
            return self._persons[person_id]
        except KeyError:
            raise DataError(f"unknown person id {person_id!r}") from None

    @property
    def person_ids(self) -> list[str]:
        return list(self._persons)


# ---------------------------------------------------------------------------
# ingestion

def _parse_day_cell(cell: str):
    """Integer day offset or an ISO calendar date; returns (kind, ordinal)."""
    text = cell.strip()
    try:
        return "int", int(text)
    except ValueError:
        pass
    try:
        return "date", date.fromisoformat(text).toordinal()
    except ValueError:
        raise ValueError(f"cannot parse day/date {cell!r}") from None


def _read_answer_rows(path: Path):
    """Yield (line_number, person_id, day_kind, day_raw, instrument, item, value)."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            log.warning("input file %s is empty", path)
            return
        header = [h.strip().lower() for h in header]
        day_name = next((h for h in header if h in _DAY_HEADERS), None)
        required = {"person_id", "instrument", "item", "value"}
        if day_name is None or not required.issubset(header):
            raise DataError(
                f"{path}: expected columns person_id, day (or date), instrument, item, value; "
                f"got {header}"
            )
        width = len(header)
        pid_col, day_col, instrument_col, item_col, value_col = map(
            header.index, ("person_id", day_name, "instrument", "item", "value"))
        errors: list[str] = []
        rows = []
        # one string object per distinct text, shared by every row that has it
        strings: dict[str, str] = {}
        share = strings.setdefault
        for lineno, row in enumerate(reader, start=2):
            if not "".join(row).strip():
                continue
            try:
                if len(row) < width:
                    raise ValueError(f"expected {width} columns, got {len(row)}")
                person_id = row[pid_col].strip()
                if not person_id:
                    raise ValueError("empty person_id")
                person_id = share(person_id, person_id)
                day_kind, day_raw = _parse_day_cell(row[day_col])
                instrument = row[instrument_col].strip().lower()
                instrument = share(instrument, instrument)
                item = row[item_col].strip().lower()
                item = share(item, item)
                if not instrument or not item:
                    raise ValueError("empty instrument or item")
                value = float(row[value_col])
            except ValueError as exc:
                errors.append(f"{path}:{lineno}: {exc}")
                continue
            rows.append((lineno, person_id, day_kind, day_raw, instrument, item, value))
        if errors:
            shown = "\n  ".join(errors[:20])
            more = "" if len(errors) <= 20 else f"\n  ... and {len(errors) - 20} more"
            raise DataError(f"malformed rows in {path}:\n  {shown}{more}")
        yield from rows


def _read_eqvas_rows(path: Path):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip().lower() for h in next(reader)]
        except StopIteration:
            return
        day_name = next((h for h in header if h in _DAY_HEADERS), None)
        if day_name is None or "person_id" not in header or "value" not in header:
            raise DataError(f"{path}: expected columns person_id, day, value; got {header}")
        width = len(header)
        pid_col, day_col, value_col = map(header.index, ("person_id", day_name, "value"))
        for lineno, row in enumerate(reader, start=2):
            if not "".join(row).strip():
                continue
            try:
                if len(row) < width:
                    raise ValueError(f"expected {width} columns, got {len(row)}")
                person_id = row[pid_col].strip()
                day_kind, day_raw = _parse_day_cell(row[day_col])
                value = float(row[value_col])
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from None
            yield lineno, person_id, day_kind, day_raw, EQVAS_INSTRUMENT, "overall_health", value


def ingest(path) -> CohortStore:
    """Ingest a single answers CSV, or a cohort directory holding
    answers.csv plus optional eqvas.csv and persons.csv."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"input data not found: {path}")
    raw_rows = []
    person_order: list[str] = []
    if path.is_dir():
        answers_file = path / "answers.csv"
        if not answers_file.exists():
            raise DataError(f"cohort directory {path} has no answers.csv")
        raw_rows.extend(_read_answer_rows(answers_file))
        eqvas_file = path / "eqvas.csv"
        if eqvas_file.exists():
            raw_rows.extend(_read_eqvas_rows(eqvas_file))
        persons_file = path / "persons.csv"
        if persons_file.exists():
            with open(persons_file, newline="", encoding="utf-8") as fh:
                reader = csv.DictReader(fh)
                for row in reader:
                    pid = (row.get("person_id") or "").strip()
                    if pid:
                        person_order.append(pid)
    else:
        raw_rows.extend(_read_answer_rows(path))

    if not raw_rows and not person_order:
        log.warning("no usable rows ingested from %s: cohort is empty", path)
        return CohortStore([])

    # one pass on raw values: duplicate detection, per-person day-kind
    # consistency and each person's first day
    seen: dict[tuple, int] = {}
    day_kinds: dict[str, str] = {}
    first_day: dict[str, int] = {}
    dup_errors = []
    for lineno, pid, kind, day_raw, instrument, item, value in raw_rows:
        key = (pid, kind, day_raw, instrument, item)
        if key in seen:
            dup_errors.append(
                f"line {lineno}: duplicate answer for ({pid}, day {day_raw}, "
                f"{instrument}:{item}); first seen on line {seen[key]}"
            )
        else:
            seen[key] = lineno
        if pid in day_kinds:
            if day_kinds[pid] != kind:
                raise DataError(
                    f"person {pid!r} mixes integer day offsets and calendar dates"
                )
            if day_raw < first_day[pid]:
                first_day[pid] = day_raw
        else:
            day_kinds[pid] = kind
            first_day[pid] = day_raw
    if dup_errors:
        raise DataError("duplicate rows:\n  " + "\n  ".join(dup_errors))

    persons: dict[str, Person] = {pid: Person(pid) for pid in person_order}
    for _, pid, _, day_raw, instrument, item, value in raw_rows:
        person = persons.get(pid)
        if person is None:
            person = persons[pid] = Person(pid)
        day = day_raw - first_day[pid]
        if instrument == EQVAS_INSTRUMENT:
            if not 0.0 <= value <= 100.0:
                raise DataError(f"EQ-VAS answer {value} for person {pid} outside 0-100")
            person.eqvas[day] = value
        else:
            person.answers.append(RawAnswer(pid, day, instrument, item, value))
    for person in persons.values():
        person.answers.sort(key=attrgetter("day", "instrument", "item"))
        person.eqvas = dict(sorted(person.eqvas.items()))
    return CohortStore(persons.values())


def serialize(store: CohortStore, out_dir) -> None:
    """Write a cohort directory: persons.csv, answers.csv, eqvas.csv."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "persons.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["person_id"])
        for person in store:
            writer.writerow([person.person_id])
    with open(out / "answers.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(ANSWER_COLUMNS))
        for person in store:
            for a in person.answers:
                writer.writerow([a.person_id, a.day, a.instrument, a.item, format_cell(a.value)])
    with open(out / "eqvas.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["person_id", "day", "value"])
        for person in store:
            for day, value in person.eqvas.items():
                writer.writerow([person.person_id, day, format_cell(value)])


# ---------------------------------------------------------------------------
# synthesis

# per-visit intervention panel, weighted so trunk machines dominate: every
# machine answer feeds b780, and the trunk ones feed b7305/b7355/b7401
_MACHINE_ITEMS = ("f110", "f130", "f120", "f150", "f140", "f160")
_MACHINE_WEIGHTS = (0.30, 0.25, 0.15, 0.10, 0.10, 0.10)
_PAIN_AREAS = ("back", "hip_leg", "neck", "shoulder_arm")
_ODI_ITEMS = (
    "pain_intensity", "personal_care", "lifting", "walking", "sitting",
    "standing", "sleeping", "sex_life", "social_life", "travelling",
)
_EQ5D_ITEMS = ("mobility", "self_care", "usual_activities", "pain_discomfort",
               "anxiety_depression")

TRENDS = ("improving", "worsening", "flat", "mixed")


@dataclass(frozen=True)
class SynthConfig:
    """Knobs of the synthetic cohort generator; fully seeded."""

    seed: int = 42
    n_persons: int = 200
    max_visits: int = 30
    visit_gap_days: tuple[int, int] = (3, 14)
    trend: str = "improving"
    noise: float = 0.07
    eqvas_noise: float = 0.05
    p_pain: float = 0.8
    p_machine: float = 0.85
    p_odi: float = 0.15
    p_eq5d: float = 0.12
    p_eqvas: float = 0.4

    def __post_init__(self):
        if self.n_persons <= 0 or self.max_visits <= 0:
            raise ConfigError("n_persons and max_visits must be positive")
        if self.trend not in TRENDS:
            raise ConfigError(f"trend must be one of {TRENDS}, got {self.trend!r}")
        lo, hi = self.visit_gap_days
        if not 0 < lo <= hi:
            raise ConfigError(f"invalid visit gap range {self.visit_gap_days}")
        for name in ("noise", "eqvas_noise", "p_pain", "p_machine", "p_odi", "p_eq5d", "p_eqvas"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1], got {v}")

    @classmethod
    def from_json(cls, obj: dict) -> "SynthConfig":
        known = set(cls.__dataclass_fields__)
        unknown = set(obj) - known
        if unknown:
            raise ConfigError(f"unknown synthetic-config keys: {sorted(unknown)}")
        if "visit_gap_days" in obj:
            obj = dict(obj, visit_gap_days=tuple(obj["visit_gap_days"]))
        return cls(**obj)


def load_synth_config(path) -> SynthConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            return SynthConfig.from_json(json.load(fh))
    except FileNotFoundError:
        raise ConfigError(f"synthetic-config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"synthetic-config {path} is not valid JSON: {exc}") from None


def synthesize(config: SynthConfig) -> CohortStore:
    """Generate a reproducible cohort with a controllable health trend.

    Each person carries a latent disability level in [0, 1]; instrument
    answers are noisy readouts of it on their native scales and EQ-VAS is a
    noisy readout of 100*(1 - latent).
    """
    rng = np.random.default_rng(config.seed)
    persons = []
    for i in range(config.n_persons):
        pid = f"p{i:04d}"
        n_visits = _draw_visit_count(rng, config.max_visits)
        gaps = rng.integers(config.visit_gap_days[0], config.visit_gap_days[1] + 1,
                            size=max(n_visits - 1, 0))
        days = [0] + list(np.cumsum(gaps)) if n_visits > 1 else [0]
        duration = days[-1] or 1

        start = rng.uniform(0.35, 0.9)
        trend = config.trend if config.trend != "mixed" else \
            ("improving", "worsening", "flat")[rng.integers(0, 3)]
        if trend == "improving":
            end = start * rng.uniform(0.1, 0.5)
        elif trend == "worsening":
            end = min(1.0, start * rng.uniform(1.2, 1.8))
        else:
            end = start

        person = Person(pid)
        pain_bias = {area: rng.normal(0.0, 0.05) for area in _PAIN_AREAS}
        for day in days:
            latent = start + (end - start) * (day / duration)
            latent = float(np.clip(latent + rng.normal(0.0, config.noise), 0.0, 1.0))
            _fill_visit(person, rng, config, int(day), latent, pain_bias)
        if not person.answers and not person.eqvas:
            # guarantee at least one linkable answer per person
            person.answers.append(RawAnswer(pid, 0, "pain_vas", "back",
                                            float(round(10 * start))))
        _rebase_to_day_zero(person)
        person.answers.sort(key=lambda a: (a.day, a.instrument, a.item))
        persons.append(person)
    return CohortStore(persons)


def _rebase_to_day_zero(person: Person) -> None:
    """A visit may emit nothing, so the first day with data defines day 0."""
    first = min({a.day for a in person.answers} | set(person.eqvas))
    if first:
        person.answers = [
            RawAnswer(a.person_id, a.day - first, a.instrument, a.item, a.value)
            for a in person.answers
        ]
        person.eqvas = {d - first: v for d, v in person.eqvas.items()}


def _draw_visit_count(rng: np.random.Generator, max_visits: int) -> int:
    # log-uniform: many short sequences, a tail of long ones (as in clinic data)
    u = rng.uniform(0.0, np.log(max_visits + 1.0))
    return int(np.clip(int(np.exp(u)), 1, max_visits))


def _fill_visit(person, rng, config, day, latent, pain_bias) -> None:
    def noisy(scale: float) -> float:
        return float(np.clip(latent + rng.normal(0.0, scale), 0.0, 1.0))

    if rng.uniform() < config.p_pain:
        n_areas = 1 + int(rng.integers(0, len(_PAIN_AREAS)))
        areas = [_PAIN_AREAS[j] for j in sorted(rng.choice(len(_PAIN_AREAS), size=n_areas,
                                                           replace=False))]
        for area in areas:
            level = np.clip(latent + pain_bias[area] + rng.normal(0.0, config.noise), 0.0, 1.0)
            person.answers.append(RawAnswer(person.person_id, day, "pain_vas", area,
                                            float(round(10 * level))))
    if rng.uniform() < config.p_machine:
        n_items = 2 + int(rng.integers(0, 3))
        picks = rng.choice(len(_MACHINE_ITEMS), size=n_items, replace=False,
                           p=np.array(_MACHINE_WEIGHTS))
        for j in sorted(picks):
            person.answers.append(RawAnswer(person.person_id, day, "machine",
                                            _MACHINE_ITEMS[j],
                                            float(round(100 * noisy(config.noise), 1))))
    if rng.uniform() < config.p_odi:
        for item in _ODI_ITEMS:
            person.answers.append(RawAnswer(person.person_id, day, "odi", item,
                                            float(round(5 * noisy(config.noise)))))
    if rng.uniform() < config.p_eq5d:
        for item in _EQ5D_ITEMS:
            person.answers.append(RawAnswer(person.person_id, day, "eq5d", item,
                                            float(1 + round(4 * noisy(config.noise)))))
    if rng.uniform() < config.p_eqvas:
        health = float(np.clip(1.0 - latent + rng.normal(0.0, config.eqvas_noise), 0.0, 1.0))
        person.eqvas[day] = float(round(100 * health))
