"""Cohort data model, CSV ingestion, treatment statistics and synthesis.

Calendar dates are converted to per-person day offsets at the ingestion
boundary (day 0 is a person's first measurement day); nothing downstream
ever sees dates.  The synthetic generator produces seeded, reproducible
cohorts whose instruments are drawn from the bundled rule set and whose
EQ-VAS answers are a noisy monotone transform of the latent health state,
so validation statistics have a known ground truth to recover.  Only the
generator uses numpy, and imports it where it draws, so that reading and
writing a cohort never loads it.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from datetime import date
from operator import attrgetter
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple

from .errors import ConfigError, DataError, csv_header, reading
from .formatting import write_csv

if TYPE_CHECKING:
    import numpy as np

EQVAS_INSTRUMENT = "eqvas"
PAIN_INSTRUMENT = "pain_vas"

ANSWER_COLUMNS = ("person_id", "day", "instrument", "item", "value")
_DAY_HEADERS = ("day", "date", "day_or_date")
_ANSWER_ORDER = attrgetter("day", "instrument", "item")


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


class _Memo(dict):
    """A dict that fills itself: ``memo[key]`` is ``function(key)``, called
    on the first lookup of ``key`` only.  A call that raises keeps nothing,
    so a bad key raises again on each lookup."""

    def __init__(self, function):
        super().__init__()
        self._function = function

    def __missing__(self, key):
        self[key] = value = self._function(key)
        return value


def _read_rows(path: Path, eqvas: bool):
    """Yield (line_number, person_id, day_kind, day_raw, instrument, item,
    value) for every valid row of an answers CSV or, with ``eqvas``, an
    EQ-VAS CSV (person_id, day, value).  Malformed rows are reported
    together, in one error raised after the last row.

    A file holds few distinct day, instrument and item cells, so each is
    parsed once per file: the day cell, as it is in the file, keys its
    (kind, ordinal), and an instrument or item cell, as it is in the file,
    keys its stripped, lower-cased text, one string object per distinct
    text.  A cell that cannot be parsed is not kept."""
    with reading(path, "EQ-VAS file" if eqvas else "answers file", DataError) as fh:
        reader = csv.reader(fh)
        header = csv_header(reader)
        if header is None:
            return
        day_name = next((h for h in header if h in _DAY_HEADERS), None)
        names = ("person_id", day_name, "value") if eqvas else \
            ("person_id", day_name, "value", "instrument", "item")
        if day_name is None or not set(names).issubset(header):
            expected = "person_id, day, value" if eqvas else \
                "person_id, day (or date), instrument, item, value"
            raise DataError(f"{path}: expected columns {expected}; got {header}")
        width = len(header)
        pid_col, day_col, value_col, *text_cols = map(header.index, names)
        instrument_col, item_col = text_cols or (None, None)
        instrument, item = EQVAS_INSTRUMENT, "overall_health"
        errors: list[str] = []
        days = _Memo(_parse_day_cell)
        shared: dict[str, str] = {}

        def normalized(cell: str) -> str:
            text = cell.strip().lower()
            return shared.setdefault(text, text)

        texts = _Memo(normalized)
        for lineno, row in enumerate(reader, start=2):
            try:
                person_id = row[pid_col].strip() if len(row) >= width else ""
                if not person_id:
                    # a row with a person id is not blank, so only these are tested
                    if not "".join(row).strip():
                        continue
                    if len(row) < width:
                        raise ValueError(f"expected {width} columns, got {len(row)}")
                    raise ValueError("empty person_id")
                day_kind, day_raw = days[row[day_col]]
                if not eqvas:
                    instrument = texts[row[instrument_col]]
                    item = texts[row[item_col]]
                    if not instrument or not item:
                        raise ValueError("empty instrument or item")
                value = float(row[value_col])
            except ValueError as exc:
                errors.append(f"{path}:{lineno}: {exc}")
                continue
            yield lineno, person_id, day_kind, day_raw, instrument, item, value
        if errors:
            shown = "\n  ".join(errors[:20])
            more = "" if len(errors) <= 20 else f"\n  ... and {len(errors) - 20} more"
            raise DataError(f"malformed rows in {path}:\n  {shown}{more}")


def _read_person_ids(path: Path) -> list[str]:
    """The non-empty person ids of a persons CSV, whose header must name
    person_id; none for an empty file or a blank first row."""
    with reading(path, "persons file", DataError) as fh:
        reader = csv.reader(fh)
        header = csv_header(reader)
        if not header:
            return []
        if "person_id" not in header:
            raise DataError(f"{path}: expected a person_id column; got {header}")
        col = header.index("person_id")
        return [row[col].strip() for row in reader if len(row) > col and row[col].strip()]


def ingest(path) -> CohortStore:
    """Ingest a single answers CSV, or a cohort directory holding
    answers.csv plus optional eqvas.csv and persons.csv.  Input without a
    usable row gives an empty store; the caller decides how to report it."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"input data not found: {path}")
    persons: dict[str, Person] = {}
    sources = [(path, False)]
    if path.is_dir():
        if not (path / "answers.csv").exists():
            raise DataError(f"cohort directory {path} has no answers.csv")
        sources = [(path / "answers.csv", False)]
        if (path / "eqvas.csv").exists():
            sources.append((path / "eqvas.csv", True))
        if (path / "persons.csv").exists():
            for pid in _read_person_ids(path / "persons.csv"):
                persons.setdefault(pid, Person(pid))

    # each row goes straight to its person; mixed day kinds, duplicates and
    # the EQ-VAS range are checked on the way and raised, in that order,
    # after reading
    day_kinds: dict[str, str] = {}
    mixed = out_of_range = None
    duplicated = False
    new_answer = tuple.__new__  # RawAnswer(...) without its Python-level __new__
    for source, eqvas in sources:
        for _, pid, kind, day, instrument, item, value in _read_rows(source, eqvas):
            person = persons.get(pid)
            if person is None:
                person = persons[pid] = Person(pid)
            if day_kinds.setdefault(pid, kind) != kind and mixed is None:
                mixed = f"person {pid!r} mixes integer day offsets and calendar dates"
            if instrument == EQVAS_INSTRUMENT:
                if not 0.0 <= value <= 100.0 and out_of_range is None:
                    out_of_range = f"EQ-VAS answer {value} for person {pid} outside 0-100"
                duplicated = duplicated or day in person.eqvas
                person.eqvas[day] = value
            else:
                person.answers.append(new_answer(RawAnswer, (person.person_id, day, instrument,
                                                             item, value)))

    if not persons:
        return CohortStore([])
    if mixed:
        raise DataError(mixed)
    for person in persons.values():
        _start_at_day_zero(person)
        answers = person.answers
        duplicated = duplicated or len(set(map(_ANSWER_ORDER, answers))) < len(answers)
    if duplicated:
        raise DataError(_duplicate_rows(sources))
    if out_of_range:
        raise DataError(out_of_range)
    return CohortStore(persons.values())


def _start_at_day_zero(person: Person) -> None:
    """Shift a person's days so that the first day with data is day 0 (a
    visit may emit nothing) and sort the answers and EQ-VAS by day."""
    days = person.days
    first = days[0] if days else 0
    if first:
        new_answer = tuple.__new__  # RawAnswer(...) without its Python-level __new__
        person.answers = [new_answer(RawAnswer, (pid, day - first, instrument, item, value))
                          for pid, day, instrument, item, value in person.answers]
        person.eqvas = {d - first: v for d, v in person.eqvas.items()}
    person.answers.sort(key=_ANSWER_ORDER)
    person.eqvas = dict(sorted(person.eqvas.items()))


def _duplicate_rows(sources) -> str:
    """The duplicate-rows error, read again from the files so that it can
    name each line as path:line: an answer repeats its (person, day,
    instrument, item), an EQ-VAS answer its (person, day)."""
    seen: dict[tuple, str] = {}
    errors = []
    for source, eqvas in sources:
        for lineno, pid, _, day, instrument, item, _ in _read_rows(source, eqvas):
            key = (pid, day) if instrument == EQVAS_INSTRUMENT else (pid, day, instrument, item)
            if key in seen:
                errors.append(f"{source}:{lineno}: duplicate answer for ({pid}, day {day}, "
                              f"{instrument}:{item}); first seen on {seen[key]}")
            else:
                seen[key] = f"{source}:{lineno}"
    return "duplicate rows:\n  " + "\n  ".join(errors)


def serialize(store: CohortStore, out_dir) -> None:
    """Write a cohort directory: persons.csv, answers.csv, eqvas.csv."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "persons.csv", ["person_id"], ([person.person_id] for person in store))
    write_csv(out / "answers.csv", ANSWER_COLUMNS,
              (answer for person in store for answer in person.answers))
    write_csv(out / "eqvas.csv", ["person_id", "day", "value"],
              ([person.person_id, day, value]
               for person in store for day, value in person.eqvas.items()))


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


def _is_whole(value) -> bool:
    """An int that is not a bool: JSON's true is not a count."""
    return isinstance(value, int) and not isinstance(value, bool)


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
        for name in ("seed", "n_persons", "max_visits"):
            v = getattr(self, name)
            if not _is_whole(v):
                raise ConfigError(f"{name} must be an integer, got {v!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must not be negative, got {self.seed}")
        if self.n_persons <= 0 or self.max_visits <= 0:
            raise ConfigError("n_persons and max_visits must be positive")
        if self.trend not in TRENDS:
            raise ConfigError(f"trend must be one of {TRENDS}, got {self.trend!r}")
        # whole days, so that max_visits gaps add up to a day within int64
        top = (2**63 - 1) // self.max_visits
        try:
            lo, hi = self.visit_gap_days
        except (TypeError, ValueError):
            lo = hi = None
        if not (_is_whole(lo) and _is_whole(hi) and 0 < lo <= hi <= top):
            raise ConfigError(f"invalid visit gap range {self.visit_gap_days!r}: expected "
                              f"two whole numbers of days, 0 < low <= high <= {top}")
        for name in ("noise", "eqvas_noise", "p_pain", "p_machine", "p_odi", "p_eq5d", "p_eqvas"):
            v = getattr(self, name)
            if not isinstance(v, (int, float)) or not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1], got {v!r}")

    @classmethod
    def from_json(cls, obj: dict) -> "SynthConfig":
        """A config from a JSON object of its fields, checked as ``__init__`` checks them."""
        if not isinstance(obj, dict):
            raise ConfigError(f"synthetic config must be a JSON object, got {type(obj).__name__}")
        unknown = set(obj) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown synthetic-config keys: {sorted(unknown)}")
        if isinstance(obj.get("visit_gap_days"), list):
            obj = dict(obj, visit_gap_days=tuple(obj["visit_gap_days"]))
        return cls(**obj)


def load_synth_config(path) -> SynthConfig:
    with reading(path, "synthetic-config file", ConfigError) as fh:
        return SynthConfig.from_json(json.load(fh))


def synthesize(config: SynthConfig) -> CohortStore:
    """Generate a reproducible cohort with a controllable health trend.

    Each person carries a latent disability level in [0, 1]; instrument
    answers are noisy readouts of it on their native scales and EQ-VAS is a
    noisy readout of 100*(1 - latent).
    """
    import numpy as np  # imported here: only the generator needs it

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
            person.answers.append(RawAnswer(pid, 0, PAIN_INSTRUMENT, "back",
                                            float(round(10 * start))))
        _start_at_day_zero(person)
        persons.append(person)
    return CohortStore(persons)


def _draw_visit_count(rng: np.random.Generator, max_visits: int) -> int:
    import numpy as np

    # log-uniform: many short sequences, a tail of long ones (as in clinic data)
    u = rng.uniform(0.0, np.log(max_visits + 1.0))
    return int(np.clip(int(np.exp(u)), 1, max_visits))


def _fill_visit(person, rng, config, day, latent, pain_bias) -> None:
    import numpy as np

    def noisy(scale: float) -> float:
        return float(np.clip(latent + rng.normal(0.0, scale), 0.0, 1.0))

    if rng.uniform() < config.p_pain:
        n_areas = 1 + int(rng.integers(0, len(_PAIN_AREAS)))
        areas = [_PAIN_AREAS[j] for j in sorted(rng.choice(len(_PAIN_AREAS), size=n_areas,
                                                           replace=False))]
        for area in areas:
            level = np.clip(latent + pain_bias[area] + rng.normal(0.0, config.noise), 0.0, 1.0)
            person.answers.append(RawAnswer(person.person_id, day, PAIN_INSTRUMENT, area,
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
