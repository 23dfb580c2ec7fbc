"""ICF code grammar and the tree of available codes.

A code is its text: ``IcfCode`` is a ``str`` that was checked on
construction to be a component letter (b, s, d, e) followed by 0, 1, 3, 4
or 5 ASCII digits, so it equals, hashes, sorts and prints as that text.
The digit count encodes the hierarchy level and the parent of a code is a
prefix of it.  Trees contain only the codes observed in the input plus
their ancestors, under one synthetic root.  A tree is nothing but integer
slot tables: each code's slot, its parent and children by slot, and the
bottom-up order in which the engine rolls values up.

The module also owns the ICF qualifier scale, 0 to 4, which every other
module reads: a qualifier, the value curve's input and output and the raw
index all lie on it.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import CodeParseError, DataError

COMPONENTS = ("b", "d", "e", "s")
# the ICF qualifier scale, from 0 (no problem) to 4 (complete problem)
QUALIFIER_MIN, QUALIFIER_MAX = 0.0, 4.0

ROOT_LEVEL = -1
ROOT_SLOT = 0

# digit count -> hierarchy level; two-digit codes do not exist in the ICF
_LEVEL_BY_DIGITS = {0: 0, 1: 1, 3: 2, 4: 3, 5: 4}

# level -> text length of the parent code ("b28013" -> "b2801" -> "b280" -> "b2" -> "b")
_PARENT_TEXT_LEN = {4: 5, 3: 4, 2: 2, 1: 1}


class IcfCode(str):
    """An ICF code such as ``b28013``: a string checked to be a component
    letter plus level-encoding digits.  Qualifier suffixes are rejected.

    A code is one letter plus digits, so string order is the order by
    (component, digits)."""

    __slots__ = ()

    def __new__(cls, text: str) -> "IcfCode":
        if not isinstance(text, str) or not text:
            raise CodeParseError(f"empty or non-string ICF code: {text!r}")
        if text[0] not in COMPONENTS:
            raise CodeParseError(f"unknown ICF component letter in {text!r}")
        digits = text[1:]
        # isdigit alone would take superscripts and non-Latin digits such as "²" or "٢"
        if digits and not (digits.isascii() and digits.isdigit()):
            raise CodeParseError(
                f"malformed ICF code {text!r}: expected only digits after the "
                "component letter (qualifier separators such as '.' or '+' are not codes)"
            )
        if len(digits) not in _LEVEL_BY_DIGITS:
            raise CodeParseError(
                f"ICF code {text!r} has {len(digits)} digits; "
                "valid digit counts are 0, 1, 3, 4 or 5"
            )
        return super().__new__(cls, text)

    @property
    def component(self) -> str:
        return self[0]

    @property
    def digits(self) -> str:
        return self[1:]

    @property
    def text(self) -> str:
        """The code as a plain ``str``."""
        return str(self)

    @property
    def level(self) -> int:
        return _LEVEL_BY_DIGITS[len(self) - 1]

    def parent(self) -> "IcfCode | None":
        """Parent code by prefix truncation; None for a bare component (parent is the root)."""
        if self.level == 0:
            return None
        return IcfCode(self[: _PARENT_TEXT_LEN[self.level]])

    def ancestors(self) -> Iterator["IcfCode"]:
        """All proper ancestors, nearest first, excluding the root."""
        code = self.parent()
        while code is not None:
            yield code
            code = code.parent()


def parse_code(text: str) -> IcfCode:
    """Parse ICF code text such as ``b28013``; qualifier suffixes are rejected."""
    return IcfCode(text)


class IcfTree:
    """Immutable hierarchy of available ICF codes under one synthetic root
    (level -1), as integer slot tables.

    Slot 0 is the root and the codes follow in alphabetical order:
    ``slot_codes`` maps a slot to its code (None for the root) and ``slots``
    a code to its slot.  ``parent_slots`` holds each slot's parent (-1 for
    the root), ``child_slots`` its children in alphabetical order, and
    ``bottom_up`` the slots with children, deepest level first, alphabetical
    within a level, the root last.  The engine compiles a person's records
    against these slots once and then evaluates every day from them.
    """

    def __init__(self, closed: "Iterable[IcfCode]"):
        """``closed`` holds every ancestor of each of its codes (see ``build_tree``)."""
        self.slot_codes: tuple[IcfCode | None, ...] = (None, *sorted(closed))  # ROOT_SLOT first
        self.slots: dict[IcfCode | None, int] = {
            code: slot for slot, code in enumerate(self.slot_codes)
        }
        # a bare component's parent() is None, the root's key
        self.parent_slots: tuple[int, ...] = (
            -1, *(self.slots[code.parent()] for code in self.slot_codes[1:]))
        children: list[list[int]] = [[] for _ in self.slot_codes]
        for slot, parent in enumerate(self.parent_slots[1:], start=1):
            children[parent].append(slot)
        self.child_slots: tuple[tuple[int, ...], ...] = tuple(map(tuple, children))
        levels = [ROOT_LEVEL, *(code.level for code in self.slot_codes[1:])]
        self.bottom_up: tuple[int, ...] = tuple(sorted(
            (slot for slot, kids in enumerate(children) if kids),
            key=lambda slot: (-levels[slot], slot)))

    def __len__(self) -> int:
        # includes the root
        return len(self.slot_codes)

    @property
    def codes(self) -> "list[IcfCode]":
        return list(self.slot_codes[1:])


def build_tree(codes: Iterable[str]) -> IcfTree:
    """Build the tree spanned by ``codes``: the codes themselves, every
    ancestor up to the bare components, and one synthetic root."""
    closed: set[IcfCode] = set()
    for code in codes:
        code = IcfCode(code)
        closed.add(code)
        closed.update(code.ancestors())
    if not closed:
        raise DataError("cannot build an ICF tree from an empty code set")
    return IcfTree(closed)
