"""ICF code grammar and the tree of available codes.

Codes are a component letter (b, s, d, e) followed by 0, 1, 3, 4 or 5
digits; the digit count encodes the hierarchy level and the parent of a
code is a prefix of it.  Trees contain only the codes observed in the
input plus their ancestors, under one synthetic root.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import CodeParseError, DataError

COMPONENTS = ("b", "d", "e", "s")

ROOT_LEVEL = -1
ROOT_SLOT = 0

# digit count -> hierarchy level; two-digit codes do not exist in the ICF
_LEVEL_BY_DIGITS = {0: 0, 1: 1, 3: 2, 4: 3, 5: 4}

# level -> text length of the parent code ("b28013" -> "b2801" -> "b280" -> "b2" -> "b")
_PARENT_TEXT_LEN = {4: 5, 3: 4, 2: 2, 1: 1}


@dataclass(frozen=True, order=True)
class IcfCode:
    """A parsed ICF code: component letter plus level-encoding digits."""

    component: str
    digits: str = ""

    def __post_init__(self):
        if self.component not in COMPONENTS:
            raise CodeParseError(f"unknown ICF component letter in {self.text!r}")
        if not self.digits.isdigit() and self.digits != "":
            raise CodeParseError(f"non-digit characters in ICF code {self.text!r}")
        if len(self.digits) not in _LEVEL_BY_DIGITS:
            raise CodeParseError(
                f"ICF code {self.text!r} has {len(self.digits)} digits; "
                "valid digit counts are 0, 1, 3, 4 or 5"
            )

    @property
    def text(self) -> str:
        return self.component + self.digits

    @property
    def level(self) -> int:
        return _LEVEL_BY_DIGITS[len(self.digits)]

    def parent(self) -> "IcfCode | None":
        """Parent code by prefix truncation; None for a bare component (parent is the root)."""
        if self.level == 0:
            return None
        return parse_code(self.text[: _PARENT_TEXT_LEN[self.level]])

    def ancestors(self) -> Iterator["IcfCode"]:
        """All proper ancestors, nearest first, excluding the root."""
        code = self.parent()
        while code is not None:
            yield code
            code = code.parent()

    def __str__(self) -> str:
        return self.text


def parse_code(text: str) -> IcfCode:
    """Parse ICF code text such as ``b28013``; qualifier suffixes are rejected."""
    if not isinstance(text, str) or not text:
        raise CodeParseError(f"empty or non-string ICF code: {text!r}")
    head, tail = text[0], text[1:]
    if head not in COMPONENTS:
        raise CodeParseError(f"unknown ICF component letter in {text!r}")
    if tail and not tail.isdigit():
        raise CodeParseError(
            f"malformed ICF code {text!r}: expected only digits after the "
            "component letter (qualifier separators such as '.' or '+' are not codes)"
        )
    if len(tail) not in _LEVEL_BY_DIGITS:
        raise CodeParseError(
            f"ICF code {text!r} has {len(tail)} digits; valid digit counts are 0, 1, 3, 4 or 5"
        )
    return IcfCode(head, tail)


def parent_of(code: IcfCode) -> "IcfCode | None":
    """Parent of ``code``; None denotes the synthetic root."""
    return code.parent()


def codes_from_text(text: str) -> list[IcfCode]:
    """Parse a newline-delimited code list; blank lines and '#' comments skipped."""
    codes = []
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            codes.append(parse_code(line))
    return codes


class Node:
    """One tree position: an ICF code (None for the synthetic root) and its
    child nodes in alphabetical code order.  A node holds no evaluation
    state; qualifiers and results live in the engine's values."""

    __slots__ = ("code", "children")

    def __init__(self, code: "IcfCode | None", children: "Iterable[Node]"):
        self.code = code  # None marks the synthetic root
        self.children: tuple[Node, ...] = tuple(children)

    @property
    def level(self) -> int:
        return ROOT_LEVEL if self.code is None else self.code.level

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def __repr__(self) -> str:
        name = "root" if self.code is None else self.code.text
        return f"Node({name}, children={len(self.children)})"


class IcfTree:
    """Immutable hierarchy of available ICF codes under one synthetic root
    (level -1).

    The tree numbers its nodes once, here: slot 0 is the root and the codes
    follow in alphabetical order.  Next to the numbering it works out each
    slot's parent slot and the bottom-up evaluation order.  The engine
    compiles a person's records against these slots once and then evaluates
    every day from integer-indexed tables, so the layout of the tree stays
    the decision of this module.
    """

    def __init__(self, nodes: "dict[IcfCode, Node]", root: Node):
        self.root = root
        self._by_code = nodes
        # slot -> code and code -> slot; the root's code is None
        self.slot_codes: tuple[IcfCode | None, ...] = (None, *sorted(nodes))  # ROOT_SLOT first
        self.slots: dict[IcfCode | None, int] = {
            code: slot for slot, code in enumerate(self.slot_codes)
        }
        # slot -> parent slot; -1 for the root
        parent_slots = [-1] * len(self.slot_codes)
        for node in self.iter_nodes():
            for child in node.children:
                parent_slots[self.slots[child.code]] = self.slots[node.code]
        self.parent_slots: tuple[int, ...] = tuple(parent_slots)
        # (slot, child slots) of the nodes with children: deepest level
        # first, alphabetical within a level, the root last
        self.bottom_up: tuple[tuple[int, tuple[int, ...]], ...] = tuple(
            (self.slots[node.code], tuple(self.slots[child.code] for child in node.children))
            for level in range(self.deepest_level, ROOT_LEVEL - 1, -1)
            for node in self.nodes_at_level(level)
            if not node.is_leaf
        )

    def node_for(self, code: IcfCode) -> Node:
        try:
            return self._by_code[code]
        except KeyError:
            raise DataError(f"ICF code {code.text} is not part of this tree") from None

    def __contains__(self, code: IcfCode) -> bool:
        return code in self._by_code

    def __len__(self) -> int:
        # includes the root
        return len(self._by_code) + 1

    @property
    def codes(self) -> "list[IcfCode]":
        return list(self.slot_codes[1:])

    @property
    def deepest_level(self) -> int:
        return max((c.level for c in self._by_code), default=ROOT_LEVEL)

    def nodes_at_level(self, level: int) -> "list[Node]":
        """Nodes of one level in alphabetical code order; level -1 is the root alone."""
        if level == ROOT_LEVEL:
            return [self.root]
        return [self._by_code[c] for c in sorted(self._by_code) if c.level == level]

    def iter_nodes(self) -> Iterator[Node]:
        yield self.root
        for code in self.slot_codes[1:]:
            yield self._by_code[code]


def build_tree(codes: Iterable[IcfCode | str]) -> IcfTree:
    """Build the tree spanned by ``codes``: the codes themselves, every
    ancestor up to the bare components, and one synthetic root."""
    parsed: set[IcfCode] = set()
    for code in codes:
        parsed.add(parse_code(code) if isinstance(code, str) else code)
    if not parsed:
        raise DataError("cannot build an ICF tree from an empty code set")

    closed: set[IcfCode] = set()
    for code in parsed:
        closed.add(code)
        closed.update(code.ancestors())

    children: dict[IcfCode | None, list[IcfCode]] = {}
    for code in sorted(closed):
        children.setdefault(code.parent(), []).append(code)
    nodes: dict[IcfCode, Node] = {}
    for code in sorted(closed, key=lambda c: -c.level):  # children before parents
        nodes[code] = Node(code, [nodes[child] for child in children.get(code, ())])
    return IcfTree(nodes, Node(None, [nodes[child] for child in children[None]]))
