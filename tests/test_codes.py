import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from icfhi import (
    CodeParseError,
    DataError,
    QualifierRecord,
    build_tree,
    compile_records,
    make_spec,
    parse_code,
    qualifiers,
)

from oracle import closure


def test_parse_second_level():
    code = parse_code("b280")
    assert code.component == "b"
    assert code.digits == "280"
    assert code.level == 2


def test_parse_bare_component():
    code = parse_code("b")
    assert code.level == 0
    assert code.digits == ""


def test_parse_fourth_level_and_parent():
    code = parse_code("b28013")
    assert code.level == 4
    assert code.parent().text == "b2801"


@pytest.mark.parametrize("text,parent", [
    ("b2801", "b280"),
    ("b280", "b2"),
    ("b2", "b"),
    ("e1234", "e123"),
])
def test_parent_chain(text, parent):
    assert parse_code(text).parent().text == parent


def test_component_parent_is_root():
    assert parse_code("e").parent() is None


@pytest.mark.parametrize("bad", [
    "", "x123", "b28", "b280134", "2801", "b280.1", "b280+2", "b 280", "b2a0", "B280",
])
def test_parse_rejects_malformed(bad):
    with pytest.raises(CodeParseError) as err:
        parse_code(bad)
    if bad:
        assert bad in str(err.value)


def test_levels_by_digit_count():
    assert [parse_code(t).level for t in ("d", "d4", "d430", "d4103", "d41030")] == [
        0, 1, 2, 3, 4,
    ]


def test_build_tree_prefix_closure():
    tree = build_tree({"b28010", "b28013"})
    assert [c.text for c in tree.codes] == ["b", "b2", "b280", "b2801", "b28010", "b28013"]
    assert len(tree) == 7  # six codes plus the root


def test_build_tree_single_chain():
    tree = build_tree({"b780"})
    assert [c.text for c in tree.codes] == ["b", "b7", "b780"]
    assert _children(tree, None) == ["b"]
    assert _children(tree, "b780") == []


def test_build_tree_empty_is_error():
    with pytest.raises(DataError):
        build_tree(set())


def _children(tree, text):
    """Child code texts of ``text`` (None for the root), in slot order."""
    slot = tree.slots[None if text is None else parse_code(text)]
    return [tree.slot_codes[child].text for child in tree.child_slots[slot]]


def test_siblings_alphabetical():
    tree = build_tree({"b2801", "b2102", "b2800", "s1", "d450"})
    assert _children(tree, "b2") == ["b210", "b280"]
    assert _children(tree, "b280") == ["b2800", "b2801"]
    assert _children(tree, None) == ["b", "d", "s"]


def test_bottom_up_order():
    # levels: b2102 and b2801 at 3, b210 and b280 at 2, b2 at 1, b and d
    # at 0; the leaves b21020, b28010 and d4500 are left out
    tree = build_tree({"b21020", "b28010", "b2801", "d4500"})
    order = [tree.slot_codes[slot] for slot in tree.bottom_up]
    assert [None if code is None else code.text for code in order] == [
        "b2102", "b2801", "b210", "b280", "d450", "b2", "d4", "b", "d", None,
    ]
    assert all(tree.child_slots[slot] for slot in tree.bottom_up)
    assert len(tree.bottom_up) == sum(1 for children in tree.child_slots if children)


_code_texts = st.builds(
    lambda comp, level, digits: comp + digits[: {0: 0, 1: 1, 2: 3, 3: 4, 4: 5}[level]],
    st.sampled_from("bsde"),
    st.integers(min_value=0, max_value=4),
    st.text(alphabet="0123456789", min_size=5, max_size=5),
)


@given(st.sets(_code_texts, min_size=1, max_size=12))
def test_tree_matches_independent_closure_and_is_idempotent(texts):
    tree = build_tree(texts)
    expected = closure(texts)
    assert {c.text for c in tree.codes} == expected
    again = build_tree({c.text for c in tree.codes})
    assert {c.text for c in again.codes} == expected
    # each code contributes at most four ancestors; plus one root
    assert len(tree) <= 5 * len(texts) + 1


@given(_code_texts.filter(lambda t: len(t) > 2))
def test_parent_is_proper_prefix(text):
    code = parse_code(text)
    assert code.parent().text == text[: len(code.parent().text)]
    assert len(code.parent().text) < len(text)


def test_attach_leaves_tree_unchanged():
    # compiling records against a tree places them on its slots without
    # changing it, and two compilations share the tree and nothing else
    tree = build_tree({"b2801", "d450"})
    tables = (tree.slot_codes, dict(tree.slots), tree.parent_slots, tree.child_slots,
              tree.bottom_up)
    spec = make_spec(2.0, 1.0)
    first = compile_records(tree, [QualifierRecord("p", 0, "s", parse_code("b2801"), 1.0, 1.0)])
    second = compile_records(tree, [QualifierRecord("q", 0, "s", parse_code("d450"), 3.0, 1.0),
                                    QualifierRecord("q", 0, "t", parse_code("b280"), 2.0, 1.0)])
    assert (tree.slot_codes, tree.slots, tree.parent_slots, tree.child_slots,
            tree.bottom_up) == tables
    assert first.tree is second.tree is tree
    assert set(qualifiers(first, 0, spec.gamma)) == {parse_code("b2801")}
    assert set(qualifiers(second, 0, spec.gamma)) == {parse_code("d450"), parse_code("b280")}
    assert [q.value for q in qualifiers(first, 0, spec.gamma)[parse_code("b2801")]] == [1.0]


@given(st.lists(_code_texts, max_size=30))
def test_codes_sort_by_text_as_by_code(texts):
    # records_to_csv sorts on code text: one letter plus digits orders as the code
    codes = [parse_code(t) for t in texts]
    assert sorted(codes, key=lambda c: c.text) == sorted(codes)


def test_cached_text_leaves_eq_hash_order_and_repr_alone():
    fresh, read = parse_code("b280"), parse_code("b280")
    assert read.text == "b280"
    assert "text" in vars(read) and "text" not in vars(fresh)
    assert fresh == read and hash(fresh) == hash(read)
    assert repr(fresh) == repr(read) == "IcfCode(component='b', digits='280')"
    assert not fresh < read and not read < fresh
    assert sorted([parse_code("d4"), read, parse_code("b2")]) == [
        parse_code("b2"), fresh, parse_code("d4")]
    assert pickle.loads(pickle.dumps(read)) == fresh
