import pytest
from hypothesis import given
from hypothesis import strategies as st

from icfhi import (
    CodeParseError,
    DataError,
    QualifierRecord,
    attach,
    build_tree,
    codes_from_text,
    make_spec,
    parent_of,
    parse_code,
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
    assert parent_of(parse_code(text)).text == parent


def test_component_parent_is_root():
    assert parent_of(parse_code("e")) is None


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
    root = tree.root
    assert [ch.code.text for ch in root.children] == ["b"]


def test_build_tree_empty_is_error():
    with pytest.raises(DataError):
        build_tree(set())


def test_siblings_alphabetical():
    tree = build_tree({"b2801", "b2102", "b2800", "s1", "d450"})
    b2 = tree.node_for(parse_code("b2"))
    assert [ch.code.text for ch in b2.children] == ["b210", "b280"]
    b280 = tree.node_for(parse_code("b280"))
    assert [ch.code.text for ch in b280.children] == ["b2800", "b2801"]
    assert [ch.code.text for ch in tree.root.children] == ["b", "d", "s"]


def test_nodes_at_level_order():
    tree = build_tree({"b2801", "b2102", "d450"})
    assert [n.code.text for n in tree.nodes_at_level(3)] == ["b2102", "b2801"]
    assert [n.code.text for n in tree.nodes_at_level(0)] == ["b", "d"]
    assert tree.nodes_at_level(-1) == [tree.root]
    assert tree.deepest_level == 3


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


def test_codes_from_text():
    parsed = codes_from_text("b280\n\n# pain codes\nb28013\nd450\n")
    assert [c.text for c in parsed] == ["b280", "b28013", "d450"]
    with pytest.raises(CodeParseError):
        codes_from_text("b280\nb28\n")


def test_attach_leaves_tree_unchanged():
    tree = build_tree({"b2801", "d450"})
    shape = [(node.code, node.children) for node in tree.iter_nodes()]
    slots, parents, bottom_up = dict(tree.slots), tree.parent_slots, tree.bottom_up
    spec = make_spec(2.0, 1.0)
    first = attach(tree, [QualifierRecord("p", 0, "s", parse_code("b2801"), 1.0, 1.0)], 0, spec)
    second = attach(tree, [QualifierRecord("q", 0, "s", parse_code("d450"), 3.0, 1.0),
                           QualifierRecord("q", 0, "t", parse_code("b280"), 2.0, 1.0)], 0, spec)
    assert [(node.code, node.children) for node in tree.iter_nodes()] == shape
    assert tree.slots == slots and tree.parent_slots == parents and tree.bottom_up == bottom_up
    # two attachments on one tree share it and nothing else
    assert first.tree is second.tree is tree
    assert set(first.qualifiers) == {parse_code("b2801")}
    assert set(second.qualifiers) == {parse_code("d450"), parse_code("b280")}
    assert [q.value for q in first.qualifiers[parse_code("b2801")]] == [1.0]
