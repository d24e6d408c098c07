"""Scope extraction and category assignment over token lookbehind."""

import dataclasses
from functools import cache
from pathlib import Path

import pytest
from conftest import make_record
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracles import oracle_match_delimiters

from scopekit import scopes
from scopekit.config import parse_config
from scopekit.jsonl import write_jsonl
from scopekit.lexer import scan
from scopekit.scopes import ScopeCandidate, ScopeCategory, extract_scopes, read_scopes, write_scopes

FIXTURES = Path(__file__).parent / "fixtures" / "corpus"


def cats(text: str, language="c_cpp", patterns=None):
    """Map scope content -> category for every candidate in the file."""
    rec = make_record(text, language=language)
    kwargs = {"logging_patterns": patterns} if patterns else {}
    out = {}
    for c in extract_scopes(rec, **kwargs):
        body = text.encode()[c.start_byte:c.end_byte].decode()
        out[body] = c.category
    return out


def category_of(text: str, body: str, **kw) -> ScopeCategory:
    table = cats(text, **kw)
    assert body in table, f"no scope with content {body!r}: {list(table)}"
    return table[body]


def test_function_body_simple():
    assert category_of("void f(){int x=0;}", "int x=0;") is ScopeCategory.FUNC_BODY


def test_function_params_unclassified():
    assert category_of("void f(){int x=0;}", "") is ScopeCategory.UNCLASSIFIED


def test_if_body():
    text = "void f(){if (a > 0) { a--; }}"
    assert category_of(text, " a--; ") is ScopeCategory.IF_BODY


def test_else_body_and_else_if():
    text = "void f(){if (a) { b(); } else { c(); }}"
    assert category_of(text, " c(); ") is ScopeCategory.ELSE_BODY
    text2 = "void f(){if (a) { b(); } else if (d) { c(); }}"
    # "else if" binds the brace to the second condition
    assert category_of(text2, " c(); ") is ScopeCategory.IF_BODY


def test_for_body_including_range_for():
    text = "void f(){for (int i=0;i<n;i++) { g(i); }}"
    assert category_of(text, " g(i); ") is ScopeCategory.FOR_BODY
    text2 = "void f(){for (auto& v : vs) { use(v); }}"
    assert category_of(text2, " use(v); ") is ScopeCategory.FOR_BODY


def test_while_body_stays_unclassified():
    text = "void f(){while (a) { b(); }}"
    assert category_of(text, " b(); ") is ScopeCategory.UNCLASSIFIED


def test_logging_call_macro_and_method():
    text = 'void f(){pdLog("x=%d", x);}'
    assert category_of(text, '"x=%d", x') is ScopeCategory.LOGGING
    text2 = 'void f(){logger.info("hi");}'
    assert category_of(text2, '"hi"') is ScopeCategory.LOGGING
    text3 = 'void f(){LOG_WARN(status);}'
    assert category_of(text3, "status") is ScopeCategory.LOGGING


def test_logging_pattern_override():
    text = "void f(){audit(msg);}"
    assert category_of(text, "msg") is ScopeCategory.FUNC_CALL
    assert category_of(text, "msg", patterns=(r"(?i)audit",)) is ScopeCategory.LOGGING


@pytest.mark.parametrize(
    "pairs, logging",
    [({}, True), ({"logging_patterns": None}, True), ({"logging_patterns": []}, False)],
    ids=["absent", "null", "empty"],
)
def test_empty_logging_patterns_turn_the_category_off(pairs, logging):
    cfg = parse_config({"pairs": pairs}, paths_required=False)
    found = {c.category for c in extract_scopes(make_record("void f() { log_info(x); }"), cfg.logging_patterns)}
    assert (ScopeCategory.LOGGING in found) is logging


def test_plain_call_args():
    text = "void f(){submit(a, b);}"
    assert category_of(text, "a, b") is ScopeCategory.FUNC_CALL


def test_qualified_call_args():
    text = "void f(){queue.push_back(item);}"
    assert category_of(text, "item") is ScopeCategory.FUNC_CALL


def test_call_after_return_keyword():
    text = "int f(){return combine(a, b);}"
    assert category_of(text, "a, b") is ScopeCategory.FUNC_CALL


def test_declaration_parens_not_calls():
    # "int g(int a)" at file level declares; its parens are a signature
    table = cats("int g(int a);")
    assert table["int a"] is ScopeCategory.UNCLASSIFIED


def test_control_condition_parens_unclassified():
    text = "void f(){if (ready(x)) { go(); }}"
    table = cats(text)
    assert table["ready(x)"] is ScopeCategory.UNCLASSIFIED  # if-condition
    assert table["x"] is ScopeCategory.FUNC_CALL  # the call inside it


def test_type_bodies_unclassified():
    for text, body in [
        ("struct P { int x; };", " int x; "),
        ("class Q { void m(); };", " void m(); "),
        ("enum E { A, B };", " A, B "),
        ("namespace ns { int v; }", " int v; "),
        ("union U { int a; float b; };", " int a; float b; "),
    ]:
        assert category_of(text, body) is ScopeCategory.UNCLASSIFIED, text


def test_method_inside_class_is_func_body():
    text = "class Q { int m() { return 1; } };"
    assert category_of(text, " return 1; ") is ScopeCategory.FUNC_BODY


def test_java_method_and_interface():
    text = "class A { void run() { step(); } }"
    assert category_of(text, " step(); ", language="java") is ScopeCategory.FUNC_BODY
    text2 = "interface I { void run(); }"
    assert category_of(text2, " void run(); ", language="java") is ScopeCategory.UNCLASSIFIED


def test_constructor_initializer_list():
    text = "Foo::Foo() : x_(1) { init(); }"
    assert category_of(text, " init(); ") is ScopeCategory.FUNC_BODY


def test_try_do_switch_unclassified():
    text = "void f(){try { a(); } catch (E& e) { b(); } do { c(); } while (0);}"
    table = cats(text)
    assert table[" a(); "] is ScopeCategory.UNCLASSIFIED  # try
    assert table[" c(); "] is ScopeCategory.UNCLASSIFIED  # do
    text2 = "void f(){switch (k) { case 1: break; }}"
    assert category_of(text2, " case 1: break; ") is ScopeCategory.UNCLASSIFIED


def test_braced_initializer_after_return_unclassified():
    text = "Pair f(){if (x) return {1, 2};}"
    table = cats(text)
    assert table["1, 2"] is ScopeCategory.UNCLASSIFIED


def test_anonymous_class_after_new_unclassified():
    text = "Runnable r = new Runnable() { public void run() { go(); } };"
    table = cats(text, language="java")
    assert table[" public void run() { go(); } "] is ScopeCategory.UNCLASSIFIED
    assert table[" go(); "] is ScopeCategory.FUNC_BODY


def test_depth_counts_nested_children():
    text = "void f(){if (a) { g(h(x)); }}"
    rec = make_record(text)
    by_body = {}
    for c in extract_scopes(rec):
        by_body[text.encode()[c.start_byte:c.end_byte].decode()] = c
    assert by_body["x"].depth == 0
    assert by_body["h(x)"].depth == 1
    assert by_body[" g(h(x)); "].depth == 2
    # outer func body: its children are the if-cond (depth 0) and if-body
    assert by_body["if (a) { g(h(x)); }"].depth == 3


# Nested {}/() groups of identifiers and keywords, with stray delimiters
# among the atoms so that some inputs are unbalanced.
_SOUP = st.recursive(
    st.sampled_from(["f", "if", "for", "else", "x1", " ", ";", "{", "}", "(", ")"]),
    lambda inner: st.lists(inner, max_size=4).map("".join)
    | st.tuples(st.sampled_from(["()", "{}"]), st.lists(inner, max_size=4)).map(
        lambda t: t[0][0] + "".join(t[1]) + t[0][1]
    ),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(text=_SOUP)
def test_depth_is_height_over_oracle_pairs(text):
    pairs = oracle_match_delimiters(text)

    @cache
    def height(pair):
        inside = [q for q in pairs if pair[0] < q[0] and q[1] < pair[1]]
        return max((1 + height(q) for q in inside), default=0)

    got = {c.start_byte: c.depth for c in extract_scopes(make_record(text), diagnostics=[])}
    assert got == {p[0] + 1: height(p) for p in pairs}


def test_callee_chain_walked_once_per_paren(monkeypatch):
    calls = []
    real = scopes._callee_chain

    def counting(ctx, paren):
        calls.append(ctx.starts[paren])  # the '(' token's offset
        return real(ctx, paren)

    monkeypatch.setattr(scopes, "_callee_chain", counting)
    rec = make_record((FIXTURES / "scheduler.cpp").read_bytes(), path="scheduler.cpp")
    out = extract_scopes(rec, diagnostics=[])
    assert any(c.category is ScopeCategory.FUNC_BODY for c in out)  # '{' after ')' read chains
    parens = [p.open_offset for p in scan(rec.content, rec.language).pairs if p.delimiter == "("]
    assert calls == parens


def test_size_and_prefix_fields():
    text = "void f(){int x=0;}"
    rec = make_record(text)
    body = next(c for c in extract_scopes(rec) if c.size_bytes > 0)
    assert body.start_byte == 9 and body.end_byte == 17
    assert body.size_bytes == 8
    assert body.prefix_available_bytes == 9


def test_candidates_sorted_and_laminar():
    text = "void f(){if (a) { g(h(x), k(y)); } else { m(); }}"
    rec = make_record(text)
    out = extract_scopes(rec)
    keys = [(c.start_byte, c.end_byte) for c in out]
    assert keys == sorted(keys)
    for a in keys:
        for b in keys:
            if a == b:
                continue
            disjoint = a[1] <= b[0] or b[1] <= a[0]
            nested = (a[0] <= b[0] and b[1] <= a[1]) or (b[0] <= a[0] and a[1] <= b[1])
            assert disjoint or nested


def test_comment_or_directive_ending_in_blanks_reads_as_a_gap():
    # the classifier reads no token from inside a line comment or directive,
    # also where its last bytes are blanks or a CRLF's '\r'
    assert category_of("int f() // new\r\n{ g(); }", " g(); ") is ScopeCategory.FUNC_BODY
    assert category_of("void f() // done  \n{ g(); }", " g(); ") is ScopeCategory.FUNC_BODY
    assert category_of("A::A(int x) :\n#endif \n  base(x) { }", "x") is ScopeCategory.FUNC_CALL


def test_unreadable_context_falls_back():
    # orphan-closer noise before a scope must not crash classification
    text = ") } void f(){int x=0;}"
    table = cats(text)
    assert table["int x=0;"] is ScopeCategory.FUNC_BODY


def test_candidate_holds_five_slots():
    cand = ScopeCandidate("f" * 64, ScopeCategory.FUNC_BODY, 9, 17, 2)
    assert not hasattr(cand, "__dict__")
    assert [f.name for f in dataclasses.fields(cand)] == ["file_id", "category", "start_byte", "end_byte", "depth"]
    assert (cand.size_bytes, cand.prefix_available_bytes) == (8, 9)


_OFFSET = st.integers(0, 2**63)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    rows=st.lists(
        st.builds(
            ScopeCandidate,
            file_id=st.one_of(st.text(), st.sampled_from(["0" * 64, "ab" * 32])),
            category=st.sampled_from(list(ScopeCategory)),
            start_byte=_OFFSET,
            end_byte=_OFFSET,
            depth=_OFFSET,
        ),
        max_size=8,
    )
)
def test_write_scopes_matches_json_dumps(tmp_path, rows):
    """The row template gives the bytes write_jsonl gives the candidate's seven keys."""
    want = write_jsonl(
        (
            {
                "file_id": c.file_id,
                "category": c.category,
                "start_byte": c.start_byte,
                "end_byte": c.end_byte,
                "depth": c.depth,
                "size_bytes": c.end_byte - c.start_byte,
                "prefix_available_bytes": c.start_byte,
            }
            for c in rows
        ),
        tmp_path / "want.jsonl",
    )
    assert write_scopes(rows, tmp_path / "got.jsonl") == want
    assert (tmp_path / "got.jsonl").read_bytes() == (tmp_path / "want.jsonl").read_bytes()
    assert read_scopes(tmp_path / "got.jsonl") == rows
