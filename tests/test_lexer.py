"""Delimiter scanning: literals, comments, preprocessor lines, recovery."""

import random
from pathlib import Path

from conftest import make_record
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import TokenWalker, oracle_code_tokens, oracle_match_delimiters

from scopekit import scopes
from scopekit.ingest import Language
from scopekit.lexer import scan


def pairs_of(text: str, language=Language.C_CPP):
    return [(p.open_offset, p.close_offset, p.delimiter) for p in scan(text.encode(), language).pairs]


def test_hand_traced_function():
    text = "int f(){return 0;}"
    assert pairs_of(text) == [(5, 6, "("), (7, 17, "{")]


def test_string_literal_delimiters_ignored():
    assert [p for p in pairs_of('char*s="}{";') if p[2] == "{"] == []
    # quotes around real code still match outside the literal
    assert pairs_of('f("}{")') == [(1, 6, "(")]


def test_escaped_quote_inside_string():
    text = r'char*s="a\"}{";int g(){}'
    brace = [p for p in pairs_of(text) if p[2] == "{"]
    assert len(brace) == 1  # only g's body


def test_char_literals_and_escapes():
    assert pairs_of("char c='{';char d='\\'';int f(){}")[-1][2] == "{"
    assert len([p for p in pairs_of("char c='{';") if p[2] == "{"]) == 0


def test_cpp14_digit_separator_not_char_literal():
    for text in (
        "int x = 1'000'000; int f(){}",
        "unsigned m = 0xaaaa'aaaa; int f(){}",
        "#define MASK 0x7fff'ffff /* { spans\n lines */\nint f(){}",
        # prefixed char literals stay literals, hiding the brace they quote
        "char c = u8'{'; int f(){}",
        "wchar_t c = L'{'; int f(){}",
    ):
        res = scan(text.encode(), Language.C_CPP)
        assert [p.delimiter for p in res.pairs] == ["(", "{"], text
        assert res.orphans == [] and res.diagnostics == [], text


def test_line_comment_hides_delimiters():
    text = "// }\n{}"
    assert pairs_of(text) == [(5, 6, "{")]


def test_line_comment_backslash_continuation_c_only():
    text = "// comment \\\n { still comment\n{}"
    assert pairs_of(text) == [(text.rindex("{"), text.rindex("}"), "{")]
    # Java has no line splices: the second line is code, so its lone
    # opener surfaces as an orphan instead of staying hidden
    jres = scan(text.encode(), Language.JAVA)
    assert len(jres.pairs) == 1
    assert (text.index("{"), "{") in jres.orphans


def test_block_comment_hides_delimiters():
    text = "/* { ( */ int f(){}"
    assert [p[2] for p in pairs_of(text)] == ["(", "{"]


def test_unterminated_block_comment_diagnostic():
    res = scan(b"int f(){} /* open", Language.C_CPP)
    assert any("unterminated block comment" in d for d in res.diagnostics)
    assert len(res.pairs) == 2


def test_preprocessor_line_opaque():
    text = "#define OPEN {\nint f(){}\n"
    assert [p[2] for p in pairs_of(text)] == ["(", "{"]


def test_preprocessor_continuation():
    text = "#define M(x) { \\\n  (x) }\nint f(){}\n"
    assert len(pairs_of(text)) == 2


def test_preprocessor_block_comment_spans_lines():
    text = "#define A /* {\n   still comment */ {\nint f(){}\n"
    # the whole directive, including the multi-line comment, is opaque
    assert len(pairs_of(text)) == 2


def test_hash_mid_line_is_not_preprocessor():
    text = "int a = 1 # 2;\n{}"  # nonsense C, but the braces still match
    assert any(p[2] == "{" for p in pairs_of(text))


def test_java_has_no_preprocessor():
    text = "#define {\n}\n"
    jpairs = pairs_of(text, Language.JAVA)
    assert len(jpairs) == 1  # the brace pair matches in Java


def test_unterminated_string_recovers_at_newline():
    text = 'char*s = "oops;\nint f(){}\n'
    res = scan(text.encode(), Language.C_CPP)
    assert any("unterminated string" in d for d in res.diagnostics)
    assert len(res.pairs) == 2


def test_string_backslash_newline_continues():
    text = 'char*s = "a\\\nb}";int f(){}'
    assert len(pairs_of(text)) == 2


def test_orphan_closer_reported_not_matched():
    res = scan(b"}int f(){}", Language.C_CPP)
    assert (0, "}") in res.orphans
    assert len(res.pairs) == 2
    assert any("unbalanced" in d for d in res.diagnostics)


def test_orphan_trailing_opener_reported():
    res = scan(b"int f() {", Language.C_CPP)
    assert [(o, c) for o, c in res.orphans] == [(8, "{")]
    assert len(res.pairs) == 1  # the parens still match


def test_crossing_delimiters_stay_laminar_per_class():
    res = scan(b"( { ) }", Language.C_CPP)
    # one class wins; the other's halves become orphans
    assert len(res.pairs) == 1
    assert len(res.orphans) == 2


def test_raw_string_diagnostic():
    res = scan(b'auto s = R"(unbalanced {{{)";', Language.C_CPP)
    assert any("raw string" in d for d in res.diagnostics)


def test_raw_string_prefixes_flagged():
    for prefix in ("R", "u8R", "uR", "UR", "LR"):
        res = scan(f'auto s = {prefix}"(x)";'.encode(), Language.C_CPP)
        assert any("raw string" in d for d in res.diagnostics), prefix
    # a word ending in R before a string is no raw-string prefix
    assert scan(b'BAR"x";', Language.C_CPP).diagnostics == []


def test_backslash_crlf_splices_string_and_directive():
    # backslash-CRLF continues the literal or directive onto the next line,
    # so the delimiters after it stay hidden
    for text in ('char*s="a\\\r\n}{";int g(){}', "#define M \\\r\n { x \\\r\n }\r\nint g(){}"):
        res = scan(text.encode(), Language.C_CPP)
        assert [p.delimiter for p in res.pairs] == ["(", "{"], text
        assert res.orphans == [] and res.diagnostics == [], text


def test_nested_pairs_properly_nested():
    text = "void f(int a) { for (;;) { g(a); } }"
    res = scan(text.encode(), Language.C_CPP)
    spans = [(p.open_offset, p.close_offset) for p in res.pairs]
    for a in spans:
        for b in spans:
            if a == b:
                continue
            disjoint = a[1] < b[0] or b[1] < a[0]
            nested = (a[0] < b[0] and b[1] < a[1]) or (b[0] < a[0] and a[1] < b[1])
            assert disjoint or nested


def test_random_soup_matches_naive_oracle():
    rng = random.Random(4242)
    chars = "{}()ab \n;"
    for _ in range(200):
        text = "".join(rng.choice(chars) for _ in range(rng.randrange(0, 60)))
        got = [(p.open_offset, p.close_offset, p.delimiter) for p in scan(text.encode(), Language.JAVA).pairs]
        assert got == oracle_match_delimiters(text)


def test_opaque_spans_sorted_and_disjoint():
    # the classifier tokenizes the code between scan's opaque spans in list order
    pieces = [
        "/* block { */", "// line (\n", "'{'", "'\\''", '"(\\""', '"a//b"', "#define M(x) \\\n ((x))\n",
        "#include <a.h> // tail\n", "f(x);", "{ }", " ", "\n", "1'000", "u8'a'",
    ]
    rng = random.Random(7)
    kinds = set()
    for _ in range(300):
        text = "".join(rng.choice(pieces) for _ in range(rng.randrange(1, 30)))
        opaque = scan(text.encode(), Language.C_CPP).opaque
        kinds.update(s.kind for s in opaque)
        for a, b in zip(opaque, opaque[1:]):
            assert a.start < a.end <= b.start, text
    assert kinds == {"line_comment", "block_comment", "string", "char", "preproc"}


def test_empty_and_trivial_inputs():
    assert scan(b"", Language.C_CPP).pairs == []
    assert scan(b"int x;", Language.C_CPP).pairs == []


def file_context(text: str) -> scopes._FileContext:
    rec = make_record(text)
    return scopes._FileContext(rec, scan(rec.content, rec.language))


def test_token_list_skips_comments_and_ws():
    text = "if /* cond next */ (x) { }"
    ctx = file_context(text)
    assert ctx.texts[ctx.starts.index(text.index("(")) - 1] == b"if"


def test_token_list_string_token_and_punct():
    text = 'extern "C" { }'
    ctx = file_context(text)
    assert ctx.texts == [b"extern", b'"C"', b"{", b"}"]
    assert ctx.starts == [0, 7, 11, 13]


def test_token_list_two_char_punct():
    ctx = file_context("obj->meth(x); a::b(y);")
    assert ctx.texts == [
        b"obj", b"->", b"meth", b"(", b"x", b")", b";", b"a", b"::", b"b", b"(", b"y", b")", b";"
    ]


def test_token_list_matches_oracle_walk():
    # CRLF and trailing-blank line comments, directives and unterminated
    # literals that end in blanks: whitespace inside a span is never a gap
    pieces = [
        "// c\r\n", "// done  \n", "\n#endif \n", "\n#if X // t \n", "/* b { */", '"s{"', '"open  \n',
        "'('", "'\\''", "'x \n", 'u8"a"', "1'000", "->", "::", ":", "-", ">", ".", "f", "if", "x_1", "\u00e9",
        " ", "\t", "\n", "\r\n", ";", "=", "{", "}", "(", ")", "f(", "a.b(",
    ]
    rng = random.Random(21)
    for _ in range(300):
        text = "".join(rng.choice(pieces) for _ in range(rng.randrange(1, 40)))
        ctx = file_context(text)
        walker = TokenWalker(ctx.content, scan(ctx.content, Language.C_CPP).opaque)
        for pair, k in zip(ctx.pairs, ctx.opener):
            assert (ctx.starts[k], ctx.texts[k]) == (pair.open_offset, pair.delimiter.encode()), text
            want, pos = [], pair.open_offset
            while len(want) < 16 and (tok := walker.token_before(pos)) is not None:
                want.append(tok)
                pos = tok[0]
            got = [(ctx.starts[t], ctx.texts[t]) for t in range(k - 1, max(k - 17, -1), -1)]
            assert got == want, text


_SNIPPET_PIECES = [
    "f", "x_1", "if", "u8", "L", "R", "\u00e9", "$v", "0xaa", "1", "->", "::", ":", "/=", "/", "*", "-", ">",
    ".", ";", "=", "{", "}", "(", ")", '"s{"', '"a\\"b"', '"open', "'('", "'\\''", "'x", "1'000", "u8'a'",
    "// c {", "/* b ( */", "/*", "*/", "#", "#define X {", "#if Y", " ", "\t", "\n", "\r\n", "\\\r\n", "\\\n",
]


def assert_tokens_match_oracle(content: bytes, language):
    res = scan(content, language)
    assert (res.token_texts, res.token_starts) == oracle_code_tokens(content, res.opaque), content


@settings(max_examples=400, deadline=None)
@given(
    pieces=st.lists(st.sampled_from(_SNIPPET_PIECES), max_size=40),
    language=st.sampled_from([Language.C_CPP, Language.JAVA]),
)
def test_code_tokens_match_gap_oracle(pieces, language):
    assert_tokens_match_oracle("".join(pieces).encode(), language)


def test_fixture_code_tokens_match_gap_oracle():
    files = sorted((Path(__file__).parent / "fixtures").rglob("*.*"))
    assert files
    for path in files:
        language = Language.JAVA if path.suffix == ".java" else Language.C_CPP
        assert_tokens_match_oracle(path.read_bytes(), language)


def test_lone_cr_ends_lines_like_lf():
    # a lone CR ends a line comment, a literal and a directive; CR and LF
    # are both one whitespace byte, so every offset and token stays put
    for text, language in (
        ("int f() {\n  // note\n  return g(1);\n}\nint h() {\n  return 2;\n}\n", Language.C_CPP),
        ("#define OPEN {\nint f(){}\n#if X // {\nchar c = '{';\n", Language.C_CPP),
        ("// splice \\\n { hidden\nint f(){}\n", Language.C_CPP),
        ('char *s = "open {\nint f() { return 0; }\n', Language.C_CPP),
        ("class A {\n  // }\n  void m() { char c = '\n'; }\n}\n", Language.JAVA),
        ('class B { String s = "}\n; void m() {} }\n', Language.JAVA),
    ):
        lf = text.encode()
        cr = lf.replace(b"\n", b"\r")
        assert scan(cr, language) == scan(lf, language), text
        assert scan(cr, language).pairs, text


def test_language_value_string_lexes_as_its_member():
    text = b"#define OPEN {\nchar c = '{';\nint f(){}\n"
    for language in Language.C_CPP, Language.JAVA:
        assert scan(text, language.value) == scan(text, language)


def test_scan_rejects_other_language():
    import pytest

    with pytest.raises(ValueError):
        scan(b"x", Language.OTHER)
