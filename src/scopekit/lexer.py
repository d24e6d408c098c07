"""Comment- and string-aware tokenizing and delimiter matching for C/C++ and Java.

The scanner never parses; it tracks lexical mode (code, line comment, block
comment, string literal, char literal, preprocessor line) so that braces and
parentheses inside literals, comments, or macro bodies cannot corrupt the
match stack. Every offset reported here is a byte offset into the scanned
content.

This is the package's one tokenizer: one regex walks the code token by
token, recording each token for scope classification, and narrower regexes
jump to the ends of comments, literals and directives.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .ingest import Language

# A lone CR ends a line as LF does; in CRLF the LF ends it.
_LINE_END = re.compile(rb"\n|\r(?!\n)")
_STRING_EVENT = re.compile(rb'["\\]|' + _LINE_END.pattern)
_CHAR_EVENT = re.compile(rb"['\\]|" + _LINE_END.pattern)
_PREPROC_EVENT = re.compile(rb'["\'\\]|/[*/]|' + _LINE_END.pattern)

_OPENER_FOR = {b"}": b"{", b")": b"("}

# Bytes a pp-number may contain ([lex.ppnumber]); sign characters after
# e/E/p/P are left out, which only shortens the walk back.
_PP_NUMBER = frozenset(b"0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_.'")

# Identifier bytes, non-ASCII ones included.
WORD_CLASS = rb"[0-9A-Za-z_$\x80-\xff]"
_WORD = frozenset(b for b in range(256) if re.fullmatch(WORD_CLASS, bytes((b,))))

# A code token: a word, '->', '::', a comment opener or any other non-space byte.
_CODE_TOKEN = re.compile(WORD_CLASS + rb"+|->|::|/[*/]|\S")
# The code tokens that may change the scanner's mode (see _opaque_span).
_EVENTS = frozenset((b"{", b"}", b"(", b")", b'"', b"'", b"//", b"/*", b"#"))


@dataclass(frozen=True)
class DelimiterSpan:
    """A matched pair; offsets point at the delimiter characters themselves."""

    open_offset: int
    close_offset: int
    delimiter: str  # opening character, "{" or "("


@dataclass(frozen=True)
class OpaqueSpan:
    """A region the matcher treats as contentless (comment, literal, directive)."""

    start: int
    end: int  # one past the last byte
    kind: str  # line_comment | block_comment | string | char | preproc


@dataclass
class ScanResult:
    pairs: list[DelimiterSpan] = field(default_factory=list)
    orphans: list[tuple[int, str]] = field(default_factory=list)
    opaque: list[OpaqueSpan] = field(default_factory=list)
    diagnostics: list[str] = field(default_factory=list)
    # The code tokens in order, as bytes and start offsets; a string or char
    # literal is one token, quotes included, a comment or directive none.
    token_texts: list[bytes] = field(default_factory=list)
    token_starts: list[int] = field(default_factory=list)


def _after_backslash(content: bytes, i: int) -> int:
    """Past the backslash at ``i`` and the byte it escapes, or its CRLF splice."""
    return i + 2 + (content[i + 1 : i + 3] == b"\r\n")


def _scan_quoted(content: bytes, pos: int, event: re.Pattern) -> tuple[int, bool]:
    """Scan a quoted literal from just after its opening quote.

    Returns (end, unterminated): end is one past the closing quote, or the
    offset of the line end/EOF that cut the literal short. Backslash escapes
    consume the next byte; backslash-CRLF is consumed as one splice.
    """
    n = len(content)
    while True:
        m = event.search(content, pos)
        if m is None:
            return n, True
        i = m.start()
        b = m.group()
        if b == b"\\":
            pos = _after_backslash(content, i)
            continue
        if b in (b"\n", b"\r"):
            return i, True
        return i + 1, False  # closing quote


def _scan_line_comment(content: bytes, pos: int, splice: bool) -> int:
    """Scan to end of a line comment; ``splice`` honors backslash-newline."""
    while True:
        m = _LINE_END.search(content, pos)
        if m is None:
            return len(content)
        j = m.start()
        if splice:
            k = j - 1 - (content[j - 1 : j + 1] == b"\r\n")
            if content[k : k + 1] == b"\\":
                pos = j + 1
                continue
        return j


def _scan_block_comment(content: bytes, pos: int, diagnostics: list[str]) -> int:
    j = content.find(b"*/", pos)
    if j < 0:
        diagnostics.append(f"unterminated block comment at byte {pos - 2}")
        return len(content)
    return j + 2


def _scan_preproc(content: bytes, pos: int, diagnostics: list[str]) -> int:
    """Scan a preprocessor directive from its '#'.

    The whole directive is opaque. Line splices extend it; a block comment
    inside it may span newlines without ending it; an unescaped newline ends
    it (also when that newline cuts an unterminated literal short).
    """
    n = len(content)
    pos += 1
    while True:
        m = _PREPROC_EVENT.search(content, pos)
        if m is None:
            return n
        i = m.start()
        b = m.group()
        if b == b"\\":
            pos = _after_backslash(content, i)
        elif b in (b"\n", b"\r"):
            return i
        elif b == b"'" and _digit_separator(content, i):
            pos = i + 1
        elif b in (b'"', b"'"):
            ev = _STRING_EVENT if b == b'"' else _CHAR_EVENT
            end, unterminated = _scan_quoted(content, i + 1, ev)
            if unterminated:
                return end
            pos = end
        elif b == b"//":
            return _scan_line_comment(content, i + 2, splice=True)
        else:  # b'/*'
            pos = _scan_block_comment(content, i + 2, diagnostics)


def _digit_separator(content: bytes, i: int) -> bool:
    """A quote inside a pp-number (1'000, 0xaaaa'aaaa) is a C++14 digit
    separator, not a char literal; u8'a' and L'a' stay literals."""
    j = i
    while j > 0 and content[j - 1] in _PP_NUMBER:
        j -= 1
    return j < i and content[j] in b"0123456789"


def _at_line_start(content: bytes, i: int) -> bool:
    j = i - 1
    while j >= 0 and content[j : j + 1] in (b" ", b"\t"):
        j -= 1
    return j < 0 or content[j : j + 1] in (b"\n", b"\r")


def _suspect_raw_string(content: bytes, i: int) -> bool:
    # R"..." and its u8/u/U/L prefixed forms; flagged, not lexed specially.
    if content[i - 1 : i] != b"R":
        return False
    before = content[i - 2 : i - 1]
    if before == b"" or before[0] not in _WORD:
        return True
    return before in (b"u", b"U", b"L") or content[i - 3 : i - 1] == b"u8"


def scan(content: bytes, language: Language) -> ScanResult:
    """Tokenize ``content`` and match its braces and parens, ignoring non-code regions.

    Matching uses one combined stack: a closer pairs with the nearest
    same-class opener; openers skipped over and unmatched closers are
    reported as orphans, never silently matched. Emitted pairs are therefore
    properly nested overall, hence laminar within each delimiter class.
    """
    if language not in (Language.C_CPP, Language.JAVA):
        raise ValueError(f"cannot scan language {language!r}")
    is_c = language == Language.C_CPP  # a plain "c_cpp" str is C too
    res = ScanResult()
    texts, starts = res.token_texts, res.token_starts
    stack: list[tuple[bytes, int]] = []
    pos = 0
    # Each pass walks code tokens up to the next comment, literal or directive;
    # the next resumes at its end. A pass that reaches the end ends the scan.
    while True:
        for m in _CODE_TOKEN.finditer(content, pos):
            tok = m[0]
            i = m.start()
            if tok in _EVENTS:
                if tok in (b"{", b"("):
                    stack.append((tok, i))
                elif tok in (b"}", b")"):
                    opener = _OPENER_FOR[tok]
                    j = len(stack) - 1
                    while j >= 0 and stack[j][0] != opener:
                        j -= 1
                    if j < 0:
                        res.orphans.append((i, tok.decode()))
                    else:
                        for ch, off in stack[j + 1 :]:
                            res.orphans.append((off, ch.decode()))
                        res.pairs.append(DelimiterSpan(stack[j][1], i, opener.decode()))
                        del stack[j:]
                else:
                    end = _opaque_span(content, tok, i, is_c, res)
                    if end is not None:
                        pos = end
                        break
            texts.append(tok)
            starts.append(i)
        else:
            break
    for ch, off in stack:
        res.orphans.append((off, ch.decode()))
    res.orphans.sort()
    if res.orphans:
        listed = ", ".join(f"{off}:{ch}" for off, ch in res.orphans[:20])
        more = "" if len(res.orphans) <= 20 else f" (+{len(res.orphans) - 20} more)"
        res.diagnostics.append(f"unbalanced delimiters, orphans at {listed}{more}")
    res.pairs.sort(key=lambda s: s.open_offset)
    return res


def _opaque_span(content: bytes, tok: bytes, i: int, is_c: bool, res: ScanResult) -> int | None:
    """Record the comment, literal or directive that ``tok`` at ``i`` opens
    and return its end; a literal is also the token it makes. None when
    ``tok`` opens none: a '#' not at a C/C++ line start, a digit separator."""
    if tok == b"//":
        end, kind = _scan_line_comment(content, i + 2, splice=is_c), "line_comment"
    elif tok == b"/*":
        end, kind = _scan_block_comment(content, i + 2, res.diagnostics), "block_comment"
    elif tok == b"#":
        if not (is_c and _at_line_start(content, i)):
            return None
        end, kind = _scan_preproc(content, i, res.diagnostics), "preproc"
    elif tok == b"'" and is_c and _digit_separator(content, i):
        return None
    else:
        kind = "string" if tok == b'"' else "char"
        if kind == "string" and is_c and _suspect_raw_string(content, i):
            res.diagnostics.append(f"suspected raw string literal at byte {i}; raw strings are not lexed")
        end, unterminated = _scan_quoted(content, i + 1, _STRING_EVENT if kind == "string" else _CHAR_EVENT)
        if unterminated:
            res.diagnostics.append(f"unterminated {kind} literal at byte {i}")
        res.token_texts.append(content[i:end])
        res.token_starts.append(i)
    res.opaque.append(OpaqueSpan(i, end, kind))
    return end
