"""Comment- and string-aware delimiter scanning for C/C++ and Java.

The scanner never parses; it tracks lexical mode (code, line comment, block
comment, string literal, char literal, preprocessor line) so that braces and
parentheses inside literals, comments, or macro bodies cannot corrupt the
match stack. Every offset reported here is a byte offset into the scanned
content.

Scanning is event-driven: a compiled regex jumps between the few byte
positions that can change state, so cost scales with delimiter/quote/comment
density rather than raw file size.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .ingest import Language

# Events that matter in code mode. A lone '/' (division) is not an event.
_CODE_EVENT_C = re.compile(rb'[{}()"\'#]|/[*/]')
_CODE_EVENT_JAVA = re.compile(rb'[{}()"\']|/[*/]')
_STRING_EVENT = re.compile(rb'["\\\n]')
_CHAR_EVENT = re.compile(rb"['\\\n]")
_PREPROC_EVENT = re.compile(rb'[\n"\'\\]|/[*/]')

_OPENER_FOR = {b"}": b"{", b")": b"("}

# Bytes a pp-number may contain ([lex.ppnumber]); sign characters after
# e/E/p/P are left out, which only shortens the walk back.
_PP_NUMBER = frozenset(b"0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_.'")

# Identifier bytes, non-ASCII ones included; the classifier's word tokens
# are runs of this class.
WORD_CLASS = rb"[0-9A-Za-z_$\x80-\xff]"
_WORD = frozenset(b for b in range(256) if re.fullmatch(WORD_CLASS, bytes((b,))))


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


def _scan_quoted(content: bytes, pos: int, event: re.Pattern) -> tuple[int, bool]:
    """Scan a quoted literal from just after its opening quote.

    Returns (end, unterminated): end is one past the closing quote, or the
    offset of the newline/EOF that cut the literal short. Backslash escapes
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
            if content[i + 1 : i + 3] == b"\r\n":
                pos = i + 3
            else:
                pos = i + 2
            continue
        if b == b"\n":
            return i, True
        return i + 1, False  # closing quote


def _scan_line_comment(content: bytes, pos: int, splice: bool) -> int:
    """Scan to end of a line comment; ``splice`` honors backslash-newline."""
    n = len(content)
    while True:
        j = content.find(b"\n", pos)
        if j < 0:
            return n
        if splice:
            k = j - 1
            if k >= 0 and content[k : k + 1] == b"\r":
                k -= 1
            if k >= 0 and content[k : k + 1] == b"\\":
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
            if content[i + 1 : i + 3] == b"\r\n":
                pos = i + 3
            else:
                pos = i + 2
        elif b == b"\n":
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
    """Match braces and parens in ``content``, ignoring non-code regions.

    Matching uses one combined stack: a closer pairs with the nearest
    same-class opener; openers skipped over and unmatched closers are
    reported as orphans, never silently matched. Emitted pairs are therefore
    properly nested overall, hence laminar within each delimiter class.
    """
    if language not in (Language.C_CPP, Language.JAVA):
        raise ValueError(f"cannot scan language {language!r}")
    is_c = language == Language.C_CPP  # a plain "c_cpp" str is C too
    event = _CODE_EVENT_C if is_c else _CODE_EVENT_JAVA
    res = ScanResult()
    stack: list[tuple[bytes, int]] = []
    pos = 0
    n = len(content)
    while pos < n:
        m = event.search(content, pos)
        if m is None:
            break
        i = m.start()
        tok = m.group()
        if tok in (b"{", b"("):
            stack.append((tok, i))
            pos = i + 1
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
            pos = i + 1
        elif tok == b'"':
            if is_c and _suspect_raw_string(content, i):
                res.diagnostics.append(
                    f"suspected raw string literal at byte {i}; raw strings are not lexed"
                )
            end, unterminated = _scan_quoted(content, i + 1, _STRING_EVENT)
            if unterminated:
                res.diagnostics.append(f"unterminated string literal at byte {i}")
            res.opaque.append(OpaqueSpan(i, end, "string"))
            pos = end
        elif tok == b"'":
            if is_c and _digit_separator(content, i):
                pos = i + 1
                continue
            end, unterminated = _scan_quoted(content, i + 1, _CHAR_EVENT)
            if unterminated:
                res.diagnostics.append(f"unterminated char literal at byte {i}")
            res.opaque.append(OpaqueSpan(i, end, "char"))
            pos = end
        elif tok == b"//":
            end = _scan_line_comment(content, i + 2, splice=is_c)
            res.opaque.append(OpaqueSpan(i, end, "line_comment"))
            pos = end
        elif tok == b"/*":
            end = _scan_block_comment(content, i + 2, res.diagnostics)
            res.opaque.append(OpaqueSpan(i, end, "block_comment"))
            pos = end
        else:  # b'#', C/C++ only
            if _at_line_start(content, i):
                end = _scan_preproc(content, i, res.diagnostics)
                res.opaque.append(OpaqueSpan(i, end, "preproc"))
                pos = end
            else:
                pos = i + 1
    for ch, off in stack:
        res.orphans.append((off, ch.decode()))
    res.orphans.sort()
    if res.orphans:
        listed = ", ".join(f"{off}:{ch}" for off, ch in res.orphans[:20])
        more = "" if len(res.orphans) <= 20 else f" (+{len(res.orphans) - 20} more)"
        res.diagnostics.append(f"unbalanced delimiters, orphans at {listed}{more}")
    res.pairs.sort(key=lambda s: s.open_offset)
    return res
