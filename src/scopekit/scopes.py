"""Scope candidates: delimiter-bounded bodies classified by token lookbehind.

A scope is the content between a matched delimiter pair. Classification
looks at a handful of tokens before the opener instead of parsing; anything
ambiguous falls to UNCLASSIFIED rather than a wrong category.
"""

from __future__ import annotations

import logging
import re
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from .ingest import FileRecord
from .jsonl import json_field, read_jsonl, row_template, write_lines
from .lexer import _WORD, ScanResult, scan

logger = logging.getLogger(__name__)

# Callee names matching any of these mark a call as logging output.
DEFAULT_LOGGING_PATTERNS = (r"(?i)(log|trace|pd_?)",)


class ScopeCategory(str, Enum):
    ELSE_BODY = "else_body"
    FOR_BODY = "for_body"
    FUNC_BODY = "func_body"
    IF_BODY = "if_body"
    LOGGING = "logging"
    FUNC_CALL = "func_call"
    UNCLASSIFIED = "unclassified"


@dataclass(frozen=True, slots=True)
class ScopeCandidate:
    """One extractable scope; offsets index the file's canonical bytes.

    start_byte is the first byte inside the opening delimiter, end_byte one
    past the last content byte (the closing delimiter sits at end_byte).
    """

    file_id: str
    category: ScopeCategory
    start_byte: int
    end_byte: int
    depth: int

    @property
    def size_bytes(self) -> int:
        return self.end_byte - self.start_byte

    @property
    def prefix_available_bytes(self) -> int:
        """Everything before the scope: start_byte."""
        return self.start_byte


# Words that introduce a type or linkage body; braces under one of these are
# member level, the braces themselves are not bodies we categorize.
_TYPE_BODY_WORDS = frozenset(b"class struct union enum interface namespace record extern new".split())
_TYPE_BODY_STOPS = frozenset(b"; { } =".split())
_BRACE_IMMEDIATE_BAIL = frozenset(b"try finally do switch".split())
_QUALIFIER_PUNCT = frozenset(b", -> :: * & : < >".split())
_CHAIN_PUNCT = frozenset(b". -> ::".split())
# Keywords that cannot head a function definition or a call.
_RESERVED_HEADS = frozenset(
    b"if for while switch catch synchronized return throw new delete sizeof alignof typeid decltype"
    b" static_assert case do else constexpr goto".split()
)
# A word directly before a callee chain normally means a declaration
# ("int foo("), except these, which introduce expressions.
_CALL_PRECEDING_WORDS = frozenset(b"return new throw delete case else do assert instanceof await yield".split())


def compile_logging_patterns(patterns) -> tuple[re.Pattern, ...]:
    """None means DEFAULT_LOGGING_PATTERNS; no patterns mean no logging category."""
    return tuple(re.compile(p) for p in (DEFAULT_LOGGING_PATTERNS if patterns is None else patterns))


class _FileContext:
    """Shared lex context for one file; a pair is named by its index in result.pairs."""

    def __init__(self, record: FileRecord, result: ScanResult):
        self.content = record.content
        self.pairs = pairs = result.pairs
        # The scanner's code tokens; a string or char literal is one token,
        # so it is never a word or a punctuator.
        self.texts, self.starts = result.token_texts, result.token_starts
        # opener[i]: the token index of pair i's opening delimiter
        self.opener = [bisect_left(self.starts, pair.open_offset) for pair in pairs]
        # Each '(' pair's _callee_chain by its ')' offset, stored as it is
        # classified: it opens before the '{' after its ')' reads it.
        self.chain_by_close: dict[int, tuple[int, int, int] | None] = {}
        n = len(pairs)
        # Pairs are properly nested and sorted by open_offset, so a parent
        # precedes its children. depth is the height of a pair's subtree.
        parent, self.brace_parent, self.depth = [-1] * n, [-1] * n, [0] * n
        stack: list[int] = []
        for i, pair in enumerate(pairs):
            while stack and pairs[stack[-1]].close_offset < pair.open_offset:
                stack.pop()
            if stack:
                p = parent[i] = stack[-1]
                self.brace_parent[i] = p if pairs[p].delimiter == "{" else self.brace_parent[p]
            stack.append(i)
        for i in reversed(range(n)):  # a pair's depth is final before its parent's
            p = parent[i]
            if p >= 0 and self.depth[p] <= self.depth[i]:
                self.depth[p] = self.depth[i] + 1

    def is_type_body(self, brace: int) -> bool:
        t = self.opener[brace]
        for text in reversed(self.texts[max(t - 16, 0) : t]):
            if text in _TYPE_BODY_WORDS:
                return True
            if text in _TYPE_BODY_STOPS:
                return False
        return False


def _member_level(i: int, ctx: _FileContext) -> bool:
    parent = ctx.brace_parent[i]
    return parent < 0 or ctx.is_type_body(parent)


def _callee_chain(ctx: _FileContext, paren: int) -> tuple[int, int, int] | None:
    """Walk the qualified name before the '(' token ``paren`` backwards: a.b->c::d.

    Returns the token indices of the head word adjacent to the paren, of the
    chain's first word, and of the token before the whole chain (-1 at the
    file's start), or None when no word abuts the paren.
    """
    texts = ctx.texts
    head = paren - 1
    if head < 0 or texts[head][0] not in _WORD:
        return None
    first, before = head, head - 1
    while before >= 0 and texts[before] in _CHAIN_PUNCT:
        if before == 0 or texts[before - 1][0] not in _WORD:
            before -= 1
            break
        first = before - 1
        before -= 2
    return head, first, before


def _callable_head(head: bytes) -> bool:
    return head not in _RESERVED_HEADS and not head[:1].isdigit()


def _classify_paren(i: int, ctx: _FileContext, patterns) -> ScopeCategory:
    walked = ctx.chain_by_close[ctx.pairs[i].close_offset] = _callee_chain(ctx, ctx.opener[i])
    if walked is None:
        return ScopeCategory.UNCLASSIFIED
    head, first, before = walked
    if not _callable_head(ctx.texts[head]):
        return ScopeCategory.UNCLASSIFIED
    if before >= 0:
        text = ctx.texts[before]
        if text[0] in _WORD and text not in _CALL_PRECEDING_WORDS:
            return ScopeCategory.UNCLASSIFIED  # declaration: "int foo("
        if text in (b"@", b"~"):
            return ScopeCategory.UNCLASSIFIED  # annotation / destructor decl
    name = ctx.content[ctx.starts[first] : ctx.starts[head] + len(ctx.texts[head])].decode("utf-8", "replace")
    for pat in patterns:
        if pat.search(name):
            return ScopeCategory.LOGGING
    return ScopeCategory.FUNC_CALL


def _classify_after_paren(i: int, rparen: int, ctx: _FileContext) -> ScopeCategory:
    walked = ctx.chain_by_close.get(ctx.starts[rparen])  # None for an orphan ')' too
    if walked is None:
        return ScopeCategory.UNCLASSIFIED
    head, _, before = walked
    text = ctx.texts[head]
    if text == b"for":
        return ScopeCategory.FOR_BODY
    if text == b"if":
        return ScopeCategory.IF_BODY
    if not _callable_head(text):
        return ScopeCategory.UNCLASSIFIED
    if before >= 0 and ctx.texts[before] == b"new":
        return ScopeCategory.UNCLASSIFIED  # anonymous class body
    if _member_level(i, ctx):
        return ScopeCategory.FUNC_BODY
    return ScopeCategory.UNCLASSIFIED


def _classify_brace(i: int, ctx: _FileContext) -> ScopeCategory:
    t = ctx.opener[i] - 1
    if t < 0:
        return ScopeCategory.UNCLASSIFIED
    if ctx.texts[t] == b"else":
        return ScopeCategory.ELSE_BODY
    if ctx.texts[t] in _BRACE_IMMEDIATE_BAIL:
        return ScopeCategory.UNCLASSIFIED
    # Walk back over trailing qualifiers (const, noexcept, throws X, -> T)
    # toward the parameter-list ')'.
    for t in range(t, max(t - 10, -1), -1):
        text = ctx.texts[t]
        if text == b")":
            return _classify_after_paren(i, t, ctx)
        if text[0] in _WORD:
            if text in _TYPE_BODY_WORDS or text in _RESERVED_HEADS:
                # type body, or an init list after return/new/case/...
                return ScopeCategory.UNCLASSIFIED
        elif text not in _QUALIFIER_PUNCT:
            return ScopeCategory.UNCLASSIFIED  # other punctuation, or a literal
    return ScopeCategory.UNCLASSIFIED


def extract_scopes(
    record: FileRecord,
    logging_patterns=None,
    *,
    diagnostics: list[str] | None = None,
) -> list[ScopeCandidate]:
    """All scope candidates of a file, nested scopes included, sorted by start.

    Per-file scan diagnostics (orphan delimiters, unterminated literals) are
    appended to ``diagnostics`` when given, otherwise logged as warnings.
    """
    patterns = compile_logging_patterns(logging_patterns)
    result = scan(record.content, record.language)
    if result.diagnostics:
        if diagnostics is not None:
            diagnostics.extend(f"{record.repo_relative_path}: {d}" for d in result.diagnostics)
        else:
            for d in result.diagnostics:
                logger.warning("%s: %s", record.repo_relative_path, d)
    ctx = _FileContext(record, result)
    out = []
    for i, pair in enumerate(result.pairs):
        if pair.delimiter == "{":
            category = _classify_brace(i, ctx)
        else:
            category = _classify_paren(i, ctx, patterns)
        out.append(ScopeCandidate(record.file_id, category, pair.open_offset + 1, pair.close_offset, ctx.depth[i]))
    return out  # pairs ascend by open_offset, so start_byte ascends and is unique


# A scopes.jsonl row: the five fields, then the two derived from the offsets.
_ROW_SCHEMA = {
    "file_id": str, "category": ScopeCategory, "start_byte": int, "end_byte": int, "depth": int,
    "size_bytes": int, "prefix_available_bytes": int,
}

_SCOPE_ROW = row_template(_ROW_SCHEMA)


def write_scopes(candidates: list[ScopeCandidate], path: str | Path) -> str:
    """Write each candidate as the JSONL row write_jsonl gives its seven keys;
    returns the sha256 hex digest of the file."""
    return write_lines(
        (
            _SCOPE_ROW % (
                json_field(c.category), c.depth, c.end_byte, json_field(c.file_id),
                c.prefix_available_bytes, c.size_bytes, c.start_byte,
            )
            for c in candidates
        ),
        path,
    )


def read_scopes(path: str | Path) -> list[ScopeCandidate]:
    """The candidates of a scopes file. Raises ValueError naming the file for
    a row whose size_bytes or prefix_available_bytes disagrees with its offsets."""
    out = []
    for d in read_jsonl(path, _ROW_SCHEMA):
        c = ScopeCandidate(d["file_id"], d["category"], d["start_byte"], d["end_byte"], d["depth"])
        if (d["size_bytes"], d["prefix_available_bytes"]) != (c.size_bytes, c.prefix_available_bytes):
            raise ValueError(
                f"{path}: scope [{c.start_byte}, {c.end_byte}) of file_id {c.file_id}: size_bytes must be"
                " end_byte - start_byte and prefix_available_bytes must be start_byte"
            )
        out.append(c)
    return out
