"""Scope candidates: delimiter-bounded bodies classified by token lookbehind.

A scope is the content between a matched delimiter pair. Classification
looks at a handful of tokens before the opener instead of parsing; anything
ambiguous falls to UNCLASSIFIED rather than a wrong category.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import get_type_hints

from .ingest import FileRecord
from .jsonl import json_field, read_jsonl, write_lines
from .lexer import DelimiterSpan, ScanResult, Token, TokenWalker, scan

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


@dataclass(frozen=True)
class ScopeCandidate:
    """One extractable scope; offsets index the file's canonical bytes.

    start_byte is the first byte inside the opening delimiter, end_byte one
    past the last content byte (the closing delimiter sits at end_byte).
    prefix_available_bytes equals start_byte: everything before the scope.
    """

    file_id: str
    category: ScopeCategory
    start_byte: int
    end_byte: int
    depth: int
    size_bytes: int
    prefix_available_bytes: int


# Words that introduce a type or linkage body; braces under one of these are
# member level, the braces themselves are not bodies we categorize.
_TYPE_BODY_WORDS = frozenset(
    {"class", "struct", "union", "enum", "interface", "namespace", "record", "extern", "new"}
)
_BRACE_IMMEDIATE_BAIL = frozenset({"try", "finally", "do", "switch"})
_QUALIFIER_PUNCT = frozenset({",", "->", "::", "*", "&", ":", "<", ">"})
# Keywords that cannot head a function definition or a call.
_RESERVED_HEADS = frozenset(
    {
        "if", "for", "while", "switch", "catch", "synchronized", "return",
        "throw", "new", "delete", "sizeof", "alignof", "typeid", "decltype",
        "static_assert", "case", "do", "else", "constexpr", "goto",
    }
)
# A word directly before a callee chain normally means a declaration
# ("int foo("), except these, which introduce expressions.
_CALL_PRECEDING_WORDS = frozenset(
    {"return", "new", "throw", "delete", "case", "else", "do", "assert", "instanceof", "await", "yield"}
)


def compile_logging_patterns(patterns) -> tuple[re.Pattern, ...]:
    return tuple(re.compile(p) for p in (patterns or DEFAULT_LOGGING_PATTERNS))


class _FileContext:
    """Shared lex context for one file; a pair is named by its index in result.pairs."""

    def __init__(self, record: FileRecord, result: ScanResult):
        self.content = record.content
        self.pairs = pairs = result.pairs
        self.walker = TokenWalker(record.content, result.opaque)
        # Each '(' pair's _callee_chain by its ')' offset, stored as it is
        # classified: it opens before the '{' after its ')' reads it.
        self.chain_by_close: dict[int, tuple[Token, int, Token | None] | None] = {}
        n = len(pairs)
        self.type_body: list[bool | None] = [None] * n
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
        verdict = self.type_body[brace]
        if verdict is not None:
            return verdict
        verdict = False
        t = self.walker.token_before(self.pairs[brace].open_offset)
        for _ in range(16):
            if t is None:
                break
            if t.kind == "word":
                if t.text in _TYPE_BODY_WORDS:
                    verdict = True
                    break
            elif t.kind == "punct" and t.text in (";", "{", "}", "="):
                break
            t = self.walker.token_before(t.start)
        self.type_body[brace] = verdict
        return verdict


def _member_level(i: int, ctx: _FileContext) -> bool:
    parent = ctx.brace_parent[i]
    return parent < 0 or ctx.is_type_body(parent)


def _callee_chain(ctx: _FileContext, open_offset: int) -> tuple[Token, int, Token | None] | None:
    """Walk the qualified name before '(' backwards: a.b->c::d.

    Returns (head word adjacent to the paren, chain start offset, token
    before the whole chain), or None when no word abuts the paren.
    """
    head = ctx.walker.token_before(open_offset)
    if head is None or head.kind != "word":
        return None
    chain_start = head.start
    before = ctx.walker.token_before(head.start)
    while before is not None and before.kind == "punct" and before.text in (".", "->", "::"):
        prev = ctx.walker.token_before(before.start)
        if prev is None or prev.kind != "word":
            before = prev
            break
        chain_start = prev.start
        before = ctx.walker.token_before(prev.start)
    return head, chain_start, before


def _identifier_like(text: str) -> bool:
    return bool(text) and not text[0].isdigit()


def _classify_paren(span: DelimiterSpan, ctx: _FileContext, patterns) -> ScopeCategory:
    walked = ctx.chain_by_close[span.close_offset] = _callee_chain(ctx, span.open_offset)
    if walked is None:
        return ScopeCategory.UNCLASSIFIED
    head, chain_start, before = walked
    if head.text in _RESERVED_HEADS or not _identifier_like(head.text):
        return ScopeCategory.UNCLASSIFIED
    if before is not None:
        if before.kind == "word" and before.text not in _CALL_PRECEDING_WORDS:
            return ScopeCategory.UNCLASSIFIED  # declaration: "int foo("
        if before.kind == "punct" and before.text in ("@", "~"):
            return ScopeCategory.UNCLASSIFIED  # annotation / destructor decl
    name = ctx.content[chain_start : head.end].decode("utf-8", "replace")
    for pat in patterns:
        if pat.search(name):
            return ScopeCategory.LOGGING
    return ScopeCategory.FUNC_CALL


def _classify_after_paren(i: int, rparen: Token, ctx: _FileContext) -> ScopeCategory:
    walked = ctx.chain_by_close.get(rparen.start)  # None for an orphan ')' too
    if walked is None:
        return ScopeCategory.UNCLASSIFIED
    head, _, before = walked
    if head.text == "for":
        return ScopeCategory.FOR_BODY
    if head.text == "if":
        return ScopeCategory.IF_BODY
    if head.text in _RESERVED_HEADS or not _identifier_like(head.text):
        return ScopeCategory.UNCLASSIFIED
    if before is not None and before.kind == "word" and before.text == "new":
        return ScopeCategory.UNCLASSIFIED  # anonymous class body
    if _member_level(i, ctx):
        return ScopeCategory.FUNC_BODY
    return ScopeCategory.UNCLASSIFIED


def _classify_brace(i: int, ctx: _FileContext) -> ScopeCategory:
    t = ctx.walker.token_before(ctx.pairs[i].open_offset)
    if t is None:
        return ScopeCategory.UNCLASSIFIED
    if t.kind == "word":
        if t.text == "else":
            return ScopeCategory.ELSE_BODY
        if t.text in _BRACE_IMMEDIATE_BAIL:
            return ScopeCategory.UNCLASSIFIED
    # Walk back over trailing qualifiers (const, noexcept, throws X, -> T)
    # toward the parameter-list ')'.
    for _ in range(10):
        if t is None:
            return ScopeCategory.UNCLASSIFIED
        if t.kind == "punct":
            if t.text == ")":
                return _classify_after_paren(i, t, ctx)
            if t.text not in _QUALIFIER_PUNCT:
                return ScopeCategory.UNCLASSIFIED
        elif t.kind == "word":
            if t.text in _TYPE_BODY_WORDS or t.text in _RESERVED_HEADS:
                # type body, or an init list after return/new/case/...
                return ScopeCategory.UNCLASSIFIED
        else:
            return ScopeCategory.UNCLASSIFIED  # string/char literal
        t = ctx.walker.token_before(t.start)
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
            category = _classify_paren(pair, ctx, patterns)
        start = pair.open_offset + 1
        end = pair.close_offset
        out.append(
            ScopeCandidate(
                file_id=record.file_id,
                category=category,
                start_byte=start,
                end_byte=end,
                depth=ctx.depth[i],
                size_bytes=end - start,
                prefix_available_bytes=start,
            )
        )
    return out  # pairs ascend by open_offset, so start_byte ascends and is unique


# A row is vars() of the dataclass: its fields are exactly the JSONL keys,
# and str-enum fields serialise as their value.
_SCOPE_FIELDS = get_type_hints(ScopeCandidate)


# write_jsonl's row for vars(candidate), keys sorted
_SCOPE_ROW = (
    b'{"category": "%s", "depth": %d, "end_byte": %d, "file_id": "%s", '
    b'"prefix_available_bytes": %d, "size_bytes": %d, "start_byte": %d}\n'
)


def write_scopes(candidates: list[ScopeCandidate], path: str | Path) -> str:
    """Write each candidate as the JSONL row write_jsonl gives vars(candidate);
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
    return [ScopeCandidate(**{k: d[k] for k in _SCOPE_FIELDS}) for d in read_jsonl(path, _SCOPE_FIELDS)]
