"""Completion pairs: query prefixes and scope labels for training and eval.

A pair partitions a file at a byte offset: everything before (capped) is
the query, the rest of the scope plus an end-of-text sentinel is the label.
Partition points are snapped forward to UTF-8 boundaries so the JSONL
strings stay decodable; offsets remain byte offsets into canonical content.

A pair holds the bytes it was cut from and its offsets into them, and
decodes its query and label on demand. The pairs of a file share its bytes,
so the embedder and the leak scan take shared text from the offsets.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import logging
import random
import re
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime, timezone
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence, TypeVar

from .errors import InvalidConfigError
from .ingest import FileRecord
from .jsonl import json_field, json_string, read_jsonl, row_template, write_jsonl, write_lines
from .scopes import ScopeCandidate, ScopeCategory

logger = logging.getLogger(__name__)

DEFAULT_EOT_TOKEN = "<|endoftext|>"

MATCH_EXACT_LABEL = "exact-label"
MATCH_SUBSTRING = "label-substring-of-train-file"


class PairKind(str, Enum):
    PRIMARY = "primary"
    RANDOM_START = "random_start"


@dataclass(frozen=True)
class FilterConfig:
    """Bounds every emitted pair must satisfy; sizes are bytes."""

    min_scope_bytes: int = 50
    max_scope_bytes: int = 1000
    min_prefix_bytes: int = 200
    max_prefix_bytes: int = 3072
    max_depth: int | None = None
    category_allowlist: frozenset[ScopeCategory] | None = None
    exclude_keywords: tuple[str, ...] = ()
    modified_after: str | None = None  # ISO-8601; None means no time filter

    def validate(self) -> None:
        problems = []
        if self.min_scope_bytes < 0:
            problems.append("min_scope_bytes must be >= 0")
        if self.max_scope_bytes < self.min_scope_bytes:
            problems.append("max_scope_bytes must be >= min_scope_bytes")
        if self.min_prefix_bytes < 0:
            problems.append("min_prefix_bytes must be >= 0")
        if self.max_prefix_bytes < self.min_prefix_bytes:
            problems.append("max_prefix_bytes must be >= min_prefix_bytes")
        if self.max_depth is not None and self.max_depth < 0:
            problems.append("max_depth must be >= 0 when set")
        if self.modified_after is not None:
            try:
                datetime.fromisoformat(self.modified_after)
            except ValueError:
                problems.append(f"modified_after is not ISO-8601: {self.modified_after!r}")
        if problems:
            raise InvalidConfigError(problems)


class Span(NamedTuple):
    """The bytes ``content[start:stop]`` of a content that spans share."""

    content: bytes
    start: int
    stop: int

    def text(self) -> str:
        return self.content[self.start : self.stop].decode("utf-8")


def merged_runs(spans: Sequence[Span], max_bytes: int | None = None) -> Iterator[tuple[Span, list[int]]]:
    """The spans as runs of consecutive spans: (the run, the indices of its
    spans). A span joins the run before it when it holds the same content
    object, starts inside the run and keeps it within ``max_bytes``. Spans
    in file order, as split_pairs and read_pairs give them, merge the
    most. Empty spans are left out."""
    content, start, stop, run = None, 0, 0, []
    for i, span in enumerate(spans):
        if span.stop <= span.start:
            continue
        if span.content is content and start <= span.start < stop and (
            max_bytes is None or max(stop, span.stop) - start <= max_bytes
        ):
            stop = max(stop, span.stop)
            run.append(i)
            continue
        if run:
            yield Span(content, start, stop), run
        content, start, stop, run = span.content, span.start, span.stop, [i]
    if run:
        yield Span(content, start, stop), run


@dataclass(frozen=True, slots=True)
class CompletionPair:
    """The query ``content[query_start:part]`` and the label
    ``content[part:label_end]`` + eot_token. ``content`` is the file the pair
    was cut from, which its pairs share, or the bytes its JSONL rows cover
    (read_pairs)."""

    pair_id: str
    kind: PairKind
    start_shift_bytes: int
    category: ScopeCategory
    file_id: str
    scope_start_byte: int
    eot_token: str
    content: bytes = field(repr=False)
    query_start: int
    part: int
    label_end: int

    @property
    def query_span(self) -> Span:
        return Span(self.content, self.query_start, self.part)

    @property
    def query(self) -> str:
        return self.query_span.text()

    @property
    def mask_len(self) -> int:
        """The character length of query; completion starts here."""
        return len(self.query)

    def label_without_eot(self) -> str:
        """The scope text, with its closing delimiter if configured."""
        return Span(self.content, self.part, self.label_end).text()

    @property
    def label(self) -> str:
        return self.label_without_eot() + self.eot_token


def apply_filters(
    candidates: Iterable[ScopeCandidate],
    cfg: FilterConfig,
    records: Mapping[str, FileRecord],
) -> list[ScopeCandidate]:
    """Keep candidates satisfying every configured bound.

    ``records`` maps file_id to its FileRecord; needed for the keyword and
    modified-after filters (both no-ops by default).
    """
    cfg.validate()
    keywords = [k.encode("utf-8") for k in cfg.exclude_keywords]
    cutoff = (
        datetime.fromisoformat(cfg.modified_after) if cfg.modified_after is not None else None
    )
    if cutoff is not None and cutoff.tzinfo is None:
        cutoff = cutoff.replace(tzinfo=timezone.utc)  # ingest stamps modified_at in UTC
    kept = []
    for cand in candidates:
        if not (cfg.min_scope_bytes <= cand.size_bytes <= cfg.max_scope_bytes):
            continue
        if cand.prefix_available_bytes < cfg.min_prefix_bytes:
            continue
        if cfg.max_depth is not None and cand.depth > cfg.max_depth:
            continue
        if cfg.category_allowlist is not None and cand.category not in cfg.category_allowlist:
            continue
        if keywords or cutoff is not None:
            rec = records[cand.file_id]
            if cutoff is not None and datetime.fromisoformat(rec.modified_at) < cutoff:
                continue
            if keywords:
                text = rec.content[cand.start_byte : cand.end_byte]
                if any(kw in text for kw in keywords):
                    continue
        kept.append(cand)
    return kept


def _is_continuation(byte: int) -> bool:
    return (byte & 0xC0) == 0x80


def _snap_forward(content: bytes, pos: int, limit: int) -> int:
    while pos < limit and _is_continuation(content[pos]):
        pos += 1
    return pos


def _pair_id(file_id: str, start: int, end: int, kind: PairKind, shift: int) -> str:
    raw = f"{file_id}|{start}|{end}|{kind.value}|{shift}".encode()
    return hashlib.sha256(raw).hexdigest()[:32]


def _build_pair(
    candidate: ScopeCandidate,
    content: bytes,
    cfg: FilterConfig,
    eot_token: str,
    kind: PairKind,
    shift: int,
    include_closer: bool,
) -> CompletionPair:
    part = candidate.start_byte + shift
    return CompletionPair(
        pair_id=_pair_id(candidate.file_id, candidate.start_byte, candidate.end_byte, kind, shift),
        kind=kind,
        start_shift_bytes=shift,
        category=candidate.category,
        file_id=candidate.file_id,
        scope_start_byte=candidate.start_byte,
        eot_token=eot_token,
        content=content,
        query_start=_snap_forward(content, max(0, part - cfg.max_prefix_bytes), part),
        part=part,
        label_end=candidate.end_byte + (1 if include_closer else 0),
    )


def make_primary_pair(
    candidate: ScopeCandidate,
    content: bytes,
    cfg: FilterConfig,
    eot_token: str = DEFAULT_EOT_TOKEN,
    *,
    include_closer: bool = True,
) -> CompletionPair:
    """The pair whose query ends exactly at the scope's opening delimiter."""
    return _build_pair(candidate, content, cfg, eot_token, PairKind.PRIMARY, 0, include_closer)


def _derived_rng(seed: int, file_id: str, scope_start: int) -> random.Random:
    digest = hashlib.sha256(f"{seed}|{file_id}|{scope_start}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _snap_shift(content: bytes, start: int, size: int, s: int) -> int | None:
    """Clamp a raw shift onto a UTF-8 boundary within [1, size-1]."""
    up = _snap_forward(content, start + s, start + size) - start
    if 1 <= up <= size - 1:
        return up
    down = s
    while down >= 1 and _is_continuation(content[start + down]):
        down -= 1
    if 1 <= down <= size - 1:
        return down
    return None


def make_random_start_pairs(
    candidate: ScopeCandidate,
    content: bytes,
    cfg: FilterConfig,
    eot_token: str = DEFAULT_EOT_TOKEN,
    *,
    k: int = 1,
    seed: int = 0,
    include_closer: bool = True,
) -> list[CompletionPair]:
    """Up to k pairs whose query absorbs the first s bytes of the scope.

    Shifts are drawn uniformly from {1..size-1} by a generator derived from
    (seed, file_id, scope_start_byte), so output is reproducible regardless
    of processing order. The pairs come by ascending shift; duplicate shifts
    are dropped, so fewer than k pairs may come back; scopes under 2 bytes
    yield none.
    """
    if k <= 0:
        return []
    size = candidate.size_bytes
    if size < 2:
        logger.warning(
            "degenerate scope at %s:%d (size %d); no random-start pairs",
            candidate.file_id[:12],
            candidate.start_byte,
            size,
        )
        return []
    rng = _derived_rng(seed, candidate.file_id, candidate.start_byte)
    shifts = {_snap_shift(content, candidate.start_byte, size, rng.randrange(1, size)) for _ in range(k)}
    shifts.discard(None)
    return [
        _build_pair(candidate, content, cfg, eot_token, PairKind.RANDOM_START, s, include_closer)
        for s in sorted(shifts)
    ]


def holdout_path(path: str) -> str:
    """A listed holdout path as the manifest writes paths: "/" separators,
    no leading "./"."""
    path = path.replace("\\", "/")
    while path.startswith("./"):
        path = path[2:]
    return path


HasFileId = TypeVar("HasFileId")  # anything with a file_id: a FileRecord, a pair


def exclude_holdout(
    items: Iterable[HasFileId],
    holdout_paths: Iterable[str],
    path_by_file_id: Mapping[str, str],
) -> list[HasFileId]:
    """Drop every item whose file_id is a holdout file's (whole-file
    exclusion): pipeline.split_pairs gives it the FileRecords to pair."""
    wanted = {holdout_path(p) for p in holdout_paths}
    known = set(path_by_file_id.values())
    for p in sorted(wanted - known):
        logger.warning("holdout path matches no ingested file: %s", p)
    held_ids = {fid for fid, path in path_by_file_id.items() if path in wanted}
    return [item for item in items if item.file_id not in held_ids]


@dataclass(frozen=True)
class LeakageFinding:
    test_pair_id: str
    training_pair_id: str
    match_kind: str  # MATCH_EXACT_LABEL or MATCH_SUBSTRING


@dataclass
class LeakageReport:
    findings: list[LeakageFinding] = field(default_factory=list)


def write_leakage_report(report: LeakageReport, path: str | Path) -> str:
    return write_jsonl(map(vars, report.findings), path)


def _normalized(text: str, eot_token: str | None) -> str:
    if eot_token and text.endswith(eot_token):
        text = text[: -len(eot_token)]
    return text.replace("\r\n", "\n") if "\r" in text else text


def _utf8(text: str) -> bytes:
    # UTF-8 is self-synchronizing, so byte matches are exactly the text
    # matches; surrogatepass lets a lone surrogate through as its 3 bytes
    return text.encode("utf-8", "surrogatepass")


def leakage_scan(
    train_pairs: Iterable[CompletionPair],
    test_labels: Iterable[tuple[str, str]],
    eot_token: str | None = DEFAULT_EOT_TOKEN,
) -> LeakageReport:
    """Report test labels appearing verbatim inside the training set.

    A finding is raised per (test label, training pair) where the normalized
    test label equals the training label, or occurs as a substring of the
    training label or query. Comparison strips the eot token and normalizes
    CRLF to LF on both sides. Findings come in test order, then train order.

    The haystack is the bytes the train pairs cover: each pair's query and
    label body, a span of its content, merged with the consecutive spans
    that overlap it into runs (merged_runs), each run followed by NUL. A
    pair whose span holds a CR is a run of its own normalized query + label
    instead. Each test label is one walk of the haystack: in each run it
    occurs in, every pair of the run is checked at its own query and label
    offsets, and the walk goes on at the next run, so it meets the pairs in
    train order. Pairs in file order give the shortest haystack.
    """
    train = list(train_pairs)
    spans, query_ends = [], []  # per pair: its query + label body, where its query ends
    for p in train:
        if p.content.find(b"\r", p.query_start, p.label_end) < 0:
            spans.append(Span(p.content, p.query_start, p.label_end))
            query_ends.append(p.part)
        else:
            query = _utf8(_normalized(p.query, None))
            text = query + _utf8(_normalized(p.label, p.eot_token))
            spans.append(Span(text, 0, len(text)))
            query_ends.append(len(query))
    haystack = bytearray()
    starts, members = [], []  # members[r]: (pair, query at, label at, label end) in haystack offsets
    for run, ks in merged_runs(spans):
        shift = len(haystack) - run.start
        starts.append(len(haystack))
        members.append([(k, shift + spans[k].start, shift + query_ends[k], shift + spans[k].stop) for k in ks])
        haystack += memoryview(run.content)[run.start : run.stop]
        haystack.append(0)
    report = LeakageReport()
    for test_id, raw_label in test_labels:
        needle = _utf8(_normalized(raw_label, eot_token))
        if not needle:
            logger.warning("empty test label %s skipped in leakage scan", test_id)
            continue
        hits = []
        i = haystack.find(needle)
        while i >= 0:
            r = bisect.bisect_right(starts, i) - 1
            for k, query_at, label_at, end in members[r]:
                if end - label_at == len(needle) and haystack.startswith(needle, label_at):
                    hits.append((k, MATCH_EXACT_LABEL))
                elif haystack.find(needle, label_at, end) >= 0 or haystack.find(needle, query_at, label_at) >= 0:
                    hits.append((k, MATCH_SUBSTRING))
            i = haystack.find(needle, starts[r + 1]) if r + 1 < len(starts) else -1
        report.findings += (LeakageFinding(test_id, train[k].pair_id, kind) for k, kind in hits)
    return report


# A pair's JSONL row: its public fields, str-enum fields as their value
_ROW_SCHEMA = {
    "category": ScopeCategory, "eot_token": str, "file_id": str, "kind": PairKind, "label": str,
    "mask_len": int, "pair_id": str, "query": str, "scope_start_byte": int, "start_shift_bytes": int,
}

_PAIR_ROW = row_template(_ROW_SCHEMA)

# JSON escapes '"', '\\' and the controls below 0x20 (RFC 8259 §7): all ASCII
# bytes, each growing by 1 (\n, \") or 5 (\u0001) bytes. A byte from 0x80
# up is part of a multi-byte character, which stays raw.
_ESCAPED_BYTE = re.compile(rb'[\x00-\x1f"\\]')
_GROWTH = bytes(len(json_string(chr(b))) - 1 for b in range(128))


def _pair_rows(pairs: Iterable[CompletionPair]) -> Iterator[bytes]:
    # Escaping is context-free per code point and touches only ASCII bytes,
    # so the escaped content[a:b] (a, b on character boundaries) is the
    # escaped content between the images of a and b.
    content = None
    for p in pairs:
        if p.content is not content:
            content = p.content
            escaped = json_string(content.decode("utf-8"))
            at = [m.start() for m in _ESCAPED_BYTE.finditer(content)]
            # grown[k]: how much the first k escaped bytes grew
            grown = list(itertools.accumulate((_GROWTH[content[i]] for i in at), initial=0))
        query, part, end = (o + grown[bisect.bisect_left(at, o)] for o in (p.query_start, p.part, p.label_end))
        yield _PAIR_ROW % (
            json_field(p.category), json_field(p.eot_token), json_field(p.file_id), json_field(p.kind),
            escaped[part:end] + json_field(p.eot_token), p.mask_len, json_string(p.pair_id),
            escaped[query:part], p.scope_start_byte, p.start_shift_bytes,
        )


def write_pairs(pairs: Iterable[CompletionPair], path: str | Path) -> str:
    """Write the pairs as JSONL rows, keys sorted as write_jsonl sorts them;
    returns the sha256 hex digest of the file.

    Each content is escaped once for the run of pairs that hold it, and each
    pair's query and label (the eot token aside) is written as a slice of
    that.
    """
    return write_lines(_pair_rows(pairs), path)


def pairs_from_rows(rows: Iterable[dict], where: str = "") -> list[CompletionPair]:
    """Pairs from their JSONL rows (checked against _ROW_SCHEMA), in order.

    A row's query and label body are the bytes of its file from part -
    (query bytes) to part + (label body bytes), part = scope_start_byte +
    start_shift_bytes. One pass holds only the current run: consecutive
    rows of one file_id, each starting inside the bytes of those before it.
    They share one content where their bytes agree; a row that disagrees
    gets its own. Raises ValueError, prefixed with ``where``, for a row
    whose label does not end with its eot_token or whose mask_len is not
    the query's length.
    """
    pairs: list[CompletionPair] = []
    run: list[tuple] = []  # the current run's rows: (row, own content or None, offset, query bytes, bytes)
    block = bytearray()  # the bytes the run's agreeing rows cover, from offset ``start`` of file ``file_id``
    file_id, start = None, 0

    def close_run() -> None:
        content = bytes(block)
        pairs.extend(
            CompletionPair(
                d["pair_id"], d["kind"], d["start_shift_bytes"], d["category"], d["file_id"], d["scope_start_byte"],
                d["eot_token"], content if own is None else own, off, off + qlen, off + size,
            )
            for d, own, off, qlen, size in run
        )

    for d in rows:
        label, eot = d["label"], d["eot_token"]
        if not label.endswith(eot):
            raise ValueError(f"{where}pair {d['pair_id']}: label does not end with its eot_token {eot!r}")
        if d["mask_len"] != len(d["query"]):
            raise ValueError(f"{where}pair {d['pair_id']}: mask_len {d['mask_len']} is not the query's length")
        query, body = d["query"].encode(), label[: len(label) - len(eot)].encode()
        text = query + body
        off = d["scope_start_byte"] + d["start_shift_bytes"] - len(query) - start
        if d["file_id"] == file_id and 0 <= off < len(block):
            if block[off : off + len(text)] == text[: len(block) - off]:
                block += text[len(block) - off :]
                run.append((d, None, off, len(query), len(text)))
            else:
                run.append((d, text, 0, len(query), len(text)))
            continue
        close_run()
        run, block, file_id, start = [(d, None, 0, len(query), len(text))], bytearray(text), d["file_id"], start + off
    close_run()
    return pairs


def read_pairs(path: str | Path) -> list[CompletionPair]:
    return pairs_from_rows(read_jsonl(path, _ROW_SCHEMA), f"{path}: ")


def dataset_card(
    counts: Mapping[tuple[ScopeCategory, PairKind], int], cfg: FilterConfig, extra: dict | None = None
) -> dict:
    """Counts per (category, kind), as pipeline.counted gathers them, plus
    the filter config that produced them."""
    by_category: Counter[str] = Counter()
    by_kind: Counter[str] = Counter()
    for (category, kind), n in counts.items():
        by_category[category.value] += n
        by_kind[kind.value] += n
    card = {
        "total_pairs": sum(counts.values()),
        "by_category": dict(sorted(by_category.items())),
        "by_kind": dict(sorted(by_kind.items())),
        "filters": {
            **vars(cfg),
            "category_allowlist": sorted(c.value for c in cfg.category_allowlist)
            if cfg.category_allowlist is not None
            else None,
            "exclude_keywords": list(cfg.exclude_keywords),
        },
    }
    if extra:
        card.update(extra)
    return card


def check_pair_bounds(
    records: Iterable[dict], cfg: FilterConfig, *, include_closer: bool = True
) -> list[str]:
    """Post-hoc audit of a training JSONL against its filter bounds.

    Works from the serialized records alone: byte lengths are recomputed by
    encoding, scope size reconstructed from label + shift, prefix
    availability from scope_start_byte. Returns one message per violation.
    """
    problems = []
    closer = 1 if include_closer else 0
    for i, d in enumerate(records):
        where = f"record {i} (pair_id {d.get('pair_id', '?')})"
        eot = d["eot_token"]
        label = d["label"]
        if not label.endswith(eot):
            problems.append(f"{where}: label does not end with eot_token")
            continue
        body = label[: len(label) - len(eot)]
        scope_bytes = len(body.encode("utf-8")) - closer + d["start_shift_bytes"]
        if not (cfg.min_scope_bytes <= scope_bytes <= cfg.max_scope_bytes):
            problems.append(f"{where}: scope size {scope_bytes} outside bounds")
        if d["scope_start_byte"] < cfg.min_prefix_bytes:
            problems.append(
                f"{where}: prefix available {d['scope_start_byte']} < {cfg.min_prefix_bytes}"
            )
        qbytes = len(d["query"].encode("utf-8"))
        if qbytes > cfg.max_prefix_bytes:
            problems.append(f"{where}: query {qbytes} bytes > {cfg.max_prefix_bytes}")
        if d["kind"] == PairKind.PRIMARY.value and qbytes < min(
            cfg.min_prefix_bytes, d["scope_start_byte"]
        ):
            problems.append(f"{where}: primary query {qbytes} bytes < minimum prefix")
    return problems


def check_contiguity(records: Iterable[dict], content_by_file_id: Mapping[str, bytes]) -> list[str]:
    """Verify query ++ label-minus-eot is a verbatim slice of its source file."""
    problems = []
    for i, d in enumerate(records):
        where = f"record {i} (pair_id {d.get('pair_id', '?')})"
        content = content_by_file_id.get(d["file_id"])
        if content is None:
            problems.append(f"{where}: unknown file_id")
            continue
        eot = d["eot_token"]
        label = d["label"]
        body = label[: len(label) - len(eot)] if label.endswith(eot) else label
        qb = d["query"].encode("utf-8")
        lb = body.encode("utf-8")
        part = d["scope_start_byte"] + d["start_shift_bytes"]
        if content[part - len(qb) : part + len(lb)] != qb + lb:
            problems.append(f"{where}: not a contiguous slice at byte {part}")
    return problems
