"""Completion pairs: query prefixes and scope labels for training and eval.

A pair partitions a file at a byte offset: everything before (capped) is
the query, the rest of the scope plus an end-of-text sentinel is the label.
Partition points are snapped forward to UTF-8 boundaries so the JSONL
strings stay decodable; offsets remain byte offsets into canonical content.
"""

from __future__ import annotations

import bisect
import hashlib
import logging
import random
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime, timezone
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple, get_type_hints

from .errors import InvalidConfigError
from .ingest import FileRecord
from .jsonl import EscapedUTF8, json_field, json_string, read_jsonl, write_jsonl, write_lines
from .overlap import chain_runs
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


@dataclass(frozen=True)
class CompletionPair:
    pair_id: str
    query: str
    label: str  # scope text (+ closing delimiter if configured) + eot_token
    mask_len: int  # character length of query; completion starts here
    kind: PairKind
    start_shift_bytes: int
    category: ScopeCategory
    file_id: str
    scope_start_byte: int
    eot_token: str

    def label_without_eot(self) -> str:
        if self.eot_token and self.label.endswith(self.eot_token):
            return self.label[: -len(self.eot_token)]
        return self.label


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
    qstart = max(0, part - cfg.max_prefix_bytes)
    qstart = _snap_forward(content, qstart, part)
    query = content[qstart:part].decode("utf-8")
    label_end = candidate.end_byte + (1 if include_closer else 0)
    label = content[part:label_end].decode("utf-8") + eot_token
    return CompletionPair(
        pair_id=_pair_id(candidate.file_id, candidate.start_byte, candidate.end_byte, kind, shift),
        query=query,
        label=label,
        mask_len=len(query),
        kind=kind,
        start_shift_bytes=shift,
        category=candidate.category,
        file_id=candidate.file_id,
        scope_start_byte=candidate.start_byte,
        eot_token=eot_token,
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
    up = s
    while up <= size - 1 and _is_continuation(content[start + up]):
        up += 1
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
    of processing order. Duplicate shifts are dropped, so fewer than k pairs
    may come back; scopes under 2 bytes yield none.
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
    shifts = []
    seen = set()
    for _ in range(k):
        s = _snap_shift(content, candidate.start_byte, size, rng.randrange(1, size))
        if s is None or s in seen:
            continue
        seen.add(s)
        shifts.append(s)
    return [
        _build_pair(candidate, content, cfg, eot_token, PairKind.RANDOM_START, s, include_closer)
        for s in shifts
    ]


def exclude_holdout(
    pairs: Iterable[CompletionPair],
    holdout_paths: Iterable[str],
    path_by_file_id: Mapping[str, str],
) -> list[CompletionPair]:
    """Drop every pair originating from a holdout file (whole-file exclusion)."""

    def norm(p: str) -> str:
        p = p.replace("\\", "/")
        while p.startswith("./"):
            p = p[2:]
        return p

    wanted = {norm(p) for p in holdout_paths}
    known = set(path_by_file_id.values())
    for p in sorted(wanted - known):
        logger.warning("holdout path matches no ingested file: %s", p)
    held_ids = {fid for fid, path in path_by_file_id.items() if path in wanted}
    return [p for p in pairs if p.file_id not in held_ids]


@dataclass(frozen=True)
class LeakageFinding:
    test_pair_id: str
    training_pair_id: str
    match_kind: str  # MATCH_EXACT_LABEL or MATCH_SUBSTRING


@dataclass
class LeakageReport:
    findings: list[LeakageFinding] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.findings


def write_leakage_report(report: LeakageReport, path: str | Path) -> None:
    write_jsonl(map(vars, report.findings), path)


def _normalized(text: str, eot_token: str | None) -> str:
    if eot_token and text.endswith(eot_token):
        text = text[: -len(eot_token)]
    return text.replace("\r\n", "\n") if "\r" in text else text


def _utf8(text: str) -> bytes:
    # UTF-8 is self-synchronizing, so byte matches are exactly the text
    # matches; surrogatepass lets a lone surrogate through as its 3 bytes
    return text.encode("utf-8", "surrogatepass")


def _query_label_texts(train: list[CompletionPair]) -> Iterator[tuple[tuple[int, int], bytes]]:
    """((k, query byte length), normalized query + label bytes) of each train pair k."""
    for k, p in enumerate(train):
        query = _utf8(_normalized(p.query, None))
        yield (k, len(query)), query + _utf8(_normalized(p.label, p.eot_token))


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

    Each train pair's normalized query + label is chained into runs of
    overlapping text (overlap.chain_runs), so both are slices of one run
    and the train text is held about once. Each test label is one walk of
    the NUL-joined runs: in each run it occurs in, every pair of the run is
    checked against its own query and label, and the walk goes on at the
    next run.
    """
    train = list(train_pairs)
    haystack = bytearray()  # each run, then NUL
    starts, members = [], []  # members[r]: (pair, query at, label at, label end) in haystack offsets
    for run, spans in chain_runs(_query_label_texts(train)):
        off = len(haystack)
        starts.append(off)
        members.append([(k, off + at, off + at + qlen, off + at + length) for (k, qlen), at, length in spans])
        haystack += run
        haystack.append(0)
    report = LeakageReport()
    for test_id, raw_label in test_labels:
        needle = _utf8(_normalized(raw_label, eot_token))
        if not needle:
            logger.warning("empty test label %s skipped in leakage scan", test_id)
            continue
        i = haystack.find(needle)
        while i >= 0:
            r = bisect.bisect_right(starts, i) - 1
            for k, query_at, label_at, end in members[r]:
                if end - label_at == len(needle) and haystack.startswith(needle, label_at):
                    kind = MATCH_EXACT_LABEL
                elif haystack.find(needle, label_at, end) >= 0 or haystack.find(needle, query_at, label_at) >= 0:
                    kind = MATCH_SUBSTRING
                else:
                    continue
                report.findings.append(LeakageFinding(test_id, train[k].pair_id, kind))
            i = haystack.find(needle, starts[r + 1]) if r + 1 < len(starts) else -1
    return report


def pairs_sort_key(pair: CompletionPair):
    return (pair.file_id, pair.scope_start_byte, pair.kind.value, pair.start_shift_bytes)


# A row is vars() of the dataclass: its fields are exactly the JSONL keys,
# and str-enum fields serialise as their value.
_PAIR_FIELDS = get_type_hints(CompletionPair)

# write_jsonl's row for vars(pair): keys sorted, the two long strings (label,
# query) given already escaped
_PAIR_ROW = (
    b'{"category": "%s", "eot_token": "%s", "file_id": "%s", "kind": "%s", "label": "%s", '
    b'"mask_len": %d, "pair_id": "%s", "query": "%s", "scope_start_byte": %d, "start_shift_bytes": %d}\n'
)


class FilePairs(NamedTuple):
    """One file's pairs, in order, with the content they were cut from."""

    content: bytes
    pairs: list[CompletionPair]


def _utf8_len(text: str) -> int:
    return len(text) if text.isascii() else len(text.encode("utf-8"))


def _pair_rows(files: Iterable[FilePairs]) -> Iterator[bytes]:
    for content, pairs in files:
        escaped = EscapedUTF8(content)
        for p in pairs:
            part = p.scope_start_byte + p.start_shift_bytes
            label_end = part + _utf8_len(p.label) - _utf8_len(p.eot_token)
            yield _PAIR_ROW % (
                json_field(p.category), json_field(p.eot_token), json_field(p.file_id), json_field(p.kind),
                escaped.slice(part, label_end) + json_field(p.eot_token), p.mask_len, json_string(p.pair_id),
                escaped.slice(part - _utf8_len(p.query), part), p.scope_start_byte, p.start_shift_bytes,
            )


def write_pairs(files: Iterable[FilePairs], path: str | Path) -> str:
    """Write each file's pairs as the JSONL rows write_jsonl gives
    vars(pair); returns the sha256 hex digest of the file.

    Each file's content is escaped once, and each of its pairs' query and
    label (the eot token aside) is written as a slice of that: the pairs
    must have been cut from that content.
    """
    return write_lines(_pair_rows(files), path)


def read_pairs(path: str | Path) -> list[CompletionPair]:
    return [CompletionPair(**{k: d[k] for k in _PAIR_FIELDS}) for d in read_jsonl(path, _PAIR_FIELDS)]


def count_pairs(pairs: Iterable[CompletionPair]) -> Counter[tuple[ScopeCategory, PairKind]]:
    """How many pairs there are of each (category, kind)."""
    return Counter((p.category, p.kind) for p in pairs)


def dataset_card(
    counts: Mapping[tuple[ScopeCategory, PairKind], int], cfg: FilterConfig, extra: dict | None = None
) -> dict:
    """Counts (from count_pairs) per category and kind plus the filter config
    that produced them."""
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
        body = label[: -len(eot)]
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
        body = label[: -len(eot)] if label.endswith(eot) else label
        qb = d["query"].encode("utf-8")
        lb = body.encode("utf-8")
        part = d["scope_start_byte"] + d["start_shift_bytes"]
        if content[part - len(qb) : part + len(lb)] != qb + lb:
            problems.append(f"{where}: not a contiguous slice at byte {part}")
    return problems
