"""Runs of overlapping texts: each text's bytes as a verified slice of one run.

Pair queries and labels are windows of their files, and neighbouring pairs
of a file overlap, so a pass over each run touches their shared bytes once.
A text continues the run of the text before it when its first _HEAD_BYTES
occur in that text at a place from which the run's bytes agree with it; at
most _MAX_CANDIDATES such places are tried, each checked with startswith.
A run stops growing at _MAX_RUN_BYTES, which keeps a run's temporaries
cache-sized.
"""

from __future__ import annotations

from typing import Iterable, Iterator, TypeVar

_HEAD_BYTES = 32
_MAX_CANDIDATES = 16
_MAX_RUN_BYTES = 1 << 16

K = TypeVar("K")


def _offset_in_run(data: bytes, run: bytearray, prev: bytes, prev_at: int) -> int:
    """An offset in ``run`` from which its bytes agree with ``data`` for as
    far as both go, found in ``prev``, the run's last text, at ``prev_at``;
    -1 if there is none or ``data`` would grow the run past its cap."""
    head = data[:_HEAD_BYTES]
    found = prev.find(head)
    for _ in range(_MAX_CANDIDATES):
        at = prev_at + found
        if found < 0 or at + len(data) > _MAX_RUN_BYTES:
            return -1
        if data.startswith(run[at : at + len(data)]):
            return at
        found = prev.find(head, found + 1)
    return -1


def chain_runs(items: Iterable[tuple[K, bytes]]) -> Iterator[tuple[bytearray, list[tuple[K, int, int]]]]:
    """The (key, bytes) items as runs of overlapping texts, in item order:
    (run bytes, [(key, offset in run, byte length)]); ``run[offset : offset
    + length]`` is the item's bytes. Empty items are left out."""
    run = bytearray()
    spans: list[tuple[K, int, int]] = []
    prev, prev_at = b"", 0
    for key, data in items:
        if not data:
            continue
        at = _offset_in_run(data, run, prev, prev_at)
        if at < 0:
            if spans:
                yield run, spans
            run, spans, at = bytearray(), [], 0
        run += data[len(run) - at :]
        spans.append((key, at, len(data)))
        prev, prev_at = data, at
    if spans:
        yield run, spans
