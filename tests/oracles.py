"""Independent reference implementations used only by tests.

These deliberately avoid the package's algorithms: the distance oracles
are the textbook recursion and the full O(n*m) DP table, the knn oracle a
brute-force sort, the leak-scan oracle a compare of every pair, the
delimiter oracle a naive stack walk, the token oracle a walk back from
one offset at a time, the embedding oracle one text's n-grams hashed one
at a time on Python ints. Slow is fine; agreeing with production code by
construction is not.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np


def oracle_levenshtein(a: str, b: str) -> int:
    """Unit-cost edit distance straight from the recursive definition."""

    @lru_cache(maxsize=None)
    def d(i: int, j: int) -> int:
        if i == 0:
            return j
        if j == 0:
            return i
        sub = d(i - 1, j - 1) + (0 if a[i - 1] == b[j - 1] else 1)
        return min(sub, d(i - 1, j) + 1, d(i, j - 1) + 1)

    result = d(len(a), len(b))
    d.cache_clear()
    return result


def oracle_opt_prefix(prediction: str, truth: str) -> tuple[int, int]:
    """Minimum oracle distance over every prefix; shortest prefix wins ties."""
    best = oracle_levenshtein("", truth)
    best_len = 0
    for i in range(1, len(prediction) + 1):
        dist = oracle_levenshtein(prediction[:i], truth)
        if dist < best:
            best = dist
            best_len = i
    return best, best_len


def oracle_dp_rows(prediction, truth) -> tuple[int, int, int]:
    """(full distance, opt-prefix distance, opt-prefix length) from the full
    DP table, two rows at a time: fast enough for inputs of hundreds of
    elements, where the recursive oracle is not.

    Row i's final column is levenshtein(prediction[:i], truth); the minimum
    over all rows, shortest prefix first on ties, is the opt-prefix score,
    and the last row is the full distance.
    """
    m = len(truth)
    prev = list(range(m + 1))
    best, best_len = m, 0  # empty prefix
    for i, pc in enumerate(prediction, start=1):
        cur = [i] + [0] * m
        for j, tc in enumerate(truth, start=1):
            if pc == tc:
                cur[j] = prev[j - 1]
            else:
                cur[j] = 1 + min(prev[j - 1], prev[j], cur[j - 1])
        if cur[m] < best:
            best, best_len = cur[m], i
        prev = cur
    return prev[m], best, best_len


def oracle_cosine(a, b) -> float:
    dot = math.fsum(x * y for x, y in zip(a, b))
    na = math.sqrt(math.fsum(x * x for x in a))
    nb = math.sqrt(math.fsum(y * y for y in b))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return dot / (na * nb)


def oracle_knn(pair_ids, keys, query, n):
    """Full sort of every cosine similarity; ties by ascending pair_id."""
    sims = [oracle_cosine(key, query) for key in keys]
    order = sorted(range(len(pair_ids)), key=lambda i: (-sims[i], pair_ids[i]))
    return [(pair_ids[i], sims[i]) for i in order[:n]]


def oracle_leakage_scan(train_pairs, test_labels, eot_token):
    """(test id, train id, match kind) for every pair of test label and train
    pair, compared one by one; the label without its eot token and both
    sides with CRLF as LF."""

    def normalized(text, eot):
        if eot and text.endswith(eot):
            text = text[: -len(eot)]
        return text.replace("\r\n", "\n")

    train = [(p.pair_id, normalized(p.label, p.eot_token), normalized(p.query, None)) for p in train_pairs]
    findings = []
    for test_id, raw_label in test_labels:
        needle = normalized(raw_label, eot_token)
        if not needle:
            continue
        for train_id, label, query in train:
            if needle == label:
                findings.append((test_id, train_id, "exact-label"))
            elif needle in label or needle in query:
                findings.append((test_id, train_id, "label-substring-of-train-file"))
    return findings


def oracle_match_delimiters(text: str):
    """Naive stack matcher for delimiter soup (no strings/comments inside)."""
    stack = []
    pairs = []
    closers = {"}": "{", ")": "("}
    for i, ch in enumerate(text):
        if ch in "{(":
            stack.append((ch, i))
        elif ch in closers:
            want = closers[ch]
            j = len(stack) - 1
            while j >= 0 and stack[j][0] != want:
                j -= 1
            if j >= 0:
                pairs.append((stack[j][1], i, want))
                del stack[j:]
    pairs.sort()
    return pairs


_MASK64 = (1 << 64) - 1


def _splitmix64_finalize(x: int) -> int:
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def oracle_embed(text: str, dimension: int):
    """HashingEmbedder's vector for one text: every 3- and 4-byte UTF-8
    n-gram, read big-endian and salted by its size, adds +1 or -1 (the
    finalized hash's top bit) to bucket hash % dimension; the sums, L2
    normalized, as float32. The sums are exact integers, so the result is
    bit-exact."""
    data = text.encode("utf-8")
    acc = [0] * dimension
    for n in (3, 4):
        salt = (n * 0x9E3779B97F4A7C15) & _MASK64
        for i in range(len(data) - n + 1):
            h = _splitmix64_finalize(int.from_bytes(data[i : i + n], "big") ^ salt)
            acc[h % dimension] += -1 if h >> 63 else 1
    norm = math.sqrt(sum(a * a for a in acc))
    if norm == 0.0:
        return np.zeros(dimension, dtype=np.float32)
    return np.array([a / norm for a in acc], dtype=np.float32)


_WS = b" \t\r\n\x0b\x0c"


def _oracle_word_byte(b: int) -> bool:
    return b >= 0x80 or bytes((b,)).isalnum() or b in b"_$"


class TokenWalker:
    """The classifier's tokens read right to left, one at a time.

    Whitespace is skipped up to an opaque span's end and never into it; a
    comment or directive span is stepped over whole, and a string or char
    literal comes back as one token, quotes included. A token is (start,
    text bytes). A run of ':' splits as C++ munches it from the left
    ([lex.pptoken]/3): pairs first, so an odd run ends in a lone ':'.
    """

    def __init__(self, content: bytes, opaque):
        self._content = content
        self._span_ending_at = {s.end: s for s in opaque}  # spans are disjoint and non-empty

    def _run_start(self, pos: int, inside) -> int:
        """Where the run of bytes matching ``inside`` that ends at pos starts."""
        while pos > 0 and pos not in self._span_ending_at and inside(self._content[pos - 1]):
            pos -= 1
        return pos

    def token_before(self, offset: int):
        content = self._content
        pos = offset
        while pos > 0:
            span = self._span_ending_at.get(pos)
            if span is not None:
                if span.kind in ("string", "char"):
                    return span.start, content[span.start : span.end]
                pos = span.start
            elif content[pos - 1] in _WS:
                pos -= 1
            else:
                break
        if pos == 0:
            return None
        b = content[pos - 1]
        if _oracle_word_byte(b):
            start = self._run_start(pos, _oracle_word_byte)
        elif b == ord(":"):
            start = pos - 2 if (pos - self._run_start(pos, lambda c: c == b)) % 2 == 0 else pos - 1
        else:
            arrow = content[pos - 2 : pos] == b"->" and pos - 1 not in self._span_ending_at
            start = pos - 2 if arrow else pos - 1
        return start, content[start:pos]
