"""Edit-distance scoring for completion predictions.

Two views of the same DP table: the full unit-cost Levenshtein distance,
and the minimum distance achieved by any prefix of the prediction (a model
that says the right thing and then rambles scores well on the second,
poorly on the first; the gap is the conciseness delta). One bit-parallel
pass over the prediction yields both: each DP row is packed into Python-int
bit vectors, one bit per truth element, so a row costs a few big-int
operations; row i's final column scores the prefix of length i, and the
last row is the full distance.
"""

from __future__ import annotations

import csv
import io
import re
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .jsonl import read_jsonl, write_jsonl, write_lines

_WS_RUN = re.compile(r"[ \t]+")


def normalize_whitespace(text: str) -> str:
    """Collapse runs of spaces/tabs to one space; trim line-trailing blanks."""
    lines = text.split("\n")
    return "\n".join(_WS_RUN.sub(" ", line).rstrip() for line in lines)


def _dp_rows(prediction: Sequence, truth: Sequence) -> tuple[int, int, int]:
    """(full distance, opt-prefix distance, opt-prefix length) in one pass.

    Walks the DP rows D[i], one per prediction element. A row is two bit
    vectors: bit j of ``pv`` (``mv``) is set where D[i][j+1] - D[i][j] is
    +1 (-1); row 0 is 0..len(truth), all +1. Each element turns one row
    into the next with a few big-int operations (Myers 1999, in the global
    form of Hyyrö 2001: D[i][0] = i, so the step down column 0 is a +1
    shifted in at bit 0). ``score`` is the row's last column,
    levenshtein(prediction[:i], truth); the minimum over all rows, shortest
    prefix first on ties, is the opt-prefix score, and the last row is the
    full distance.
    """
    m = len(truth)
    if not m:
        return len(prediction), 0, 0
    peq: dict = {}  # element -> bitmask of its positions in truth
    bit = 1
    for c in truth:
        peq[c] = peq.get(c, 0) | bit
        bit <<= 1
    mask, top = bit - 1, bit >> 1
    pv, mv, score = mask, 0, m
    best, best_len = m, 0  # empty prefix
    for i, c in enumerate(prediction, start=1):
        eq = peq.get(c, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | (mask & ~(xh | pv))
        mh = pv & xh
        if ph & top:
            score += 1
        elif mh & top:
            score -= 1
        ph = ((ph << 1) | 1) & mask
        pv = ((mh << 1) & mask) | (mask & ~(xv | ph))
        mv = ph & xv
        if score < best:
            best, best_len = score, i
    return score, best, best_len


def levenshtein(a: Sequence, b: Sequence) -> int:
    """Unit-cost edit distance over the sequence elements.

    Strings are compared per Unicode scalar; pass bytes for byte-level
    distance. Symmetric, zero iff equal, satisfies the triangle inequality.
    """
    return _dp_rows(a, b)[0]


def opt_prefix_distance(prediction: Sequence, ground_truth: Sequence) -> tuple[int, int]:
    """(min over prefixes of levenshtein(prefix, truth), length of that prefix).

    Ties go to the shortest prefix; the empty prefix (distance len(truth))
    and the whole prediction are both candidates, so the result never
    exceeds the full distance.
    """
    _, opt, opt_len = _dp_rows(prediction, ground_truth)
    return opt, opt_len


@dataclass(frozen=True)
class EvalRecord:
    test_id: str
    category: str
    prediction: str
    ground_truth: str
    full_distance: int
    opt_distance: int
    opt_prefix_len: int
    conciseness_delta: int  # full - opt; how much the tail rambles


def evaluate(
    tests: Iterable[tuple[str, str, str, str]],
    *,
    normalize: bool = False,
    as_bytes: bool = False,
) -> list[EvalRecord]:
    """Score (test_id, category, prediction, ground_truth) tuples.

    ``normalize`` applies whitespace normalization to both sides first;
    ``as_bytes`` scores UTF-8 bytes instead of Unicode scalars.
    """
    out = []
    for test_id, category, prediction, ground_truth in tests:
        pred, truth = prediction, ground_truth
        if normalize:
            pred = normalize_whitespace(pred)
            truth = normalize_whitespace(truth)
        seq_p: Sequence = pred.encode("utf-8") if as_bytes else pred
        seq_t: Sequence = truth.encode("utf-8") if as_bytes else truth
        full, opt, opt_len = _dp_rows(seq_p, seq_t)
        out.append(
            EvalRecord(
                test_id=test_id,
                category=category,
                prediction=prediction,
                ground_truth=ground_truth,
                full_distance=full,
                opt_distance=opt,
                opt_prefix_len=opt_len,
                conciseness_delta=full - opt,
            )
        )
    return out


@dataclass(frozen=True)
class CategoryReport:
    category: str
    n_tests: int
    mean_opt: float
    mean_full: float
    median_opt: float
    median_full: float


def aggregate_report(records: Iterable[EvalRecord]) -> list[CategoryReport]:
    """Mean and median distances per category, ordered by category name."""
    groups: dict[str, list[EvalRecord]] = {}
    for rec in records:
        groups.setdefault(rec.category, []).append(rec)
    out = []
    for category in sorted(groups):
        recs = groups[category]
        opts = [r.opt_distance for r in recs]
        fulls = [r.full_distance for r in recs]
        out.append(
            CategoryReport(
                category=category,
                n_tests=len(recs),
                mean_opt=statistics.mean(opts),
                mean_full=statistics.mean(fulls),
                median_opt=float(statistics.median(opts)),
                median_full=float(statistics.median(fulls)),
            )
        )
    return out


def write_records(records: Iterable[EvalRecord], path: str | Path) -> str:
    return write_jsonl(map(vars, records), path)


def write_report_csv(reports: Iterable[CategoryReport], path: str | Path) -> str:
    """One CSV row per category, CRLF line ends; returns the sha256 hex digest."""
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(["category", "n", "mean_opt", "median_opt", "mean_full", "median_full"])
    for r in reports:
        writer.writerow(
            [r.category, r.n_tests, f"{r.mean_opt:.4f}", f"{r.median_opt:.4f}",
             f"{r.mean_full:.4f}", f"{r.median_full:.4f}"]
        )
    return write_lines([text.getvalue().encode("utf-8")], path)


def score_to_files(
    tests, records_path: str | Path, report_path: str | Path, **options
) -> tuple[list[CategoryReport], str, str]:
    """evaluate(tests, **options), written as records JSONL and per-category
    CSV; returns the per-category reports and the sha256 hex digests of the
    two files."""
    records = evaluate(tests, **options)
    records_digest = write_records(records, records_path)
    reports = aggregate_report(records)
    return reports, records_digest, write_report_csv(reports, report_path)


def read_tests_jsonl(path: str | Path) -> list[tuple[str, str, str, str]]:
    """Read eval inputs: JSONL of {test_id, category, prediction, ground_truth}."""
    schema = {"test_id": (str, int), "category": str, "prediction": str, "ground_truth": str}
    return [
        (str(d["test_id"]), d.get("category", "unclassified"), d["prediction"], d["ground_truth"])
        for d in read_jsonl(path, schema, optional=("category",))
    ]
