"""End-to-end runs: chain the stages, hash every artifact, never lie about
partial output.

Three modes: FT_EXPORT writes the training JSONL and dataset card; RAG_EVAL
builds an index from non-holdout pairs, completes holdout queries through a
generation endpoint, and scores them; EVAL_ONLY scores an existing
predictions file.
"""

from __future__ import annotations

import hashlib
import json
import logging
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator

from . import client, metrics, ragindex
from .config import PipelineConfig, sweep_points
from .errors import InvalidConfigError, StageError
from .ingest import IngestManifest, ingest_repository, write_manifest
from .jsonl import write_lines
from .pairs import (
    CompletionPair,
    PairKind,
    apply_filters,
    dataset_card,
    exclude_holdout,
    leakage_scan,
    make_primary_pair,
    make_random_start_pairs,
    write_leakage_report,
    write_pairs,
)
from .scopes import ScopeCandidate, extract_scopes, write_scopes

logger = logging.getLogger(__name__)


class Mode(str, Enum):
    RAG_EVAL = "rag_eval"
    FT_EXPORT = "ft_export"
    EVAL_ONLY = "eval_only"


@dataclass
class StageRecord:
    stage: str
    status: str  # complete | failed
    inputs: dict[str, str] = field(default_factory=dict)
    outputs: dict[str, str] = field(default_factory=dict)


@dataclass
class RunResult:
    mode: Mode
    out_dir: Path
    manifest_path: Path
    stages: list[StageRecord]


def _sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            h.update(chunk)
    return h.hexdigest()


class _Runner:
    def __init__(self, out_dir: Path, mode: Mode):
        self.out_dir = out_dir
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.mode = mode
        self.stages: list[StageRecord] = []
        self.written: dict[Path, str] = {}  # sha256 of each output written so far

    @contextmanager
    def stage(self, name: str, inputs: dict[str, Path]):
        """Record the with block as one stage: input hashes on entry, output
        hashes on normal exit. The block puts each output it writes in the
        dict it gets, with the sha256 its writer returned, so no output is
        read back: an input an earlier stage wrote keeps that hash, and only
        an input the run did not write is read to hash it. On an exception
        the stage stays failed, the manifest is written and the error is
        re-raised as StageError."""
        rec = StageRecord(
            stage=name,
            status="failed",
            inputs={k: self.written.get(p) or _sha256_file(p) for k, p in inputs.items() if p.is_file()},
        )
        self.stages.append(rec)
        hashed: dict[Path, str] = {}
        try:
            yield hashed
        except Exception as exc:
            self.write_manifest()
            raise StageError(name, exc) from exc
        self.written.update(hashed)
        rec.outputs = {str(p.relative_to(self.out_dir)): digest for p, digest in hashed.items()}
        rec.status = "complete"

    def write_manifest(self) -> Path:
        path = self.out_dir / "run_manifest.json"
        payload = {"mode": self.mode.value, "stages": [vars(s) for s in self.stages]}
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        return path


def extract_all_scopes(
    manifest: IngestManifest, logging_patterns=None, *, diagnostics: list[str] | None = None
) -> list[ScopeCandidate]:
    """Scope candidates of every distinct file content, in manifest order.

    Files are content-addressed, so a byte-identical copy would yield the
    exact same candidates (and pairs): each file_id is extracted once.
    """
    candidates: list[ScopeCandidate] = []
    seen: set[str] = set()
    for rec in manifest.files:
        if rec.file_id in seen:
            logger.info("skipping %s: identical content already processed", rec.repo_relative_path)
            continue
        seen.add(rec.file_id)
        candidates.extend(extract_scopes(rec, logging_patterns, diagnostics=diagnostics))
    return candidates


def split_pairs(
    candidates: list[ScopeCandidate], manifest: IngestManifest, config: PipelineConfig
) -> tuple[Iterator[CompletionPair], Iterator[CompletionPair]]:
    """The config's pairs as (train, held) streams: held pairs come from
    holdout files.

    Filtering and the holdout split happen on the call. Each stream walks
    its files in file_id order and builds each candidate's primary pair,
    then its random starts, as it reaches them: the pairs come in file
    order, (file_id, scope_start_byte, kind, start_shift_bytes).
    """
    records = manifest.record_by_id()
    by_file: dict[str, list[ScopeCandidate]] = {}
    for cand in apply_filters(candidates, config.filters, records):
        by_file.setdefault(cand.file_id, []).append(cand)
    files = [records[fid] for fid in sorted(by_file)]
    path_by_id = {r.file_id: r.repo_relative_path for r in manifest.files}
    train = exclude_holdout(files, config.holdout_paths, path_by_id)
    train_ids = {r.file_id for r in train}
    filters, eot, closer = config.filters, config.eot_token, config.include_closing_delimiter

    def stream(recs) -> Iterator[CompletionPair]:
        for rec in recs:
            for cand in by_file[rec.file_id]:
                yield make_primary_pair(cand, rec.content, filters, eot, include_closer=closer)
                yield from make_random_start_pairs(
                    cand, rec.content, filters, eot, k=config.random_starts, seed=config.seed, include_closer=closer
                )

    return stream(train), stream(r for r in files if r.file_id not in train_ids)


_Scoped = tuple[list[ScopeCandidate], IngestManifest]  # what every pairs stage builds from


def _stage_scopes(runner: _Runner, config: PipelineConfig) -> _Scoped:
    """The ingest and scopes stages; returns the candidates and the manifest."""
    out = runner.out_dir
    manifest_path, scopes_path = out / "ingest" / "manifest.jsonl", out / "scopes.jsonl"

    with runner.stage("ingest", {}) as hashed:
        manifest = ingest_repository(
            config.repo_root,
            set(config.languages),
            config.exclude_globs,
            max_file_bytes=config.max_file_bytes,
        )
        _, hashed[manifest_path] = write_manifest(manifest, out / "ingest")

    with runner.stage("scopes", {"manifest": manifest_path}) as hashed:
        candidates = extract_all_scopes(manifest, config.logging_patterns)
        hashed[scopes_path] = write_scopes(candidates, scopes_path)
    return candidates, manifest


def counted(pairs: Iterable[CompletionPair], counts: Counter) -> Iterator[CompletionPair]:
    """``pairs`` passed through, each counted in ``counts`` by (category,
    kind), as count_pairs counts, as it goes by."""
    for p in pairs:
        counts[p.category, p.kind] += 1
        yield p


def _stage_pairs(
    runner: _Runner, config: PipelineConfig, scoped: _Scoped, out: Path, *, keep: bool = False
) -> tuple[Counter, list[CompletionPair], list[CompletionPair]]:
    """The pairs stage into ``out``; returns the count_pairs of the train
    pairs and, with ``keep``, the (train, held) pairs (else two empty lists).

    Each pair is written once: to train_pairs.jsonl, or to
    holdout_pairs.jsonl when its file is held out (empty without a holdout).
    Without ``keep`` the pairs stream: one file's pairs are built, written
    and dropped before the next file's. With it, the lists are the ones
    written, in the order written.
    """
    train_path, held_path = out / "train_pairs.jsonl", out / "holdout_pairs.jsonl"
    counts: Counter = Counter()
    with runner.stage("pairs", {"scopes": runner.out_dir / "scopes.jsonl"}) as hashed:
        train, held = split_pairs(*scoped, config)
        if keep:
            train, held = list(train), list(held)
        hashed[train_path] = write_pairs(counted(train, counts), train_path)
        hashed[held_path] = write_pairs(held, held_path)
    return (counts, train, held) if keep else (counts, [], [])


def _run_ft_export(runner: _Runner, config: PipelineConfig, scoped: _Scoped, out: Path) -> dict:
    """The pairs and ft_export stages into ``out``; returns the dataset card."""
    counts, _, _ = _stage_pairs(runner, config, scoped, out)
    card_path = out / "dataset_card.json"
    with runner.stage("ft_export", {"pairs": out / "train_pairs.jsonl"}) as hashed:
        card = dataset_card(
            counts,
            config.filters,
            extra={
                "eot_token": config.eot_token,
                "random_starts": config.random_starts,
                "seed": config.seed,
                "holdout_paths": list(config.holdout_paths),
                "repo_root": str(config.repo_root),
            },
        )
        text = json.dumps(card, indent=2, sort_keys=True) + "\n"
        hashed[card_path] = write_lines([text.encode("utf-8")], card_path)
    return card


def _run_rag_eval(runner: _Runner, config: PipelineConfig) -> None:
    if not config.generate_endpoint:
        raise InvalidConfigError(["rag_eval requires endpoints.generate"])
    if not config.holdout_paths:
        raise InvalidConfigError(["rag_eval requires pairs.holdout_paths (the test files)"])
    _, train, held = _stage_pairs(runner, config, _stage_scopes(runner, config), runner.out_dir, keep=True)
    embedder = ragindex.make_embedder(config.embedder, config.embedding_dimension)
    out = runner.out_dir
    train_path, held_path, index_path = (
        out / "train_pairs.jsonl", out / "holdout_pairs.jsonl", out / "train.index"
    )
    with runner.stage("index", {"pairs": train_path}) as hashed:
        tests = [p for p in held if p.kind is PairKind.PRIMARY]
        if not tests:
            raise ValueError("holdout files produced no test pairs")
        index = ragindex.index_build(train, embedder)
        hashed[index_path] = index.save(index_path)

    leak_path = out / "leakage_report.jsonl"
    with runner.stage("leak_scan", {"train": train_path, "tests": held_path}) as hashed:
        report = leakage_scan(train, [(p.pair_id, p.label) for p in tests], config.eot_token)
        hashed[leak_path] = write_leakage_report(report, leak_path)
        if report.findings:
            logger.warning("leakage scan found %d finding(s)", len(report.findings))

    predictions_path, records_path, report_path = (
        out / "predictions.jsonl", out / "eval_records.jsonl", out / "report.csv"
    )
    with runner.stage("rag_eval", {"index": index_path, "tests": held_path}) as hashed:
        query_vecs = embedder.embed_texts([p.query_span for p in tests])
        neighbors = ragindex.knn_search_many(index, query_vecs, config.n_neighbors)
        prompts = [
            (p.pair_id, ragindex.augment_query(p.query, found, index, config.budget_bytes))
            for p, found in zip(tests, neighbors)
        ]
        template = client.GenerationRequest(
            prompt="",
            max_new_tokens=config.gen_max_new_tokens,
            stop_sequences=(config.eot_token,),
            timeout=config.gen_timeout_s,
        )
        outcomes = client.batch_predict(config.generate_endpoint, prompts, template)
        hashed[predictions_path] = client.write_predictions(outcomes, predictions_path)
        by_id = {p.pair_id: p for p in tests}
        evals = []
        for o in outcomes:
            if o.result is None:
                continue
            pair = by_id[o.test_id]
            evals.append((o.test_id, pair.category.value, o.result.text, pair.label_without_eot()))
        _, hashed[records_path], hashed[report_path] = metrics.score_to_files(evals, records_path, report_path)


def _run_eval_only(runner: _Runner, config: PipelineConfig) -> None:
    src = config.predictions_path
    if not src or not Path(src).is_file():
        raise InvalidConfigError(["eval_only requires predictions_path pointing at a JSONL file"])
    records_path = runner.out_dir / "eval_records.jsonl"
    report_path = runner.out_dir / "report.csv"
    with runner.stage("eval_only", {"predictions": Path(src)}) as hashed:
        tests = metrics.read_tests_jsonl(src)
        _, hashed[records_path], hashed[report_path] = metrics.score_to_files(tests, records_path, report_path)


def run_pipeline(config: PipelineConfig, mode: Mode) -> RunResult:
    """Run one mode end to end under config.output_dir.

    Every stage's inputs and outputs land in run_manifest.json with sha256
    hashes; a failing stage is recorded as failed before the error
    propagates, so partial artifacts are never presented as complete.
    """
    out_dir = Path(config.output_dir)
    runner = _Runner(out_dir, mode)
    if mode is Mode.FT_EXPORT:
        _run_ft_export(runner, config, _stage_scopes(runner, config), out_dir)
    elif mode is Mode.RAG_EVAL:
        _run_rag_eval(runner, config)
    elif mode is Mode.EVAL_ONLY:
        _run_eval_only(runner, config)
    else:
        raise InvalidConfigError([f"unknown mode {mode!r}"])
    manifest_path = runner.write_manifest()
    return RunResult(mode=mode, out_dir=out_dir, manifest_path=manifest_path, stages=runner.stages)


def run_sweep(config: PipelineConfig) -> list[dict]:
    """Grid over config.sweep (dotted filter keys -> value lists).

    Ingest and scopes run once; each grid point runs pairs and ft_export into
    sweep_NNN/, one run_manifest.json at the root records every stage, and
    the dataset cards go to sweep_summary.json. Returns the summary rows.
    """
    if not config.sweep:
        raise InvalidConfigError(["sweep requires a non-empty sweep block"])
    problems: list[str] = []
    points = sweep_points(config.filters, config.sweep, problems)
    if problems:
        raise InvalidConfigError(problems)
    base_out = Path(config.output_dir)
    runner = _Runner(base_out, Mode.FT_EXPORT)
    scoped = _stage_scopes(runner, config)
    rows = []
    for i, (point, filt) in enumerate(points):
        sub = base_out / f"sweep_{i:03d}"
        sub.mkdir(exist_ok=True)
        card = _run_ft_export(runner, replace(config, filters=filt), scoped, sub)
        rows.append({"point": point, "out_dir": str(sub), "card": card})
    runner.write_manifest()
    summary = base_out / "sweep_summary.json"
    summary.write_text(json.dumps(rows, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return rows
