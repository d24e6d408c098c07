"""Command-line entry point.

Subcommands mirror the pipeline stages so each can run and be inspected in
isolation; `run` chains them. Exit codes: 0 success, 2 configuration
problem, 1 any other failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from collections import Counter
from pathlib import Path

from . import __version__
from .client import GenerationRequest, batch_predict, write_predictions
from .config import SETTINGS, PipelineConfig, parse_config, read_config
from .errors import InvalidConfigError, ScopekitError
from .ingest import ingest_repository, load_manifest, write_manifest
from .jsonl import read_jsonl
from .metrics import read_tests_jsonl, score_to_files
from .pairs import leakage_scan, read_pairs, write_leakage_report, write_pairs
from .pipeline import Mode, counted, extract_all_scopes, run_pipeline, run_sweep, split_pairs
from .ragindex import VectorIndex, augment_query, index_build, knn_search, make_embedder
from .scopes import read_scopes, write_scopes

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_CONFIG = 2


def _config(args) -> PipelineConfig:
    """The command's settings: its --config file (which needs its paths, as for `run`), or no file,
    with each flag whose dest is a SETTINGS key laid over it, so it gets that key's checks and default."""
    path = getattr(args, "config", None)
    raw = read_config(path) if path else {}
    for key, value in vars(args).items():
        if key not in SETTINGS or value is None:
            continue
        section, _, name = key.rpartition(".")
        if section and raw.get(section) is None:
            raw[section] = {}
        target = raw[section] if section else raw
        if isinstance(target, dict):  # else parse_config reports the section
            target[name] = value
    return parse_config(raw, paths_required=path is not None)


def _positive_int(text: str) -> int:
    """An integer >= 1, else a usage error (--max-in-flight)."""
    try:
        if int(text) >= 1:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")


def _nonblank_lines(path: str) -> list[str]:
    """The stripped non-blank lines of a file (a --holdout list)."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise argparse.ArgumentTypeError(f"{path}:{line}: not UTF-8: byte 0x{exc.object[exc.start]:02x}")
    return [line.strip() for line in text.splitlines() if line.strip()]


def _cmd_ingest(args) -> int:
    cfg = _config(args)
    if not (args.repo_root or args.config):
        raise InvalidConfigError(["--root (or a config with repo_root) is required"])
    manifest = ingest_repository(cfg.repo_root, set(cfg.languages), cfg.exclude_globs, max_file_bytes=cfg.max_file_bytes)
    path, _ = write_manifest(manifest, args.out)
    print(f"ingested {len(manifest.files)} files -> {path}")
    for lang, n in sorted(manifest.counts.items()):
        print(f"  {lang}: {n}")
    return EXIT_OK


def _cmd_scopes(args) -> int:
    cfg = _config(args)
    manifest = load_manifest(args.manifest)
    all_cands = extract_all_scopes(manifest, cfg.logging_patterns)
    write_scopes(all_cands, args.out)
    print(f"extracted {len(all_cands)} scope candidates -> {args.out}")
    return EXIT_OK


def _cmd_pairs(args) -> int:
    cfg = _config(args)
    manifest = load_manifest(args.manifest)
    candidates = read_scopes(args.scopes)
    records = manifest.record_by_id()
    for c in candidates:
        if c.file_id not in records:
            raise ValueError(f"{args.scopes}: file_id {c.file_id} is not in manifest {args.manifest}")
        start, end, byte_len = c.start_byte, c.end_byte, records[c.file_id].byte_len
        if not 1 <= start <= end < byte_len:
            raise ValueError(f"{args.scopes}: scope [{start}, {end}) does not fit file_id {c.file_id} ({byte_len} bytes)")
    train, _ = split_pairs(candidates, manifest, cfg)
    counts: Counter = Counter()
    write_pairs(counted(train, counts), args.out)
    print(f"wrote {sum(counts.values())} pairs -> {args.out}")
    return EXIT_OK


def _cmd_leak_scan(args) -> int:
    cfg = _config(args)
    train = read_pairs(args.train)
    schema = {"pair_id": (str, int), "test_id": (str, int), "label": (str, type(None)), "ground_truth": str}
    rows = read_jsonl(args.tests, schema, optional=schema, one_of=[("pair_id", "test_id"), ("label", "ground_truth")])
    tests = [
        (str(d.get("pair_id", d.get("test_id"))), d["ground_truth"] if d.get("label") is None else d["label"])
        for d in rows
    ]
    report = leakage_scan(train, tests, cfg.eot_token)
    write_leakage_report(report, args.out)
    print(f"{len(report.findings)} leakage finding(s) -> {args.out}")
    return EXIT_OK


def _cmd_index_build(args) -> int:
    cfg = _config(args)
    index = index_build(read_pairs(args.pairs), make_embedder(cfg.embedder, cfg.embedding_dimension))
    index.save(args.out)
    print(f"indexed {len(index)} entries (dim {index.dimension}) -> {args.out}")
    return EXIT_OK


def _cmd_index_query(args) -> int:
    cfg = _config(args)
    index = VectorIndex.load(args.index)
    embedder = make_embedder(cfg.embedder, index.dimension)
    if embedder.embedder_id != index.embedder_id:
        raise InvalidConfigError(
            [f"index was built with {index.embedder_id!r}, queries need that embedder, got {embedder.embedder_id!r}"]
        )
    query = sys.stdin.read()
    vec = embedder.embed(query)
    results = knn_search(index, vec, cfg.n_neighbors)
    print(json.dumps([{"pair_id": pid, "similarity": sim} for pid, sim in results], indent=2))
    if args.augment:
        print(augment_query(query, results, index, cfg.budget_bytes))
    return EXIT_OK


def _cmd_predict(args) -> int:
    cfg = _config(args)
    tests = [(str(d["test_id"]), d["prompt"]) for d in read_jsonl(args.tests, {"test_id": (str, int), "prompt": str})]
    template = GenerationRequest(
        prompt="",
        max_new_tokens=cfg.gen_max_new_tokens,
        stop_sequences=tuple(args.stop or (cfg.eot_token,)),
        temperature=args.temperature,
        timeout=cfg.gen_timeout_s,
    )
    outcomes = batch_predict(cfg.generate_endpoint, tests, template, max_in_flight=args.max_in_flight)
    write_predictions(outcomes, args.out)
    failures = sum(1 for o in outcomes if o.error)
    print(f"{len(outcomes) - failures} prediction(s), {failures} failure(s) -> {args.out}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    tests = read_tests_jsonl(args.tests)
    reports, _, _ = score_to_files(tests, args.out, args.report, normalize=args.normalize == "ws", as_bytes=args.bytes)
    for r in reports:
        print(
            f"{r.category}: n={r.n_tests} mean_opt={r.mean_opt:.2f} median_opt={r.median_opt:.2f} "
            f"mean_full={r.mean_full:.2f} median_full={r.median_full:.2f}"
        )
    return EXIT_OK


def _cmd_run(args) -> int:
    result = run_pipeline(_config(args), args.mode)
    print(f"run complete -> {result.manifest_path}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = _config(args)
    rows = run_sweep(cfg)
    print(f"swept {len(rows)} grid point(s) -> {Path(cfg.output_dir) / 'sweep_summary.json'}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="scopekit", description=__doc__)
    parser.add_argument("--version", action="version", version=f"scopekit {__version__}")
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="walk a repository into a content-addressed manifest")
    p.add_argument("--root", dest="repo_root", help="repository root directory")
    p.add_argument("--lang", dest="languages", type=lambda v: v.split(","),
                   help="comma-separated languages (c_cpp,java)")
    p.add_argument("--exclude", dest="exclude_globs", action="append", help="exclude glob (repeatable)")
    p.add_argument("--max-file-bytes", type=int, dest="max_file_bytes")
    p.add_argument("--config", help="pipeline config file")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=_cmd_ingest)

    p = sub.add_parser("scopes", help="extract scope candidates from an ingest manifest")
    p.add_argument("--manifest", required=True, help="manifest.jsonl or its directory")
    p.add_argument("--logging-pattern", action="append", dest="pairs.logging_patterns")
    p.add_argument("--config", help="pipeline config file")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_scopes)

    p = sub.add_parser("pairs", help="filter scopes and emit training pairs")
    p.add_argument("--scopes", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--config", help="pipeline config file")
    p.add_argument("--holdout", type=_nonblank_lines, dest="pairs.holdout_paths", metavar="FILE",
                   help="file listing repo-relative holdout paths")
    p.add_argument("--random-starts", type=int, dest="pairs.random_starts")
    p.add_argument("--seed", type=int, dest="pairs.seed")
    p.add_argument("--eot-token", dest="pairs.eot_token")
    for name in ("min-scope-bytes", "max-scope-bytes", "min-prefix-bytes", "max-prefix-bytes", "max-depth"):
        p.add_argument(f"--{name}", type=int, dest="filters." + name.replace("-", "_"))
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_pairs)

    p = sub.add_parser("leak-scan", help="scan training pairs for test-label leakage")
    p.add_argument("--train", required=True, help="training pairs JSONL")
    p.add_argument("--tests", required=True, help="JSONL with pair_id/test_id and label/ground_truth")
    p.add_argument("--eot-token", dest="pairs.eot_token")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_leak_scan)

    p = sub.add_parser("index", help="build or query a retrieval index")
    isub = p.add_subparsers(dest="index_command", required=True)
    b = isub.add_parser("build")
    b.add_argument("--pairs", required=True)
    b.add_argument("--embedder", dest="rag.embedder")
    b.add_argument("--dimension", type=int, dest="rag.dimension")
    b.add_argument("--out", required=True)
    b.set_defaults(fn=_cmd_index_build)
    q = isub.add_parser("query")
    q.add_argument("--index", required=True)
    q.add_argument("--embedder", dest="rag.embedder")
    q.add_argument("--top", type=int, dest="rag.n_neighbors")
    q.add_argument("--augment", action="store_true", help="print the augmented prompt")
    q.add_argument("--budget-bytes", type=int, dest="rag.budget_bytes")
    q.set_defaults(fn=_cmd_index_query)

    p = sub.add_parser("predict", help="send prompts to a generation endpoint")
    p.add_argument("--endpoint", required=True, dest="endpoints.generate")
    p.add_argument("--tests", required=True, help="JSONL of {test_id, prompt}")
    p.add_argument("--max-new-tokens", type=int, dest="generation.max_new_tokens")
    p.add_argument("--stop", action="append")
    p.add_argument("--temperature", type=float, default=0.0)
    p.add_argument("--timeout", type=float, dest="generation.timeout_s")
    p.add_argument("--max-in-flight", type=_positive_int, dest="max_in_flight", default=4)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_predict)

    p = sub.add_parser("eval", help="score predictions against ground truths")
    p.add_argument("--tests", required=True, help="JSONL of {test_id, category, prediction, ground_truth}")
    p.add_argument("--normalize", choices=["ws"], help="whitespace normalization")
    p.add_argument("--bytes", action="store_true", help="byte-level distances")
    p.add_argument("--out", required=True, help="eval records JSONL")
    p.add_argument("--report", required=True, help="per-category CSV")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("run", help="run a full pipeline mode")
    p.add_argument("--config", required=True)
    p.add_argument("--mode", required=True, choices=[m.value for m in Mode])
    p.add_argument("--predictions", dest="predictions_path", help="predictions JSONL for eval_only")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("sweep", help="grid-run FT exports over filter settings")
    p.add_argument("--config", required=True)
    p.set_defaults(fn=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.fn(args)
    except InvalidConfigError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return EXIT_CONFIG
    except (ScopekitError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
