"""Pipeline configuration: one JSON file drives every stage.

Validation collects every violation before failing, so a bad config is
fixed in one round trip instead of one field at a time.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path

from .errors import InvalidConfigError
from .ingest import DEFAULT_MAX_FILE_BYTES, Language
from .pairs import DEFAULT_EOT_TOKEN, FilterConfig
from .scopes import DEFAULT_LOGGING_PATTERNS, ScopeCategory


@dataclass
class PipelineConfig:
    repo_root: Path
    output_dir: Path
    languages: tuple[Language, ...] = (Language.C_CPP, Language.JAVA)
    exclude_globs: tuple[str, ...] = ()
    max_file_bytes: int = DEFAULT_MAX_FILE_BYTES
    filters: FilterConfig = field(default_factory=FilterConfig)
    logging_patterns: tuple[str, ...] = DEFAULT_LOGGING_PATTERNS
    include_closing_delimiter: bool = True
    random_starts: int = 1
    seed: int = 0
    eot_token: str = DEFAULT_EOT_TOKEN
    holdout_paths: tuple[str, ...] = ()
    embedder: str = "builtin"  # "builtin" or "remote:<url>"
    embedding_dimension: int = 384
    n_neighbors: int = 3
    budget_bytes: int = 6144
    generate_endpoint: str | None = None
    gen_max_new_tokens: int = 256
    gen_timeout_s: float = 120.0
    predictions_path: Path | None = None  # EVAL_ONLY input
    sweep: dict[str, list] = field(default_factory=dict)

    def embed_endpoint(self) -> str | None:
        if self.embedder.startswith("remote:"):
            return self.embedder[len("remote:") :]
        return None


_FILTER_KEYS = {
    "min_scope_bytes", "max_scope_bytes", "min_prefix_bytes", "max_prefix_bytes",
    "max_depth", "category_allowlist", "exclude_keywords", "modified_after",
}

_TOP_KEYS = {
    "repo_root", "output_dir", "languages", "exclude_globs", "max_file_bytes",
    "filters", "pairs", "rag", "endpoints", "generation", "sweep", "predictions_path",
}


def _typed(section: dict, where: str, default, kind, want: str, problems: list[str], ok=None):
    """The section's value for the last part of ``where``; the default when absent or null,
    or when not a ``kind`` (a bool is no int) passing ``ok``: then "<where> must be <want>"."""
    value = section.get(where.rpartition(".")[2])
    if value is None:
        return default
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, kind) or (ok and not ok(value)):
        problems.append(f"{where} must be {want}")
        return default
    return value


def _int(section: dict, where: str, default: int, minimum: int, problems: list[str]) -> int:
    return _typed(section, where, default, int, f"an integer >= {minimum}", problems, lambda v: v >= minimum)


def _strings(section: dict, where: str, default: tuple, problems: list[str]) -> tuple[str, ...]:
    def all_str(v):
        return all(isinstance(x, str) for x in v)

    return tuple(_typed(section, where, default, (list, tuple), "a list of strings", problems, all_str))


def _parse_filters(raw: dict, problems: list[str]) -> FilterConfig:
    unknown = set(raw) - _FILTER_KEYS
    if unknown:
        problems.append(f"filters: unknown keys {sorted(unknown)}")
    kwargs = {key: raw[key] for key in _FILTER_KEYS & set(raw)}
    if "category_allowlist" in kwargs and kwargs["category_allowlist"] is not None:
        cats = []
        for name in _strings(raw, "filters.category_allowlist", (), problems):
            try:
                cats.append(ScopeCategory(name))
            except ValueError:
                problems.append(f"filters.category_allowlist: unknown category {name!r}")
        kwargs["category_allowlist"] = frozenset(cats)
    if "exclude_keywords" in kwargs:
        kwargs["exclude_keywords"] = _strings(raw, "filters.exclude_keywords", (), problems)
    try:
        cfg = FilterConfig(**kwargs)
        cfg.validate()
        return cfg
    except InvalidConfigError as exc:
        problems.extend(exc.problems)
        return FilterConfig()
    except TypeError as exc:
        problems.append(f"filters: {exc}")
        return FilterConfig()


def load_config(path: str | Path) -> PipelineConfig:
    """Parse and validate a config file; raises InvalidConfigError listing
    every problem found."""
    p = Path(path)
    problems: list[str] = []
    try:
        raw = json.loads(p.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise InvalidConfigError([f"config file not found: {path}"])
    except json.JSONDecodeError as exc:
        raise InvalidConfigError([f"config is not valid JSON: {exc}"])
    if not isinstance(raw, dict):
        raise InvalidConfigError(["config root must be a JSON object"])

    unknown = set(raw) - _TOP_KEYS
    if unknown:
        problems.append(f"unknown top-level keys {sorted(unknown)}")
    filters_raw, pairs_raw, rag_raw, endpoints, gen_raw = (
        _typed(raw, name, {}, dict, "a JSON object", problems)
        for name in ("filters", "pairs", "rag", "endpoints", "generation")
    )

    repo_root = _typed(raw, "repo_root", None, str, "a path string", problems)
    if not repo_root:
        problems.append("repo_root is required")
        root_path = Path(".")
    else:
        root_path = Path(repo_root)
        if not root_path.is_dir():
            problems.append(f"repo_root is not a directory: {repo_root}")

    output_dir = _typed(raw, "output_dir", None, str, "a path string", problems)
    if not output_dir:
        problems.append("output_dir is required")
        out_path = Path(".")
    else:
        out_path = Path(output_dir)

    languages = []
    for name in _strings(raw, "languages", ("c_cpp", "java"), problems):
        try:
            lang = Language(name)
            if lang is Language.OTHER:
                raise ValueError
            languages.append(lang)
        except ValueError:
            problems.append(f"languages: unknown language {name!r}")
    if not languages:
        problems.append("languages must name at least one of c_cpp, java")

    filters = _parse_filters(filters_raw, problems)

    random_starts = _int(pairs_raw, "pairs.random_starts", 1, 0, problems)
    seed = _typed(pairs_raw, "pairs.seed", 0, int, "an integer", problems)
    eot_token = _typed(pairs_raw, "pairs.eot_token", DEFAULT_EOT_TOKEN, str, "a non-empty string", problems, bool)
    include_closer = _typed(pairs_raw, "pairs.include_closing_delimiter", True, bool, "true or false", problems)
    holdout_paths = _strings(pairs_raw, "pairs.holdout_paths", (), problems)
    logging_patterns = _strings(pairs_raw, "pairs.logging_patterns", DEFAULT_LOGGING_PATTERNS, problems)
    for pat in logging_patterns:
        try:
            re.compile(pat)
        except re.error as exc:
            problems.append(f"pairs.logging_patterns: bad regex {pat!r}: {exc}")

    embedder = _typed(rag_raw, "rag.embedder", "builtin", str, "a string", problems)
    if embedder != "builtin" and not embedder.startswith("remote:"):
        problems.append("rag.embedder must be 'builtin' or 'remote:<url>'")
    dimension = _int(rag_raw, "rag.dimension", 384, 1, problems)
    n_neighbors = _int(rag_raw, "rag.n_neighbors", 3, 1, problems)
    budget_bytes = _int(rag_raw, "rag.budget_bytes", 6144, 1, problems)

    generate_endpoint = _typed(endpoints, "endpoints.generate", None, str, "a URL string", problems)
    gen_max_new_tokens = _int(gen_raw, "generation.max_new_tokens", 256, 1, problems)
    gen_timeout = _typed(
        gen_raw, "generation.timeout_s", 120.0, (int, float), "a positive number", problems, lambda v: v > 0
    )

    max_file_bytes = _int(raw, "max_file_bytes", DEFAULT_MAX_FILE_BYTES, 1, problems)
    exclude_globs = _strings(raw, "exclude_globs", (), problems)
    sweep = _typed(raw, "sweep", {}, dict, "a map of config keys to lists of values", problems)
    if not all(isinstance(v, list) for v in sweep.values()):
        problems.append("sweep must map config keys to lists of values")
    predictions_path = _typed(raw, "predictions_path", None, str, "a path string", problems)

    if problems:
        raise InvalidConfigError(problems)

    return PipelineConfig(
        repo_root=root_path,
        output_dir=out_path,
        languages=tuple(languages),
        exclude_globs=exclude_globs,
        max_file_bytes=max_file_bytes,
        filters=filters,
        logging_patterns=logging_patterns,
        include_closing_delimiter=include_closer,
        random_starts=random_starts,
        seed=seed,
        eot_token=eot_token,
        holdout_paths=holdout_paths,
        embedder=embedder,
        embedding_dimension=dimension,
        n_neighbors=n_neighbors,
        budget_bytes=budget_bytes,
        generate_endpoint=generate_endpoint,
        gen_max_new_tokens=gen_max_new_tokens,
        gen_timeout_s=float(gen_timeout),
        predictions_path=Path(predictions_path) if predictions_path else None,
        sweep=sweep,
    )
