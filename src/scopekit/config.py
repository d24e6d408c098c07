"""Pipeline configuration: a config file, the CLI's stage flags and each
sweep grid point are all parsed here, so a setting has one key, type, range
and default whichever way it arrives.

Validation collects every violation before failing, so a bad config is
fixed in one round trip instead of one field at a time.
"""

from __future__ import annotations

import itertools
import json
import re
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .errors import InvalidConfigError
from .ingest import DEFAULT_MAX_FILE_BYTES, Language
from .pairs import DEFAULT_EOT_TOKEN, FilterConfig
from .ragindex import DEFAULT_DIMENSION, make_embedder
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
    embedding_dimension: int = DEFAULT_DIMENSION
    n_neighbors: int = 3
    budget_bytes: int = 6144
    generate_endpoint: str | None = None
    gen_max_new_tokens: int = 256
    gen_timeout_s: float = 120.0
    predictions_path: Path | None = None  # EVAL_ONLY input
    sweep: dict[str, list] = field(default_factory=dict)


_DEFAULT = PipelineConfig(repo_root=Path("."), output_dir=Path("."))
_FILTER_KEYS = {f.name for f in fields(FilterConfig)}

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


def _strings(section: dict, where: str, default: tuple | None, problems: list[str]) -> tuple[str, ...] | None:
    def all_str(v):
        return all(isinstance(x, str) for x in v)

    value = _typed(section, where, default, (list, tuple), "a list of strings", problems, all_str)
    return None if value is None else tuple(value)


_NO_FILTERS = FilterConfig()


def _parse_filters(raw: dict, problems: list[str], base: FilterConfig = _NO_FILTERS) -> FilterConfig:
    """The filter keys of ``raw`` laid over ``base``; a null key takes FilterConfig's default."""
    unknown = set(raw) - _FILTER_KEYS
    if unknown:
        problems.append(f"filters: unknown keys {sorted(unknown)}")
    mistyped: list[str] = []
    values = {}
    for name in sorted(_FILTER_KEYS & set(raw)):
        where, default = f"filters.{name}", getattr(_NO_FILTERS, name)
        if name in ("category_allowlist", "exclude_keywords"):
            values[name] = _strings(raw, where, default, mistyped)
        elif name == "modified_after":
            values[name] = _typed(raw, where, default, str, "an ISO-8601 date string", mistyped)
        else:
            values[name] = _typed(raw, where, default, int, "an integer", mistyped)
    if values.get("category_allowlist") is not None:
        known, names = {c.value: c for c in ScopeCategory}, values["category_allowlist"]
        problems.extend(f"filters.category_allowlist: unknown category {n!r}" for n in names if n not in known)
        values["category_allowlist"] = frozenset(known[n] for n in names if n in known)
    problems.extend(mistyped)
    cfg = replace(base, **values)
    if not mistyped:  # a defaulted bad value would only add misleading range problems
        try:
            cfg.validate()
        except InvalidConfigError as exc:
            problems.extend(exc.problems)
    return cfg


def sweep_points(filters: FilterConfig, sweep: dict[str, list], problems: list[str]) -> list[tuple[dict, FilterConfig]]:
    """Every point of a sweep grid (keys sorted, the last varying fastest)
    and the filters it gives laid over ``filters``, each point parsed as a
    filters block of the config file is."""
    if not all(isinstance(v, list) for v in sweep.values()):
        problems.append("sweep must map config keys to lists of values")
        return []
    keys = sorted(sweep)
    bad = [k for k in keys if not k.startswith("filters.") or k[len("filters.") :] not in _FILTER_KEYS]
    if bad:
        problems.append(f"sweep keys must name a filter (filters.<name>), got {bad}")
        return []
    points = []
    for combo in itertools.product(*(sweep[k] for k in keys)):
        point = dict(zip(keys, combo))
        found: list[str] = []
        filt = _parse_filters({k[len("filters.") :]: v for k, v in point.items()}, found, filters)
        problems.extend(f"sweep point {point}: {p}" for p in found)
        points.append((point, filt))
    return points


def read_config(path: str | Path) -> dict:
    """The JSON object of a config file, unparsed."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise InvalidConfigError([f"config file not found: {path}"])
    except json.JSONDecodeError as exc:
        raise InvalidConfigError([f"config is not valid JSON: {exc}"])
    if not isinstance(raw, dict):
        raise InvalidConfigError(["config root must be a JSON object"])
    return raw


def load_config(path: str | Path) -> PipelineConfig:
    """Parse and validate a config file; raises InvalidConfigError listing
    every problem found."""
    return parse_config(read_config(path))


def parse_config(raw: dict, *, paths_required: bool = True) -> PipelineConfig:
    """Parse and validate a config object; raises InvalidConfigError listing
    every problem found. Without ``paths_required`` (a stage command, which
    takes its paths as flags) repo_root and output_dir may be absent."""
    problems: list[str] = []
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        problems.append(f"unknown top-level keys {sorted(unknown)}")
    filters_raw, pairs_raw, rag_raw, endpoints, gen_raw = (
        _typed(raw, name, {}, dict, "a JSON object", problems)
        for name in ("filters", "pairs", "rag", "endpoints", "generation")
    )

    root_path, out_path = Path("."), Path(".")
    repo_root = _typed(raw, "repo_root", None, str, "a path string", problems)
    if repo_root:
        root_path = Path(repo_root)
        if not root_path.is_dir():
            problems.append(f"repo_root is not a directory: {repo_root}")
    elif paths_required:
        problems.append("repo_root is required")
    output_dir = _typed(raw, "output_dir", None, str, "a path string", problems)
    if output_dir:
        out_path = Path(output_dir)
    elif paths_required:
        problems.append("output_dir is required")

    languages = []
    for name in _strings(raw, "languages", tuple(lang.value for lang in _DEFAULT.languages), problems):
        try:
            lang = Language(name)
            if lang is Language.OTHER:
                raise ValueError
            languages.append(lang)
        except ValueError:
            problems.append(f"languages: unknown language {name!r}")
    if not languages:
        problems.append("languages must name at least one of c_cpp, java")

    filter_problems: list[str] = []
    filters = _parse_filters(filters_raw, filter_problems)
    problems.extend(filter_problems)

    d = _DEFAULT  # every default below is PipelineConfig's
    random_starts = _int(pairs_raw, "pairs.random_starts", d.random_starts, 0, problems)
    seed = _typed(pairs_raw, "pairs.seed", d.seed, int, "an integer", problems)
    eot_token = _typed(pairs_raw, "pairs.eot_token", d.eot_token, str, "a non-empty string", problems, bool)
    include_closer = _typed(
        pairs_raw, "pairs.include_closing_delimiter", d.include_closing_delimiter, bool, "true or false", problems
    )
    holdout_paths = _strings(pairs_raw, "pairs.holdout_paths", d.holdout_paths, problems)
    logging_patterns = _strings(pairs_raw, "pairs.logging_patterns", d.logging_patterns, problems)
    for pat in logging_patterns:
        try:
            re.compile(pat)
        except re.error as exc:
            problems.append(f"pairs.logging_patterns: bad regex {pat!r}: {exc}")

    embedder = _typed(rag_raw, "rag.embedder", d.embedder, str, "a string", problems)
    dimension = _int(rag_raw, "rag.dimension", d.embedding_dimension, 1, problems)
    try:
        make_embedder(embedder, dimension)
    except InvalidConfigError as exc:
        problems.extend(exc.problems)
    n_neighbors = _int(rag_raw, "rag.n_neighbors", d.n_neighbors, 1, problems)
    budget_bytes = _int(rag_raw, "rag.budget_bytes", d.budget_bytes, 1, problems)

    generate_endpoint = _typed(endpoints, "endpoints.generate", None, str, "a URL string", problems)
    gen_max_new_tokens = _int(gen_raw, "generation.max_new_tokens", d.gen_max_new_tokens, 1, problems)
    gen_timeout = _typed(
        gen_raw, "generation.timeout_s", d.gen_timeout_s, (int, float), "a positive number", problems, lambda v: v > 0
    )

    max_file_bytes = _int(raw, "max_file_bytes", d.max_file_bytes, 1, problems)
    exclude_globs = _strings(raw, "exclude_globs", d.exclude_globs, problems)
    sweep = _typed(raw, "sweep", {}, dict, "a map of config keys to lists of values", problems)
    if not filter_problems:  # every grid point would repeat them
        sweep_points(filters, sweep, problems)
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
