"""Pipeline configuration: a config file, the CLI's stage flags and each
sweep grid point are all read by one loop over SETTINGS, so a setting has
one key, type, range and default whichever way it arrives.

Validation collects every violation before failing, so a bad config is
fixed in one round trip instead of one field at a time.
"""

from __future__ import annotations

import itertools
import json
import re
from dataclasses import dataclass, field, replace
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


def _at_least(minimum: int) -> tuple:
    return int, f"an integer >= {minimum}", lambda v: v >= minimum


_INTEGER = int, "an integer", None
_PATH = str, "a path string", None
_STRINGS = (list, tuple), "a list of strings", lambda v: all(isinstance(x, str) for x in v)

# Every config key -> (the dataclass field it sets, the JSON type its value must have,
# what "<key> must be" then, a range check or None). A dotted key is a key of that section
# of the file; a filters.* key sets a FilterConfig field, any other a PipelineConfig field.
# A stage command's setting flag has its key as argparse dest.
SETTINGS: dict[str, tuple] = {
    "repo_root": ("repo_root", *_PATH),
    "output_dir": ("output_dir", *_PATH),
    "languages": ("languages", *_STRINGS),
    "exclude_globs": ("exclude_globs", *_STRINGS),
    "max_file_bytes": ("max_file_bytes", *_at_least(1)),
    "filters.min_scope_bytes": ("min_scope_bytes", *_INTEGER),
    "filters.max_scope_bytes": ("max_scope_bytes", *_INTEGER),
    "filters.min_prefix_bytes": ("min_prefix_bytes", *_INTEGER),
    "filters.max_prefix_bytes": ("max_prefix_bytes", *_INTEGER),
    "filters.max_depth": ("max_depth", *_INTEGER),
    "filters.category_allowlist": ("category_allowlist", *_STRINGS),
    "filters.exclude_keywords": ("exclude_keywords", *_STRINGS),
    "filters.modified_after": ("modified_after", str, "an ISO-8601 date string", None),
    "pairs.random_starts": ("random_starts", *_at_least(0)),
    "pairs.seed": ("seed", *_INTEGER),
    "pairs.eot_token": ("eot_token", str, "a non-empty string", bool),
    "pairs.include_closing_delimiter": ("include_closing_delimiter", bool, "true or false", None),
    "pairs.holdout_paths": ("holdout_paths", *_STRINGS),
    "pairs.logging_patterns": ("logging_patterns", *_STRINGS),
    "rag.embedder": ("embedder", str, "a string", None),
    "rag.dimension": ("embedding_dimension", *_at_least(1)),
    "rag.n_neighbors": ("n_neighbors", *_at_least(1)),
    "rag.budget_bytes": ("budget_bytes", *_at_least(1)),
    "endpoints.generate": ("generate_endpoint", str, "a URL string", None),
    "generation.max_new_tokens": ("gen_max_new_tokens", *_at_least(1)),
    "generation.timeout_s": ("gen_timeout_s", (int, float), "a positive number", lambda v: v > 0),
    "sweep": ("sweep", dict, "a map of config keys to lists of values", None),
    "predictions_path": ("predictions_path", *_PATH),
}
_SECTIONS = {key.partition(".")[0] for key in SETTINGS if "." in key}


def _read(flat: dict, problems: list[str]) -> dict:
    """Field -> value for each SETTINGS key of ``flat``, a list read as a tuple; a null
    value, or one of the wrong type (a bool is no int) or range, is None."""
    values = {}
    for key in sorted(flat.keys() & SETTINGS.keys()):
        name, kind, want, ok = SETTINGS[key]
        value = flat[key]
        if value is not None and (
            isinstance(value, bool) != (kind is bool) or not isinstance(value, kind) or (ok and not ok(value))
        ):
            problems.append(f"{key} must be {want}")
            value = None
        values[name] = tuple(value) if isinstance(value, list) else value
    return values


def _filters(flat: dict, base: FilterConfig, problems: list[str]) -> FilterConfig:
    """The filters.* keys of ``flat`` laid over ``base``; a null key takes FilterConfig's default."""
    mistyped: list[str] = []
    values = _read(flat, mistyped)
    if values.get("category_allowlist") is not None:
        known, names = {c.value: c for c in ScopeCategory}, values["category_allowlist"]
        problems.extend(f"filters.category_allowlist: unknown category {n!r}" for n in names if n not in known)
        values["category_allowlist"] = frozenset(known[n] for n in names if n in known)
    problems.extend(mistyped)
    default = FilterConfig()
    cfg = replace(base, **{name: getattr(default, name) if v is None else v for name, v in values.items()})
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
    if not all(isinstance(v, list) and v for v in sweep.values()):
        problems.append("sweep must map config keys to non-empty lists of values")
        return []
    keys = sorted(sweep)
    bad = [k for k in keys if not (k.startswith("filters.") and k in SETTINGS)]
    if bad:
        problems.append(f"sweep keys must name a filter (filters.<name>), got {bad}")
        return []
    points = []
    for combo in itertools.product(*(sweep[k] for k in keys)):
        point = dict(zip(keys, combo))
        found: list[str] = []
        filt = _filters(point, filters, found)
        problems.extend(f"sweep point {point}: {p}" for p in found)
        points.append((point, filt))
    return points


def read_config(path: str | Path) -> dict:
    """The JSON object of a config file, unparsed."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise InvalidConfigError([f"config file not found: {path}"])
    except (OSError, UnicodeDecodeError) as exc:  # a directory, say, or not UTF-8
        raise InvalidConfigError([f"config file cannot be read: {path}: {getattr(exc, 'strerror', None) or exc}"])
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
    flat = {k: v for k, v in raw.items() if k in SETTINGS and "." not in k}
    unknown = sorted(raw.keys() - flat.keys() - _SECTIONS)
    if unknown:
        problems.append(f"unknown top-level keys {unknown}")
    block: dict = {}  # the filters section: its problems hold back the range checks and the sweep
    filter_problems: list[str] = []
    for section in sorted(_SECTIONS & raw.keys()):
        if isinstance(raw[section], dict):
            keys = {f"{section}.{k}": v for k, v in raw[section].items()}
            bogus = sorted(k.partition(".")[2] for k in keys if k not in SETTINGS)
            if bogus:
                (filter_problems if section == "filters" else problems).append(f"{section}: unknown keys {bogus}")
            (block if section == "filters" else flat).update(keys)
        elif raw[section] is not None:
            problems.append(f"{section} must be a JSON object")

    filters = _filters(block, FilterConfig(), filter_problems)
    problems.extend(filter_problems)
    values = _read(flat, problems)

    if values.get("languages") is not None:
        known = {lang.value: lang for lang in Language if lang is not Language.OTHER}
        problems.extend(f"languages: unknown language {n!r}" for n in values["languages"] if n not in known)
        values["languages"] = tuple(known[n] for n in values["languages"] if n in known)
        if not values["languages"]:
            problems.append("languages must name at least one of c_cpp, java")
    if values.get("repo_root") and not Path(values["repo_root"]).is_dir():
        problems.append(f"repo_root is not a directory: {values['repo_root']}")
    for key in ("repo_root", "output_dir"):
        if paths_required and not values.get(key):
            problems.append(f"{key} is required")
        values[key] = Path(values.get(key) or ".")
    values["predictions_path"] = Path(values["predictions_path"]) if values.get("predictions_path") else None

    cfg = PipelineConfig(filters=filters, **{name: v for name, v in values.items() if v is not None})
    for pat in cfg.logging_patterns:
        try:
            re.compile(pat)
        except re.error as exc:
            problems.append(f"pairs.logging_patterns: bad regex {pat!r}: {exc}")
    try:
        make_embedder(cfg.embedder, cfg.embedding_dimension)
    except InvalidConfigError as exc:
        problems.extend(exc.problems)
    if not filter_problems:  # every grid point would repeat them
        sweep_points(filters, cfg.sweep, problems)
    if problems:
        raise InvalidConfigError(problems)
    cfg.gen_timeout_s = float(cfg.gen_timeout_s)
    return cfg
