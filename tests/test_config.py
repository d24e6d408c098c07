"""Config file loading: defaults, overrides, exhaustive validation."""

import json
from pathlib import Path

import pytest

from scopekit.cli import EXIT_CONFIG, main
from scopekit.config import SETTINGS, PipelineConfig, load_config, parse_config, sweep_points
from scopekit.errors import InvalidConfigError
from scopekit.ingest import Language
from scopekit.pipeline import run_sweep
from scopekit.ragindex import HashingEmbedder, make_embedder
from scopekit.scopes import ScopeCategory


def write_cfg(tmp_path, payload: dict):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(payload), encoding="utf-8")
    return p


def minimal(tmp_path) -> dict:
    (tmp_path / "repo").mkdir(exist_ok=True)
    return {"repo_root": str(tmp_path / "repo"), "output_dir": str(tmp_path / "out")}


def test_minimal_config_gets_defaults(tmp_path):
    cfg = load_config(write_cfg(tmp_path, minimal(tmp_path)))
    assert cfg.languages == (Language.C_CPP, Language.JAVA)
    assert cfg.filters.min_scope_bytes == 50
    assert cfg.filters.max_prefix_bytes == 3072
    assert cfg.random_starts == 1 and cfg.seed == 0
    assert cfg.eot_token == "<|endoftext|>"
    assert cfg.embedder == "builtin" and isinstance(make_embedder(cfg.embedder), HashingEmbedder)
    assert cfg.n_neighbors == 3 and cfg.budget_bytes == 6144
    assert cfg.include_closing_delimiter is True
    assert cfg.generate_endpoint is None


def test_full_config_roundtrip(tmp_path):
    payload = minimal(tmp_path)
    payload.update(
        {
            "languages": ["c_cpp"],
            "exclude_globs": ["**/vendor/*"],
            "max_file_bytes": 1024,
            "filters": {
                "min_scope_bytes": 10,
                "max_scope_bytes": 200,
                "min_prefix_bytes": 5,
                "max_prefix_bytes": 100,
                "max_depth": 4,
                "category_allowlist": ["if_body", "func_body"],
                "exclude_keywords": ["TODO"],
            },
            "pairs": {
                "random_starts": 3,
                "seed": 42,
                "eot_token": "<EOS>",
                "include_closing_delimiter": False,
                "holdout_paths": ["src/held.c"],
                "logging_patterns": ["(?i)mylog"],
            },
            "rag": {
                "embedder": "remote:http://127.0.0.1:8811",
                "dimension": 64,
                "n_neighbors": 5,
                "budget_bytes": 2000,
            },
            "endpoints": {"generate": "http://127.0.0.1:8822/generate"},
            "generation": {"max_new_tokens": 99, "timeout_s": 7.5},
        }
    )
    cfg = load_config(write_cfg(tmp_path, payload))
    assert cfg.languages == (Language.C_CPP,)
    assert cfg.max_file_bytes == 1024
    assert cfg.filters.max_depth == 4
    assert cfg.filters.category_allowlist == frozenset(
        {ScopeCategory.IF_BODY, ScopeCategory.FUNC_BODY}
    )
    assert cfg.random_starts == 3 and cfg.seed == 42
    assert cfg.eot_token == "<EOS>" and cfg.include_closing_delimiter is False
    assert cfg.holdout_paths == ("src/held.c",)
    assert cfg.logging_patterns == ("(?i)mylog",)
    assert make_embedder(cfg.embedder, cfg.embedding_dimension).endpoint == "http://127.0.0.1:8811/embed"
    assert cfg.embedding_dimension == 64
    assert cfg.generate_endpoint == "http://127.0.0.1:8822/generate"
    assert cfg.gen_max_new_tokens == 99 and cfg.gen_timeout_s == 7.5


def test_all_problems_reported_at_once(tmp_path):
    payload = {
        "repo_root": str(tmp_path / "missing"),
        "output_dir": str(tmp_path / "out"),
        "languages": ["fortran"],
        "filters": {"min_scope_bytes": 100, "max_scope_bytes": 5, "bogus_key": 1},
        "pairs": {"random_starts": -2, "logging_patterns": ["(unclosed"]},
        "rag": {"dimension": 0},
        "surprise": True,
    }
    with pytest.raises(InvalidConfigError) as err:
        load_config(write_cfg(tmp_path, payload))
    msg = str(err.value)
    for frag in (
        "repo_root is not a directory",
        "unknown language 'fortran'",
        "max_scope_bytes must be >= min_scope_bytes",
        "bogus_key",
        "random_starts",
        "bad regex",
        "rag.dimension",
        "surprise",
    ):
        assert frag in msg, f"missing {frag!r} in: {msg}"


@pytest.mark.parametrize(
    "patch, problem",
    [
        ({"pairs": {"holdout_paths": "ring_buffer.c"}}, "pairs.holdout_paths must be a list of strings"),
        ({"pairs": {"logging_patterns": "log"}}, "pairs.logging_patterns must be a list of strings"),
        ({"exclude_globs": "build/*"}, "exclude_globs must be a list of strings"),
        ({"filters": {"exclude_keywords": "TODO"}}, "filters.exclude_keywords must be a list of strings"),
        ({"pairs": {"include_closing_delimiter": "false"}}, "pairs.include_closing_delimiter must be true or false"),
        ({"pairs": {"seed": True}}, "pairs.seed must be an integer"),
        ({"rag": {"embedder": 5}}, "rag.embedder must be a string"),
        ({"pairs": [1]}, "pairs must be a JSON object"),
        ({"generation": {"timeout_s": "abc"}}, "generation.timeout_s must be a positive number"),
        ({"generation": {"max_new_tokens": "many"}}, "generation.max_new_tokens must be an integer >= 1"),
        ({"endpoints": {"generate": 5}}, "endpoints.generate must be a URL string"),
    ],
)
def test_wrong_value_type_is_a_config_problem(tmp_path, capsys, patch, problem):
    path = write_cfg(tmp_path, {**minimal(tmp_path), **patch})
    with pytest.raises(InvalidConfigError) as err:
        load_config(path)
    assert err.value.problems == [problem]
    assert main(["run", "--config", str(path), "--mode", "ft_export"]) == EXIT_CONFIG
    assert f"config error: {problem}" in capsys.readouterr().err


@pytest.mark.parametrize("section", ["pairs", "rag", "endpoints", "generation"])
def test_unknown_key_in_a_section_is_a_config_problem(tmp_path, capsys, section):
    path = write_cfg(tmp_path, {**minimal(tmp_path), section: {"neighbours": 9}})
    with pytest.raises(InvalidConfigError) as err:
        load_config(path)
    assert err.value.problems == [f"{section}: unknown keys ['neighbours']"]
    assert main(["run", "--config", str(path), "--mode", "ft_export"]) == EXIT_CONFIG
    assert f"config error: {section}: unknown keys ['neighbours']" in capsys.readouterr().err


def test_null_means_default(tmp_path):
    payload = minimal(tmp_path)
    payload.update({"pairs": {"seed": None, "holdout_paths": None}, "endpoints": {"generate": None}})
    cfg = load_config(write_cfg(tmp_path, payload))
    assert cfg.seed == 0 and cfg.holdout_paths == () and cfg.generate_endpoint is None


def test_missing_required_keys(tmp_path):
    with pytest.raises(InvalidConfigError) as err:
        load_config(write_cfg(tmp_path, {}))
    msg = str(err.value)
    assert "repo_root is required" in msg and "output_dir is required" in msg


def test_nonexistent_file_and_bad_json(tmp_path):
    with pytest.raises(InvalidConfigError):
        load_config(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(InvalidConfigError):
        load_config(bad)
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(InvalidConfigError):
        load_config(arr)
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"eot_token": "\xe9"}'.encode("latin-1"))
    for unreadable in (tmp_path, latin1):
        with pytest.raises(InvalidConfigError) as err:
            load_config(unreadable)
        assert err.value.problems[0].startswith(f"config file cannot be read: {unreadable}: ")
        assert main(["run", "--config", str(unreadable), "--mode", "ft_export"]) == EXIT_CONFIG


def test_unknown_category_in_allowlist(tmp_path):
    payload = minimal(tmp_path)
    payload["filters"] = {"category_allowlist": ["if_body", "nonsense"]}
    with pytest.raises(InvalidConfigError) as err:
        load_config(write_cfg(tmp_path, payload))
    assert "unknown category 'nonsense'" in str(err.value)


def test_sweep_must_map_to_lists(tmp_path):
    payload = minimal(tmp_path)
    payload["sweep"] = {"filters.max_depth": 3}
    with pytest.raises(InvalidConfigError) as err:
        load_config(write_cfg(tmp_path, payload))
    assert "sweep" in str(err.value)
    payload["sweep"] = {"filters.max_depth": [1, 2]}
    cfg = load_config(write_cfg(tmp_path, payload))
    assert cfg.sweep == {"filters.max_depth": [1, 2]}


def test_embedder_spelling_checked(tmp_path):
    payload = minimal(tmp_path)
    payload["rag"] = {"embedder": "local"}
    with pytest.raises(InvalidConfigError) as err:
        load_config(write_cfg(tmp_path, payload))
    assert "rag.embedder" in str(err.value)


def test_programmatic_config_usable_without_file(tmp_path):
    cfg = PipelineConfig(repo_root=tmp_path, output_dir=tmp_path / "out")
    assert isinstance(make_embedder(cfg.embedder, cfg.embedding_dimension), HashingEmbedder)
    cfg2 = PipelineConfig(
        repo_root=tmp_path, output_dir=tmp_path / "out", embedder="remote:http://h:1"
    )
    assert make_embedder(cfg2.embedder, cfg2.embedding_dimension).endpoint == "http://h:1/embed"


def test_sweep_rejects_non_filter_keys(tmp_path):
    payload = minimal(tmp_path)
    payload["sweep"] = {"rag.dimension": [64, 128]}
    with pytest.raises(InvalidConfigError):
        load_config(write_cfg(tmp_path, payload))
    payload["sweep"] = {}
    with pytest.raises(InvalidConfigError):
        run_sweep(load_config(write_cfg(tmp_path, payload)))


@pytest.mark.parametrize(
    "sweep, problem",
    [
        ({"filters.min_scope_bytes": ["abc"]}, "filters.min_scope_bytes must be an integer"),
        ({"filters.bogus": [1]}, "sweep keys must name a filter"),
        ({"filters.min_scope_bytes": [0, "x"]}, "sweep point {'filters.min_scope_bytes': 'x'}"),
        ({"filters.exclude_keywords": ["return"]}, "filters.exclude_keywords must be a list of strings"),
        ({"filters.max_scope_bytes": [5], "filters.min_scope_bytes": [0, 10]}, "max_scope_bytes must be >="),
        ({"filters.category_allowlist": [["nonsense"]]}, "unknown category 'nonsense'"),
        ({"filters.max_depth": []}, "sweep must map config keys to non-empty lists of values"),
    ],
)
def test_bad_sweep_point_fails_at_load(tmp_path, sweep, problem):
    payload = {**minimal(tmp_path), "sweep": sweep}
    with pytest.raises(InvalidConfigError) as err:
        load_config(write_cfg(tmp_path, payload))
    assert len(err.value.problems) == 1 and problem in err.value.problems[0]


def test_sweep_points_parse_like_the_filters_block(tmp_path):
    payload = minimal(tmp_path)
    payload["filters"] = {"max_depth": 4, "min_scope_bytes": 7}
    payload["sweep"] = {
        "filters.exclude_keywords": [["return"]],
        "filters.max_depth": [None, 2],
        "filters.category_allowlist": [["if_body"]],
    }
    cfg = load_config(write_cfg(tmp_path, payload))
    problems = []
    points = sweep_points(cfg.filters, cfg.sweep, problems)
    assert problems == []
    assert [point["filters.max_depth"] for point, _ in points] == [None, 2]
    for _, filters in points:
        assert filters.exclude_keywords == ("return",)
        assert filters.category_allowlist == frozenset({ScopeCategory.IF_BODY})
        assert filters.min_scope_bytes == 7  # the filters block is the base of every point
    assert [f.max_depth for _, f in points] == [None, 2]  # null is FilterConfig's default, not the base's


def test_readme_example_config_names_every_setting(tmp_path):
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    example = json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])
    keys = set()
    for key, value in example.items():
        if isinstance(value, dict) and key != "sweep":
            keys.update(f"{key}.{name}" for name in value)
        else:
            keys.add(key)
    assert keys == set(SETTINGS)
    example["repo_root"] = str(tmp_path)
    parse_config(example)  # and every value in it is valid
