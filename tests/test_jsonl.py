"""The one JSONL format every artifact uses."""

import json

import pytest

from scopekit.jsonl import json_string, read_jsonl, row_template, write_jsonl
from scopekit.pairs import PairKind


def test_sorted_keys_raw_utf8_and_blank_lines(tmp_path):
    path = tmp_path / "rows.jsonl"
    write_jsonl([{"b": "ünï 𝄞", "a": 1}, {"z": None}], path)
    assert path.read_bytes() == '{"a": 1, "b": "ünï 𝄞"}\n{"z": null}\n'.encode("utf-8")
    path.write_text("\n" + path.read_text(encoding="utf-8") + "  \n", encoding="utf-8")
    assert list(read_jsonl(path)) == [{"a": 1, "b": "ünï 𝄞"}, {"z": None}]
    # rows are yielded as they are read: those before a bad line come first
    path.write_text('{"a": 1}\n\n{"b": 2}\nnot json\n{"c": 3}\n', encoding="utf-8")
    rows = read_jsonl(path)
    assert next(rows) == {"a": 1} and next(rows) == {"b": 2}
    with pytest.raises(ValueError, match=r"rows\.jsonl:4: invalid JSON"):
        next(rows)


def test_row_template_fills_in_write_jsonls_row():
    """A schema's template, given ints as they are and every other value
    already escaped, is the line write_jsonl writes for the row."""
    schema = {"size": int, "name": str, "kind": PairKind, "at": int}
    row = {"size": 7, "name": 'a "q"\n\u00e9\U0001d11e', "kind": PairKind.RANDOM_START, "at": -2}
    filled = row_template(schema) % tuple(
        row[k] if schema[k] is int else json_string(row[k]) for k in sorted(schema)
    )
    assert filled == (json.dumps(row, sort_keys=True, ensure_ascii=False) + "\n").encode("utf-8")
