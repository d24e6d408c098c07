"""The one JSONL format every artifact uses."""

import pytest

from scopekit.jsonl import read_jsonl, write_jsonl


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
