"""The one JSONL format every artifact uses."""

from scopekit.jsonl import read_jsonl, write_jsonl


def test_sorted_keys_raw_utf8_and_blank_lines(tmp_path):
    path = tmp_path / "rows.jsonl"
    write_jsonl([{"b": "ünï 𝄞", "a": 1}, {"z": None}], path)
    assert path.read_bytes() == '{"a": 1, "b": "ünï 𝄞"}\n{"z": null}\n'.encode("utf-8")
    path.write_text("\n" + path.read_text(encoding="utf-8") + "  \n", encoding="utf-8")
    assert read_jsonl(path) == [{"a": 1, "b": "ünï 𝄞"}, {"z": None}]

