"""JSONL artifacts: one JSON object per line, sorted keys, raw UTF-8.

Every stage artifact and every JSONL input goes through these two
functions, so the on-disk format and its error messages live in one place.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Sequence


def write_jsonl(rows: Iterable[dict], path: str | Path) -> None:
    """Write each row as one line: sorted keys, unescaped UTF-8, LF endings."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True, ensure_ascii=False) + "\n")


def read_jsonl(path: str | Path, required: Sequence[str] = ()) -> list[dict]:
    """The objects of a JSONL file, skipping blank lines.

    Raises ValueError naming ``path:line`` for invalid JSON, a row that is
    not an object, or a row lacking one of the ``required`` keys.
    """
    rows = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: invalid JSON: {exc}") from None
            if not isinstance(row, dict):
                raise ValueError(f"{path}:{lineno}: expected a JSON object, got {type(row).__name__}")
            missing = [k for k in required if k not in row]
            if missing:
                raise ValueError(f"{path}:{lineno}: missing key(s): {', '.join(missing)}")
            rows.append(row)
    return rows
