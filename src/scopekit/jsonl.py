"""JSONL artifacts: one JSON object per line, sorted keys, raw UTF-8.

Every stage artifact and every JSONL input goes through these two
functions, so the on-disk format and its error messages live in one place.
"""

from __future__ import annotations

import json
from enum import Enum
from pathlib import Path
from typing import Collection, Iterable, Mapping


def write_jsonl(rows: Iterable[dict], path: str | Path) -> None:
    """Write each row as one line: sorted keys, unescaped UTF-8, LF endings."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True, ensure_ascii=False) + "\n")


def _check_row(row: dict, schema: Mapping[str, type | tuple], optional: Collection[str], one_of, where: str) -> None:
    missing = [k for k in schema if k not in row and k not in optional]
    missing += [" or ".join(keys) for keys in one_of if all(row.get(k) is None for k in keys)]
    if missing:
        raise ValueError(f"{where}: missing key(s): {', '.join(missing)}")
    for key, kind in schema.items():
        if key not in row:
            continue
        value = row[key]
        if isinstance(kind, type) and issubclass(kind, Enum):
            try:
                row[key] = kind(value)
            except ValueError:
                raise ValueError(f"{where}: {key}: {value!r} is not a valid {kind.__name__}") from None
        elif not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
            want = " or ".join(k.__name__ for k in (kind if isinstance(kind, tuple) else (kind,)))
            raise ValueError(f"{where}: {key}: expected {want}, got {type(value).__name__}")


def read_jsonl(
    path: str | Path, schema: Mapping[str, type | tuple] = {}, *, optional: Collection = (), one_of=(), header=None
) -> list[dict]:
    """The objects of a JSONL file, skipping blank lines.

    ``schema`` maps a key to its class, a tuple of classes, or an Enum class
    (the value is converted to its member); a bool is no int. Each row
    holds every schema key not in ``optional``, each of the right type, and
    a non-null value for at least one key of each tuple in ``one_of``. A
    ``header`` schema, when given, checks the first row instead. Raises
    ValueError naming ``path:line`` for invalid JSON, a row that is not an
    object, a missing key or a value of the wrong type.
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
            if header is not None and not rows:
                _check_row(row, header, (), (), f"{path}:{lineno}")
            else:
                _check_row(row, schema, optional, one_of, f"{path}:{lineno}")
            rows.append(row)
    return rows
