"""JSONL artifacts: one JSON object per line, sorted keys, raw UTF-8.

Every stage artifact and every JSONL input goes through these functions, so
the on-disk format and its error messages live in one place. Writers return
the sha256 of the bytes they wrote, hashed as they are written.
"""

from __future__ import annotations

import bisect
import functools
import hashlib
import itertools
import json
import re
from enum import Enum
from pathlib import Path
from typing import Collection, Iterable, Iterator, Mapping

# A str as a JSON string, quotes included; the C escaper json.dumps uses with
# ensure_ascii=False, so non-ASCII text stays raw.
_escape = json.encoder.encode_basestring


def json_string(text: str) -> bytes:
    """``text`` as a UTF-8 JSON string, without its quotes."""
    return _escape(text)[1:-1].encode("utf-8")


# for the short strings that repeat from row to row: enum values, file ids
json_field = functools.lru_cache(maxsize=256)(json_string)


def write_lines(lines: Iterable[bytes], path: str | Path) -> str:
    """Write the lines' bytes as they come; returns their sha256 hex digest."""
    digest = hashlib.sha256()
    with open(path, "wb", buffering=1 << 20) as fh:
        for line in lines:
            digest.update(line)
            fh.write(line)
    return digest.hexdigest()


def write_jsonl(rows: Iterable[dict], path: str | Path) -> str:
    """Write each row as one line: sorted keys, unescaped UTF-8, LF endings.
    Returns the sha256 hex digest of the file."""
    return write_lines(
        ((json.dumps(row, sort_keys=True, ensure_ascii=False) + "\n").encode("utf-8") for row in rows), path
    )


# JSON escapes '"', '\\' and the controls below 0x20 (RFC 8259 §7): all ASCII
# bytes, each growing by 1 (\n, \") or 5 (\u0001) bytes. A byte from 0x80
# up is part of a multi-byte character, which stays raw.
_ESCAPED_BYTE = re.compile(rb'[\x00-\x1f"\\]')
_GROWTH = bytes(len(_escape(chr(b))) - 3 for b in range(128))


class EscapedUTF8:
    """UTF-8 content escaped once as a JSON string, sliced by content offset.

    Escaping is context-free per code point and touches only ASCII bytes, so
    the escaped form of ``content[a:b]`` (a and b on character boundaries)
    is the slice of the escaped whole between the images of a and b.
    """

    def __init__(self, content: bytes):
        self._escaped = json_string(content.decode("utf-8"))
        self._at = [m.start() for m in _ESCAPED_BYTE.finditer(content)]
        # _grown[k]: how much the first k escaped bytes grew
        self._grown = list(itertools.accumulate((_GROWTH[content[i]] for i in self._at), initial=0))

    def _image(self, offset: int) -> int:
        return offset + self._grown[bisect.bisect_left(self._at, offset)]

    def slice(self, start: int, stop: int) -> bytes:
        """``json_string(content[start:stop].decode())``, cut from the escaped whole."""
        return self._escaped[self._image(start) : self._image(stop)]


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
        elif isinstance(value, str) and not value.isascii():
            try:
                value.encode()
            except UnicodeEncodeError:
                raise ValueError(f"{where}: {key}: holds a lone surrogate, which has no UTF-8 form") from None


def read_jsonl(
    path: str | Path, schema: Mapping[str, type | tuple] = {}, *, optional: Collection = (), one_of=(), header=None
) -> Iterator[dict]:
    """The objects of a JSONL file, skipping blank lines, yielded as read.

    ``schema`` maps a key to its class, a tuple of classes, or an Enum class
    (the value is converted to its member); a bool is no int. Each row
    holds every schema key not in ``optional``, each of the right type, and
    a non-null value for at least one key of each tuple in ``one_of``. A
    ``header`` schema, when given, checks the first row instead. Raises
    ValueError naming ``path:line`` for invalid JSON, a row that is not an
    object, a missing key, a value of the wrong type or a str value with no
    UTF-8 form (a lone surrogate escape), which no writer could write back.
    """
    checks = (header, (), ()) if header is not None else (schema, optional, one_of)
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
            _check_row(row, *checks, f"{path}:{lineno}")
            checks = (schema, optional, one_of)
            yield row
