"""Repository walking and file selection.

Selected source files are normalized to UTF-8 and addressed by a content
hash, so every later stage can refer to file content by a stable id and
byte offsets stay meaningful end to end.
"""

from __future__ import annotations

import dataclasses
import fnmatch
import hashlib
import logging
import os
import stat
from collections import Counter
from datetime import datetime, timezone
from enum import Enum
from pathlib import Path
from typing import Collection

from .errors import RootNotFoundError
from .jsonl import read_jsonl, write_jsonl

logger = logging.getLogger(__name__)

DEFAULT_MAX_FILE_BYTES = 4 * 1024 * 1024

MANIFEST_NAME = "manifest.jsonl"
OBJECTS_DIR = "objects"


class Language(str, Enum):
    C_CPP = "c_cpp"
    JAVA = "java"
    OTHER = "other"


DEFAULT_LANGUAGES = (Language.C_CPP, Language.JAVA)

# Lowercase extension -> language.
DEFAULT_EXTENSION_TABLE = {
    ".c": Language.C_CPP,
    ".h": Language.C_CPP,
    ".cc": Language.C_CPP,
    ".cpp": Language.C_CPP,
    ".cxx": Language.C_CPP,
    ".hpp": Language.C_CPP,
    ".hh": Language.C_CPP,
    ".java": Language.JAVA,
}


def detect_language(path: str | os.PathLike) -> Language:
    """Map a filename to a Language by extension, case-insensitively."""
    ext = os.path.splitext(str(path))[1].lower()
    return DEFAULT_EXTENSION_TABLE.get(ext, Language.OTHER)


@dataclasses.dataclass(frozen=True)
class FileRecord:
    """One ingested file.

    ``content`` is canonical UTF-8: raw bytes if they already decode, else a
    lossy re-encode with replacement characters (flagged). All byte offsets
    downstream index this canonical byte string, and ``byte_len`` equals its
    length.
    """

    file_id: str
    repo_relative_path: str
    language: Language
    content: bytes
    byte_len: int
    modified_at: str
    lossy_decoded: bool = False


@dataclasses.dataclass
class IngestManifest:
    repo_root: str
    files: list[FileRecord]

    @property
    def counts(self) -> dict[str, int]:
        return dict(Counter(r.language.value for r in self.files))

    def record_by_id(self) -> dict[str, FileRecord]:
        """The record that stands for each content: the last copy in path
        order. Keys come in the order each content first appears."""
        return {r.file_id: r for r in self.files}


def _canonicalize(raw: bytes) -> tuple[bytes, bool]:
    try:
        raw.decode("utf-8")
        return raw, False
    except UnicodeDecodeError:
        return raw.decode("utf-8", errors="replace").encode("utf-8"), True


def _file_id(content: bytes) -> str:
    return hashlib.sha256(content).hexdigest()


def _excluded(rel_posix: str, exclude_globs) -> bool:
    for pat in exclude_globs:
        if fnmatch.fnmatch(rel_posix, pat):
            return True
        # convenience: "**/build/*" should also hit paths at the root
        if pat.startswith("**/") and fnmatch.fnmatch(rel_posix, pat[3:]):
            return True
    return False


def ingest_repository(
    root: str | os.PathLike,
    languages: Collection[Language] = DEFAULT_LANGUAGES,
    exclude_globs: tuple[str, ...] = (),
    *,
    max_file_bytes: int = DEFAULT_MAX_FILE_BYTES,
) -> IngestManifest:
    """Walk ``root`` and build a manifest of selected source files.

    Files are selected when their detected language is in ``languages``
    (default: C_CPP and JAVA) and their repo-relative path matches no
    exclude glob. Only regular files are read: symlinks, FIFOs, sockets
    and devices are skipped. Oversized and unreadable files, and files
    whose path is not UTF-8, are skipped with a warning, never fatally; a
    root whose path is not UTF-8 is refused (ValueError).
    """
    rootp = Path(root)
    if not rootp.is_dir():
        raise RootNotFoundError(f"ingest root is not a directory: {root}")
    try:
        str(rootp).encode("utf-8")  # the manifest's repo_root
    except UnicodeEncodeError:
        raise ValueError(f"ingest root's path is not UTF-8: {os.fsencode(rootp)!r}") from None
    records: list[FileRecord] = []
    contents: dict[str, bytes] = {}  # file_id -> its first copy's bytes, which later copies share
    for dirpath, dirnames, filenames in os.walk(rootp, followlinks=False):
        dirnames.sort()
        for name in sorted(filenames):
            lang = detect_language(name)
            if lang not in languages or lang is Language.OTHER:
                continue
            path = Path(dirpath) / name
            rel = path.relative_to(rootp).as_posix()
            if _excluded(rel, exclude_globs):
                continue
            try:
                rel.encode("utf-8")  # a byte that does not decode is held as a lone surrogate
                st = path.lstat()
                if not stat.S_ISREG(st.st_mode):
                    continue
                if st.st_size > max_file_bytes:
                    logger.warning("skipping oversized file %s (> %d bytes)", rel, max_file_bytes)
                    continue
                raw = path.read_bytes()
            except UnicodeEncodeError:
                logger.warning("skipping file whose path is not UTF-8: %r", os.fsencode(rel))
                continue
            except OSError as exc:
                logger.warning("skipping unreadable file %s: %s", rel, exc)
                continue
            content, lossy = _canonicalize(raw)
            if lossy:
                logger.warning("lossy-decoded non-UTF-8 file %s", rel)
            file_id = _file_id(content)
            records.append(
                FileRecord(
                    file_id=file_id,
                    repo_relative_path=rel,
                    language=lang,
                    content=contents.setdefault(file_id, content),
                    byte_len=len(content),
                    modified_at=datetime.fromtimestamp(st.st_mtime, tz=timezone.utc).isoformat(timespec="seconds"),
                    lossy_decoded=lossy,
                )
            )

    records.sort(key=lambda r: r.repo_relative_path)
    return IngestManifest(repo_root=str(rootp), files=records)


def write_manifest(manifest: IngestManifest, out_dir: str | os.PathLike) -> tuple[Path, str]:
    """Write manifest.jsonl plus a content-addressed objects/ sidecar.

    The first JSONL line is the manifest header; each following line is one
    file record. Nothing in it depends on when ingest ran, so the same tree
    gives the same bytes. Returns the manifest path and its sha256.
    """
    out = Path(out_dir)
    objects = out / OBJECTS_DIR
    objects.mkdir(parents=True, exist_ok=True)
    rows = [{"repo_root": manifest.repo_root, "counts": manifest.counts}]
    for rec in manifest.files:
        rows.append(
            {
                "file_id": rec.file_id,
                "path": rec.repo_relative_path,
                "language": rec.language.value,
                "byte_len": rec.byte_len,
                "modified_at": rec.modified_at,
                "lossy_decoded": rec.lossy_decoded,
            }
        )
    for rec in manifest.record_by_id().values():
        (objects / rec.file_id).write_bytes(rec.content)
    path = out / MANIFEST_NAME
    return path, write_jsonl(rows, path)


_HEADER_ROW = {"repo_root": str, "counts": dict}
_FILE_ROW = {
    "file_id": str, "path": str, "language": Language, "byte_len": int, "modified_at": str,
    "lossy_decoded": bool,
}


def load_manifest(manifest_path: str | os.PathLike) -> IngestManifest:
    """Load a manifest written by write_manifest; accepts the file or its dir.
    Its header's counts must be those of its rows."""
    p = Path(manifest_path)
    if p.is_dir():
        p = p / MANIFEST_NAME
    objects = p.parent / OBJECTS_DIR
    rows = read_jsonl(p, _FILE_ROW, optional=("lossy_decoded",), header=_HEADER_ROW)
    header = next(rows, None)
    if header is None:
        raise ValueError(f"{p}: empty manifest, expected a header line")
    file_rows = list(rows)
    # one read per distinct content; records with the same file_id share its bytes
    contents = {fid: (objects / fid).read_bytes() for fid in {d["file_id"] for d in file_rows}}
    for fid, content in contents.items():
        if _file_id(content) != fid:
            raise ValueError(f"{objects / fid}: content does not hash to its file_id")
    for d in file_rows:
        if len(contents[d["file_id"]]) != d["byte_len"]:
            raise ValueError(f"{objects / d['file_id']}: length is not its manifest row's byte_len {d['byte_len']}")
    files = [
        FileRecord(
            file_id=d["file_id"],
            repo_relative_path=d["path"],
            language=d["language"],
            content=contents[d["file_id"]],
            byte_len=d["byte_len"],
            modified_at=d["modified_at"],
            lossy_decoded=d.get("lossy_decoded", False),
        )
        for d in file_rows
    ]
    manifest = IngestManifest(repo_root=header["repo_root"], files=files)
    if header["counts"] != manifest.counts:
        raise ValueError(f"{p}: header counts {header['counts']} are not its rows' counts {manifest.counts}")
    return manifest
