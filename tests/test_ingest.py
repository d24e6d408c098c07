"""Repository walking, language selection, content canonicalization."""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import write_repo

import scopekit
from scopekit.errors import RootNotFoundError
from scopekit.ingest import (
    Language,
    detect_language,
    ingest_repository,
    load_manifest,
    write_manifest,
)


def test_detect_language_by_extension():
    assert detect_language("a/b/x.cpp") is Language.C_CPP
    assert detect_language("x.H") is Language.C_CPP  # case-insensitive
    assert detect_language("Main.java") is Language.JAVA
    assert detect_language("script.py") is Language.OTHER
    assert detect_language("Makefile") is Language.OTHER


def test_ingest_selects_supported_files(tmp_path):
    write_repo(
        tmp_path,
        {
            "src/a.c": "int a;",
            "src/b.java": "class B {}",
            "src/c.py": "pass",
            "README.md": "# hi",
        },
    )
    m = ingest_repository(tmp_path)
    assert [r.repo_relative_path for r in m.files] == ["src/a.c", "src/b.java"]
    assert m.counts == {"c_cpp": 1, "java": 1}
    assert m.files[0].language is Language.C_CPP
    assert m.files[1].language is Language.JAVA


def test_language_restriction(tmp_path):
    write_repo(tmp_path, {"a.c": "int a;", "B.java": "class B {}"})
    m = ingest_repository(tmp_path, languages={Language.JAVA})
    assert [r.repo_relative_path for r in m.files] == ["B.java"]


def test_exclude_globs(tmp_path):
    write_repo(
        tmp_path,
        {
            "src/keep.c": "int k;",
            "build/gen.c": "int g;",
            "src/vendor/third.c": "int t;",
        },
    )
    m = ingest_repository(tmp_path, exclude_globs=("build/*", "**/vendor/*"))
    assert [r.repo_relative_path for r in m.files] == ["src/keep.c"]


def test_leading_double_star_exclude_matches_at_the_root(tmp_path):
    write_repo(tmp_path, {"build/x.c": "int x;", "src/build/y.c": "int y;", "src/keep.c": "int k;"})
    m = ingest_repository(tmp_path, exclude_globs=("**/build/*",))
    assert [r.repo_relative_path for r in m.files] == ["src/keep.c"]


def test_unreadable_file_skipped_with_warning(tmp_path, monkeypatch, caplog):
    # tests may run as root, where chmod cannot make a file unreadable
    write_repo(tmp_path, {"a.c": "int a;", "locked.c": "int l;"})
    real_read_bytes = Path.read_bytes

    def read_bytes(path):
        if path.name == "locked.c":
            raise PermissionError(13, "Permission denied", str(path))
        return real_read_bytes(path)

    monkeypatch.setattr(Path, "read_bytes", read_bytes)
    with caplog.at_level("WARNING", logger="scopekit.ingest"):
        m = ingest_repository(tmp_path)
    assert [r.repo_relative_path for r in m.files] == ["a.c"]
    assert len(caplog.records) == 1
    assert caplog.records[0].getMessage().startswith("skipping unreadable file locked.c: ")


def test_file_id_is_content_hash(tmp_path):
    write_repo(tmp_path, {"one.c": "same text", "two.c": "same text", "three.c": "other"})
    m = ingest_repository(tmp_path)
    ids = {r.repo_relative_path: r.file_id for r in m.files}
    assert ids["one.c"] == ids["two.c"] != ids["three.c"]
    assert len(ids["one.c"]) == 64


def test_deterministic_walk_order(tmp_path):
    files = {f"d{i}/f{j}.c": f"int v{i}{j};" for i in range(3) for j in range(3)}
    write_repo(tmp_path, files)
    a = ingest_repository(tmp_path)
    b = ingest_repository(tmp_path)
    assert [r.repo_relative_path for r in a.files] == [r.repo_relative_path for r in b.files]
    assert [r.file_id for r in a.files] == [r.file_id for r in b.files]
    assert [r.repo_relative_path for r in a.files] == sorted(
        r.repo_relative_path for r in a.files
    )


def test_symlinks_not_followed(tmp_path):
    write_repo(tmp_path, {"real/a.c": "int a;"})
    os.symlink(tmp_path / "real", tmp_path / "alias")
    os.symlink(tmp_path / "real/a.c", tmp_path / "direct.c")
    m = ingest_repository(tmp_path)
    assert [r.repo_relative_path for r in m.files] == ["real/a.c"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no os.mkfifo")
def test_fifo_named_like_source_is_skipped(tmp_path):
    """Reading a FIFO blocks until a writer comes, so ingest runs in a child
    process: a read that hangs fails the test at its timeout."""
    write_repo(tmp_path, {"ok.c": "int ok;"})
    os.mkfifo(tmp_path / "pipe.c")
    src = str(Path(scopekit.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = (
        "import sys; from scopekit.ingest import ingest_repository as i;"
        " print([r.repo_relative_path for r in i(sys.argv[1]).files])"
    )
    argv = [sys.executable, "-c", code, str(tmp_path)]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['ok.c']\n"


def test_file_with_non_utf8_name_skipped_with_warning(tmp_path, caplog):
    write_repo(tmp_path / "repo", {"src/ok.c": "int ok;"})
    try:
        (tmp_path / "repo" / "src" / os.fsdecode(b"caf\xe9.c")).write_text("int cafe;")
    except (OSError, UnicodeError):
        pytest.skip("the filesystem refuses a name that is not UTF-8")
    with caplog.at_level("WARNING", logger="scopekit.ingest"):
        m = ingest_repository(tmp_path / "repo")
    assert [r.repo_relative_path for r in m.files] == ["src/ok.c"]
    assert [r.getMessage() for r in caplog.records] == ["skipping file whose path is not UTF-8: b'src/caf\\xe9.c'"]
    write_manifest(m, tmp_path / "out")  # every path left has a UTF-8 form


def test_oversized_files_skipped(tmp_path, caplog):
    write_repo(tmp_path, {"small.c": "int s;", "big.c": "x" * 5000})
    with caplog.at_level("WARNING"):
        m = ingest_repository(tmp_path, max_file_bytes=1000)
    assert [r.repo_relative_path for r in m.files] == ["small.c"]
    assert any("oversized" in r.message for r in caplog.records)


def test_lossy_decode_flagged_and_canonical(tmp_path, caplog):
    (tmp_path / "latin.c").write_bytes(b"// caf\xe9\nint x;\n")
    with caplog.at_level("WARNING"):
        m = ingest_repository(tmp_path)
    rec = m.files[0]
    assert rec.lossy_decoded
    rec.content.decode("utf-8")  # canonical bytes always decode
    assert rec.byte_len == len(rec.content)
    assert any("lossy" in r.message for r in caplog.records)


def test_clean_utf8_not_flagged(tmp_path):
    (tmp_path / "ok.c").write_bytes("// café\n".encode())
    m = ingest_repository(tmp_path)
    assert not m.files[0].lossy_decoded


def test_missing_root_raises(tmp_path):
    with pytest.raises(RootNotFoundError):
        ingest_repository(tmp_path / "nope")


def test_manifest_roundtrip(tmp_path):
    # U+2028 is a line break to str.splitlines but stays raw inside a JSON string
    write_repo(tmp_path / "repo", {"a.c": "int a;", "sub/b.java": "class B {}", "c\u2028d.c": "int c;"})
    m = ingest_repository(tmp_path / "repo")
    out = tmp_path / "out"
    path, digest = write_manifest(m, out)
    assert path.name == "manifest.jsonl"
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
    back = load_manifest(path)
    assert back.counts == m.counts == {"c_cpp": 2, "java": 1}
    assert [r.file_id for r in back.files] == [r.file_id for r in m.files]
    assert [r.repo_relative_path for r in back.files] == [r.repo_relative_path for r in m.files]
    assert [r.content for r in back.files] == [r.content for r in m.files]
    # loading by directory works too
    assert load_manifest(out).counts == m.counts
    # objects are content-addressed
    for rec in m.files:
        assert (out / "objects" / rec.file_id).read_bytes() == rec.content


def test_manifest_writes_and_reads_each_content_once(tmp_path, monkeypatch):
    write_repo(tmp_path / "repo", {"a/same.c": "int a;", "b/copy.c": "int a;", "c.c": "int c;"})
    m = ingest_repository(tmp_path / "repo")
    writes = []
    real_write_bytes = Path.write_bytes

    def counting_write_bytes(self, data):
        writes.append(self.name)
        return real_write_bytes(self, data)

    monkeypatch.setattr(Path, "write_bytes", counting_write_bytes)
    write_manifest(m, tmp_path / "out")
    assert sorted(writes) == sorted({r.file_id for r in m.files})
    same, copy, _ = load_manifest(tmp_path / "out").files
    assert same.file_id == copy.file_id and same.content is copy.content


@pytest.mark.parametrize("corrupt", ["object", "byte_len"])
def test_load_manifest_checks_each_object(tmp_path, corrupt):
    write_repo(tmp_path / "repo", {"a.c": "int a;", "b.c": "int b;"})
    path, _ = write_manifest(ingest_repository(tmp_path / "repo"), tmp_path / "out")
    header, first, *rest = path.read_text().splitlines()
    row = json.loads(first)
    obj = tmp_path / "out" / "objects" / row["file_id"]
    if corrupt == "object":
        obj.write_bytes(b"//" + obj.read_bytes()[2:])
    else:
        row["byte_len"] += 1
        path.write_text("\n".join([header, json.dumps(row), *rest]) + "\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(obj))}: "):
        load_manifest(path)


def test_identical_files_share_one_content(tmp_path):
    write_repo(tmp_path, {"a/same.c": "int a;", "b/copy.c": "int a;", "c.c": "int c;"})
    same, copy, other = ingest_repository(tmp_path).files
    assert same.content is copy.content
    assert other.content is not same.content


def test_record_by_id(tmp_path):
    write_repo(tmp_path, {"a.c": "int a;"})
    m = ingest_repository(tmp_path)
    rec = m.files[0]
    assert m.record_by_id()[rec.file_id] is rec
