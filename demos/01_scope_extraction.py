"""
From source files to classified scopes
======================================

Walks a tiny C repository through ingestion, delimiter matching, and scope
classification, printing what the machinery sees at each step.
"""

import tempfile
from pathlib import Path

from scopekit import ingest_repository, scan, extract_scopes

SAMPLE = """\
#include <stdio.h>

/* A comment with a { that must not open a scope. */
static const char *banner = "braces in strings { are opaque too";

int clamp(int value, int lo, int hi) {
    if (value < lo) {
        return lo;
    } else {
        printf("clamp hit the ceiling\\n");
    }
    for (int i = 0; i < 3; i++) {
        value -= i;
    }
    return value < hi ? value : hi;
}
"""

# Lay the sample out as a one-file repository and ingest it. Ingestion
# assigns each file a content hash id and canonical UTF-8 bytes.
with tempfile.TemporaryDirectory() as root:
    src = Path(root) / "src"
    src.mkdir()
    (src / "clamp.c").write_text(SAMPLE, encoding="utf-8")
    manifest = ingest_repository(root)

record = manifest.files[0]
print(f"ingested {record.repo_relative_path}: {record.byte_len} bytes,"
      f" language={record.language.value}, id={record.file_id[:12]}...")

# Delimiter matching pairs every brace and parenthesis while treating
# comments, string literals, and preprocessor lines as opaque. The brace
# inside the comment and the one inside the string never show up.
spans = scan(record.content, record.language).pairs
print(f"\n{len(spans)} matched delimiter pairs:")
for span in spans:
    snippet = record.content[span.open_offset : span.close_offset + 1]
    preview = snippet[:34].decode("utf-8", "replace").replace("\n", " ")
    print(f"  {span.delimiter} at [{span.open_offset:4d}, {span.close_offset:4d}]  {preview!r}")

# Classification reads a few tokens behind each opener: "if (" before a
# brace means IF_BODY, a callee name before "(" means FUNC_CALL, and so
# on. Anything ambiguous stays UNCLASSIFIED instead of guessing.
print("\nclassified scopes (depth, bytes, category):")
for cand in extract_scopes(record):
    body = record.content[cand.start_byte : cand.end_byte]
    preview = body[:30].decode("utf-8", "replace").replace("\n", " ")
    print(f"  depth={cand.depth} size={cand.size_bytes:4d}  {cand.category.value:12s}  {preview!r}")
