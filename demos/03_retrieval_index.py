"""
Exact-kNN retrieval over training pairs
=======================================

Builds a vector index from primary pairs using the built-in deterministic
embedder, runs an exact cosine top-k search for a new query, and shows how
retrieved labels are framed ahead of the prompt.
"""

import tempfile
from pathlib import Path

from scopekit import (
    HashingEmbedder,
    augment_query,
    index_build,
    ingest_repository,
    knn_search,
)
from scopekit.config import PipelineConfig
from scopekit.pipeline import extract_all_scopes, split_pairs

# A few small modules with deliberately different vocabularies, so nearest
# neighbors are easy to eyeball.
PAD = "/* filler so every function sees enough prefix context */\n" * 5
MODULES = {
    "ring.c": PAD + """\
int ring_push(int *ring, int head, int cap, int item) {
    int next = (head + 1) % cap;
    ring[head] = item;
    ring[head] ^= (item >> 2);
    return next;
}
""",
    "checksum.c": PAD + """\
unsigned checksum_bytes(const unsigned char *data, int count) {
    unsigned sum = 0x9e3779b9u;
    for (int i = 0; i < count; i++) {
        sum = (sum << 5) + sum + data[i];
    }
    return sum;
}
""",
    "retry.c": PAD + """\
int retry_delay_ms(int attempt, int base_ms, int cap_ms) {
    int delay = base_ms << attempt;
    if (delay > cap_ms) {
        delay = cap_ms;
    }
    return delay + (attempt * 7) % 13;
}
""",
}

with tempfile.TemporaryDirectory() as root:
    for name, text in MODULES.items():
        (Path(root) / name).write_text(text, encoding="utf-8")
    manifest = ingest_repository(root)
    config = PipelineConfig(repo_root=Path(root), output_dir=Path(root))  # nothing is held out

train, _ = split_pairs(extract_all_scopes(manifest), manifest, config)
pairs = list(train)

# The built-in embedder hashes character n-grams into a fixed-width
# vector: no model weights, byte-for-byte reproducible across machines.
# The index keys the primary pairs; random-start pairs are skipped.
embedder = HashingEmbedder()
index = index_build(pairs, embedder)
print(f"indexed {len(index)} primary pairs of {len(pairs)}")
print(f"index: {len(index)} entries, dimension={index.dimension}, embedder={index.embedder_id}")

# A fresh query that resembles the checksum module more than the others.
query = PAD + "unsigned rolling_hash(const unsigned char *data, int count) {"
neighbors = knn_search(index, embedder.embed(query), n=3)
print("\ntop-3 neighbors (cosine similarity, higher is closer):")
for pair_id, score in neighbors:
    value = index.value_for(pair_id)
    print(f"  {score:+.4f}  {pair_id[:12]}...  {value[:48]!r}")

# The augmented prompt places the retrieved examples it is given (here the
# best two) ahead of the query as comment blocks, best match closest to
# the query, under a byte budget.
prompt = augment_query(query, neighbors[:2], index, budget_bytes=2048)
print("\naugmented prompt:")
print(prompt)
