"""
Scopes to completion training pairs
===================================

Shows how filtered scopes become query/label pairs: the query is
everything before the scope body, the label is the body plus its closing
delimiter and an end-of-scope token. Also prints the dataset card and the
post-hoc bounds audit.
"""

import json
import tempfile
from collections import Counter
from pathlib import Path

from scopekit import (
    FilterConfig,
    apply_filters,
    extract_scopes,
    ingest_repository,
    make_primary_pair,
    make_random_start_pairs,
)
from scopekit.pairs import check_pair_bounds, dataset_card, write_pairs
from scopekit.pipeline import counted

HEADER = "/* sample accumulator module for the pair-generation demo */\n" * 4

SAMPLE = HEADER + """\
int accumulate(const int *values, int count) {
    int total = 0;
    for (int i = 0; i < count; i++) {
        total += values[i] * values[i];
        total ^= (total >> 3);
    }
    return total;
}

int drain(int total, int step) {
    while (total > step) {
        total -= step;
        step += 1;
    }
    return total;
}
"""

with tempfile.TemporaryDirectory() as root:
    (Path(root) / "acc.c").write_text(SAMPLE, encoding="utf-8")
    manifest = ingest_repository(root)

record = manifest.files[0]
candidates = extract_scopes(record)
print(f"{len(candidates)} raw scope candidates")

# The default bounds mirror the training recipe: scope bodies between 50
# and 1000 bytes, at least 200 bytes of file prefix to condition on, and
# queries capped at 3072 bytes.
cfg = FilterConfig()
kept = apply_filters(candidates, cfg, {record.file_id: record})
print(f"{len(kept)} candidates survive the default filters:")
for cand in kept:
    print(f"  {cand.category.value:10s} bytes=[{cand.start_byte}, {cand.end_byte})"
          f" prefix_available={cand.prefix_available_bytes}")

# A primary pair starts the completion exactly at the scope opener.
pairs = []
for cand in kept:
    pair = make_primary_pair(cand, record.content, cfg)
    if pair is not None:
        pairs.append(pair)
        print(f"\n--- primary pair {pair.pair_id[:12]}... ({pair.category.value}) ---")
        print(f"query tail : ...{pair.query[-60:]!r}")
        print(f"label      : {pair.label[:70]!r}...")
        print(f"mask_len   : {pair.mask_len} (prompt chars to exclude from loss)")

# Random-start variants shift the boundary into the scope body so the
# model also learns mid-scope continuation. Same seed, same pairs.
for cand in kept:
    extra = make_random_start_pairs(cand, record.content, cfg, k=2, seed=7)
    for pair in extra:
        print(f"random-start +{pair.start_shift_bytes:3d} bytes: label begins {pair.label[:28]!r}")
    pairs.extend(extra)

# The dataset card summarizes what was emitted, counted as it is written;
# the bounds checker re-audits the serialized records from scratch.
counts: Counter = Counter()
with tempfile.TemporaryDirectory() as out:
    jsonl = Path(out) / "train_pairs.jsonl"
    write_pairs(counted(pairs, counts), jsonl)  # each query and label is a slice of the file, escaped once
    rows = [json.loads(line) for line in jsonl.read_text(encoding="utf-8").splitlines()]
card = dataset_card(counts, cfg)
print("\ndataset card:")
print(json.dumps(card, indent=2, sort_keys=True))

problems = check_pair_bounds(rows, cfg)
print(f"bounds audit: {len(problems)} violations")
