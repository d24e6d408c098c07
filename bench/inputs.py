"""Seeded, hermetic benchmark inputs built from ``tests/fixtures/corpus``.

Nothing here imports scopekit: the inputs are plain files, and the program
under test only ever sees those files. The same seed gives byte-identical
files, paths and modification times.

Corpus files are concatenations of fixture files whose identifiers are
renamed per copy (``name`` -> ``name_<tag>``), so every file's content is
unique except for two stated sources of sharing:

* a duplicate-file share: byte-identical copies of earlier files under
  other paths, drawn without regard to which files are held out;
* a shared-boilerplate share: files that also carry one fixture verbatim,
  so the same scope labels recur across files (and can leak from train
  into test).
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

FIXTURES = Path(__file__).resolve().parent.parent / "tests" / "fixtures" / "corpus"

EOT = "<|endoftext|>"  # scopekit's default eot token, the stub's stop sequence
FIXED_MTIME = 1_700_000_000  # deterministic mtimes; ingest records them
DUPLICATE_SHARE = 0.05  # of all files: byte-identical copies of earlier files
BOILERPLATE_SHARE = 0.1  # of C-family and holdout files: also carry the boilerplate

# Words kept as-is when renaming: language keywords, directive names and the
# type/linkage words the scope classifier looks for.
_KEEP = frozenset(
    """
    alignas alignof and asm auto bool break case catch char class const
    constexpr continue decltype default define defined delete do double
    else elif endif enum error explicit export extern false final float for
    friend goto if ifdef ifndef include inline int long mutable namespace new
    noexcept nullptr operator override pragma private protected public
    register return short signed sizeof static static_assert static_cast
    struct switch template this throw true try typedef typeid typename union
    unsigned using virtual void volatile while abstract assert boolean byte
    extends finally implements import instanceof interface native null
    package record super synchronized throws transient var yield await
    std size_t uint8_t uint16_t uint32_t uint64_t int64_t int32_t
    """.split()
)
_IDENT = re.compile(r"\b[A-Za-z_]\w*")

# Non-BMP and other multi-byte text mixed into eval_long truths.
_WIDE = ["\U0001F600", "\U0001D11E", "\U00020BB7", "é", "中", "\U0001F680"]


@dataclass(frozen=True)
class Fixture:
    name: str
    ext: str
    text: str
    java: bool


def load_fixtures(root: Path = FIXTURES) -> list[Fixture]:
    if not root.is_dir():
        raise FileNotFoundError(f"fixture corpus not found: {root}")
    out = []
    for path in sorted(root.iterdir()):
        if path.is_file():
            out.append(
                Fixture(path.stem, path.suffix, path.read_text(encoding="utf-8"), path.suffix == ".java")
            )
    if not out:
        raise FileNotFoundError(f"fixture corpus is empty: {root}")
    return out


def rename(text: str, tag: str) -> str:
    """Suffix every non-keyword identifier of three or more characters."""

    def sub(m: re.Match) -> str:
        word = m.group()
        if len(word) < 3 or word in _KEEP:
            return word
        return f"{word}_{tag}"

    return _IDENT.sub(sub, text)


def _tag(rng: random.Random) -> str:
    return "".join(rng.choice("abcdefghijklmnopqrstuvwxyz0123456789") for _ in range(5))


@dataclass
class Corpus:
    root: Path
    files: dict[str, bytes]  # repo-relative posix path -> content
    duplicates: int
    boilerplate_files: int
    holdout: list[str] = field(default_factory=list)

    @property
    def identity(self) -> str:
        """sha256 over the sorted (path, file_id) pairs; file_id is the
        content sha256, as ingest computes it for UTF-8 content."""
        h = hashlib.sha256()
        for path in sorted(self.files):
            h.update(path.encode("utf-8") + b"\0")
            h.update(hashlib.sha256(self.files[path]).hexdigest().encode("ascii") + b"\n")
        return h.hexdigest()

    @property
    def total_bytes(self) -> int:
        return sum(len(b) for b in self.files.values())

    def holdout_with_copies(self) -> set[str]:
        """Holdout files that have a byte-identical copy at another path."""
        copies = Counter(self.files.values())
        return {p for p in self.holdout if copies[self.files[p]] > 1}

    def properties(self) -> dict:
        return {
            "files": len(self.files),
            "mb": round(self.total_bytes / 1e6, 4),
            "duplicate_share": round(self.duplicates / len(self.files), 4),
            "boilerplate_share": round(self.boilerplate_files / len(self.files), 4),
            "holdout_files": len(self.holdout),
            "holdout_files_with_copies": len(self.holdout_with_copies()),
            "identity": self.identity,
        }


def _write_tree(root: Path, files: dict[str, bytes]) -> None:
    for rel, data in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
        os.utime(path, (FIXED_MTIME, FIXED_MTIME))


def make_corpus(root: Path, seed: int, *, n_files: int, fixtures_per_file: int, holdout_every: int = 0) -> Corpus:
    """Write a seeded corpus under ``root``.

    ``n_files`` counts every file, duplicates and holdout files included.
    With ``holdout_every`` = n, every n-th fixture (by name) is held out as
    a file of its own, in seeded order; a ``BOILERPLATE_SHARE`` of them, at
    least one, also carries the boilerplate. So the number of test pairs and
    of leaking test labels varies little by seed.
    """
    rng = random.Random(f"corpus:{seed}")
    fixtures = load_fixtures()
    c_family = [f for f in fixtures if not f.java]
    java = [f for f in fixtures if f.java]
    java_share = len(java) / len(fixtures)
    boilerplate = c_family[0]  # fixed, so the tests it adds do not vary by seed

    recipes: list[tuple[list[Fixture], bool, bool]] = []  # (parts, held, boilerplate)
    held_fixtures = fixtures[::holdout_every] if holdout_every else []
    for group in (java, c_family):
        chosen = [f for f in held_fixtures if f in group]
        rng.shuffle(chosen)
        recipes.extend(([f], True, False) for f in chosen)
    n_held = len(recipes)
    if n_held:
        with_boilerplate = set(rng.sample(range(n_held), max(1, round(n_held * BOILERPLATE_SHARE))))
        recipes = [(parts, True, i in with_boilerplate) for i, (parts, _, _) in enumerate(recipes)]
    n_dup = round(n_files * DUPLICATE_SHARE)
    for _ in range(n_files - n_dup - n_held):
        is_java = rng.random() < java_share
        parts = rng.choices(java if is_java else c_family, k=fixtures_per_file)
        recipes.append((parts, False, not is_java and rng.random() < BOILERPLATE_SHARE))

    files: dict[str, bytes] = {}
    originals: list[str] = []
    holdout: list[str] = []
    for parts, held, add_boilerplate in recipes:
        tags = [_tag(rng) for _ in parts]
        chunks = [rename(f.text, tag) for f, tag in zip(parts, tags)]
        if add_boilerplate:
            chunks.insert(rng.randrange(len(chunks) + 1), boilerplate.text)
        rel = f"src/m{rng.randrange(40):02d}/{parts[0].name}_{tags[0]}{parts[0].ext}"
        files[rel] = "\n".join(chunks).encode("utf-8")
        originals.append(rel)
        if held:
            holdout.append(rel)
    for _ in range(n_dup):  # drawn without regard to the holdout
        src = rng.choice(originals)
        stem, ext = os.path.splitext(src.rsplit("/", 1)[1])
        rel = f"src/m{rng.randrange(40):02d}/copy_{_tag(rng)}_{stem}{ext}"
        files[rel] = files[src]
    _write_tree(root, files)
    n_boilerplate = sum(1 for _, _, b in recipes if b)
    return Corpus(root, files, n_dup, n_boilerplate, sorted(holdout))


def code_text(rng: random.Random, fixtures: list[Fixture], length: int) -> str:
    """``length`` characters of renamed fixture text with wide characters mixed in."""
    out = []
    size = 0
    while size < length:
        f = rng.choice(fixtures)
        start = rng.randrange(len(f.text) // 2)
        chunk = rename(f.text[start:], _tag(rng))
        if rng.random() < 0.5:
            at = rng.randrange(len(chunk))
            chunk = chunk[:at] + rng.choice(_WIDE) + chunk[at:]
        out.append(chunk)
        size += len(chunk)
    return "".join(out)[:length]


# Prediction shapes, each with distances known by construction where the
# shape allows it (see checks in run.py).
SHAPES = ("ramble", "cut", "other", "eot")


def shape_text(shape: str, truth: str, other: str, rng: random.Random, ramble: str) -> tuple[str, int]:
    """Prediction text for one shape, and the shape's parameter: the ramble
    length for "ramble", the kept truth length for "cut" and "eot"."""
    if shape == "ramble":
        return truth + ramble, len(ramble)
    if shape == "cut":
        keep = int(len(truth) * rng.uniform(0.6, 0.7))
        return truth[:keep], keep
    if shape == "eot":
        keep = int(len(truth) * rng.uniform(0.6, 0.7))
        return truth[:keep] + EOT + ramble, keep
    return other, 0


def make_predictions(path: Path, seed: int, *, n_records: int, truth_len: int) -> list[dict]:
    """Write an EVAL_ONLY predictions file of long truths; return its records
    with each one's shape and shape parameter."""
    rng = random.Random(f"predictions:{seed}")
    fixtures = load_fixtures()
    truths = [code_text(rng, fixtures, truth_len + rng.randrange(-20, 21)) for _ in range(n_records)]
    shapes = [SHAPES[i % len(SHAPES)] for i in range(n_records)]
    rng.shuffle(shapes)
    records = []
    for i, (truth, shape) in enumerate(zip(truths, shapes)):
        ramble = code_text(rng, fixtures, 240 + rng.randrange(21))
        other = truths[(i + 1) % n_records]
        text, param = shape_text(shape, truth, other, rng, ramble)
        records.append(
            {
                "test_id": f"t{i:04d}",
                "category": f"shape_{shape}",
                "prediction": text,
                "ground_truth": truth,
                "shape": shape,
                "param": param,
            }
        )
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            row = {k: r[k] for k in ("test_id", "category", "prediction", "ground_truth")}
            fh.write(json.dumps(row, ensure_ascii=False, sort_keys=True) + "\n")
    return records
