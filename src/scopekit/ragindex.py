"""Exact-kNN retrieval over completion-pair queries.

Keys are embeddings of primary-pair queries, values the pair labels with
the eot token stripped. The queries go to the embedder as spans of their
files, so the builtin embedder hashes the bytes that queries share once.
Search is a linear cosine scan over every key: no approximation, ties
broken by ascending pair_id, identical keys included, so results are exact
and reproducible. A batch of queries reads the keys once (knn_search_many).
"""

from __future__ import annotations

import functools
import itertools
import json
import logging
import math
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .client import post_json
from .errors import (
    DimensionMismatchError,
    EmbeddingServiceUnavailableError,
    InvalidConfigError,
    MalformedResponseError,
)
from .jsonl import write_lines
from .pairs import CompletionPair, PairKind, Span, merged_runs

logger = logging.getLogger(__name__)

DEFAULT_DIMENSION = 384
_NGRAM_SIZES = (3, 4)  # HashingEmbedder's; part of its embedder_id, so of every index file
_MAX_RUN_BYTES = 1 << 16  # HashingEmbedder's: a run's hashing temporaries stay cache-sized

_FLOAT32_MAX = float(np.finfo(np.float32).max)  # RemoteEmbedder's bound on a vector entry
_EMBED_BATCH_SIZE = 64  # RemoteEmbedder's texts per request
_EMBED_MAX_IN_FLIGHT = 8  # RemoteEmbedder's concurrent requests
_EMBED_TIMEOUT_S = 60.0  # RemoteEmbedder's per-request timeout

_MAGIC = b"SCOPEIDX"
_VERSION = 1

# splitmix64 finalizer constants; all uint64 arithmetic wraps mod 2**64.
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_SALTS = tuple(np.uint64((n * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF) for n in _NGRAM_SIZES)

_BLOCK_ROWS = 512  # queries per float32 product, rows per float64 cast in kNN
# Bytes of one such product. It binds only above _PRODUCT_BYTES / (4 * _BLOCK_ROWS)
# = 16,384 keys: at 94,172 keys it takes 89 queries, the kNN step no longer lifts
# the process peak (by 119 MB at 512 queries) and costs ~9% more time, as each
# product reads every key again; 16 MiB and below cost 1.4x and more.
_PRODUCT_BYTES = 1 << 25
_F32_ROUNDING = 2.0**-24  # float32 unit roundoff


def _mix64(x: np.ndarray) -> np.ndarray:
    x = x.astype(np.uint64, copy=True)
    x ^= x >> np.uint64(30)
    x *= _MIX1
    x ^= x >> np.uint64(27)
    x *= _MIX2
    x ^= x >> np.uint64(31)
    return x


def _ngram_keys(run: memoryview, dimension: int) -> list[np.ndarray]:
    """Per n-gram size, the key 2 * bucket + sign bit of the n-gram starting
    at each position of ``run``."""
    raw = np.frombuffer(run, dtype=np.uint8).astype(np.uint64)
    dim = np.uint64(dimension)
    keys = []
    codes, width = raw, 1  # codes[i]: run[i : i + width] as a big-endian integer
    with np.errstate(over="ignore"):
        for n, salt in zip(_NGRAM_SIZES, _SALTS):
            for width in range(width + 1, n + 1):
                codes = (codes[:-1] << np.uint64(8)) | raw[width - 1 :]
            mixed = _mix64(codes ^ salt)
            keys.append(((mixed % dim) << np.uint64(1) | mixed >> np.uint64(63)).astype(np.intp))
    return keys


class HashingEmbedder:
    """Deterministic char-n-gram feature hashing with signed buckets.

    A self-contained, offline stand-in for a neural sentence embedder: the
    vector is a pure function of the text bytes, L2-normalized, float32.
    Not semantically clever, but stable across runs and machines, which is
    what the index contract needs.

    Texts may be given as Spans of a shared content, such as pair queries
    in their file. Consecutive spans of one content that overlap are
    merged into runs of up to _MAX_RUN_BYTES (merged_runs), each run is
    hashed once, and each span's vector is counted from its slice of the
    run's n-gram keys. The counts are exact, so a vector does not depend
    on the spans around it; their order, file order at best, only decides
    how much hashing is shared. A str is a content of its own.
    """

    def __init__(self, dimension: int = DEFAULT_DIMENSION):
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        self.dimension = dimension

    @property
    def embedder_id(self) -> str:
        grams = "-".join(str(n) for n in _NGRAM_SIZES)
        return f"builtin-ngram-hash/d{self.dimension}/n{grams}"

    def _vectors(self, texts: Sequence[str | Span]) -> np.ndarray:
        # filled in place: stacking one array per text leaves that many freed
        # blocks in the heap, which stays resident and raises peak RSS
        out = np.zeros((len(texts), self.dimension), dtype=np.float32)
        spans = [text if isinstance(text, Span) else _str_span(text) for text in texts]
        for span in spans:
            if span.start == span.stop:
                logger.warning("embedding empty text: zero vector")
        for run, members in merged_runs(spans, _MAX_RUN_BYTES):
            keys = _ngram_keys(memoryview(run.content)[run.start : run.stop], self.dimension)
            for i in members:
                at, length = spans[i].start - run.start, spans[i].stop - spans[i].start
                counts = np.zeros(2 * self.dimension, dtype=np.intp)
                for n, k in zip(_NGRAM_SIZES, keys):
                    counts += np.bincount(k[at : at + max(length - n + 1, 0)], minlength=2 * self.dimension)
                acc = counts[0::2] - counts[1::2]
                # integer sums of squares are exact: this is float64 norm's sqrt(acc @ acc)
                norm = math.sqrt(int(acc @ acc))
                if norm:
                    out[i] = acc / norm
        return out

    def embed(self, text: str) -> np.ndarray:
        return self._vectors([text])[0]

    def embed_texts(self, texts: Sequence[str | Span]) -> np.ndarray:
        return self._vectors(texts)


def _str_span(text: str) -> Span:
    data = text.encode("utf-8")
    return Span(data, 0, len(data))


class RemoteEmbedder:
    """Client for an embedding service speaking POST {"texts": [...]}.

    Batches requests and keeps a bounded number in flight; batch order is
    preserved in the output. Any transport failure or non-200 raises
    EmbeddingServiceUnavailableError; a vector of the wrong width raises
    DimensionMismatchError; any other body than one list per text of
    finite numbers raises MalformedResponseError.
    """

    def __init__(self, endpoint: str, dimension: int = DEFAULT_DIMENSION):
        self.endpoint = endpoint if endpoint.rstrip("/").endswith("/embed") else endpoint.rstrip("/") + "/embed"
        self.dimension = dimension

    @property
    def embedder_id(self) -> str:
        return f"remote/{self.endpoint}/d{self.dimension}"

    def _embed_batch(self, batch: list[str]) -> np.ndarray:
        try:
            status, data = post_json(self.endpoint, {"texts": batch}, _EMBED_TIMEOUT_S)
        except (TimeoutError, ConnectionError) as exc:
            raise EmbeddingServiceUnavailableError(f"embed call failed: {exc}") from exc
        if status != 200:
            raise EmbeddingServiceUnavailableError(f"embed endpoint answered {status}")
        try:
            body = json.loads(data)
            vectors = body["vectors"]
            dim = int(body["dim"])
        except (ValueError, KeyError, TypeError) as exc:
            raise MalformedResponseError(f"bad embed response: {exc}") from exc
        if not isinstance(vectors, list) or not all(isinstance(v, list) for v in vectors):
            raise MalformedResponseError("embed endpoint returned vectors that are not a list of lists")
        if dim != self.dimension or any(len(v) != self.dimension for v in vectors):
            raise DimensionMismatchError(
                f"embed endpoint returned dim {dim}, expected {self.dimension}"
            )
        if len(vectors) != len(batch):
            raise MalformedResponseError(
                f"embed endpoint returned {len(vectors)} vectors for {len(batch)} texts"
            )
        # a bool is no number, and NaN fails the comparison
        if not all(type(x) in (int, float) and abs(x) <= _FLOAT32_MAX for v in vectors for x in v):
            raise MalformedResponseError("embed endpoint returned a vector entry that is not a finite float32")
        return np.asarray(vectors, dtype=np.float32)

    def embed(self, text: str) -> np.ndarray:
        return self.embed_texts([text])[0]

    def embed_texts(self, texts: Sequence[str | Span]) -> np.ndarray:
        if not texts:
            return np.zeros((0, self.dimension), dtype=np.float32)
        texts = [text.text() if isinstance(text, Span) else text for text in texts]
        batches = [texts[i : i + _EMBED_BATCH_SIZE] for i in range(0, len(texts), _EMBED_BATCH_SIZE)]
        with ThreadPoolExecutor(max_workers=_EMBED_MAX_IN_FLIGHT) as pool:
            parts = list(pool.map(self._embed_batch, batches))
        return np.concatenate(parts, axis=0)


def make_embedder(spec: str, dimension: int = DEFAULT_DIMENSION):
    """The embedder a ``rag.embedder`` spec names: "builtin" or "remote:<url>"."""
    if spec == "builtin":
        return HashingEmbedder(dimension)
    if spec.startswith("remote:"):
        return RemoteEmbedder(spec[len("remote:") :], dimension)
    raise InvalidConfigError([f"rag.embedder must be 'builtin' or 'remote:<url>', got {spec!r}"])


def _sized(text: str) -> bytes:
    """``text`` as UTF-8 after its byte length (uint32, little-endian)."""
    data = text.encode("utf-8")
    return struct.pack("<I", len(data)) + data


@dataclass
class VectorIndex:
    dimension: int
    embedder_id: str
    pair_ids: list[str]
    keys: np.ndarray  # (count, dimension) float32
    values: list[str]

    def __len__(self) -> int:
        return len(self.pair_ids)

    @functools.cached_property
    def ranks(self) -> np.ndarray:
        """Each entry's position in ascending pair_id order."""
        ranks = np.empty(len(self), dtype=np.int64)
        ranks[sorted(range(len(self)), key=self.pair_ids.__getitem__)] = np.arange(len(self))
        return ranks

    @functools.cached_property
    def _value_by_id(self) -> dict[str, str]:
        return dict(zip(self.pair_ids, self.values))

    def value_for(self, pair_id: str) -> str:
        return self._value_by_id[pair_id]

    def save(self, path: str | Path) -> str:
        """Binary layout: magic, version, dim, count, embedder_id, then the
        float32 key matrix row-major little-endian, then length-prefixed
        UTF-8 pair_ids and values. Same entries in, same bytes out; returns
        their sha256 hex digest."""
        eid = self.embedder_id.encode("utf-8")
        head = _MAGIC + struct.pack("<IIQI", _VERSION, self.dimension, len(self.pair_ids), len(eid)) + eid
        keys = np.ascontiguousarray(self.keys, dtype="<f4").tobytes()
        entries = (_sized(pid) + _sized(value) for pid, value in zip(self.pair_ids, self.values))
        return write_lines(itertools.chain((head, keys), entries), path)

    @classmethod
    def load(cls, path: str | Path) -> "VectorIndex":
        data = Path(path).read_bytes()
        if data[: len(_MAGIC)] != _MAGIC:
            raise ValueError(f"not an index file: {path}")
        off = len(_MAGIC) + struct.calcsize("<IIQI")
        if len(data) < off:
            raise ValueError(f"truncated index file: {path}")
        version, dim, count, eid_len = struct.unpack_from("<IIQI", data, len(_MAGIC))
        if version != _VERSION:
            raise ValueError(f"unsupported index version {version}")
        if count * dim * 4 > len(data) - off - eid_len:  # before numpy is asked for that many keys
            raise ValueError(f"truncated or corrupt index file: {path}")
        pair_ids = []
        values = []
        try:
            embedder_id = data[off : off + eid_len].decode("utf-8")
            off += eid_len
            keys = np.frombuffer(data, dtype="<f4", count=count * dim, offset=off).reshape(count, dim).copy()
            off += count * dim * 4
            for _ in range(count):
                (n,) = struct.unpack_from("<I", data, off)
                off += 4
                pair_ids.append(data[off : off + n].decode("utf-8"))
                off += n
                (n,) = struct.unpack_from("<I", data, off)
                off += 4
                values.append(data[off : off + n].decode("utf-8"))
                off += n
        except (struct.error, ValueError):  # a length read past the end, or bytes cut mid-character
            off = len(data) + 1
        if off > len(data):  # a slice past the end comes back short, so check the end offset too
            raise ValueError(f"truncated or corrupt index file: {path}")
        if off < len(data):
            raise ValueError(f"index file has {len(data) - off} bytes past its last entry: {path}")
        if not np.isfinite(keys).all():
            raise ValueError(f"index file has non-finite keys: {path}")
        return cls(dimension=dim, embedder_id=embedder_id, pair_ids=pair_ids, keys=keys, values=values)


def index_build(pairs: Iterable[CompletionPair], embedder) -> VectorIndex:
    """Embed the query of each primary pair given (pairs of other kinds are
    skipped); its label minus eot becomes the value.

    Entry order follows input order, so rebuilding from the same pairs with
    the same embedder serializes byte-identically.
    """
    pair_list = [p for p in pairs if p.kind is PairKind.PRIMARY]
    ids = [p.pair_id for p in pair_list]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate pair_ids in index input")
    for p in pair_list:
        if p.query_start == p.part:
            logger.warning("pair %s has an empty query; key will be the zero vector", p.pair_id)
    try:
        keys = embedder.embed_texts([p.query_span for p in pair_list])
    except Exception:
        logger.error(
            "embedding failed while building index (first pair %s)",
            ids[0] if ids else "n/a",
        )
        raise
    values = [p.label_without_eot() for p in pair_list]
    return VectorIndex(
        dimension=embedder.dimension,
        embedder_id=embedder.embedder_id,
        pair_ids=ids,
        keys=keys.astype(np.float32, copy=False),  # both embedders return float32 already
        values=values,
    )


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """Each row's L2 norm in float64, cast _BLOCK_ROWS rows at a time."""
    norms = np.empty(len(rows))
    for k in range(0, len(rows), _BLOCK_ROWS):
        block = rows[k : k + _BLOCK_ROWS].astype(np.float64)
        norms[k : k + _BLOCK_ROWS] = np.sqrt(np.einsum("ij,ij->i", block, block))
    return norms


def _unit_rows(rows: np.ndarray) -> np.ndarray:
    """The rows scaled to unit length, by their largest entry first so no
    square under- or overflows; zero rows stay zero."""
    peak = np.abs(rows).max(axis=1, keepdims=True)
    rows = np.divide(rows, peak, out=np.zeros_like(rows), where=peak != 0.0)
    norms = np.sqrt(np.einsum("ij,ij->i", rows, rows))[:, None]
    return np.divide(rows, norms, out=rows, where=norms != 0.0)


def _cosines(keys: np.ndarray, queries: np.ndarray, rows: np.ndarray, which: np.ndarray) -> np.ndarray:
    """The cosine of key row ``rows[i]`` with query ``which[i]``, each sum
    of float64 products taken exactly rounded by math.fsum: a value does
    not depend on the row's position, so identical keys tie exactly.
    _BLOCK_ROWS rows are cast at a time."""
    qnorms = [math.sqrt(math.fsum(squares)) for squares in (queries * queries).tolist()]
    sims = np.zeros(len(rows))
    for lo in range(0, len(rows), _BLOCK_ROWS):
        cand = keys[rows[lo : lo + _BLOCK_ROWS]].astype(np.float64)
        picked = which[lo : lo + _BLOCK_ROWS]
        parts = zip(cand * queries[picked], cand * cand, picked.tolist())
        for i, (prods, squares, j) in enumerate(parts, start=lo):
            knorm = math.sqrt(math.fsum(squares.tolist()))
            if knorm and qnorms[j]:
                sims[i] = math.fsum(prods.tolist()) / (knorm * qnorms[j])
    return sims


def knn_search_many(index: VectorIndex, query_vecs: Iterable[np.ndarray], n: int) -> list[list[tuple[str, float]]]:
    """Exact top-n of each query by cosine similarity, ties broken by
    ascending pair_id; one list per query, in query order.

    Each list holds fewer than n results only when the index holds fewer
    entries. Similarity to a zero vector is 0.0.

    The keys are read once per block of queries (at most _BLOCK_ROWS, and
    at most _PRODUCT_BYTES of product unless one query alone needs more),
    by one float32 product with the unit-scaled queries; divided by the
    keys' float64 norms, it gives every cosine to within 2 * (dim + 2)
    float32 units of rounding. The entries within twice that of a query's
    n-th best hold its true top n and all ties with it; only those are
    scored exactly (``_cosines``) and ordered. Keys too large or small for
    that bound to hold in float32 are always scored exactly.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    queries = [np.asarray(v, dtype=np.float64).reshape(-1) for v in query_vecs]
    for q in queries:
        if q.shape[0] != index.dimension:
            raise DimensionMismatchError(f"query vector has dim {q.shape[0]}, index has {index.dimension}")
    count = len(index)
    if count == 0 or not queries:
        return [[] for _ in queries]
    queries = np.stack(queries)
    margin = 4 * (index.dimension + 2) * _F32_ROUNDING
    norms = _row_norms(index.keys)
    scaled = (norms >= 2.0**-100) & (norms <= 2.0**100)  # no float32 under- or overflow in the product
    unscaled = (norms != 0.0) & ~scaled
    inverse = np.divide(1.0, norms, out=np.ones_like(norms), where=scaled).astype(np.float32)
    ranks = index.ranks
    candidates = []
    step = max(1, min(_BLOCK_ROWS, _PRODUCT_BYTES // (4 * count)))
    for lo in range(0, len(queries), step):
        unit = _unit_rows(queries[lo : lo + step]).astype(np.float32)
        approx = unit @ index.keys.T
        approx[:, unscaled] = -np.inf
        approx *= inverse
        for row, nonzero in zip(approx, unit.any(axis=1)):
            if not nonzero:  # every similarity is 0.0
                candidates.append(np.flatnonzero(ranks < n))
            else:
                nth = float(np.partition(row, count - n)[count - n]) if n < count else -np.inf
                candidates.append(np.flatnonzero((row >= nth - margin) | unscaled))
        del approx, row  # so the next product is taken after this one is freed
    sizes = [len(c) for c in candidates]
    rows = np.concatenate(candidates)
    sims = _cosines(index.keys, queries, rows, np.repeat(np.arange(len(queries)), sizes))
    results = []
    for lo, hi in itertools.pairwise([0, *itertools.accumulate(sizes)]):
        order = lo + np.lexsort((ranks[rows[lo:hi]], -sims[lo:hi]))[:n]
        results.append([(index.pair_ids[rows[i]], float(sims[i])) for i in order])
    return results


def knn_search(index: VectorIndex, query_vec: np.ndarray, n: int) -> list[tuple[str, float]]:
    """knn_search_many for one query."""
    return knn_search_many(index, [query_vec], n)[0]


def augment_query(
    query: str,
    neighbors: list[tuple[str, float]],
    index: VectorIndex,
    budget_bytes: int = 6144,
) -> str:
    """Frame every retrieved label as a comment block ahead of the query.

    Blocks are laid out least-similar first, so budget truncation drops
    whole blocks from the front (worst neighbor first); headers are
    numbered by similarity rank. The query itself is never truncated: if
    not even one block fits, the query comes back verbatim.
    """
    blocks = [
        f"/* retrieved example {rank} */\n{index.value_for(pid)}\n"
        for rank, (pid, _) in enumerate(neighbors, start=1)
    ]
    blocks.reverse()  # least similar at the front
    query_bytes = len(query.encode("utf-8"))
    sizes = [len(b.encode("utf-8")) for b in blocks]
    while blocks and query_bytes + sum(sizes) > budget_bytes:
        blocks.pop(0)
        dropped_size = sizes.pop(0)
        logger.info("augment_query dropped a %d-byte block to fit budget", dropped_size)
    return "".join(blocks) + query
