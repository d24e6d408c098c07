"""Embedding, exact-kNN retrieval, binary index format, prompt assembly."""

import hashlib
import itertools
import json
import math
import random
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import oracle_cosine, oracle_embed, oracle_knn

from scopekit import ragindex
from scopekit.config import PipelineConfig
from scopekit.errors import (
    DimensionMismatchError,
    EmbeddingServiceUnavailableError,
    MalformedResponseError,
)
from scopekit.pairs import FilterConfig, Span, make_primary_pair, read_pairs
from scopekit.pipeline import Mode, run_pipeline
from scopekit.ragindex import (
    DEFAULT_DIMENSION,
    HashingEmbedder,
    RemoteEmbedder,
    VectorIndex,
    augment_query,
    index_build,
    knn_search,
    knn_search_many,
)
from test_pairs import LOOSE, candidate


def knn_similarity(a, b) -> float:
    """The similarity knn_search reports for query a against the one key b."""
    index = VectorIndex(len(b), "test", ["b"], np.asarray([b], dtype=np.float64), ["B"])
    [(_, sim)] = knn_search(index, a, 1)
    return sim


def build_index(texts, dim=16):
    emb = HashingEmbedder(dimension=dim)
    pairs = []
    for i, t in enumerate(texts):
        content = f"{t}{{body{i:04d}xx}}".encode()
        c = candidate(content, len(t) + 1, len(content) - 1, file_id=f"{i:064x}")
        pairs.append(make_primary_pair(c, content, LOOSE))
    return index_build(pairs, emb), emb, pairs


# ------------------------------------------------------------- embedder


def test_embed_deterministic_unit_norm():
    emb = HashingEmbedder()
    v1 = emb.embed("int main() { return 0; }")
    v2 = emb.embed("int main() { return 0; }")
    assert np.array_equal(v1, v2)
    assert v1.dtype == np.float32 and v1.shape == (DEFAULT_DIMENSION,)
    assert math.isclose(float(np.linalg.norm(v1.astype(np.float64))), 1.0, rel_tol=1e-6)


def test_embed_distinguishes_texts():
    emb = HashingEmbedder(dimension=64)
    assert not np.array_equal(emb.embed("alpha beta gamma"), emb.embed("delta epsilon"))


def test_embed_empty_text_zero_vector(caplog):
    emb = HashingEmbedder(dimension=8)
    with caplog.at_level("WARNING"):
        v = emb.embed("")
    assert np.array_equal(v, np.zeros(8, dtype=np.float32))
    # texts shorter than the smallest n-gram also land on zero
    assert np.array_equal(emb.embed("ab"), np.zeros(8, dtype=np.float32))


def test_embedder_id_reflects_shape():
    assert HashingEmbedder().embedder_id == "builtin-ngram-hash/d384/n3-4"
    assert HashingEmbedder(dimension=64).embedder_id == "builtin-ngram-hash/d64/n3-4"


def test_similar_texts_score_higher():
    emb = HashingEmbedder()
    a = emb.embed("for (int i = 0; i < n; i++) { sum += v[i]; }")
    b = emb.embed("for (int j = 0; j < n; j++) { sum += w[j]; }")
    c = emb.embed("static const char* kTableName = \"users\";")
    assert knn_similarity(a, b) > knn_similarity(a, c)


def test_embed_texts_matches_single_calls():
    emb = HashingEmbedder(dimension=32)
    texts = ["one two three", "four five", "six seven eight nine"]
    stacked = emb.embed_texts(texts)
    for i, t in enumerate(texts):
        assert stacked[i].tobytes() == oracle_embed(t, 32).tobytes()
        assert emb.embed(t).tobytes() == oracle_embed(t, 32).tobytes()


def test_embed_texts_warns_once_per_empty_text(caplog):
    emb = HashingEmbedder(dimension=8)
    with caplog.at_level("WARNING", logger="scopekit.ragindex"):
        out = emb.embed_texts(["", "abcdef", "", "bcdefg"])
    assert [r.getMessage() for r in caplog.records] == ["embedding empty text: zero vector"] * 2
    assert not out[0].any() and not out[2].any()
    assert out[3].tobytes() == oracle_embed("bcdefg", 8).tobytes()


# a small alphabet and long runs of one letter repeat heads, so a text's
# first bytes occur at many places of the one before it; the rest is any
# code point, non-BMP included
_CONTENT_CHAR = st.one_of(
    st.sampled_from([*"ab{}; \n", "x" * 100]),
    st.sampled_from("é€𝄞😀"),
    st.characters(exclude_categories=["Cs"]),
)


@st.composite
def overlapping_texts(draw):
    """Texts cut from one content the way pair queries are, in file order or
    shuffled, with repeats, unrelated, empty and under-3-byte texts among them."""
    content = "".join(draw(st.lists(_CONTENT_CHAR, max_size=300)))
    step = draw(st.integers(1, 40))
    width = draw(st.integers(1, 120))
    starts = range(0, len(content) + 1, step)
    texts = [content[a : a + width] for a in starts] + [content[:a] for a in starts]
    for _ in range(draw(st.integers(0, 6))):
        tiny = st.text(st.sampled_from("ab{}; \né€𝄞😀"), max_size=2)
        extra = draw(st.one_of(st.sampled_from(texts), st.text(max_size=40), tiny))
        texts.insert(draw(st.integers(0, len(texts))), extra)
    if draw(st.booleans()):
        texts = draw(st.permutations(texts))
    return texts


@settings(max_examples=150, deadline=None)
@given(texts=overlapping_texts(), dimension=st.sampled_from([1, 7, 64]))
def test_embed_texts_matches_oracle_on_overlapping_windows(texts, dimension):
    out = HashingEmbedder(dimension).embed_texts(texts)
    assert out.shape == (len(texts), dimension) and out.dtype == np.float32
    for row, text in zip(out, texts):
        assert row.tobytes() == oracle_embed(text, dimension).tobytes()


@st.composite
def content_spans(draw):
    """A content and spans of it on character boundaries, in any order, with
    repeats and empty and under-3-byte spans among them."""
    content = "".join(draw(st.lists(_CONTENT_CHAR, max_size=300)))
    bounds = list(itertools.accumulate((len(c.encode()) for c in content), initial=0))
    data = content.encode()
    cut = st.integers(0, len(content))
    spans = [Span(data, bounds[a], bounds[max(a, b)]) for a, b in draw(st.lists(st.tuples(cut, cut), max_size=40))]
    return spans


@settings(max_examples=150, deadline=None)
@given(spans=content_spans(), dimension=st.sampled_from([1, 7, 64]))
def test_embed_texts_matches_oracle_on_spans(spans, dimension):
    out = HashingEmbedder(dimension).embed_texts(spans)
    for row, span in zip(out, spans):
        assert row.tobytes() == oracle_embed(span.text(), dimension).tobytes()


def test_embed_texts_matches_oracle_across_run_cap():
    """Spans of one content merge into runs by offset; the content is past
    a 64 KiB run, so the runs restart at their size cap."""
    rng = random.Random(5)
    content = "".join(rng.choice("int x = f(y);\n{}é") for _ in range(80_000))
    data = content.encode()
    bounds = list(itertools.accumulate((len(c.encode()) for c in content), initial=0))
    windows = [(a, a + 4000) for a in range(0, len(content) - 4000, 1900)]
    out = HashingEmbedder(16).embed_texts([Span(data, bounds[a], bounds[b]) for a, b in windows])
    assert bounds[-1] > 1 << 16
    for row, (a, b) in zip(out, windows):
        assert row.tobytes() == oracle_embed(content[a:b], 16).tobytes()


def counting_mix64(monkeypatch) -> list[int]:
    """How many values each _mix64 call from now on hashes."""
    hashed = []
    real_mix64 = ragindex._mix64

    def counting(x):
        hashed.append(len(x))
        return real_mix64(x)

    monkeypatch.setattr(ragindex, "_mix64", counting)
    return hashed


def test_embed_texts_hashes_overlapping_windows_once(monkeypatch):
    """40 sliding windows of one content, given as spans of it: each n-gram
    size hashes at most the content once, not every window again."""
    rng = random.Random(7)
    content = "".join(rng.choice("abcdefgh(){};\n ") for _ in range(6000)).encode()
    spans = [Span(content, a, a + 3072) for a in range(0, 40 * 73, 73)]
    hashed = counting_mix64(monkeypatch)
    out = HashingEmbedder().embed_texts(spans)
    assert sum(hashed) <= 2 * len(content)
    for k in (0, 17, 39):
        assert out[k].tobytes() == oracle_embed(spans[k].text(), DEFAULT_DIMENSION).tobytes()


def test_index_build_hashes_overlapping_pairs_once(monkeypatch):
    """40 primary pairs of one file, whose queries overlap: index_build hashes
    at most the bytes the queries cover, per n-gram size."""
    rng = random.Random(11)
    content = "".join(rng.choice("abcdefgh();\n ") for _ in range(8000)).encode()
    cfg = FilterConfig(min_scope_bytes=0, max_scope_bytes=10_000, min_prefix_bytes=0, max_prefix_bytes=3072)
    pairs = [make_primary_pair(candidate(content, s, s + 20), content, cfg) for s in range(500, 500 + 40 * 97, 97)]
    covered = set()
    for p in pairs:
        covered.update(range(p.query_start, p.part))
    hashed = counting_mix64(monkeypatch)
    index = index_build(pairs, HashingEmbedder())
    assert len(index) == 40 and len(hashed) == 2  # one run, hashed once per n-gram size
    assert max(hashed) <= len(covered)
    for k in (0, 21, 39):
        assert index.keys[k].tobytes() == oracle_embed(pairs[k].query, DEFAULT_DIMENSION).tobytes()


def test_fixture_corpus_index_golden_hash(tmp_path):
    """Index bytes are pinned across commits, not only between two builds."""
    corpus = Path(__file__).parent / "fixtures" / "corpus"
    cfg = PipelineConfig(repo_root=corpus, output_dir=tmp_path / "out", random_starts=2, seed=1)
    out = run_pipeline(cfg, Mode.FT_EXPORT).out_dir
    index = index_build(read_pairs(out / "train_pairs.jsonl"), HashingEmbedder())
    assert len(index) == 132
    index.save(tmp_path / "train.index")
    digest = hashlib.sha256((tmp_path / "train.index").read_bytes()).hexdigest()
    assert digest == "5709c33e2c5038a95316bca100159a75ea849cf3224377edd4e7d83982519520"


# ------------------------------------------------------------- remote


def test_remote_embedder_roundtrip(stub_service):
    emb = RemoteEmbedder(stub_service.base_url, dimension=8)
    out = emb.embed_texts(["hello", "world", "again"])
    assert out.shape == (3, 8) and out.dtype == np.float32
    assert np.array_equal(out[0], emb.embed("hello"))


def test_remote_embedder_batches_preserve_order(stub_service, monkeypatch):
    monkeypatch.setattr(ragindex, "_EMBED_BATCH_SIZE", 2)
    monkeypatch.setattr(ragindex, "_EMBED_MAX_IN_FLIGHT", 3)
    emb = RemoteEmbedder(stub_service.base_url, dimension=8)
    texts = [f"text number {i}" for i in range(9)]
    out = emb.embed_texts(texts)
    one_by_one = np.stack([emb.embed(t) for t in texts])
    assert np.array_equal(out, one_by_one)


def test_remote_embedder_dimension_mismatch(stub_service):
    emb = RemoteEmbedder(stub_service.base_url, dimension=12)  # stub returns 8
    with pytest.raises(DimensionMismatchError):
        emb.embed("x")


def answer(body):
    """What post_json returns for a service that answers 200 with ``body``."""
    return 200, json.dumps(body).encode()


def answer_with(vector_for):
    """A stand-in for post_json whose service answers 200 with one
    vector_for(text) per text, at dim 8."""
    return lambda url, payload, timeout, headers=None: answer(
        {"vectors": [vector_for(t) for t in payload["texts"]], "dim": 8}
    )


@pytest.mark.parametrize(
    "vector_for",
    [
        lambda t: [None] * 8,
        lambda t: [0.5] * 7 + [True],
        lambda t: [0.5] * 7 + [float("nan")],
        lambda t: [0.5] * 7 + [float("-inf")],
        lambda t: [0.5] * 7 + [1e39],  # finite in JSON, inf as float32
        lambda t: [0.5] * 7 + [10**400],
        lambda t: [0.5] * 7 + ["1.0"],
        lambda t: [[0.5]] * 8,
    ],
    ids=["null", "bool", "nan", "inf", "float32-overflow", "huge-int", "string", "nested"],
)
def test_remote_embedder_rejects_non_numeric_entries(monkeypatch, vector_for):
    monkeypatch.setattr(ragindex, "post_json", answer_with(vector_for))
    with pytest.raises(MalformedResponseError, match="not a finite float32"):
        RemoteEmbedder("http://embed.invalid", dimension=8).embed_texts(["a", "b"])


@pytest.mark.parametrize(
    "vectors", [5, None, "vectors", [5, 6], {"a": [0.5] * 8}], ids=["int", "null", "string", "ints", "object"]
)
def test_remote_embedder_rejects_vectors_not_a_list_of_lists(monkeypatch, vectors):
    monkeypatch.setattr(
        ragindex, "post_json", lambda url, payload, timeout, headers=None: answer({"vectors": vectors, "dim": 8})
    )
    with pytest.raises(MalformedResponseError, match="not a list of lists"):
        RemoteEmbedder("http://embed.invalid", dimension=8).embed_texts(["a", "b"])


def test_remote_embedder_accepts_ints_and_floats(monkeypatch):
    monkeypatch.setattr(ragindex, "post_json", answer_with(lambda t: [1, -2, 0.5, 0, 0, 0, 0, 3.4e38]))
    out = RemoteEmbedder("http://embed.invalid", dimension=8).embed_texts(["a", "b"])
    assert out.dtype == np.float32 and np.isfinite(out).all()
    assert out[1].tolist() == [1.0, -2.0, 0.5, 0.0, 0.0, 0.0, 0.0, float(np.float32(3.4e38))]


def test_remote_embedder_unreachable():
    emb = RemoteEmbedder("http://127.0.0.1:9", dimension=8)
    with pytest.raises(EmbeddingServiceUnavailableError):
        emb.embed("x")


@pytest.mark.parametrize("endpoint", ["localhost:9", "localhost"])
def test_remote_embedder_scheme_less_endpoint_is_unavailable(endpoint):
    with pytest.raises(EmbeddingServiceUnavailableError, match="embed call failed"):
        RemoteEmbedder(endpoint, dimension=8).embed("x")


# ------------------------------------------------------------- index io


def test_index_build_preserves_input_order_and_values():
    idx, _, pairs = build_index(["alpha code", "beta code", "gamma code"])
    assert idx.pair_ids == [p.pair_id for p in pairs]
    assert idx.values == [p.label_without_eot() for p in pairs]
    assert idx.keys.shape == (3, 16)
    assert idx.value_for(pairs[1].pair_id) == pairs[1].label_without_eot()


def test_index_build_holds_the_keys_once():
    """The embedder's float32 key matrix becomes the index's keys as it is:
    index_build's tracemalloc peak stays below 1.5 times the matrix (a
    copy of it would take the peak to twice)."""
    contents = [f"int f{i}(int x) {{ return x; }}".encode() for i in range(2000)]
    pairs = [
        make_primary_pair(candidate(c, c.index(b"{") + 1, len(c) - 1, file_id=f"{i:064x}"), c, LOOSE)
        for i, c in enumerate(contents)
    ]
    embedder = HashingEmbedder(dimension=2048)
    tracemalloc.start()
    try:
        index = index_build(pairs, embedder)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert index.keys.dtype == np.float32 and len(index) == 2000
    assert peak < 1.5 * index.keys.nbytes, f"peak {peak / 1e6:.1f} MB for {index.keys.nbytes / 1e6:.1f} MB of keys"


def test_index_build_skips_non_primary_and_rejects_duplicates():
    from scopekit.pairs import make_random_start_pairs

    content = b"prefix....{abcdefgh}"
    c = candidate(content, 11, 19)
    prim = make_primary_pair(c, content, LOOSE)
    rnd = make_random_start_pairs(c, content, LOOSE, k=2, seed=0)
    assert rnd
    emb = HashingEmbedder(dimension=8)
    idx = index_build([rnd[0], prim, *rnd[1:]], emb)
    assert idx.pair_ids == [prim.pair_id]
    assert idx.values == [prim.label_without_eot()]
    assert np.array_equal(idx.keys, emb.embed_texts([prim.query]))
    with pytest.raises(ValueError):
        index_build([prim, prim], emb)


def test_save_load_roundtrip(tmp_path):
    idx, _, _ = build_index(["alpha", "beta", "gamma"], dim=8)
    path = tmp_path / "t.index"
    idx.save(path)
    back = VectorIndex.load(path)
    assert back.dimension == idx.dimension
    assert back.embedder_id == idx.embedder_id
    assert back.pair_ids == idx.pair_ids
    assert back.values == idx.values
    assert np.array_equal(back.keys, idx.keys)


def test_index_rebuild_byte_identical(tmp_path):
    texts = [f"function variant number {i}" for i in range(20)]
    a, _, _ = build_index(texts)
    b, _, _ = build_index(texts)
    pa, pb = tmp_path / "a.index", tmp_path / "b.index"
    a.save(pa)
    b.save(pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_index_header_fields(tmp_path):
    idx, emb, _ = build_index(["only one entry"], dim=8)
    path = tmp_path / "t.index"
    idx.save(path)
    raw = path.read_bytes()
    assert raw.startswith(b"SCOPEIDX")
    assert VectorIndex.load(path).embedder_id == emb.embedder_id


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "bad.index"
    path.write_bytes(b"NOTANIDXxxxxxxxxxxxx")
    with pytest.raises(ValueError):
        VectorIndex.load(path)


def test_load_rejects_truncated_and_overlong_files(tmp_path):
    idx, _, _ = build_index(["alpha", "beta é"], dim=8)
    path = tmp_path / "t.index"
    idx.save(path)
    whole = path.read_bytes()
    for cut in range(len(b"SCOPEIDX"), len(whole)):  # every cut past the magic
        path.write_bytes(whole[:cut])
        with pytest.raises(ValueError, match="truncated") as err:
            VectorIndex.load(path)
        assert str(path) in str(err.value)
    path.write_bytes(whole + b"junk")
    with pytest.raises(ValueError, match="4 bytes past its last entry") as err:
        VectorIndex.load(path)
    assert str(path) in str(err.value)


def test_load_rejects_a_key_count_past_the_file(tmp_path):
    idx, _, _ = build_index(["alpha", "beta"], dim=8)
    path = tmp_path / "t.index"
    idx.save(path)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<Q", raw, len(b"SCOPEIDX") + 8, 2**62)  # count, after version and dim
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="truncated or corrupt index file"):
        VectorIndex.load(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_load_rejects_non_finite_keys(tmp_path, bad):
    idx, _, _ = build_index(["alpha", "beta"], dim=8)
    idx.keys[1, 3] = bad
    path = tmp_path / "t.index"
    idx.save(path)
    with pytest.raises(ValueError, match="non-finite keys") as err:
        VectorIndex.load(path)
    assert str(path) in str(err.value)


# ------------------------------------------------------------- cosine/knn


def test_cosine_against_fsum_oracle():
    rng = random.Random(11)
    for _ in range(100):
        a = np.array([rng.uniform(-1, 1) for _ in range(12)])
        b = np.array([rng.uniform(-1, 1) for _ in range(12)])
        assert math.isclose(knn_similarity(a, b), oracle_cosine(a.tolist(), b.tolist()), abs_tol=1e-12)


def test_cosine_zero_vector_is_zero():
    z = np.zeros(4)
    v = np.array([1.0, 2.0, 3.0, 4.0])
    assert knn_similarity(z, v) == 0.0
    assert knn_similarity(z, z) == 0.0


def test_knn_two_dim_example():
    keys = np.array([[1.0, 0.0], [0.0, 1.0], [0.7, 0.7]], dtype=np.float32)
    idx = VectorIndex(2, "test", ["east", "north", "diag"], keys, ["E", "N", "D"])
    got = knn_search(idx, np.array([1.0, 0.1]), 2)
    assert [pid for pid, _ in got] == ["east", "diag"]
    assert got[0][1] > got[1][1]


def test_knn_matches_oracle_on_random_indexes():
    rng = random.Random(99)
    for trial in range(20):
        count = rng.randrange(1, 40)
        dim = rng.choice([3, 8, 16])
        keys = np.array(
            [[rng.uniform(-1, 1) for _ in range(dim)] for _ in range(count)], dtype=np.float32
        )
        ids = [f"id{j:03d}" for j in range(count)]
        idx = VectorIndex(dim, "t", ids, keys, ["v"] * count)
        q = np.array([rng.uniform(-1, 1) for _ in range(dim)])
        n = rng.randrange(1, count + 1)
        got = knn_search(idx, q, n)
        want = oracle_knn(ids, [list(map(float, row)) for row in keys], list(map(float, q)), n)
        assert [pid for pid, _ in got] == [pid for pid, _ in want], f"trial {trial}"
        for (_, s_got), (_, s_want) in zip(got, want):
            assert math.isclose(s_got, s_want, abs_tol=1e-9)


def test_knn_tie_break_ascending_pair_id():
    keys = np.array([[1.0, 0.0]] * 3 + [[0.0, 1.0]], dtype=np.float32)
    idx = VectorIndex(2, "t", ["zz", "aa", "mm", "other"], keys, ["v"] * 4)
    got = knn_search(idx, np.array([1.0, 0.0]), 3)
    assert [pid for pid, _ in got] == ["aa", "mm", "zz"]


def test_knn_zero_query_all_zero_sims():
    keys = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)
    idx = VectorIndex(2, "t", ["b", "a"], keys, ["v", "v"])
    got = knn_search(idx, np.zeros(2), 2)
    assert [(pid, s) for pid, s in got] == [("a", 0.0), ("b", 0.0)]


def test_knn_n_larger_than_index():
    idx, emb, _ = build_index(["alpha", "beta"], dim=8)
    got = knn_search(idx, emb.embed("alpha"), 10)
    assert len(got) == 2


def test_knn_dimension_mismatch_and_bad_n():
    idx, _, _ = build_index(["alpha"], dim=8)
    with pytest.raises(DimensionMismatchError):
        knn_search(idx, np.zeros(5), 1)
    with pytest.raises(ValueError):
        knn_search(idx, np.zeros(8), 0)


def test_knn_empty_index():
    idx = VectorIndex(4, "t", [], np.zeros((0, 4), dtype=np.float32), [])
    assert knn_search(idx, np.ones(4), 3) == []
    assert knn_search_many(idx, [np.ones(4), np.zeros(4)], 3) == [[], []]
    assert knn_search_many(idx, [], 3) == []


def duplicate_key_case(seed):
    """A seeded index of unit float32 keys (dim 384) with permuted pair_ids,
    one key copied into 5 rows, and that key plus N(0, 0.01) noise as query."""
    rng = np.random.default_rng(seed)
    count = int(rng.integers(2, 401))
    keys = rng.standard_normal((count, 384))
    keys = (keys / np.linalg.norm(keys, axis=1, keepdims=True)).astype(np.float32)
    rows = rng.choice(count, size=min(5, count), replace=False)
    keys[rows] = keys[rows[0]]
    ids = [f"p{j:04d}" for j in rng.permutation(count)]
    query = keys[rows[0]] + rng.normal(0.0, 0.01, 384)
    n = int(rng.integers(1, count + 1))
    return VectorIndex(384, "t", ids, keys, ["v"] * count), query, n


@pytest.mark.parametrize("seed", [34, 49, 277, 297])
def test_knn_ties_between_identical_keys_follow_pair_id(seed):
    """A float64 product of the whole key matrix gives identical rows dot
    products that differ in the last bit with the row's position, which
    broke pair_id tie-breaks in these seeded cases."""
    index, query, n = duplicate_key_case(seed)
    got = knn_search(index, query, n)
    want = oracle_knn(index.pair_ids, index.keys.astype(np.float64).tolist(), query.tolist(), n)
    assert [pid for pid, _ in got] == [pid for pid, _ in want]


@st.composite
def knn_cases(draw):
    """Keys of random scale (subnormal to near float32's largest among them)
    with zero rows and copies of one key at random rows; queries that are
    zero, a key, a key plus noise, or random; n up to past the index size,
    so ties fall at the n-th place too."""
    dim = draw(st.sampled_from([1, 2, 5, 384]))
    count = draw(st.integers(0, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    exponents = draw(st.sampled_from([[0], [-2, 0, 2], [-40, -30, 0, 30, 37]]))
    keys = (rng.standard_normal((count, dim)) * 10.0 ** rng.choice(exponents, (count, 1))).astype(np.float32)
    if count:
        row = st.integers(0, count - 1)
        keys[draw(st.lists(row, max_size=3))] = 0.0
        keys[draw(st.lists(row, max_size=6))] = keys[draw(row)]
    ids = [f"p{j:03d}" for j in rng.permutation(count)]
    queries = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["zero", "key", "near", "random"] if count else ["zero", "random"]))
        if kind == "zero":
            queries.append(np.zeros(dim))
        elif kind == "random":
            queries.append(rng.standard_normal(dim))
        else:
            noise = 0.0 if kind == "key" else draw(st.sampled_from([1e-7, 1e-4, 1e-2]))
            queries.append(keys[draw(row)] + rng.normal(0.0, noise, dim))
    n = draw(st.integers(1, count + 3))
    return VectorIndex(dim, "t", ids, keys, ["v"] * count), queries, n


@settings(max_examples=200, deadline=None)
@given(case=knn_cases())
def test_knn_search_many_matches_oracle(case):
    index, queries, n = case
    got = knn_search_many(index, queries, n)
    assert len(got) == len(queries)
    key_rows = index.keys.astype(np.float64).tolist()
    for found, query in zip(got, queries):
        want = oracle_knn(index.pair_ids, key_rows, np.asarray(query, dtype=np.float64).tolist(), n)
        assert [pid for pid, _ in found] == [pid for pid, _ in want]
        for (_, s_got), (_, s_want) in zip(found, want):
            assert abs(s_got - s_want) <= 1e-12


def test_knn_search_is_knn_search_many_of_one():
    index, query, n = duplicate_key_case(7)
    others = [index.keys[3], np.zeros(384), query[::-1].copy()]
    for vec in [query, *others]:
        for k in (1, n, len(index) + 2):
            assert knn_search(index, vec, k) == knn_search_many(index, [vec], k)[0]
            assert knn_search(index, vec, k) == knn_search_many(index, [*others, vec], k)[-1]


@pytest.mark.parametrize("rows_per_product", [1, 3])
def test_knn_search_many_splits_queries_over_products_by_bytes(monkeypatch, rows_per_product):
    """With the product capped at a few rows of keys, eleven queries take
    several products; each query's result is still the oracle's."""
    index, query, n = duplicate_key_case(49)
    rng = np.random.default_rng(5)
    queries = [query, np.zeros(384), index.keys[2], *rng.standard_normal((8, 384))]
    products = []
    real_unit_rows = ragindex._unit_rows
    monkeypatch.setattr(ragindex, "_unit_rows", lambda rows: products.append(len(rows)) or real_unit_rows(rows))
    monkeypatch.setattr(ragindex, "_PRODUCT_BYTES", 4 * len(index) * rows_per_product + 3)
    got = knn_search_many(index, queries, n)
    assert products == [min(rows_per_product, 11 - lo) for lo in range(0, 11, rows_per_product)]
    key_rows = index.keys.astype(np.float64).tolist()
    for found, q in zip(got, queries):
        want = oracle_knn(index.pair_ids, key_rows, np.asarray(q, dtype=np.float64).tolist(), n)
        assert [pid for pid, _ in found] == [pid for pid, _ in want]
        for (_, s_got), (_, s_want) in zip(found, want):
            assert abs(s_got - s_want) <= 1e-12


def test_knn_search_many_holds_one_product_at_a_time(monkeypatch):
    """100 queries over four products: each product is freed before the
    next is taken, so the peak stays below one and a half products."""
    rng = np.random.default_rng(11)
    count = 100_000
    keys = rng.standard_normal((count, 8), dtype=np.float32)
    index = VectorIndex(8, "t", [f"p{j:06d}" for j in range(count)], keys, [""] * count)
    index.ranks  # cached before measuring
    product = 4 * count * 25
    monkeypatch.setattr(ragindex, "_PRODUCT_BYTES", product)
    queries = rng.standard_normal((100, 8))
    tracemalloc.start()
    try:
        found = knn_search_many(index, queries, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [len(f) for f in found] == [3] * 100
    assert peak < 1.5 * product, f"tracemalloc peak {peak / 1e6:.1f} MB for {product / 1e6:.1f} MB products"


def test_knn_search_many_memory_stays_below_half_a_float64_key_copy():
    """50 queries against 20,000 x 384 keys: the search never holds a
    float64 copy of the key matrix, nor anything half its size."""
    rng = np.random.default_rng(3)
    count = 20_000
    keys = rng.standard_normal((count, 384), dtype=np.float32)
    index = VectorIndex(384, "t", [f"p{j:05d}" for j in range(count)], keys, [""] * count)
    queries = rng.standard_normal((50, 384), dtype=np.float32)
    tracemalloc.start()
    try:
        found = knn_search_many(index, queries, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [len(f) for f in found] == [5] * 50
    assert peak < keys.size * 8 / 2, f"tracemalloc peak {peak / 1e6:.1f} MB"


# ------------------------------------------------------------- augment


def fixed_index(values):
    n = len(values)
    keys = np.eye(max(n, 1), dtype=np.float32)[:n]
    return VectorIndex(max(n, 1), "t", [f"p{i}" for i in range(n)], keys, values)


def test_augment_orders_best_neighbor_last():
    idx = fixed_index(["BEST", "SECOND", "THIRD"])
    neighbors = [("p0", 0.9), ("p1", 0.5), ("p2", 0.1)]
    out = augment_query("QUERY", neighbors, idx)
    assert out.endswith("QUERY")
    assert out == (
        "/* retrieved example 3 */\nTHIRD\n"
        "/* retrieved example 2 */\nSECOND\n"
        "/* retrieved example 1 */\nBEST\n"
        "QUERY"
    )


def test_augment_budget_drops_worst_blocks_first():
    idx = fixed_index(["GOOD" * 10, "MEH" * 10, "BAD" * 200])
    neighbors = [("p0", 0.9), ("p1", 0.5), ("p2", 0.1)]
    out = augment_query("Q" * 50, neighbors, idx, budget_bytes=200)
    assert "BAD" not in out  # least similar dropped first
    assert "GOOD" in out and "MEH" in out
    assert len(out.encode()) <= 200


def test_augment_query_never_truncated():
    idx = fixed_index(["NEIGHBOR"])
    q = "Q" * 500
    out = augment_query(q, [("p0", 0.8)], idx, budget_bytes=100)
    assert out == q


def test_augment_no_neighbors_identity():
    idx = fixed_index([])
    assert augment_query("Q", [], idx) == "Q"
