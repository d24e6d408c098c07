"""Distance metrics against the independent oracle and spec'd examples."""

import random
import string

from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import oracle_dp_rows, oracle_levenshtein, oracle_opt_prefix

from scopekit import metrics
from scopekit.metrics import (
    aggregate_report,
    evaluate,
    levenshtein,
    normalize_whitespace,
    opt_prefix_distance,
)


def test_identity_is_zero():
    assert levenshtein("", "") == 0
    assert levenshtein("abc", "abc") == 0
    assert levenshtein("int main() {}", "int main() {}") == 0


def test_pure_insertions():
    assert levenshtein("abc", "abcd") == 1
    assert levenshtein("", "abc") == 3
    assert levenshtein("ac", "abc") == 1


def test_known_distance():
    assert levenshtein("kitten", "sitting") == 3
    assert levenshtein("abc", "axc") == 1
    assert levenshtein("flaw", "lawn") == 2


def test_unicode_scalars_not_bytes():
    # one scalar substitution, even though utf-8 lengths differ
    assert levenshtein("café", "cafe") == 1
    assert levenshtein("é", "") == 1


def test_byte_mode_counts_bytes():
    a = "café".encode("utf-8")
    b = "cafe".encode("utf-8")
    # 2-byte e-acute vs 1-byte e: one substitution + one deletion
    assert levenshtein(a, b) == 2


def test_levenshtein_matches_oracle_on_random_pairs():
    rng = random.Random(1311)
    alphabet = "abcdefgh"
    for _ in range(300):
        a = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 25)))
        b = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 25)))
        assert levenshtein(a, b) == oracle_levenshtein(a, b)


def test_metric_axioms_on_random_triples():
    rng = random.Random(2025)
    alphabet = "abcdefgh"

    def rand():
        return "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 20)))

    for _ in range(300):
        a, b, c = rand(), rand(), rand()
        dab = levenshtein(a, b)
        assert dab == levenshtein(b, a)
        assert (dab == 0) == (a == b)
        assert dab <= levenshtein(a, c) + levenshtein(c, b)


def test_opt_prefix_examples():
    # prediction carries the truth then rambles
    assert opt_prefix_distance("abcXYZ!", "abc") == (0, 3)
    assert levenshtein("abcXYZ!", "abc") == 4
    # close prefix beats both empty and full
    assert opt_prefix_distance("axcZZ", "abc") == (1, 3)
    # empty prediction: only the empty prefix exists
    assert opt_prefix_distance("", "abc") == (3, 0)


def test_opt_prefix_tie_breaks_to_shortest():
    # prefixes "a" and "ab" of "aba" vs truth "a": dist 0 at len 1 wins
    opt, opt_len = opt_prefix_distance("aba", "a")
    assert (opt, opt_len) == (0, 1)


def test_opt_zero_iff_some_prefix_equals_truth():
    assert opt_prefix_distance("int x = 1;//tail", "int x = 1;")[0] == 0
    opt, _ = opt_prefix_distance("int y = 1;", "int x = 1;")
    assert opt > 0


def test_opt_never_exceeds_full_random():
    rng = random.Random(77)
    alphabet = string.ascii_lowercase[:6]
    for _ in range(200):
        p = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 22)))
        t = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 22)))
        opt, opt_len = opt_prefix_distance(p, t)
        full = levenshtein(p, t)
        assert opt <= full
        assert (oracle_opt_prefix(p, t)) == (opt, opt_len)


def test_swapped_arguments_increase_full_distance():
    truth = "update(alpha, beta);"
    swapped = "update(beta, alpha);"
    assert levenshtein(truth, truth) == 0
    assert levenshtein(swapped, truth) > 0


def test_evaluate_records_and_conciseness():
    records = evaluate([("t1", "func_body", "abcXYZ!", "abc")])
    rec = records[0]
    assert rec.full_distance == 4
    assert rec.opt_distance == 0
    assert rec.opt_prefix_len == 3
    assert rec.conciseness_delta == 4


def test_evaluate_byte_mode_flag():
    records = evaluate([("t1", "x", "café", "cafe")], as_bytes=True)
    assert records[0].full_distance == 2


# Latin, precomposed and combining accents, and non-BMP scalars (4 UTF-8
# bytes each), so scalar and byte distances differ.
_TEXT = st.text(alphabet=st.sampled_from("abe\u00e9\u0301\U0001d11e\U0001f600"), max_size=6)


@settings(max_examples=200, deadline=None)
@given(prediction=_TEXT, truth=_TEXT, as_bytes=st.booleans())
def test_evaluate_matches_oracles(prediction, truth, as_bytes):
    (rec,) = evaluate([("t", "x", prediction, truth)], as_bytes=as_bytes)
    p, t = (prediction.encode("utf-8"), truth.encode("utf-8")) if as_bytes else (prediction, truth)
    assert rec.full_distance == oracle_levenshtein(p, t)
    assert (rec.opt_distance, rec.opt_prefix_len) == oracle_opt_prefix(p, t)
    assert rec.conciseness_delta == rec.full_distance - rec.opt_distance


# Up to 300 elements, so each bit vector spans several 64-bit words; a
# non-BMP scalar is one element as str and four as bytes.
_LONG_TEXT = st.integers(0, 300).flatmap(
    lambda n: st.text(alphabet=st.sampled_from("ab\n\u00e9\U0001f600"), min_size=n, max_size=n)
)


@settings(max_examples=100, deadline=None)
@given(prediction=_LONG_TEXT, truth=_LONG_TEXT, as_bytes=st.booleans())
@example(prediction="ab" * 150, truth="", as_bytes=False)
@example(prediction="", truth="\U0001f600b" * 150, as_bytes=True)
@example(prediction="\U0001f600" * 300, truth="\U0001f600" * 299, as_bytes=False)
# "a"*65 (insert "b") and "a"*65+"c" (substitute) both score 1: the shorter prefix wins
@example(prediction="a" * 65 + "c" * 200, truth="a" * 65 + "b", as_bytes=False)
@example(prediction="a" * 65 + "c" * 200, truth="a" * 65 + "b", as_bytes=True)
def test_evaluate_matches_dp_oracle_on_long_inputs(prediction, truth, as_bytes):
    (rec,) = evaluate([("t", "x", prediction, truth)], as_bytes=as_bytes)
    p, t = (prediction.encode("utf-8"), truth.encode("utf-8")) if as_bytes else (prediction, truth)
    assert (rec.full_distance, rec.opt_distance, rec.opt_prefix_len) == oracle_dp_rows(p, t)


def test_evaluate_runs_one_dp_per_record(monkeypatch):
    calls = []
    real = metrics._dp_rows

    def counting(prediction, truth):
        calls.append((prediction, truth))
        return real(prediction, truth)

    monkeypatch.setattr(metrics, "_dp_rows", counting)
    evaluate([("a", "x", "abcXYZ", "abc"), ("b", "x", "", "q")])
    assert calls == [("abcXYZ", "abc"), ("", "q")]


def test_normalize_whitespace():
    assert normalize_whitespace("a  \t b \n") == "a b\n"
    assert normalize_whitespace("x\t\ty;  \nz") == "x y;\nz"
    records = evaluate([("t", "x", "a     b", "a b")], normalize=True)
    assert records[0].full_distance == 0


def test_aggregate_means_and_medians():
    recs = evaluate(
        [
            ("a", "if_body", "xx", ""),  # full 2
            ("b", "if_body", "xxxx", ""),  # full 4
            ("c", "for_body", "y", "y"),  # full 0
        ]
    )
    reports = aggregate_report(recs)
    assert [r.category for r in reports] == ["for_body", "if_body"]
    if_rep = reports[1]
    assert if_rep.n_tests == 2
    assert if_rep.mean_full == 3.0
    assert if_rep.median_full == 3.0
    # opt of a prediction vs empty truth is 0 (empty prefix)
    assert if_rep.mean_opt == 0.0


def test_aggregate_empty():
    assert aggregate_report([]) == []
