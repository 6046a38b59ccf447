import dataclasses
import json
import math
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
import scipy.sparse as sp

from ctrend import (
    Corpus,
    Document,
    FeedSeries,
    Vocabulary,
    build_vocabulary,
    corpus_content_hash,
    featurize,
    load_corpus,
    read_documents_jsonl,
    store_corpus,
    tfidf_normalize,
    tokenize,
)
from ctrend.exceptions import (
    AlreadyNormalized,
    BadWindow,
    EmptyCorpus,
    FormatError,
    NoBins,
)

UTC = timezone.utc
T0 = datetime(2011, 10, 1, tzinfo=UTC)
HOUR = timedelta(hours=1)


def doc(feed, minutes, text):
    return Document(feed, T0 + timedelta(minutes=minutes), text)


# ---------------------------------------------------------------------------
# tokenize

def test_tokenize_empty():
    assert tokenize("") == []


def test_tokenize_stopwords_and_stemming():
    out = tokenize("The volcano erupted", stopwords={"the"}, stem=True)
    assert out == ["volcano", "erupt"]


def test_tokenize_case_folding_no_stem():
    assert tokenize("Ash ash ASH") == ["ash", "ash", "ash"]


def test_tokenize_drops_pure_numbers():
    assert tokenize("2010 eruption of 42 planes") == ["eruption", "of", "planes"]


def test_tokenize_splits_on_non_alphanumeric():
    assert tokenize("ash-cloud over_europe!") == ["ash", "cloud", "over", "europe"]


def test_tokenize_preserves_order():
    assert tokenize("c a b") == ["c", "a", "b"]


# ---------------------------------------------------------------------------
# build_vocabulary

def test_vocabulary_sorted_union():
    docs = [doc("f", 0, "a volcano"), doc("f", 1, "volcano ash")]
    v = build_vocabulary(docs)
    assert v.terms == ["a", "ash", "volcano"]
    assert [v.index[t] for t in v.terms] == [0, 1, 2]


def test_vocabulary_min_df():
    docs = [doc("f", 0, "a volcano"), doc("f", 1, "volcano ash")]
    assert build_vocabulary(docs, min_df=2).terms == ["volcano"]


def test_vocabulary_empty_stream():
    with pytest.raises(EmptyCorpus):
        build_vocabulary([])
    with pytest.raises(EmptyCorpus):
        build_vocabulary([doc("f", 0, "42 1999")])


def test_vocabulary_rejects_duplicates():
    with pytest.raises(ValueError):
        Vocabulary(["a", "a"])


# ---------------------------------------------------------------------------
# featurize

def test_featurize_counts_within_bin():
    v = Vocabulary(["ash"])
    c = featurize([doc("f", 30, "ash ash")], v, T0, HOUR, T=2,
                  tokens=[["ash", "ash"]])
    assert c.feed("f").matrix[0, 0] == 2.0
    assert c.feed("f").matrix[0, 1] == 0.0
    assert c.normalization == "counts"


def test_featurize_drops_out_of_range():
    v = Vocabulary(["ash"])
    early = Document("f", T0 - timedelta(seconds=1), "ash")
    c = featurize([early], v, T0, HOUR, T=2, tokens=[["ash"]])
    assert c.n_dropped == 1
    assert c.feed("f").matrix.nnz == 0


def test_featurize_no_bins():
    with pytest.raises(NoBins):
        featurize([], Vocabulary(["x"]), T0, HOUR, T=0, tokens=[])


@pytest.mark.parametrize("width, named", [
    (timedelta(0), "got 0 hours"), (-HOUR, "got -1 hours"),
    (timedelta(minutes=-30), "got -0.5 hours")])
def test_featurize_rejects_non_positive_bin_width(width, named):
    with pytest.raises(BadWindow, match=f"bin width must be positive, {named}"):
        featurize([doc("f", 0, "ash")], Vocabulary(["ash"]), T0, width, T=2,
                  tokens=[["ash"]])


def test_featurize_permutation_invariant():
    rng = np.random.default_rng(0)
    v = Vocabulary(["ash", "cloud", "plane"])
    docs = [doc(f"feed{i % 3}", int(rng.integers(0, 300)),
                " ".join(rng.choice(v.terms, size=4)))
            for i in range(60)]
    a = featurize(docs, v, T0, HOUR, T=6, tokens=[tokenize(d.text) for d in docs])
    assert a.feed_ids == ["feed0", "feed1", "feed2"]
    for seed in (1, 2):
        shuffled = list(docs)
        np.random.default_rng(seed).shuffle(shuffled)
        b = featurize(shuffled, v, T0, HOUR, T=6,
                      tokens=[tokenize(d.text) for d in shuffled])
        assert a == b


def test_featurize_counts_the_token_lists_build_vocabulary_collects():
    docs = [doc("a", 0, "Ash clouds, ash"), doc("b", 70, "the cloud"),
            doc("a", 200, "planes grounded"), doc("b", -5, "early ash")]
    stop = frozenset({"the"})
    tokens = []
    v = build_vocabulary(docs, stop, stem=True, tokens=tokens)
    assert tokens == [tokenize(d.text, stop, True) for d in docs]
    once = featurize(docs, v, T0, HOUR, T=4, tokens=tokens)
    assert once.n_dropped == 1
    # the stemmed lists are counted: ash, cloud, ash, plane, ground; cloud
    assert [f.matrix.sum() for f in once.feeds] == [5, 1]
    with pytest.raises(ValueError, match="3 lists for 4 documents"):
        featurize(docs, v, T0, HOUR, T=4, tokens=tokens[:3])


# ---------------------------------------------------------------------------
# tfidf

def _counts_corpus(matrices, terms=None):
    W, T = matrices[0].shape
    vocab = Vocabulary(terms or [f"t{i}" for i in range(W)])
    feeds = [FeedSeries(f"f{i}", sp.csc_matrix(np.asarray(m, dtype=float)))
             for i, m in enumerate(matrices)]
    return Corpus(vocab, T0, 1.0, T, feeds)


def test_tfidf_ubiquitous_term_clamped_to_zero():
    # term present in every one of F*T = 2*50 = 100 cells: idf < 0 -> 0
    m = np.ones((1, 50))
    c = tfidf_normalize(_counts_corpus([m, m]))
    assert c.feed("f0").matrix.nnz == 0
    assert c.normalization == "tfidf"


def test_tfidf_rare_term_value():
    # term in exactly 1 of F*T = 100 cells: idf = ln(100 / 2)
    m0 = np.zeros((1, 50))
    m0[0, 7] = 3.0
    c = tfidf_normalize(_counts_corpus([m0, np.zeros((1, 50))]))
    assert c.feed("f0").matrix[0, 7] == pytest.approx(3.0 * math.log(50.0), rel=1e-15)


def test_tfidf_all_zero_unchanged():
    z = np.zeros((2, 10))
    c = tfidf_normalize(_counts_corpus([z, z]))
    assert all(f.matrix.nnz == 0 for f in c.feeds)


def test_tfidf_rejects_normalized_input():
    c = tfidf_normalize(_counts_corpus([np.zeros((1, 5)), np.zeros((1, 5))]))
    with pytest.raises(AlreadyNormalized):
        tfidf_normalize(c)


def test_tfidf_pattern_only_shrinks():
    rng = np.random.default_rng(3)
    mats = [(rng.random((8, 20)) < 0.3) * rng.integers(1, 5, (8, 20)) for _ in range(3)]
    before = _counts_corpus(mats)
    after = tfidf_normalize(before)
    for fb, fa in zip(before.feeds, after.feeds):
        assert fa.matrix.nnz <= fb.matrix.nnz
        ra, ca = fa.matrix.nonzero()
        assert np.all(np.asarray(fb.matrix[ra, ca]).ravel() > 0)


def test_corpus_equality_covers_every_compared_field():
    base = _counts_corpus([np.eye(2, 4), np.ones((2, 4))])
    assert base == dataclasses.replace(base, n_dropped=5)
    changed = {
        "vocabulary": Vocabulary(["t0", "tx"]),
        "t0": T0 + HOUR,
        "bin_hours": 2.0,
        "T": 5,
        "feeds": [base.feeds[0], FeedSeries("f1", sp.csc_matrix((2, 4)))],
        "normalization": "tfidf",
        "synthetic": True,
    }
    for name, value in changed.items():
        assert base != dataclasses.replace(base, **{name: value}), name
    assert base != "not a corpus"


# ---------------------------------------------------------------------------
# store / load

def _random_corpus(seed=0, tfidf=True):
    rng = np.random.default_rng(seed)
    mats = [(rng.random((6, 12)) < 0.4) * rng.integers(1, 9, (6, 12))
            for _ in range(2)]
    c = _counts_corpus(mats, terms=["ash", "cloud", "fly", "jet", "sky", "völ"])
    return tfidf_normalize(c) if tfidf else c


def test_round_trip_bit_exact(tmp_path):
    c = _random_corpus()
    load = load_corpus(store_corpus(c, tmp_path / "c"))
    assert load == c
    for a, b in zip(c.feeds, load.feeds):
        assert np.array_equal(a.matrix.toarray(), b.matrix.toarray())


def test_round_trip_synthetic_negative_values(tmp_path):
    from ctrend import ToyConfig, generate_toy
    c = generate_toy(ToyConfig(T=40, seed=5))
    assert min(f.matrix.data.min() for f in c.feeds) < 0
    assert load_corpus(store_corpus(c, tmp_path / "t")) == c


def test_round_trip_all_zero(tmp_path):
    c = _counts_corpus([np.zeros((2, 4)), np.zeros((2, 4))])
    assert load_corpus(store_corpus(c, tmp_path / "z")) == c


def test_load_rejects_bad_version(tmp_path):
    d = store_corpus(_random_corpus(), tmp_path / "c")
    meta = json.loads((d / "meta.json").read_text())
    meta["format_version"] = 999
    (d / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(FormatError, match=r"expected version 1.*found 999"):
        load_corpus(d)


def test_load_rejects_boolean_version(tmp_path):
    d = store_corpus(_random_corpus(), tmp_path / "c")
    meta = json.loads((d / "meta.json").read_text())
    meta["format_version"] = True  # equal to 1 in Python
    (d / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(FormatError, match=r"expected version 1.*found True"):
        load_corpus(d)


def test_load_rejects_corrupt_meta(tmp_path):
    d = store_corpus(_random_corpus(), tmp_path / "c")
    (d / "meta.json").write_text("{ not json")
    with pytest.raises(FormatError):
        load_corpus(d)


def test_load_rejects_bad_matrix_row(tmp_path):
    d = store_corpus(_random_corpus(), tmp_path / "c")
    with open(d / "matrix.csv", "a") as fh:
        fh.write("0,0,notanumber,1\n")
    with pytest.raises(FormatError, match="line"):
        load_corpus(d)


def _replace_matrix_line(d, lineno, text):
    """Overwrite line ``lineno`` (1-based, header is line 1) of matrix.csv."""
    lines = (d / "matrix.csv").read_text().split("\n")
    lines[lineno - 1] = text
    (d / "matrix.csv").write_text("\n".join(lines))


@pytest.mark.parametrize("row, error", [
    ("0,2,notanumber,1", "bad matrix.csv row"),  # unparsable field
    ("0,2,3", "bad matrix.csv row"),              # 3 fields
    ("0,2,3,1.5,7", "bad matrix.csv row"),        # 5 fields
    ("0,1.0,3,1.5", "bad matrix.csv row"),        # float in an index column
    ("0,1e1,3,1.5", "bad matrix.csv row"),
    ("2,2,3,1.5", "index out of range"),          # feed index == F
    ("-1,2,3,1.5", "index out of range"),
    ("0,6,3,1.5", "index out of range"),          # term index == W
    ("0,2,12,1.5", "index out of range"),         # time index == T
    ("1,1_0,3,1.5", "index out of range"),        # int() reads 1_0 as 10
])
def test_load_names_the_bad_line(tmp_path, row, error):
    d = store_corpus(_random_corpus(), tmp_path / "c")
    n_lines = len((d / "matrix.csv").read_text().splitlines())
    assert n_lines > 12
    _replace_matrix_line(d, 7, row)
    with pytest.raises(FormatError) as exc:
        load_corpus(d)
    assert str(exc.value) == f"{error} at line 7: {row!r}"


def test_load_reads_underscored_index_as_python_int(tmp_path):
    d = store_corpus(_random_corpus(), tmp_path / "c")
    _replace_matrix_line(d, 7, "1,1,1_1,2.5")
    underscored = load_corpus(d)
    _replace_matrix_line(d, 7, "1,1,11,2.5")
    assert underscored == load_corpus(d)


def test_load_sums_repeated_cells_in_file_order(tmp_path):
    # 1e16 - 1e16 + 1 is 1 only when summed in this order; feed 1's rows
    # come first and interleave with feed 0's
    d = store_corpus(_counts_corpus([np.zeros((2, 3)), np.zeros((2, 3))]),
                     tmp_path / "c")
    with open(d / "matrix.csv", "a") as fh:
        fh.write("1,1,2,1e16\n0,0,0,2\n1,1,2,-1e16\n0,0,0,3\n1,1,2,1\n")
    c = load_corpus(d)
    assert c.feed("f1").matrix[1, 2] == 1.0
    assert c.feed("f0").matrix[0, 0] == 5.0
    assert c.feed("f0").matrix.nnz == 1


def test_load_skips_blank_lines(tmp_path):
    c = _random_corpus()
    d = store_corpus(c, tmp_path / "c")
    text = (d / "matrix.csv").read_text().replace("\n", "\n\n", 5)
    (d / "matrix.csv").write_text(text + "   \n\n")
    assert load_corpus(d) == c


def test_load_header_only_is_all_zero_without_warning(tmp_path, recwarn):
    c = _counts_corpus([np.zeros((2, 4)), np.zeros((2, 4))])
    d = store_corpus(c, tmp_path / "z")
    assert (d / "matrix.csv").read_text() == "feed_index,term_index,time_index,value\n"
    assert load_corpus(d) == c
    assert len(recwarn) == 0


@pytest.mark.parametrize("key, value, problem", [
    ("vocabulary", ["ash", "cloud", "ash", "jet", "sky", "sky"],
     "vocabulary terms must be unique; repeated: ['ash', 'sky']"),
    ("feeds", ["f0", "f0"], "feed ids must be unique; repeated: ['f0']"),
    ("T", "twelve", "invalid literal for int() with base 10: 'twelve'"),
    ("T", None, "int() argument must be a string"),
    ("bin_hours", "hourly", "could not convert string to float: 'hourly'"),
    ("bin_hours", -1.0, "bin_hours must be finite and positive, got -1.0"),
    ("bin_hours", 0, "bin_hours must be finite and positive, got 0"),
    ("bin_hours", float("nan"), "bin_hours must be finite and positive, got nan"),
    ("bin_hours", float("inf"), "bin_hours must be finite and positive, got inf"),
    ("T", 12.7, "T must be a positive integer, got 12.7"),
    ("T", -3, "T must be a positive integer, got -3"),
    ("T", 0, "T must be a positive integer, got 0"),
    ("T", "12", "T must be a positive integer, got '12'"),
    ("T", float("inf"), "cannot convert float infinity to integer"),
    ("t0", 5, "t0 must be a string, got number"),
    ("feeds", [1, 2], "feeds[0] must be a string, got number"),
    ("feeds", ["f0", None], "feeds[1] must be a string, got null"),
    ("feeds", "XY", "feeds must be an array of strings, got string"),
    ("vocabulary", "abcdef", "vocabulary must be an array of strings, got string"),
    ("vocabulary", {"ash": 0}, "vocabulary must be an array of strings, got object"),
    # float(true) and int(true) are 1, and bool("no") is True
    ("bin_hours", True, "bin_hours must be a number, got boolean"),
    ("T", True, "T must be a number, got boolean"),
    ("synthetic", "no", "synthetic must be a boolean, got string"),
])
def test_load_names_bad_meta(tmp_path, key, value, problem):
    d = store_corpus(_random_corpus(), tmp_path / "c")
    meta = json.loads((d / "meta.json").read_text())
    meta[key] = value
    (d / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(FormatError) as exc:
        load_corpus(d)
    assert str(exc.value).startswith(f"bad corpus meta {d / 'meta.json'}: {problem}")


def test_load_names_meta_that_is_not_an_object(tmp_path):
    d = store_corpus(_random_corpus(), tmp_path / "c")
    meta = json.loads((d / "meta.json").read_text())
    (d / "meta.json").write_text(json.dumps(list(meta.items())))
    with pytest.raises(FormatError) as exc:
        load_corpus(d)
    assert str(exc.value) == (f"bad corpus meta {d / 'meta.json'}: expected a "
                              f"JSON object, got array")


@pytest.mark.parametrize("value, problem", [
    ("nan", "non-finite"), ("-1e300", "negative")])
def test_load_names_bad_values(tmp_path, value, problem):
    d = store_corpus(_random_corpus(), tmp_path / "c")
    with open(d / "matrix.csv", "a") as fh:
        fh.write(f"1,2,3,{value}\n")
    with pytest.raises(FormatError) as exc:
        load_corpus(d)
    assert str(exc.value) == (f"bad corpus data {d / 'matrix.csv'}: feed 'f1' "
                              f"contains {problem} values")


def test_content_hash_tracks_data(tmp_path):
    d1 = store_corpus(_random_corpus(seed=1), tmp_path / "a")
    d2 = store_corpus(_random_corpus(seed=1), tmp_path / "b")
    d3 = store_corpus(_random_corpus(seed=2), tmp_path / "c")
    assert corpus_content_hash(d1) == corpus_content_hash(d2)
    assert corpus_content_hash(d1) != corpus_content_hash(d3)


def test_matrix_csv_sorted_and_17_digits(tmp_path):
    d = store_corpus(_random_corpus(), tmp_path / "c")
    lines = (d / "matrix.csv").read_text().splitlines()
    assert lines[0] == "feed_index,term_index,time_index,value"
    keys = [tuple(int(x) for x in ln.split(",")[:3]) for ln in lines[1:]]
    assert keys == sorted(keys)
    # every stored value round-trips exactly
    for ln in lines[1:]:
        v = ln.split(",")[3]
        assert format(float(v), ".17g") == v


# ---------------------------------------------------------------------------
# jsonl ingestion

def test_read_documents_jsonl(tmp_path):
    p = tmp_path / "docs.jsonl"
    p.write_text(
        '{"feed": "a", "timestamp": "2011-10-01T00:30:00Z", "text": "ash"}\n'
        '\n'
        '{"feed": "b", "timestamp": "2011-10-01T02:00:00+02:00", "text": "cloud"}\n'
    )
    docs = list(read_documents_jsonl(p))
    assert [d.feed_id for d in docs] == ["a", "b"]
    assert docs[0].timestamp == T0 + timedelta(minutes=30)
    assert docs[1].timestamp == T0  # +02:00 offset cancels the 2h


@pytest.mark.parametrize("fraction, micros", [
    (".5", 500000), (".1234567", 123456), (".123456789", 123456),
    (".000001", 1)])
def test_read_documents_jsonl_seconds_fraction(tmp_path, fraction, micros):
    """Any fraction length is cut or padded to microseconds, as Python 3.11
    reads it; 3.10's fromisoformat alone takes only 3 or 6 digits."""
    p = tmp_path / "docs.jsonl"
    p.write_text('{"feed": "a", "timestamp": "2011-10-01T05:30:00%s+00:00", '
                 '"text": "ash"}\n' % fraction)
    [d] = read_documents_jsonl(p)
    assert d.timestamp == T0 + timedelta(hours=5, minutes=30, microseconds=micros)


def test_read_documents_jsonl_reports_line(tmp_path):
    p = tmp_path / "docs.jsonl"
    p.write_text(
        '{"feed": "a", "timestamp": "2011-10-01T00:30:00Z", "text": "ash"}\n'
        '{"feed": "a", "timestamp": "not a time", "text": "x"}\n'
    )
    with pytest.raises(FormatError, match="line 2"):
        list(read_documents_jsonl(p))


@pytest.mark.parametrize("key, value, kind", [
    ("timestamp", 5, "number"), ("text", 5, "number"), ("text", None, "null"),
    ("feed", 5, "number"), ("feed", ["a"], "array"), ("timestamp", None, "null"),
])
@pytest.mark.parametrize("alone", [True, False])
def test_read_documents_jsonl_names_a_field_of_the_wrong_type(tmp_path, key, value,
                                                               kind, alone):
    good = {"feed": "a", "timestamp": "2011-10-01T00:30:00Z", "text": "ash"}
    lines = [] if alone else [json.dumps(good)]
    lines.append(json.dumps({**good, key: value}))
    p = tmp_path / "docs.jsonl"
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError) as exc:
        list(read_documents_jsonl(p))
    assert str(exc.value) == (f"malformed document at line {len(lines)}: "
                              f"{key!r} must be a string, got {kind}")


def test_document_requires_timezone():
    with pytest.raises(ValueError):
        Document("f", datetime(2011, 10, 1), "x")
    with pytest.raises(ValueError):
        Document("", T0, "x")


def test_validate_rejects_negative_counts():
    c = _counts_corpus([np.array([[1.0, -2.0]]), np.zeros((1, 2))])
    with pytest.raises(ValueError, match="negative"):
        c.validate()
    c.synthetic = True  # synthetic corpora may carry negative values
    c.validate()


def test_validate_rejects_shape_mismatch():
    vocab = Vocabulary(["a", "b"])
    feeds = [FeedSeries("f0", sp.csc_matrix(np.zeros((2, 4)))),
             FeedSeries("f1", sp.csc_matrix(np.zeros((2, 5))))]
    c = Corpus(vocab, T0, 1.0, 4, feeds)
    with pytest.raises(ValueError, match="shape"):
        c.validate()


def test_validate_rejects_duplicate_feed_ids():
    vocab = Vocabulary(["a"])
    feeds = [FeedSeries("f", sp.csc_matrix(np.zeros((1, 2)))),
             FeedSeries("f", sp.csc_matrix(np.zeros((1, 2))))]
    with pytest.raises(ValueError, match="unique"):
        Corpus(vocab, T0, 1.0, 2, feeds).validate()
