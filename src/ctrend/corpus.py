"""Bag-of-words feature time series on a shared vocabulary and hourly grid.

Raw timestamped documents are tokenized once (``build_vocabulary``),
binned onto a regular time axis and their token lists counted into one
sparse term-by-time matrix per feed (``featurize``). The resulting
corpus can be tf-idf normalized and stored/loaded losslessly as a
directory of ``meta.json`` + ``matrix.csv``.

The disk format is handled an array at a time: ``store_corpus`` formats
each feed's sorted nonzeros with one ``%``-format call, and
``load_corpus`` parses the whole matrix with one ``np.loadtxt`` call.
When that parse fails, or an index is out of range, the file is read
again line by line, which accepts the same input as before and names the
first bad line.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import warnings
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np
import scipy.sparse as sp

from . import __version__
from .exceptions import (
    AlreadyNormalized,
    BadWindow,
    EmptyCorpus,
    FormatError,
    NoBins,
    UnknownFeed,
)
from .stemmer import stem as porter_stem

FORMAT_VERSION = 1
_MATRIX_HEADER = "feed_index,term_index,time_index,value"
_MATRIX_ROW = np.dtype([("feed", np.int64), ("term", np.int64),
                        ("time", np.int64), ("value", np.float64)])

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
_NUMERIC_RE = re.compile(r"\d+")


@dataclass(frozen=True)
class Document:
    """One raw document: a feed id, a timezone-aware timestamp and text."""

    feed_id: str
    timestamp: datetime
    text: str

    def __post_init__(self):
        if not self.feed_id:
            raise ValueError("feed_id must be non-empty")
        if self.timestamp.tzinfo is None:
            raise ValueError("timestamp must be timezone-aware")


class Vocabulary:
    """Ordered term list with a term -> index bijection."""

    def __init__(self, terms: Sequence[str]):
        terms = list(terms)
        _check_unique("vocabulary terms", terms)
        self.terms = terms
        self.index = {t: i for i, t in enumerate(terms)}

    def __len__(self) -> int:
        return len(self.terms)

    def __contains__(self, term: str) -> bool:
        return term in self.index

    def __eq__(self, other) -> bool:
        return isinstance(other, Vocabulary) and self.terms == other.terms

    def __repr__(self) -> str:
        return f"Vocabulary({len(self.terms)} terms)"


@dataclass
class FeedSeries:
    """Sparse term-by-time matrix (W x T) for one feed."""

    feed_id: str
    matrix: sp.csc_matrix

    def __eq__(self, other) -> bool:
        if not isinstance(other, FeedSeries) or self.feed_id != other.feed_id:
            return False
        return _sparse_equal(self.matrix, other.matrix)


@dataclass
class Corpus:
    """Shared vocabulary + regular time axis + one FeedSeries per feed."""

    vocabulary: Vocabulary
    t0: datetime
    bin_hours: float
    T: int
    feeds: list[FeedSeries]
    normalization: str = "counts"  # "counts" | "tfidf"
    synthetic: bool = False
    n_dropped: int = field(default=0, compare=False)

    @property
    def W(self) -> int:
        return len(self.vocabulary)

    @property
    def F(self) -> int:
        return len(self.feeds)

    @property
    def feed_ids(self) -> list[str]:
        return [f.feed_id for f in self.feeds]

    def feed(self, feed_id: str) -> FeedSeries:
        for f in self.feeds:
            if f.feed_id == feed_id:
                return f
        raise UnknownFeed(f"no feed named {feed_id!r}")

    def validate(self):
        """Check shape consistency, finiteness and (non-synthetic) sign."""
        _check_unique("feed ids", self.feed_ids)
        if self.normalization not in ("counts", "tfidf"):
            raise ValueError(f"unknown normalization {self.normalization!r}")
        for f in self.feeds:
            if f.matrix.shape != (self.W, self.T):
                raise ValueError(
                    f"feed {f.feed_id!r} has shape {f.matrix.shape}, "
                    f"expected {(self.W, self.T)}"
                )
            if f.matrix.nnz and not np.all(np.isfinite(f.matrix.data)):
                raise ValueError(f"feed {f.feed_id!r} contains non-finite values")
            if not self.synthetic and f.matrix.nnz and f.matrix.data.min() < 0:
                raise ValueError(f"feed {f.feed_id!r} contains negative values")


def _check_unique(what: str, items: list) -> None:
    repeated = sorted(i for i, n in Counter(items).items() if n > 1)
    if repeated:
        raise ValueError(f"{what} must be unique; repeated: {repeated!r}")


def _sparse_equal(a: sp.spmatrix, b: sp.spmatrix) -> bool:
    if a.shape != b.shape:
        return False
    d = (a - b).tocoo()
    return d.nnz == 0 or not np.any(d.data)


def tokenize(text: str, stopwords: frozenset[str] | set[str] = frozenset(),
             stem: bool = False) -> list[str]:
    """Lowercase, split on non-alphanumeric runs, drop numbers and stop words.

    Porter stemming is applied after stop word removal when ``stem`` is on.
    Total function: empty or all-noise input yields an empty list.
    """
    out = []
    for tok in _TOKEN_RE.findall(text.lower()):
        if _NUMERIC_RE.fullmatch(tok):
            continue
        if tok in stopwords:
            continue
        out.append(porter_stem(tok) if stem else tok)
    return out


def build_vocabulary(docs: Iterable[Document],
                     stopwords: frozenset[str] | set[str] = frozenset(),
                     stem: bool = False, min_df: int = 1,
                     tokens: list[list[str]] | None = None) -> Vocabulary:
    """Collect all tokens across documents into a sorted vocabulary.

    ``min_df`` keeps only terms appearing in at least that many documents.
    When ``tokens`` is a list, each document's token list is appended to
    it in document order: the lists :func:`featurize` counts. Raises
    EmptyCorpus when nothing survives.
    """
    df: dict[str, int] = {}
    for doc in docs:
        doc_tokens = tokenize(doc.text, stopwords, stem)
        if tokens is not None:
            tokens.append(doc_tokens)
        for term in set(doc_tokens):
            df[term] = df.get(term, 0) + 1
    terms = sorted(t for t, n in df.items() if n >= min_df)
    if not terms:
        raise EmptyCorpus("no term survived tokenization and filtering")
    return Vocabulary(terms)


def featurize(docs: Iterable[Document], vocab: Vocabulary, t0: datetime,
              bin_width: timedelta, T: int,
              tokens: Sequence[list[str]]) -> Corpus:
    """Count each document's token list into per-feed W x T matrices.

    ``tokens`` holds one list per document, in document order, as
    ``build_vocabulary(..., tokens=toks)`` collects them. Cell (w, t) of
    feed f counts term w in the lists of feed f's documents whose
    timestamp falls in bin t. Documents outside [t0, t0 + T*bin_width) are
    dropped and counted in ``Corpus.n_dropped``. The feeds are the
    documents' feed ids, sorted; the order of documents does not matter.
    """
    if T <= 0:
        raise NoBins(f"need at least one time bin, got T={T}")
    if t0.tzinfo is None:
        raise ValueError("t0 must be timezone-aware")
    bin_seconds = bin_width.total_seconds()
    if bin_seconds <= 0:
        raise BadWindow(
            f"bin width must be positive, got {bin_seconds / 3600:g} hours")

    docs = list(docs)
    if len(tokens) != len(docs):
        raise ValueError(f"tokens has {len(tokens)} lists for {len(docs)} documents")
    feed_list = sorted({d.feed_id for d in docs})
    slot = {fid: i for i, fid in enumerate(feed_list)}

    W = len(vocab)
    rows: list[list[int]] = [[] for _ in feed_list]
    cols: list[list[int]] = [[] for _ in feed_list]
    dropped = 0
    for i, d in enumerate(docs):
        t = math.floor((d.timestamp - t0).total_seconds() / bin_seconds)
        if t < 0 or t >= T:
            dropped += 1
            continue
        fi = slot[d.feed_id]
        for term in tokens[i]:
            w = vocab.index.get(term)
            if w is not None:
                rows[fi].append(w)
                cols[fi].append(t)

    series = []
    for fi, fid in enumerate(feed_list):
        m = sp.coo_matrix(
            (np.ones(len(rows[fi])), (rows[fi], cols[fi])), shape=(W, T)
        ).tocsc()
        m.sum_duplicates()
        series.append(FeedSeries(fid, m))
    corpus = Corpus(vocab, t0, bin_seconds / 3600.0, T, series,
                    normalization="counts", n_dropped=dropped)
    corpus.validate()
    return corpus


def tfidf_normalize(c: Corpus) -> Corpus:
    """Scale each term row by its pooled inverse document frequency.

    The document frequency df(w) counts (feed, bin) cells with a positive
    count anywhere in the pool; idf(w) = ln(F*T / (1 + df(w))), clamped at
    zero so ubiquitous terms are zeroed out rather than negated.
    """
    if c.normalization == "tfidf":
        raise AlreadyNormalized("corpus is already tf-idf normalized")
    df = np.zeros(c.W)
    for f in c.feeds:
        df += np.asarray((f.matrix > 0).sum(axis=1)).ravel()
    n_cells = c.F * c.T
    with np.errstate(divide="ignore"):
        idf = np.log(n_cells / (1.0 + df))
    idf = np.maximum(idf, 0.0)
    scale = sp.diags(idf)
    feeds = []
    for f in c.feeds:
        m = (scale @ f.matrix).tocsc()
        m.eliminate_zeros()
        feeds.append(FeedSeries(f.feed_id, m))
    return Corpus(c.vocabulary, c.t0, c.bin_hours, c.T, feeds,
                  normalization="tfidf", synthetic=c.synthetic,
                  n_dropped=c.n_dropped)


# ---------------------------------------------------------------------------
# disk format

# seconds and their fraction in an ISO 8601 time
_FRACTION_RE = re.compile(r"(\d{2}:\d{2}:\d{2})\.(\d+)")


def _fromisoformat(s: str) -> datetime:
    """``datetime.fromisoformat`` with a trailing "Z" as UTC and a seconds
    fraction of any length, cut or padded to microseconds as Python 3.11
    does; Python 3.10 accepts only 3 or 6 digits. Raises ValueError."""
    if s.endswith("Z"):
        s = s[:-1] + "+00:00"
    s = _FRACTION_RE.sub(lambda m: f"{m[1]}.{m[2][:6]:0<6}", s, count=1)
    return datetime.fromisoformat(s)


def _json_type(value) -> str:
    """The JSON type name of a decoded value, for error messages."""
    return {bool: "boolean", int: "number", float: "number", str: "string",
            list: "array", dict: "object"}.get(type(value), "null")


def _check_strings(key: str, value) -> None:
    """Raise ValueError unless ``value`` is a JSON array of strings."""
    if not isinstance(value, list):
        raise ValueError(f"{key} must be an array of strings, got {_json_type(value)}")
    for i, v in enumerate(value):
        if not isinstance(v, str):
            raise ValueError(f"{key}[{i}] must be a string, got {_json_type(v)}")


def _parse_rfc3339(s: str) -> datetime:
    try:
        dt = _fromisoformat(s)
    except ValueError as e:
        raise FormatError(f"bad RFC-3339 timestamp {s!r}: {e}") from None
    if dt.tzinfo is None:
        raise FormatError(f"timestamp {s!r} lacks a timezone offset")
    return dt


def store_corpus(c: Corpus, directory: str | Path) -> Path:
    """Write ``meta.json`` and ``matrix.csv``; returns the directory path."""
    c.validate()
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    meta = {
        "format_version": FORMAT_VERSION,
        "vocabulary": c.vocabulary.terms,
        "feeds": c.feed_ids,
        "t0": c.t0.isoformat(),
        "bin_hours": c.bin_hours,
        "T": c.T,
        "normalization": c.normalization,
        "synthetic": c.synthetic,
        "tool_version": __version__,
    }
    (directory / "meta.json").write_text(
        json.dumps(meta, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    chunks = [_MATRIX_HEADER + "\n"]
    for fi, f in enumerate(c.feeds):
        coo = f.matrix.tocoo()
        order = np.lexsort((coo.col, coo.row))
        n = len(order)
        cells = [fi] * (4 * n)  # feed index, then term, time and value
        cells[1::4] = coo.row[order].tolist()
        cells[2::4] = coo.col[order].tolist()
        cells[3::4] = coo.data[order].tolist()
        chunks.append(("%d,%d,%d,%.17g\n" * n) % tuple(cells))
    (directory / "matrix.csv").write_text("".join(chunks), encoding="utf-8")
    return directory


def _read_matrix(path: Path, shape: tuple[int, int, int]) -> np.ndarray:
    """The rows of ``matrix.csv`` as a ``_MATRIX_ROW`` array, each index
    checked against ``shape`` = (feeds, terms, bins).

    One ``np.loadtxt`` call parses a well-formed file. numpy rejects
    whatever Python's ``int``/``float`` reject (and some they accept, such
    as ``1_0``), so when it fails, or an index is out of range, the file is
    read again line by line: that loop accepts exactly what it always
    accepted and names the first bad line.
    """
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if header != _MATRIX_HEADER:
            raise FormatError(f"bad matrix.csv header: {header!r}")
        try:
            with warnings.catch_warnings():
                # a header-only file is a valid all-zero corpus
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                rows = np.loadtxt(fh, dtype=_MATRIX_ROW, delimiter=",",
                                  comments=None, ndmin=1)
        except ValueError:
            rows = None
    if rows is not None and all(
            ((rows[name] >= 0) & (rows[name] < n)).all()
            for name, n in zip(("feed", "term", "time"), shape)):
        return rows
    return _read_matrix_lines(path, shape)


def _read_matrix_lines(path: Path, shape: tuple[int, int, int]) -> np.ndarray:
    """Per-line parse of ``matrix.csv`` that names the first bad line."""
    n_feeds, W, T = shape
    parsed = []
    with open(path, encoding="utf-8") as fh:
        fh.readline()  # header, checked by the caller
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            try:
                fi_s, w_s, t_s, v_s = line.split(",")
                fi, w, t, v = int(fi_s), int(w_s), int(t_s), float(v_s)
            except ValueError:
                raise FormatError(
                    f"bad matrix.csv row at line {lineno}: {line!r}"
                ) from None
            if not (0 <= fi < n_feeds and 0 <= w < W and 0 <= t < T):
                raise FormatError(f"index out of range at line {lineno}: {line!r}")
            parsed.append((fi, w, t, v))
    return np.array(parsed, dtype=_MATRIX_ROW)


def load_corpus(directory: str | Path) -> Corpus:
    """Inverse of :func:`store_corpus`; the round trip is bit-exact."""
    directory = Path(directory)
    meta_path = directory / "meta.json"
    try:
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as e:
        raise FormatError(f"cannot read corpus meta {meta_path}: {e}") from None
    if not isinstance(meta, dict):
        raise FormatError(f"bad corpus meta {meta_path}: expected a JSON object, "
                          f"got {_json_type(meta)}")
    version = meta.get("format_version")
    if version != FORMAT_VERSION or isinstance(version, bool):
        raise FormatError(
            f"unsupported corpus format: expected version {FORMAT_VERSION}, "
            f"found {version!r}"
        )
    for key in ("vocabulary", "feeds", "t0", "bin_hours", "T", "normalization"):
        if key not in meta:
            raise FormatError(f"corpus meta is missing key {key!r}")

    feed_ids = meta["feeds"]
    synthetic = meta.get("synthetic", False)
    try:
        for key in ("bin_hours", "T"):  # float() and int() read true as 1
            if isinstance(meta[key], bool):
                raise ValueError(f"{key} must be a number, got boolean")
        if not isinstance(synthetic, bool):
            raise ValueError(f"synthetic must be a boolean, got {_json_type(synthetic)}")
        bin_hours, T = float(meta["bin_hours"]), int(meta["T"])
        if not (math.isfinite(bin_hours) and bin_hours > 0):
            raise ValueError(f"bin_hours must be finite and positive, "
                             f"got {meta['bin_hours']!r}")
        if T != meta["T"] or T < 1:  # int() truncates 12.7 and parses "12"
            raise ValueError(f"T must be a positive integer, got {meta['T']!r}")
        _check_strings("vocabulary", meta["vocabulary"])
        _check_strings("feeds", feed_ids)
        if not isinstance(meta["t0"], str):
            raise ValueError(f"t0 must be a string, got {_json_type(meta['t0'])}")
        # every feed-independent check of validate() runs on the meta alone
        corpus = Corpus(Vocabulary(meta["vocabulary"]), _parse_rfc3339(meta["t0"]),
                        bin_hours, T, [], normalization=meta["normalization"],
                        synthetic=synthetic)
        corpus.validate()
        _check_unique("feed ids", feed_ids)
    except (TypeError, ValueError, OverflowError) as e:
        raise FormatError(f"bad corpus meta {meta_path}: {e}") from None
    W, T = corpus.W, corpus.T
    matrix_path = directory / "matrix.csv"
    rows = _read_matrix(matrix_path, (len(feed_ids), W, T))
    # a stable sort keeps each feed's rows in file order, so duplicate
    # cells are summed in the same order as they were written
    rows = rows[np.argsort(rows["feed"], kind="stable")]
    bounds = np.searchsorted(rows["feed"], np.arange(len(feed_ids) + 1))
    for i, fid in enumerate(feed_ids):
        own = rows[bounds[i]:bounds[i + 1]]
        m = sp.coo_matrix((np.ascontiguousarray(own["value"]),
                           (own["term"], own["time"])), shape=(W, T))
        corpus.feeds.append(FeedSeries(fid, m.tocsc()))
    try:
        corpus.validate()
    except ValueError as e:
        raise FormatError(f"bad corpus data {matrix_path}: {e}") from None
    return corpus


def corpus_content_hash(directory: str | Path) -> str:
    """sha256 over meta.json and matrix.csv, used to bind models to data."""
    directory = Path(directory)
    h = hashlib.sha256()
    for name in ("meta.json", "matrix.csv"):
        h.update((directory / name).read_bytes())
    return h.hexdigest()


def read_documents_jsonl(path: str | Path) -> Iterator[Document]:
    """Yield documents from a JSON-lines file.

    Each line is {"feed": str, "timestamp": RFC-3339 str, "text": str}.
    Raises FormatError naming the offending line number on malformed input.
    """
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                feed = obj["feed"]
                ts = obj["timestamp"]
                text = obj["text"]
            except (json.JSONDecodeError, KeyError, TypeError) as e:
                raise FormatError(f"malformed document at line {lineno}: {e}") from None
            for key, value in (("feed", feed), ("timestamp", ts), ("text", text)):
                if not isinstance(value, str):
                    raise FormatError(f"malformed document at line {lineno}: {key!r} "
                                      f"must be a string, got {_json_type(value)}")
            try:
                yield Document(feed, _parse_rfc3339(ts), text)
            except (FormatError, ValueError) as e:
                raise FormatError(f"malformed document at line {lineno}: {e}") from None
