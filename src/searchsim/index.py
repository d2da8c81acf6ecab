"""Inverted index with BM25 ranking, result paging, and snippets."""
from __future__ import annotations

import array
import heapq
import json
import math
import mmap
import operator
import os
import re
import sys
import weakref
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO

from .corpus import Document

# Alphanumeric runs, lowercased; underscores and punctuation split tokens.
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
# In ASCII text the alphanumerics are [A-Za-z0-9], so mapping every other
# ASCII character to a space and splitting on whitespace gives the same runs.
_ASCII_SEPARATORS = str.maketrans({c: " " for c in range(128) if not chr(c).isalnum()})

ENGLISH_STOPWORDS = frozenset(
    """a about after all also an and any are as at be because been before but by can
    could did do does for from had has have he her his how i if in into is it its
    just may more most new no not of on one only or other our out over she should
    so some such than that the their them then there these they this to up was we
    were what when which while who will with would you your""".split()
)

DEFAULT_K1 = 1.2
DEFAULT_B = 0.75
MIN_SNIPPET_CHARS = 16


class IndexBuildError(ValueError):
    pass


class IndexFormatError(ValueError):
    pass


def _s_stem(token: str) -> str:
    # Basic plural folding (s-stemmer); not a full morphological stemmer.
    if len(token) > 4 and token.endswith("ies"):
        return token[:-3] + "y"
    if len(token) > 3 and token.endswith("es") and not token.endswith(("ses", "oes")):
        return token[:-1]
    if len(token) > 3 and token.endswith("s") and not token.endswith(("ss", "us", "is")):
        return token[:-1]
    return token


def tokenize(text: str, stopwords: frozenset[str] | None = None, stem: bool = False) -> list[str]:
    """Lowercase and split on any non-alphanumeric character; drop empty tokens.

    An optional stopword list is applied before stemming.
    """
    if text.isascii():
        tokens = text.lower().translate(_ASCII_SEPARATORS).split()
    else:
        tokens = _TOKEN_RE.findall(text.lower())
    if stopwords:
        tokens = [t for t in tokens if t not in stopwords]
    if stem:
        tokens = [_s_stem(t) for t in tokens]
    return tokens


def check_bm25_parameters(k1: float, b: float) -> None:
    """Refuse a BM25 ``k1`` or ``b`` out of range, naming it first in the ValueError."""
    if not 0 <= k1 < math.inf:
        raise ValueError(f"k1 must be a finite number >= 0, got {k1!r}")
    if not 0 <= b <= 1:
        raise ValueError(f"b must be a number in [0, 1], got {b!r}")


@dataclass
class InvertedIndex:
    """Postings and documents plus the BM25 options fixed at build time.

    Each term's postings are one flat ``[ordinal, tf, ordinal, tf, ...]``
    sequence with ordinals strictly ascending: a list when built, an unsigned
    ``array`` when loaded. ``documents`` is a list when built; a loaded index
    decodes each document from its file when it is read. ``doc_ids`` is
    derived from the documents unless given, and ``n_docs``, ``avg_doc_len``
    and each document's BM25 length norm from the lengths. BM25 contributions
    are computed once per term on first use; the cache publishes finished
    arrays only and never changes them, so concurrent sessions may share one
    index.
    """

    postings: dict[str, Sequence[int]]  # term -> [doc_ordinal, tf, doc_ordinal, tf, ...]
    doc_lengths: list[int]
    documents: Sequence[Document]
    stopwords: frozenset[str] | None = None
    stem: bool = False
    k1: float = DEFAULT_K1
    b: float = DEFAULT_B
    doc_ids: list[str] | None = None
    n_docs: int = field(init=False)
    avg_doc_len: float = field(init=False)
    _by_id: dict[str, int] = field(init=False, repr=False, compare=False)
    # term -> (ordinals, their BM25 contributions)
    _impacts: dict[str, tuple[Sequence[int], array.array]] = field(
        init=False, repr=False, compare=False)
    _norms: list[float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_bm25_parameters(self.k1, self.b)
        if self.doc_ids is None:
            self.doc_ids = [d.doc_id for d in self.documents]
        self.n_docs = len(self.doc_lengths)
        self.avg_doc_len = sum(self.doc_lengths) / self.n_docs if self.n_docs else 0.0
        self._by_id = {doc_id: i for i, doc_id in enumerate(self.doc_ids)}
        self._impacts = {}
        # bm25_score's length normalization, k1*(1 - b + b*doc_len/avg_doc_len)
        avg, k1, b = self.avg_doc_len, self.k1, self.b
        self._norms = [k1 * (1.0 - b + b * (doc_len / avg if avg > 0 else 0.0))
                       for doc_len in self.doc_lengths]

    def df(self, term: str) -> int:
        return len(self.postings.get(term, ())) // 2

    @property
    def vocabulary_size(self) -> int:
        return len(self.postings)

    def document(self, doc_id: str) -> Document:
        return self.documents[self._by_id[doc_id]]

    def impacts(self, term: str) -> tuple[Sequence[int], array.array]:
        """The ordinals of an indexed term's postings and, in an array of
        doubles, each one's bm25_score."""
        impacts = self._impacts.get(term)
        if impacts is None:
            flat = self.postings[term]
            ordinals = flat[::2]
            # a loaded file may repeat or reorder ordinals; load_index
            # leaves this walk to the first use of each term
            if not all(map(operator.lt, ordinals, ordinals[1:])):
                raise IndexFormatError(f"term {term!r}: document ordinals are not "
                                       f"strictly ascending; {_REBUILD}")
            df = len(ordinals)
            # bm25_score's float operations in its order, so each impact is
            # the same float, with idf and the length norms computed once
            idf = math.log((self.n_docs - df + 0.5) / (df + 0.5) + 1.0)
            k1_plus_1 = self.k1 + 1.0
            norms = self._norms
            contributions = array.array(
                "d", [idf * (tf * k1_plus_1) / (tf + norms[ordinal]) if tf else 0.0
                      for ordinal, tf in zip(ordinals, flat[1::2])])
            # a thread that lost the race uses the pair published first
            impacts = self._impacts.setdefault(term, (ordinals, contributions))
        return impacts

    def scores(self, terms: list[str]) -> dict[int, float]:
        """{doc_ordinal: BM25 score} of the documents matching analyzed query
        terms, summed in query-token order (a repeated token counts again), so
        every score is the same float as a per-posting bm25_score sum."""
        scores: dict[int, float] = {}
        for term in terms:
            if term not in self.postings:
                continue
            get = scores.get
            for ordinal, impact in zip(*self.impacts(term)):
                scores[ordinal] = get(ordinal, 0.0) + impact
        return scores


@dataclass
class Serp:
    """One result page: ranked (rank, doc_id, score) rows."""

    results: list[tuple[int, str, float]]


def build_index(documents: list[Document], *, stopwords: frozenset[str] | None = None,
                stem: bool = False, k1: float = DEFAULT_K1, b: float = DEFAULT_B
                ) -> InvertedIndex:
    """Build an inverted index; title tokens are folded into the body stream.

    The BM25 parameters ``k1`` and ``b`` are stored with the index and used
    by every search against it.
    """
    postings: dict[str, list[int]] = {}
    get = postings.get
    doc_lengths: list[int] = []
    seen: set[str] = set()
    for ordinal, doc in enumerate(documents):
        if doc.doc_id in seen:
            raise IndexBuildError(f"duplicate doc_id {doc.doc_id!r}")
        seen.add(doc.doc_id)
        # the "\n" between title and body is a separator that no lowercasing
        # context crosses, so these are the title's tokens, then the body's
        tokens = tokenize(doc.full_text(), stopwords, stem)
        doc_lengths.append(len(tokens))
        for term, tf in Counter(tokens).items():
            flat = get(term)
            if flat is None:
                postings[term] = [ordinal, tf]
            else:
                flat.append(ordinal)
                flat.append(tf)
    return InvertedIndex(postings=postings, doc_lengths=doc_lengths, documents=list(documents),
                         stopwords=stopwords, stem=stem, k1=k1, b=b)


def bm25_score(tf: int, df: int, doc_len: int, avg_doc_len: float, n_docs: int,
               k1: float = DEFAULT_K1, b: float = DEFAULT_B) -> float:
    """One term's BM25 contribution with the +1-smoothed idf:

        idf = ln((n_docs - df + 0.5) / (df + 0.5) + 1)
        score = idf * tf*(k1+1) / (tf + k1*(1 - b + b*doc_len/avg_doc_len))

    Non-negative for all valid inputs.
    """
    if tf < 0 or doc_len < 0:
        raise ValueError("tf and doc_len must be non-negative")
    if df < 1 or n_docs < df:
        raise ValueError("df must satisfy 1 <= df <= n_docs")
    if tf == 0:
        return 0.0
    if avg_doc_len == 0 and doc_len > 0:
        raise ValueError("avg_doc_len is 0 but doc_len > 0")
    ratio = doc_len / avg_doc_len if avg_doc_len > 0 else 0.0
    idf = math.log((n_docs - df + 0.5) / (df + 0.5) + 1.0)
    return idf * (tf * (k1 + 1.0)) / (tf + k1 * (1.0 - b + b * ratio))


def rank_documents(index: InvertedIndex, query: str, depth: int) -> list[tuple[int, float]]:
    """The ``depth`` best (doc_ordinal, score) pairs for the query, best first.

    Each document's score sums bm25_score, with the index's k1 and b, over
    the query's tokens (duplicates in the query count again). Ties break by
    doc_id ascending so results are reproducible.
    """
    scores = index.scores(tokenize(query, index.stopwords, index.stem))
    candidates = scores.items()
    if 0 < depth < len(scores):
        # only scores at or above the depth-th best can rank; keeping every
        # tie at the cutoff leaves the doc_id tie break to the sort below
        cutoff = heapq.nlargest(depth, scores.values())[-1]
        candidates = [kv for kv in candidates if kv[1] >= cutoff]
    doc_ids = index.doc_ids
    return heapq.nsmallest(depth, candidates, key=lambda kv: (-kv[1], doc_ids[kv[0]]))


def search(index: InvertedIndex, query: str, page: int = 1, page_size: int = 10) -> Serp:
    """Rank the query against the index and return one page of results.

    A query with no indexed terms yields an empty page. The query is ranked
    to a depth of ``page * page_size``, so its pages are slices of one ranking.
    ``make_snippet`` builds the snippet of a row that is read.
    """
    if page < 1 or page_size < 1:
        raise ValueError("page and page_size must be >= 1")
    start = (page - 1) * page_size
    rows = rank_documents(index, query, page * page_size)[start:]
    doc_ids = index.doc_ids
    return Serp(results=[(start + i + 1, doc_ids[ordinal], score)
                         for i, (ordinal, score) in enumerate(rows)])


def make_snippet(document: Document, query: str, max_chars: int = 160) -> str:
    """Query-biased extract: the first body window containing a query term,
    expanded to word boundaries; falls back to the leading characters.

    The result is at most max_chars plus one ellipsis character.
    """
    if max_chars < MIN_SNIPPET_CHARS:
        raise ValueError(f"max_chars must be >= {MIN_SNIPPET_CHARS}")
    body = document.body
    if len(body) <= max_chars:
        return body.strip()
    match_start, match_end = _first_query_token(body, set(tokenize(query)))
    a = max(0, match_start - max_chars // 3)
    if a > 0:
        space = body.find(" ", a, match_start)
        if space >= 0:
            a = space + 1
    end = min(len(body), a + max_chars)
    if end < len(body):
        space = body.rfind(" ", max(a + 1, match_end), end)
        if space > match_end:
            end = space
    snippet = body[a:end].strip()
    if end < len(body):
        snippet += "…"
    return snippet


def _first_query_token(body: str, qterms: set[str]) -> tuple[int, int]:
    """Span of the first body token equal to a query term, case-insensitively;
    (0, 0) when none is. Each token is lowered on its own, because lowering
    the whole body may change its length or depend on context ('İ', final 'Σ')."""
    for m in _TOKEN_RE.finditer(body):
        if m.group(0).lower() in qterms:
            return m.start(), m.end()
    return 0, 0


# --- on-disk form -------------------------------------------------------------

_FORMAT_NAME = "searchsim.index"
_FORMAT_VERSION = 5
# the unsigned array types a block may use, narrowest first
_TYPECODES = ("B", "H", "I")
# the text offsets are written after the text, so their type cannot be the
# narrowest that holds the text's length
_OFFSET_TYPECODE = "Q"
_OFFSET_SIZE = array.array(_OFFSET_TYPECODE).itemsize
_REBUILD = "rerun `searchsim index` to rebuild it"


def _packed(values: Sequence[int], typecode: str) -> bytes:
    packed = array.array(typecode, values)
    if sys.byteorder == "big":
        packed.byteswap()
    return packed.tobytes()


def _write_index(index: InvertedIndex, out: BinaryIO) -> None:
    """One JSON header line, then the document lengths and each term's
    [ordinal, tf, ...] in term order as one block of little-endian unsigned
    integers in the narrowest array type that holds the largest value, then
    each document's title (empty when it has none) and body in UTF-8, then
    the 2·n_docs + 1 offsets into that text (title start, body start, ...,
    end) as little-endian unsigned 64-bit integers. Each piece is written as
    it is made."""
    postings = index.postings
    documents = index.documents
    terms = sorted(postings)
    # a term's largest ordinal is its last, and a tf is at most its
    # document's length, so these two maxima bound every value in the block
    largest = max(max(index.doc_lengths, default=0),
                  max((flat[-2] for flat in postings.values()), default=0))
    typecode = next((t for t in _TYPECODES if largest < 256 ** array.array(t).itemsize),
                    _TYPECODES[-1])
    header = {
        "format": _FORMAT_NAME,
        "version": _FORMAT_VERSION,
        "typecode": typecode,
        "itemsize": array.array(typecode).itemsize,
        "stopwords": sorted(index.stopwords) if index.stopwords else None,
        "stem": index.stem,
        "k1": index.k1,
        "b": index.b,
        "doc_ids": index.doc_ids,
        "terms": terms,
        "df": [len(postings[term]) // 2 for term in terms],
    }
    out.write(json.dumps(header, sort_keys=True, ensure_ascii=False,
                         separators=(",", ":")).encode("utf-8"))
    out.write(b"\n")
    out.write(_packed(index.doc_lengths, typecode))
    for term in terms:
        out.write(_packed(postings[term], typecode))
    offsets = array.array(_OFFSET_TYPECODE, [0])
    for d in documents:
        for text in (d.title or "", d.body):
            offsets.append(offsets[-1] + out.write(text.encode("utf-8")))
    out.write(_packed(offsets, _OFFSET_TYPECODE))


class _StoredDocuments(Sequence[Document]):
    """The documents of a loaded index. Each is decoded from the file's text
    block when it is read, and nothing decoded is kept."""

    def __init__(self, doc_ids: list[str], text: memoryview, offsets: array.array):
        self._doc_ids, self._text, self._offsets = doc_ids, text, offsets
        self._file: tuple[int, int, int] | None = None

    def watch(self, fd: int, loaded: os.stat_result) -> None:
        """Refuse to read a document once the file open at ``fd``, which the
        text maps, differs in size or modification time from ``loaded``.
        ``fd`` is closed with these documents."""
        self._file = fd, loaded.st_size, loaded.st_mtime_ns
        weakref.finalize(self, os.close, fd)

    def __len__(self) -> int:
        return len(self._doc_ids)

    def __getitem__(self, i: int) -> Document:
        i = range(len(self))[i]
        # reading a mapped page past the end of a file cut short in place is
        # SIGBUS, and a file written over in place holds another index's text
        if self._file is not None:
            fd, size, mtime_ns = self._file
            now = os.fstat(fd)
            if now.st_size != size or now.st_mtime_ns != mtime_ns:
                raise IndexFormatError(
                    f"the index file changed since it was loaded: it held {size} bytes "
                    f"and now holds {now.st_size}, and its modification time moved by "
                    f"{(now.st_mtime_ns - mtime_ns) / 1e9:g} s; load it again")
        title_start, body_start, end = self._offsets[2 * i:2 * i + 3]
        text = self._text
        try:
            title = str(text[title_start:body_start], "utf-8")
            body = str(text[body_start:end], "utf-8")
        except UnicodeDecodeError as exc:
            raise IndexFormatError(f"document {self._doc_ids[i]!r}: its text is not "
                                   f"UTF-8 ({exc.reason}); {_REBUILD}") from None
        return Document(doc_id=self._doc_ids[i], title=title, body=body)


def _read_index(data: bytes | mmap.mmap) -> InvertedIndex:
    """The index in a file's bytes. A loaded index reads its documents from
    ``data``, which must stay unchanged while the index is in use."""
    view = memoryview(data)
    end = data.find(b"\n")
    if end < 0:
        end = len(data)  # a version 1 or 2 file is one JSON document
    try:
        header = json.loads(str(view[:end], "utf-8"))
    except ValueError as exc:
        raise IndexFormatError(f"not an index file: {exc}") from exc
    if not isinstance(header, dict) or header.get("format") != _FORMAT_NAME:
        raise IndexFormatError("unrecognized index format")
    if header.get("version") != _FORMAT_VERSION:
        raise IndexFormatError(f"index format version {header.get('version')} is not "
                               f"supported (expected {_FORMAT_VERSION}); {_REBUILD}")
    try:
        doc_ids = header["doc_ids"]
        n_docs = len(doc_ids)
        if type(doc_ids) is not list or not all(type(doc_id) is str and doc_id.strip()
                                                for doc_id in doc_ids):
            raise ValueError("doc_ids must be a list of non-blank strings")
        stopwords, stem, k1, b = (header[key] for key in ("stopwords", "stem", "k1", "b"))
        # bool() and float() would take "false" for true and true for 1.0
        if type(stem) is not bool or {type(k1), type(b)} - {int, float}:
            raise ValueError("stem must be true or false, and k1 and b JSON numbers")
        if stopwords is not None and (type(stopwords) is not list
                                      or not all(type(word) is str for word in stopwords)):
            raise ValueError("stopwords must be null or a list of strings")
        typecode, itemsize = header["typecode"], header["itemsize"]
        if typecode not in _TYPECODES or array.array(typecode).itemsize != itemsize:
            raise ValueError(f"unknown block typecode {typecode!r} of {itemsize!r} bytes")
        terms, dfs = header["terms"], header["df"]
        # a bool is an int, and true would pass the range check
        if len(dfs) != len(terms) or not all(type(df) is int and 0 < df <= n_docs
                                             for df in dfs):
            raise ValueError(f"df must hold one integer in [1, {n_docs}] per term")
        block_end = end + 1 + (n_docs + 2 * sum(dfs)) * itemsize
        text_end = len(view) - (2 * n_docs + 1) * _OFFSET_SIZE
        if text_end < block_end:
            raise ValueError(f"the file holds {len(view)} bytes, fewer than the "
                             f"{block_end + len(view) - text_end} its header gives")
        values = array.array(typecode)
        values.frombytes(view[end + 1:block_end])
        offsets = array.array(_OFFSET_TYPECODE)
        offsets.frombytes(view[text_end:])
        if sys.byteorder == "big":
            values.byteswap()
            offsets.byteswap()
        text = view[block_end:text_end]
        if (offsets[0] != 0 or offsets[-1] != len(text)
                or not all(map(operator.le, offsets, offsets[1:]))):
            raise ValueError(f"the text offsets do not rise from 0 to the "
                             f"{len(text)} bytes of the text block")
        postings: dict[str, Sequence[int]] = {}
        start = n_docs
        for term, df in zip(terms, dfs):
            postings[term] = values[start:start + 2 * df]
            start += 2 * df
        # the block cannot hold a negative value or a non-integer. Past the
        # lengths it is [ordinal, tf] pairs throughout, so one strided max
        # checks the ordinals of every term; impacts refuses ordinals that
        # are not strictly ascending on a term's first use
        if len(values) > n_docs and max(values[n_docs::2]) >= n_docs:
            term = next(t for t, flat in postings.items() if max(flat[::2]) >= n_docs)
            raise ValueError(f"term {term!r}: a document ordinal outside [0, {n_docs})")
        if len(postings) != len(terms):
            raise ValueError("a term is listed twice")
        index = InvertedIndex(
            postings=postings,
            doc_lengths=values[:n_docs].tolist(),
            documents=_StoredDocuments(doc_ids, text, offsets),
            stopwords=frozenset(stopwords) if stopwords else None,
            stem=stem,
            k1=float(k1),
            b=float(b),
            doc_ids=doc_ids,
        )
        if len(index._by_id) != n_docs:
            raise ValueError("a doc_id is listed twice")
        return index
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise IndexFormatError(f"malformed index file ({exc!r}); {_REBUILD}") from exc


def save_index(index: InvertedIndex, path: str | Path) -> None:
    """Write the index to ``path`` through a sibling file that replaces it
    when complete, so a failed save leaves the old file as it was, and an
    index loaded from the old file keeps reading it."""
    path = Path(path)
    partial = path.with_name(f".{path.name}.{os.getpid()}.partial")
    try:
        with open(partial, "wb") as out:
            _write_index(index, out)
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def load_index(path: str | Path) -> InvertedIndex:
    # The file stays mapped read-only for the index's documents; only the
    # pages of the documents read are brought into memory. save_index
    # replaces a file rather than writing into it, so the mapping never
    # changes under a loaded index. A file written over in place is
    # refused when a document is next read.
    with open(path, "rb") as f:
        loaded = os.fstat(f.fileno())
        if not loaded.st_size:
            return _read_index(b"")
        index = _read_index(mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ))
        index.documents.watch(os.dup(f.fileno()), loaded)
    return index
