from __future__ import annotations

import array
import gc
import hashlib
import json
import math
import os
import random
import subprocess
import sys
import tempfile
import textwrap
import threading
import tracemalloc
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from searchsim.corpus import Document
from searchsim.index import (
    ENGLISH_STOPWORDS,
    IndexBuildError,
    IndexFormatError,
    bm25_score,
    build_index,
    load_index,
    make_snippet,
    rank_documents,
    save_index,
    search,
    tokenize,
)

from oracles import oracle_postings, oracle_snippet, oracle_tokenize

# Hand evaluation of the scoring formula for tf=1, df=1, dl=avgdl, N=2:
# idf = ln((2 - 1 + 0.5)/(1 + 0.5) + 1) = ln(2); tf part = 2.2/2.2 = 1.
HAND_SCORE = math.log(2.0)


def brute_force_search(docs, query, k1=1.2, b=0.75, stopwords=None, stem=False):
    """Independent scorer: evaluates bm25_score over every document."""
    token_lists = [tokenize((d.title or "") + " " + d.body, stopwords, stem)
                   for d in docs]
    lengths = [len(ts) for ts in token_lists]
    n = len(docs)
    avg = sum(lengths) / n if n else 0.0
    dfs = {}
    for ts in token_lists:
        for term in set(ts):
            dfs[term] = dfs.get(term, 0) + 1
    scored = []
    for i, doc in enumerate(docs):
        score = 0.0
        hit = False
        for term in tokenize(query, stopwords, stem):
            tf = token_lists[i].count(term)
            if tf == 0 or term not in dfs:
                continue
            hit = True
            score += bm25_score(tf, dfs[term], lengths[i], avg, n, k1, b)
        if hit:
            scored.append((doc.doc_id, score))
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored


def _unpacked(data: bytes, typecode: str) -> list[int]:
    values = array.array(typecode)
    values.frombytes(data)
    if sys.byteorder == "big":
        values.byteswap()
    return values.tolist()


def _packed(values, typecode: str) -> bytes:
    packed = array.array(typecode, values)
    if sys.byteorder == "big":
        packed.byteswap()
    return packed.tobytes()


def v5_parts(data: bytes):
    """A version 5 index file as (header, doc lengths, {term: flat postings},
    text block, text offsets)."""
    head, _, rest = data.partition(b"\n")
    header = json.loads(head)
    n_docs = len(header["doc_ids"])
    block_size = (n_docs + 2 * sum(header["df"])) * header["itemsize"]
    text_end = len(rest) - 8 * (2 * n_docs + 1)
    values = _unpacked(rest[:block_size], header["typecode"])
    postings, start = {}, n_docs
    for term, df in zip(header["terms"], header["df"]):
        postings[term] = values[start:start + 2 * df]
        start += 2 * df
    return (header, values[:n_docs], postings, rest[block_size:text_end],
            _unpacked(rest[text_end:], "Q"))


def v5_file(header: dict, lengths: list, postings: dict, text: bytes, offsets: list) -> bytes:
    """Pack the parts into a version 5 file as given: the block in the
    header's typecode and the offsets as 'Q', little-endian."""
    head = json.dumps(header, sort_keys=True, ensure_ascii=False, separators=(",", ":"))
    block = [lengths, *postings.values()]
    return b"".join([head.encode("utf-8"), b"\n",
                     *(_packed(values, header["typecode"]) for values in block),
                     text, _packed(offsets, "Q")])


def edit_v5(data: bytes, *, header=None, lengths=None, postings=None, df=None,
            text=None, offsets=None) -> bytes:
    """A copy of a version 5 file with header keys, the document lengths,
    some terms' postings, the text block or its offsets replaced. Each term's
    df follows its postings unless ``df`` gives it."""
    fields, old_lengths, all_postings, old_text, old_offsets = v5_parts(data)
    fields.update(header or {})
    all_postings.update(postings or {})
    fields["terms"] = list(all_postings)
    fields["df"] = [(df or {}).get(term, len(flat) // 2) for term, flat in all_postings.items()]
    return v5_file(fields, old_lengths if lengths is None else lengths, all_postings,
                   old_text if text is None else text,
                   old_offsets if offsets is None else offsets)


def stored_documents(data: bytes) -> list[dict]:
    """The documents of a version 5 file as the JSON objects of version 3."""
    header, _, _, text, offsets = v5_parts(data)
    return [{"doc_id": doc_id, "source": "synthetic",
             "title": text[offsets[2 * i]:offsets[2 * i + 1]].decode("utf-8") or None,
             "body": text[offsets[2 * i + 1]:offsets[2 * i + 2]].decode("utf-8")}
            for i, doc_id in enumerate(header["doc_ids"])]


def v4_file(data: bytes) -> bytes:
    """The version 4 file of the index in a version 5 file: the header also
    lists each document's source and the ordinals of the untitled ones."""
    header, *parts = v5_parts(data)
    documents = stored_documents(data)
    header.update(version=4, sources=[d["source"] for d in documents],
                  untitled=[i for i, d in enumerate(documents) if d["title"] is None])
    return v5_file(header, *parts)


def v3_file(data: bytes) -> bytes:
    """The version 3 file of the index in a version 5 file: the documents in
    the JSON header, no text block."""
    header, lengths, postings, _, _ = v5_parts(data)
    fields = {key: header[key] for key in ("format", "typecode", "itemsize", "stopwords",
                                           "stem", "k1", "b", "terms", "df")}
    fields.update(version=3, documents=stored_documents(data))
    return v5_file(fields, lengths, postings, b"", [])


def v2_file(data: bytes) -> bytes:
    """The version 2 file of the index in a version 5 file: one JSON document."""
    header, lengths, postings, _, _ = v5_parts(data)
    payload = {key: header[key] for key in ("format", "stopwords", "stem", "k1", "b")}
    payload.update(version=2, documents=stored_documents(data), doc_lengths=lengths,
                   postings=postings)
    return json.dumps(payload, sort_keys=True, ensure_ascii=False,
                      separators=(",", ":")).encode("utf-8")


def truncated_block(data: bytes) -> bytes:
    """A version 5 file with the last byte of its block cut out, and the text
    and offsets after it as they were."""
    header = json.loads(data.partition(b"\n")[0])
    block_end = data.index(b"\n") + 1 + (
        len(header["doc_ids"]) + 2 * sum(header["df"])) * header["itemsize"]
    return data[:block_end - 1] + data[block_end:]


def saved_bytes(index) -> bytes:
    """The bytes that ``save_index`` writes for ``index``."""
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "index.json"
        save_index(index, path)
        return path.read_bytes()


def load_bytes(data: bytes):
    """The index that ``load_index`` reads from a file holding ``data``; the
    file stays mapped after its directory is removed."""
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "index.json"
        path.write_bytes(data)
        return load_index(path)


def random_corpus(rng, max_docs=50):
    words = ["alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf",
             "hotel", "india", "juliet", "kilo", "lima"]
    n = rng.randrange(1, max_docs + 1)
    docs = []
    for i in range(n):
        body = " ".join(rng.choice(words) for _ in range(rng.randrange(0, 30)))
        title = " ".join(rng.choice(words) for _ in range(rng.randrange(0, 4))) or None
        docs.append(Document(doc_id=f"doc{i:03d}", title=title, body=body))
    return docs, words


def narrowest_typecode(lengths, postings):
    """The narrowest array type that holds every value of a block."""
    largest = max([*lengths, *(value for flat in postings.values() for value in flat)],
                  default=0)
    return next(t for t in "BHI" if largest < 256 ** array.array(t).itemsize)


ANALYZERS = pytest.mark.parametrize("stopwords, stem", [
    (None, False), (None, True), (ENGLISH_STOPWORDS, False), (ENGLISH_STOPWORDS, True),
], ids=["plain", "stem", "stopwords", "stopwords stem"])

# Words that stopword removal or stemming acts on, mixed with single
# characters. The non-ASCII ones change length or depend on context when
# lowercased ('İ', a final 'Σ'), or are letters or digits only outside ASCII.
WORDS = ["the", "The", "OF", "is", "cities", "Buses", "gas", "R2D2", "x_y"]
NON_ASCII = ["Σ", "İ", "ß", "ǅ", "²", "ΑΣ", "é"]
ascii_text = st.lists(st.sampled_from([chr(c) for c in range(128)]) | st.sampled_from(WORDS),
                      max_size=30).map("".join)
mixed_text = st.lists(st.sampled_from([chr(c) for c in range(128)])
                      | st.sampled_from(WORDS + NON_ASCII), max_size=30).map("".join)


class TestTokenize:
    @ANALYZERS
    @given(text=ascii_text)
    def test_ascii_text_equals_regex_oracle(self, text, stopwords, stem):
        assert tokenize(text, stopwords, stem) == oracle_tokenize(text, stopwords, stem)

    @ANALYZERS
    @given(text=mixed_text)
    def test_non_ascii_text_equals_regex_oracle(self, text, stopwords, stem):
        assert tokenize(text, stopwords, stem) == oracle_tokenize(text, stopwords, stem)

    def test_basic(self):
        assert tokenize("Hello, World") == ["hello", "world"]

    def test_empty(self):
        assert tokenize("") == []

    def test_splits_on_every_non_alphanumeric(self):
        assert tokenize("U.S.-based") == ["u", "s", "based"]
        assert tokenize("snake_case") == ["snake", "case"]

    def test_stopwords_applied_when_configured(self):
        assert tokenize("the cat and the hat", stopwords=ENGLISH_STOPWORDS) == ["cat", "hat"]

    def test_stemming_folds_plurals(self):
        assert tokenize("permits hives regulations", stem=True) == \
            ["permit", "hive", "regulation"]


class TestBuildIndex:
    def test_single_doc_postings(self):
        index = build_index([Document(doc_id="d", body="a b a")])
        assert index.postings["a"] == [0, 2]
        assert index.postings["b"] == [0, 1]
        assert index.doc_lengths == [3]
        assert index.avg_doc_len == 3.0

    def test_empty_corpus(self):
        index = build_index([])
        assert index.n_docs == 0
        assert index.avg_doc_len == 0.0
        assert index.postings == {}

    def test_toy_corpus_document_frequencies(self, toy_docs):
        index = build_index(toy_docs)
        # hand count over the three bodies plus d1's title
        assert index.df("apples") == 2
        assert index.df("apple") == 1
        assert index.df("market") == 2
        assert index.df("the") == 2
        assert index.df("red") == 1

    @ANALYZERS
    @settings(max_examples=50)
    @given(fields=st.lists(st.tuples(
        st.none() | st.just("") | mixed_text | mixed_text.map(lambda t: t + "Σ"),
        mixed_text | mixed_text.map(lambda t: "Σ" + t)), max_size=6))
    def test_equals_title_and_body_tokenized_apart(self, fields, stopwords, stem):
        docs = [Document(doc_id=f"d{i}", title=title, body=body)
                for i, (title, body) in enumerate(fields)]
        index = build_index(docs, stopwords=stopwords, stem=stem)
        assert (index.postings, index.doc_lengths) == oracle_postings(docs, stopwords, stem)
        header, lengths, postings, _, _ = v5_parts(saved_bytes(index))
        assert header["typecode"] == narrowest_typecode(lengths, postings)

    def test_title_tokens_counted_in_length(self):
        with_title = build_index([Document(doc_id="d", title="x y", body="z")])
        assert with_title.doc_lengths == [3]

    def test_duplicate_doc_id_rejected(self):
        docs = [Document(doc_id="same", body="a"), Document(doc_id="same", body="b")]
        with pytest.raises(IndexBuildError):
            build_index(docs)

    @pytest.mark.parametrize("make", [
        build_index,
        lambda docs: load_bytes(saved_bytes(build_index(docs))),
    ], ids=["built", "mapped"])
    def test_freed_without_the_cycle_collector(self, toy_docs, make):
        # a reference cycle would keep a used index (and its caches) alive
        # until a full collection, beside the next index a process loads
        gc.disable()
        try:
            index = make(toy_docs)
            search(index, "apples market")
            ref = weakref.ref(index)
            del index
            assert ref() is None
        finally:
            gc.enable()

    def test_postings_sorted_by_ordinal(self, toy_docs):
        index = build_index(toy_docs)
        for term, flat in index.postings.items():
            assert len(flat) % 2 == 0, term
            ordinals, tfs = flat[::2], flat[1::2]
            assert all(a < b for a, b in zip(ordinals, ordinals[1:])), term
            assert min(tfs) >= 1, term


class TestBm25Score:
    def test_zero_tf_scores_zero(self):
        assert bm25_score(0, 1, 10, 10.0, 5) == 0.0

    def test_hand_case(self):
        score = bm25_score(1, 1, 10, 10.0, 2, k1=1.2, b=0.75)
        assert score == pytest.approx(HAND_SCORE, abs=1e-12)

    def test_monotone_in_tf(self):
        previous = -1.0
        for tf in range(0, 101):
            score = bm25_score(tf, 3, 50, 40.0, 10)
            assert score >= previous
            previous = score

    def test_non_negative_on_random_valid_inputs(self):
        rng = random.Random(7)
        for _ in range(500):
            n = rng.randrange(1, 100)
            df = rng.randrange(1, n + 1)
            tf = rng.randrange(0, 20)
            doc_len = rng.randrange(0, 200)
            avg = rng.uniform(1.0, 100.0)
            assert bm25_score(tf, df, doc_len, avg, n) >= 0.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            bm25_score(1, 0, 10, 10.0, 5)
        with pytest.raises(ValueError):
            bm25_score(1, 6, 10, 10.0, 5)
        with pytest.raises(ValueError):
            bm25_score(1, 1, 10, 0.0, 5)


class TestImpacts:
    @pytest.mark.parametrize("k1, b", [(1.2, 0.75), (0.9, 0.4), (0, 0), (2, 1)])
    def test_impacts_equal_bm25_score_exactly(self, fixture_collection, k1, b):
        docs, _, _ = fixture_collection
        index = build_index(docs, k1=k1, b=b)
        for term, flat in index.postings.items():
            pairs = list(zip(flat[::2], flat[1::2]))
            df = len(pairs)
            assert 2 * df == len(flat) and df == index.df(term), term
            ordinals, impacts = index.impacts(term)
            assert isinstance(impacts, array.array) and impacts.typecode == "d", term
            assert list(zip(ordinals, impacts)) == [
                (ordinal, bm25_score(tf, df, index.doc_lengths[ordinal], index.avg_doc_len,
                                     index.n_docs, k1, b))
                for ordinal, tf in pairs], term


class TestSearch:
    def test_single_term_single_doc(self, toy_docs):
        serp = search(build_index(toy_docs), "oranges")
        assert [r[1] for r in serp.results] == ["d2"]
        assert serp.results[0][0] == 1

    def test_absent_term_gives_empty_serp(self, toy_docs):
        serp = search(build_index(toy_docs), "zzz")
        assert serp.results == []

    def test_equal_scores_tie_break_by_doc_id(self):
        docs = [Document(doc_id="b", body="twin text"),
                Document(doc_id="a", body="twin text")]
        serp = search(build_index(docs), "twin")
        assert [r[1] for r in serp.results] == ["a", "b"]
        assert serp.results[0][2] == serp.results[1][2]

    def test_scores_non_increasing_and_ranks_contiguous(self, fixture_collection):
        docs, _, _ = fixture_collection
        serp = search(build_index(docs), "beekeeping permit", page=1, page_size=10)
        scores = [r[2] for r in serp.results]
        assert scores == sorted(scores, reverse=True)
        assert [r[0] for r in serp.results] == list(range(1, len(serp.results) + 1))

    def test_pagination_concatenation(self, fixture_collection):
        docs, _, _ = fixture_collection
        index = build_index(docs)
        single = search(index, "the city council", 1, 12)
        paged = []
        for page in (1, 2, 3):
            paged.extend(search(index, "the city council", page, 4).results)
        assert [(r[1], r[2]) for r in paged] == [(r[1], r[2]) for r in single.results]
        assert [r[0] for r in paged] == [r[0] for r in single.results]

    def test_second_page_ranks_start_after_first(self, fixture_collection):
        docs, _, _ = fixture_collection
        serp = search(build_index(docs), "the", page=2, page_size=5)
        if serp.results:
            assert serp.results[0][0] == 6

    def test_oracle_equivalence_fuzzed(self):
        rng = random.Random(20240802)
        for trial in range(40):
            docs, words = random_corpus(rng)
            index = build_index(docs)
            query = " ".join(rng.choice(words) for _ in range(rng.randrange(1, 6)))
            expected = brute_force_search(docs, query)
            got = search(index, query, 1, len(docs) or 1)
            assert [r[1] for r in got.results] == [d for d, _ in expected]
            for (_, _, score), (_, expected_score) in zip(got.results, expected):
                assert score == pytest.approx(expected_score, abs=1e-9)

    def test_oracle_equivalence_with_k1_b_built_into_index(self):
        rng = random.Random(20261018)
        for k1, b in ((0.5, 0.3), (2.0, 1.0), (1.2, 0.0)):
            for _ in range(15):
                docs, words = random_corpus(rng)
                index = build_index(docs, k1=k1, b=b)
                query = " ".join(rng.choice(words) for _ in range(rng.randrange(1, 6)))
                expected = brute_force_search(docs, query, k1=k1, b=b)
                got = search(index, query, 1, len(docs))
                assert [(r[1], r[2]) for r in got.results] == expected

    def test_paging_interleaved_and_threaded_equals_one_page(self, fixture_collection):
        docs, _, _ = fixture_collection
        index = build_index(docs)
        words = sorted({t for d in docs for t in tokenize(d.body)})
        rng = random.Random(5)
        # many distinct queries, so both threads race to fill the impacts of
        # many terms while the other reads them
        queries = list(dict.fromkeys(" ".join(rng.sample(words, rng.randrange(1, 4)))
                                     for _ in range(150)))
        fresh = build_index(docs)
        expected = {q: search(fresh, q, 1, 30).results for q in queries}
        got: dict[int, dict[str, list]] = {0: {}, 1: {}}
        errors = []

        def fetch(worker: int) -> None:
            try:
                for page in range(1, 6):
                    for q in queries[worker::2] + queries[1 - worker::2]:
                        got[worker].setdefault(q, []).extend(search(index, q, page, 6).results)
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=fetch, args=(w,)) for w in (0, 1)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        assert not any(t.is_alive() for t in threads)
        for worker in (0, 1):
            assert got[worker] == expected

    def test_pages_are_slices_of_one_deep_search(self, fixture_collection):
        docs, _, _ = fixture_collection
        index = build_index(docs)
        for query in ("wind permits", "beekeeping hives", "no such words"):
            deep = search(index, query, 1, 12)
            pages = [search(index, query, page, 3) for page in range(1, 5)]
            assert [row for serp in pages for row in serp.results] == deep.results

    def test_ties_at_the_cutoff_equal_brute_force_pages(self):
        # 4 documents score above 20 that tie on "alpha"; every depth cuts
        # into the tie, and doc_id order differs from ordinal order
        rng = random.Random(11)
        bodies = (["alpha alpha beta"] * 4 + ["alpha gamma delta"] * 20
                  + ["gamma delta epsilon"] * 6)
        names = [f"d{i:02d}" for i in range(len(bodies))]
        rng.shuffle(names)
        docs = [Document(doc_id=name, body=body) for name, body in zip(names, bodies)]
        index = build_index(docs)
        expected = brute_force_search(docs, "alpha")
        assert len(expected) == 24
        for depth in range(1, 30):
            assert [(index.doc_ids[o], score) for o, score in
                    rank_documents(index, "alpha", depth)] == expected[:depth]
        for page in range(1, 8):
            assert [(r[1], r[2]) for r in search(index, "alpha", page, 4).results] == (
                expected[(page - 1) * 4:page * 4])

    def test_determinism_bit_identical(self, fixture_collection):
        docs, _, _ = fixture_collection
        a = search(build_index(docs), "wind permits", 1, 10)
        b = search(build_index(docs), "wind permits", 1, 10)
        assert a == b

    def test_invalid_page_args(self, toy_docs):
        index = build_index(toy_docs)
        with pytest.raises(ValueError):
            search(index, "x", page=0)
        with pytest.raises(ValueError):
            search(index, "x", page_size=0)


class TestMakeSnippet:
    def test_window_contains_query_term(self):
        doc = Document(doc_id="d", body="x " * 50 + "QUERYTERM zebra " + "y " * 50)
        snippet = make_snippet(doc, "queryterm", 60)
        assert "QUERYTERM" in snippet

    def test_no_match_falls_back_to_leading_text(self):
        doc = Document(doc_id="d", body="l" + "o n g b o d y " * 30)
        snippet = make_snippet(doc, "missing", 40)
        assert snippet.rstrip("…") in doc.body[:41]
        assert doc.body.startswith(snippet[:10])

    def test_short_body_returned_whole(self):
        doc = Document(doc_id="d", body="tiny body")
        assert make_snippet(doc, "tiny", 40) == "tiny body"

    def test_max_chars_lower_bound(self):
        with pytest.raises(ValueError):
            make_snippet(Document(doc_id="d", body="x"), "x", 15)

    def test_length_property_fuzzed(self):
        rng = random.Random(99)
        letters = "ab cd efg hij klmno pqrst"
        for _ in range(300):
            body = "".join(rng.choice(letters) for _ in range(rng.randrange(0, 400)))
            if not body:
                continue
            query = "".join(rng.choice("abcde ")) or "a"
            max_chars = rng.randrange(16, 80)
            doc = Document(doc_id="d", body=body)
            snippet = make_snippet(doc, query, max_chars)
            assert len(snippet) <= max_chars + 1


    def test_equals_token_oracle_fuzzed(self):
        rng = random.Random(20261018)
        words = ["cat", "Cat", "CAT", "cats", "scat", "concatenate", "cat9", "9cat",
                 "c4t", "2026", "dog_cat", "cat_dog", "Dog", "the", "a",
                 "İstanbul", "İ", "i", "ΣΟΦΟΣ", "σοφος", "ΟΔΟΣ", "ß", "STRASSE",
                 "strasse", "café", "CAFÉ", "naïve", "Ångström", "resume", "résumé"]
        separators = [" ", " ", " ", "  ", ", ", ". ", "-", "_", "'", "\n", "!", "(", ")"]
        query_terms = ["cat", "CAT", "cats", "at", "ca", "concat", "9", "cat9", "dog",
                       "the", "ss", "i", "İstanbul", "σοφος", "ΣΟΦΟΣ", "ß", "café",
                       "résumé", "zzz", "_", "cat_dog"]
        branches = {True: 0, False: 0}
        for _ in range(4000):
            body = "".join(rng.choice(words) + rng.choice(separators)
                           for _ in range(rng.randrange(0, 80)))
            if rng.random() < 0.5:
                body = body.encode("ascii", "ignore").decode("ascii")
            query = " ".join(rng.choice(query_terms) for _ in range(rng.randrange(0, 5)))
            tokens = tokenize(body)
            if tokens and rng.random() < 0.2:
                # a query term at the very start or end of the body
                query += " " + rng.choice((tokens[0], tokens[-1]))
            max_chars = rng.randrange(16, 201)
            if len(body) > max_chars:
                branches[body.isascii()] += 1
            assert make_snippet(Document(doc_id="d", body=body), query, max_chars) == (
                oracle_snippet(body, query, max_chars)), (body, query, max_chars)
        assert min(branches.values()) > 1000


class TestSerialization:
    def test_round_trip(self, fixture_collection, tmp_path):
        docs, _, _ = fixture_collection
        index = build_index(docs, stopwords=ENGLISH_STOPWORDS, stem=True, k1=0.9, b=0.4)
        path = tmp_path / "index.json"
        save_index(index, path)
        loaded = load_index(path)
        assert loaded.doc_ids == index.doc_ids
        assert all(isinstance(flat, array.array) for flat in loaded.postings.values())
        assert {term: list(flat) for term, flat in loaded.postings.items()} == index.postings
        assert loaded.doc_lengths == index.doc_lengths
        assert loaded.stopwords == index.stopwords
        assert loaded.stem == index.stem
        assert (loaded.k1, loaded.b) == (0.9, 0.4)
        assert (loaded.n_docs, loaded.avg_doc_len) == (index.n_docs, index.avg_doc_len)
        assert search(loaded, "beekeeping") == search(index, "beekeeping")

    @settings(max_examples=60)
    @given(fields=st.lists(st.tuples(
        st.sampled_from(["d", "Σ", "é ", "\u2028", "\n"]),
        st.none() | st.just("") | mixed_text | st.text(max_size=12) | st.just("ΑΣ\u2028"),
        st.just("") | mixed_text | st.text(max_size=40) | mixed_text.map(lambda t: t + "Σ")),
        max_size=6))
    def test_documents_round_trip(self, tmp_path_factory, fields):
        docs = [Document(doc_id=f"{prefix}{i}", title=title, body=body)
                for i, (prefix, title, body) in enumerate(fields)]
        built = build_index(docs)
        path = tmp_path_factory.mktemp("round_trip") / "index.json"
        save_index(built, path)
        loaded = load_index(path)
        assert list(loaded.documents) == docs
        assert loaded.doc_ids == built.doc_ids
        assert [loaded.document(d.doc_id) for d in docs] == docs
        query = " ".join(d.full_text() for d in docs)
        assert search(loaded, query, 1, 10) == search(built, query, 1, 10)

    def test_load_leaves_the_text_in_the_file(self, tmp_path):
        body = " ".join(["alpha", "bravo", "charlie", "delta"] * 1000)
        docs = [Document(doc_id=f"d{i}", body=body) for i in range(200)]
        path = tmp_path / "index.json"
        save_index(build_index(docs), path)
        text_size = len(v5_parts(path.read_bytes())[3])
        assert text_size > 4_000_000
        tracemalloc.start()
        try:
            index = load_index(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < text_size / 20
        assert index.document("d7") == docs[7]

    def test_saving_over_a_loaded_index_leaves_it_reading_its_own_file(
            self, toy_docs, fixture_collection, tmp_path):
        path = tmp_path / "index.json"
        save_index(build_index(toy_docs), path)
        first = load_index(path)
        other, _, _ = fixture_collection
        save_index(build_index(other), path)
        assert list(first.documents) == toy_docs
        assert [r[1] for r in search(first, "oranges").results] == ["d2"]
        assert list(load_index(path).documents) == other

    def test_a_file_cut_short_in_place_is_refused_not_a_crash(self, tmp_path):
        # in a child process, so that a SIGBUS fails this test instead of ending pytest
        script = textwrap.dedent("""
            import sys
            from searchsim.corpus import Document
            from searchsim.index import IndexFormatError, build_index, load_index, save_index
            path = sys.argv[1]
            save_index(build_index([Document(doc_id=f"d{i}", body=f"body {i} " * 50)
                                    for i in range(20)]), path)
            index = load_index(path)
            assert index.document("d19").body.startswith("body 19")
            open(path, "wb").close()
            try:
                index.document("d19")
            except IndexFormatError as exc:
                print(exc)
        """)
        done = subprocess.run([sys.executable, "-c", script, str(tmp_path / "index.json")],
                              env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert "changed since it was loaded" in done.stdout

    @pytest.mark.parametrize("longer", [True, False], ids=["longer", "equal_length"])
    def test_a_file_written_over_in_place_is_refused(self, tmp_path, longer):
        path = tmp_path / "index.json"
        def built(word, n):
            return build_index([Document(doc_id=f"d{i}", body=f"{word} {i} " * 20)
                                for i in range(n)])

        save_index(built("alpha", 5), path)
        index = load_index(path)
        assert index.document("d3").body.startswith("alpha 3")
        loaded = os.stat(path)
        if longer:
            other = saved_bytes(built("omega", 9))
            assert len(other) > loaded.st_size
        else:  # the same bytes but one letter, at a later modification time
            other = path.read_bytes().replace(b"alpha 3", b"alpha 4")
        with open(path, "wb") as out:
            out.write(other)
        # a write in the same clock tick as the save leaves the time as it was
        os.utime(path, ns=(loaded.st_atime_ns, loaded.st_mtime_ns + 10**9))
        with pytest.raises(IndexFormatError, match="changed since it was loaded"):
            index.document("d3")
        assert load_index(path).document("d3").body.startswith("omega 3" if longer
                                                               else "alpha 4")

    def test_failed_save_leaves_the_old_file_and_nothing_else(self, toy_docs, tmp_path):
        path = tmp_path / "index.json"
        save_index(build_index(toy_docs), path)
        old = path.read_bytes()
        # a lone surrogate cannot be encoded, so the save fails after the
        # header, the block and the first three documents' text are written
        broken = toy_docs + [Document(doc_id="d4", body="half \ud800 pair")]
        with pytest.raises(UnicodeEncodeError):
            save_index(build_index(broken), path)
        assert path.read_bytes() == old
        assert list(tmp_path.iterdir()) == [path]

    def test_rebuild_is_byte_identical(self, fixture_collection):
        docs, _, _ = fixture_collection
        assert saved_bytes(build_index(docs)) == saved_bytes(build_index(docs))

    # sha256 of the version 5 bytes; a new digest means the on-disk format
    # moved, and its version with it
    @pytest.mark.parametrize("options, digest", [
        ({}, "e71feb53c971f0f8b3f06a91eda3091aeca344d07301c845ba6b8f3fff4aff8c"),
        ({"stopwords": ENGLISH_STOPWORDS, "stem": True, "k1": 0.9, "b": 0.4},
         "c3f48bcc171fa8220796d0f6d36d0e5271c636c0652e37a14a8110f591c989fe"),
    ], ids=["defaults", "stopwords stem k1 b"])
    def test_bytes_are_pinned(self, fixture_collection, options, digest):
        docs, _, _ = fixture_collection
        data = saved_bytes(build_index(docs, **options))
        assert hashlib.sha256(data).hexdigest() == digest
        assert saved_bytes(load_bytes(data)) == data

    def test_bad_format_rejected(self):
        with pytest.raises(IndexFormatError):
            load_bytes(b'{"format": "something-else"}')
        with pytest.raises(IndexFormatError):
            load_bytes(b"not json at all")

    def test_postings_stored_flat(self, toy_docs):
        header, lengths, postings, _, _ = v5_parts(saved_bytes(build_index(toy_docs)))
        assert (header["version"], header["typecode"], header["itemsize"]) == (5, "B", 1)
        assert header["terms"] == sorted(postings)
        assert lengths == [7, 6, 6]
        assert postings["apples"] == [0, 2, 1, 1]
        assert header["df"][header["terms"].index("apples")] == 2

    @pytest.mark.parametrize("tokens, typecode", [(255, "B"), (256, "H"), (65536, "I")])
    def test_block_uses_the_narrowest_typecode(self, tokens, typecode):
        data = saved_bytes(build_index([Document(doc_id="d", body="a " * tokens)]))
        header, *_ = v5_parts(data)
        assert (header["typecode"], header["itemsize"]) == (
            typecode, array.array(typecode).itemsize)
        index = load_bytes(data)
        assert index.doc_lengths == [tokens]
        assert list(index.postings["a"]) == [0, tokens]

    @pytest.mark.parametrize("last_body, typecode", [("", "B"), ("a", "H")],
                             ids=["last empty", "last not empty"])
    def test_typecode_holds_the_largest_ordinal(self, last_body, typecode):
        docs = [Document(doc_id=f"d{i}", body="a") for i in range(256)]
        data = saved_bytes(build_index(docs + [Document(doc_id="d256", body=last_body)]))
        header, lengths, postings, _, _ = v5_parts(data)
        assert header["typecode"] == narrowest_typecode(lengths, postings) == typecode
        assert saved_bytes(load_bytes(data)) == data

    def test_version_2_rejected_with_rebuild_message(self, toy_docs):
        data = v2_file(saved_bytes(build_index(toy_docs)))
        with pytest.raises(IndexFormatError, match="version 2 is not supported.*"
                                                   "rerun `searchsim index`"):
            load_bytes(data)

    def test_version_3_rejected_with_rebuild_message(self, toy_docs):
        data = v3_file(saved_bytes(build_index(toy_docs)))
        with pytest.raises(IndexFormatError, match="version 3 is not supported.*"
                                                   "rerun `searchsim index`"):
            load_bytes(data)

    def test_version_4_rejected_with_rebuild_message(self, toy_docs):
        data = v4_file(saved_bytes(build_index(toy_docs)))
        with pytest.raises(IndexFormatError, match="version 4 is not supported.*"
                                                   "rerun `searchsim index`"):
            load_bytes(data)

    def test_missing_field_rejected(self, toy_docs):
        header, *parts = v5_parts(saved_bytes(build_index(toy_docs)))
        del header["k1"]
        with pytest.raises(IndexFormatError, match="malformed"):
            load_bytes(v5_file(header, *parts))

    # A negative value or a non-integer cannot be written into the unsigned
    # integer block. Each such case is its nearest version 5 corruption, named
    # in its id: the value in a block of the signed or float typecode that
    # holds it ('h', 'i', 'd', 'f'), or -1 wrapped to 0xFF in the 'B' block.
    # The toy text is "red apples" + d1's body + d2's + d3's, and d2 and d3
    # have no title, so its offsets are [0, 10, 36, 36, 68, 68, 104].
    @pytest.mark.parametrize("corrupt", [
        lambda data: edit_v5(data, header={"typecode": "h", "itemsize": 2},
                             postings={"apples": [0, -2, 1, 1]}),
        lambda data: edit_v5(data, header={"typecode": "i", "itemsize": 4},
                             lengths=[7, -4, 6]),
        lambda data: edit_v5(data, lengths=[7, 6, 6, 5]),
        lambda data: edit_v5(data, postings={"apples": [0, 2, 1, 1, 2, 1, 0, 1]}),
        lambda data: edit_v5(data, postings={"apples": [0xFF, 1]}),
        lambda data: edit_v5(data, postings={"apples": [0, 2, 7, 1]}),
        lambda data: edit_v5(data, postings={"apples": [0, 2, 1]}, df={"apples": 2}),
        lambda data: edit_v5(data, header={"typecode": "d", "itemsize": 8},
                             postings={"apples": [0, 1.5, 1, 1]}),
        lambda data: edit_v5(data, header={"typecode": "f", "itemsize": 4},
                             lengths=[7, 2.5, 6]),
        lambda data: truncated_block(edit_v5(data, header={"typecode": "H", "itemsize": 2})),
        lambda data: data.replace(b'"typecode":"B"', b'"typecode":"Z"', 1),
        lambda data: edit_v5(data, header={"itemsize": 2}),
        lambda data: edit_v5(data, df={"red": True}),
        lambda data: edit_v5(data, df={"red": 1.0}),
        lambda data: edit_v5(data, df={"red": -1}),
        lambda data: data.replace(b'"terms":["and","apple",', b'"terms":["and","and",', 1),
        lambda data: edit_v5(data, header={"doc_ids": ["d1", "d2", "d1"]}),
        lambda data: edit_v5(data, header={"doc_ids": ["d1", " ", "d3"]}),
        lambda data: edit_v5(data, offsets=[0, 36, 10, 36, 68, 68, 104]),
        lambda data: edit_v5(data, offsets=[1, 10, 36, 36, 68, 68, 104]),
        lambda data: edit_v5(data, offsets=[0, 10, 36, 36, 68, 68, 103]),
        lambda data: edit_v5(data, text=v5_parts(data)[3] + b"!"),
        lambda data: data[:data.index(b"\n") + 9],
        lambda data: edit_v5(data, header={"stem": "false"}),
        lambda data: edit_v5(data, header={"stopwords": "and"}),
        lambda data: edit_v5(data, header={"stopwords": [1, 2]}),
        lambda data: edit_v5(data, header={"k1": True}),
        lambda data: edit_v5(data, header={"k1": "1.5"}),
    ], ids=["negative tf as 'h'", "negative doc length as 'i'",
            "more lengths than documents", "df above n_docs",
            "negative ordinal as 0xFF", "ordinal past the last document",
            "odd-length postings", "float tf as 'd'",
            "float doc length as 'f'", "truncated block", "unknown typecode",
            "itemsize unequal to the typecode's", "df true", "df 1.0", "df -1",
            "term listed twice", "doc_id listed twice", "blank doc_id", "descending offsets",
            "offsets not starting at 0", "offsets ending before the text",
            "text past the last offset", "file shorter than its header says",
            "stem as a string", "stopwords as a string", "stopwords as numbers", "k1 true",
            "k1 as a string"])
    def test_invalid_values_rejected_at_load(self, toy_docs, corrupt):
        data = corrupt(saved_bytes(build_index(toy_docs)))
        with pytest.raises(IndexFormatError, match="malformed"):
            load_bytes(data)

    # k1=NaN would score every document nan, and b=7.0 re-rank them
    @pytest.mark.parametrize("name, value", [
        ("k1", float("nan")), ("k1", float("inf")), ("k1", -1.0),
        ("b", float("nan")), ("b", 7.0), ("b", -0.5),
    ], ids=["k1_nan", "k1_inf", "k1_negative", "b_nan", "b_7", "b_negative"])
    def test_bad_bm25_parameter_refused_at_build_and_load(self, toy_docs, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            build_index(toy_docs, **{name: value})
        data = edit_v5(saved_bytes(build_index(toy_docs)), header={name: value})
        with pytest.raises(IndexFormatError, match=f"malformed.*{name} must be.*"
                                                   "rerun `searchsim index`"):
            load_bytes(data)

    def test_text_that_is_not_utf8_is_refused_on_first_read(self, toy_docs):
        data = saved_bytes(build_index(toy_docs))
        text = v5_parts(data)[3]
        index = load_bytes(edit_v5(data, text=text[:36] + b"\xff" + text[37:]))
        assert index.document("d1") == toy_docs[0]
        for _ in range(2):
            with pytest.raises(IndexFormatError, match="document 'd2'.* not UTF-8.*"
                                                       "rerun `searchsim index`"):
                index.document("d2")

    @pytest.mark.parametrize("apples", [[0, 2, 0, 2], [1, 1, 0, 2]],
                             ids=["repeated ordinal", "descending ordinal"])
    def test_unordered_ordinals_rejected_on_first_use(self, toy_docs, apples):
        data = edit_v5(saved_bytes(build_index(toy_docs)), postings={"apples": apples})
        index = load_bytes(data)
        assert [r[1] for r in search(index, "oranges").results] == ["d2"]
        for _ in range(2):  # nothing is cached for the refused term
            with pytest.raises(IndexFormatError, match="term 'apples'.*strictly ascending"):
                search(index, "market apples")
