"""Shared brute-force oracles and log fuzzers for the metric, index and
parser tests.

The metric oracles re-derive both measures straight from the raw interaction
rows, independently of the library's implementations; the snippet oracle
finds its match by lowering and comparing every body token in turn; the
tokenizer, build and TRECTEXT oracles are the plain regex and two-call
definitions that the library's faster paths must equal.
"""
from __future__ import annotations

import math
import re
from collections import Counter

from searchsim.agents import UserKind
from searchsim.corpus import (
    _DOCNO_RE,
    Document,
    ParseReport,
    _clean_sgml_chunk,
    _decode,
    _norm_ws,
)
from searchsim.index import _s_stem, tokenize
from searchsim.session import (
    ANOMALY,
    DOCUMENT_VIEWED,
    JUDGMENT_MADE,
    QUERY_ISSUED,
    SESSION_ENDED,
    SNIPPET_VIEWED,
    Interaction,
    SessionLog,
)


def make_log(rows, topic_id="t1"):
    """rows: (kind, cost, payload) triples."""
    log = SessionLog(topic_id=topic_id, user_kind=UserKind.FTTC, seed=0)
    for i, (kind, cost, payload) in enumerate(rows):
        log.interactions.append(Interaction(i, kind, cost, payload))
    return log


def oracle_gain_points(log):
    running_cost = 0.0
    running_gain = 0.0
    unjudged = 0
    out = []
    for it in log.interactions:
        running_cost = running_cost + it.cost
        if it.kind == "JudgmentMade" and it.payload.get("relevant") is True:
            grade = it.payload["grade"]
            if grade is None:
                unjudged = unjudged + 1
            elif grade > 0:
                running_gain = running_gain + float(grade)
        out.append((running_cost, running_gain))
    return out, unjudged


def oracle_sdcg_points(log, b, bq):
    # collect per-query grade lists by scanning for query boundaries
    boundaries = [i for i, it in enumerate(log.interactions) if it.kind == "QueryIssued"]
    grade_lists = []
    for n, start in enumerate(boundaries):
        stop = boundaries[n + 1] if n + 1 < len(boundaries) else len(log.interactions)
        grades = [it.payload["grade"] for it in log.interactions[start:stop]
                  if it.kind == "JudgmentMade"]
        grade_lists.append(grades)
    out = []
    total = 0.0
    for position, grades in enumerate(grade_lists, start=1):
        dcg = 0.0
        for rank, grade in enumerate(grades, start=1):
            gain = 0.0 if grade is None or grade <= 0 else float(grade)
            denominator = max(1.0, math.log(rank) / math.log(b))
            dcg += gain / denominator
        query_discount = 1.0 / (1.0 + math.log(position) / math.log(bq))
        total += query_discount * dcg
        out.append((position, total))
    return out


def step_value(points, x):
    """Last value at or before x (0 before the first point)."""
    value = 0.0
    for px, py in points:
        if px > x:
            break
        value = py
    return value


def oracle_mean_curve(curves, grid):
    """Mean of the step-interpolated curves at each grid point, by linear scans."""
    n = len(curves)
    return [(x, sum(step_value(points, x) for points in curves) / n, n) for x in grid]


def fuzz_log(rng, max_interactions=100):
    rows = []
    queries = 0
    while len(rows) < rng.randrange(1, max_interactions - 1):
        roll = rng.random()
        cost = rng.choice([0.0, 0.5, 1.0, 3.0, 10.0])
        if roll < 0.2 or queries == 0:
            rows.append((QUERY_ISSUED, cost, {"query": f"q{len(rows)}"}))
            queries += 1
        elif roll < 0.45:
            rows.append((SNIPPET_VIEWED, cost, {"doc_id": f"d{len(rows)}", "rank": 1}))
        elif roll < 0.6:
            rows.append((DOCUMENT_VIEWED, cost, {"doc_id": f"d{len(rows)}"}))
        elif roll < 0.9:
            grade = rng.choice([None, 0, 1, 2, 3])
            rows.append((JUDGMENT_MADE, cost,
                         {"doc_id": f"d{len(rows)}", "relevant": rng.random() < 0.6,
                          "grade": grade}))
        else:
            rows.append((ANOMALY, 0.0, {"message": "noise"}))
    rows.append((SESSION_ENDED, 0.0, {"reason": "max_queries_reached"}))
    return make_log(rows)


def oracle_snippet(body, query, max_chars):
    """make_snippet's window around the first body token that equals a query
    term once lowercased (the leading text when none does)."""
    if len(body) <= max_chars:
        return body.strip()
    qterms = set(tokenize(query))
    match_start = match_end = -1
    if qterms:
        for m in re.finditer(r"[^\W_]+", body):
            if m.group(0).lower() in qterms:
                match_start, match_end = m.start(), m.end()
                break
    if match_start < 0:
        match_start = match_end = 0
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


_TOKEN_RE = re.compile(r"[^\W_]+")


def oracle_tokenize(text, stopwords=None, stem=False):
    """Every alphanumeric run of the lowercased text, found by one regex."""
    tokens = _TOKEN_RE.findall(text.lower())
    if stopwords:
        tokens = [t for t in tokens if t not in stopwords]
    if stem:
        tokens = [_s_stem(t) for t in tokens]
    return tokens


def oracle_postings(docs, stopwords=None, stem=False):
    """(postings, doc_lengths) with the title and the body tokenized apart
    and their token lists joined."""
    postings, lengths = {}, []
    for ordinal, doc in enumerate(docs):
        tokens = (oracle_tokenize(doc.title or "", stopwords, stem)
                  + oracle_tokenize(doc.body, stopwords, stem))
        lengths.append(len(tokens))
        for term, tf in Counter(tokens).items():
            postings.setdefault(term, []).extend((ordinal, tf))
    return postings, lengths


# Lazy patterns: a block or tag runs to the first close tag after it.
_LAZY_DOC_RE = re.compile(rb"<DOC>(.*?)</DOC>", re.S | re.I)
_LAZY_TITLE_TAG_RE = re.compile(rb"<(HEADLINE|TITLE)>(.*?)</\1>", re.S | re.I)
_LAZY_BODY_TAG_RE = re.compile(rb"<(TEXT|LEADPARA|SUMMARY|ABSTRACT)>(.*?)</\1>", re.S | re.I)


def oracle_parse_trectext(data, *, report=None):
    """parse_trectext with every block and tag found by a lazy regex."""
    report = report if report is not None else ParseReport()
    docs = []
    for block in _LAZY_DOC_RE.finditer(data):
        offset = block.start()
        inner = block.group(1)
        m = _DOCNO_RE.search(inner)
        doc_id = _decode(m.group(1)).strip() if m else ""
        if not doc_id:
            report.skipped += 1
            report.note(f"skipped DOC block without DOCNO at byte offset {offset}")
            continue
        title_parts = [_clean_sgml_chunk(t.group(2)) for t in _LAZY_TITLE_TAG_RE.finditer(inner)]
        body_parts = [_clean_sgml_chunk(t.group(2)) for t in _LAZY_BODY_TAG_RE.finditer(inner)]
        title = _norm_ws(" ".join(p for p in title_parts if p)) or None
        body = "\n\n".join(p for p in body_parts if p)
        docs.append(Document(doc_id=doc_id, title=title, body=body))
    return docs
