"""Independent checks of the simulator's outputs.

``check_search`` ranks a sample of queries by brute force, scoring every
document with the documented BM25 formula, and compares the index's pages
against that ranking. ``check_evaluation`` recomputes the information-gain
and session-DCG curves, their step-interpolated means and the unjudged
counts from the session logs alone, and compares them with the CSVs that
``evaluate`` wrote. Neither uses the simulator's own scoring or metric code.
"""
from __future__ import annotations

import csv
import json
import math
import re
from bisect import bisect_right
from collections import Counter
from pathlib import Path

K1, B = 1.2, 0.75
SDCG_B, SDCG_BQ = 2.0, 4.0
TOLERANCE = 1e-9
_TOKEN_RE = re.compile(r"[^\W_]+")


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOLERANCE * max(1.0, abs(b))


# --- search ----------------------------------------------------------------------

def brute_force_ranking(doc_ids: list[str], counts: list[Counter], query: str
                        ) -> list[tuple[str, float]]:
    """Every matching document as (doc_id, score), best first, ties by doc_id.

    ``counts`` holds each document's term counts, title and body together.
    """
    lengths = [sum(c.values()) for c in counts]
    n, avg = len(counts), sum(lengths) / len(counts)
    terms = _TOKEN_RE.findall(query.lower())
    df = {t: sum(1 for c in counts if t in c) for t in set(terms)}
    ranked = []
    for doc_id, tf_of, length in zip(doc_ids, counts, lengths):
        score, hit = 0.0, False
        for term in terms:
            tf = tf_of.get(term, 0)
            if tf:
                hit = True
                idf = math.log((n - df[term] + 0.5) / (df[term] + 0.5) + 1.0)
                score += idf * tf * (K1 + 1) / (tf + K1 * (1 - B + B * length / avg))
        if hit:
            ranked.append((doc_id, score))
    ranked.sort(key=lambda pair: (-pair[1], pair[0]))
    return ranked


def check_search(index, search, queries: list[str], pages: int, page_size: int) -> list[str]:
    """Compare ``search`` pages with the brute-force ranking; return the problems."""
    doc_ids = [d.doc_id for d in index.documents]
    counts = [Counter(_TOKEN_RE.findall(f"{d.title or ''} {d.body}".lower()))
              for d in index.documents]
    problems = []
    for query in queries:
        expected = brute_force_ranking(doc_ids, counts, query)
        scores = dict(expected)
        for page in range(1, pages + 1):
            want = expected[(page - 1) * page_size:page * page_size]
            got = search(index, query, page, page_size).results
            if len(got) != len(want):
                problems.append(f"query {query!r} page {page}: {len(got)} results, "
                                f"brute force has {len(want)}")
                continue
            for (_, doc_id, score), (want_id, want_score) in zip(got, want):
                # a different document is fine only where the scores tie
                if not _close(score, want_score) or not _close(scores.get(doc_id, -1.0), want_score):
                    problems.append(f"query {query!r} page {page}: got {doc_id} {score!r}, "
                                    f"brute force has {want_id} {want_score!r}")
                    break
    return problems


# --- evaluation ------------------------------------------------------------------------

def _curves(records: list[dict]) -> tuple[list[tuple[float, float]], list[tuple[int, float]], int]:
    """IG points, sDCG points and unjudged-relevant count of one session log."""
    ig, effort, effect, unjudged = [], 0.0, 0.0, 0
    per_query: list[list[float]] = []
    for r in records:
        effort += r["cost"]
        if r["kind"] == "QueryIssued":
            per_query.append([])
        elif r["kind"] == "JudgmentMade":
            grade = r["payload"]["grade"]
            gain = float(grade) if grade is not None and grade > 0 else 0.0
            per_query[-1].append(gain)
            if r["payload"]["relevant"]:
                if grade is None:
                    unjudged += 1
                effect += gain
        ig.append((effort, effect))
    sdcg, total = [], 0.0
    for q, gains in enumerate(per_query, start=1):
        dcg = sum(g / (1.0 if i < SDCG_B else math.log(i, SDCG_B))
                  for i, g in enumerate(gains, start=1))
        total += dcg / (1.0 + math.log(q, SDCG_BQ))
        sdcg.append((q, total))
    return ig, sdcg, unjudged


def _mean_curve(curves: list[list[tuple[float, float]]]) -> list[tuple[float, float, int]]:
    grid = sorted({x for points in curves for x, _ in points})
    xs = [[x for x, _ in points] for points in curves]
    rows = []
    for x in grid:
        total = 0.0
        for points, keys in zip(curves, xs):
            i = bisect_right(keys, x)
            total += points[i - 1][1] if i else 0.0
        rows.append((x, total / len(curves), len(curves)))
    return rows


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))[1:]


def check_evaluation(logs_dir: Path, eval_dir: Path, name: str = "campaign") -> list[str]:
    """Recompute the evaluation outputs from the logs; return the problems."""
    by_kind: dict[str, tuple[list, list]] = {}
    unjudged_rows = []
    for path in sorted(logs_dir.glob("*.jsonl")):
        lines = path.read_text(encoding="utf-8").splitlines()
        header = json.loads(lines[0])
        ig, sdcg, unjudged = _curves([json.loads(line) for line in lines[1:]])
        kind = header["user_kind"]
        by_kind.setdefault(kind, ([], []))
        by_kind[kind][0].append(ig)
        by_kind[kind][1].append(sdcg)
        unjudged_rows.append((kind, header["topic_id"], unjudged))
    problems = []
    for kind, (igs, sdcgs) in sorted(by_kind.items()):
        for metric, curves in (("ig", igs), ("sdcg", sdcgs)):
            path = eval_dir / f"{name}.{metric}.{kind}.csv"
            if not path.is_file():
                problems.append(f"{path.name} is missing")
                continue
            got = _read_csv(path)
            want = _mean_curve(curves)
            if len(got) != len(want) or not all(
                    _close(float(g[0]), w[0]) and _close(float(g[1]), w[1]) and int(g[2]) == w[2]
                    for g, w in zip(got, want)):
                problems.append(f"{path.name} differs from the curves recomputed from the logs")
    got = [(k, t, int(n)) for k, t, n in _read_csv(eval_dir / "unjudged_summary.csv")]
    if got != sorted(unjudged_rows):
        problems.append("unjudged_summary.csv differs from the counts in the logs")
    return problems
