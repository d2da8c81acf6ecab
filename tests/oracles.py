"""Shared brute-force oracles and log fuzzers for the metric tests.

The oracles re-derive both measures straight from the raw interaction rows,
independently of the library's implementations.
"""
from __future__ import annotations

import math

from searchsim.agents import UserKind
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
