"""Session evaluation: effort/effect information-gain curves and session DCG.

Information gain charges every logged interaction's cost to the effort axis
and credits the document's recorded relevance grade whenever the user judged
it relevant and the assessors had graded it above zero; session DCG discounts
each query's DCG by the query's position in the session. Both read a log as
``session_log_from_jsonl`` accepts it, which refuses the ones they cannot.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from itertools import repeat
from operator import gt, itemgetter
from pathlib import Path
from typing import Iterable, Sequence

from .corpus import QrelSet
from .session import (
    JUDGMENT_MADE,
    QUERY_ISSUED,
    SNIPPET_VIEWED,
    SessionLog,
)

SCOPE_JUDGED = "judged"
SCOPE_INSPECTED = "inspected"


@dataclass
class GainCurve:
    """Cumulative (effort seconds, effect gain) after each interaction."""

    points: list[tuple[float, float]]
    unjudged_relevant_count: int

    @property
    def final_effort(self) -> float:
        return self.points[-1][0] if self.points else 0.0

    @property
    def final_effect(self) -> float:
        return self.points[-1][1] if self.points else 0.0


@dataclass
class SdcgCurve:
    """Cumulative session DCG after each query position (1-based)."""

    points: list[tuple[int, float]]

    @property
    def final_value(self) -> float:
        return self.points[-1][1] if self.points else 0.0


def _gain_of(grade: int | None) -> float:
    return float(grade) if grade is not None and grade > 0 else 0.0


def information_gain_curve(log: SessionLog) -> GainCurve:
    """Walk the log in order, accumulating cost as effort and grades as effect.

    A judgment only contributes when the user called the document relevant
    and its recorded assessor grade is present and positive. Relevant
    judgments of unjudged documents contribute nothing and are counted
    separately.
    """
    points: list[tuple[float, float]] = []
    effort = 0.0
    effect = 0.0
    unjudged_relevant = 0
    for it in log.interactions:
        effort += it.cost
        if it.kind == JUDGMENT_MADE and it.payload["relevant"]:
            grade = it.payload["grade"]
            if grade is None:
                unjudged_relevant += 1
            else:
                effect += _gain_of(grade)
        points.append((effort, effect))
    return GainCurve(points=points, unjudged_relevant_count=unjudged_relevant)


def _dcg(gains: Sequence[float], b: float) -> float:
    total = 0.0
    for i, gain in enumerate(gains, start=1):
        divisor = 1.0 if i < b else math.log(i, b)
        total += gain / divisor
    return total


def sdcg_curve(log: SessionLog, b: float = 2.0, bq: float = 4.0, *,
               scope: str = SCOPE_JUDGED, qrels: QrelSet | None = None) -> SdcgCurve:
    """Per-query DCG discounted by 1/(1 + log_bq q), accumulated over queries.

    Within a query, rank i's divisor is 1 for i < b and log_b(i) otherwise.
    ``scope="judged"`` ranks the documents the user opened and judged under
    each query, using the grades recorded in the log; ``scope="inspected"``
    ranks every snippet the user viewed, taking grades from ``qrels`` (or the
    recorded judgment when present). Unjudged documents gain 0 either way.
    """
    if not (2 <= b < math.inf and 2 <= bq < math.inf):
        raise ValueError(f"b and bq must be finite numbers >= 2, got b={b!r}, bq={bq!r}")
    if scope not in (SCOPE_JUDGED, SCOPE_INSPECTED):
        raise ValueError(f"unknown scope {scope!r}")

    per_query: list[list[float]] = []
    recorded: dict[str, int | None] = {}
    if scope == SCOPE_INSPECTED:
        for it in log.interactions:
            if it.kind == JUDGMENT_MADE:
                recorded[it.payload["doc_id"]] = it.payload["grade"]

    for it in log.interactions:
        if it.kind == QUERY_ISSUED:
            per_query.append([])
            continue
        if scope == SCOPE_JUDGED and it.kind == JUDGMENT_MADE:
            per_query[-1].append(_gain_of(it.payload["grade"]))
        elif scope == SCOPE_INSPECTED and it.kind == SNIPPET_VIEWED:
            doc_id = it.payload["doc_id"]
            if doc_id in recorded:
                grade = recorded[doc_id]
            elif qrels is not None:
                grade = qrels.grade(log.topic_id, doc_id)
            else:
                grade = None
            per_query[-1].append(_gain_of(grade))

    points: list[tuple[int, float]] = []
    cumulative = 0.0
    for q, gains in enumerate(per_query, start=1):
        discount = 1.0 / (1.0 + math.log(q, bq))
        cumulative += discount * _dcg(gains, b)
        points.append((q, cumulative))
    return SdcgCurve(points=points)


# --- aggregation -----------------------------------------------------------------

def aggregate_curves(curves: Sequence[GainCurve | SdcgCurve]) -> list[tuple[float, float, int]]:
    """Mean curve over sessions: step-interpolate each curve onto the sorted
    union of all curves' x values (last value carried forward, 0 before the
    first point) and average.

    Each curve's x values must be non-decreasing, as the IG and sDCG curves'
    are. Returns (x, mean_y, n) rows in ascending x.
    """
    if not curves:
        raise ValueError("at least one curve is required")
    # one sweep: every point is an (x, curve, y) event, and a stable sort by x
    # keeps a curve's points at one x in order, so its last one wins
    events: list[tuple[float, int, float]] = []
    for c, curve in enumerate(curves):
        points = curve.points
        if not points:
            continue
        xs, ys = zip(*points)
        if any(map(gt, xs, xs[1:])):
            raise ValueError("curve x values must be non-decreasing")
        events += zip(xs, repeat(c), ys)
    events.sort(key=itemgetter(0))
    n = len(curves)
    values = [0.0] * n
    rows = []
    e, n_events = 0, len(events)
    while e < n_events:
        x = events[e][0]
        while e < n_events and events[e][0] == x:
            _, c, y = events[e]
            values[c] = y
            e += 1
        # summed in curve order, as one value per curve at each grid point
        rows.append((x, sum(values) / n, n))
    return rows


# --- CSV output ------------------------------------------------------------------

def write_csv(path: str | Path, rows: Iterable[Sequence], header: Sequence[str]) -> None:
    """Write ``header`` and ``rows``; ``csv`` writes a float as its repr and
    an int as its str."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
