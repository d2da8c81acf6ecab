from __future__ import annotations

import math
import random

import pytest

from searchsim.corpus import QrelSet
from searchsim.metrics import (
    SCOPE_INSPECTED,
    GainCurve,
    SdcgCurve,
    aggregate_curves,
    information_gain_curve,
    sdcg_curve,
    write_csv,
)
from searchsim.session import (
    DOCUMENT_VIEWED,
    JUDGMENT_MADE,
    QUERY_ISSUED,
    SESSION_ENDED,
    SNIPPET_VIEWED,
)

from oracles import (
    fuzz_log,
    make_log,
    oracle_gain_points,
    oracle_mean_curve,
    oracle_sdcg_points,
    step_value,
)


FIVE_STEP_LOG = make_log([
    (QUERY_ISSUED, 1.0, {"query": "q"}),
    (SNIPPET_VIEWED, 1.0, {"doc_id": "d", "rank": 1}),
    (DOCUMENT_VIEWED, 1.0, {"doc_id": "d"}),
    (JUDGMENT_MADE, 1.0, {"doc_id": "d", "relevant": True, "grade": 2}),
    (SESSION_ENDED, 1.0, {"reason": "max_queries_reached"}),
])


class TestInformationGain:
    def test_no_judgments_effect_zero_effort_total(self):
        log = make_log([
            (QUERY_ISSUED, 10.0, {"query": "q"}),
            (SNIPPET_VIEWED, 3.0, {"doc_id": "d", "rank": 1}),
            (SESSION_ENDED, 0.0, {"reason": "queries_exhausted"}),
        ])
        curve = information_gain_curve(log)
        assert [p[1] for p in curve.points] == [0.0, 0.0, 0.0]
        assert curve.final_effort == 13.0

    def test_five_interaction_hand_case(self):
        curve = information_gain_curve(FIVE_STEP_LOG)
        assert curve.points[-1] == (5.0, 2.0)
        assert [p[1] for p in curve.points] == [0.0, 0.0, 0.0, 2.0, 2.0]
        efforts = [p[0] for p in curve.points]
        assert all(a < b for a, b in zip(efforts, efforts[1:]))  # strict: costs all > 0

    def test_relevant_but_unjudged_counts_separately(self):
        log = make_log([
            (QUERY_ISSUED, 1.0, {"query": "q"}),
            (JUDGMENT_MADE, 1.0, {"doc_id": "d", "relevant": True, "grade": None}),
            (SESSION_ENDED, 0.0, {"reason": "x"}),
        ])
        curve = information_gain_curve(log)
        assert curve.final_effect == 0.0
        assert curve.unjudged_relevant_count == 1

    def test_grade_zero_and_not_relevant_contribute_nothing(self):
        log = make_log([
            (QUERY_ISSUED, 1.0, {"query": "q"}),
            (JUDGMENT_MADE, 1.0, {"doc_id": "a", "relevant": True, "grade": 0}),
            (JUDGMENT_MADE, 1.0, {"doc_id": "b", "relevant": False, "grade": 3}),
            (SESSION_ENDED, 0.0, {"reason": "x"}),
        ])
        curve = information_gain_curve(log)
        assert curve.final_effect == 0.0
        assert curve.unjudged_relevant_count == 0

    def test_graded_value_used_not_binarized_by_default(self):
        log = make_log([
            (JUDGMENT_MADE, 1.0, {"doc_id": "a", "relevant": True, "grade": 3}),
        ])
        assert information_gain_curve(log).final_effect == 3.0

    def test_permuting_judgments_keeps_final_effect(self):
        rng = random.Random(11)
        judgments = [(JUDGMENT_MADE, 1.0, {"doc_id": f"d{i}", "relevant": True,
                                           "grade": g})
                     for i, g in enumerate([2, 0, 3, None, 1])]
        finals = set()
        for _ in range(10):
            rng.shuffle(judgments)
            rows = [(QUERY_ISSUED, 1.0, {"query": "q"})] + judgments
            finals.add(information_gain_curve(make_log(rows)).final_effect)
        assert finals == {6.0}


class TestSdcg:
    def test_single_query_rank_one(self):
        log = make_log([
            (QUERY_ISSUED, 1.0, {"query": "q"}),
            (JUDGMENT_MADE, 1.0, {"doc_id": "d", "relevant": True, "grade": 1}),
        ])
        curve = sdcg_curve(log, b=2, bq=4)
        assert curve.points == [(1, pytest.approx(1.0))]

    def test_two_identical_queries_hand_case(self):
        rows = []
        for _ in range(2):
            rows.append((QUERY_ISSUED, 1.0, {"query": "q"}))
            rows.append((JUDGMENT_MADE, 1.0, {"doc_id": f"d{len(rows)}",
                                              "relevant": True, "grade": 1}))
        curve = sdcg_curve(make_log(rows), b=2, bq=4)
        assert curve.points[-1][1] == pytest.approx(1.0 + 2.0 / 3.0, abs=1e-9)

    def test_all_grades_zero_curve_is_zero(self):
        rows = [(QUERY_ISSUED, 1.0, {"query": "q"})]
        rows += [(JUDGMENT_MADE, 1.0, {"doc_id": f"d{i}", "relevant": True, "grade": 0})
                 for i in range(4)]
        curve = sdcg_curve(make_log(rows))
        assert [v for _, v in curve.points] == [0.0]

    def test_single_query_reduces_to_plain_dcg(self):
        grades = [3, 2, 0, 1, 2]
        rows = [(QUERY_ISSUED, 1.0, {"query": "q"})]
        rows += [(JUDGMENT_MADE, 1.0, {"doc_id": f"d{i}", "relevant": True, "grade": g})
                 for i, g in enumerate(grades)]
        curve = sdcg_curve(make_log(rows), b=2, bq=4)
        plain_dcg = sum(g / max(1.0, math.log2(i)) for i, g in enumerate(grades, 1))
        assert curve.final_value == pytest.approx(plain_dcg, abs=1e-12)

    def test_unjudged_contributes_zero_gain(self):
        rows = [
            (QUERY_ISSUED, 1.0, {"query": "q"}),
            (JUDGMENT_MADE, 1.0, {"doc_id": "a", "relevant": True, "grade": None}),
            (JUDGMENT_MADE, 1.0, {"doc_id": "b", "relevant": True, "grade": 2}),
        ]
        curve = sdcg_curve(make_log(rows), b=2, bq=4)
        # the unjudged doc occupies rank 1 with zero gain; the graded doc sits at rank 2
        assert curve.final_value == pytest.approx(2.0 / max(1.0, math.log2(2)), abs=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            sdcg_curve(FIVE_STEP_LOG, b=1.5)
        with pytest.raises(ValueError):
            sdcg_curve(FIVE_STEP_LOG, bq=1.0)
        with pytest.raises(ValueError):
            sdcg_curve(FIVE_STEP_LOG, scope="everything")

    def test_inspected_scope_uses_qrels_for_unopened_snippets(self):
        log = make_log([
            (QUERY_ISSUED, 1.0, {"query": "q"}),
            (SNIPPET_VIEWED, 1.0, {"doc_id": "seen_only", "rank": 1}),
            (SNIPPET_VIEWED, 1.0, {"doc_id": "opened", "rank": 2}),
            (DOCUMENT_VIEWED, 1.0, {"doc_id": "opened"}),
            (JUDGMENT_MADE, 1.0, {"doc_id": "opened", "relevant": True, "grade": 2}),
        ], topic_id="t9")
        qrels = QrelSet({("t9", "seen_only"): 3})
        curve = sdcg_curve(log, b=2, bq=4, scope=SCOPE_INSPECTED, qrels=qrels)
        expected = 3.0 / 1.0 + 2.0 / max(1.0, math.log2(2))
        assert curve.final_value == pytest.approx(expected, abs=1e-12)


class TestOracleEquivalenceAndMonotonicity:
    def test_fuzzed_oracle_equivalence(self):
        rng = random.Random(20240805)
        for _ in range(300):
            log = fuzz_log(rng)
            curve = information_gain_curve(log)
            expected_points, expected_unjudged = oracle_gain_points(log)
            assert len(curve.points) == len(expected_points)
            for (x, y), (ex, ey) in zip(curve.points, expected_points):
                assert x == pytest.approx(ex, abs=1e-9)
                assert y == pytest.approx(ey, abs=1e-9)
            assert curve.unjudged_relevant_count == expected_unjudged

            b, bq = rng.choice([(2.0, 4.0), (2.0, 2.0), (3.0, 5.0)])
            sd = sdcg_curve(log, b=b, bq=bq)
            expected_sdcg = oracle_sdcg_points(log, b, bq)
            assert len(sd.points) == len(expected_sdcg)
            for (q, v), (eq, ev) in zip(sd.points, expected_sdcg):
                assert q == eq
                assert v == pytest.approx(ev, abs=1e-9)

    def test_fuzzed_monotonicity(self):
        rng = random.Random(20240806)
        for _ in range(200):
            log = fuzz_log(rng)
            curve = information_gain_curve(log)
            efforts = [p[0] for p in curve.points]
            effects = [p[1] for p in curve.points]
            assert efforts == sorted(efforts)
            assert effects == sorted(effects)
            values = [v for _, v in sdcg_curve(log).points]
            assert values == sorted(values)


def gain_curve(points):
    return GainCurve(points=points, unjudged_relevant_count=0)


class TestAggregation:
    def test_single_curve_is_itself_on_grid(self):
        curve = gain_curve([(1.0, 0.0), (2.0, 2.0)])
        assert aggregate_curves([curve]) == [(1.0, 0.0, 1), (2.0, 2.0, 1)]

    def test_two_identical_curves(self):
        curve = gain_curve([(1.0, 1.0), (3.0, 4.0)])
        assert aggregate_curves([curve, curve]) == [(1.0, 1.0, 2), (3.0, 4.0, 2)]

    def test_hand_mean(self):
        a = gain_curve([(1.0, 0.0), (2.0, 2.0)])
        b = gain_curve([(1.0, 2.0), (2.0, 2.0)])
        assert aggregate_curves([a, b]) == [(1.0, 1.0, 2), (2.0, 2.0, 2)]

    def test_step_interpolation_carries_last_value(self):
        a = gain_curve([(1.0, 1.0)])
        b = gain_curve([(2.0, 3.0), (9.0, 5.0)])
        # a carries 1.0 past its last point; b is 0 before its first
        assert aggregate_curves([a, b]) == [(1.0, 0.5, 2), (2.0, 2.0, 2), (9.0, 3.0, 2)]

    def test_accepts_curve_objects(self):
        gain = GainCurve(points=[(1.0, 1.0)], unjudged_relevant_count=0)
        sdcg = SdcgCurve(points=[(1, 2.0), (2, 3.0)])
        assert aggregate_curves([gain]) == [(1.0, 1.0, 1)]
        assert aggregate_curves([sdcg, SdcgCurve(points=[])]) == [(1, 1.0, 2), (2, 1.5, 2)]

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            aggregate_curves([])

    def test_equals_step_value_oracle_on_fuzzed_curves(self):
        rng = random.Random(20261018)
        for _ in range(200):
            curves = []
            for _ in range(rng.randrange(1, 8)):
                # few distinct x values, so curves repeat x and share grid points
                xs = sorted(rng.choice([0.0, 1.0, 2.5, 3.0, 7.0, 10.0])
                            for _ in range(rng.randrange(0, 10)))
                curves.append([(x, rng.choice([0.0, 0.1, 1.0 / 3.0, 2.0, 7.25])) for x in xs])
            grid = sorted({x for points in curves for x, _ in points})
            assert aggregate_curves([gain_curve(points) for points in curves]) == \
                oracle_mean_curve(curves, grid)

    def test_decreasing_x_rejected(self):
        with pytest.raises(ValueError):
            aggregate_curves([gain_curve([(2.0, 1.0), (1.0, 2.0)])])

    def test_step_value_before_first_point_is_zero(self):
        assert step_value([(2.0, 5.0)], 1.0) == 0.0
        assert step_value([(2.0, 5.0)], 2.0) == 5.0
        assert step_value([(2.0, 5.0)], 3.0) == 5.0


class TestCsv:
    def test_write_csv_deterministic(self, tmp_path):
        rows = [(1.0, 2.0 / 3.0, 2), (2.0, 1.5, 2)]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(p1, rows, ("x", "mean_y", "n"))
        write_csv(p2, rows, ("x", "mean_y", "n"))
        assert p1.read_bytes() == p2.read_bytes()
        lines = p1.read_text().splitlines()
        assert lines[0] == "x,mean_y,n"
        assert lines[1] == "1.0,0.6666666666666666,2"
