#!/usr/bin/env python3
"""Run a small campaign and compare user kinds on both session measures.

Information gain charges every interaction's cost; session DCG discounts each
query's DCG by its position in the session.
"""
from searchsim import ScriptedBackend, SessionPolicy, SnippetStopRule, UserKind, build_index
from searchsim.fixtures import load_fixture_collection
from searchsim.metrics import aggregate_curves, information_gain_curve, sdcg_curve
from searchsim.session import run_campaign

documents, topics, qrels = load_fixture_collection()
index = build_index(documents)
kinds = [UserKind.RND, UserKind.FTTC, UserKind.CRF]
policy = SessionPolicy(max_queries=4, page_size=5,
                       stop_rule=SnippetStopRule("fixed_depth", 5), queries_per_session=4)

logs = run_campaign(topics, kinds, index, qrels, policy=policy,
                    backend=ScriptedBackend(), campaign_seed=0)

print(f"{'user':6s} {'mean final effect':>18s} {'mean final sDCG':>16s} {'unjudged':>9s}")
for kind in kinds:
    kind_logs = [log for log in logs if log.user_kind is kind]
    gains = [information_gain_curve(log) for log in kind_logs]
    sdcgs = [sdcg_curve(log, b=2, bq=4) for log in kind_logs]
    mean_gain = aggregate_curves(gains)[-1][1] if any(g.points for g in gains) else 0.0
    mean_sdcg = aggregate_curves(sdcgs)[-1][1] if any(s.points for s in sdcgs) else 0.0
    unjudged = sum(g.unjudged_relevant_count for g in gains)
    print(f"{kind.value:6s} {mean_gain:18.3f} {mean_sdcg:16.3f} {unjudged:9d}")

print("\nper-interaction effort/effect points for one CRF session:")
crf_log = next(log for log in logs if log.user_kind is UserKind.CRF)
for effort, effect in information_gain_curve(crf_log).points:
    print(f"  effort {effort:7.1f}s  effect {effect:4.1f}")
