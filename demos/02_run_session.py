#!/usr/bin/env python3
"""Run one simulated session and print its interaction trace.

The scripted backend stands in for a live chat endpoint, so the whole session
is deterministic and runs offline.
"""
from searchsim import ScriptedBackend, SessionPolicy, SnippetStopRule, UserKind, build_index
from searchsim.fixtures import load_fixture_collection
from searchsim.session import run_session

documents, topics, qrels = load_fixture_collection()
index = build_index(documents)
topic = topics[0]
print(f"topic {topic.topic_id}: {topic.title}\n")

policy = SessionPolicy(max_queries=4, page_size=5,
                       stop_rule=SnippetStopRule("fixed_depth", 5), queries_per_session=4)
log = run_session(topic, UserKind.CRF, index, qrels, policy=policy,
                  backend=ScriptedBackend(), rng_seed=0)

for it in log.interactions:
    detail = ", ".join(f"{k}={v!r}" for k, v in it.payload.items())
    print(f"{it.seq:3d}  {it.kind:14s} cost={it.cost:5.1f}  {detail}")

print(f"\nqueries issued: {log.queries_issued}")
print(f"total cost: {log.total_cost():.1f}s, end reason: {log.end_reason}")
