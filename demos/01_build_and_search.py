#!/usr/bin/env python3
"""Build an index over the bundled collection and page through BM25 results.

A page holds ranked rows only; the snippet of each printed row is built on
demand with make_snippet, as a simulated user builds the ones it reads.
"""
from searchsim import build_index, make_snippet, search
from searchsim.fixtures import load_fixture_collection

documents, topics, qrels = load_fixture_collection()
print(f"collection: {len(documents)} documents, {len(topics)} topics, "
      f"{len(qrels)} judgments\n")

index = build_index(documents)
print(f"index: {index.n_docs} docs, vocabulary {index.vocabulary_size}, "
      f"avg doc length {index.avg_doc_len:.1f} tokens\n")

query = "offshore wind farm permits"
for page in (1, 2):
    serp = search(index, query, page=page, page_size=5)
    print(f"page {page} for {query!r}:")
    for rank, doc_id, score in serp.results:
        grade = qrels.grade("802", doc_id)
        label = "unjudged" if grade is None else f"grade {grade}"
        print(f"  {rank:2d}. {doc_id}  {score:6.3f}  [{label}]")
        print(f"      {make_snippet(index.document(doc_id), query)}")
    print()
