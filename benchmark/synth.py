#!/usr/bin/env python3
"""Seeded synthetic test collection for the benchmark.

Writes a TRECTEXT corpus, a TREC topic file and 4-column qrels, plus a
``stats.json`` sidecar that the benchmark reads and the simulator never sees.

Documents draw their tokens from a Zipf-distributed vocabulary of synthetic
words. Each topic takes its terms from fixed Zipf rank bands (head, middle,
tail), so the document frequencies of the topic terms, which set the cost of
every search, follow the same distribution whatever the seed. The qrels hold
graded on-topic documents, explicit grade-0 near misses, and on-topic
documents that are left unjudged. A few ``<DOC>`` blocks without a DOCNO are
appended so the parser's skip path runs.

    python3 benchmark/synth.py --seed 7 --docs 2000 --topics 20 --out /tmp/coll
"""
from __future__ import annotations

import argparse
import itertools
import json
import random
from pathlib import Path

from figures import percentile

CORPUS = "corpus.trectext"
TOPICS = "topics.txt"
QRELS = "qrels.txt"
STATS = "stats.json"

VOCABULARY_SIZE = 20_000
ZIPF_EXPONENT = 1.0
DOC_TOKENS = (100, 400)
# (first rank, last rank, terms per topic); ranks count from 0 = most frequent
TOPIC_BANDS = ((20, 200, 4), (200, 2_000, 6), (2_000, VOCABULARY_SIZE, 6))
# per topic: graded 2, graded 1, on-topic but unjudged, judged-0 near misses
GRADE_2, GRADE_1, UNJUDGED, NEAR_MISS = 3, 5, 3, 4
FILLER = ("the", "of", "and", "in", "on", "for", "with", "about")
# English words of the simulator's prompts. A news archive holds them too, so
# they sit at middle Zipf ranks here: queries that the scripted backend builds
# from prompt words then retrieve documents instead of coming back empty,
# which keeps session lengths, and so the cost of a campaign, steady per seed.
COMMON_WORDS = tuple("""above already angles answer archive archives article articles
    assess assessing below collect continuing depth description different differs
    distinct document each engine entities every five focus following further guide
    here irrelevant journalist judged keep keyword line make material narrative news
    numbered output preparing previously queries query quickly recurring relevant
    reporting research result results search searching serves session short single
    story subjects summarize summary tell text title tried useful whether word words
    working write""".split())
COMMON_RANKS = (50, 2_000)

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"
_SYLLABLES = [c + v for c in _CONSONANTS for v in _VOWELS]


def vocabulary(size: int = VOCABULARY_SIZE) -> list[str]:
    """Distinct six-letter pseudo-words; the list itself does not depend on the seed."""
    words = ("".join(s) for s in itertools.product(_SYLLABLES, repeat=3))
    return list(itertools.islice(words, size))


def generate(seed: int, n_docs: int, n_topics: int, out: Path) -> dict:
    """Write the collection for ``seed`` into ``out`` and return its statistics."""
    per_topic = GRADE_2 + GRADE_1 + UNJUDGED + NEAR_MISS
    if n_topics * per_topic > n_docs:
        raise ValueError(f"{n_topics} topics need at least {n_topics * per_topic} documents")
    rng = random.Random(seed)
    by_rank = vocabulary()
    rng.shuffle(by_rank)
    for word, rank in zip(COMMON_WORDS, rng.sample(range(*COMMON_RANKS), len(COMMON_WORDS))):
        by_rank[rank] = word
    common = set(COMMON_WORDS)
    cum_weights = list(itertools.accumulate(
        1.0 / (r + 1) ** ZIPF_EXPONENT for r in range(len(by_rank))))

    docs = [rng.choices(by_rank, cum_weights=cum_weights, k=rng.randint(*DOC_TOKENS))
            for _ in range(n_docs)]

    topics = []
    for _ in range(n_topics):
        terms: list[str] = []
        for first, last, count in TOPIC_BANDS:
            band = [w for w in by_rank[first:last] if w not in common]
            terms += rng.sample(band, count)
        topics.append(terms)

    # assign disjoint document sets per topic and plant topic terms in them
    owners = rng.sample(range(n_docs), n_topics * per_topic)
    qrels: list[tuple[str, str, int]] = []
    for t, terms in enumerate(topics):
        topic_id = str(301 + t)
        mine = owners[t * per_topic:(t + 1) * per_topic]
        graded2, graded1 = mine[:GRADE_2], mine[GRADE_2:GRADE_2 + GRADE_1]
        unjudged = mine[GRADE_2 + GRADE_1:GRADE_2 + GRADE_1 + UNJUDGED]
        near = mine[GRADE_2 + GRADE_1 + UNJUDGED:]
        for ordinals, plants in ((graded2, 12), (graded1, 6), (unjudged, 6), (near, 1)):
            for d in ordinals:
                tokens = docs[d]
                for _ in range(plants):
                    tokens[rng.randrange(len(tokens))] = rng.choice(terms)
        qrels += [(topic_id, _doc_id(d), 2) for d in graded2]
        qrels += [(topic_id, _doc_id(d), 1) for d in graded1]
        qrels += [(topic_id, _doc_id(d), 0) for d in near]

    out.mkdir(parents=True, exist_ok=True)
    _write_corpus(out / CORPUS, docs, n_skipped=max(1, n_docs // 1000))
    _write_topics(out / TOPICS, topics, rng)
    (out / QRELS).write_text("".join(f"{t} 0 {d} {g}\n" for t, d, g in qrels),
                             encoding="utf-8")

    topic_terms = {term for terms in topics for term in terms}
    df = dict.fromkeys(topic_terms, 0)
    for tokens in docs:
        for term in topic_terms.intersection(tokens):
            df[term] += 1
    stats = {
        "seed": seed, "docs": n_docs, "topics": n_topics,
        "vocabulary": len(by_rank), "zipf_exponent": ZIPF_EXPONENT,
        "tokens": sum(len(tokens) for tokens in docs),
        "topic_term_df": {f"p{pct}": percentile(list(df.values()), pct)
                          for pct in (0, 25, 50, 75, 90, 100)},
        "qrels": len(qrels), "unjudged_on_topic": n_topics * UNJUDGED,
    }
    (out / STATS).write_text(json.dumps(stats, indent=2, sort_keys=True) + "\n",
                             encoding="utf-8")
    return stats


def _doc_id(ordinal: int) -> str:
    return f"SYN-{ordinal:06d}"


def _lines(tokens: list[str], width: int = 14) -> str:
    return "\n".join(" ".join(tokens[i:i + width]) for i in range(0, len(tokens), width))


def _write_corpus(path: Path, docs: list[list[str]], n_skipped: int) -> None:
    blocks = [
        f"<DOC>\n<DOCNO> {_doc_id(d)} </DOCNO>\n<HEADLINE>{' '.join(tokens[:6])}</HEADLINE>\n"
        f"<TEXT>\n{_lines(tokens[6:])}\n</TEXT>\n</DOC>\n"
        for d, tokens in enumerate(docs)
    ]
    blocks += ["<DOC>\n<TEXT>\nblock without a document number\n</TEXT>\n</DOC>\n"] * n_skipped
    path.write_text("".join(blocks), encoding="utf-8")


def _sentence(rng: random.Random, terms: list[str]) -> str:
    words = []
    for term in terms:
        words += [rng.choice(FILLER), term]
    return " ".join(words[1:]).capitalize() + "."


def _write_topics(path: Path, topics: list[list[str]], rng: random.Random) -> None:
    blocks = []
    for t, terms in enumerate(topics):
        shuffled = rng.sample(terms, len(terms))
        title, desc, narr = shuffled[:3], shuffled[3:9], shuffled[9:]
        blocks.append(
            f"<top>\n<num> Number: {301 + t}\n<title> {' '.join(title)}\n\n"
            f"<desc> Description:\n{_sentence(rng, desc)}\n\n"
            f"<narr> Narrative:\n{_sentence(rng, narr)}\n</top>\n\n")
    path.write_text("".join(blocks), encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--docs", type=int, required=True)
    parser.add_argument("--topics", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    print(json.dumps(generate(args.seed, args.docs, args.topics, args.out), sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
