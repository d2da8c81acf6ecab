from __future__ import annotations

import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from searchsim.corpus import (
    Document,
    ParseReport,
    parse_jsonl_corpus,
    parse_qrels,
    parse_topics,
    parse_trectext,
)

from oracles import oracle_parse_trectext

# str.splitlines breaks a line at each of these. json.dumps(ensure_ascii=False)
# writes the first three raw inside a string and escapes the rest.
LINE_BOUNDARIES = ["\u2028", "\u2029", "\x85", "\x1c", "\x1d", "\x1e"]

# Tag fragments in mixed case, opened and closed, with stray '<', invalid
# UTF-8 and plain text between them. The first few open a block with its
# DOCNO, so that most draws hold whole documents.
TRECTEXT_FRAGMENTS = [
    b"<DOC><DOCNO>d1</DOCNO>", b"<doc><DocNo> d2 </docno>", b"<Doc><DOCNO>\xff</DOCNO>",
    b"<DOC>", b"<doc>", b"</DOC>", b"</doc>", b"<DocNo>", b"</DOCNO>", b"</docno>",
    b"<TEXT>", b"</TEXT>", b"</text>", b"</TEXTS>", b"<LEADPARA>", b"</LEADPARA>", b"<HEADLINE>",
    b"</headline>", b"<Title>", b"</TITLE>", b"<SUMMARY>", b"</summary>", b"<P>", b"</P>",
    b"<", b"/", b">", b"\xff", "Σ".encode(), b"d1", b" text ", b"\n",
]
# lists of lists, so that a draw holds about 25 fragments on average
trectext_bytes = st.lists(
    st.lists(st.sampled_from(TRECTEXT_FRAGMENTS) | st.binary(max_size=3), max_size=10),
    max_size=10).map(lambda runs: b"".join(b"".join(run) for run in runs))


class TestParseTrectext:
    def test_minimal_block(self):
        docs = parse_trectext(b"<DOC><DOCNO> d1 </DOCNO><TEXT>hello</TEXT></DOC>")
        assert len(docs) == 1
        assert docs[0].doc_id == "d1"
        assert docs[0].body == "hello"

    def test_empty_stream(self):
        assert parse_trectext(b"") == []

    def test_two_blocks_in_file_order(self):
        data = (b"<DOC><DOCNO>a</DOCNO><TEXT>one</TEXT></DOC>\n"
                b"<DOC><DOCNO>b</DOCNO><TEXT>two</TEXT></DOC>")
        docs = parse_trectext(data)
        assert [d.doc_id for d in docs] == ["a", "b"]

    def test_headline_becomes_title_not_body(self):
        data = b"<DOC><DOCNO>d</DOCNO><HEADLINE>Big News</HEADLINE><TEXT>body text</TEXT></DOC>"
        (doc,) = parse_trectext(data)
        assert doc.title == "Big News"
        assert doc.body == "body text"

    def test_multiple_text_tags_concatenated_in_order(self):
        data = (b"<DOC><DOCNO>d</DOCNO><LEADPARA>first</LEADPARA>"
                b"<TEXT>second</TEXT></DOC>")
        (doc,) = parse_trectext(data)
        assert doc.body == "first\n\nsecond"

    def test_nested_markup_stripped(self):
        data = b"<DOC><DOCNO>d</DOCNO><TEXT><P>para one</P></TEXT></DOC>"
        (doc,) = parse_trectext(data)
        assert "para one" in doc.body
        assert "<P>" not in doc.body

    def test_missing_docno_lenient_counts_skip(self):
        prefix = b"<DOC><DOCNO>ok</DOCNO><TEXT>fine</TEXT></DOC>"
        data = prefix + b"<DOC><TEXT>orphan</TEXT></DOC>"
        report = ParseReport()
        docs = parse_trectext(data, report=report)
        assert [d.doc_id for d in docs] == ["ok"]
        assert report.skipped == 1
        assert report.messages == [
            f"skipped DOC block without DOCNO at byte offset {len(prefix)}"]

    def test_fixture_block_count(self, fixture_collection):
        docs, _, _ = fixture_collection
        assert len(docs) == 60
        assert len({d.doc_id for d in docs}) == 60

    @settings(max_examples=300)
    @given(data=trectext_bytes)
    @example(data=b"<DOC><DOCNO>d</DOCNO><TEXT>a</TEXT>b</text></DOC>")
    @example(data=b"<DOC><DOCNO>d</DOCNO><Title>a</TITLES>b</title>c</TITLE></DOC>")
    def test_equals_lazy_pattern_oracle(self, data):
        report, expected_report = ParseReport(), ParseReport()
        assert (parse_trectext(data, report=report)
                == oracle_parse_trectext(data, report=expected_report))
        assert report == expected_report


class TestParseJsonl:
    def test_single_record_with_field_map(self):
        docs = parse_jsonl_corpus(b'{"docid": "w1", "content": "text"}',
                                  {"id": "docid", "body": "content"})
        assert docs == [Document(doc_id="w1", body="text")]

    def test_blank_lines_ignored(self):
        data = b'\n{"id": "a", "body": "x"}\n\n{"id": "b", "body": "y"}\n\n'
        docs = parse_jsonl_corpus(data)
        assert [d.doc_id for d in docs] == ["a", "b"]

    def test_missing_title_is_none_missing_body_is_empty(self):
        docs = parse_jsonl_corpus(b'{"id": "a"}')
        assert docs[0].title is None
        assert docs[0].body == ""

    def test_lenient_fixture_97_of_100(self):
        lines = []
        bad_positions = {10, 40, 77}
        for i in range(100):
            if i in bad_positions:
                lines.append("{this is not json")
            else:
                lines.append(f'{{"id": "doc{i}", "body": "body {i}"}}')
        report = ParseReport()
        docs = parse_jsonl_corpus("\n".join(lines).encode(), report=report)
        assert len(docs) == 97
        assert report.skipped == 3
        assert [m.split(":")[0] for m in report.messages] == [
            "skipped line 11", "skipped line 41", "skipped line 78"]

    @pytest.mark.parametrize("char", LINE_BOUNDARIES)
    def test_line_boundary_characters_round_trip(self, char):
        docs = [Document(doc_id=f"a{char}z", title=f"t{char}", body=f"one{char}two"),
                Document(doc_id="b", body=char)]
        data = "\n".join(json.dumps({"id": d.doc_id, "title": d.title, "body": d.body},
                                    ensure_ascii=False) for d in docs).encode()
        report = ParseReport()
        assert parse_jsonl_corpus(data, report=report) == docs
        assert report.skipped == 0

    @pytest.mark.parametrize("char", LINE_BOUNDARIES)
    def test_skip_messages_count_newline_lines(self, char):
        # written raw, a control character is invalid JSON and U+2028 is
        # not: either way the record stays one line
        data = (f'{{"id": "a", "body": "x{char}y"}}\nnot json\n{{"id": "c", "body": "z"}}\n'
                f'{{broken{char}\n').encode()
        report = ParseReport()
        docs = parse_jsonl_corpus(data, report=report)
        valid_raw = char >= "\x20"
        assert [d.doc_id for d in docs] == (["a", "c"] if valid_raw else ["c"])
        lines = [m.split(":")[0] for m in report.messages]
        assert lines == ([] if valid_raw else ["skipped line 1"]) + [
            "skipped line 2", "skipped line 4"]


class TestParseTopics:
    TOPIC = (b"<top>\n<num> Number: 401\n<title> foreign minorities\n"
             b"<desc> Description:\nWhat differences impede integration?\n"
             b"<narr> Narrative:\nRelevant documents focus on communities.\n</top>\n")

    def test_all_four_sections(self):
        (topic,) = parse_topics(self.TOPIC)
        assert topic.topic_id == "401"
        assert topic.title == "foreign minorities"
        assert topic.description == "What differences impede integration?"
        assert topic.narrative == "Relevant documents focus on communities."

    def test_labels_stripped_case_insensitively(self):
        data = self.TOPIC.replace(b"Description:", b"DESCRIPTION:")
        (topic,) = parse_topics(data)
        assert topic.description == "What differences impede integration?"

    def test_missing_narr_gives_none(self):
        data = b"<top><num>7<title> some topic </top>"
        (topic,) = parse_topics(data)
        assert topic.narrative is None
        assert topic.description is None

    def test_closed_tags_also_accepted(self):
        data = (b"<top><num>9</num><title>closed style</title>"
                b"<desc>described</desc></top>")
        (topic,) = parse_topics(data)
        assert topic.topic_id == "9"
        assert topic.title == "closed style"
        assert topic.description == "described"

    def test_block_without_title_is_skipped_and_named(self):
        data = b"<top><num> Number: 55\n<desc> Description: only desc </top>"
        report = ParseReport()
        assert parse_topics(data, report=report) == []
        assert report.skipped == 1
        assert report.messages == ["skipped topic 55: no title"]

    def test_block_without_num_is_skipped_and_counted(self):
        data = b"<top><title> no number here </top><top><num>2<title>ok</top>"
        report = ParseReport()
        assert [t.topic_id for t in parse_topics(data, report=report)] == ["2"]
        assert report.skipped == 1
        assert report.messages == ["skipped topic <unnumbered>: no <num>"]

    def test_fixture_topic_count_in_order(self, fixture_collection):
        _, topics, _ = fixture_collection
        assert [t.topic_id for t in topics] == ["801", "802", "803"]

    def test_whitespace_normalization_idempotent(self):
        data = b"<top><num> 1 \n<title>  spaced   out\ttitle  </top>"
        (topic,) = parse_topics(data)
        assert topic.title == "spaced out title"
        assert " ".join(topic.title.split()) == topic.title


class TestParseQrels:
    def test_single_line(self):
        qrels = parse_qrels(b"401 0 d1 2\n")
        assert qrels.grade("401", "d1") == 2

    def test_empty_stream(self):
        assert len(parse_qrels(b"")) == 0

    def test_duplicate_key_last_wins_with_warning(self):
        report = ParseReport()
        qrels = parse_qrels(b"401 0 d1 1\n401 0 d1 2\n", report=report)
        assert qrels.grade("401", "d1") == 2
        assert report.warnings == 1

    def test_non_integer_grade(self):
        report = ParseReport()
        qrels = parse_qrels(b"401 0 d1 high\n401 0 d2 1\n", report=report)
        assert qrels.grade("401", "d2") == 1
        assert report.skipped == 1
        assert report.messages[0].startswith("skipped qrels line 1: ")

    def test_grade_distinguishes_zero_from_unjudged(self):
        qrels = parse_qrels(b"401 0 judged1 1\n401 0 judgedzero 0\n")
        assert qrels.grade("401", "judged1") == 1
        assert qrels.grade("401", "judgedzero") == 0
        assert qrels.grade("401", "neverseen") is None

    def test_fuzz_round_trip_against_input_lines(self):
        rng = random.Random(20240801)
        for _ in range(25):
            entries = {}
            lines = []
            for _ in range(rng.randrange(0, 60)):
                topic = str(rng.randrange(1, 6))
                doc = f"doc{rng.randrange(0, 30)}"
                grade = rng.randrange(0, 4)
                entries[(topic, doc)] = grade
                lines.append(f"{topic} 0 {doc} {grade}")
            qrels = parse_qrels("\n".join(lines).encode())
            for (topic, doc), grade in entries.items():
                assert qrels.grade(topic, doc) == grade
            assert len(qrels) == len(entries)


class TestDocumentInvariants:
    def test_empty_doc_id_rejected(self):
        with pytest.raises(ValueError):
            Document(doc_id="", body="x")

    def test_empty_title_is_no_title(self):
        assert Document(doc_id="a", body="x", title="").title is None
        assert Document(doc_id="a", body="x", title="") == Document(doc_id="a", body="x")
        assert parse_jsonl_corpus(b'{"id": "a", "title": "", "body": "x"}')[0].title is None
