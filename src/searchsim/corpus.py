"""Parsers for TREC-style test collections: documents, topics, and qrels.

All parsers read raw bytes (UTF-8 decoded with lossy replacement) and are
lenient: a malformed unit is skipped and counted in the caller's
``ParseReport`` instead of aborting the parse.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Iterator, Mapping

# Default key mapping for line-delimited corpora: ours -> record key.
DEFAULT_FIELD_MAP: Mapping[str, str] = {"id": "id", "title": "title", "body": "body"}


@dataclass
class ParseReport:
    """Counters filled in by the parsers: units skipped, duplicate keys
    overwritten, and the first messages naming them."""

    skipped: int = 0
    warnings: int = 0
    messages: list[str] = field(default_factory=list)

    _MAX_MESSAGES = 20

    def note(self, message: str) -> None:
        if len(self.messages) < self._MAX_MESSAGES:
            self.messages.append(message)


@dataclass(frozen=True)
class Document:
    doc_id: str
    body: str
    title: str | None = None  # an empty title is no title: "" reads as None

    def __post_init__(self):
        if not self.doc_id or not self.doc_id.strip():
            raise ValueError("doc_id must be non-empty")
        if self.title == "":
            object.__setattr__(self, "title", None)

    def full_text(self) -> str:
        """Title and body joined, as presented to a reader."""
        return f"{self.title}\n{self.body}" if self.title else self.body


@dataclass(frozen=True)
class Topic:
    topic_id: str
    title: str
    description: str | None = None
    narrative: str | None = None

    def __post_init__(self):
        if not self.title or not self.title.strip():
            raise ValueError(f"topic {self.topic_id!r} has an empty title")

    def all_text(self) -> str:
        parts = [self.title, self.description or "", self.narrative or ""]
        return " ".join(p for p in parts if p)


@dataclass
class QrelSet:
    """Graded relevance judgments keyed by (topic_id, doc_id).

    A missing key means the pair was never judged, which is distinct
    from an explicit grade of 0.
    """

    grades: dict[tuple[str, str], int] = field(default_factory=dict)

    def grade(self, topic_id: str, doc_id: str) -> int | None:
        return self.grades.get((topic_id, doc_id))

    def __len__(self) -> int:
        return len(self.grades)


def _norm_ws(text: str) -> str:
    """Collapse whitespace runs to single spaces and strip the ends (idempotent)."""
    return " ".join(text.split())


def _decode(data: bytes) -> str:
    return data.decode("utf-8", errors="replace")


# --- TRECTEXT corpora -------------------------------------------------------

_DOCNO_RE = re.compile(rb"<DOCNO>(.*?)</DOCNO>", re.S | re.I)
_TAG_STRIP_RE = re.compile(r"<[^>]+>")

# HEADLINE/TITLE feed Document.title; the rest feed the body. The title tags
# are kept out of the body so downstream title folding does not double-count.
_TITLE_TAGS = ("HEADLINE", "TITLE")
_BODY_TAGS = ("TEXT", "LEADPARA", "SUMMARY", "ABSTRACT")
# A tag's content runs to the first matching close tag. The unrolled form
# takes each run of non-'<' bytes in one step, where a lazy (.*?) would try
# the close tag after every byte.
_TITLE_TAG_RE = re.compile(
    rb"<(HEADLINE|TITLE)>([^<]*(?:<(?!/\1>)[^<]*)*)</\1>", re.I
)
_BODY_TAG_RE = re.compile(
    rb"<(TEXT|LEADPARA|SUMMARY|ABSTRACT)>([^<]*(?:<(?!/\1>)[^<]*)*)</\1>", re.I
)


def _doc_blocks(data: bytes) -> Iterator[tuple[int, bytes]]:
    """(offset of ``<DOC>``, the bytes up to the first ``</DOC>`` after it)
    for each block, with tag names matched case-insensitively."""
    # bytes.lower folds ASCII only, as re.I does for a bytes pattern, and
    # keeps every offset
    lowered = data.lower()
    start = lowered.find(b"<doc>")
    while start >= 0:
        end = lowered.find(b"</doc>", start + 5)
        if end < 0:
            return
        yield start, data[start + 5:end]
        start = lowered.find(b"<doc>", end + 6)


def _clean_sgml_chunk(raw: bytes) -> str:
    text = _TAG_STRIP_RE.sub(" ", _decode(raw))
    return text.strip()


def parse_trectext(data: bytes, *, report: ParseReport | None = None) -> list[Document]:
    """Parse an SGML-style corpus of ``<DOC>`` blocks into Documents.

    The body is the concatenation of the text-bearing tags in document
    order; HEADLINE/TITLE content becomes the separate title field.
    """
    report = report if report is not None else ParseReport()
    docs: list[Document] = []
    for offset, inner in _doc_blocks(data):
        m = _DOCNO_RE.search(inner)
        doc_id = _decode(m.group(1)).strip() if m else ""
        if not doc_id:
            report.skipped += 1
            report.note(f"skipped DOC block without DOCNO at byte offset {offset}")
            continue
        title_parts = [_clean_sgml_chunk(t.group(2)) for t in _TITLE_TAG_RE.finditer(inner)]
        body_parts = [_clean_sgml_chunk(t.group(2)) for t in _BODY_TAG_RE.finditer(inner)]
        title = _norm_ws(" ".join(p for p in title_parts if p)) or None
        body = "\n\n".join(p for p in body_parts if p)
        docs.append(Document(doc_id=doc_id, title=title, body=body))
    return docs


# --- line-delimited corpora -------------------------------------------------

def parse_jsonl_corpus(data: bytes, field_map: Mapping[str, str] | None = None, *,
                       report: ParseReport | None = None) -> list[Document]:
    """Parse a corpus of one JSON record per line, where only ``"\\n"`` ends
    a line.

    ``field_map`` names the record keys for our fields: ``{"id": ..., "title":
    ..., "body": ...}``. A record without the title key yields title=None; a
    record without the body key yields an empty body.
    """
    fmap = dict(DEFAULT_FIELD_MAP)
    fmap.update(field_map or {})
    report = report if report is not None else ParseReport()
    docs: list[Document] = []
    # str.splitlines would also break on U+2028, U+0085 and the like, which
    # json.dumps(ensure_ascii=False) leaves raw inside a string
    for lineno, raw in enumerate(_decode(data).split("\n"), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
            if not isinstance(record, dict):
                raise ValueError("record is not an object")
            doc_id = str(record[fmap["id"]]).strip()
            if not doc_id:
                raise ValueError("empty id")
        except (ValueError, KeyError) as exc:
            report.skipped += 1
            report.note(f"skipped line {lineno}: {exc}")
            continue
        body = record.get(fmap["body"])
        title = record.get(fmap["title"])
        docs.append(Document(doc_id=doc_id, title=None if title is None else str(title),
                             body="" if body is None else str(body)))
    return docs


# --- topic files -------------------------------------------------------------

_TOP_RE = re.compile(r"<top>(.*?)</top>", re.S | re.I)
_SECTION_RE = re.compile(r"<(num|title|desc|narr)>", re.I)
_SECTION_CLOSE_RE = re.compile(r"</(num|title|desc|narr)>", re.I)
_LABELS = {
    "num": ("number:",),
    "title": ("topic:",),
    "desc": ("description:",),
    "narr": ("narrative:",),
}


def _strip_label(name: str, text: str) -> str:
    for label in _LABELS.get(name, ()):
        if text.lower().startswith(label):
            return text[len(label):]
    return text


def parse_topics(data: bytes, *, report: ParseReport | None = None) -> list[Topic]:
    """Parse ``<top>`` blocks with num/title/desc/narr sections.

    Sections may be left unclosed (the de-facto convention); each runs to the
    next section tag. Leading labels such as "Number:" are stripped
    case-insensitively and whitespace is normalized. A block without a
    ``<num>`` or a title is skipped and counted in ``report``.
    """
    report = report if report is not None else ParseReport()
    topics: list[Topic] = []
    for block in _TOP_RE.finditer(_decode(data)):
        inner = block.group(1)
        marks = list(_SECTION_RE.finditer(inner))
        sections: dict[str, str] = {}
        for i, m in enumerate(marks):
            end = marks[i + 1].start() if i + 1 < len(marks) else len(inner)
            name = m.group(1).lower()
            raw = _SECTION_CLOSE_RE.sub(" ", inner[m.end():end])
            sections[name] = _norm_ws(_strip_label(name, raw.strip()))
        topic_id = sections.get("num", "")
        title = sections.get("title", "")
        if not (topic_id and title):
            report.skipped += 1
            report.note(f"skipped topic {topic_id or '<unnumbered>'}: "
                        f"no {'title' if topic_id else '<num>'}")
            continue
        topics.append(Topic(topic_id=topic_id, title=title,
                            description=sections.get("desc") or None,
                            narrative=sections.get("narr") or None))
    return topics


# --- qrels -------------------------------------------------------------------

def parse_qrels(data: bytes, *, report: ParseReport | None = None) -> QrelSet:
    """Parse 4-column qrels lines: ``topic_id iteration doc_id grade``.

    Duplicate (topic_id, doc_id) keys are overwritten last-wins with a
    counted warning.
    """
    report = report if report is not None else ParseReport()
    qrels = QrelSet()
    for lineno, raw in enumerate(_decode(data).splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        try:
            if len(parts) != 4:
                raise ValueError(f"expected 4 columns, got {len(parts)}")
            topic_id, _iteration, doc_id, grade_text = parts
            grade = int(grade_text)
            if grade < 0:
                raise ValueError(f"negative grade {grade}")
        except ValueError as exc:
            report.skipped += 1
            report.note(f"skipped qrels line {lineno}: {exc}")
            continue
        key = (topic_id, doc_id)
        if key in qrels.grades:
            report.warnings += 1
            report.note(f"duplicate qrels key {key} at line {lineno}; last value wins")
        qrels.grades[key] = grade
    return qrels

