"""TF-IDF retrieval over an MCQ corpus.

Weighting is pinned so independent implementations agree exactly:
``weight(t, d) = tf(t, d) * idf(t)`` with raw-count tf and
``idf(t) = ln(N / df(t)) + 1``; similarity is the cosine between sparse
vectors. Documents are the question text concatenated with all option
texts (the correct answer is not indexed separately). No stemming, no
stop words.
"""

from __future__ import annotations

import heapq
import json
import math
import re
from array import array
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from .corpus import McqRecord
from .errors import ValidationError

INDEX_FORMAT_VERSION = 1

_TOKEN = re.compile(r"[^\W_]+", re.UNICODE)


def tokenize(text: str) -> list[str]:
    """Lowercased maximal runs of Unicode alphanumerics."""
    return [m.group(0) for m in _TOKEN.finditer(text.lower())]


@dataclass(frozen=True)
class RetrievalHit:
    doc_id: int
    score: float
    record: McqRecord


@dataclass(frozen=True)
class TfidfIndex:
    vocabulary: dict[str, int]
    document_frequency: dict[int, int]
    doc_vectors: tuple[dict[int, float], ...]
    doc_norms: tuple[float, ...]
    corpus: tuple[McqRecord, ...]

    @property
    def n_documents(self) -> int:
        return len(self.corpus)

    def idf(self, term_id: int) -> float:
        return math.log(self.n_documents / self.document_frequency[term_id]) + 1.0

    @cached_property
    def postings(self) -> dict[int, tuple[array, array]]:
        """Term id -> (ascending doc ids, their weights), from ``doc_vectors``.

        Derived on first use and held in memory only: it is not a field, so
        it takes no part in equality and ``save_index`` never writes it.
        """
        postings: dict[int, tuple[array, array]] = {}
        for doc_id, vector in enumerate(self.doc_vectors):
            for term_id, weight in vector.items():
                entry = postings.get(term_id)
                if entry is None:
                    entry = postings[term_id] = (array("i"), array("d"))
                entry[0].append(doc_id)
                entry[1].append(weight)
        return postings


def document_text(record: McqRecord) -> str:
    return " ".join([record.question, *(text for _, text in record.options)])


def build_index(corpus: list[McqRecord]) -> TfidfIndex:
    if not corpus:
        raise ValidationError("cannot build an index over an empty corpus")
    vocabulary: dict[str, int] = {}
    term_counts: list[dict[int, int]] = []
    for record in corpus:
        counts: dict[int, int] = {}
        for term in tokenize(document_text(record)):
            term_id = vocabulary.setdefault(term, len(vocabulary))
            counts[term_id] = counts.get(term_id, 0) + 1
        term_counts.append(counts)
    document_frequency: dict[int, int] = {}
    for counts in term_counts:
        for term_id in counts:
            document_frequency[term_id] = document_frequency.get(term_id, 0) + 1
    n = len(corpus)
    doc_vectors = []
    doc_norms = []
    for counts in term_counts:
        vector = {
            term_id: tf * (math.log(n / document_frequency[term_id]) + 1.0)
            for term_id, tf in counts.items()
        }
        doc_vectors.append(vector)
        doc_norms.append(math.sqrt(sum(w * w for w in vector.values())))
    return TfidfIndex(
        vocabulary=vocabulary,
        document_frequency=document_frequency,
        doc_vectors=tuple(doc_vectors),
        doc_norms=tuple(doc_norms),
        corpus=tuple(corpus),
    )


def query(index: TfidfIndex, text: str, k: int = 1) -> list[RetrievalHit]:
    """Top-k documents by cosine similarity; zero-score documents pad to k.

    Query terms absent from the index vocabulary are dropped. Ties break by
    ascending doc_id.
    """
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    counts: dict[int, int] = {}
    for term in tokenize(text):
        term_id = index.vocabulary.get(term)
        if term_id is not None:
            counts[term_id] = counts.get(term_id, 0) + 1
    q_vector = {term_id: tf * index.idf(term_id) for term_id, tf in counts.items()}
    q_norm = math.sqrt(sum(w * w for w in q_vector.values()))
    scores = [0.0] * len(index.doc_vectors)
    if q_norm > 0.0:
        # Term by term in q_vector order, each document's products are added
        # in the order of a per-document sum over the query terms, and a term
        # a document lacks would add an exact 0.0: every score equals a full
        # scan's bit for bit (tests/oracles.py keeps that scan).
        dots = [0.0] * len(scores)
        postings = index.postings
        for term_id, weight in q_vector.items():
            entry = postings.get(term_id)
            if entry is None:
                continue
            for doc_id, w in zip(*entry):
                dots[doc_id] += weight * w
        scores = []
        for dot, norm in zip(dots, index.doc_norms):
            cosine = 0.0 if norm == 0.0 else dot / (q_norm * norm)
            # The clamp returns an in-range cosine unchanged; skipping its two
            # builtin calls there saves ~3 ms a query on a 10,000-document index.
            scores.append(cosine if 0.0 < cosine <= 1.0 else min(1.0, max(0.0, cosine)))
    # nlargest is a stable descending sort cut to k, so equal scores keep
    # ascending doc ids (the clamp leaves no NaN to break the order).
    order = heapq.nlargest(k, range(len(scores)), key=scores.__getitem__)
    return [RetrievalHit(doc_id=d, score=scores[d], record=index.corpus[d]) for d in order]


def save_index(index: TfidfIndex, path: str | Path) -> None:
    payload = {
        "format_version": INDEX_FORMAT_VERSION,
        "vocabulary": index.vocabulary,
        "document_frequency": {str(k): v for k, v in index.document_frequency.items()},
        "doc_vectors": [{str(k): v for k, v in vec.items()} for vec in index.doc_vectors],
        "doc_norms": list(index.doc_norms),
        "corpus": [
            {"question": r.question, "options": dict(r.options), "answer": r.correct_label}
            for r in index.corpus
        ],
    }
    # Encoded before the file is opened: a text UTF-8 cannot carry fails
    # here and leaves an existing file as it was.
    try:
        data = json.dumps(payload, ensure_ascii=False).encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ValidationError(f"cannot write index file {path}: {exc}") from exc
    Path(path).write_bytes(data)


def load_index(path: str | Path) -> TfidfIndex:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read index file {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValidationError(f"index file {path} is not a JSON object")
    version = payload.get("format_version")
    if version != INDEX_FORMAT_VERSION:
        raise ValidationError(f"unsupported index format_version {version!r}")
    try:
        corpus = tuple(
            McqRecord(
                question=obj["question"],
                options=tuple((str(k), str(v)) for k, v in obj["options"].items()),
                correct_label=obj["answer"],
            )
            for obj in payload["corpus"]
        )
        index = TfidfIndex(
            vocabulary={str(k): int(v) for k, v in payload["vocabulary"].items()},
            document_frequency={int(k): int(v) for k, v in payload["document_frequency"].items()},
            doc_vectors=tuple({int(k): float(v) for k, v in vec.items()} for vec in payload["doc_vectors"]),
            doc_norms=tuple(float(x) for x in payload["doc_norms"]),
            corpus=corpus,
        )
    except (AttributeError, KeyError, TypeError, ValueError, ValidationError) as exc:
        raise ValidationError(f"malformed index file {path}: {exc}") from exc
    if not index.document_frequency.keys() >= set(index.vocabulary.values()):
        raise ValidationError(f"malformed index file {path}: a vocabulary term has no document_frequency")
    if not len(index.corpus) == len(index.doc_vectors) == len(index.doc_norms):
        raise ValidationError(f"malformed index file {path}: corpus, doc_vectors, doc_norms differ in length")
    return index
