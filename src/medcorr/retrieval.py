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
import operator
import re
from array import array
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

from .corpus import McqRecord, mcq_from_object, mcq_to_object, read_document
from .errors import ValidationError

INDEX_FORMAT_VERSION = 2

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
    """A TF-IDF index held as postings: term id -> (ascending doc ids, their
    weights), one posting per vocabulary term. A term's document frequency
    is its posting length."""

    vocabulary: dict[str, int]
    postings: dict[int, tuple[array, array]]
    doc_norms: tuple[float, ...]
    corpus: tuple[McqRecord, ...]

    @property
    def n_documents(self) -> int:
        return len(self.corpus)

    def idf(self, term_id: int) -> float:
        return _idf(self.n_documents, len(self.postings[term_id][0]))


def _idf(n_documents: int, document_frequency: int) -> float:
    return math.log(n_documents / document_frequency) + 1.0


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
    idf = {term_id: _idf(n, df) for term_id, df in document_frequency.items()}
    postings = {term_id: (array("i"), array("d")) for term_id in idf}
    doc_norms = []
    for doc_id, counts in enumerate(term_counts):
        weights = [tf * idf[term_id] for term_id, tf in counts.items()]
        for term_id, weight in zip(counts, weights):
            ids, term_weights = postings[term_id]
            ids.append(doc_id)
            term_weights.append(weight)
        doc_norms.append(math.sqrt(sum(w * w for w in weights)))
    return TfidfIndex(vocabulary=vocabulary, postings=postings, doc_norms=tuple(doc_norms), corpus=tuple(corpus))


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
    scores = [0.0] * len(index.doc_norms)
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
    """Write ``index`` in format 2: per vocabulary term, in term-id order, its
    ascending doc ids and raw term counts, from which ``load_index`` derives
    the weights."""
    postings = []
    for term_id in range(len(index.vocabulary)):
        ids, weights = index.postings[term_id]
        try:
            postings.append([ids.tolist(), _counts(term_id, weights, index.idf(term_id))])
        except ValueError as exc:
            raise ValidationError(f"cannot write index file {path}: {exc}") from exc
    payload = {
        "format_version": INDEX_FORMAT_VERSION,
        "vocabulary": index.vocabulary,
        "postings": postings,
        "doc_norms": list(index.doc_norms),
        "corpus": [mcq_to_object(r) for r in index.corpus],
    }
    # Encoded before the file is opened: a text UTF-8 cannot carry fails
    # here and leaves an existing file as it was.
    try:
        data = json.dumps(payload, ensure_ascii=False, separators=(",", ":")).encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ValidationError(f"cannot write index file {path}: {exc}") from exc
    Path(path).write_bytes(data)


def load_index(path: str | Path) -> TfidfIndex:
    """Read an index file of format 2, or of format 1, which stored each
    document's weights instead of postings of counts."""
    try:
        return read_document(
            Path(path).read_text(encoding="utf-8"), f"index file {path}", (1, INDEX_FORMAT_VERSION), _index_of
        )
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read index file {path}: {exc}") from exc


def _index_of(version: int, payload: dict) -> TfidfIndex:
    corpus = tuple(map(mcq_from_object, payload["corpus"]))
    vocabulary = payload["vocabulary"]
    term_ids = sorted(vocabulary.values())
    if set(map(type, term_ids)) - {int} or term_ids != list(range(len(term_ids))):
        raise ValueError("the vocabulary's term ids are not the integers 0 to its size - 1")
    if version == INDEX_FORMAT_VERSION:
        counted = payload["postings"]
    else:
        counted = _counts_of_v1(payload, len(vocabulary), len(corpus))
    postings = _weighted_postings(counted, len(vocabulary), len(corpus))
    doc_norms = tuple(payload["doc_norms"])
    if set(map(type, doc_norms)) - {int, float}:
        raise ValueError("a doc norm is not a number")
    if len(doc_norms) != len(corpus):
        raise ValueError("corpus and doc_norms differ in length")
    return TfidfIndex(vocabulary=vocabulary, postings=postings, doc_norms=doc_norms, corpus=corpus)


def _weighted_postings(counted: list, n_terms: int, n_documents: int) -> dict[int, tuple[array, array]]:
    """Check each term's ``[doc ids, raw counts]`` and weigh the counts as
    ``build_index`` does."""
    if len(counted) != n_terms:
        raise ValueError(f"{len(counted)} postings for {n_terms} vocabulary terms")
    postings = {}
    for term_id, (ids, counts) in enumerate(counted):
        if len(ids) != len(counts):
            raise ValueError(f"term {term_id} has {len(ids)} doc ids but {len(counts)} counts")
        if not ids:
            raise ValueError(f"term {term_id} has an empty posting")
        if set(map(type, ids)) | set(map(type, counts)) != {int}:
            raise ValueError(f"term {term_id} has a doc id or count that is not an integer")
        if not all(map(operator.lt, ids, islice(ids, 1, None))):
            raise ValueError(f"term {term_id}'s doc ids are not strictly ascending")
        if ids[0] < 0 or ids[-1] >= n_documents:
            raise ValueError(f"term {term_id} has a doc id outside [0, {n_documents})")
        if min(counts) < 1:
            raise ValueError(f"term {term_id} has a count below 1")
        idf = _idf(n_documents, len(ids))
        postings[term_id] = (array("i", ids), array("d", [tf * idf for tf in counts]))
    return postings


def _counts_of_v1(payload: dict, n_terms: int, n_documents: int) -> list[list[list[int]]]:
    """Format 1's per-document weights as per-term ``[doc ids, raw counts]``.

    A weight must be exactly its recovered count times the idf, and a stored
    document frequency exactly its term's posting length, so a file loads
    only to the index that ``build_index`` made of its corpus."""
    doc_vectors = payload["doc_vectors"]
    if len(doc_vectors) != n_documents:
        raise ValueError("corpus and doc_vectors differ in length")
    by_term: list[tuple[list[int], list[float]]] = [([], []) for _ in range(n_terms)]
    for doc_id, vector in enumerate(doc_vectors):
        for key, weight in vector.items():
            term_id = int(key)
            if not 0 <= term_id < n_terms:
                raise ValueError(f"document {doc_id} carries term id {term_id}, which is not in the vocabulary")
            if type(weight) not in (int, float):
                raise ValueError(f"document {doc_id} has a weight that is not a number")
            by_term[term_id][0].append(doc_id)
            by_term[term_id][1].append(weight)
    document_frequency = {int(k): v for k, v in payload["document_frequency"].items()}
    if set(map(type, document_frequency.values())) - {int}:
        raise ValueError("a document_frequency is not an integer")
    counted = []
    for term_id, (ids, weights) in enumerate(by_term):
        if document_frequency.get(term_id) != len(ids):
            raise ValueError(
                f"term {term_id} has document_frequency {document_frequency.get(term_id)} but {len(ids)} postings"
            )
        if not ids:
            raise ValueError(f"term {term_id} is in no document")
        counted.append([ids, _counts(term_id, weights, _idf(n_documents, len(ids)))])
    return counted


def _counts(term_id: int, weights, idf: float) -> list[int]:
    """The raw counts whose ``tf * idf`` are exactly ``weights``, the term's
    weights in an index that ``build_index`` or ``load_index`` made."""
    counts = [round(w / idf) for w in weights]
    if any(tf * idf != w for tf, w in zip(counts, weights)):
        raise ValueError(f"term {term_id}'s weights are not whole counts times its idf")
    return counts
