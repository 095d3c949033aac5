"""TF-IDF retrieval over an MCQ corpus.

Weighting is pinned so independent implementations agree exactly:
``weight(t, d) = tf(t, d) * idf(t)`` with raw-count tf and
``idf(t) = ln(N / df(t)) + 1``; similarity is the cosine between sparse
vectors. Documents are the question text concatenated with all option
texts (the correct answer is not indexed separately). No stemming, no
stop words.
"""

from __future__ import annotations

import base64
import heapq
import json
import math
import operator
import re
import sys
from array import array
from dataclasses import dataclass, field
from itertools import compress, islice, repeat
from pathlib import Path

from .corpus import McqRecord, mcq_from_object, mcq_to_object, read_document
from .errors import ValidationError

INDEX_FORMAT_VERSION = 4

_TOKEN = re.compile(r"[^\W_]+", re.UNICODE)


def tokenize(text: str) -> list[str]:
    """Lowercased maximal runs of Unicode alphanumerics."""
    return _TOKEN.findall(text.lower())


@dataclass(frozen=True)
class RetrievalHit:
    doc_id: int
    score: float
    record: McqRecord


@dataclass(frozen=True)
class TfidfIndex:
    """A TF-IDF index held as postings grouped by count: term id ->
    ``((count, doc ids), ...)``, one posting per vocabulary term and one
    group per distinct raw count of the term, in ascending count order. A
    group's doc ids, strictly ascending, are the documents carrying the term
    that many times; a document is in at most one group of a term, so a
    term's document frequency is the sum of its group lengths. The raw
    counts are the index's only data: weights (``count * idf``) and
    ``doc_norms`` are derived from them, the norms once, on construction.

    The doc ids are tuples of shared objects: every group holds the same
    ``int`` for a document, so ``query`` reads objects that already exist,
    where packed arrays would box a new ``int`` per entry read. Tuples rather
    than lists, because the garbage collector stops tracking a tuple of ints,
    so its collections do not walk the postings. A 10,000-question index
    holds 358k doc ids in 9.3k groups."""

    vocabulary: dict[str, int]
    postings: dict[int, tuple[tuple[int, tuple[int, ...]], ...]]
    doc_norms: tuple[float, ...] = field(init=False)
    corpus: tuple[McqRecord, ...]

    def __post_init__(self) -> None:
        # Term by term in term-id order, each group adds one square to each
        # of its documents: on a 10,000-question index about 25 ms.
        squares = [0.0] * len(self.corpus)
        for term_id in sorted(self.postings):
            idf = self.idf(term_id)
            for count, ids in self.postings[term_id]:
                weight = count * idf
                square = weight * weight
                for doc_id in ids:
                    squares[doc_id] += square
        object.__setattr__(self, "doc_norms", tuple(map(math.sqrt, squares)))

    @property
    def n_documents(self) -> int:
        return len(self.corpus)

    def idf(self, term_id: int) -> float:
        return _idf(self.n_documents, sum(len(ids) for _, ids in self.postings[term_id]))


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
    # term id -> count -> ascending doc ids; enumerate binds one doc id
    # object per document, which every group shares (see TfidfIndex).
    groups: dict[int, dict[int, list[int]]] = {term_id: {} for term_id in range(len(vocabulary))}
    for doc_id, counts in enumerate(term_counts):
        for term_id, tf in counts.items():
            groups[term_id].setdefault(tf, []).append(doc_id)
    postings = {
        term_id: tuple((tf, tuple(by_count[tf])) for tf in sorted(by_count)) for term_id, by_count in groups.items()
    }
    return TfidfIndex(vocabulary=vocabulary, postings=postings, corpus=tuple(corpus))


def query(index: TfidfIndex, text: str, k: int = 1) -> list[RetrievalHit]:
    """The ``min(k, n_documents)`` documents of highest cosine similarity,
    zero-score documents included.

    Query terms absent from the index vocabulary are dropped. Ties break by
    ascending doc_id. Each posting group adds one product, computed once, to
    each of its documents: on a 10,000-question index a note-length query
    walks about 160k doc ids in about 7.3 ms, against 10.6 ms with a product
    per entry (2 vCPUs, Python 3.11.7).
    """
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    counts: dict[int, int] = {}
    for term in tokenize(text):
        term_id = index.vocabulary.get(term)
        if term_id is not None:
            counts[term_id] = counts.get(term_id, 0) + 1
    idf = {term_id: index.idf(term_id) for term_id in counts}
    q_vector = {term_id: tf * idf[term_id] for term_id, tf in counts.items()}
    q_norm = math.sqrt(sum(w * w for w in q_vector.values()))
    scores = [0.0] * len(index.doc_norms)
    if q_norm > 0.0:
        # Term by term in q_vector order, each document's products are added
        # in the order of a per-document sum over the query terms, and a term
        # a document lacks would add an exact 0.0: every score equals a full
        # scan's bit for bit (tests/oracles.py keeps that scan). A document is
        # in one group of a term, so one product per group is the same float
        # each of its documents' own product would be.
        dots = [0.0] * len(scores)
        postings = index.postings
        for term_id, weight in q_vector.items():
            term_idf = idf[term_id]
            for count, ids in postings.get(term_id, ()):
                product = weight * (count * term_idf)
                for doc_id in ids:
                    dots[doc_id] += product
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
    """Write ``index`` in format 4: per vocabulary term, in term-id order, its
    posting length, ascending doc ids and raw term counts, the index's only
    data. The numeric arrays are base64 of packed little-endian int32."""
    lengths, ids, counts = array("i"), array("i"), array("i")
    for term_id in range(len(index.vocabulary)):
        # The groups merged back into one posting of ascending doc ids.
        entries = sorted((doc_id, tf) for tf, term_ids in index.postings[term_id] for doc_id in term_ids)
        lengths.append(len(entries))
        ids.extend(doc_id for doc_id, _ in entries)
        counts.extend(tf for _, tf in entries)
    payload = {
        "format_version": INDEX_FORMAT_VERSION,
        "vocabulary": index.vocabulary,
        "posting_lengths": _packed(lengths),
        "doc_ids": _packed(ids),
        "counts": _packed(counts),
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
    """Read an index file of format 4. A file of format 1 to 3 is rejected
    with a request to rebuild it, which ``index build`` does from the MCQ
    corpus deterministically."""
    what = f"index file {path}"
    try:
        index = read_document(Path(path).read_text(encoding="utf-8"), what, (1, 2, 3, INDEX_FORMAT_VERSION), _index_of)
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {what}: {exc}") from exc
    if index is None:
        raise ValidationError(f"{what} is of an older format, no longer read; rebuild it with `medcorr index build`")
    return index


def _index_of(version: int, payload: dict) -> TfidfIndex | None:
    if version != INDEX_FORMAT_VERSION:
        return None
    corpus = tuple(map(mcq_from_object, payload["corpus"]))
    vocabulary = payload["vocabulary"]
    n_terms, n_documents = len(vocabulary), len(corpus)
    # The type check comes first: sorted would fail on a str among ints.
    if set(map(type, vocabulary.values())) - {int} or sorted(vocabulary.values()) != list(range(n_terms)):
        raise ValueError("the vocabulary's term ids are not the integers 0 to its size - 1")
    lengths, ids, counts = (_unpacked(payload, name, "i") for name in ("posting_lengths", "doc_ids", "counts"))
    if len(lengths) != n_terms:
        raise ValueError(f"{len(lengths)} posting lengths for {n_terms} vocabulary terms")
    if min(lengths, default=1) < 1:
        raise ValueError(f"term {lengths.index(min(lengths))} has an empty posting")
    if not sum(lengths) == len(ids) == len(counts):
        raise ValueError(f"posting lengths sum to {sum(lengths)} for {len(ids)} doc ids and {len(counts)} counts")
    if min(counts, default=1) < 1:
        raise ValueError("a count is below 1")
    doc_objects = list(range(n_documents))
    postings = {}
    end = 0
    for term_id, length in enumerate(lengths):
        start, end = end, end + length
        term_ids = ids[start:end]
        if not all(map(operator.lt, term_ids, islice(term_ids, 1, None))):
            raise ValueError(f"term {term_id}'s doc ids are not strictly ascending")
        if term_ids[0] < 0 or term_ids[-1] >= n_documents:
            raise ValueError(f"term {term_id} has a doc id outside [0, {n_documents})")
        term_counts = counts[start:end]
        # Only after the range check: a list index would wrap a negative id.
        shared_ids = tuple(map(doc_objects.__getitem__, term_ids))
        distinct = set(term_counts)
        # 97% of a 10,000-question index's terms have one count; taking their
        # ids as they are, without a compress pass, makes the load 15% faster.
        if len(distinct) == 1:
            postings[term_id] = ((term_counts[0], shared_ids),)
        else:
            postings[term_id] = tuple(
                (tf, tuple(compress(shared_ids, map(operator.eq, term_counts, repeat(tf)))))
                for tf in sorted(distinct)
            )
    return TfidfIndex(vocabulary=vocabulary, postings=postings, corpus=corpus)


def _packed(values: array) -> str:
    """Base64 of ``values`` as little-endian bytes, which ``_unpacked`` reads."""
    if sys.byteorder == "big":
        values = array(values.typecode, values)
        values.byteswap()
    return base64.b64encode(values.tobytes()).decode("ascii")


def _unpacked(payload: dict, name: str, typecode: str) -> array:
    """The array that ``_packed`` wrote to ``payload[name]``."""
    text = payload[name]
    if type(text) is not str:
        raise ValueError(f"{name} is not a base64 string")
    values = array(typecode)
    try:
        values.frombytes(base64.b64decode(text, validate=True))
    except ValueError as exc:  # not base64, or not of whole values
        raise ValueError(f"{name} is not base64 of {values.itemsize}-byte values: {exc}") from None
    if sys.byteorder == "big":
        values.byteswap()
    return values
