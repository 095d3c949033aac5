"""Independent brute-force oracles the fast implementations are checked against."""

from __future__ import annotations

import math
from typing import Sequence

from medcorr.errors import ValidationError
from medcorr.retrieval import tokenize


def lcs_table_length(a: Sequence[str], b: Sequence[str]) -> int:
    """Full-table LCS dynamic program, kept deliberately naive."""
    rows = len(a) + 1
    cols = len(b) + 1
    table = [[0] * cols for _ in range(rows)]
    for i in range(1, rows):
        for j in range(1, cols):
            if a[i - 1] == b[j - 1]:
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i - 1][j], table[i][j - 1])
    return table[rows - 1][cols - 1]


def rouge_l_oracle(cand: Sequence[str], ref: Sequence[str]) -> float:
    if not cand or not ref:
        return 0.0
    lcs = lcs_table_length(cand, ref)
    precision = lcs / len(cand)
    recall = lcs / len(ref)
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def rouge1_oracle(cand: Sequence[str], ref: Sequence[str]) -> float:
    """Clipped unigram F1 by explicit enumeration, no Counter machinery."""
    if not cand or not ref:
        return 0.0
    matches = 0
    for token in set(cand):
        in_cand = sum(1 for t in cand if t == token)
        in_ref = sum(1 for t in ref if t == token)
        matches += min(in_cand, in_ref)
    precision = matches / len(cand)
    recall = matches / len(ref)
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def scan_query(index, text: str, k: int = 1) -> list[tuple[int, float]]:
    """The linear-scan ``retrieval.query`` the postings walk replaced, kept
    verbatim but for returning ``(doc_id, score)`` pairs: every document's
    dot product is one ``sum`` over the query terms, absent terms adding 0.0.

    On CPython 3.12 and later ``sum`` of floats is compensated, so there this
    scan may differ from left-to-right addition in the last bit.
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
        for doc_id, (vector, norm) in enumerate(zip(index.doc_vectors, index.doc_norms)):
            if norm == 0.0:
                continue
            dot = sum(weight * vector.get(term_id, 0.0) for term_id, weight in q_vector.items())
            scores[doc_id] = min(1.0, max(0.0, dot / (q_norm * norm)))
    order = sorted(range(len(scores)), key=lambda d: (-scores[d], d))
    return [(d, scores[d]) for d in order[:k]]
