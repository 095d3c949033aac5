from __future__ import annotations

import math
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from medcorr.errors import ValidationError
from medcorr.retrieval import (
    TfidfIndex,
    build_index,
    document_text,
    load_index,
    query,
    save_index,
    tokenize,
)

from helpers import make_mcq
from oracles import scan_query

# --- independent oracle: dense tf-idf + cosine ----------------------------------


def dense_scores(docs: list[str], query_text: str) -> list[float]:
    """Brute-force cosine over dense vectors, from the pinned formulas."""
    vocab = sorted({t for d in docs for t in tokenize(d)})
    n = len(docs)
    df = {t: sum(1 for d in docs if t in tokenize(d)) for t in vocab}
    idf = {t: math.log(n / df[t]) + 1.0 for t in vocab}

    def vec(text: str) -> list[float]:
        tokens = tokenize(text)
        return [tokens.count(t) * idf[t] for t in vocab]

    q = vec(query_text)
    q_norm = math.sqrt(sum(x * x for x in q))
    out = []
    for d in docs:
        v = vec(d)
        v_norm = math.sqrt(sum(x * x for x in v))
        if q_norm == 0.0 or v_norm == 0.0:
            out.append(0.0)
        else:
            out.append(sum(a * b for a, b in zip(q, v)) / (q_norm * v_norm))
    return out


def corpus_of(texts: list[str]):
    # one dummy option pair per doc; question text carries the content
    return [make_mcq(text, {"A": "alpha", "B": "beta"}, "A") for text in texts]


# --- tokenize -----------------------------------------------------------------


def test_tokenize_simple():
    assert tokenize("Streptococcus pneumoniae.") == ["streptococcus", "pneumoniae"]


def test_tokenize_empty():
    assert tokenize("") == []


def test_tokenize_splits_on_non_alphanumerics():
    # oracle: regex split on non-alphanumerics, applied by hand
    assert tokenize("B-12 level") == ["b", "12", "level"]


def test_tokenize_underscore_is_a_separator():
    assert tokenize("foo_bar") == ["foo", "bar"]


def test_tokenize_unicode():
    assert tokenize("Déjà vu 2024") == ["déjà", "vu", "2024"]


# --- build_index ------------------------------------------------------------------


def test_single_document_weights_are_raw_counts():
    index = build_index(corpus_of(["apple banana apple"]))
    assert all(df == 1 for df in index.document_frequency.values())
    # idf = ln(1/1) + 1 = 1, so weights equal raw term counts
    apple = index.vocabulary["apple"]
    banana = index.vocabulary["banana"]
    assert index.doc_vectors[0][apple] == pytest.approx(2.0)
    assert index.doc_vectors[0][banana] == pytest.approx(1.0)


def test_two_document_idf_hand_computed():
    index = build_index(
        [make_mcq("a b", {"X": "opt1", "Y": "opt2"}, "X"), make_mcq("a c", {"X": "opt1", "Y": "opt2"}, "X")]
    )
    a, b, c = (index.vocabulary[t] for t in ("a", "b", "c"))
    assert index.document_frequency[a] == 2
    assert index.document_frequency[b] == 1
    assert index.document_frequency[c] == 1
    assert index.idf(a) == pytest.approx(1.0)
    assert index.idf(b) == pytest.approx(math.log(2.0) + 1.0)  # ~1.6931
    assert index.idf(c) == pytest.approx(math.log(2.0) + 1.0)


def test_build_is_deterministic():
    corpus = corpus_of(["chest pain", "aspirin relief", "chest tightness aspirin"])
    first = build_index(corpus)
    second = build_index(corpus)
    assert first.vocabulary == second.vocabulary
    assert first.doc_vectors == second.doc_vectors
    assert first.doc_norms == second.doc_norms


def test_empty_corpus_is_error():
    with pytest.raises(ValidationError, match="empty"):
        build_index([])


def test_option_text_is_indexed_with_question():
    mcq = make_mcq("what is shown", {"A": "pericarditis", "B": "tamponade"}, "A")
    index = build_index([mcq])
    assert "pericarditis" in index.vocabulary
    assert "tamponade" in index.vocabulary
    assert document_text(mcq) == "what is shown pericarditis tamponade"


def test_doc_norms_match_vectors():
    index = build_index(corpus_of(["one two two", "three one"]))
    for vec, norm in zip(index.doc_vectors, index.doc_norms):
        assert norm == pytest.approx(math.sqrt(sum(w * w for w in vec.values())), abs=1e-9)


def test_index_internal_invariants():
    index = build_index(corpus_of(["alpha beta beta", "beta gamma", "delta"]))
    known_ids = set(index.vocabulary.values())
    for vec in index.doc_vectors:
        assert set(vec) <= known_ids
    for term_id, df in index.document_frequency.items():
        assert term_id in known_ids
        assert 1 <= df <= index.n_documents


# --- query ----------------------------------------------------------------------------


def test_self_retrieval_rank_one():
    texts = ["tremor and rigidity", "fever with cough", "acute flank pain"]
    index = build_index(corpus_of(texts))
    for doc_id, mcq in enumerate(index.corpus):
        hits = query(index, document_text(mcq), k=1)
        assert hits[0].doc_id == doc_id
        assert hits[0].score == pytest.approx(1.0, abs=1e-9)


def test_unseen_tokens_score_zero_and_pad_to_k():
    index = build_index(corpus_of(["alpha beta", "gamma delta"]))
    hits = query(index, "zzz qqq", k=2)
    assert [h.score for h in hits] == [0.0, 0.0]
    assert [h.doc_id for h in hits] == [0, 1]  # ties break by ascending doc_id


def test_query_matches_dense_oracle_on_three_doc_fixture():
    texts = [
        "crushing chest pain relieved by aspirin",
        "aspirin allergy with rash",
        "left knee swelling after a fall",
    ]
    index = build_index(corpus_of(texts))
    docs = [document_text(m) for m in index.corpus]
    expected = dense_scores(docs, "chest pain aspirin")
    hits = query(index, "chest pain aspirin", k=3)
    expected_order = sorted(range(3), key=lambda d: (-expected[d], d))
    assert [h.doc_id for h in hits] == expected_order
    for hit in hits:
        assert hit.score == pytest.approx(expected[hit.doc_id], abs=1e-9)


def test_k_larger_than_corpus_returns_corpus_size():
    index = build_index(corpus_of(["a b", "c d"]))
    assert len(query(index, "a", k=10)) == 2


def test_k_below_one_is_error():
    index = build_index(corpus_of(["a"]))
    with pytest.raises(ValidationError):
        query(index, "a", k=0)


def test_cosine_symmetry():
    texts = ["renal failure on dialysis", "dialysis catheter infection", "hip fracture repair"]
    index = build_index(corpus_of(texts))
    docs = [document_text(m) for m in index.corpus]
    for i in range(len(docs)):
        for j in range(len(docs)):
            score_ij = next(h.score for h in query(index, docs[i], k=3) if h.doc_id == j)
            score_ji = next(h.score for h in query(index, docs[j], k=3) if h.doc_id == i)
            assert score_ij == pytest.approx(score_ji, abs=1e-9)


_WORDS = st.sampled_from(
    "pain fever cough rash nausea tremor edema anemia sepsis stroke aspirin insulin".split()
)
_DOC = st.lists(_WORDS, min_size=1, max_size=8).map(" ".join)


@settings(max_examples=40, deadline=None)
@given(docs=st.lists(_DOC, min_size=1, max_size=12), query_text=_DOC)
def test_sparse_equals_dense_oracle_property(docs, query_text):
    index = build_index(corpus_of(docs))
    doc_texts = [document_text(m) for m in index.corpus]
    expected = dense_scores(doc_texts, query_text)
    hits = query(index, query_text, k=len(docs))
    for hit in hits:
        assert hit.score == pytest.approx(expected[hit.doc_id], abs=1e-9)


def pairs(hits) -> list[tuple[int, float]]:
    return [(h.doc_id, h.score) for h in hits]


@settings(max_examples=60, deadline=None)
@given(docs=st.lists(_DOC, min_size=1, max_size=12), query_text=_DOC)
def test_postings_equal_the_linear_scan_exactly_property(docs, query_text):
    index = build_index(corpus_of(docs))
    for k in range(1, len(docs) + 3):
        assert pairs(query(index, query_text, k=k)) == scan_query(index, query_text, k=k)


def skewed_corpus(n_docs: int, seed: int) -> list[str]:
    """Zipf-like word draws, so the common words' postings are long."""
    rng = random.Random(seed)
    words = [f"w{i}" for i in range(400)]
    weights = [1.0 / (rank + 1) for rank in range(len(words))]
    return [" ".join(rng.choices(words, weights, k=rng.randint(3, 30))) for _ in range(n_docs)]


def test_postings_equal_the_linear_scan_exactly_on_a_skewed_corpus():
    docs = skewed_corpus(2000, seed=5)
    index = build_index(corpus_of(docs))
    assert max(len(ids) for ids, _ in index.postings.values()) > 1000
    queries = skewed_corpus(8, seed=6) + [docs[17], docs[1999], "zzz unseen", "alpha"]
    for query_text in queries:
        for k in (1, 5, 50, len(docs), len(docs) + 2):
            assert pairs(query(index, query_text, k=k)) == scan_query(index, query_text, k=k)


def test_postings_skip_zero_norm_documents_and_terms_no_document_carries():
    # Hand-built: doc 1 has no terms, doc 2 carries a term but a zero norm,
    # doc 4 a negative weight and doc 5 a norm too small for its vector, so
    # the clamp acts at both ends; "ghost" is in the vocabulary, in no document.
    vocabulary = {"fever": 0, "cough": 1, "ghost": 2}
    index = TfidfIndex(
        vocabulary=vocabulary,
        document_frequency={0: 4, 1: 1, 2: 1},
        doc_vectors=({0: 1.5, 1: 2.25}, {}, {0: 1.5}, {0: 3.0}, {0: -2.0}, {0: 3.0}),
        doc_norms=(math.hypot(1.5, 2.25), 0.0, 0.0, 3.0, 2.0, 1.0),
        corpus=tuple(corpus_of(["fever cough", "empty", "fever", "fever fever", "anti", "loud"])),
    )
    assert 2 not in index.postings
    queries = ("fever ghost", "ghost cough fever", "fever", "ghost", "cough fever fever ghost", "nothing")
    for query_text in queries:
        for k in range(1, 9):
            assert pairs(query(index, query_text, k=k)) == scan_query(index, query_text, k=k)
    scores = dict(pairs(query(index, "fever", k=6)))
    assert scores[1] == scores[2] == scores[4] == 0.0 and scores[5] == 1.0
    assert 0.0 < scores[0] < 1.0 and scores[3] == 1.0


def test_unrelated_document_with_frozen_idf_leaves_scores_unchanged(monkeypatch):
    base = build_index(corpus_of(["chest pain", "aspirin dose"]))
    query_text = "chest pain"
    before = {h.doc_id: h.score for h in query(base, query_text, k=2)}

    # Extend the index by hand with a document sharing no terms with the
    # corpus or the query, then freeze idf by pinning the document count.
    new_terms = ["unrelatedterm1", "unrelatedterm2"]
    frozen_n = base.n_documents
    vocabulary = dict(base.vocabulary)
    document_frequency = dict(base.document_frequency)
    vector = {}
    for term in new_terms:
        term_id = len(vocabulary)
        vocabulary[term] = term_id
        document_frequency[term_id] = 1
        vector[term_id] = math.log(frozen_n) + 1.0
    extended = TfidfIndex(
        vocabulary=vocabulary,
        document_frequency=document_frequency,
        doc_vectors=base.doc_vectors + (vector,),
        doc_norms=base.doc_norms + (math.sqrt(sum(w * w for w in vector.values())),),
        corpus=base.corpus + (make_mcq(" ".join(new_terms), {"A": "x", "B": "y"}, "A"),),
    )
    monkeypatch.setattr(TfidfIndex, "n_documents", property(lambda self: frozen_n))
    after = {h.doc_id: h.score for h in query(extended, query_text, k=3)}
    for doc_id, score in before.items():
        assert after[doc_id] == score  # exact equality: idf frozen
    assert after[2] == 0.0


# --- persistence -----------------------------------------------------------------------


def test_save_load_round_trip(tmp_path):
    texts = ["syncope workup", "orthostatic hypotension", "vasovagal episode"]
    index = build_index(corpus_of(texts))
    path = tmp_path / "index.json"
    save_index(index, path)
    loaded = load_index(path)
    assert loaded == index
    original = query(index, "syncope episode", k=3)
    replayed = query(loaded, "syncope episode", k=3)
    assert [(h.doc_id, h.score) for h in original] == [(h.doc_id, h.score) for h in replayed]


def test_postings_stay_out_of_equality_and_the_saved_file(tmp_path):
    index = build_index(corpus_of(["syncope workup", "orthostatic hypotension", "vasovagal episode"]))
    before, after = tmp_path / "before.json", tmp_path / "after.json"
    save_index(index, before)
    loaded = load_index(before)
    query(index, "syncope episode", k=3)
    query(loaded, "hypotension", k=1)
    assert "postings" in vars(index) and "postings" in vars(loaded)
    assert loaded == index
    save_index(index, after)
    assert after.read_bytes() == before.read_bytes()


def test_load_rejects_wrong_version(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format_version": 99}', encoding="utf-8")
    with pytest.raises(ValidationError, match="format_version"):
        load_index(path)


def test_load_rejects_a_lone_surrogate_naming_the_file(tmp_path):
    path = tmp_path / "index.json"
    save_index(build_index(corpus_of(["syncope workup", "orthostatic hypotension"])), path)
    # the JSON escape decodes to a lone surrogate, which no request can carry
    path.write_text(path.read_text(encoding="utf-8").replace("syncope workup", "syncope \\ud800"), encoding="utf-8")
    with pytest.raises(ValidationError, match=f"{re.escape(str(path))}.* lone surrogate"):
        load_index(path)
