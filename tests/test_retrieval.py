from __future__ import annotations

import base64
import json
import math
import random
import re
import struct
import sys
import tempfile
from array import array
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from medcorr.corpus import parse_mcq_corpus
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
from oracles import document_vectors, index_document, packed, scan_query, tokenize_oracle

MCQ_CORPUS = Path(__file__).parent / "fixtures" / "mcq_corpus.jsonl"

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


# Separators and letters the pattern must tell apart: underscore, digits, a
# combining acute, non-BMP letters (mathematical bold A, Deseret) and U+2028.
_TOKEN_EDGES = st.sampled_from(["_", "0", "9", "\u0301", "\U0001d400", "\U00010400", "\u2028", "É", "ß", "-", " "])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(text=st.text(st.one_of(_TOKEN_EDGES, st.characters())))
def test_tokenize_equals_the_finditer_form_property(text):
    assert tokenize(text) == tokenize_oracle(text)


# --- build_index ------------------------------------------------------------------


def doc_ids(groups) -> list[int]:
    """A term's doc ids, its groups merged in ascending order."""
    return sorted(doc_id for _, ids in groups for doc_id in ids)


def test_single_document_weights_are_raw_counts():
    index = build_index(corpus_of(["apple banana apple"]))
    assert all(doc_ids(groups) == [0] for groups in index.postings.values())
    # idf = ln(1/1) + 1 = 1, so weights equal raw term counts
    apple = index.vocabulary["apple"]
    banana = index.vocabulary["banana"]
    assert index.idf(apple) == index.idf(banana) == 1.0
    assert [count for count, _ in index.postings[apple]] == [2]
    assert [count for count, _ in index.postings[banana]] == [1]
    assert index.doc_norms == (math.sqrt(2.0**2 + 1.0 + 1.0 + 1.0),)  # apple, banana, alpha, beta


def test_two_document_idf_hand_computed():
    index = build_index(
        [make_mcq("a b", {"X": "opt1", "Y": "opt2"}, "X"), make_mcq("a c", {"X": "opt1", "Y": "opt2"}, "X")]
    )
    a, b, c = (index.vocabulary[t] for t in ("a", "b", "c"))
    assert doc_ids(index.postings[a]) == [0, 1]
    assert doc_ids(index.postings[b]) == [0]
    assert doc_ids(index.postings[c]) == [1]
    assert index.idf(a) == pytest.approx(1.0)
    assert index.idf(b) == pytest.approx(math.log(2.0) + 1.0)  # ~1.6931
    assert index.idf(c) == pytest.approx(math.log(2.0) + 1.0)


def test_build_is_deterministic():
    corpus = corpus_of(["chest pain", "aspirin relief", "chest tightness aspirin"])
    first = build_index(corpus)
    second = build_index(corpus)
    assert first.vocabulary == second.vocabulary
    assert first.postings == second.postings
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
    for vec, norm in zip(document_vectors(index), index.doc_norms):
        assert norm == pytest.approx(math.sqrt(sum(w * w for w in vec.values())), abs=1e-9)


def test_index_internal_invariants():
    index = build_index(corpus_of(["alpha beta beta", "beta gamma", "delta"]))
    assert set(index.postings) == set(index.vocabulary.values())
    for groups in index.postings.values():
        ids = doc_ids(groups)
        assert ids == sorted(set(ids)) and 0 <= ids[0] and ids[-1] < index.n_documents
        assert 1 <= len(ids) <= index.n_documents
        assert all(type(count) is int and count >= 1 and len(group_ids) >= 1 for count, group_ids in groups)


def assert_postings_group_by_count(index: TfidfIndex) -> None:
    """Per term, from each document's tokens: one group per distinct count,
    counts ascending, each group's count exactly its documents' count of the
    term, ids strictly ascending within a group, and the groups disjoint with
    sizes summing to the term's document frequency."""
    tokens = [tokenize(document_text(r)) for r in index.corpus]
    for term, term_id in index.vocabulary.items():
        groups = index.postings[term_id]
        group_counts = []
        for group_count, ids in groups:
            (count,) = {tokens[doc_id].count(term) for doc_id in ids}
            group_counts.append(count)
            assert group_count == count
            assert list(ids) == sorted(set(ids))
        assert group_counts == sorted(set(group_counts)) and group_counts[0] >= 1
        carrying = [doc_id for doc_id, doc in enumerate(tokens) if term in doc]
        assert doc_ids(groups) == carrying and sum(len(ids) for _, ids in groups) == len(carrying)


@pytest.mark.parametrize("corpus_name", ["skewed", "fixture", "repeats"])
def test_postings_group_invariants(tmp_path, corpus_name):
    if corpus_name == "skewed":
        corpus = corpus_of(skewed_corpus(2000, seed=5))
    elif corpus_name == "fixture":
        corpus = parse_mcq_corpus(MCQ_CORPUS.read_text(encoding="utf-8"))
    else:
        # "d" carries counts 2 and 8, which a set of ints iterates as 8, 2
        corpus = corpus_of(["a b a", "a a a b", "b a", "a a a", "c", "d d", " ".join(["d"] * 8)])
    built = build_index(corpus)
    assert_postings_group_by_count(built)
    save_index(built, tmp_path / "index.json")
    assert_postings_group_by_count(load_index(tmp_path / "index.json"))
    if corpus_name == "repeats":
        assert [len(groups) for groups in built.postings.values()] == [3, 1, 1, 1, 1, 2]


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


_FEW_WORDS = st.sampled_from("pain fever cough rash".split())
# Each word repeated 1 to 5 times, so terms carry several distinct counts.
_REPEATING_DOC = st.lists(st.tuples(_FEW_WORDS, st.integers(1, 5)), min_size=1, max_size=5).map(
    lambda runs: " ".join(" ".join([word] * times) for word, times in runs)
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(docs=st.lists(_REPEATING_DOC, min_size=3, max_size=12), query_text=_REPEATING_DOC)
def test_grouped_postings_equal_the_linear_scan_exactly_property(docs, query_text):
    index = build_index(corpus_of(docs))
    assume(max(len(groups) for groups in index.postings.values()) >= 3)
    for k in (1, 2, 5, len(docs) + 2):
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
    assert max(len(doc_ids(groups)) for groups in index.postings.values()) > 1000
    queries = skewed_corpus(8, seed=6) + [docs[17], docs[1999], "zzz unseen", "alpha"]
    for query_text in queries:
        for k in (1, 5, 50, len(docs), len(docs) + 2):
            assert pairs(query(index, query_text, k=k)) == scan_query(index, query_text, k=k)


def test_postings_skip_documents_without_terms():
    # Hand-built, as a loaded file may be: docs 1 and 4 carry no term, so
    # their norms are 0.0 and they score 0.0 for every query; doc 3 carries
    # "fever" alone, so a "fever" query scores it exactly 1.0.
    vocabulary = {"fever": 0, "cough": 1, "ghost": 2}
    index = TfidfIndex(
        vocabulary=vocabulary,
        postings={0: ((1, (0, 2)), (2, (3, 5))), 1: ((1, (0,)), (3, (5,))), 2: ((1, (2,)),)},
        corpus=tuple(corpus_of(["fever cough", "empty", "fever ghost", "fever fever", "none", "loud"])),
    )
    assert index.doc_norms[1] == index.doc_norms[4] == 0.0 and index.doc_norms[3] == 2 * index.idf(0)
    queries = ("fever ghost", "ghost cough fever", "fever", "ghost", "cough fever fever ghost", "nothing")
    for query_text in queries:
        for k in range(1, 9):
            assert pairs(query(index, query_text, k=k)) == scan_query(index, query_text, k=k)
    scores = dict(pairs(query(index, "fever", k=6)))
    assert scores[1] == scores[4] == 0.0 and scores[3] == 1.0
    assert all(0.0 < scores[doc_id] < 1.0 for doc_id in (0, 2, 5))


def test_tfidf_index_takes_no_norms_argument():
    # The norms are derived from the postings, so none can be passed in
    # that disagree with them.
    with pytest.raises(TypeError, match="doc_norms"):
        TfidfIndex(vocabulary={"fever": 0}, postings={0: ((1, (0,)),)}, doc_norms=(1.0,), corpus=tuple(corpus_of(["fever"])))


def unpacked_ints(text: str) -> list[int]:
    raw = base64.b64decode(text)
    return list(struct.unpack(f"<{len(raw) // 4}i", raw))


def test_save_merges_a_terms_count_groups_into_ascending_doc_ids(tmp_path):
    # Hand-built groups interleave their ids: fever's count-1 group holds
    # docs 0 and 2, its count-2 group docs 1 and 3, so the file's posting
    # takes them in turn.
    index = TfidfIndex(
        vocabulary={"fever": 0, "cough": 1},
        postings={0: ((1, (0, 2)), (2, (1, 3))), 1: ((3, (2,)),)},
        corpus=tuple(corpus_of(["fever", "fever fever", "fever cough cough cough", "fever fever"])),
    )
    path = tmp_path / "index.json"
    save_index(index, path)
    payload = json.loads(path.read_bytes())
    assert unpacked_ints(payload["posting_lengths"]) == [4, 1]
    assert unpacked_ints(payload["doc_ids"]) == [0, 1, 2, 3, 2]
    assert unpacked_ints(payload["counts"]) == [1, 2, 1, 2, 3]
    assert load_index(path) == index


def test_unrelated_document_with_frozen_idf_leaves_scores_unchanged(monkeypatch):
    base = build_index(corpus_of(["chest pain", "aspirin dose"]))
    query_text = "chest pain"
    before = {h.doc_id: h.score for h in query(base, query_text, k=2)}

    # Extend the index by hand with a document sharing no terms with the
    # corpus or the query, then freeze idf by pinning the document count.
    # The norms are derived on construction, so they see the frozen count.
    new_terms = ["unrelatedterm1", "unrelatedterm2"]
    frozen_n = base.n_documents
    vocabulary = dict(base.vocabulary)
    postings = dict(base.postings)
    for term in new_terms:
        term_id = len(vocabulary)
        vocabulary[term] = term_id
        postings[term_id] = ((1, (frozen_n,)),)
    monkeypatch.setattr(TfidfIndex, "n_documents", property(lambda self: frozen_n))
    extended = TfidfIndex(
        vocabulary=vocabulary,
        postings=postings,
        corpus=base.corpus + (make_mcq(" ".join(new_terms), {"A": "x", "B": "y"}, "A"),),
    )
    assert extended.doc_norms[:frozen_n] == base.doc_norms
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


def layout_oracle(index: TfidfIndex) -> dict:
    """The format-4 file of ``index``, its postings counted from each
    document's tokens and packed by ``oracles.index_document``."""
    tokens = [tokenize(document_text(r)) for r in index.corpus]
    postings = []
    for term in index.vocabulary:  # in term-id order, as build_index assigns ids
        ids = [doc_id for doc_id, doc in enumerate(tokens) if term in doc]
        postings.append([ids, [tokens[doc_id].count(term) for doc_id in ids]])
    corpus = [{"question": r.question, "options": dict(r.options), "answer": r.correct_label} for r in index.corpus]
    return json.loads(index_document(4, index.vocabulary, postings, corpus))


def assert_round_trips(corpus, directory: Path, query_text: str) -> None:
    """A built index saves to the layout oracle's file, loads back equal, and
    saves again to the same bytes; the loaded index's hits equal the scan's."""
    built = build_index(corpus)
    path, again = directory / "index.json", directory / "again.json"
    save_index(built, path)
    assert json.loads(path.read_bytes()) == layout_oracle(built)
    loaded = load_index(path)
    assert loaded == built
    save_index(loaded, again)
    assert again.read_bytes() == path.read_bytes()
    for k in range(1, len(corpus) + 3):
        assert pairs(query(loaded, query_text, k=k)) == scan_query(built, query_text, k=k)


def test_the_fixture_corpus_index_round_trips(tmp_path):
    corpus = parse_mcq_corpus(MCQ_CORPUS.read_text(encoding="utf-8"))
    assert_round_trips(corpus, tmp_path, document_text(corpus[-1]))


def assert_postings_share_their_objects(index: TfidfIndex) -> None:
    """Each posting is a tuple of (int, tuple of ids) groups: the ids hold
    one int object per document and, within the term, there is one group
    per count."""
    doc_objects: dict[int, int] = {}
    for groups in index.postings.values():
        assert type(groups) is tuple
        for count, ids in groups:
            assert type(count) is int and type(ids) is tuple
            assert all(doc_objects.setdefault(doc_id, doc_id) is doc_id for doc_id in ids)
        counts = [count for count, _ in groups]
        assert len(set(counts)) == len(counts)


@pytest.mark.parametrize("corpus_name", ["skewed", "fixture"])
def test_save_load_save_is_byte_identical_and_postings_share_their_objects(tmp_path, corpus_name):
    if corpus_name == "skewed":
        corpus = corpus_of(skewed_corpus(2000, seed=5))
    else:
        corpus = parse_mcq_corpus(MCQ_CORPUS.read_text(encoding="utf-8"))
    built = build_index(corpus)
    path, again = tmp_path / "index.json", tmp_path / "again.json"
    save_index(built, path)
    loaded = load_index(path)
    save_index(loaded, again)
    assert again.read_bytes() == path.read_bytes()
    assert loaded == built
    assert_postings_share_their_objects(built)
    assert_postings_share_their_objects(loaded)


@settings(max_examples=40, deadline=None)
@given(docs=st.lists(_DOC, min_size=1, max_size=12), query_text=_DOC)
def test_saved_index_round_trips_property(docs, query_text):
    with tempfile.TemporaryDirectory() as directory:
        assert_round_trips(corpus_of(docs), Path(directory), query_text)


def norms_oracle(corpus) -> list[float]:
    """Each document's norm counted from its own tokens by the pinned
    formulas: the root of its summed squared ``tf * idf``."""
    tokens = [tokenize(document_text(r)) for r in corpus]
    df = {term: sum(term in doc for doc in tokens) for doc in tokens for term in doc}
    idf = {term: math.log(len(tokens) / n) + 1.0 for term, n in df.items()}
    return [math.sqrt(sum((doc.count(term) * idf[term]) ** 2 for term in set(doc))) for doc in tokens]


@settings(max_examples=40, deadline=None)
@given(docs=st.lists(_REPEATING_DOC, min_size=1, max_size=12))
def test_derived_norms_survive_a_round_trip_and_match_the_tokens_property(docs):
    built = build_index(corpus_of(docs))
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "index.json"
        save_index(built, path)
        assert load_index(path).doc_norms == built.doc_norms  # bit for bit
    expected = norms_oracle(built.corpus)
    assert len(built.doc_norms) == len(expected)
    assert all(math.isclose(norm, want, rel_tol=1e-12) for norm, want in zip(built.doc_norms, expected))


def one_document_three_term_file(**fields) -> str:
    """A format-4 file of one document whose three terms each have count 1."""
    mcq = {"question": "Which drug?", "options": {"A": "aspirin", "B": "heparin"}, "answer": "A"}
    return index_document(4, {"of": 0, "the": 1, "with": 2}, [[[0], [1]]] * 3, [mcq], **fields)


def test_a_one_document_three_term_file_loads_with_norm_sqrt_3(tmp_path):
    # Format 3 stored this document's norm as 1.7 and loaded it unchecked;
    # its three terms of count 1 and idf 1 give sqrt(3).
    path = tmp_path / "index.json"
    path.write_text(one_document_three_term_file(), encoding="utf-8")
    assert load_index(path).doc_norms == (math.sqrt(3),)


def test_a_stored_doc_norms_field_is_not_read_and_not_written_back(tmp_path):
    # A format-3 file relabelled as format 4 still carries its norms: the
    # loaded norm is the derived sqrt(3), not the stored 1.7, and a save
    # leaves the field out.
    path, again = tmp_path / "index.json", tmp_path / "again.json"
    path.write_text(one_document_three_term_file(doc_norms=packed("d", [1.7])), encoding="utf-8")
    index = load_index(path)
    assert index.doc_norms == (math.sqrt(3),)
    save_index(index, again)
    assert "doc_norms" not in json.loads(again.read_bytes())


TWO_DOCUMENTS = ["syncope workup syncope", "orthostatic syncope"]


def test_format_4_layout_is_pinned(tmp_path):
    # A typecode, byte-order or field-order change alters these strings.
    path = tmp_path / "index.json"
    built = build_index(corpus_of(TWO_DOCUMENTS))
    save_index(built, path)
    payload = json.loads(path.read_bytes())
    assert list(payload) == ["format_version", "vocabulary", "posting_lengths", "doc_ids", "counts", "corpus"]
    assert payload["format_version"] == 4
    assert payload["vocabulary"] == {"syncope": 0, "workup": 1, "alpha": 2, "beta": 3, "orthostatic": 4}
    assert payload["posting_lengths"] == "AgAAAAEAAAACAAAAAgAAAAEAAAA="  # 2, 1, 2, 2, 1
    assert payload["doc_ids"] == "AAAAAAEAAAAAAAAAAAAAAAEAAAAAAAAAAQAAAAEAAAA="  # 0 1, 0, 0 1, 0 1, 1
    assert payload["counts"] == "AgAAAAEAAAABAAAAAQAAAAEAAAABAAAAAQAAAAEAAAA="  # 2 1, 1, 1 1, 1 1, 1
    # The norms format 3 stored as "5RlwyVjSB0CrGoRViWADQA==" are derived
    # from the counts to the same floats.
    assert built.doc_norms == struct.unpack("<2d", base64.b64decode("5RlwyVjSB0CrGoRViWADQA=="))
    assert load_index(path).doc_norms == built.doc_norms
    idf = math.log(2.0) + 1.0
    assert built.doc_norms == pytest.approx((math.sqrt(4.0 + idf * idf + 2.0), math.sqrt(idf * idf + 3.0)), abs=1e-12)


def test_save_and_load_swap_bytes_on_a_big_endian_host(tmp_path, monkeypatch):
    built = build_index(corpus_of(TWO_DOCUMENTS))
    native, swapped = tmp_path / "native.json", tmp_path / "swapped.json"
    save_index(built, native)
    monkeypatch.setattr(sys, "byteorder", "little" if sys.byteorder == "big" else "big")
    save_index(built, swapped)
    assert load_index(swapped) == built
    first, second = json.loads(native.read_bytes()), json.loads(swapped.read_bytes())
    for name in ("posting_lengths", "doc_ids", "counts"):
        values = array("i", base64.b64decode(first[name]))
        values.byteswap()
        assert base64.b64decode(second[name]) == values.tobytes()


def two_document_payload(**fields) -> dict:
    built = build_index(corpus_of(TWO_DOCUMENTS))
    return {**layout_oracle(built), **fields}


@pytest.mark.parametrize(
    ("doc_ids", "term_id"),
    [
        pytest.param([-1, 1, 0, 0, 1, 0, 1, 1], 0, id="negative-first-of-two"),
        pytest.param([0, 1, -1, 0, 1, 0, 1, 1], 1, id="negative-alone"),
        pytest.param([0, 1, 2, 0, 1, 0, 1, 1], 1, id="n-alone"),
        pytest.param([0, 1, 0, 0, 1, 0, 1, 2], 4, id="n-last-term"),
    ],
)
def test_load_rejects_a_doc_id_outside_the_corpus(tmp_path, doc_ids, term_id):
    # TWO_DOCUMENTS' doc ids are 0 1, 0, 0 1, 0 1, 1 (see the layout test); a
    # wrapped negative id would name the other document of the two.
    path = tmp_path / "index.json"
    path.write_text(json.dumps(two_document_payload(doc_ids=packed("i", doc_ids))), encoding="utf-8")
    with pytest.raises(ValidationError, match=re.escape(f"term {term_id} has a doc id outside [0, 2)")):
        load_index(path)


@pytest.mark.parametrize(
    ("fields", "message"),
    [
        # TWO_DOCUMENTS' lengths are 2, 1, 2, 2, 1 and its counts 2 1, 1, 1 1, 1 1, 1.
        pytest.param({"posting_lengths": packed("i", [2, 1, 2, 3])}, "4 posting lengths for 5 vocabulary terms",
                     id="length-count"),
        pytest.param({"posting_lengths": packed("i", [2, 1, 2, 0, 3])}, "term 3 has an empty posting",
                     id="empty-posting"),
        pytest.param({"posting_lengths": packed("i", [2, 1, 2, 2, 2])},
                     "posting lengths sum to 9 for 8 doc ids and 8 counts", id="length-sum"),
        pytest.param({"counts": packed("i", [2, 1, 1, 1, 1, 0, 1, 1])}, "a count is below 1", id="count-below-one"),
        pytest.param({"doc_ids": packed("i", [0, 1, 0, 0, 1, 1, 0, 1])}, "term 3's doc ids are not strictly ascending",
                     id="doc-ids-not-ascending"),
        pytest.param({"counts": [2, 1, 1, 1, 1, 1, 1, 1]}, "counts is not a base64 string", id="array-not-a-string"),
        pytest.param({"doc_ids": "AAAA*AAA"}, "doc_ids is not base64 of 4-byte values: ", id="not-base64"),
        pytest.param({"doc_ids": base64.b64encode(bytes(30)).decode("ascii")},
                     "doc_ids is not base64 of 4-byte values: ", id="partial-item"),
    ],
)
def test_load_rejects_a_malformed_posting_array_naming_the_file(tmp_path, fields, message):
    path = tmp_path / "index.json"
    path.write_text(json.dumps(two_document_payload(**fields)), encoding="utf-8")
    with pytest.raises(ValidationError, match=f"^malformed index file {re.escape(str(path))}: {re.escape(message)}"):
        load_index(path)


def test_load_names_the_vocabulary_when_a_term_id_is_a_string(tmp_path):
    path = tmp_path / "index.json"
    vocabulary = {"syncope": 0, "workup": "1", "alpha": 2, "beta": 3, "orthostatic": 4}
    path.write_text(json.dumps(two_document_payload(vocabulary=vocabulary)), encoding="utf-8")
    message = "the vocabulary's term ids are not the integers 0 to its size - 1"
    with pytest.raises(ValidationError, match=f"{re.escape(str(path))}: {re.escape(message)}$"):
        load_index(path)


def test_load_accepts_a_zero_norm(tmp_path):
    # a document that no posting names has no terms, norm 0.0 and score 0.0
    path = tmp_path / "index.json"
    payload = two_document_payload()
    payload["corpus"].append(payload["corpus"][0])
    path.write_text(json.dumps(payload), encoding="utf-8")
    index = load_index(path)
    assert index.doc_norms[2] == 0.0
    assert dict(pairs(query(index, "syncope workup", k=3)))[2] == 0.0


@pytest.mark.parametrize("version", [1, 2, 3])
def test_load_asks_to_rebuild_a_file_of_an_older_format(tmp_path, version):
    path = tmp_path / "index.json"
    path.write_text(json.dumps(two_document_payload(format_version=version)), encoding="utf-8")
    with pytest.raises(ValidationError, match=f"^index file {re.escape(str(path))} .*rebuild it with `medcorr index build`"):
        load_index(path)


def test_load_rejects_an_option_text_that_is_not_a_string_naming_the_file(tmp_path):
    path = tmp_path / "index.json"
    payload = two_document_payload()
    payload["corpus"][1]["options"]["B"] = None
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(ValidationError, match=f"{re.escape(str(path))}.*option text that is not a string"):
        load_index(path)


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
