from __future__ import annotations

import json

import pytest
from hypothesis import given, strategies as st

from medcorr.corpus import (
    ClinicalRecord,
    Sentence,
    parse_clinical_records,
    parse_mcq_corpus,
    read_document,
    serialize_clinical_records,
    serialize_mcq_corpus,
    split_dataset,
)
from medcorr.errors import ValidationError
from medcorr.na import NA, is_na

from helpers import record_no_error, record_with_error, unlabeled_record

CSV_HEADER = "record_id,text,sentences_json,error_flag,error_sentence_id,corrected_sentence"


def csv_of(*rows: str) -> bytes:
    return ("\n".join([CSV_HEADER, *rows]) + "\n").encode("utf-8")


# --- parse_clinical_records -----------------------------------------------------


def test_parse_no_error_row():
    raw = csv_of('r1,All good.,"[""All good.""]",0,-1,NA')
    (record,) = parse_clinical_records(raw)
    assert record.record_id == "r1"
    assert record.gold_flag == 0
    assert record.gold_error_sentence_id == -1
    assert is_na(record.gold_correction)


def test_parse_error_row_carries_pathogen_sentences_verbatim():
    error = "After reviewing imaging, the causal pathogen was determined to be Haemophilus influenzae."
    fixed = "After reviewing imaging, the causal pathogen was determined to be Streptococcus pneumoniae."
    raw = csv_of(
        f'r2,"{error}","[""{error}""]",1,0,"{fixed}"'
    )
    (record,) = parse_clinical_records(raw)
    assert record.sentences == (Sentence(0, error),)
    assert record.gold_flag == 1
    assert record.gold_correction == fixed


def test_parse_flag1_with_minus_one_id_is_invalid():
    raw = csv_of('r3,Text.,"[""Text.""]",1,-1,Some correction.')
    with pytest.raises(ValidationError, match="r3"):
        parse_clinical_records(raw)


def test_parse_flag1_without_correction_is_invalid():
    raw = csv_of('r4,Text.,"[""Text.""]",1,0,NA')
    with pytest.raises(ValidationError, match="r4"):
        parse_clinical_records(raw)


def test_parse_flag0_with_real_correction_is_invalid():
    raw = csv_of('r5,Text.,"[""Text.""]",0,-1,Oops.')
    with pytest.raises(ValidationError, match="r5"):
        parse_clinical_records(raw)


def test_parse_duplicate_record_id():
    raw = csv_of('r1,A.,"[""A.""]",0,-1,NA', 'r1,B.,"[""B.""]",0,-1,NA')
    with pytest.raises(ValidationError, match="duplicate record_id"):
        parse_clinical_records(raw)


def test_parse_bad_header():
    raw = b"id,body\nr1,hello\n"
    with pytest.raises(ValidationError, match="header"):
        parse_clinical_records(raw)


def test_parse_bad_sentences_json_names_record():
    raw = csv_of("r9,Text.,not-json,0,-1,NA")
    with pytest.raises(ValidationError, match="r9"):
        parse_clinical_records(raw)


def test_parse_non_utf8():
    with pytest.raises(ValidationError, match="UTF-8"):
        parse_clinical_records(b"\xff\xfe\x00bad")


# A lone surrogate has no UTF-8 encoding. From a UTF-8 file it arrives only
# through a JSON escape; a caller passing ``str`` can put one in any field.
_LONE = "\ud800"


@pytest.mark.parametrize(
    "raw",
    [
        pytest.param(csv_of('r1,Fine. Bad.,"[""Fine."", ""Bad \\ud800.""]",0,-1,NA'), id="sentences_json-escape"),
        pytest.param(f'{CSV_HEADER}\nr1,Bad {_LONE}.,"[""Bad.""]",0,-1,NA\n', id="text"),
        pytest.param(f'{CSV_HEADER}\nr1,Bad.,"[""Bad.""]",1,0,Fixed {_LONE}.\n', id="corrected_sentence"),
        pytest.param(f'{CSV_HEADER}\nr1{_LONE},Bad.,"[""Bad.""]",0,-1,NA\n', id="record_id"),
    ],
)
def test_parse_csv_rejects_a_lone_surrogate_naming_the_record(raw):
    with pytest.raises(ValidationError, match="r1.* lone surrogate"):
        parse_clinical_records(raw, format="delimited-table")


@pytest.mark.parametrize("field", ["sentences", "text", "corrected_sentence", "record_id"])
def test_parse_jsonl_rejects_a_lone_surrogate_naming_the_record(field):
    obj = {"record_id": "r1", "text": "One. Two.", "sentences": ["One.", "Two."],
           "error_flag": 1, "error_sentence_id": 1, "corrected_sentence": "Two fixed."}
    obj[field] = ["One.", f"Two {_LONE}."] if field == "sentences" else obj[field] + _LONE
    raw = json.dumps(obj).encode("utf-8")  # the surrogate becomes the escape \ud800
    with pytest.raises(ValidationError, match="r1.* lone surrogate"):
        parse_clinical_records(raw, format="json-lines")


def test_parse_row_with_wrong_column_count_reports_line():
    raw = (CSV_HEADER + "\n" + "r1,only-two-fields\n").encode("utf-8")
    with pytest.raises(ValidationError, match="line 2"):
        parse_clinical_records(raw)


def test_parse_jsonl_and_unlabeled_records():
    raw = (
        '{"record_id": "a", "text": "One. Two.", "sentences": ["One.", "Two."],'
        ' "error_flag": 1, "error_sentence_id": 1, "corrected_sentence": "Two fixed."}\n'
        '{"record_id": "b", "sentences": ["Fine."]}\n'
    ).encode("utf-8")
    records = parse_clinical_records(raw, format="json-lines")
    assert [r.record_id for r in records] == ["a", "b"]
    assert records[0].gold_error_sentence_id == 1
    assert records[1].gold_flag is None and not records[1].labeled


def test_parse_jsonl_unknown_key():
    raw = b'{"record_id": "a", "sentences": ["X."], "surprise": 1}\n'
    with pytest.raises(ValidationError, match="surprise"):
        parse_clinical_records(raw, format="json-lines")


@pytest.mark.parametrize(
    "parse, raw, key",
    [
        pytest.param(
            lambda raw: parse_clinical_records(raw, format="json-lines"),
            b'{"record_id": "a", "sentences": ["X."]}\n{"record_id": "b", "record_id": "c", "sentences": ["Y."]}\n',
            "record_id",
            id="clinical",
        ),
        pytest.param(
            parse_mcq_corpus,
            b'{"question": "q", "options": {"A": "x", "B": "y"}, "answer": "A"}\n'
            b'{"question": "q", "question": "r", "options": {"A": "x", "B": "y"}, "answer": "A"}\n',
            "question",
            id="mcq",
        ),
    ],
)
def test_json_lines_reject_a_repeated_key_naming_the_line(parse, raw, key):
    with pytest.raises(ValidationError, match=f"^line 2: duplicate key '{key}'$"):
        parse(raw)


DEEP = "[" * 100_000 + "]" * 100_000  # deeper than the JSON decoder can recurse


@pytest.mark.parametrize(
    "parse, raw, where",
    [
        pytest.param(
            lambda raw: parse_clinical_records(raw, format="json-lines"),
            '{"record_id": "a", "sentences": ["X."]}\n' + DEEP + "\n", "^line 2: invalid JSON: nesting too deep",
            id="clinical-json-lines",
        ),
        pytest.param(parse_mcq_corpus, "\n" + DEEP + "\n", "^line 2: invalid JSON: nesting too deep", id="mcq"),
        pytest.param(
            parse_clinical_records,
            # half as deep: the CSV reader caps a field at 131,072 characters
            csv_of(f'r1,X.,"{DEEP[49_999:150_001]}",0,-1,NA'),
            "^record 'r1': sentences_json is not valid JSON: nesting too deep",
            id="csv-sentences_json",
        ),
        pytest.param(
            lambda raw: read_document(raw, "score report", (1,), lambda version, payload: payload), DEEP,
            "^score report is not valid JSON: nesting too deep", id="versioned-document",
        ),
    ],
)
def test_json_nested_too_deep_is_a_validation_error_naming_where(parse, raw, where):
    with pytest.raises(ValidationError, match=where):
        parse(raw)


@pytest.mark.parametrize(
    "field, value, message",
    [
        pytest.param("text", 5, "text must be a string", id="text-a-number"),
        pytest.param("text", None, "text must be a string", id="text-null"),
        pytest.param("corrected_sentence", 7, "corrected_sentence must be a string or null", id="correction-a-number"),
        pytest.param("corrected_sentence", ["Two fixed."], "corrected_sentence must be a string or null",
                     id="correction-a-list"),
    ],
)
def test_parse_jsonl_rejects_a_text_that_is_not_a_string_naming_the_line(field, value, message):
    obj = {"record_id": "a", "text": "One. Two.", "sentences": ["One.", "Two."],
           "error_flag": 1, "error_sentence_id": 1, "corrected_sentence": "Two fixed."}
    raw = '{"record_id": "z", "sentences": ["Z."]}\n' + json.dumps({**obj, field: value}) + "\n"
    with pytest.raises(ValidationError, match=f"^line 2: {message}$"):
        parse_clinical_records(raw, format="json-lines")


def test_parse_jsonl_takes_a_null_correction_as_absent():
    raw = '{"record_id": "a", "sentences": ["One."], "corrected_sentence": null}\n'
    (record,) = parse_clinical_records(raw, format="json-lines")
    assert record.gold_correction is None and not record.labeled


def test_round_trip_both_formats():
    records = [
        record_with_error("a", ["Alpha one.", "Alpha two."], 1, "Alpha two fixed."),
        record_no_error("b", ["Beta."]),
        unlabeled_record("c", ["Gamma.", "Delta."]),
    ]
    for fmt in ("delimited-table", "json-lines"):
        text = serialize_clinical_records(records, format=fmt)
        reparsed = parse_clinical_records(text.encode("utf-8"), format=fmt)
        assert reparsed == records
        # a second serialize is byte-identical: the canonical form is a fixpoint
        assert serialize_clinical_records(reparsed, format=fmt) == text


def test_gold_consistency_invariant_on_parsed_records():
    records = [
        record_with_error("a", ["X.", "Y."], 0, "X fixed."),
        record_no_error("b", ["Z."]),
    ]
    for r in records:
        assert (r.gold_flag == 0) == (r.gold_error_sentence_id == -1) == is_na(r.gold_correction)


# --- parse_mcq_corpus ----------------------------------------------------------------


def test_parse_mcq_well_formed():
    raw = b'{"question": "Which drug?", "options": {"A": "x", "B": "y", "C": "z", "D": "w"}, "answer": "C"}\n'
    (mcq,) = parse_mcq_corpus(raw)
    assert mcq.correct_label == "C"
    assert mcq.correct_text == "z"
    assert len(mcq.options) == 4


def test_parse_mcq_empty_stream():
    assert parse_mcq_corpus(b"") == []


def test_parse_mcq_duplicate_labels():
    raw = b'{"question": "q", "options": {"A": "x", "A": "y"}, "answer": "A"}\n'
    with pytest.raises(ValidationError, match="line 1.*duplicate"):
        parse_mcq_corpus(raw)


def test_parse_mcq_answer_not_among_labels_reports_line():
    raw = (
        b'{"question": "q", "options": {"A": "x", "B": "y"}, "answer": "A"}\n'
        b'{"question": "q2", "options": {"A": "x", "B": "y"}, "answer": "Z"}\n'
    )
    with pytest.raises(ValidationError, match="line 2"):
        parse_mcq_corpus(raw)


@pytest.mark.parametrize(
    "mcq",
    [
        pytest.param({"question": f"Which {_LONE}?", "options": {"A": "x", "B": "y"}, "answer": "A"}, id="question"),
        pytest.param({"question": "Which?", "options": {"A": "x", "B": f"y{_LONE}"}, "answer": "A"}, id="option"),
        pytest.param({"question": "Which?", "options": {"A": "x", _LONE: "y"}, "answer": _LONE}, id="label"),
    ],
)
def test_parse_mcq_rejects_a_lone_surrogate_naming_the_line(mcq):
    raw = b'{"question": "q", "options": {"A": "x", "B": "y"}, "answer": "A"}\n' + json.dumps(mcq).encode("utf-8")
    with pytest.raises(ValidationError, match="line 2: MCQ .* lone surrogate"):
        parse_mcq_corpus(raw)


def test_mcq_round_trip():
    raw = (
        '{"question": "q1", "options": {"A": "x", "B": "y"}, "answer": "B"}\n'
        '{"question": "q2", "options": {"1": "left", "2": "right"}, "answer": "1"}\n'
    )
    mcqs = parse_mcq_corpus(raw.encode("utf-8"))
    assert serialize_mcq_corpus(mcqs) == raw


# --- split_dataset ----------------------------------------------------------------------


def _records(n: int) -> list[ClinicalRecord]:
    out = []
    for i in range(n):
        if i % 4 == 0:
            out.append(record_with_error(f"r{i:03d}", [f"Sentence {i} a.", f"Sentence {i} b."], 1, f"Fixed {i}."))
        else:
            out.append(record_no_error(f"r{i:03d}", [f"Sentence {i} a."]))
    return out


def test_split_160_into_80_40_40():
    records = _records(160)
    split = split_dataset(records, (80, 40, 40), seed=13)
    assert (len(split.train), len(split.validation), len(split.test)) == (80, 40, 40)
    ids = [r.record_id for part in (split.train, split.validation, split.test) for r in part]
    assert sorted(ids) == sorted(r.record_id for r in records)
    assert len(set(ids)) == 160


def test_split_all_into_train():
    records = _records(7)
    split = split_dataset(records, (7, 0, 0), seed=3)
    assert split.validation == () and split.test == ()
    assert sorted(r.record_id for r in split.train) == [r.record_id for r in records]


def test_split_deterministic_for_fixed_seed():
    records = _records(30)
    a = split_dataset(records, (20, 5, 5), seed=99)
    b = split_dataset(records, (20, 5, 5), seed=99)
    assert a == b


def test_split_different_seeds_usually_differ():
    records = _records(30)
    a = split_dataset(records, (20, 5, 5), seed=1)
    b = split_dataset(records, (20, 5, 5), seed=2)
    assert a != b


def test_split_size_mismatch():
    with pytest.raises(ValidationError, match="sum"):
        split_dataset(_records(10), (8, 1, 0), seed=0)


def test_split_stratified_keeps_sizes_and_balances_flags():
    records = _records(160)  # 40 with errors, 120 without
    split = split_dataset(records, (80, 40, 40), seed=5, stratify_by_flag=True)
    assert (len(split.train), len(split.validation), len(split.test)) == (80, 40, 40)
    ids = [r.record_id for part in (split.train, split.validation, split.test) for r in part]
    assert sorted(ids) == sorted(r.record_id for r in records)
    train_errors = sum(1 for r in split.train if r.gold_flag == 1)
    val_errors = sum(1 for r in split.validation if r.gold_flag == 1)
    test_errors = sum(1 for r in split.test if r.gold_flag == 1)
    assert train_errors == 20 and val_errors == 10 and test_errors == 10


@given(
    n=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=2**31),
    stratify=st.booleans(),
)
def test_split_is_bijection_property(n, seed, stratify):
    records = _records(n)
    n_train = n // 2
    n_val = (n - n_train) // 2
    sizes = (n_train, n_val, n - n_train - n_val)
    split = split_dataset(records, sizes, seed=seed, stratify_by_flag=stratify)
    parts = (split.train, split.validation, split.test)
    assert tuple(len(p) for p in parts) == sizes
    ids = sorted(r.record_id for part in parts for r in part)
    assert ids == sorted(r.record_id for r in records)


# --- record invariants -------------------------------------------------------------------


def test_record_rejects_unsorted_sentence_ids():
    with pytest.raises(ValidationError, match="strictly increasing"):
        ClinicalRecord("x", (Sentence(1, "A."), Sentence(0, "B.")))


def test_record_rejects_empty_sentence():
    with pytest.raises(ValidationError, match="empty"):
        ClinicalRecord("x", (Sentence(0, ""),))


def test_record_error_id_must_reference_sentence():
    with pytest.raises(ValidationError, match="does not reference"):
        record_with_error("x", ["Only one."], 5, "Fixed.")
