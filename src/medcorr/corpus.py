"""Dataset ingestion: clinical records, MCQ retrieval corpora, splits.

Canonical on-disk formats (see README for the full schemas):

* clinical delimited-table: UTF-8 CSV with header
  ``record_id, text, sentences_json, error_flag, error_sentence_id,
  corrected_sentence`` where ``sentences_json`` is a JSON array of strings.
* clinical json-lines: one object per line with keys ``record_id``, ``text``,
  ``sentences`` (array of strings), ``error_flag``, ``error_sentence_id``,
  ``corrected_sentence``.
* MCQ json-lines: ``{"question": str, "options": {"A": str, ...},
  "answer": "A"}``.

Gold sentence segmentation is authoritative: records are never re-segmented.
Every file medcorr reads is a CSV table, JSON lines or a versioned JSON
document, and each of the three shapes has its one reader here.
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, NamedTuple, TypeVar

from .errors import ValidationError
from .na import NA, NAType, is_na, na_to_text, text_to_na

_T = TypeVar("_T")

CLINICAL_CSV_COLUMNS = (
    "record_id",
    "text",
    "sentences_json",
    "error_flag",
    "error_sentence_id",
    "corrected_sentence",
)


class Sentence(NamedTuple):
    sentence_id: int
    text: str


@dataclass(frozen=True)
class ClinicalRecord:
    """One clinical text split into numbered sentences plus gold annotations.

    Gold fields are ``None`` for unlabeled records. For labeled records the
    flag, error sentence id and correction are mutually consistent:
    flag 0 pairs with id -1 and an NA correction, flag 1 with an existing
    sentence id and a non-empty corrected sentence.
    """

    record_id: str
    sentences: tuple[Sentence, ...]
    gold_flag: int | None = None
    gold_error_sentence_id: int | None = None
    gold_correction: str | NAType | None = None

    def __post_init__(self) -> None:
        if not self.record_id:
            raise ValidationError("record_id must be non-empty")
        if not self.sentences:
            raise ValidationError(f"record {self.record_id!r}: no sentences")
        prev = -1
        for sid, text in self.sentences:
            if sid <= prev:
                raise ValidationError(
                    f"record {self.record_id!r}: sentence ids must be unique and strictly increasing"
                )
            if not text:
                raise ValidationError(f"record {self.record_id!r}: sentence {sid} is empty")
            prev = sid
        self._check_gold()

    def _check_gold(self) -> None:
        rid = self.record_id
        if self.gold_flag is None:
            if self.gold_error_sentence_id is not None or self.gold_correction is not None:
                raise ValidationError(
                    f"record {rid!r}: gold error id/correction given without an error flag"
                )
            return
        if self.gold_flag not in (0, 1):
            raise ValidationError(f"record {rid!r}: error_flag must be 0 or 1")
        if self.gold_flag == 0:
            if self.gold_error_sentence_id != -1:
                raise ValidationError(
                    f"record {rid!r}: flag 0 requires error_sentence_id -1, "
                    f"got {self.gold_error_sentence_id}"
                )
            if not is_na(self.gold_correction):
                raise ValidationError(f"record {rid!r}: flag 0 requires an NA correction")
        else:
            ids = {s.sentence_id for s in self.sentences}
            if self.gold_error_sentence_id not in ids:
                raise ValidationError(
                    f"record {rid!r}: error_sentence_id {self.gold_error_sentence_id} "
                    "does not reference an existing sentence"
                )
            if is_na(self.gold_correction) or not self.gold_correction:
                raise ValidationError(
                    f"record {rid!r}: flag 1 requires a non-empty corrected sentence"
                )

    @property
    def labeled(self) -> bool:
        return self.gold_flag is not None

    def full_text(self) -> str:
        return "\n".join(s.text for s in self.sentences)

    def sentence_text(self, sentence_id: int) -> str:
        for sid, text in self.sentences:
            if sid == sentence_id:
                return text
        raise ValidationError(f"record {self.record_id!r}: no sentence with id {sentence_id}")

    def sentence_ids(self) -> tuple[int, ...]:
        return tuple(s.sentence_id for s in self.sentences)


@dataclass(frozen=True)
class McqRecord:
    """A retrieval-corpus multiple-choice question."""

    question: str
    options: tuple[tuple[str, str], ...]
    correct_label: str

    def __post_init__(self) -> None:
        if len(self.options) < 2:
            raise ValidationError("MCQ needs at least 2 options")
        labels = [label for label, _ in self.options]
        if len(set(labels)) != len(labels):
            raise ValidationError("MCQ option labels must be unique")
        if self.correct_label not in labels:
            raise ValidationError(
                f"MCQ answer {self.correct_label!r} is not among option labels {labels}"
            )
        if not _encodable("".join([self.question, self.correct_label, *(text for _, text in self.options), *labels])):
            raise ValidationError(f"MCQ {self.question[:60]!r} holds a lone surrogate, which UTF-8 cannot encode")

    @property
    def correct_text(self) -> str:
        for label, text in self.options:
            if label == self.correct_label:
                return text
        raise AssertionError("unreachable: validated in __post_init__")


@dataclass(frozen=True)
class DatasetSplit:
    train: tuple[ClinicalRecord, ...]
    validation: tuple[ClinicalRecord, ...]
    test: tuple[ClinicalRecord, ...]
    seed: int = 0

    def __post_init__(self) -> None:
        ids: list[str] = [r.record_id for part in (self.train, self.validation, self.test) for r in part]
        if len(set(ids)) != len(ids):
            raise ValidationError("split parts must be disjoint by record_id")


def _encodable(text: str) -> bool:
    """False only for a lone surrogate (what a JSON escape such as "\\ud800"
    decodes to), which no request, cache line or output file could carry.
    isascii() reads a flag, so all-ASCII text is never encoded."""
    if text.isascii():
        return True
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _decode_utf8(raw: bytes | str) -> str:
    if isinstance(raw, str):
        return raw
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"input is not valid UTF-8: {exc}") from exc


def _gold_fields(
    record_id: str,
    flag_text: str,
    error_id_text: str,
    correction_text: str,
) -> tuple[int | None, int | None, str | NAType | None]:
    if flag_text == "":
        if error_id_text not in ("", "-1") or correction_text not in ("", "NA"):
            raise ValidationError(
                f"record {record_id!r}: gold columns present but error_flag is empty"
            )
        return None, None, None
    try:
        flag = int(flag_text)
    except ValueError as exc:
        raise ValidationError(f"record {record_id!r}: error_flag {flag_text!r} is not an integer") from exc
    try:
        error_id = int(error_id_text)
    except ValueError as exc:
        raise ValidationError(
            f"record {record_id!r}: error_sentence_id {error_id_text!r} is not an integer"
        ) from exc
    return flag, error_id, text_to_na(correction_text)


def _record_from_parts(
    record_id: str,
    note_text: str,
    sentence_texts: list[str],
    flag_text: str,
    error_id_text: str,
    correction_text: str,
) -> ClinicalRecord:
    if not _encodable("".join([record_id, note_text, *sentence_texts, flag_text, error_id_text, correction_text])):
        raise ValidationError(f"record {record_id!r} holds a lone surrogate, which UTF-8 cannot encode")
    sentences = tuple(Sentence(i, text) for i, text in enumerate(sentence_texts))
    flag, error_id, correction = _gold_fields(record_id, flag_text, error_id_text, correction_text)
    return ClinicalRecord(
        record_id=record_id,
        sentences=sentences,
        gold_flag=flag,
        gold_error_sentence_id=error_id,
        gold_correction=correction,
    )


def parse_clinical_records(raw: bytes | str, format: str = "delimited-table") -> list[ClinicalRecord]:
    """Parse a clinical dataset file into validated records, preserving order.

    ``format`` is ``delimited-table`` (CSV) or ``json-lines``.
    """
    text = _decode_utf8(raw)
    if format == "delimited-table":
        records = _parse_clinical_csv(text)
    elif format == "json-lines":
        records = _parse_clinical_jsonl(text)
    else:
        raise ValidationError(f"unknown clinical format {format!r}")
    seen: set[str] = set()
    for record in records:
        if record.record_id in seen:
            raise ValidationError(f"duplicate record_id {record.record_id!r}")
        seen.add(record.record_id)
    return records


def _parse_clinical_csv(text: str) -> list[ClinicalRecord]:
    records = []
    for _, row in csv_rows(text, CLINICAL_CSV_COLUMNS, "clinical CSV"):
        record_id, note_text, sentences_json, flag_text, error_id_text, correction_text = row
        try:
            sentence_texts = json_loads(sentences_json)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"record {record_id!r}: sentences_json is not valid JSON: {exc}") from exc
        if not isinstance(sentence_texts, list) or not all(isinstance(s, str) for s in sentence_texts):
            raise ValidationError(f"record {record_id!r}: sentences_json must be a JSON array of strings")
        records.append(
            _record_from_parts(record_id, note_text, sentence_texts, flag_text, error_id_text, correction_text)
        )
    return records


def _parse_clinical_jsonl(text: str) -> list[ClinicalRecord]:
    records = []
    for lineno, obj in json_lines(text):
        known = {"record_id", "text", "sentences", "error_flag", "error_sentence_id", "corrected_sentence"}
        unknown = set(obj) - known
        if unknown:
            raise ValidationError(f"line {lineno}: unknown keys {sorted(unknown)}")
        record_id = obj.get("record_id")
        sentence_texts = obj.get("sentences")
        if not isinstance(record_id, str):
            raise ValidationError(f"line {lineno}: record_id must be a string")
        if not isinstance(sentence_texts, list) or not all(isinstance(s, str) for s in sentence_texts):
            raise ValidationError(f"record {record_id!r}: sentences must be an array of strings")
        note_text = obj.get("text", "")
        if not isinstance(note_text, str):
            raise ValidationError(f"line {lineno}: text must be a string")
        correction = obj.get("corrected_sentence")
        if correction is not None and not isinstance(correction, str):
            raise ValidationError(f"line {lineno}: corrected_sentence must be a string or null")
        correction_text = "" if correction is None else correction
        flag = obj.get("error_flag")
        flag_text = "" if flag is None else str(flag)
        error_id = obj.get("error_sentence_id")
        error_id_text = "" if error_id is None else str(error_id)
        records.append(
            _record_from_parts(record_id, note_text, sentence_texts, flag_text, error_id_text, correction_text)
        )
    return records


def serialize_clinical_records(records: Iterable[ClinicalRecord], format: str = "delimited-table") -> str:
    """Inverse of :func:`parse_clinical_records` for the canonical schemas."""
    if format == "delimited-table":
        return csv_text(
            CLINICAL_CSV_COLUMNS,
            (
                [
                    r.record_id,
                    r.full_text(),
                    json.dumps([s.text for s in r.sentences], ensure_ascii=False),
                    "" if r.gold_flag is None else str(r.gold_flag),
                    "" if r.gold_error_sentence_id is None else str(r.gold_error_sentence_id),
                    "" if r.gold_correction is None else na_to_text(r.gold_correction),
                ]
                for r in records
            ),
        )
    if format == "json-lines":
        lines = []
        for r in records:
            obj: dict[str, object] = {
                "record_id": r.record_id,
                "text": r.full_text(),
                "sentences": [s.text for s in r.sentences],
            }
            if r.gold_flag is not None:
                obj["error_flag"] = r.gold_flag
                obj["error_sentence_id"] = r.gold_error_sentence_id
                obj["corrected_sentence"] = na_to_text(r.gold_correction)  # type: ignore[arg-type]
            lines.append(json.dumps(obj, ensure_ascii=False))
        return "\n".join(lines) + ("\n" if lines else "")
    raise ValidationError(f"unknown clinical format {format!r}")


def parse_mcq_corpus(raw: bytes | str) -> list[McqRecord]:
    """Parse an MCQ json-lines corpus, validating every record."""
    records = []
    for lineno, obj in json_lines(_decode_utf8(raw)):
        try:
            records.append(mcq_from_object(obj))
        except ValidationError as exc:
            raise ValidationError(f"line {lineno}: {exc}") from None
    return records


def serialize_mcq_corpus(records: Iterable[McqRecord]) -> str:
    lines = [json.dumps(mcq_to_object(r), ensure_ascii=False) for r in records]
    return "\n".join(lines) + ("\n" if lines else "")


def mcq_from_object(obj: dict) -> McqRecord:
    """The MCQ that one ``{"question", "options", "answer"}`` object holds."""
    missing = {"question", "options", "answer"} - set(obj)
    if missing:
        raise ValidationError(f"missing keys {sorted(missing)}")
    question, options, answer = obj["question"], obj["options"], obj["answer"]
    if not isinstance(question, str) or not isinstance(answer, str) or not isinstance(options, dict):
        raise ValidationError("malformed MCQ fields")
    return McqRecord(question=question, options=tuple((k, str(v)) for k, v in options.items()), correct_label=answer)


def mcq_to_object(record: McqRecord) -> dict:
    """The object :func:`mcq_from_object` reads back."""
    return {"question": record.question, "options": dict(record.options), "answer": record.correct_label}


# --- the three file shapes: CSV tables, JSON lines, versioned JSON documents ---


def csv_rows(text: str, columns: tuple[str, ...], what: str) -> Iterator[tuple[int, list[str]]]:
    """The non-empty rows of a CSV table whose header is exactly ``columns``,
    each with its line number, counting the header as line 1."""
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise ValidationError(f"{what} is empty (missing header)") from None
    if tuple(header) != columns:
        raise ValidationError(f"{what} header {header} does not match expected columns {list(columns)}")
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(columns):
            raise ValidationError(f"line {lineno}: expected {len(columns)} columns, got {len(row)}")
        yield lineno, row


def csv_text(columns: tuple[str, ...], rows: Iterable[list[str]]) -> str:
    """A CSV table of ``columns`` and ``rows`` that :func:`csv_rows` reads back."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    return out.getvalue()


def json_lines(text: str) -> Iterator[tuple[int, dict]]:
    """The JSON object on each non-blank line, with its line number. A line
    that is not one JSON object, or that repeats a key, is rejected."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json_loads(line, object_pairs_hook=_reject_duplicate_keys)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"line {lineno}: invalid JSON: {exc}") from exc
        except ValidationError as exc:
            raise ValidationError(f"line {lineno}: {exc}") from None
        if not isinstance(obj, dict):
            raise ValidationError(f"line {lineno}: expected a JSON object")
        yield lineno, obj


def json_loads(text: str | bytes, **options) -> object:
    """``json.loads``, except that nesting too deep for the decoder is a
    ``JSONDecodeError`` like any other undecodable text."""
    try:
        return json.loads(text, **options)
    except RecursionError:
        raise json.JSONDecodeError("nesting too deep", "", 0) from None


def _reject_duplicate_keys(pairs: list[tuple[str, object]]) -> dict:
    out: dict[str, object] = {}
    for key, value in pairs:
        if key in out:
            raise ValidationError(f"duplicate key {key!r}")
        out[key] = value
    return out


def read_document(text: str, what: str, versions: tuple[int, ...], build: Callable[[int, dict], _T]) -> _T:
    """``build(format_version, payload)`` of a JSON object whose integer
    ``format_version`` is one of ``versions``; every error, ``build``'s
    included, is a ``ValidationError`` naming ``what``."""
    try:
        payload = json_loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{what} is not valid JSON: {exc}") from exc
    # A caller that passes a temporary, as load_index does, hands over the
    # text's last reference, so a multi-megabyte index text is freed here.
    del text
    if not isinstance(payload, dict):
        raise ValidationError(f"{what} is not a JSON object")
    version = payload.get("format_version")
    if type(version) is not int or version not in versions:
        raise ValidationError(f"{what} has unsupported format_version {version!r}")
    try:
        return build(version, payload)
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError, ValidationError) as exc:
        raise ValidationError(f"malformed {what}: {exc}") from exc


def split_dataset(
    records: list[ClinicalRecord],
    sizes: tuple[int, int, int],
    seed: int,
    stratify_by_flag: bool = False,
) -> DatasetSplit:
    """Shuffle with a seeded Fisher-Yates permutation and slice into parts.

    ``stratify_by_flag`` allocates each gold-flag stratum proportionally
    (largest remainder) before shuffling within strata; sizes stay exact.
    """
    n_train, n_val, n_test = sizes
    if min(sizes) < 0:
        raise ValidationError(f"split sizes must be non-negative, got {sizes}")
    if n_train + n_val + n_test != len(records):
        raise ValidationError(
            f"split sizes {sizes} must sum to the number of records ({len(records)})"
        )
    rng = random.Random(seed)
    if not stratify_by_flag:
        shuffled = list(records)
        rng.shuffle(shuffled)
        train = shuffled[:n_train]
        val = shuffled[n_train : n_train + n_val]
        test = shuffled[n_train + n_val :]
    else:
        train, val, test = _stratified_parts(records, sizes, rng)
    return DatasetSplit(tuple(train), tuple(val), tuple(test), seed=seed)


def _stratified_parts(
    records: list[ClinicalRecord],
    sizes: tuple[int, int, int],
    rng: random.Random,
) -> tuple[list[ClinicalRecord], list[ClinicalRecord], list[ClinicalRecord]]:
    strata: dict[object, list[ClinicalRecord]] = {}
    for r in records:
        strata.setdefault(r.gold_flag, []).append(r)
    for group in strata.values():
        rng.shuffle(group)
    total = len(records)
    parts: tuple[list[ClinicalRecord], ...] = ([], [], [])
    # Largest-remainder allocation of each stratum across the three parts,
    # then a final adjustment pass to make part sizes exact.
    for group in strata.values():
        quotas = [len(group) * size / total if total else 0.0 for size in sizes]
        counts = [int(q) for q in quotas]
        remainder = len(group) - sum(counts)
        by_frac = sorted(range(3), key=lambda i: (-(quotas[i] - counts[i]), i))
        for i in by_frac[:remainder]:
            counts[i] += 1
        start = 0
        for part, count in zip(parts, counts):
            part.extend(group[start : start + count])
            start += count
    _rebalance(parts, sizes)
    return parts


def _rebalance(parts: tuple[list[ClinicalRecord], ...], sizes: tuple[int, int, int]) -> None:
    # Per-stratum rounding can leave parts off by a record or two; move
    # items from overfull to underfull parts (any stratum) to hit exact sizes.
    for i in range(3):
        while len(parts[i]) > sizes[i]:
            moved = parts[i].pop()
            for j in range(3):
                if len(parts[j]) < sizes[j]:
                    parts[j].append(moved)
                    break
