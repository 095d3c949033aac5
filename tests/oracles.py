"""Independent brute-force oracles the fast implementations are checked against."""

from __future__ import annotations

import base64
import csv
import io
import json
import math
import re
import struct
from pathlib import Path
from typing import Iterator, Sequence

from medcorr.corpus import json_loads
from medcorr.errors import ValidationError
from medcorr.gateway import LmResponse, Message
from medcorr.program import CHAIN_OF_THOUGHT, RATIONALE_DESCRIPTION, RATIONALE_FIELD, Field, field_label
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
    verbatim but for returning ``(doc_id, score)`` pairs and rebuilding the
    per-document vectors it scans from the postings: every document's dot
    product is one ``sum`` over the query terms, absent terms adding 0.0.

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
    doc_vectors = document_vectors(index)
    scores = [0.0] * len(doc_vectors)
    if q_norm > 0.0:
        for doc_id, (vector, norm) in enumerate(zip(doc_vectors, index.doc_norms)):
            if norm == 0.0:
                continue
            dot = sum(weight * vector.get(term_id, 0.0) for term_id, weight in q_vector.items())
            scores[doc_id] = min(1.0, max(0.0, dot / (q_norm * norm)))
    order = sorted(range(len(scores)), key=lambda d: (-scores[d], d))
    return [(d, scores[d]) for d in order[:k]]


def document_vectors(index) -> list[dict[int, float]]:
    """Each document's ``{term id: weight}``, rebuilt from ``index.postings``,
    whose groups give the weight ``count * idf`` to each of their doc ids."""
    vectors: list[dict[int, float]] = [{} for _ in index.corpus]
    for term_id, groups in index.postings.items():
        for count, ids in groups:
            for doc_id in ids:
                vectors[doc_id][term_id] = count * index.idf(term_id)
    return vectors


def tokenize_oracle(text: str) -> list[str]:
    """``retrieval.tokenize`` as a ``finditer`` comprehension over its pattern."""
    return [m.group(0) for m in re.finditer(r"[^\W_]+", text.lower())]


def packed(code: str, values) -> str:
    """Base64 of ``values`` packed little-endian by ``struct`` format ``code``."""
    return base64.b64encode(struct.pack(f"<{len(values)}{code}", *values)).decode("ascii")


def index_document(version: int, vocabulary: dict, postings: list, corpus: list, /, **fields) -> str:
    """The JSON text of an index file of format ``version``, packed with
    ``struct`` rather than ``retrieval``'s arrays. ``postings`` holds one
    ``[doc ids, raw counts]`` pair per term in term-id order, each term's
    length being its number of ids; ``fields`` replace or add top-level
    fields (format 3 also held ``doc_norms``, packed float64)."""
    payload = {
        "format_version": version,
        "vocabulary": vocabulary,
        "posting_lengths": packed("i", [len(ids) for ids, _ in postings]),
        "doc_ids": packed("i", [doc_id for ids, _ in postings for doc_id in ids]),
        "counts": packed("i", [count for _, counts in postings for count in counts]),
        "corpus": corpus,
    }
    return json.dumps({**payload, **fields})


def render_messages_oracle(program, inputs) -> list[Message]:
    """``program.render_messages`` as it was before ``Program.layout``: every
    block rebuilt from the signature, strategy and demos on each call."""
    expected = set(program.signature.input_names())
    missing = expected - set(inputs)
    if missing:
        raise ValidationError(f"missing input field(s): {sorted(missing)}")
    unknown = set(inputs) - expected
    if unknown:
        raise ValidationError(f"unknown input field(s): {sorted(unknown)}")

    def output_fields() -> list[Field]:
        fields = list(program.signature.outputs)
        if program.strategy == CHAIN_OF_THOUGHT:
            fields.insert(0, Field(RATIONALE_FIELD, RATIONALE_DESCRIPTION))
        return fields

    def demo_block(demo) -> str:
        lines = [f"{field_label(name)}: {demo.input_values[name]}" for name in program.signature.input_names()]
        for out in output_fields():
            if out.name in demo.output_values:
                lines.append(f"{field_label(out.name)}: {demo.output_values[out.name]}")
        return "\n".join(lines)

    format_lines = [f"{field_label(f.name)}: {f.description}" for f in program.signature.inputs]
    format_lines.extend(f"{field_label(f.name)}: {f.description}" for f in output_fields())
    system = program.instruction + "\n\nFollow the following format.\n\n" + "\n".join(format_lines)

    live = [f"{field_label(name)}: {inputs[name]}" for name in program.signature.input_names()]
    live.extend(f"{field_label(out.name)}:" for out in output_fields())
    blocks = [demo_block(demo) for demo in program.demos]
    blocks.append("\n".join(live))
    return [Message("system", system), Message("user", "\n\n---\n\n".join(blocks))]


# --- the line readers as they were before they streamed ---


def csv_rows_oracle(text: str, columns: tuple[str, ...], what: str) -> Iterator[tuple[int, list[str]]]:
    """``corpus.csv_rows`` reading ``csv.reader(io.StringIO(text))``, which
    holds a second copy of the text at four bytes a character."""
    csv.field_size_limit(max(csv.field_size_limit(), len(text)))
    reader = csv.reader(io.StringIO(text))
    end = 0
    try:
        header = next(reader, None)
        if header is None:
            raise ValidationError(f"{what} is empty (missing header)")
        if tuple(header) != columns:
            raise ValidationError(f"{what} header {header} does not match expected columns {list(columns)}")
        end = reader.line_num
        for row in reader:
            start, end = end + 1, reader.line_num
            if not row:
                continue
            if len(row) != len(columns):
                raise ValidationError(f"line {start}: expected {len(columns)} columns, got {len(row)}")
            yield start, row
    except csv.Error as exc:
        raise ValidationError(f"{what} line {end + 1}: {exc}") from None


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    keys = [key for key, _ in pairs]
    for i, key in enumerate(keys):
        if key in keys[:i]:
            raise ValidationError(f"duplicate key {key!r}")
    return dict(pairs)


def json_lines_oracle(text: str) -> Iterator[tuple[int, dict]]:
    """``corpus.json_lines`` over ``text.split("\\n")``, a list of every line."""
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            obj = json_loads(line, object_pairs_hook=_unique_keys)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"line {lineno}: invalid JSON: {exc}") from exc
        except ValidationError as exc:
            raise ValidationError(f"line {lineno}: {exc}") from None
        if not isinstance(obj, dict):
            raise ValidationError(f"line {lineno}: expected a JSON object")
        yield lineno, obj


def load_cache_oracle(path: Path) -> tuple[dict[str, LmResponse], tuple[int, str] | None]:
    """``ReplayCache``'s load over the whole file split at ``b"\\n"``: the
    entries, first line per key winning, and the ``(size, prefix)`` repair of
    an unterminated tail, or None."""
    entries: dict[str, LmResponse] = {}
    data = path.read_bytes()
    lines = data.split(b"\n")
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            entry = json_loads(line)
            response = entry["response"]
            entries.setdefault(
                entry["key"],
                LmResponse(
                    text=response["text"],
                    prompt_tokens=response.get("prompt_tokens", 0),
                    completion_tokens=response.get("completion_tokens", 0),
                    backend_tag="replay",
                ),
            )
        except (KeyError, TypeError, ValueError, ValidationError) as exc:
            if lineno < len(lines):
                raise ValidationError(f"cache file {path} line {lineno} is malformed: {exc}") from exc
            return entries, (len(data) - len(line), "")
    return entries, ((len(data), "\n") if lines[-1] else None)
