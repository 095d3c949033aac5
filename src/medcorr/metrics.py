"""Evaluation: subtask accuracies, ROUGE, NA-aware composites, reports.

Tokenization is shared with retrieval (lowercased alphanumeric runs) so the
quality gate and the evaluation suite always agree. ROUGE-L is the plain
LCS F1 (beta = 1); its LCS is exact and runs bit-parallel, a few integer
operations per token of one side. Neural scorers (BERTScore, BLEURT) are
never computed natively; they plug in over HTTP via :class:`ExternalScorer`,
and the aggregate column appears only when all three of its components are
present.

Composite scoring per corrected sentence: 1.0 when both sides are the text
``NA``, 0.0 when exactly one is, otherwise the base metric on the pair.
"""

from __future__ import annotations

import json
import logging
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterable, Protocol, Sequence

from .corpus import NA, ClinicalRecord, _typed, json_loads, read_document
from .errors import ValidationError
from .retrieval import tokenize

logger = logging.getLogger(__name__)

REPORT_FORMAT_VERSION = 1

AGGREGATE_COMPONENTS = ("rouge1_f", "bertscore", "bleurt")


class PredictionLike(Protocol):
    record_id: str
    flag: int
    error_sentence_id: int
    corrected_sentence: str


def _lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    # Bit-parallel LCS (Allison & Dix 1986; Hyyro 2004): bit j of v is 0 iff the
    # LCS of a's tokens read so far with b[: j + 1] is one longer than with b[:j].
    masks: dict[str, int] = {}
    for j, y in enumerate(b):
        masks[y] = masks.get(y, 0) | 1 << j
    full = (1 << len(b)) - 1
    v = full
    for x in a:
        u = v & masks.get(x, 0)
        v = ((v + u) | (v - u)) & full
    return len(b) - v.bit_count()


def _f1(precision: float, recall: float) -> float:
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def rouge_l_f(candidate: str, reference: str) -> float:
    """Token-level LCS F1; 0.0 when either side has no tokens."""
    cand = tokenize(candidate)
    ref = tokenize(reference)
    if not cand or not ref:
        return 0.0
    lcs = _lcs_length(cand, ref)
    return _f1(lcs / len(cand), lcs / len(ref))


def rouge1_f(candidate: str, reference: str) -> float:
    """Clipped unigram-overlap F1; 0.0 when either side has no tokens."""
    cand = tokenize(candidate)
    ref = tokenize(reference)
    if not cand or not ref:
        return 0.0
    ref_counts: dict[str, int] = {}
    for token in ref:
        ref_counts[token] = ref_counts.get(token, 0) + 1
    cand_counts: dict[str, int] = {}
    for token in cand:
        cand_counts[token] = cand_counts.get(token, 0) + 1
    matches = sum(min(count, ref_counts.get(token, 0)) for token, count in cand_counts.items())
    return _f1(matches / len(cand), matches / len(ref))


def composite_score(
    pred_correction: str,
    gold_correction: str,
    base: Callable[[str, str], float],
) -> float:
    pred_na = pred_correction == NA
    gold_na = gold_correction == NA
    if pred_na and gold_na:
        return 1.0
    if pred_na != gold_na:
        return 0.0
    return base(pred_correction, gold_correction)


def aggregate_score(components: Iterable[float]) -> float:
    values = list(components)
    if not values:
        raise ValidationError("aggregate_score needs at least one component")
    return sum(values) / len(values)


def _align(
    predictions: Sequence[PredictionLike],
    golds: Sequence[ClinicalRecord],
) -> list[tuple[PredictionLike, ClinicalRecord]]:
    gold_by_id = {g.record_id: g for g in golds}
    pred_ids = [p.record_id for p in predictions]
    if len(set(pred_ids)) != len(pred_ids):
        raise ValidationError("duplicate record_ids among predictions")
    if len(gold_by_id) != len(golds):
        raise ValidationError("duplicate record_ids among gold records")
    missing = sorted(gold_by_id.keys() - set(pred_ids))
    extra = sorted(set(pred_ids) - gold_by_id.keys())
    if missing or extra:
        raise ValidationError(
            f"prediction/gold record_id mismatch: missing from predictions {missing}, "
            f"not in gold {extra}"
        )
    for gold in golds:
        if not gold.labeled:
            raise ValidationError(f"gold record {gold.record_id!r} has no gold annotations")
    return [(p, gold_by_id[p.record_id]) for p in predictions]


@dataclass(frozen=True)
class ExternalScorer:
    """HTTP plug-in returning one score in [0, 1] per (candidate, reference) pair.

    Wire format: ``POST {url}`` with ``{"pairs": [{"candidate": ...,
    "reference": ...}, ...]}``; response ``{"scores": [...]}``, each score a
    JSON number (not a string or a boolean).
    """

    name: str
    url: str
    batch_size: int = 32
    timeout: float = 60.0

    def score_pairs(self, pairs: Sequence[tuple[str, str]]) -> list[float]:
        import requests  # not at module top, as in gateway.LiveBackend.complete
        scores: list[float] = []
        for start in range(0, len(pairs), self.batch_size):
            batch = pairs[start : start + self.batch_size]
            body = {"pairs": [{"candidate": c, "reference": r} for c, r in batch]}
            http = requests.post(self.url, json=body, timeout=self.timeout)
            if http.status_code != 200:
                raise ValidationError(
                    f"external scorer {self.name!r} returned HTTP {http.status_code}: {http.text[:200]}"
                )
            try:
                payload = json_loads(http.content)
            except ValueError as exc:
                raise ValidationError(f"external scorer {self.name!r} returned invalid JSON: {exc}") from None
            batch_scores = payload.get("scores") if isinstance(payload, dict) else None
            if batch_scores is not None and not isinstance(batch_scores, list):
                kind = type(batch_scores).__name__
                raise ValidationError(f"external scorer {self.name!r} returned scores of type {kind}, not a list")
            if batch_scores is None or len(batch_scores) != len(batch):
                raise ValidationError(
                    f"external scorer {self.name!r} returned {len(batch_scores or [])} scores "
                    f"for {len(batch)} pairs"
                )
            for value in batch_scores:
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    raise ValidationError(f"external scorer {self.name!r} returned non-numeric score {value!r}")
                if not 0.0 <= value <= 1.0:
                    raise ValidationError(f"external scorer {self.name!r} score {value} out of [0, 1]")
                scores.append(float(value))
        return scores


@dataclass(frozen=True, slots=True)
class RecordScores:
    record_id: str
    pred_flag: int
    gold_flag: int
    flag_correct: bool
    pred_sentence_id: int
    gold_sentence_id: int
    sentence_correct: bool
    base_scores: dict[str, float | None]
    composites: dict[str, float]


@dataclass(frozen=True)
class ScoreReport:
    n_records: int
    flag_accuracy: float
    sentence_accuracy: float
    mean_rouge1_f: float | None
    mean_rouge_l_f: float | None
    composite_means: dict[str, float]
    unavailable: tuple[str, ...]
    per_record: tuple[RecordScores, ...] = field(repr=False)

    def to_json(self) -> str:
        payload = {"format_version": REPORT_FORMAT_VERSION, **asdict(self)}
        return json.dumps(payload, ensure_ascii=False, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ScoreReport":
        return read_document(text, "score report", (REPORT_FORMAT_VERSION,), cls._of_payload)

    @classmethod
    def _of_payload(cls, version: int, payload: dict) -> "ScoreReport":
        fields = _typed(payload, _REPORT_TYPES)
        if any(type(mean) not in _NUMBER for mean in fields["composite_means"].values()):
            raise ValueError("a composite mean is not a number")
        rows = tuple(RecordScores(**_typed(row, _ROW_TYPES)) for row in fields["per_record"])
        return cls(**{**fields, "unavailable": tuple(fields["unavailable"]), "per_record": rows})


_NUMBER = (int, float)
_REPORT_TYPES = {
    "n_records": (int,),
    "flag_accuracy": _NUMBER,
    "sentence_accuracy": _NUMBER,
    "mean_rouge1_f": (*_NUMBER, type(None)),
    "mean_rouge_l_f": (*_NUMBER, type(None)),
    "composite_means": (dict,),
    "unavailable": (list,),
    "per_record": (list,),
}
_ROW_TYPES = {
    "record_id": (str,),
    "pred_flag": (int,),
    "gold_flag": (int,),
    "flag_correct": (bool,),
    "pred_sentence_id": (int,),
    "gold_sentence_id": (int,),
    "sentence_correct": (bool,),
    "base_scores": (dict,),
    "composites": (dict,),
}


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values)


def evaluate(
    predictions: Sequence[PredictionLike],
    golds: Sequence[ClinicalRecord],
    scorers: Sequence[ExternalScorer] = (),
    strict_scorers: bool = False,
) -> ScoreReport:
    """Score predictions against gold records across every subtask.

    External scorer failures mark that column unavailable (or abort when
    ``strict_scorers`` is set). A scorer may not take the name of another
    column. The aggregate column is computed only when rouge1_f, bertscore,
    and bleurt are all present.
    """
    taken = {"rouge1_f", "rouge_l_f", "aggregate"}
    for scorer in scorers:
        if scorer.name in taken:
            raise ValidationError(f"external scorer name {scorer.name!r} already names a report column")
        taken.add(scorer.name)
    if scorers:
        import requests  # for its exceptions; not at module top, as in gateway.LiveBackend.complete
    pairs = _align(predictions, golds)
    if not pairs:
        raise ValidationError("cannot evaluate an empty record set")

    scored = [i for i, (pred, gold) in enumerate(pairs) if NA not in (pred.corrected_sentence, gold.gold_correction)]
    texts = [(pairs[i][0].corrected_sentence, pairs[i][1].gold_correction) for i in scored]
    columns: dict[str, list[float]] = {
        "rouge1_f": [rouge1_f(c, r) for c, r in texts],
        "rouge_l_f": [rouge_l_f(c, r) for c, r in texts],
    }
    unavailable: list[str] = []
    for scorer in scorers:
        try:
            columns[scorer.name] = scorer.score_pairs(texts)
        except (ValidationError, requests.RequestException) as exc:
            if strict_scorers:
                raise ValidationError(f"external scorer {scorer.name!r} failed: {exc}") from exc
            logger.warning("external scorer %r unavailable: %s", scorer.name, exc)
            unavailable.append(scorer.name)
    if all(name in columns for name in AGGREGATE_COMPONENTS):
        columns["aggregate"] = [aggregate_score(parts) for parts in zip(*(columns[c] for c in AGGREGATE_COMPONENTS))]
    # the scores of each scored pair, by its index in pairs
    scores_at = dict(zip(scored, (dict(zip(columns, values)) for values in zip(*columns.values()))))

    rows: list[RecordScores] = []
    for i, (pred, gold) in enumerate(pairs):
        base_scores = scores_at.get(i) or dict.fromkeys(columns)
        composites = {
            name: composite_score(pred.corrected_sentence, gold.gold_correction, lambda *_: value)
            for name, value in base_scores.items()
        }
        rows.append(
            RecordScores(
                record_id=pred.record_id,
                pred_flag=pred.flag,
                gold_flag=gold.gold_flag,  # type: ignore[arg-type]
                flag_correct=pred.flag == gold.gold_flag,
                pred_sentence_id=pred.error_sentence_id,
                gold_sentence_id=gold.gold_error_sentence_id,  # type: ignore[arg-type]
                sentence_correct=pred.error_sentence_id == gold.gold_error_sentence_id,
                base_scores=base_scores,
                composites=composites,
            )
        )
    return ScoreReport(
        n_records=len(rows),
        flag_accuracy=_mean([1.0 if row.flag_correct else 0.0 for row in rows]),
        sentence_accuracy=_mean([1.0 if row.sentence_correct else 0.0 for row in rows]),
        mean_rouge1_f=_mean(columns["rouge1_f"]) if scored else None,
        mean_rouge_l_f=_mean(columns["rouge_l_f"]) if scored else None,
        composite_means={name: _mean([row.composites[name] for row in rows]) for name in columns},
        unavailable=tuple(unavailable),
        per_record=tuple(rows),
    )
