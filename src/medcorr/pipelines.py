"""The two end-to-end error-correction systems.

The retrieval-grounded pipeline (``ms``) queries an MCQ index for the most
similar question, extracts the answer choice implied by the clinical text,
compares it against the question's correct answer to set the error flag,
then localizes and rewrites the offending sentence using the retrieved
answer. The staged pipeline (``uw``) runs detect -> localize -> correct
directly on the text and guards corrections with a ROUGE-L quality gate
that falls back to the original sentence below threshold 0.7.

Both produce :class:`Prediction` values whose flag, sentence id, and
correction are mutually consistent (flag 0 <=> id -1 <=> ``NA``), with a
stage-by-stage trace that names each model call by its cache key.
"""

from __future__ import annotations

import io
import json
import re
import threading
from dataclasses import dataclass, replace
from typing import Callable, ClassVar, Iterable, Mapping, Sequence, TypeVar

from .corpus import NA, ClinicalRecord, McqRecord, csv_rows, csv_text
from .errors import GatewayError, MedcorrError, PipelineStageError, ValidationError
from .gateway import BatchStopped, LmGateway, batch_stop
from .metrics import rouge_l_f
from .program import (
    CHAIN_OF_THOUGHT,
    PREDICT,
    Field,
    Program,
    Signature,
    StageTrace,
    run,
)
from .retrieval import TfidfIndex, query

DEFAULT_GATE_THRESHOLD = 0.7

PREDICTIONS_CSV_COLUMNS = ("record_id", "error_flag", "error_sentence_id", "corrected_sentence")


@dataclass(frozen=True, slots=True)
class Prediction:
    record_id: str
    flag: int
    error_sentence_id: int
    corrected_sentence: str
    trace: tuple[StageTrace, ...] = ()
    error: str | None = None

    def __post_init__(self) -> None:
        if self.flag not in (0, 1):
            raise ValidationError(f"prediction {self.record_id!r}: flag must be 0 or 1")
        no_error = self.flag == 0
        if no_error != (self.error_sentence_id == -1) or no_error != (self.corrected_sentence == NA):
            raise ValidationError(
                f"prediction {self.record_id!r}: flag/error_sentence_id/correction are inconsistent"
            )


def no_error_prediction(record_id: str, trace: tuple[StageTrace, ...] = (), error: str | None = None) -> Prediction:
    return Prediction(record_id, 0, -1, NA, trace=trace, error=error)


def render_numbered_text(record: ClinicalRecord) -> str:
    return "\n".join([f"{sid}: {text}" for sid, text in enumerate(record.sentences)])


def render_mcq(record: McqRecord) -> str:
    lines = [f"Question: {record.question}"]
    lines.extend(f"{label}. {text}" for label, text in record.options)
    return "\n".join(lines)


# --- completion value coercion ---------------------------------------------

_FLAG_VALUES = {
    "0": 0, "no": 0, "false": 0, "correct": 0,
    "1": 1, "yes": 1, "true": 1, "error": 1,
}

_MATCH_VALUES = {"match", "matches", "same", "yes", "equal", "equivalent"}
_MISMATCH_VALUES = {
    "mismatch",
    "different",
    "no",
    "no match",
    "not a match",
    "not the same",
    "does not match",
    "differs",
}

_INT_IN_TEXT = re.compile(r"-?\d+")


def parse_flag_value(stage: str, value: str) -> int:
    flag = _FLAG_VALUES.get(value.strip().lower().rstrip("."))
    if flag is None:
        raise PipelineStageError(stage, f"cannot interpret {value!r} as an error flag")
    return flag


def parse_match_value(stage: str, value: str) -> int:
    """Map a match/mismatch verdict onto the error flag (mismatch -> 1)."""
    verdict = value.strip().lower().rstrip(".")
    if verdict in _MATCH_VALUES:
        return 0
    if verdict in _MISMATCH_VALUES or verdict.startswith("mismatch"):
        return 1
    if verdict.startswith("match"):
        return 0
    raise PipelineStageError(stage, f"cannot interpret {value!r} as a match verdict")


def parse_line_value(stage: str, value: str, record: ClinicalRecord) -> int:
    found = _INT_IN_TEXT.search(value)
    if not found:
        raise PipelineStageError(stage, f"no line number in {value!r}")
    digits = found.group(0)
    try:
        line = int(digits)
    except ValueError:  # more digits than int() converts
        raise PipelineStageError(
            stage, f"line {digits[:20]}... ({len(digits)} digits) is not a sentence id of record {record.record_id!r}"
        ) from None
    if line not in record.sentence_ids():
        raise PipelineStageError(
            stage,
            f"line {line} is not a sentence id of record {record.record_id!r} "
            f"(valid ids: {list(record.sentence_ids())})",
        )
    return line


# --- quality gate -----------------------------------------------------------


def quality_gate(original_sentence: str, candidate: str, threshold: float) -> tuple[str, bool]:
    """Reject corrections that diverge too far from the original sentence.

    Returns ``(final_sentence, gated)``; the candidate survives when its
    ROUGE-L F against the original is at or above the threshold (boundary
    passes), otherwise the original is kept and ``gated`` is True.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValidationError(f"gate threshold must be in [0, 1], got {threshold}")
    score = rouge_l_f(candidate, original_sentence)
    if score < threshold:
        return original_sentence, True
    return candidate, False


# --- default stage programs -------------------------------------------------

_CLINICAL_TEXT = Field("clinical_text", "the clinical text, one numbered sentence per line")
_ERROR_LINE = Field("error_line", "the number of the line containing the error")
_ERROR_SENTENCE = Field("error_sentence", "the sentence containing the error")
_CORRECTED_SENTENCE = Field("corrected_sentence", "the corrected sentence")


def _stages(*programs: tuple[str, str, str, tuple[Field, ...], tuple[Field, ...]]) -> dict[str, Program]:
    """``{name: Program}`` of (name, strategy, instruction, inputs, outputs) entries, in run order."""
    return {
        name: Program(Signature(name, instruction, inputs, outputs), strategy)
        for name, strategy, instruction, inputs, outputs in programs
    }


# Each pipeline's stages in run order, each with its zero-shot program. The
# programs are frozen, so every default pipeline shares these instances.
_DEFAULT_STAGES: dict[str, dict[str, Program]] = {
    "ms": _stages(
        (
            "extract_choice", CHAIN_OF_THOUGHT,
            "A clinical text and a similar multiple-choice question are given. "
            "Identify which of the question's answer options is implicitly asserted "
            "by the clinical text, and output that option's text exactly as written.",
            (_CLINICAL_TEXT, Field("similar_question", "a similar multiple-choice question with labeled options")),
            (Field("extracted_choice", "the option text asserted by the clinical text"),),
        ),
        (
            "compare_answer", CHAIN_OF_THOUGHT,
            "Decide whether the extracted choice and the correct answer refer to the "
            "same clinical entity. Output 'match' if they agree, 'mismatch' otherwise.",
            (
                Field("extracted_choice", "the answer choice found in the clinical text"),
                Field("correct_answer", "the correct answer of the similar question"),
            ),
            (Field("verdict", "either 'match' or 'mismatch'"),),
        ),
        (
            "localize", PREDICT,
            "Given a clinical text with numbered sentences and an erroneous answer "
            "choice, output the number of the line that most closely matches the "
            "erroneous choice.",
            (_CLINICAL_TEXT, Field("extracted_choice", "the erroneous answer choice present in the text")),
            (_ERROR_LINE,),
        ),
        (
            "correct", CHAIN_OF_THOUGHT,
            "Rewrite the erroneous sentence, replacing the incorrect finding (the "
            "extracted choice) with the correct answer. Output only the corrected sentence.",
            (
                _ERROR_SENTENCE,
                Field("extracted_choice", "the incorrect finding asserted by the sentence"),
                Field("correct_answer", "the correct answer to substitute"),
            ),
            (_CORRECTED_SENTENCE,),
        ),
    ),
    "uw": _stages(
        (
            "detect", CHAIN_OF_THOUGHT,
            "Decide whether the clinical text contains a single factual error. "
            "Output 1 if an error is present and 0 otherwise.",
            (_CLINICAL_TEXT,),
            (Field("error_flag", "1 if the text contains an error, else 0"),),
        ),
        (
            "localize", CHAIN_OF_THOUGHT,
            "The clinical text contains exactly one factual error. Output the number "
            "of the line containing the error.",
            (_CLINICAL_TEXT,),
            (_ERROR_LINE,),
        ),
        (
            "correct", CHAIN_OF_THOUGHT,
            "The sentence below contains a factual error. Rewrite it so it is "
            "clinically consistent, changing as little as possible. Output only the "
            "corrected sentence.",
            (_ERROR_SENTENCE,),
            (_CORRECTED_SENTENCE,),
        ),
    ),
}


# --- pipelines ---------------------------------------------------------------


def _field_names(program: Program) -> tuple[list[str], list[str]]:
    return sorted(program.signature.input_names()), sorted(program.signature.output_names())


def _run_stage(
    stage: str,
    program: Program,
    inputs: dict[str, str],
    gateway: LmGateway,
    trace: list[StageTrace],
) -> dict[str, str]:
    """Run one LM stage, append its trace entry and return its outputs."""
    trace.append(run(program, inputs, gateway, stage))
    return trace[-1].outputs


class Pipeline:
    """What both pipelines share: the stage list of ``_DEFAULT_STAGES[name]``,
    each stage a ``Program`` field of the same name whose input and output
    field names are its default program's, and an optional ROUGE-L gate on
    the correction (``gate_threshold`` None means no gate)."""

    name: ClassVar[str]
    stage_names: ClassVar[tuple[str, ...]]
    optimizable_stages: ClassVar[tuple[str, ...]]
    localize: Program
    correct: Program
    gate_threshold: float | None

    def __post_init__(self) -> None:
        if self.gate_threshold is not None and not 0.0 <= self.gate_threshold <= 1.0:
            raise ValidationError(f"gate threshold must be in [0, 1], got {self.gate_threshold}")
        for stage, default in _DEFAULT_STAGES[self.name].items():
            fields, expected = _field_names(getattr(self, stage)), _field_names(default)
            if fields != expected:
                raise ValidationError(
                    f"{self.name} stage {stage!r} reads {expected[0]} and writes {expected[1]}, "
                    f"but its program reads {fields[0]} and writes {fields[1]}"
                )

    @property
    def stages(self) -> dict[str, Program]:
        return {stage: getattr(self, stage) for stage in self.stage_names}

    def replace_stages(self, updates: Mapping[str, Program]) -> "Pipeline":
        unknown = set(updates) - set(self.stage_names)
        if unknown:
            raise ValidationError(f"unknown {self.name} stages {sorted(unknown)}")
        return replace(self, **dict(updates))

    def predict(self, record: ClinicalRecord, gateway: LmGateway) -> Prediction:
        raise NotImplementedError

    def _localize(
        self, record: ClinicalRecord, inputs: dict[str, str], gateway: LmGateway, trace: list[StageTrace]
    ) -> int:
        located = _run_stage("localize", self.localize, inputs, gateway, trace)
        return parse_line_value("localize", located["error_line"], record)

    def _correct(
        self,
        record: ClinicalRecord,
        error_line: int,
        correct_inputs: dict[str, str],
        gateway: LmGateway,
        trace: list[StageTrace],
    ) -> Prediction:
        """The flag-1 tail: rewrite the error line's sentence (``correct_inputs``
        plus the sentence) and gate the rewrite, which must not end as ``NA``."""
        error_sentence = record.sentence_text(error_line)
        correct_inputs = {"error_sentence": error_sentence, **correct_inputs}
        corrected = _run_stage("correct", self.correct, correct_inputs, gateway, trace)["corrected_sentence"]
        if self.gate_threshold is not None:
            final, gated = quality_gate(error_sentence, corrected, self.gate_threshold)
            trace.append(StageTrace("quality_gate", outputs={"gated": str(gated).lower(), "final": final}))
            corrected = final
        if corrected == NA:
            raise PipelineStageError("correct", f"the corrected sentence {NA!r} reads as no correction")
        return Prediction(record.record_id, 1, error_line, corrected, trace=tuple(trace))


@dataclass(frozen=True)
class MsPipeline(Pipeline):
    """Retrieval-grounded pipeline; the localize stage is never compiled."""

    index: TfidfIndex
    extract_choice: Program
    compare_answer: Program
    localize: Program
    correct: Program
    gate_threshold: float | None = None

    name = "ms"
    stage_names = tuple(_DEFAULT_STAGES[name])
    optimizable_stages = ("extract_choice", "compare_answer", "correct")

    def __post_init__(self) -> None:
        if self.localize.demos:
            raise ValidationError("ms localize stage must carry zero demos")
        super().__post_init__()

    def predict(self, record: ClinicalRecord, gateway: LmGateway) -> Prediction:
        """Retrieve -> extract -> compare; on a mismatch, localize and correct."""
        hit = query(self.index, record.full_text(), k=1)[0]
        mcq_rendered = render_mcq(hit.record)
        correct_answer = hit.record.correct_text
        trace = [StageTrace("retrieve", outputs={"doc_id": str(hit.doc_id), "score": f"{hit.score:.6f}"})]
        numbered = render_numbered_text(record)
        extracted = _run_stage(
            "extract_choice", self.extract_choice,
            {"clinical_text": numbered, "similar_question": mcq_rendered}, gateway, trace,
        )["extracted_choice"]
        verdict = _run_stage(
            "compare_answer", self.compare_answer,
            {"extracted_choice": extracted, "correct_answer": correct_answer}, gateway, trace,
        )["verdict"]
        if parse_match_value("compare_answer", verdict) == 0:
            return no_error_prediction(record.record_id, trace=tuple(trace))
        error_line = self._localize(record, {"clinical_text": numbered, "extracted_choice": extracted}, gateway, trace)
        return self._correct(
            record, error_line, {"extracted_choice": extracted, "correct_answer": correct_answer}, gateway, trace
        )


@dataclass(frozen=True)
class UwPipeline(Pipeline):
    """Three-stage detect/localize/correct pipeline with a ROUGE-L gate."""

    detect: Program
    localize: Program
    correct: Program
    gate_threshold: float = DEFAULT_GATE_THRESHOLD
    gold_stage: str | None = None

    name = "uw"
    stage_names = tuple(_DEFAULT_STAGES[name])
    optimizable_stages = stage_names

    def __post_init__(self) -> None:
        if self.gold_stage is not None and self.gold_stage not in self.stage_names:
            raise ValidationError(f"unknown uw gold stage {self.gold_stage!r}")
        super().__post_init__()

    def predict(self, record: ClinicalRecord, gateway: LmGateway) -> Prediction:
        """Detect; on an error flag, localize and correct.

        A compile sets ``gold_stage`` to score one stage alone: ``detect`` or
        ``localize`` on the numbered text, or ``correct`` on the gold error
        sentence, then the gate. A flag-1 answer that stops before ``correct``
        keeps its line's sentence; ``detect``, whose metric reads only the
        flag, names line 0.
        """
        trace: list[StageTrace] = []
        if self.gold_stage == "correct":
            return self._correct(record, record.gold_error_sentence_id, {}, gateway, trace)  # type: ignore[arg-type]
        numbered = render_numbered_text(record)
        if self.gold_stage == "localize":
            line = self._localize(record, {"clinical_text": numbered}, gateway, trace)
            return Prediction(record.record_id, 1, line, record.sentence_text(line), trace=tuple(trace))
        flag = _run_stage("detect", self.detect, {"clinical_text": numbered}, gateway, trace)["error_flag"]
        if parse_flag_value("detect", flag) == 0:
            return no_error_prediction(record.record_id, trace=tuple(trace))
        if self.gold_stage == "detect":
            return Prediction(record.record_id, 1, 0, record.sentences[0], trace=tuple(trace))
        line = self._localize(record, {"clinical_text": numbered}, gateway, trace)
        return self._correct(record, line, {}, gateway, trace)


def default_ms_pipeline(index: TfidfIndex, gate_threshold: float | None = None) -> MsPipeline:
    return MsPipeline(index=index, gate_threshold=gate_threshold, **_DEFAULT_STAGES["ms"])


def default_uw_pipeline(gate_threshold: float = DEFAULT_GATE_THRESHOLD) -> UwPipeline:
    return UwPipeline(gate_threshold=gate_threshold, **_DEFAULT_STAGES["uw"])


# --- batch prediction ---------------------------------------------------------


_T = TypeVar("_T")
_R = TypeVar("_R")


def map_ordered(fn: Callable[[_T], _R], items: Sequence[_T], workers: int) -> list[_R]:
    """``[fn(item) for item in items]`` on up to ``workers`` threads.

    Each thread takes the next index from a shared counter and stores its
    result in that slot, so results come back in input order. ``fn`` may run
    batches of its own, and every batch in such a tree shares one stop
    (``gateway.batch_stop``). A failure in any of them, or an exception in
    the outermost calling thread such as ``KeyboardInterrupt``, sets it: no
    batch in the tree takes another item and the gateway sends no new
    request. The started calls finish. The first exception in input order
    propagates, a :class:`~medcorr.gateway.BatchStopped` only when there is
    no other; a batch stopped from outside raises one. An item whose call
    was waiting for a gateway slot is stopped too, so when several items
    fail, which one propagates can depend on timing.
    """
    if workers < 1:
        raise ValidationError(f"concurrency must be >= 1, got {workers}")
    stop = batch_stop.get() or threading.Event()
    results: list = [None] * len(items)
    failures: dict[int, BaseException] = {}
    lock = threading.Lock()
    taken = 0

    def work() -> None:
        nonlocal taken
        batch_stop.set(stop)  # a new thread starts in an empty context
        while True:
            with lock:
                index = taken
                if index == len(items) or stop.is_set():
                    return
                taken += 1
            try:
                results[index] = fn(items[index])
            except BaseException as exc:  # re-raised in the calling thread
                with lock:
                    failures[index] = exc
                    stop.set()
                return

    threads = [threading.Thread(target=work) for _ in range(min(workers, len(items)))]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    except BaseException:
        stop.set()
        raise
    if failures:
        raise min(failures.items(), key=lambda failure: (isinstance(failure[1], BatchStopped), failure[0]))[1]
    if taken < len(items):
        raise BatchStopped
    return results


def predict_record(pipeline: Pipeline, record: ClinicalRecord, gateway: LmGateway, strict: bool = False) -> Prediction:
    """``pipeline.predict``, under the one failure policy of every record run,
    ``predict_batch`` and the compilers alike. A gateway error is no answer:
    it propagates naming the record, and stops the batch tree. Any other
    engine error is the model's answer: a flag-0 fallback carrying its
    message, or under ``strict`` the error itself."""
    try:
        return pipeline.predict(record, gateway)
    except GatewayError as exc:
        raise GatewayError(f"record {record.record_id!r}: {exc}") from exc
    except MedcorrError as exc:
        if strict:
            raise
        return no_error_prediction(record.record_id, error=str(exc))


def predict_batch(
    pipeline: Pipeline,
    records: Sequence[ClinicalRecord],
    gateway: LmGateway,
    concurrency: int = 4,
    strict: bool = False,
) -> list[Prediction]:
    """``predict_record`` over every record, output in input order regardless
    of completion order; the first error raised stops the batch."""
    return map_ordered(lambda record: predict_record(pipeline, record, gateway, strict), records, concurrency)


# --- predictions and trace files ----------------------------------------------


def serialize_predictions(predictions: Iterable[Prediction]) -> str:
    return csv_text(
        PREDICTIONS_CSV_COLUMNS,
        ([p.record_id, str(p.flag), str(p.error_sentence_id), p.corrected_sentence] for p in predictions),
    )


def parse_predictions(text: str) -> list[Prediction]:
    predictions = []
    for lineno, row in csv_rows(text, PREDICTIONS_CSV_COLUMNS, "predictions file"):
        record_id, flag_text, error_id_text, correction_text = row
        try:
            flag = int(flag_text)
            error_id = int(error_id_text)
        except ValueError as exc:
            raise ValidationError(f"line {lineno}: non-integer flag or sentence id") from exc
        try:
            predictions.append(Prediction(record_id, flag, error_id, correction_text))
        except ValidationError as exc:
            raise ValidationError(f"line {lineno}: {exc}") from None
    return predictions


# json.dumps(..., ensure_ascii=False, sort_keys=True) without a new encoder per line
_TRACE_ENCODER = json.JSONEncoder(ensure_ascii=False, sort_keys=True)


def serialize_traces(predictions: Iterable[Prediction]) -> str:
    """One json line per prediction. A trace entry holds no ``inputs``: each
    is a render of the record, the stage program and the earlier entries'
    ``outputs``, and ``keys`` name the cache lines holding the full requests."""
    out = io.StringIO()
    for p in predictions:
        out.write(
            _TRACE_ENCODER.encode(
                {
                    "record_id": p.record_id,
                    "error_flag": p.flag,
                    "error_sentence_id": p.error_sentence_id,
                    "corrected_sentence": p.corrected_sentence,
                    "error": p.error,
                    "trace": [{"stage": t.stage, "keys": t.keys, "outputs": t.outputs} for t in p.trace],
                }
            )
        )
        out.write("\n")
    return out.getvalue()
