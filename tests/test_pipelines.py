from __future__ import annotations

import ast
import hashlib
import importlib.util
import json
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from medcorr.errors import CompletionParseError, GatewayError, LiveRequestError, PipelineStageError, ValidationError
from medcorr.gateway import (
    BatchStopped,
    LmGateway,
    Message,
    ReplayBackend,
    ReplayCache,
    ScriptedBackend,
    batch_stop,
    canonical_key,
)
from medcorr.metrics import rouge_l_f
from medcorr.optimize import bootstrap_demos, flag_match_metric
from medcorr.corpus import NA, ClinicalRecord, parse_clinical_records
from medcorr import pipelines
from medcorr.pipelines import (
    MsPipeline,
    Prediction,
    default_ms_pipeline,
    default_uw_pipeline,
    map_ordered,
    parse_predictions,
    predict_batch,
    quality_gate,
    serialize_predictions,
    serialize_traces,
)
from medcorr.program import Demo, _reminder, parse_completion, program_to_json, render_messages
from medcorr.retrieval import build_index

from helpers import (
    live_block,
    make_mcq,
    ms_gold_responder,
    record_no_error,
    record_with_error,
    stage_of,
    synth_ms_dataset,
    synth_uw_records,
    uw_gold_responder,
)
from oracles import rouge_l_oracle

# --- quality gate ----------------------------------------------------------------


def test_gate_identical_candidate_passes():
    final, gated = quality_gate("same sentence here", "same sentence here", 0.7)
    assert (final, gated) == ("same sentence here", False)


def test_gate_disjoint_candidate_rejected():
    original = "alpha beta gamma"
    final, gated = quality_gate(original, "delta epsilon zeta", 0.7)
    assert (final, gated) == (original, True)


def test_gate_two_of_ten_tokens_replaced_scores_point_eight():
    original = "one two three four five six seven eight nine ten"
    candidate = "one two swap four five six swap eight nine ten"
    # brute-force LCS oracle: 8 shared tokens in order, P = R = F = 0.8
    assert rouge_l_oracle(candidate.split(), original.split()) == pytest.approx(0.8)
    final, gated = quality_gate(original, candidate, 0.7)
    assert (final, gated) == (candidate, False)


def test_gate_boundary_score_passes():
    original = "one two three four five six seven eight nine ten"
    candidate = "one two three four five six seven swap swap swap"
    assert rouge_l_f(candidate, original) == pytest.approx(0.7, abs=1e-12)
    final, gated = quality_gate(original, candidate, 0.7)
    assert (final, gated) == (candidate, False)


def test_gate_threshold_validated():
    with pytest.raises(ValidationError):
        quality_gate("a", "b", 1.5)


@given(
    original=st.lists(st.sampled_from("a b c d e".split()), min_size=1, max_size=6).map(" ".join),
    candidate=st.lists(st.sampled_from("a b c x y".split()), min_size=1, max_size=6).map(" ".join),
    threshold=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
)
def test_gate_output_is_always_original_or_candidate(original, candidate, threshold):
    final, gated = quality_gate(original, candidate, threshold)
    assert final in (original, candidate)
    assert gated == (rouge_l_f(candidate, original) < threshold)
    assert (final == original) or not gated


# --- default stage programs -------------------------------------------------------------

# sha256 of each default stage's program_to_json. The replayed goldens cover
# only uw prompts, so this is what notices a changed ms prompt.
DEFAULT_PROGRAM_SHA256 = {
    ("ms", "extract_choice"): "f0c22f22c33dd5c5d056ecdc575ea74cfee78c2ce7716a557422349c9412d42f",
    ("ms", "compare_answer"): "0d7e79e4483eb8a6413c3428a50016a9599a010004a4758c71385c99c281926b",
    ("ms", "localize"): "4fda37ea6ab791db0ead3f4236694bddc31db3916a54665191c20df95a184066",
    ("ms", "correct"): "eb3a439f894c19049aa658975d193b8e1bf741ceb9cc733978917256a5ad475a",
    ("uw", "detect"): "298eb8be8e63f266256f7390f99c660c3a6f06da51663d90a0ebc566ccb05c53",
    ("uw", "localize"): "3ef96902a071981e5c6cfa5b5986b86b8db11541c192903909d44683788fae35",
    ("uw", "correct"): "8e5c4737d1f2cd9308f425fc4e6d57eb78a25e0d5e833723dfbc3e252cd3b0b8",
}


@pytest.mark.parametrize(("name", "stage"), list(DEFAULT_PROGRAM_SHA256))
def test_default_stage_programs_are_pinned(name, stage):
    pipeline = pathogen_fixture()[1] if name == "ms" else default_uw_pipeline()
    assert list(pipeline.stages) == [s for n, s in DEFAULT_PROGRAM_SHA256 if n == name]
    digest = hashlib.sha256(program_to_json(pipeline.stages[stage]).encode("utf-8")).hexdigest()
    assert digest == DEFAULT_PROGRAM_SHA256[name, stage]


def test_a_stage_program_must_read_and_write_its_stage_fields():
    pipeline = default_uw_pipeline()
    with pytest.raises(ValidationError, match="uw stage 'correct' reads \\['error_sentence'\\]"):
        replace(pipeline, correct=pipeline.localize)


# --- ms pipeline ----------------------------------------------------------------------


PATHOGEN_ERROR = "After reviewing imaging, the causal pathogen was determined to be Haemophilus influenzae."
PATHOGEN_FIXED = "After reviewing imaging, the causal pathogen was determined to be Streptococcus pneumoniae."


def pathogen_fixture():
    record = record_with_error(
        "case1",
        ["A 6 year old presents with fever and productive cough.", PATHOGEN_ERROR],
        1,
        PATHOGEN_FIXED,
    )
    mcq = make_mcq(
        "A child presents with fever and productive cough. Which pathogen is the most likely cause?",
        {
            "A": "Haemophilus influenzae",
            "B": "Streptococcus pneumoniae",
            "C": "Mycoplasma pneumoniae",
        },
        "B",
    )
    pipeline = default_ms_pipeline(build_index([mcq]))
    return record, pipeline


def pathogen_responder(localize_answer="1"):
    def respond(request):
        stage = stage_of(request)
        if stage == "extract_choice":
            return "Rationale: the text names the pathogen directly.\nExtracted Choice: Haemophilus influenzae"
        if stage == "compare_answer":
            return "Rationale: influenzae is not pneumoniae.\nVerdict: mismatch"
        if stage == "localize":
            return f"Error Line: {localize_answer}"
        if stage == "correct":
            return f"Rationale: substitute the correct organism.\nCorrected Sentence: {PATHOGEN_FIXED}"
        raise AssertionError(stage)

    return respond


def test_ms_predict_pathogen_worked_example():
    record, pipeline = pathogen_fixture()
    gateway = LmGateway(backend=ScriptedBackend(pathogen_responder()))
    prediction = pipeline.predict(record, gateway)
    assert prediction.flag == 1
    assert prediction.error_sentence_id == 1
    assert prediction.corrected_sentence == PATHOGEN_FIXED
    assert [t.stage for t in prediction.trace] == [
        "retrieve",
        "extract_choice",
        "compare_answer",
        "localize",
        "correct",
    ]
    retrieve = prediction.trace[0]
    assert pipeline.index.corpus[int(retrieve.outputs["doc_id"])].correct_text == "Streptococcus pneumoniae"


def test_ms_predict_match_short_circuits_with_three_stage_trace():
    record, pipeline = pathogen_fixture()

    def respond(request):
        stage = stage_of(request)
        if stage == "extract_choice":
            return "Rationale: r.\nExtracted Choice: Streptococcus pneumoniae"
        if stage == "compare_answer":
            return "Rationale: r.\nVerdict: match"
        raise AssertionError(f"{stage} should never run on a match")

    prediction = pipeline.predict(record, LmGateway(backend=ScriptedBackend(respond)))
    assert (prediction.flag, prediction.error_sentence_id) == (0, -1)
    assert prediction.corrected_sentence == NA
    assert [t.stage for t in prediction.trace] == ["retrieve", "extract_choice", "compare_answer"]


def test_ms_predict_out_of_range_line_is_stage_error():
    record, pipeline = pathogen_fixture()
    gateway = LmGateway(backend=ScriptedBackend(pathogen_responder(localize_answer="99")))
    with pytest.raises(PipelineStageError, match="localize") as exc_info:
        pipeline.predict(record, gateway)
    assert exc_info.value.stage == "localize"


def test_a_line_number_too_long_for_int_is_a_stage_error():
    record, pipeline = pathogen_fixture()
    gateway = LmGateway(backend=ScriptedBackend(pathogen_responder(localize_answer="7" * 5_000)))
    with pytest.raises(PipelineStageError, match=r"^stage 'localize': line 7{20}\.\.\. \(5000 digits\) is not a sentence id"):
        pipeline.predict(record, gateway)


def na_rewrite_responder(request):
    """The pathogen answers, except that the rewrite reads exactly "NA"."""
    if stage_of(request) == "correct":
        return "Rationale: nothing to change.\nCorrected Sentence: NA"
    return pathogen_responder()(request)


def test_a_flag_one_rewrite_of_na_is_a_failed_record():
    record, pipeline = pathogen_fixture()
    assert pipeline.gate_threshold is None
    gateway = LmGateway(backend=ScriptedBackend(na_rewrite_responder))
    [prediction] = predict_batch(pipeline, [record], gateway)
    assert (prediction.flag, prediction.error_sentence_id, prediction.corrected_sentence) == (0, -1, NA)
    assert prediction.error.startswith("stage 'correct': ")


def test_a_batch_with_an_na_rewrite_reads_back_from_its_predictions_file():
    record, pipeline = pathogen_fixture()
    gateway = LmGateway(backend=ScriptedBackend(na_rewrite_responder))
    predictions = predict_batch(pipeline, [record], gateway)
    parsed = parse_predictions(serialize_predictions(predictions))
    assert [(p.record_id, p.flag, p.error_sentence_id, p.corrected_sentence) for p in parsed] == [
        ("case1", 0, -1, NA)
    ]


def test_a_flag_one_rewrite_of_na_aborts_a_strict_batch():
    record, pipeline = pathogen_fixture()
    gateway = LmGateway(backend=ScriptedBackend(na_rewrite_responder))
    with pytest.raises(PipelineStageError, match="^stage 'correct': ") as exc_info:
        predict_batch(pipeline, [record], gateway, strict=True)
    assert exc_info.value.stage == "correct"


def test_ms_localize_must_stay_demo_free():
    record, pipeline = pathogen_fixture()
    localize = pipeline.localize
    seeded = replace(
        localize,
        demos=(
            Demo(
                input_values={"clinical_text": "0: x", "extracted_choice": "y"},
                output_values={"error_line": "0"},
            ),
        ),
    )
    with pytest.raises(ValidationError, match="zero demos"):
        MsPipeline(
            index=pipeline.index,
            extract_choice=pipeline.extract_choice,
            compare_answer=pipeline.compare_answer,
            localize=seeded,
            correct=pipeline.correct,
        )


def test_ms_gate_disabled_by_default_enabled_by_flag():
    record, pipeline = pathogen_fixture()
    assert pipeline.gate_threshold is None
    gated_pipeline = default_ms_pipeline(pipeline.index, gate_threshold=0.7)
    prediction = gated_pipeline.predict(
        record, LmGateway(backend=ScriptedBackend(pathogen_responder()))
    )
    assert prediction.trace[-1].stage == "quality_gate"
    assert prediction.corrected_sentence == PATHOGEN_FIXED


def test_ms_full_synthetic_set_recovers_gold():
    records, corpus, asserted = synth_ms_dataset(6)
    pipeline = default_ms_pipeline(build_index(corpus))
    gateway = LmGateway(backend=ScriptedBackend(ms_gold_responder(records, asserted)))
    for record in records:
        prediction = pipeline.predict(record, gateway)
        assert prediction.flag == record.gold_flag
        assert prediction.error_sentence_id == record.gold_error_sentence_id


# --- uw pipeline ------------------------------------------------------------------------


HYPO_ERROR = "Hypokalemia - based on laboratory findings patient has hypervalinemia."
HYPO_FIXED = "Hypokalemia - based on laboratory findings patient has hypokalemia."


def hypo_fixture():
    record = record_with_error(
        "uw1",
        ["Assessment and plan for a 70 year old woman.", HYPO_ERROR, "Continue telemetry."],
        1,
        HYPO_FIXED,
    )
    return record, default_uw_pipeline()


def test_uw_predict_hypokalemia_worked_example():
    record, pipeline = hypo_fixture()
    gateway = LmGateway(backend=ScriptedBackend(uw_gold_responder([record])))
    prediction = pipeline.predict(record, gateway)
    assert prediction.flag == 1
    assert prediction.error_sentence_id == 1
    # the correction shares most tokens with the original, so the gate passes
    assert rouge_l_f(HYPO_FIXED, HYPO_ERROR) >= 0.7
    assert prediction.corrected_sentence == HYPO_FIXED
    assert [t.stage for t in prediction.trace] == ["detect", "localize", "correct", "quality_gate"]
    assert prediction.trace[-1].outputs["gated"] == "false"


def test_uw_detect_zero_short_circuits_with_one_stage_trace():
    record = record_no_error("clean1", ["All findings are normal.", "Discharge today."])
    pipeline = default_uw_pipeline()
    gateway = LmGateway(backend=ScriptedBackend(uw_gold_responder([record])))
    prediction = pipeline.predict(record, gateway)
    assert (prediction.flag, prediction.error_sentence_id) == (0, -1)
    assert prediction.corrected_sentence == NA
    assert [t.stage for t in prediction.trace] == ["detect"]


def test_uw_gate_rejects_disjoint_correction():
    record, pipeline = hypo_fixture()

    def respond(request):
        stage = stage_of(request)
        if stage == "detect":
            return "Rationale: r.\nError Flag: 1"
        if stage == "localize":
            return "Rationale: r.\nError Line: 1"
        if stage == "correct":
            return "Rationale: r.\nCorrected Sentence: Entirely unrelated replacement text."
        raise AssertionError(stage)

    prediction = pipeline.predict(record, LmGateway(backend=ScriptedBackend(respond)))
    assert prediction.corrected_sentence == HYPO_ERROR  # original kept
    assert prediction.trace[-1].outputs["gated"] == "true"


def test_uw_gate_turns_an_na_rewrite_back_into_the_original_sentence():
    record, pipeline = hypo_fixture()

    def respond(request):
        stage = stage_of(request)
        if stage == "correct":
            return "Rationale: r.\nCorrected Sentence: NA"
        return uw_gold_responder([record])(request)

    [prediction] = predict_batch(pipeline, [record], LmGateway(backend=ScriptedBackend(respond)), strict=True)
    assert (prediction.flag, prediction.error_sentence_id, prediction.corrected_sentence) == (1, 1, HYPO_ERROR)
    assert prediction.error is None
    assert prediction.trace[-1].outputs == {"gated": "true", "final": HYPO_ERROR}


def test_verdict_phrasings_map_to_flags():
    from medcorr.pipelines import parse_match_value

    for verdict in ("match", "Match.", "same", "equivalent", "yes"):
        assert parse_match_value("compare_answer", verdict) == 0
    for verdict in ("mismatch", "Mismatch.", "no match", "different", "does not match"):
        assert parse_match_value("compare_answer", verdict) == 1
    with pytest.raises(PipelineStageError, match="compare_answer"):
        parse_match_value("compare_answer", "hard to say")


def test_uw_bad_flag_value_is_stage_error():
    record, pipeline = hypo_fixture()

    def respond(request):
        if stage_of(request) == "detect":
            return "Rationale: r.\nError Flag: maybe"
        raise AssertionError

    with pytest.raises(PipelineStageError, match="detect"):
        pipeline.predict(record, LmGateway(backend=ScriptedBackend(respond)))


def test_uw_gate_threshold_range_validated():
    with pytest.raises(ValidationError):
        default_uw_pipeline(gate_threshold=1.2)


def test_uw_gold_stage_runs_only_its_stage_on_gold_inputs():
    record, pipeline = hypo_fixture()
    sent = []

    def respond(request):
        stage = stage_of(request)
        sent.append((stage, live_block(request)))
        return {
            "detect": "Rationale: r.\nError Flag: 1",
            "localize": "Rationale: r.\nError Line: 0",  # the wrong line
            "correct": f"Rationale: r.\nCorrected Sentence: {HYPO_FIXED}",
        }[stage]

    gateway = LmGateway(backend=ScriptedBackend(respond))
    detect, localize, correct = (
        replace(pipeline, gold_stage=stage).predict(record, gateway) for stage in ("detect", "localize", "correct")
    )
    assert [stage for stage, _ in sent] == ["detect", "localize", "correct"]
    assert sent[2][1].startswith(f"Error Sentence: {HYPO_ERROR}")  # the gold line, not line 0
    assert (detect.flag, [t.stage for t in detect.trace]) == (1, ["detect"])
    assert (localize.error_sentence_id, localize.corrected_sentence) == (0, record.sentence_text(0))
    assert (correct.error_sentence_id, correct.corrected_sentence) == (1, HYPO_FIXED)
    assert [t.stage for t in correct.trace] == ["correct", "quality_gate"]


def test_uw_gold_stage_must_name_a_stage():
    with pytest.raises(ValidationError, match="gold stage 'retrieve'"):
        replace(default_uw_pipeline(), gold_stage="retrieve")


# --- prediction invariants ---------------------------------------------------------------


def test_prediction_consistency_enforced():
    with pytest.raises(ValidationError, match="inconsistent"):
        Prediction("x", 0, 3, NA)
    with pytest.raises(ValidationError, match="inconsistent"):
        Prediction("x", 1, -1, "text")
    with pytest.raises(ValidationError, match="inconsistent"):
        Prediction("x", 1, 2, NA)


def test_fallback_predictions_keep_invariant():
    records = synth_uw_records(4)
    calls = {"n": 0}
    base = uw_gold_responder(records)

    def flaky(request):
        # fail every request for the second record
        if records[1].sentences[0] in request.messages[-1].content:
            return "no parsable fields here"
        return base(request)

    gateway = LmGateway(backend=ScriptedBackend(flaky))
    predictions = predict_batch(default_uw_pipeline(), records, gateway, concurrency=2)
    assert [p.record_id for p in predictions] == [r.record_id for r in records]
    failed = predictions[1]
    assert failed.error is not None
    assert (failed.flag, failed.error_sentence_id) == (0, -1)
    assert failed.corrected_sentence == NA
    for p in predictions:
        assert (p.flag == 0) == (p.error_sentence_id == -1) == (p.corrected_sentence == NA)


def test_predict_batch_strict_aborts_on_failure():
    records = synth_uw_records(4)
    base = uw_gold_responder(records)

    def flaky(request):
        if records[1].sentences[0] in request.messages[-1].content:
            return "garbage"
        return base(request)

    gateway = LmGateway(backend=ScriptedBackend(flaky))
    with pytest.raises(CompletionParseError, match="^program 'detect': completion unparseable after 2 attempts: "):
        predict_batch(default_uw_pipeline(), records, gateway, strict=True)


def failing_on(record: ClinicalRecord, failure: str, respond):
    """``respond``, but every request naming ``record``'s first sentence gets
    an unparseable answer or, for ``"gateway"``, a backend error."""

    def respond_or_fail(request):
        if record.sentences[0] not in request.messages[-1].content:
            return respond(request)
        if failure == "gateway":
            raise LiveRequestError("endpoint down")
        return "no parsable fields here"

    return respond_or_fail


# One failure policy for every record run: a model failure is the record's
# answer (a fallback, a strict abort, or no demo), a gateway failure stops
# the run naming the record.
@pytest.mark.parametrize("failure", ["parse", "gateway"])
@pytest.mark.parametrize("run", ["predict_batch", "predict_batch strict", "bootstrap_demos"])
def test_every_record_run_fails_a_record_by_one_policy(failure, run):
    records = synth_uw_records(6)
    failing = records[3]
    gateway = LmGateway(backend=ScriptedBackend(failing_on(failing, failure, uw_gold_responder(records))))
    calls = {
        "predict_batch": lambda: predict_batch(default_uw_pipeline(), records, gateway, concurrency=2),
        "predict_batch strict": lambda: predict_batch(default_uw_pipeline(), records, gateway, 2, strict=True),
        "bootstrap_demos": lambda: bootstrap_demos(
            default_uw_pipeline(), records, flag_match_metric(), 20, gateway, seed=0
        ),
    }
    if failure == "gateway":
        with pytest.raises(GatewayError, match=f"^record {failing.record_id!r}: endpoint down$") as raised:
            calls[run]()
        assert type(raised.value) is GatewayError and type(raised.value.__cause__) is LiveRequestError
    elif run == "predict_batch strict":
        with pytest.raises(CompletionParseError, match="^program 'detect': completion unparseable") as raised:
            calls[run]()
        assert type(raised.value) is CompletionParseError
    elif run == "predict_batch":
        predictions = calls[run]()
        assert [p.record_id for p in predictions if p.error] == [failing.record_id]
        assert predictions[3].error.startswith("program 'detect': completion unparseable")
        assert (predictions[3].flag, predictions[3].trace) == (0, ())
    else:
        pools = calls[run]()
        sources = {demo.source_record_id for pool in pools.values() for demo in pool}
        assert sources == {r.record_id for r in records} - {failing.record_id}


def test_a_predict_stopped_by_an_outage_resumes_from_its_cache(tmp_path):
    records = synth_uw_records(8)
    responder = uw_gold_responder(records)
    cache_path = tmp_path / "cache.jsonl"

    def logging_gateway(respond, path=None):
        """A gateway recording into ``path`` (None: memory only) and the keys its backend is sent."""
        sent = []

        def logged(request):
            sent.append(request.key)
            return respond(request)

        cache = ReplayCache(path)
        return LmGateway(backend=ScriptedBackend(logged), cache=cache, record=path is not None, concurrency=3), sent

    stopped, _ = logging_gateway(failing_on(records[5], "gateway", responder), cache_path)
    with pytest.raises(GatewayError, match=f"^record {records[5].record_id!r}: endpoint down$"):
        predict_batch(default_uw_pipeline(), records, stopped, concurrency=3)
    cached = {json.loads(line)["key"] for line in cache_path.read_text(encoding="utf-8").splitlines()}
    resumed, resumed_sent = logging_gateway(responder, cache_path)
    resumed_predictions = predict_batch(default_uw_pipeline(), records, resumed, concurrency=3)
    uninterrupted, all_sent = logging_gateway(responder)
    predictions = predict_batch(default_uw_pipeline(), records, uninterrupted, concurrency=3)

    assert cached and cached < set(all_sent)
    assert sorted(resumed_sent) == sorted(set(all_sent) - cached)
    assert serialize_predictions(resumed_predictions) == serialize_predictions(predictions)
    assert serialize_traces(resumed_predictions) == serialize_traces(predictions)


def _engine_error_handlers(tree: ast.AST, scope: str = ""):
    """(qualified name of the enclosing function or class, line) of each
    ``except`` clause in ``tree`` that names ``MedcorrError`` or ``GatewayError``."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _engine_error_handlers(node, f"{scope}.{node.name}".lstrip("."))
            continue
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if {ast.unparse(name).rsplit(".", 1)[-1] for name in caught} & {"MedcorrError", "GatewayError"}:
                yield scope, node.lineno
        yield from _engine_error_handlers(node, scope)


def test_only_the_record_runner_and_the_cli_handle_engine_errors():
    handlers = {}
    for source in sorted(Path(pipelines.__file__).parent.glob("*.py")):
        for scope, line in _engine_error_handlers(ast.parse(source.read_text(encoding="utf-8"))):
            handlers.setdefault((source.stem, scope), []).append(line)
    assert set(handlers) == {("pipelines", "predict_record"), ("cli", "run_command")}


def test_predict_batch_preserves_input_order_and_is_deterministic():
    records = synth_uw_records(6)
    gateway = LmGateway(backend=ScriptedBackend(uw_gold_responder(records)))
    first = predict_batch(default_uw_pipeline(), records, gateway, concurrency=4)
    second = predict_batch(default_uw_pipeline(), records, gateway, concurrency=1)
    assert [p.record_id for p in first] == [r.record_id for r in records]
    assert serialize_predictions(first) == serialize_predictions(second)


# --- map_ordered -----------------------------------------------------------------------

WAIT_S = 5.0


def test_map_ordered_returns_input_order_when_calls_finish_in_reverse():
    done = [threading.Event() for _ in range(4)]

    def fn(i):
        # each call finishes only after the next one has
        if i + 1 < len(done):
            assert done[i + 1].wait(WAIT_S)
        done[i].set()
        return i * 10

    assert map_ordered(fn, range(4), workers=4) == [0, 10, 20, 30]


def test_map_ordered_stress_runs_each_item_once_and_never_more_than_workers_at_once():
    lock = threading.Lock()
    calls: list[int] = []
    running = peak = 0

    def fn(i):
        nonlocal running, peak
        with lock:
            running += 1
            peak = max(peak, running)
            calls.append(i)
        time.sleep(0.0005)
        with lock:
            running -= 1
        return -i

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = map_ordered(fn, range(2000), workers=8)
    finally:
        sys.setswitchinterval(interval)
    assert results == [-i for i in range(2000)]
    assert sorted(calls) == list(range(2000))
    assert 1 <= peak <= 8


def test_map_ordered_raises_the_earliest_failure_even_when_a_later_one_fails_first():
    later_failed = threading.Event()

    def fn(i):
        if i == 1:
            later_failed.set()
            raise KeyError("later")
        assert later_failed.wait(WAIT_S)
        raise ValueError("earliest")

    with pytest.raises(ValueError, match="earliest"):
        map_ordered(fn, range(2), workers=2)


def test_map_ordered_starts_no_call_after_a_failure():
    started = []

    def fn(i):
        started.append(i)
        if i == 2:
            raise ValueError("third")
        return i

    with pytest.raises(ValueError, match="third"):
        map_ordered(fn, range(10), workers=1)
    assert started == [0, 1, 2]


def test_map_ordered_a_running_thread_takes_no_item_after_another_failed(monkeypatch):
    threads = []

    class Recorded(threading.Thread):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            threads.append(self)

    started = []
    one_started = threading.Event()

    def fn(i):
        started.append(i)
        if i == 0:
            assert one_started.wait(WAIT_S)
            raise ValueError("first")
        one_started.set()
        # item 1 finishes only once the thread that failed item 0 has exited
        for thread in threads:
            if thread is not threading.current_thread():
                thread.join(WAIT_S)
                assert not thread.is_alive()
        return i

    monkeypatch.setattr(pipelines.threading, "Thread", Recorded)
    with pytest.raises(ValueError, match="first"):
        map_ordered(fn, range(10), workers=2)
    assert sorted(started) == [0, 1]


def test_map_ordered_an_interrupt_while_joining_stops_new_calls(monkeypatch):
    release = threading.Event()
    started = []
    threads = []

    class InterruptedJoin(threading.Thread):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            threads.append(self)

        def join(self, timeout=None):
            raise KeyboardInterrupt

    def fn(i):
        started.append(i)
        release.wait(WAIT_S)
        return i

    monkeypatch.setattr(pipelines.threading, "Thread", InterruptedJoin)
    with pytest.raises(KeyboardInterrupt):
        map_ordered(fn, range(10), workers=2)
    release.set()
    for thread in threads:
        super(InterruptedJoin, thread).join(WAIT_S)
        assert not thread.is_alive()
    assert set(started) <= {0, 1}


def test_map_ordered_a_failure_stops_the_batches_nested_in_other_calls():
    inner_started = []
    three_started = threading.Event()

    def inner(i):
        inner_started.append(i)
        if i == 2:
            three_started.set()
            assert batch_stop.get().wait(WAIT_S)  # the stop the whole tree shares
        return i

    def outer(i):
        if i == 0:
            return map_ordered(inner, range(50), workers=1)
        assert three_started.wait(WAIT_S)
        raise ValueError("sibling")

    # The stopped batch in item 0 raises BatchStopped, which ranks after the real failure.
    with pytest.raises(ValueError, match="sibling"):
        map_ordered(outer, range(2), workers=2)
    assert inner_started == [0, 1, 2]


def test_map_ordered_a_stopped_batch_sends_no_request():
    sent = []
    gateway = LmGateway(backend=ScriptedBackend(lambda request: sent.append(request) or "ok"))

    def fn(i):
        if i == 0:
            raise ValueError("first")
        assert batch_stop.get().wait(WAIT_S)
        return gateway.complete_messages([Message("user", "hello")])

    with pytest.raises(ValueError, match="first"):
        map_ordered(fn, range(2), workers=2)
    assert sent == []


def test_map_ordered_an_interrupt_while_joining_stops_nested_batches(monkeypatch):
    threads = []
    started = []
    both_started = threading.Barrier(3)

    class InterruptedJoin(threading.Thread):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            threads.append(self)

        def join(self, timeout=None):
            if threading.current_thread() is not threading.main_thread():
                return super().join(timeout)
            both_started.wait(WAIT_S)
            raise KeyboardInterrupt

    def inner(item):
        started.append(item)
        if len(started) <= 2:
            both_started.wait(WAIT_S)
        assert batch_stop.get().wait(WAIT_S)
        return item

    monkeypatch.setattr(pipelines.threading, "Thread", InterruptedJoin)
    with pytest.raises(KeyboardInterrupt):
        map_ordered(lambda i: map_ordered(inner, [(i, k) for k in range(50)], workers=1), range(2), workers=2)
    for thread in threads:  # the outer threads come first and join the inner ones
        super(InterruptedJoin, thread).join(WAIT_S)
        assert not thread.is_alive()
    assert sorted(started) == [(0, 0), (1, 0)]


def test_map_ordered_a_batch_stopped_from_outside_raises_batch_stopped():
    stop = threading.Event()
    stop.set()
    token = batch_stop.set(stop)
    try:
        with pytest.raises(BatchStopped):
            map_ordered(lambda item: item, [1, 2], workers=2)
    finally:
        batch_stop.reset(token)


def test_map_ordered_starts_no_thread_for_empty_input(monkeypatch):
    def no_thread(*args, **kwargs):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(pipelines.threading, "Thread", no_thread)
    assert map_ordered(lambda item: item, [], workers=4) == []


def test_map_ordered_needs_a_worker():
    with pytest.raises(ValidationError, match="concurrency must be >= 1"):
        map_ordered(lambda item: item, [1], workers=0)


# --- predictions and trace files ------------------------------------------------------------


def test_predictions_csv_round_trip():
    predictions = [
        Prediction("a", 1, 2, "A corrected, quoted \"sentence\"."),
        Prediction("b", 0, -1, NA),
    ]
    text = serialize_predictions(predictions)
    lines = text.splitlines()
    assert lines[0] == "record_id,error_flag,error_sentence_id,corrected_sentence"
    assert lines[2] == "b,0,-1,NA"
    parsed = parse_predictions(text)
    assert [(p.record_id, p.flag, p.error_sentence_id) for p in parsed] == [
        ("a", 1, 2),
        ("b", 0, -1),
    ]
    assert parsed[0].corrected_sentence == 'A corrected, quoted "sentence".'
    assert parsed[1].corrected_sentence == NA


def test_parse_predictions_rejects_inconsistent_row():
    bad = "record_id,error_flag,error_sentence_id,corrected_sentence\nx,1,-1,NA\n"
    with pytest.raises(ValidationError, match="line 2"):
        parse_predictions(bad)


def test_parse_predictions_names_the_line_a_row_starts_on_after_a_multi_line_correction():
    text = serialize_predictions([Prediction("a", 1, 0, "One.\nTwo.\nThree.")]) + "b,1,-1,NA\n"
    with pytest.raises(ValidationError, match="^line 5:"):
        parse_predictions(text)


def test_trace_file_shape():
    record, pipeline = hypo_fixture()
    gateway = LmGateway(backend=ScriptedBackend(uw_gold_responder([record])))
    prediction = pipeline.predict(record, gateway)
    lines = serialize_traces([prediction]).splitlines()
    assert len(lines) == 1
    obj = json.loads(lines[0])
    assert obj["record_id"] == "uw1"
    assert obj["error_flag"] == 1
    assert obj["corrected_sentence"] == HYPO_FIXED
    stages = [t["stage"] for t in obj["trace"]]
    assert stages == ["detect", "localize", "correct", "quality_gate"]
    # Inputs are rebuilt from the record and earlier outputs, never stored.
    assert all(set(t) == {"stage", "keys", "outputs"} for t in obj["trace"])
    assert [len(t["keys"]) for t in obj["trace"]] == [1, 1, 1, 0]


FIXTURES = Path(__file__).parent / "fixtures"


def assert_traces_rebuild_their_requests(pipeline, records, gateway) -> int:
    """Replay ``records``, then rebuild every attempt's request of every
    model-calling trace entry from the record, the stage program and the
    earlier entries' outputs, and check it against the entry's keys and the
    cache. Returns the number of retried entries."""
    predictions = predict_batch(pipeline, records, gateway, strict=True)
    retries = 0
    for record, line in zip(records, serialize_traces(predictions).splitlines()):
        known = {"clinical_text": pipelines.render_numbered_text(record)}
        for entry in json.loads(line)["trace"]:
            program = pipeline.stages.get(entry["stage"])
            if program is None:
                assert entry["keys"] == [], entry["stage"]
            else:
                messages = render_messages(program, {name: known[name] for name in program.signature.input_names()})
                requests = [gateway.request(messages)]
                if len(entry["keys"]) == 2:
                    *leading, last = messages
                    reminded = Message(last.role, last.content + "\n\n" + _reminder(program))
                    requests.append(gateway.request([*leading, reminded]))
                    retries += 1
                assert [canonical_key(request) for request in requests] == entry["keys"]
                assert all(gateway.cache.get(key) is not None for key in entry["keys"])
                assert entry["outputs"] == parse_completion(program, gateway.cache.get(entry["keys"][-1]).text)
            if entry["stage"] == "retrieve":
                assert set(entry["outputs"]) == {"doc_id", "score"}
                mcq = pipeline.index.corpus[int(entry["outputs"]["doc_id"])]
                known.update(similar_question=pipelines.render_mcq(mcq), correct_answer=mcq.correct_text)
            if entry["stage"] == "quality_gate":
                final, gated = quality_gate(known["error_sentence"], known["corrected_sentence"], pipeline.gate_threshold)
                assert entry["outputs"] == {"gated": str(gated).lower(), "final": final}
            known.update(entry["outputs"])
            if entry["stage"] == "localize":
                error_line = pipelines.parse_line_value("localize", entry["outputs"]["error_line"], record)
                known["error_sentence"] = record.sentence_text(error_line)
    return retries


def test_regen_rewrites_every_fixture_byte_for_byte(tmp_path):
    spec = importlib.util.spec_from_file_location("regen", FIXTURES / "regen.py")
    regen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(regen)
    regen.main(tmp_path)
    written = sorted(path.name for path in tmp_path.iterdir())
    assert written == sorted(path.name for path in FIXTURES.iterdir() if path.suffix in (".csv", ".jsonl"))
    for name in written:
        assert (tmp_path / name).read_bytes() == (FIXTURES / name).read_bytes(), name


def test_replayed_uw_fixture_traces_rebuild_every_request_from_the_record_and_earlier_outputs():
    records = parse_clinical_records((FIXTURES / "clinical_10.csv").read_bytes())
    cache = ReplayCache(FIXTURES / "replay_cache.jsonl")
    gateway = LmGateway(backend=ReplayBackend(cache), cache=cache)
    assert assert_traces_rebuild_their_requests(default_uw_pipeline(), records, gateway) == 0


def test_replayed_ms_traces_rebuild_every_request_and_retry_from_the_record_and_earlier_outputs(tmp_path):
    records, corpus, asserted = synth_ms_dataset(6)
    pipeline = default_ms_pipeline(build_index(corpus), gate_threshold=0.7)
    gold = ms_gold_responder(records, asserted)
    reminder = _reminder(pipeline.compare_answer)

    def responder(request):
        # compare_answer answers only once reminded, so every record retries it
        if stage_of(request) == "compare_answer" and reminder not in request.messages[-1].content:
            return "I cannot tell."
        return gold(request)

    cache_path = tmp_path / "cache.jsonl"
    recorder = LmGateway(backend=ScriptedBackend(responder), cache=ReplayCache(cache_path), record=True)
    predict_batch(pipeline, records, recorder, strict=True)
    cache = ReplayCache(cache_path)
    replay = LmGateway(backend=ReplayBackend(cache), cache=cache)
    assert assert_traces_rebuild_their_requests(pipeline, records, replay) == len(records)
