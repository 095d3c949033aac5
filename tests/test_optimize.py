from __future__ import annotations

import hashlib
import logging
import random
import re
import threading
import time
from collections import Counter
from dataclasses import replace

import pytest

from medcorr import pipelines
from medcorr.errors import GatewayError, LiveRequestError, ValidationError
from medcorr.gateway import LmGateway, ReplayBackend, ReplayCache, ScriptedBackend, canonical_key
from medcorr.optimize import (
    Candidate,
    CompileReport,
    bootstrap_demos,
    compile_ms_pipeline,
    compile_uw_pipeline,
    correction_rouge_l_metric,
    error_records,
    flag_match_metric,
    mipro_compile,
    propose_instructions,
    random_search_compile,
    sentence_match_metric,
)
from medcorr.pipelines import default_ms_pipeline, default_uw_pipeline
from medcorr.program import Demo, program_to_json
from medcorr.retrieval import build_index

from helpers import (
    PROPOSAL_MARKER,
    SamplingBackend,
    live_block,
    magic_demo_setup,
    ms_gold_responder,
    record_with_error,
    stage_of,
    synth_ms_dataset,
    synth_uw_records,
    uw_gold_responder,
)


def gold_gateway(records):
    return LmGateway(backend=ScriptedBackend(uw_gold_responder(records)))


# --- metric wrappers --------------------------------------------------------------


def test_metric_factories_score_and_threshold():
    records = synth_uw_records(2)
    from medcorr.corpus import NA
    from medcorr.pipelines import Prediction

    gold = records[0]  # has an error at sentence 2
    right = Prediction(gold.record_id, 1, 2, gold.gold_correction)
    wrong = Prediction(gold.record_id, 0, -1, NA)
    assert flag_match_metric()(gold, right) == 1.0
    assert flag_match_metric()(gold, wrong) == 0.0
    assert sentence_match_metric()(gold, right) == 1.0
    assert correction_rouge_l_metric()(gold, right) == 1.0
    assert correction_rouge_l_metric()(gold, wrong) == 0.0
    assert flag_match_metric().pass_threshold == 1.0
    assert correction_rouge_l_metric().pass_threshold == 0.8
    assert flag_match_metric(0.5).pass_threshold == 0.5
    assert sentence_match_metric(0.9).pass_threshold == 0.9


def test_metric_requires_gold_labels():
    from helpers import unlabeled_record
    from medcorr.corpus import NA
    from medcorr.pipelines import Prediction

    record = unlabeled_record("u", ["Text."])
    with pytest.raises(ValidationError, match="gold"):
        flag_match_metric()(record, Prediction("u", 0, -1, NA))


# --- bootstrap_demos -----------------------------------------------------------------


def test_bootstrap_all_passing_fills_pools_with_trainset_size():
    # five error records, gold-scripted: every trace passes the flag metric
    records = [r for r in synth_uw_records(10) if r.gold_flag == 1][:5]
    pools = bootstrap_demos(
        default_uw_pipeline(), records, flag_match_metric(), 20, gold_gateway(records), seed=0
    )
    assert set(pools) == {"detect", "localize", "correct"}
    for pool in pools.values():
        assert len(pool) == 5
    captured = {d.source_record_id for d in pools["detect"]}
    assert captured == {r.record_id for r in records}


def test_bootstrap_never_passing_leaves_pools_empty_with_warning(caplog):
    records = [r for r in synth_uw_records(6) if r.gold_flag == 1]

    def always_wrong(request):
        if stage_of(request) == "detect":
            return "Rationale: r.\nError Flag: 0"  # every record has flag 1
        raise AssertionError("short-circuit keeps later stages idle")

    gateway = LmGateway(backend=ScriptedBackend(always_wrong))
    with caplog.at_level(logging.WARNING):
        pools = bootstrap_demos(
            default_uw_pipeline(), records, flag_match_metric(), 20, gateway, seed=0
        )
    assert all(pool == [] for pool in pools.values())
    assert any("no demos" in message for message in caplog.messages)


def test_bootstrap_known_passing_subset_caps_pool():
    records = [r for r in synth_uw_records(24) if r.gold_flag == 1]  # 12 error records
    passing_ids = {r.record_id for r in records[:8]}
    base = uw_gold_responder(records)

    def partial(request):
        if stage_of(request) == "detect":
            record_sentence = live_block(request)
            failing = [r for r in records if r.record_id not in passing_ids]
            for r in failing:
                if r.sentences[0] in record_sentence:
                    return "Rationale: r.\nError Flag: 0"  # wrong on purpose
        return base(request)

    gateway = LmGateway(backend=ScriptedBackend(partial))
    pipeline = default_uw_pipeline()
    metric = flag_match_metric()

    # oracle: enumerate the passing examples by running the pipeline standalone
    observed_passing = set()
    for record in records:
        prediction = pipeline.predict(record, gateway)
        if metric(record, prediction) >= metric.pass_threshold:
            observed_passing.add(record.record_id)
    assert observed_passing == passing_ids

    pools = bootstrap_demos(pipeline, records, metric, 4, gateway, seed=7)
    for pool in pools.values():
        assert len(pool) == 4
        assert {d.source_record_id for d in pool} <= passing_ids


def test_bootstrap_propagates_gateway_errors_with_record_id():
    from medcorr.errors import GatewayError
    from medcorr.gateway import ReplayBackend, ReplayCache

    records = [r for r in synth_uw_records(2) if r.gold_flag == 1]
    gateway = LmGateway(backend=ReplayBackend(ReplayCache()))  # empty: every call misses
    with pytest.raises(GatewayError, match=records[0].record_id):
        bootstrap_demos(default_uw_pipeline(), records, flag_match_metric(), 5, gateway, seed=0)


def uw_gateway(records, answer=lambda stage, record, request: None, **options):
    """A gold-scripted ``uw`` gateway and the (stage, canonical key) of each
    request its backend is sent. ``answer(stage, record, request)`` replaces
    a stage's gold answer unless it is None; ``record`` is the one the live
    block names (for ``correct``, by its gold error sentence), else None."""
    gold = uw_gold_responder(records)
    by_first = {r.sentences[0]: r for r in records}
    by_error = {r.sentence_text(r.gold_error_sentence_id): r for r in records if r.gold_flag == 1}
    sent = []

    def respond(request):
        if PROPOSAL_MARKER in request.messages[-1].content:
            sent.append(("propose", canonical_key(request)))
            return gold(request)
        stage, block = stage_of(request), live_block(request)
        sent.append((stage, canonical_key(request)))
        record = next((r for key, r in (by_error if stage == "correct" else by_first).items() if key in block), None)
        replaced = answer(stage, record, request)
        return gold(request) if replaced is None else replaced

    return LmGateway(backend=ScriptedBackend(respond), **options), sent


def wrong_flag_for(failing_ids):
    return lambda stage, record, request: (
        "Rationale: r.\nError Flag: 9" if stage == "detect" and record.record_id in failing_ids else None
    )


@pytest.mark.parametrize("max_demos", [1, 4, 40])
def test_bootstrap_pools_and_requests_do_not_depend_on_concurrency(max_demos):
    # Flag-0 records add only a detect demo and every third record fails, so
    # the pools fill at different rates and the stopping record matters.
    records = synth_uw_records(24)
    failing = wrong_flag_for({r.record_id for r in records[::3]})
    pools, requests = [], []
    for concurrency in (1, 3, 8):
        gateway, sent = uw_gateway(records, failing, concurrency=concurrency)
        pools.append(bootstrap_demos(default_uw_pipeline(), records, flag_match_metric(), max_demos, gateway, seed=7))
        requests.append(Counter(sent))
    assert pools[0]["correct"] and pools[0]["detect"]
    assert pools[0] == pools[1] == pools[2]
    assert requests[0] == requests[1] == requests[2]


@pytest.mark.parametrize("concurrency", [1, 4])
def test_bootstrap_raises_the_first_gateway_error_in_shuffled_order(concurrency):
    records = synth_uw_records(12)
    order = list(records)
    random.Random(5).shuffle(order)
    broken = {r.record_id for r in order[2:4]}  # at concurrency 4 both are in the first wave

    def fail(stage, record, request):
        if stage == "detect" and record.record_id in broken:
            raise LiveRequestError(f"backend down for {record.record_id}")
        return None

    gateway, _ = uw_gateway(records, fail, concurrency=concurrency)
    with pytest.raises(GatewayError, match=f"record {order[2].record_id!r}: backend down for {order[2].record_id}"):
        bootstrap_demos(default_uw_pipeline(), records, flag_match_metric(), 20, gateway, seed=5)


def test_bootstrap_validates_inputs():
    records = synth_uw_records(2)
    gateway = gold_gateway(records)
    with pytest.raises(ValidationError):
        bootstrap_demos(default_uw_pipeline(), records, flag_match_metric(), 0, gateway, seed=0)
    with pytest.raises(ValidationError):
        bootstrap_demos(default_uw_pipeline(), [], flag_match_metric(), 5, gateway, seed=0)
    with pytest.raises(ValidationError, match="unknown stages"):
        bootstrap_demos(
            default_uw_pipeline(), records, flag_match_metric(), 5, gateway, seed=0, stages=("bogus",)
        )


# --- random_search_compile --------------------------------------------------------------


def test_random_search_empty_pools_returns_baseline():
    records = synth_uw_records(4)
    pipeline = default_uw_pipeline()
    gateway = gold_gateway(records)
    pools = {"detect": [], "localize": [], "correct": []}
    compiled, report = random_search_compile(
        pipeline, pools, records, flag_match_metric(), n_candidates=8, seed=1, gateway=gateway
    )
    assert report.winner_id == 0
    assert len(report.candidates) == 1
    assert compiled.stages == pipeline.stages  # pipeline unchanged


def test_random_search_single_candidate_is_baseline_only():
    records = synth_uw_records(4)
    pools = {"detect": [Demo(input_values={"clinical_text": "0: x"}, output_values={"error_flag": "0"})]}
    compiled, report = random_search_compile(
        default_uw_pipeline(), pools, records, flag_match_metric(),
        n_candidates=1, seed=0, gateway=gold_gateway(records),
    )
    assert len(report.candidates) == 1
    assert report.candidates[0].demos == {"detect": ()}


def test_random_search_magic_demo_wins():
    train, val, gateway = magic_demo_setup()
    pipeline = default_uw_pipeline()
    metric = flag_match_metric()
    pools = bootstrap_demos(pipeline, [train], metric, 20, gateway, seed=0)
    assert len(pools["detect"]) == 1  # the magic demo

    compiled, report = random_search_compile(
        pipeline, pools, val, metric, n_candidates=4, demos_per_stage=20, seed=3, gateway=gateway
    )
    baseline = next(c for c in report.candidates if c.candidate_id == 0)
    assert baseline.validation_score == 0.0
    winner = report.winner
    assert winner.validation_score == 1.0
    assert winner.validation_score > baseline.validation_score
    assert winner.demo_sources()["detect"] == ["train0"]
    # exhaustive check: the report's winner is the arg-max over all candidates
    assert winner.validation_score == max(c.validation_score for c in report.candidates)
    # the compiled pipeline carries the winning demo
    assert compiled.stages["detect"].demos == winner.demos["detect"]


def test_random_search_winner_never_below_baseline_across_seeds():
    train, val, gateway = magic_demo_setup()
    pipeline = default_uw_pipeline()
    metric = flag_match_metric()
    pools = bootstrap_demos(pipeline, [train], metric, 20, gateway, seed=0)
    for seed in range(20):
        _, report = random_search_compile(
            pipeline, pools, val, metric, n_candidates=4, seed=seed, gateway=gateway
        )
        baseline = next(c for c in report.candidates if c.candidate_id == 0)
        assert report.winner.validation_score >= baseline.validation_score


def test_random_search_empty_valset_is_error():
    with pytest.raises(ValidationError, match="valset"):
        random_search_compile(
            default_uw_pipeline(), {"detect": []}, [], flag_match_metric(),
            gateway=gold_gateway([]),
        )


def test_random_search_fixed_seed_reproducible():
    train, val, gateway = magic_demo_setup()
    pipeline = default_uw_pipeline()
    pools = bootstrap_demos(pipeline, [train], flag_match_metric(), 20, gateway, seed=0)
    reports = [
        random_search_compile(
            pipeline, pools, val, flag_match_metric(), n_candidates=5, seed=11, gateway=gateway
        )[1].to_json()
        for _ in range(2)
    ]
    assert reports[0] == reports[1]


# --- propose_instructions ---------------------------------------------------------------


def detect_signature():
    return default_uw_pipeline().detect.signature


def test_propose_instructions_prepends_original():
    gateway = LmGateway(backend=ScriptedBackend(lambda r: "Classify the error."))
    proposals = propose_instructions(detect_signature(), [], gateway, n_proposals=1)
    assert proposals == [detect_signature().instruction, "Classify the error."]


def test_propose_instructions_three_distinct():
    def respond(request):
        variant = request.messages[-1].content.rsplit("variant ", 1)[1].split()[0]
        return f"Instruction variant number {variant}."

    gateway = LmGateway(backend=ScriptedBackend(respond))
    proposals = propose_instructions(detect_signature(), [], gateway, n_proposals=3)
    assert len(proposals) == 4
    assert proposals[0] == detect_signature().instruction


def test_propose_instructions_overlaps_its_calls_and_keeps_variant_order():
    # variant 1 can only answer once variant 2 has been sent
    second_sent = threading.Event()

    def respond(request):
        variant = request.messages[-1].content.rsplit("variant ", 1)[1].split()[0]
        if variant == "1":
            return "First instruction." if second_sent.wait(timeout=10) else "Variant 2 never ran alongside."
        second_sent.set()
        return "Second instruction."

    gateway = LmGateway(backend=ScriptedBackend(respond), concurrency=2)
    proposals = propose_instructions(detect_signature(), [], gateway, n_proposals=2)
    assert proposals == [detect_signature().instruction, "First instruction.", "Second instruction."]


def test_propose_instructions_dedupes_echo(caplog):
    original = detect_signature().instruction
    gateway = LmGateway(backend=ScriptedBackend(lambda r: original))
    with caplog.at_level(logging.WARNING):
        proposals = propose_instructions(detect_signature(), [], gateway, n_proposals=3)
    assert proposals == [original]
    assert any("duplicates" in m for m in caplog.messages)


def test_propose_instructions_renders_sample_demos():
    seen = {}

    def respond(request):
        seen["prompt"] = request.messages[-1].content
        return "New instruction."

    demo = Demo(
        input_values={"clinical_text": "0: a distinctive line"},
        output_values={"rationale": "thought", "error_flag": "1"},
    )
    propose_instructions(
        detect_signature(), [demo], LmGateway(backend=ScriptedBackend(respond)), n_proposals=1
    )
    assert "a distinctive line" in seen["prompt"]
    assert "Error Flag: 1" in seen["prompt"]


# --- mipro_compile ------------------------------------------------------------------------


def test_mipro_budget_one_one_degenerates_to_baseline():
    records = synth_uw_records(4)
    compiled, report = mipro_compile(
        default_uw_pipeline(), records, records, flag_match_metric(),
        budget=(1, 1), seed=0, gateway=gold_gateway(records), stages=("detect",),
    )
    assert len(report.candidates) == 1
    only = report.candidates[0]
    assert only.candidate_id == 0
    assert only.demos == {"detect": ()}
    assert only.instructions == {"detect": detect_signature().instruction}
    assert compiled.stages["detect"].demos == ()
    assert compiled.stages["detect"].compiled_instruction is None


def test_random_search_is_mipro_with_one_instruction_per_stage():
    records = synth_uw_records(12)
    train, val = records[:8], records[8:]
    pipeline, metric, gateway = default_uw_pipeline(), flag_match_metric(), gold_gateway(records)
    _, joint = mipro_compile(
        pipeline, train, val, metric, budget=(1, 5), seed=4, gateway=gateway, demos_per_stage=3,
        stages=("detect", "localize"),
    )
    pools = bootstrap_demos(pipeline, train, metric, 3, gateway, seed=4, stages=("detect", "localize"))
    _, random_search = random_search_compile(
        pipeline, pools, val, metric, n_candidates=5, demos_per_stage=3, seed=4, gateway=gateway
    )

    def drawn(report):
        return [(c.instructions, c.demo_sources(), c.validation_score) for c in report.candidates]

    assert len(joint.candidates) == 5
    assert drawn(random_search) == drawn(joint)


def test_mipro_with_no_demos_and_one_instruction_scores_only_the_baseline():
    records = [r for r in synth_uw_records(6) if r.gold_flag == 1]
    gateway = LmGateway(backend=ScriptedBackend(lambda request: "Rationale: r.\nError Flag: 0"))
    _, report = mipro_compile(
        default_uw_pipeline(), records, records, flag_match_metric(), budget=(1, 4), seed=0,
        gateway=gateway, stages=("detect",),
    )
    assert [c.candidate_id for c in report.candidates] == [0]
    assert report.candidates[0].demos == {"detect": ()}


def test_mipro_winning_instruction_is_carried():
    error = record_with_error("e0", ["Patient errcase has a fever.", "Gave coldextra as needed."], 1, "Gave warmextra as needed.")
    clean_sentences = ["Patient cleancase is stable.", "No changes today."]
    from helpers import record_no_error

    clean = record_no_error("c0", clean_sentences)
    val = [error, clean]
    magic_instruction = "PINSTRUCTION look twice."

    def respond(request):
        if PROPOSAL_MARKER in request.messages[-1].content:
            return magic_instruction
        stage = stage_of(request)
        block = live_block(request)
        system = request.messages[0].content
        if stage == "detect":
            if system.startswith("PINSTRUCTION"):
                flag = 1 if "errcase" in block else 0
            else:
                flag = 0  # right on the clean record, wrong on the error one
            return f"Rationale: r.\nError Flag: {flag}"
        if stage == "localize":
            return "Rationale: r.\nError Line: 1"
        if stage == "correct":
            return "Rationale: r.\nCorrected Sentence: Gave warmextra as needed."
        raise AssertionError(stage)

    gateway = LmGateway(backend=ScriptedBackend(respond))
    compiled, report = mipro_compile(
        default_uw_pipeline(), [error], val, flag_match_metric(),
        budget=(2, 8), seed=4, gateway=gateway, stages=("detect",),
    )
    baseline = next(c for c in report.candidates if c.candidate_id == 0)
    assert baseline.validation_score == 0.5
    assert report.winner.validation_score == 1.0
    assert report.winner.instructions["detect"] == magic_instruction
    assert compiled.stages["detect"].compiled_instruction == magic_instruction


def test_mipro_cross_space_includes_baseline_and_winner_is_max():
    records = synth_uw_records(6)
    train, val = records[:3], records[3:]
    compiled, report = mipro_compile(
        default_uw_pipeline(), train, val, flag_match_metric(),
        budget=(2, 4), seed=1, gateway=gold_gateway(records),
    )
    ids = [c.candidate_id for c in report.candidates]
    assert ids == list(range(4))
    assert report.winner.validation_score == max(c.validation_score for c in report.candidates)
    # gold responder is right regardless of prompts, so ties resolve to candidate 0
    assert report.winner_id == 0


# --- compile report invariants --------------------------------------------------------------


def test_compile_report_tie_breaks_to_lowest_id():
    candidates = (
        Candidate(0, {}, {}, scores=(0.9,)),
        Candidate(1, {}, {}, scores=(0.9,)),
    )
    report = CompileReport(
        seed=0,
        stages=("detect",),
        trainset_record_ids=(),
        valset_record_ids=("v",),
        candidates=candidates,
    )
    assert report.winner.candidate_id == 0


# sha256 of each report's to_json and each compiled stage's program_to_json
# for one fixed-seed uw compile; any change to a compile artifact shows here.
UW_COMPILE_SHA256 = {
    "detect": (
        "47bd2e3f802c76baa3e5738213bd2cc743d173452109c476bee9025f2735964f",
        "89867ed1e05491e8ec3d2470cfe3dd63744f252bca7e2b444c132cce9041794c",
    ),
    "localize": (
        "327def14e5c73956dce0c71de5d9e31ab2b0de4495c533fa224c3a92545cc2b7",
        "3ef96902a071981e5c6cfa5b5986b86b8db11541c192903909d44683788fae35",
    ),
    "correct": (
        "458de69ffa1429991d4471403936d7f8ab2323c1b286350cac3c996ae403f645",
        "8e5c4737d1f2cd9308f425fc4e6d57eb78a25e0d5e833723dfbc3e252cd3b0b8",
    ),
}


def test_fixed_seed_uw_compile_artifacts_are_pinned():
    train, val, gateway = magic_demo_setup()
    compiled, reports = compile_uw_pipeline(
        default_uw_pipeline(), [train, *val], val, gateway, seed=3, budget=(2, 3), demos_per_stage=1
    )
    detect = reports["detect"]
    assert (detect.winner_id, detect.winner.validation_score - detect.candidates[0].validation_score) == (1, 1.0)

    def sha256(text):
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    assert {
        stage: (sha256(report.to_json()), sha256(program_to_json(compiled.stages[stage])))
        for stage, report in reports.items()
    } == UW_COMPILE_SHA256


# --- full compile flows -----------------------------------------------------------------------


def test_compile_uw_pipeline_filters_error_records_for_localize_and_correct():
    records = synth_uw_records(12)
    train, val = records[:8], records[8:]
    flag0_ids = {r.record_id for r in records if r.gold_flag == 0}
    gateway = gold_gateway(records)
    compiled, reports = compile_uw_pipeline(
        default_uw_pipeline(), train, val, gateway, seed=2, budget=(2, 3), demos_per_stage=4
    )
    assert set(reports) == {"detect", "localize", "correct"}
    for stage in ("localize", "correct"):
        report = reports[stage]
        assert set(report.trainset_record_ids).isdisjoint(flag0_ids)
        assert set(report.valset_record_ids).isdisjoint(flag0_ids)
        for candidate in report.candidates:
            for sources in candidate.demo_sources().values():
                assert flag0_ids.isdisjoint({s for s in sources if s})
    # detection still trains on the full split
    assert set(reports["detect"].trainset_record_ids) == {r.record_id for r in train}
    # compiled pipeline still works end to end
    prediction = compiled.predict(records[0], gateway)
    assert prediction.flag == records[0].gold_flag


def test_compile_ms_pipeline_keeps_localize_uncompiled():
    records, corpus, asserted = synth_ms_dataset(12)
    train, val = records[:8], records[8:]
    flag0_ids = {r.record_id for r in records if r.gold_flag == 0}
    pipeline = default_ms_pipeline(build_index(corpus))
    gateway = LmGateway(backend=ScriptedBackend(ms_gold_responder(records, asserted)))
    compiled, reports = compile_ms_pipeline(
        pipeline, train, val, gateway, seed=5, n_candidates=3, demos_per_stage=4
    )
    assert set(reports) == {"flag", "correction"}
    assert compiled.localize.demos == ()  # stage isolation
    # the correction compile never saw a flag-0 record
    correction = reports["correction"]
    assert set(correction.trainset_record_ids).isdisjoint(flag0_ids)
    assert set(correction.valset_record_ids).isdisjoint(flag0_ids)
    # bootstrapped demos exist for the jointly-compiled stages
    assert reports["flag"].stages == ("compare_answer", "extract_choice")
    # each phase reports the records it was given, in input order
    assert reports["flag"].trainset_record_ids == tuple(r.record_id for r in train)
    assert correction.trainset_record_ids == tuple(r.record_id for r in train if r.gold_flag == 1)
    prediction = compiled.predict(records[0], gateway)
    assert prediction.flag == records[0].gold_flag
    assert prediction.error_sentence_id == records[0].gold_error_sentence_id


@pytest.mark.parametrize("pipeline", ["ms", "uw"])
@pytest.mark.parametrize("split", ["train", "val"])
def test_compile_without_error_records_fails_before_any_call(pipeline, split):
    records, corpus, asserted = synth_ms_dataset(8)
    if pipeline == "uw":
        records = synth_uw_records(8)
    clean = [r for r in records if r.gold_flag == 0]
    train, val = (clean, records[4:]) if split == "train" else (records[:4], clean)
    calls = []

    def respond(request):
        calls.append(request)
        raise AssertionError("no call is expected")

    gateway = LmGateway(backend=ScriptedBackend(respond))
    with pytest.raises(ValidationError, match="error-containing records"):
        if pipeline == "ms":
            compile_ms_pipeline(default_ms_pipeline(build_index(corpus)), train, val, gateway, n_candidates=3)
        else:
            compile_uw_pipeline(default_uw_pipeline(), train, val, gateway, budget=(2, 3))
    assert calls == []


def test_compile_is_deterministic_for_fixed_seed():
    records = synth_uw_records(8)
    train, val = records[:5], records[5:]
    gateway = gold_gateway(records)
    dumps = []
    for _ in range(2):
        _, reports = compile_uw_pipeline(
            default_uw_pipeline(), train, val, gateway, seed=9, budget=(2, 3), demos_per_stage=3
        )
        dumps.append({name: report.to_json() for name, report in reports.items()})
    assert dumps[0] == dumps[1]


# --- gold-conditioned uw stage compiles ------------------------------------------------------


def test_uw_detect_compile_keeps_the_demo_and_score_of_a_record_whose_localize_fails():
    records = synth_uw_records(12)
    train, val = records[:8], records[8:]
    broken = {train[0].record_id, val[0].record_id}  # both carry an error

    def unparseable_line(stage, record, request):
        return "Rationale: r.\nError Line: none" if stage == "localize" and record.record_id in broken else None

    gateway, _ = uw_gateway(records, unparseable_line)
    _, reports = compile_uw_pipeline(default_uw_pipeline(), train, val, gateway, seed=3, budget=(1, 2), demos_per_stage=8)
    detect = reports["detect"]
    assert train[0].record_id in detect.candidates[1].demo_sources()["detect"]
    assert detect.candidates[0].scores[0] == 1.0
    assert reports["localize"].candidates[0].scores[0] == 0.0
    assert reports["correct"].candidates[0].scores[0] == 1.0


def test_uw_correct_compile_scores_the_gold_sentence_when_localize_picks_another_line():
    records = synth_uw_records(12)
    train, val = records[:8], records[8:]

    def wrong_line(stage, record, request):
        if stage == "localize":
            return "Rationale: r.\nError Line: 0"  # every error is on line 2
        if stage == "correct" and record is None:
            return f"Rationale: r.\nCorrected Sentence: {live_block(request).split(': ', 1)[1]}"
        return None

    _, reports = compile_uw_pipeline(
        default_uw_pipeline(), train, val, uw_gateway(records, wrong_line)[0],
        seed=3, budget=(1, 2), demos_per_stage=4,
    )
    assert reports["localize"].candidates[0].scores == (0.0, 0.0)
    assert reports["correct"].candidates[0].scores == (1.0, 1.0)


def test_each_uw_stage_compile_sends_only_its_own_stage_and_proposals():
    records = synth_uw_records(12)
    train, val = records[:8], records[8:]
    phases = {
        "detect": (train, val, flag_match_metric()),
        "localize": (error_records(train), error_records(val), sentence_match_metric()),
        "correct": (error_records(train), error_records(val), correction_rouge_l_metric()),
    }
    separately = Counter()
    for stage, (stage_train, stage_val, metric) in phases.items():
        gateway, sent = uw_gateway(records)
        mipro_compile(
            replace(default_uw_pipeline(), gold_stage=stage), stage_train, stage_val, metric,
            budget=(2, 4), seed=3, gateway=gateway, demos_per_stage=3, stages=(stage,),
        )
        assert {kind for kind, _ in sent} == {stage, "propose"}
        separately.update(sent)
    gateway, sent = uw_gateway(records)
    compiled, _ = compile_uw_pipeline(default_uw_pipeline(), train, val, gateway, seed=3, budget=(2, 4), demos_per_stage=3)
    assert Counter(sent) == separately
    assert compiled.gold_stage is None
    gateway, sent = uw_gateway(records)
    compiled, _ = compile_uw_pipeline(
        replace(default_uw_pipeline(), gold_stage="localize"), train, val, gateway, seed=3, budget=(2, 4),
        demos_per_stage=3,
    )
    assert Counter(sent) == separately
    assert compiled.gold_stage is None


@pytest.mark.parametrize("name", ["ms", "uw"])
@pytest.mark.parametrize("concurrency", [1, 3])
def test_compile_never_has_more_than_concurrency_calls_in_flight(name, concurrency):
    uw_records = synth_uw_records(10)
    ms_records, corpus, asserted = synth_ms_dataset(10)
    responder = uw_gold_responder(uw_records) if name == "uw" else ms_gold_responder(ms_records, asserted)
    lock = threading.Lock()
    inflight = [0, 0]  # now, most

    def respond(request):
        with lock:
            inflight[0] += 1
            inflight[1] = max(inflight)
        time.sleep(0.002)
        with lock:
            inflight[0] -= 1
        return responder(request)

    gateway = LmGateway(backend=ScriptedBackend(respond), concurrency=concurrency)
    if name == "uw":
        compile_uw(uw_records, gateway)
    else:
        compile_ms(ms_records, build_index(corpus), gateway)
    assert inflight[1] == concurrency


WAIT_S = 5.0


class Outage:
    """An ``answer`` for :func:`uw_gateway` that raises where ``fails(stage,
    record)`` holds and otherwise answers gold after 2 ms. ``calls`` counts
    the requests sent, ``first_failure`` the count at the first failing one."""

    def __init__(self, fails):
        self.fails, self.calls, self.first_failure = fails, 0, None
        self.lock = threading.Lock()

    def __call__(self, stage, record, request):
        fails = self.fails(stage, record)
        with self.lock:
            self.calls += 1
            if fails and self.first_failure is None:
                self.first_failure = self.calls
        if fails:
            raise LiveRequestError(f"{stage} down for {record.record_id if record else None}")
        time.sleep(0.002)
        return None

    @property
    def sent_after_failure(self):
        return self.calls - self.first_failure


@pytest.mark.parametrize("broken", ["train", "val"])
def test_search_error_in_the_bootstrap_or_candidate_zero_stops_both(broken):
    # The bootstrap and candidate 0 run together; whichever fails first stops
    # the other, so only requests already holding a gateway slot follow it.
    # A record stopped while it waits for a slot raises nothing of its own, so
    # which failing record is named depends on timing.
    records = synth_uw_records(24)
    train, val = records[:12], records[12:]
    failing = {r.record_id for r in train} if broken == "train" else {val[1].record_id, val[3].record_id}
    outage = Outage(lambda stage, record: stage == "detect" and record.record_id in failing)
    gateway, _ = uw_gateway(records, outage, concurrency=2)
    with pytest.raises(GatewayError, match=r"record '(uw\d+)': detect down") as raised:
        mipro_compile(
            default_uw_pipeline(), train, val, flag_match_metric(), budget=(1, 3), seed=4, gateway=gateway,
            stages=("detect",),
        )
    assert re.match(r"record '(uw\d+)'", str(raised.value))[1] in failing
    assert outage.sent_after_failure <= gateway.concurrency


@pytest.mark.parametrize("broken", ["localize", "correct"])
def test_uw_compile_stops_every_stage_once_one_fails(broken):
    records = synth_uw_records(20)
    outage = Outage(lambda stage, record: stage == broken)
    gateway, _ = uw_gateway(records, outage)
    with pytest.raises(GatewayError, match=f"{broken} down"):
        compile_uw_pipeline(default_uw_pipeline(), records[:12], records[12:], gateway, seed=3, budget=(3, 6), demos_per_stage=4)
    assert outage.sent_after_failure <= gateway.concurrency


def test_an_interrupt_during_a_uw_compile_starts_no_further_request(monkeypatch):
    records = synth_uw_records(20)
    threads = []
    some_sent = threading.Event()
    interrupted_at = []

    class InterruptedJoin(threading.Thread):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            threads.append(self)

        def join(self, timeout=None):
            if threading.current_thread() is not threading.main_thread():
                return super().join(timeout)
            assert some_sent.wait(WAIT_S)
            interrupted_at.append(len(sent))
            raise KeyboardInterrupt

    def answer(stage, record, request):
        if len(sent) >= 12:
            some_sent.set()
        time.sleep(0.002)
        return None

    gateway, sent = uw_gateway(records, answer)
    monkeypatch.setattr(pipelines.threading, "Thread", InterruptedJoin)
    with pytest.raises(KeyboardInterrupt):
        compile_uw_pipeline(default_uw_pipeline(), records[:12], records[12:], gateway, seed=3, budget=(3, 6), demos_per_stage=4)
    for thread in threads:  # each thread is listed before the ones it starts
        super(InterruptedJoin, thread).join(WAIT_S)
        assert not thread.is_alive()
    assert len(sent) - interrupted_at[0] <= gateway.concurrency


def test_error_records_helper():
    records = synth_uw_records(6)
    subset = error_records(records)
    assert all(r.gold_flag == 1 for r in subset)
    assert len(subset) == 3


def compile_outputs(compiled, reports) -> dict[str, str]:
    return {
        **{f"{stage}.json": program_to_json(program) for stage, program in compiled.stages.items()},
        **{f"compile_report_{name}.json": report.to_json() for name, report in reports.items()},
    }


def compile_uw(records, gateway):
    return compile_outputs(
        *compile_uw_pipeline(
            default_uw_pipeline(), records[:6], records[6:], gateway, seed=3, budget=(2, 4), demos_per_stage=3
        )
    )


def compile_ms(records, index, gateway, demos_per_stage=3):
    return compile_outputs(
        *compile_ms_pipeline(
            default_ms_pipeline(index), records[:6], records[6:], gateway,
            seed=5, n_candidates=4, demos_per_stage=demos_per_stage,
        )
    )


class LoggingBackend:
    """Passes requests to ``inner`` and keeps their canonical keys."""

    def __init__(self, inner):
        self.inner, self.tag, self.sent = inner, inner.tag, []

    def complete(self, request):
        self.sent.append(canonical_key(request))
        return self.inner.complete(request)


def test_recorded_sampling_compile_replays_to_the_same_outputs(tmp_path):
    # A live compile at temperature 1.0 gets a different sample for every new
    # request; replaying its cache at any concurrency sends the same requests
    # and writes the same programs and reports.
    uw_records = synth_uw_records(10)
    ms_records, corpus, asserted = synth_ms_dataset(10)
    index = build_index(corpus)
    uw_gold, ms_gold = uw_gold_responder(uw_records), ms_gold_responder(ms_records, asserted)

    def sample_uw(request, n):
        # Odd samples get the error flag wrong, so which sample a repeated
        # request received changes the scores.
        text = uw_gold(request).replace("Rationale: ", f"Rationale: sample {n}; ", 1)
        return text if n % 2 == 0 else re.sub(r"Error Flag: (\d)", lambda m: f"Error Flag: {1 - int(m[1])}", text)

    def sample_ms(request, n):
        return ms_gold(request).replace("Rationale: ", f"Rationale: sample {n}; ", 1)

    for name, compile_with, sample in (
        ("uw", lambda gateway: compile_uw(uw_records, gateway), sample_uw),
        ("ms", lambda gateway: compile_ms(ms_records, index, gateway), sample_ms),
    ):
        cache_path = tmp_path / f"{name}.jsonl"
        live = compile_with(LmGateway(backend=SamplingBackend(sample), cache=ReplayCache(cache_path), record=True))
        sent = []
        for concurrency in (1, 4, 8):
            backend = LoggingBackend(ReplayBackend(ReplayCache(cache_path)))
            assert compile_with(LmGateway(backend=backend, concurrency=concurrency)) == live, (name, concurrency)
            sent.append(Counter(backend.sent))
        assert sent[0] == sent[1] == sent[2], name


def test_compile_outputs_do_not_depend_on_concurrency():
    uw_records = synth_uw_records(10)
    failing = wrong_flag_for({uw_records[2].record_id, uw_records[7].record_id})
    ms_records, corpus, asserted = synth_ms_dataset(10)
    index = build_index(corpus)
    runs = []
    for concurrency in (1, 4, 8):
        uw_gw, uw_sent = uw_gateway(uw_records, failing, concurrency=concurrency)
        ms_backend = LoggingBackend(ScriptedBackend(ms_gold_responder(ms_records, asserted)))
        ms_gateway = LmGateway(backend=ms_backend, concurrency=concurrency)
        runs.append(
            (compile_uw(uw_records, uw_gw), Counter(uw_sent), compile_ms(ms_records, index, ms_gateway),
             Counter(ms_backend.sent))
        )
    assert runs[0] == runs[1] == runs[2]


@pytest.mark.parametrize("name", ["ms", "uw"])
def test_a_compile_recorded_at_concurrency_one_replays_at_eight(tmp_path, name):
    cache = ReplayCache(tmp_path / "cache.jsonl")
    if name == "uw":
        records = synth_uw_records(10)
        failing = wrong_flag_for({records[2].record_id, records[5].record_id})
        live_gateway, _ = uw_gateway(records, failing, cache=cache, record=True, concurrency=1)

        def compile_with(gateway):
            return compile_uw(records, gateway)
    else:
        records, corpus, asserted = synth_ms_dataset(10)
        index = build_index(corpus)
        live_gateway = LmGateway(
            backend=ScriptedBackend(ms_gold_responder(records, asserted)), cache=cache, record=True, concurrency=1
        )

        def compile_with(gateway):
            return compile_ms(records, index, gateway, demos_per_stage=2)

    live = compile_with(live_gateway)
    replayed = compile_with(LmGateway(backend=ReplayBackend(ReplayCache(cache.path)), concurrency=8))
    assert replayed == live


def test_compile_ms_pipeline_honours_a_demo_cap_above_twenty():
    records, corpus, asserted = synth_ms_dataset(28)
    gateway = LmGateway(backend=ScriptedBackend(ms_gold_responder(records, asserted)))
    _, reports = compile_ms_pipeline(
        default_ms_pipeline(build_index(corpus)), records[:24], records[24:], gateway,
        seed=1, n_candidates=2, demos_per_stage=21,
    )
    assert len(reports["flag"].candidates[1].demos["extract_choice"]) == 21
