"""Compilers: bootstrap demos from passing traces, then search over them.

``bootstrap_demos`` runs the zero-shot pipeline over the training set as its
own teacher and keeps each stage's (inputs, outputs-with-rationale) whenever
the run's metric clears the pass threshold. ``mipro_compile`` then samples
uniformly over (instruction x demo subset) per stage and scores each draw on
the validation set against a zero-demo baseline (candidate 0), so the winner
can never score below zero-shot; the Bayesian surrogate of the full method
is intentionally not reproduced. Both pipelines compile through it: ``uw``
adds LM-proposed instructions, ``ms`` keeps each stage's own instruction.
``random_search_compile`` is the same search over pools the caller holds.

The bootstrap, the instruction proposals and the search keep up to
``gateway.concurrency`` requests in flight and take results in a fixed
order, so calls, programs and reports do not depend on the concurrency.

Localization and correction compiles must only ever see error-containing
records; use :func:`error_records` when assembling their train/val sets.
Both pipeline compilers check that there are some before their first call.
"""

from __future__ import annotations

import json
import logging
import math
import random
from dataclasses import dataclass, replace
from importlib import resources
from typing import Callable, Mapping, Sequence

from .corpus import ClinicalRecord
from .errors import GatewayError, MedcorrError, ValidationError
from .gateway import LmGateway, Message
from .metrics import composite_score, rouge_l_f
from .pipelines import MsPipeline, Pipeline, Prediction, UwPipeline, map_ordered
from .program import Demo, Program, Signature, field_label

logger = logging.getLogger(__name__)

REPORT_FORMAT_VERSION = 1

DEFAULT_N_CANDIDATES = 16
DEFAULT_DEMOS_PER_STAGE = 20
DEFAULT_N_PROPOSALS = 5
BINARY_PASS_THRESHOLD = 1.0
ROUGE_PASS_THRESHOLD = 0.8

_PROPOSAL_TEMPLATE = resources.files("medcorr").joinpath("assets/instruction_proposal_v1.txt")


@dataclass(frozen=True)
class Metric:
    """Scores one (gold record, prediction) pair in [0, 1].

    ``pass_threshold`` is the bootstrap acceptance cutoff: 1.0 for binary
    metrics, lower for graded ones.
    """

    name: str
    fn: Callable[[ClinicalRecord, Prediction], float]
    pass_threshold: float = BINARY_PASS_THRESHOLD

    def __call__(self, gold: ClinicalRecord, prediction: Prediction) -> float:
        score = self.fn(gold, prediction)
        if not 0.0 <= score <= 1.0 or math.isnan(score):
            raise ValidationError(f"metric {self.name!r} returned {score}, outside [0, 1]")
        return score


def _require_gold(record: ClinicalRecord) -> None:
    if not record.labeled:
        raise ValidationError(f"record {record.record_id!r} has no gold labels")


def flag_match_metric(pass_threshold: float = BINARY_PASS_THRESHOLD) -> Metric:
    def fn(gold: ClinicalRecord, prediction: Prediction) -> float:
        _require_gold(gold)
        return 1.0 if prediction.flag == gold.gold_flag else 0.0

    return Metric("flag_match", fn, pass_threshold)


def sentence_match_metric(pass_threshold: float = BINARY_PASS_THRESHOLD) -> Metric:
    def fn(gold: ClinicalRecord, prediction: Prediction) -> float:
        _require_gold(gold)
        return 1.0 if prediction.error_sentence_id == gold.gold_error_sentence_id else 0.0

    return Metric("sentence_match", fn, pass_threshold)


def correction_rouge_l_metric(pass_threshold: float = ROUGE_PASS_THRESHOLD) -> Metric:
    def fn(gold: ClinicalRecord, prediction: Prediction) -> float:
        _require_gold(gold)
        assert gold.gold_correction is not None
        return composite_score(prediction.corrected_sentence, gold.gold_correction, rouge_l_f)

    return Metric("correction_rouge_l", fn, pass_threshold)


def error_records(records: Sequence[ClinicalRecord]) -> list[ClinicalRecord]:
    """The flag-1 subset localization/correction optimizers are allowed to see."""
    return [r for r in records if r.gold_flag == 1]


def _predict_scored(
    pipeline: Pipeline,
    record: ClinicalRecord,
    metric: Metric,
    gateway: LmGateway,
) -> tuple[Prediction | None, float]:
    """Run one record; pipeline/parse failures score 0, gateway errors propagate."""
    try:
        prediction = pipeline.predict(record, gateway)
    except GatewayError as exc:
        raise GatewayError(f"record {record.record_id!r}: {exc}") from exc
    except MedcorrError as exc:
        logger.debug("record %r failed during compile: %s", record.record_id, exc)
        return None, 0.0
    return prediction, metric(record, prediction)


def bootstrap_demos(
    pipeline: Pipeline,
    trainset: Sequence[ClinicalRecord],
    metric: Metric,
    max_demos: int,
    gateway: LmGateway,
    seed: int,
    stages: Sequence[str] | None = None,
) -> dict[str, list[Demo]]:
    """Capture per-stage demos from passing zero-shot traces.

    All target stages are captured simultaneously from the same pipeline
    run. Records are taken in a seeded shuffle of the training set until
    every pool holds ``max_demos`` demos. They are predicted in waves of
    ``min(gateway.concurrency, need)`` concurrent records, ``need`` being
    the most demos any pool still lacks, and accepted in shuffled order.
    A trace holds each stage at most once, so a record adds at most one
    demo to each pool and no wave reaches past the record where a
    one-at-a-time loop would stop: the predicted records, the backend
    calls and the pools are the same at any concurrency. The first
    exception in shuffled order propagates.
    """
    if max_demos < 1:
        raise ValidationError(f"max_demos must be >= 1, got {max_demos}")
    if not trainset:
        raise ValidationError("bootstrap needs a non-empty trainset")
    target_stages = tuple(stages) if stages is not None else pipeline.optimizable_stages
    unknown = set(target_stages) - set(pipeline.stages)
    if unknown:
        raise ValidationError(f"unknown stages {sorted(unknown)}")

    order = list(trainset)
    random.Random(seed).shuffle(order)
    pools: dict[str, list[Demo]] = {stage: [] for stage in target_stages}
    start = 0
    while start < len(order):
        need = max((max_demos - len(pool) for pool in pools.values()), default=0)
        if need <= 0:
            break
        wave = order[start : start + min(gateway.concurrency, need)]
        start += len(wave)
        outcomes = map_ordered(
            lambda record: _predict_scored(pipeline, record, metric, gateway), wave, gateway.concurrency
        )
        for record, (prediction, score) in zip(wave, outcomes):
            if prediction is None or score < metric.pass_threshold:
                continue
            for stage_trace in prediction.trace:
                pool = pools.get(stage_trace.stage)
                if pool is None or len(pool) >= max_demos:
                    continue
                pool.append(
                    Demo(
                        input_values=dict(stage_trace.inputs),
                        output_values=dict(stage_trace.outputs),
                        source_record_id=record.record_id,
                    )
                )
    for stage, pool in pools.items():
        if not pool:
            logger.warning(
                "bootstrap captured no demos for stage %r (metric %r); compiling zero-shot",
                stage,
                metric.name,
            )
    return pools


@dataclass(frozen=True)
class Candidate:
    candidate_id: int
    instructions: dict[str, str]
    demos: dict[str, tuple[Demo, ...]]
    validation_score: float

    def demo_sources(self) -> dict[str, list[str | None]]:
        return {stage: [d.source_record_id for d in demos] for stage, demos in self.demos.items()}


@dataclass(frozen=True)
class CompileReport:
    seed: int
    stages: tuple[str, ...]
    trainset_record_ids: tuple[str, ...]
    valset_record_ids: tuple[str, ...]
    candidates: tuple[Candidate, ...]
    per_example_scores: dict[int, tuple[float, ...]]

    @property
    def winner(self) -> Candidate:
        """The highest-scoring candidate; ties go to the lowest id."""
        return max(self.candidates, key=lambda c: (c.validation_score, -c.candidate_id))

    @property
    def winner_id(self) -> int:
        return self.winner.candidate_id

    def to_dict(self) -> dict:
        return {
            "format_version": REPORT_FORMAT_VERSION,
            "seed": self.seed,
            "stages": list(self.stages),
            "trainset_record_ids": list(self.trainset_record_ids),
            "valset_record_ids": list(self.valset_record_ids),
            "winner_id": self.winner_id,
            "candidates": [
                {
                    "candidate_id": c.candidate_id,
                    "instructions": dict(c.instructions),
                    "demo_sources": c.demo_sources(),
                    "n_demos": {stage: len(demos) for stage, demos in c.demos.items()},
                    "validation_score": c.validation_score,
                }
                for c in self.candidates
            ],
            "per_example_scores": {str(cid): list(scores) for cid, scores in self.per_example_scores.items()},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), ensure_ascii=False, indent=2, sort_keys=True)


def _candidate_pipeline(
    pipeline: Pipeline,
    instructions: Mapping[str, str],
    demos: Mapping[str, tuple[Demo, ...]],
) -> Pipeline:
    updates: dict[str, Program] = {}
    for stage, program in pipeline.stages.items():
        if stage not in instructions and stage not in demos:
            continue
        instruction = instructions.get(stage, program.signature.instruction)
        override = instruction if instruction != program.signature.instruction else None
        updates[stage] = replace(program, compiled_instruction=override, demos=demos.get(stage, ()))
    return pipeline.replace_stages(updates)


def _search(
    pipeline: Pipeline,
    stage_names: tuple[str, ...],
    space: Callable[[LmGateway], tuple[Mapping[str, Sequence[str]], Mapping[str, Sequence[Demo]]]],
    trainset_record_ids: tuple[str, ...],
    valset: Sequence[ClinicalRecord],
    metric: Metric,
    n_candidates: int,
    demos_per_stage: int,
    seed: int,
    gateway: LmGateway | None,
) -> tuple[Pipeline, CompileReport]:
    """The one search behind both compilers. After the checks, ``space``
    returns each stage's instruction proposals (the original first) and demo
    pool; it is the only step that may issue calls before scoring.

    Candidate 0 is each stage's original instruction with no demos; each
    later one draws, per stage, an instruction (only when there is a choice)
    and a demo subset. With no demo and no second instruction anywhere,
    candidate 0 is the only one. All (candidate, record) pairs share one
    pool of ``gateway.concurrency`` workers and scores are collected by
    index, so the report does not depend on completion order. The first
    gateway error in (candidate, record) order propagates.
    """
    if gateway is None:
        raise ValidationError("compile needs a gateway")
    if n_candidates < 1:
        raise ValidationError(f"n_candidates must be >= 1, got {n_candidates}")
    if not valset:
        raise ValidationError("compile needs a non-empty valset")
    proposals, pools = space(gateway)
    specs: list[tuple[dict[str, str], dict[str, tuple[Demo, ...]]]] = [
        ({stage: proposals[stage][0] for stage in stage_names}, {stage: () for stage in stage_names})
    ]
    rng = random.Random(seed)
    if any(pools[stage] or len(proposals[stage]) > 1 for stage in stage_names):
        for _ in range(1, n_candidates):
            instructions = {
                stage: rng.choice(proposals[stage]) if len(proposals[stage]) > 1 else proposals[stage][0]
                for stage in stage_names
            }
            demos = {
                stage: tuple(rng.sample(list(pools[stage]), min(demos_per_stage, len(pools[stage]))))
                for stage in stage_names
            }
            specs.append((instructions, demos))
    candidate_pipelines = [_candidate_pipeline(pipeline, instructions, demos) for instructions, demos in specs]
    pairs = [(candidate, record) for candidate in candidate_pipelines for record in valset]
    flat = map_ordered(
        lambda pair: _predict_scored(pair[0], pair[1], metric, gateway)[1], pairs, gateway.concurrency
    )
    candidates: list[Candidate] = []
    per_example: dict[int, tuple[float, ...]] = {}
    for candidate_id, (instructions, demos) in enumerate(specs):
        scores = tuple(flat[candidate_id * len(valset) : (candidate_id + 1) * len(valset)])
        per_example[candidate_id] = scores
        candidates.append(
            Candidate(
                candidate_id=candidate_id,
                instructions=instructions,
                demos=demos,
                validation_score=sum(scores) / len(scores),
            )
        )
    report = CompileReport(
        seed=seed,
        stages=stage_names,
        trainset_record_ids=trainset_record_ids,
        valset_record_ids=tuple(r.record_id for r in valset),
        candidates=tuple(candidates),
        per_example_scores=per_example,
    )
    winner = report.winner
    return _candidate_pipeline(pipeline, winner.instructions, winner.demos), report


def random_search_compile(
    pipeline: Pipeline,
    pools: Mapping[str, Sequence[Demo]],
    valset: Sequence[ClinicalRecord],
    metric: Metric,
    n_candidates: int = DEFAULT_N_CANDIDATES,
    demos_per_stage: int = DEFAULT_DEMOS_PER_STAGE,
    seed: int = 0,
    gateway: LmGateway | None = None,
) -> tuple[Pipeline, CompileReport]:
    """Seeded random search over demo subsets of ``pools``, each stage keeping
    its own instruction; the report lists the pooled demos' sorted sources."""
    stage_names = tuple(sorted(pools))
    proposals = {stage: [pipeline.stages[stage].signature.instruction] for stage in stage_names}
    trainset_record_ids = tuple(
        sorted({d.source_record_id for pool in pools.values() for d in pool if d.source_record_id})
    )
    return _search(
        pipeline, stage_names, lambda _: (proposals, pools), trainset_record_ids, valset, metric,
        n_candidates, demos_per_stage, seed, gateway,
    )


def _render_demo_lines(signature: Signature, demos: Sequence[Demo]) -> str:
    if not demos:
        return "(none)"
    blocks = []
    for demo in demos:
        lines = [
            f"{field_label(name)}: {demo.input_values[name]}"
            for name in signature.input_names()
            if name in demo.input_values
        ]
        lines.extend(
            f"{field_label(name)}: {value}"
            for name, value in demo.output_values.items()
        )
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)


def propose_instructions(
    signature: Signature,
    sample_demos: Sequence[Demo],
    gateway: LmGateway,
    n_proposals: int = DEFAULT_N_PROPOSALS,
) -> list[str]:
    """LM-written instruction candidates; the original is always proposal 0.

    The ``n_proposals`` calls run concurrently; answers are deduplicated in
    variant order, so the list does not depend on completion order."""
    if n_proposals < 1:
        raise ValidationError(f"n_proposals must be >= 1, got {n_proposals}")
    template = _PROPOSAL_TEMPLATE.read_text(encoding="utf-8")
    prompts = [
        template.format(
            name=signature.name,
            instruction=signature.instruction,
            input_fields="\n".join(f"- {field_label(f.name)}: {f.description}" for f in signature.inputs),
            output_fields="\n".join(f"- {field_label(f.name)}: {f.description}" for f in signature.outputs),
            demos=_render_demo_lines(signature, sample_demos),
            variant=variant,
        )
        for variant in range(1, n_proposals + 1)
    ]
    texts = map_ordered(
        lambda prompt: gateway.complete_messages([Message("user", prompt)]).text.strip(), prompts, gateway.concurrency
    )
    proposals = [signature.instruction]
    for text in texts:
        if text and text not in proposals:
            proposals.append(text)
    if len(proposals) == 1:
        logger.warning("all instruction proposals for %r were empty or duplicates", signature.name)
    return proposals


def mipro_compile(
    pipeline: Pipeline,
    trainset: Sequence[ClinicalRecord],
    valset: Sequence[ClinicalRecord],
    metric: Metric,
    budget: tuple[int, int] = (DEFAULT_N_PROPOSALS, DEFAULT_N_CANDIDATES),
    seed: int = 0,
    gateway: LmGateway | None = None,
    demos_per_stage: int = DEFAULT_DEMOS_PER_STAGE,
    stages: Sequence[str] | None = None,
) -> tuple[Pipeline, CompileReport]:
    """Joint search over LM-proposed instructions and bootstrapped demo subsets.

    Candidate 0 is always (original instruction, zero demos). A budget of
    (1, 1) degenerates to that baseline without issuing bootstrap or
    proposal calls; (1, n) searches demo subsets only. The report lists
    ``trainset``'s ids in order.
    """
    n_proposals, n_candidates = budget
    if n_proposals < 1 or n_candidates < 1:
        raise ValidationError(f"budget components must be >= 1, got {budget}")
    stage_names = tuple(sorted(stages if stages is not None else pipeline.optimizable_stages))
    unknown = set(stage_names) - set(pipeline.stages)
    if unknown:
        raise ValidationError(f"unknown stages {sorted(unknown)}")

    def space(gateway: LmGateway) -> tuple[dict[str, list[str]], dict[str, list[Demo]]]:
        pools: dict[str, list[Demo]] = {stage: [] for stage in stage_names}
        proposals = {stage: [pipeline.stages[stage].signature.instruction] for stage in stage_names}
        if n_candidates > 1:
            pools = bootstrap_demos(pipeline, trainset, metric, demos_per_stage, gateway, seed, stages=stage_names)
            if n_proposals > 1:
                for stage in stage_names:
                    proposals[stage] = propose_instructions(
                        pipeline.stages[stage].signature,
                        pools[stage][:3],
                        gateway,
                        n_proposals - 1,
                    )
        return proposals, pools

    return _search(
        pipeline, stage_names, space, tuple(r.record_id for r in trainset), valset, metric,
        n_candidates, demos_per_stage, seed, gateway,
    )


def compile_ms_pipeline(
    pipeline: MsPipeline,
    trainset: Sequence[ClinicalRecord],
    valset: Sequence[ClinicalRecord],
    gateway: LmGateway,
    seed: int = 0,
    n_candidates: int = DEFAULT_N_CANDIDATES,
    demos_per_stage: int = DEFAULT_DEMOS_PER_STAGE,
    rouge_pass_threshold: float = ROUGE_PASS_THRESHOLD,
    binary_pass_threshold: float = BINARY_PASS_THRESHOLD,
) -> tuple[MsPipeline, dict[str, CompileReport]]:
    """Two-phase compile: extract+compare jointly on the error flag, then
    the corrector on ROUGE-L over error-containing records only. Each phase
    is a demo-subset search that keeps every stage's own instruction.

    The localize stage is deliberately left uncompiled.
    """
    train_errors, val_errors = error_records(trainset), error_records(valset)
    if not train_errors or not val_errors:
        raise ValidationError("ms correction compile needs error-containing records in train and val")
    budget = (1, n_candidates)
    flag_compiled, flag_report = mipro_compile(
        pipeline, trainset, valset, flag_match_metric(binary_pass_threshold), budget, seed, gateway,
        demos_per_stage, stages=("extract_choice", "compare_answer"),
    )
    compiled, correct_report = mipro_compile(
        flag_compiled, train_errors, val_errors, correction_rouge_l_metric(rouge_pass_threshold),
        budget, seed, gateway, demos_per_stage, stages=("correct",),
    )
    return compiled, {"flag": flag_report, "correction": correct_report}  # type: ignore[return-value]


def compile_uw_pipeline(
    pipeline: UwPipeline,
    trainset: Sequence[ClinicalRecord],
    valset: Sequence[ClinicalRecord],
    gateway: LmGateway,
    seed: int = 0,
    budget: tuple[int, int] = (DEFAULT_N_PROPOSALS, DEFAULT_N_CANDIDATES),
    demos_per_stage: int = DEFAULT_DEMOS_PER_STAGE,
    rouge_pass_threshold: float = ROUGE_PASS_THRESHOLD,
    binary_pass_threshold: float = BINARY_PASS_THRESHOLD,
) -> tuple[UwPipeline, dict[str, CompileReport]]:
    """Per-stage joint instruction+demo search: detection on the full split,
    localization and correction on the error-containing subset only."""
    train_errors, val_errors = error_records(trainset), error_records(valset)
    if not train_errors or not val_errors:
        raise ValidationError("uw localize/correct compile needs error-containing records in train and val")
    reports: dict[str, CompileReport] = {}
    compiled, reports["detect"] = mipro_compile(
        pipeline, trainset, valset, flag_match_metric(binary_pass_threshold), budget, seed, gateway,
        demos_per_stage, stages=("detect",),
    )
    compiled, reports["localize"] = mipro_compile(
        compiled, train_errors, val_errors, sentence_match_metric(binary_pass_threshold),
        budget, seed, gateway, demos_per_stage, stages=("localize",),
    )
    compiled, reports["correct"] = mipro_compile(
        compiled, train_errors, val_errors, correction_rouge_l_metric(rouge_pass_threshold),
        budget, seed, gateway, demos_per_stage, stages=("correct",),
    )
    return compiled, reports  # type: ignore[return-value]
