"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints a single ``[acceptance] criterion NN PASS/FAIL`` line
(visible with ``pytest -s`` or in captured output). The whole-suite runtime
budget is asserted separately in test_zz_runtime.py, which is collected last.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from pathlib import Path

from medcorr.cli import run_command
from medcorr.corpus import parse_clinical_records, split_dataset
from medcorr.gateway import LmGateway, ScriptedBackend
from medcorr.metrics import aggregate_score, composite_score, evaluate, rouge1_f, rouge_l_f
from medcorr.corpus import NA
from medcorr.optimize import (
    bootstrap_demos,
    compile_ms_pipeline,
    compile_uw_pipeline,
    flag_match_metric,
    random_search_compile,
)
from medcorr.pipelines import default_ms_pipeline, default_uw_pipeline, predict_batch, quality_gate
from medcorr.retrieval import build_index, document_text, query, tokenize

from helpers import (
    magic_demo_setup,
    make_mcq,
    ms_gold_responder,
    record_no_error,
    record_with_error,
    synth_ms_dataset,
    synth_uw_records,
    uw_gold_responder,
)
from oracles import rouge1_oracle, rouge_l_oracle

FIXTURES = Path(__file__).parent / "fixtures"


@contextmanager
def criterion(number: int, description: str):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number:02d} FAIL  {description}")
        raise
    elapsed = time.monotonic() - started
    print(f"[acceptance] criterion {number:02d} PASS  {description} ({elapsed:.2f}s)")


def test_criterion_01_metric_oracle_equivalence():
    with criterion(1, "rouge oracles agree on 200 random pairs, exact to 1e-9, < 5 s"):
        started = time.monotonic()
        vocab = "pain chest aspirin fever cough dose renal note left right acute mild".split()
        rng = random.Random(424242)
        checked = 0
        for _ in range(200):
            cand_tokens = [rng.choice(vocab) for _ in range(rng.randint(0, 12))]
            ref_tokens = [rng.choice(vocab) for _ in range(rng.randint(0, 12))]
            cand, ref = " ".join(cand_tokens), " ".join(ref_tokens)
            assert abs(rouge_l_f(cand, ref) - rouge_l_oracle(tokenize(cand), tokenize(ref))) <= 1e-9
            assert abs(rouge1_f(cand, ref) - rouge1_oracle(tokenize(cand), tokenize(ref))) <= 1e-9
            checked += 1
        assert checked == 200
        assert time.monotonic() - started < 5.0


def test_criterion_02_composite_rules_exactness():
    with criterion(2, "NA composite rules exhaustive + composite == base on 50 non-NA pairs"):
        assert composite_score(NA, NA, rouge_l_f) == 1.0
        assert composite_score(NA, "a sentence", rouge_l_f) == 0.0
        assert composite_score("a sentence", NA, rouge_l_f) == 0.0
        assert composite_score("left knee pain", "left knee pain", rouge_l_f) == rouge_l_f(
            "left knee pain", "left knee pain"
        )
        vocab = "alpha beta gamma delta epsilon zeta".split()
        rng = random.Random(7)
        for _ in range(50):
            cand = " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 8)))
            ref = " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 8)))
            for base in (rouge_l_f, rouge1_f):
                assert composite_score(cand, ref, base) == base(cand, ref)


def test_criterion_03_aggregate_mean_check():
    with criterion(3, "aggregate of (0.776, 0.809, 0.783) equals 0.7893 +/- 5e-4"):
        assert abs(aggregate_score([0.776, 0.809, 0.783]) - 0.7893) <= 5e-4


def test_criterion_04_retrieval_correctness():
    with criterion(4, "self-retrieval rank-1 at 1.0 on 50 docs; sparse == dense within 1e-9"):
        import math

        rng = random.Random(99)
        vocab = (
            "fever cough rash tremor edema anemia sepsis stroke dyspnea syncope "
            "nausea fatigue pruritus vertigo myalgia"
        ).split()
        corpus = [
            make_mcq(
                " ".join(rng.choice(vocab) for _ in range(rng.randint(3, 9))) + f" case{i}",
                {"A": rng.choice(vocab), "B": rng.choice(vocab) + " alt"},
                "A",
            )
            for i in range(50)
        ]
        index = build_index(corpus)
        for doc_id, mcq in enumerate(index.corpus):
            hits = query(index, document_text(mcq), k=1)
            assert hits[0].doc_id == doc_id
            assert abs(hits[0].score - 1.0) <= 1e-9

        # dense brute-force oracle over the same pinned weighting
        docs = [document_text(m) for m in index.corpus]
        terms = sorted({t for d in docs for t in tokenize(d)})
        df = {t: sum(1 for d in docs if t in tokenize(d)) for t in terms}
        idf = {t: math.log(len(docs) / df[t]) + 1.0 for t in terms}

        def dense(text: str) -> list[float]:
            tokens = tokenize(text)
            return [tokens.count(t) * idf[t] for t in terms]

        for query_text in (docs[3], "fever tremor sepsis", "case7 vertigo"):
            q = dense(query_text)
            q_norm = math.sqrt(sum(x * x for x in q))
            hits = {h.doc_id: h.score for h in query(index, query_text, k=50)}
            for doc_id, doc in enumerate(docs):
                v = dense(doc)
                v_norm = math.sqrt(sum(x * x for x in v))
                expected = (
                    sum(a * b for a, b in zip(q, v)) / (q_norm * v_norm)
                    if q_norm and v_norm
                    else 0.0
                )
                assert abs(hits[doc_id] - expected) <= 1e-9


def test_criterion_05_deterministic_end_to_end(tmp_path):
    with criterion(5, "replayed predict over the bundled 10-record set is byte-identical, < 10 s"):
        started = time.monotonic()
        config = tmp_path / "config.yaml"
        config.write_text(
            f"gateway:\n  backend: replay\n  cache_path: {FIXTURES / 'replay_cache.jsonl'}\n",
            encoding="utf-8",
        )
        outputs = []
        for name in ("run1.csv", "run2.csv"):
            out = tmp_path / name
            code = run_command(
                [
                    "predict", "--pipeline", "uw",
                    "--records", str(FIXTURES / "clinical_10.csv"),
                    "--out", str(out), "--config", str(config), "--strict",
                ]
            )
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert outputs[0] == (FIXTURES / "predictions_golden.csv").read_bytes()
        assert time.monotonic() - started < 10.0


def test_criterion_06_oracle_lm_pipeline_sanity():
    with criterion(6, "gold-scripted MS and UW pipelines score 1.0 on both subtasks, < 10 s"):
        started = time.monotonic()

        uw_records = synth_uw_records(20)
        uw_gateway = LmGateway(backend=ScriptedBackend(uw_gold_responder(uw_records)))
        uw_predictions = predict_batch(default_uw_pipeline(), uw_records, uw_gateway, concurrency=4)
        uw_report = evaluate(uw_predictions, uw_records)
        assert uw_report.flag_accuracy == 1.0
        assert uw_report.sentence_accuracy == 1.0

        ms_records, corpus, asserted = synth_ms_dataset(20)
        ms_pipeline = default_ms_pipeline(build_index(corpus))
        ms_gateway = LmGateway(backend=ScriptedBackend(ms_gold_responder(ms_records, asserted)))
        ms_predictions = predict_batch(ms_pipeline, ms_records, ms_gateway, concurrency=4)
        ms_report = evaluate(ms_predictions, ms_records)
        assert ms_report.flag_accuracy == 1.0
        assert ms_report.sentence_accuracy == 1.0

        assert time.monotonic() - started < 10.0


def test_criterion_07_quality_gate_contract():
    with criterion(7, "gate passes at 0.8 and at the 0.7 boundary, rejects at 0.0"):
        original = "one two three four five six seven eight nine ten"
        replaced_two = "one two swap four five six swap eight nine ten"
        assert abs(rouge_l_f(replaced_two, original) - 0.8) <= 1e-9
        assert quality_gate(original, replaced_two, 0.7) == (replaced_two, False)

        disjoint = "totally different words entirely"
        assert rouge_l_f(disjoint, original) == 0.0
        assert quality_gate(original, disjoint, 0.7) == (original, True)

        boundary = "one two three four five six seven swap swap swap"
        assert abs(rouge_l_f(boundary, original) - 0.7) <= 1e-12
        assert quality_gate(original, boundary, 0.7) == (boundary, False)


def test_criterion_08_compiled_beats_uncompiled():
    with criterion(8, "winner strictly beats zero-shot, never below it over 20 seeds, < 30 s"):
        started = time.monotonic()
        train, val, gateway = magic_demo_setup()
        pipeline = default_uw_pipeline()
        metric = flag_match_metric()
        pools = bootstrap_demos(pipeline, [train], metric, 20, gateway, seed=0)

        _, first_report = random_search_compile(
            pipeline, pools, val, metric, n_candidates=4, seed=0, gateway=gateway
        )
        baseline = next(c for c in first_report.candidates if c.candidate_id == 0)
        assert first_report.winner.validation_score > baseline.validation_score

        for seed in range(20):
            _, report = random_search_compile(
                pipeline, pools, val, metric, n_candidates=4, seed=seed, gateway=gateway
            )
            zero_shot = next(c for c in report.candidates if c.candidate_id == 0)
            assert report.winner.validation_score >= zero_shot.validation_score
            assert report.winner.validation_score == max(
                c.validation_score for c in report.candidates
            )
        assert time.monotonic() - started < 30.0


def test_criterion_09_optimizer_filters():
    with criterion(9, "localize/correct compiles never touch flag-0 records"):
        uw_records = synth_uw_records(12)
        flag0 = {r.record_id for r in uw_records if r.gold_flag == 0}
        gateway = LmGateway(backend=ScriptedBackend(uw_gold_responder(uw_records)))
        _, uw_reports = compile_uw_pipeline(
            default_uw_pipeline(), uw_records[:8], uw_records[8:], gateway,
            seed=3, budget=(2, 3), demos_per_stage=3,
        )
        for stage in ("localize", "correct"):
            report = uw_reports[stage]
            assert set(report.trainset_record_ids).isdisjoint(flag0)
            for candidate in report.candidates:
                for sources in candidate.demo_sources().values():
                    assert flag0.isdisjoint({s for s in sources if s})

        ms_records, corpus, asserted = synth_ms_dataset(12)
        ms_flag0 = {r.record_id for r in ms_records if r.gold_flag == 0}
        ms_gateway = LmGateway(backend=ScriptedBackend(ms_gold_responder(ms_records, asserted)))
        _, ms_reports = compile_ms_pipeline(
            default_ms_pipeline(build_index(corpus)), ms_records[:8], ms_records[8:], ms_gateway,
            seed=3, n_candidates=3, demos_per_stage=3,
        )
        correction = ms_reports["correction"]
        assert set(correction.trainset_record_ids).isdisjoint(ms_flag0)
        for candidate in correction.candidates:
            for sources in candidate.demo_sources().values():
                assert ms_flag0.isdisjoint({s for s in sources if s})


def test_criterion_10_split_exactness():
    with criterion(10, "160 records split (80, 40, 40): exact, disjoint, seed-stable"):
        records = []
        for i in range(160):
            if i % 4 == 0:
                records.append(
                    record_with_error(f"s{i:03d}", [f"Line {i} alpha.", f"Line {i} beta."], 1, f"Fixed {i}.")
                )
            else:
                records.append(record_no_error(f"s{i:03d}", [f"Line {i} alpha."]))
        first = split_dataset(records, (80, 40, 40), seed=17)
        second = split_dataset(records, (80, 40, 40), seed=17)
        assert first == second
        parts = (first.train, first.validation, first.test)
        assert tuple(len(p) for p in parts) == (80, 40, 40)
        ids = [r.record_id for part in parts for r in part]
        assert len(set(ids)) == 160
        assert sorted(ids) == sorted(r.record_id for r in records)
