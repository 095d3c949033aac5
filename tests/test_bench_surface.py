"""The library surface that the benchmark harness (``perfbench/run.py``) binds by name.

The harness counts and traces calls by replacing attributes it looks up by
name, so a refactor that moves or renames one of them breaks the benchmark
without breaking any other test.
"""

from __future__ import annotations

import inspect
from collections import Counter

import pytest

from medcorr import cli, corpus, gateway, metrics, optimize, pipelines, program, retrieval

from helpers import ms_gold_responder, synth_ms_dataset, synth_uw_records, uw_gold_responder


def test_each_pipeline_defines_predict_in_its_own_class_body():
    # the call counter replaces cls.__dict__["predict"] on every run
    assert "predict" in pipelines.MsPipeline.__dict__
    assert "predict" in pipelines.UwPipeline.__dict__


def test_pipelines_call_the_module_bindings_the_tracer_wraps():
    assert pipelines.run is program.run
    assert pipelines.query is retrieval.query
    assert pipelines.rouge_l_f is optimize.rouge_l_f is metrics.rouge_l_f


def test_program_run_calls_the_render_and_parse_bindings_the_tracer_wraps(monkeypatch):
    # the traced program.render_us and program.parse_us read 0 if run stops
    # looking these up as module attributes
    calls = []
    for name in ("render_messages", "parse_completion"):
        def counted(*args, _original=getattr(program, name), _name=name, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(program, name, counted)
    records = synth_uw_records(1)
    gw = gateway.LmGateway(backend=gateway.ScriptedBackend(uw_gold_responder(records)))
    detect = pipelines.default_uw_pipeline().detect
    program.run(detect, {"clinical_text": pipelines.render_numbered_text(records[0])}, gw, "detect")
    assert calls == ["render_messages", "parse_completion"]


def test_names_the_harness_looks_up_exist():
    wrapped = {
        corpus: ("parse_clinical_records", "parse_mcq_corpus"),
        gateway: ("canonical_key", "LmGateway", "ScriptedBackend", "ReplayCache"),
        program: ("run", "render_messages", "parse_completion", "program_to_json"),
        pipelines: ("predict_batch", "quality_gate", "serialize_predictions", "serialize_traces",
                    "default_uw_pipeline", "default_ms_pipeline"),
        retrieval: ("build_index", "save_index", "load_index", "query"),
        optimize: ("mipro_compile", "random_search_compile", "bootstrap_demos", "propose_instructions",
                   "compile_uw_pipeline", "compile_ms_pipeline"),
        metrics: ("evaluate", "rouge_l_f"),
        cli: ("load_config", "build_gateway", "run_command"),
    }
    for module, names in wrapped.items():
        for name in names:
            assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"
    for cls, method in ((gateway.LmGateway, "complete"), (gateway.ReplayCache, "get"), (gateway.ReplayCache, "append")):
        assert callable(getattr(cls, method, None)), f"{cls.__name__}.{method}"


def test_replay_cache_init_itself_loads_the_file(tmp_path):
    # The traced gateway.cache_load_s times ReplayCache.__init__; a load
    # moved out of it, say deferred to the first get, would read 0 there.
    path = tmp_path / "cache.jsonl"
    request = gateway.LmRequest(model="m", messages=(gateway.Message("user", "Say hi."),))
    gateway.ReplayCache(path).append(request, gateway.LmResponse(text="hi"))
    cache = gateway.ReplayCache(path)
    path.unlink()
    assert len(cache) == 1 and cache.get(gateway.canonical_key(request)).text == "hi"


def test_every_key_lookup_calls_the_module_canonical_key_the_tracer_wraps(monkeypatch, tmp_path):
    # gateway.key_us samples one span per call of gateway.canonical_key, so it
    # reads 8,200 samples on uw-replay only while every lookup, a replayed one
    # included, looks the key function up as a module attribute, once per
    # request object
    keyed = []

    def counted(request, _original=gateway.canonical_key):
        keyed.append(request)
        return _original(request)

    def build(i):
        return gateway.LmRequest(model="m", messages=(gateway.Message("user", f"Call {i}."),))

    monkeypatch.setattr(gateway, "canonical_key", counted)

    def check(gw):
        # built anew per call, as program.run builds them; the last is a cache hit
        lookups = [build(0), build(1), build(2), build(0)]
        keyed.clear()
        for request in lookups:
            gw.complete(request)
        assert keyed == lookups
        # the same request object completed twice is keyed once
        keyed.clear()
        request = build(1)
        gw.complete(request)
        gw.complete(request)
        assert keyed == [request]

    path = tmp_path / "cache.jsonl"
    check(gateway.LmGateway(
        backend=gateway.ScriptedBackend(lambda request: "ok"), cache=gateway.ReplayCache(path), record=True
    ))
    check(gateway.LmGateway(backend=gateway.ReplayBackend(gateway.ReplayCache(path))))


def test_compile_entry_points_accept_the_benchmark_keywords():
    positional = (None, None, None, None)  # pipeline, trainset, valset, gateway
    thresholds = {"rouge_pass_threshold": 0.8, "binary_pass_threshold": 1.0}
    inspect.signature(optimize.compile_uw_pipeline).bind(
        *positional, seed=0, budget=(1, 1), demos_per_stage=1, **thresholds
    )
    inspect.signature(optimize.compile_ms_pipeline).bind(
        *positional, seed=0, n_candidates=1, demos_per_stage=1, **thresholds
    )


@pytest.mark.parametrize("name", ["ms", "uw"])
def test_compile_steps_carry_the_pipeline_and_metric_where_the_tracer_reads_them(monkeypatch, name):
    # perfbench's tracer notes (type(args[0]), args[i].name) positionally:
    # i is 3 for the searches and 2 for bootstrap_demos
    metric_index = {"mipro_compile": 3, "random_search_compile": 3, "bootstrap_demos": 2}
    expected = pipelines.MsPipeline if name == "ms" else pipelines.UwPipeline
    seen = []
    for attr, index in metric_index.items():
        def traced(*args, _original=getattr(optimize, attr), _attr=attr, _index=index, **kwargs):
            assert type(args[0]) is expected, _attr
            assert isinstance(args[_index], optimize.Metric), _attr
            seen.append(_attr)
            return _original(*args, **kwargs)

        monkeypatch.setattr(optimize, attr, traced)
    if name == "ms":
        records, mcqs, asserted = synth_ms_dataset(8)
        backend = gateway.ScriptedBackend(ms_gold_responder(records, asserted))
        optimize.compile_ms_pipeline(
            pipelines.default_ms_pipeline(retrieval.build_index(mcqs)), records[:5], records[5:],
            gateway.LmGateway(backend=backend), n_candidates=2, demos_per_stage=1,
        )
    else:
        records = synth_uw_records(8)
        optimize.compile_uw_pipeline(
            pipelines.default_uw_pipeline(), records[:5], records[5:],
            gateway.LmGateway(backend=gateway.ScriptedBackend(uw_gold_responder(records))),
            budget=(1, 2), demos_per_stage=1,
        )
    assert seen.count("mipro_compile") == seen.count("bootstrap_demos") == (2 if name == "ms" else 3)


@pytest.mark.parametrize("name", ["ms", "uw"])
def test_compiles_score_every_record_through_the_predict_the_harness_wraps(monkeypatch, name):
    # The harness counts failed_frac by replacing cls.__dict__["predict"]; a
    # compile that scored records another way would leave it blind.
    scored = []
    for cls in (pipelines.MsPipeline, pipelines.UwPipeline):
        def counted(pipeline, record, gw, _original=cls.__dict__["predict"]):
            scored.append((type(pipeline), record.record_id))
            return _original(pipeline, record, gw)

        monkeypatch.setattr(cls, "predict", counted)
    if name == "ms":
        records, mcqs, asserted = synth_ms_dataset(10)
        expected = pipelines.MsPipeline
        _, reports = optimize.compile_ms_pipeline(
            pipelines.default_ms_pipeline(retrieval.build_index(mcqs)), records[:6], records[6:],
            gateway.LmGateway(backend=gateway.ScriptedBackend(ms_gold_responder(records, asserted))),
            n_candidates=3, demos_per_stage=2,
        )
    else:
        records = synth_uw_records(10)
        expected = pipelines.UwPipeline
        _, reports = optimize.compile_uw_pipeline(
            pipelines.default_uw_pipeline(), records[:6], records[6:],
            gateway.LmGateway(backend=gateway.ScriptedBackend(uw_gold_responder(records))),
            budget=(2, 3), demos_per_stage=2,
        )
    val_ids = {r.record_id for r in records[6:]}
    per_candidate = Counter(
        record_id for report in reports.values() for _ in report.candidates for record_id in report.valset_record_ids
    )
    assert Counter(record_id for _, record_id in scored if record_id in val_ids) == per_candidate
    assert any(record_id not in val_ids for _, record_id in scored)  # the bootstrap's records
    assert {cls for cls, _ in scored} == {expected}


def test_evaluate_reports_the_quality_fields_the_harness_pools():
    # pooled_quality reads flag_accuracy, sentence_accuracy and composite_means["rouge_l_f"]
    records = synth_uw_records(6)
    gw = gateway.LmGateway(backend=gateway.ScriptedBackend(uw_gold_responder(records)))
    predictions = pipelines.predict_batch(pipelines.default_uw_pipeline(), records, gw)
    assert records[1].gold_flag == 0
    predictions[1] = pipelines.Prediction(records[1].record_id, 1, 0, "Spurious fix.")
    report = metrics.evaluate(predictions, records)
    quality = (report.flag_accuracy, report.sentence_accuracy, report.composite_means["rouge_l_f"])
    assert quality == (5 / 6, 5 / 6, 5 / 6)
