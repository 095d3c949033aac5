#!/usr/bin/env python3
"""medcorr benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload compile --seed 1 --seconds 12 --trace 0

Run from the root of a medcorr checkout; the library is imported from
``./src``. The run generates its inputs from ``--seed``, prepares caches and
indexes, then repeats set-up plus the timed phase for about ``--seconds``
seconds and reports medians. Every repetition is checked against the
generator's answer key and against the others; the last stdout line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
untraced and traced repetitions alternate and the metrics are the per-layer
ones, measured from spans recorded around calls into each module.

Input preparation (generation, index build, cache recording) runs in a child
process, so the measuring process's peak memory covers only the library's
set-up and timed phase.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import pickle
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import gen
from tracer import Tracer, distribution, union_length

LAYERS = ("gateway", "program", "pipelines", "retrieval", "optimize", "metrics", "corpus")
QUALITY = ("flag_accuracy", "sentence_accuracy", "correction_rouge_l")
MIN_REPETITIONS = 2
SETUPS = 3  # timed set-ups per repetition; setup_s is their median over the run
PREPARED = "prepared.pickle"
NPROC = len(os.sched_getaffinity(0))

# Stages each compile metric reads; backend calls to any other stage during
# that phase are downstream work the metric never looks at.
METRIC_READS = {
    ("UwPipeline", "flag_match"): {"detect"},
    ("UwPipeline", "sentence_match"): {"detect", "localize"},
    ("MsPipeline", "flag_match"): {"extract_choice", "compare_answer"},
}


def import_medcorr(root: Path):
    package = root / "src" / "medcorr"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no medcorr sources at {package}; run from the root of a medcorr checkout")
    sys.path.insert(0, str(root / "src"))
    import medcorr

    if Path(medcorr.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported medcorr from {medcorr.__file__}, not from {package}")
    from medcorr import cli, corpus, gateway, metrics, optimize, pipelines, program, retrieval

    return {
        "cli": cli, "corpus": corpus, "gateway": gateway, "metrics": metrics,
        "optimize": optimize, "pipelines": pipelines, "program": program, "retrieval": retrieval,
    }


# --- the backend wrapper and the predict counter ---------------------------------------


def stage_of(contents: tuple[str, ...]) -> str:
    """The stage a request's message contents belong to."""
    if len(contents) == 1:
        return "propose"
    label = contents[0].rsplit("\n", 1)[-1].split(":", 1)[0] + ":"
    return gen.STAGE_BY_LABEL.get(label, "other")


class CountingBackend:
    """Wraps the backend the gateway would call and logs every request that
    reaches it. With ``latency`` it sleeps the scripted model latency; when a
    tracer is attached it records a span per call and the in-flight depth.

    The log holds each request's payload as nested tuples of strings, which
    the collector stops tracking, rather than the request objects: those
    would add about a quarter to the objects every collection in the timed
    phase walks.

    The span's layer is ``lm`` for the scripted model, which stands in for
    the remote endpoint, and ``gateway`` for the replay backend."""

    def __init__(self, inner, latency: bool, tracer: Tracer | None):
        self.inner = inner
        self.tag = inner.tag
        self.latency = latency
        self.tracer = tracer
        self.layer = "lm" if latency else "gateway"
        self.log: list[tuple] = []
        self._lock = threading.Lock()
        self.inflight = self.inflight_max = 0

    def complete(self, request):
        contents = tuple([m.content for m in request.messages])
        span = None
        if self.tracer is not None:
            span = self.tracer.open("gateway.backend", self.layer)
            span.note = stage_of(contents)
            with self._lock:
                self.inflight += 1
                self.inflight_max = max(self.inflight_max, self.inflight)
        try:
            response = self.inner.complete(request)
            if self.latency:
                time.sleep(gen.latency_s(response.prompt_tokens, contents[-1]))
        finally:
            if span is not None:
                with self._lock:
                    self.inflight -= 1
                self.tracer.close(span)
        self.log.append((contents, tuple([m.role for m in request.messages]),
                         request.model, request.temperature, request.top_p, request.max_tokens))
        return response

    def counts(self) -> dict[str, int]:
        stages: dict[str, int] = {}
        seen: set[tuple] = set()
        repeats = tokens = chars = 0
        for payload in self.log:
            contents = payload[0]
            stage = stage_of(contents)
            stages[stage] = stages.get(stage, 0) + 1
            tokens += sum(len(c.split()) for c in contents)
            chars += sum(len(c) for c in contents)
            repeats += payload in seen
            seen.add(payload)
        return {
            "lm_calls": len(self.log), "prompt_tokens": tokens, "prompt_chars": chars,
            "repeat_requests": repeats,
            **{f"stage.{s}": n for s, n in sorted(stages.items())},
        }


class PredictCounter:
    """Counts pipeline predict calls and the ones that raised, at the
    ``predict`` method both ``predict_batch`` and the compilers call.

    ``list.append`` is atomic under the interpreter lock; a ``threading.Lock``
    here would make pool threads hand the interpreter lock back and forth and
    slow down the very calls being counted.
    """

    def __init__(self, pipelines):
        self.calls: list[None] = []
        self.raised: list[None] = []
        for cls in (pipelines.MsPipeline, pipelines.UwPipeline):
            setattr(cls, "predict", self._wrap(cls.__dict__["predict"]))

    def _wrap(self, original):
        calls, raised = self.calls, self.raised

        def predict(pipeline, record, gateway):
            calls.append(None)
            try:
                return original(pipeline, record, gateway)
            except BaseException:
                raised.append(None)
                raise

        return predict

    def take(self) -> tuple[int, int]:
        """Counts since the last call; call only while no predict is running."""
        taken = (len(self.calls), len(self.raised))
        self.calls.clear()
        self.raised.clear()
        return taken


# --- workloads -------------------------------------------------------------------------


class Workload:
    """``prepare`` once, in a child process; then each repetition is ``setup``
    (timed as setup_s) followed by ``run`` (timed as wall_s)."""

    name = ""
    live = False  # whether the scripted model with latency replaces the configured backend
    # What ``prepare`` sets that the measuring process needs; the rest stays in the child.
    keep: tuple[str, ...] = ("config_path", "cache_path", "prep")

    def __init__(self, lib: dict, work: Path, seed: int):
        self.lib = lib
        self.work = work
        self.seed = seed
        self.rng = random.Random(seed)
        self.prep: dict[str, float] = {"build_s": 0.0, "save_s": 0.0, "index_bytes": 0}

    def reset(self) -> None:
        """Undo what the previous repetition left behind, before set-up starts."""

    def write_config(self, text: str) -> Path:
        path = self.work / "medcorr.yaml"
        path.write_text(text, encoding="utf-8")
        return path

    def parse(self, path: Path):
        return self.lib["corpus"].parse_clinical_records(path.read_bytes(), format="delimited-table")

    def build_index(self, mcqs: list[gen.Mcq], path: Path):
        corpus, retrieval = self.lib["corpus"], self.lib["retrieval"]
        corpus_path = self.work / "mcq.jsonl"
        corpus_path.write_text(gen.mcq_jsonl(mcqs), encoding="utf-8")
        parsed = corpus.parse_mcq_corpus(corpus_path.read_bytes())
        t0 = time.perf_counter()
        index = retrieval.build_index(parsed)
        t1 = time.perf_counter()
        retrieval.save_index(index, path)
        t2 = time.perf_counter()
        self.prep.update(build_s=t1 - t0, save_s=t2 - t1, index_bytes=path.stat().st_size)
        return index

    def ranks_source_first(self, index):
        """Whether retrieval puts a generated note's source question first."""
        query = self.lib["retrieval"].query
        return lambda case: query(index, "\n".join(case.sentences), k=1)[0].doc_id == case.mcq_id

    def record(self, config_path: Path, pipeline, records, oracle: gen.Oracle, cache_path: Path):
        """Run ``pipeline`` over ``records`` against the scripted model, appending every response to ``cache_path``."""
        lib = self.lib
        cfg = lib["cli"].load_config(config_path).gateway
        gateway = lib["gateway"].LmGateway(
            backend=lib["gateway"].ScriptedBackend(oracle.respond),
            model=cfg.model, temperature=cfg.temperature, top_p=cfg.top_p, max_tokens=cfg.max_tokens,
            cache=lib["gateway"].ReplayCache(cache_path), record=True, concurrency=cfg.concurrency,
        )
        return lib["pipelines"].predict_batch(pipeline, records, gateway, concurrency=cfg.concurrency)


class ReplayWorkload(Workload):
    """Predict in replay mode, serialize predictions and traces, evaluate against gold."""

    n_records = 0
    keep = (*Workload.keep, "records_path", "recorded", "expected_csv", "expected_quality")

    def prepare(self) -> None:
        lib = self.lib
        pipelines = lib["pipelines"]
        self.cache_path = self.work / "replay_cache.jsonl"
        self.config_path = self.write_config(
            "gateway:\n  backend: replay\n"
            f"  cache_path: {json.dumps(str(self.cache_path))}\n  concurrency: {NPROC}\n"
        )
        self.records_path = self.work / "records.csv"
        self.cases, index = self.generate()
        self.records_path.write_text(gen.clinical_csv(self.cases), encoding="utf-8")
        self.oracle = gen.Oracle(self.cases)
        records = self.parse(self.records_path)
        recorded = self.record(self.config_path, self.pipeline(index), records, self.oracle, self.cache_path)
        self.recorded = digests({
            "predictions": pipelines.serialize_predictions(recorded),
            "traces": pipelines.serialize_traces(recorded),
        })
        expected = [
            gen.expected_prediction(self.oracle, c, self.mcq_of(c), {}, self.gate()) for c in self.cases
        ]
        self.expected_csv = gen.expected_csv(expected)
        self.expected_quality = gen.expected_quality(expected, self.cases)

    def generate(self):
        raise NotImplementedError

    def mcq_of(self, case: gen.Case):
        return None

    def gate(self) -> float | None:
        return None

    def pipeline(self, index):
        raise NotImplementedError

    def load_index(self):
        return None

    def setup(self) -> dict:
        cli = self.lib["cli"]
        config = cli.load_config(self.config_path)
        gateway = cli.build_gateway(config)
        records = self.parse(self.records_path)
        return {"config": config, "gateway": gateway, "records": records, "pipeline": self.pipeline(self.load_index())}

    def run(self, state: dict) -> dict:
        pipelines, metrics = self.lib["pipelines"], self.lib["metrics"]
        config, records = state["config"], state["records"]
        predictions = pipelines.predict_batch(
            state["pipeline"], records, state["gateway"],
            concurrency=config.gateway.concurrency, strict=config.pipeline.strict,
        )
        outputs = {
            "predictions": pipelines.serialize_predictions(predictions),
            "traces": pipelines.serialize_traces(predictions),
        }
        report = metrics.evaluate(predictions, records)
        return {"outputs": outputs, "reports": [report], "compile_reports": []}

    def check(self, result: dict) -> list[str]:
        problems = []
        for key, digest in self.recorded.items():
            if result["digests"][key] != digest:
                problems.append(f"replayed {key} differ from the recording run")
        problems += mismatched_lines(result["outputs"]["predictions"], self.expected_csv)
        problems += quality_problems(result["quality"], self.expected_quality)
        return problems

    def final_check(self, outputs: dict) -> list[str]:
        """``replay-verify`` through the CLI on the predictions file."""
        pred_path = self.work / "predictions.csv"
        pred_path.write_text(outputs["predictions"], encoding="utf-8")
        argv = ["replay-verify", "--pipeline", self.selector, "--records", str(self.records_path),
                "--pred", str(pred_path), "--config", str(self.config_path)]
        if self.selector == "ms":
            argv += ["--index", str(self.index_path)]
        code = self.lib["cli"].run_command(argv)
        return [] if code == 0 else [f"replay-verify exited {code}"]


class UwReplay(ReplayWorkload):
    name = "uw-replay"
    selector = "uw"
    n_records = 4000

    def generate(self):
        vocab = gen.Vocabulary.make(self.rng)
        return gen.make_uw_cases(self.rng, vocab, self.n_records, "uw", set()), None

    def gate(self) -> float:
        return self.lib["cli"].load_config(self.config_path).pipeline.gate_threshold

    def pipeline(self, index):
        return self.lib["pipelines"].default_uw_pipeline(gate_threshold=self.gate())


class MsReplay(ReplayWorkload):
    name = "ms-replay"
    selector = "ms"
    n_records = 24
    n_mcqs = 10_000
    keep = (*ReplayWorkload.keep, "index_path")

    def generate(self):
        vocab = gen.Vocabulary.make(self.rng)
        self.mcqs = gen.make_mcqs(self.rng, vocab, self.n_mcqs)
        self.index_path = self.work / "index.json"
        index = self.build_index(self.mcqs, self.index_path)
        sources = self.rng.sample(range(self.n_mcqs), self.n_records)
        cases = gen.make_ms_cases(
            self.rng, vocab, self.mcqs, sources, "ms", set(), accept=self.ranks_source_first(index)
        )
        return cases, index

    def mcq_of(self, case: gen.Case):
        return self.mcqs[case.mcq_id]

    def pipeline(self, index):
        return self.lib["pipelines"].default_ms_pipeline(index, gate_threshold=None)

    def load_index(self):
        return self.lib["retrieval"].load_index(self.index_path)


class Compile(Workload):
    """Compile ``uw`` then ``ms`` live under the scripted model with latency,
    recording into an existing project cache, then predict a held-out split."""

    name = "compile"
    live = True
    sizes = {"train": 16, "val": 8, "test": 40}
    # Uniform note lengths keep the demos a seed happens to bootstrap from
    # moving prompt_tokens; the training split has no scripted failures so the
    # bootstrap's stopping point does not move failed_frac.
    shapes = {
        "train": gen.Shape(body=(8, 8), words=(12, 12), min_failures=0),
        "val": gen.Shape(body=(8, 8), words=(12, 12)),
        "test": gen.Shape(body=(8, 8), words=(12, 12)),
    }
    n_mcqs = 120
    n_other = 4000
    keep = (*Workload.keep, "paths", "pristine_cache", "index_path", "out_dir", "cases", "mcqs", "oracle")

    def prepare(self) -> None:
        lib = self.lib
        rng = self.rng
        vocab = gen.Vocabulary.make(rng)
        seen: set[str] = set()
        self.mcqs = gen.make_mcqs(rng, vocab, self.n_mcqs)
        self.index_path = self.work / "index.json"
        index = self.build_index(self.mcqs, self.index_path)
        sources = rng.sample(range(self.n_mcqs), sum(self.sizes.values()))
        self.cases: dict[str, list[gen.Case]] = {}
        self.paths: dict[str, Path] = {}
        start = 0
        for split, n in self.sizes.items():
            shape = self.shapes[split]
            self.cases[f"uw_{split}"] = gen.make_uw_cases(rng, vocab, n, f"uw{split}", seen, shape)
            self.cases[f"ms_{split}"] = gen.make_ms_cases(
                rng, vocab, self.mcqs, sources[start:start + n], f"ms{split}", seen, shape,
                accept=self.ranks_source_first(index),
            )
            start += n
        for key, cases in self.cases.items():
            self.paths[key] = self.work / f"{key}.csv"
            self.paths[key].write_text(gen.clinical_csv(cases), encoding="utf-8")
        self.oracle = gen.Oracle([c for cases in self.cases.values() for c in cases])

        # The project cache already holds entries for other records.
        self.cache_path = self.work / "project_cache.jsonl"
        self.pristine_cache = self.work / "project_cache.pristine.jsonl"
        self.config_path = self.write_config(
            "gateway:\n  backend: live\n  base_url: http://127.0.0.1:9/v1\n  record: true\n"
            f"  cache_path: {json.dumps(str(self.cache_path))}\n  concurrency: 4\n"
            "optimize:\n  n_candidates: 4\n  demos_per_stage: 3\n  instruction_proposals: 3\n"
            f"  seed: {self.seed}\n"
        )
        others = gen.make_uw_cases(rng, vocab, self.n_other, "other", seen)
        other_path = self.work / "other.csv"
        other_path.write_text(gen.clinical_csv(others), encoding="utf-8")
        self.record(
            self.config_path, lib["pipelines"].default_uw_pipeline(), self.parse(other_path),
            gen.Oracle(others), self.pristine_cache,
        )
        self.out_dir = self.work / "compiled"

    def reset(self) -> None:
        # Recording appends to the project cache; start every repetition from
        # the same file so set-up loads the same entries. Files are removed
        # rather than overwritten: ext4 flushes a file truncated and rewritten
        # in place, which would charge disk latency to later repetitions only.
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.cache_path.unlink(missing_ok=True)
        shutil.copyfile(self.pristine_cache, self.cache_path)

    def setup(self) -> dict:
        cli = self.lib["cli"]
        config = cli.load_config(self.config_path)
        gateway = cli.build_gateway(config)
        records = {key: self.parse(path) for key, path in self.paths.items()}
        index = self.lib["retrieval"].load_index(self.index_path)
        return {"config": config, "gateway": gateway, "records": records, "index": index}

    def run(self, state: dict) -> dict:
        lib = self.lib
        optimize, pipelines, metrics, program = lib["optimize"], lib["pipelines"], lib["metrics"], lib["program"]
        config, gateway, records = state["config"], state["gateway"], state["records"]
        opt = config.optimize
        thresholds = {"rouge_pass_threshold": opt.rouge_pass_threshold, "binary_pass_threshold": opt.binary_pass_threshold}
        uw, uw_reports = optimize.compile_uw_pipeline(
            pipelines.default_uw_pipeline(gate_threshold=config.pipeline.gate_threshold),
            records["uw_train"], records["uw_val"], gateway, seed=opt.seed,
            budget=(opt.instruction_proposals, opt.n_candidates), demos_per_stage=opt.demos_per_stage, **thresholds,
        )
        ms, ms_reports = optimize.compile_ms_pipeline(
            pipelines.default_ms_pipeline(state["index"], gate_threshold=None),
            records["ms_train"], records["ms_val"], gateway, seed=opt.seed,
            n_candidates=opt.n_candidates, demos_per_stage=opt.demos_per_stage, **thresholds,
        )
        reports = {f"uw_{k}": r for k, r in uw_reports.items()} | {f"ms_{k}": r for k, r in ms_reports.items()}
        outputs = {}
        self.out_dir.mkdir(exist_ok=True)
        for prefix, compiled in (("uw", uw), ("ms", ms)):
            for stage, prog in compiled.stages.items():
                outputs[f"{prefix}_{stage}.json"] = program.program_to_json(prog)
        for name, report in reports.items():
            outputs[f"compile_report_{name}.json"] = report.to_json()
        for name, text in outputs.items():
            (self.out_dir / name).write_text(text, encoding="utf-8")
        results = []
        for prefix, compiled in (("uw", uw), ("ms", ms)):
            predictions = pipelines.predict_batch(
                compiled, records[f"{prefix}_test"], gateway, concurrency=config.gateway.concurrency
            )
            outputs[f"{prefix}_predictions"] = pipelines.serialize_predictions(predictions)
            results.append(metrics.evaluate(predictions, records[f"{prefix}_test"]))
        self.compiled = {"uw": uw, "ms": ms}
        return {"outputs": outputs, "reports": results, "compile_reports": list(reports.values())}

    def check(self, result: dict) -> list[str]:
        problems = []
        expected_quality = []
        gate = {"uw": self.lib["cli"].load_config(self.config_path).pipeline.gate_threshold, "ms": None}
        for prefix, compiled in self.compiled.items():
            demos = {stage: len(prog.demos) for stage, prog in compiled.stages.items()}
            cases = self.cases[f"{prefix}_test"]
            expected = [
                gen.expected_prediction(self.oracle, c, self.mcqs[c.mcq_id] if prefix == "ms" else None, demos, gate[prefix])
                for c in cases
            ]
            problems += mismatched_lines(result["outputs"][f"{prefix}_predictions"], gen.expected_csv(expected))
            expected_quality.append(gen.expected_quality(expected, cases))
        key = {q: (expected_quality[0][q] + expected_quality[1][q]) / 2 for q in QUALITY}
        problems += quality_problems(result["quality"], key)
        return problems

    def final_check(self, outputs: dict) -> list[str]:
        return []


WORKLOADS = {w.name: w for w in (Compile, MsReplay, UwReplay)}


def digests(outputs: dict[str, str]) -> dict[str, str]:
    return {name: hashlib.sha256(text.encode("utf-8")).hexdigest() for name, text in outputs.items()}


def mismatched_lines(actual: str, expected: str) -> list[str]:
    if actual == expected:
        return []
    bad = [a for a, e in zip(actual.splitlines(), expected.splitlines()) if a != e]
    return [f"{len(bad)} prediction rows differ from the answer key, first: {bad[:1]}"]


def quality_problems(actual: dict, expected: dict) -> list[str]:
    return [
        f"{q} = {actual[q]!r}, answer key implies {expected[q]!r}"
        for q in QUALITY if abs(actual[q] - expected[q]) > 1e-12
    ]


def pooled_quality(reports) -> dict[str, float]:
    """Mean over the evaluated record sets (equal sizes, so the pooled mean)."""
    return {
        "flag_accuracy": statistics.fmean(r.flag_accuracy for r in reports),
        "sentence_accuracy": statistics.fmean(r.sentence_accuracy for r in reports),
        "correction_rouge_l": statistics.fmean(r.composite_means["rouge_l_f"] for r in reports),
    }


# --- tracing ------------------------------------------------------------------------------


def install_tracer(tracer: Tracer, lib: dict) -> None:
    gw, prog, pipes = lib["gateway"], lib["program"], lib["pipelines"]
    ret, opt, met, corp = lib["retrieval"], lib["optimize"], lib["metrics"], lib["corpus"]

    def record_arg(args):
        return args[1].record_id

    def phase(metric_index):
        """The (pipeline class, metric name) a compile step optimizes."""
        return lambda args: (type(args[0]).__name__, args[metric_index].name)

    tracer.wrap([gw.LmGateway], "complete", "gateway.complete")
    tracer.wrap([gw.ReplayCache], "__init__", "gateway.cache_load")
    tracer.wrap([gw.ReplayCache], "get", "gateway.cache_get")
    tracer.wrap([gw.ReplayCache], "append", "gateway.append")
    tracer.wrap([gw], "canonical_key", "gateway.canonical_key")
    tracer.wrap([prog, pipes], "run", "program.run")
    tracer.wrap([prog], "render_messages", "program.render")
    tracer.wrap([prog], "parse_completion", "program.parse")
    tracer.wrap([pipes.MsPipeline], "predict", "pipelines.predict", record_of=record_arg)
    tracer.wrap([pipes.UwPipeline], "predict", "pipelines.predict", record_of=record_arg)
    tracer.wrap([pipes], "predict_batch", "pipelines.predict_batch", pool_root=True)
    tracer.wrap([pipes], "quality_gate", "pipelines.quality_gate", note_of=lambda a, r: r[1])
    tracer.wrap([pipes], "serialize_predictions", "pipelines.serialize")
    tracer.wrap([pipes], "serialize_traces", "pipelines.serialize")
    tracer.wrap([ret, pipes], "query", "retrieval.query", note_of=lambda a, r: a[1])
    tracer.wrap([ret], "load_index", "retrieval.load_index")
    tracer.wrap([opt], "compile_uw_pipeline", "optimize.compile_uw")
    tracer.wrap([opt], "compile_ms_pipeline", "optimize.compile_ms")
    tracer.wrap([opt], "mipro_compile", "optimize.search", note_of=lambda a, r: phase(3)(a))
    tracer.wrap([opt], "random_search_compile", "optimize.search", note_of=lambda a, r: phase(3)(a))
    # The note's last element counts the records whose traces became demos.
    tracer.wrap(
        [opt], "bootstrap_demos", "optimize.bootstrap",
        note_of=lambda a, pools: (*phase(2)(a), len({d.source_record_id for pool in pools.values() for d in pool})),
    )
    tracer.wrap([opt], "propose_instructions", "optimize.propose")
    tracer.wrap([met, pipes, opt], "rouge_l_f", "metrics.rouge_l_f")
    tracer.wrap([met], "evaluate", "metrics.evaluate")
    tracer.wrap([corp], "parse_clinical_records", "corpus.parse_clinical_records")


def downstream_calls(tracer: Tracer, run) -> int:
    """Backend calls, inside a compile step, to stages its metric does not read."""
    count = 0
    for span in tracer.named("gateway.backend", run):
        step = next((p for p in tracer.ancestors(span) if p.name in ("optimize.search", "optimize.bootstrap")), None)
        stage = span.note
        if step is None or step.note is None or stage == "propose":
            continue
        reads = METRIC_READS.get(step.note[:2])
        count += reads is not None and stage not in reads
    return count


def layer_metrics(tracer: Tracer, setup, run, inflight_max: int, counts: dict, wall: float,
                  workload: Workload, cache_entries: int, compile_reports) -> dict[str, float]:
    m: dict[str, float] = {}
    selfs = tracer.self_times((setup, run))
    for layer in LAYERS:
        m[f"{layer}.self_s"] = selfs.get(layer, 0.0)

    def add_dist(name: str, values: list[float]) -> None:
        for key, value in distribution(values).items():
            m[f"{name}.{key}"] = value

    backend_s = sum(tracer.durations("gateway.backend", run))
    m["gateway.requests"] = len(tracer.named("gateway.complete", run))
    m["gateway.repeat_requests"] = counts["repeat_requests"]
    m["gateway.inflight.max"] = inflight_max
    m["gateway.inflight.mean"] = backend_s / wall
    m["gateway.backend_s"] = backend_s
    m["gateway.backend_busy_frac"] = union_length((s.start, s.end) for s in tracer.named("gateway.backend", run)) / wall
    m["gateway.wait_s"] = sum(tracer.durations("gateway.complete", run)) - backend_s
    add_dist("gateway.append_us", [d * 1e6 for d in tracer.durations("gateway.append", run)])
    m["gateway.cache_load_s"] = sum(tracer.durations("gateway.cache_load", setup))
    m["gateway.cache_entries"] = cache_entries
    add_dist("gateway.key_us", [d * 1e6 for d in tracer.durations("gateway.canonical_key", run)])

    runs = tracer.named("program.run", run)
    parse_errors = sum(1 for s in tracer.named("program.parse", run) if s.error)
    parse_failures = sum(1 for s in runs if s.error == "CompletionParseError")
    m["program.runs"] = len(runs)
    m["program.retries"] = parse_errors - parse_failures
    m["program.parse_failures"] = parse_failures
    add_dist("program.render_us", [d * 1e6 for d in tracer.durations("program.render", run)])
    add_dist("program.parse_us", [d * 1e6 for d in tracer.durations("program.parse", run)])
    m["program.prompt_chars.mean"] = counts["prompt_chars"] / max(1, counts["lm_calls"])

    predicts = tracer.named("pipelines.predict", run)
    m["pipelines.records"] = len(predicts)
    m["pipelines.records_failed"] = sum(1 for s in predicts if s.error)
    m["pipelines.gate_rejected"] = sum(1 for s in tracer.named("pipelines.quality_gate", run) if s.note)
    for stage in gen.STAGES:
        m[f"pipelines.stage_calls.{stage}"] = counts.get(f"stage.{stage}", 0)
    m["pipelines.predict_batch_s"] = sum(tracer.durations("pipelines.predict_batch", run))
    m["pipelines.serialize_s"] = sum(tracer.durations("pipelines.serialize", run))

    queries = tracer.named("retrieval.query", run)
    m["retrieval.queries"] = len(queries)
    m["retrieval.distinct_queries"] = len({s.note for s in queries})
    add_dist("retrieval.query_ms", [(s.end - s.start) * 1e3 for s in queries])
    m["retrieval.load_s"] = sum(tracer.durations("retrieval.load_index", setup))
    m["retrieval.index_bytes"] = workload.prep["index_bytes"]
    m["retrieval.build_s"] = workload.prep["build_s"]
    m["retrieval.save_s"] = workload.prep["save_s"]

    bootstraps = tracer.named("optimize.bootstrap", run)
    visited = sum(1 for s in predicts if tracer.under(s, "optimize.bootstrap"))
    searches = tracer.named("optimize.search", run)
    nested = [s for s in tracer.spans if s.name in ("optimize.bootstrap", "optimize.propose") and s.parent in searches]
    m["optimize.bootstrap_s"] = sum(s.end - s.start for s in bootstraps)
    m["optimize.bootstrap_records"] = visited
    m["optimize.bootstrap_accept_ratio"] = sum(s.note[2] for s in bootstraps) / visited if visited else 0.0
    m["optimize.propose_calls"] = counts.get("stage.propose", 0)
    m["optimize.search_s"] = sum(s.end - s.start for s in searches) - sum(s.end - s.start for s in nested)
    m["optimize.downstream_calls"] = downstream_calls(tracer, run)
    gains = [
        r.winner.validation_score - next(c for c in r.candidates if c.candidate_id == 0).validation_score
        for r in compile_reports
    ]
    m["optimize.winner_gain"] = statistics.fmean(gains) if gains else 0.0

    rouge = tracer.durations("metrics.rouge_l_f", run)
    m["metrics.rouge_l_calls"] = len(rouge)
    m["metrics.rouge_l_us.p50"] = distribution([d * 1e6 for d in rouge])["p50"]
    m["metrics.evaluate_s"] = sum(tracer.durations("metrics.evaluate", run))
    m["corpus.parse_s"] = sum(tracer.durations("corpus.parse_clinical_records", setup))
    return m


# --- measurement -------------------------------------------------------------------------


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def repetition(workload: Workload, counter: PredictCounter, tracer: Tracer | None) -> dict:
    """Set-up and the timed phase, as one invocation of the program runs
    them, then ``SETUPS - 1`` more timed set-ups whose state is dropped.

    A full collection, untimed, precedes every set-up and the timed phase.
    Each then starts from the same collector state, so the collections the
    program triggers fall at the same points in every repetition. Peak
    memory is read right after the timed phase, before the extra set-ups,
    so the first repetition's reading is the peak of one invocation."""
    lib = workload.lib
    workload.reset()
    if tracer is not None:
        install_tracer(tracer, lib)
    try:
        gc.collect()
        setup_span = tracer.open("bench.setup", "bench") if tracer else None
        t0 = time.perf_counter()
        state = workload.setup()
        setup_times = [time.perf_counter() - t0]
        if tracer:
            tracer.close(setup_span)
        gateway = state["gateway"]
        cache_entries = len(gateway.cache) if gateway.cache is not None else 0
        inner = gateway.backend
        if workload.live:
            # The live backend built from the config is never called: the
            # scripted model with injected latency stands in for the endpoint.
            inner = lib["gateway"].ScriptedBackend(workload.oracle.respond)
        backend = gateway.backend = CountingBackend(inner, latency=workload.live, tracer=tracer)
        counter.take()
        gc.collect()
        run_span = tracer.open("bench.run", "bench") if tracer else None
        t1 = time.perf_counter()
        result = workload.run(state)
        wall = time.perf_counter() - t1
        if tracer:
            tracer.close(run_span)
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak = peak_rss_mb()
    ops, raised = counter.take()
    counts = backend.counts()
    inflight_max = backend.inflight_max
    del state, gateway, backend
    workload.reset()
    for _ in range(SETUPS - 1):
        gc.collect()
        t0 = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - t0)
    result.update(setup_times=setup_times, wall_s=wall, peak_rss_mb=peak, ops=ops, raised=raised, counts=counts,
                  digests=digests(result["outputs"]), quality=pooled_quality(result.pop("reports")))
    compile_reports = result.pop("compile_reports")
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, setup_span, run_span, inflight_max, counts, wall, workload,
                                         cache_entries, compile_reports)
    return result


def exact_signature(result: dict) -> tuple:
    """Everything that must repeat exactly across repetitions of one seed."""
    return (
        tuple(sorted(result["digests"].items())),
        tuple(sorted(result["counts"].items())),
        result["ops"], result["raised"],
        tuple(result["quality"][q] for q in QUALITY),
    )


def measure(workload: Workload, seconds: float, trace: bool, spans_path: Path) -> dict:
    counter = PredictCounter(workload.lib["pipelines"])
    count_metrics = {name for name, unit in load_units(True).items() if unit == "count"}
    traced_counts = None
    results = []
    problems: list[str] = []
    start = time.perf_counter()
    while True:
        traced = trace and len(results) % 2 == 1
        tracer = Tracer() if traced else None
        outputs = None  # the previous repetition's outputs are checked; let them go
        result = repetition(workload, counter, tracer)
        result["traced"] = traced
        problems += workload.check(result)
        outputs = result.pop("outputs")
        result["signature"] = exact_signature(result)
        if results and result["signature"] != results[0]["signature"]:
            problems.append(f"repetition {len(results)} ({'traced' if traced else 'untraced'}) "
                            "differs from repetition 0 in outputs or counts")
        if traced:
            layer_counts = {k: v for k, v in result["layers"].items() if k in count_metrics}
            if traced_counts is not None and layer_counts != traced_counts:
                problems.append(f"traced repetition {len(results)} differs from the first traced one in per-layer counts")
            traced_counts = layer_counts
        results.append(result)
        if tracer is not None:
            tracer.dump(spans_path)
            del tracer
        elapsed = time.perf_counter() - start
        if len(results) >= MIN_REPETITIONS and elapsed * (len(results) + 1) / len(results) > seconds:
            break
        if problems:
            break
    if not problems:
        problems += workload.final_check(outputs)
    return {"results": results, "problems": problems}


def summarize(measured: dict, trace: bool) -> dict:
    results = measured["results"]
    first = results[0]
    traced = [r for r in results if r["traced"]]
    if trace and not traced:
        # A check failed before the first traced repetition: no per-layer values.
        values = {}
    elif trace:
        plain = [r["wall_s"] for r in results if not r["traced"]]
        values = {name: statistics.median(r["layers"][name] for r in traced) for name in traced[0]["layers"]}
        values["trace.overhead_s"] = statistics.median(r["wall_s"] for r in traced) - statistics.median(plain)
        values["trace.wall_s"] = statistics.median(r["wall_s"] for r in traced)
    else:
        values = {
            "setup_s": statistics.median(t for r in results for t in r["setup_times"]),
            "wall_s": statistics.median(r["wall_s"] for r in results),
            "lm_calls": first["counts"]["lm_calls"],
            "prompt_tokens": first["counts"]["prompt_tokens"],
            "failed_frac": first["raised"] / first["ops"],
            "peak_rss_mb": first["peak_rss_mb"],
            **first["quality"],
        }
    units = load_units(trace) if values else {}
    return {
        "correct": not measured["problems"],
        "attempted": sum(r["ops"] for r in results),
        "failed": len(measured["problems"]),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def load_units(trace: bool) -> dict[str, str]:
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            model = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": NPROC, "cpu": model, "python": platform.python_version()}


def prepare_in_child(args: argparse.Namespace, work: Path) -> None:
    """Generate inputs, build the index and record the cache in a child
    process that leaves only files in ``work``."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--prepare", str(work)]
    code = subprocess.run(argv, stdout=subprocess.DEVNULL, check=False).returncode
    if code != 0:
        sys.exit(f"perfbench: input preparation exited {code}")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--prepare", type=Path, help=argparse.SUPPRESS)  # the child's working directory
    args = parser.parse_args(argv)

    root = Path.cwd()
    lib = import_medcorr(root)
    if args.prepare is not None:
        workload = WORKLOADS[args.workload](lib, args.prepare, args.seed)
        workload.prepare()
        with open(args.prepare / PREPARED, "wb") as handle:
            pickle.dump({name: getattr(workload, name) for name in workload.keep}, handle)
        return 0

    scratch = root / ".perfbench"
    work = scratch / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    work.mkdir(parents=True)
    try:
        t0 = time.perf_counter()
        prepare_in_child(args, work)
        prepare_s = time.perf_counter() - t0
        workload = WORKLOADS[args.workload](lib, work, args.seed)
        with open(work / PREPARED, "rb") as handle:
            workload.__dict__.update(pickle.load(handle))
        spans_path = scratch / f"spans-{args.workload}-seed{args.seed}.jsonl"
        measured = measure(workload, args.seconds, bool(args.trace), spans_path)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in measured["problems"]:
        print(f"perfbench: CHECK FAILED: {problem}", file=sys.stderr)
    summary = summarize(measured, bool(args.trace))
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "prepare_s": prepare_s,
        "repetitions": len(measured["results"]), "machine": machine(),
    }))
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
