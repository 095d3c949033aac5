"""Command-line interface.

One executable, subcommand per workflow step::

    medcorr ingest --in raw.csv --format delimited-table --out clean.csv
    medcorr index build --corpus mcq.jsonl --out index.json
    medcorr compile --pipeline uw --train t.csv --val v.csv --out-dir compiled/
    medcorr predict --pipeline uw --records r.csv --out preds.csv
    medcorr evaluate --pred preds.csv --gold gold.csv --out report.json
    medcorr report --in report.json --format markdown
    medcorr replay-verify --pipeline uw --records r.csv --pred preds.csv

Exit codes: 0 success, 1 validation/user error (a file that cannot be
read, decoded or written included), 2 internal or gateway failure. All
diagnostics go to stderr; files are written only at --out paths and the
configured cache.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable, Sequence, TypeVar

from . import corpus, optimize, pipelines, retrieval
from .config import EngineConfig, load_config
from .errors import ConfigError, GatewayError, MedcorrError, ValidationError
from .gateway import LiveBackend, LmGateway, ReplayBackend, ReplayCache
from .metrics import ExternalScorer, ScoreReport, evaluate
from .program import program_from_json, program_to_json

_T = TypeVar("_T")

EXIT_OK = 0
EXIT_USER = 1
EXIT_INTERNAL = 2


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the CLI contract is 1.
    def error(self, message: str):  # type: ignore[override]
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _say(message: str) -> None:
    print(message, file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="medcorr", description="Clinical text error correction engine")
    sub = parser.add_subparsers(metavar="COMMAND", required=True)

    p_ingest = sub.add_parser("ingest", help="parse, validate, and normalize a clinical dataset")
    p_ingest.set_defaults(handler=cmd_ingest)
    p_ingest.add_argument("--in", dest="input", required=True, help="input dataset file")
    p_ingest.add_argument("--format", default="delimited-table", choices=["delimited-table", "json-lines"])
    p_ingest.add_argument("--out", required=True, help="normalized output file")
    p_ingest.add_argument("--out-format", default="delimited-table", choices=["delimited-table", "json-lines"])

    p_index = sub.add_parser("index", help="TF-IDF index operations")
    index_sub = p_index.add_subparsers(metavar="ACTION", required=True)
    p_build = index_sub.add_parser("build", help="build an index from an MCQ corpus")
    p_build.set_defaults(handler=cmd_index_build)
    p_build.add_argument("--corpus", required=True, help="MCQ json-lines corpus")
    p_build.add_argument("--out", required=True, help="index output file")

    p_compile = sub.add_parser("compile", help="optimize pipeline prompts and demos")
    p_compile.set_defaults(handler=cmd_compile)
    p_compile.add_argument("--pipeline", required=True, choices=["ms", "uw"])
    p_compile.add_argument("--train", required=True, help="training records (delimited-table)")
    p_compile.add_argument("--val", required=True, help="validation records (delimited-table)")
    p_compile.add_argument("--index", help="TF-IDF index file (ms pipeline)")
    p_compile.add_argument("--out-dir", required=True, help="directory for compiled programs and reports")
    p_compile.add_argument("--config", help="engine config file")
    p_compile.add_argument("--seed", type=int, help="override optimize.seed")

    p_predict = sub.add_parser("predict", help="run a pipeline over records")
    p_predict.set_defaults(handler=cmd_predict)
    p_predict.add_argument("--pipeline", required=True, choices=["ms", "uw"])
    p_predict.add_argument("--records", help="records file (delimited-table); default paths.records")
    p_predict.add_argument("--out", required=True, help="predictions CSV output")
    p_predict.add_argument("--trace-out", help="per-record trace json-lines output")
    p_predict.add_argument("--index", help="TF-IDF index file (ms pipeline)")
    p_predict.add_argument("--compiled", help="directory of compiled stage programs")
    p_predict.add_argument("--config", help="engine config file")
    p_predict.add_argument("--strict", action="store_true", help="abort on the first failed record")

    p_eval = sub.add_parser("evaluate", help="score predictions against gold records")
    p_eval.set_defaults(handler=cmd_evaluate)
    p_eval.add_argument("--pred", required=True, help="predictions CSV")
    p_eval.add_argument("--gold", required=True, help="gold records (delimited-table)")
    p_eval.add_argument("--out", required=True, help="score report JSON output")
    p_eval.add_argument(
        "--scorer",
        action="append",
        default=[],
        metavar="NAME=URL",
        help="external scorer endpoint (repeatable), e.g. bertscore=http://localhost:8111/score",
    )
    p_eval.add_argument("--strict-scorers", action="store_true", help="abort if an external scorer fails")

    p_report = sub.add_parser("report", help="render a score report")
    p_report.set_defaults(handler=cmd_report)
    p_report.add_argument("--in", dest="input", required=True, help="score report JSON")
    p_report.add_argument("--format", default="table", choices=["table", "json", "markdown"])
    p_report.add_argument("--out", help="write rendering here instead of stdout")

    p_verify = sub.add_parser("replay-verify", help="re-run predictions against the cache and compare bytes")
    p_verify.set_defaults(handler=cmd_replay_verify)
    p_verify.add_argument("--pipeline", required=True, choices=["ms", "uw"])
    p_verify.add_argument("--records", help="records file (delimited-table); default paths.records")
    p_verify.add_argument("--pred", required=True, help="predictions CSV to verify")
    p_verify.add_argument("--index", help="TF-IDF index file (ms pipeline)")
    p_verify.add_argument("--compiled", help="directory of compiled stage programs")
    p_verify.add_argument("--config", help="engine config file")

    return parser


# --- shared helpers -----------------------------------------------------------


def _read_text(path: str | Path) -> str:
    # The file's exact bytes: no newline translation, so replay-verify
    # compares what is on disk and CSV fields keep their \r\n.
    try:
        return Path(path).read_bytes().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc


def _write_outputs(*outputs: tuple[str | Path, str]) -> None:
    """Write each (path, text) as UTF-8, encoding every text before opening
    any file, so a text that cannot be encoded fails the run with every
    existing output file as it was."""
    encoded = []
    for path, text in outputs:
        try:
            encoded.append((Path(path), text.encode("utf-8")))
        except UnicodeEncodeError as exc:
            raise ValidationError(f"cannot write {path}: {exc}") from exc
    for path, data in encoded:
        path.write_bytes(data)


def _parse_file(path: str | Path, parse: Callable[[str], _T]) -> _T:
    """``parse`` the text of the file at ``path``; a rejection names the file."""
    text = _read_text(path)
    try:
        return parse(text)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def build_gateway(config: EngineConfig) -> LmGateway:
    gw = config.gateway
    if gw.backend == "replay":
        cache = ReplayCache(gw.cache_path)
        backend = ReplayBackend(cache)
    else:
        cache = ReplayCache(gw.cache_path or None)
        backend = LiveBackend(gw.base_url, api_key=gw.api_key)
    return LmGateway(
        backend=backend,
        model=gw.model,
        temperature=gw.temperature,
        top_p=gw.top_p,
        max_tokens=gw.max_tokens,
        cache=cache,
        record=gw.record,
        concurrency=gw.concurrency,
    )


def _load_pipeline(
    selector: str,
    config: EngineConfig,
    index_path: str | None,
    compiled_dir: str | None,
):
    if selector == "uw":
        pipeline = pipelines.default_uw_pipeline(gate_threshold=config.pipeline.gate_threshold)
    else:
        path = index_path or config.paths.index
        if not path:
            raise ValidationError("the ms pipeline needs an index (--index or paths.index)")
        index = retrieval.load_index(path)
        gate = config.pipeline.gate_threshold if config.pipeline.ms_gate_enabled else None
        pipeline = pipelines.default_ms_pipeline(index, gate_threshold=gate)
    if not compiled_dir:
        return pipeline
    # Each {stage}.json found replaces its stage; one whose fields do not fit
    # the stage is rejected naming the file.
    for stage in pipeline.stage_names:
        stage_path = Path(compiled_dir) / f"{stage}.json"
        if stage_path.exists():
            pipeline = _parse_file(stage_path, lambda text: pipeline.replace_stages({stage: program_from_json(text)}))
    return pipeline


# --- subcommands --------------------------------------------------------------


def cmd_ingest(args: argparse.Namespace) -> int:
    records = _parse_file(args.input, lambda text: corpus.parse_clinical_records(text, format=args.format))
    _write_outputs((args.out, corpus.serialize_clinical_records(records, format=args.out_format)))
    _say(f"ingested {len(records)} records -> {args.out}")
    return EXIT_OK


def cmd_index_build(args: argparse.Namespace) -> int:
    mcqs = _parse_file(args.corpus, corpus.parse_mcq_corpus)
    index = retrieval.build_index(mcqs)
    retrieval.save_index(index, args.out)
    _say(f"indexed {index.n_documents} documents, {len(index.vocabulary)} terms -> {args.out}")
    return EXIT_OK


def cmd_compile(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    seed = args.seed if args.seed is not None else config.optimize.seed
    gateway = build_gateway(config)
    trainset = _parse_file(args.train, corpus.parse_clinical_records)
    valset = _parse_file(args.val, corpus.parse_clinical_records)
    pipeline = _load_pipeline(args.pipeline, config, args.index, compiled_dir=None)
    opt = config.optimize
    if args.pipeline == "ms":
        compiled, reports = optimize.compile_ms_pipeline(
            pipeline, trainset, valset, gateway,
            seed=seed,
            n_candidates=opt.n_candidates,
            demos_per_stage=opt.demos_per_stage,
            rouge_pass_threshold=opt.rouge_pass_threshold,
            binary_pass_threshold=opt.binary_pass_threshold,
        )
    else:
        compiled, reports = optimize.compile_uw_pipeline(
            pipeline, trainset, valset, gateway,
            seed=seed,
            budget=(opt.instruction_proposals, opt.n_candidates),
            demos_per_stage=opt.demos_per_stage,
            rouge_pass_threshold=opt.rouge_pass_threshold,
            binary_pass_threshold=opt.binary_pass_threshold,
        )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_outputs(
        *((out_dir / f"{stage}.json", program_to_json(program)) for stage, program in compiled.stages.items()),
        *((out_dir / f"compile_report_{name}.json", report.to_json()) for name, report in reports.items()),
    )
    _say(f"compiled {args.pipeline} pipeline -> {out_dir}")
    return EXIT_OK


def _predict_to_text(args: argparse.Namespace, config: EngineConfig) -> tuple[str, list[pipelines.Prediction]]:
    gateway = build_gateway(config)
    records_path = args.records or config.paths.records
    if not records_path:
        raise ValidationError("no records file (--records or paths.records)")
    records = _parse_file(records_path, corpus.parse_clinical_records)
    compiled_dir = args.compiled or config.paths.compiled_dir or None
    pipeline = _load_pipeline(args.pipeline, config, args.index, compiled_dir)
    strict = getattr(args, "strict", False) or config.pipeline.strict
    predictions = pipelines.predict_batch(
        pipeline, records, gateway, concurrency=config.gateway.concurrency, strict=strict
    )
    return pipelines.serialize_predictions(predictions), predictions


def cmd_predict(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    text, predictions = _predict_to_text(args, config)
    outputs = [(args.out, text)]
    if args.trace_out:
        outputs.append((args.trace_out, pipelines.serialize_traces(predictions)))
    _write_outputs(*outputs)
    failed = sum(1 for p in predictions if p.error)
    _say(f"predicted {len(predictions)} records ({failed} failed) -> {args.out}")
    return EXIT_OK


def cmd_evaluate(args: argparse.Namespace) -> int:
    predictions = _parse_file(args.pred, pipelines.parse_predictions)
    golds = _parse_file(args.gold, corpus.parse_clinical_records)
    scorers = []
    for spec in args.scorer:
        name, sep, url = spec.partition("=")
        if not sep or not name or not url:
            raise ValidationError(f"--scorer must look like NAME=URL, got {spec!r}")
        scorers.append(ExternalScorer(name=name, url=url))
    report = evaluate(predictions, golds, scorers=scorers, strict_scorers=args.strict_scorers)
    _write_outputs((args.out, report.to_json()))
    _say(
        f"evaluated {report.n_records} records: flag_accuracy={report.flag_accuracy:.4f} "
        f"sentence_accuracy={report.sentence_accuracy:.4f} -> {args.out}"
    )
    return EXIT_OK


_REPORT_ROWS = (
    ("flag_accuracy", "error flag accuracy"),
    ("sentence_accuracy", "error sentence accuracy"),
    ("mean_rouge1_f", "mean ROUGE-1-F (non-NA pairs)"),
    ("mean_rouge_l_f", "mean ROUGE-L-F (non-NA pairs)"),
)

_COMPOSITE_ORDER = ("rouge1_f", "rouge_l_f", "bertscore", "bleurt", "aggregate")


def render_report(report: ScoreReport, format: str) -> str:
    if format == "json":
        return report.to_json()
    rows: list[tuple[str, str]] = [("records", str(report.n_records))]
    for attr, label in _REPORT_ROWS:
        value = getattr(report, attr)
        rows.append((label, "unavailable" if value is None else f"{value:.4f}"))
    composite_names = list(_COMPOSITE_ORDER) + [
        name for name in sorted(report.composite_means) if name not in _COMPOSITE_ORDER
    ]
    for name in composite_names:
        value = report.composite_means.get(name)
        rendered = "unavailable" if value is None or name in report.unavailable else f"{value:.4f}"
        rows.append((f"composite {name}", rendered))
    if format == "markdown":
        lines = ["| Metric | Value |", "| --- | --- |"]
        lines.extend(f"| {label} | {value} |" for label, value in rows)
        return "\n".join(lines) + "\n"
    width = max(len(label) for label, _ in rows)
    return "\n".join(f"{label.ljust(width)}  {value}" for label, value in rows) + "\n"


def cmd_report(args: argparse.Namespace) -> int:
    report = _parse_file(args.input, ScoreReport.from_json)
    rendered = render_report(report, args.format)
    if args.out:
        _write_outputs((args.out, rendered))
    else:
        sys.stdout.write(rendered)
    return EXIT_OK


def cmd_replay_verify(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    if config.gateway.backend != "replay":
        raise ValidationError("replay-verify requires gateway.backend = replay")
    expected = _read_text(args.pred)
    actual, _ = _predict_to_text(args, config)
    if actual != expected:
        raise ValidationError(
            f"replayed predictions differ from {args.pred}; fixtures have drifted"
        )
    _say(f"replay-verify OK: {args.pred} reproduced byte-identically")
    return EXIT_OK


def run_command(argv: Sequence[str]) -> int:
    """Dispatch one CLI invocation, mapping errors to the exit-code taxonomy."""
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
        return args.handler(args)
    except _UsageError as exc:
        _say(f"error: {exc}")
        return EXIT_USER
    except (ValidationError, ConfigError, OSError, UnicodeError) as exc:
        _say(f"error: {exc}")
        return EXIT_USER
    except GatewayError as exc:
        _say(f"gateway error: {exc}")
        return EXIT_INTERNAL
    except MedcorrError as exc:
        _say(f"internal error: {exc}")
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))
