from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from typing import Callable

import pytest

from medcorr.cli import build_parser, run_command
from medcorr.corpus import parse_clinical_records, parse_mcq_corpus
from medcorr.gateway import LmGateway, ReplayCache, ScriptedBackend
from medcorr.metrics import ScoreReport
from medcorr.optimize import compile_uw_pipeline
from medcorr.pipelines import default_ms_pipeline, default_uw_pipeline, parse_predictions, serialize_predictions, Prediction
from medcorr.program import program_to_json
from medcorr.retrieval import build_index

from helpers import report_payload, uw_gold_responder
from oracles import index_document, packed

FIXTURES = Path(__file__).parent / "fixtures"
RECORDS_CSV = FIXTURES / "clinical_10.csv"
CACHE_JSONL = FIXTURES / "replay_cache.jsonl"
GOLDEN_PREDICTIONS = FIXTURES / "predictions_golden.csv"
MCQ_JSONL = FIXTURES / "mcq_corpus.jsonl"


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv("MEDCORR_API_KEY", raising=False)
    monkeypatch.delenv("MEDCORR_BASE_URL", raising=False)


def replay_config(tmp_path: Path, cache_path: Path) -> Path:
    path = tmp_path / "medcorr.yaml"
    path.write_text(
        f"gateway:\n  backend: replay\n  cache_path: {cache_path}\n", encoding="utf-8"
    )
    return path


def perfect_predictions_csv(tmp_path: Path) -> Path:
    golds = parse_clinical_records(RECORDS_CSV.read_bytes())
    predictions = [
        Prediction(g.record_id, g.gold_flag, g.gold_error_sentence_id, g.gold_correction)
        for g in golds
    ]
    path = tmp_path / "perfect.csv"
    path.write_text(serialize_predictions(predictions), encoding="utf-8")
    return path


# --- usage and exit codes -------------------------------------------------------


def leaf_parsers(parser: argparse.ArgumentParser, name: str = "") -> dict[str, argparse.ArgumentParser]:
    """Each subcommand that runs, by its words (``index build``), and its parser."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return {name: parser}
    return {
        leaf: p for word, sub in subs[0].choices.items()
        for leaf, p in leaf_parsers(sub, f"{name} {word}".strip()).items()
    }


def test_every_subcommand_declares_the_outputs_it_writes():
    expected = {
        "ingest": {"out"},
        "index build": {"out"},
        "evaluate": {"out"},
        "report": {"out"},
        "predict": {"out", "trace_out"},
        "compile": set(),  # its file names depend on the pipeline; cmd_compile checks them
        "replay-verify": set(),  # --pred is compared, never written
    }
    leaves = leaf_parsers(build_parser())
    assert set(leaves) == set(expected)
    for name, parser in leaves.items():
        outputs = parser.get_default("outputs")
        assert outputs is not None, f"{name} declares no outputs"
        assert set(outputs) <= {a.dest for a in parser._actions}, name
        assert set(outputs) == expected[name], name


def test_every_declared_input_names_an_option_of_its_command():
    # run_command refuses an output naming one of these before any file is read
    expected = {"ingest": {"--in"}, "index build": {"--corpus"}, "evaluate": {"--pred", "--gold"}, "report": {"--in"}}
    for name, parser in leaf_parsers(build_parser()).items():
        inputs = parser.get_default("inputs")
        assert set(inputs.values()) == expected.get(name, set()), name
        options = {option: action.dest for action in parser._actions for option in action.option_strings}
        assert all(options[option] == dest for dest, option in inputs.items()), name


_PIPELINES = ("ms", "uw")
_TABLE_FORMATS = ("delimited-table", "json-lines")
# Every option of every subcommand: its strings, then (dest, required,
# choices, default, type). A flag dropped, renamed or changed shows here.
CLI_SURFACE = {
    "ingest": {
        ("--in",): ("input", True, None, None, None),
        ("--format",): ("format", False, _TABLE_FORMATS, "delimited-table", None),
        ("--out",): ("out", True, None, None, None),
        ("--out-format",): ("out_format", False, _TABLE_FORMATS, "delimited-table", None),
    },
    "index build": {
        ("--corpus",): ("corpus", True, None, None, None),
        ("--out",): ("out", True, None, None, None),
    },
    "compile": {
        ("--pipeline",): ("pipeline", True, _PIPELINES, None, None),
        ("--train",): ("train", True, None, None, None),
        ("--val",): ("val", True, None, None, None),
        ("--index",): ("index", False, None, None, None),
        ("--out-dir",): ("out_dir", True, None, None, None),
        ("--config",): ("config", False, None, None, None),
        ("--seed",): ("seed", False, None, None, int),
    },
    "predict": {
        ("--pipeline",): ("pipeline", True, _PIPELINES, None, None),
        ("--records",): ("records", False, None, None, None),
        ("--out",): ("out", True, None, None, None),
        ("--trace-out",): ("trace_out", False, None, None, None),
        ("--index",): ("index", False, None, None, None),
        ("--compiled",): ("compiled", False, None, None, None),
        ("--config",): ("config", False, None, None, None),
        ("--strict",): ("strict", False, None, False, None),
    },
    "evaluate": {
        ("--pred",): ("pred", True, None, None, None),
        ("--gold",): ("gold", True, None, None, None),
        ("--out",): ("out", True, None, None, None),
        ("--scorer",): ("scorer", False, None, [], None),
        ("--strict-scorers",): ("strict_scorers", False, None, False, None),
    },
    "report": {
        ("--in",): ("input", True, None, None, None),
        ("--format",): ("format", False, ("table", "json", "markdown"), "table", None),
        ("--out",): ("out", False, None, None, None),
    },
    "replay-verify": {
        ("--pipeline",): ("pipeline", True, _PIPELINES, None, None),
        ("--records",): ("records", False, None, None, None),
        ("--pred",): ("out", True, None, None, None),
        ("--index",): ("index", False, None, None, None),
        ("--compiled",): ("compiled", False, None, None, None),
        ("--config",): ("config", False, None, None, None),
    },
}


def test_every_subcommand_keeps_its_options():
    surface = {
        name: {
            tuple(a.option_strings): (a.dest, a.required, a.choices and tuple(a.choices), a.default, a.type)
            for a in parser._actions
            if a.option_strings and a.dest != "help"
        }
        for name, parser in leaf_parsers(build_parser()).items()
    }
    assert surface == CLI_SURFACE


def test_help_exits_zero_and_lists_subcommands(capsys):
    with pytest.raises(SystemExit) as exc_info:
        run_command(["--help"])
    assert exc_info.value.code == 0
    out = capsys.readouterr().out
    for name in ("ingest", "index", "compile", "predict", "evaluate", "report", "replay-verify"):
        assert name in out


def test_unknown_flag_exits_one_with_usage(capsys):
    assert run_command(["predict", "--bogus"]) == 1
    err = capsys.readouterr().err
    assert "usage" in err.lower()


def test_unknown_subcommand_exits_one(capsys):
    assert run_command(["transmogrify"]) == 1


def test_no_subcommand_exits_one(capsys):
    assert run_command([]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "usage: medcorr [-h] COMMAND ...",
        "error: the following arguments are required: COMMAND",
    ]


def test_missing_input_file_exits_one(tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert run_command(["ingest", "--in", str(tmp_path / "nope.csv"), "--out", str(out)]) == 1
    assert not out.exists()


def test_bad_config_exits_one(tmp_path, capsys):
    config = tmp_path / "bad.yaml"
    config.write_text("pipeline:\n  gate_threshold: 2.0\n", encoding="utf-8")
    code = run_command(
        ["predict", "--pipeline", "uw", "--records", str(RECORDS_CSV),
         "--out", str(tmp_path / "p.csv"), "--config", str(config)]
    )
    assert code == 1


def config_fails_with_one_error_line(tmp_path: Path, capsys, text: str) -> str:
    config = tmp_path / "bad.yaml"
    config.write_text(text, encoding="utf-8")
    code = run_command(
        ["predict", "--pipeline", "uw", "--records", str(RECORDS_CSV),
         "--out", str(tmp_path / "p.csv"), "--config", str(config)]
    )
    err = capsys.readouterr().err
    assert code == 1
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    return lines[0]


def test_config_unknown_int_and_str_keys_in_a_section_exit_one(tmp_path, capsys):
    line = config_fails_with_one_error_line(tmp_path, capsys, "gateway:\n  1: x\n  a: y\n")
    assert line == "error: unknown key(s) in section 'gateway': ['a', 1]"


def test_config_unknown_int_and_str_sections_exit_one(tmp_path, capsys):
    line = config_fails_with_one_error_line(tmp_path, capsys, "1: x\nb: y\n")
    assert line == "error: unknown config section(s): ['b', 1]"


def test_config_integer_of_5000_digits_exits_one(tmp_path, capsys):
    line = config_fails_with_one_error_line(tmp_path, capsys, "gateway:\n  max_tokens: 1" + "0" * 5000 + "\n")
    assert "bad.yaml is not valid YAML" in line and "4300 digits" in line


def test_config_impossible_date_exits_one(tmp_path, capsys):
    line = config_fails_with_one_error_line(tmp_path, capsys, "paths:\n  records: 2020-13-45\n")
    assert line.endswith("bad.yaml is not valid YAML: month must be in 1..12")


def test_config_nested_5000_deep_exits_one(tmp_path, capsys):
    line = config_fails_with_one_error_line(tmp_path, capsys, "[" * 5000 + "]" * 5000 + "\n")
    assert line.endswith("bad.yaml is nested too deeply")


def test_config_repeated_section_exits_one(tmp_path, capsys):
    line = config_fails_with_one_error_line(tmp_path, capsys, "gateway:\n  model: a\ngateway:\n  model: b\n")
    assert line.endswith("bad.yaml is not valid YAML: key 'gateway' is repeated on line 3")


def test_config_repeated_key_in_a_section_exits_one(tmp_path, capsys):
    line = config_fails_with_one_error_line(tmp_path, capsys, "gateway:\n  model: a\n  model: b\n")
    assert line.endswith("bad.yaml is not valid YAML: key 'model' is repeated on line 3")


def test_config_unclosed_flow_sequence_exits_one(tmp_path, capsys):
    line = config_fails_with_one_error_line(tmp_path, capsys, "gateway: [unclosed\n")
    assert line.endswith("bad.yaml is not valid YAML: expected ',' or ']', but got '<stream end>' on line 2, column 1")


def test_config_unhashable_key_exits_one(tmp_path, capsys):
    line = config_fails_with_one_error_line(tmp_path, capsys, "gateway: {[1]: 2}\n")
    assert line.endswith("bad.yaml is not valid YAML: found unhashable key on line 1, column 11")


# --- ingest ------------------------------------------------------------------------


def test_ingest_converts_between_formats(tmp_path):
    out = tmp_path / "records.jsonl"
    code = run_command(
        ["ingest", "--in", str(RECORDS_CSV), "--format", "delimited-table",
         "--out", str(out), "--out-format", "json-lines"]
    )
    assert code == 0
    records = parse_clinical_records(out.read_bytes(), format="json-lines")
    assert records == parse_clinical_records(RECORDS_CSV.read_bytes())


def test_ingest_rejects_invalid_rows(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text(
        'record_id,text,sentences_json,error_flag,error_sentence_id,corrected_sentence\n'
        'r1,Text.,"[""Text.""]",1,-1,Fix.\n',
        encoding="utf-8",
    )
    assert run_command(["ingest", "--in", str(bad), "--out", str(tmp_path / "o.csv")]) == 1
    assert "r1" in capsys.readouterr().err


def test_ingest_reads_a_note_longer_than_the_default_csv_field_limit(tmp_path):
    note = "x" * 140_000 + "."
    long = tmp_path / "long.csv"
    long.write_text(
        'record_id,text,sentences_json,error_flag,error_sentence_id,corrected_sentence\n'
        f'r1,{note},"[""{note}""]",0,-1,NA\n',
        encoding="utf-8",
    )
    out = tmp_path / "o.jsonl"
    assert run_command(["ingest", "--in", str(long), "--out", str(out), "--out-format", "json-lines"]) == 0
    (record,) = parse_clinical_records(out.read_bytes(), format="json-lines")
    assert record.full_text() == note


def test_ingest_writes_the_sentences_joined_by_newlines_as_text(tmp_path):
    # Gold segmentation is authoritative: the input's text column is checked, then dropped.
    raw = tmp_path / "raw.csv"
    raw.write_text(
        'record_id,text,sentences_json,error_flag,error_sentence_id,corrected_sentence\n'
        'r1,Original note text. Two.,"[""One."", ""Two.""]",0,-1,NA\n',
        encoding="utf-8",
    )
    out = tmp_path / "o.csv"
    assert run_command(["ingest", "--in", str(raw), "--out", str(out)]) == 0
    (row,) = csv.DictReader(io.StringIO(out.read_text(encoding="utf-8"), newline=""))
    assert row["text"] == "One.\nTwo."
    assert json.loads(row["sentences_json"]) == ["One.", "Two."]


# --- index --------------------------------------------------------------------------


def test_index_build_and_reload(tmp_path):
    out = tmp_path / "index.json"
    assert run_command(["index", "build", "--corpus", str(MCQ_JSONL), "--out", str(out)]) == 0
    from medcorr.retrieval import document_text, load_index, query

    index = load_index(out)
    assert index.n_documents == 5
    hits = query(index, "iron deficiency anemia ferritin", k=1)
    assert "ferritin" in document_text(index.corpus[hits[0].doc_id])


def test_index_requires_build_action(capsys):
    assert run_command(["index"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "usage: medcorr index [-h] ACTION ...",
        "error: the following arguments are required: ACTION",
    ]


# --- predict against the committed replay cache ------------------------------------------


def test_predict_replay_reproduces_golden_predictions(tmp_path):
    config = replay_config(tmp_path, CACHE_JSONL)
    out = tmp_path / "preds.csv"
    trace_out = tmp_path / "trace.jsonl"
    code = run_command(
        ["predict", "--pipeline", "uw", "--records", str(RECORDS_CSV),
         "--out", str(out), "--trace-out", str(trace_out), "--config", str(config)]
    )
    assert code == 0
    assert out.read_bytes() == GOLDEN_PREDICTIONS.read_bytes()
    assert trace_out.read_bytes() == (FIXTURES / "traces_golden.jsonl").read_bytes()
    traces = [json.loads(line) for line in trace_out.read_text().splitlines()]
    assert len(traces) == 10
    assert all(t["error"] is None for t in traces)


def test_predict_replay_twice_is_byte_identical(tmp_path):
    config = replay_config(tmp_path, CACHE_JSONL)
    outputs = []
    for name in ("one.csv", "two.csv"):
        out = tmp_path / name
        assert run_command(
            ["predict", "--pipeline", "uw", "--records", str(RECORDS_CSV),
             "--out", str(out), "--config", str(config)]
        ) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_predict_cold_cache_exits_two_naming_key(tmp_path, capsys):
    empty_cache = tmp_path / "empty.jsonl"
    config = replay_config(tmp_path, empty_cache)
    out = tmp_path / "preds.csv"
    code = run_command(
        ["predict", "--pipeline", "uw", "--records", str(RECORDS_CSV), "--strict",
         "--out", str(out), "--config", str(config)]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "cache miss" in err
    assert any(len(tok) == 64 for tok in err.replace(":", " ").split())  # the canonical key


def test_predict_under_a_drifted_replay_config_exits_two_naming_the_first_record(tmp_path, capsys):
    # A gateway error is no answer: a non-strict predict stops on it as a compile does.
    config = replay_config(tmp_path, CACHE_JSONL)
    config.write_text(config.read_text(encoding="utf-8") + "  temperature: 0.9\n", encoding="utf-8")
    out = tmp_path / "preds.csv"
    code = run_command(
        ["predict", "--pipeline", "uw", "--records", str(RECORDS_CSV),
         "--out", str(out), "--config", str(config)]
    )
    assert code == 2
    [line] = capsys.readouterr().err.splitlines()
    assert re.fullmatch(r"gateway error: record 'fx001': replay cache miss for key [0-9a-f]{64}", line), line
    assert not out.exists()


def test_replay_verify_under_a_drifted_replay_config_exits_two_naming_the_first_record(tmp_path, capsys):
    config = replay_config(tmp_path, CACHE_JSONL)
    config.write_text(config.read_text(encoding="utf-8") + "  temperature: 0.9\n", encoding="utf-8")
    code = run_command(
        ["replay-verify", "--pipeline", "uw", "--records", str(RECORDS_CSV),
         "--pred", str(GOLDEN_PREDICTIONS), "--config", str(config)]
    )
    assert code == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("gateway error: record 'fx001': replay cache miss for key "), line


def live_config(tmp_path: Path) -> Path:
    config = tmp_path / "live.yaml"
    config.write_text("gateway:\n  backend: live\n  concurrency: 4\n", encoding="utf-8")
    return config


def test_predict_against_a_down_endpoint_exits_two_within_one_retry_round_per_slot(tmp_path, monkeypatch, capsys):
    from functools import partial
    from medcorr import cli
    from medcorr.gateway import MAX_LIVE_ATTEMPTS, LiveBackend
    from helpers import scripted_http_server

    served = []

    def script(path, body):
        served.append(path)
        return 503, {"error": "unavailable"}

    monkeypatch.setattr(cli, "LiveBackend", partial(LiveBackend, sleeper=lambda seconds: None))
    out = tmp_path / "preds.csv"
    with scripted_http_server(script) as base_url:
        monkeypatch.setenv("MEDCORR_BASE_URL", base_url)
        code = run_command(
            ["predict", "--pipeline", "uw", "--records", str(RECORDS_CSV),
             "--out", str(out), "--config", str(live_config(tmp_path))]
        )
    assert code == 2
    [line] = capsys.readouterr().err.splitlines()
    assert re.fullmatch(r"gateway error: record 'fx\d{3}': chat completion failed after 5 attempts: HTTP 503", line)
    assert not out.exists()
    # Once one record fails, only the calls already holding one of the 4 slots finish.
    assert len(served) <= 4 * MAX_LIVE_ATTEMPTS


def test_predict_with_one_record_rate_limited_throughout_exits_two_naming_it(tmp_path, monkeypatch, capsys):
    from functools import partial
    from medcorr import cli
    from medcorr.gateway import LiveBackend, LmRequest, Message
    from helpers import chat_completion_payload, scripted_http_server

    records = parse_clinical_records(RECORDS_CSV.read_bytes())
    limited = records[3]
    responder = uw_gold_responder(records)
    limited_requests, sleeps = [], []

    def script(path, body):
        payload = json.loads(body)
        request = LmRequest(
            model=payload["model"], messages=tuple(Message(m["role"], m["content"]) for m in payload["messages"]),
            temperature=payload["temperature"], top_p=payload["top_p"], max_tokens=payload["max_tokens"],
        )
        if limited.sentences[0] in request.messages[-1].content:
            limited_requests.append(path)
            return 429, {"error": "rate limited"}
        return 200, chat_completion_payload(responder(request))

    monkeypatch.setattr(cli, "LiveBackend", partial(LiveBackend, sleeper=sleeps.append))
    out = tmp_path / "preds.csv"
    with scripted_http_server(script) as base_url:
        monkeypatch.setenv("MEDCORR_BASE_URL", base_url)
        code = run_command(
            ["predict", "--pipeline", "uw", "--records", str(RECORDS_CSV),
             "--out", str(out), "--config", str(live_config(tmp_path))]
        )
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        f"gateway error: record {limited.record_id!r}: chat completion failed after 5 attempts: HTTP 429"
    ]
    assert not out.exists()
    assert len(limited_requests) == 5 and sleeps == [0.5, 1.0, 2.0, 4.0]


def test_predict_ms_without_index_exits_one(tmp_path, capsys):
    config = replay_config(tmp_path, CACHE_JSONL)
    code = run_command(
        ["predict", "--pipeline", "ms", "--records", str(RECORDS_CSV),
         "--out", str(tmp_path / "p.csv"), "--config", str(config)]
    )
    assert code == 1
    assert "index" in capsys.readouterr().err


def test_predict_ms_with_the_gate_enabled_keeps_the_original_sentence(tmp_path):
    from medcorr.corpus import serialize_clinical_records
    from medcorr.pipelines import predict_batch
    from medcorr.retrieval import load_index
    from helpers import stage_of

    # Every ms record is flagged and its first sentence replaced by one that
    # shares no word with it: ROUGE-L 0.0, below the 0.7 gate.
    replacement = "Zzz qqq."
    responses = {
        "extract_choice": "Rationale: the note asserts it.\nExtracted Choice: none of these",
        "compare_answer": "Rationale: they differ.\nVerdict: mismatch",
        "localize": "Error Line: 0",
        "correct": f"Rationale: rewritten.\nCorrected Sentence: {replacement}",
    }
    records = parse_clinical_records(RECORDS_CSV.read_bytes())[:2]
    records_csv = tmp_path / "subset.csv"
    records_csv.write_text(serialize_clinical_records(records), encoding="utf-8")
    index_path = tmp_path / "index.json"
    assert run_command(["index", "build", "--corpus", str(MCQ_JSONL), "--out", str(index_path)]) == 0
    cache_path = tmp_path / "ms_cache.jsonl"
    recorder = LmGateway(
        backend=ScriptedBackend(lambda request: responses[stage_of(request)]),
        cache=ReplayCache(cache_path),
        record=True,
    )
    predict_batch(default_ms_pipeline(load_index(index_path)), records, recorder, strict=True)

    def predict(gate: str) -> tuple[list[Prediction], list[dict]]:
        config = tmp_path / f"gate-{gate}.yaml"
        config.write_text(
            f"gateway:\n  backend: replay\n  cache_path: {cache_path}\npipeline:\n  ms_gate_enabled: {gate}\n",
            encoding="utf-8",
        )
        out, trace_out = tmp_path / f"p-{gate}.csv", tmp_path / f"t-{gate}.jsonl"
        assert run_command(
            ["predict", "--pipeline", "ms", "--records", str(records_csv), "--index", str(index_path), "--strict",
             "--out", str(out), "--trace-out", str(trace_out), "--config", str(config)]
        ) == 0
        traces = [json.loads(line) for line in trace_out.read_text(encoding="utf-8").splitlines()]
        return parse_predictions(out.read_text(encoding="utf-8")), traces

    ungated, ungated_traces = predict("false")
    assert [p.corrected_sentence for p in ungated] == [replacement] * len(records)
    assert all("quality_gate" not in [s["stage"] for s in t["trace"]] for t in ungated_traces)
    gated, traces = predict("true")
    originals = [r.sentence_text(0) for r in records]
    assert [(p.flag, p.error_sentence_id, p.corrected_sentence) for p in gated] == [(1, 0, s) for s in originals]
    for trace, original in zip(traces, originals):
        assert trace["corrected_sentence"] == original
        # The gate's inputs are the record's sentence and the correct stage's output.
        (correct,) = [s for s in trace["trace"] if s["stage"] == "correct"]
        assert correct["outputs"]["corrected_sentence"] == replacement
        (gate,) = [s for s in trace["trace"] if s["stage"] == "quality_gate"]
        assert gate["outputs"] == {"gated": "true", "final": original}


def test_predict_with_an_na_rewrite_writes_a_file_that_evaluate_reads(tmp_path, capsys):
    from medcorr.corpus import serialize_clinical_records
    from medcorr.pipelines import predict_batch
    from medcorr.retrieval import load_index
    from helpers import stage_of

    # Every ms record is flagged and, with the gate off, rewritten to exactly "NA".
    responses = {
        "extract_choice": "Rationale: the note asserts it.\nExtracted Choice: none of these",
        "compare_answer": "Rationale: they differ.\nVerdict: mismatch",
        "localize": "Error Line: 0",
        "correct": "Rationale: nothing to change.\nCorrected Sentence: NA",
    }
    records = parse_clinical_records(RECORDS_CSV.read_bytes())[:2]
    records_csv = tmp_path / "subset.csv"
    records_csv.write_text(serialize_clinical_records(records), encoding="utf-8")
    index_path = tmp_path / "index.json"
    assert run_command(["index", "build", "--corpus", str(MCQ_JSONL), "--out", str(index_path)]) == 0
    cache_path = tmp_path / "ms_cache.jsonl"
    recorder = LmGateway(
        backend=ScriptedBackend(lambda request: responses[stage_of(request)]),
        cache=ReplayCache(cache_path),
        record=True,
    )
    predict_batch(default_ms_pipeline(load_index(index_path)), records, recorder)
    config = replay_config(tmp_path, cache_path)
    out = tmp_path / "preds.csv"
    predict = ["predict", "--pipeline", "ms", "--records", str(records_csv), "--index", str(index_path),
               "--out", str(out), "--config", str(config)]
    assert run_command(predict) == 0
    assert out.read_text(encoding="utf-8").splitlines()[1:] == [f"{r.record_id},0,-1,NA" for r in records]
    assert run_command(["evaluate", "--pred", str(out), "--gold", str(records_csv),
                        "--out", str(tmp_path / "report.json")]) == 0
    capsys.readouterr()
    assert run_command([*predict, "--strict"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "internal error: stage 'correct': the corrected sentence 'NA' reads as no correction"
    ]


def test_predict_records_path_falls_back_to_config(tmp_path):
    config = tmp_path / "config.yaml"
    config.write_text(
        "gateway:\n"
        "  backend: replay\n"
        f"  cache_path: {CACHE_JSONL}\n"
        "paths:\n"
        f"  records: {RECORDS_CSV}\n",
        encoding="utf-8",
    )
    out = tmp_path / "preds.csv"
    code = run_command(
        ["predict", "--pipeline", "uw", "--out", str(out), "--config", str(config)]
    )
    assert code == 0
    assert out.read_bytes() == GOLDEN_PREDICTIONS.read_bytes()


def test_predict_without_records_anywhere_exits_one(tmp_path, capsys):
    config = replay_config(tmp_path, CACHE_JSONL)
    code = run_command(
        ["predict", "--pipeline", "uw", "--out", str(tmp_path / "p.csv"), "--config", str(config)]
    )
    assert code == 1
    assert "records" in capsys.readouterr().err


def test_predict_writes_only_out_paths(tmp_path, monkeypatch):
    workdir = tmp_path / "work"
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    config = replay_config(tmp_path, CACHE_JSONL)
    out = tmp_path / "preds.csv"
    assert run_command(
        ["predict", "--pipeline", "uw", "--records", str(RECORDS_CSV),
         "--out", str(out), "--config", str(config)]
    ) == 0
    assert list(workdir.iterdir()) == []  # nothing stray in the cwd


@pytest.mark.parametrize("spelling", ["same", "dotted"])
def test_predict_refuses_out_and_trace_out_naming_one_file(tmp_path, capsys, spelling):
    out = tmp_path / "p.csv"
    out.write_bytes(b"earlier output\n")
    trace_out = out if spelling == "same" else tmp_path / "sub" / ".." / "p.csv"
    (tmp_path / "sub").mkdir()
    code = run_command(predict_argv(tmp_path, "--pipeline", "uw", "--out", str(out), "--trace-out", str(trace_out)))
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [f"error: two outputs name one file: {trace_out}"]
    assert out.read_bytes() == b"earlier output\n"


@pytest.mark.parametrize("flag", ["--out", "--trace-out"])
def test_predict_refuses_an_output_naming_the_cache_file(tmp_path, capsys, flag):
    cache = fixture_cache_at(tmp_path / "cache.jsonl")
    named = tmp_path / "sub" / ".." / "cache.jsonl"
    (tmp_path / "sub").mkdir()
    code = run_command(predict_argv(tmp_path, "--pipeline", "uw", flag, str(named), config=replay_config(tmp_path, cache)))
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [f"error: cannot write {named}: it is the cache file gateway.cache_path"]
    assert cache.read_bytes() == CACHE_JSONL.read_bytes()


def copy_to(source: Path, path: Path) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(source.read_bytes())
    return path


def score_report_at(path: Path) -> Path:
    path.write_text(report_payload(), encoding="utf-8")
    return path


def config_with(tmp_path: Path, **paths: Path) -> Path:
    """The fixture replay config with ``paths`` settings."""
    config = replay_config(tmp_path, CACHE_JSONL)
    settings = "".join(f"  {name}: {path}\n" for name, path in paths.items())
    config.write_text(config.read_text(encoding="utf-8") + f"paths:\n{settings}", encoding="utf-8")
    return config


def detect_stage_in(directory_path: Path) -> Path:
    directory_path.mkdir()
    stage = directory_path / "detect.json"
    stage.write_text(program_to_json(default_uw_pipeline().detect), encoding="utf-8")
    return stage


def compile_reading(tmp_path: Path, option: str, output: str) -> tuple[list[str], Path]:
    """The replayed uw compile with its ``option`` file moved to the output ``output``."""
    argv = recorded_compile_argv(tmp_path, "uw")
    i = argv.index(option) + 1
    moved = copy_to(Path(argv[i]), tmp_path / "out" / output)
    argv[i] = str(moved)
    return argv, moved


# Each case builds (argv, the input file one of its outputs names) in
# tmp_path; each run would write over its input and exit 0 were it let.
_INPUT_OVERWRITES = {
    "predict --out the --records file": lambda t: (
        predict_argv(t, "--pipeline", "uw", "--out", str(t / "r.csv"), records=copy_to(RECORDS_CSV, t / "r.csv")),
        t / "r.csv",
    ),
    "predict --trace-out the paths.records file": lambda t: (
        ["predict", "--pipeline", "uw", "--out", str(t / "p.csv"), "--trace-out", str(t / "r.csv"),
         "--config", str(config_with(t, records=copy_to(RECORDS_CSV, t / "r.csv")))],
        t / "r.csv",
    ),
    "predict --out the --config file": lambda t: (
        predict_argv(t, "--pipeline", "uw", "--out", str(t / "medcorr.yaml")), t / "medcorr.yaml"
    ),
    "predict ms --out the --index file": lambda t: (
        predict_argv(t, "--pipeline", "ms", "--index", str(mcq_index(t)), "--out", str(t / "index.json")),
        t / "index.json",
    ),
    "predict ms --trace-out the paths.index file": lambda t: (
        predict_argv(t, "--pipeline", "ms", "--trace-out", str(t / "index.json"),
                     config=config_with(t, index=mcq_index(t))),
        t / "index.json",
    ),
    "predict --out a --compiled stage file": lambda t: (
        predict_argv(t, "--pipeline", "uw", "--compiled", str(t / "c"), "--out", str(detect_stage_in(t / "c"))),
        t / "c" / "detect.json",
    ),
    "predict --trace-out a paths.compiled_dir stage file": lambda t: (
        predict_argv(t, "--pipeline", "uw", "--trace-out", str(detect_stage_in(t / "c")),
                     config=config_with(t, compiled_dir=t / "c")),
        t / "c" / "detect.json",
    ),
    "compile detect.json the --train file": lambda t: compile_reading(t, "--train", "detect.json"),
    "compile a report the --val file": lambda t: compile_reading(t, "--val", "compile_report_correct.json"),
    "evaluate --out the --pred file": lambda t: (
        ["evaluate", "--pred", str(copy_to(GOLDEN_PREDICTIONS, t / "p.csv")), "--gold", str(RECORDS_CSV),
         "--out", str(t / "p.csv")],
        t / "p.csv",
    ),
    "evaluate --out the --gold file": lambda t: (
        ["evaluate", "--pred", str(GOLDEN_PREDICTIONS), "--gold", str(copy_to(RECORDS_CSV, t / "g.csv")),
         "--out", str(t / "g.csv")],
        t / "g.csv",
    ),
    "report --out the --in file": lambda t: (
        ["report", "--in", str(score_report_at(t / "r.json")), "--out", str(t / "r.json")], t / "r.json"
    ),
    "index build --out the --corpus file": lambda t: (
        ["index", "build", "--corpus", str(copy_to(MCQ_JSONL, t / "mcq.jsonl")), "--out", str(t / "mcq.jsonl")],
        t / "mcq.jsonl",
    ),
    "ingest --out the --in file": lambda t: (
        ["ingest", "--in", str(copy_to(RECORDS_CSV, t / "r.csv")), "--out", str(t / "r.csv")], t / "r.csv"
    ),
}


@pytest.mark.parametrize("case", list(_INPUT_OVERWRITES))
def test_an_output_naming_a_file_the_run_reads_exits_one_leaving_it_as_it_was(tmp_path, capsys, case):
    argv, source = _INPUT_OVERWRITES[case](tmp_path)
    before = source.read_bytes()
    code = run_command(argv)
    [line] = capsys.readouterr().err.splitlines()
    assert code == 1
    named = re.fullmatch(r"error: cannot write (.*): it is the .*file.*", line)
    assert named and os.path.realpath(named[1]) == os.path.realpath(source)
    assert source.read_bytes() == before


# --- replay-verify --------------------------------------------------------------------------


def test_replay_verify_passes_on_golden_file(tmp_path):
    config = replay_config(tmp_path, CACHE_JSONL)
    code = run_command(
        ["replay-verify", "--pipeline", "uw", "--records", str(RECORDS_CSV),
         "--pred", str(GOLDEN_PREDICTIONS), "--config", str(config)]
    )
    assert code == 0


def test_replay_verify_detects_drift(tmp_path, capsys):
    config = replay_config(tmp_path, CACHE_JSONL)
    tampered = tmp_path / "tampered.csv"
    tampered.write_text(
        GOLDEN_PREDICTIONS.read_text(encoding="utf-8").replace("fx001,1,2", "fx001,1,3"),
        encoding="utf-8",
    )
    code = run_command(
        ["replay-verify", "--pipeline", "uw", "--records", str(RECORDS_CSV),
         "--pred", str(tampered), "--config", str(config)]
    )
    assert code == 1
    assert "drift" in capsys.readouterr().err


def test_replay_verify_requires_replay_backend(tmp_path, capsys):
    config = tmp_path / "live.yaml"
    config.write_text("gateway:\n  backend: live\n", encoding="utf-8")
    code = run_command(
        ["replay-verify", "--pipeline", "uw", "--records", str(RECORDS_CSV),
         "--pred", str(GOLDEN_PREDICTIONS), "--config", str(config)]
    )
    assert code == 1


# --- evaluate and report ----------------------------------------------------------------------


def test_evaluate_perfect_predictions_and_report_round_trip(tmp_path, capsys):
    pred_csv = perfect_predictions_csv(tmp_path)
    report_json = tmp_path / "report.json"
    code = run_command(
        ["evaluate", "--pred", str(pred_csv), "--gold", str(RECORDS_CSV), "--out", str(report_json)]
    )
    assert code == 0
    report = ScoreReport.from_json(report_json.read_text(encoding="utf-8"))
    assert report.flag_accuracy == 1.0
    assert report.sentence_accuracy == 1.0
    assert report.composite_means["rouge_l_f"] == 1.0

    code = run_command(["report", "--in", str(report_json), "--format", "json"])
    assert code == 0
    rendered = capsys.readouterr().out
    assert ScoreReport.from_json(rendered) == report


def test_evaluate_id_mismatch_exits_one(tmp_path, capsys):
    pred_csv = tmp_path / "short.csv"
    pred_csv.write_text(
        "record_id,error_flag,error_sentence_id,corrected_sentence\nfx001,0,-1,NA\n",
        encoding="utf-8",
    )
    code = run_command(
        ["evaluate", "--pred", str(pred_csv), "--gold", str(RECORDS_CSV),
         "--out", str(tmp_path / "r.json")]
    )
    assert code == 1
    assert "mismatch" in capsys.readouterr().err


def test_report_markdown_has_row_per_metric_and_unavailable_cells(tmp_path, capsys):
    pred_csv = perfect_predictions_csv(tmp_path)
    report_json = tmp_path / "report.json"
    run_command(["evaluate", "--pred", str(pred_csv), "--gold", str(RECORDS_CSV), "--out", str(report_json)])
    assert run_command(["report", "--in", str(report_json), "--format", "markdown"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("| Metric | Value |")
    assert "| composite rouge_l_f | 1.0000 |" in out
    assert "| composite bertscore | unavailable |" in out
    assert "| composite aggregate | unavailable |" in out


def test_report_table_format(tmp_path, capsys):
    pred_csv = perfect_predictions_csv(tmp_path)
    report_json = tmp_path / "report.json"
    run_command(["evaluate", "--pred", str(pred_csv), "--gold", str(RECORDS_CSV), "--out", str(report_json)])
    assert run_command(["report", "--in", str(report_json)]) == 0
    out = capsys.readouterr().out
    assert "error flag accuracy" in out
    assert "unavailable" in out


def test_report_rejects_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{}", encoding="utf-8")
    assert run_command(["report", "--in", str(bad)]) == 1


# --- malformed inputs end in one error line, never a traceback ---------------------------


def run_cli_process(argv: list[str]) -> subprocess.CompletedProcess:
    """Run the CLI in a fresh interpreter, as a user does, so that whatever
    would escape ``main`` shows on stderr."""
    src = str(Path(__file__).parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, "-m", "medcorr", *argv], capture_output=True, text=True, env=env, timeout=120
    )


def assert_one_error_line(result: subprocess.CompletedProcess) -> None:
    assert "Traceback" not in result.stderr
    assert result.returncode == 1
    lines = result.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), result.stderr


@pytest.mark.parametrize(
    "payload",
    [
        "[1, 2]",
        '"report"',
        "null",
        pytest.param(report_payload(pred_flag=float("inf")), id="pred-flag-infinity"),
        pytest.param(report_payload().replace('"composite_means": {"rouge1_f": 1.0', '"composite_means": {"rouge1_f": "x"'),
                     id="composite-mean-a-string"),
        pytest.param("[" * 100_000 + "]" * 100_000, id="nested-too-deep"),
        pytest.param('{"format_version": ' + "1" * 5_000 + "}", id="integer-too-long"),
    ],
)
def test_report_of_a_non_object_file_exits_one_without_traceback(tmp_path, payload):
    bad = tmp_path / "bad.json"
    bad.write_text(payload, encoding="utf-8")
    result = run_cli_process(["report", "--in", str(bad)])
    assert_one_error_line(result)
    assert str(bad) in result.stderr


_MCQ = {"question": "Which drug?", "options": {"A": "aspirin", "B": "heparin"}, "answer": "A"}


_VOCABULARY = {"of": 0, "the": 1, "with": 2}


def index_payload(postings=([[0], [1]],) * 3, corpus=(_MCQ,), version=5, **fields) -> str:
    """An index file of format ``version`` over three terms whose corpus holds
    the MCQ objects ``corpus``; ``fields`` replace top-level fields."""
    return index_document(_VOCABULARY, list(postings), list(corpus), version=version, **fields)


def two_document_index_payload(first_posting: list) -> str:
    return index_payload(postings=[first_posting, [[0], [1]], [[1], [1]]], corpus=[_MCQ, _MCQ])


@pytest.mark.parametrize(
    "payload",
    [
        "[1, 2]",
        '{"format_version": 5}',
        '{"format_version": 5, "corpus": [1]}',
        pytest.param(index_payload(format_version=True), id="format-version-true"),
        pytest.param(index_payload(format_version=5.0), id="format-version-a-float"),
        pytest.param(index_payload(vocabulary={"of": 0, "the": "1", "with": 2}), id="vocabulary-id-a-string"),
        pytest.param(index_payload(counts=1), id="counts-a-number"),
        pytest.param(index_payload(doc_ids="AAAA!AAA"), id="doc-ids-invalid-base64"),
        pytest.param(index_payload(doc_ids="AAAA"), id="doc-ids-not-whole-items"),
        pytest.param(index_payload(posting_lengths=packed("i", [1, 1, 2])), id="lengths-do-not-sum-to-the-ids"),
        pytest.param(index_payload(counts=packed("d", [1.0, 1.0, 1.0])), id="counts-packed-as-doubles"),
        pytest.param(index_payload(postings=[[[1], [1]], [[0], [1]], [[0], [1]]]), id="doc-id-out-of-range"),
        pytest.param(index_payload(postings=[[[-1], [1]], [[0], [1]], [[0], [1]]]), id="doc-id-negative"),
        pytest.param(two_document_index_payload([[1, 0], [1, 1]]), id="doc-ids-not-ascending"),
        pytest.param(two_document_index_payload([[0, 0], [1, 1]]), id="doc-id-repeated"),
        pytest.param(index_payload(postings=[[[0], [0]], [[0], [1]], [[0], [1]]]), id="count-below-one"),
        pytest.param(index_payload(postings=[[[0], [-1]], [[0], [1]], [[0], [1]]]), id="count-negative"),
        pytest.param(two_document_index_payload([[0, 1], [1]]), id="ids-and-counts-differ-in-length"),
        pytest.param(index_payload(postings=[[[], []], [[0], [1]], [[0], [1]]]), id="empty-posting"),
        pytest.param(index_payload(postings=[[[0], [1]], [[0], [1]]]), id="postings-fewer-than-terms"),
        pytest.param(index_payload(corpus=[{**_MCQ, "options": {"A": "aspirin", "B": None}}]), id="option-text-null"),
    ],
)
def test_predict_with_a_malformed_index_exits_one_without_traceback(tmp_path, payload):
    index = tmp_path / "index.json"
    index.write_text(payload, encoding="utf-8")
    result = predict_ms_with_index(tmp_path, index)
    assert_one_error_line(result)
    assert f"index file {index}" in result.stderr
    assert not (tmp_path / "p.csv").exists()


@pytest.mark.parametrize(
    "payload",
    [
        {
            "format_version": 1,
            "vocabulary": _VOCABULARY,
            "document_frequency": {"0": 1, "1": 1, "2": 1},
            "doc_vectors": [{"0": 1.0, "1": 1.0, "2": 1.0}],
            "doc_norms": [1.7],
            "corpus": [_MCQ],
        },
        {
            "format_version": 2,
            "vocabulary": _VOCABULARY,
            "postings": [[[0], [1]], [[0], [1]], [[0], [1]]],
            "doc_norms": [1.7],
            "corpus": [_MCQ],
        },
        json.loads(index_payload(version=3, doc_norms=packed("d", [3**0.5]))),
        {"format_version": 3},
        json.loads(index_payload(version=4)),
    ],
    ids=["format-1", "format-2", "format-3", "format-3-without-fields", "format-4"],
)
def test_predict_with_an_index_of_an_older_format_asks_to_rebuild_it(tmp_path, payload):
    index = tmp_path / "index.json"
    index.write_text(json.dumps(payload), encoding="utf-8")
    result = predict_ms_with_index(tmp_path, index)
    assert_one_error_line(result)
    assert f"index file {index} " in result.stderr
    assert "rebuild it with `medcorr index build`" in result.stderr
    assert not (tmp_path / "p.csv").exists()


_MCQ_LINE = json.dumps(_MCQ) + "\n"
_REPEATED_KEY_LINE = '{"question": "a?", "options": {"A": "x", "A": "y", "B": "z"}, "answer": "A"}\n'


def corpus_index_payload(corpus) -> str:
    """The one-document index file of ``index_payload`` with ``corpus`` as its corpus field."""
    return json.dumps({**json.loads(index_payload()), "corpus": corpus})


@pytest.mark.parametrize(
    ("payload", "message"),
    [
        pytest.param(corpus_index_payload([_MCQ]), "the corpus is not a string", id="corpus-a-list"),
        pytest.param(index_document({}, [], []), "the corpus holds no question", id="corpus-empty"),
        pytest.param(corpus_index_payload(_MCQ_LINE + "{aspirin}\n"), "corpus line 2: Expecting property name",
                     id="line-not-json"),
        pytest.param(corpus_index_payload(_MCQ_LINE * 2 + _MCQ_LINE.strip() * 2 + "\n"),
                     "corpus line 3: not one JSON object", id="line-of-two-objects"),
        pytest.param(corpus_index_payload(f"[{_MCQ_LINE.strip()}]\n"), "corpus line 1: not one JSON object",
                     id="line-an-array"),
        pytest.param(corpus_index_payload(_MCQ_LINE + json.dumps({"question": "q", "options": _MCQ["options"]}) + "\n"),
                     "corpus line 2: missing keys ['answer']", id="line-missing-answer"),
        pytest.param(corpus_index_payload(_REPEATED_KEY_LINE), "corpus line 1: duplicate key 'A'",
                     id="line-repeating-a-key"),
    ],
)
def test_predict_with_a_malformed_index_corpus_exits_one_naming_the_file_and_line(tmp_path, payload, message):
    index = tmp_path / "index.json"
    index.write_text(payload, encoding="utf-8")
    result = predict_ms_with_index(tmp_path, index)
    assert_one_error_line(result)
    assert f"error: malformed index file {index}: {message}" in result.stderr
    assert not (tmp_path / "p.csv").exists()


def predict_ms_with_index(tmp_path: Path, index: Path) -> subprocess.CompletedProcess:
    return run_cli_process(
        ["predict", "--pipeline", "ms", "--records", str(RECORDS_CSV), "--index", str(index),
         "--out", str(tmp_path / "p.csv"), "--config", str(replay_config(tmp_path, CACHE_JSONL))]
    )


def detect_program_payload(**fields) -> str:
    return json.dumps({**json.loads(program_to_json(default_uw_pipeline().detect)), **fields})


def assert_compiled_stage_rejected(tmp_path: Path, payload: str, stage: str = "detect") -> str:
    """Run a uw predict with ``payload`` as the compiled ``stage`` and return its error line."""
    compiled = tmp_path / "compiled"
    compiled.mkdir()
    (compiled / f"{stage}.json").write_text(payload, encoding="utf-8")
    result = run_cli_process(
        ["predict", "--pipeline", "uw", "--records", str(RECORDS_CSV), "--compiled", str(compiled),
         "--out", str(tmp_path / "p.csv"), "--config", str(replay_config(tmp_path, CACHE_JSONL))]
    )
    assert_one_error_line(result)
    assert str(compiled / f"{stage}.json") in result.stderr
    return result.stderr


def test_predict_with_a_non_object_compiled_stage_exits_one_without_traceback(tmp_path):
    assert_compiled_stage_rejected(tmp_path, "[1]")


@pytest.mark.parametrize(
    "payload",
    [
        pytest.param(
            detect_program_payload(demos=[{"input_values": [[1, 2, 3]], "output_values": {}}]),
            id="demo-input-values-a-nested-list",
        ),
        pytest.param(detect_program_payload(format_version=True), id="format-version-true"),
        pytest.param(
            detect_program_payload(signature={**json.loads(detect_program_payload())["signature"], "instruction": 7}),
            id="instruction-not-a-string",
        ),
        pytest.param(detect_program_payload(compiled_instruction=5), id="compiled-instruction-not-a-string"),
        pytest.param(
            detect_program_payload(demos=[{"input_values": {"clinical_text": 5}, "output_values": {}}]),
            id="demo-value-not-a-string",
        ),
    ],
)
def test_predict_with_a_malformed_compiled_stage_exits_one_without_traceback(tmp_path, payload):
    assert_compiled_stage_rejected(tmp_path, payload)


def test_predict_rejects_a_compiled_stage_of_the_other_pipeline(tmp_path):
    # ms correct also reads the retrieved answer, which uw never supplies:
    # loaded, every flag-1 record would fail into a flag-0 fallback
    ms = default_ms_pipeline(build_index(parse_mcq_corpus(MCQ_JSONL.read_text(encoding="utf-8"))))
    error = assert_compiled_stage_rejected(tmp_path, program_to_json(ms.correct), stage="correct")
    assert "uw stage 'correct' reads ['error_sentence']" in error


def test_predict_rejects_a_compiled_stage_whose_output_is_renamed(tmp_path):
    # the pipeline reads detect's output by its name, error_flag
    payload = json.loads(detect_program_payload())
    payload["signature"]["outputs"][0]["name"] = "flag"
    error = assert_compiled_stage_rejected(tmp_path, json.dumps(payload))
    assert "writes ['error_flag'], but its program reads ['clinical_text'] and writes ['flag']" in error


@pytest.mark.parametrize("strict", [False, True])
def test_predict_with_a_non_string_cached_text_exits_one_without_traceback(tmp_path, strict):
    lines = CACHE_JSONL.read_text(encoding="utf-8").splitlines()
    entry = json.loads(lines[0])
    entry["response"]["text"] = 5
    cache = tmp_path / "cache.jsonl"
    cache.write_text("\n".join([json.dumps(entry), *lines[1:]]) + "\n", encoding="utf-8")
    result = run_cli_process(
        ["predict", "--pipeline", "uw", "--records", str(RECORDS_CSV), "--out", str(tmp_path / "p.csv"),
         "--config", str(replay_config(tmp_path, cache)), *(["--strict"] if strict else [])]
    )
    assert_one_error_line(result)
    assert "line 1 is malformed" in result.stderr


UNDECODABLE = bytes.fromhex("fffe00626164")


def undecodable(tmp_path: Path, name: str) -> Path:
    path = tmp_path / name
    path.write_bytes(UNDECODABLE)
    return path


def no_document_index(tmp_path: Path) -> Path:
    path = tmp_path / "index.json"
    path.write_text(index_document({}, [], []), encoding="utf-8")
    return path


def directory(path: Path) -> Path:
    path.mkdir()
    return path


def surrogate_records(tmp_path: Path) -> Path:
    # valid UTF-8 on disk; the JSON escape decodes to a lone surrogate, which
    # no UTF-8 request, cache line or output file can carry
    path = tmp_path / "surrogate.csv"
    path.write_text(
        "record_id,text,sentences_json,error_flag,error_sentence_id,corrected_sentence\n"
        'r1,Fine. Bad.,"[""Fine."", ""Bad \\ud800.""]",0,-1,NA\n',
        encoding="utf-8",
    )
    return path


def surrogate_mcq_corpus(tmp_path: Path) -> Path:
    path = tmp_path / "mcq.jsonl"
    path.write_text(json.dumps({**_MCQ, "question": "Which drug\ud800?"}) + "\n", encoding="utf-8")
    return path


def surrogate_index(tmp_path: Path) -> Path:
    path = tmp_path / "index.json"
    path.write_text(index_payload(corpus=[{**_MCQ, "question": "Which drug\ud800?"}]), encoding="utf-8")
    return path


def string_gold_records(tmp_path: Path) -> Path:
    # read as parsed: the strings "1" and "0" are not the integers a flagged record needs
    path = tmp_path / "string-gold.jsonl"
    record = {"record_id": "r1", "sentences": ["One."], "error_flag": "1", "error_sentence_id": "0",
              "corrected_sentence": "One fixed."}
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    return path


def predict_argv(tmp_path: Path, *extra: str, records: Path = RECORDS_CSV, config: Path | None = None) -> list[str]:
    # a later --out in extra wins
    config = config or replay_config(tmp_path, CACHE_JSONL)
    return ["predict", "--records", str(records), "--out", str(tmp_path / "p.csv"), "--config", str(config), *extra]


def no_model_config(tmp_path: Path, compiled_dir: Path | None = None) -> Path:
    """A replay config under which any model call misses and fails the run (exit 2)."""
    cache = tmp_path / "empty.jsonl"
    cache.write_bytes(b"")
    config = tmp_path / "no-model.yaml"
    paths = f"paths:\n  compiled_dir: {compiled_dir}\n" if compiled_dir else ""
    config.write_text(f"gateway:\n  cache_path: {cache}\npipeline:\n  strict: true\n{paths}", encoding="utf-8")
    return config


def fixture_cache_at(path: Path) -> Path:
    """A copy of the fixture replay cache at ``path``, which a run may spoil."""
    path.write_bytes(CACHE_JSONL.read_bytes())
    return path


def mcq_index(tmp_path: Path) -> Path:
    from medcorr.retrieval import save_index

    path = tmp_path / "index.json"
    save_index(build_index(parse_mcq_corpus(MCQ_JSONL.read_bytes())), path)
    return path


def compile_argv(tmp_path: Path, pipeline: str, out_dir: Path, *extra: str) -> list[str]:
    return ["compile", "--pipeline", pipeline, "--train", str(RECORDS_CSV), "--val", str(RECORDS_CSV),
            "--out-dir", str(out_dir), "--config", str(no_model_config(tmp_path)), *extra]


def cache_dir_config(tmp_path: Path, backend: str) -> Path:
    """A ``backend`` config whose cache path is a directory; nothing listens
    on port 9, so a live request could not be served."""
    config = tmp_path / f"{backend}.yaml"
    config.write_text(
        f"gateway:\n  backend: {backend}\n  base_url: http://127.0.0.1:9/v1\n"
        f"  cache_path: {directory(tmp_path / 'cachedir')}\n",
        encoding="utf-8",
    )
    return config


def compiled_with_detect(tmp_path: Path, make) -> str:
    compiled = directory(tmp_path / "compiled")
    make(compiled / "detect.json")
    return str(compiled)


# Each case builds (argv, the path the error line must name or None) in tmp_path.
_FILE_FAILURES = {
    "report --in undecodable": lambda t: (["report", "--in", str(undecodable(t, "r.json"))], "r.json"),
    "evaluate --pred undecodable": lambda t: (
        ["evaluate", "--pred", str(undecodable(t, "p.csv")), "--gold", str(RECORDS_CSV), "--out", str(t / "s.json")],
        "p.csv",
    ),
    "replay-verify --pred undecodable": lambda t: (
        ["replay-verify", "--pipeline", "uw", "--records", str(RECORDS_CSV), "--pred", str(undecodable(t, "p.csv")),
         "--config", str(replay_config(t, CACHE_JSONL))],
        "p.csv",
    ),
    "--config undecodable": lambda t: (
        predict_argv(t, "--pipeline", "uw", config=undecodable(t, "bad.yaml")), "bad.yaml"
    ),
    "--index undecodable": lambda t: (
        predict_argv(t, "--pipeline", "ms", "--index", str(undecodable(t, "index.json"))), "index.json"
    ),
    "compiled detect.json undecodable": lambda t: (
        predict_argv(t, "--pipeline", "uw", "--compiled", compiled_with_detect(t, lambda p: p.write_bytes(UNDECODABLE))),
        "detect.json",
    ),
    "compiled detect.json is a directory": lambda t: (
        predict_argv(t, "--pipeline", "uw", "--compiled", compiled_with_detect(t, directory)), "detect.json"
    ),
    "--compiled missing": lambda t: (
        predict_argv(t, "--pipeline", "uw", "--compiled", str(t / "missing"), config=no_model_config(t)), "missing"
    ),
    "--compiled a CSV file": lambda t: (
        predict_argv(t, "--pipeline", "uw", "--compiled", str(RECORDS_CSV), config=no_model_config(t)),
        str(RECORDS_CSV),
    ),
    "paths.compiled_dir missing": lambda t: (
        predict_argv(t, "--pipeline", "uw", config=no_model_config(t, t / "missing")), "missing"
    ),
    "replay-verify --pred undecodable, before any cache lookup": lambda t: (
        ["replay-verify", "--pipeline", "uw", "--records", str(RECORDS_CSV), "--pred", str(undecodable(t, "p.csv")),
         "--config", str(no_model_config(t))],
        "p.csv",
    ),
    "replay-verify --compiled missing": lambda t: (
        ["replay-verify", "--pipeline", "uw", "--records", str(RECORDS_CSV), "--pred", str(GOLDEN_PREDICTIONS),
         "--compiled", str(t / "missing"), "--config", str(no_model_config(t))],
        "missing",
    ),
    "predict --out and --trace-out one file": lambda t: (
        predict_argv(t, "--pipeline", "uw", "--trace-out", str(t / "p.csv"), config=no_model_config(t)), "p.csv"
    ),
    "compile --out-dir a file": lambda t: (
        ["compile", "--pipeline", "uw", "--train", str(RECORDS_CSV), "--val", str(RECORDS_CSV),
         "--out-dir", str(RECORDS_CSV), "--config", str(no_model_config(t))],
        str(RECORDS_CSV),
    ),
    "compile uw detect.json a directory, before any model call": lambda t: (
        compile_argv(t, "uw", directory(directory(t / "out") / "detect.json").parent), "detect.json"
    ),
    "compile ms compile_report_flag.json a directory, before any model call": lambda t: (
        compile_argv(t, "ms", directory(directory(t / "out") / "compile_report_flag.json").parent,
                     "--index", str(mcq_index(t))),
        "compile_report_flag.json",
    ),
    "cache_path is a directory": lambda t: (
        predict_argv(t, "--pipeline", "uw", config=replay_config(t, directory(t / "cache"))), "cache"
    ),
    "replay gateway.cache_path a directory names the setting": lambda t: (
        predict_argv(t, "--pipeline", "uw", config=cache_dir_config(t, "replay")), "gateway.cache_path"
    ),
    "live gateway.cache_path a directory names the setting": lambda t: (
        predict_argv(t, "--pipeline", "uw", config=cache_dir_config(t, "live")), "gateway.cache_path"
    ),
    # Writing an output over the cache file would lose the recorded responses.
    "predict --out the cache file": lambda t: (
        predict_argv(t, "--pipeline", "uw", "--out", str(t / "cache.jsonl"),
                     config=replay_config(t, fixture_cache_at(t / "cache.jsonl"))),
        "gateway.cache_path",
    ),
    "predict --trace-out the cache file, before any model call": lambda t: (
        predict_argv(t, "--pipeline", "uw", "--trace-out", f"{t}/./empty.jsonl", config=no_model_config(t)),
        "gateway.cache_path",
    ),
    "compile detect.json the cache file, before any model call": lambda t: (
        ["compile", "--pipeline", "uw", "--train", str(RECORDS_CSV), "--val", str(RECORDS_CSV), "--out-dir",
         str(t / "out"), "--config", str(replay_config(t, fixture_cache_at(directory(t / "out") / "detect.json")))],
        "gateway.cache_path",
    ),
    "predict --out in a missing directory": lambda t: (
        predict_argv(t, "--pipeline", "uw", "--out", str(t / "missing" / "p.csv")), "missing"
    ),
    # Under a strict empty replay cache a model call exits 2, so exit 1 shows
    # the output path was refused before any model call.
    "predict --out in a missing directory, before any model call": lambda t: (
        predict_argv(t, "--pipeline", "uw", "--out", str(t / "missing" / "p.csv"), config=no_model_config(t)),
        "missing",
    ),
    "predict --trace-out in a missing directory, before any model call": lambda t: (
        predict_argv(t, "--pipeline", "uw", "--trace-out", str(t / "missing" / "t.jsonl"), config=no_model_config(t)),
        "missing",
    ),
    "predict --out a directory, before any model call": lambda t: (
        predict_argv(t, "--pipeline", "uw", "--out", str(directory(t / "out-dir")), config=no_model_config(t)),
        "out-dir",
    ),
    # nothing listens on port 9, so a scorer request fails the strict run naming the scorer
    "evaluate --out in a missing directory, before any scorer request": lambda t: (
        ["evaluate", "--pred", str(GOLDEN_PREDICTIONS), "--gold", str(RECORDS_CSV), "--out",
         str(t / "missing" / "s.json"), "--scorer", "bertscore=http://127.0.0.1:9/score", "--strict-scorers"],
        "missing",
    ),
    "ingest --out in a missing directory": lambda t: (
        ["ingest", "--in", str(RECORDS_CSV), "--out", str(t / "missing" / "c.csv")], "missing"
    ),
    "predict a lone surrogate": lambda t: (predict_argv(t, "--pipeline", "uw", records=surrogate_records(t)), None),
    "ingest a lone surrogate": lambda t: (
        ["ingest", "--in", str(surrogate_records(t)), "--out", str(t / "c.csv")], "surrogate.csv"
    ),
    "ingest json-lines with a string error_flag": lambda t: (
        ["ingest", "--in", str(string_gold_records(t)), "--format", "json-lines", "--out", str(t / "c.csv")],
        "string-gold.jsonl",
    ),
    "compile --val with a lone surrogate": lambda t: (
        ["compile", "--pipeline", "uw", "--train", str(RECORDS_CSV), "--val", str(surrogate_records(t)),
         "--out-dir", str(t / "compiled"), "--config", str(replay_config(t, CACHE_JSONL))],
        "surrogate.csv",
    ),
    "index build a lone surrogate": lambda t: (
        ["index", "build", "--corpus", str(surrogate_mcq_corpus(t)), "--out", str(t / "index.json")], "mcq.jsonl"
    ),
    "--index of no document, which no query could answer": lambda t: (
        predict_argv(t, "--pipeline", "ms", "--index", str(no_document_index(t))), "index.json"
    ),
    "--index with a lone surrogate": lambda t: (
        predict_argv(t, "--pipeline", "ms", "--index", str(surrogate_index(t))), "index.json"
    ),
}


@pytest.mark.parametrize("case", list(_FILE_FAILURES))
def test_unreadable_undecodable_or_unwritable_file_exits_one_without_traceback(tmp_path, case):
    argv, named = _FILE_FAILURES[case](tmp_path)
    result = run_cli_process(argv)
    assert_one_error_line(result)
    if named is not None:
        assert named in result.stderr


def cache_with_responses(tmp_path: Path, rewrite: Callable[[str], str]) -> Path:
    """The fixture replay cache with every response text passed through ``rewrite``."""
    lines = []
    for line in CACHE_JSONL.read_text(encoding="utf-8").splitlines():
        entry = json.loads(line)
        entry["response"]["text"] = rewrite(entry["response"]["text"])
        lines.append(json.dumps(entry))
    cache = tmp_path / "cache.jsonl"
    cache.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return cache


def surrogate_in_corrections(tmp_path: Path) -> Path:
    # The cache file is valid UTF-8; its JSON escape decodes to a lone
    # surrogate in every corrected sentence, so its first line is malformed.
    return cache_with_responses(
        tmp_path, lambda text: text.replace("Corrected Sentence: ", "Corrected Sentence: \ud800")
    )


def test_a_line_number_too_long_for_int_fails_its_record_without_traceback(tmp_path):
    cache = cache_with_responses(tmp_path, lambda text: re.sub(r"Error Line: \d+", "Error Line: " + "7" * 5_000, text))
    result = run_cli_process(predict_argv(tmp_path, "--pipeline", "uw", config=replay_config(tmp_path, cache)))
    assert "Traceback" not in result.stderr
    assert result.returncode == 0, result.stderr
    localize_calls = CACHE_JSONL.read_text(encoding="utf-8").count("Error Line: the number")
    assert localize_calls > 0 and f"({localize_calls} failed)" in result.stderr


# Each case builds (argv, the file the error line names, the output files) in
# tmp_path. A corpus or a cache line holding a lone surrogate is now rejected
# when it is read, so each case names its input and never reaches the encoder.
_ENCODE_FAILURES = {
    "predict --out and --trace-out": lambda t: (
        predict_argv(t, "--pipeline", "uw", "--trace-out", str(t / "trace.jsonl"),
                     config=replay_config(t, surrogate_in_corrections(t))),
        "cache.jsonl",
        ["p.csv", "trace.jsonl"],
    ),
    "index build --out": lambda t: (
        ["index", "build", "--corpus", str(surrogate_mcq_corpus(t)), "--out", str(t / "index.json")],
        "mcq.jsonl",
        ["index.json"],
    ),
}


@pytest.mark.parametrize("case", list(_ENCODE_FAILURES))
def test_an_output_that_cannot_be_encoded_leaves_existing_files_unchanged(tmp_path, case):
    argv, named, outputs = _ENCODE_FAILURES[case](tmp_path)
    for name in outputs:
        (tmp_path / name).write_bytes(b"earlier output\n")
    result = run_cli_process(argv)
    assert_one_error_line(result)
    assert named in result.stderr
    for name in outputs:
        assert (tmp_path / name).read_bytes() == b"earlier output\n"


def test_outputs_are_all_encoded_before_any_file_is_opened(tmp_path):
    # No input reaches this through the CLI any more: every text a run writes
    # comes from a file or a response that rejects a lone surrogate on read.
    from medcorr.corpus import write_files
    from medcorr.errors import ValidationError

    first, second = tmp_path / "p.csv", tmp_path / "trace.jsonl"
    for path in (first, second):
        path.write_bytes(b"earlier output\n")
    with pytest.raises(ValidationError, match="^cannot write .*trace.jsonl"):
        write_files((first, "fine\n"), (second, "caf\ud800e\n"))
    assert first.read_bytes() == second.read_bytes() == b"earlier output\n"


def test_evaluate_scorer_flag_validation(tmp_path, capsys):
    pred_csv = perfect_predictions_csv(tmp_path)
    code = run_command(
        ["evaluate", "--pred", str(pred_csv), "--gold", str(RECORDS_CSV),
         "--out", str(tmp_path / "r.json"), "--scorer", "missing-url"]
    )
    assert code == 1


def test_predict_live_records_then_replays(tmp_path, monkeypatch):
    from medcorr.corpus import serialize_clinical_records
    from medcorr.gateway import LmRequest, Message
    from helpers import chat_completion_payload, scripted_http_server

    records = parse_clinical_records(RECORDS_CSV.read_bytes())[:3]
    records_csv = tmp_path / "subset.csv"
    records_csv.write_text(serialize_clinical_records(records), encoding="utf-8")
    responder = uw_gold_responder(records)

    def script(path, body):
        payload = json.loads(body)
        request = LmRequest(
            model=payload["model"],
            messages=tuple(Message(m["role"], m["content"]) for m in payload["messages"]),
            temperature=payload["temperature"],
            top_p=payload["top_p"],
            max_tokens=payload["max_tokens"],
        )
        return 200, chat_completion_payload(responder(request))

    cache_path = tmp_path / "live_cache.jsonl"
    live_config = tmp_path / "live.yaml"
    live_config.write_text(
        "gateway:\n"
        "  backend: live\n"
        "  base_url: https://should-be-overridden.example/v1\n"
        f"  cache_path: {cache_path}\n"
        "  record: true\n",
        encoding="utf-8",
    )
    live_out = tmp_path / "live_preds.csv"
    with scripted_http_server(script) as base_url:
        monkeypatch.setenv("MEDCORR_BASE_URL", base_url)  # env beats the file value
        code = run_command(
            ["predict", "--pipeline", "uw", "--records", str(records_csv),
             "--out", str(live_out), "--config", str(live_config), "--strict"]
        )
    assert code == 0
    assert cache_path.exists() and cache_path.stat().st_size > 0

    monkeypatch.delenv("MEDCORR_BASE_URL")
    replay_out = tmp_path / "replay_preds.csv"
    code = run_command(
        ["predict", "--pipeline", "uw", "--records", str(records_csv),
         "--out", str(replay_out), "--config", str(replay_config(tmp_path, cache_path)), "--strict"]
    )
    assert code == 0
    assert replay_out.read_bytes() == live_out.read_bytes()


def test_predict_live_recording_into_a_missing_directory_exits_one_before_any_request(tmp_path, monkeypatch, capsys):
    from helpers import chat_completion_payload, scripted_http_server

    served = []

    def script(path, body):
        served.append(path)
        return 200, chat_completion_payload("Rationale: reviewed the note.\nError Flag: 0")

    cache_path = tmp_path / "missing" / "live_cache.jsonl"
    live_config = tmp_path / "live.yaml"
    live_config.write_text(
        f"gateway:\n  backend: live\n  cache_path: {cache_path}\n  record: true\n", encoding="utf-8"
    )
    with scripted_http_server(script) as base_url:
        monkeypatch.setenv("MEDCORR_BASE_URL", base_url)
        code = run_command(
            ["predict", "--pipeline", "uw", "--records", str(RECORDS_CSV),
             "--out", str(tmp_path / "preds.csv"), "--config", str(live_config)]
        )
    assert served == []
    assert code == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: gateway.cache_path "), lines
    assert str(cache_path) in lines[0]
    assert not (tmp_path / "preds.csv").exists()


def test_predict_live_null_content_exits_two_and_records_nothing(tmp_path, monkeypatch, capsys):
    from helpers import chat_completion_payload, scripted_http_server

    cache_path = tmp_path / "live_cache.jsonl"
    live_config = tmp_path / "live.yaml"
    live_config.write_text(
        f"gateway:\n  backend: live\n  cache_path: {cache_path}\n  record: true\n", encoding="utf-8"
    )
    with scripted_http_server(lambda path, body: (200, chat_completion_payload(None))) as base_url:
        monkeypatch.setenv("MEDCORR_BASE_URL", base_url)
        code = run_command(
            ["predict", "--pipeline", "uw", "--records", str(RECORDS_CSV), "--strict",
             "--out", str(tmp_path / "preds.csv"), "--config", str(live_config)]
        )
    assert code == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert lines == [
        "gateway error: record 'fx001': malformed chat completion response: response text is NoneType, not a string"
    ]
    assert not cache_path.exists()


def test_predict_live_lone_surrogate_exits_two_and_records_only_the_calls_before_it(tmp_path, monkeypatch, capsys):
    from medcorr.corpus import serialize_clinical_records
    from medcorr.gateway import LmRequest, Message
    from helpers import chat_completion_payload, scripted_http_server, stage_of

    records = [r for r in parse_clinical_records(RECORDS_CSV.read_bytes()) if r.gold_flag == 1][:1]
    records_csv = tmp_path / "one.csv"
    records_csv.write_text(serialize_clinical_records(records), encoding="utf-8")
    responder = uw_gold_responder(records)
    stages, answered = [], []

    def script(path, body):
        payload = json.loads(body)
        request = LmRequest(
            model=payload["model"], messages=tuple(Message(m["role"], m["content"]) for m in payload["messages"]),
            temperature=payload["temperature"], top_p=payload["top_p"], max_tokens=payload["max_tokens"],
        )
        stages.append(stage_of(request))
        if stages[-1] == "correct":  # the JSON escape decodes to a lone surrogate
            return 200, chat_completion_payload("Rationale: none.\nCorrected Sentence: caf\ud800e")
        answered.append(responder(request))
        return 200, chat_completion_payload(answered[-1])

    cache_path = tmp_path / "live_cache.jsonl"
    live_config = tmp_path / "live.yaml"
    live_config.write_text(
        f"gateway:\n  backend: live\n  cache_path: {cache_path}\n  record: true\n", encoding="utf-8"
    )
    with scripted_http_server(script) as base_url:
        monkeypatch.setenv("MEDCORR_BASE_URL", base_url)
        code = run_command(
            ["predict", "--pipeline", "uw", "--records", str(records_csv), "--strict",
             "--out", str(tmp_path / "preds.csv"), "--config", str(live_config)]
        )
    assert code == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert lines == [
        "gateway error: record 'fx001': malformed chat completion response: "
        "response text holds a lone surrogate, which UTF-8 cannot encode"
    ]
    assert stages == ["detect", "localize", "correct"]
    recorded = [json.loads(line) for line in cache_path.read_text(encoding="utf-8").splitlines()]
    assert [entry["response"]["text"] for entry in recorded] == answered


def test_evaluate_with_external_scorers_via_cli(tmp_path):
    from helpers import scripted_http_server

    def scorer(path, body):
        pairs = json.loads(body)["pairs"]
        return 200, {"scores": [0.9] * len(pairs)}

    pred_csv = perfect_predictions_csv(tmp_path)
    report_json = tmp_path / "report.json"
    with scripted_http_server(scorer) as base_url:
        code = run_command(
            ["evaluate", "--pred", str(pred_csv), "--gold", str(RECORDS_CSV),
             "--out", str(report_json),
             "--scorer", f"bertscore={base_url}/score",
             "--scorer", f"bleurt={base_url}/score"]
        )
    assert code == 0
    report = ScoreReport.from_json(report_json.read_text(encoding="utf-8"))
    assert "aggregate" in report.composite_means
    assert report.unavailable == ()


def test_evaluate_with_non_numeric_scorer_scores_exits_by_contract(tmp_path, capsys):
    from helpers import scripted_http_server

    def scorer(path, body):
        return 200, {"scores": ["abc"] * len(json.loads(body)["pairs"])}

    pred_csv = perfect_predictions_csv(tmp_path)
    report_json = tmp_path / "report.json"
    with scripted_http_server(scorer) as base_url:
        argv = ["evaluate", "--pred", str(pred_csv), "--gold", str(RECORDS_CSV),
                "--out", str(report_json), "--scorer", f"bertscore={base_url}/score"]
        assert run_command(argv) == 0
        report = ScoreReport.from_json(report_json.read_text(encoding="utf-8"))
        assert report.unavailable == ("bertscore",)
        assert run_command([*argv, "--strict-scorers"]) == 1
    assert "non-numeric" in capsys.readouterr().err


@pytest.mark.parametrize("scores", [5, 0.5, "ab"], ids=["int", "float", "string"])
def test_evaluate_with_scores_not_a_list_exits_by_contract(tmp_path, scores):
    from helpers import scripted_http_server

    report_json = tmp_path / "report.json"
    with scripted_http_server(lambda path, body: (200, {"scores": scores})) as base_url:
        argv = ["evaluate", "--pred", str(perfect_predictions_csv(tmp_path)), "--gold", str(RECORDS_CSV),
                "--out", str(report_json), "--scorer", f"bertscore={base_url}/score"]
        lenient = run_cli_process(argv)
        strict = run_cli_process([*argv, "--strict-scorers"])
    assert lenient.returncode == 0 and "Traceback" not in lenient.stderr, lenient.stderr
    assert ScoreReport.from_json(report_json.read_text(encoding="utf-8")).unavailable == ("bertscore",)
    assert_one_error_line(strict)
    assert f"returned scores of type {type(scores).__name__}, not a list" in strict.stderr


@pytest.mark.parametrize(
    "names",
    [["rouge1_f"], ["rouge_l_f"], ["aggregate"], ["bertscore", "bertscore"]],
    ids=["rouge1_f", "rouge_l_f", "aggregate", "repeated"],
)
def test_evaluate_rejects_a_scorer_that_would_overwrite_a_column(tmp_path, names):
    from helpers import scripted_http_server

    calls = []

    def scorer(path, body):
        calls.append(path)
        return 200, {"scores": [0.0] * len(json.loads(body)["pairs"])}

    report_json = tmp_path / "report.json"
    with scripted_http_server(scorer) as base_url:
        result = run_cli_process(
            ["evaluate", "--pred", str(GOLDEN_PREDICTIONS), "--gold", str(RECORDS_CSV), "--out", str(report_json),
             *(arg for name in names for arg in ("--scorer", f"{name}={base_url}/score"))]
        )
    assert_one_error_line(result)
    assert f"external scorer name {names[-1]!r} already names a report column" in result.stderr
    assert calls == [] and not report_json.exists()


# Runs in a fresh interpreter, since other tests load requests into this one,
# and prints which HTTP client modules are loaded after each step.
NO_HTTP_UNTIL_A_REQUEST = r"""
import json
import sys

records, golden, replay, live, tmp = sys.argv[1:]
http_modules = ("requests", "urllib3", "ssl", "charset_normalizer", "idna", "http.client")
loaded = {}


def step(name, result=0):
    assert result == 0, (name, result)
    loaded[name] = [module for module in http_modules if module in sys.modules]


import medcorr.cli
step("import medcorr.cli")
from medcorr.cli import build_gateway, run_command
from medcorr.config import load_config

step("replay-verify", run_command(["replay-verify", "--pipeline", "uw", "--records", records,
                                   "--pred", golden, "--config", replay]))
step("evaluate", run_command(["evaluate", "--pred", golden, "--gold", records, "--out", f"{tmp}/report.json"]))
build_gateway(load_config(live))
step("build_gateway")
step("live predict", run_command(["predict", "--pipeline", "uw", "--records", records,
                                  "--out", f"{tmp}/preds.csv", "--config", live, "--strict"]))
print(json.dumps(loaded))
"""


def test_http_client_is_imported_only_when_a_request_is_sent(tmp_path):
    from helpers import chat_completion_payload, scripted_http_server

    calls = []

    def script(path, body):
        calls.append(path)
        return 200, chat_completion_payload("Rationale: reviewed the note.\nError Flag: 0")

    src = str(Path(__file__).parents[1] / "src")
    with scripted_http_server(script) as base_url:
        live = tmp_path / "live.yaml"
        live.write_text(f"gateway:\n  backend: live\n  base_url: {base_url}\n", encoding="utf-8")
        result = subprocess.run(
            [sys.executable, "-c", NO_HTTP_UNTIL_A_REQUEST, str(RECORDS_CSV), str(GOLDEN_PREDICTIONS),
             str(replay_config(tmp_path, CACHE_JSONL)), str(live), str(tmp_path)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120,
        )
    assert result.returncode == 0, result.stderr
    loaded = json.loads(result.stdout)
    after_request = loaded.pop("live predict")
    assert loaded == dict.fromkeys(["import medcorr.cli", "replay-verify", "evaluate", "build_gateway"], [])
    assert {"requests", "urllib3"} <= set(after_request)
    assert len(calls) == 10


# --- compile ---------------------------------------------------------------------------------


def compile_cache(tmp_path: Path) -> Path:
    """Record every request a seed-7 uw compile issues, for CLI replay."""
    records = parse_clinical_records(RECORDS_CSV.read_bytes())
    train, val = records[:6], records[6:]
    cache_path = tmp_path / "compile_cache.jsonl"
    gateway = LmGateway(
        backend=ScriptedBackend(uw_gold_responder(records)),
        cache=ReplayCache(cache_path),
        record=True,
    )
    compile_uw_pipeline(
        default_uw_pipeline(), train, val, gateway, seed=7, budget=(2, 3), demos_per_stage=3
    )
    return cache_path


def compile_config(tmp_path: Path, cache_path: Path) -> Path:
    path = tmp_path / "compile.yaml"
    path.write_text(
        "gateway:\n"
        "  backend: replay\n"
        f"  cache_path: {cache_path}\n"
        "optimize:\n"
        "  n_candidates: 3\n"
        "  instruction_proposals: 2\n"
        "  demos_per_stage: 3\n",
        encoding="utf-8",
    )
    return path


def test_compile_ms_pipeline_via_cli(tmp_path):
    from medcorr.corpus import serialize_clinical_records
    from medcorr.optimize import compile_ms_pipeline
    from medcorr.pipelines import default_ms_pipeline
    from medcorr.retrieval import build_index, save_index
    from helpers import ms_gold_responder, serialize_mcq_corpus, synth_ms_dataset

    records, corpus, asserted = synth_ms_dataset(10)
    train, val = records[:6], records[6:]
    train_csv = tmp_path / "train.csv"
    val_csv = tmp_path / "val.csv"
    train_csv.write_text(serialize_clinical_records(train), encoding="utf-8")
    val_csv.write_text(serialize_clinical_records(val), encoding="utf-8")
    index = build_index(corpus)
    index_path = tmp_path / "index.json"
    save_index(index, index_path)

    cache_path = tmp_path / "ms_cache.jsonl"
    recorder = LmGateway(
        backend=ScriptedBackend(ms_gold_responder(records, asserted)),
        cache=ReplayCache(cache_path),
        record=True,
    )
    compile_ms_pipeline(
        default_ms_pipeline(index), train, val, recorder, seed=7, n_candidates=3, demos_per_stage=3
    )
    config = compile_config(tmp_path, cache_path)

    out_dir = tmp_path / "ms_compiled"
    code = run_command(
        ["compile", "--pipeline", "ms", "--train", str(train_csv), "--val", str(val_csv),
         "--index", str(index_path), "--out-dir", str(out_dir), "--config", str(config),
         "--seed", "7"]
    )
    assert code == 0
    names = {p.name for p in out_dir.iterdir()}
    assert {
        "extract_choice.json",
        "compare_answer.json",
        "localize.json",
        "correct.json",
        "compile_report_flag.json",
        "compile_report_correction.json",
    } == names
    from medcorr.program import program_from_json

    localize = program_from_json((out_dir / "localize.json").read_text(encoding="utf-8"))
    assert localize.demos == ()  # never compiled


def test_compile_twice_with_same_seed_is_byte_identical(tmp_path):
    records = parse_clinical_records(RECORDS_CSV.read_bytes())
    train_csv = tmp_path / "train.csv"
    val_csv = tmp_path / "val.csv"
    from medcorr.corpus import serialize_clinical_records

    train_csv.write_text(serialize_clinical_records(records[:6]), encoding="utf-8")
    val_csv.write_text(serialize_clinical_records(records[6:]), encoding="utf-8")
    cache = compile_cache(tmp_path)
    config = compile_config(tmp_path, cache)

    outputs = []
    for name in ("c1", "c2"):
        out_dir = tmp_path / name
        code = run_command(
            ["compile", "--pipeline", "uw", "--train", str(train_csv), "--val", str(val_csv),
             "--out-dir", str(out_dir), "--config", str(config), "--seed", "7"]
        )
        assert code == 0
        outputs.append({p.name: p.read_bytes() for p in sorted(out_dir.iterdir())})
    assert outputs[0] == outputs[1]
    assert set(outputs[0]) == {
        "detect.json",
        "localize.json",
        "correct.json",
        "compile_report_detect.json",
        "compile_report_localize.json",
        "compile_report_correct.json",
    }

    # compiled stage programs load back and carry bootstrapped demos
    from medcorr.program import program_from_json

    detect = program_from_json((tmp_path / "c1" / "detect.json").read_text(encoding="utf-8"))
    assert detect.signature.name == "detect"

    # a compiled predict run against the same cache still replays cleanly
    preds_out = tmp_path / "compiled_preds.csv"
    code = run_command(
        ["predict", "--pipeline", "uw", "--records", str(val_csv), "--out", str(preds_out),
         "--compiled", str(tmp_path / "c1"), "--config", str(config), "--strict"]
    )
    assert code == 0
    predictions = parse_predictions(preds_out.read_text(encoding="utf-8"))
    golds = records[6:]
    assert [p.flag for p in predictions] == [g.gold_flag for g in golds]


def recorded_compile_argv(tmp_path: Path, pipeline: str) -> list[str]:
    """Record a scripted compile at concurrency 1 into a fresh cache, then
    return the ``compile`` arguments that replay it.

    ``uw`` is the magic-demo setup, whose detect phase picks candidate 1.
    ``ms`` runs on ``synth_ms_dataset`` and its index; its zero-shot extract
    stage answers wrong, so the flag phase picks candidate 1, which carries
    demos.
    """
    from medcorr.corpus import serialize_clinical_records
    from medcorr.optimize import compile_ms_pipeline
    from medcorr.retrieval import save_index
    from helpers import demo_blocks, magic_demo_setup, ms_gold_responder, stage_of, synth_ms_dataset

    cache = tmp_path / f"{pipeline}_cache.jsonl"
    extra = []
    if pipeline == "uw":
        train0, val, scripted = magic_demo_setup()
        train, backend = [train0, *val], scripted.backend
        budget = {"seed": 3, "n_candidates": 3, "instruction_proposals": 2, "demos_per_stage": 1}
    else:
        records, mcqs, asserted = synth_ms_dataset(10)
        train, val = records[:6], records[6:]
        gold = ms_gold_responder(records, asserted)

        def respond(request):
            if stage_of(request) == "extract_choice" and not demo_blocks(request):
                return "Extracted Choice: observation only"
            return gold(request)

        backend = ScriptedBackend(respond)
        budget = {"seed": 5, "n_candidates": 3, "instruction_proposals": 1, "demos_per_stage": 2}
        index = build_index(mcqs)
        save_index(index, tmp_path / "index.json")
        extra = ["--index", str(tmp_path / "index.json")]
    recorder = LmGateway(backend=backend, cache=ReplayCache(cache), record=True, concurrency=1)
    options = {"seed": budget["seed"], "demos_per_stage": budget["demos_per_stage"]}
    if pipeline == "uw":
        compile_uw_pipeline(
            default_uw_pipeline(), train, val, recorder,
            budget=(budget["instruction_proposals"], budget["n_candidates"]), **options,
        )
    else:
        compile_ms_pipeline(default_ms_pipeline(index), train, val, recorder, n_candidates=budget["n_candidates"], **options)
    for name, records in (("train", train), ("val", val)):
        (tmp_path / f"{name}.csv").write_text(serialize_clinical_records(records), encoding="utf-8")
    config = tmp_path / "compile.yaml"
    config.write_text(
        f"gateway:\n  backend: replay\n  cache_path: {cache}\noptimize:\n"
        + "".join(f"  {key}: {value}\n" for key, value in budget.items()),
        encoding="utf-8",
    )
    return ["compile", "--pipeline", pipeline, "--train", str(tmp_path / "train.csv"), "--val",
            str(tmp_path / "val.csv"), "--out-dir", str(tmp_path / "out"), "--config", str(config), *extra]


# sha256 of every file a replayed CLI compile writes; the uw programs and
# reports are the bytes UW_COMPILE_SHA256 in test_optimize pins.
CLI_COMPILE_SHA256 = {
    "uw": {
        "compile_report_correct.json": "458de69ffa1429991d4471403936d7f8ab2323c1b286350cac3c996ae403f645",
        "compile_report_detect.json": "47bd2e3f802c76baa3e5738213bd2cc743d173452109c476bee9025f2735964f",
        "compile_report_localize.json": "327def14e5c73956dce0c71de5d9e31ab2b0de4495c533fa224c3a92545cc2b7",
        "correct.json": "8e5c4737d1f2cd9308f425fc4e6d57eb78a25e0d5e833723dfbc3e252cd3b0b8",
        "detect.json": "89867ed1e05491e8ec3d2470cfe3dd63744f252bca7e2b444c132cce9041794c",
        "localize.json": "3ef96902a071981e5c6cfa5b5986b86b8db11541c192903909d44683788fae35",
    },
    "ms": {
        "compare_answer.json": "728ab03c63edd32fcb08d8f0ed320969c715b8340583274f9e6d6cbdeacaf6a1",
        "compile_report_correction.json": "36d4abdb7d68cd80fea2c2cdf9a157d199ae3f648af3a3cc85a06b0649158804",
        "compile_report_flag.json": "5ef52bbc8184d672bd505bf254393b672422ea3ee06ba654ab6756a43a0f621a",
        "correct.json": "eb3a439f894c19049aa658975d193b8e1bf741ceb9cc733978917256a5ad475a",
        "extract_choice.json": "03a9f0ba4192ae2589611121892a5e52645ad218fb570d96c31cb6eb2bb0463a",
        "localize.json": "4fda37ea6ab791db0ead3f4236694bddc31db3916a54665191c20df95a184066",
    },
}


@pytest.mark.parametrize("pipeline", ["uw", "ms"])
def test_a_replayed_cli_compile_writes_pinned_files(tmp_path, pipeline):
    argv = recorded_compile_argv(tmp_path, pipeline)
    assert run_command(argv) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in (tmp_path / "out").iterdir()}
    assert written == CLI_COMPILE_SHA256[pipeline]
