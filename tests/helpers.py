"""Shared test plumbing: record factories, scripted responders, local HTTP."""

from __future__ import annotations

import itertools
import json
import threading
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Iterable, Sequence

from medcorr.corpus import ClinicalRecord, McqRecord, mcq_to_object
from medcorr.gateway import LmRequest, LmResponse
from medcorr.corpus import NA
from medcorr.program import field_label

# --- record factories ---------------------------------------------------------


def record_no_error(record_id: str, sentences: Sequence[str]) -> ClinicalRecord:
    return ClinicalRecord(
        record_id=record_id,
        sentences=tuple(sentences),
        gold_flag=0,
        gold_error_sentence_id=-1,
        gold_correction=NA,
    )


def record_with_error(
    record_id: str, sentences: Sequence[str], error_id: int, correction: str
) -> ClinicalRecord:
    return ClinicalRecord(
        record_id=record_id,
        sentences=tuple(sentences),
        gold_flag=1,
        gold_error_sentence_id=error_id,
        gold_correction=correction,
    )


def unlabeled_record(record_id: str, sentences: Sequence[str]) -> ClinicalRecord:
    return ClinicalRecord(
        record_id=record_id,
        sentences=tuple(sentences),
    )


def make_mcq(question: str, options: dict[str, str], answer: str) -> McqRecord:
    return McqRecord(question=question, options=tuple(options.items()), correct_label=answer)


def report_payload(**row_fields) -> str:
    """A one-record score report file, its record's fields overridden."""
    row = {
        "record_id": "r1", "pred_flag": 0, "gold_flag": 0, "flag_correct": True,
        "pred_sentence_id": -1, "gold_sentence_id": -1, "sentence_correct": True,
        "base_scores": {"rouge1_f": None, "rouge_l_f": None}, "composites": {"rouge1_f": 1.0, "rouge_l_f": 1.0},
    }
    report = {
        "format_version": 1, "n_records": 1, "flag_accuracy": 1.0, "sentence_accuracy": 1.0,
        "mean_rouge1_f": None, "mean_rouge_l_f": None, "composite_means": {"rouge1_f": 1.0, "rouge_l_f": 1.0},
        "unavailable": [], "per_record": [{**row, **row_fields}],
    }
    return json.dumps(report)


# --- prompt introspection -------------------------------------------------------

# Stage programs are identified by their declared output field, whose label is
# always the final line of the system format block; live input values are read
# back from the last user block.

_STAGE_BY_OUTPUT_LABEL = {
    "Error Flag:": "detect",
    "Error Line:": "localize",
    "Extracted Choice:": "extract_choice",
    "Verdict:": "compare_answer",
    "Corrected Sentence:": "correct",
}


def stage_of(request: LmRequest) -> str:
    final_line = request.messages[0].content.rsplit("\n", 1)[-1]
    for label, stage in _STAGE_BY_OUTPUT_LABEL.items():
        if final_line.startswith(label):
            return stage
    raise AssertionError(f"cannot identify stage from system line: {final_line!r}")


def live_block(request: LmRequest) -> str:
    """The final prompt block: the record under prediction, not the demos."""
    return request.messages[-1].content.split("\n\n---\n\n")[-1]


def demo_blocks(request: LmRequest) -> list[str]:
    return request.messages[-1].content.split("\n\n---\n\n")[:-1]


def live_inputs(request: LmRequest, field_names: Iterable[str]) -> dict[str, str]:
    """Parse the live block's input values back out of a rendered prompt."""
    block = live_block(request)
    labels = {f"{field_label(name)}:": name for name in field_names}
    values: dict[str, list[str]] = {}
    current: str | None = None
    for line in block.split("\n"):
        matched = False
        for label, name in labels.items():
            if line.startswith(label):
                values[name] = [line[len(label) :].strip()]
                current = name
                matched = True
                break
        if not matched:
            if line.rstrip().endswith(":") and line.rstrip()[:-1].strip() in (
                "Rationale",
                *(label[:-1] for label in labels),
            ):
                current = None
            elif current is not None:
                values[current].append(line)
    return {name: "\n".join(lines).strip() for name, lines in values.items()}


# --- gold-programmed scripted responders -----------------------------------------


PROPOSAL_MARKER = "Propose instruction variant"


def find_by_text(content: str, table: dict[str, ClinicalRecord]) -> ClinicalRecord:
    for key, record in table.items():
        if key in content:
            return record
    raise AssertionError(f"no fixture record matches prompt:\n{content[-400:]}")


def uw_gold_responder(records: Sequence[ClinicalRecord]) -> Callable[[LmRequest], str]:
    """Scripted completions that echo each record's gold labels.

    Records are identified from the live block only, so the responder keeps
    working when compiled prompts carry other records as demos.
    """
    by_first = {r.sentences[0]: r for r in records}
    by_error = {
        r.sentence_text(r.gold_error_sentence_id): r
        for r in records
        if r.gold_flag == 1
    }

    def respond(request: LmRequest) -> str:
        if PROPOSAL_MARKER in request.messages[-1].content:
            return "Scrutinize every line before answering."
        stage = stage_of(request)
        block = live_block(request)
        if stage == "detect":
            record = find_by_text(block, by_first)
            return f"Rationale: reviewed the note.\nError Flag: {record.gold_flag}"
        if stage == "localize":
            record = find_by_text(block, by_first)
            return f"Rationale: compared each line.\nError Line: {record.gold_error_sentence_id}"
        if stage == "correct":
            record = find_by_text(block, by_error)
            return f"Rationale: substituted the right finding.\nCorrected Sentence: {record.gold_correction}"
        raise AssertionError(f"unexpected stage {stage!r} for uw pipeline")

    return respond


def ms_gold_responder(
    records: Sequence[ClinicalRecord],
    asserted_choice: dict[str, str],
) -> Callable[[LmRequest], str]:
    """Scripted MS-stage completions: the extract stage returns the choice the
    record asserts, compare checks string equality, localize/correct echo gold."""
    by_first = {r.sentences[0]: r for r in records}
    by_error = {
        r.sentence_text(r.gold_error_sentence_id): r
        for r in records
        if r.gold_flag == 1
    }

    def respond(request: LmRequest) -> str:
        if PROPOSAL_MARKER in request.messages[-1].content:
            return "Weigh each option before choosing."
        stage = stage_of(request)
        block = live_block(request)
        if stage == "extract_choice":
            record = find_by_text(block, by_first)
            choice = asserted_choice[record.record_id]
            return f"Rationale: the text asserts this finding.\nExtracted Choice: {choice}"
        if stage == "compare_answer":
            inputs = live_inputs(request, ["extracted_choice", "correct_answer"])
            verdict = "match" if inputs["extracted_choice"] == inputs["correct_answer"] else "mismatch"
            return f"Rationale: compared both answers.\nVerdict: {verdict}"
        if stage == "localize":
            record = find_by_text(block, by_first)
            return f"Error Line: {record.gold_error_sentence_id}"
        if stage == "correct":
            record = find_by_text(block, by_error)
            return f"Rationale: substituted the correct answer.\nCorrected Sentence: {record.gold_correction}"
        raise AssertionError(f"unexpected stage {stage!r} for ms pipeline")

    return respond


def magic_demo_setup():
    """One training record whose bootstrapped demo flips validation detects
    from wrong to right; zero-shot scores 0.0 on the validation set."""
    from medcorr.gateway import LmGateway, ScriptedBackend

    train = record_with_error(
        "train0",
        ["The unique magicmarker finding is present today.", "The team started wrongdrug at bedtime."],
        1,
        "The team started rightdrug at bedtime.",
    )
    val = [
        record_with_error(
            "val0",
            ["Patient valzero reports headaches.", "Valzero was given underdose therapy."],
            1,
            "Valzero was given correct therapy.",
        ),
        record_with_error(
            "val1",
            ["Patient valone reports dizziness.", "Valone was given underdose therapy too."],
            1,
            "Valone was given correct therapy too.",
        ),
    ]
    everyone = [train, *val]
    by_first = {r.sentences[0]: r for r in everyone}
    by_error = {r.sentence_text(r.gold_error_sentence_id): r for r in everyone}

    def respond(request: LmRequest) -> str:
        if PROPOSAL_MARKER in request.messages[-1].content:
            return "Be careful."
        stage = stage_of(request)
        block = live_block(request)
        if stage == "detect":
            record = find_by_text(block, by_first)
            if record.record_id == "train0":
                return "Rationale: magic marker spotted.\nError Flag: 1"
            has_magic_demo = any("magicmarker" in b for b in demo_blocks(request))
            return f"Rationale: depends on demos.\nError Flag: {1 if has_magic_demo else 0}"
        if stage == "localize":
            record = find_by_text(block, by_first)
            return f"Rationale: r.\nError Line: {record.gold_error_sentence_id}"
        if stage == "correct":
            record = find_by_text(block, by_error)
            return f"Rationale: r.\nCorrected Sentence: {record.gold_correction}"
        raise AssertionError(stage)

    return train, val, LmGateway(backend=ScriptedBackend(respond))


class SamplingBackend:
    """Stands in for a live model sampling at temperature 1.0: call ``n``
    answers ``render(request, n)``, by default ``sample n``, so a repeated
    request gets a different completion each time."""

    tag = "scripted"

    def __init__(self, render: Callable[[LmRequest, int], str] = lambda request, n: f"sample {n}"):
        self._render = render
        self._draws = itertools.count()

    def complete(self, request: LmRequest) -> LmResponse:
        return LmResponse(text=self._render(request, next(self._draws)), backend_tag=self.tag)


# --- synthetic corpora ------------------------------------------------------------

_TOPICS = [
    ("nalvoprene", "ketrazine"),
    ("dermatillex", "povacillin"),
    ("quentramab", "xylotriol"),
    ("bravastatin", "meclofen"),
    ("torvadine", "haloxepam"),
    ("zembutol", "pracinostat"),
    ("velbarbital", "oxandrine"),
    ("cabrifene", "lumezepine"),
    ("daprotide", "sertaxine"),
    ("ranibex", "topredone"),
]


def synth_uw_records(n: int = 20) -> list[ClinicalRecord]:
    """n synthetic records, every other one carrying a single drug-name error."""
    records = []
    for i in range(n):
        right, wrong = _TOPICS[i % len(_TOPICS)]
        tag = f"case {i:02d}"
        sentences = [
            f"Patient {tag} was admitted for management of dehydration.",
            f"Laboratory workup for {tag} shows a mild transaminitis.",
            f"The team started {right} at the usual renal dose.",
            f"Follow up planned in two weeks for {tag}.",
        ]
        if i % 2 == 0:
            sentences[2] = f"The team started {wrong} at the usual renal dose."
            records.append(
                record_with_error(
                    f"uw{i:03d}", sentences, 2, f"The team started {right} at the usual renal dose."
                )
            )
        else:
            records.append(record_no_error(f"uw{i:03d}", sentences))
    return records


def synth_ms_dataset(n: int = 20) -> tuple[list[ClinicalRecord], list[McqRecord], dict[str, str]]:
    """Records plus an MCQ corpus such that each record retrieves its own MCQ.

    Returns (records, corpus, asserted_choice_by_record_id); even-indexed
    records assert the wrong option.
    """
    records = []
    corpus = []
    asserted: dict[str, str] = {}
    for i in range(n):
        right, wrong = _TOPICS[i % len(_TOPICS)]
        subject = f"subject{i:02d}"
        has_error = i % 2 == 0
        choice = wrong if has_error else right
        sentences = [
            f"A patient described as {subject} presented with fatigue.",
            f"Initial testing of {subject} suggested an endocrine cause.",
            f"The most effective therapy was determined to be {choice}.",
        ]
        record_id = f"ms{i:03d}"
        asserted[record_id] = choice
        if has_error:
            records.append(
                record_with_error(
                    record_id,
                    sentences,
                    2,
                    f"The most effective therapy was determined to be {right}.",
                )
            )
        else:
            records.append(record_no_error(record_id, sentences))
        corpus.append(
            make_mcq(
                f"Which therapy is most effective for the condition seen in {subject}?",
                {"A": right, "B": wrong, "C": "observation only"},
                "A",
            )
        )
    return records, corpus, asserted


def serialize_mcq_corpus(records: Iterable[McqRecord]) -> str:
    """The MCQ json-lines text that ``corpus.parse_mcq_corpus`` reads back."""
    lines = [json.dumps(mcq_to_object(r), ensure_ascii=False) for r in records]
    return "\n".join(lines) + ("\n" if lines else "")


# --- local scripted HTTP server -----------------------------------------------------


class _ScriptedHandler(BaseHTTPRequestHandler):
    def do_POST(self):  # noqa: N802 (http.server API)
        length = int(self.headers.get("Content-Length", 0))
        body = self.rfile.read(length)
        status, payload = self.server.script(self.path, body)  # type: ignore[attr-defined]
        data = payload if isinstance(payload, bytes) else json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):  # silence request logging in test output
        pass


@contextmanager
def scripted_http_server(script: Callable[[str, bytes], tuple[int, dict]]):
    """Serve POSTs on a loopback port; ``script(path, body) -> (status, payload)``,
    a payload of bytes sent as it is and any other as JSON."""
    server = ThreadingHTTPServer(("127.0.0.1", 0), _ScriptedHandler)
    server.script = script  # type: ignore[attr-defined]
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.02}, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}"
    finally:
        server.shutdown()
        thread.join(timeout=5)


def chat_completion_payload(text: str, prompt_tokens: int = 7, completion_tokens: int = 3) -> dict:
    return {
        "choices": [{"message": {"role": "assistant", "content": text}}],
        "usage": {"prompt_tokens": prompt_tokens, "completion_tokens": completion_tokens},
    }
