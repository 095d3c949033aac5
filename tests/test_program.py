from __future__ import annotations

import json
import re
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from medcorr.errors import CompletionParseError, ValidationError
from medcorr.gateway import LmGateway, ScriptedBackend
from medcorr.program import (
    CHAIN_OF_THOUGHT,
    PREDICT,
    Demo,
    Field,
    Program,
    Signature,
    field_label,
    parse_completion,
    program_from_json,
    program_to_json,
    render_messages,
    run,
)

from oracles import parse_completion_oracle, render_messages_oracle


def qa_signature() -> Signature:
    return Signature(
        name="qa",
        instruction="Answer the question.",
        inputs=(Field("question", "the question to answer"),),
        outputs=(Field("answer", "the answer"),),
    )


def qa_program(strategy=PREDICT, demos=()) -> Program:
    return Program(signature=qa_signature(), strategy=strategy, demos=tuple(demos))


def demo(question: str, answer: str, rationale: str | None = None) -> Demo:
    outputs = {"answer": answer}
    if rationale is not None:
        outputs = {"rationale": rationale, "answer": answer}
    return Demo(input_values={"question": question}, output_values=outputs)


# --- signature and program validation ----------------------------------------


def test_signature_rejects_reserved_rationale():
    with pytest.raises(ValidationError, match="reserved"):
        Signature("s", "i", (Field("rationale", "x"),), (Field("answer", "y"),))


def test_signature_rejects_duplicate_names():
    with pytest.raises(ValidationError, match="unique"):
        Signature("s", "i", (Field("a", "x"),), (Field("a", "y"),))


def test_signature_needs_inputs_and_outputs():
    with pytest.raises(ValidationError):
        Signature("s", "i", (), (Field("a", "y"),))


def test_signature_rejects_uppercase_field_names():
    with pytest.raises(ValidationError, match="lowercase"):
        Signature("s", "i", (Field("Question", "x"),), (Field("answer", "y"),))


def test_program_rejects_demo_missing_input():
    bad = Demo(input_values={}, output_values={"answer": "x"})
    with pytest.raises(ValidationError, match="missing input"):
        qa_program(demos=(bad,))


def test_program_rejects_demo_with_unknown_output():
    bad = Demo(input_values={"question": "q"}, output_values={"bogus": "x"})
    with pytest.raises(ValidationError, match="unknown output"):
        qa_program(demos=(bad,))


# --- rendering ------------------------------------------------------------------


def test_render_zero_demo_predict_layout():
    messages = render_messages(qa_program(), {"question": "What is BP?"})
    assert [m.role for m in messages] == ["system", "user"]
    assert messages[0].content == (
        "Answer the question.\n\n"
        "Follow the following format.\n\n"
        "Question: the question to answer\n"
        "Answer: the answer"
    )
    assert messages[1].content == "Question: What is BP?\nAnswer:"


def test_render_is_deterministic():
    program = qa_program(strategy=CHAIN_OF_THOUGHT, demos=[demo("q1", "a1", "r1")])
    inputs = {"question": "What now?"}
    first = render_messages(program, inputs)
    second = render_messages(program, inputs)
    assert first == second


def test_render_cot_puts_rationale_before_output():
    messages = render_messages(qa_program(strategy=CHAIN_OF_THOUGHT), {"question": "Q"})
    system = messages[0].content
    assert system.index("Rationale:") < system.index("Answer: the answer")
    assert messages[1].content.endswith("Question: Q\nRationale:\nAnswer:")


def test_render_missing_input_names_field():
    with pytest.raises(ValidationError, match="question"):
        render_messages(qa_program(), {})


def test_render_unknown_input_names_field():
    with pytest.raises(ValidationError, match="extra"):
        render_messages(qa_program(), {"question": "q", "extra": "x"})


def test_render_demo_block_contains_labeled_values():
    program = qa_program(strategy=CHAIN_OF_THOUGHT, demos=[demo("two plus two?", "4", "basic math")])
    user = render_messages(program, {"question": "3+3?"})[1].content
    expected_block = "Question: two plus two?\nRationale: basic math\nAnswer: 4"
    assert user.startswith(expected_block + "\n\n---\n\n")


def test_adding_demo_never_changes_earlier_demo_bytes():
    d1, d2 = demo("first?", "one"), demo("second?", "two")
    inputs = {"question": "live?"}
    one_user = render_messages(qa_program(demos=[d1]), inputs)[1].content
    two_user = render_messages(qa_program(demos=[d1, d2]), inputs)[1].content
    d1_segment = one_user.split("\n\n---\n\n")[0] + "\n\n---\n\n"
    assert two_user.startswith(d1_segment)
    # byte-slicing: the first segment is identical in both renderings
    assert one_user[: len(d1_segment)] == two_user[: len(d1_segment)]


def test_prompt_length_monotone_in_demo_count():
    demos = [demo(f"question {i}?", f"answer {i}") for i in range(6)]
    inputs = {"question": "live question?"}
    lengths = []
    for count in range(len(demos) + 1):
        messages = render_messages(qa_program(demos=demos[:count]), inputs)
        lengths.append(sum(len(m.content) for m in messages))
    assert lengths == sorted(lengths)


def test_compiled_instruction_overrides_signature():
    program = replace(qa_program(), compiled_instruction="Be terse.")
    system = render_messages(program, {"question": "Q"})[0].content
    assert system.startswith("Be terse.\n\n")
    assert "Answer the question." not in system


def test_a_replaced_program_renders_its_own_demos_after_the_original_rendered():
    original = qa_program(demos=[demo("first?", "one")])
    inputs = {"question": "live?"}
    before = render_messages(original, inputs)
    replaced = replace(original, demos=(demo("second?", "two"),), compiled_instruction="Be terse.")
    system, user = render_messages(replaced, inputs)
    assert "second?" in user.content and "first?" not in user.content
    assert system.content.startswith("Be terse.\n\n")
    assert render_messages(original, inputs) == before


_NAME = st.from_regex(r"[a-z][a-z0-9_]{0,5}", fullmatch=True).filter(lambda name: name != "rationale")


@st.composite
def programs_and_inputs(draw):
    names = draw(st.lists(_NAME, min_size=2, max_size=5, unique=True))
    n_inputs = draw(st.integers(1, len(names) - 1))
    fields = [Field(name, draw(st.text(max_size=12))) for name in names]
    signature = Signature(draw(_NAME), draw(st.text(max_size=20)), tuple(fields[:n_inputs]), tuple(fields[n_inputs:]))
    outputs = [*signature.output_names(), "rationale"]
    demos = draw(st.lists(st.builds(
        Demo,
        input_values=st.fixed_dictionaries({name: st.text(max_size=12) for name in signature.input_names()}),
        output_values=st.dictionaries(st.sampled_from(outputs), st.text(max_size=12)),
    ), max_size=3))
    program = Program(
        signature,
        strategy=draw(st.sampled_from([PREDICT, CHAIN_OF_THOUGHT])),
        demos=tuple(demos),
        compiled_instruction=draw(st.none() | st.text(max_size=20)),
    )
    inputs = {name: draw(st.text(max_size=12)) for name in signature.input_names()}
    # sometimes drop a declared input or add an unknown one, so errors are compared too
    for name in draw(st.lists(st.sampled_from(list(inputs)), max_size=1)):
        del inputs[name]
    for name in draw(st.lists(_NAME.filter(lambda name: name not in names), max_size=1)):
        inputs[name] = "extra"
    return program, inputs


def render_or_error(render, program, inputs):
    try:
        return render(program, inputs)
    except ValidationError as exc:
        return str(exc)


@given(programs_and_inputs())
def test_render_messages_matches_the_pre_layout_renderer_property(case):
    program, inputs = case
    assert render_or_error(render_messages, program, inputs) == render_or_error(render_messages_oracle, program, inputs)


def test_field_label_formatting():
    assert field_label("error_line") == "Error Line"
    assert field_label("question") == "Question"


# --- parsing ----------------------------------------------------------------------


def test_parse_rationale_and_answer():
    program = qa_program(strategy=CHAIN_OF_THOUGHT)
    parsed = parse_completion(program, "Rationale: because X.\nAnswer: B")
    assert parsed == {"rationale": "because X.", "answer": "B"}


def test_parse_missing_answer_names_field():
    program = qa_program(strategy=CHAIN_OF_THOUGHT)
    with pytest.raises(CompletionParseError, match="answer"):
        parse_completion(program, "Rationale: thinking hard but never answering")


def test_parse_shuffled_labels():
    signature = Signature(
        "multi",
        "inst",
        (Field("text", "t"),),
        (Field("first_out", "a"), Field("second_out", "b")),
    )
    program = Program(signature=signature)
    completion = "Second Out: two\nFirst Out: one"
    # oracle: hand-applied field segmentation of the fixture text
    assert parse_completion(program, completion) == {"first_out": "one", "second_out": "two"}


def test_parse_is_case_insensitive_and_accepts_underscores():
    signature = Signature("s", "i", (Field("x", "x"),), (Field("error_line", "n"),))
    program = Program(signature=signature)
    assert parse_completion(program, "ERROR_LINE: 3") == {"error_line": "3"}
    assert parse_completion(program, "error line: 4") == {"error_line": "4"}


def test_parse_multiline_value_runs_to_next_label():
    program = qa_program(strategy=CHAIN_OF_THOUGHT)
    completion = "Rationale: line one\nline two\nAnswer: B"
    parsed = parse_completion(program, completion)
    assert parsed["rationale"] == "line one\nline two"


def test_parse_tolerates_leading_and_trailing_prose():
    program = qa_program()
    parsed = parse_completion(program, "Sure, here you go.\nAnswer: 42")
    assert parsed == {"answer": "42"}


def test_parse_first_occurrence_wins():
    program = qa_program()
    parsed = parse_completion(program, "Answer: first\nAnswer: second")
    assert parsed == {"answer": "first"}


def test_parse_missing_rationale_is_tolerated():
    program = qa_program(strategy=CHAIN_OF_THOUGHT)
    assert parse_completion(program, "Answer: direct") == {"answer": "direct"}


def test_parse_unrecognized_labels_are_not_boundaries():
    program = qa_program()
    parsed = parse_completion(program, "Answer: first part\nNote: still the answer")
    assert parsed == {"answer": "first part\nNote: still the answer"}


_VALUE = st.text(
    alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Nd"), whitelist_characters=" "),
    min_size=1,
    max_size=30,
).filter(lambda s: s.strip() == s and s)


def completion_of(program: Program, outputs: dict[str, str]) -> str:
    """A well-formed completion: one labeled line per output, the rationale first."""
    order = ["rationale", *program.signature.output_names()]
    return "\n".join(f"{field_label(name)}: {outputs[name]}" for name in order if name in outputs)


@given(answer=_VALUE, rationale=_VALUE)
def test_demo_output_round_trip_property(answer, rationale):
    # single-line values: rendering then parsing recovers them exactly
    program = qa_program(strategy=CHAIN_OF_THOUGHT)
    outputs = {"rationale": rationale, "answer": answer}
    completion = completion_of(program, outputs)
    assert parse_completion(program, completion) == outputs


def two_output_program(strategy: str) -> Program:
    signature = Signature(
        name="fix",
        instruction="Fix the note.",
        inputs=(Field("note", "the clinical note"),),
        outputs=(Field("error_line", "the wrong line"), Field("corrected_sentence", "its fix")),
    )
    return Program(signature=signature, strategy=strategy)


def starts_with_label(line: str, names: set[str]) -> bool:
    head, colon, _ = line.partition(":")
    return bool(colon) and head.strip().lower().replace(" ", "_") in names


# Multi-line values built from pieces that look like labels, recognized or not.
_MULTILINE_VALUE = st.lists(
    st.one_of(
        st.text(alphabet="abXY09 _:\n\t.-", max_size=8),
        st.sampled_from(["Note:", "Error Line", "rationale", "Corrected Sentence:", ": ", "\n", "Step 1:"]),
    ),
    max_size=6,
).map(lambda parts: "".join(parts).strip())


@given(strategy=st.sampled_from([PREDICT, CHAIN_OF_THOUGHT]), data=st.data())
def test_render_parse_round_trip_property(strategy, data):
    # stripped values, possibly multi-line, in which no line starts with a
    # label the program recognizes come back exactly
    program = two_output_program(strategy)
    names = {"error_line", "corrected_sentence"} | ({"rationale"} if strategy == CHAIN_OF_THOUGHT else set())
    value = _MULTILINE_VALUE.filter(lambda v: not any(starts_with_label(line, names) for line in v.split("\n")))
    outputs = {name: data.draw(value, label=name) for name in sorted(names)}
    completion = completion_of(program, outputs)
    assert parse_completion(program, completion) == outputs


def parse_or_error(parse, program: Program, text: str):
    try:
        return parse(program, text)
    except CompletionParseError as exc:
        return str(exc)


# Completions of lines that each may open with a label, recognized under
# some spelling or not, so fields repeat, go missing or run over lines.
_COMPLETION = st.lists(
    st.tuples(
        st.sampled_from(["", "Error Line:", " error_LINE :", "Corrected Sentence:", "corrected sentence:",
                         "Rationale:", "Note:", "Step 1:"]),
        st.text(alphabet="ab :\t.", max_size=6),
    ).map("".join),
    max_size=8,
).map("\n".join)


@given(strategy=st.sampled_from([PREDICT, CHAIN_OF_THOUGHT]), text=_COMPLETION | _MULTILINE_VALUE)
def test_parse_completion_matches_the_two_pass_parser_property(strategy, text):
    program = two_output_program(strategy)
    assert parse_or_error(parse_completion, program, text) == parse_or_error(parse_completion_oracle, program, text)


# --- run with retry ------------------------------------------------------------------


class CountingResponder:
    def __init__(self, scripts):
        self.scripts = list(scripts)
        self.calls = 0
        self.last_request = None

    def __call__(self, request):
        text = self.scripts[min(self.calls, len(self.scripts) - 1)]
        self.calls += 1
        self.last_request = request
        return text


def test_run_parses_well_formed_completion():
    gateway = LmGateway(backend=ScriptedBackend(lambda r: "Answer: fine"))
    result = run(qa_program(), {"question": "ok?"}, gateway, "qa")
    assert result.stage == "qa"
    assert result.outputs == {"answer": "fine"}
    assert len(result.keys) == 1
    assert gateway.cache.get(result.keys[-1]).text == "Answer: fine"


def test_run_retries_once_with_reminder_then_errors():
    responder = CountingResponder(["garbage", "still garbage"])
    gateway = LmGateway(backend=ScriptedBackend(responder))
    with pytest.raises(CompletionParseError) as exc_info:
        run(qa_program(), {"question": "?"}, gateway, "qa")
    assert responder.calls == 2
    assert "after 2 attempts" in str(exc_info.value)
    assert gateway.cache.get(responder.last_request.key).text == "still garbage"


def test_run_recovers_on_second_attempt():
    seen = []

    def responder(request):
        seen.append(request.messages[-1].content)
        if len(seen) == 1:
            return "no labels here"
        return "Answer: recovered"

    gateway = LmGateway(backend=ScriptedBackend(responder))
    result = run(qa_program(), {"question": "?"}, gateway, "qa")
    assert result.outputs == {"answer": "recovered"}
    assert len(result.keys) == 2
    assert len(seen) == 2
    assert "must contain exactly these labeled fields: Answer" in seen[1]
    assert seen[1].startswith(seen[0])  # retry appends, never rewrites


# --- serialization ----------------------------------------------------------------------


def test_program_json_round_trip():
    program = Program(
        signature=qa_signature(),
        strategy=CHAIN_OF_THOUGHT,
        demos=(
            Demo(
                input_values={"question": "q1"},
                output_values={"rationale": "r1", "answer": "a1"},
                source_record_id="rec1",
            ),
        ),
        compiled_instruction="Sharper wording.",
    )
    text = program_to_json(program)
    assert program_from_json(text) == program
    # deterministic serialization: a second dump is byte-identical
    assert program_to_json(program_from_json(text)) == text


def test_program_file_with_an_old_demo_cap_loads_and_renders_the_same():
    # files written before the cap moved to the compiler carry "max_demos";
    # the key is ignored, even when the file holds more demos than it says
    program = Program(signature=qa_signature(), demos=tuple(demo(f"q{i}", f"a{i}") for i in range(3)))
    payload = json.loads(program_to_json(program))
    old = program_from_json(json.dumps({**payload, "max_demos": 2}))
    inputs = {"question": "What is BP?"}
    assert render_messages(old, inputs) == render_messages(program_from_json(json.dumps(payload)), inputs)
    assert old == program


def test_program_json_rejects_unknown_version():
    with pytest.raises(ValidationError, match="format_version"):
        program_from_json('{"format_version": 9}')


def test_program_json_rejects_garbage():
    with pytest.raises(ValidationError):
        program_from_json("not json at all")
