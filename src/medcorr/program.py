"""Minimal declarative LLM-program framework.

A :class:`Program` binds a typed :class:`Signature` to a prompting strategy
(plain prediction or chain of thought) and an ordered demo set. Rendering is
byte-deterministic; completions come back as ``Label: value`` fields and are
parsed case-insensitively. Chain of thought injects a reserved ``rationale``
output ahead of the declared outputs at render and parse time.

Prompt layout (pinned by this package, documented in the README):

* system message: instruction, then a format block listing every field
  label with its description;
* user message: demo blocks then the live block, separated by ``---``
  lines; each block is ``Label: value`` lines, and the live block leaves
  the output labels open for the model to fill.

Everything but the live input values depends only on the program, so
:attr:`Program.layout` computes it once and rendering joins the values in.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Mapping, NamedTuple

from .corpus import _typed, read_document
from .errors import CompletionParseError, ValidationError
from .gateway import LmGateway, Message

PREDICT = "predict"
CHAIN_OF_THOUGHT = "chain-of-thought"
STRATEGIES = (PREDICT, CHAIN_OF_THOUGHT)

RATIONALE_FIELD = "rationale"
RATIONALE_DESCRIPTION = "step-by-step reasoning that leads to the output fields"

PROGRAM_FORMAT_VERSION = 1

_FIELD_NAME = re.compile(r"[a-z][a-z0-9_]*")
_BLOCK_SEPARATOR = "\n\n---\n\n"


class Field(NamedTuple):
    name: str
    description: str


@dataclass(frozen=True)
class Signature:
    """Named input/output fields plus the task instruction."""

    name: str
    instruction: str
    inputs: tuple[Field, ...]
    outputs: tuple[Field, ...]

    def __post_init__(self) -> None:
        if not self.inputs or not self.outputs:
            raise ValidationError(f"signature {self.name!r} needs at least one input and one output")
        names = [f.name for f in self.inputs + self.outputs]
        if len(set(names)) != len(names):
            raise ValidationError(f"signature {self.name!r}: field names must be unique")
        for name in names:
            if not _FIELD_NAME.fullmatch(name):
                raise ValidationError(
                    f"signature {self.name!r}: field name {name!r} must be a lowercase identifier"
                )
            if name == RATIONALE_FIELD:
                raise ValidationError(
                    f"signature {self.name!r}: {RATIONALE_FIELD!r} is reserved for chain of thought"
                )

    def input_names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.inputs)

    def output_names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.outputs)


@dataclass(frozen=True, slots=True)
class Demo:
    """A worked example; output values may include a captured rationale."""

    input_values: dict[str, str]
    output_values: dict[str, str]
    source_record_id: str | None = None


class _Layout(NamedTuple):
    system: str
    demos: str  # every demo block, each followed by the block separator
    input_prefixes: tuple[tuple[str, str], ...]  # (input name, "Label: ")
    open_outputs: str  # the live block's output label lines
    expected_inputs: frozenset[str]
    expected_outputs: frozenset[str]
    recognized_outputs: frozenset[str]  # the expected ones, plus the rationale under chain of thought


@dataclass(frozen=True)
class Program:
    signature: Signature
    strategy: str = PREDICT
    demos: tuple[Demo, ...] = ()
    compiled_instruction: str | None = None

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ValidationError(f"unknown strategy {self.strategy!r}")
        inputs = set(self.signature.input_names())
        allowed_outputs = set(self.signature.output_names()) | {RATIONALE_FIELD}
        for i, demo in enumerate(self.demos):
            if not inputs <= set(demo.input_values):
                missing = sorted(inputs - set(demo.input_values))
                raise ValidationError(
                    f"program {self.signature.name!r}: demo {i} is missing input fields {missing}"
                )
            unknown = set(demo.input_values) - inputs
            if unknown:
                raise ValidationError(
                    f"program {self.signature.name!r}: demo {i} has unknown input fields {sorted(unknown)}"
                )
            bad = set(demo.output_values) - allowed_outputs
            if bad:
                raise ValidationError(
                    f"program {self.signature.name!r}: demo {i} has unknown output fields {sorted(bad)}"
                )

    @property
    def instruction(self) -> str:
        return self.compiled_instruction if self.compiled_instruction is not None else self.signature.instruction

    @cached_property
    def layout(self) -> _Layout:
        """The prompt and parse parts that depend only on the program, computed
        on first use; ``dataclasses.replace`` makes a new program with its own."""
        outputs = _output_fields(self)
        format_lines = [f"{field_label(f.name)}: {f.description}" for f in self.signature.inputs + tuple(outputs)]
        return _Layout(
            system=self.instruction + "\n\nFollow the following format.\n\n" + "\n".join(format_lines),
            demos="".join(_demo_block(self, demo) + _BLOCK_SEPARATOR for demo in self.demos),
            input_prefixes=tuple((name, f"{field_label(name)}: ") for name in self.signature.input_names()),
            open_outputs="\n".join(f"{field_label(out.name)}:" for out in outputs),
            expected_inputs=frozenset(self.signature.input_names()),
            expected_outputs=frozenset(self.signature.output_names()),
            recognized_outputs=frozenset(f.name for f in outputs),
        )


def field_label(name: str) -> str:
    """``error_line`` renders as ``Error Line``."""
    return " ".join(part.capitalize() for part in name.split("_"))


@lru_cache(maxsize=1024)
def _normalize_label(label: str) -> str:
    return label.strip().lower().replace(" ", "_")


def _output_fields(program: Program) -> list[Field]:
    fields = list(program.signature.outputs)
    if program.strategy == CHAIN_OF_THOUGHT:
        fields.insert(0, Field(RATIONALE_FIELD, RATIONALE_DESCRIPTION))
    return fields


def _demo_block(program: Program, demo: Demo) -> str:
    lines = [
        f"{field_label(name)}: {demo.input_values[name]}"
        for name in program.signature.input_names()
    ]
    for out in _output_fields(program):
        if out.name in demo.output_values:
            lines.append(f"{field_label(out.name)}: {demo.output_values[out.name]}")
    return "\n".join(lines)


def render_messages(program: Program, inputs: Mapping[str, str]) -> list[Message]:
    """Deterministic prompt rendering; raises on missing/unknown inputs."""
    layout = program.layout
    if inputs.keys() != layout.expected_inputs:
        missing = layout.expected_inputs - set(inputs)
        if missing:
            raise ValidationError(f"missing input field(s): {sorted(missing)}")
        raise ValidationError(f"unknown input field(s): {sorted(set(inputs) - layout.expected_inputs)}")
    live = [f"{prefix}{inputs[name]}" for name, prefix in layout.input_prefixes]
    live.append(layout.open_outputs)
    return [Message("system", layout.system), Message("user", layout.demos + "\n".join(live))]


_LABEL_LINE = re.compile(r"^[ \t]*([A-Za-z][A-Za-z0-9_ ]*?)[ \t]*:", re.MULTILINE)


def parse_completion(program: Program, completion_text: str) -> dict[str, str]:
    """Extract labeled output fields from a completion.

    Labels match case-insensitively at line starts, with spaces and
    underscores interchangeable; the first occurrence of a field wins and
    its value runs until the next recognized label or the end of the text.
    The rationale field is recognized but optional; any declared output
    that is absent raises :class:`CompletionParseError` naming it.
    """
    expected = program.layout.expected_outputs
    recognized = program.layout.recognized_outputs
    values: dict[str, str] = {}
    name, value_start = None, 0  # the open field, whose value runs to the next recognized label
    for match in _LABEL_LINE.finditer(completion_text):
        label = _normalize_label(match.group(1))
        if label in recognized:
            if name is not None and name not in values:
                values[name] = completion_text[value_start : match.start()].strip()
            name, value_start = label, match.end()
    if name is not None and name not in values:
        values[name] = completion_text[value_start:].strip()
    if not values.keys() >= expected:
        missing = sorted(expected - values.keys())
        raise CompletionParseError(f"completion is missing output field(s): {missing}")
    return values


@dataclass(frozen=True, slots=True)
class StageTrace:
    """One stage of a prediction. ``keys`` names each attempt's request by its
    cache key, so ``len(keys)`` counts the attempts; a stage that calls no
    model has none. The cache line of ``keys[-1]`` holds the completion that
    ``outputs`` was parsed from. ``inputs`` stays in memory for bootstrapping
    demos, but trace files leave it out."""

    stage: str
    outputs: dict[str, str]
    inputs: Mapping[str, str] = field(default_factory=dict)
    keys: tuple[str, ...] = ()


def _reminder(program: Program) -> str:
    labels = ", ".join(field_label(f.name) for f in _output_fields(program))
    return f"Your response must contain exactly these labeled fields: {labels}."


def run(program: Program, inputs: Mapping[str, str], gateway: LmGateway, stage: str) -> StageTrace:
    """Render, complete, parse; one retry with a format reminder on parse
    failure. Returns the trace entry of ``stage``, which names each attempt."""
    messages = render_messages(program, inputs)
    keys: list[str] = []
    while True:
        request = gateway.request(messages)
        text = gateway.complete(request).text
        keys.append(request.key)
        try:
            return StageTrace(stage, parse_completion(program, text), inputs, tuple(keys))
        except CompletionParseError as exc:
            if len(keys) == 2:
                raise CompletionParseError(
                    f"program {program.signature.name!r}: completion unparseable after 2 attempts: {exc}"
                ) from None
        messages = messages[:-1] + [Message(messages[-1].role, messages[-1].content + "\n\n" + _reminder(program))]


def program_to_json(program: Program) -> str:
    payload = {
        "format_version": PROGRAM_FORMAT_VERSION,
        "signature": {
            "name": program.signature.name,
            "instruction": program.signature.instruction,
            "inputs": [{"name": f.name, "description": f.description} for f in program.signature.inputs],
            "outputs": [{"name": f.name, "description": f.description} for f in program.signature.outputs],
        },
        "strategy": program.strategy,
        "compiled_instruction": program.compiled_instruction,
        "demos": [
            {
                "input_values": demo.input_values,
                "output_values": demo.output_values,
                "source_record_id": demo.source_record_id,
            }
            for demo in program.demos
        ],
    }
    return json.dumps(payload, ensure_ascii=False, indent=2, sort_keys=True)


def program_from_json(text: str) -> Program:
    return read_document(text, "program file", (PROGRAM_FORMAT_VERSION,), _program_of)


_STRING = (str,)
_OPTIONAL_STRING = (str, type(None))
_FIELD_TYPES = {"name": _STRING, "description": _STRING}
_OPTION_TYPES = {"strategy": _STRING, "compiled_instruction": _OPTIONAL_STRING}


def _program_of(version: int, payload: dict) -> Program:
    sig = payload["signature"]
    signature = Signature(
        **_typed(sig, {"name": _STRING, "instruction": _STRING}),
        inputs=tuple(Field(**_typed(f, _FIELD_TYPES)) for f in sig["inputs"]),
        outputs=tuple(Field(**_typed(f, _FIELD_TYPES)) for f in sig["outputs"]),
    )
    # source_record_id and compiled_instruction may be null or left out
    demos = tuple(
        Demo(
            input_values=_strings(d["input_values"]),
            output_values=_strings(d["output_values"]),
            **_typed({"source_record_id": None, **d}, {"source_record_id": _OPTIONAL_STRING}),
        )
        for d in payload["demos"]
    )
    options = _typed({"compiled_instruction": None, **payload}, _OPTION_TYPES)
    return Program(signature=signature, demos=demos, **options)


def _strings(values: dict) -> dict[str, str]:
    """``values`` as a new dict, each value a string."""
    return _typed(values, dict.fromkeys(values, _STRING))
