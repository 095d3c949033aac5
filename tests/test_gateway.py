from __future__ import annotations

import json
import re
import threading
import time

import pytest
from hypothesis import given, strategies as st

from medcorr.errors import CacheMissError, LiveRequestError, ValidationError
from medcorr.gateway import (
    LiveBackend,
    LmGateway,
    LmRequest,
    LmResponse,
    Message,
    ReplayBackend,
    ReplayCache,
    ScriptedBackend,
    VALID_ROLES,
    canonical_key,
    canonical_request_json,
)

from helpers import SamplingBackend, chat_completion_payload, scripted_http_server

# Computed once from the documented canonicalization, then frozen.
GOLDEN_KEY = "42550cf1c49e78b8355a7c9555166435df51fe07274df86ab00a3a092c15eaa2"


def fixture_request(**overrides) -> LmRequest:
    base = dict(
        model="gpt-4-0125-preview",
        messages=(Message("system", "You are helpful."), Message("user", "Say hi.")),
    )
    base.update(overrides)
    return LmRequest(**base)


# --- request validation ------------------------------------------------------


def test_request_defaults_match_generation_settings():
    request = fixture_request()
    assert request.temperature == 1.0
    assert request.top_p == 1.0
    assert request.max_tokens == 4096


def test_request_rejects_empty_messages():
    with pytest.raises(ValidationError):
        LmRequest(model="m", messages=())


def test_request_rejects_bad_role():
    with pytest.raises(ValidationError, match="role"):
        LmRequest(model="m", messages=(Message("robot", "hi"),))


def test_request_rejects_nonpositive_max_tokens():
    with pytest.raises(ValidationError):
        fixture_request(max_tokens=0)


# --- canonical keys ------------------------------------------------------------


def test_canonical_key_stable_across_constructions():
    assert canonical_key(fixture_request()) == canonical_key(fixture_request())


def test_canonical_key_differs_on_max_tokens():
    assert canonical_key(fixture_request()) != canonical_key(fixture_request(max_tokens=64))


def test_canonical_key_matches_golden():
    assert canonical_key(fixture_request()) == GOLDEN_KEY


def test_canonical_json_has_sorted_fields_and_ordered_messages():
    payload = json.loads(canonical_request_json(fixture_request()))
    assert list(payload) == sorted(payload)
    assert [m["role"] for m in payload["messages"]] == ["system", "user"]


_CONTENTS = st.text(min_size=0, max_size=20)


@given(
    model=st.sampled_from(["m1", "m2"]),
    contents=st.lists(_CONTENTS, min_size=1, max_size=3),
    temperature=st.sampled_from([0.0, 0.5, 1.0]),
    max_tokens=st.sampled_from([1, 64, 4096]),
)
def test_keys_collide_only_on_equal_canonical_forms(model, contents, temperature, max_tokens):
    reference = fixture_request()
    perturbed = LmRequest(
        model=model,
        messages=tuple(Message("user", c) for c in contents),
        temperature=temperature,
        max_tokens=max_tokens,
    )
    same_canonical = canonical_request_json(reference) == canonical_request_json(perturbed)
    same_key = canonical_key(reference) == canonical_key(perturbed)
    assert same_key == same_canonical


_FLOATS = st.sampled_from([0.0, 0.25, 0.5, 1.0])


@given(
    model=st.sampled_from(["m1", "m2"]),
    messages=st.lists(st.tuples(st.sampled_from(VALID_ROLES), _CONTENTS), min_size=1, max_size=3),
    temperature=_FLOATS,
    top_p=_FLOATS,
    max_tokens=st.integers(min_value=1, max_value=8192),
    data=st.data(),
)
def test_canonical_key_is_stable_and_sees_every_field(model, messages, temperature, top_p, max_tokens, data):
    def key(model=model, messages=messages, temperature=temperature, top_p=top_p, max_tokens=max_tokens, seq=tuple):
        built = seq(Message(role, content) for role, content in messages)
        return canonical_key(
            LmRequest(model=model, messages=built, temperature=temperature, top_p=top_p, max_tokens=max_tokens)
        )

    reference = key()
    assert key(seq=list) == reference
    i = data.draw(st.integers(min_value=0, max_value=len(messages) - 1), label="message")
    role, content = messages[i]
    other_role = data.draw(st.sampled_from([r for r in VALID_ROLES if r != role]), label="other role")
    with_role = [*messages[:i], (other_role, content), *messages[i + 1 :]]
    with_content = [*messages[:i], (role, content + "x"), *messages[i + 1 :]]
    other_float = data.draw(_FLOATS.filter(lambda v: v not in (temperature, top_p)), label="other float")
    changed = [
        key(model=model + "x"),
        key(messages=with_role),
        key(messages=with_content),
        key(temperature=other_float),
        key(top_p=other_float),
        key(max_tokens=max_tokens + 1),
    ]
    assert reference not in changed


# --- scripted backend ------------------------------------------------------------


def test_scripted_backend_returns_programmed_text():
    gateway = LmGateway(backend=ScriptedBackend(lambda request: "Answer: B"))
    response = gateway.complete(fixture_request())
    assert response.text == "Answer: B"
    assert response.backend_tag == "scripted"
    assert response.prompt_tokens >= 0 and response.completion_tokens >= 0


def test_scripted_backend_keys_off_content_not_call_order():
    backend = ScriptedBackend(lambda request: request.messages[-1].content.upper())
    gateway = LmGateway(backend=backend, concurrency=3)
    requests_ = [fixture_request(messages=(Message("user", f"text {i}"),)) for i in range(12)]
    results: dict[int, str] = {}

    def worker(i: int):
        results[i] = gateway.complete(requests_[i]).text

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(12)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert results == {i: f"TEXT {i}" for i in range(12)}


# --- replay cache ------------------------------------------------------------------


def test_record_then_replay_round_trip(tmp_path):
    cache_path = tmp_path / "cache.jsonl"
    script_calls = []

    def script(path, body):
        script_calls.append(body)
        return 200, chat_completion_payload("recorded text", 11, 4)

    with scripted_http_server(script) as base_url:
        live = LmGateway(
            backend=LiveBackend(base_url, api_key="k"),
            cache=ReplayCache(cache_path),
            record=True,
        )
        recorded = live.complete(fixture_request())
    assert recorded.backend_tag == "live"
    assert len(script_calls) == 1

    replay = LmGateway(backend=ReplayBackend(ReplayCache(cache_path)))
    replayed = replay.complete(fixture_request())
    assert replayed.text == recorded.text
    assert replayed.backend_tag == "replay"
    assert (replayed.prompt_tokens, replayed.completion_tokens) == (11, 4)


def test_replay_miss_carries_recomputed_key(tmp_path):
    cache = ReplayCache(tmp_path / "cache.jsonl")
    cache.append(fixture_request(), ScriptedBackend(lambda r: "hello").complete(fixture_request()))
    gateway = LmGateway(backend=ReplayBackend(cache))
    assert gateway.complete(fixture_request()).text == "hello"

    mutated = fixture_request(
        messages=(Message("system", "You are helpful."), Message("user", "Say hi?"))
    )
    assert canonical_key(mutated) != canonical_key(fixture_request())
    with pytest.raises(CacheMissError) as exc_info:
        gateway.complete(mutated)
    assert exc_info.value.key == canonical_key(mutated)


def test_cache_file_is_append_only_jsonl(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache = ReplayCache(path)
    first = fixture_request()
    second = fixture_request(max_tokens=16)
    cache.append(first, ScriptedBackend(lambda r: "one").complete(first))
    cache.append(second, ScriptedBackend(lambda r: "two").complete(second))
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2
    entries = [json.loads(line) for line in lines]
    assert entries[0]["key"] == canonical_key(first)
    assert entries[1]["key"] == canonical_key(second)
    assert {"key", "request", "response"} <= set(entries[0])

    reloaded = ReplayCache(path)
    assert len(reloaded) == 2
    assert reloaded.get(canonical_key(first)).text == "one"


def test_cache_rejects_malformed_line(tmp_path):
    path = tmp_path / "cache.jsonl"
    path.write_text('{"key": "abc"}\n', encoding="utf-8")
    with pytest.raises(ValidationError, match="line 1"):
        ReplayCache(path)


def cache_line(request: LmRequest, text: str) -> str:
    return json.dumps(
        {"key": canonical_key(request), "request": request.payload(), "response": {"text": text}}
    )


def test_cache_rejects_malformed_line_mid_file(tmp_path):
    path = tmp_path / "cache.jsonl"
    good = cache_line(fixture_request(), "one")
    path.write_text(f'{good}\n{{"key": "torn\n{good}\n', encoding="utf-8")
    with pytest.raises(ValidationError, match="line 2"):
        ReplayCache(path)


def test_cache_rejects_a_line_nested_too_deep_naming_the_file_and_line(tmp_path):
    path = tmp_path / "cache.jsonl"
    good = cache_line(fixture_request(), "one")
    path.write_text(f'{good}\n{"[" * 100_000}{"]" * 100_000}\n{good}\n', encoding="utf-8")
    with pytest.raises(ValidationError, match=f"^cache file {re.escape(str(path))} line 2 is malformed: nesting too deep"):
        ReplayCache(path)


@pytest.mark.parametrize("text", [5, None, ["one"]])
def test_cache_rejects_non_string_response_text_mid_file(tmp_path, text):
    path = tmp_path / "cache.jsonl"
    bad, good = cache_line(fixture_request(), text), cache_line(fixture_request(max_tokens=16), "two")
    path.write_text(f"{bad}\n{good}\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="line 1"):
        ReplayCache(path)


def test_cache_treats_a_final_unterminated_non_string_text_as_torn(tmp_path, caplog):
    path = tmp_path / "cache.jsonl"
    first, second = fixture_request(), fixture_request(max_tokens=16)
    path.write_text(f"{cache_line(first, 'one')}\n{cache_line(second, 5)}", encoding="utf-8")
    cache = ReplayCache(path)
    assert len(cache) == 1 and cache.get(canonical_key(second)) is None
    assert "torn line 2" in caplog.text


# A crash mid-append leaves an unterminated final line, cut anywhere, even
# inside a multi-byte character.
@pytest.mark.parametrize("torn", [b'{"key": "abc", "respo', b'{"key": "caf\xc3'])
def test_cache_ignores_torn_final_line_and_cuts_it_before_appending(tmp_path, caplog, torn):
    path = tmp_path / "cache.jsonl"
    first, second = fixture_request(), fixture_request(max_tokens=16)
    good = cache_line(first, "one")
    path.write_bytes(f"{good}\n".encode("utf-8") + torn)
    cache = ReplayCache(path)
    assert len(cache) == 1
    assert "torn line 2" in caplog.text

    cache.append(second, ScriptedBackend(lambda r: "two").complete(second))
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2 and lines[0] == good
    reloaded = ReplayCache(path)
    assert [reloaded.get(canonical_key(r)).text for r in (first, second)] == ["one", "two"]


def test_cache_appends_after_an_unterminated_complete_line(tmp_path):
    path = tmp_path / "cache.jsonl"
    first, second = fixture_request(), fixture_request(max_tokens=16)
    path.write_text(cache_line(first, "one"), encoding="utf-8")
    cache = ReplayCache(path)
    cache.append(second, ScriptedBackend(lambda r: "two").complete(second))
    reloaded = ReplayCache(path)
    assert [reloaded.get(canonical_key(r)).text for r in (first, second)] == ["one", "two"]


# --- live backend -----------------------------------------------------------------


def no_sleep(_: float) -> None:
    pass


def test_live_retries_transient_statuses_then_succeeds():
    statuses = [429, 503, 200]
    bodies = []

    def script(path, body):
        bodies.append(body)
        status = statuses[min(len(bodies) - 1, len(statuses) - 1)]
        if status != 200:
            return status, {"error": "try later"}
        return 200, chat_completion_payload("finally")

    with scripted_http_server(script) as base_url:
        backend = LiveBackend(base_url, sleeper=no_sleep)
        response = backend.complete(fixture_request())
    assert response.text == "finally"
    assert len(bodies) == 3
    # the client never mutates the request between retries
    assert bodies[0] == bodies[1] == bodies[2]
    assert json.loads(bodies[0])["model"] == "gpt-4-0125-preview"


def test_live_gives_up_after_five_attempts():
    calls = []

    def script(path, body):
        calls.append(1)
        return 503, {"error": "down"}

    with scripted_http_server(script) as base_url:
        backend = LiveBackend(base_url, sleeper=no_sleep)
        with pytest.raises(LiveRequestError, match="after 5 attempts"):
            backend.complete(fixture_request())
    assert len(calls) == 5


def test_live_non_transient_error_is_immediate_with_excerpt():
    calls = []

    def script(path, body):
        calls.append(1)
        return 400, {"error": "bad request body"}

    with scripted_http_server(script) as base_url:
        backend = LiveBackend(base_url, sleeper=no_sleep)
        with pytest.raises(LiveRequestError) as exc_info:
            backend.complete(fixture_request())
    assert len(calls) == 1
    assert exc_info.value.status == 400
    assert "bad request body" in exc_info.value.body_excerpt


@pytest.mark.parametrize(
    "payload",
    [
        pytest.param({"choices": []}, id="no-choice"),
        pytest.param(b"[" * 100_000 + b"]" * 100_000, id="nested-too-deep"),
    ],
)
def test_live_malformed_response_is_a_live_request_error(payload):
    with scripted_http_server(lambda path, body: (200, payload)) as base_url:
        backend = LiveBackend(base_url, sleeper=no_sleep)
        with pytest.raises(LiveRequestError, match="^malformed chat completion response") as exc_info:
            backend.complete(fixture_request())
    assert exc_info.value.status == 200


def test_live_sends_bearer_auth_and_path(tmp_path):
    seen = {}

    def script(path, body):
        seen["path"] = path
        return 200, chat_completion_payload("ok")

    with scripted_http_server(script) as base_url:
        LiveBackend(base_url + "/", api_key="secret", sleeper=no_sleep).complete(fixture_request())
    assert seen["path"] == "/chat/completions"


def test_live_timeout_retries_then_errors():
    import requests as requests_lib

    class TimeoutSession:
        def __init__(self):
            self.calls = 0

        def post(self, *args, **kwargs):
            self.calls += 1
            raise requests_lib.Timeout("too slow")

    session = TimeoutSession()
    backend = LiveBackend("http://127.0.0.1:1", sleeper=no_sleep, session=session)
    with pytest.raises(LiveRequestError, match="timed out"):
        backend.complete(fixture_request())
    assert session.calls == 5


def test_live_backoff_is_capped_exponential():
    sleeps = []

    def script(path, body):
        return 500, {}

    with scripted_http_server(script) as base_url:
        backend = LiveBackend(base_url, sleeper=sleeps.append)
        with pytest.raises(LiveRequestError):
            backend.complete(fixture_request())
    assert sleeps == [0.5, 1.0, 2.0, 4.0]


# --- gateway behaviour ---------------------------------------------------------------


def test_gateway_concurrency_must_be_positive():
    with pytest.raises(ValidationError):
        LmGateway(backend=ScriptedBackend(lambda r: "x"), concurrency=0)


def test_gateway_request_builder_uses_defaults():
    gateway = LmGateway(
        backend=ScriptedBackend(lambda r: "x"),
        model="custom-model",
        temperature=0.25,
        max_tokens=128,
    )
    request = gateway.request([Message("user", "hello")])
    assert request.model == "custom-model"
    assert request.temperature == 0.25
    assert request.max_tokens == 128


def test_gateway_records_scripted_responses_when_enabled(tmp_path):
    # recording a scripted run is how offline replay fixtures get built
    cache_path = tmp_path / "cache.jsonl"
    gateway = LmGateway(
        backend=ScriptedBackend(lambda r: "fixture output"),
        cache=ReplayCache(cache_path),
        record=True,
    )
    gateway.complete(fixture_request())
    replay = LmGateway(backend=ReplayBackend(ReplayCache(cache_path)))
    assert replay.complete(fixture_request()).text == "fixture output"


def test_replay_determinism_same_cache_same_bytes(tmp_path):
    cache_path = tmp_path / "cache.jsonl"
    recorder = LmGateway(
        backend=ScriptedBackend(lambda r: "stable"), cache=ReplayCache(cache_path), record=True
    )
    recorder.complete(fixture_request())
    texts = []
    for _ in range(2):
        gateway = LmGateway(backend=ReplayBackend(ReplayCache(cache_path)))
        texts.append(gateway.complete(fixture_request()).text)
    assert texts[0] == texts[1] == "stable"


def test_record_then_replay_returns_what_the_live_run_returned(tmp_path):
    # A sampling backend answers a repeated request differently; replay must
    # still reproduce the live run, so the first sample for a key wins.
    cache_path = tmp_path / "cache.jsonl"
    live = LmGateway(backend=SamplingBackend(), cache=ReplayCache(cache_path), record=True)
    live_texts = [live.complete(fixture_request()).text for _ in range(2)]
    replay = LmGateway(backend=ReplayBackend(ReplayCache(cache_path)))
    replay_texts = [replay.complete(fixture_request()).text for _ in range(2)]
    assert replay_texts == live_texts == ["sample 0", "sample 0"]
    assert len(cache_path.read_text(encoding="utf-8").splitlines()) == 1


class GatedBackend:
    """Blocks every call for ``blocked_text`` until ``release`` is set, then
    answers it, or raises while ``failing`` is set; other requests answer at once."""

    tag = "scripted"

    def __init__(self, blocked_text: str):
        self.blocked_text = blocked_text
        self.entered = threading.Event()
        self.release = threading.Event()
        self.failing = False
        self.calls: list[str] = []

    def complete(self, request: LmRequest):
        text = request.messages[-1].content
        self.calls.append(text)
        if text == self.blocked_text:
            self.entered.set()
            assert self.release.wait(timeout=10)
            if self.failing:
                raise LiveRequestError("endpoint down")
        return LmResponse(text=f"echo {text}")


def run_threads(n: int, target) -> list[threading.Thread]:
    threads = [threading.Thread(target=target) for _ in range(n)]
    for thread in threads:
        thread.start()
    return threads


def join_all(threads: list[threading.Thread]) -> None:
    for thread in threads:
        thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in threads)


def test_gateway_single_flight_calls_backend_once_and_waiters_hold_no_slot():
    slow = fixture_request(messages=(Message("user", "slow"),))
    backend = GatedBackend("slow")
    gateway = LmGateway(backend=backend, concurrency=2)
    texts: list[str] = []
    threads = run_threads(8, lambda: texts.append(gateway.complete(slow).text))
    assert backend.entered.wait(timeout=10)
    time.sleep(0.2)  # let the other threads reach the gateway and wait
    # Seven waiters and one slot in use: a second slot must still be free.
    other = gateway.complete(fixture_request(messages=(Message("user", "fast"),)))
    assert other.text == "echo fast"
    backend.release.set()
    join_all(threads)
    assert texts == ["echo slow"] * 8
    assert backend.calls.count("slow") == 1
    assert gateway.complete(slow).text == "echo slow"
    assert backend.calls.count("slow") == 1


def test_gateway_does_not_cache_errors():
    request = fixture_request(messages=(Message("user", "slow"),))
    backend = GatedBackend("slow")
    backend.failing = True
    gateway = LmGateway(backend=backend, concurrency=4)
    errors: list[Exception] = []

    def call():
        try:
            gateway.complete(request)
        except LiveRequestError as exc:
            errors.append(exc)

    threads = run_threads(6, call)
    assert backend.entered.wait(timeout=10)
    time.sleep(0.2)
    backend.release.set()
    join_all(threads)
    assert len(errors) == 6
    assert backend.calls == ["slow"]

    backend.failing = False
    assert gateway.complete(request).text == "echo slow"
    assert backend.calls == ["slow", "slow"]


def test_gateway_stress_each_key_reaches_backend_and_file_once(tmp_path):
    import random
    import sys

    keys = [f"text {i}" for i in range(40)]
    calls: list[str] = []

    def respond(request):
        calls.append(request.messages[-1].content)
        return request.messages[-1].content.upper()

    cache_path = tmp_path / "cache.jsonl"
    gateway = LmGateway(
        backend=ScriptedBackend(respond), cache=ReplayCache(cache_path), record=True, concurrency=3
    )
    mismatches: list[str] = []

    def worker(seed: int):
        order = keys * 3
        random.Random(seed).shuffle(order)
        for text in order:
            got = gateway.complete(fixture_request(messages=(Message("user", text),))).text
            if got != text.upper():
                mismatches.append(got)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(12)]
        for thread in threads:
            thread.start()
        join_all(threads)
    finally:
        sys.setswitchinterval(previous)
    assert mismatches == []
    assert sorted(calls) == sorted(keys)
    written = [json.loads(line)["key"] for line in cache_path.read_text(encoding="utf-8").splitlines()]
    assert len(written) == len(set(written)) == len(keys)
