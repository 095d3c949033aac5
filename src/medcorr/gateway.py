"""Uniform completion interface over live, replay, and scripted backends.

Every pipeline talks to an :class:`LmGateway`, so a run can be recorded
against a live OpenAI-compatible endpoint once and replayed byte-identically
offline forever after. Cache entries are keyed by a SHA-256 over the
canonical request serialization (sorted top-level fields, messages in order,
UTF-8, no insignificant whitespace), so any content change is a new key.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Protocol

import requests

from .corpus import json_loads
from .errors import CacheMissError, LiveRequestError, ValidationError

logger = logging.getLogger(__name__)

VALID_ROLES = ("system", "user", "assistant")

DEFAULT_MODEL = "gpt-4-0125-preview"
DEFAULT_TEMPERATURE = 1.0
DEFAULT_TOP_P = 1.0
DEFAULT_MAX_TOKENS = 4096

MAX_LIVE_ATTEMPTS = 5
BACKOFF_BASE_SECONDS = 0.5
BACKOFF_CAP_SECONDS = 8.0


@dataclass(frozen=True)
class Message:
    role: str
    content: str


@dataclass(frozen=True)
class LmRequest:
    model: str
    messages: tuple[Message, ...]
    temperature: float = DEFAULT_TEMPERATURE
    top_p: float = DEFAULT_TOP_P
    max_tokens: int = DEFAULT_MAX_TOKENS

    def __post_init__(self) -> None:
        if not self.messages:
            raise ValidationError("LmRequest needs at least one message")
        if self.max_tokens < 1:
            raise ValidationError(f"max_tokens must be >= 1, got {self.max_tokens}")
        if self.temperature < 0:
            raise ValidationError(f"temperature must be >= 0, got {self.temperature}")
        for message in self.messages:
            if message.role not in VALID_ROLES:
                raise ValidationError(f"unknown message role {message.role!r}")

    def payload(self) -> dict:
        return {
            "model": self.model,
            "messages": [{"role": m.role, "content": m.content} for m in self.messages],
            "temperature": self.temperature,
            "top_p": self.top_p,
            "max_tokens": self.max_tokens,
        }


@dataclass(frozen=True)
class LmResponse:
    text: str
    prompt_tokens: int = 0
    completion_tokens: int = 0
    backend_tag: str = "scripted"

    def __post_init__(self) -> None:
        if self.prompt_tokens < 0 or self.completion_tokens < 0:
            raise ValidationError("usage counts must be >= 0")


def canonical_request_json(request: LmRequest) -> str:
    """Stable serialization: sorted keys, in-order messages, no extra spaces."""
    return json.dumps(request.payload(), sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def canonical_key(request: LmRequest) -> str:
    return hashlib.sha256(canonical_request_json(request).encode("utf-8")).hexdigest()


class ReplayCache:
    """Append-only json-lines store of ``{key, request, response}`` entries.

    The first response stored for a key wins, in memory and on disk: a later
    append of the same key is ignored, and so is a later line for a key
    already loaded. Reads are lock-free dict lookups; appends serialize on a
    lock and flush to disk immediately. An unterminated, unparseable final
    line, which a crash mid-append leaves, is ignored with a warning and cut
    from the file before the next append; a malformed line anywhere else is
    an error.
    """

    def __init__(self, path: str | Path | None = None):
        self.path = Path(path) if path is not None else None
        self._entries: dict[str, LmResponse] = {}
        self._lock = threading.Lock()
        # (size to cut the file to, text to write first) before the next
        # append, when the file does not end in a newline.
        self._tail: tuple[int, str] | None = None
        if self.path is not None and self.path.exists():
            self._load()

    def _load(self) -> None:
        assert self.path is not None
        data = self.path.read_bytes()
        lines = data.split(b"\n")
        for lineno, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                entry = json_loads(line)
                response = entry["response"]
                if not isinstance(response["text"], str):
                    raise TypeError(f"response text is {type(response['text']).__name__}, not a string")
                self._entries.setdefault(
                    entry["key"],
                    LmResponse(
                        text=response["text"],
                        prompt_tokens=int(response.get("prompt_tokens", 0)),
                        completion_tokens=int(response.get("completion_tokens", 0)),
                        backend_tag="replay",
                    ),
                )
            except (KeyError, TypeError, ValueError) as exc:
                if lineno < len(lines):
                    raise ValidationError(f"cache file {self.path} line {lineno} is malformed: {exc}") from exc
                logger.warning("cache file %s ends in a torn line %d; ignoring it: %s", self.path, lineno, exc)
                self._tail = (len(data) - len(line), "")
                return
        if lines[-1]:
            self._tail = (len(data), "\n")

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str) -> LmResponse | None:
        return self._entries.get(key)

    def append(
        self, request: LmRequest, response: LmResponse, key: str | None = None, write: bool = True
    ) -> None:
        """Store ``response`` under the request's canonical key (``key`` when the
        caller already computed it) unless the key is present; with ``write``
        and a path, also append it to the file."""
        if key is None:
            key = canonical_key(request)
        line = None
        if write and self.path is not None:
            line = json.dumps(
                {
                    "key": key,
                    "request": request.payload(),
                    "response": {
                        "text": response.text,
                        "prompt_tokens": response.prompt_tokens,
                        "completion_tokens": response.completion_tokens,
                        "backend_tag": response.backend_tag,
                    },
                },
                ensure_ascii=False,
                sort_keys=True,
            )
        with self._lock:
            if key in self._entries:
                return
            if line is not None:
                assert self.path is not None
                prefix = ""
                if self._tail is not None:
                    size, prefix = self._tail
                    os.truncate(self.path, size)
                    self._tail = None
                with self.path.open("a", encoding="utf-8") as handle:
                    handle.write(prefix + line + "\n")
            self._entries[key] = LmResponse(
                text=response.text,
                prompt_tokens=response.prompt_tokens,
                completion_tokens=response.completion_tokens,
                backend_tag="replay",
            )


class Backend(Protocol):
    tag: str

    def complete(self, request: LmRequest) -> LmResponse: ...


class ScriptedBackend:
    """Fully deterministic backend driven by a content-based responder.

    The responder sees the whole request, so behaviour depends only on
    request content, never on call order or thread interleaving.
    """

    tag = "scripted"

    def __init__(self, responder: Callable[[LmRequest], str]):
        self._responder = responder

    def complete(self, request: LmRequest) -> LmResponse:
        text = self._responder(request)
        prompt_tokens = sum(len(m.content.split()) for m in request.messages)
        return LmResponse(
            text=text,
            prompt_tokens=prompt_tokens,
            completion_tokens=len(text.split()),
            backend_tag=self.tag,
        )


class ReplayBackend:
    tag = "replay"

    def __init__(self, cache: ReplayCache):
        self.cache = cache

    def complete(self, request: LmRequest) -> LmResponse:
        key = canonical_key(request)
        response = self.cache.get(key)
        if response is None:
            raise CacheMissError(key)
        return response


class LiveBackend:
    """OpenAI-compatible ``POST {base_url}/chat/completions`` client.

    Transient failures (HTTP 429/5xx, timeouts, connection errors) are
    retried up to 5 attempts with capped exponential backoff; the request
    is never mutated between retries.
    """

    tag = "live"

    def __init__(
        self,
        base_url: str,
        api_key: str = "",
        timeout: float = 120.0,
        sleeper: Callable[[float], None] = time.sleep,
        session: requests.Session | None = None,
    ):
        self.base_url = base_url.rstrip("/")
        self.api_key = api_key
        self.timeout = timeout
        self._sleep = sleeper
        self._session = session or requests.Session()

    def complete(self, request: LmRequest) -> LmResponse:
        url = f"{self.base_url}/chat/completions"
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        payload = request.payload()
        last_error = "no attempts made"
        for attempt in range(MAX_LIVE_ATTEMPTS):
            if attempt:
                self._sleep(min(BACKOFF_CAP_SECONDS, BACKOFF_BASE_SECONDS * 2 ** (attempt - 1)))
            try:
                http = self._session.post(url, json=payload, headers=headers, timeout=self.timeout)
            except requests.Timeout:
                last_error = "request timed out"
                continue
            except requests.RequestException as exc:
                last_error = f"connection error: {exc}"
                continue
            if http.status_code == 429 or http.status_code >= 500:
                last_error = f"HTTP {http.status_code}"
                continue
            if http.status_code != 200:
                raise LiveRequestError(
                    f"chat completion failed with HTTP {http.status_code}: {http.text[:200]}",
                    status=http.status_code,
                    body_excerpt=http.text[:200],
                )
            return self._parse_response(http)
        raise LiveRequestError(f"chat completion failed after {MAX_LIVE_ATTEMPTS} attempts: {last_error}")

    def _parse_response(self, http: requests.Response) -> LmResponse:
        try:
            body = http.json()
            text = body["choices"][0]["message"]["content"]
            usage = body.get("usage", {})
            return LmResponse(
                text=text,
                prompt_tokens=int(usage.get("prompt_tokens", 0)),
                completion_tokens=int(usage.get("completion_tokens", 0)),
                backend_tag=self.tag,
            )
        except (KeyError, IndexError, TypeError, ValueError, RecursionError) as exc:
            raise LiveRequestError(
                f"malformed chat completion response: {exc}", status=http.status_code,
                body_excerpt=http.text[:200],
            ) from exc


@dataclass
class LmGateway:
    """Shared completion entry point: a single-flight, read-through cache in
    front of the backend, with bounded in-flight concurrency.

    Holds the generation defaults (model, temperature, top_p, max_tokens)
    that pipelines use when building requests. For a non-replay backend, a
    request whose canonical key is in ``cache`` (loaded from disk or
    completed earlier in this run) is answered from it, and a request whose
    key is already in flight waits for that call instead of issuing its own.
    So the first response for a key wins for the rest of the run; when
    ``record`` is set it is also appended to the cache file. Errors are not
    cached: waiters get the exception and a later call retries. Without a
    configured cache the gateway keeps an in-memory one. A replay backend is
    called directly, since it is itself the cache lookup.
    """

    backend: Backend
    model: str = DEFAULT_MODEL
    temperature: float = DEFAULT_TEMPERATURE
    top_p: float = DEFAULT_TOP_P
    max_tokens: int = DEFAULT_MAX_TOKENS
    cache: ReplayCache | None = None
    record: bool = False
    concurrency: int = 4
    _semaphore: threading.Semaphore = field(init=False, repr=False)
    _lock: threading.Lock = field(init=False, repr=False)
    _inflight: dict[str, Future] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.concurrency < 1:
            raise ValidationError(f"concurrency must be >= 1, got {self.concurrency}")
        self._semaphore = threading.Semaphore(self.concurrency)
        self._lock = threading.Lock()
        self._inflight = {}
        if self.cache is None:
            self.cache = ReplayCache()

    def request(self, messages: list[Message] | tuple[Message, ...]) -> LmRequest:
        return LmRequest(
            model=self.model,
            messages=tuple(messages),
            temperature=self.temperature,
            top_p=self.top_p,
            max_tokens=self.max_tokens,
        )

    def complete(self, request: LmRequest) -> LmResponse:
        backend = self.backend
        if backend.tag == "replay":
            with self._semaphore:
                return backend.complete(request)
        key = canonical_key(request)
        with self._lock:
            cached = self.cache.get(key)
            if cached is not None:
                return cached
            flight = self._inflight.get(key)
            leader = flight is None
            if leader:
                flight = self._inflight[key] = Future()
        if not leader:
            return flight.result()
        try:
            with self._semaphore:
                response = backend.complete(request)
            self.cache.append(request, response, key=key, write=self.record)
        except BaseException as exc:
            flight.set_exception(exc)
            raise
        finally:
            # The response is in the cache before the key leaves the in-flight
            # map, so a later caller finds one or the other.
            with self._lock:
                del self._inflight[key]
        flight.set_result(response)
        return response

    def complete_messages(self, messages: list[Message] | tuple[Message, ...]) -> LmResponse:
        return self.complete(self.request(messages))
