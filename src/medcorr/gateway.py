"""Uniform completion interface over live, replay, and scripted backends.

Every pipeline talks to an :class:`LmGateway`, so a run can be recorded
against a live OpenAI-compatible endpoint once and replayed byte-identically
offline forever after. Cache entries are keyed by a SHA-256 over the
canonical request serialization (sorted top-level fields, messages in order,
UTF-8, no insignificant whitespace), so any content change is a new key.
"""

from __future__ import annotations

import functools
import hashlib
import json
import logging
import math
import os
import threading
import time
from concurrent.futures import Future
from contextvars import ContextVar
from dataclasses import asdict, dataclass, field, replace
from json.encoder import encode_basestring, encode_basestring_ascii
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Protocol

from .corpus import _encodable, json_loads
from .errors import CacheMissError, LiveRequestError, ValidationError

if TYPE_CHECKING:
    import requests

logger = logging.getLogger(__name__)

VALID_ROLES = ("system", "user", "assistant")

DEFAULT_MODEL = "gpt-4-0125-preview"
DEFAULT_TEMPERATURE = 1.0
DEFAULT_TOP_P = 1.0
DEFAULT_MAX_TOKENS = 4096

MAX_LIVE_ATTEMPTS = 5
BACKOFF_BASE_SECONDS = 0.5
BACKOFF_CAP_SECONDS = 8.0

# The stop shared by a tree of nested ``pipelines.map_ordered`` batches, set in
# each of their worker threads. Once it is set no batch in the tree takes an
# item and the gateway sends no new request for it.
batch_stop: ContextVar[threading.Event | None] = ContextVar("batch_stop", default=None)


class BatchStopped(BaseException):
    """A call given up because its batch tree stopped. Not an ``Exception``,
    so no per-record handler scores or retries it; ``map_ordered`` ranks it
    after every real failure."""


@dataclass(frozen=True, slots=True)
class Message:
    role: str
    content: str


@dataclass(frozen=True)
class LmRequest:
    """One chat-completion request. Its cache key is computed on first use
    and kept, so the gateway, a replay lookup and the trace of the call that
    sent it share one computation."""

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
        for i, message in enumerate(self.messages):
            if message.role not in VALID_ROLES:
                raise ValidationError(f"unknown message role {message.role!r}")
            if not isinstance(message.content, str):
                raise ValidationError(f"message {i} content is {type(message.content).__name__}, not a string")

    @property
    def key(self) -> str:
        """``canonical_key(self)``, kept in the instance ``__dict__``. Not a
        ``functools.cached_property``: on Python 3.11 that takes one
        class-wide lock on every first access."""
        key = self.__dict__.get("_key")
        if key is None:
            key = self.__dict__["_key"] = canonical_key(self)
        return key

    def payload(self) -> dict:
        return {
            "model": self.model,
            "messages": [{"role": m.role, "content": m.content} for m in self.messages],
            "temperature": self.temperature,
            "top_p": self.top_p,
            "max_tokens": self.max_tokens,
        }


@dataclass(frozen=True, slots=True)
class LmResponse:
    """A completion. Live, scripted and cached responses are all built here,
    so none with a non-string text, a text holding a lone surrogate or a
    usage count that is not an integer >= 0 gets in."""

    text: str
    prompt_tokens: int = 0
    completion_tokens: int = 0
    backend_tag: str = "scripted"

    def __post_init__(self) -> None:
        if not isinstance(self.text, str):
            raise ValidationError(f"response text is {type(self.text).__name__}, not a string")
        if not _encodable(self.text):
            raise ValidationError("response text holds a lone surrogate, which UTF-8 cannot encode")
        for name in ("prompt_tokens", "completion_tokens"):
            count = getattr(self, name)
            if type(count) is not int or count < 0:
                raise ValidationError(f"{name} is {count!r}, not an integer >= 0")


_dumps = functools.partial(json.dumps, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def canonical_request_json(request: LmRequest) -> str:
    """Stable serialization: sorted keys, in-order messages, no extra spaces."""
    return _dumps(request.payload())


def _json(value: object) -> str:
    """``value`` as ``canonical_request_json`` writes it: exact strs, ints and
    finite floats directly, as the json encoder does, anything else by it.
    On ASCII text the ASCII escaper writes the same bytes, faster, except on
    U+007F, which only it escapes."""
    kind = type(value)
    if kind is str:
        if value.isascii() and "\x7f" not in value:
            return encode_basestring_ascii(value)
        return encode_basestring(value)
    if kind is int:
        return int.__repr__(value)
    if kind is float and math.isfinite(value):
        return float.__repr__(value)
    return _dumps(value)


@functools.lru_cache(maxsize=256)
def _key_head(max_tokens: str, leading: tuple[Message, ...]) -> str:
    """The canonical JSON up to the last message's content, memoized on the
    JSON text of ``max_tokens`` (``1`` and ``true`` differ) and on the leading
    messages, whose contents are strings, so equal values write equal JSON: a
    program's system prompt is escaped once, not once per call."""
    messages = "".join(f'{{"content":{_json(m.content)},"role":{_json(m.role)}}},' for m in leading)
    return f'{{"max_tokens":{max_tokens},"messages":[{messages}{{"content":'


def canonical_key(request: LmRequest) -> str:
    """``sha256(canonical_request_json(request))``, the same text built as a
    memoized head, the last message's escaped content and a tail."""
    last = request.messages[-1]
    text = (
        _key_head(_json(request.max_tokens), tuple(request.messages[:-1]))
        + _json(last.content)
        + f',"role":{_json(last.role)}}}],"model":{_json(request.model)},'
        f'"temperature":{_json(request.temperature)},"top_p":{_json(request.top_p)}}}'
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class ReplayCache:
    """Append-only json-lines store of ``{key, request, response}`` entries.

    The first response stored for a key wins, in memory and on disk: a later
    append of the same key is ignored, and so is a later line for a key
    already loaded. Reads are lock-free dict lookups; appends serialize on a
    lock and flush to disk immediately. An unterminated, unparseable final
    line, which a crash mid-append leaves, is ignored with a warning and cut
    from the file before the next append; a malformed line anywhere else is
    an error. ``__init__`` loads the file one line at a time, lines ending at
    ``b"\n"`` only, so a load holds the entries it keeps plus one line.
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
        offset = 0  # the size of the lines before this one
        terminated = True
        with self.path.open("rb") as handle:
            for lineno, line in enumerate(handle, start=1):
                terminated = line.endswith(b"\n")
                if line.strip():
                    try:
                        entry = json_loads(line.removesuffix(b"\n"))
                        key, response = entry["key"], entry["response"]
                        if type(key) is not str:
                            raise ValidationError(f"key is {type(key).__name__}, not a string")
                        self._entries.setdefault(
                            key,
                            LmResponse(
                                text=response["text"],
                                prompt_tokens=response.get("prompt_tokens", 0),
                                completion_tokens=response.get("completion_tokens", 0),
                                backend_tag="replay",
                            ),
                        )
                    except (KeyError, TypeError, ValueError, ValidationError) as exc:
                        if terminated:
                            raise ValidationError(f"cache file {self.path} line {lineno} is malformed: {exc}") from exc
                        logger.warning("cache file %s ends in a torn line %d; ignoring it: %s", self.path, lineno, exc)
                        self._tail = (offset, "")
                        return
                offset += len(line)
        if not terminated:
            self._tail = (offset, "\n")

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str) -> LmResponse | None:
        return self._entries.get(key)

    def append(self, request: LmRequest, response: LmResponse, write: bool = True) -> None:
        """Store ``response`` under ``request.key`` unless the key is present;
        with ``write`` and a path, also append it to the file."""
        key = request.key
        line = None
        if write and self.path is not None:
            entry = {"key": key, "request": request.payload(), "response": asdict(response)}
            line = json.dumps(entry, ensure_ascii=False, sort_keys=True)
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
            self._entries[key] = replace(response, backend_tag="replay")


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
        response = self.cache.get(request.key)
        if response is None:
            raise CacheMissError(f"replay cache miss for key {request.key}")
        return response


class LiveBackend:
    """OpenAI-compatible ``POST {base_url}/chat/completions`` client.

    Transient failures (HTTP 429/5xx, timeouts, connection errors) are
    retried up to 5 attempts with capped exponential backoff; the request
    is never mutated between retries. An injected ``session`` is used as it
    is; otherwise one is made on the first ``complete``, once however many
    threads call first, so a run served from its cache never loads requests.
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
        self._session = session
        self._session_lock = threading.Lock()

    def complete(self, request: LmRequest) -> LmResponse:
        import requests  # not at module top: with urllib3 and ssl it costs ~9 MB a run without HTTP never uses
        with self._session_lock:
            if self._session is None:
                self._session = requests.Session()
            session = self._session
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
                http = session.post(url, json=payload, headers=headers, timeout=self.timeout)
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
                raise LiveRequestError(f"chat completion failed with HTTP {http.status_code}: {http.text[:200]}")
            return self._parse_response(http)
        raise LiveRequestError(f"chat completion failed after {MAX_LIVE_ATTEMPTS} attempts: {last_error}")

    def _parse_response(self, http: requests.Response) -> LmResponse:
        try:
            body = json_loads(http.content)
            text = body["choices"][0]["message"]["content"]
            usage = body.get("usage", {})
            return LmResponse(
                text=text,
                prompt_tokens=usage.get("prompt_tokens", 0),
                completion_tokens=usage.get("completion_tokens", 0),
                backend_tag=self.tag,
            )
        except (KeyError, IndexError, TypeError, ValueError, AttributeError, ValidationError) as exc:
            raise LiveRequestError(f"malformed chat completion response: {exc}") from exc


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
    called directly and, like a cache hit, takes no slot: it is itself the
    cache lookup. Either way a request's key is computed once, on first use
    (``LmRequest.key``), and the caller reads the same key back to name the
    call. Any other backend request that gets a slot after its batch tree
    stopped (``batch_stop``) raises :class:`BatchStopped` unsent.
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
            return backend.complete(request)
        key = request.key
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
                stop = batch_stop.get()
                if stop is not None and stop.is_set():
                    raise BatchStopped
                response = backend.complete(request)
            self.cache.append(request, response, write=self.record)
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
