"""Model backends: OpenAI-compatible HTTP, scripted fixtures, replay memo.

HttpBackend and ScriptedBackend are the two Backends. The pipeline asks
its setup's ReplayCache for every call, and the memo asks a phase's
backend only for requests it has not seen; each call is recorded as a
CallRecord. ScriptedBackend is the one reader of the script format, and
a scripted reply may carry a finish reason, so a truncated reply can be
scripted. ModelRequest and RequestSettings share one range rule for the
request knobs; HttpBackend and RetryPolicy reject knobs out of range.

Every request has a stable SHA-256 fingerprint computed over a canonical
JSON form of (model_id, system_prompt, segments, temperature, max_tokens):

    {"max_tokens": int, "model_id": str, "segments": [...],
     "system_prompt": str, "temperature": float}

serialized with sorted keys, separators (",", ":"), ensure_ascii=False,
UTF-8 encoded, then hashed. Text segments appear as
{"kind": "text", "text": ...}; image segments as
{"kind": "image", "media_type": ..., "sha256": ...} where the digest is
over the decoded image bytes (file contents for file refs, the URL string
for url refs, since remote bytes are not fetched). The phase and sample_id
routing metadata never enter the fingerprint.
"""

from __future__ import annotations

import base64
import enum
import hashlib
import itertools
import json
import logging
import mimetypes
import os
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Mapping, Protocol

from .data_model import ImageKind, ImageRef

log = logging.getLogger(__name__)


class BackendError(Exception):
    """Base class for backend failures."""


class AuthError(BackendError):
    """Credential problem (401/403 or missing key). Never retried."""


class TransportError(BackendError):
    """Transport-level failure that survived the retry budget."""


class BadResponse(BackendError):
    """The endpoint answered with a body we cannot interpret."""


class ScriptMiss(BackendError):
    """A scripted backend had no reply for the request."""


class FinishReason(enum.Enum):
    STOP = "stop"
    LENGTH = "length"
    ERROR = "error"


# how a phase notes a reply whose finish reason is LENGTH
TRUNCATION_NOTE = "truncated: the reply stopped at the max_tokens limit"


@dataclass(frozen=True)
class TextSegment:
    text: str


@dataclass(frozen=True)
class ImageSegment:
    ref: ImageRef


Segment = TextSegment | ImageSegment


def _check_knob_ranges(temperature: float, max_tokens: int) -> None:
    if not 0.0 <= temperature <= 1.0:
        raise ValueError(f"'temperature' {temperature} is outside [0, 1]")
    if max_tokens < 1:
        raise ValueError(f"'max_tokens' {max_tokens} is not positive")


@dataclass(frozen=True)
class ModelRequest:
    model_id: str
    system_prompt: str
    segments: tuple[Segment, ...]
    temperature: float = 0.0
    max_tokens: int = 1024
    # routing metadata for scripted fixtures and traces; not fingerprinted
    phase: str = ""
    sample_id: str | None = None
    fingerprint: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.segments:
            raise ValueError("request needs at least one segment")
        images = [s for s in self.segments if isinstance(s, ImageSegment)]
        if len(images) > 1:
            raise ValueError("at most one image segment per request")
        _check_knob_ranges(self.temperature, self.max_tokens)
        # filled here, not by a cached_property, whose lock is class-wide on 3.11
        object.__setattr__(self, "fingerprint", request_fingerprint(self))


@dataclass(frozen=True)
class ModelResponse:
    text: str
    finish_reason: FinishReason
    latency_ms: float
    from_cache: bool = False


@dataclass(frozen=True)
class RequestSettings:
    """Per-phase knobs applied to every request an agent builds."""

    model_id: str = "scripted"
    system_prompt: str = ""
    temperature: float = 0.0
    max_tokens: int = 1024

    def __post_init__(self):
        _check_knob_ranges(self.temperature, self.max_tokens)

    def request(
        self, segments: tuple[Segment, ...], phase: str, sample_id: str | None
    ) -> ModelRequest:
        """A request carrying every one of these knobs, for one phase of one sample."""
        return ModelRequest(segments=segments, phase=phase, sample_id=sample_id, **vars(self))


class Backend(Protocol):
    def complete(self, request: ModelRequest) -> ModelResponse: ...


def _image_identity(ref: ImageRef) -> tuple[str, str]:
    """(media_type, sha256 hex) pair identifying an image for fingerprints."""
    if ref.kind is ImageKind.INLINE_BASE64:
        data = ref.decoded_bytes()
        media = ref.media_type or "application/octet-stream"
    elif ref.kind is ImageKind.FILE_PATH:
        data = Path(ref.value).read_bytes()
        media = ref.media_type or mimetypes.guess_type(ref.value)[0] or "image/png"
    else:  # URL: remote bytes are out of reach, the address is the identity
        data = ref.value.encode("utf-8")
        media = ref.media_type or "image/png"
    return media, hashlib.sha256(data).hexdigest()


def request_fingerprint(request: ModelRequest) -> str:
    """SHA-256 hex digest of the canonical form in the module docstring."""
    segments = []
    for seg in request.segments:
        if isinstance(seg, TextSegment):
            segments.append({"kind": "text", "text": seg.text})
        else:
            media, digest = _image_identity(seg.ref)
            segments.append({"kind": "image", "media_type": media, "sha256": digest})
    payload = {
        "max_tokens": request.max_tokens,
        "model_id": request.model_id,
        "segments": segments,
        "system_prompt": request.system_prompt,
        "temperature": request.temperature,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class RetryPolicy:
    max_attempts: int = 3
    backoff_base_ms: int = 250

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError(f"'max_attempts' {self.max_attempts} is not positive")
        if self.backoff_base_ms < 0:
            raise ValueError(f"'backoff_base_ms' {self.backoff_base_ms} is negative")


def _image_data_url(ref: ImageRef) -> str:
    if ref.kind is ImageKind.URL:
        return ref.value
    if ref.kind is ImageKind.INLINE_BASE64:
        return f"data:{ref.media_type};base64,{ref.value}"
    data = Path(ref.value).read_bytes()
    media = ref.media_type or mimetypes.guess_type(ref.value)[0] or "image/png"
    return f"data:{media};base64,{base64.b64encode(data).decode('ascii')}"


def __getattr__(name: str):
    # `requests` is imported at the first HTTP send, not with mathagent, yet
    # `backends.requests` still names the module: assigning
    # `backends.requests.post` replaces the call the default transport makes.
    if name == "requests":
        import requests

        return requests
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _requests_transport(url, headers, body, timeout_s):
    """Default transport. Raises ConnectionError/TimeoutError on IO trouble."""
    import requests  # here, so runs that never send never load the HTTP stack

    try:
        resp = requests.post(url, headers=headers, json=body, timeout=timeout_s)
    except requests.Timeout as exc:
        raise TimeoutError(str(exc)) from exc
    except requests.RequestException as exc:
        raise ConnectionError(str(exc)) from exc
    return resp.status_code, resp.text


class HttpBackend:
    """Chat-completions client for OpenAI-compatible endpoints.

    Retries 429, 5xx, and transport IO errors with exponential backoff;
    401/403 raise AuthError immediately. rate_limit bounds the number of
    in-flight requests across threads. A gate given in its place is
    shared: backends holding one gate (say, every backend of a command on
    one base_url) are bound by it together. A rate_limit or timeout_s that
    is not positive raises ValueError, as RetryPolicy does for
    max_attempts below 1 or a negative backoff_base_ms.
    """

    def __init__(
        self,
        base_url: str,
        api_key_env: str = "MATHAGENT_API_KEY",
        retry: RetryPolicy = RetryPolicy(),
        rate_limit: int = 4,
        timeout_s: float = 60.0,
        transport: Callable = _requests_transport,
        sleep: Callable[[float], None] = time.sleep,
        gate: threading.Semaphore | None = None,
    ):
        if rate_limit < 1:
            raise ValueError(f"'rate_limit' {rate_limit} is not positive")
        if not timeout_s > 0:
            raise ValueError(f"'timeout_s' {timeout_s} is not positive")
        self.base_url = base_url.rstrip("/")
        self.api_key_env = api_key_env
        self.retry = retry
        self.timeout_s = timeout_s
        self._transport = transport
        self._sleep = sleep
        self._gate = threading.Semaphore(rate_limit) if gate is None else gate

    def _build_body(self, request: ModelRequest) -> dict:
        content = []
        for seg in request.segments:
            if isinstance(seg, TextSegment):
                content.append({"type": "text", "text": seg.text})
            else:
                content.append(
                    {"type": "image_url", "image_url": {"url": _image_data_url(seg.ref)}}
                )
        messages = []
        if request.system_prompt:
            messages.append({"role": "system", "content": request.system_prompt})
        messages.append({"role": "user", "content": content})
        return {
            "model": request.model_id,
            "messages": messages,
            "temperature": request.temperature,
            "max_tokens": request.max_tokens,
        }

    def complete(self, request: ModelRequest) -> ModelResponse:
        key = os.environ.get(self.api_key_env)
        if not key:
            raise AuthError(f"environment variable {self.api_key_env} is not set")
        headers = {
            "Authorization": f"Bearer {key}",
            "Content-Type": "application/json",
        }
        url = f"{self.base_url}/chat/completions"
        body = self._build_body(request)

        attempts = self.retry.max_attempts
        last_failure = "no attempt made"
        started = time.monotonic()
        for attempt in range(1, attempts + 1):
            try:
                with self._gate:
                    status, text = self._transport(url, headers, body, self.timeout_s)
            except (ConnectionError, TimeoutError) as exc:
                last_failure = f"transport error: {exc}"
            else:
                if status in (401, 403):
                    raise AuthError(f"HTTP {status} from {url}")
                if status == 429 or 500 <= status < 600:
                    last_failure = f"HTTP {status}"
                elif not 200 <= status < 300:
                    raise TransportError(f"HTTP {status} from {url}: {text[:200]}")
                else:
                    latency_ms = (time.monotonic() - started) * 1000.0
                    return self._parse_body(text, latency_ms)
            if attempt < attempts:
                backoff_s = self.retry.backoff_base_ms / 1000.0 * (2 ** (attempt - 1))
                self._sleep(backoff_s)
        raise TransportError(f"gave up after {attempts} attempts: {last_failure}")

    @staticmethod
    def _parse_body(text: str, latency_ms: float) -> ModelResponse:
        try:
            payload = json.loads(text)
            choice = payload["choices"][0]
            content = choice["message"]["content"]
        except (json.JSONDecodeError, KeyError, IndexError, TypeError) as exc:
            raise BadResponse(f"malformed completion body: {exc}") from exc
        if not isinstance(content, str):
            raise BadResponse("message content is not a string")
        raw_reason = choice.get("finish_reason")
        if raw_reason == "stop":
            reason = FinishReason.STOP
        elif raw_reason == "length":
            reason = FinishReason.LENGTH
        else:
            reason = FinishReason.ERROR
        return ModelResponse(text=content, finish_reason=reason, latency_ms=latency_ms)


class ScriptedBackend:
    """Deterministic fixture backend, and the one reader of the script format.

    A script is {"phases": {phase: {sample_id: reply}}, "by_fingerprint":
    {fingerprint: reply}, "default_reply": reply}, looked up fingerprint
    first, default last. A reply is a string, a {"text": ..., "finish_reason":
    ...} object ("stop" when absent) or a list of these handed out one per
    call, the last repeating (as a re-ask needs). Other shapes raise
    ValueError. Latency is always 0.0 so runs are byte-reproducible.
    """

    def __init__(
        self,
        phases: Mapping[str, Mapping[str, object]] | None = None,
        by_fingerprint: Mapping[str, object] | None = None,
        default_reply: object = None,
    ):
        phases = {} if phases is None else phases
        if not isinstance(phases, Mapping):
            raise ValueError("script 'phases' must be an object")
        by_fingerprint = {} if by_fingerprint is None else by_fingerprint
        self._replies = _reply_table(by_fingerprint, "by_fingerprint", ("fp",))
        for phase, table in phases.items():
            self._replies.update(_reply_table(table, f"phases.{phase}", ("ps", phase)))
        if default_reply is not None:
            self._replies[("default",)] = _script_replies(default_reply, "default_reply")
        self._lock = threading.Lock()

    @classmethod
    def from_script(cls, script) -> "ScriptedBackend":
        """A backend for a parsed script object; keys outside the format are ignored."""
        if not isinstance(script, Mapping):
            raise ValueError(f"a script must be a JSON object, not {type(script).__name__}")
        return cls(script.get("phases"), script.get("by_fingerprint"), script.get("default_reply"))

    @classmethod
    def from_file(cls, path) -> "ScriptedBackend":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_script(json.load(fh))

    def complete(self, request: ModelRequest) -> ModelResponse:
        fp = request.fingerprint
        for key in (("fp", fp), ("ps", request.phase, request.sample_id), ("default",)):
            if key in self._replies:
                with self._lock:
                    return next(self._replies[key])
        raise ScriptMiss(
            f"no scripted reply for phase={request.phase!r} "
            f"sample={request.sample_id!r} fingerprint={fp[:12]}"
        )


def _reply_table(table, where: str, prefix: tuple) -> dict[tuple, Iterator[ModelResponse]]:
    if not isinstance(table, Mapping):
        raise ValueError(f"script {where!r} must be an object")
    return {(*prefix, k): _script_replies(v, f"{where}.{k}") for k, v in table.items()}


def _script_replies(value, where: str) -> Iterator[ModelResponse]:
    """A scripted reply value as ready responses, handed out in turn, the last repeating."""
    replies = []
    for item in value if isinstance(value, list) and value else [value]:
        text, reason = item, "stop"
        if isinstance(item, Mapping) and item.keys() <= {"text", "finish_reason"}:
            text, reason = item.get("text"), item.get("finish_reason", "stop")
        if not isinstance(text, str) or reason not in [r.value for r in FinishReason]:
            raise ValueError(f"script {where!r}: {item!r} is not a string, a non-empty list or "
                             '{"text": str, "finish_reason": "stop" | "length" | "error"}')
        replies.append(ModelResponse(text, FinishReason(reason), latency_ms=0.0))
    return itertools.chain(replies, itertools.repeat(replies[-1]))


class ReplayCache:
    """Fingerprint -> reply memo for every phase backend of one command.

    A repeated request gets the stored reply, with from_cache set and
    latency 0.0. Concurrent misses on one fingerprint make one inner call
    (single-flight); a failed call stores nothing, and its waiters raise.
    With a path, the memo persists as append-only JSONL read once here, one
    {fingerprint, response_text, finish_reason, model_id, timestamp} per
    line (finish_reason stop when absent, the last line winning). A torn
    final line (a crash mid-append) is cut with a warning; any other bad
    line raises ValueError, and a path whose directory does not exist
    raises FileNotFoundError. Only this object orders appends: one per
    file. The file is opened for appending at the first miss and each line
    is flushed whole; close() (or leaving a `with` block) closes it.
    """

    def __init__(self, path=None):
        self.path = None if path is None else Path(path)
        # a Future while the one call asking for it is in flight
        self._replies: dict[str, tuple[str, FinishReason] | Future] = {}
        self._lock = threading.Lock()
        self._appends = None  # the append handle, opened at the first append
        if self.path is not None and self.path.exists():
            self._load()
        elif self.path is not None and not self.path.parent.is_dir():
            # else every sample would fail at its first append
            raise FileNotFoundError(f"replay cache directory {self.path.parent} does not exist")

    def _load(self) -> None:
        data = self.path.read_bytes()
        if data and not data.endswith(b"\n"):
            log.warning(
                "dropping torn final line %d of replay cache %s",
                data.count(b"\n") + 1,
                self.path,
            )
            data = data[: data.rfind(b"\n") + 1]
            with open(self.path, "r+b") as fh:
                fh.truncate(len(data))
        # split on \n only: records may hold other line separators such as U+2028
        for line_no, line in enumerate(data.decode("utf-8").split("\n"), start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                fp, text = obj["fingerprint"], obj["response_text"]
                if not isinstance(fp, str) or not isinstance(text, str):
                    raise TypeError("fingerprint and response_text must be strings")
                self._replies[fp] = (text, FinishReason(obj.get("finish_reason", "stop")))
            except (ValueError, KeyError, TypeError) as exc:
                raise ValueError(
                    f"corrupt replay cache {self.path} line {line_no}: {exc}"
                ) from exc

    def complete(self, inner: Backend, request: ModelRequest) -> ModelResponse:
        """The stored reply to request; on a miss, inner's reply, then stored."""
        fp = request.fingerprint
        with self._lock:
            stored = self._replies.get(fp)
            if stored is None:
                self._replies[fp] = flight = Future()
        if stored is not None:
            text, reason = stored.result() if isinstance(stored, Future) else stored
            return ModelResponse(text, reason, latency_ms=0.0, from_cache=True)
        try:
            response = inner.complete(request)
        except BaseException as exc:
            with self._lock:
                del self._replies[fp]
            flight.set_exception(exc)
            raise
        reply = (response.text, response.finish_reason)
        flight.set_result(reply)  # first, so a failed append strands no waiter
        with self._lock:
            self._replies[fp] = reply
            if self.path is not None:
                record = {
                    "fingerprint": fp,
                    "response_text": response.text,
                    "finish_reason": response.finish_reason.value,
                    "model_id": request.model_id,
                    "timestamp": time.time(),
                }
                if self._appends is None:
                    self._appends = open(self.path, "a", encoding="utf-8")
                self._appends.write(json.dumps(record, ensure_ascii=False) + "\n")
                self._appends.flush()  # a killed run leaves whole lines only
        return response

    def close(self) -> None:
        """Close the append handle, if open; a later miss opens it again."""
        with self._lock:
            if self._appends is not None:
                self._appends.close()
                self._appends = None

    def __enter__(self) -> "ReplayCache":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


@dataclass(frozen=True, slots=True)
class CallRecord:
    """One model call of a sample: its request's phase and fingerprint, and how it was answered."""

    phase: str
    fingerprint: str
    from_cache: bool
    latency_ms: float
