"""Model backends: OpenAI-compatible HTTP, scripted fixtures, replay memo.

HttpBackend and ScriptedBackend are the two Backends. The pipeline asks
its setup's ReplayCache for every call, and the memo asks a phase's
backend only for requests it has not seen; each call is recorded as a
CallRecord. Threads that miss on one request together make one call
(single-flight): the first asker holds a lock until its reply or its
exception is set, and the others block on that lock, then share it.
ScriptedBackend is the one reader of the script format; a scripted
reply may carry a finish reason, so a cut reply can be scripted, and a
reply list answers by the request's attempt, never by the calls before
it. ModelResponse.cut is the one whole-reply rule every
phase reads: a reply is whole only on STOP. A ModelRequest is one
prompt, at most one image and its phase's RequestSettings, whose range
rule for the knobs is the only one; HttpBackend and RetryPolicy reject
knobs out of range. ModelRequest, ModelResponse and CallRecord, the
values built for each call, are immutable NamedTuples, and so are
RequestSettings and RetryPolicy, whose __new__ checks their knobs at
every build, _replace included.

The replay cache's lines and HTTP reply bodies are read by
data_model.parse_json. It reads most of them in one scan of json's
scanner: a value followed by JSON whitespace alone, with no \\u escape.
Any other text goes through its full check, so both ways give the same
value or the same error.

HttpBackend builds its URL once, and its headers once per API key
value; it reads and checks the key at every call, with read_api_key,
which cli also applies to each HTTP backend a run uses before it makes
any output. Its defaults are the DEFAULT_* constants, which cli gives a
spec that leaves a knob out. It sends through its
transport hook: transport(url, headers, body, timeout_s) returns
(status, headers, text), the reply's status, its headers as a mapping
and its body, and raises ConnectionError or TimeoutError on IO
trouble. A 429 or 503 that sends Retry-After, in delta-seconds or as an
HTTP date, waits that long before the next attempt; any other retry,
or a Retry-After that does not parse, waits the exponential backoff.
Every wait is clamped to [0, RETRY_WAIT_CAP_S].

Every request has a stable SHA-256 fingerprint computed over a canonical
JSON form of its settings' model_id, system_prompt, temperature and
max_tokens, and a segments list of its prompt and then its image:

    {"max_tokens": int, "model_id": str, "segments": [...],
     "system_prompt": str, "temperature": float}

serialized with sorted keys, separators (",", ":"), ensure_ascii=False,
UTF-8 encoded, then hashed. The prompt appears as
{"kind": "text", "text": ...}, and an image, when there is one, after it as
{"kind": "image", "media_type": ..., "sha256": ...}, the ImageRef's
resolved_media_type and sha256 (over the image bytes, or a URL's address).
The phase, sample_id and attempt routing metadata never enter the
fingerprint. Each RequestSettings writes the form's text around the
segments once, when it is built, into its frame field, so a
fingerprint encodes only its prompt and image anew.
"""

from __future__ import annotations

import datetime
import hashlib
import json
import logging
import os
import threading
import time
from pathlib import Path
from typing import Callable, Mapping, NamedTuple, Protocol

from .data_model import BuiltByNew, IdentityEnum, ImageRef, parse_json

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


class FinishReason(IdentityEnum):
    STOP = "stop"
    LENGTH = "length"
    ERROR = "error"


# The whole-reply rule: a reply is whole only when it ends with STOP. Any
# other finish reason cuts it, and a phase records the note for its reason.
CUT_NOTES = {
    FinishReason.LENGTH: "truncated: the reply stopped at the max_tokens limit",
    FinishReason.ERROR: "cut: the reply ended with finish reason error",
}


_FINISH_REASONS = {reason.value: reason for reason in FinishReason}


class ModelResponse(NamedTuple):
    text: str
    finish_reason: FinishReason
    latency_ms: float
    from_cache: bool = False

    @property
    def cut(self) -> str | None:
        """None for a whole reply, else the note for its finish reason (CUT_NOTES)."""
        reason = self.finish_reason
        return None if reason is FinishReason.STOP else CUT_NOTES.get(reason)


def _canonical(value) -> str:
    """A scalar setting as the canonical form writes it."""
    return json.dumps(value, ensure_ascii=False)


_encode_str = json.encoder.encode_basestring  # a str as _canonical writes it, quotes included


# typing.NamedTuple takes no __new__ of its own, so a class that checks its fields or
# derives one has its __new__ on a subclass of its fields (see data_model.BuiltByNew)
class _SettingsFields(NamedTuple):
    model_id: str
    system_prompt: str
    temperature: float
    max_tokens: int
    # the canonical form's text before a request's prompt and after its segments
    frame: tuple[str, str]


class RequestSettings(BuiltByNew, _SettingsFields):
    """Per-phase knobs applied to every request an agent builds.

    Built from every field but frame, which __new__ writes once, here; a
    temperature keeps its type, so an int 0 frames as 0, as json.dumps
    writes it, not as 0.0.
    """

    __slots__ = ()

    def __new__(cls, model_id="scripted", system_prompt="", temperature=0.0, max_tokens=1024):
        if not 0.0 <= temperature <= 1.0:
            raise ValueError(f"'temperature' {temperature} is outside [0, 1]")
        if max_tokens < 1:
            raise ValueError(f"'max_tokens' {max_tokens} is not positive")
        c = _canonical
        head = f'{{"max_tokens":{c(max_tokens)},"model_id":{c(model_id)},"segments":['
        tail = f'],"system_prompt":{c(system_prompt)},"temperature":{c(temperature)}}}'
        frame = (head + '{"kind":"text","text":', tail)
        return tuple.__new__(cls, (model_id, system_prompt, temperature, max_tokens, frame))

    def __getnewargs__(self):  # what copy, pickle and _replace pass to __new__
        return self[:-1]

    def __repr__(self):
        return ("RequestSettings(model_id=%r, system_prompt=%r, temperature=%r, max_tokens=%r)"
                % self[:-1])


class _RequestFields(NamedTuple):
    prompt: str
    image: ImageRef | None
    settings: RequestSettings
    # routing metadata for scripted fixtures and traces; not fingerprinted
    phase: str = ""
    sample_id: str | None = None
    attempt: int = 0  # 1 for a re-ask after a reply that did not parse
    fingerprint: str = ""


class ModelRequest(BuiltByNew, _RequestFields):
    """One model call: a prompt, at most one image, and the knobs of its phase.

    Built from every field but fingerprint, which request_fingerprint fills
    once, here; _replace builds a new request, so its fingerprint is new too.
    """

    __slots__ = ()

    def __new__(cls, prompt, image, settings, phase="", sample_id=None, attempt=0):
        fields = (prompt, image, settings, phase, sample_id, attempt)
        unsigned = tuple.__new__(cls, (*fields, ""))  # all but the fingerprint it is to get
        return tuple.__new__(cls, (*fields, request_fingerprint(unsigned)))

    def __getnewargs__(self):  # what copy, pickle and _replace pass to __new__
        return self[:-1]


class Backend(Protocol):
    def complete(self, request: ModelRequest) -> ModelResponse: ...


def request_fingerprint(request: ModelRequest) -> str:
    """SHA-256 hex digest of the canonical form in the module docstring."""
    head, tail = request.settings.frame
    image = request.image
    if image is None:
        blob = f"{head}{_encode_str(request.prompt)}}}{tail}"
    else:
        blob = (f'{head}{_encode_str(request.prompt)}}},{{"kind":"image","media_type":'
                f'{_encode_str(image.resolved_media_type)},"sha256":"{image.sha256}"}}{tail}')
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


RETRY_WAIT_CAP_S = 60.0  # the longest wait between two attempts, backoff and Retry-After alike


class _RetryFields(NamedTuple):
    max_attempts: int
    backoff_base_ms: int


class RetryPolicy(BuiltByNew, _RetryFields):
    __slots__ = ()

    def __new__(cls, max_attempts=3, backoff_base_ms=250):
        if max_attempts < 1:
            raise ValueError(f"'max_attempts' {max_attempts} is not positive")
        cap_ms = int(RETRY_WAIT_CAP_S * 1000)  # a longer base would only ever wait the cap
        if not 0 <= backoff_base_ms <= cap_ms:
            raise ValueError(f"'backoff_base_ms' {backoff_base_ms} is not in [0, {cap_ms}]")
        return tuple.__new__(cls, (max_attempts, backoff_base_ms))


# HttpBackend's defaults, which cli gives an http spec that sets none of these keys
DEFAULT_API_KEY_ENV = "MATHAGENT_API_KEY"
DEFAULT_RETRY = RetryPolicy()
DEFAULT_RATE_LIMIT = 4
DEFAULT_TIMEOUT_S = 60.0


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
    return resp.status_code, resp.headers, resp.text


def _retry_after(headers: Mapping[str, str]) -> float | None:
    """The wait a Retry-After header asks for, at least 0; None when absent or unparseable."""
    value = next((v for k, v in headers.items() if k.lower() == "retry-after"), None)
    if value is None:
        return None
    value = value.strip()
    if value.isascii() and value.isdigit():  # delta-seconds; float() takes any length
        seconds = float(value)
    else:
        import email.utils  # here, as `requests` is: most runs never read an HTTP date

        try:
            when = email.utils.parsedate_to_datetime(value)
        except (TypeError, ValueError, OverflowError):  # Overflow: a year or zone past C int
            return None
        if when.tzinfo is None:  # "-0000": an HTTP date is in UTC
            when = when.replace(tzinfo=datetime.timezone.utc)
        seconds = when.timestamp() - time.time()
    return max(seconds, 0.0)


MAX_RATE_LIMIT = 256  # the most calls in flight a gate allows


def read_api_key(env_name: str) -> str:
    """The API key in the environment variable env_name; AuthError if no request can send it."""
    key = os.environ.get(env_name)
    if not key:
        raise AuthError(f"environment variable {env_name} is not set")
    if not (key.isascii() and key.isprintable()):  # no HTTP header can carry it
        raise AuthError(f"environment variable {env_name} is not printable ASCII")
    return key


class HttpBackend:
    """Chat-completions client for OpenAI-compatible endpoints.

    Retries 429, 5xx, and transport IO errors with exponential backoff, or
    after the wait a 429's or 503's Retry-After asks for (see the module
    docstring); 401/403 raise AuthError immediately. rate_limit bounds
    the number of in-flight requests across threads. A gate given in its
    place is shared: backends holding one gate (say, every backend of a
    command on one base_url) are bound by it together. A rate_limit outside
    [1, MAX_RATE_LIMIT] or a timeout_s outside (0, threading.TIMEOUT_MAX]
    raises ValueError, as RetryPolicy does for max_attempts below 1 or a
    backoff_base_ms outside [0, RETRY_WAIT_CAP_S] in ms.
    """

    def __init__(
        self,
        base_url: str,
        api_key_env: str = DEFAULT_API_KEY_ENV,
        retry: RetryPolicy = DEFAULT_RETRY,
        rate_limit: int = DEFAULT_RATE_LIMIT,
        timeout_s: float = DEFAULT_TIMEOUT_S,
        transport: Callable = _requests_transport,
        sleep: Callable[[float], None] = time.sleep,
        gate: threading.Semaphore | None = None,
    ):
        if not 1 <= rate_limit <= MAX_RATE_LIMIT:  # rate_limit sets a command's worker threads
            raise ValueError(f"'rate_limit' {rate_limit} is not in [1, {MAX_RATE_LIMIT}]")
        if not 0 < timeout_s <= threading.TIMEOUT_MAX:  # a socket timeout past it overflows
            raise ValueError(f"'timeout_s' {timeout_s} is not in (0, {threading.TIMEOUT_MAX:g}]")
        self.base_url = base_url.rstrip("/")
        self._url = f"{self.base_url}/chat/completions"
        self.api_key_env = api_key_env
        self._auth: tuple[str | None, dict] = (None, {})  # the last key read, and its headers
        self.retry = retry
        self.timeout_s = timeout_s
        self._transport = transport
        self._sleep = sleep
        self._gate = threading.Semaphore(rate_limit) if gate is None else gate

    def _build_body(self, request: ModelRequest) -> dict:
        content = [{"type": "text", "text": request.prompt}]
        if request.image is not None:
            content.append({"type": "image_url", "image_url": {"url": request.image.data_url()}})
        settings = request.settings
        messages = []
        if settings.system_prompt:
            messages.append({"role": "system", "content": settings.system_prompt})
        messages.append({"role": "user", "content": content})
        return {
            "model": settings.model_id,
            "messages": messages,
            "temperature": settings.temperature,
            "max_tokens": settings.max_tokens,
        }

    def complete(self, request: ModelRequest) -> ModelResponse:
        key = read_api_key(self.api_key_env)
        held_key, headers = self._auth
        if key != held_key:  # one headers dict per key value, swapped whole for other threads
            headers = {"Authorization": f"Bearer {key}", "Content-Type": "application/json"}
            self._auth = (key, headers)
        url = self._url
        body = self._build_body(request)

        attempts = self.retry.max_attempts
        last_failure = "no attempt made"
        started = time.monotonic()
        for attempt in range(1, attempts + 1):
            wait_s = None  # the Retry-After wait, when the endpoint sent one
            try:
                with self._gate:
                    status, reply_headers, text = self._transport(
                        url, headers, body, self.timeout_s
                    )
            except (ConnectionError, TimeoutError) as exc:
                last_failure = f"transport error: {exc}"
            else:
                if status in (401, 403):
                    raise AuthError(f"HTTP {status} from {url}")
                if status == 429 or 500 <= status < 600:
                    last_failure = f"HTTP {status}"
                    if status in (429, 503):
                        wait_s = _retry_after(reply_headers)
                elif not 200 <= status < 300:
                    raise TransportError(f"HTTP {status} from {url}: {text[:200]}")
                else:
                    latency_ms = (time.monotonic() - started) * 1000.0
                    return self._parse_body(text, latency_ms)
            if attempt < attempts:
                if wait_s is None:  # 16 doublings take even 1 ms past the cap; more could overflow
                    wait_s = self.retry.backoff_base_ms * 2 ** min(attempt - 1, 16) / 1000.0
                self._sleep(min(wait_s, RETRY_WAIT_CAP_S))
        raise TransportError(f"gave up after {attempts} attempts: {last_failure}")

    @staticmethod
    def _parse_body(text: str, latency_ms: float) -> ModelResponse:
        try:
            payload = parse_json(text)
            choice = payload["choices"][0]
            content = choice["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
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
    ...} object ("stop" when absent) or a list of these, one per attempt of
    the request, the last repeating (as a re-ask needs). Other shapes raise
    ValueError. The backend holds no state that a call changes, and latency
    is always 0.0, so runs are byte-reproducible in any order.
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

    @classmethod
    def from_script(cls, script) -> "ScriptedBackend":
        """A backend for a parsed script object; keys outside the format are ignored."""
        if not isinstance(script, Mapping):
            raise ValueError(f"a script must be a JSON object, not {type(script).__name__}")
        return cls(script.get("phases"), script.get("by_fingerprint"), script.get("default_reply"))

    @classmethod
    def from_file(cls, path) -> "ScriptedBackend":
        return cls.from_script(parse_json(Path(path).read_bytes()))

    def complete(self, request: ModelRequest) -> ModelResponse:
        fp = request.fingerprint
        for key in (("fp", fp), ("ps", request.phase, request.sample_id), ("default",)):
            replies = self._replies.get(key)
            if replies is not None:
                return replies[min(request.attempt, len(replies) - 1)]
        raise ScriptMiss(
            f"no scripted reply for phase={request.phase!r} "
            f"sample={request.sample_id!r} fingerprint={fp[:12]}"
        )


def _reply_table(table, where: str, prefix: tuple) -> dict[tuple, tuple[ModelResponse, ...]]:
    if not isinstance(table, Mapping):
        raise ValueError(f"script {where!r} must be an object")
    return {(*prefix, k): _script_replies(v, f"{where}.{k}") for k, v in table.items()}


def _script_replies(value, where: str) -> tuple[ModelResponse, ...]:
    """A scripted reply value as ready responses, one per attempt."""
    replies = []
    for item in value if isinstance(value, list) and value else [value]:
        text, reason = item, "stop"
        if isinstance(item, Mapping) and item.keys() <= {"text", "finish_reason"}:
            text, reason = item.get("text"), item.get("finish_reason", "stop")
        if not isinstance(text, str) or reason not in [r.value for r in FinishReason]:
            raise ValueError(f"script {where!r}: {item!r} is not a string, a non-empty list or "
                             '{"text": str, "finish_reason": "stop" | "length" | "error"}')
        replies.append(ModelResponse(text, FinishReason(reason), latency_ms=0.0))
    return tuple(replies)


class _Flight:
    """A request in flight: its asker holds lock, and releases it once reply or error is set."""

    __slots__ = ("lock", "reply", "error")

    def __init__(self):
        self.lock = threading.Lock()
        self.lock.acquire()
        self.reply: ModelResponse | None = None
        self.error: BaseException | None = None

    def wait(self) -> ModelResponse:
        """The asker's reply, once it releases the lock; if its call failed, that exception."""
        with self.lock:
            pass
        if self.error is not None:
            raise self.error
        return self.reply


class ReplayCache:
    """Fingerprint -> reply memo for every phase backend of one command.

    A repeated request gets the stored reply, with from_cache set and
    latency 0.0: one ModelResponse is made per fingerprint, when a line
    is loaded or a miss is answered, and every hit returns that one. A hit
    takes no lock, since a stored reply is never replaced or removed.
    Concurrent misses on one fingerprint make one inner call
    (single-flight): the first asker marks the fingerprint with a flight
    whose lock it holds until the call returns or raises, and every other
    asker blocks on that lock, then returns the same reply or raises the
    same exception. A failed call stores nothing, so a later ask calls
    again. With a path, the memo persists as append-only JSONL read once
    here, one {fingerprint, response_text, finish_reason, model_id,
    timestamp} per line (finish_reason stop when absent, the last line
    winning). A torn final line (a crash mid-append) is cut with a
    warning; any other bad line, one parse_json rejects included, raises
    ValueError naming it, and a path whose directory does not exist
    raises FileNotFoundError. Only this object orders appends: one per
    file. The file is opened for appending at the first miss and each
    line is flushed whole; close() (or leaving a `with` block) closes it.
    """

    def __init__(self, path=None):
        self.path = None if path is None else Path(path)
        # a _Flight while the one call asking for it is in flight
        self._replies: dict[str, ModelResponse | _Flight] = {}
        self._lock = threading.Lock()  # orders flight starts and appends
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
        for line_no, line in enumerate(data.split(b"\n"), start=1):
            if not line.strip():
                continue
            try:
                obj = parse_json(line)
                fp, text = obj["fingerprint"], obj["response_text"]
                if not isinstance(fp, str) or not isinstance(text, str):
                    raise TypeError("fingerprint and response_text must be strings")
                raw = obj.get("finish_reason", "stop")
                try:
                    reason = _FINISH_REASONS[raw]
                except (KeyError, TypeError):  # TypeError: a list or an object is unhashable
                    raise ValueError(f"{raw!r} is not a valid FinishReason") from None
                self._replies[fp] = ModelResponse(text, reason, 0.0, True)
            except (ValueError, KeyError, TypeError) as exc:
                raise ValueError(f"corrupt replay cache {self.path} line {line_no}: {exc}") from exc

    def complete(self, inner: Backend, request: ModelRequest) -> ModelResponse:
        """The stored reply to request; on a miss, inner's reply, then stored."""
        fp = request.fingerprint
        stored = self._replies.get(fp)
        if stored is None:
            with self._lock:  # one asker per fingerprint starts a flight
                stored = self._replies.get(fp)
                if stored is None:
                    self._replies[fp] = flight = _Flight()
        if stored is not None:
            return stored if stored.__class__ is ModelResponse else stored.wait()
        # only this asker replaces or removes its flight, so neither takes the lock
        try:
            response = inner.complete(request)
        except BaseException as exc:
            del self._replies[fp]
            flight.error = exc
            flight.lock.release()
            raise
        flight.reply = reply = ModelResponse(response.text, response.finish_reason, 0.0, True)
        self._replies[fp] = reply
        flight.lock.release()  # before the append, so a failed append strands no waiter
        if self.path is not None:
            record = {
                "fingerprint": fp,
                "response_text": response.text,
                "finish_reason": response.finish_reason.value,
                "model_id": request.settings.model_id,
                "timestamp": time.time(),
            }
            with self._lock:
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


class CallRecord(NamedTuple):
    """One model call of a sample: its request's phase and fingerprint, and how it was answered."""

    phase: str
    fingerprint: str
    from_cache: bool
    latency_ms: float
