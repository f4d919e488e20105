"""Backends: fingerprints, HTTP retry behaviour, scripted and replay layers."""

import base64
import copy
import email.utils
import hashlib
import inspect
import json
import os
import pickle
import sys
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    FIXTURES, TINY_PNG_BASE64, CapturingBackend, Fault, FaultyEndpoint, awkward_text, make_sample,
    run_python, track_appends,
)
from mathagent import (
    AblationMode,
    AnalyzerOutput,
    AuthError,
    BadResponse,
    CallRecord,
    ConsistencyVerdict,
    Detection,
    FinishReason,
    GeometryFact,
    HttpBackend,
    ImageKind,
    ImageRef,
    ModelRequest,
    ModelResponse,
    Number,
    PhaseSetup,
    PhaseTrace,
    PipelineSetup,
    ReplayCache,
    ReportRow,
    Representation,
    RequestSettings,
    RetryPolicy,
    ScriptMiss,
    ScriptedBackend,
    Symbol,
    TransportError,
    VisualTranscript,
    analyze,
    backends,
    build_analysis_prompt,
    check_consistency,
    check_latex_table,
    cli,
    dataset_stats,
    detect_errors,
    interpret_visual,
    load_dataset,
    request_fingerprint,
    resolve_question_type,
    score_run,
    validate_arity,
)
from mathagent.prompts import packaged_prompts


def text_request(text="hello", image=None, phase="", sample_id=None, attempt=0, **knobs):
    """A request whose settings are model "m" and system prompt "sys" unless knobs say else."""
    settings = RequestSettings(**{"model_id": "m", "system_prompt": "sys", **knobs})
    return ModelRequest(text, image, settings, phase, sample_id, attempt)


def inline_ref(b64=TINY_PNG_BASE64, media_type="image/png"):
    return ImageRef(kind=ImageKind.INLINE_BASE64, value=b64, media_type=media_type)


def loaded_config(tmp_path, spec: dict) -> cli.RunConfig:
    """What cli.load_config makes of a config whose three phases use spec."""
    config = tmp_path / "config.json"
    phases = {"phase1": spec, "phase2": spec, "phase3": spec}
    config.write_text(json.dumps({"dataset": "d.jsonl", "backends": phases}), encoding="utf-8")
    return cli.load_config(config)


def canonical_sha256(payload) -> str:
    """The reference fingerprint: SHA-256 of the whole payload as json.dumps writes it."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class TestRequestValidation:
    @pytest.mark.parametrize("temp", [-0.1, 1.5])
    def test_temperature_range(self, temp):
        with pytest.raises(ValueError):
            text_request(temperature=temp)

    def test_max_tokens_positive(self):
        with pytest.raises(ValueError):
            text_request(max_tokens=0)

    @pytest.mark.parametrize(
        "knob, value", [("temperature", 1.5), ("temperature", -0.1), ("max_tokens", 0)]
    )
    def test_settings_share_the_request_range_rule(self, knob, value):
        with pytest.raises(ValueError, match=repr(knob)) as from_request:
            text_request(**{knob: value})
        with pytest.raises(ValueError, match=repr(knob)) as from_settings:
            RequestSettings(**{knob: value})
        assert str(from_request.value) == str(from_settings.value)


PHASE = PhaseSetup(ScriptedBackend(default_reply="ok"))
DETECTION = Detection("t1", AblationMode.FULL, 1, None, PhaseTrace(None, None, "", []))


class TestValueTypes:
    """Every mathagent value type is an immutable tuple, but ImageRef, a slots class."""

    VALUES = {
        "ModelRequest": text_request(),
        "ModelResponse": ModelResponse("reply", FinishReason.STOP),
        "CallRecord": CallRecord("phase1", "f" * 64, False),
        "ConsistencyVerdict": ConsistencyVerdict(True, ""),
        "AnalyzerOutput": AnalyzerOutput(1, None, False, ""),
        "VisualTranscript": VisualTranscript(Representation.CAPTION, "c", None, None),
        "Sample": make_sample(),
        "PhaseTrace": PhaseTrace(None, None, "", []),
        "Detection": DETECTION,
        "RequestSettings": RequestSettings("m", "sys", 0.5, 64),
        "RetryPolicy": RetryPolicy(2, 10),
        "RunConfig": cli.RunConfig(
            Path("d.jsonl"), AblationMode.FULL, PipelineSetup(PHASE, PHASE, PHASE),
            None, Path("out"), 1,
        ),
        "ImageRef": inline_ref(),
        "DatasetStats": dataset_stats([make_sample()]),
        "Symbol": Symbol("AB"),
        "Number": Number(Decimal("4.5")),
        "GeometryFact": GeometryFact("Line", (Symbol("AB"), Number(Decimal("5")))),
        "ArityViolation": validate_arity([GeometryFact("Line", (Symbol("AB"),))])[0],
        "TableFinding": check_latex_table("{").findings[0],
        "TableReport": check_latex_table("\\begin{tabular}{cc}a & b\\\\ c & d\\end{tabular}"),
        "ScoredRun": score_run([DETECTION], [make_sample()]),
        "PhaseSetup": PHASE,
        "PipelineSetup": PipelineSetup(PHASE, PHASE, PHASE),
        "PromptSet": packaged_prompts(),
        "ReportRow": ReportRow("m", {"step": Decimal("50.00")}, {"step": Decimal("1.5")}, 1, 2),
    }
    # a backend and a memo compare by identity, and a memo or an HTTP backend holds a lock,
    # which cannot be pickled, so only a shallow copy of a value holding one equals it
    HOLDS_A_BACKEND = {"PhaseSetup", "PipelineSetup", "RunConfig"}

    @pytest.mark.parametrize("name", VALUES)
    def test_assigning_to_a_field_raises(self, name):
        value = self.VALUES[name]
        fields = value._fields if isinstance(value, tuple) else value.__slots__
        for field in (*fields, "not_a_field"):  # not_a_field: no subclass has a __dict__
            with pytest.raises(AttributeError):
                setattr(value, field, None)
        assert value == self.VALUES[name]

    @pytest.mark.parametrize("name", VALUES)
    def test_copies_and_pickles_equal(self, name):
        value = self.VALUES[name]
        copies = [copy.copy(value)]
        if name not in self.HOLDS_A_BACKEND:
            copies += [copy.deepcopy(value), pickle.loads(pickle.dumps(value))]
        for copied in copies:
            assert type(copied) is type(value)
            assert copied == value
            assert repr(copied) == repr(value)

    def test_replace_checks_and_derives_again(self):
        with pytest.raises(ValueError, match="'max_attempts'"):
            RetryPolicy()._replace(max_attempts=0)
        with pytest.raises(ValueError, match="'temperature'"):
            RequestSettings()._replace(temperature=2)
        assert RequestSettings()._replace(model_id="x") == RequestSettings(model_id="x")
        with pytest.raises(TypeError):
            RequestSettings()._replace(frame=("", ""))  # derived, so not a field to set
        prompts = packaged_prompts()._replace(templates={"one": "a {{b}}"})
        assert prompts.parts == {"one": ("a ", "b", "")}

    def test_setups_built_without_a_cache_never_share_one(self):
        first, second = PipelineSetup(PHASE, PHASE, PHASE), PipelineSetup(PHASE, PHASE, PHASE)
        assert isinstance(first.cache, ReplayCache)
        assert first.cache is not second.cache
        assert first.router is not second.router
        assert first.prompts is second.prompts is packaged_prompts()
        assert first._replace(phase1=PHASE).cache is first.cache  # a given cache is kept
        assert ReportRow("m", {}).deltas is not ReportRow("m", {}).deltas

    def test_cli_fills_an_http_spec_with_the_backend_defaults(self, tmp_path):
        spec = {"kind": "http", "base_url": "http://localhost:9", "model_id": "m"}
        config = loaded_config(tmp_path, spec)
        backend = config.setup.phase1.backend
        assert backend.base_url == "http://localhost:9"
        parameters = inspect.signature(HttpBackend).parameters
        for name in ("api_key_env", "retry", "timeout_s"):
            assert getattr(backend, name) == parameters[name].default, name
        assert config.workers == parameters["rate_limit"].default + 1  # its gate, and a spare

    def test_two_traces_never_share_a_call_list(self):
        assert "backend_calls" not in PhaseTrace._field_defaults
        with pytest.raises(TypeError):
            PhaseTrace(None, None, "")  # every field is given, the call list included
        analyzer = ScriptedBackend(default_reply="Error Step: #1\nError Category: cal")
        phase = PhaseSetup(backend=analyzer)
        setup = PipelineSetup(phase1=phase, phase2=phase, phase3=phase)
        first, second = (
            detect_errors(make_sample(sample_id, image=None), AblationMode.FULL, setup)
            for sample_id in ("t1", "t2")
        )
        assert len(first.trace.backend_calls) == len(second.trace.backend_calls) == 1
        assert first.trace.backend_calls is not second.trace.backend_calls

    def test_a_replaced_request_is_fingerprinted_anew(self):
        request = text_request("one", phase="phase1", sample_id="s01")
        replaced = request._replace(prompt="two", attempt=1)
        assert replaced == text_request("two", phase="phase1", sample_id="s01", attempt=1)
        assert replaced.fingerprint == request_fingerprint(text_request("two"))
        with pytest.raises(TypeError):
            request._replace(fingerprint="f" * 64)

    def test_a_request_copies_and_pickles_whole(self):
        request = text_request(image=inline_ref(), phase="phase2", sample_id="s01")
        assert copy.copy(request) == copy.deepcopy(request) == request
        assert pickle.loads(pickle.dumps(request)) == request


class TestFingerprint:
    def test_matches_independent_derivation(self):
        """Recompute the canonical hash from scratch, without the library."""
        req = text_request(
            "What is 2 + 2?", model_id="gpt-x", system_prompt="be brief",
            temperature=0.5, max_tokens=64,
        )
        payload = {
            "max_tokens": 64,
            "model_id": "gpt-x",
            "segments": [{"kind": "text", "text": "What is 2 + 2?"}],
            "system_prompt": "be brief",
            "temperature": 0.5,
        }
        assert request_fingerprint(req) == canonical_sha256(payload)

    def test_image_segment_hashes_decoded_bytes(self):
        req = text_request("q", inline_ref())
        digest = hashlib.sha256(base64.b64decode(TINY_PNG_BASE64)).hexdigest()
        payload = {
            "max_tokens": 1024,
            "model_id": "m",
            "segments": [
                {"kind": "text", "text": "q"},
                {"kind": "image", "media_type": "image/png", "sha256": digest},
            ],
            "system_prompt": "sys",
            "temperature": 0.0,
        }
        assert request_fingerprint(req) == canonical_sha256(payload)

    def test_routing_metadata_excluded(self):
        base = text_request(phase="phase1", sample_id="s01")
        other = text_request(phase="phase3", sample_id=None)
        assert request_fingerprint(base) == request_fingerprint(other)

    @pytest.mark.parametrize(
        "change",
        [
            {"model_id": "m2"},
            {"system_prompt": "other"},
            {"temperature": 0.1},
            {"max_tokens": 1023},
            {"text": "hello "},
            {"image": inline_ref()},
        ],
    )
    def test_payload_fields_are_load_bearing(self, change):
        assert request_fingerprint(text_request()) != request_fingerprint(
            text_request(**change)
        )

    def test_inline_and_file_with_same_bytes_agree(self, tmp_path):
        data = base64.b64decode(TINY_PNG_BASE64)
        path = tmp_path / "img.png"
        path.write_bytes(data)
        inline = text_request("q", inline_ref())
        from_file = text_request("q", ImageRef(kind=ImageKind.FILE_PATH, value=str(path)))
        assert request_fingerprint(inline) == request_fingerprint(from_file)

    def test_url_identity_is_the_address(self):
        ref = ImageRef(kind=ImageKind.URL, value="https://example.org/a.png")
        req = text_request("q", ref)
        payload = {
            "max_tokens": 1024,
            "model_id": "m",
            "segments": [
                {"kind": "text", "text": "q"},
                {
                    "kind": "image",
                    "media_type": "image/png",
                    "sha256": hashlib.sha256(b"https://example.org/a.png").hexdigest(),
                },
            ],
            "system_prompt": "sys",
            "temperature": 0.0,
        }
        assert request_fingerprint(req) == canonical_sha256(payload)
        other = ImageRef(kind=ImageKind.URL, value="https://example.org/b.png")
        req2 = text_request("q", other)
        assert request_fingerprint(req) != request_fingerprint(req2)

    @pytest.mark.parametrize(
        "kind, name, media_type, expected",
        [
            (ImageKind.INLINE_BASE64, None, None, "application/octet-stream"),
            (ImageKind.FILE_PATH, "fig.jpg", None, "image/jpeg"),
            (ImageKind.FILE_PATH, "fig", None, "image/png"),
            (ImageKind.URL, None, "image/webp", "image/webp"),
        ],
    )
    def test_media_type_fallbacks_match_independent_derivation(
        self, tmp_path, kind, name, media_type, expected
    ):
        png = base64.b64decode(TINY_PNG_BASE64)
        if kind is ImageKind.INLINE_BASE64:
            value, data = TINY_PNG_BASE64, png
        elif kind is ImageKind.FILE_PATH:
            (tmp_path / name).write_bytes(png)
            value, data = str(tmp_path / name), png
        else:
            value = "https://example.org/fig"
            data = value.encode("utf-8")
        ref = ImageRef(kind=kind, value=value, media_type=media_type)
        req = text_request("q", ref)
        digest = hashlib.sha256(data).hexdigest()
        payload = {
            "max_tokens": 1024,
            "model_id": "m",
            "segments": [
                {"kind": "text", "text": "q"},
                {"kind": "image", "media_type": expected, "sha256": digest},
            ],
            "system_prompt": "sys",
            "temperature": 0.0,
        }
        assert request_fingerprint(req) == canonical_sha256(payload)

    def test_no_collisions_over_many_requests(self):
        seen = set()
        for i in range(10_000):
            seen.add(request_fingerprint(text_request(f"prompt {i}")))
        assert len(seen) == 10_000

    @given(st.text(max_size=40), st.text(max_size=40))
    @settings(max_examples=100)
    def test_unicode_prompts_fingerprint_stably(self, sys_prompt, user_text):
        a = text_request(user_text, system_prompt=sys_prompt)
        b = text_request(user_text, system_prompt=sys_prompt)
        assert request_fingerprint(a) == request_fingerprint(b)

    @given(
        prompt=awkward_text, system_prompt=awkward_text, model_id=awkward_text,
        temperature=st.one_of(st.integers(0, 1), st.floats(0.0, 1.0)),
        max_tokens=st.integers(1, 2**40),
        image_kind=st.one_of(st.none(), st.sampled_from(ImageKind)),
        media_type=st.one_of(st.none(), st.sampled_from(["image/webp", "image/png"]), awkward_text),
        file_name=st.sampled_from(["fig.jpg", "fig", "fig.gif"]),
    )
    @settings(max_examples=300)
    def test_equals_the_sha256_of_the_reference_json_form(
        self, tmp_path_factory, prompt, system_prompt, model_id, temperature, max_tokens,
        image_kind, media_type, file_name,
    ):
        """The framed form hashes the bytes json.dumps writes for the whole payload."""
        png = base64.b64decode(TINY_PNG_BASE64)
        if image_kind is None:
            image = None
        elif image_kind is ImageKind.INLINE_BASE64:
            image = ImageRef(image_kind, TINY_PNG_BASE64, media_type)
        elif image_kind is ImageKind.FILE_PATH:
            path = tmp_path_factory.getbasetemp() / file_name
            path.write_bytes(png)
            image = ImageRef(image_kind, str(path), media_type)
        else:
            image = ImageRef(image_kind, "https://example.org/" + file_name, media_type)
        settings_ = RequestSettings(model_id, system_prompt, temperature, max_tokens)
        request = ModelRequest(prompt, image, settings_)
        segments = [{"kind": "text", "text": prompt}]
        if image is not None:
            media = image.resolved_media_type
            segments.append({"kind": "image", "media_type": media, "sha256": image.sha256})
        payload = {
            "max_tokens": max_tokens,
            "model_id": model_id,
            "segments": segments,
            "system_prompt": system_prompt,
            "temperature": temperature,
        }
        assert request.fingerprint == request_fingerprint(request) == canonical_sha256(payload)

    def test_a_config_temperature_of_0_frames_as_json_writes_it(self, tmp_path):
        spec = {"kind": "scripted", "default_reply": "ok", "model_id": "m", "temperature": 0}
        settings_ = loaded_config(tmp_path, spec).setup.phase1.settings
        assert type(settings_.temperature) is int
        assert settings_.frame[1].endswith(',"temperature":0}')
        request = ModelRequest("q", None, settings_)
        payload = {
            "max_tokens": 1024,
            "model_id": "m",
            "segments": [{"kind": "text", "text": "q"}],
            "system_prompt": "",
            "temperature": 0,
        }
        assert request.fingerprint == canonical_sha256(payload)
        as_float = ModelRequest("q", None, settings_._replace(temperature=0.0))
        assert as_float.fingerprint == canonical_sha256({**payload, "temperature": 0.0})
        assert as_float.fingerprint != request.fingerprint


def endpoint_for(*faults, reply="fine", hold_s=0.0):
    """A FaultyEndpoint whose k-th call answers faults[k] (None: the reply, ending in stop)."""
    plan = {(None, None, k): fault for k, fault in enumerate(faults) if fault is not None}
    return FaultyEndpoint(plan, reply=reply, hold_s=hold_s)


def http_backend(endpoint, monkeypatch, **kwargs):
    monkeypatch.setenv("MATHAGENT_API_KEY", "test-key")
    return HttpBackend(
        "https://api.example.test/v1", transport=endpoint, sleep=endpoint.sleep, **kwargs
    )


class TestHttpBackend:
    @pytest.mark.parametrize(
        "key", [None, "sk-abc\u2026", "sk-abc\n"], ids=["unset", "non-ascii", "newline"]
    )
    def test_missing_key_raises_auth_error_without_io(self, monkeypatch, key):
        if key is None:
            monkeypatch.delenv("MATHAGENT_API_KEY", raising=False)
        else:
            monkeypatch.setenv("MATHAGENT_API_KEY", key)
        endpoint = endpoint_for()
        backend = HttpBackend("https://api.example.test/v1", transport=endpoint)
        with pytest.raises(AuthError, match="environment variable MATHAGENT_API_KEY") as err:
            backend.complete(text_request())
        assert "sk-abc" not in str(err.value)
        assert endpoint.calls == 0

    def test_success_parses_completion(self, monkeypatch):
        backend = http_backend(endpoint_for(reply="the answer"), monkeypatch)
        resp = backend.complete(text_request())
        assert resp.text == "the answer"
        assert resp.finish_reason is FinishReason.STOP
        assert resp == ModelResponse("the answer", FinishReason.STOP)  # no memo flag on a reply

    @pytest.mark.parametrize(
        "finish,expected",
        [("stop", FinishReason.STOP), ("length", FinishReason.LENGTH),
         ("content_filter", FinishReason.ERROR), (None, FinishReason.ERROR),
         # any other value is ERROR, and one that is not a string is never looked up
         (["stop"], FinishReason.ERROR), ({"stop": 1}, FinishReason.ERROR),
         (1, FinishReason.ERROR), ("error", FinishReason.ERROR)],
    )
    def test_finish_reason_mapping(self, monkeypatch, finish, expected):
        backend = http_backend(endpoint_for(Fault(finish_reason=finish)), monkeypatch)
        assert backend.complete(text_request()).finish_reason is expected

    @pytest.mark.parametrize("finish", ["length", "content_filter", "tool_calls", None, "eos"])
    def test_only_a_stop_reply_is_whole(self, monkeypatch, finish):
        backend = http_backend(endpoint_for(None, Fault(finish_reason=finish)), monkeypatch)
        assert backend.complete(text_request()).cut is None
        assert backend.complete(text_request()).cut == (
            "truncated: the reply stopped at the max_tokens limit" if finish == "length"
            else "cut: the reply ended with finish reason error"
        )

    def test_request_body_shape(self, monkeypatch):
        endpoint = endpoint_for()
        backend = http_backend(endpoint, monkeypatch)
        backend.complete(text_request("look", inline_ref()))
        [(url, headers, body, _)] = endpoint.sent
        assert url == "https://api.example.test/v1/chat/completions"
        assert headers["Authorization"] == "Bearer test-key"
        messages = body["messages"]
        assert messages[0] == {"role": "system", "content": "sys"}
        user = messages[1]["content"]
        assert user[0] == {"type": "text", "text": "look"}
        assert user[1]["image_url"]["url"].startswith("data:image/png;base64,")

    def test_url_image_passes_address_through(self, monkeypatch):
        endpoint = endpoint_for()
        ref = ImageRef(kind=ImageKind.URL, value="https://example.org/fig.png")
        backend = http_backend(endpoint, monkeypatch)
        backend.complete(text_request("q", ref))
        image = endpoint.sent[0][2]["messages"][1]["content"][1]
        assert image["image_url"]["url"] == "https://example.org/fig.png"

    def test_inline_image_without_media_type_sends_the_fingerprinted_one(self, monkeypatch):
        endpoint = endpoint_for()
        ref = inline_ref(media_type=None)
        backend = http_backend(endpoint, monkeypatch)
        backend.complete(text_request("q", ref))
        image = endpoint.sent[0][2]["messages"][1]["content"][1]
        # the media type the fingerprint hashes, not "data:None"
        assert image["image_url"]["url"] == (
            f"data:application/octet-stream;base64,{TINY_PNG_BASE64}"
        )

    def test_file_image_is_hashed_once_and_read_at_each_send(self, tmp_path, monkeypatch):
        path = tmp_path / "fig.jpg"
        path.write_bytes(b"\xff\xd8 not really a jpeg")
        reads = []
        original = Path.read_bytes
        monkeypatch.setattr(Path, "read_bytes", lambda p: reads.append(p) or original(p))
        endpoint = endpoint_for()

        ref = ImageRef(kind=ImageKind.FILE_PATH, value=str(path))
        assert reads == []  # a file ref is read at first use, not when built
        backend = http_backend(endpoint, monkeypatch)
        for text in ("first", "second"):
            backend.complete(text_request(text, ref))
        # one read for the digest, kept by the ref, and one at each send
        assert reads == [path] * 3
        encoded = base64.b64encode(path.read_bytes()).decode("ascii")
        assert [body["messages"][1]["content"][1]["image_url"]["url"]
                for _, _, body, _ in endpoint.sent] == [f"data:image/jpeg;base64,{encoded}"] * 2

    def test_429_is_retried_then_succeeds(self, monkeypatch):
        endpoint = endpoint_for(Fault(429, body="slow down"))
        backend = http_backend(endpoint, monkeypatch)
        resp = backend.complete(text_request())
        assert resp.text == "fine"
        assert endpoint.calls == 2
        assert endpoint.sleeps == [0.25]

    def test_transport_errors_are_retried(self, monkeypatch):
        endpoint = endpoint_for(
            Fault(error=ConnectionError("reset")), Fault(error=TimeoutError("slow"))
        )
        backend = http_backend(endpoint, monkeypatch)
        assert backend.complete(text_request()).text == "fine"
        assert endpoint.calls == 3

    def test_backoff_doubles_per_attempt(self, monkeypatch):
        endpoint = endpoint_for(*[Fault(500, body="boom")] * 4)
        backend = http_backend(
            endpoint, monkeypatch, retry=RetryPolicy(max_attempts=4, backoff_base_ms=100)
        )
        with pytest.raises(TransportError) as err:
            backend.complete(text_request())
        assert "gave up after 4 attempts" in str(err.value)
        assert "HTTP 500" in str(err.value)
        assert endpoint.calls == 4
        assert endpoint.sleeps == [0.1, 0.2, 0.4]

    @pytest.mark.parametrize(
        "status, retry_after, slept",
        [
            (429, "2", 2.0),
            (503, " 3 ", 3.0),
            (429, "Fri, 31 Dec 9999 23:59:59 GMT", backends.RETRY_WAIT_CAP_S),
            (503, "Wed, 21 Oct 2015 07:28:00 GMT", 0.0),
            (429, "999999999999", backends.RETRY_WAIT_CAP_S),
            (429, "soon", 0.1),
            (429, "Mon, 01 Jan 99999999999 00:00:00 GMT", 0.1),
            (503, "Mon, 01 Jan 2020 00:00:00 +99999999999999", 0.1),
            (429, "-1", 0.1),
            (429, "1.5", 0.1),
            (500, "2", 0.1),
        ],
        ids=["delta-seconds", "503", "future-date-capped", "past-date", "huge-delta-capped",
             "garbage", "year-overflow", "zone-overflow",
             "negative", "fraction", "500-ignores-it"],
    )
    def test_retry_after_replaces_the_backoff(self, monkeypatch, status, retry_after, slept):
        endpoint = endpoint_for(Fault(status, {"reTry-aFter": retry_after}))
        backend = http_backend(
            endpoint, monkeypatch, retry=RetryPolicy(max_attempts=2, backoff_base_ms=100)
        )
        assert backend.complete(text_request()).text == "fine"
        assert endpoint.sleeps == [slept]

    @pytest.mark.parametrize("zone", ["GMT", "-0000"])
    def test_a_retry_after_date_is_in_utc(self, monkeypatch, zone):
        when = email.utils.formatdate(time.time() + 30, usegmt=True).replace("GMT", zone)
        endpoint = endpoint_for(Fault(503, {"Retry-After": when}))
        monkeypatch.setenv("TZ", "XYZ-5:30")  # local time 5.5 hours ahead of UTC
        time.tzset()
        try:
            assert http_backend(endpoint, monkeypatch).complete(text_request()).text == "fine"
        finally:
            monkeypatch.undo()
            time.tzset()
        [slept] = endpoint.sleeps
        assert 28 < slept <= 30

    def test_retry_after_is_per_attempt(self, monkeypatch):
        endpoint = endpoint_for(Fault(429, {"Retry-After": "5"}), Fault(503), Fault(429))
        backend = http_backend(
            endpoint, monkeypatch, retry=RetryPolicy(max_attempts=4, backoff_base_ms=100)
        )
        assert backend.complete(text_request()).text == "fine"
        assert endpoint.sleeps == [5.0, 0.2, 0.4]

    def test_no_wait_passes_the_cap(self, monkeypatch):
        faults = [Fault(500), Fault(error=TimeoutError("slow")), Fault(429, {"Retry-After": "999"})]
        endpoint = endpoint_for(*faults * 7)
        backend = http_backend(
            endpoint, monkeypatch, retry=RetryPolicy(max_attempts=20, backoff_base_ms=60_000)
        )
        with pytest.raises(TransportError, match="gave up after 20 attempts"):
            backend.complete(text_request())
        assert endpoint.sleeps == [backends.RETRY_WAIT_CAP_S] * 19

    def test_the_default_backoff_doubles_up_to_the_cap(self, monkeypatch):
        endpoint = endpoint_for(*[Fault(503)] * 20)
        backend = http_backend(endpoint, monkeypatch, retry=RetryPolicy(max_attempts=20))
        with pytest.raises(TransportError):
            backend.complete(text_request())
        # 0.25 s doubled: 64 s at the ninth wait, so the cap from there on
        assert endpoint.sleeps == [0.25 * 2**k for k in range(8)] + [60.0] * 11

    @pytest.mark.parametrize("status", [401, 403])
    def test_auth_statuses_never_retried(self, monkeypatch, status):
        endpoint = endpoint_for(Fault(status, body="denied"))
        backend = http_backend(endpoint, monkeypatch)
        with pytest.raises(AuthError):
            backend.complete(text_request())
        assert endpoint.calls == 1
        assert endpoint.sleeps == []

    def test_other_4xx_fails_fast(self, monkeypatch):
        endpoint = endpoint_for(Fault(404, body="nope"))
        backend = http_backend(endpoint, monkeypatch)
        with pytest.raises(TransportError) as err:
            backend.complete(text_request())
        assert "HTTP 404" in str(err.value)
        assert endpoint.calls == 1

    @pytest.mark.parametrize(
        "body",
        ["not json", "{}", json.dumps({"choices": []}),
         json.dumps({"choices": [{"message": {"content": 7}}]})],
    )
    def test_malformed_bodies_raise_bad_response(self, monkeypatch, body):
        backend = http_backend(endpoint_for(Fault(body=body)), monkeypatch)
        with pytest.raises(BadResponse):
            backend.complete(text_request())

    def test_rate_limit_bounds_concurrency(self, monkeypatch):
        endpoint = endpoint_for(hold_s=0.02)
        backend = http_backend(endpoint, monkeypatch, rate_limit=1)
        threads = [
            threading.Thread(target=backend.complete, args=(text_request(f"t{i}"),))
            for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert endpoint.calls == 4
        assert endpoint.max_in_flight == 1

    @pytest.mark.parametrize(
        "kwargs, knob",
        [
            ({"rate_limit": 0}, "rate_limit"),
            ({"rate_limit": backends.MAX_RATE_LIMIT + 1}, "rate_limit"),
            ({"timeout_s": 0}, "timeout_s"),
            ({"timeout_s": -1.5}, "timeout_s"),
            ({"timeout_s": float("nan")}, "timeout_s"),
            ({"timeout_s": 1e10}, "timeout_s"),
            ({"timeout_s": float("inf")}, "timeout_s"),
        ],
        ids=[
            "rate_limit", "rate_limit-above-max", "timeout_s-zero", "timeout_s-negative",
            "timeout_s-nan", "timeout_s-huge", "timeout_s-infinity",
        ],
    )
    def test_out_of_range_knobs_are_rejected(self, kwargs, knob):
        threads = threading.active_count()
        with pytest.raises(ValueError, match=repr(knob)):
            HttpBackend("https://api.example.test/v1", **kwargs)
        assert threading.active_count() == threads

    @pytest.mark.parametrize(
        "kwargs, knob",
        [
            ({"max_attempts": 0}, "max_attempts"),
            ({"backoff_base_ms": -5}, "backoff_base_ms"),
            ({"backoff_base_ms": 60_001}, "backoff_base_ms"),
            ({"backoff_base_ms": 10**13}, "backoff_base_ms"),
        ],
        ids=["max_attempts", "backoff_base_ms", "backoff_base_ms-past-cap", "backoff_base_ms-huge"],
    )
    def test_out_of_range_retry_policy_is_rejected(self, kwargs, knob):
        with pytest.raises(ValueError, match=repr(knob)):
            RetryPolicy(**kwargs)

    def test_smallest_valid_knobs_are_kept(self, monkeypatch):
        endpoint = endpoint_for(Fault(500, body="boom"))
        backend = http_backend(
            endpoint, monkeypatch, rate_limit=1,
            retry=RetryPolicy(max_attempts=1, backoff_base_ms=0),
        )
        with pytest.raises(TransportError, match="gave up after 1 attempts"):
            backend.complete(text_request())
        assert endpoint.calls == 1
        assert endpoint.sleeps == []


class TestRequestBodies:
    """The body of each request shape the pipeline sends: text only, or text and then image."""

    KNOBS = RequestSettings(model_id="m", system_prompt="sys", temperature=0.5, max_tokens=64)

    @pytest.fixture()
    def sample(self):
        """A fixture sample with an image and no type label, so the endpoint routes its bodies."""
        samples = load_dataset(FIXTURES / "dataset_12.jsonl")
        return next(s for s in samples if s.image is not None)._replace(question_type=None)

    def test_a_phase3_request_carries_one_text_part(self, monkeypatch, sample):
        endpoint = endpoint_for(reply="Error Step: #1\nError Category: cal")
        analyze(sample, None, http_backend(endpoint, monkeypatch), self.KNOBS)
        [(_, _, body, _)] = endpoint.sent
        assert body == {
            "model": "m",
            "messages": [
                {"role": "system", "content": "sys"},
                {"role": "user", "content": [
                    {"type": "text", "text": build_analysis_prompt(sample, None)},
                ]},
            ],
            "temperature": 0.5,
            "max_tokens": 64,
        }

    @pytest.mark.parametrize("ask", [
        lambda sample, backend, knobs: check_consistency(sample, backend, knobs),
        lambda sample, backend, knobs: resolve_question_type(sample, backend, knobs),
        lambda sample, backend, knobs: interpret_visual(sample, None, backend, knobs),
    ], ids=["phase1", "phase2.type", "phase2"])
    def test_an_image_request_carries_text_then_image(self, monkeypatch, sample, ask):
        endpoint = endpoint_for(reply="CONSISTENT: algebra")
        ask(sample, http_backend(endpoint, monkeypatch), self.KNOBS)
        [(_, _, body, _)] = endpoint.sent
        system, user = body["messages"]
        assert system == {"role": "system", "content": "sys"}
        text, image = user["content"]
        assert text["type"] == "text" and sample.question_text in text["text"]
        assert image == {"type": "image_url", "image_url": {"url": sample.image.data_url()}}
        assert (body["model"], body["temperature"], body["max_tokens"]) == ("m", 0.5, 64)

    def test_an_empty_system_prompt_sends_only_the_user_message(self, monkeypatch):
        endpoint = endpoint_for()
        http_backend(endpoint, monkeypatch).complete(text_request("q", system_prompt=""))
        [(_, _, body, _)] = endpoint.sent
        assert body["messages"] == [{"role": "user", "content": [{"type": "text", "text": "q"}]}]

class TestScriptedBackend:
    def test_phase_and_sample_lookup(self):
        backend = ScriptedBackend(phases={"phase1": {"s1": "CONSISTENT"}})
        resp = backend.complete(text_request(phase="phase1", sample_id="s1"))
        assert resp.text == "CONSISTENT"
        assert resp.finish_reason is FinishReason.STOP

    def test_fingerprint_lookup_wins_over_phase(self):
        req = text_request(phase="phase1", sample_id="s1")
        backend = ScriptedBackend(
            phases={"phase1": {"s1": "from phase"}},
            by_fingerprint={request_fingerprint(req): "from fingerprint"},
        )
        assert backend.complete(req).text == "from fingerprint"

    def test_default_reply_fallback(self):
        backend = ScriptedBackend(default_reply="whatever")
        assert backend.complete(text_request(phase="p", sample_id="zzz")).text == "whatever"

    def test_miss_raises_with_routing_context(self):
        backend = ScriptedBackend(phases={"phase1": {}})
        with pytest.raises(ScriptMiss) as err:
            backend.complete(text_request(phase="phase2", sample_id="s9"))
        assert "phase2" in str(err.value)
        assert "s9" in str(err.value)

    @pytest.mark.parametrize("where", ["phases", "by_fingerprint", "default_reply"])
    def test_a_list_gives_one_reply_per_attempt_the_last_repeating(self, where):
        replies = ["first", "second"]
        asks = [text_request(phase="p", sample_id="s", attempt=n) for n in (0, 1, 2)]
        script = {
            "phases": {"phases": {"p": {"s": replies}}},
            "by_fingerprint": {"by_fingerprint": {asks[0].fingerprint: replies}},
            "default_reply": {"default_reply": replies},
        }[where]
        expected = ["first", "second", "second"]
        fresh = [ScriptedBackend.from_script(script).complete(ask).text for ask in asks]
        assert fresh == expected
        reused = ScriptedBackend.from_script(script)
        for _ in range(2):
            assert [reused.complete(ask).text for ask in asks] == expected
            assert [reused.complete(ask).text for ask in reversed(asks)] == expected[::-1]

    def test_a_reply_does_not_depend_on_the_calls_before_it(self):
        backend = ScriptedBackend(phases={"p": {"a": ["a1", "a2"], "b": ["b1", "b2"]}})
        first = text_request(phase="p", sample_id="a")
        assert backend.complete(first).text == "a1"
        assert backend.complete(text_request(phase="p", sample_id="b", attempt=1)).text == "b2"
        assert backend.complete(first).text == "a1"
        assert backend.complete(text_request(phase="p", sample_id="a", attempt=1)).text == "a2"

    def test_the_attempt_routes_but_is_not_fingerprinted(self):
        asks = [text_request(phase="p", sample_id="s", attempt=n) for n in (0, 1)]
        assert asks[0].fingerprint == asks[1].fingerprint == request_fingerprint(asks[1])
        assert asks[0] != asks[1]

    def test_the_phase_agents_send_their_reask_as_attempt_1(self, samples_12):
        sample = next(s for s in samples_12 if s.id == "s09")  # imaged, with no type label
        backend = CapturingBackend("no step or type named here")
        analyze(sample, None, backend)
        resolve_question_type(sample, backend)
        assert [(r.phase, r.attempt) for r in backend.requests] == [
            ("phase3", 0), ("phase3", 1), ("phase2.type", 0), ("phase2.type", 1),
        ]

    def test_from_file(self, tmp_path):
        script = {
            "phases": {"p": {"s": "scripted"}},
            "default_reply": "fallback",
        }
        path = tmp_path / "script.json"
        path.write_text(json.dumps(script), encoding="utf-8")
        backend = ScriptedBackend.from_file(path)
        assert backend.complete(text_request(phase="p", sample_id="s")).text == "scripted"
        assert backend.complete(text_request(phase="x", sample_id="y")).text == "fallback"


BAD_SCRIPTS = [
    ({"phases": [1]}, "'phases'"),
    ({"phases": {"p": [1]}}, "'phases.p'"),
    ({"phases": {"p": {"s01": 5}}}, "'phases.p.s01'"),
    ({"phases": {"p": {"s01": []}}}, "'phases.p.s01'"),
    ({"phases": {"p": {"s01": {"text": 5}}}}, "'phases.p.s01'"),
    ({"phases": {"p": {"s01": {"text": "x", "finish_reason": "bogus"}}}}, "'phases.p.s01'"),
    ({"phases": {"p": {"s01": {"text": "x", "finish_reason": ["stop"]}}}}, "'phases.p.s01'"),
    ({"phases": {"p": {"s01": {"text": "x", "finish": "length"}}}}, "'phases.p.s01'"),
    ({"by_fingerprint": [1]}, "'by_fingerprint'"),
    ({"by_fingerprint": {"abc": ["ok", 5]}}, "'by_fingerprint.abc'"),
    ({"default_reply": {"finish_reason": "stop"}}, "'default_reply'"),
]
BAD_SCRIPT_IDS = [
    "phases", "phase", "reply", "empty-list", "object-text", "finish_reason",
    "finish_reason-list", "unknown-key", "by_fingerprint", "reply-list", "default_reply",
]


class TestScriptFormat:
    @pytest.mark.parametrize("script, where", BAD_SCRIPTS, ids=BAD_SCRIPT_IDS)
    def test_bad_shape_raises_value_error(self, tmp_path, script, where):
        path = tmp_path / "script.json"
        path.write_text(json.dumps(script), encoding="utf-8")
        for build in (
            lambda: ScriptedBackend(**script),
            lambda: ScriptedBackend.from_script(script),
            lambda: ScriptedBackend.from_file(path),
        ):
            with pytest.raises(ValueError, match=where):
                build()

    @pytest.mark.parametrize("root", [[1], "phases", 5, None], ids=["list", "string", "number", "null"])
    def test_root_must_be_an_object(self, tmp_path, root):
        path = tmp_path / "script.json"
        path.write_text(json.dumps(root), encoding="utf-8")
        with pytest.raises(ValueError, match="must be a JSON object"):
            ScriptedBackend.from_script(root)
        with pytest.raises(ValueError, match="must be a JSON object"):
            ScriptedBackend.from_file(path)

    def test_reply_object_carries_its_finish_reason(self):
        backend = ScriptedBackend.from_script({
            "phases": {"p": {"cut": {"text": "Error Step: #1", "finish_reason": "length"},
                             "whole": {"text": "done"}}},
        })
        cut = backend.complete(text_request(phase="p", sample_id="cut"))
        whole = backend.complete(text_request(phase="p", sample_id="whole"))
        assert (cut.text, cut.finish_reason) == ("Error Step: #1", FinishReason.LENGTH)
        assert (whole.text, whole.finish_reason) == ("done", FinishReason.STOP)

    def test_list_mixes_strings_and_reply_objects(self):
        backend = ScriptedBackend(
            phases={"p": {"s": [{"text": "first", "finish_reason": "length"}, "second"]}}
        )
        asks = [text_request(phase="p", sample_id="s", attempt=n) for n in range(3)]
        got = [(r.text, r.finish_reason) for r in map(backend.complete, asks)]
        assert got == [
            ("first", FinishReason.LENGTH), ("second", FinishReason.STOP),
            ("second", FinishReason.STOP),
        ]

    def test_default_reply_may_be_a_reply_object(self):
        backend = ScriptedBackend(default_reply={"text": "cut", "finish_reason": "length"})
        assert backend.complete(text_request()).finish_reason is FinishReason.LENGTH

    def test_replies_are_built_once(self):
        backend = ScriptedBackend(phases={"p": {"s": "ready"}}, default_reply="fallback")
        for sample_id in ("s", "unscripted"):
            req = text_request(phase="p", sample_id=sample_id)
            assert backend.complete(req) is backend.complete(req)

    def test_keys_outside_the_format_are_ignored(self):
        backend = ScriptedBackend.from_script(
            {"kind": "scripted", "model_id": "m", "default_reply": "ok"}
        )
        assert backend.complete(text_request()).text == "ok"

    def test_fixture_script_reads_unchanged(self):
        script = json.loads((FIXTURES / "scripts_12.json").read_text(encoding="utf-8"))
        backend = ScriptedBackend.from_file(FIXTURES / "scripts_12.json")
        for phase, replies in script["phases"].items():
            for sample_id, reply in replies.items():
                texts = reply if isinstance(reply, list) else [reply]
                got = [
                    backend.complete(text_request(phase=phase, sample_id=sample_id, attempt=n))
                    for n in range(len(texts))
                ]
                assert [r.text for r in got] == texts
                assert {r.finish_reason for r in got} == {FinishReason.STOP}


class CountingBackend:
    def __init__(self, reply="inner reply", reason=FinishReason.STOP):
        self.reply = reply
        self.reason = reason
        self.calls = 0

    def complete(self, request):
        self.calls += 1
        return ModelResponse(text=self.reply, finish_reason=self.reason)


class BlockingBackend(CountingBackend):
    """Holds every call until released, then replies or raises `error`."""

    def __init__(self, error=None):
        super().__init__()
        self.error = error
        self.entered = threading.Event()
        self.release = threading.Event()

    def complete(self, request):
        self.calls += 1
        self.entered.set()
        assert self.release.wait(5)
        if self.error is not None:
            raise self.error
        return ModelResponse(text=self.reply, finish_reason=self.reason)


def concurrent_calls(cache, inner):
    """Two callers of one request; the second starts while inner holds the first."""
    outcomes = {}

    def call(name):
        try:
            outcomes[name] = cache.complete(inner, text_request())
        except Exception as exc:  # noqa: BLE001 - handed to the test
            outcomes[name] = exc

    first = threading.Thread(target=call, args=("first",), daemon=True)
    first.start()
    assert inner.entered.wait(5)
    second = threading.Thread(target=call, args=("second",), daemon=True)
    second.start()
    second.join(0.2)
    assert second.is_alive(), "the second caller did not wait for the first"
    inner.release.set()
    first.join(5)
    second.join(5)
    return outcomes


class TestReplayBackend:
    """ReplayCache.complete(inner, request), which every pipeline call goes through."""

    def test_cold_call_hits_inner_and_persists(self, tmp_path):
        cache = tmp_path / "cache.jsonl"
        inner = CountingBackend()
        with ReplayCache(cache) as memo:
            resp, from_cache = memo.complete(inner, text_request())
        assert resp.text == "inner reply"
        assert not from_cache
        assert inner.calls == 1
        (line,) = cache.read_text(encoding="utf-8").splitlines()
        record = json.loads(line)
        assert record["fingerprint"] == request_fingerprint(text_request())
        assert record["response_text"] == "inner reply"
        assert record["model_id"] == "m"

    def test_warm_instance_never_calls_inner(self, tmp_path):
        cache = tmp_path / "cache.jsonl"
        with ReplayCache(cache) as cold:
            cold.complete(CountingBackend(), text_request())
        inner = CountingBackend("should not be used")
        warm = ReplayCache(cache)
        resp, from_cache = warm.complete(inner, text_request())
        assert resp.text == "inner reply"
        assert from_cache
        assert inner.calls == 0

    def test_same_instance_caches_repeat_calls(self, tmp_path):
        inner = CountingBackend()
        with ReplayCache(tmp_path / "cache.jsonl") as memo:
            memo.complete(inner, text_request())
            _, from_cache = memo.complete(inner, text_request())
        assert inner.calls == 1
        assert from_cache

    def test_a_hit_returns_the_one_stored_reply(self, tmp_path):
        cache = tmp_path / "cache.jsonl"
        stored = ModelResponse("inner reply", FinishReason.STOP)
        with ReplayCache(cache) as cold:  # the backend's own reply, stored when it answers
            reply, from_cache = cold.complete(CountingBackend(), text_request())
            assert not from_cache
            hits = [cold.complete(CountingBackend(), text_request()) for _ in range(2)]
        assert hits == [(stored, True), (stored, True)] and hits[0][0] is hits[1][0] is reply
        warm = ReplayCache(cache)  # stored when the line is loaded
        hits = [warm.complete(CountingBackend(), text_request()) for _ in range(2)]
        assert hits == [(stored, True), (stored, True)] and hits[0][0] is hits[1][0]

    def test_last_line_wins_on_duplicate_fingerprints(self, tmp_path):
        cache = tmp_path / "cache.jsonl"
        fp = request_fingerprint(text_request())
        lines = [
            {"fingerprint": fp, "response_text": "old", "model_id": "m", "timestamp": 1.0},
            {"fingerprint": fp, "response_text": "new", "model_id": "m", "timestamp": 2.0},
        ]
        cache.write_text(
            "".join(json.dumps(x) + "\n" for x in lines), encoding="utf-8"
        )
        assert ReplayCache(cache).complete(CountingBackend(), text_request())[0].text == "new"

    def test_corrupt_line_cites_line_number(self, tmp_path):
        cache = tmp_path / "cache.jsonl"
        good = {
            "fingerprint": "f" * 64, "response_text": "x",
            "model_id": "m", "timestamp": 1.0,
        }
        cache.write_text(json.dumps(good) + "\n{broken\n", encoding="utf-8")
        with pytest.raises(ValueError) as err:
            ReplayCache(cache)
        assert "line 2" in str(err.value)

    @pytest.mark.parametrize("reason", ["bogus", None, 1, ["stop"], {"stop": 1}])
    def test_an_unknown_finish_reason_is_named_as_the_enum_names_it(self, tmp_path, reason):
        cache = tmp_path / "cache.jsonl"
        record = {"fingerprint": "f" * 64, "response_text": "x", "finish_reason": reason}
        cache.write_text(json.dumps(record) + "\n", encoding="utf-8")
        with pytest.raises(ValueError) as by_the_enum:
            FinishReason(reason)
        with pytest.raises(ValueError) as err:
            ReplayCache(cache)
        assert str(err.value) == f"corrupt replay cache {cache} line 1: {by_the_enum.value}"

    @pytest.mark.parametrize("key", ["response_text", "fingerprint"])
    def test_non_string_value_cites_line_number(self, tmp_path, key):
        cache = tmp_path / "cache.jsonl"
        good = {"fingerprint": "f" * 64, "response_text": "x"}
        cache.write_text(
            json.dumps(good) + "\n" + json.dumps({**good, key: 5}) + "\n", encoding="utf-8"
        )
        with pytest.raises(ValueError, match="line 2"):
            ReplayCache(cache)

    def test_unicode_line_separators_stay_inside_a_record(self, tmp_path):
        cache = tmp_path / "cache.jsonl"
        reply = "first\u2028second\u0085third\x0cfourth"
        with ReplayCache(cache) as cold:
            cold.complete(CountingBackend(reply), text_request())
        warm = ReplayCache(cache)
        assert warm.complete(CountingBackend("should not be used"), text_request())[0].text == reply

    def test_blank_lines_skipped(self, tmp_path):
        cache = tmp_path / "cache.jsonl"
        record = {
            "fingerprint": request_fingerprint(text_request()),
            "response_text": "kept", "model_id": "m", "timestamp": 1.0,
        }
        cache.write_text("\n" + json.dumps(record) + "\n\n", encoding="utf-8")
        assert ReplayCache(cache).complete(CountingBackend(), text_request())[0].text == "kept"


    @pytest.mark.parametrize("reload", [False, True], ids=["in-memory", "from-file"])
    def test_hit_keeps_the_finish_reason(self, tmp_path, reload):
        cache = tmp_path / "cache.jsonl"
        inner = CountingBackend(reason=FinishReason.LENGTH)
        memo = ReplayCache(cache)
        assert memo.complete(inner, text_request())[0].finish_reason is FinishReason.LENGTH
        assert json.loads(cache.read_text(encoding="utf-8"))["finish_reason"] == "length"
        if reload:
            memo.close()
            memo = ReplayCache(cache)
        resp, from_cache = memo.complete(inner, text_request())
        memo.close()
        assert from_cache
        assert resp.finish_reason is FinishReason.LENGTH
        assert inner.calls == 1

    def test_line_without_finish_reason_reads_as_stop(self, tmp_path):
        cache = tmp_path / "cache.jsonl"
        record = {
            "fingerprint": request_fingerprint(text_request()),
            "response_text": "old format", "model_id": "m", "timestamp": 1.0,
        }
        cache.write_text(json.dumps(record) + "\n", encoding="utf-8")
        resp, _ = ReplayCache(cache).complete(CountingBackend(), text_request())
        assert resp.text == "old format"
        assert resp.finish_reason is FinishReason.STOP

    def test_without_a_path_nothing_is_written(self, tmp_path):
        inner = CountingBackend()
        cache = ReplayCache()
        assert cache.path is None
        cache.complete(inner, text_request())
        assert cache.complete(CountingBackend(), text_request())[1]
        assert inner.calls == 1
        assert list(tmp_path.iterdir()) == []

    def test_concurrent_misses_make_one_inner_call(self, tmp_path):
        cache = tmp_path / "cache.jsonl"
        inner = BlockingBackend()
        with ReplayCache(cache) as memo:
            outcomes = concurrent_calls(memo, inner)
        assert inner.calls == 1
        assert [r.text for r, _ in outcomes.values()] == ["inner reply", "inner reply"]
        assert sorted(hit for _, hit in outcomes.values()) == [False, True]
        assert len(cache.read_text(encoding="utf-8").splitlines()) == 1

    def test_failed_call_is_not_stored(self, tmp_path):
        cache = tmp_path / "cache.jsonl"
        error = TransportError("endpoint down")
        inner = BlockingBackend(error)
        memo = ReplayCache(cache)
        outcomes = concurrent_calls(memo, inner)
        assert inner.calls == 1
        assert outcomes == {"first": error, "second": error}
        assert not cache.exists()
        inner.error = None
        _, from_cache = memo.complete(inner, text_request())
        memo.close()
        assert inner.calls == 2
        assert not from_cache
        assert len(cache.read_text(encoding="utf-8").splitlines()) == 1

    def test_failed_append_leaves_no_caller_waiting(self, tmp_path):
        inner = BlockingBackend()
        gone = tmp_path / "gone-dir"
        gone.mkdir()
        memo = ReplayCache(gone / "cache.jsonl")
        gone.rmdir()  # a directory missing at the start is refused; this one goes later
        outcomes = concurrent_calls(memo, inner)
        assert isinstance(outcomes["first"], FileNotFoundError)
        reply, from_cache = outcomes["second"]
        assert reply.text == "inner reply"
        assert from_cache
        assert memo.complete(inner, text_request())[1]
        assert inner.calls == 1

    def test_a_waiter_gets_the_reply_the_asker_waited_a_backoff_for(self, monkeypatch):
        monkeypatch.setenv("MATHAGENT_API_KEY", "test-key")
        endpoint = FaultyEndpoint({(None, None, 0): Fault(503)}, reply="after the backoff")
        memo, waiters, outcomes = ReplayCache(), [], []

        def sleep(seconds):  # the asker's backoff after its 503: a second caller asks meanwhile
            waiter = threading.Thread(
                target=lambda: outcomes.append(memo.complete(http, text_request())), daemon=True
            )
            waiter.start()
            waiter.join(0.2)
            waiters.append((waiter, waiter.is_alive()))

        http = HttpBackend("http://localhost:9/v1", transport=endpoint, sleep=sleep)
        reply, from_cache = memo.complete(http, text_request())
        [(waiter, blocked)] = waiters
        waiter.join(5)
        assert blocked and not waiter.is_alive()
        assert endpoint.calls == 2
        assert (reply.text, from_cache) == ("after the backoff", False)
        [(waited, waited_from_cache)] = outcomes
        assert (waited.text, waited_from_cache) == ("after the backoff", True)

    def test_racing_threads_ask_once_per_fingerprint(self, tmp_path):
        cache = tmp_path / "cache.jsonl"
        asked, lock = Counter(), threading.Lock()

        class EchoBackend:
            def complete(self, request):
                with lock:
                    asked[request.fingerprint] += 1
                time.sleep(0.002)  # long enough for other threads to miss on it too
                text = request.prompt.upper()
                return ModelResponse(text=text, finish_reason=FinishReason.STOP)

        memo, echo = ReplayCache(cache), EchoBackend()
        requests = [text_request(f"q{i % 7}") for i in range(700)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=(os.cpu_count() or 1) + 6) as pool:
                replies = list(pool.map(lambda r: memo.complete(echo, r), requests, timeout=30))
        finally:
            sys.setswitchinterval(interval)
            memo.close()
        assert [r.text for r, _ in replies] == [r.prompt.upper() for r in requests]
        fingerprints = {r.fingerprint for r in requests}
        assert asked == {fp: 1 for fp in fingerprints}
        lines = cache.read_text(encoding="utf-8").splitlines()
        assert sorted(json.loads(line)["fingerprint"] for line in lines) == sorted(fingerprints)


class TestReplayCacheAppends:
    """One append handle per ReplayCache, each line flushed whole."""

    def test_misses_open_the_file_once(self, tmp_path, monkeypatch):
        handles = track_appends(monkeypatch)
        memo = ReplayCache(tmp_path / "cache.jsonl")
        for i in range(40):
            assert not memo.complete(CountingBackend(), text_request(f"q{i}"))[1]
        assert len(handles) == 1
        memo.close()
        assert handles[0].closed

    def test_lines_read_whole_while_the_run_goes_on(self, tmp_path):
        cache = tmp_path / "cache.jsonl"
        memo = ReplayCache(cache)
        for i in range(1, 6):
            memo.complete(CountingBackend(f"reply {i}"), text_request(f"q{i}"))
            data = cache.read_text(encoding="utf-8")
            assert data.endswith("\n")
            records = [json.loads(line) for line in data.splitlines()]
            assert [r["response_text"] for r in records] == [f"reply {j}" for j in range(1, i + 1)]
        memo.close()

    def test_with_block_closes_and_a_later_miss_reopens(self, tmp_path, monkeypatch):
        handles = track_appends(monkeypatch)
        cache = tmp_path / "cache.jsonl"
        with ReplayCache(cache) as memo:
            memo.complete(CountingBackend(), text_request("a"))
        assert [h.closed for h in handles] == [True]
        memo.complete(CountingBackend(), text_request("b"))
        memo.close()
        memo.close()  # closing twice is harmless
        assert [h.closed for h in handles] == [True, True]
        assert len(cache.read_text(encoding="utf-8").splitlines()) == 2

    def test_hits_and_a_memo_without_a_path_open_nothing(self, tmp_path, monkeypatch):
        cache = tmp_path / "cache.jsonl"
        with ReplayCache(cache) as memo:
            memo.complete(CountingBackend(), text_request())
        handles = track_appends(monkeypatch)
        with ReplayCache(cache) as warm, ReplayCache() as bare:
            assert warm.complete(CountingBackend(), text_request())[1]
            bare.complete(CountingBackend(), text_request())
        assert handles == []


class TestDeferredHttpImport:
    """`requests` loads at the first HTTP send, not with mathagent.

    Importing mathagent loads neither dataclasses nor inspect at all.
    """

    def run_code(self, code):
        proc = run_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    def test_import_leaves_requests_unloaded(self):
        out = self.run_code(
            "import sys, mathagent, mathagent.cli; print('requests' in sys.modules)"
        )
        assert out == "False\n"

    def test_scripted_run_leaves_requests_unloaded(self, tmp_path):
        backend = {"kind": "scripted", "script_path": str(FIXTURES / "scripts_12.json")}
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps({
                "dataset": str(FIXTURES / "dataset_12.jsonl"),
                "backends": {"phase1": backend, "phase2": backend, "phase3": backend},
                "output_dir": str(tmp_path / "out"),
            }),
            encoding="utf-8",
        )
        out = self.run_code(
            "import sys; from mathagent import cli; "
            f"code = cli.main(['run', '--config', {str(config)!r}]); "
            "print(code, 'requests' in sys.modules)"
        )
        assert out.splitlines()[-1] == "0 False"

    def test_import_leaves_dataclasses_and_inspect_unloaded(self):
        # -S: no site hook (a .pth file of the interpreter's) imports either before mathagent
        proc = run_python(
            "-S", "-c", "import sys, mathagent.cli; "
            "print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_module_attribute_names_requests(self):
        import requests

        assert backends.requests is requests
        with pytest.raises(AttributeError):
            backends.not_a_name

    def test_default_transport_sends_through_patched_post(self, monkeypatch):
        endpoint = endpoint_for(Fault(429, {"Retry-After": "2"}), reply="patched")
        monkeypatch.setattr(backends.requests, "post", endpoint.post)
        monkeypatch.setenv("MATHAGENT_API_KEY", "test-key")
        backend = HttpBackend("https://api.example.test/v1", timeout_s=7.0, sleep=endpoint.sleep)
        response = backend.complete(text_request())
        assert response.text == "patched"
        sent = [(url, body["model"], timeout) for url, _, body, timeout in endpoint.sent]
        assert sent == [("https://api.example.test/v1/chat/completions", "m", 7.0)] * 2
        assert endpoint.sleeps == [2.0]  # the 429's Retry-After, read through requests' headers

    def test_default_transport_maps_timeouts(self, monkeypatch):
        endpoint = endpoint_for(*[Fault(error=TimeoutError("slow"))] * 2)
        monkeypatch.setattr(backends.requests, "post", endpoint.post)
        monkeypatch.setenv("MATHAGENT_API_KEY", "test-key")
        backend = HttpBackend(
            "https://api.example.test/v1", retry=RetryPolicy(max_attempts=2), sleep=endpoint.sleep
        )
        with pytest.raises(TransportError, match="transport error: slow"):
            backend.complete(text_request())
