"""Backends: fingerprints, HTTP retry behaviour, scripted and replay layers."""

import base64
import hashlib
import json
import os
import sys
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings, strategies as st

from conftest import FIXTURES, TINY_PNG_BASE64, run_python, track_appends
from mathagent import (
    AuthError,
    BadResponse,
    FinishReason,
    HttpBackend,
    ImageKind,
    ImageRef,
    ImageSegment,
    ModelRequest,
    ModelResponse,
    ReplayCache,
    RequestSettings,
    RetryPolicy,
    ScriptMiss,
    ScriptedBackend,
    TextSegment,
    TransportError,
    backends,
    request_fingerprint,
)


def text_request(text="hello", **kwargs):
    defaults = dict(
        model_id="m",
        system_prompt="sys",
        segments=(TextSegment(text),),
        temperature=0.0,
        max_tokens=1024,
    )
    defaults.update(kwargs)
    return ModelRequest(**defaults)


def inline_ref(b64=TINY_PNG_BASE64, media_type="image/png"):
    return ImageRef(kind=ImageKind.INLINE_BASE64, value=b64, media_type=media_type)


class TestRequestValidation:
    def test_needs_a_segment(self):
        with pytest.raises(ValueError):
            text_request(segments=())

    def test_at_most_one_image(self):
        seg = ImageSegment(inline_ref())
        with pytest.raises(ValueError):
            text_request(segments=(seg, TextSegment("t"), seg))

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
        blob = json.dumps(
            payload, sort_keys=True, separators=(",", ":"), ensure_ascii=False
        ).encode("utf-8")
        assert request_fingerprint(req) == hashlib.sha256(blob).hexdigest()

    def test_image_segment_hashes_decoded_bytes(self):
        req = text_request(segments=(TextSegment("q"), ImageSegment(inline_ref())))
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
        blob = json.dumps(
            payload, sort_keys=True, separators=(",", ":"), ensure_ascii=False
        ).encode("utf-8")
        assert request_fingerprint(req) == hashlib.sha256(blob).hexdigest()

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
            {"segments": (TextSegment("hello "),)},
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
        inline = text_request(segments=(ImageSegment(inline_ref()), TextSegment("q")))
        from_file = text_request(
            segments=(
                ImageSegment(ImageRef(kind=ImageKind.FILE_PATH, value=str(path))),
                TextSegment("q"),
            )
        )
        assert request_fingerprint(inline) == request_fingerprint(from_file)

    def test_url_identity_is_the_address(self):
        ref = ImageRef(kind=ImageKind.URL, value="https://example.org/a.png")
        req = text_request(segments=(ImageSegment(ref), TextSegment("q")))
        payload = {
            "max_tokens": 1024,
            "model_id": "m",
            "segments": [
                {
                    "kind": "image",
                    "media_type": "image/png",
                    "sha256": hashlib.sha256(b"https://example.org/a.png").hexdigest(),
                },
                {"kind": "text", "text": "q"},
            ],
            "system_prompt": "sys",
            "temperature": 0.0,
        }
        blob = json.dumps(
            payload, sort_keys=True, separators=(",", ":"), ensure_ascii=False
        ).encode("utf-8")
        assert request_fingerprint(req) == hashlib.sha256(blob).hexdigest()
        other = ImageRef(kind=ImageKind.URL, value="https://example.org/b.png")
        req2 = text_request(segments=(ImageSegment(other), TextSegment("q")))
        assert request_fingerprint(req) != request_fingerprint(req2)

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


def completion_body(text="fine", finish="stop"):
    return json.dumps(
        {"choices": [{"message": {"content": text}, "finish_reason": finish}]}
    )


class StubTransport:
    """Scripted (status, body) sequence; records call count and concurrency."""

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.calls = 0
        self.in_flight = 0
        self.max_in_flight = 0
        self._lock = threading.Lock()
        self.hold_s = 0.0

    def __call__(self, url, headers, body, timeout_s):
        with self._lock:
            self.calls += 1
            self.in_flight += 1
            self.max_in_flight = max(self.max_in_flight, self.in_flight)
            outcome = self.outcomes[min(self.calls - 1, len(self.outcomes) - 1)]
        if self.hold_s:
            time.sleep(self.hold_s)
        with self._lock:
            self.in_flight -= 1
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


def http_backend(transport, monkeypatch, sleeps=None, **kwargs):
    monkeypatch.setenv("MATHAGENT_API_KEY", "test-key")
    recorded = sleeps if sleeps is not None else []
    return HttpBackend(
        "https://api.example.test/v1",
        transport=transport,
        sleep=recorded.append,
        **kwargs,
    )


class TestHttpBackend:
    def test_missing_key_raises_auth_error_without_io(self, monkeypatch):
        monkeypatch.delenv("MATHAGENT_API_KEY", raising=False)
        transport = StubTransport([(200, completion_body())])
        backend = HttpBackend("https://api.example.test/v1", transport=transport)
        with pytest.raises(AuthError):
            backend.complete(text_request())
        assert transport.calls == 0

    def test_success_parses_completion(self, monkeypatch):
        transport = StubTransport([(200, completion_body("the answer"))])
        backend = http_backend(transport, monkeypatch)
        resp = backend.complete(text_request())
        assert resp.text == "the answer"
        assert resp.finish_reason is FinishReason.STOP
        assert not resp.from_cache

    @pytest.mark.parametrize(
        "finish,expected",
        [("stop", FinishReason.STOP), ("length", FinishReason.LENGTH),
         ("content_filter", FinishReason.ERROR), (None, FinishReason.ERROR)],
    )
    def test_finish_reason_mapping(self, monkeypatch, finish, expected):
        transport = StubTransport([(200, completion_body(finish=finish))])
        backend = http_backend(transport, monkeypatch)
        assert backend.complete(text_request()).finish_reason is expected

    def test_request_body_shape(self, monkeypatch):
        captured = {}

        def transport(url, headers, body, timeout_s):
            captured.update(url=url, headers=headers, body=body)
            return 200, completion_body()

        backend = http_backend(transport, monkeypatch)
        backend.complete(
            text_request("look", segments=(TextSegment("look"), ImageSegment(inline_ref())))
        )
        assert captured["url"] == "https://api.example.test/v1/chat/completions"
        assert captured["headers"]["Authorization"] == "Bearer test-key"
        messages = captured["body"]["messages"]
        assert messages[0] == {"role": "system", "content": "sys"}
        user = messages[1]["content"]
        assert user[0] == {"type": "text", "text": "look"}
        assert user[1]["image_url"]["url"].startswith("data:image/png;base64,")

    def test_url_image_passes_address_through(self, monkeypatch):
        captured = {}

        def transport(url, headers, body, timeout_s):
            captured["body"] = body
            return 200, completion_body()

        ref = ImageRef(kind=ImageKind.URL, value="https://example.org/fig.png")
        backend = http_backend(transport, monkeypatch)
        backend.complete(text_request(segments=(ImageSegment(ref), TextSegment("q"))))
        image = captured["body"]["messages"][1]["content"][0]
        assert image["image_url"]["url"] == "https://example.org/fig.png"

    def test_429_is_retried_then_succeeds(self, monkeypatch):
        transport = StubTransport([(429, "slow down"), (200, completion_body())])
        sleeps = []
        backend = http_backend(transport, monkeypatch, sleeps=sleeps)
        resp = backend.complete(text_request())
        assert resp.text == "fine"
        assert transport.calls == 2
        assert sleeps == [0.25]

    def test_transport_errors_are_retried(self, monkeypatch):
        transport = StubTransport(
            [ConnectionError("reset"), TimeoutError("slow"), (200, completion_body())]
        )
        backend = http_backend(transport, monkeypatch)
        assert backend.complete(text_request()).text == "fine"
        assert transport.calls == 3

    def test_backoff_doubles_per_attempt(self, monkeypatch):
        transport = StubTransport([(500, "boom")])
        sleeps = []
        backend = http_backend(
            transport, monkeypatch, sleeps=sleeps,
            retry=RetryPolicy(max_attempts=4, backoff_base_ms=100),
        )
        with pytest.raises(TransportError) as err:
            backend.complete(text_request())
        assert "gave up after 4 attempts" in str(err.value)
        assert "HTTP 500" in str(err.value)
        assert transport.calls == 4
        assert sleeps == [0.1, 0.2, 0.4]

    @pytest.mark.parametrize("status", [401, 403])
    def test_auth_statuses_never_retried(self, monkeypatch, status):
        transport = StubTransport([(status, "denied")])
        sleeps = []
        backend = http_backend(transport, monkeypatch, sleeps=sleeps)
        with pytest.raises(AuthError):
            backend.complete(text_request())
        assert transport.calls == 1
        assert sleeps == []

    def test_other_4xx_fails_fast(self, monkeypatch):
        transport = StubTransport([(404, "nope")])
        backend = http_backend(transport, monkeypatch)
        with pytest.raises(TransportError) as err:
            backend.complete(text_request())
        assert "HTTP 404" in str(err.value)
        assert transport.calls == 1

    @pytest.mark.parametrize(
        "body",
        ["not json", "{}", json.dumps({"choices": []}),
         json.dumps({"choices": [{"message": {"content": 7}}]})],
    )
    def test_malformed_bodies_raise_bad_response(self, monkeypatch, body):
        transport = StubTransport([(200, body)])
        backend = http_backend(transport, monkeypatch)
        with pytest.raises(BadResponse):
            backend.complete(text_request())

    def test_rate_limit_bounds_concurrency(self, monkeypatch):
        transport = StubTransport([(200, completion_body())])
        transport.hold_s = 0.02
        backend = http_backend(transport, monkeypatch, rate_limit=1)
        threads = [
            threading.Thread(target=backend.complete, args=(text_request(f"t{i}"),))
            for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert transport.calls == 4
        assert transport.max_in_flight == 1

    @pytest.mark.parametrize(
        "kwargs, knob",
        [
            ({"rate_limit": 0}, "rate_limit"),
            ({"timeout_s": 0}, "timeout_s"),
            ({"timeout_s": -1.5}, "timeout_s"),
            ({"timeout_s": float("nan")}, "timeout_s"),
        ],
        ids=["rate_limit", "timeout_s-zero", "timeout_s-negative", "timeout_s-nan"],
    )
    def test_out_of_range_knobs_are_rejected(self, kwargs, knob):
        with pytest.raises(ValueError, match=repr(knob)):
            HttpBackend("https://api.example.test/v1", **kwargs)

    @pytest.mark.parametrize(
        "kwargs, knob",
        [({"max_attempts": 0}, "max_attempts"), ({"backoff_base_ms": -5}, "backoff_base_ms")],
        ids=["max_attempts", "backoff_base_ms"],
    )
    def test_out_of_range_retry_policy_is_rejected(self, kwargs, knob):
        with pytest.raises(ValueError, match=repr(knob)):
            RetryPolicy(**kwargs)

    def test_smallest_valid_knobs_are_kept(self, monkeypatch):
        transport = StubTransport([(500, "boom")])
        sleeps = []
        backend = http_backend(
            transport, monkeypatch, sleeps=sleeps, rate_limit=1,
            retry=RetryPolicy(max_attempts=1, backoff_base_ms=0),
        )
        with pytest.raises(TransportError, match="gave up after 1 attempts"):
            backend.complete(text_request())
        assert transport.calls == 1
        assert sleeps == []


class TestScriptedBackend:
    def test_phase_and_sample_lookup(self):
        backend = ScriptedBackend(phases={"phase1": {"s1": "CONSISTENT"}})
        resp = backend.complete(text_request(phase="phase1", sample_id="s1"))
        assert resp.text == "CONSISTENT"
        assert resp.latency_ms == 0.0
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

    def test_list_replies_consumed_in_order_then_repeat(self):
        backend = ScriptedBackend(phases={"p": {"s": ["first", "second"]}})
        req = text_request(phase="p", sample_id="s")
        texts = [backend.complete(req).text for _ in range(4)]
        assert texts == ["first", "second", "second", "second"]

    def test_list_cursors_independent_per_sample(self):
        backend = ScriptedBackend(phases={"p": {"a": ["a1", "a2"], "b": ["b1", "b2"]}})
        assert backend.complete(text_request(phase="p", sample_id="a")).text == "a1"
        assert backend.complete(text_request(phase="p", sample_id="b")).text == "b1"
        assert backend.complete(text_request(phase="p", sample_id="a")).text == "a2"

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
        assert cut.latency_ms == whole.latency_ms == 0.0

    def test_list_mixes_strings_and_reply_objects(self):
        backend = ScriptedBackend(
            phases={"p": {"s": [{"text": "first", "finish_reason": "length"}, "second"]}}
        )
        req = text_request(phase="p", sample_id="s")
        got = [(r.text, r.finish_reason) for r in (backend.complete(req) for _ in range(3))]
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
                req = text_request(phase=phase, sample_id=sample_id)
                got = [backend.complete(req) for _ in texts]
                assert [r.text for r in got] == texts
                assert {r.finish_reason for r in got} == {FinishReason.STOP}


class CountingBackend:
    def __init__(self, reply="inner reply", reason=FinishReason.STOP):
        self.reply = reply
        self.reason = reason
        self.calls = 0

    def complete(self, request):
        self.calls += 1
        return ModelResponse(text=self.reply, finish_reason=self.reason, latency_ms=12.5)


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
        return ModelResponse(text=self.reply, finish_reason=self.reason, latency_ms=12.5)


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
            resp = memo.complete(inner, text_request())
        assert resp.text == "inner reply"
        assert not resp.from_cache
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
        resp = warm.complete(inner, text_request())
        assert resp.text == "inner reply"
        assert resp.from_cache
        assert resp.latency_ms == 0.0
        assert inner.calls == 0

    def test_same_instance_caches_repeat_calls(self, tmp_path):
        inner = CountingBackend()
        with ReplayCache(tmp_path / "cache.jsonl") as memo:
            memo.complete(inner, text_request())
            resp = memo.complete(inner, text_request())
        assert inner.calls == 1
        assert resp.from_cache

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
        assert ReplayCache(cache).complete(CountingBackend(), text_request()).text == "new"

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
        assert warm.complete(CountingBackend("should not be used"), text_request()).text == reply

    def test_blank_lines_skipped(self, tmp_path):
        cache = tmp_path / "cache.jsonl"
        record = {
            "fingerprint": request_fingerprint(text_request()),
            "response_text": "kept", "model_id": "m", "timestamp": 1.0,
        }
        cache.write_text("\n" + json.dumps(record) + "\n\n", encoding="utf-8")
        assert ReplayCache(cache).complete(CountingBackend(), text_request()).text == "kept"


    @pytest.mark.parametrize("reload", [False, True], ids=["in-memory", "from-file"])
    def test_hit_keeps_the_finish_reason(self, tmp_path, reload):
        cache = tmp_path / "cache.jsonl"
        inner = CountingBackend(reason=FinishReason.LENGTH)
        memo = ReplayCache(cache)
        assert memo.complete(inner, text_request()).finish_reason is FinishReason.LENGTH
        assert json.loads(cache.read_text(encoding="utf-8"))["finish_reason"] == "length"
        if reload:
            memo.close()
            memo = ReplayCache(cache)
        resp = memo.complete(inner, text_request())
        memo.close()
        assert resp.from_cache
        assert resp.finish_reason is FinishReason.LENGTH
        assert inner.calls == 1

    def test_line_without_finish_reason_reads_as_stop(self, tmp_path):
        cache = tmp_path / "cache.jsonl"
        record = {
            "fingerprint": request_fingerprint(text_request()),
            "response_text": "old format", "model_id": "m", "timestamp": 1.0,
        }
        cache.write_text(json.dumps(record) + "\n", encoding="utf-8")
        resp = ReplayCache(cache).complete(CountingBackend(), text_request())
        assert resp.text == "old format"
        assert resp.finish_reason is FinishReason.STOP

    def test_without_a_path_nothing_is_written(self, tmp_path):
        inner = CountingBackend()
        cache = ReplayCache()
        assert cache.path is None
        cache.complete(inner, text_request())
        assert cache.complete(CountingBackend(), text_request()).from_cache
        assert inner.calls == 1
        assert list(tmp_path.iterdir()) == []

    def test_concurrent_misses_make_one_inner_call(self, tmp_path):
        cache = tmp_path / "cache.jsonl"
        inner = BlockingBackend()
        with ReplayCache(cache) as memo:
            outcomes = concurrent_calls(memo, inner)
        assert inner.calls == 1
        assert [r.text for r in outcomes.values()] == ["inner reply", "inner reply"]
        assert sorted(r.from_cache for r in outcomes.values()) == [False, True]
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
        resp = memo.complete(inner, text_request())
        memo.close()
        assert inner.calls == 2
        assert not resp.from_cache
        assert len(cache.read_text(encoding="utf-8").splitlines()) == 1

    def test_failed_append_leaves_no_caller_waiting(self, tmp_path):
        inner = BlockingBackend()
        gone = tmp_path / "gone-dir"
        gone.mkdir()
        memo = ReplayCache(gone / "cache.jsonl")
        gone.rmdir()  # a directory missing at the start is refused; this one goes later
        outcomes = concurrent_calls(memo, inner)
        assert isinstance(outcomes["first"], FileNotFoundError)
        assert outcomes["second"].text == "inner reply"
        assert outcomes["second"].from_cache
        assert memo.complete(inner, text_request()).from_cache
        assert inner.calls == 1

    def test_racing_threads_ask_once_per_fingerprint(self, tmp_path):
        cache = tmp_path / "cache.jsonl"
        asked, lock = Counter(), threading.Lock()

        class EchoBackend:
            def complete(self, request):
                with lock:
                    asked[request.fingerprint] += 1
                time.sleep(0.002)  # long enough for other threads to miss on it too
                text = request.segments[0].text.upper()
                return ModelResponse(text=text, finish_reason=FinishReason.STOP, latency_ms=0.0)

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
        assert [r.text for r in replies] == [r.segments[0].text.upper() for r in requests]
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
            assert not memo.complete(CountingBackend(), text_request(f"q{i}")).from_cache
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
            assert warm.complete(CountingBackend(), text_request()).from_cache
            bare.complete(CountingBackend(), text_request())
        assert handles == []


class FakeResponse:
    def __init__(self, status_code, text):
        self.status_code = status_code
        self.text = text


class TestDeferredHttpImport:
    """`requests` loads at the first HTTP send, not with mathagent."""

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
                "workers": 3,
            }),
            encoding="utf-8",
        )
        out = self.run_code(
            "import sys; from mathagent import cli; "
            f"code = cli.main(['run', '--config', {str(config)!r}]); "
            "print(code, 'requests' in sys.modules)"
        )
        assert out.splitlines()[-1] == "0 False"

    def test_module_attribute_names_requests(self):
        import requests

        assert backends.requests is requests
        with pytest.raises(AttributeError):
            backends.not_a_name

    def test_default_transport_sends_through_patched_post(self, monkeypatch):
        sent = []

        def post(url, headers, json, timeout):
            sent.append((url, json["model"], timeout))
            return FakeResponse(200, completion_body("patched"))

        monkeypatch.setattr(backends.requests, "post", post)
        monkeypatch.setenv("MATHAGENT_API_KEY", "test-key")
        backend = HttpBackend("https://api.example.test/v1", timeout_s=7.0)
        response = backend.complete(text_request())
        assert response.text == "patched"
        assert sent == [("https://api.example.test/v1/chat/completions", "m", 7.0)]

    def test_default_transport_maps_timeouts(self, monkeypatch):
        def post(url, headers, json, timeout):
            raise backends.requests.Timeout("slow")

        monkeypatch.setattr(backends.requests, "post", post)
        monkeypatch.setenv("MATHAGENT_API_KEY", "test-key")
        backend = HttpBackend(
            "https://api.example.test/v1", retry=RetryPolicy(max_attempts=2), sleep=lambda s: None
        )
        with pytest.raises(TransportError, match="transport error: slow"):
            backend.complete(text_request())
