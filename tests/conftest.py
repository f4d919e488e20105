"""Shared fixtures: corpus loading, sample factories, scripted setups, the fault-plan endpoint."""

import json
import os
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import strategies as st

import mathagent.backends
from mathagent import (
    ErrorCategory,
    FinishReason,
    ImageKind,
    ImageRef,
    ModelResponse,
    PhaseSetup,
    PipelineSetup,
    QuestionType,
    RequestSettings,
    Sample,
    ScriptedBackend,
    load_dataset,
    prompts,
)
from mathagent.analyzer import _FORMAT_REMINDER, format_steps
from mathagent.interpreter import _TYPE_REMINDER

FIXTURES = Path(__file__).parent / "fixtures"
REPO = Path(__file__).resolve().parents[1]

TINY_PNG_BASE64 = (
    "iVBORw0KGgoAAAANSUhEUgAAAAEAAAABCAYAAAAfFcSJ"
    "AAAADUlEQVR42mP8z8BQDwAEhQGAhKmMIQAAAABJRU5ErkJggg=="
)

# text with what JSON must escape or may pass through: quotes, backslashes,
# control characters, the two line separators JavaScript rejects, non-BMP
# characters, and nothing at all
awkward_text = st.text(
    st.one_of(
        st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\n", "\u2028", "\u2029", "\U0001f600"]),
        st.characters(exclude_categories=("Cs",)),
    ),
    max_size=30,
)



def run_python(*argv: str, cwd=None) -> subprocess.CompletedProcess:
    """Run a fresh interpreter with the sources first on PYTHONPATH; stderr is captured.

    The caller's PYTHONPATH follows the sources, so a child finds what its parent found.
    """
    path = [str(REPO / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env, timeout=120, cwd=cwd
    )


def load_corpus(name: str):
    with open(FIXTURES / name, "r", encoding="utf-8") as fh:
        return json.load(fh)


class CapturingBackend:
    """Returns scripted replies in order while keeping every request.

    A reply is its text (finish reason stop), a ready ModelResponse, or an
    exception, which the call raises.
    """

    def __init__(self, *replies):
        self.replies = list(replies) or ["ok"]
        self.requests = []

    def complete(self, request):
        self.requests.append(request)
        reply = self.replies[min(len(self.requests) - 1, len(self.replies) - 1)]
        if isinstance(reply, Exception):
            raise reply
        if isinstance(reply, ModelResponse):
            return reply
        return ModelResponse(text=reply, finish_reason=FinishReason.STOP)


def truncated(text):
    """A reply cut at the token limit."""
    return ModelResponse(text=text, finish_reason=FinishReason.LENGTH)


def track_appends(monkeypatch) -> list:
    """Every handle ReplayCache opens for appending, in order."""
    handles = []

    def tracking_open(file, mode="r", *args, **kwargs):
        handle = open(file, mode, *args, **kwargs)
        if "a" in mode:
            handles.append(handle)
        return handle

    monkeypatch.setattr(mathagent.backends, "open", tracking_open, raising=False)
    return handles


def make_sample(
    sample_id="t1",
    question_text="What is 2 + 2?",
    steps=("Add the numbers", "Write the result"),
    gt_error_step=1,
    gt_error_category=ErrorCategory.CAL,
    question_type=None,
    image="inline",
):
    """Small sample factory; image='inline' attaches a 1x1 PNG, None omits it."""
    if image == "inline":
        ref = ImageRef(
            kind=ImageKind.INLINE_BASE64,
            value=TINY_PNG_BASE64,
            media_type="image/png",
        )
    else:
        ref = image
    return Sample(
        id=sample_id,
        question_text=question_text,
        correct_answer="4",
        incorrect_answer="5",
        steps=tuple(steps),
        gt_error_step=gt_error_step,
        gt_error_category=gt_error_category,
        image=ref,
        question_type=question_type,
    )


@pytest.fixture(scope="session")
def samples_12():
    return load_dataset(FIXTURES / "dataset_12.jsonl")


@pytest.fixture()
def setup_12():
    """Fresh scripted pipeline setup over the 12-sample fixture script."""
    backend = ScriptedBackend.from_file(FIXTURES / "scripts_12.json")
    phase = PhaseSetup(backend=backend, settings=RequestSettings())
    return PipelineSetup(phase1=phase, phase2=phase, phase3=phase)


def qtype(value):
    return QuestionType(value) if value else None


def category(code):
    return ErrorCategory[code] if code else None


@dataclass(frozen=True)
class Fault:
    """What one attempt answers; the default is a whole 200.

    error is raised instead of answering (a TimeoutError or ConnectionError
    is retried). Otherwise the reply has status and headers, and its body is
    `body` when given (a malformed one, say), else the completion the
    endpoint answers with, ending in finish_reason. A 200 without body or
    error is well formed, and cut unless finish_reason is "stop".
    """

    status: int = 200
    headers: dict = field(default_factory=dict)
    finish_reason: str | None = "stop"
    body: str | None = None
    error: Exception | None = None

    @property
    def retried(self) -> bool:
        """HttpBackend asks again after this attempt, while attempts remain."""
        return self.error is not None or self.status == 429 or 500 <= self.status < 600

    @property
    def well_formed(self) -> bool:
        """A 200 whose body parses: HttpBackend returns it, and the memo stores it."""
        return self.status == 200 and self.body is None and self.error is None


class FaultyEndpoint:
    """The one chat-completions endpoint the tests put behind HttpBackend's transport hook.

    A body routes to a (phase, sample_id) pair: the prompt's first line names
    the phase, and the problem text (or, for an analyzer prompt without it,
    the steps) names the sample of dataset_12.jsonl. A body the pipeline did
    not build routes to (None, None). The k-th ask of a pair (k from 0) gets
    plan[(phase, sample_id, k)], by default Fault(): a 200 ending in stop.
    A 200's text is `reply` when given, else the pair's reply in
    scripts_12.json, picked by the ask as ScriptedBackend picks it: a list's
    entry 1 for a re-ask (a prompt holding the type query's or the
    analyzer's reminder), else its entry 0.

    It counts calls, the most calls in flight at once, in all and per url
    (peaks), and the asks per pair, and keeps what it was sent, as (url,
    headers, body, timeout_s), and each call's (phase, sample_id, k, fault).
    sleep() is the sleep hook: it keeps each backoff instead of waiting.
    post() is the endpoint as the `requests.post` the default transport
    calls. Each call holds for hold_s. With a barrier, the first
    barrier.parties calls also wait at it, in flight, until that many have
    come (a BrokenBarrierError after 10 s when they do not).
    """

    PHASES = {  # prompt asset -> the phase tag of its requests
        "phase1_consistency": "phase1", "phase2_question_type": "phase2.type",
        "phase2_formal": "phase2", "phase2_latex": "phase2", "phase2_caption": "phase2",
        "phase3_analyzer": "phase3",
    }

    def __init__(self, plan=None, reply=None, hold_s=0.0, barrier=None):
        self.plan = dict(plan or {})
        self.reply = reply
        self.hold_s = hold_s
        self.barrier = barrier
        self.script = load_corpus("scripts_12.json")["phases"]
        self.samples = load_dataset(FIXTURES / "dataset_12.jsonl")
        self.phases = {
            prompts.packaged_prompts().templates[name].split("\n")[0]: phase
            for name, phase in self.PHASES.items()
        }
        self.sent, self.log, self.sleeps = [], [], []
        self.asked = Counter()
        self.in_flight, self.peaks = Counter(), Counter()
        self.max_in_flight = 0
        self.lock = threading.Lock()

    @property
    def calls(self) -> int:
        return len(self.sent)

    @staticmethod
    def prompt(body) -> str:
        return next(part["text"] for part in body["messages"][-1]["content"] if "text" in part)

    def route(self, body) -> tuple:
        """The (phase, sample_id) a body asks about; (None, None) for a body from elsewhere."""
        text = self.prompt(body)
        phase = self.phases.get(text.split("\n")[0])
        if phase is None:
            return None, None
        return phase, next(
            s.id for s in self.samples if s.question_text in text or format_steps(s.steps) in text
        )

    def __call__(self, url, headers, body, timeout_s):
        pair = self.route(body)
        with self.lock:
            self.in_flight[url] += 1
            self.peaks[url] = max(self.peaks[url], self.in_flight[url])
            self.max_in_flight = max(self.max_in_flight, self.in_flight.total())
            waits = self.barrier is not None and self.calls < self.barrier.parties
            k = self.asked[pair]
            self.asked[pair] += 1
            fault = self.plan.get((*pair, k), Fault())
            self.sent.append((url, headers, body, timeout_s))
            self.log.append((*pair, k, fault))
        try:
            if waits:
                self.barrier.wait(timeout=10)
            if self.hold_s:
                time.sleep(self.hold_s)
        finally:
            with self.lock:
                self.in_flight[url] -= 1
        if fault.error is not None:
            raise fault.error.with_traceback(None)  # a fresh traceback at each raise
        if not fault.well_formed:
            return fault.status, fault.headers, fault.body or ""
        text = self.reply
        if text is None:
            text = self.script[pair[0]][pair[1]]
            if isinstance(text, list):  # as ScriptedBackend reads ModelRequest.attempt
                prompt = self.prompt(body)
                reask = _TYPE_REMINDER in prompt or _FORMAT_REMINDER in prompt
                text = text[min(int(reask), len(text) - 1)]
        choice = {"message": {"content": text}, "finish_reason": fault.finish_reason}
        return 200, fault.headers, json.dumps({"choices": [choice]})

    def sleep(self, seconds: float) -> None:
        self.sleeps.append(seconds)

    def post(self, url, headers, json, timeout):
        """This endpoint as `requests.post`: IO errors as requests raises them."""
        import requests

        try:
            status, reply_headers, text = self(url, headers, json, timeout)
        except TimeoutError as exc:
            raise requests.Timeout(str(exc)) from exc
        except ConnectionError as exc:
            raise requests.ConnectionError(str(exc)) from exc
        return SimpleNamespace(
            status_code=status,
            headers=requests.structures.CaseInsensitiveDict(reply_headers),
            text=text,
        )
