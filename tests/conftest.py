"""Shared fixtures: corpus loading, sample factories, scripted setups."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
)

FIXTURES = Path(__file__).parent / "fixtures"
REPO = Path(__file__).resolve().parents[1]

TINY_PNG_BASE64 = (
    "iVBORw0KGgoAAAANSUhEUgAAAAEAAAABCAYAAAAfFcSJ"
    "AAAADUlEQVR42mP8z8BQDwAEhQGAhKmMIQAAAABJRU5ErkJggg=="
)



def run_python(*argv: str, cwd=None) -> subprocess.CompletedProcess:
    """Run a fresh interpreter with the sources on PYTHONPATH; stderr is captured."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
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
        return ModelResponse(
            text=reply, finish_reason=FinishReason.STOP, latency_ms=0.0
        )


def truncated(text):
    """A reply cut at the token limit."""
    return ModelResponse(text=text, finish_reason=FinishReason.LENGTH, latency_ms=0.0)


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
