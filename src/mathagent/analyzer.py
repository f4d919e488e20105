"""Integrative error analysis (final pipeline phase).

The analyzer sees only text: problem statement, visual transcript (or a
note that the image adds nothing), both answers, and the numbered steps.
It must answer in two lines, "Error Step: #<k>" and "Error Category:
<name>". One re-ask with a format reminder is allowed, so a sample costs
at most two analyzer calls. A reply that is not whole (ModelResponse.cut)
counts as unparsed, even when its lines happen to parse.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .backends import Backend, ModelRequest, RequestSettings
from .data_model import ErrorCategory, Sample, UnknownCategory, parse_category
from .interpreter import Representation, VisualTranscript
from .prompts import PromptSet, packaged_prompts

_STEP_RE = re.compile(r"error\s+step\s*:?\s*(?:#|step)?\s*(\d+)", re.IGNORECASE)
_CAT_MARKER_RE = re.compile(r"error\s+category\s*:?\s*", re.IGNORECASE)

_FORMAT_REMINDER = (
    'Format reminder: reply with exactly two lines, "Error Step: #<k>" '
    'and "Error Category: <name>".'
)

_NO_IMAGE_NOTE = "The image is fully described by the problem text."

_VISUAL_HEADERS = {
    Representation.FORMAL_LANGUAGE: "Visual facts (formal notation):",
    Representation.LATEX_TABLE: "Visual table (LaTeX):",
    Representation.CAPTION: "Visual description:",
}


class AnalyzerOutput(NamedTuple):
    error_step: int | None
    error_category: ErrorCategory | None
    parse_ok: bool
    raw_text: str


def parse_analyzer_output(raw_text: str, n_steps: int) -> AnalyzerOutput:
    """Total parser for analyzer replies; never raises.

    The step is the first "Error Step" match anywhere in the reply; a
    value outside [1, n_steps] keeps its number but fails the parse, and
    one too long for int() to read (over 4,300 digits) gives no step. The
    category is taken from the first "Error Category" line whose value
    resolves, trying the whole remainder of the line and then the part
    before the first punctuation break.
    """
    step: int | None = None
    m = _STEP_RE.search(raw_text)
    if m is not None:
        try:
            step = int(m.group(1))
        except ValueError:  # more digits than int() converts (4,300): no step
            pass

    category: ErrorCategory | None = None
    for line in raw_text.splitlines():
        marker = _CAT_MARKER_RE.search(line)
        if marker is None:
            continue
        tail = line[marker.end():]
        for candidate in (tail, re.split(r"[,.;:]", tail)[0]):
            try:
                category = parse_category(candidate)
                break
            except UnknownCategory:
                continue
        if category is not None:
            break

    ok = step is not None and category is not None and 1 <= step <= n_steps
    return AnalyzerOutput(
        error_step=step, error_category=category, parse_ok=ok, raw_text=raw_text
    )


def format_steps(steps) -> str:
    # a list, not a generator: join makes a list of a generator first anyway
    return "\n".join([f"Step {i}: {text}" for i, text in enumerate(steps, start=1)])


def build_analysis_prompt(
    sample: Sample,
    transcript: VisualTranscript | None,
    include_problem_text: bool = True,
    prompts: PromptSet | None = None,
) -> str:
    """Assemble the analyzer prompt; sections appear in a fixed order.

    transcript=None means the image was bypassed as consistent (or there
    was none), which the prompt states explicitly. include_problem_text
    is switched off by the analyzer-integration ablation.
    """
    if include_problem_text:
        question_section = f"Problem:\n{sample.question_text}"
    else:
        question_section = ""
    if transcript is None:
        visual_section = _NO_IMAGE_NOTE
    else:
        visual_section = f"{_VISUAL_HEADERS[transcript.representation]}\n{transcript.content}"
    return (prompts or packaged_prompts()).render(
        "phase3_analyzer",
        {
            "question_text": question_section,
            "visual": visual_section,
            "correct_answer": sample.correct_answer,
            "student_answer": sample.incorrect_answer,
            "steps": format_steps(sample.steps),
        },
    )


def analyze(
    sample: Sample,
    transcript: VisualTranscript | None,
    backend: Backend,
    settings: RequestSettings = RequestSettings(),
    include_problem_text: bool = True,
    prompts: PromptSet | None = None,
) -> AnalyzerOutput:
    """Run the analyzer with at most one format-reminder re-ask."""

    def ask(prompt: str, attempt: int) -> AnalyzerOutput:
        request = ModelRequest(prompt, None, settings, "phase3", sample.id, attempt)
        response = backend.complete(request)
        output = parse_analyzer_output(response.text, len(sample.steps))
        return output._replace(parse_ok=False) if response.cut else output

    prompt = build_analysis_prompt(sample, transcript, include_problem_text, prompts)
    result = ask(prompt, 0)
    if result.parse_ok:
        return result
    return ask(prompt + "\n" + _FORMAT_REMINDER, 1)
