"""Question-type resolution and type-driven visual transcription.

Plane geometry images become formal facts, diagram images become LaTeX
tables, and everything else becomes a caption. A dataset-provided
question_type label always wins over inference.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .backends import Backend, ModelRequest, RequestSettings
from .data_model import IdentityEnum, QuestionType, Sample
from .formal_language import (
    FactList,
    ParseError,
    parse_facts,
    serialize_facts,
    validate_arity,
    check_latex_table,
)
from .prompts import PromptSet, packaged_prompts


# Lowercased spellings recognized in type-inference replies.
TYPE_SYNONYMS: dict[QuestionType, tuple[str, ...]] = {
    QuestionType.PLANE_GEOMETRY: (
        "plane_geometry", "plane geometry", "planegeometry", "plane-geometry",
    ),
    QuestionType.SOLID_GEOMETRY: (
        "solid_geometry", "solid geometry", "solidgeometry", "solid-geometry",
    ),
    QuestionType.DIAGRAM: ("diagram",),
    QuestionType.ALGEBRA: ("algebra",),
    QuestionType.MATH_COMMONSENSE: (
        "math_commonsense", "math commonsense", "mathematical commonsense",
        "commonsense", "common sense",
    ),
}

_SYNONYM_TYPES = {syn: qtype for qtype, synonyms in TYPE_SYNONYMS.items() for syn in synonyms}
# longest first, so of the synonyms that start at the earliest match the longest is taken
_TYPE_RE = re.compile("|".join(map(re.escape, sorted(_SYNONYM_TYPES, key=len, reverse=True))))

_TYPE_REMINDER = (
    "Reply with exactly one of: plane geometry, solid geometry, diagram, "
    "algebra, math commonsense."
)


def match_question_type(reply: str) -> QuestionType | None:
    """Earliest synonym occurrence wins; ties go to the longer synonym."""
    m = _TYPE_RE.search(reply.lower())
    return None if m is None else _SYNONYM_TYPES[m.group()]


class TranscriptSource(IdentityEnum):
    DATASET_LABEL = "dataset_label"
    INFERRED = "inferred"


class Representation(IdentityEnum):
    FORMAL_LANGUAGE = "formal_language"
    LATEX_TABLE = "latex_table"
    CAPTION = "caption"


class VisualTranscript(NamedTuple):
    representation: Representation
    content: str  # serialized facts, LaTeX source, or caption text
    question_type: QuestionType | None
    source: TranscriptSource | None
    facts: FactList | None = None
    findings: tuple[str, ...] = ()


# the transcription prompt of each route; any other route, or none, is captioned
_ROUTE_PROMPTS = {
    QuestionType.PLANE_GEOMETRY: "phase2_formal",
    QuestionType.DIAGRAM: "phase2_latex",
}


def _image_request(
    sample: Sample, prompt: str, settings: RequestSettings, phase: str, attempt: int = 0
) -> ModelRequest:
    if sample.image is None:
        raise ValueError(f"sample {sample.id} has no image to transcribe")
    return ModelRequest(prompt, sample.image, settings, phase, sample.id, attempt)


def resolve_question_type(
    sample: Sample,
    backend: Backend,
    settings: RequestSettings = RequestSettings(),
    prompts: PromptSet | None = None,
) -> QuestionType | None:
    """Dataset label if present (zero calls); otherwise ask the backend.

    An unmatched reply earns one retry with an explicit format reminder;
    after a second miss the type is None. A reply that is not whole
    (ModelResponse.cut) counts as unmatched, whatever it names.
    """
    if sample.question_type is not None:
        return sample.question_type

    prompt = (prompts or packaged_prompts()).render(
        "phase2_question_type", {"question_text": sample.question_text}
    )
    for attempt, text in enumerate((prompt, prompt + "\n" + _TYPE_REMINDER)):
        response = backend.complete(_image_request(sample, text, settings, "phase2.type", attempt))
        matched = None if response.cut else match_question_type(response.text)
        if matched is not None:
            return matched
    return None


def interpret_visual(
    sample: Sample,
    question_type: QuestionType | None,
    backend: Backend,
    settings: RequestSettings = RequestSettings(),
    prompts: PromptSet | None = None,
    caption_only: bool = False,
) -> VisualTranscript:
    """Transcribe the sample image with exactly one backend call.

    caption_only forces the caption route regardless of type (used when
    type-driven scheduling is ablated away). A formal-language reply that
    fails to parse falls back to a caption carrying the raw reply, with
    the parse failure recorded as a finding. A reply that is not whole
    (ModelResponse.cut) is kept, with its cut note as a finding too. The
    transcript's source is the dataset label when the sample has one,
    otherwise inference, or None when caption_only left no type to infer.
    """
    route = None if caption_only else question_type
    prompt = (prompts or packaged_prompts()).render(
        _ROUTE_PROMPTS.get(route, "phase2_caption"), {"question_text": sample.question_text}
    )
    response = backend.complete(_image_request(sample, prompt, settings, "phase2"))
    reply = response.text
    representation, content, facts, findings = Representation.CAPTION, reply, None, ()
    if route is QuestionType.PLANE_GEOMETRY:
        try:
            facts = parse_facts(reply)
        except ParseError as exc:
            findings = (f"formal parse failed: {exc}",)
        else:
            representation, content = Representation.FORMAL_LANGUAGE, serialize_facts(facts)
            findings = tuple(
                f"arity: {v.predicate} expects {v.expected} args, got {v.actual}"
                for v in validate_arity(facts)
            )
    elif route is QuestionType.DIAGRAM:
        representation = Representation.LATEX_TABLE
        report = check_latex_table(reply)
        findings = tuple(f"latex: {f.message} at {f.offset}" for f in report.findings)
    if response.cut:
        findings += (response.cut,)
    if sample.question_type is not None:
        source = TranscriptSource.DATASET_LABEL
    else:
        source = None if caption_only else TranscriptSource.INFERRED
    return VisualTranscript(representation, content, question_type, source, facts, findings)
