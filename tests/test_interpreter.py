"""Question-type routing and visual transcription behaviour."""

import pytest
from hypothesis import given, strategies as st

from conftest import CapturingBackend, load_corpus, make_sample, qtype, truncated
from mathagent import (
    QuestionType,
    Representation,
    TranscriptSource,
    match_question_type,
    interpret_visual,
    resolve_question_type,
)

CASES = load_corpus("qtype_cases.json")


class TestMatchQuestionType:
    @pytest.mark.parametrize("case", CASES, ids=lambda c: c["reply"][:40])
    def test_labeled_case(self, case):
        assert match_question_type(case["reply"]) == qtype(case["type"])

    def test_earliest_occurrence_wins(self):
        assert match_question_type("algebra, though the diagram matters") is QuestionType.ALGEBRA
        assert match_question_type("diagram of an algebra problem") is QuestionType.DIAGRAM

    def test_tie_prefers_longer_synonym(self):
        # "math commonsense" and its suffix "commonsense" start 5 apart,
        # so build a genuine tie from overlapping snippets
        assert match_question_type("commonsense") is QuestionType.MATH_COMMONSENSE
        assert match_question_type("math commonsense") is QuestionType.MATH_COMMONSENSE

    def test_case_insensitive(self):
        assert match_question_type("PLANE GEOMETRY") is QuestionType.PLANE_GEOMETRY

    def test_no_match(self):
        assert match_question_type("I cannot tell.") is None

    @given(st.text(max_size=60))
    def test_total(self, text):
        result = match_question_type(text)
        assert result is None or isinstance(result, QuestionType)


class TestResolveQuestionType:
    def test_dataset_label_wins_without_calls(self):
        backend = CapturingBackend("diagram")
        sample = make_sample(question_type=QuestionType.SOLID_GEOMETRY)
        got = resolve_question_type(sample, backend)
        assert got is QuestionType.SOLID_GEOMETRY
        assert backend.requests == []

    def test_inference_takes_one_call(self):
        backend = CapturingBackend("This is plane geometry.")
        got = resolve_question_type(make_sample(), backend)
        assert got is QuestionType.PLANE_GEOMETRY
        (request,) = backend.requests
        assert request.phase == "phase2.type"

    def test_miss_earns_one_reminder_retry(self):
        backend = CapturingBackend("no idea", "fine: algebra")
        got = resolve_question_type(make_sample(), backend)
        assert got is QuestionType.ALGEBRA
        assert len(backend.requests) == 2
        first = backend.requests[0].prompt
        second = backend.requests[1].prompt
        assert second.startswith(first)
        assert "Reply with exactly one of" in second
        assert "Reply with exactly one of" not in first

    def test_double_miss_raises(self):
        backend = CapturingBackend("no idea", "still no idea")
        assert resolve_question_type(make_sample(sample_id="q42"), backend) is None
        assert len(backend.requests) == 2

    def test_a_truncated_reply_earns_the_retry(self):
        backend = CapturingBackend(truncated("This is a plane geometry"), "solid geometry")
        got = resolve_question_type(make_sample(), backend)
        assert got is QuestionType.SOLID_GEOMETRY
        assert len(backend.requests) == 2
        assert "Reply with exactly one of" in backend.requests[1].prompt

    def test_a_truncated_retry_raises(self):
        backend = CapturingBackend("no idea", truncated("This is a plane geometry"))
        assert resolve_question_type(make_sample(), backend) is None
        assert len(backend.requests) == 2

    def test_imageless_sample_cannot_be_typed(self):
        with pytest.raises(ValueError):
            resolve_question_type(make_sample(image=None), CapturingBackend())


class TestInterpretVisual:
    def test_plane_geometry_formal_route(self):
        backend = CapturingBackend("Triangle(P,Q,R), Angle(PQR, 60), Line(PR, 10)")
        sample = make_sample(question_type=QuestionType.PLANE_GEOMETRY)
        transcript = interpret_visual(sample, QuestionType.PLANE_GEOMETRY, backend)
        assert transcript.representation is Representation.FORMAL_LANGUAGE
        # content is re-serialized into canonical spacing
        assert transcript.content == "Triangle(P, Q, R), Angle(PQR, 60), Line(PR, 10)"
        assert transcript.facts is not None and len(transcript.facts) == 3
        assert transcript.findings == ()
        assert transcript.question_type is QuestionType.PLANE_GEOMETRY
        assert transcript.source is TranscriptSource.DATASET_LABEL
        assert len(backend.requests) == 1
        assert backend.requests[0].phase == "phase2"

    def test_formal_arity_violations_become_findings(self):
        backend = CapturingBackend("Triangle(P, Q), Point(A)")
        transcript = interpret_visual(make_sample(), QuestionType.PLANE_GEOMETRY, backend)
        assert transcript.representation is Representation.FORMAL_LANGUAGE
        assert transcript.findings == ("arity: Triangle expects 3 args, got 2",)

    def test_unparseable_formal_reply_falls_back_to_caption(self):
        backend = CapturingBackend("The image shows a rough triangle sketch.")
        transcript = interpret_visual(make_sample(), QuestionType.PLANE_GEOMETRY, backend)
        assert transcript.representation is Representation.CAPTION
        assert transcript.content == "The image shows a rough triangle sketch."
        assert transcript.facts is None
        assert len(transcript.findings) == 1
        assert transcript.findings[0].startswith("formal parse failed: ")
        assert len(backend.requests) == 1

    def test_diagram_latex_route(self):
        reply = "\\begin{tabular}{cc} a & b \\\\ 1 & 2 \\end{tabular}"
        backend = CapturingBackend(reply)
        transcript = interpret_visual(make_sample(), QuestionType.DIAGRAM, backend)
        assert transcript.representation is Representation.LATEX_TABLE
        assert transcript.content == reply
        assert transcript.findings == ()

    def test_ragged_latex_rows_become_findings(self):
        reply = "\\begin{tabular}{cc} a & b \\\\ 1 & 2 & 3 \\end{tabular}"
        backend = CapturingBackend(reply)
        transcript = interpret_visual(make_sample(), QuestionType.DIAGRAM, backend)
        assert len(transcript.findings) == 1
        assert transcript.findings[0].startswith("latex: ")
        assert "3 cells, expected 2" in transcript.findings[0]

    @pytest.mark.parametrize(
        "question_type",
        [QuestionType.SOLID_GEOMETRY, QuestionType.ALGEBRA,
         QuestionType.MATH_COMMONSENSE, None],
    )
    def test_everything_else_is_captioned(self, question_type):
        backend = CapturingBackend("A cone next to a cube.")
        transcript = interpret_visual(make_sample(), question_type, backend)
        assert transcript.representation is Representation.CAPTION
        assert transcript.content == "A cone next to a cube."
        assert transcript.question_type == question_type
        assert transcript.findings == ()

    def test_caption_only_overrides_type_routing(self):
        backend = CapturingBackend("Triangle(P, Q, R)")
        transcript = interpret_visual(
            make_sample(),
            QuestionType.PLANE_GEOMETRY,
            backend,
            caption_only=True,
        )
        # the reply would parse as facts, but the caption route keeps it raw
        assert transcript.representation is Representation.CAPTION
        assert transcript.facts is None
        assert transcript.question_type is QuestionType.PLANE_GEOMETRY

    def test_prompt_differs_per_route(self):
        prompts = {}
        for route in (QuestionType.PLANE_GEOMETRY, QuestionType.DIAGRAM, None):
            backend = CapturingBackend("Point(A)")
            interpret_visual(make_sample(), route, backend)
            prompts[route] = backend.requests[0].prompt
        assert len(set(prompts.values())) == 3

    @pytest.mark.parametrize(
        "label, caption_only, source",
        [
            (QuestionType.ALGEBRA, False, TranscriptSource.DATASET_LABEL),
            (QuestionType.ALGEBRA, True, TranscriptSource.DATASET_LABEL),
            (None, False, TranscriptSource.INFERRED),
            (None, True, None),
        ],
        ids=["labeled", "labeled-caption-only", "inferred", "caption-only"],
    )
    def test_the_source_follows_the_label_and_the_route(self, label, caption_only, source):
        sample = make_sample(question_type=label)
        transcript = interpret_visual(
            sample, label, CapturingBackend("a cube"), caption_only=caption_only
        )
        assert transcript.source is source

    def test_imageless_sample_rejected(self):
        with pytest.raises(ValueError):
            interpret_visual(make_sample(image=None), None, CapturingBackend())


class TestTruncatedTranscript:
    FINDING = "truncated: the reply stopped at the max_tokens limit"

    @pytest.mark.parametrize(
        "question_type, reply, representation, findings_before",
        [
            (QuestionType.PLANE_GEOMETRY, "Triangle(P, Q, R), Point(A)",
             Representation.FORMAL_LANGUAGE, 0),
            (QuestionType.PLANE_GEOMETRY, "Triangle(P, Q", Representation.CAPTION, 1),
            (QuestionType.DIAGRAM, "\\begin{tabular}{cc} a & b", Representation.LATEX_TABLE, 2),
            (QuestionType.ALGEBRA, "A line graph of y = 2x", Representation.CAPTION, 0),
        ],
        ids=["formal", "formal-unparsed", "latex", "caption"],
    )
    def test_a_truncated_reply_adds_a_finding(
        self, question_type, reply, representation, findings_before
    ):
        whole = interpret_visual(make_sample(), question_type, CapturingBackend(reply))
        cut = interpret_visual(make_sample(), question_type, CapturingBackend(truncated(reply)))
        assert cut.representation is whole.representation is representation
        assert cut.content == whole.content
        assert len(whole.findings) == findings_before
        assert cut.findings == (*whole.findings, self.FINDING)
