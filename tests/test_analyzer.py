"""Analyzer reply parsing corpus, prompt assembly, and the re-ask budget."""

import pytest
from hypothesis import given, strategies as st

from conftest import CapturingBackend, FIXTURES, load_corpus, make_sample, truncated
from mathagent import (
    ErrorCategory,
    FinishReason,
    ModelResponse,
    QuestionType,
    Representation,
    TranscriptSource,
    VisualTranscript,
    analyze,
    build_analysis_prompt,
    format_steps,
    parse_analyzer_output,
)

CASES = load_corpus("analyzer_cases.json")


def transcript(representation, content):
    return VisualTranscript(
        representation=representation,
        content=content,
        question_type=QuestionType.PLANE_GEOMETRY,
        source=TranscriptSource.DATASET_LABEL,
    )


class TestParseCorpus:
    def test_corpus_shape(self):
        assert len(CASES) == 60
        assert sum(1 for c in CASES if not c["ok"]) == 12

    @pytest.mark.parametrize("case", CASES, ids=lambda c: c["reply"][:40])
    def test_labeled_case(self, case):
        out = parse_analyzer_output(case["reply"], case["n_steps"])
        expected_category = ErrorCategory[case["category"]] if case["category"] else None
        assert out.error_step == case["step"]
        assert out.error_category == expected_category
        assert out.parse_ok == case["ok"]
        assert out.raw_text == case["reply"]


class TestParseRules:
    def test_canonical_two_line_reply(self):
        out = parse_analyzer_output("Error Step: #3\nError Category: Calculation", 5)
        assert (out.error_step, out.error_category, out.parse_ok) == (
            3, ErrorCategory.CAL, True,
        )

    def test_out_of_range_step_keeps_value_but_fails(self):
        out = parse_analyzer_output("Error Step: #9\nError Category: Calculation", 4)
        assert out.error_step == 9
        assert out.error_category is ErrorCategory.CAL
        assert not out.parse_ok

    def test_step_marker_spans_lines(self):
        assert parse_analyzer_output("Error Step:\n#3\nError Category: vis", 5).error_step == 3

    def test_category_falls_back_to_pre_punctuation_chunk(self):
        out = parse_analyzer_output(
            "Error Step: #2\nError Category: Reasoning, because step 2 skips a case", 3
        )
        assert out.error_category is ErrorCategory.REAS

    def test_first_resolving_category_line_wins(self):
        out = parse_analyzer_output(
            "Error Category: mystery\nError Category: Visual Perception\n"
            "Error Category: Calculation\nError Step: #1",
            3,
        )
        assert out.error_category is ErrorCategory.VIS

    def test_a_step_too_long_for_int_is_no_step(self):
        category = "\nError Category: Calculation"
        out = parse_analyzer_output("Error Step: #" + "9" * 5000 + category, 4)
        assert (out.error_step, out.error_category, out.parse_ok) == (
            None, ErrorCategory.CAL, False,
        )
        longest = parse_analyzer_output("Error Step: #" + "0" * 4299 + "3" + category, 4)
        assert (longest.error_step, longest.parse_ok) == (3, True)

    @given(st.text(max_size=120), st.integers(1, 20))
    def test_total(self, text, n_steps):
        out = parse_analyzer_output(text, n_steps)
        assert out.raw_text == text
        if out.parse_ok:
            assert 1 <= out.error_step <= n_steps
            assert out.error_category is not None


class TestPromptAssembly:
    def test_golden_prompt(self):
        sample = make_sample(
            sample_id="s01",
            question_text="In triangle PQR, find the length of QR.",
            steps=(
                "Read angle PQR from the figure",
                "Apply the law of sines",
                "Solve for QR",
            ),
            gt_error_step=2,
            gt_error_category=ErrorCategory.VIS,
            question_type=QuestionType.PLANE_GEOMETRY,
        )
        t = transcript(
            Representation.FORMAL_LANGUAGE, "Triangle(P, Q, R), Angle(PQR, 60), Line(PR, 10)"
        )
        prompt = build_analysis_prompt(sample, t)
        golden = (FIXTURES / "golden_phase3_prompt.txt").read_text(encoding="utf-8")
        assert prompt == golden

    def test_visual_section_header_tracks_representation(self):
        cases = {
            Representation.FORMAL_LANGUAGE: "Visual facts (formal notation):",
            Representation.LATEX_TABLE: "Visual table (LaTeX):",
            Representation.CAPTION: "Visual description:",
        }
        for representation, header in cases.items():
            prompt = build_analysis_prompt(
                make_sample(), transcript(representation, "CONTENT-SENTINEL")
            )
            assert f"{header}\nCONTENT-SENTINEL" in prompt

    def test_no_transcript_states_the_bypass(self):
        prompt = build_analysis_prompt(make_sample(), None)
        assert "The image is fully described by the problem text." in prompt

    def test_problem_text_can_be_cut(self):
        sample = make_sample(question_text="UNIQUE-QUESTION-MARKER")
        kept = build_analysis_prompt(sample, None, include_problem_text=True)
        cut = build_analysis_prompt(sample, None, include_problem_text=False)
        assert "UNIQUE-QUESTION-MARKER" in kept
        assert "UNIQUE-QUESTION-MARKER" not in cut
        # answers and steps survive the cut
        assert sample.correct_answer in cut
        assert "Step 1:" in cut

    def test_steps_are_numbered_from_one(self):
        assert format_steps(("a", "b")) == "Step 1: a\nStep 2: b"


class TestAnalyze:
    def test_clean_reply_costs_one_call(self):
        backend = CapturingBackend("Error Step: #1\nError Category: Calculation")
        out = analyze(make_sample(), None, backend)
        assert out.parse_ok
        assert (out.error_step, out.error_category) == (1, ErrorCategory.CAL)
        assert len(backend.requests) == 1
        assert backend.requests[0].phase == "phase3"
        assert backend.requests[0].sample_id == "t1"

    def test_reask_appends_format_reminder(self):
        backend = CapturingBackend(
            "the mistake is somewhere in the middle",
            "Error Step: #2\nError Category: Reasoning",
        )
        out = analyze(make_sample(), None, backend)
        assert out.parse_ok
        assert out.error_step == 2
        assert len(backend.requests) == 2
        first = backend.requests[0].prompt
        second = backend.requests[1].prompt
        assert second.startswith(first)
        assert "Format reminder" in second

    def test_two_failures_return_unparsed_output(self):
        backend = CapturingBackend("no format", "still no format")
        out = analyze(make_sample(), None, backend)
        assert not out.parse_ok
        assert out.error_step is None
        assert out.error_category is None
        assert out.raw_text == "still no format"
        assert len(backend.requests) == 2

    def test_a_step_too_long_for_int_earns_the_reask(self):
        reply = "Error Step: #" + "9" * 5000 + "\nError Category: Calculation"
        backend = CapturingBackend(reply, reply)
        out = analyze(make_sample(), None, backend)
        assert (out.error_step, out.parse_ok) == (None, False)
        assert len(backend.requests) == 2

    def test_never_more_than_two_calls(self):
        backend = CapturingBackend("bad", "bad", "Error Step: #1\nError Category: cal")
        analyze(make_sample(), None, backend)
        assert len(backend.requests) == 2

    def test_analyzer_requests_are_text_only(self):
        backend = CapturingBackend("Error Step: #1\nError Category: cal")
        analyze(make_sample(), transcript(Representation.CAPTION, "a sketch"), backend)
        (request,) = backend.requests
        assert request.image is None


class TestTruncatedReplies:
    CLEAN = "Error Step: #1\nError Category: Calculation"

    def test_a_truncated_reply_that_parses_still_earns_the_reask(self):
        backend = CapturingBackend(truncated(self.CLEAN), "Error Step: #2\nError Category: cal")
        out = analyze(make_sample(), None, backend)
        assert out.parse_ok
        assert out.error_step == 2
        assert len(backend.requests) == 2
        assert "Format reminder" in backend.requests[1].prompt

    def test_a_truncated_reask_is_unparsed(self):
        backend = CapturingBackend(truncated(self.CLEAN), truncated(self.CLEAN))
        out = analyze(make_sample(), None, backend)
        assert not out.parse_ok
        assert out.raw_text == self.CLEAN
        assert len(backend.requests) == 2

    def test_an_error_reply_that_parses_still_earns_the_reask(self):
        # an endpoint's content_filter, tool_calls or null finish reason: not whole either
        reply = ModelResponse(text=self.CLEAN, finish_reason=FinishReason.ERROR)
        backend = CapturingBackend(reply, "Error Step: #2\nError Category: cal")
        out = analyze(make_sample(), None, backend)
        assert out.parse_ok
        assert out.error_step == 2
        assert len(backend.requests) == 2
        assert "Format reminder" in backend.requests[1].prompt
