"""Verdict parsing corpus and the consistency phase contract."""

import pytest
from hypothesis import given, strategies as st

from conftest import CapturingBackend, load_corpus, make_sample, truncated
from mathagent import RequestSettings, check_consistency, parse_verdict

CASES = load_corpus("verdict_cases.json")


class TestParseVerdictCorpus:
    def test_corpus_shape(self):
        assert len(CASES) == 50
        assert sum(1 for c in CASES if c["consistent"]) == 21

    @pytest.mark.parametrize("case", CASES, ids=lambda c: c["reply"][:40])
    def test_labeled_case(self, case):
        assert parse_verdict(case["reply"]) == case["consistent"]


class TestParseVerdictRules:
    def test_same_word_negations(self):
        assert not parse_verdict("inconsistent")
        assert not parse_verdict("NOT_CONSISTENT")

    def test_previous_word_negations(self):
        assert not parse_verdict("The image is not consistent with the text.")
        assert not parse_verdict("Labels are in consistent conflict here.")

    def test_survives_intervening_word(self):
        # negation scope is one word; anything further away does not count
        assert parse_verdict("not entirely consistent")

    def test_any_affirmative_occurrence_wins(self):
        assert parse_verdict("Not consistent. I repeat: consistent.")

    def test_embedded_token_counts(self):
        assert parse_verdict("unconsistent")
        assert parse_verdict("CONSISTENTLY aligned")

    def test_consistency_is_not_the_token(self):
        assert not parse_verdict("The consistency is high.")

    def test_empty_reply_is_not_consistent(self):
        assert not parse_verdict("")

    @given(st.text(max_size=80))
    def test_total_and_boolean(self, text):
        result = parse_verdict(text)
        assert isinstance(result, bool)
        if "consistent" not in text.lower():
            assert result is False


class TestCheckConsistency:
    def test_imageless_sample_is_trivially_consistent(self):
        backend = CapturingBackend("NOT CONSISTENT")
        verdict = check_consistency(make_sample(image=None), backend)
        assert verdict.consistent is True
        assert verdict.confidence_note == "no image attached; trivially consistent"
        assert backend.requests == []

    def test_one_call_with_prompt_and_image(self):
        backend = CapturingBackend("CONSISTENT")
        sample = make_sample(sample_id="s7", question_text="Angle ABC is 40 degrees.")
        settings = RequestSettings(model_id="vision-x", temperature=0.0, max_tokens=77)
        verdict = check_consistency(sample, backend, settings)
        assert verdict.consistent is True
        assert verdict.raw_text == "CONSISTENT"
        assert verdict.confidence_note is None
        (request,) = backend.requests
        assert request.phase == "phase1"
        assert request.sample_id == "s7"
        assert request.settings is settings
        assert "Angle ABC is 40 degrees." in request.prompt
        assert request.image is sample.image

    def test_negative_verdict_parsed(self):
        backend = CapturingBackend("The figure is NOT consistent with the problem.")
        verdict = check_consistency(make_sample(), backend)
        assert verdict.consistent is False
        assert "NOT consistent" in verdict.raw_text


class TestTruncatedVerdict:
    NOTE = "truncated: the reply stopped at the max_tokens limit"

    def test_a_truncated_affirmative_is_not_consistent(self):
        reply = "The image adds labels, so it is CONSISTENT"
        assert check_consistency(make_sample(), CapturingBackend(reply)).consistent is True
        backend = CapturingBackend(truncated(reply))
        verdict = check_consistency(make_sample(), backend)
        assert verdict.consistent is False
        assert verdict.raw_text == reply
        assert verdict.confidence_note == self.NOTE
        assert len(backend.requests) == 1

    def test_a_truncated_negative_keeps_its_note(self):
        verdict = check_consistency(make_sample(), CapturingBackend(truncated("NOT CONSISTENT")))
        assert verdict.consistent is False
        assert verdict.confidence_note == self.NOTE
