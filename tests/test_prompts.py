"""Prompt rendering: the split-once renderer against the substitution it replaced."""

import re

import pytest
from hypothesis import given, settings, strategies as st

from mathagent.prompts import PLACEHOLDERS, PromptSet, packaged_prompts

PLACEHOLDER_RE = re.compile(r"\{\{([a-z_]+)\}\}")


def substituted(template: str, values: dict[str, str]) -> str:
    """The reference renderer: one regex substitution over the whole template."""

    def replace(match: re.Match) -> str:
        key = match.group(1)
        if key not in values:
            raise ValueError(f"prompt placeholder {{{{{key}}}}} has no value")
        return values[key]

    return PLACEHOLDER_RE.sub(replace, template)


def outcome(render, *args):
    """What a renderer gives: its text, or the message of the ValueError it raises."""
    try:
        return "text", render(*args)
    except ValueError as exc:
        return "error", str(exc)


def rendered(template: str, values: dict[str, str]) -> str:
    return PromptSet({"t": template}).render("t", values)


names = st.one_of(
    st.sampled_from(sorted(PLACEHOLDERS["phase3_analyzer"])),
    st.text("ab_", min_size=1, max_size=4),
)
# literal text rich in braces, so a draw can hold `{`, `}`, `{{` or `}}` on its own
literal = st.text(st.one_of(st.sampled_from("{}_a \n"), st.characters()), max_size=12)
piece = st.one_of(literal, names.map(lambda name: "{{" + name + "}}"))
# values that may themselves hold placeholders, which are never expanded again
value = st.one_of(literal, piece, st.just("{{question_text}}"))


class TestRender:
    @given(st.lists(piece, max_size=8).map("".join), st.dictionaries(names, value, max_size=5))
    @settings(max_examples=300)
    def test_the_split_renderer_matches_the_substitution(self, template, values):
        assert outcome(rendered, template, values) == outcome(substituted, template, values)

    def test_the_packaged_templates_render_as_before(self):
        values = {key: f"<{key}>" for key in PLACEHOLDERS["phase3_analyzer"]}
        prompts = packaged_prompts()
        for name, template in prompts.templates.items():
            assert prompts.render(name, values) == substituted(template, values)

    def test_a_value_holding_a_placeholder_is_not_expanded_again(self):
        values = {"question_text": "{{question_text}} and {{steps}}", "steps": "1. x"}
        assert rendered("Q: {{question_text}}\n{{steps}}", values) == (
            "Q: {{question_text}} and {{steps}}\n1. x"
        )

    def test_literal_braces_stay(self):
        template = "{x} {{ {{{question_text}}} }} {{Question}} {{}}"
        assert rendered(template, {"question_text": "q"}) == "{x} {{ {q} }} {{Question}} {{}}"

    def test_a_template_with_no_placeholder_is_returned_as_is(self):
        assert rendered("no placeholder here {", {}) == "no placeholder here {"
        assert rendered("", {"steps": "s"}) == ""

    def test_a_missing_value_names_its_placeholder(self):
        with pytest.raises(ValueError) as caught:
            rendered("{{question_text}} {{steps}} {{visual}}", {"question_text": "q"})
        assert str(caught.value) == "prompt placeholder {{steps}} has no value"
