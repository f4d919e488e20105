"""Prompt asset loading and {{placeholder}} rendering."""

from __future__ import annotations

import functools
import re
from pathlib import Path
from typing import NamedTuple

from .data_model import BadText, BuiltByNew, decode_utf8

PROMPT_FILES = {
    "phase1_consistency": "phase1_consistency.prompt",
    "phase2_question_type": "phase2_question_type.prompt",
    "phase2_formal": "phase2_formal.prompt",
    "phase2_latex": "phase2_latex.prompt",
    "phase2_caption": "phase2_caption.prompt",
    "phase3_analyzer": "phase3_analyzer.prompt",
}

# the placeholders each template's phase fills
PLACEHOLDERS = {name: {"question_text"} for name in PROMPT_FILES}
PLACEHOLDERS["phase3_analyzer"] = {
    "question_text", "visual", "correct_answer", "student_answer", "steps"
}

_PACKAGED_DIR = Path(__file__).parent / "prompts"
_PLACEHOLDER_RE = re.compile(r"\{\{([a-z_]+)\}\}")


class _PromptFields(NamedTuple):
    templates: dict[str, str]
    # each template split once: literal text at even indices, placeholder names at odd ones
    parts: dict[str, tuple[str, ...]]


class PromptSet(BuiltByNew, _PromptFields):
    """The six prompt templates of one pipeline setup, read from disk and split once.

    Built from its templates alone; __new__ splits them into parts, here.
    """

    __slots__ = ()

    def __new__(cls, templates: dict[str, str]):
        parts = {name: tuple(_PLACEHOLDER_RE.split(text)) for name, text in templates.items()}
        return tuple.__new__(cls, (templates, parts))

    def __getnewargs__(self):  # what copy, pickle and _replace pass to __new__
        return self[:-1]

    def __repr__(self):
        return f"PromptSet(templates={self.templates!r})"

    @classmethod
    def load(cls, prompt_dir=None) -> "PromptSet":
        """Read every asset from prompt_dir (the packaged set when None).

        Raises FileNotFoundError naming every missing asset, and ValueError
        naming an asset that is not UTF-8 or has a placeholder its phase
        does not fill.
        """
        base = Path(prompt_dir) if prompt_dir is not None else _PACKAGED_DIR
        paths = {name: base / filename for name, filename in PROMPT_FILES.items()}
        missing = [str(path) for path in paths.values() if not path.is_file()]
        if missing:
            raise FileNotFoundError("missing prompt assets: " + ", ".join(missing))
        templates = {}
        for name, path in paths.items():
            try:  # newlines translated as a text-mode read does
                text = decode_utf8(path.read_bytes()).replace("\r\n", "\n").replace("\r", "\n")
            except BadText as exc:
                raise ValueError(f"prompt asset {path} is {exc}") from exc
            templates[name] = text
            unknown = sorted(set(_PLACEHOLDER_RE.findall(templates[name])) - PLACEHOLDERS[name])
            if unknown:
                names = ", ".join(f"{{{{{key}}}}}" for key in unknown)
                raise ValueError(f"prompt asset {path}: unknown placeholder {names}")
        return cls(templates)

    def render(self, name: str, values: dict[str, str]) -> str:
        return render_prompt(self.parts[name], values)


# the packaged set, read on first call and shared afterwards
packaged_prompts = functools.cache(PromptSet.load)


def render_prompt(parts: tuple[str, ...], values: dict[str, str]) -> str:
    """Join a split template, each {{name}} filled; unresolved placeholders are an error."""
    filled = list(parts)
    for i in range(1, len(parts), 2):
        if parts[i] not in values:
            raise ValueError(f"prompt placeholder {{{{{parts[i]}}}}} has no value")
        filled[i] = values[parts[i]]
    return "".join(filled)
