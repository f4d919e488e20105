"""Image-text consistency check (first pipeline phase).

When the problem text already carries everything the image shows, later
phases can skip transcription and work from the text alone.
"""

from __future__ import annotations

import string
from typing import NamedTuple

from .backends import Backend, ModelRequest, RequestSettings
from .data_model import Sample
from .prompts import PromptSet, packaged_prompts

# Tokens that flip CONSISTENT into a negative verdict when found in the
# same word ("inconsistent", "NOT_CONSISTENT") or the word just before.
NEGATION_TOKENS = ("not", "in")


class ConsistencyVerdict(NamedTuple):
    consistent: bool
    raw_text: str
    confidence_note: str | None = None


def parse_verdict(raw_text: str) -> bool:
    """True iff the reply affirms consistency.

    The reply is consistent when it contains the token CONSISTENT
    (case-insensitive) not negated by NOT or IN, either inside the same
    whitespace-delimited word or as the immediately preceding word.
    Anything unparseable counts as not consistent, the conservative
    default: an unverified image goes through transcription.
    """
    words = raw_text.lower().split()
    for w_i, word in enumerate(words):
        start = 0
        while True:
            idx = word.find("consistent", start)
            if idx < 0:
                break
            prefix = word[:idx]
            negated = "not" in prefix or prefix.endswith("in")
            if not negated and w_i > 0:
                prev = words[w_i - 1].strip(string.punctuation)
                if prev in NEGATION_TOKENS:
                    negated = True
            if not negated:
                return True
            start = idx + 1
    return False


def check_consistency(
    sample: Sample,
    backend: Backend,
    settings: RequestSettings = RequestSettings(),
    prompts: PromptSet | None = None,
) -> ConsistencyVerdict:
    """Ask the backend whether the image adds anything beyond the text.

    A sample without an image is trivially consistent and costs zero
    backend calls. A reply that is not whole (ModelResponse.cut) is not
    consistent, whatever it says, and carries its cut note: the
    conservative default.
    """
    if sample.image is None:
        return ConsistencyVerdict(
            consistent=True,
            raw_text="",
            confidence_note="no image attached; trivially consistent",
        )
    prompt = (prompts or packaged_prompts()).render(
        "phase1_consistency", {"question_text": sample.question_text}
    )
    response = backend.complete(ModelRequest(prompt, sample.image, settings, "phase1", sample.id))
    if response.cut:
        return ConsistencyVerdict(
            consistent=False, raw_text=response.text, confidence_note=response.cut
        )
    return ConsistencyVerdict(consistent=parse_verdict(response.text), raw_text=response.text)
