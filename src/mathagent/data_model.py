"""Dataset schema: samples, error categories, question types, stats.

A dataset is JSONL, one sample per line. Step indices are 1-based
throughout: gt_error_step = 1 means the first solution step is wrong.
"""

from __future__ import annotations

import base64
import binascii
import enum
import json
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .rounding import round_half_up


class UnknownCategory(ValueError):
    """Raised when a string cannot be resolved to an error category."""


class SchemaError(ValueError):
    """A dataset line violates the schema. Carries line number and field path."""

    def __init__(self, line_no: int, field_path: str, message: str):
        self.line_no = line_no
        self.field_path = field_path
        self.message = message
        super().__init__(f"line {line_no}: field '{field_path}': {message}")


class EmptyDataset(ValueError):
    """Raised when statistics are requested over zero samples."""


class ErrorCategory(enum.Enum):
    VIS = "VIS"
    CAL = "CAL"
    REAS = "REAS"
    KNOW = "KNOW"
    MIS = "MIS"

    @property
    def long_name(self) -> str:
        return _CATEGORY_LONG_NAMES[self]


_CATEGORY_LONG_NAMES = {
    ErrorCategory.VIS: "Visual Perception Error",
    ErrorCategory.CAL: "Calculation Error",
    ErrorCategory.REAS: "Reasoning Error",
    ErrorCategory.KNOW: "Knowledge Error",
    ErrorCategory.MIS: "Misinterpretation of the Question",
}

# Accepted spellings, lowercased with collapsed whitespace. Total over the
# canonical short and long names plus common variants seen in model replies.
_CATEGORY_SYNONYMS: dict[str, ErrorCategory] = {}


def _register_category(cat: ErrorCategory, *names: str) -> None:
    for name in names:
        key = " ".join(name.lower().split())
        if key in _CATEGORY_SYNONYMS and _CATEGORY_SYNONYMS[key] is not cat:
            raise AssertionError(f"ambiguous category synonym: {name}")
        _CATEGORY_SYNONYMS[key] = cat


_register_category(
    ErrorCategory.VIS,
    "vis", "visual perception error", "visual perception errors",
    "visual perception", "visual error", "visual",
)
_register_category(
    ErrorCategory.CAL,
    "cal", "calculation error", "calculation errors", "calculation",
    "computational error", "computation error",
)
_register_category(
    ErrorCategory.REAS,
    "reas", "reasoning error", "reasoning errors", "reasoning",
    "logical error", "logic error",
)
_register_category(
    ErrorCategory.KNOW,
    "know", "knowledge error", "knowledge errors", "knowledge",
)
_register_category(
    ErrorCategory.MIS,
    "mis", "misinterpretation of the question", "misinterpretation of the qns",
    "misinterpretation error", "misinterpretation",
    "question misinterpretation", "misunderstanding of the question",
)

_STRIP_CHARS = " \t\r\n.,;:!?\"'`()[]{}#*_-"


def parse_category(text: str) -> ErrorCategory:
    """Resolve a category name or synonym, case-insensitive.

    Surrounding punctuation is stripped and internal whitespace collapsed,
    so "  Calculation Error. " resolves to CAL. Raises UnknownCategory on
    anything else.
    """
    key = " ".join(text.strip(_STRIP_CHARS).lower().split())
    try:
        return _CATEGORY_SYNONYMS[key]
    except KeyError:
        raise UnknownCategory(f"unrecognized error category: {text!r}") from None


class QuestionType(enum.Enum):
    PLANE_GEOMETRY = "plane_geometry"
    SOLID_GEOMETRY = "solid_geometry"
    DIAGRAM = "diagram"
    ALGEBRA = "algebra"
    MATH_COMMONSENSE = "math_commonsense"


class ImageKind(enum.Enum):
    FILE_PATH = "file_path"
    INLINE_BASE64 = "inline_base64"
    URL = "url"


# Media types accepted for inline images.
DEFAULT_IMAGE_MEDIA_TYPES = frozenset(
    {"image/png", "image/jpeg", "image/gif", "image/webp"}
)


@dataclass(frozen=True)
class ImageRef:
    kind: ImageKind
    value: str
    media_type: str | None = None

    def decoded_bytes(self) -> bytes:
        """Raw image bytes for an inline reference."""
        if self.kind is not ImageKind.INLINE_BASE64:
            raise ValueError(f"no inline bytes for kind {self.kind.value}")
        return base64.b64decode(self.value, validate=True)


@dataclass(frozen=True)
class Sample:
    id: str
    question_text: str
    correct_answer: str
    incorrect_answer: str
    steps: tuple[str, ...]
    gt_error_step: int
    gt_error_category: ErrorCategory
    image: ImageRef | None = None
    question_type: QuestionType | None = None


def sample_to_dict(sample: Sample) -> dict:
    """Wire-format dict; optional fields are omitted when absent."""
    out: dict = {
        "id": sample.id,
        "question_text": sample.question_text,
    }
    if sample.image is not None:
        img: dict = {"kind": sample.image.kind.value, "value": sample.image.value}
        if sample.image.media_type is not None:
            img["media_type"] = sample.image.media_type
        out["image"] = img
    if sample.question_type is not None:
        out["question_type"] = sample.question_type.value
    out.update(
        {
            "correct_answer": sample.correct_answer,
            "incorrect_answer": sample.incorrect_answer,
            "steps": list(sample.steps),
            "gt_error_step": sample.gt_error_step,
            "gt_error_category": sample.gt_error_category.value,
        }
    )
    return out


def write_dataset(samples: Iterable[Sample], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for sample in samples:
            fh.write(json.dumps(sample_to_dict(sample), ensure_ascii=False) + "\n")


def _require(obj: dict, key: str, kind, line_no: int):
    if key not in obj or obj[key] is None:
        raise SchemaError(line_no, key, "missing required field")
    value = obj[key]
    # bool is an int subclass; an explicit check keeps true/false out of int fields
    if kind is int and isinstance(value, bool):
        raise SchemaError(line_no, key, f"expected int, got bool")
    if not isinstance(value, kind):
        raise SchemaError(line_no, key, f"expected {kind.__name__}, got {type(value).__name__}")
    return value


def _image_from_obj(obj, line_no: int) -> ImageRef:
    if not isinstance(obj, dict):
        raise SchemaError(line_no, "image", f"expected object, got {type(obj).__name__}")
    kind_raw = _require(obj, "kind", str, line_no)
    try:
        kind = ImageKind(kind_raw)
    except ValueError:
        raise SchemaError(
            line_no, "image.kind",
            f"unknown kind {kind_raw!r}; expected one of "
            + ", ".join(k.value for k in ImageKind),
        ) from None
    value = _require(obj, "value", str, line_no)
    if not value:
        raise SchemaError(line_no, "image.value", "must be non-empty")
    media_type = obj.get("media_type")
    if media_type is not None and not isinstance(media_type, str):
        raise SchemaError(line_no, "image.media_type", "expected string")
    if kind is ImageKind.INLINE_BASE64:
        if media_type is None:
            raise SchemaError(line_no, "image.media_type", "required for inline_base64")
        if media_type not in DEFAULT_IMAGE_MEDIA_TYPES:
            raise SchemaError(
                line_no, "image.media_type",
                f"{media_type!r} not in allowed set {sorted(DEFAULT_IMAGE_MEDIA_TYPES)}",
            )
        try:
            base64.b64decode(value, validate=True)
        except (binascii.Error, ValueError):
            raise SchemaError(line_no, "image.value", "not valid base64") from None
    return ImageRef(kind=kind, value=value, media_type=media_type)


def sample_from_dict(obj: dict, line_no: int = 0) -> Sample:
    """Validate one wire-format object and build a Sample.

    Raises SchemaError naming the offending field. Unknown keys are ignored.
    """
    if not isinstance(obj, dict):
        raise SchemaError(line_no, "", f"expected object, got {type(obj).__name__}")
    sample_id = _require(obj, "id", str, line_no)
    if not sample_id:
        raise SchemaError(line_no, "id", "must be non-empty")
    question_text = _require(obj, "question_text", str, line_no)
    correct = _require(obj, "correct_answer", str, line_no)
    incorrect = _require(obj, "incorrect_answer", str, line_no)

    steps_raw = _require(obj, "steps", list, line_no)
    if not steps_raw:
        raise SchemaError(line_no, "steps", "must be a non-empty array")
    for i, step in enumerate(steps_raw):
        if not isinstance(step, str):
            raise SchemaError(line_no, f"steps[{i}]", "expected string")

    gt_step = _require(obj, "gt_error_step", int, line_no)
    if not 1 <= gt_step <= len(steps_raw):
        raise SchemaError(
            line_no, "gt_error_step",
            f"{gt_step} outside [1, {len(steps_raw)}] (1-based step index)",
        )

    cat_raw = _require(obj, "gt_error_category", str, line_no)
    try:
        category = parse_category(cat_raw)
    except UnknownCategory as exc:
        raise SchemaError(line_no, "gt_error_category", str(exc)) from None

    image = None
    if obj.get("image") is not None:
        image = _image_from_obj(obj["image"], line_no)

    qtype = None
    if obj.get("question_type") is not None:
        qt_raw = obj["question_type"]
        if not isinstance(qt_raw, str):
            raise SchemaError(line_no, "question_type", "expected string")
        try:
            qtype = QuestionType(qt_raw)
        except ValueError:
            raise SchemaError(
                line_no, "question_type",
                f"unknown type {qt_raw!r}; expected one of "
                + ", ".join(q.value for q in QuestionType),
            ) from None

    return Sample(
        id=sample_id,
        question_text=question_text,
        correct_answer=correct,
        incorrect_answer=incorrect,
        steps=tuple(steps_raw),
        gt_error_step=gt_step,
        gt_error_category=category,
        image=image,
        question_type=qtype,
    )


# errors="surrogateescape" reads each byte that is not UTF-8 as one of these
_UNDECODED = re.compile("[\udc80-\udcff]")


def scan_dataset(path):
    """Read a JSONL dataset, collecting SchemaErrors instead of failing fast.

    Returns (samples, findings). Lines with findings contribute no sample.
    Blank lines are skipped. A line that is not UTF-8 is a finding naming
    its first bad byte; a duplicate id is a finding on the later line.
    """
    samples: list[Sample] = []
    findings: list[SchemaError] = []
    seen_ids: dict[str, int] = {}
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            undecoded = None if line.isascii() else _UNDECODED.search(line)
            if undecoded:
                byte = ord(undecoded.group()) - 0xDC00
                findings.append(SchemaError(line_no, "", f"not valid UTF-8 (byte 0x{byte:02x})"))
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                findings.append(SchemaError(line_no, "", f"invalid JSON: {exc.msg}"))
                continue
            try:
                sample = sample_from_dict(obj, line_no)
            except SchemaError as exc:
                exc.__context__ = None  # its traceback, like exc's, holds this line's object
                findings.append(exc.with_traceback(None))
                continue
            if sample.id in seen_ids:
                message = f"duplicate id {sample.id!r} (first seen line {seen_ids[sample.id]})"
                findings.append(SchemaError(line_no, "id", message))
                continue
            seen_ids[sample.id] = line_no
            samples.append(sample)
    return samples, findings


def load_dataset(path) -> list[Sample]:
    """Strict loader: raises the first finding's SchemaError."""
    samples, findings = scan_dataset(path)
    if findings:
        raise findings[0]
    return samples


@dataclass
class DatasetStats:
    total: int
    by_question_type: dict[QuestionType | None, int]
    by_error_category: dict[ErrorCategory, int]
    step_count_mean: float
    step_count_min: int
    step_count_max: int
    question_length_mean: float
    question_length_min: int
    question_length_max: int


def dataset_stats(samples: list[Sample]) -> DatasetStats:
    """Exact counts and extrema; means reported to 1 decimal, half-up.

    Samples without a question_type label fall into the None bucket so the
    per-type counts always sum to the total.
    """
    if not samples:
        raise EmptyDataset("no samples to summarize")
    by_type: dict[QuestionType | None, int] = {}
    by_cat: dict[ErrorCategory, int] = {}
    for s in samples:
        by_type[s.question_type] = by_type.get(s.question_type, 0) + 1
        by_cat[s.gt_error_category] = by_cat.get(s.gt_error_category, 0) + 1
    step_counts = [len(s.steps) for s in samples]
    q_lengths = [len(s.question_text) for s in samples]
    n = len(samples)
    return DatasetStats(
        total=n,
        by_question_type=by_type,
        by_error_category=by_cat,
        step_count_mean=float(round_half_up(Fraction(sum(step_counts), n), 1)),
        step_count_min=min(step_counts),
        step_count_max=max(step_counts),
        question_length_mean=float(round_half_up(Fraction(sum(q_lengths), n), 1)),
        question_length_min=min(q_lengths),
        question_length_max=max(q_lengths),
    )
