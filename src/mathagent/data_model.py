"""Dataset schema: samples, error categories, question types, stats.

A dataset is JSONL, one sample per line. Step indices are 1-based
throughout: gt_error_step = 1 means the first solution step is wrong.

A Sample is an immutable NamedTuple, so a changed copy is made with
_replace. sample_from_dict checks a line's object in one pass: it reads
each required field once, through _require, which raises the SchemaError
naming it. Question types and image kinds are looked up by their value.

A category's accepted spellings are its short name, its long name and
its entries in _CATEGORY_VARIANTS, all lowercased; parse_category looks
a reply up among them.
"""

from __future__ import annotations

import base64
import enum
import hashlib
import json
import mimetypes
import re
from fractions import Fraction
from pathlib import Path
from typing import Iterable, NamedTuple

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


class BadText(ValueError):
    """Outside text parse_json cannot read: not UTF-8, not JSON, or a lone surrogate."""


def decode_utf8(data: bytes) -> str:
    """data decoded strictly as UTF-8; BadText names the first bad byte."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise BadText(f"not valid UTF-8 (byte 0x{data[exc.start]:02x})") from None


_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")  # a \uD800-\uDFFF escape


def parse_json(text: str | bytes):
    """The one reader of outside JSON: a value UTF-8 can encode, else BadText.

    Bytes decode strictly, and a str is parsed as the str it is, so both
    read alike: a leading byte-order mark is BadText in either. Every parse
    failure, a nesting too deep to parse and too long an integer included,
    is BadText, and so is a lone surrogate in a string or key, whether a
    str carries it raw or the text escapes it.
    """
    raw = isinstance(text, str) and not text.isascii()  # only a str can carry a raw surrogate
    text = decode_utf8(text) if isinstance(text, bytes) else text
    try:
        if raw:
            text.encode("utf-8")  # only to find a raw surrogate: the text is parsed as a str
        value = json.loads(text)
        if _SURROGATE_ESCAPE.search(text):
            json.dumps(value, ensure_ascii=False).encode("utf-8")
    except UnicodeEncodeError as exc:  # a ValueError, so caught first
        code = ord(exc.object[exc.start])
        raise BadText(f"lone surrogate \\u{code:04x}, which UTF-8 cannot encode") from None
    except (ValueError, RecursionError) as exc:  # a one-line text (a JSONL line) says no "line 1"
        one_line = isinstance(exc, json.JSONDecodeError) and exc.lineno == 1
        why = f"{exc.msg} (column {exc.colno})" if one_line else exc
        raise BadText(f"invalid JSON: {why}") from None
    return value


class IdentityEnum(enum.Enum):
    """The base of every mathagent enum: a member hashes by identity, as it compares.

    Enum's own __hash__ hashes the member's name, in Python, at every dict
    or set lookup. A member is a singleton that compares by identity, so
    object.__hash__ keys every dict and set alike; only hash(member) differs
    from hash(member.name).
    """

    __hash__ = object.__hash__


class BuiltByNew:
    """Mixin for a NamedTuple subclass whose __new__ checks its fields or derives some.

    The subclass lists it first and sets __slots__ = (). _replace then
    builds through __new__, as copy and pickle do, from the arguments
    __getnewargs__ gives with the changes over them, so a replaced value is
    checked again, and a derived field is derived anew, not set.
    """

    __slots__ = ()

    def _replace(self, **changes):
        args = dict(zip(self._fields, self.__getnewargs__()))
        return self.__class__(**{**args, **changes})


class ErrorCategory(IdentityEnum):
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

# plurals and variants seen in model replies, lowercased and single-spaced
_CATEGORY_VARIANTS: dict[ErrorCategory, tuple[str, ...]] = {
    ErrorCategory.VIS: ("visual perception errors", "visual perception", "visual error", "visual"),
    ErrorCategory.CAL: (
        "calculation errors", "calculation", "computational error", "computation error",
    ),
    ErrorCategory.REAS: ("reasoning errors", "reasoning", "logical error", "logic error"),
    ErrorCategory.KNOW: ("knowledge errors", "knowledge"),
    ErrorCategory.MIS: (
        "misinterpretation of the qns", "misinterpretation error", "misinterpretation",
        "question misinterpretation", "misunderstanding of the question",
    ),
}

# every accepted spelling, in the form parse_category reduces its input to
_CATEGORY_SYNONYMS = {
    spelling: cat
    for cat, variants in _CATEGORY_VARIANTS.items()
    for spelling in (cat.value.lower(), _CATEGORY_LONG_NAMES[cat].lower(), *variants)
}

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


class QuestionType(IdentityEnum):
    PLANE_GEOMETRY = "plane_geometry"
    SOLID_GEOMETRY = "solid_geometry"
    DIAGRAM = "diagram"
    ALGEBRA = "algebra"
    MATH_COMMONSENSE = "math_commonsense"


class ImageKind(IdentityEnum):
    FILE_PATH = "file_path"
    INLINE_BASE64 = "inline_base64"
    URL = "url"


# Media types accepted for inline images.
DEFAULT_IMAGE_MEDIA_TYPES = frozenset(
    {"image/png", "image/jpeg", "image/gif", "image/webp"}
)


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class ImageRef:
    """An image: the one place its kind maps to bytes, media type and digest.

    sha256 is computed once: an inline ref's when built, by the decode that
    validates it (ValueError if not base64), a file ref's at first use, so a
    missing file fails only its sample. The ref keeps no image bytes. Its
    fields are slots that only __init__ and that first use set: assigning
    to one raises AttributeError, and two refs are equal when their kind,
    value and media_type are.
    """

    __slots__ = ("kind", "value", "media_type", "_sha256")

    def __init__(self, kind: ImageKind, value: str, media_type: str | None = None):
        if kind is ImageKind.INLINE_BASE64:
            sha256 = _digest(base64.b64decode(value, validate=True))
        elif kind is ImageKind.URL:  # remote bytes are not fetched: the address is hashed
            sha256 = _digest(value.encode("utf-8"))
        elif "\0" in value:  # no file name holds one, and opening it raises ValueError
            raise ValueError("a file path may not hold a NUL byte")
        else:
            sha256 = None
        set_field = object.__setattr__  # past the __setattr__ that refuses every assignment
        set_field(self, "kind", kind)
        set_field(self, "value", value)
        set_field(self, "media_type", media_type)
        set_field(self, "_sha256", sha256)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an ImageRef")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an ImageRef")

    def _key(self) -> tuple:
        return self.kind, self.value, self.media_type

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"ImageRef(kind={self.kind!r}, value={self.value!r}, media_type={self.media_type!r})"

    def __reduce__(self):  # copy and pickle build the ref anew
        return ImageRef, self._key()

    @property
    def sha256(self) -> str:
        if self._sha256 is None:  # a file ref's first use
            object.__setattr__(self, "_sha256", _digest(Path(self.value).read_bytes()))
        return self._sha256

    @property
    def resolved_media_type(self) -> str:
        """media_type, else a file name's guess, else the kind's fallback."""
        if self.kind is ImageKind.INLINE_BASE64:
            return self.media_type or "application/octet-stream"
        guess = mimetypes.guess_type(self.value)[0] if self.kind is ImageKind.FILE_PATH else None
        return self.media_type or guess or "image/png"

    def data_url(self) -> str:
        """A URL as is, else a data URL; a file is read anew at each call."""
        if self.kind is ImageKind.URL:
            return self.value
        encoded = self.value
        if self.kind is ImageKind.FILE_PATH:
            encoded = base64.b64encode(Path(self.value).read_bytes()).decode("ascii")
        return f"data:{self.resolved_media_type};base64,{encoded}"


class Sample(NamedTuple):
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
    value = obj.get(key)
    if value is None:
        raise SchemaError(line_no, key, "missing required field")
    # bool is an int subclass; an explicit check keeps true/false out of int fields
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise SchemaError(line_no, key, f"expected {kind.__name__}, got {type(value).__name__}")
    return value


_IMAGE_KINDS = {kind.value: kind for kind in ImageKind}
_QUESTION_TYPES = {qtype.value: qtype for qtype in QuestionType}


def _member(members: dict, raw: str, line_no: int, field_path: str, noun: str):
    """The member of members whose value raw is; SchemaError lists the values if none is."""
    member = members.get(raw)
    if member is None:
        message = f"unknown {noun} {raw!r}; expected one of " + ", ".join(members)
        raise SchemaError(line_no, field_path, message)
    return member


def _image_from_obj(obj, line_no: int) -> ImageRef:
    if not isinstance(obj, dict):
        raise SchemaError(line_no, "image", f"expected object, got {type(obj).__name__}")
    kind_raw = _require(obj, "kind", str, line_no)
    kind = _member(_IMAGE_KINDS, kind_raw, line_no, "image.kind", "kind")
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
    try:  # an inline image is decoded once, here, which also validates it
        return ImageRef(kind=kind, value=value, media_type=media_type)
    except ValueError as exc:  # not base64, or a URL with a lone surrogate
        message = "not valid base64" if kind is ImageKind.INLINE_BASE64 else str(exc)
        raise SchemaError(line_no, "image.value", message) from None


def sample_from_dict(obj: dict, line_no: int = 0) -> Sample:
    """Validate one wire-format object and build a Sample.

    Raises SchemaError naming the offending field. Unknown keys are ignored.
    Each required field is read once, through _require, which names what
    is wrong with it, in field order.
    """
    if not isinstance(obj, dict):
        raise SchemaError(line_no, "", f"expected object, got {type(obj).__name__}")
    sample_id = _require(obj, "id", str, line_no)
    if not sample_id:
        raise SchemaError(line_no, "id", "must be non-empty")
    question_text = _require(obj, "question_text", str, line_no)
    correct = _require(obj, "correct_answer", str, line_no)
    incorrect = _require(obj, "incorrect_answer", str, line_no)

    steps = _require(obj, "steps", list, line_no)
    if not steps:
        raise SchemaError(line_no, "steps", "must be a non-empty array")
    for i, step in enumerate(steps):
        if not isinstance(step, str):
            raise SchemaError(line_no, f"steps[{i}]", "expected string")

    gt_step = _require(obj, "gt_error_step", int, line_no)
    if not 1 <= gt_step <= len(steps):
        raise SchemaError(
            line_no, "gt_error_step",
            f"{gt_step} outside [1, {len(steps)}] (1-based step index)",
        )

    cat_raw = _require(obj, "gt_error_category", str, line_no)
    try:
        category = parse_category(cat_raw)
    except UnknownCategory as exc:
        raise SchemaError(line_no, "gt_error_category", str(exc)) from None

    image = obj.get("image")
    if image is not None:
        image = _image_from_obj(image, line_no)

    qtype = obj.get("question_type")
    if isinstance(qtype, str):
        qtype = _member(_QUESTION_TYPES, qtype, line_no, "question_type", "type")
    elif qtype is not None:
        raise SchemaError(line_no, "question_type", "expected string")

    return Sample(
        sample_id, question_text, correct, incorrect, tuple(steps), gt_step, category, image, qtype
    )


def scan_dataset(path):
    """Read a JSONL dataset, collecting SchemaErrors instead of failing fast.

    Returns (samples, findings). Lines with findings contribute no sample.
    Lines split on \\n alone and blank ones are skipped. A line parse_json
    rejects (not UTF-8, not JSON, a lone surrogate) is a finding with its
    message; a duplicate id is a finding on the later line.
    """
    samples: list[Sample] = []
    findings: list[SchemaError] = []
    seen_ids: dict[str, int] = {}
    with open(path, "rb") as fh:  # a binary file yields lines split on \n alone
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                sample = sample_from_dict(parse_json(line), line_no)
            except SchemaError as exc:
                exc.__context__ = None  # its traceback, like exc's, holds this line's object
                findings.append(exc.with_traceback(None))
                continue
            except BadText as exc:
                findings.append(SchemaError(line_no, "", str(exc)))
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


class DatasetStats(NamedTuple):
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
