"""Dataset schema: parsing, validation findings, image refs, round-trip, statistics."""

import base64
import copy
import enum
import hashlib
import importlib
import json
import pickle
import pkgutil
import re
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import TINY_PNG_BASE64, awkward_text, make_sample
import mathagent
from mathagent import (
    EmptyDataset,
    ErrorCategory,
    ImageKind,
    ImageRef,
    QuestionType,
    Sample,
    SchemaError,
    UnknownCategory,
    dataset_stats,
    load_dataset,
    parse_category,
    sample_from_dict,
    sample_to_dict,
    scan_dataset,
    write_dataset,
)
from mathagent.data_model import (
    DEFAULT_IMAGE_MEDIA_TYPES, BadText, IdentityEnum, decode_utf8, parse_json,
)

VALID = {
    "id": "q1",
    "question_text": "Find x.",
    "correct_answer": "2",
    "incorrect_answer": "3",
    "steps": ["Set up the equation", "Solve it"],
    "gt_error_step": 2,
    "gt_error_category": "cal",
}


def with_image(kind="inline_base64", value=TINY_PNG_BASE64, media_type="image/png"):
    obj = dict(VALID)
    img = {"kind": kind, "value": value}
    if media_type is not None:
        img["media_type"] = media_type
    obj["image"] = img
    return obj


class TestParseCategory:
    def test_canonical_short_and_long_names(self):
        assert parse_category("CAL") is ErrorCategory.CAL
        assert parse_category("Calculation Error") is ErrorCategory.CAL
        assert parse_category("Visual Perception Error") is ErrorCategory.VIS
        assert parse_category("Reasoning Error") is ErrorCategory.REAS
        assert parse_category("Knowledge Error") is ErrorCategory.KNOW
        assert parse_category("Misinterpretation of the Question") is ErrorCategory.MIS

    def test_strips_punctuation_and_collapses_whitespace(self):
        assert parse_category("  Calculation Error. ") is ErrorCategory.CAL
        assert parse_category("'reasoning   error'") is ErrorCategory.REAS
        assert parse_category("**Knowledge**") is ErrorCategory.KNOW
        assert parse_category("misinterpretation of the qns") is ErrorCategory.MIS

    def test_unknown_raises(self):
        with pytest.raises(UnknownCategory):
            parse_category("syntax error")
        with pytest.raises(UnknownCategory):
            parse_category("")

    def test_long_name_round_trip(self):
        for cat in ErrorCategory:
            assert parse_category(cat.long_name) is cat
            assert parse_category(cat.value) is cat


class TestSampleFromDict:
    def test_valid_minimal(self):
        s = sample_from_dict(VALID)
        assert s.id == "q1"
        assert s.steps == ("Set up the equation", "Solve it")
        assert s.gt_error_step == 2
        assert s.gt_error_category is ErrorCategory.CAL
        assert s.image is None
        assert s.question_type is None

    def test_valid_with_image_and_type(self):
        obj = with_image()
        obj["question_type"] = "plane_geometry"
        s = sample_from_dict(obj)
        assert s.image.kind is ImageKind.INLINE_BASE64
        assert s.question_type is QuestionType.PLANE_GEOMETRY

    def test_unknown_keys_ignored(self):
        obj = dict(VALID, zzz_extra=1)
        assert sample_from_dict(obj).id == "q1"

    @pytest.mark.parametrize("missing", sorted(VALID))
    def test_each_required_field_missing(self, missing):
        obj = {k: v for k, v in VALID.items() if k != missing}
        with pytest.raises(SchemaError) as err:
            sample_from_dict(obj, line_no=7)
        assert err.value.line_no == 7
        assert err.value.field_path == missing

    def test_bool_rejected_for_int_field(self):
        with pytest.raises(SchemaError):
            sample_from_dict(dict(VALID, gt_error_step=True))

    @pytest.mark.parametrize("step", [0, -1, 3, 100])
    def test_step_out_of_range(self, step):
        with pytest.raises(SchemaError) as err:
            sample_from_dict(dict(VALID, gt_error_step=step))
        assert err.value.field_path == "gt_error_step"

    def test_step_boundaries_accepted(self):
        assert sample_from_dict(dict(VALID, gt_error_step=1)).gt_error_step == 1
        assert sample_from_dict(dict(VALID, gt_error_step=2)).gt_error_step == 2

    def test_empty_steps_rejected(self):
        with pytest.raises(SchemaError) as err:
            sample_from_dict(dict(VALID, steps=[]))
        assert err.value.field_path == "steps"

    def test_ill_typed_steps_rejected(self):
        with pytest.raises(SchemaError):
            sample_from_dict(dict(VALID, steps="Solve it"))
        with pytest.raises(SchemaError):
            sample_from_dict(dict(VALID, steps=["ok", 3]))

    def test_unknown_category_rejected(self):
        with pytest.raises(SchemaError) as err:
            sample_from_dict(dict(VALID, gt_error_category="typo"))
        assert err.value.field_path == "gt_error_category"

    def test_unknown_question_type_rejected(self):
        with pytest.raises(SchemaError) as err:
            sample_from_dict(dict(VALID, question_type="geometry"))
        assert err.value.field_path == "question_type"

    def test_bad_base64_rejected(self):
        for value in ("!!not-base64!!", "iVBORw0K\u00e9"):
            with pytest.raises(SchemaError) as err:
                sample_from_dict(with_image(value=value))
            assert err.value.field_path == "image.value"
            assert err.value.message == "not valid base64"

    def test_url_that_utf8_cannot_encode_is_a_finding(self):
        # a JSON "\udc80" escape loads as a lone surrogate, which has no UTF-8 bytes to hash
        with pytest.raises(SchemaError) as err:
            sample_from_dict(with_image(kind="url", value="https://x.org/\udc80", media_type=None))
        assert err.value.field_path == "image.value"
        assert "surrogates not allowed" in err.value.message

    def test_inline_requires_media_type(self):
        with pytest.raises(SchemaError) as err:
            sample_from_dict(with_image(media_type=None))
        assert err.value.field_path == "image.media_type"

    def test_media_type_allowlist(self):
        with pytest.raises(SchemaError):
            sample_from_dict(with_image(media_type="image/tiff"))
        ok = sample_from_dict(with_image(media_type="image/webp"))
        assert ok.image.media_type == "image/webp"

    def test_unknown_image_kind_rejected(self):
        with pytest.raises(SchemaError) as err:
            sample_from_dict(with_image(kind="base64"))
        assert err.value.field_path == "image.kind"

    def test_url_and_file_kinds_need_no_media_type(self):
        url = sample_from_dict(
            with_image(kind="url", value="https://example.org/x.png", media_type=None)
        )
        assert url.image.kind is ImageKind.URL
        path = sample_from_dict(
            with_image(kind="file_path", value="imgs/x.png", media_type=None)
        )
        assert path.image.kind is ImageKind.FILE_PATH

    def test_a_file_path_with_a_nul_byte_is_a_finding(self):
        with pytest.raises(SchemaError) as err:
            sample_from_dict(with_image(kind="file_path", value="fig\u0000.png", media_type=None))
        assert err.value.field_path == "image.value"
        assert err.value.message == "a file path may not hold a NUL byte"


def reference_require(obj: dict, key: str, kind, line_no: int):
    if key not in obj or obj[key] is None:
        raise SchemaError(line_no, key, "missing required field")
    value = obj[key]
    if kind is int and isinstance(value, bool):
        raise SchemaError(line_no, key, f"expected int, got bool")
    if not isinstance(value, kind):
        raise SchemaError(line_no, key, f"expected {kind.__name__}, got {type(value).__name__}")
    return value


def reference_image_from_obj(obj, line_no: int) -> ImageRef:
    if not isinstance(obj, dict):
        raise SchemaError(line_no, "image", f"expected object, got {type(obj).__name__}")
    kind_raw = reference_require(obj, "kind", str, line_no)
    try:
        kind = ImageKind(kind_raw)
    except ValueError:
        raise SchemaError(
            line_no, "image.kind",
            f"unknown kind {kind_raw!r}; expected one of "
            + ", ".join(k.value for k in ImageKind),
        ) from None
    value = reference_require(obj, "value", str, line_no)
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
        return ImageRef(kind=kind, value=value, media_type=media_type)
    except ValueError as exc:
        message = "not valid base64" if kind is ImageKind.INLINE_BASE64 else str(exc)
        raise SchemaError(line_no, "image.value", message) from None


def reference_sample_from_dict(obj: dict, line_no: int = 0) -> Sample:
    """sample_from_dict as it was before its one pass: every field through reference_require."""
    if not isinstance(obj, dict):
        raise SchemaError(line_no, "", f"expected object, got {type(obj).__name__}")
    sample_id = reference_require(obj, "id", str, line_no)
    if not sample_id:
        raise SchemaError(line_no, "id", "must be non-empty")
    question_text = reference_require(obj, "question_text", str, line_no)
    correct = reference_require(obj, "correct_answer", str, line_no)
    incorrect = reference_require(obj, "incorrect_answer", str, line_no)

    steps_raw = reference_require(obj, "steps", list, line_no)
    if not steps_raw:
        raise SchemaError(line_no, "steps", "must be a non-empty array")
    for i, step in enumerate(steps_raw):
        if not isinstance(step, str):
            raise SchemaError(line_no, f"steps[{i}]", "expected string")

    gt_step = reference_require(obj, "gt_error_step", int, line_no)
    if not 1 <= gt_step <= len(steps_raw):
        raise SchemaError(
            line_no, "gt_error_step",
            f"{gt_step} outside [1, {len(steps_raw)}] (1-based step index)",
        )

    cat_raw = reference_require(obj, "gt_error_category", str, line_no)
    try:
        category = parse_category(cat_raw)
    except UnknownCategory as exc:
        raise SchemaError(line_no, "gt_error_category", str(exc)) from None

    image = None
    if obj.get("image") is not None:
        image = reference_image_from_obj(obj["image"], line_no)

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


class Text(str):
    """A str subclass, which the loader reads as the str it is."""


DROP = object()  # a replacement that removes the key, or the step
TEXT = object()  # a replacement by a str subclass of the value it replaces
IMAGES = [
    {"kind": "inline_base64", "value": TINY_PNG_BASE64, "media_type": "image/png"},
    {"kind": "url", "value": "https://example.org/x.png"},
    {"kind": "file_path", "value": "imgs/x.png", "media_type": "image/jpeg"},
]
VALID_OBJECTS = st.fixed_dictionaries(
    {
        "id": st.sampled_from(["q1", "s-02"]),
        "question_text": st.text(max_size=5),
        "correct_answer": st.text(max_size=3),
        "incorrect_answer": st.text(max_size=3),
        "steps": st.lists(st.text(max_size=5), min_size=1, max_size=4),
        "gt_error_category": st.sampled_from(
            ["cal", "CAL", "Visual Perception Error", "misinterpretation of the qns"]
        ),
    },
    optional={
        "image": st.sampled_from(IMAGES).map(dict),
        "question_type": st.sampled_from([q.value for q in QuestionType]),
    },
).flatmap(lambda obj: st.integers(1, len(obj["steps"])).map(
    lambda step: {**obj, "gt_error_step": step}
))
# what may stand in any field's place
ANYWHERE = [DROP, TEXT, None, True, False, 0, 1, 2.0, 1.5, {}, {"a": 1}, "", [], ["x"]]
# and what may stand in one field's place: the values its own checks are about
IN_PLACE_OF = {
    "id": [],
    "question_text": [7],
    "correct_answer": [],
    "incorrect_answer": [],
    "steps": [["x", 7], [None], [True], "Solve it"],
    "step": [7, None],
    "gt_error_step": [-1, 2, 3, 4, 5],
    "gt_error_category": [" Calculation Error. ", "syntax error", "Calculation"],
    "question_type": ["geometry", "Plane_Geometry", 7],
    "image": ["https://example.org/x.png", {"kind": "url"}],
    "kind": ["base64", "url", "file_path", "inline_base64", 7],
    "value": ["!!not-base64!!", "iVBORw0K\u00e9", "https://x.org/\udc80", "fig\u0000.png",
              TINY_PNG_BASE64],
    "media_type": ["image/tiff", "image/webp", 7],
}


def one_field_mutations(obj: dict):
    """Every copy of obj with one field, one image field or one step replaced or dropped.

    An image field is mutated in a copy given each kind of image in turn.
    """
    for name, own in IN_PLACE_OF.items():
        for value in ANYWHERE + own:
            if name in ("kind", "value", "media_type"):
                targets = [("image", dict(image), name) for image in IMAGES]
            elif name == "step":
                targets = [("steps", list(obj["steps"]), i) for i in range(len(obj["steps"]))]
            else:
                targets = [(None, None, name)]
            for field, inner, key in targets:
                mutated = dict(obj)
                parent = mutated if field is None else inner
                if field is not None:
                    mutated[field] = inner
                original = parent.get(key) if isinstance(parent, dict) else parent[key]
                if value is DROP:
                    if isinstance(parent, dict):
                        parent.pop(key, None)
                    else:
                        del parent[key]
                elif value is TEXT:
                    if not isinstance(original, str):
                        continue
                    parent[key] = Text(original)
                else:
                    parent[key] = value
                yield mutated


def loaded(load, obj) -> tuple:
    try:
        return "sample", load(obj, 7)
    except SchemaError as exc:
        return "error", (exc.line_no, exc.field_path, exc.message)


class TestOnePassLoader:
    @settings(max_examples=60, deadline=None)
    @given(obj=VALID_OBJECTS)
    @example(obj=VALID)
    @example(obj=with_image())
    def test_the_same_sample_or_error_as_the_reference(self, obj):
        for mutated in [obj, *one_field_mutations(obj)]:
            assert loaded(sample_from_dict, mutated) == loaded(
                reference_sample_from_dict, mutated
            ), mutated

    def test_a_str_subclass_is_kept_as_given(self):
        sample = sample_from_dict(dict(VALID, id=Text("q1")))
        assert type(sample.id) is Text
        assert sample == reference_sample_from_dict(dict(VALID, id=Text("q1")))


class TestImageRef:
    @pytest.mark.parametrize("value", ["!!not-base64!!", "iVBORw0K\u00e9"])
    def test_invalid_inline_base64_raises_when_built(self, value):
        # so a sample built in code cannot carry it into a run
        with pytest.raises(ValueError):
            ImageRef(kind=ImageKind.INLINE_BASE64, value=value, media_type="image/png")

    def test_keeps_the_digest_and_never_the_bytes(self, tmp_path):
        data = base64.b64decode(TINY_PNG_BASE64)
        path = tmp_path / "fig.png"
        path.write_bytes(data)
        inline = ImageRef(kind=ImageKind.INLINE_BASE64, value=TINY_PNG_BASE64)
        from_file = ImageRef(kind=ImageKind.FILE_PATH, value=str(path))
        assert inline.sha256 == from_file.sha256 == hashlib.sha256(data).hexdigest()
        for ref in (inline, from_file):
            kept = [getattr(ref, name) for name in ImageRef.__slots__]  # all it holds
            assert not any(isinstance(v, bytes) for v in kept)

    def test_a_hashed_file_ref_equals_a_fresh_one(self, tmp_path):
        path = tmp_path / "fig.png"
        path.write_bytes(b"png")
        hashed = ImageRef(kind=ImageKind.FILE_PATH, value=str(path))
        assert hashed.sha256
        fresh = ImageRef(kind=ImageKind.FILE_PATH, value=str(path))
        assert hashed == fresh and hash(hashed) == hash(fresh)

    def test_a_missing_file_fails_at_first_use_not_when_built(self, tmp_path):
        ref = ImageRef(kind=ImageKind.FILE_PATH, value=str(tmp_path / "gone.png"))
        with pytest.raises(FileNotFoundError):
            ref.sha256


class TestRoundTrip:
    def test_to_dict_omits_absent_optionals(self):
        d = sample_to_dict(sample_from_dict(VALID))
        assert "image" not in d and "question_type" not in d

    def test_dict_round_trip(self):
        obj = with_image()
        obj["question_type"] = "diagram"
        s = sample_from_dict(obj)
        assert sample_from_dict(sample_to_dict(s)) == s

    def test_file_round_trip(self, tmp_path):
        samples = [
            make_sample("a", image=None),
            make_sample("b", question_type=QuestionType.ALGEBRA),
            make_sample(
                "c",
                image=ImageRef(kind=ImageKind.URL, value="https://example.org/i.png"),
            ),
        ]
        path = tmp_path / "d.jsonl"
        write_dataset(samples, path)
        assert load_dataset(path) == samples


class TestScanDataset:
    def write(self, tmp_path, lines):
        path = tmp_path / "data.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def test_blank_lines_skipped(self, tmp_path):
        path = self.write(tmp_path, [json.dumps(VALID), "", "   "])
        samples, findings = scan_dataset(path)
        assert len(samples) == 1 and not findings

    def test_invalid_json_line_is_a_finding(self, tmp_path):
        path = self.write(tmp_path, [json.dumps(VALID), "{not json"])
        samples, findings = scan_dataset(path)
        assert len(samples) == 1
        assert len(findings) == 1
        assert findings[0].line_no == 2
        assert "invalid JSON" in findings[0].message

    def test_duplicate_id_cites_both_lines(self, tmp_path):
        other = dict(VALID, question_text="Other.")
        path = self.write(tmp_path, [json.dumps(VALID), json.dumps(other)])
        samples, findings = scan_dataset(path)
        assert len(samples) == 1
        assert findings[0].line_no == 2
        assert findings[0].field_path == "id"
        assert "first seen line 1" in findings[0].message

    def test_findings_do_not_stop_the_scan(self, tmp_path):
        bad = dict(VALID, id="q2", gt_error_step=9)
        good = dict(VALID, id="q3")
        path = self.write(tmp_path, [json.dumps(VALID), json.dumps(bad), json.dumps(good)])
        samples, findings = scan_dataset(path)
        assert [s.id for s in samples] == ["q1", "q3"]
        assert [f.line_no for f in findings] == [2]

    def test_finding_str_cites_line_and_field_once(self, tmp_path):
        bad = dict(VALID, gt_error_step=0)
        path = self.write(tmp_path, [json.dumps(bad)])
        _, findings = scan_dataset(path)
        text = str(findings[0])
        assert text.startswith("line 1: field 'gt_error_step':")
        assert text.count("line 1") == 1

    def test_load_dataset_raises_first_finding(self, tmp_path):
        bad = dict(VALID, gt_error_step=0)
        path = self.write(tmp_path, [json.dumps(bad), json.dumps(dict(VALID, id="x"))])
        with pytest.raises(SchemaError) as err:
            load_dataset(path)
        assert err.value.line_no == 1
        assert err.value.field_path == "gt_error_step"


    def test_findings_keep_no_traceback(self, tmp_path):
        bad = dict(VALID, gt_error_category="typo", question_type="nope")
        path = self.write(tmp_path, [json.dumps(bad), json.dumps(dict(VALID, id="q2", steps=[]))])
        _, findings = scan_dataset(path)
        assert [f.line_no for f in findings] == [1, 2]
        for finding in findings:
            assert isinstance(finding, SchemaError)
            assert finding.__traceback__ is None
            assert finding.__context__ is None and finding.__cause__ is None

    def test_a_line_that_is_not_utf8_is_a_finding(self, tmp_path):
        path = tmp_path / "data.jsonl"
        good = json.dumps(dict(VALID, question_text="Ünïcode ✓"), ensure_ascii=False)
        path.write_bytes(
            b"\n".join([good.encode(), b"\xff\xfe{}", json.dumps(dict(VALID, id="q3")).encode()])
        )
        samples, findings = scan_dataset(path)
        assert [s.id for s in samples] == ["q1", "q3"]
        assert [str(f) for f in findings] == ["line 2: field '': not valid UTF-8 (byte 0xff)"]

    def test_a_file_starting_with_a_utf16_bom_is_a_finding_on_line_1(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_bytes(json.dumps(VALID).encode("utf-16"))
        with pytest.raises(SchemaError) as err:
            load_dataset(path)
        assert err.value.line_no == 1
        assert "not valid UTF-8" in err.value.message

    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_line_numbers_hold_for_lf_and_crlf(self, tmp_path, newline):
        lines = [json.dumps(VALID), "", "{not json", json.dumps(dict(VALID, gt_error_step=0))]
        path = tmp_path / "data.jsonl"
        path.write_bytes((newline.join(lines) + newline).encode())
        samples, findings = scan_dataset(path)
        assert len(samples) == 1
        assert [f.line_no for f in findings] == [3, 4]

    def test_a_bare_carriage_return_is_whitespace_not_a_line_break(self, tmp_path):
        first = json.dumps(VALID).replace('"id":', '"id":\r', 1)
        path = tmp_path / "data.jsonl"
        path.write_bytes("\n".join([first, json.dumps(dict(VALID, id="q2")), "{not json"]).encode())
        samples, findings = scan_dataset(path)
        assert [s.id for s in samples] == ["q1", "q2"]
        assert [f.line_no for f in findings] == [3]

    @pytest.mark.parametrize(
        "line, message",
        [
            (json.dumps(dict(VALID, question_text="Find x.\udc80")), "lone surrogate \\udc80"),
            ("[" * 100_000 + "]" * 100_000, "invalid JSON"),
            (json.dumps(VALID).replace('"gt_error_step": 2', '"gt_error_step": ' + "1" * 5000),
             "invalid JSON"),
        ],
        ids=["lone-surrogate", "deep-nesting", "5000-digit-integer"],
    )
    def test_a_line_parse_json_rejects_is_a_finding_on_that_line(self, tmp_path, line, message):
        path = self.write(tmp_path, [json.dumps(dict(VALID, id="q0")), line, json.dumps(VALID)])
        samples, findings = scan_dataset(path)
        assert [s.id for s in samples] == ["q0", "q1"]
        assert [(f.line_no, f.field_path) for f in findings] == [(2, "")]
        assert findings[0].message.startswith(message)


# a value, key or array made of these parts; escapes are written out, not decoded
SURROGATES = st.integers(0xD800, 0xDFFF)
LONE_ESCAPE = st.builds(lambda c, upper: (f"\\u{c:04X}" if upper else f"\\u{c:04x}"),
                        SURROGATES, st.booleans())
PAIRED_ESCAPE = st.builds(lambda hi, lo: f"\\u{hi:04x}\\u{lo:04x}",
                          st.integers(0xD800, 0xDBFF), st.integers(0xDC00, 0xDFFF))
PLAIN = st.text(max_size=4).map(lambda t: json.dumps(t)[1:-1])
RAW_SURROGATE = SURROGATES.map(chr)  # only a str can carry one unescaped
STRING_LITERAL = st.lists(
    st.one_of(PLAIN, LONE_ESCAPE, PAIRED_ESCAPE, RAW_SURROGATE), max_size=5
).map(lambda parts: '"' + "".join(parts) + '"')
SPLICED = st.one_of(
    st.builds(lambda k, v: "{" + k + ": " + v + "}", STRING_LITERAL, STRING_LITERAL),
    st.lists(STRING_LITERAL, max_size=4).map(lambda xs: "[" + ", ".join(xs) + "]"),
)
LIMIT = sys.getrecursionlimit()
DEEP = st.builds(
    lambda depth, obj: ('{"a": ' * depth + "1" + "}" * depth) if obj else "[" * depth + "]" * depth,
    st.integers(LIMIT - 50, 3 * LIMIT), st.booleans(),
)
LONG_INT = st.builds(lambda n, sign: sign + "7" * n, st.integers(4000, 5000), st.sampled_from(["", "-"]))
OUTSIDE_TEXT = st.one_of(
    st.binary(max_size=64),
    SPLICED,
    SPLICED.map(lambda t: t.encode("utf-8", "surrogatepass")),  # a raw one is not UTF-8
    DEEP,
    LONG_INT,
    LONG_INT.map(lambda t: ("[" + t + "]").encode()),
)

# what may stand before or after a value: JSON whitespace, whitespace JSON
# does not allow, a byte-order mark, a second value or the start of one
AROUND = st.sampled_from(
    ["", " ", "\t", "\n", "\r\n", " \t\r\n", "\x0b", "\x0c", "\xa0", "\u2028", "\ufeff",
     " 2", "[]", '{"b": 1}', "nul"]
)
JSON_VALUE = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), awkward_text),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(awkward_text, inner, max_size=3)),
    max_leaves=8,
)
VALUE = st.one_of(
    SPLICED,
    DEEP,
    LONG_INT,
    st.sampled_from(["NaN", "Infinity", "-Infinity", "7" * 4300, "-0.0", "1e400", "true"]),
    st.builds(json.dumps, JSON_VALUE, ensure_ascii=st.booleans()),
)
AROUND_A_VALUE = st.builds(lambda lead, value, trail: lead + value + trail, AROUND, VALUE, AROUND)
ANY_INPUT = st.one_of(
    AROUND_A_VALUE,
    AROUND_A_VALUE.map(lambda t: t.encode("utf-8", "surrogatepass")),
    st.builds(lambda t, junk: t.encode("utf-8", "surrogatepass") + junk,
              AROUND_A_VALUE, st.binary(min_size=1, max_size=3)),
    st.binary(max_size=64),
)

_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def reference_parse_json(text: str | bytes):
    """parse_json as it was before its one-scan path: json.loads for every text.

    A str is parsed as a str, so a leading byte-order mark fails as it does
    in bytes; it is encoded only to find a raw surrogate.
    """
    raw = isinstance(text, str) and not text.isascii()
    text = decode_utf8(text) if isinstance(text, bytes) else text
    try:
        if raw:
            text.encode("utf-8")
        value = json.loads(text)
        if _SURROGATE_ESCAPE.search(text):
            json.dumps(value, ensure_ascii=False).encode("utf-8")
    except UnicodeEncodeError as exc:
        code = ord(exc.object[exc.start])
        raise BadText(f"lone surrogate \\u{code:04x}, which UTF-8 cannot encode") from None
    except (ValueError, RecursionError) as exc:
        one_line = isinstance(exc, json.JSONDecodeError) and exc.lineno == 1
        why = f"{exc.msg} (column {exc.colno})" if one_line else exc
        raise BadText(f"invalid JSON: {why}") from None
    return value


def outcome(parse, text) -> tuple[str, str]:
    """What parse makes of text; repr, since NaN is not equal to itself and 1 equals True."""
    try:
        return "value", repr(parse(text))
    except BadText as exc:
        return "BadText", str(exc)


class TestParseJson:
    @settings(max_examples=500, deadline=None)
    @given(ANY_INPUT)
    @example('{"a": 1}\x0b')
    @example('[1]\x0c')
    @example(b'"x"\xc2\xa0')
    @example("2\u2028")
    @example(b'\xef\xbb\xbf{"a": 1}')
    @example('\ufeff{"a": 1}')
    @example(' \t\r\n[1]\n')
    @example('["\\ud83d"]')
    @example(b'{"\\uDC80": 1}')
    @example('["\\ud83d\\ude00"]')
    @example('["x\ud83d"]')
    @example("[NaN, Infinity, -Infinity]")
    @example("[" + "7" * 4301 + "]")
    @example("[" * 100_000 + "]" * 100_000)
    @example(b'{"a": "\xff"}')
    @example("1 2")
    @example(b'{"a": 1}{"b": 2}\n')
    def test_the_same_value_or_message_as_the_reference(self, text):
        assert outcome(parse_json, text) == outcome(reference_parse_json, text)

    @settings(max_examples=300, deadline=None)
    @given(OUTSIDE_TEXT)
    def test_a_value_utf8_can_encode_or_bad_text(self, text):
        try:
            value = parse_json(text)
        except BadText:
            return
        json.dumps(value, ensure_ascii=False).encode("utf-8")

    @pytest.mark.parametrize(
        "text, message",
        [
            (b'{"a": "\xff"}', "not valid UTF-8 (byte 0xff)"),
            ('{"a": "\\ud83d"}', "lone surrogate \\ud83d"),
            ('{"\\uDC80": 1}', "lone surrogate \\udc80"),
            ('["x\ud83d"]', "lone surrogate \\ud83d"),
            ("[" * 100_000 + "]" * 100_000, "invalid JSON"),
            ("1" * 5000, "invalid JSON"),
            ("{broken", "invalid JSON: Expecting property name"),
            ('\ufeff{"a": 1}', "invalid JSON: Unexpected UTF-8 BOM"),
            (b'\xef\xbb\xbf{"a": 1}', "invalid JSON: Unexpected UTF-8 BOM"),
        ],
        ids=["not-utf8", "lone-high", "lone-low-key", "raw-surrogate", "deep", "long-int", "syntax",
             "bom-str", "bom-bytes"],
    )
    def test_rejections_say_why(self, text, message):
        with pytest.raises(BadText) as err:
            parse_json(text)
        assert str(err.value).startswith(message)

    @pytest.mark.parametrize(
        "text, value",
        [
            (b'{"a": "\\ud83d\\ude00"}', {"a": "\U0001f600"}),
            ('"\\\\ud83d"', "\\ud83d"),  # an escaped backslash, then plain letters
            ('["\u00fcber", "\U0001f600"]', ["\u00fcber", "\U0001f600"]),
            ("7" * 4300, int("7" * 4300)),
        ],
        ids=["paired-escape", "escaped-backslash", "non-ascii-str", "longest-int"],
    )
    def test_paired_escapes_and_look_alikes_read(self, text, value):
        assert parse_json(text) == value

    def test_a_syntax_error_names_a_line_only_in_a_multi_line_text(self):
        with pytest.raises(BadText) as one_line:
            parse_json(b'{"a": }')
        with pytest.raises(BadText) as two_lines:
            parse_json('{"a": 1,\n "b" }')  # worded alike from Python 3.10 to 3.13
        assert str(one_line.value) == "invalid JSON: Expecting value (column 7)"
        assert str(two_lines.value).startswith("invalid JSON: Expecting ':' delimiter")
        assert "line 2 column 6" in str(two_lines.value)


class TestDatasetStats:
    def test_twelve_sample_fixture(self, samples_12):
        stats = dataset_stats(samples_12)
        assert stats.total == 12
        assert stats.by_question_type[QuestionType.PLANE_GEOMETRY] == 4
        assert stats.by_question_type[QuestionType.SOLID_GEOMETRY] == 2
        assert stats.by_question_type[QuestionType.DIAGRAM] == 2
        assert stats.by_question_type[QuestionType.ALGEBRA] == 1
        assert stats.by_question_type[QuestionType.MATH_COMMONSENSE] == 1
        assert stats.by_question_type[None] == 2
        assert sum(stats.by_question_type.values()) == stats.total
        assert stats.by_error_category == {
            ErrorCategory.VIS: 2,
            ErrorCategory.CAL: 4,
            ErrorCategory.REAS: 3,
            ErrorCategory.KNOW: 1,
            ErrorCategory.MIS: 2,
        }
        assert stats.step_count_mean == 4.7
        assert stats.step_count_min == 3
        assert stats.step_count_max == 8

    def test_empty_raises(self):
        with pytest.raises(EmptyDataset):
            dataset_stats([])

    def test_means_are_half_up(self):
        samples = [
            make_sample("a", steps=("s",) * 3, image=None),
            make_sample("b", steps=("s",) * 4, image=None),
        ]
        # (3 + 4) / 2 = 3.5 exactly; a float mean already lands on .5
        assert dataset_stats(samples).step_count_mean == 3.5
        samples.append(make_sample("c", steps=("s",) * 4, image=None))
        # 11 / 3 = 3.666... -> 3.7
        assert dataset_stats(samples).step_count_mean == 3.7


@given(
    st.lists(
        st.sampled_from(list(ErrorCategory)), min_size=1, max_size=30
    )
)
def test_category_counts_sum_to_total(cats):
    samples = [
        make_sample(f"s{i}", gt_error_category=c, image=None)
        for i, c in enumerate(cats)
    ]
    stats = dataset_stats(samples)
    assert sum(stats.by_error_category.values()) == len(cats)
    assert stats.total == len(cats)


def mathagent_enums() -> list[type[enum.Enum]]:
    """Every enum with members that a mathagent module defines."""
    modules = [
        importlib.import_module(f"mathagent.{info.name}")
        for info in pkgutil.iter_modules(mathagent.__path__)
    ]
    found = {
        obj for module in modules for obj in vars(module).values()
        if isinstance(obj, type) and issubclass(obj, enum.Enum)
        and obj.__module__ == module.__name__ and len(obj) > 0
    }
    return sorted(found, key=lambda e: e.__name__)


ENUMS = mathagent_enums()


class TestIdentityEnums:
    """Every mathagent enum member hashes by identity, and keys dicts and sets as before."""

    def test_every_enum_is_found(self):
        assert {e.__name__ for e in ENUMS} == {
            "AblationMode", "ErrorCategory", "FinishReason", "ImageKind", "QuestionType",
            "Representation", "TranscriptSource",
        }

    @pytest.mark.parametrize("members", ENUMS, ids=lambda e: e.__name__)
    def test_members_hash_by_identity_and_survive_copies(self, members):
        assert issubclass(members, IdentityEnum)
        for member in members:
            assert hash(member) == object.__hash__(member), member
            assert copy.copy(member) is member
            assert copy.deepcopy(member) is member
            assert pickle.loads(pickle.dumps(member)) is member
            assert member in {member}
            assert member._value_ == member.value
        keyed = {member: member.name for member in members}
        assert all(keyed[member] == member.name for member in members)
        assert {members(member.value) for member in members} == set(members)
