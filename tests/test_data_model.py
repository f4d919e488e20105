"""Dataset schema: parsing, validation findings, round-trip, statistics."""

import json

import pytest
from hypothesis import given, strategies as st

from conftest import TINY_PNG_BASE64, make_sample
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
        with pytest.raises(SchemaError) as err:
            sample_from_dict(with_image(value="!!not-base64!!"))
        assert err.value.field_path == "image.value"

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
