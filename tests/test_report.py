"""Report rows and rendered CSV/Markdown/ablation outputs."""

import csv
import io
import json
import re
from dataclasses import dataclass
from decimal import Decimal

from conftest import FIXTURES, make_sample
from mathagent import report
from mathagent import (
    CALL_COLUMNS,
    COLUMNS,
    CSV_HEADER,
    ErrorCategory,
    ReportRow,
    attach_deltas,
    build_report_row,
    render_ablation_csv,
    render_csv,
    render_markdown,
)


@dataclass
class Pred:
    sample_id: str
    predicted_step: int | None
    predicted_category: ErrorCategory | None
    failure: str | None = None


def small_run():
    samples = [
        make_sample(sample_id="a", gt_error_step=1, gt_error_category=ErrorCategory.CAL, image=None),
        make_sample(sample_id="b", gt_error_step=2, gt_error_category=ErrorCategory.CAL, image=None),
        make_sample(sample_id="c", gt_error_step=1, gt_error_category=ErrorCategory.VIS, image=None),
        make_sample(sample_id="d", gt_error_step=2, gt_error_category=ErrorCategory.REAS, image=None),
    ]
    preds = [
        Pred("a", 1, ErrorCategory.CAL),
        Pred("b", 2, ErrorCategory.VIS),
        Pred("c", 1, ErrorCategory.VIS),
        Pred("d", 1, None),
    ]
    return samples, preds


def reference_rows():
    with open(FIXTURES / "reference_rows.json", encoding="utf-8") as fh:
        data = json.load(fh)
    rows = []
    for row in data["rows"]:
        values = {c: Decimal(row[c]) for c in COLUMNS}
        deltas = {c: Decimal(d) for c, d in row.get("printed_deltas", {}).items()}
        rows.append(ReportRow(model=row["model"], values=values, deltas=deltas))
    return rows


class TestBuildReportRow:
    def test_cells_from_small_run(self):
        samples, preds = small_run()
        row = build_report_row(preds, samples, "demo")
        assert row.model == "demo"
        assert row.values["step"] == Decimal("75.00")
        assert row.values["cal"] == Decimal("50.00")
        assert row.values["vis"] == Decimal("100.00")
        assert row.values["reas"] == Decimal("0.00")
        assert row.values["know"] is None
        assert row.values["mis"] is None
        assert row.values["overall"] == Decimal("50.00")
        assert row.values["average"] == Decimal("62.50")
        assert row.deltas == {}

    def test_scores_the_run_once(self, monkeypatch):
        samples, preds = small_run()
        calls = []
        original = report.score_run
        monkeypatch.setattr(
            report, "score_run", lambda *args: calls.append(args) or original(*args)
        )
        build_report_row(iter(preds), samples, "demo")
        assert len(calls) == 1

    def test_counts_the_failed_samples(self):
        samples, preds = small_run()
        preds[3] = Pred("d", None, None, "phase3: BackendError: no reply")
        row = build_report_row(iter(preds), samples, "demo")
        assert row.failures == 1
        assert row.n_samples == len(samples)

    def test_every_present_cell_has_two_decimals(self):
        samples, preds = small_run()
        row = build_report_row(preds, samples, "demo")
        for value in row.values.values():
            if value is not None:
                assert value == value.quantize(Decimal("0.01"))


class TestAttachDeltas:
    def test_deltas_on_rounded_cells(self):
        base = ReportRow("base", {c: Decimal("50.00") for c in COLUMNS})
        ours = ReportRow("ours", {c: Decimal("54.40") for c in COLUMNS})
        combined = attach_deltas(ours, base)
        assert combined.deltas == {c: Decimal("4.4") for c in COLUMNS}
        assert combined.values == ours.values
        assert combined.model == "ours"

    def test_absent_cells_get_no_delta(self):
        base = ReportRow("base", {"step": Decimal("50.00"), "know": None})
        ours = ReportRow("ours", {"step": Decimal("49.00"), "know": Decimal("10.00")})
        combined = attach_deltas(ours, base)
        assert combined.deltas == {"step": Decimal("-1.0")}


class TestRenderCsv:
    def test_header_and_rows(self):
        row = ReportRow(
            "demo",
            {
                "step": Decimal("75.00"), "vis": Decimal("100.00"),
                "cal": Decimal("50.00"), "reas": Decimal("0.00"),
                "know": None, "mis": None,
                "overall": Decimal("50.00"), "average": Decimal("62.50"),
            },
        )
        expected = (
            "model,step,vis,cal,reas,know,mis,overall,average\n"
            "demo,75.00,100.00,50.00,0.00,,,50.00,62.50\n"
        )
        assert render_csv([row]) == expected

    def test_header_constant_matches_renderer(self):
        assert render_csv([]).strip() == CSV_HEADER

    def test_model_names_with_commas_are_quoted(self):
        row = ReportRow("a, b", {c: Decimal("1.00") for c in COLUMNS})
        reader = csv.reader(io.StringIO(render_csv([row])))
        records = list(reader)
        assert records[1][0] == "a, b"


class TestRenderMarkdown:
    def test_golden_reference_table(self):
        golden = (FIXTURES / "golden_report.md").read_text(encoding="utf-8")
        assert render_markdown(reference_rows()) == golden

    def test_absent_cell_renders_as_dash(self):
        row = ReportRow("demo", {"step": Decimal("75.00"), "know": None})
        text = render_markdown([row])
        line = text.splitlines()[2]
        assert "| 75.00 |" in line
        assert "| - |" in line

    def test_delta_superscript_format(self):
        row = ReportRow(
            "demo", {"step": Decimal("59.50")}, {"step": Decimal("4.4")}
        )
        assert "59.50 <sup>+4.4</sup>" in render_markdown([row])

    def test_zero_delta_keeps_plus_sign(self):
        row = ReportRow(
            "demo", {"mis": Decimal("36.60")}, {"mis": Decimal("0.0")}
        )
        assert "36.60 <sup>+0.0</sup>" in render_markdown([row])

    def test_a_label_stays_in_its_one_cell(self):
        rows = [ReportRow(label, {"step": Decimal("75.00")}) for label in ("gpt|4o", "a\nb", "c\r\nd")]
        lines = render_markdown(rows).splitlines()
        assert len(lines) == 2 + len(rows)
        for line in lines:  # a \| is a pipe inside a cell, not a cell border
            assert len(re.findall(r"(?<!\\)\|", line)) == len(COLUMNS) + 2
        assert [line.split(" | ")[0] for line in lines[2:]] == ["| gpt\\|4o", "| a b", "| c  d"]

    def test_a_label_stays_on_its_one_failure_line(self):
        rows = [
            ReportRow("a\nb", {"step": Decimal("50.00")}, failures=1, n_samples=2),
            ReportRow("c", {"step": Decimal("50.00")}),
        ]
        assert render_markdown(rows).splitlines()[len(rows) + 2:] == [
            "", "a b: 1 of 2 samples failed; a failed sample is scored as wrong"
        ]

    def test_ends_with_single_newline(self):
        text = render_markdown(reference_rows())
        assert text.endswith("|\n")
        assert not text.endswith("\n\n")


class TestRenderAblationCsv:
    def test_grid_with_call_counts(self):
        row = ReportRow("full", {c: Decimal("25.00") for c in COLUMNS})
        calls = {"phase1": 3, "phase2": 2, "phase3": 4}
        text = render_ablation_csv([(row, calls)])
        lines = text.splitlines()
        assert lines[0] == (
            "mode,step,vis,cal,reas,know,mis,overall,average,"
            "calls_phase1,calls_phase2_type,calls_phase2,calls_phase3"
        )
        assert lines[1] == "full,25.00,25.00,25.00,25.00,25.00,25.00,25.00,25.00,3,0,2,4"

    def test_call_column_order_is_pipeline_order(self):
        assert [tag for tag, _ in CALL_COLUMNS] == [
            "phase1", "phase2.type", "phase2", "phase3",
        ]
