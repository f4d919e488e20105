"""Report rendering: per-run CSV/Markdown tables and the ablation grid.

Cells show 2 decimals; improvement deltas against a baseline show 1
signed decimal as a superscript in the Markdown table. Under the
Markdown table, a row with failed samples gets one line saying how many.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field, replace
from decimal import Decimal
from typing import Iterable, Mapping, Sequence

from .data_model import ErrorCategory, Sample
from .metrics import Prediction, average_score, improvement_delta, score_run
from .rounding import format_signed, round_half_up

COLUMNS = ("step", "vis", "cal", "reas", "know", "mis", "overall", "average")
CSV_HEADER = "model,step,vis,cal,reas,know,mis,overall,average"

_MD_TITLES = {
    "step": "STEP", "vis": "VIS", "cal": "CAL", "reas": "REAS",
    "know": "KNOW", "mis": "MIS", "overall": "Overall", "average": "Average",
}

_CATEGORY_COLUMNS = {
    "vis": ErrorCategory.VIS,
    "cal": ErrorCategory.CAL,
    "reas": ErrorCategory.REAS,
    "know": ErrorCategory.KNOW,
    "mis": ErrorCategory.MIS,
}

# phase tag -> ablation.csv call-count column
CALL_COLUMNS = (
    ("phase1", "calls_phase1"),
    ("phase2.type", "calls_phase2_type"),
    ("phase2", "calls_phase2"),
    ("phase3", "calls_phase3"),
)


@dataclass
class ReportRow:
    model: str
    values: dict[str, Decimal | None]
    deltas: dict[str, Decimal] = field(default_factory=dict)
    failures: int = 0  # the samples of n_samples that failed, each scored as a miss
    n_samples: int = 0


def build_report_row(
    predictions: Iterable[Prediction], samples: list[Sample], model: str, failures: int = 0
) -> ReportRow:
    """Score a run and round every cell at this, and only this, boundary.

    failures is how many of the samples failed, for render_markdown to state.
    """
    scored = score_run(predictions, samples)
    step = scored.step_accuracy()
    cats = scored.category_accuracy()
    overall = scored.overall_micro()
    values: dict[str, Decimal | None] = {"step": round_half_up(step, 2)}
    for column, category in _CATEGORY_COLUMNS.items():
        values[column] = round_half_up(cats[category], 2) if category in cats else None
    values["overall"] = round_half_up(overall, 2)
    # the average is taken over unrounded inputs, then rounded once
    values["average"] = average_score(step, overall)
    return ReportRow(model, values, failures=failures, n_samples=len(samples))


def attach_deltas(row: ReportRow, baseline: ReportRow) -> ReportRow:
    """Deltas of row minus baseline on the rounded cell values."""
    deltas = {}
    for column in COLUMNS:
        ours = row.values.get(column)
        base = baseline.values.get(column)
        if ours is not None and base is not None:
            deltas[column] = improvement_delta(base, ours)
    return replace(row, deltas=deltas)


def _cell(value: Decimal | None) -> str:
    return "" if value is None else str(value)


def render_csv(rows: Iterable[ReportRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER.split(","))
    for row in rows:
        writer.writerow([row.model] + [_cell(row.values.get(c)) for c in COLUMNS])
    return buf.getvalue()


def render_markdown(rows: Sequence[ReportRow]) -> str:
    """The table, then a line for each row with failures, naming the row when there are two."""
    header = "| Model | " + " | ".join(_MD_TITLES[c] for c in COLUMNS) + " |"
    rule = "|" + "---|" * (len(COLUMNS) + 1)
    lines = [header, rule]
    for row in rows:
        cells = []
        for column in COLUMNS:
            value = row.values.get(column)
            if value is None:
                cells.append("-")
                continue
            text = str(value)
            if column in row.deltas:
                text += f" <sup>{format_signed(row.deltas[column], 1)}</sup>"
            cells.append(text)
        lines.append("| " + row.model + " | " + " | ".join(cells) + " |")
    notes = [
        f"{row.model + ': ' if len(rows) > 1 else ''}{row.failures} of {row.n_samples} samples "
        "failed; a failed sample is scored as wrong"
        for row in rows
        if row.failures
    ]
    if notes:  # after a blank line, which ends the table
        lines += ["", *notes]
    return "\n".join(lines) + "\n"


def render_ablation_csv(
    entries: Iterable[tuple[str, ReportRow, Mapping[str, int]]]
) -> str:
    """Mode-by-metric grid with per-phase backend call counts."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["mode"] + list(COLUMNS) + [column for _, column in CALL_COLUMNS]
    )
    for mode_name, row, calls in entries:
        writer.writerow(
            [mode_name]
            + [_cell(row.values.get(c)) for c in COLUMNS]
            + [str(calls.get(tag, 0)) for tag, _ in CALL_COLUMNS]
        )
    return buf.getvalue()
