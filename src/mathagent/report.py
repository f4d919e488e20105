"""Report rendering: per-run CSV/Markdown tables and the ablation grid.

Cells show 2 decimals; improvement deltas against a baseline show 1
signed decimal as a superscript in the Markdown table. Under the
Markdown table, a row with failed samples gets one line saying how many.
"""

from __future__ import annotations

import csv
import io
from decimal import Decimal
from typing import Iterable, Mapping, NamedTuple, Sequence

from .data_model import BuiltByNew, ErrorCategory, Sample
from .metrics import Prediction, average_score, improvement_delta, score_run
from .rounding import format_signed, round_half_up

_CATEGORY_COLUMNS = {c.value.lower(): c for c in ErrorCategory}
COLUMNS = ("step", *_CATEGORY_COLUMNS, "overall", "average")
CSV_HEADER = ",".join(("model", *COLUMNS))

_MD_TITLES = {
    "step": "STEP", **{column: c.value for column, c in _CATEGORY_COLUMNS.items()},
    "overall": "Overall", "average": "Average",
}

# phase tag -> ablation.csv call-count column
CALL_COLUMNS = tuple(
    (tag, "calls_" + tag.replace(".", "_")) for tag in ("phase1", "phase2.type", "phase2", "phase3")
)


class _RowFields(NamedTuple):
    model: str
    values: dict[str, Decimal | None]
    deltas: dict[str, Decimal]
    failures: int  # the samples of n_samples that failed, each scored as a miss
    n_samples: int


class ReportRow(BuiltByNew, _RowFields):
    """One report row; deltas left out (or None) is a new empty dict, never a shared one."""

    __slots__ = ()

    def __new__(cls, model, values, deltas=None, failures=0, n_samples=0):
        deltas = {} if deltas is None else deltas
        return tuple.__new__(cls, (model, values, deltas, failures, n_samples))


def build_report_row(
    predictions: Iterable[Prediction], samples: list[Sample], model: str
) -> ReportRow:
    """Score a run once and round every cell at this, and only this, boundary.

    The row also states how many of the samples failed, as that pass
    counted them, for render_markdown to note.
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
    return ReportRow(model, values, failures=scored.failures, n_samples=scored.n)


def attach_deltas(row: ReportRow, baseline: ReportRow) -> ReportRow:
    """Deltas of row minus baseline on the rounded cell values."""
    deltas = {}
    for column in COLUMNS:
        ours = row.values.get(column)
        base = baseline.values.get(column)
        if ours is not None and base is not None:
            deltas[column] = improvement_delta(base, ours)
    return row._replace(deltas=deltas)


def _cell(value: Decimal | None) -> str:
    return "" if value is None else str(value)


def render_csv(rows: Iterable[ReportRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER.split(","))
    for row in rows:
        writer.writerow([row.model] + [_cell(row.values.get(c)) for c in COLUMNS])
    return buf.getvalue()


def _label_cell(label: str) -> str:
    """label as one Markdown table cell: a pipe escaped, a line break a space."""
    return label.replace("|", "\\|").replace("\r", " ").replace("\n", " ")


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
        lines.append("| " + _label_cell(row.model) + " | " + " | ".join(cells) + " |")
    notes = [
        f"{_label_cell(row.model) + ': ' if len(rows) > 1 else ''}{row.failures} of "
        f"{row.n_samples} samples failed; a failed sample is scored as wrong"
        for row in rows
        if row.failures
    ]
    if notes:  # after a blank line, which ends the table
        lines += ["", *notes]
    return "\n".join(lines) + "\n"


def render_ablation_csv(entries: Iterable[tuple[ReportRow, Mapping[str, int]]]) -> str:
    """Mode-by-metric grid with per-phase backend call counts; each row's label is its mode."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["mode"] + list(COLUMNS) + [column for _, column in CALL_COLUMNS]
    )
    for row, calls in entries:
        writer.writerow(
            [row.model]
            + [_cell(row.values.get(c)) for c in COLUMNS]
            + [str(calls.get(tag, 0)) for tag, _ in CALL_COLUMNS]
        )
    return buf.getvalue()
