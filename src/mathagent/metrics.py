"""Scoring for the two subtasks: error-step detection and categorization.

All accuracies are exact Fractions expressed in percent; rounding happens
only when a report is rendered. The count-weighted (micro) overall equals
weighted_overall applied to per-category accuracies and counts, as an
algebraic identity, because no floating point enters the arithmetic.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Protocol

from .data_model import ErrorCategory, Sample
from .rounding import as_fraction, round_half_up


class AlignmentError(ValueError):
    """Predictions and ground truth do not cover the same sample ids."""


class KeyMismatch(ValueError):
    """Per-category accuracies and counts disagree on the category set."""


class Prediction(Protocol):
    sample_id: str
    predicted_step: int | None
    predicted_category: ErrorCategory | None
    failure: str | None  # why the sample failed, or None


# confusion-matrix row label for samples whose final parse failed
UNPARSED = "unparsed"


class ScoredRun(NamedTuple):
    """One scoring pass; category_accuracy leaves out categories the samples lack."""

    n: int
    failures: int  # the samples whose prediction has its failure set
    step_hits: int
    category_hits: dict[ErrorCategory, int]
    category_totals: dict[ErrorCategory, int]
    confusion: dict[tuple[str, str], int]  # (predicted row, ground-truth col)

    def step_accuracy(self) -> Fraction:
        return Fraction(100 * self.step_hits, self.n)

    def category_accuracy(self) -> dict[ErrorCategory, Fraction]:
        return {
            cat: Fraction(100 * self.category_hits.get(cat, 0), total)
            for cat, total in self.category_totals.items()
        }

    def overall_micro(self) -> Fraction:
        hits = sum(self.category_hits.get(cat, 0) for cat in self.category_totals)
        return Fraction(100 * hits, self.n)


def _align(predictions: Iterable[Prediction], samples: list[Sample]):
    by_id: dict[str, Prediction] = {}
    for pred in predictions:
        if pred.sample_id in by_id:
            raise AlignmentError(f"duplicate prediction for sample {pred.sample_id!r}")
        by_id[pred.sample_id] = pred
    sample_ids = {s.id for s in samples}
    missing = sample_ids - by_id.keys()
    extra = by_id.keys() - sample_ids
    if missing or extra:
        parts = []
        if missing:
            parts.append(f"missing predictions for {sorted(missing)[:5]}")
        if extra:
            parts.append(f"predictions without samples {sorted(extra)[:5]}")
        raise AlignmentError("; ".join(parts))
    return by_id


def score_run(predictions: Iterable[Prediction], samples: list[Sample]) -> ScoredRun:
    """Count hits per subtask and failed samples, and fill the 6x5 confusion matrix.

    A sample with no parsed prediction scores a miss on both subtasks and
    lands in the 'unparsed' confusion row. failures counts the predictions with a failure.
    """
    if not samples:
        raise AlignmentError("no ground-truth samples")
    by_id = _align(predictions, samples)
    step_hits = failures = 0
    cat_hits: dict[ErrorCategory, int] = {}
    cat_totals: dict[ErrorCategory, int] = {}
    confusion: dict[tuple[str, str], int] = {}
    for sample in samples:
        pred = by_id[sample.id]
        gt_cat = sample.gt_error_category
        failures += pred.failure is not None
        cat_totals[gt_cat] = cat_totals.get(gt_cat, 0) + 1
        if pred.predicted_step is not None and pred.predicted_step == sample.gt_error_step:
            step_hits += 1
        if pred.predicted_category is not None and pred.predicted_category is gt_cat:
            cat_hits[gt_cat] = cat_hits.get(gt_cat, 0) + 1
        row = pred.predicted_category._value_ if pred.predicted_category else UNPARSED
        key = (row, gt_cat._value_)  # _value_: the stored value, with no Python property call
        confusion[key] = confusion.get(key, 0) + 1
    return ScoredRun(
        n=len(samples),
        failures=failures,
        step_hits=step_hits,
        category_hits=cat_hits,
        category_totals=cat_totals,
        confusion=confusion,
    )


def weighted_overall(per_category: Mapping, counts: Mapping) -> Fraction:
    """Count-weighted mean of per-category accuracies.

    Keys must coincide between the two maps. Inputs may be Fractions,
    Decimals, ints, floats, or numeric strings; floats are read as their
    decimal literal.
    """
    if set(per_category.keys()) != set(counts.keys()):
        raise KeyMismatch(
            f"category sets differ: {sorted(map(str, per_category))} "
            f"vs {sorted(map(str, counts))}"
        )
    if not per_category:
        raise KeyMismatch("no categories given")
    total = sum(counts.values())
    if total <= 0:
        raise KeyMismatch("counts must sum to a positive number")
    acc = sum(as_fraction(per_category[k]) * counts[k] for k in per_category)
    return acc / total


def average_score(step, overall) -> Decimal:
    """Mean of step accuracy and overall accuracy, 2 decimals, half-up."""
    for value, name in ((step, "step"), (overall, "overall")):
        frac = as_fraction(value)
        if not 0 <= frac <= 100:
            raise ValueError(f"{name} accuracy {value} outside [0, 100]")
    return round_half_up((as_fraction(step) + as_fraction(overall)) / 2, 2)


def improvement_delta(base, enhanced) -> Decimal:
    """Signed 1-decimal delta of enhanced minus base."""
    return round_half_up(as_fraction(enhanced) - as_fraction(base), 1)


def mean_delta(deltas: Iterable) -> Decimal:
    """1-decimal mean of a column of deltas (an average-improvement cell)."""
    values = [as_fraction(d) for d in deltas]
    if not values:
        raise ValueError("no deltas to average")
    return round_half_up(sum(values) / len(values), 1)
