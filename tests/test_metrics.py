"""Scoring arithmetic: exact fractions, brute-force agreement, identities."""

import random
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import load_corpus, make_sample
from mathagent import (
    AlignmentError,
    ErrorCategory,
    KeyMismatch,
    UNPARSED,
    average_score,
    improvement_delta,
    mean_delta,
    score_run,
    weighted_overall,
)
from mathagent.rounding import round_half_up

CATEGORIES = list(ErrorCategory)


@dataclass
class Pred:
    sample_id: str
    predicted_step: int | None
    predicted_category: ErrorCategory | None


def random_run(rng: random.Random, n: int):
    """A labeled dataset plus predictions with parse failures mixed in."""
    samples, preds = [], []
    for i in range(n):
        n_steps = rng.randint(3, 12)
        sample = make_sample(
            sample_id=f"r{i}",
            steps=tuple(f"do part {j}" for j in range(n_steps)),
            gt_error_step=rng.randint(1, n_steps),
            gt_error_category=rng.choice(CATEGORIES),
            image=None,
        )
        roll = rng.random()
        if roll < 0.70:
            pred = Pred(sample.id, rng.randint(1, n_steps), rng.choice(CATEGORIES))
        elif roll < 0.80:
            pred = Pred(sample.id, rng.randint(1, n_steps), None)
        elif roll < 0.90:
            pred = Pred(sample.id, None, rng.choice(CATEGORIES))
        else:
            pred = Pred(sample.id, None, None)
        samples.append(sample)
        preds.append(pred)
    rng.shuffle(preds)
    return samples, preds


def brute_force(samples, preds):
    """Deliberately naive re-computation used as the scoring oracle."""
    by_id = {p.sample_id: p for p in preds}
    step_hits = 0
    per_cat_hits = {}
    per_cat_totals = {}
    for s in samples:
        p = by_id[s.id]
        if p.predicted_step == s.gt_error_step:
            step_hits += 1
        per_cat_totals[s.gt_error_category] = per_cat_totals.get(s.gt_error_category, 0) + 1
        if p.predicted_category == s.gt_error_category:
            per_cat_hits[s.gt_error_category] = per_cat_hits.get(s.gt_error_category, 0) + 1
    n = len(samples)
    step = Fraction(100 * step_hits, n)
    per_cat = {
        c: Fraction(100 * per_cat_hits.get(c, 0), t) for c, t in per_cat_totals.items()
    }
    overall = Fraction(100 * sum(per_cat_hits.values()), n)
    return step, per_cat, overall


class TestAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(25))
    def test_random_runs_agree_exactly(self, seed):
        rng = random.Random(1000 + seed)
        samples, preds = random_run(rng, rng.randint(1, 60))
        step, per_cat, overall = brute_force(samples, preds)
        assert score_run(preds, samples).step_accuracy() == step
        assert score_run(preds, samples).category_accuracy() == per_cat
        assert score_run(preds, samples).overall_micro() == overall

    @pytest.mark.parametrize("seed", range(10))
    def test_micro_equals_weighted_identity(self, seed):
        rng = random.Random(2000 + seed)
        samples, preds = random_run(rng, rng.randint(1, 80))
        per_cat = score_run(preds, samples).category_accuracy()
        counts = score_run(preds, samples).category_totals
        assert score_run(preds, samples).overall_micro() == weighted_overall(per_cat, counts)


class TestScoreRun:
    def test_confusion_matrix_accounting(self):
        rng = random.Random(7)
        samples, preds = random_run(rng, 50)
        scored = score_run(preds, samples)
        assert sum(scored.confusion.values()) == 50
        for cat, total in scored.category_totals.items():
            col = sum(v for (_, gt), v in scored.confusion.items() if gt == cat.value)
            assert col == total

    def test_unparsed_predictions_land_in_their_row(self):
        samples = [make_sample(sample_id="a", image=None)]
        preds = [Pred("a", None, None)]
        scored = score_run(preds, samples)
        assert scored.confusion == {(UNPARSED, ErrorCategory.CAL.value): 1}
        assert scored.step_hits == 0
        assert scored.category_hits == {}

    def test_none_step_never_scores_even_against_none(self):
        samples = [make_sample(sample_id="a", gt_error_step=1, image=None)]
        assert score_run([Pred("a", None, ErrorCategory.CAL)], samples).step_accuracy() == 0

    def test_duplicate_prediction_rejected(self):
        samples = [make_sample(sample_id="a", image=None)]
        preds = [Pred("a", 1, None), Pred("a", 2, None)]
        with pytest.raises(AlignmentError):
            score_run(preds, samples)

    def test_missing_and_extra_ids_rejected(self):
        samples = [make_sample(sample_id="a", image=None)]
        with pytest.raises(AlignmentError) as err:
            score_run([Pred("b", 1, None)], samples)
        assert "missing" in str(err.value)
        assert "without samples" in str(err.value)

    def test_empty_dataset_rejected(self):
        with pytest.raises(AlignmentError):
            score_run([], [])


class TestWeightedOverall:
    def test_reference_arithmetic(self):
        data = load_corpus("reference_rows.json")
        counts = data["category_counts"]
        by_model = {row["model"]: row for row in data["rows"]}

        def overall_of(model):
            row = by_model[model]
            cells = {c: row[c] for c in ("vis", "cal", "reas", "know", "mis")}
            return round_half_up(weighted_overall(cells, counts), 2)

        assert overall_of("GPT-4o") == Decimal("53.11")
        assert overall_of("Gemini-Pro-1.5") == Decimal("44.52")
        assert overall_of("Human") == Decimal("72.23")

    def test_key_mismatch_rejected(self):
        with pytest.raises(KeyMismatch):
            weighted_overall({"a": 50}, {"b": 1})

    def test_empty_maps_rejected(self):
        with pytest.raises(KeyMismatch):
            weighted_overall({}, {})

    def test_nonpositive_total_rejected(self):
        with pytest.raises(KeyMismatch):
            weighted_overall({"a": 50}, {"a": 0})

    def test_equal_counts_reduce_to_plain_mean(self):
        cells = {"a": Fraction(10), "b": Fraction(30)}
        assert weighted_overall(cells, {"a": 3, "b": 3}) == Fraction(20)

    @given(
        st.dictionaries(
            st.sampled_from([c.value for c in CATEGORIES]),
            st.tuples(st.fractions(0, 100), st.integers(1, 500)),
            min_size=1,
        )
    )
    @settings(max_examples=80)
    def test_bounds_and_permutation_invariance(self, table):
        cells = {k: v[0] for k, v in table.items()}
        counts = {k: v[1] for k, v in table.items()}
        result = weighted_overall(cells, counts)
        assert min(cells.values()) <= result <= max(cells.values())
        reordered = dict(reversed(list(cells.items())))
        assert weighted_overall(reordered, counts) == result


class TestReportNumbers:
    def test_average_is_half_up_at_two_decimals(self):
        assert average_score("81.60", "72.23") == Decimal("76.92")
        assert average_score(Fraction(50), Fraction(50)) == Decimal("50.00")

    def test_average_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            average_score(-1, 50)
        with pytest.raises(ValueError):
            average_score(50, 101)

    def test_delta_is_signed_one_decimal(self):
        assert improvement_delta("55.10", "59.50") == Decimal("4.4")
        assert improvement_delta("64.90", "63.90") == Decimal("-1.0")
        assert improvement_delta("36.60", "36.60") == Decimal("0.0")

    def test_mean_delta_reproduces_step_improvement(self):
        steps = ["4.4", "5.9", "4.9", "8.0", "1.9", "5.8"]
        assert sum(Fraction(s) for s in steps) == Fraction("30.9")
        assert mean_delta(steps) == Decimal("5.2")

    def test_mean_delta_rejects_empty(self):
        with pytest.raises(ValueError):
            mean_delta([])
