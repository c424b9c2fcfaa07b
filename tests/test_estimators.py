"""Unit tests for ATE/CATE estimation with backdoor adjustment."""

import numpy as np
import pytest

from repro.causal import (
    CATEEstimator,
    EffectEstimate,
    estimate_ate,
    estimate_cate,
    ipw_ate,
    naive_difference_in_means,
    overlap_holds,
    check_positivity,
)
from repro.dataframe import Column, Pattern, Table
from repro.graph import CausalDAG


class TestEffectEstimate:
    def test_validity(self):
        ok = EffectEstimate(1.0, 0.1, 0.01, 50, 50)
        assert ok.is_valid()
        assert ok.is_significant()
        assert ok.n_units == 100

    def test_undefined(self):
        bad = EffectEstimate.undefined(5, 0)
        assert not bad.is_valid()
        assert not bad.is_significant()


class TestAssumptions:
    def test_overlap(self):
        assert overlap_holds(np.array([True, False]))
        assert not overlap_holds(np.array([True, True]))
        assert not overlap_holds(np.array([False, False]))

    def test_positivity_min_size(self):
        mask = np.array([True] * 3 + [False] * 20)
        assert check_positivity(mask, min_group_size=3)
        assert not check_positivity(mask, min_group_size=5)


class TestNaive:
    def test_difference_in_means(self):
        outcome = np.array([1.0, 2.0, 5.0, 6.0])
        treated = np.array([False, False, True, True])
        estimate = naive_difference_in_means(outcome, treated)
        assert estimate.value == pytest.approx(4.0)
        assert estimate.estimator == "naive"

    def test_no_control_group(self):
        estimate = naive_difference_in_means(np.array([1.0, 2.0]),
                                             np.array([True, True]))
        assert not estimate.is_valid()

    def test_ignores_missing_outcomes(self):
        outcome = np.array([1.0, np.nan, 5.0, 7.0])
        treated = np.array([False, False, True, True])
        estimate = naive_difference_in_means(outcome, treated)
        assert estimate.value == pytest.approx(5.0)


class TestAdjustment:
    def test_adjusted_estimate_removes_confounding(self, confounded_table, confounded_dag):
        estimator = CATEEstimator(confounded_table, "Y", dag=confounded_dag)
        adjusted = estimator.estimate(Pattern.of(("T", "=", 1)))
        naive = naive_difference_in_means(
            confounded_table.column("Y").values,
            confounded_table.column("T").values == 1)
        assert adjusted.value == pytest.approx(5.0, abs=0.3)
        # The naive estimate is biased upward by the confounder Z.
        assert naive.value > adjusted.value + 0.3

    def test_cate_on_subpopulation(self, confounded_table, confounded_dag):
        effect = estimate_cate(confounded_table, Pattern.of(("T", "=", 1)), "Y",
                               subpopulation=Pattern.of(("G", "=", "even")),
                               dag=confounded_dag)
        assert effect.is_valid()
        assert effect.n_units <= 1000
        assert effect.value == pytest.approx(5.0, abs=0.5)

    def test_ate_helper(self, confounded_table, confounded_dag):
        effect = estimate_ate(confounded_table, Pattern.of(("T", "=", 1)), "Y",
                              dag=confounded_dag)
        assert effect.is_valid()

    def test_without_dag_no_adjustment(self, confounded_table):
        estimator = CATEEstimator(confounded_table, "Y", dag=None)
        assert estimator.adjustment_set(("T",)) == []

    def test_minimal_adjustment_strategy(self, confounded_table, confounded_dag):
        estimator = CATEEstimator(confounded_table, "Y", dag=confounded_dag,
                                  adjustment="minimal")
        assert estimator.adjustment_set(("T",)) == ["Z"]

    def test_unknown_adjustment_rejected(self, confounded_table):
        with pytest.raises(ValueError):
            CATEEstimator(confounded_table, "Y", adjustment="magic")

    def test_overlap_violation_returns_undefined(self, confounded_table, confounded_dag):
        estimator = CATEEstimator(confounded_table, "Y", dag=confounded_dag)
        # Every tuple satisfies Z >= 0, so there is no control group.
        estimate = estimator.estimate(Pattern.of(("Y", ">", -1e12)))
        assert not estimate.is_valid()

    def test_min_group_size_enforced(self, confounded_table, confounded_dag):
        estimator = CATEEstimator(confounded_table, "Y", dag=confounded_dag,
                                  min_group_size=10_000)
        estimate = estimator.estimate(Pattern.of(("T", "=", 1)))
        assert not estimate.is_valid()

    def test_sampling_estimate_close_to_full(self, confounded_table, confounded_dag):
        full = CATEEstimator(confounded_table, "Y", dag=confounded_dag)
        sampled = CATEEstimator(confounded_table, "Y", dag=confounded_dag,
                                sample_size=800, seed=1)
        t = Pattern.of(("T", "=", 1))
        assert sampled.estimate(t).value == pytest.approx(full.estimate(t).value,
                                                          abs=0.5)

    def test_missing_outcomes_are_dropped(self, confounded_dag):
        table = Table([
            Column("Z", [0, 1] * 50, numeric=False),
            Column("T", [0, 0, 1, 1] * 25, numeric=False),
            Column("Y", [float(i) if i % 3 else None for i in range(100)], numeric=True),
        ])
        estimator = CATEEstimator(table, "Y", dag=confounded_dag, min_group_size=5)
        estimate = estimator.estimate(Pattern.of(("T", "=", 1)))
        assert estimate.is_valid()
        assert estimate.n_units == 66  # the 34 rows with a missing Y are dropped

    def test_collinear_treatment_is_undefined(self, confounded_dag):
        # T is an exact copy of the confounder Z, so its effect is not
        # identified once Z is adjusted for.
        table = Table([
            Column("Z", [0, 1] * 50, numeric=False),
            Column("T", [0, 1] * 50, numeric=False),
            Column("Y", [float(i) for i in range(100)], numeric=True),
        ])
        estimator = CATEEstimator(table, "Y", dag=confounded_dag, min_group_size=5)
        estimate = estimator.estimate(Pattern.of(("T", "=", 1)))
        assert not estimate.is_valid()
        assert (estimate.n_treated, estimate.n_control) == (50, 50)

    @pytest.mark.parametrize("use_cache", [True, False])
    def test_empty_subpopulation_is_undefined(self, confounded_table,
                                              confounded_dag, use_cache):
        estimator = CATEEstimator(confounded_table, "Y", dag=confounded_dag,
                                  use_cache=use_cache)
        nobody = Pattern.of(("Z", "=", 99))  # Z takes 0, 1, 2
        results = estimator.estimate_many([Pattern.of(("T", "=", 1)),
                                           Pattern.of(("T", "=", 0))], nobody)
        assert [(r.is_valid(), r.n_units) for r in results] == [(False, 0)] * 2

    def test_estimate_many(self, confounded_table, confounded_dag):
        estimator = CATEEstimator(confounded_table, "Y", dag=confounded_dag)
        results = estimator.estimate_many([Pattern.of(("T", "=", 1)),
                                           Pattern.of(("T", "=", 0))])
        assert len(results) == 2
        # Treating "T=0" flips the sign of the effect.
        assert results[0].value == pytest.approx(-results[1].value, rel=0.2)


class TestIPW:
    def test_ipw_close_to_regression(self, confounded_table):
        effect = ipw_ate(confounded_table, Pattern.of(("T", "=", 1)), "Y",
                         adjustment=["Z"])
        assert effect.estimator == "ipw"
        assert effect.value == pytest.approx(5.0, abs=0.6)

    def test_ipw_without_adjustment_is_naive_like(self, confounded_table):
        effect = ipw_ate(confounded_table, Pattern.of(("T", "=", 1)), "Y")
        naive = naive_difference_in_means(
            confounded_table.column("Y").values,
            confounded_table.column("T").values == 1)
        assert effect.value == pytest.approx(naive.value, abs=0.3)

    def test_ipw_overlap_violation(self, confounded_table):
        effect = ipw_ate(confounded_table, Pattern.of(("Y", ">", -1e12)), "Y")
        assert not effect.is_valid()
