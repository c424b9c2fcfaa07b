"""Unit tests for the OLS engine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.causal import CATEEstimator, ols_fit
from repro.causal.ols import AdjustmentBasis, two_sided_p_values
from repro.dataframe import Column, Pattern, Table, design_matrix
from repro.graph import CausalDAG


class TestOLSFit:
    def test_recovers_known_coefficients(self):
        rng = np.random.default_rng(0)
        n = 500
        x1 = rng.normal(size=n)
        x2 = rng.normal(size=n)
        y = 2.0 + 3.0 * x1 - 1.5 * x2 + rng.normal(scale=0.1, size=n)
        design = np.column_stack([np.ones(n), x1, x2])
        result = ols_fit(design, y, ["intercept", "x1", "x2"])
        assert result.coefficient("intercept") == pytest.approx(2.0, abs=0.05)
        assert result.coefficient("x1") == pytest.approx(3.0, abs=0.05)
        assert result.coefficient("x2") == pytest.approx(-1.5, abs=0.05)
        assert result.r_squared > 0.99

    def test_p_value_significant_for_real_effect(self):
        rng = np.random.default_rng(1)
        n = 300
        x = rng.normal(size=n)
        y = 4.0 * x + rng.normal(size=n)
        result = ols_fit(np.column_stack([np.ones(n), x]), y, ["c", "x"])
        assert result.p_value("x") < 1e-6

    def test_p_value_large_for_null_effect(self):
        rng = np.random.default_rng(2)
        n = 300
        x = rng.normal(size=n)
        y = rng.normal(size=n)  # independent of x
        result = ols_fit(np.column_stack([np.ones(n), x]), y, ["c", "x"])
        assert result.p_value("x") > 0.01

    def test_collinear_design_does_not_fail(self):
        rng = np.random.default_rng(3)
        n = 100
        x = rng.normal(size=n)
        design = np.column_stack([np.ones(n), x, x])  # duplicated column
        y = x + rng.normal(size=n)
        result = ols_fit(design, y)
        assert np.isfinite(result.coefficients).all()

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ols_fit(np.zeros(10), np.zeros(10))
        with pytest.raises(ValueError):
            ols_fit(np.zeros((10, 2)), np.zeros(5))
        with pytest.raises(ValueError):
            ols_fit(np.zeros((10, 2)), np.zeros(10), ["only-one-name"])

    def test_perfect_fit_has_zero_residual_r2_one(self):
        x = np.arange(10, dtype=float)
        design = np.column_stack([np.ones(10), x])
        y = 1.0 + 2.0 * x
        result = ols_fit(design, y)
        assert result.r_squared == pytest.approx(1.0)


def _ols_oracle(confounders, outcome, treated):
    """``ols_fit`` on ``[1 | t | Z]``: (coefficient, SE, p-value, df) of ``t``."""
    n = outcome.shape[0]
    design = np.column_stack([np.ones(n), treated.astype(np.float64), confounders])
    result = ols_fit(design, outcome)
    return (result.coefficients[1], result.std_errors[1], result.p_values[1],
            result.df_resid)


def _one_hot(codes, levels):
    """Full one-hot block (no dropped level): collinear with the intercept."""
    return (codes[:, None] == np.arange(levels)[None, :]).astype(np.float64)


def _assert_matches_oracle(confounders, outcome, treated_rows):
    basis = AdjustmentBasis(confounders, outcome)
    fits = basis.solve(treated_rows)
    p_values = two_sided_p_values(fits.t_values, fits.df_resid)
    for row, treated in enumerate(treated_rows):
        beta, se, p, df = _ols_oracle(confounders, outcome, treated)
        assert fits.df_resid == df
        assert abs(fits.coefficients[row] - beta) <= 1e-9 * max(abs(beta), se)
        assert abs(fits.std_errors[row] - se) <= 1e-9 * se
        assert abs(p_values[row] - p) <= 1e-9


class TestAdjustmentBasis:
    """The batched Frisch–Waugh–Lovell solve against the ``pinv`` oracle."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(30, 400),
           n_numeric=st.integers(0, 4), levels=st.integers(0, 5),
           m=st.integers(1, 6))
    def test_random_designs_match_ols_fit(self, seed, n, n_numeric, levels, m):
        rng = np.random.default_rng(seed)
        blocks = [rng.normal(size=(n, n_numeric))]
        if levels:
            blocks.append(_one_hot(rng.integers(0, levels, n), levels))
        confounders = np.hstack(blocks)
        treated = rng.random((m, n)) < rng.uniform(0.2, 0.8, size=(m, 1))
        treated[:, :2] = [True, False]  # both arms present in every row
        outcome = (confounders @ rng.normal(size=confounders.shape[1])
                   + treated[0] * rng.normal() + rng.normal(size=n))
        _assert_matches_oracle(confounders, outcome, treated)

    def test_rank_deficient_one_hot_blocks(self):
        rng = np.random.default_rng(11)
        n = 300
        # Two full one-hot blocks, each summing to the intercept, plus a
        # level that never occurs (an all-zero column).
        confounders = np.hstack([_one_hot(rng.integers(0, 3, n), 4),
                                 _one_hot(rng.integers(0, 5, n), 5)])
        treated = rng.random((8, n)) < 0.4
        outcome = confounders @ rng.normal(size=9) + 2.0 * treated[3] \
            + rng.normal(size=n)
        basis = AdjustmentBasis(confounders, outcome)
        assert basis.rank == 1 + 2 + 4
        _assert_matches_oracle(confounders, outcome, treated)
        _assert_matches_oracle(confounders, outcome, treated[3:4])

    def test_collinear_treatment_is_nan(self):
        rng = np.random.default_rng(8)
        n = 200
        codes = rng.integers(0, 3, n)
        confounders = _one_hot(codes, 3)
        outcome = rng.normal(size=n)
        treated = np.vstack([codes == 1, rng.random(n) < 0.5])
        fits = AdjustmentBasis(confounders, outcome).solve(treated)
        assert np.isnan(fits.coefficients[0]) and np.isnan(fits.std_errors[0])
        assert np.isfinite(fits.coefficients[1])

    def test_no_confounders(self):
        basis = AdjustmentBasis(np.empty((4, 0)), np.array([2.0, 1.0, 2.0, 1.0]))
        fits = basis.solve(np.array([[True, False, True, False]]))
        assert fits.coefficients[0] == pytest.approx(1.0)
        assert fits.t_values[0] == 0.0  # perfect fit: zero SE, t reported as 0

    def test_nan_dropped_outcomes_match_ols_fit(self):
        """Through the estimator: rows with a missing outcome are dropped
        before the solve, exactly as if they were never in the table."""
        rng = np.random.default_rng(21)
        n = 240
        z = rng.integers(0, 3, n)
        w = rng.normal(size=n)
        t = rng.integers(0, 3, n)
        y = 1.5 * (t == 1) + z + w + rng.normal(size=n)
        y[rng.random(n) < 0.25] = np.nan
        table = Table([
            Column("Z", [f"z{v}" for v in z], numeric=False),
            Column("W", list(w), numeric=True),
            Column("T", [f"t{v}" for v in t], numeric=False),
            Column("Y", [None if np.isnan(v) else float(v) for v in y],
                   numeric=True),
        ])
        dag = CausalDAG.from_dict({"T": ["Z", "W"], "Y": ["T", "Z", "W"]})
        estimator = CATEEstimator(table, "Y", dag=dag, min_group_size=5)
        levels = (1, 2)
        treatments = [Pattern.of(("T", "=", f"t{level}")) for level in levels]
        keep = ~np.isnan(y)
        confounders, _ = design_matrix(table.take(np.nonzero(keep)[0]),
                                       ["W", "Z"])
        for estimate, level in zip(estimator.estimate_many(treatments), levels):
            beta, se, p, _ = _ols_oracle(confounders, y[keep], t[keep] == level)
            assert estimate.n_units == int(keep.sum())
            assert abs(estimate.value - beta) <= 1e-9 * max(abs(beta), se)
            assert abs(estimate.std_error - se) <= 1e-9 * se
            assert abs(estimate.p_value - p) <= 1e-9
