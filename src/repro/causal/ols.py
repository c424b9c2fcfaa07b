"""Ordinary least squares with coefficient standard errors and p-values.

:func:`ols_fit` fits one general design through the pseudo-inverse and is
kept as the reference implementation.  CATE estimation instead regresses the
outcome on many binary treatment columns against one fixed adjustment block,
which :class:`AdjustmentBasis` solves in batches by the Frisch–Waugh–Lovell
theorem.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import stats


@dataclass(frozen=True)
class OLSResult:
    """Fitted OLS coefficients plus inferential statistics."""

    coefficients: np.ndarray
    std_errors: np.ndarray
    t_values: np.ndarray
    p_values: np.ndarray
    feature_names: tuple[str, ...]
    n_obs: int
    df_resid: int
    r_squared: float

    def coefficient(self, name: str) -> float:
        return float(self.coefficients[self.feature_names.index(name)])

    def std_error(self, name: str) -> float:
        return float(self.std_errors[self.feature_names.index(name)])

    def p_value(self, name: str) -> float:
        return float(self.p_values[self.feature_names.index(name)])


def ols_fit(design: np.ndarray, outcome: np.ndarray,
            feature_names: list[str] | None = None) -> OLSResult:
    """Fit ``outcome ~ design`` by least squares.

    Uses the pseudo-inverse so rank-deficient designs (e.g. collinear one-hot
    blocks) do not fail; standard errors for unidentifiable coefficients are
    large rather than raising.
    """
    design = np.asarray(design, dtype=np.float64)
    outcome = np.asarray(outcome, dtype=np.float64)
    if design.ndim != 2:
        raise ValueError("design matrix must be 2-dimensional")
    n, p = design.shape
    if outcome.shape != (n,):
        raise ValueError("outcome length does not match design matrix")
    if feature_names is None:
        feature_names = [f"x{i}" for i in range(p)]
    if len(feature_names) != p:
        raise ValueError("feature_names length does not match design matrix")

    gram = design.T @ design
    gram_pinv = np.linalg.pinv(gram)
    coefficients = gram_pinv @ design.T @ outcome
    fitted = design @ coefficients
    residuals = outcome - fitted
    df_resid = max(n - np.linalg.matrix_rank(design), 1)
    sigma2 = float(residuals @ residuals) / df_resid
    covariance = sigma2 * gram_pinv
    variances = np.clip(np.diag(covariance), 0.0, None)
    std_errors = np.sqrt(variances)
    with np.errstate(divide="ignore", invalid="ignore"):
        t_values = np.where(std_errors > 0, coefficients / std_errors, 0.0)
    p_values = 2.0 * stats.t.sf(np.abs(t_values), df_resid)

    total_ss = float(((outcome - outcome.mean()) ** 2).sum())
    resid_ss = float((residuals ** 2).sum())
    r_squared = 1.0 - resid_ss / total_ss if total_ss > 0 else 0.0

    return OLSResult(
        coefficients=coefficients,
        std_errors=std_errors,
        t_values=t_values,
        p_values=np.asarray(p_values),
        feature_names=tuple(feature_names),
        n_obs=n,
        df_resid=df_resid,
        r_squared=r_squared,
    )


#: Identifies the solver that produced an estimate.  Persisted summaries
#: carry it, so a summary computed by another solver is never restored as
#: current.
SOLVER_VERSION = "fwl-svd/1"

#: A treatment whose component outside ``span([1 | Z])`` is shorter than this
#: fraction of its own norm is collinear with the adjustment set: its effect
#: is not identified and the fit reports it as undefined.
COLLINEAR_RTOL = float(np.sqrt(np.finfo(np.float64).eps))


class TreatmentFits(NamedTuple):
    """Per-treatment results of :meth:`AdjustmentBasis.solve` (length ``m``).

    ``coefficients``, ``std_errors`` and ``t_values`` are NaN for treatments
    collinear with the adjustment set.
    """

    coefficients: np.ndarray
    std_errors: np.ndarray
    t_values: np.ndarray
    df_resid: int


class AdjustmentBasis:
    """The design ``[1 | Z]`` of one adjustment set, factored once.

    By the Frisch–Waugh–Lovell theorem, the coefficient of ``t`` in
    ``y ~ 1 + t + Z`` equals that of the one-variable regression of ``M y``
    on ``M t``, where ``M = I - Q Qᵀ`` and ``Q`` is an orthonormal basis of
    the column space of ``[1 | Z]``.  Only ``t`` differs between candidate
    treatments, so ``Q`` (from one SVD, with the numerical rank rule of
    ``np.linalg.matrix_rank``) and the residualized outcome ``M y`` are
    computed here once, and :meth:`solve` residualizes a whole block of
    treatment columns with two matrix products.

    The results agree with :func:`ols_fit` on ``[1 | t | Z]`` to rounding
    (the coefficient is identified whenever ``t`` is not collinear with
    ``[1 | Z]``, and its variance is the same for any generalized inverse).
    Instances are immutable after construction and safe to share between
    threads.
    """

    def __init__(self, confounders: np.ndarray, outcome: np.ndarray):
        outcome = np.asarray(outcome, dtype=np.float64)
        n = outcome.shape[0]
        design = np.empty((n, confounders.shape[1] + 1), dtype=np.float64)
        design[:, 0] = 1.0
        design[:, 1:] = confounders
        left, singular, _ = np.linalg.svd(design, full_matrices=False)
        tolerance = (singular.max(initial=0.0) * max(design.shape)
                     * np.finfo(np.float64).eps)
        self.rank = int(np.count_nonzero(singular > tolerance))
        self.basis = np.ascontiguousarray(left[:, :self.rank])
        self.outcome_resid = outcome - self.basis @ (self.basis.T @ outcome)
        self.n_obs = n

    def solve(self, treated: np.ndarray) -> TreatmentFits:
        """Fit ``y ~ 1 + t + Z`` for every row ``t`` of ``treated`` (``m × n``).

        The treatment coefficient is ``(M t · M y) / (M t · M t)``, its
        standard error ``sqrt(s² / (M t · M t))`` with ``s²`` the residual
        variance of the full regression on ``n - rank - 1`` degrees of
        freedom.  Rows collinear with ``[1 | Z]`` (see
        :data:`COLLINEAR_RTOL`) come back as NaN.
        """
        treated = np.asarray(treated, dtype=np.float64)
        resid = (treated @ self.basis) @ self.basis.T
        np.subtract(treated, resid, out=resid)
        resid_ss = np.einsum("ij,ij->i", resid, resid)
        collinear = resid_ss <= COLLINEAR_RTOL ** 2 * np.einsum(
            "ij,ij->i", treated, treated)
        df_resid = max(self.n_obs - self.rank - 1, 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            coefficients = (resid @ self.outcome_resid) / resid_ss
            errors = self.outcome_resid - coefficients[:, None] * resid
            sigma2 = np.einsum("ij,ij->i", errors, errors) / df_resid
            std_errors = np.sqrt(sigma2 / resid_ss)
            t_values = np.where(std_errors > 0, coefficients / std_errors, 0.0)
        for values in (coefficients, std_errors, t_values):
            values[collinear] = np.nan
        return TreatmentFits(coefficients, std_errors, t_values, df_resid)


def two_sided_p_values(t_values: np.ndarray, df_resid) -> np.ndarray:
    """Two-sided t-test p-values, one vectorized ``t.sf`` call for all entries."""
    return 2.0 * stats.t.sf(np.abs(t_values), df_resid)
