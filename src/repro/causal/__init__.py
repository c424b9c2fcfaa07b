"""Observational causal inference: ATE/CATE estimation with backdoor adjustment."""

from repro.causal.effects import EffectEstimate
from repro.causal.ols import SOLVER_VERSION, OLSResult, ols_fit
from repro.causal.estimators import (
    BoundSubpopulation,
    CATEEstimator,
    naive_difference_in_means,
    estimate_ate,
    estimate_cate,
)
from repro.causal.propensity import ipw_ate, propensity_scores
from repro.causal.matching import matching_ate
from repro.causal.bootstrap import BootstrapInterval, bootstrap_cate
from repro.causal.assumptions import overlap_holds, check_positivity

__all__ = [
    "matching_ate",
    "BootstrapInterval",
    "bootstrap_cate",
    "EffectEstimate",
    "OLSResult",
    "ols_fit",
    "SOLVER_VERSION",
    "BoundSubpopulation",
    "CATEEstimator",
    "naive_difference_in_means",
    "estimate_ate",
    "estimate_cate",
    "ipw_ate",
    "propensity_scores",
    "overlap_holds",
    "check_positivity",
]
