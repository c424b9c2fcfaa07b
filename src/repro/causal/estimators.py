"""ATE / CATE estimators with backdoor adjustment (Section 3, Eq. 5).

The main entry point is :class:`CATEEstimator`, which mirrors the paper's use
of the DoWhy linear-regression estimator: the outcome is regressed on the
binary treatment indicator plus the one-hot-encoded adjustment set; the
coefficient of the treatment indicator is the (C)ATE, and its t-test p-value
is reported alongside.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Sequence

import numpy as np

from repro.causal.assumptions import check_positivity
from repro.causal.effects import EffectEstimate
from repro.causal.ols import AdjustmentBasis, two_sided_p_values
from repro.dataframe import MaskCache, Pattern, Table, design_matrix
from repro.graph import CausalDAG, backdoor_adjustment_set, parents_adjustment_set
from repro.parallel import map_morsels  # noqa: F401 — e2ebench tracing wraps it here
from repro.parallel.blas import single_threaded_blas


def naive_difference_in_means(outcome: np.ndarray, treated: np.ndarray) -> EffectEstimate:
    """Unadjusted ATE: difference of group means with a Welch-style standard error."""
    outcome = np.asarray(outcome, dtype=np.float64)
    treated = np.asarray(treated, dtype=bool)
    valid = ~np.isnan(outcome)
    outcome, treated = outcome[valid], treated[valid]
    n_treated = int(treated.sum())
    n_control = int((~treated).sum())
    if n_treated == 0 or n_control == 0:
        return EffectEstimate.undefined(n_treated, n_control, estimator="naive")
    y1, y0 = outcome[treated], outcome[~treated]
    effect = float(y1.mean() - y0.mean())
    var = y1.var(ddof=1) / n_treated if n_treated > 1 else 0.0
    var += y0.var(ddof=1) / n_control if n_control > 1 else 0.0
    std_error = float(np.sqrt(var))
    if std_error > 0:
        from scipy import stats

        df = max(n_treated + n_control - 2, 1)
        p_value = float(2 * stats.t.sf(abs(effect) / std_error, df))
    else:
        p_value = 1.0
    return EffectEstimate(effect, std_error, p_value, n_treated, n_control,
                          estimator="naive")


class CATEEstimator:
    """Estimates CATE values of treatment patterns for sub-populations of a table.

    Parameters
    ----------
    table:
        The database instance ``D``.
    outcome:
        The aggregate (outcome) attribute ``A_avg``.
    dag:
        Causal DAG over the attributes; used to derive the adjustment set.
    adjustment:
        ``"parents"`` uses the parents of the treatment attributes (the CauSumX
        default, matching DoWhy with a known graph); ``"minimal"`` runs a
        minimum-size backdoor search; ``"none"`` performs no adjustment.
    sample_size:
        Optional cap on the number of tuples used for estimation (the paper's
        sampling optimisation; 1M tuples in the paper's configuration).
    min_group_size:
        Minimum number of treated and of control units required for a valid
        estimate; below this the estimate is reported as undefined.
    seed:
        Random seed for the sampling optimisation.
    use_cache:
        Enable the shared pattern-evaluation engine: predicate masks are
        memoized in a :class:`~repro.dataframe.MaskCache` and sub-populations
        are *bound* once (selection, sampling, missing-outcome filtering, and
        design-matrix encoding are computed a single time) and reused for every
        treatment candidate.  Results are numerically identical with the cache
        on or off; the cache only removes redundant recomputation.
    bound_cache_size:
        Maximum number of bound sub-populations kept alive at once (LRU).
    """

    def __init__(self, table: Table, outcome: str, dag: CausalDAG | None = None,
                 adjustment: str = "parents", sample_size: int | None = None,
                 min_group_size: int = 10, seed: int = 0,
                 use_cache: bool = True, bound_cache_size: int = 64):
        if adjustment not in {"parents", "minimal", "none"}:
            raise ValueError(f"unknown adjustment strategy {adjustment!r}")
        self.table = table
        self.outcome = outcome
        self.dag = dag
        self.adjustment = adjustment
        self.sample_size = sample_size
        self.min_group_size = min_group_size
        self.seed = seed
        self.use_cache = use_cache
        self.bound_cache_size = bound_cache_size
        self.mask_cache: MaskCache | None = MaskCache(table) if use_cache else None
        #: Shared store of lattice atomic predicates, keyed by the lattice's
        #: generation parameters.  Treatment miners for different grouping
        #: patterns (and, in the serving engine, different queries over the
        #: same population) pass it to :class:`~repro.mining.PatternLattice`
        #: so candidate atoms are enumerated once per table instead of once
        #: per (grouping pattern, direction).
        self.atom_cache: dict = {}
        self._adjustment_cache: dict[tuple[str, ...], tuple[str, ...]] = {}
        self._adjustment_lock = threading.Lock()
        self._bound: OrderedDict[tuple, BoundSubpopulation] = OrderedDict()
        self._bound_lock = threading.Lock()

    # ------------------------------------------------------------------ adjustment sets

    def adjustment_set(self, treatment_attributes: Sequence[str]) -> list[str]:
        """Confounders ``Z`` to adjust for, given the treatment attributes."""
        key = tuple(sorted(treatment_attributes))
        with self._adjustment_lock:
            if key in self._adjustment_cache:
                return list(self._adjustment_cache[key])
        if self.dag is None or self.adjustment == "none":
            result: list[str] = []
        elif self.adjustment == "parents":
            result = parents_adjustment_set(self.dag, list(key), self.outcome)
        else:
            found = backdoor_adjustment_set(self.dag, list(key), self.outcome, max_size=4)
            result = found if found is not None else parents_adjustment_set(
                self.dag, list(key), self.outcome)
        result = [a for a in result if a in self.table and a != self.outcome
                  and a not in key]
        with self._adjustment_lock:
            self._adjustment_cache[key] = tuple(result)
        return result

    # ------------------------------------------------------------------ binding

    def bind(self, subpopulation: Pattern | None = None) -> "BoundSubpopulation":
        """Prepare a sub-population once so many treatments can be estimated cheaply.

        Selection of the sub-population, the sampling optimisation, and the
        missing-outcome filtering are performed a single time; every subsequent
        :meth:`BoundSubpopulation.estimate` call only evaluates the treatment
        mask (through the shared :class:`MaskCache` when enabled) and runs the
        regression.  Bound sub-populations are memoized per pattern in a small
        LRU so repeated lattice levels of the same grouping pattern reuse one
        binding.
        """
        key = () if subpopulation is None else subpopulation.predicates
        with self._bound_lock:
            bound = self._bound.get(key)
            if bound is not None:
                self._bound.move_to_end(key)
                return bound
        bound = BoundSubpopulation(self, subpopulation)
        with self._bound_lock:
            existing = self._bound.get(key)
            if existing is not None:
                return existing
            self._bound[key] = bound
            while len(self._bound) > self.bound_cache_size:
                self._bound.popitem(last=False)
        return bound

    # ------------------------------------------------------------------ estimation

    def estimate(self, treatment: Pattern,
                 subpopulation: Pattern | None = None) -> EffectEstimate:
        """Estimate ``CATE(treatment, outcome | subpopulation)``.

        ``treatment`` partitions the sub-population into treated (pattern holds)
        and control (pattern does not hold) units; the effect is the adjusted
        difference in expected outcome (Eq. 5) estimated by linear regression.
        """
        return self.estimate_many([treatment], subpopulation)[0]

    def estimate_many(self, treatments: Sequence[Pattern],
                      subpopulation: Pattern | None = None) -> list[EffectEstimate]:
        """Estimate CATE for a batch of candidate treatment patterns.

        With the cache enabled the sub-population is bound once (memoized
        across calls); without it a fresh, unmemoized binding serves just this
        batch.  Both run the same solver,
        :meth:`BoundSubpopulation.estimate_many`, so estimates are identical
        with the cache on or off.  The solve runs on the calling thread with
        BLAS on one thread (:mod:`repro.parallel.blas`: the products are too
        small to split); mining fans groupings out over threads above this
        call.
        """
        with single_threaded_blas():
            bound = self.bind(subpopulation) if self.use_cache \
                else BoundSubpopulation(self, subpopulation)
            return bound.estimate_many(treatments)

    def cache_stats(self):
        """Statistics of the shared mask cache (``None`` when caching is off)."""
        return self.mask_cache.stats() if self.mask_cache is not None else None


class BoundSubpopulation:
    """A sub-population of a :class:`CATEEstimator`, prepared for batch estimation.

    Construction performs all treatment-independent work of
    :meth:`CATEEstimator.estimate` exactly once: evaluating the sub-population
    pattern, applying the sampling optimisation, and dropping tuples with a
    missing outcome.  Per adjustment-attribute tuple the confounder design
    ``[1 | Z]`` is also encoded and factored once and the factorization
    memoized (:class:`~repro.causal.ols.AdjustmentBasis`): every treatment
    over the same attributes is solved against it, a block at a time.

    The bound table is a :meth:`Table.take` slice, so its categorical columns
    share the parent vocabulary: treatment masks sliced from the full-table
    cache line up with the bound rows, and the memoized design matrices are
    built by fancy-indexing the inherited dictionary codes (no re-encoding of
    the sub-population).
    """

    def __init__(self, estimator: CATEEstimator, subpopulation: Pattern | None):
        self.estimator = estimator
        self.subpopulation = subpopulation
        table = estimator.table
        cache = estimator.mask_cache
        if subpopulation is None or subpopulation.is_empty():
            indices = np.arange(table.n_rows, dtype=np.int64)
            base = table
        else:
            mask = cache.pattern_mask(subpopulation) if cache is not None \
                else subpopulation.evaluate(table)
            indices = np.nonzero(mask)[0]
            base = table.take(indices)
        if estimator.sample_size is not None and base.n_rows > estimator.sample_size:
            rng = np.random.default_rng(estimator.seed)
            chosen = np.sort(rng.choice(base.n_rows, size=estimator.sample_size,
                                        replace=False))
            base = base.take(chosen)
            indices = indices[chosen]
        if base.n_rows:
            outcome_values = base.column(estimator.outcome).values.astype(np.float64)
            valid = ~np.isnan(outcome_values)
            if not valid.all():
                keep = np.nonzero(valid)[0]
                base = base.take(keep)
                indices = indices[keep]
                outcome_values = outcome_values[keep]
        else:
            outcome_values = np.empty(0, dtype=np.float64)
        self.base = base
        self.indices = indices
        self.outcome_values = outcome_values
        self._identity = base is table  # binding covers the whole table unchanged
        self._domain_sizes: dict[str, int] = {}
        self._bases: dict[tuple[str, ...], AdjustmentBasis] = {}

    @property
    def n_rows(self) -> int:
        return self.base.n_rows

    def treated_mask(self, treatment: Pattern) -> np.ndarray:
        """Boolean treatment mask over the bound (filtered) rows."""
        cache = self.estimator.mask_cache
        if cache is not None:
            mask = cache.pattern_mask(treatment)
            return mask if self._identity else mask[self.indices]
        return treatment.evaluate(self.base)

    def _domain_size(self, attribute: str) -> int:
        size = self._domain_sizes.get(attribute)
        if size is None:
            size = len(self.base.domain(attribute))
            self._domain_sizes[attribute] = size
        return size

    def _adjustment_key(self, treatment: Pattern) -> tuple[str, ...]:
        """Adjustment attributes of ``treatment`` that vary in this sub-population.

        An attribute with a single value here (e.g. one fixed by an equality
        in the sub-population pattern) has no variance and is left out.
        """
        return tuple(a for a in self.estimator.adjustment_set(treatment.attributes)
                     if self._domain_size(a) > 1)

    def _basis(self, attributes: tuple[str, ...]) -> AdjustmentBasis:
        """The factored design ``[1 | Z]`` for one adjustment-attribute tuple."""
        basis = self._bases.get(attributes)
        if basis is None:
            confounders, _ = design_matrix(self.base, list(attributes))
            basis = AdjustmentBasis(confounders, self.outcome_values)
            self._bases[attributes] = basis
        return basis

    def estimate(self, treatment: Pattern) -> EffectEstimate:
        """Estimate the CATE of one treatment within the bound sub-population."""
        return self.estimate_many([treatment])[0]

    def estimate_many(self, treatments: Sequence[Pattern]) -> list[EffectEstimate]:
        """Estimate the CATE of every treatment within the bound sub-population.

        Treatments failing positivity are undefined without a fit.  The rest
        are grouped by adjustment set and each group is solved as one block
        (:meth:`AdjustmentBasis.solve`), blocks in sorted key order; a
        treatment collinear with its adjustment set is undefined.  All
        p-values come from one vectorized ``t.sf`` call.
        """
        n_rows = self.base.n_rows
        if n_rows == 0:
            return [EffectEstimate.undefined() for _ in treatments]
        min_group_size = self.estimator.min_group_size
        results: list[EffectEstimate | None] = [None] * len(treatments)
        blocks: dict[tuple[str, ...], list[tuple[int, int, np.ndarray]]] = {}
        for index, treatment in enumerate(treatments):
            treated = self.treated_mask(treatment)
            n_treated = int(np.count_nonzero(treated))
            if not check_positivity(treated, min_group_size):
                results[index] = EffectEstimate.undefined(n_treated,
                                                          n_rows - n_treated)
                continue
            blocks.setdefault(self._adjustment_key(treatment), []).append(
                (index, n_treated, treated))

        members: list[tuple[int, int]] = []  # (index, n_treated), solve order
        fits = []
        for key in sorted(blocks):
            block = blocks[key]
            members.extend((index, n_treated) for index, n_treated, _ in block)
            fits.append(self._basis(key).solve(
                np.array([treated for *_, treated in block], dtype=np.float64)))
        if not fits:
            return results
        coefficients = np.concatenate([fit.coefficients for fit in fits])
        std_errors = np.concatenate([fit.std_errors for fit in fits])
        p_values = two_sided_p_values(
            np.concatenate([fit.t_values for fit in fits]),
            np.concatenate([np.full(len(fit.t_values), fit.df_resid,
                                    dtype=np.int64) for fit in fits]))
        for row, (index, n_treated) in enumerate(members):
            if np.isnan(coefficients[row]):
                results[index] = EffectEstimate.undefined(n_treated,
                                                          n_rows - n_treated)
                continue
            results[index] = EffectEstimate(
                value=float(coefficients[row]),
                std_error=float(std_errors[row]),
                p_value=float(p_values[row]),
                n_treated=n_treated,
                n_control=n_rows - n_treated,
                estimator="linear_regression",
            )
        return results


def estimate_ate(table: Table, treatment: Pattern, outcome: str,
                 dag: CausalDAG | None = None, **kwargs) -> EffectEstimate:
    """Average treatment effect of a treatment pattern over the whole table (Eq. 1/5)."""
    estimator = CATEEstimator(table, outcome, dag=dag, **kwargs)
    return estimator.estimate(treatment)


def estimate_cate(table: Table, treatment: Pattern, outcome: str,
                  subpopulation: Pattern, dag: CausalDAG | None = None,
                  **kwargs) -> EffectEstimate:
    """Conditional average treatment effect within a sub-population (Eq. 2/5)."""
    estimator = CATEEstimator(table, outcome, dag=dag, **kwargs)
    return estimator.estimate(treatment, subpopulation)
