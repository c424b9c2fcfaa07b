"""Planned scan execution: short-circuit AND over ordered conjuncts.

The executor turns a :class:`~repro.plan.planner.ScanPlan` into row indices:

* the first (most selective × cheapest) conjunct evaluates as a full
  vectorized kernel over the table;
* every later conjunct evaluates **only over the surviving candidate rows**
  (:meth:`~repro.dataframe.Predicate.evaluate_at`), so a selective leading
  predicate collapses the work of everything behind it.

Nothing here memoizes a scan: the serving engine's view cache holds the
materialised result of each WHERE clause, which is the one memo a repeated
query needs.

Candidate indices stay sorted ascending throughout, so
``table.take(scan_indices(...))`` returns **exactly** the rows
``table.select(pattern)`` returns — planning is pure scheduling.  The one
observable difference is error *reach*: a predicate whose evaluation would
raise (e.g. an un-orderable comparison) over rows that an earlier conjunct
already excluded never sees those rows, mirroring what zone-map shard
skipping already does for rows in skipped shards.

Actual per-conjunct selectivities (satisfied fraction of the candidates each
conjunct received) are written back into the plan, which is how
``explain_plan`` reports estimated-vs-actual.
"""

from __future__ import annotations

import numpy as np

from repro.dataframe.predicates import Pattern, Predicate
from repro.obs import trace
from repro.plan.planner import ScanPlan, plan_scan
from repro.plan.stats import TableStats


def scan_indices(table, plan: ScanPlan) -> np.ndarray:
    """Row indices satisfying every conjunct, in ascending order."""
    n = table.n_rows
    plan.rows_in = n
    if not plan.conjuncts:
        plan.rows_out = n
        return np.arange(n)
    # One span per conjunct with estimated vs actual selectivity attributes;
    # `traced` is resolved once so the hot loop stays branch-and-go when off.
    traced = trace.enabled()
    first = plan.conjuncts[0]
    with _conjunct_span(first, traced):
        indices = np.flatnonzero(first.predicate.evaluate(table))
        _record(first, n, indices.size, traced)
    for conjunct in plan.conjuncts[1:]:
        with _conjunct_span(conjunct, traced):
            before = indices.size
            indices = indices[conjunct.predicate.evaluate_at(table, indices)]
            _record(conjunct, before, indices.size, traced)
    plan.rows_out = int(indices.size)
    return indices


def _conjunct_span(conjunct, traced: bool):
    if not traced:
        return trace.NOOP
    return trace.trace_span(
        "plan.conjunct", predicate=repr(conjunct.predicate),
        estimated_selectivity=round(conjunct.estimated_selectivity, 6))


def _record(conjunct, candidates_in: int, candidates_out: int,
            traced: bool = False) -> None:
    conjunct.candidates_in = int(candidates_in)
    conjunct.candidates_out = int(candidates_out)
    conjunct.actual_selectivity = (candidates_out / candidates_in
                                   if candidates_in else 0.0)
    if traced:
        trace.set_current_attr(
            actual_selectivity=round(conjunct.actual_selectivity, 6),
            candidates_in=conjunct.candidates_in,
            candidates_out=conjunct.candidates_out)


def shard_scan_indices(table, predicates,
                       masks=None) -> tuple[np.ndarray, list]:
    """One shard's slice of a planned scan: ``(indices, per-conjunct counts)``.

    Runs the already-ordered conjuncts with the same short-circuit AND as
    :func:`scan_indices` over one shard-local table, but records the
    candidate counts into a private list instead of the shared
    :class:`~repro.plan.planner.ScanPlan` — shards execute concurrently, and
    every predicate is row-local, so per-shard counts (and indices, offset
    into the shard) sum/concatenate to exactly the serial whole-table scan
    (:func:`merge_shard_counts`).

    ``masks`` (parallel to ``predicates``; entries may be ``None``) supplies
    precomputed shard-local boolean row masks — committed bitmap indexes
    (see :mod:`repro.adapt`).  A mask entry replaces the conjunct's kernel:
    the first conjunct becomes ``flatnonzero(mask)``, later ones fancy-index
    the mask at the surviving candidates.  Bitmaps are exact row masks, so
    counts and indices are identical to the kernel path's.
    """
    n = table.n_rows
    counts: list[tuple[int, int]] = []
    if not predicates:
        return np.arange(n), counts
    first_mask = masks[0] if masks is not None else None
    if first_mask is not None:
        indices = np.flatnonzero(first_mask)
    else:
        indices = np.flatnonzero(predicates[0].evaluate(table))
    counts.append((n, int(indices.size)))
    for position in range(1, len(predicates)):
        before = int(indices.size)
        mask = masks[position] if masks is not None else None
        if mask is not None:
            satisfied = mask[indices]
        else:
            satisfied = predicates[position].evaluate_at(table, indices)
        indices = indices[satisfied]
        counts.append((before, int(indices.size)))
    return indices, counts


def merge_shard_counts(plan: ScanPlan, rows_in: int,
                       shard_counts: list[list]) -> None:
    """Fold per-shard conjunct counts into the shared plan's actuals.

    Candidate counts are additive across shards (each row belongs to exactly
    one shard), so the merged ``candidates_in`` / ``candidates_out`` —
    and hence every actual selectivity — equal what one serial
    :func:`scan_indices` pass over the concatenated shards records.
    """
    plan.rows_in = rows_in
    rows_out = rows_in
    for position, conjunct in enumerate(plan.conjuncts):
        candidates_in = sum(counts[position][0] for counts in shard_counts)
        candidates_out = sum(counts[position][1] for counts in shard_counts)
        _record(conjunct, candidates_in, candidates_out)
        rows_out = candidates_out
    plan.rows_out = int(rows_out)


def planned_select_with_plan(table, condition,
                             stats: TableStats | None = None):
    """``(filtered table, executed ScanPlan | None)`` for one selection.

    A condition that is not a conjunctive pattern (a boolean mask) goes to
    ``table.select`` unplanned and returns ``None`` for the plan.
    Storage-backed tables that implement ``plan_shard_select``
    (:class:`~repro.storage.dataset.ShardedTable`) delegate to it so shard
    skipping and conjunct ordering compose.
    """
    if not isinstance(condition, (Pattern, Predicate)):
        return table.select(condition), None
    shard_select = getattr(table, "plan_shard_select", None)
    if shard_select is not None:
        return shard_select(condition)
    plan = plan_scan(table, condition, stats=stats)
    return table.take(scan_indices(table, plan)), plan


def planned_select(table, condition):
    """The filtered table alone (drop-in for ``table.select(condition)``)."""
    return planned_select_with_plan(table, condition)[0]
