"""Feedback-corrected selectivity estimation (the est/actual loop).

Every executed :class:`~repro.plan.planner.ScanPlan` records, per conjunct,
the fraction of candidate rows that actually satisfied it.  The
:class:`EstimateCorrector` folds those observations into an EWMA of observed
selectivity keyed by *(dataset name, row count, predicate repr)* — the row
count acts as the dataset-version discriminator, so observations from a
superseded incarnation (pre-append, another test's table of the same name)
never leak into the current one's corrections.

``plan_scan`` consults :data:`GLOBAL_CORRECTOR` once per conjunct: with
fewer than ``min_observations`` data points the static histogram/top-k
estimate stands; past it, the EWMA replaces the estimate, so a predicate the
statistics grossly mis-rank (e.g. numeric equality on a heavy-hitter value,
which the uniform-distinct assumption estimates near zero) migrates to its
true position after a couple of queries.

Conjunct actuals are *conditional* on the prefix that ran before them; under
the planner's independence assumption (the same one the static estimates
make) conditional equals marginal, so every conjunct's actual is folded in.
Correlated workloads bias the EWMA toward the conditional value — which is
exactly the value the planner needs to rank the conjunct within the plans
that recur.

Corrections apply the next time a view is planned; a cached view keeps the
plan it was built with until it is evicted or its dataset changes.

Sources: the engine feeds plans after every view materialization and
replays the persisted telemetry log at ``from_store`` warm start;
benchmarks feed plans directly.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.adapt.config import adaptive_config
from repro.analysis.lockwatch import named_lock
from repro.dataframe.predicates import Op, Predicate

#: Incarnation key: (dataset/table name, row count at planning time).
Incarnation = tuple[str, int]


@dataclass
class _Entry:
    """Observation history for one (incarnation, conjunct) pair."""

    observations: int = 0
    ewma_actual: float = 0.0
    last_estimated: float = 0.0
    last_actual: float = 0.0
    abs_error_sum: float = 0.0


class EstimateCorrector:
    """EWMA correction of per-conjunct selectivity estimates (thread-safe)."""

    def __init__(self):
        self._lock = named_lock("EstimateCorrector._lock")
        self._entries: dict[tuple, _Entry] = {}  # guarded-by: _lock
        self._observations = 0  # guarded-by: _lock
        self._corrections_served = 0  # guarded-by: _lock

    # ------------------------------------------------------------ observing

    def observe(self, incarnation: Incarnation, predicate_key: str,
                estimated: float, actual: float, weight: int = 1) -> None:
        """Fold one executed conjunct's ``(estimated, actual)`` pair in.

        ``weight`` > 1 replays an aggregate (telemetry warm start) as that
        many observations sharing one mean actual.
        """
        if actual is None or estimated is None:
            return
        actual = min(1.0, max(0.0, float(actual)))
        alpha = adaptive_config().ewma_alpha
        key = (incarnation[0], incarnation[1], predicate_key)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                entry = self._entries[key] = _Entry(ewma_actual=actual)
            else:
                entry.ewma_actual += alpha * (actual - entry.ewma_actual)
            entry.observations += max(1, int(weight))
            entry.last_estimated = float(estimated)
            entry.last_actual = actual
            entry.abs_error_sum += abs(float(estimated) - actual)
            self._observations += max(1, int(weight))

    def observe_plan(self, incarnation: Incarnation, plan) -> None:
        """Fold every executed conjunct of a :class:`ScanPlan` in."""
        if plan is None:
            return
        for conjunct in plan.conjuncts:
            if conjunct.actual_selectivity is not None:
                self.observe(incarnation, repr(conjunct.predicate),
                             conjunct.estimated_selectivity,
                             conjunct.actual_selectivity)

    # ----------------------------------------------------------- correcting

    def corrected(self, incarnation: Incarnation, predicate: Predicate,
                  estimated: float) -> tuple[float, bool]:
        """``(corrected estimate, whether a correction applied)``.

        Called by ``plan_scan`` once per conjunct; every applied correction
        counts as served.
        """
        key = (incarnation[0], incarnation[1], repr(predicate))
        minimum = adaptive_config().min_observations
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or entry.observations < minimum:
                return estimated, False
            self._corrections_served += 1
            return min(1.0, max(0.0, entry.ewma_actual)), True

    # ------------------------------------------------------------- plumbing

    def snapshot(self) -> dict:
        with self._lock:
            return {"entries": len(self._entries),
                    "observations": self._observations,
                    "corrections_served": self._corrections_served}

    def entries_for(self, incarnation: Incarnation) -> dict[str, dict]:
        """Per-predicate history for one incarnation (introspection/tests)."""
        prefix = (incarnation[0], incarnation[1])
        out = {}
        with self._lock:
            for key, entry in self._entries.items():
                if key[:2] == prefix:
                    out[key[2]] = {
                        "observations": entry.observations,
                        "ewma_actual": entry.ewma_actual,
                        "last_estimated": entry.last_estimated,
                        "last_actual": entry.last_actual,
                        "mean_abs_error": entry.abs_error_sum
                        / max(1, entry.observations),
                    }
        return out

    def reset(self) -> None:
        with self._lock:
            self._entries.clear()
            self._observations = 0
            self._corrections_served = 0


#: One process-wide corrector, mirroring GLOBAL_PLANNER_STATS.
GLOBAL_CORRECTOR = EstimateCorrector()


# ------------------------------------------------------------------ repr parsing


#: Two-character symbols first so `` <= `` never splits as `` < ``.
_OP_SYMBOLS = (" == ", " != ", " <= ", " >= ", " < ", " > ")


def predicate_from_repr(text: str, strict: bool = True) -> Predicate | None:
    """Parse ``repr(Predicate)`` (``attr <op> value-repr``) back to an object.

    Telemetry records and index keys store conjuncts as predicate reprs; this
    inverts them.  The split point is the *earliest* operator symbol (longer
    symbol wins ties), so values whose reprs contain operator-looking text
    (``x == 'a < b'``) parse correctly.  Returns ``None`` when no operator is
    found or the value does not parse; with ``strict=False`` an unparseable
    value falls back to the raw string (CLI convenience: ``channel == web``).
    """
    if not isinstance(text, str):
        return None
    candidates = []
    for symbol in _OP_SYMBOLS:
        index = text.find(symbol)
        if index > 0:
            candidates.append((index, -len(symbol), symbol))
    if not candidates:
        return None
    index, _, symbol = min(candidates)
    attribute = text[:index]
    value_text = text[index + len(symbol):].strip()
    if not attribute or not value_text:
        return None
    try:
        value = ast.literal_eval(value_text)
    except (ValueError, SyntaxError):
        if strict:
            return None
        value = value_text
    return Predicate(attribute, Op(symbol.strip()), value)
