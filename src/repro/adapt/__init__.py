"""Adaptive planning: feedback-corrected estimates + hot-predicate indexes.

ROADMAP item 3.  Three coupled pieces close the loop between the telemetry
log (PR 9) and the cost-based planner (PR 5):

* :mod:`repro.adapt.feedback` — :class:`EstimateCorrector` folds executed
  plans' per-conjunct estimated-vs-actual selectivities into EWMA
  corrections that ``plan_scan`` consults the next time a view is planned.
* :mod:`repro.adapt.promote` — :class:`HeatTracker` counts served WHERE
  conjuncts; hot ones are promoted to committed per-shard packed-bitmap
  indexes ("cracking"), demoted LRU-by-heat under a byte budget.
* :mod:`repro.adapt.config` — the thresholds, with ``REPRO_ADAPT*`` env
  overrides and a test-scoped ``adaptive_overrides`` context manager.

The executor side (bitmap consult in ``plan_shard_select``) lives with the
storage layer; the drive loop (observe → promote/demote) lives in
:mod:`repro.service.engine`.
"""

from repro.adapt.config import (AdaptiveConfig, adaptive_config,
                                adaptive_enabled, adaptive_overrides,
                                config_from_env, set_adaptive_config)
from repro.adapt.feedback import (GLOBAL_CORRECTOR, EstimateCorrector,
                                  predicate_from_repr)
from repro.adapt.promote import GLOBAL_HEAT, HeatTracker
from repro.obs.registry import REGISTRY


def _adapt_metrics() -> dict:
    out = {f"repro_adapt_corrector_{key}": value
           for key, value in GLOBAL_CORRECTOR.snapshot().items()}
    out.update({f"repro_adapt_heat_{key}": value
                for key, value in GLOBAL_HEAT.snapshot().items()})
    return out


# Same unified-vocabulary bridge the planner counters use: the registry
# pulls these on scrape, nothing is double-counted.
REGISTRY.register_provider("adapt", _adapt_metrics)

__all__ = [
    "AdaptiveConfig",
    "adaptive_config",
    "adaptive_enabled",
    "adaptive_overrides",
    "config_from_env",
    "set_adaptive_config",
    "EstimateCorrector",
    "GLOBAL_CORRECTOR",
    "predicate_from_repr",
    "HeatTracker",
    "GLOBAL_HEAT",
]
