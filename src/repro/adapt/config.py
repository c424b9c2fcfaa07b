"""Knobs for the adaptive planning loop (feedback correction + cracking).

One frozen :class:`AdaptiveConfig` holds every threshold the loop consults:

* ``min_observations`` / ``ewma_alpha`` — how much est/actual history a
  conjunct needs before its corrected estimate replaces the static one, and
  how fast the EWMA tracks workload shift;
* ``heat_threshold`` — how many times a WHERE conjunct must be served before
  it is promoted to a committed per-shard bitmap index;
* ``index_budget_bytes`` — total committed bitmap bytes per dataset; past it,
  the coldest committed index is demoted (LRU by heat rank) to make room.

Environment overrides (read once at import, like ``REPRO_WORKERS``):
``REPRO_ADAPT`` (0 disables the whole loop), ``REPRO_ADAPT_HEAT``,
``REPRO_ADAPT_INDEX_BUDGET``.  Tests swap configs via
:func:`adaptive_overrides`.

Disabling adaptivity never changes results — corrections only reorder
conjuncts and bitmaps are exact materializations — it only freezes plans to
their static estimates, exactly the pre-PR-10 behavior.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, replace

DEFAULT_HEAT_THRESHOLD = 64
DEFAULT_INDEX_BUDGET_BYTES = 1 << 20
DEFAULT_EWMA_ALPHA = 0.5
DEFAULT_MIN_OBSERVATIONS = 2


@dataclass(frozen=True)
class AdaptiveConfig:
    """Every knob of the adaptive loop; immutable, swapped as a whole."""

    enabled: bool = True
    min_observations: int = DEFAULT_MIN_OBSERVATIONS
    ewma_alpha: float = DEFAULT_EWMA_ALPHA
    heat_threshold: int = DEFAULT_HEAT_THRESHOLD
    index_budget_bytes: int = DEFAULT_INDEX_BUDGET_BYTES


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None or raw.strip() == "":
        return default
    try:
        return int(raw)
    except ValueError:
        return default


def _env_bool(name: str, default: bool) -> bool:
    raw = os.environ.get(name)
    if raw is None or raw.strip() == "":
        return default
    return raw.strip().lower() in ("1", "true", "yes", "on")


def config_from_env() -> AdaptiveConfig:
    return AdaptiveConfig(
        enabled=_env_bool("REPRO_ADAPT", True),
        heat_threshold=_env_int("REPRO_ADAPT_HEAT", DEFAULT_HEAT_THRESHOLD),
        index_budget_bytes=_env_int("REPRO_ADAPT_INDEX_BUDGET",
                                    DEFAULT_INDEX_BUDGET_BYTES),
    )


_config: AdaptiveConfig = config_from_env()


def adaptive_config() -> AdaptiveConfig:
    """The process-wide adaptive configuration currently in force."""
    return _config


def set_adaptive_config(config: AdaptiveConfig) -> AdaptiveConfig:
    """Install ``config`` process-wide; returns the previous one."""
    global _config
    previous = _config
    _config = config
    return previous


def adaptive_enabled() -> bool:
    return _config.enabled


@contextmanager
def adaptive_overrides(**changes):
    """Temporarily replace config fields (tests / benchmarks)."""
    previous = set_adaptive_config(replace(_config, **changes))
    try:
        yield adaptive_config()
    finally:
        set_adaptive_config(previous)
