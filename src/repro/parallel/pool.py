"""Shared morsel-driven worker pool for shard-parallel execution.

Storage shards are memory-mapped and the predicate / group-by kernels over
them are numpy calls that release the GIL, so one thread per shard genuinely
overlaps: decode (page-cache reads), compare, and gather all run
concurrently.  This module owns the *one* process-wide pool every layer
shares — planned shard scans (:meth:`ShardedTable.plan_shard_select
<repro.storage.dataset.ShardedTable.plan_shard_select>`), lazy column
decodes, aggregate-view group-by partials, and the
mask-cache cold path the treatment miner scans through.

Sizing
------
The pool width is resolved per batch, in priority order: the programmatic
override (:func:`set_workers` / the :func:`workers` context manager), the
``REPRO_WORKERS`` environment variable, then ``os.cpu_count()``.  Width 1
*is* the serial code: :func:`map_morsels` degenerates to a list
comprehension on the calling thread, touching no executor and no extra
thread — the invariant every byte-identity test leans on.

Nesting
-------
Tasks can themselves reach code that fans out (a shard filter evaluates
predicates over lazy columns whose loader fans out per shard).  A morsel
submitted from a pool worker runs **serially on that worker** instead of
re-entering the pool: a bounded pool whose workers wait on their own
children deadlocks, and the outer fan-out already owns the parallelism.
The treatment-mining pool (``CauSumXConfig.n_jobs``) is a *separate*
executor, so its threads submit here like any other caller and the process
runs at most ``n_jobs + REPRO_WORKERS`` worker threads — bounded, no
pool-in-pool explosion.
"""

from __future__ import annotations

import contextvars
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Sequence, TypeVar

from repro.analysis.lockwatch import named_lock
from repro.obs import trace
from repro.obs.registry import REGISTRY

T = TypeVar("T")
R = TypeVar("R")

#: Environment variable naming the default pool width (positive integer).
ENV_VAR = "REPRO_WORKERS"

_tls = threading.local()  # .in_worker is True on morsel-pool threads only


def default_workers() -> int:
    """The pool width when neither the override nor ``REPRO_WORKERS`` is set."""
    return max(1, os.cpu_count() or 1)


def _env_workers() -> int | None:
    raw = os.environ.get(ENV_VAR)
    if raw is None or not raw.strip():
        return None
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"{ENV_VAR} must be a positive integer, got {raw!r}") from None
    if value < 1:
        raise ValueError(f"{ENV_VAR} must be a positive integer, got {raw!r}")
    return value


def _mark_worker() -> None:
    _tls.in_worker = True


def in_worker() -> bool:
    """True on a morsel-pool thread (nested fan-out must run serially)."""
    return getattr(_tls, "in_worker", False)


class _MorselPool:
    """Lifecycle of the process-wide executor; width changes rebuild it."""

    def __init__(self):
        self._lock = named_lock("_MorselPool._lock")
        self._executor: ThreadPoolExecutor | None = None  # guarded-by: _lock
        self._width = 0  # guarded-by: _lock
        self._override: int | None = None  # guarded-by: _lock

    def worker_count(self) -> int:
        with self._lock:
            override = self._override
        if override is not None:
            return override
        env = _env_workers()
        return env if env is not None else default_workers()

    def set_override(self, count: int | None) -> int | None:
        """Install a programmatic width override; returns the previous one."""
        if count is not None and count < 1:
            raise ValueError(f"worker count must be positive, got {count}")
        with self._lock:
            previous = self._override
            self._override = count
            return previous

    def executor(self, width: int) -> ThreadPoolExecutor:
        """The shared executor at ``width`` workers, rebuilt on width change.

        The displaced executor (if any) is shut down without waiting — width
        only changes between batches (tests, reconfiguration), never while a
        batch of this pool's own morsels is in flight.
        """
        stale = None
        with self._lock:
            if self._executor is None or self._width != width:
                stale = self._executor
                self._executor = ThreadPoolExecutor(
                    max_workers=width, thread_name_prefix="repro-morsel",
                    initializer=_mark_worker)
                self._width = width
            current = self._executor
        if stale is not None:
            stale.shutdown(wait=False)
        return current


_POOL = _MorselPool()


def worker_count() -> int:
    """The pool width the next :func:`map_morsels` batch will use."""
    return _POOL.worker_count()


def set_workers(count: int | None) -> None:
    """Pin the pool width programmatically (``None`` = back to env/cpu)."""
    _POOL.set_override(count)


@contextmanager
def workers(count: int | None):
    """Temporarily pin the pool width (tests and benchmarks)."""
    previous = _POOL.set_override(count)
    try:
        yield
    finally:
        _POOL.set_override(previous)


def map_morsels(fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
    """Apply ``fn`` to every item, returning results in input order.

    Runs on the shared pool only when that can help; otherwise serially on
    the calling thread: width 1 (exactly the serial list comprehension),
    zero or one item, or a caller that is itself a pool worker (see the
    module docstring on nesting).  An exception propagates from the first
    failing item in *input* order — the same error the serial loop raises —
    and cancels any morsel that has not started yet.
    """
    items = list(items)
    width = _POOL.worker_count()
    if width <= 1 or len(items) <= 1 or in_worker():
        GLOBAL_PARALLEL_STATS.record_batch(len(items), workers=1)
        return [fn(item) for item in items]
    executor = _POOL.executor(width)
    if trace.enabled():
        # Carry the submitter's span context onto the worker threads so a
        # morsel's spans hang off the request that fanned out.  One context
        # copy per morsel — a Context cannot be entered concurrently.
        submitted = time.perf_counter_ns()
        with trace.trace_span("parallel.map", morsels=len(items),
                              workers=min(width, len(items))):
            futures = [executor.submit(contextvars.copy_context().run,
                                       _traced_morsel, fn, item, submitted)
                       for item in items]
            try:
                results = [future.result() for future in futures]
            finally:
                for future in futures:
                    future.cancel()
    else:
        futures = [executor.submit(fn, item) for item in items]
        try:
            results = [future.result() for future in futures]
        finally:
            for future in futures:
                future.cancel()
    GLOBAL_PARALLEL_STATS.record_batch(len(items),
                                       workers=min(width, len(items)))
    return results


def _traced_morsel(fn: Callable[[T], R], item: T, submitted_ns: int) -> R:
    """Run one morsel under its own span, recording time spent queued."""
    wait_seconds = (time.perf_counter_ns() - submitted_ns) / 1e9
    REGISTRY.histogram("repro_parallel_morsel_wait_seconds").observe(
        wait_seconds)
    with trace.trace_span("parallel.morsel",
                          queue_wait_ms=round(wait_seconds * 1000.0, 3)):
        return fn(item)


# ---------------------------------------------------------------------- accounting


@dataclass
class ParallelStats:
    """Process-wide morsel-pool counters (thread-safe), surfaced by the engine."""

    batches: int = 0  # guarded-by: _lock
    serial_batches: int = 0  # guarded-by: _lock
    morsels: int = 0  # guarded-by: _lock
    max_workers_used: int = 0  # guarded-by: _lock
    partials_served: int = 0  # guarded-by: _lock
    _lock: threading.Lock = field(
        default_factory=lambda: named_lock("ParallelStats._lock"), repr=False)

    def record_batch(self, morsels: int, workers: int) -> None:
        with self._lock:
            self.batches += 1
            self.morsels += morsels
            if workers <= 1:
                self.serial_batches += 1
            if workers > self.max_workers_used:
                self.max_workers_used = workers

    def record_partials_served(self, count: int = 1) -> None:
        with self._lock:
            self.partials_served += count

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "batches": self.batches,
                "serial_batches": self.serial_batches,
                "morsels": self.morsels,
                "max_workers_used": self.max_workers_used,
                "partials_served": self.partials_served,
            }

    def reset(self) -> None:
        with self._lock:
            self.batches = self.serial_batches = self.morsels = 0
            self.max_workers_used = self.partials_served = 0


#: One process-wide collector — engines report it under ``stats()["parallel"]``.
GLOBAL_PARALLEL_STATS = ParallelStats()

# The same counters under the unified repro_<layer>_<name> vocabulary; the
# registry pulls them on scrape, so nothing is double-counted or moved.
REGISTRY.register_provider(
    "parallel",
    lambda: {f"repro_parallel_{key}": value
             for key, value in GLOBAL_PARALLEL_STATS.snapshot().items()})
