"""Benchmark-side span tracing: wrappers around each layer's public entry points.

The program is traced from the outside.  :data:`WRAPS` names, for every
layer, the functions and methods to wrap *at the place where callers look
them up* (a module attribute such as ``repro.core.causumx.mine_top_treatment``
or a method on a class).  :func:`install` swaps each one for a timing wrapper
and :func:`uninstall` puts the originals back.

A wrapper records a span ``(span_id, parent_id, trace_id, layer, name, start,
end)`` only inside a trace opened by the benchmark (:meth:`Recorder.root`),
or, for names listed in ``roots``, opens its own trace (the server launcher
uses this for request dispatch and table loading).  Spans are kept in memory
and written out when the run ends.

Wall time is attributed Dapper-style: a span's *self time* is its duration
minus the part of it its children cover, and where spans run concurrently on
several threads (morsel tasks) each instant is shared equally among the
spans running at that instant.  The self times of all spans of one trace,
the root's included, therefore sum exactly to the root's wall time; the
root's own share is reported as ``unattributed``.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import threading
import time
import weakref
from collections import defaultdict

#: (layer, span name, owner, attribute).  ``owner`` is a module path, or
#: ``module:Class`` for a method.  Keep each entry at the lookup site the
#: program uses; ``test_e2ebench.py`` fails when a name no longer resolves.
WRAPS = (
    ("service", "service.dispatch", "repro.net.server", "dispatch_request"),
    ("service", "service.explain",
     "repro.service.engine:ExplanationEngine", "explain_with_info"),
    ("service", "service.append",
     "repro.service.engine:ExplanationEngine", "append_rows"),
    ("core", "core.explain", "repro.core.causumx:CauSumX", "explain"),
    ("core", "core.export", "repro.service.server", "summary_to_dict"),
    ("sql", "sql.view", "repro.service.engine", "AggregateView"),
    ("sql", "sql.view", "repro.core.causumx", "AggregateView"),
    ("plan", "plan.select", "repro.sql.view", "planned_select_with_plan"),
    ("plan", "plan.select", "repro.plan", "planned_select_with_plan"),
    ("storage", "storage.append",
     "repro.storage.dataset:StoredDataset", "append"),
    ("storage", "storage.load",
     "repro.storage.dataset:StoredDataset", "load_table"),
    ("storage", "storage.promote",
     "repro.storage.dataset:StoredDataset", "promote_index"),
    ("dataframe", "dataframe.mask",
     "repro.dataframe.maskcache:MaskCache", "pattern_mask"),
    ("dataframe", "dataframe.mask",
     "repro.dataframe.maskcache:MaskCache", "predicate_mask"),
    ("dataframe", "dataframe.mask_extend",
     "repro.dataframe.maskcache:MaskCache", "extended"),
    ("dataframe", "dataframe.concat", "repro.dataframe.table:Table", "concat"),
    ("mining", "mining.groupings",
     "repro.core.causumx", "mine_grouping_patterns"),
    ("mining", "mining.treatments", "repro.core.causumx", "mine_top_treatment"),
    ("mining", "mining.lattice",
     "repro.mining.lattice:PatternLattice", "level_one"),
    ("mining", "mining.lattice",
     "repro.mining.lattice:PatternLattice", "next_level"),
    ("causal", "causal.estimate",
     "repro.causal.estimators:CATEEstimator", "estimate_many"),
    ("causal", "causal.bind", "repro.causal.estimators:CATEEstimator", "bind"),
    ("optimize", "optimize.lp", "repro.core.causumx", "solve_lp_relaxation"),
    ("optimize", "optimize.rounding", "repro.core.causumx",
     "randomized_rounding"),
    ("parallel", "parallel.map", "repro.causal.estimators", "map_morsels"),
    ("parallel", "parallel.map", "repro.storage.dataset", "map_morsels"),
    ("adapt", "adapt.observe",
     "repro.adapt.feedback:EstimateCorrector", "observe_plan"),
    ("adapt", "adapt.observe", "repro.adapt.promote:HeatTracker", "record"),
)

#: Constructor observed without a span: the hits and misses of every mask
#: cache are read from its ``stats()`` whenever a trace ends.
MASK_CACHE_OWNER = ("repro.dataframe.maskcache:MaskCache", "__init__")
#: Everything :func:`install` patches.
TARGETS = (*WRAPS, (None, None, *MASK_CACHE_OWNER))

UNATTRIBUTED = "unattributed"


def resolve(owner: str, attribute: str):
    """Return ``(holder, raw)``: the object holding ``attribute`` and its raw value."""
    module_name, _, class_name = owner.partition(":")
    holder = importlib.import_module(module_name)
    if class_name:
        holder = getattr(holder, class_name)
        return holder, inspect.getattr_static(holder, attribute)
    return holder, getattr(holder, attribute)


class Recorder:
    """In-memory span and counter store for one benchmark process."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.kinds: dict[int, str] = {}  # trace id -> "op" / "setup" / ...
        self.counts: dict[int, dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._current = contextvars.ContextVar("e2ebench_span", default=None)
        #: every live MaskCache -> (hits, misses) already charged to a trace
        self._mask_caches = weakref.WeakKeyDictionary()

    # ------------------------------------------------------------------ spans

    def root(self, kind: str):
        """Context manager opening a new trace whose root span is of ``kind``."""
        return _Root(self, kind)

    def count(self, key: str, amount: float = 1.0, trace_id: int | None = None
              ) -> None:
        if trace_id is None:
            current = self._current.get()
            if current is None:
                return
            trace_id = current[1]
        with self._lock:
            self.counts[trace_id][key] += amount

    def note_mask_cache(self, cache) -> None:
        with self._lock:
            self._mask_caches[cache] = (0, 0)

    def close_trace(self, trace_id: int) -> None:
        """Charge the mask-cache hits and misses since the last close to
        this trace (caches outlive traces, so only deltas are charged)."""
        with self._lock:
            caches = list(self._mask_caches.items())
        for cache, (hits, misses) in caches:
            stats = cache.stats()
            self.count("dataframe.mask_hits", stats.hits - hits, trace_id)
            self.count("dataframe.mask_misses", stats.misses - misses,
                       trace_id)
            with self._lock:
                if cache in self._mask_caches:
                    self._mask_caches[cache] = (stats.hits, stats.misses)

    def traces(self, kind: str) -> dict[int, list[tuple]]:
        """Spans grouped by trace, for traces whose root is of ``kind``."""
        grouped: dict[int, list[tuple]] = defaultdict(list)
        for span in self.spans:
            if self.kinds.get(span[2]) == kind:
                grouped[span[2]].append(span)
        return grouped

    def to_json(self) -> dict:
        return {"spans": [list(s) for s in self.spans],
                "kinds": {str(k): v for k, v in self.kinds.items()},
                "counts": {str(k): dict(v) for k, v in self.counts.items()}}

    @classmethod
    def from_json(cls, data: dict) -> "Recorder":
        """A recorder holding the spans another process wrote with
        :meth:`to_json`."""
        recorder = cls()
        recorder.spans = [tuple(span) for span in data["spans"]]
        recorder.kinds = {int(k): v for k, v in data["kinds"].items()}
        for trace_id, counts in data["counts"].items():
            recorder.counts[int(trace_id)].update(counts)
        return recorder


class _Span:
    __slots__ = ("recorder", "layer", "name", "parent", "span_id", "trace_id",
                 "start", "token")

    def __init__(self, recorder: Recorder, layer: str, name: str, parent):
        self.recorder = recorder
        self.layer = layer
        self.name = name
        self.parent = parent

    def __enter__(self):
        recorder = self.recorder
        self.span_id = next(recorder._ids)
        if self.parent is None:
            self.trace_id = self.span_id
        else:
            self.trace_id = self.parent[1]
        self.token = recorder._current.set(
            (self.span_id, self.trace_id, self.layer, self.name))
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter_ns()
        self.recorder._current.reset(self.token)
        self.recorder.spans.append(
            (self.span_id, self.parent[0] if self.parent else 0, self.trace_id,
             self.layer, self.name, self.start, end))
        return False


class _Root(_Span):
    __slots__ = ("kind",)

    def __init__(self, recorder: Recorder, kind: str):
        super().__init__(recorder, UNATTRIBUTED, "bench." + kind, None)
        self.kind = kind

    def __enter__(self):
        super().__enter__()
        self.recorder.kinds[self.trace_id] = self.kind
        return self

    def __exit__(self, *exc):
        super().__exit__(*exc)
        self.recorder.close_trace(self.trace_id)
        return False


# ---------------------------------------------------------------------- hooks
# Each hook sees the call's arguments and result and adds counters to the
# active trace; none of them runs inside the timed span.


def _fits(recorder, args, kwargs, result):
    recorder.count("causal.fits", len(result))
    recorder.count("causal.undefined",
                   sum(1 for estimate in result if not estimate.is_valid()))


def _groupings(recorder, args, kwargs, result):
    recorder.count("mining.groupings", len(result))


def _explained(recorder, args, kwargs, result):
    recorder.count("optimize.candidates", result.n_candidates)


def _selected(recorder, args, kwargs, result):
    scan_plan = result[1]
    if scan_plan is not None:
        recorder.count("plan.shards_total", scan_plan.shards_total)
        recorder.count("plan.shards_skipped",
                       scan_plan.shards_zone_map_skipped
                       + scan_plan.shards_stats_skipped)


def _appended(recorder, args, kwargs, result):
    recorder.count("service.masks_carried", result.get("masks_carried", 0))


def _promoted(recorder, args, kwargs, result):
    recorder.count("storage.promotions")


HOOKS = {
    ("causal.estimate", "estimate_many"): _fits,
    ("mining.groupings", "mine_grouping_patterns"): _groupings,
    ("core.explain", "explain"): _explained,
    ("plan.select", "planned_select_with_plan"): _selected,
    ("service.append", "append_rows"): _appended,
    ("storage.promote", "promote_index"): _promoted,
}


# ---------------------------------------------------------------------- wrappers


def _wrap_call(recorder: Recorder, layer: str, name: str, fn, hook,
               may_root: bool):
    @functools.wraps(fn, updated=())
    def traced(*args, **kwargs):
        parent = recorder._current.get()
        if parent is None:
            if not may_root:
                return fn(*args, **kwargs)
            with recorder.root(name):
                return traced(*args, **kwargs)
        with _Span(recorder, layer, name, parent):
            result = fn(*args, **kwargs)
        if hook is not None:
            hook(recorder, args, kwargs, result)
        return result
    return traced


def _wrap_append(recorder: Recorder, fn):
    """``StoredDataset.append``: also counts the shard bytes each batch adds."""
    @functools.wraps(fn, updated=())
    def traced(self, batch, *args, **kwargs):
        parent = recorder._current.get()
        if parent is None:
            return fn(self, batch, *args, **kwargs)
        with _Span(recorder, "storage", "storage.append", parent):
            shard = fn(self, batch, *args, **kwargs)
        recorder.count("storage.append_rows", batch.n_rows)
        recorder.count("storage.append_bytes",
                       (self.directory / shard.file).stat().st_size)
        return shard
    return traced


def _wrap_map(recorder: Recorder, fn):
    """``map_morsels``: one span per batch, and each task runs as a child span
    of the layer that submitted the batch (so a fit on a pool thread counts
    as ``causal``, and only the pool's own dispatch and waiting as
    ``parallel``)."""
    @functools.wraps(fn, updated=())
    def traced(task, items):
        parent = recorder._current.get()
        if parent is None:
            return fn(task, items)
        items = list(items)
        with _Span(recorder, "parallel", "parallel.map", parent) as span:
            batch_ctx = (span.span_id, span.trace_id, "parallel",
                         "parallel.map")
            task_layer, task_name = parent[2], parent[3] + ".task"

            def run(item):
                token = recorder._current.set(batch_ctx)
                try:
                    with _Span(recorder, task_layer, task_name,
                               batch_ctx) as child:
                        result = task(item)
                    recorder.count("parallel.busy_ns",
                                   time.perf_counter_ns() - child.start,
                                   child.trace_id)
                    return result
                finally:
                    recorder._current.reset(token)

            results = fn(run, items)
        recorder.count("parallel.batches")
        recorder.count("parallel.morsels", len(items))
        return results
    return traced


def _wrap_mask_init(recorder: Recorder, fn):
    @functools.wraps(fn, updated=())
    def traced(self, *args, **kwargs):
        fn(self, *args, **kwargs)
        recorder.note_mask_cache(self)
    return traced


def install(recorder: Recorder, roots: tuple[str, ...] = ()) -> list:
    """Wrap every entry of :data:`WRAPS`; returns the undo list for
    :func:`uninstall`.  Span names in ``roots`` open their own trace when
    called outside one."""
    undo = []
    for layer, name, owner, attribute in TARGETS:
        holder, raw = resolve(owner, attribute)
        is_static = isinstance(raw, staticmethod)
        fn = raw.__func__ if is_static else raw
        if attribute == "__init__":
            wrapped = _wrap_mask_init(recorder, fn)
        elif attribute == "map_morsels":
            wrapped = _wrap_map(recorder, fn)
        elif name == "storage.append":
            wrapped = _wrap_append(recorder, fn)
        else:
            wrapped = _wrap_call(recorder, layer, name, fn,
                                 HOOKS.get((name, attribute)), name in roots)
        setattr(holder, attribute, staticmethod(wrapped) if is_static
                else wrapped)
        undo.append((holder, attribute, raw))
    return undo


def uninstall(undo: list) -> None:
    for holder, attribute, raw in reversed(undo):
        setattr(holder, attribute, raw)


# ---------------------------------------------------------------------- attribution


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Attributed self time (seconds) of every span of one trace.

    Each span's exclusive intervals are its interval minus the union of its
    children's; a sweep over all exclusive intervals then splits every
    instant equally among the spans exclusively running at it.  The result
    sums to the root span's duration.
    """
    children: dict[int, list[tuple]] = defaultdict(list)
    for span in spans:
        children[span[1]].append(span)
    events = []
    for span in spans:
        span_id, start, end = span[0], span[5], span[6]
        cursor = start
        for child in sorted(children.get(span_id, ()), key=lambda c: c[5]):
            child_start, child_end = max(child[5], start), min(child[6], end)
            if child_end <= cursor:
                continue
            if child_start > cursor:
                events.append((cursor, 1, span_id))
                events.append((child_start, -1, span_id))
            cursor = child_end
        if cursor < end:
            events.append((cursor, 1, span_id))
            events.append((end, -1, span_id))
    events.sort(key=lambda e: (e[0], e[1]))
    shares: dict[int, float] = defaultdict(float)
    active: set[int] = set()
    last = None
    for moment, kind, span_id in events:
        if active and moment > last:
            share = (moment - last) / len(active) / 1e9
            for running in active:
                shares[running] += share
        last = moment
        if kind == 1:
            active.add(span_id)
        else:
            active.discard(span_id)
    return shares


def layer_table(traces: dict[int, list[tuple]]) -> dict:
    """Self time per layer and per span name, summed over ``traces``.

    Returns ``{"wall_s", "layers": {layer: s}, "names": {name: s},
    "durations": {name: s}, "n": traces}``; ``layers`` includes
    ``unattributed`` and sums to ``wall_s``.
    """
    layers: dict[str, float] = defaultdict(float)
    names: dict[str, float] = defaultdict(float)
    durations: dict[str, float] = defaultdict(float)
    wall = 0.0
    for spans in traces.values():
        by_id = {span[0]: span for span in spans}
        for span_id, share in self_times(spans).items():
            span = by_id[span_id]
            layers[span[3]] += share
            names[span[4]] += share
        for span in spans:
            durations[span[4]] += (span[6] - span[5]) / 1e9
            if span[1] == 0:
                wall += (span[6] - span[5]) / 1e9
    return {"wall_s": wall, "layers": dict(layers), "names": dict(names),
            "durations": dict(durations), "n": len(traces)}
