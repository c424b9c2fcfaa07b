"""Tests for shard-parallel morsel-driven execution (``repro.parallel``).

The load-bearing property is *worker invariance*: whatever the pool width —
1 (exactly the serial code), 2, or 8 — a sharded scan, a planned scan, a
lazy column decode, and an aggregate view return identical rows, identical
plans, and identical answer tuples.  On top of that, clustered compaction
commits per-shard group-by partials that answer no-WHERE group-bys from the
manifest without opening a single shard archive.
"""

from __future__ import annotations

import tempfile
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import lockwatch
from repro.dataframe import Op, Pattern, Predicate, Table
from repro.parallel import (
    GLOBAL_PARALLEL_STATS,
    default_workers,
    in_worker,
    map_morsels,
    worker_count,
    workers,
)
from repro.parallel.blas import (
    blas_controllable,
    blas_threads,
    single_threaded_blas,
)
from repro.service import ExplanationEngine
from repro.sql import AggregateView, parse_query
from repro.storage import DatasetStore, StoredDataset

WIDTHS = (1, 2, 8)


def _people(n: int, seed: int = 0) -> Table:
    rng = np.random.default_rng(seed)
    countries = ["US", "DE", "FR", "JP", None]
    roles = ["eng", "mgr", "ops"]
    return Table.from_columns({
        "Country": [countries[i] for i in rng.integers(0, len(countries), n)],
        "Role": [roles[i] for i in rng.integers(0, len(roles), n)],
        "Age": np.where(rng.random(n) < 0.1, np.nan,
                        rng.integers(20, 70, n).astype(float)),
        # Integer-valued outcome: partial sums are exact in float64, so
        # partial-served averages can be compared with == against the
        # legacy whole-table group scan.
        "Salary": rng.integers(30, 200, n).astype(float),
        "allmiss": [None] * n,
    }, name="people")


# ---------------------------------------------------------------------- pool


class TestMorselPool:
    def test_width_resolution_order(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert worker_count() == default_workers()
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert worker_count() == 3
        with workers(5):
            assert worker_count() == 5  # override beats the environment
        assert worker_count() == 3

    def test_rejects_bad_widths(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "zero")
        with pytest.raises(ValueError):
            worker_count()
        monkeypatch.setenv("REPRO_WORKERS", "0")
        with pytest.raises(ValueError):
            worker_count()
        with pytest.raises(ValueError):
            with workers(0):
                pass  # pragma: no cover

    def test_map_morsels_preserves_input_order(self):
        for width in WIDTHS:
            with workers(width):
                assert map_morsels(lambda x: x * x, range(20)) == \
                    [x * x for x in range(20)]

    def test_exceptions_propagate_in_input_order(self):
        def explode(x):
            if x % 3 == 1:
                raise ValueError(f"boom {x}")
            return x

        with workers(4):
            with pytest.raises(ValueError, match="boom 1"):
                map_morsels(explode, range(12))

    def test_nested_fan_out_runs_serially_without_deadlock(self):
        observed = []

        def inner(x):
            observed.append(in_worker())
            return x + 1

        def outer(x):
            # A worker fanning out again must not wait on its own pool.
            return sum(map_morsels(inner, range(3))) + x

        with workers(2):
            results = map_morsels(outer, range(6))
        assert results == [sum(range(1, 4)) + x for x in range(6)]
        assert all(observed)  # the nested morsels ran on pool threads

    def test_stats_accounting(self):
        GLOBAL_PARALLEL_STATS.reset()
        with workers(1):
            map_morsels(lambda x: x, range(4))
        with workers(3):
            map_morsels(lambda x: x, range(5))
        snapshot = GLOBAL_PARALLEL_STATS.snapshot()
        assert snapshot["batches"] == 2
        assert snapshot["serial_batches"] == 1
        assert snapshot["morsels"] == 9
        assert snapshot["max_workers_used"] == 3


# ----------------------------------------------------------- worker invariance


def _random_table(rng, n: int) -> Table:
    cats = ["a", "b", "c", None]
    return Table.from_columns({
        "cat": [cats[i] for i in rng.integers(0, len(cats), n)],
        "num": np.where(rng.random(n) < 0.25, np.nan,
                        rng.integers(-4, 5, n).astype(float)),
        "allmiss": [None] * n,
    }, name="random")


def _random_pattern(data) -> Pattern:
    predicates = []
    for _ in range(data.draw(st.integers(0, 3), label="n_predicates")):
        kind = data.draw(st.sampled_from(["cat", "num", "allmiss", "nomatch"]))
        if kind == "cat":
            predicates.append(Predicate(
                "cat", data.draw(st.sampled_from([Op.EQ, Op.NE])),
                data.draw(st.sampled_from(["a", "b", "zz"]))))
        elif kind == "allmiss":
            predicates.append(Predicate(
                "allmiss", data.draw(st.sampled_from(list(Op))), "a"))
        elif kind == "nomatch":
            # Empty-survivor case: no shard can match, every shard skips.
            predicates.append(Predicate("cat", Op.EQ, "absent-everywhere"))
        else:
            predicates.append(Predicate(
                "num", data.draw(st.sampled_from(list(Op))),
                data.draw(st.sampled_from([-4.5, 0.0, 2.5, float("nan")]))))
    return Pattern(predicates)


class TestWorkerInvariance:
    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_sharded_select_identical_across_widths(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 10_000)))
        table = _random_table(rng, data.draw(st.integers(5, 80)))
        pattern = _random_pattern(data)
        # shard_rows >= n gives the single-shard case.
        shard_rows = data.draw(st.integers(3, 100), label="shard_rows")
        with tempfile.TemporaryDirectory() as tmp:
            dataset = StoredDataset.create(f"{tmp}/d", "d", table,
                                           shard_rows=shard_rows)
            results = {}
            for width in WIDTHS:
                with workers(width):
                    planned = dataset.load_table().select(pattern)
                    oracle = Table.select(dataset.load_table(), pattern)
                results[width] = (planned, oracle)
            serial_planned, serial_oracle = results[1]
            assert serial_planned == serial_oracle
            for width in WIDTHS[1:]:
                planned, oracle = results[width]
                assert planned == serial_planned
                assert oracle == serial_oracle

    @settings(max_examples=10, deadline=None)
    @given(st.data())
    def test_lazy_column_decode_identical_across_widths(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 10_000)))
        table = _random_table(rng, data.draw(st.integers(10, 60)))
        with tempfile.TemporaryDirectory() as tmp:
            dataset = StoredDataset.create(f"{tmp}/d", "d", table,
                                           shard_rows=7)
            for width in WIDTHS:
                with workers(width):
                    assert dataset.load_table() == table

    def test_view_identical_across_widths(self):
        table = _people(400)
        query = parse_query("SELECT Country, AVG(Salary) FROM people "
                            "GROUP BY Country")
        in_memory = AggregateView(table, query)
        with tempfile.TemporaryDirectory() as tmp:
            dataset = StoredDataset.create(f"{tmp}/d", "d", table,
                                           shard_rows=37)
            for width in WIDTHS:
                with workers(width):
                    view = AggregateView(dataset.load_table(), query)
                    assert view.served_from_partials
                    assert view.groups == in_memory.groups
                    assert view.group_weights() == in_memory.group_weights()


class TestMiningWidthInvariance:
    """Mining scans run through the pool; summaries must not notice.

    Scans fan out over ``map_morsels`` while ``CATEEstimator.estimate_many``
    solves each lattice level on the calling thread, so a full explanation —
    mining included — must serialize byte-identically at any pool width.
    """

    def test_explain_summary_identical_across_widths(self, so_bundle,
                                                     fast_config):
        import json

        from repro.core import CauSumX, summary_to_dict

        query = parse_query("SELECT Country, AVG(Salary) FROM SO "
                            "GROUP BY Country")
        payloads = {}
        for width in WIDTHS:
            with workers(width):
                summary = CauSumX(so_bundle.table, so_bundle.dag,
                                  fast_config).explain(
                    query,
                    grouping_attributes=so_bundle.grouping_attributes,
                    treatment_attributes=so_bundle.treatment_attributes)
            payload = summary_to_dict(summary)
            payload.pop("timings", None)
            payloads[width] = json.dumps(payload, sort_keys=True, default=str)
        for width in WIDTHS[1:]:
            assert payloads[width] == payloads[1]

    def test_estimate_many_identical_across_widths(self, so_bundle):
        import dataclasses
        import json

        from repro.causal import CATEEstimator

        def canon(estimates):
            # json keeps NaN as a literal, so undefined estimates compare
            # equal (dataclass == would fail on NaN != NaN).
            return json.dumps([dataclasses.asdict(e) for e in estimates],
                              sort_keys=True, default=str)

        table = so_bundle.table
        estimator = CATEEstimator(table, "Salary", dag=so_bundle.dag,
                                  min_group_size=5)
        treatments = [Pattern.of((attr, "==", value))
                      for attr in so_bundle.treatment_attributes
                      for value in table.domain(attr)[:3]]
        subpopulation = Pattern.of(("Country", "==", table.domain("Country")[0]))
        with workers(1):
            serial = canon(estimator.estimate_many(treatments, subpopulation))
        for width in WIDTHS[1:]:
            with workers(width):
                assert canon(estimator.estimate_many(
                    treatments, subpopulation)) == serial


# -------------------------------------------------------------- BLAS threads


needs_blas_control = pytest.mark.skipif(
    not blas_controllable(), reason="numpy's BLAS thread count is not settable")


@needs_blas_control
class TestSingleThreadedBlas:
    """CATE solves keep numpy's BLAS on one thread, and give the count back."""

    def test_nested_blocks_hold_one_thread_and_restore(self):
        before = blas_threads()
        with single_threaded_blas():
            assert blas_threads() == 1
            with single_threaded_blas():
                assert blas_threads() == 1
            assert blas_threads() == 1
        assert blas_threads() == before

    def test_restores_only_after_the_last_overlapping_block(self):
        before = blas_threads()
        entered, release = threading.Event(), threading.Event()

        def hold():
            with single_threaded_blas():
                entered.set()
                release.wait(10)

        holder = threading.Thread(target=hold)
        holder.start()
        try:
            assert entered.wait(10)
            with single_threaded_blas():
                pass
            assert blas_threads() == 1  # the other thread is still inside
        finally:
            release.set()
            holder.join()
        assert blas_threads() == before

    def test_estimate_many_solves_on_one_blas_thread(self, so_bundle,
                                                     monkeypatch):
        from repro.causal import CATEEstimator
        from repro.causal.ols import AdjustmentBasis

        seen = []
        solve = AdjustmentBasis.solve

        def spy(self, treated):
            seen.append(blas_threads())
            return solve(self, treated)

        monkeypatch.setattr(AdjustmentBasis, "solve", spy)
        table = so_bundle.table
        estimator = CATEEstimator(table, "Salary", dag=so_bundle.dag,
                                  min_group_size=5)
        before = blas_threads()
        estimator.estimate_many([Pattern.of((attr, "==", value))
                                 for attr in so_bundle.treatment_attributes
                                 for value in table.domain(attr)[:2]])
        assert seen and set(seen) == {1}
        assert blas_threads() == before


# ------------------------------------------------------------------- partials


class TestGroupByPartials:
    def test_clustered_compaction_serves_from_manifest(self):
        table = _people(500)
        query = parse_query("SELECT Country, AVG(Salary) FROM people "
                            "GROUP BY Country")
        in_memory = AggregateView(table, query)
        with tempfile.TemporaryDirectory() as tmp:
            store = DatasetStore.init(f"{tmp}/store")
            store.import_table("people", table, shard_rows=60)
            result = store.compact("people", cluster_by="Country")
            assert result["partial_groups"] > 0
            loaded = store.dataset("people").load_table()
            view = AggregateView(loaded, query)
            assert view.served_from_partials
            assert view.groups == in_memory.groups
            scan = loaded.scan_stats()
            # The whole answer came from manifest arithmetic: no shard
            # archive was ever opened, no row was read.
            assert scan["partials_served"] == 1
            assert scan["shards_open"] == 0

    def test_numeric_cluster_key_commits_no_partials(self):
        table = _people(200)
        with tempfile.TemporaryDirectory() as tmp:
            store = DatasetStore.init(f"{tmp}/store")
            store.import_table("people", table, shard_rows=50)
            result = store.compact("people", cluster_by="Salary")
            assert result["partial_groups"] == 0
            loaded = store.dataset("people").load_table()
            assert loaded._manifest.shards[0].group_partials is None

    def test_runtime_partials_match_manifest_partials(self):
        table = _people(300, seed=3)
        with tempfile.TemporaryDirectory() as tmp:
            store = DatasetStore.init(f"{tmp}/store")
            store.import_table("people", table, shard_rows=40)
            runtime = store.dataset("people").load_table() \
                .shard_groupby_partials(("Country",), "Salary")
            store.compact("people", cluster_by="Country")
            committed = store.dataset("people").load_table() \
                .shard_groupby_partials(("Country",), "Salary")
        # Clustering reorders rows, hence groups; the merged per-group
        # quantities are identical.
        assert sorted(runtime, key=repr) == sorted(committed, key=repr)

    def test_partials_refuse_inapplicable_queries(self):
        table = _people(100)
        with tempfile.TemporaryDirectory() as tmp:
            dataset = StoredDataset.create(f"{tmp}/d", "d", table,
                                           shard_rows=30)
            loaded = dataset.load_table()
            assert loaded.shard_groupby_partials(("Age",), "Salary") is None
            assert loaded.shard_groupby_partials(("Country",), "Role") is None
            assert loaded.shard_groupby_partials((), "Salary") is None

    def test_where_clause_bypasses_partials(self):
        table = _people(200)
        query = parse_query("SELECT Country, AVG(Salary) FROM people "
                            "WHERE Role = 'eng' GROUP BY Country")
        in_memory = AggregateView(table, query)
        with tempfile.TemporaryDirectory() as tmp:
            dataset = StoredDataset.create(f"{tmp}/d", "d", table,
                                           shard_rows=30)
            view = AggregateView(dataset.load_table(), query)
            assert not view.served_from_partials
            assert view.groups == in_memory.groups

    def test_engine_stats_surface_parallel_counters(self):
        engine = ExplanationEngine()
        stats = engine.stats()
        assert stats["parallel"]["workers"] == worker_count()
        for key in ("batches", "serial_batches", "morsels",
                    "max_workers_used", "partials_served"):
            assert key in stats["parallel"]


# ------------------------------------------------------------------ lockwatch


@pytest.fixture()
def watch():
    """Enabled lockwatch with a clean registry; always restored."""
    registry = lockwatch.enable()
    registry.reset()
    yield registry
    registry.reset()
    lockwatch.disable()


class TestConcurrencyLockOrder:
    def test_concurrent_select_append_compact_acyclic(self, watch, tmp_path):
        table = _people(240, seed=5)
        dataset = StoredDataset.create(tmp_path / "d", "d", table,
                                       shard_rows=40)
        pattern = Pattern.of(("Country", "==", "US"))
        batch = _people(40, seed=6)
        errors: list[BaseException] = []
        start = threading.Barrier(3)

        def scan():
            try:
                start.wait(timeout=30)
                for _ in range(5):
                    loaded = dataset.load_table()
                    loaded.select(pattern)
                    loaded.shard_groupby_partials(("Country",), "Salary")
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        def append():
            try:
                start.wait(timeout=30)
                for _ in range(3):
                    dataset.append(batch)
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        def compact():
            try:
                start.wait(timeout=30)
                for _ in range(2):
                    dataset.compact(cluster_by="Country")
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        with workers(4):
            threads = [threading.Thread(target=fn)
                       for fn in (scan, append, compact)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        assert not errors
        watch.assert_acyclic()
        assert watch.violations == []
