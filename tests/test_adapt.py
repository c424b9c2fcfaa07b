"""Tests for adaptive re-planning and bitmap cracking (``repro.adapt``).

Covers feedback-corrected estimation (EWMA over telemetry actuals),
hot-predicate promotion to committed per-shard bitmap indexes with
budget/LRU demotion, bitmap-served selects byte-identical to the unplanned
``Table.select`` reference across worker widths (including
post-append coverage and post-compact invalidation), telemetry-reader
version filtering, the ``--per-conjunct`` obs view, and lock-order
acyclicity with promotion concurrent with serving.
"""

from __future__ import annotations

import argparse
import json
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adapt import (
    GLOBAL_CORRECTOR,
    GLOBAL_HEAT,
    AdaptiveConfig,
    EstimateCorrector,
    HeatTracker,
    adaptive_config,
    adaptive_enabled,
    adaptive_overrides,
    config_from_env,
    predicate_from_repr,
)
from repro.analysis import lockwatch
from repro.core import CauSumXConfig, summary_to_dict
from repro.dataframe import Op, Pattern, Predicate, Table
from repro.mining.treatments import TreatmentMinerConfig
from repro.obs.telemetry import TelemetryLog, TelemetryReader
from repro.parallel import workers
from repro.plan import GLOBAL_PLANNER_STATS
from repro.service import ExplanationEngine
from repro.storage import DatasetStore, StorageError
from repro.storage.shard import pack_bitmap, unpack_bitmap


@pytest.fixture(autouse=True)
def clean_adapt_state():
    """Every test starts from empty global corrector/heat/planner state."""
    GLOBAL_CORRECTOR.reset()
    GLOBAL_HEAT.reset()
    GLOBAL_PLANNER_STATS.reset()
    yield
    GLOBAL_CORRECTOR.reset()
    GLOBAL_HEAT.reset()
    GLOBAL_PLANNER_STATS.reset()


def _table(n: int = 400, seed: int = 0) -> Table:
    rng = np.random.default_rng(seed)
    countries = ["US", "India", "China", "France", "Japan"]
    roles = ["Dev", "DS", "QA"]
    return Table.from_columns({
        "Country": [countries[i] for i in rng.integers(0, len(countries), n)],
        "Role": [roles[i] for i in rng.integers(0, len(roles), n)],
        "Age": rng.integers(18, 70, n).astype(float),
        "Salary": rng.normal(100.0, 25.0, n),
    }, name="people")


# ------------------------------------------------------------------ config


class TestAdaptiveConfig:
    def test_defaults_enabled(self):
        assert adaptive_enabled()
        assert adaptive_config().heat_threshold > 0

    def test_env_parsing(self, monkeypatch):
        monkeypatch.setenv("REPRO_ADAPT", "0")
        monkeypatch.setenv("REPRO_ADAPT_HEAT", "7")
        monkeypatch.setenv("REPRO_ADAPT_INDEX_BUDGET", "4096")
        config = config_from_env()
        assert not config.enabled
        assert config.heat_threshold == 7
        assert config.index_budget_bytes == 4096

    def test_invalid_env_falls_back_to_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_ADAPT_HEAT", "not-a-number")
        assert config_from_env().heat_threshold == \
            AdaptiveConfig().heat_threshold

    def test_overrides_restore(self):
        before = adaptive_config()
        with adaptive_overrides(enabled=False, heat_threshold=1):
            assert not adaptive_enabled()
            assert adaptive_config().heat_threshold == 1
        assert adaptive_config() == before


# ------------------------------------------------------------------ corrector


class TestEstimateCorrector:
    INC = ("people", 400)

    def test_below_min_observations_estimate_stands(self):
        corrector = EstimateCorrector()
        predicate = Predicate("Country", Op.EQ, "US")
        corrector.observe(self.INC, repr(predicate), 0.01, 0.9)
        value, applied = corrector.corrected(self.INC, predicate, 0.01)
        assert (value, applied) == (0.01, False)

    def test_ewma_replaces_estimate_after_min_observations(self):
        corrector = EstimateCorrector()
        predicate = Predicate("Country", Op.EQ, "US")
        for _ in range(3):
            corrector.observe(self.INC, repr(predicate), 0.01, 0.9)
        value, applied = corrector.corrected(self.INC, predicate, 0.01)
        assert applied
        assert value == pytest.approx(0.9)

    def test_actuals_clamped_to_unit_interval(self):
        corrector = EstimateCorrector()
        predicate = Predicate("Age", Op.LT, 40.0)
        for _ in range(3):
            corrector.observe(self.INC, repr(predicate), 0.5, 7.0)
        value, _ = corrector.corrected(self.INC, predicate, 0.5)
        assert value == 1.0

    def test_incarnations_isolated(self):
        corrector = EstimateCorrector()
        predicate = Predicate("Country", Op.EQ, "US")
        for _ in range(3):
            corrector.observe(self.INC, repr(predicate), 0.01, 0.9)
        other = ("people", 500)  # same name, different row count
        _, applied = corrector.corrected(other, predicate, 0.01)
        assert not applied

    def test_corrected_counts_only_applied_corrections(self):
        corrector = EstimateCorrector()
        predicate = Predicate("Country", Op.EQ, "US")
        corrector.observe(self.INC, repr(predicate), 0.01, 0.9)
        corrector.corrected(self.INC, predicate, 0.01)  # below the minimum
        assert corrector.snapshot()["corrections_served"] == 0
        corrector.observe(self.INC, repr(predicate), 0.01, 0.9)
        corrector.corrected(self.INC, predicate, 0.01)
        corrector.corrected(self.INC, predicate, 0.01)
        assert corrector.snapshot()["corrections_served"] == 2

    def test_observe_plan_skips_unexecuted_conjuncts(self):
        from types import SimpleNamespace
        corrector = EstimateCorrector()
        plan = SimpleNamespace(conjuncts=(
            SimpleNamespace(predicate=Predicate("Country", Op.EQ, "US"),
                            estimated_selectivity=0.2,
                            actual_selectivity=0.4),
            SimpleNamespace(predicate=Predicate("Role", Op.EQ, "Dev"),
                            estimated_selectivity=0.3,
                            actual_selectivity=None),
        ))
        corrector.observe_plan(self.INC, plan)
        entries = corrector.entries_for(self.INC)
        assert set(entries) == {"Country == 'US'"}

    def test_weighted_observation_counts_toward_minimum(self):
        corrector = EstimateCorrector()
        predicate = Predicate("Country", Op.EQ, "US")
        corrector.observe(self.INC, repr(predicate), 0.01, 0.9, weight=5)
        _, applied = corrector.corrected(self.INC, predicate, 0.01)
        assert applied


# ------------------------------------------------------------------ heat


class TestHeatTracker:
    def test_threshold_and_ordering(self):
        tracker = HeatTracker()
        a = Predicate("Country", Op.EQ, "US")
        b = Predicate("Role", Op.EQ, "Dev")
        for _ in range(3):
            tracker.record("people", [a, b])
        tracker.record("people", [a])
        assert tracker.hot("people", threshold=4) == [(repr(a), a)]
        hot = tracker.hot("people", threshold=3)
        assert [key for key, _ in hot] == [repr(a), repr(b)]

    def test_rank_unknown_is_coldest(self):
        tracker = HeatTracker()
        tracker.record("people", [Predicate("Country", Op.EQ, "US")])
        assert tracker.rank("people", "nope") == (0, 0)
        assert tracker.rank("people", "Country == 'US'") > (0, 0)

    def test_warm_replays_counts_and_fills_predicate(self):
        tracker = HeatTracker()
        predicate = Predicate("Country", Op.EQ, "US")
        tracker.warm("people", repr(predicate), 10, predicate)
        assert tracker.hot("people", threshold=10) == \
            [(repr(predicate), predicate)]
        assert tracker.snapshot()["serves_recorded"] == 10


# ------------------------------------------------------------------ repr parsing


class TestPredicateFromRepr:
    def test_simple_cases(self):
        assert predicate_from_repr("Age <= 40") == \
            Predicate("Age", Op.LE, 40)
        assert predicate_from_repr("Country == 'US'") == \
            Predicate("Country", Op.EQ, "US")

    def test_operator_inside_value(self):
        assert predicate_from_repr("x == 'a < b'") == \
            Predicate("x", Op.EQ, "a < b")

    def test_strict_rejects_bare_words_lax_accepts(self):
        assert predicate_from_repr("channel == web") is None
        assert predicate_from_repr("channel == web", strict=False) == \
            Predicate("channel", Op.EQ, "web")

    def test_garbage_is_none(self):
        assert predicate_from_repr("no operator here") is None
        assert predicate_from_repr("== 'US'") is None
        assert predicate_from_repr(None) is None

    @settings(max_examples=60, deadline=None)
    @given(
        attribute=st.text(
            alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd"),
                                   whitelist_characters="_"),
            min_size=1, max_size=12),
        op=st.sampled_from(list(Op)),
        value=st.one_of(
            st.integers(-10**6, 10**6),
            st.floats(allow_nan=False, allow_infinity=False, width=32),
            st.text(max_size=20)),
    )
    def test_round_trip(self, attribute, op, value):
        predicate = Predicate(attribute, op, value)
        assert predicate_from_repr(repr(predicate)) == predicate


# ------------------------------------------------------------------ bitmaps


class TestPackedBitmaps:
    def test_round_trip(self):
        mask = np.random.default_rng(0).random(1000) < 0.3
        spec = pack_bitmap(mask)
        assert spec["n_rows"] == 1000
        assert spec["matches"] == int(mask.sum())
        assert np.array_equal(unpack_bitmap(spec), mask)

    def test_truncated_payload_rejected(self):
        spec = pack_bitmap(np.ones(64, dtype=bool))
        spec["n_rows"] = 1000
        with pytest.raises(StorageError):
            unpack_bitmap(spec)


class TestStoredIndexes:
    @pytest.fixture
    def dataset(self, tmp_path):
        store = DatasetStore.init(tmp_path / "store")
        return store.import_table("people", _table(), shard_rows=100)

    def test_promote_covers_all_shards_same_version(self, dataset):
        version = dataset.manifest.version
        result = dataset.promote_index(Predicate("Country", Op.EQ, "US"))
        assert result["shards"] == len(dataset.manifest.shards)
        assert result["version"] == version  # no version bump
        stats = dataset.index_stats()
        assert stats["indexes"]["Country == 'US'"]["n_rows"] == 400
        assert stats["total_nbytes"] == result["nbytes"]

    def test_promote_rejects_unknown_attribute_and_unsafe_value(self, dataset):
        with pytest.raises(StorageError):
            dataset.promote_index(Predicate("Nope", Op.EQ, "US"))
        with pytest.raises(StorageError):
            dataset.promote_index(Predicate("Country", Op.EQ, object()))

    def test_drop_removes_everywhere(self, dataset):
        dataset.promote_index(Predicate("Country", Op.EQ, "US"))
        result = dataset.drop_index("Country == 'US'")
        assert result["shards"] == len(dataset.manifest.shards)
        assert dataset.index_stats()["indexes"] == {}
        assert dataset.drop_index("Country == 'US'")["shards"] == 0

    @pytest.mark.parametrize("width", [1, 2, 8])
    def test_bitmap_select_byte_identical_to_oracle(self, dataset, width):
        table = _table()
        dataset.promote_index(Predicate("Country", Op.EQ, "US"))
        dataset.promote_index(Predicate("Age", Op.LE, 40.0))
        loaded = dataset.load_table()
        assert loaded.predicate_index_keys() == \
            {"Country == 'US'", "Age <= 40.0"}
        pattern = Pattern([Predicate("Country", Op.EQ, "US"),
                           Predicate("Age", Op.LE, 40.0),
                           Predicate("Role", Op.EQ, "Dev")])
        oracle = Table.select(table, pattern)
        with workers(width):
            selected, plan = loaded.plan_shard_select(pattern)
        assert selected == oracle
        assert plan is not None and plan.rows_out == oracle.n_rows
        assert loaded.scan_stats()["bitmap_conjuncts_served"] > 0

    def test_append_extends_coverage_results_stay_identical(self, dataset):
        dataset.promote_index(Predicate("Country", Op.EQ, "US"))
        shards_before = len(dataset.manifest.shards)
        batch = _table(80, seed=9)
        dataset.append(batch)
        stats = dataset.index_stats()
        entry = stats["indexes"]["Country == 'US'"]
        assert stats["shards_total"] == shards_before + 1
        assert entry["shards"] == stats["shards_total"]  # new shard covered
        combined = _table().concat(batch)
        pattern = Pattern([Predicate("Country", Op.EQ, "US")])
        oracle = Table.select(combined, pattern)
        selected, _ = dataset.load_table().plan_shard_select(pattern)
        assert selected == oracle

    def test_compact_invalidates_then_rebuild(self, dataset):
        dataset.promote_index(Predicate("Country", Op.EQ, "US"))
        dataset.compact(shard_rows=200)
        # compaction rewrites rows: stale bitmaps must not survive it
        assert dataset.index_stats()["indexes"] == {}
        result = dataset.promote_index(Predicate("Country", Op.EQ, "US"))
        assert result["shards"] == len(dataset.manifest.shards)
        pattern = Pattern([Predicate("Country", Op.EQ, "US")])
        oracle = Table.select(_table(), pattern)
        selected, _ = dataset.load_table().plan_shard_select(pattern)
        assert selected == oracle

    def test_live_install_and_demotion_hides_committed_spec(self, dataset):
        loaded = dataset.load_table()  # handles predate the promotion
        result = dataset.promote_index(Predicate("Country", Op.EQ, "US"))
        assert loaded.predicate_index_keys() == set()
        loaded.install_predicate_index(result["key"], result["masks"])
        assert loaded.predicate_index_keys() == {"Country == 'US'"}
        loaded.drop_predicate_index("Country == 'US'")
        assert loaded.predicate_index_keys() == set()
        pattern = Pattern([Predicate("Country", Op.EQ, "US")])
        selected, _ = loaded.plan_shard_select(pattern)
        assert selected == Table.select(_table(), pattern)


# ------------------------------------------------------------------ engine


def _small_config(**overrides) -> CauSumXConfig:
    config = CauSumXConfig(
        k=3, theta=0.5, apriori_threshold=0.1, sample_size=None,
        min_group_size=5,
        treatment=TreatmentMinerConfig(max_levels=1, min_group_size=5,
                                       max_values_per_attribute=6))
    return config.with_overrides(**overrides) if overrides else config


WHERE_SQL = ("SELECT Country, AVG(Salary) FROM SO "
             "WHERE Gender = 'Male' AND Continent != 'Oceania' "
             "GROUP BY Country")


def _payload(summary) -> str:
    payload = summary_to_dict(summary)
    payload.pop("timings", None)
    return json.dumps(payload, sort_keys=True, default=str)


class TestEngineAdaptiveLoop:
    @pytest.fixture
    def store(self, so_bundle, tmp_path):
        store = DatasetStore.init(tmp_path / "store")
        store.import_bundle(so_bundle, config=_small_config(), shard_rows=150)
        return store

    def test_heat_promotion_and_counters(self, store, so_bundle):
        with adaptive_overrides(heat_threshold=3):
            engine = ExplanationEngine.from_store(store, max_workers=1)
            for _ in range(4):
                engine.explain(so_bundle.name, WHERE_SQL)
            committed = store.dataset(so_bundle.name).index_stats()["indexes"]
            assert committed  # at least one conjunct promoted
            planner = engine.stats()["planner"]
            assert planner["indexes_promoted"] >= 1
            assert planner["adaptive"]["enabled"]
            assert planner["adaptive"]["heat"]["serves_recorded"] > 0
            # a fresh materialization (cached views dropped) now answers
            # the WHERE from the live bitmaps
            engine._view_cache.purge(lambda key: True)
            engine.explain(so_bundle.name, WHERE_SQL,
                           use_summary_cache=False)
            state = engine.dataset_state(so_bundle.name)
            assert state.table.scan_stats()["bitmap_conjuncts_served"] > 0

    def test_bitmap_served_summary_byte_identical_to_oracle(
            self, store, so_bundle, monkeypatch):
        with adaptive_overrides(heat_threshold=2):
            engine = ExplanationEngine.from_store(store, max_workers=1)
            for _ in range(3):
                engine.explain(so_bundle.name, WHERE_SQL)
            adaptive = engine.explain(so_bundle.name, WHERE_SQL,
                                      use_summary_cache=False)
            state = engine.dataset_state(so_bundle.name)
            assert state.table.predicate_index_keys()  # bitmaps were live
        # Reference: the in-memory table (no shards, no bitmaps) with the
        # view's WHERE run as a full-mask Table.select.
        monkeypatch.setattr(
            "repro.sql.view.planned_select_with_plan",
            lambda table, condition: (Table.select(table, condition), None))
        with adaptive_overrides(enabled=False):
            oracle_engine = ExplanationEngine(max_workers=1)
            oracle_engine.register_bundle(so_bundle, config=_small_config())
            oracle = oracle_engine.explain(so_bundle.name, WHERE_SQL)
        assert _payload(adaptive) == _payload(oracle)

    def test_budget_demotes_strictly_colder_index(self, store, so_bundle):
        name = so_bundle.name
        dataset = store.dataset(name)
        cold = Predicate("Gender", Op.NE, "Female")
        dataset.promote_index(cold)  # committed but never served
        nbytes = dataset.index_stats()["total_nbytes"]
        with adaptive_overrides(heat_threshold=3,
                                index_budget_bytes=nbytes + 1):
            engine = ExplanationEngine.from_store(store, max_workers=1)
            for _ in range(4):
                engine.explain(name, WHERE_SQL)
            committed = dataset.index_stats()["indexes"]
            assert repr(cold) not in committed  # cold one demoted
            assert committed  # a served-hot predicate took its slot
            planner = engine.stats()["planner"]
            assert planner["indexes_demoted"] >= 1
            assert planner["indexes_promoted"] >= 1

    def test_corrections_reach_plan_scan(self, store, so_bundle):
        name = so_bundle.name
        with adaptive_overrides(heat_threshold=10**6):
            engine = ExplanationEngine.from_store(store, max_workers=1)
            for _ in range(3):
                # purge so every serve re-plans (a cached view never calls
                # plan_scan); by the third plan the corrector has enough
                # observations per conjunct to replace the estimates
                engine._view_cache.purge(lambda key: True)
                engine.explain(name, WHERE_SQL, use_summary_cache=False)
            planner = engine.stats()["planner"]
            assert planner["corrections_applied"] > 0
            assert planner["adaptive"]["corrector"]["observations"] > 0

    def test_disabled_leaves_no_trace(self, store, so_bundle):
        with adaptive_overrides(enabled=False):
            engine = ExplanationEngine.from_store(store, max_workers=1)
            for _ in range(3):
                engine.explain(so_bundle.name, WHERE_SQL)
        assert GLOBAL_HEAT.snapshot()["serves_recorded"] == 0
        assert GLOBAL_CORRECTOR.snapshot()["observations"] == 0
        assert store.dataset(so_bundle.name).index_stats()["indexes"] == {}


# ------------------------------------------------------------------ warm start


class TestWarmStart:
    def test_telemetry_replay_seeds_heat_and_corrector(
            self, so_bundle, tmp_path):
        store = DatasetStore.init(tmp_path / "store")
        store.import_bundle(so_bundle, config=_small_config())
        name = so_bundle.name
        version = store.dataset(name).manifest.version
        log = TelemetryLog(store.root / "telemetry")
        for _ in range(5):
            log.record({
                "dataset": name, "version": version,
                "plan": {"conjuncts": [
                    {"predicate": "Gender == 'Male'",
                     "estimated_selectivity": 0.1,
                     "actual_selectivity": 0.7}]}})
        log.close()
        engine = ExplanationEngine.from_store(store, max_workers=1)
        assert GLOBAL_HEAT.rank(name, "Gender == 'Male'")[0] == 5
        state = engine.dataset_state(name)
        entries = GLOBAL_CORRECTOR.entries_for(
            (state.table.name, state.table.n_rows))
        assert entries["Gender == 'Male'"]["observations"] == 5
        assert entries["Gender == 'Male'"]["ewma_actual"] == pytest.approx(0.7)

    def test_stale_versions_do_not_warm(self, so_bundle, tmp_path):
        store = DatasetStore.init(tmp_path / "store")
        store.import_bundle(so_bundle, config=_small_config())
        name = so_bundle.name
        log = TelemetryLog(store.root / "telemetry")
        log.record({"dataset": name, "version": 99,
                    "plan": {"conjuncts": [
                        {"predicate": "Gender == 'Male'",
                         "estimated_selectivity": 0.1,
                         "actual_selectivity": 0.7}]}})
        log.record({"dataset": "ghost", "version": 0,
                    "plan": {"conjuncts": [
                        {"predicate": "x == 1",
                         "estimated_selectivity": 0.1,
                         "actual_selectivity": 0.7}]}})
        log.close()
        ExplanationEngine.from_store(store, max_workers=1)
        assert GLOBAL_HEAT.snapshot()["serves_recorded"] == 0
        assert GLOBAL_CORRECTOR.snapshot()["observations"] == 0


# ------------------------------------------------------------------ reader


class TestTelemetryReader:
    def test_version_window_filtering(self, tmp_path):
        log = TelemetryLog(tmp_path)
        log.record({"dataset": "d", "version": 0, "plan": None})
        log.record({"dataset": "d", "version": 3, "plan": None})
        log.record({"dataset": "d", "version": 9, "plan": None})
        log.record({"dataset": "other", "version": 0, "plan": None})
        log.record({"dataset": "d", "version": "bogus", "plan": None})
        log.close()
        reader = TelemetryReader(tmp_path, versions={"d": 3},
                                 min_versions={"d": 1})
        records, corrupt, stale = reader.read()
        assert corrupt == 0
        assert stale == 4  # v0 (below min), v9 (future), other, bogus
        assert [r["version"] for r in records] == [3]
        unfiltered = TelemetryReader(tmp_path)
        assert len(unfiltered.read()[0]) == 5

    def test_conjunct_stats_ranking_and_executed(self, tmp_path):
        log = TelemetryLog(tmp_path)
        for actual in (0.5, 0.7):
            log.record({"dataset": "d", "version": 0,
                        "plan": {"conjuncts": [
                            {"predicate": "a == 1",
                             "estimated_selectivity": 0.1,
                             "actual_selectivity": actual}]}})
        log.record({"dataset": "d", "version": 0,
                    "plan": {"conjuncts": [
                        {"predicate": "b == 2",
                         "estimated_selectivity": 0.2,
                         "actual_selectivity": None}]}})
        log.close()
        rows = TelemetryReader(tmp_path, versions={"d": 0}).conjunct_stats()
        assert [r["predicate"] for r in rows] == ["a == 1", "b == 2"]
        worst = rows[0]
        assert worst["count"] == 2 and worst["executed"] == 2
        assert worst["mean_abs_error"] == pytest.approx(0.5)
        assert worst["max_abs_error"] == pytest.approx(0.6)
        assert worst["mean_actual"] == pytest.approx(0.6)
        never = rows[1]
        assert never["count"] == 1 and never["executed"] == 0
        assert never["mean_abs_error"] == 0.0

    def test_obs_summary_per_conjunct(self, tmp_path, capsys):
        from repro.obs.cli import run_obs
        log = TelemetryLog(tmp_path / "telemetry")
        log.record({"dataset": "d", "version": 0, "duration_ms": 1.0,
                    "plan": {"conjuncts": [
                        {"predicate": "a == 1",
                         "estimated_selectivity": 0.1,
                         "actual_selectivity": 0.9}]}})
        log.close()
        args = argparse.Namespace(obs_command="summary",
                                  store=tmp_path, per_conjunct=5)
        assert run_obs(args) == 0
        out = capsys.readouterr().out
        assert "worst-estimated conjuncts" in out
        assert "a == 1" in out


# ------------------------------------------------------------------ CLI


class TestStoreIndexCli:
    def test_ls_promote_drop(self, tmp_path, capsys):
        from repro.cli import main
        root = tmp_path / "store"
        store = DatasetStore.init(root)
        store.import_table("people", _table(), shard_rows=100)
        assert main(["store", "index", "promote", str(root), "people",
                     "Country == 'US'"]) == 0
        assert main(["store", "index", "ls", str(root), "people"]) == 0
        out = capsys.readouterr().out
        assert "promoted Country == 'US'" in out
        assert "1 index(es)" in out
        assert main(["store", "index", "drop", str(root), "people",
                     "Country == 'US'"]) == 0
        assert store.dataset("people").index_stats()["indexes"] == {}

    def test_promote_bad_predicate_or_attribute(self, tmp_path, capsys):
        from repro.cli import main
        root = tmp_path / "store"
        store = DatasetStore.init(root)
        store.import_table("people", _table())
        assert main(["store", "index", "promote", str(root), "people",
                     "no operator"]) == 2
        assert main(["store", "index", "promote", str(root), "people",
                     "Nope == 'x'"]) == 2
        err = capsys.readouterr().err
        assert "cannot parse predicate" in err
        assert "not a stored attribute" in err


# ------------------------------------------------------------------ lockwatch


class TestAdaptiveLockOrder:
    def test_promotion_concurrent_with_serving_stays_acyclic(
            self, so_bundle, tmp_path):
        registry = lockwatch.enable()
        registry.reset()
        try:
            store = DatasetStore.init(tmp_path / "store")
            store.import_bundle(so_bundle, config=_small_config(),
                                shard_rows=150)
            name = so_bundle.name
            with adaptive_overrides(heat_threshold=2):
                engine = ExplanationEngine.from_store(store, max_workers=2)
                errors = []

                def serve():
                    try:
                        for _ in range(4):
                            engine.explain(name, WHERE_SQL,
                                           use_summary_cache=False)
                    except Exception as exc:  # pragma: no cover
                        errors.append(exc)

                threads = [threading.Thread(target=serve) for _ in range(3)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
            assert not errors
            assert store.dataset(name).index_stats()["indexes"]
            registry.assert_acyclic()
            assert registry.violations == []
        finally:
            registry.reset()
            lockwatch.disable()
