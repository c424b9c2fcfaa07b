"""Adaptive planning benchmark — feedback re-planning + bitmap cracking (ISSUE 10).

Two gates for the ``repro.adapt`` subsystem:

* **Feedback-corrected re-planning ≥ ``MIN_REPLAN_SPEEDUP`` (1.5×)** on a
  skewed workload whose *initial* estimates are deliberately wrong: a
  numeric equality on a heavy-hitter value (90 % of rows) that the
  uniform-distinct assumption estimates near zero, so the frozen planner
  ranks it first and every later conjunct pays subset evaluation over 90 %
  of the table.  After a couple of observed executions the
  :class:`~repro.adapt.EstimateCorrector` replaces the estimate with the
  observed selectivity and the re-planned order collapses the candidate set
  immediately.

* **Hot-predicate bitmap serving ≥ ``MIN_BITMAP_SPEEDUP`` (3×)** for a
  repeated conjunctive WHERE over a sharded store: ordered-categorical
  comparisons over a ~1600-value vocabulary (whose kernel decides per vocab
  entry in Python) answered from committed per-shard packed bitmaps
  (``np.unpackbits`` + fancy indexing) after promotion — including a **cold
  restart** leg that reopens the store and serves from the manifest's
  committed bitmaps alone.

Every adaptive/bitmap result is asserted equal row-for-row to the unplanned
oracle, so neither speedup can come from answering a different question.

Usable both as a pytest-benchmark test and as a standalone script for CI
smoke runs (writes ``benchmarks/results/bench_adaptive.json``)::

    PYTHONPATH=src python benchmarks/bench_adaptive.py [--smoke]
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.adapt import (  # noqa: E402
    GLOBAL_CORRECTOR,
    GLOBAL_HEAT,
    adaptive_overrides,
)
from repro.dataframe import Op, Pattern, Predicate, Table  # noqa: E402
from repro.plan import table_stats  # noqa: E402
from repro.plan.execute import planned_select_with_plan  # noqa: E402
from repro.storage import DatasetStore  # noqa: E402

MIN_REPLAN_SPEEDUP = 1.5
MIN_BITMAP_SPEEDUP = 3.0

HEAVY_VALUE = 1000.0


# ---------------------------------------------------------------------- gate (a)


N_SEGMENTS = 100


def _skewed_table(n: int) -> Table:
    """95 % of ``heavy`` equals one value among ~1000 distinct ones.

    The planner's uniform-distinct assumption estimates the equality at
    ~1/1000 while its true selectivity is 0.95 — the worst case for a
    frozen plan, which ranks it first (cheapest × most selective on paper)
    and drags 95 % of the rows through every later conjunct.
    """
    rng = np.random.default_rng(0)
    heavy = np.where(rng.random(n) < 0.95, HEAVY_VALUE,
                     rng.integers(0, 1000, n).astype(float))
    segments = [f"s{i:03d}" for i in range(N_SEGMENTS)]
    return Table.from_columns({
        "heavy": heavy,
        "segment": [segments[i] for i in rng.integers(0, len(segments), n)],
        "amount": rng.normal(0.0, 50.0, n),
        "channel": [("web", "app", "api", "ads")[i]
                    for i in rng.integers(0, 4, n)],
    }, name="skewed-estimates")


def _skewed_pattern(segment: int) -> Pattern:
    return Pattern([
        Predicate("heavy", Op.EQ, HEAVY_VALUE),         # est ~0.001, actual 0.95
        Predicate("segment", Op.EQ, f"s{segment:03d}"),  # exact 0.01
        Predicate("amount", Op.GE, -20.0),              # broad
        Predicate("channel", Op.NE, "web"),             # broad
    ])


def _run_workload(table: Table, queries, stats, feedback: bool) -> list:
    """Serve the workload; with ``feedback`` the corrector sees every plan."""
    incarnation = stats.incarnation
    results = []
    for pattern in queries:
        selected, plan = planned_select_with_plan(table, pattern, stats=stats)
        results.append(selected)
        if feedback and plan is not None:
            GLOBAL_CORRECTOR.observe_plan(incarnation, plan)
    return results


def run_replan_comparison(n: int = 200_000, n_queries: int = 40) -> dict:
    table = _skewed_table(n)
    queries = [_skewed_pattern(i % N_SEGMENTS) for i in range(n_queries)]
    oracle = [Table.select(table, pattern) for pattern in queries]

    GLOBAL_CORRECTOR.reset()
    with adaptive_overrides(enabled=False):
        stats = table_stats(_skewed_table(n))
        start = time.perf_counter()
        frozen = _run_workload(table, queries, stats, feedback=False)
        frozen_seconds = time.perf_counter() - start

    stats = table_stats(_skewed_table(n))
    # Untimed warm-up: the corrector needs ``min_observations`` sightings of
    # the mis-estimated conjunct before corrections apply (the engine gets
    # the same head start from its telemetry warm start on reopen).
    _run_workload(table, queries[:3], stats, feedback=True)
    start = time.perf_counter()
    corrected = _run_workload(table, queries, stats, feedback=True)
    corrected_seconds = time.perf_counter() - start
    snapshot = GLOBAL_CORRECTOR.snapshot()
    GLOBAL_CORRECTOR.reset()

    return {
        "gate": "replan",
        "rows": n,
        "queries": n_queries,
        "frozen_seconds": round(frozen_seconds, 4),
        "corrected_seconds": round(corrected_seconds, 4),
        "speedup": round(frozen_seconds / max(corrected_seconds, 1e-9), 2),
        "results_equal": (all(a == b for a, b in zip(frozen, oracle))
                          and all(a == b for a, b in zip(corrected, oracle))),
        "corrections_served": snapshot["corrections_served"],
        "observations": snapshot["observations"],
    }


# ---------------------------------------------------------------------- gate (b)


def _wide_vocab_table(n: int) -> Table:
    """Two ~1600-value ordered-categorical columns plus a measure.

    Ordered comparisons over a vocabulary this wide decide membership per
    vocab entry in Python — the expensive kernel the committed bitmaps
    replace.  Values are spread uniformly so the hot predicates match in
    every shard (zone maps never skip; the bitmap does the work).
    """
    rng = np.random.default_rng(1)
    vocab = [f"v{i:04d}" for i in range(1600)]
    return Table.from_columns({
        "cat_a": [vocab[i] for i in rng.integers(0, len(vocab), n)],
        "cat_b": [vocab[i] for i in rng.integers(0, len(vocab), n)],
        "value": rng.normal(0.0, 10.0, n),
    }, name="hotwhere")


HOT_PREDICATES = (Predicate("cat_a", Op.LE, "v0399"),   # ~0.25
                  Predicate("cat_b", Op.GE, "v1200"))   # ~0.25


def _time_selects(loaded, pattern, n_queries: int) -> tuple[float, list]:
    start = time.perf_counter()
    results = [loaded.plan_shard_select(pattern)[0] for _ in range(n_queries)]
    return time.perf_counter() - start, results


def run_bitmap_comparison(n: int = 200_000, n_queries: int = 30,
                          shard_rows: int = 25_000) -> dict:
    pattern = Pattern(list(HOT_PREDICATES))
    with tempfile.TemporaryDirectory() as tmp:
        store = DatasetStore.init(Path(tmp) / "store")
        table = _wide_vocab_table(n)
        dataset = store.import_table("hotwhere", table,
                                     shard_rows=shard_rows)
        oracle = Table.select(table, pattern)

        loaded = dataset.load_table()
        kernel_seconds, kernel_results = _time_selects(loaded, pattern,
                                                       n_queries)

        promoted_bytes = 0
        for predicate in HOT_PREDICATES:
            result = dataset.promote_index(predicate)
            loaded.install_predicate_index(result["key"], result["masks"])
            promoted_bytes += result["nbytes"]
        live_seconds, live_results = _time_selects(loaded, pattern, n_queries)

        # cold restart: a fresh process would reopen the store and serve
        # from the manifest's committed bitmaps alone
        reopened = DatasetStore(store.root).dataset("hotwhere")
        cold_table = reopened.load_table()
        cold_seconds, cold_results = _time_selects(cold_table, pattern,
                                                   n_queries)
        bitmap_served = (loaded.scan_stats()["bitmap_conjuncts_served"]
                         + cold_table.scan_stats()["bitmap_conjuncts_served"])

    equal = all(selected == oracle
                for leg in (kernel_results, live_results, cold_results)
                for selected in leg)
    return {
        "gate": "bitmap",
        "rows": n,
        "queries": n_queries,
        "shards": max(1, n // shard_rows),
        "kernel_seconds": round(kernel_seconds, 4),
        "live_bitmap_seconds": round(live_seconds, 4),
        "cold_bitmap_seconds": round(cold_seconds, 4),
        "speedup_live": round(kernel_seconds / max(live_seconds, 1e-9), 2),
        "speedup_cold": round(kernel_seconds / max(cold_seconds, 1e-9), 2),
        "index_bytes": promoted_bytes,
        "bitmap_conjuncts_served": bitmap_served,
        "results_equal": equal,
    }


# ---------------------------------------------------------------------- harness


def _check(rows: list[dict]) -> list[str]:
    failures = []
    for row in rows:
        if not row["results_equal"]:
            failures.append(f"{row['gate']}: results differ from the oracle")
    replan = next(r for r in rows if r["gate"] == "replan")
    if replan["speedup"] < MIN_REPLAN_SPEEDUP:
        failures.append(
            f"replan: corrected speedup {replan['speedup']:.2f}x below the "
            f"{MIN_REPLAN_SPEEDUP}x floor")
    if replan["corrections_served"] == 0:
        failures.append("replan: no corrections were ever served")
    bitmap = next(r for r in rows if r["gate"] == "bitmap")
    for leg in ("speedup_live", "speedup_cold"):
        if bitmap[leg] < MIN_BITMAP_SPEEDUP:
            failures.append(
                f"bitmap: {leg} {bitmap[leg]:.2f}x below the "
                f"{MIN_BITMAP_SPEEDUP}x floor")
    if bitmap["bitmap_conjuncts_served"] == 0:
        failures.append("bitmap: no conjunct was ever bitmap-served")
    return failures


def run_all(n_replan: int, n_bitmap: int) -> list[dict]:
    GLOBAL_HEAT.reset()
    return [run_replan_comparison(n=n_replan),
            run_bitmap_comparison(n=n_bitmap)]


def test_adaptive_speedups(benchmark):
    """≥1.5× corrected re-planning, ≥3× bitmap-served hot WHERE (cold too)."""
    from conftest import record_rows

    rows = benchmark.pedantic(run_all,
                              kwargs={"n_replan": 120_000,
                                      "n_bitmap": 120_000},
                              rounds=1, iterations=1)
    record_rows(benchmark, rows,
                paper_reference="ISSUE 10 / ROADMAP (iii) adaptive "
                                "re-planning from telemetry feedback",
                expected_shape=f"replan >= {MIN_REPLAN_SPEEDUP}x, bitmap "
                               f">= {MIN_BITMAP_SPEEDUP}x live and cold, "
                               "equal results")
    assert not _check(rows), (rows, _check(rows))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small instance for CI (120k rows)")
    parser.add_argument("--rows", type=int, default=None,
                        help="dataset size (default: 200000, smoke: 120000)")
    args = parser.parse_args(argv)
    n = args.rows if args.rows is not None else (120_000 if args.smoke
                                                 else 200_000)

    rows = run_all(n_replan=n, n_bitmap=n)
    replan, bitmap = rows
    print(f"feedback re-planning n={replan['rows']} "
          f"{replan['queries']} queries (heavy-hitter equality mis-estimated)")
    print(f"  frozen estimates: {replan['frozen_seconds']:.3f}s")
    print(f"  corrected estimates: {replan['corrected_seconds']:.3f}s "
          f"({replan['corrections_served']} corrections served)")
    print(f"  speedup {replan['speedup']:.1f}x")
    print(f"bitmap cracking n={bitmap['rows']} rows / {bitmap['shards']} "
          f"shards, {bitmap['queries']} hot conjunctive queries")
    print(f"  predicate kernels: {bitmap['kernel_seconds']:.3f}s")
    print(f"  committed bitmaps (live): {bitmap['live_bitmap_seconds']:.3f}s "
          f"({bitmap['speedup_live']:.1f}x)")
    print(f"  committed bitmaps (cold restart): "
          f"{bitmap['cold_bitmap_seconds']:.3f}s "
          f"({bitmap['speedup_cold']:.1f}x, {bitmap['index_bytes']} "
          f"index bytes)")

    results_dir = Path(__file__).resolve().parent / "results"
    results_dir.mkdir(exist_ok=True)
    payload = {"benchmark": "bench_adaptive", "rows": rows,
               "expected_shape": f"replan >= {MIN_REPLAN_SPEEDUP}x, bitmap "
                                 f">= {MIN_BITMAP_SPEEDUP}x live and cold, "
                                 "equal results"}
    with (results_dir / "bench_adaptive.json").open("w") as handle:
        json.dump(payload, handle, indent=2, default=str)

    failures = _check(rows)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print(f"\nOK: corrected re-planning {replan['speedup']:.1f}x >= "
              f"{MIN_REPLAN_SPEEDUP}x, bitmap-served hot WHERE "
              f"{bitmap['speedup_live']:.1f}x live / "
              f"{bitmap['speedup_cold']:.1f}x cold >= {MIN_BITMAP_SPEEDUP}x, "
              "identical results")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
