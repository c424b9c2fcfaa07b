"""Checks of the benchmark's own machinery.

Run with ``PYTHONPATH=src python -m pytest -q e2ebench``.  The first test
fails loudly when the program renames or removes a name the benchmark wraps,
instead of the traced run silently losing a layer.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
for path in (HERE.parent / "src", HERE):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import tracing  # noqa: E402
from run import SPEC, end_to_end, tail  # noqa: E402


@pytest.mark.parametrize("entry", tracing.TARGETS,
                         ids=lambda e: f"{e[2]}.{e[3]}")
def test_wrapped_name_resolves_to_callable(entry):
    _, _, owner, attribute = entry
    _, raw = tracing.resolve(owner, attribute)
    if isinstance(raw, staticmethod):
        raw = raw.__func__
    assert callable(raw), f"{owner}.{attribute} is not callable"


def test_uninstall_restores_every_original():
    targets = tracing.TARGETS
    before = [tracing.resolve(owner, attr)[1] for _, _, owner, attr in targets]
    undo = tracing.install(tracing.Recorder())
    tracing.uninstall(undo)
    after = [tracing.resolve(owner, attr)[1] for _, _, owner, attr in targets]
    assert all(a is b for a, b in zip(before, after))


def _span(span_id, parent, layer, start, end):
    return (span_id, parent, 1, layer, layer, start, end)


def test_self_times_share_concurrent_time_and_sum_to_wall():
    # root [0, 100] -> a [10, 90] -> two concurrent tasks [20, 60], [40, 80]
    spans = [_span(1, 0, "root", 0, 100), _span(2, 1, "a", 10, 90),
             _span(3, 2, "t1", 20, 60), _span(4, 2, "t2", 40, 80)]
    shares = {k: v * 1e9 for k, v in tracing.self_times(spans).items()}
    assert shares[1] == pytest.approx(20)
    assert shares[2] == pytest.approx(20)
    assert shares[3] == pytest.approx(20 + 10)
    assert shares[4] == pytest.approx(10 + 20)
    assert sum(shares.values()) == pytest.approx(100)


def test_tail_leaves_ten_samples_beyond():
    value, percentile, n = tail([float(i) for i in range(100)])
    assert (value, n) == (89.0, 100)
    assert percentile == pytest.approx(90.0)
    assert sum(1 for i in range(100) if i > value) == 10


def test_end_to_end_metrics_are_the_declared_ones():
    from workloads import Outcome

    metrics, _ = end_to_end(Outcome([0.1, 0.2], 1.0, 2, 0, [0.5], 100.0))
    declared = json.loads(SPEC.read_text())["end_to_end"]
    assert {name: unit for name, (_, unit) in metrics.items()} == {
        metric["name"]: metric["unit"] for metric in declared}


def test_scaling_removes_host_speed_but_keeps_program_speed():
    from workloads import REFERENCE_PASS_S, Outcome, scaled_latencies

    # The host runs at half speed for the second half: the same 0.1 s of
    # work reads 0.2 s there, and so does the pass around it double.
    passes = [REFERENCE_PASS_S] * 10 + [2 * REFERENCE_PASS_S] * 10
    scaled = scaled_latencies([0.1] * 10 + [0.2] * 10, passes)
    assert scaled == pytest.approx([0.1] * 20)
    # A program twice as slow reads twice as long, on either host speed.
    assert scaled_latencies([0.2] * 10 + [0.4] * 10, passes) == \
        pytest.approx([2 * x for x in scaled])
    metrics, notes = end_to_end(Outcome([0.1] * 10 + [0.2] * 10, 3.0, 20, 0,
                                        [0.5], 100.0, reference=passes))
    assert metrics["latency_p50_s"][0] == pytest.approx(0.1)
    assert metrics["ops_per_s"][0] == pytest.approx(10.0)
    assert notes["as_read"]["latency_p50_s"] == pytest.approx(0.15)


def test_traced_explain_is_unchanged_and_fully_attributed():
    from repro.core import CauSumX
    from repro.datasets import load_dataset
    from workloads import bench_config, payload

    bundle = load_dataset("adult", n=400, seed=0)

    def explain():
        return CauSumX(bundle.table, bundle.dag, bench_config()).explain(
            bundle.query, grouping_attributes=bundle.grouping_attributes,
            treatment_attributes=bundle.treatment_attributes)

    plain = explain()
    recorder = tracing.Recorder()
    undo = tracing.install(recorder)
    try:
        with recorder.root("op"):
            traced = explain()
    finally:
        tracing.uninstall(undo)
    assert payload(traced) == payload(plain)
    table = tracing.layer_table(recorder.traces("op"))
    assert table["n"] == 1
    assert {"core", "mining", "causal"} <= set(table["layers"])
    assert sum(table["layers"].values()) == pytest.approx(table["wall_s"])
