"""End-to-end benchmark of the CauSumX explanation system.

Run from the repository root::

    python3 e2ebench/run.py --workload cold_explain --seed 1 --seconds 10 --trace 0

Workloads (see ``workloads.py``): ``cold_explain``, ``serve_hot``,
``append_reexplain``.  ``--seed`` fixes every generated input (query order,
request mix, appended rows).  ``--seconds`` is the measuring window of
``serve_hot``; the other two run a fixed amount of work so that every run
measures the same mix.

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` the run measures untraced, then again
with the benchmark's span wrappers installed, prints a per-layer self-time
table, and the last line carries the per-layer metrics.  Every run also
writes a record with host metadata and the seed under ``.e2ebench/records/``.

``cold_explain`` and ``append_reexplain`` are CPU-bound, and a shared host's
speed drifts by a quarter or more within minutes, so their operation times
(latency_p50_s, latency_tail_s, ops_per_s) are reported in reference-host
seconds: each operation's time is scaled by how long a fixed, benchmark-owned
reference pass took around it (``reference_pass`` in ``workloads.py``; the
record keeps both as read).  Set-up times, ``serve_hot``'s times (its
latency is set by a network timer, not by CPU speed) and per-layer times are
reported as read.

``python3 e2ebench/run.py --write-golden`` regenerates the summary-level
golden that ``cold_explain`` checks against.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: The metric declarations; ``--trace 1`` reports every ``per_layer`` one.
SPEC = HERE.parent / "BENCHMARK.json"

#: Span-name prefix whose attributed self time each ``*_s`` metric sums.
SELF_TIME = {
    "causal.estimate_s": "causal.estimate", "causal.bind_s": "causal.bind",
    "mining.groupings_s": "mining.groupings",
    "mining.treatments_s": "mining.treatments",
    "mining.lattice_s": "mining.lattice", "optimize.lp_s": "optimize.lp",
    "optimize.rounding_s": "optimize.rounding", "sql.view_s": "sql.view",
    "plan.select_s": "plan.select", "dataframe.mask_s": "dataframe.mask",
    "storage.append_s": "storage.append", "dataframe.concat_s":
    "dataframe.concat", "dataframe.mask_extend_s": "dataframe.mask_extend",
    "service.append_s": "service.append",
    "service.explain_s": "service.explain", "core.explain_s": "core.explain",
    "core.export_s": "core.export", "adapt.observe_s": "adapt.observe",
    "storage.promote_s": "storage.promote",
}


def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile, n); with ten or fewer samples, the minimum.
    """
    ordered = sorted(values)
    n = len(ordered)
    index = max(0, n - 11)
    return ordered[index], 100.0 * (index + 1) / n, n


def host_metadata() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except Exception:  # noqa: BLE001 - older numpy: record what we can
        blas = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "env": {k: v for k, v in sorted(os.environ.items())
                    if k.startswith(("REPRO_", "OPENBLAS_"))}}


def end_to_end(outcome) -> tuple[dict, dict]:
    """The end-to-end metrics.  Operation times are in reference-host
    seconds where the workload timed a reference pass before each one."""
    from workloads import scaled_latencies

    latencies = outcome.latencies
    if outcome.reference is not None:
        latencies = scaled_latencies(latencies, outcome.reference)
    value, pct, n = tail(latencies)
    ops_per_s = len(latencies) / outcome.elapsed
    metrics = {
        "latency_p50_s": (statistics.median(latencies), "s"),
        "latency_tail_s": (value, "s"),
        "ops_per_s": (ops_per_s * sum(outcome.latencies) / sum(latencies),
                      "1/s"),
        "setup_s": (statistics.median(outcome.setup), "s"),
        "peak_rss_mb": (outcome.peak_rss_mb, "MB"),
    }
    notes = {"latency_tail_percentile": pct, "latency_samples": n,
             "failed_frac": outcome.failed / max(outcome.attempted, 1),
             "setup_samples_s": outcome.setup,
             "latencies_s": outcome.latencies,
             "reference_pass_s": outcome.reference,
             "as_read": {"latency_p50_s": statistics.median(outcome.latencies),
                         "latency_tail_s": tail(outcome.latencies)[0],
                         "ops_per_s": ops_per_s},
             **outcome.extra}
    return metrics, notes


def per_layer(outcome) -> tuple[dict, dict]:
    import tracing

    recorder = outcome.recorder
    ops = recorder.traces("op") or recorder.traces("service.dispatch")
    table = tracing.layer_table(ops)
    n = max(table["n"], 1)
    counts: dict[str, float] = {}
    for trace_id in ops:
        for key, amount in recorder.counts.get(trace_id, {}).items():
            counts[key] = counts.get(key, 0.0) + amount
    extra = dict(outcome.layer_extra)

    def self_time(prefix: str) -> float:
        return sum(seconds for name, seconds in table["names"].items()
                   if name == prefix or name.startswith(prefix + ".")) / n

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    loads = [(s[6] - s[5]) / 1e9 for s in recorder.spans
             if s[4] == "storage.load" and recorder.kinds.get(s[2]) != "op"]
    metrics = {name: self_time(prefix) for name, prefix in SELF_TIME.items()}
    metrics.update({
        "causal.fits": counts.get("causal.fits", 0) / n,
        "causal.undefined_frac": ratio(counts.get("causal.undefined", 0),
                                       counts.get("causal.fits", 0)),
        "mining.groupings": counts.get("mining.groupings", 0) / n,
        "optimize.candidates": counts.get("optimize.candidates", 0) / n,
        "parallel.morsels": counts.get("parallel.morsels", 0) / n,
        "parallel.batches": counts.get("parallel.batches", 0) / n,
        "parallel.cpu_per_wall": ratio(
            counts.get("parallel.busy_ns", 0) / 1e9,
            table["durations"].get("parallel.map", 0)),
        "plan.shards_skipped_frac": ratio(counts.get("plan.shards_skipped", 0),
                                          counts.get("plan.shards_total", 0)),
        "dataframe.mask_hit_ratio": ratio(
            counts.get("dataframe.mask_hits", 0),
            counts.get("dataframe.mask_hits", 0)
            + counts.get("dataframe.mask_misses", 0)),
        "storage.append_bytes_per_row": ratio(
            counts.get("storage.append_bytes", 0),
            counts.get("storage.append_rows", 0)),
        "storage.shards": outcome.extra.get("store_shards", 0),
        "service.masks_carried": counts.get("service.masks_carried", 0) / n,
        "storage.load_s": statistics.mean(loads) if loads else 0.0,
        "net.server_s": extra.get("net.server_s", 0.0),
        "net.stall_s": extra.get("net.stall_s", 0.0),
        "net.queue_wait_s": extra.get("net.queue_wait_s", 0.0),
        "net.shed": extra.get("net.shed", 0) / n,
        "service.summary_hit_ratio": ratio(
            extra.get("service.summary_hits", 0),
            extra.get("service.summary_hits", 0)
            + extra.get("service.summary_misses", 0)),
        "service.computations": extra.get("service.computations", 0) / n,
        "storage.promotions": counts.get("storage.promotions", 0) / n,
        "unattributed_s": table["layers"].get(tracing.UNATTRIBUTED, 0) / n,
        "trace.overhead_s": statistics.median(outcome.traced_latencies)
        - statistics.median(outcome.latencies),
        "append_p50_s": outcome.extra.get("append_p50_s", 0.0),
        "store_bytes_per_row": outcome.extra.get("store_bytes_per_row", 0.0),
    })
    rows = layer_rows(table, n, extra)
    declared = json.loads(SPEC.read_text())["per_layer"]
    return ({m["name"]: (metrics[m["name"]], m["unit"]) for m in declared},
            {"table": rows, "traced_ops": table["n"],
             "ops_with_storage_append": sum(
                 any(span[4] == "storage.append" for span in spans)
                 for spans in ops.values())})


def layer_rows(table: dict, n: int, extra: dict) -> dict:
    """Self time per operation by layer; rows sum to the operation's wall time.

    For ``serve_hot`` the operation is the client's request: the server's
    span tree, plus ``net`` (server handling outside dispatch) and
    ``net.stall`` (client latency beyond server handling).
    """
    rows = {layer: seconds / n for layer, seconds in table["layers"].items()}
    if "net.server_s" in extra:
        dispatch = table["wall_s"] / n
        rows["net"] = extra["net.server_s"] - dispatch
        rows["net.stall"] = extra["net.stall_s"]
    return dict(sorted(rows.items(), key=lambda item: -item[1]))


def print_table(workload: str, rows: dict) -> None:
    wall = sum(rows.values())
    print(f"{workload}: self time per operation by layer "
          f"(wall {wall * 1000:.3f} ms)")
    for layer, seconds in rows.items():
        share = 100.0 * seconds / wall if wall else 0.0
        print(f"  {layer:<14} {seconds * 1000:10.3f} ms  {share:6.2f}%")


def write_record(args, record: dict) -> None:
    from workloads import WORK

    records = WORK / "records"
    records.mkdir(parents=True, exist_ok=True)
    name = (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
            f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json")
    (records / name).write_text(json.dumps(record, indent=1, default=str))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads

    if args.write_golden:
        workloads.write_golden()
        return 0
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    if args.seconds < 1:
        parser.error("--seconds must be positive")
    host = host_metadata()
    outcome = workloads.WORKLOADS[args.workload](args.seed, args.seconds,
                                                 bool(args.trace))
    if not outcome.latencies:
        print("error: no operation completed", file=sys.stderr)
        return 1
    metrics, notes = end_to_end(outcome)
    if args.trace:
        notes["end_to_end"] = {name: value
                               for name, (value, _) in metrics.items()}
        metrics, layer_notes = per_layer(outcome)
        notes.update(layer_notes)
        print_table(args.workload, layer_notes["table"])
    result = {"correct": outcome.failed == 0,
              "attempted": outcome.attempted, "failed": outcome.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    write_record(args, {"workload": args.workload, "seed": args.seed,
                        "seconds": args.seconds, "trace": args.trace,
                        "host": host, "result": result, "notes": notes})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
