"""The benchmark's three workloads and the checks on their outputs.

Every workload is a closed loop driven through the program's public entry
points (``ExplanationEngine``, ``DatasetStore``, ``python -m repro serve``),
with default settings: no ``REPRO_*`` variable is set for measured work, so
the morsel pool runs at one worker per CPU.

* ``cold_explain`` — a fresh engine per operation over the four bench
  bundles.  Nearly all of the time is treatment mining (``causal``,
  ``mining``, ``parallel``) and every cache starts empty.
* ``serve_hot`` — keep-alive HTTP requests against a store-backed
  ``repro serve --http`` subprocess whose summary cache holds the whole
  working set.  ``net``, the ``service`` caches and ``core`` export do the
  work; mining does almost none.
* ``append_reexplain`` — durable appends to a sharded store, each followed by
  two re-explains, so write-path and read-path costs show up side by side;
  a fixed schedule of batch sizes and variants, in two rounds on fresh
  stores.

A workload returns a :class:`Outcome`; ``run.py`` turns it into metrics.
"""

from __future__ import annotations

import gc
import http.client
import itertools
import json
import os
import random
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import tracing
from repro.core import CauSumX, CauSumXConfig, render_summary, summary_to_dict
from repro.datasets import load_dataset
from repro.mining.treatments import TreatmentMinerConfig
from repro.service import ExplanationEngine, handle_request
from repro.storage import DatasetStore

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Scratch space inside the checkout (stores, server logs, run records).
WORK = ROOT / ".e2ebench"
GOLDEN = HERE / "golden_cold.json"

#: The benchmark-scale sizes of ``benchmarks/conftest.py``, copied so that a
#: later change to that file cannot silently change this benchmark's inputs.
BENCH_SIZES = {"german": 1000, "adult": 2000, "stackoverflow": 2000,
               "accidents": 3000}
DATA_SEED = 0


def bench_config(**overrides) -> CauSumXConfig:
    """``benchmarks/conftest.py``'s ``bench_config()`` (copied, see above)."""
    config = CauSumXConfig(
        k=5, theta=0.75, apriori_threshold=0.1, sample_size=None,
        min_group_size=10,
        treatment=TreatmentMinerConfig(max_levels=2, min_group_size=10,
                                       significance_level=0.05,
                                       max_values_per_attribute=10),
    )
    return config.with_overrides(**overrides) if overrides else config


def dataset_config(name: str) -> CauSumXConfig:
    # german has no FD-derived grouping attributes: like the Figure 14
    # breakdown benchmark, explain it per group with a coverage it can meet.
    if name == "german":
        return bench_config(include_singleton_groups=True, theta=0.5)
    return bench_config()


@dataclass
class Outcome:
    """What one workload run measured (untraced, unless noted)."""

    latencies: list[float]
    elapsed: float
    attempted: int
    failed: int
    setup: list[float]
    peak_rss_mb: float
    extra: dict = field(default_factory=dict)
    #: The ``reference_pass`` timed right before each operation in
    #: ``latencies``; None where the workload's times are reported as read.
    reference: list[float] | None = None
    #: Traced runs: the traced part's per-operation latencies, recorder,
    #: and the workload-specific layer numbers the recorder cannot see.
    traced_latencies: list[float] | None = None
    recorder: tracing.Recorder | None = None
    layer_extra: dict = field(default_factory=dict)


def payload(summary) -> str:
    """A summary's canonical bytes, without wall-clock timings."""
    as_dict = summary_to_dict(summary)
    as_dict.pop("timings", None)
    return json.dumps(as_dict, sort_keys=True, default=str)


def golden_entry(summary) -> dict:
    """The summary-level identity: selected patterns and rendered text."""
    patterns = []
    for pattern in summary_to_dict(summary)["patterns"]:
        patterns.append([
            pattern["grouping_pattern"],
            *[pattern[d]["treatment_pattern"] if pattern[d] else None
              for d in ("positive", "negative")]])
    return {"patterns": json.loads(json.dumps(patterns, default=str)),
            "text": render_summary(summary)}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@contextmanager
def serial_reference():
    """Run reference computations on the serial path (pool width 1).

    Outside every timed region.  Results must be identical at every width,
    so the reference is both cheaper and a cross-width check.
    """
    previous = os.environ.get("REPRO_WORKERS")
    os.environ["REPRO_WORKERS"] = "1"
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop("REPRO_WORKERS", None)
        else:
            os.environ["REPRO_WORKERS"] = previous


def reference_summary(bundle, sql: str):
    """The uncached one-shot ``CauSumX.explain`` of ``sql`` over ``bundle``."""
    with serial_reference():
        return CauSumX(bundle.table, bundle.dag,
                       dataset_config(bundle.name)).explain(
            sql, grouping_attributes=bundle.grouping_attributes,
            treatment_attributes=bundle.treatment_attributes)


#: Seconds one reference pass takes on the host the figures are expressed in,
#: close to its median on the 2-vCPU x86 VM where the bounds were set.
REFERENCE_PASS_S = 0.02


_REFERENCE_X = np.random.default_rng(0).standard_normal((600, 12))
_REFERENCE_Y = np.random.default_rng(1).standard_normal(600)


def reference_pass() -> float:
    """Seconds one pass of a fixed, benchmark-owned kernel takes now.

    A shared host's speed drifts by a quarter or more within minutes, and
    over seconds (neighbours on the same cores, hypervisor steal), which
    moves every CPU-bound time as much as a real regression would.  The
    CPU-bound workloads time this pass right before each operation, outside
    the operation's timing, and report operation times through
    :func:`scaled_latencies`.  The pass is interpreter work and small numpy
    kernels, the mix the explain path runs, and runs no program code, so a
    change to the program moves the reported times as it moves the raw ones.
    It allocates next to nothing, so the heap an operation leaves behind
    does not change its time.
    """
    start = time.perf_counter()
    value = 0
    for i in range(60_000):
        value = (value * 31 + i) % 1_000_003
    for _ in range(60):
        np.linalg.lstsq(_REFERENCE_X, _REFERENCE_Y, rcond=None)
        (_REFERENCE_X[:, :3] > 0.1).sum(axis=0)
    return time.perf_counter() - start


#: Passes on each side of an operation whose median scales it: with one, the
#: passes right before and right after it and one more, so that a single
#: disturbed pass does not set the scale, while the host's speed, which
#: drifts within seconds, is still read next to the operation.
REFERENCE_WINDOW = 1


def scaled_latencies(latencies: list[float], passes: list[float]) -> list:
    """Each latency in reference-host seconds: times ``REFERENCE_PASS_S`` over
    the median of the passes timed around it (``passes[i]`` just before
    ``latencies[i]``), i.e. seconds on a host where the pass takes
    ``REFERENCE_PASS_S``."""
    return [seconds * REFERENCE_PASS_S / statistics.median(
                passes[max(0, i - REFERENCE_WINDOW):i + REFERENCE_WINDOW + 1])
            for i, seconds in enumerate(latencies)]


def fresh_dir(name: str) -> Path:
    path = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# ====================================================================== cold


#: Each bundle's own query with GROUP-BY and WHERE variants.  The cheap
#: variants outnumber stackoverflow's expensive queries, so the median and
#: the tail (ten samples beyond it) both fall among comparable operations.
COLD_POOL = (
    ("german", "SELECT Purpose, AVG(RiskScore) FROM german GROUP BY Purpose"),
    ("german",
     "SELECT Employment, AVG(RiskScore) FROM german GROUP BY Employment"),
    ("german", "SELECT Housing, AVG(RiskScore) FROM german GROUP BY Housing"),
    ("german", "SELECT Purpose, AVG(RiskScore) FROM german "
               "WHERE Housing = 'own' GROUP BY Purpose"),
    ("adult", "SELECT Occupation, AVG(Income) FROM adult GROUP BY Occupation"),
    ("adult", "SELECT Education, AVG(Income) FROM adult GROUP BY Education"),
    ("adult",
     "SELECT MaritalStatus, AVG(Income) FROM adult GROUP BY MaritalStatus"),
    ("adult", "SELECT Occupation, AVG(Income) FROM adult "
              "WHERE Sex = 'Female' GROUP BY Occupation"),
    ("adult", "SELECT Occupation, AVG(Income) FROM adult "
              "WHERE Workclass = 'Private' GROUP BY Occupation"),
    ("accidents", "SELECT City, AVG(Severity) FROM accidents GROUP BY City"),
    ("accidents",
     "SELECT Weather, AVG(Severity) FROM accidents GROUP BY Weather"),
    ("accidents",
     "SELECT Region, AVG(Severity) FROM accidents GROUP BY Region"),
    ("accidents", "SELECT City, AVG(Severity) FROM accidents "
                  "WHERE Daylight = 'Night' GROUP BY City"),
    ("accidents", "SELECT City, AVG(Severity) FROM accidents "
                  "WHERE Weather = 'Clear' GROUP BY City"),
    ("stackoverflow",
     "SELECT Country, AVG(Salary) FROM stackoverflow GROUP BY Country"),
    ("stackoverflow",
     "SELECT Continent, AVG(Salary) FROM stackoverflow GROUP BY Continent"),
    ("stackoverflow", "SELECT Country, AVG(Salary) FROM stackoverflow "
                      "WHERE Continent = 'Europe' GROUP BY Country"),
    ("stackoverflow", "SELECT Continent, AVG(Salary) FROM stackoverflow "
                      "WHERE Student = 'Yes' GROUP BY Continent"),
)
#: Complete passes over the pool per measurement.  Query costs differ by
#: 30x, so only whole passes keep the mix, and with it every median, the
#: same from run to run and from commit to commit; the count is fixed for
#: the same reason (a faster commit must not measure a different mix).
COLD_PASSES = 2


def load_bundles() -> dict:
    return {name: load_dataset(name, n=n, seed=DATA_SEED)
            for name, n in BENCH_SIZES.items()}


def timed(setup: list, make):
    """Run one set-up step, appending its duration to ``setup``."""
    start = time.perf_counter()
    made = make()
    setup.append(time.perf_counter() - start)
    return made


#: Operations between two set-up samples.  A shared machine's speed drifts
#: in phases of seconds to minutes, so set-up is sampled all through the run
#: and its median reflects the same conditions as the operations.
SETUP_EVERY = 4


def cold_explain(seed: int, seconds: int, traced: bool) -> Outcome:
    setup = []
    bundles = timed(setup, load_bundles)
    rng = random.Random(seed)

    def measure(recorder=None):
        latencies, references, results, failed, elapsed = [], [], [], 0, 0.0
        for _ in range(COLD_PASSES):
            order = list(COLD_POOL)
            rng.shuffle(order)
            for index, (name, sql) in enumerate(order):
                # The previous operation's engine is garbage now; collect it
                # here, untimed, so that neither its collection nor its
                # memory lands on what follows.
                gc.collect()
                if recorder is None and index % SETUP_EVERY == 0:
                    timed(setup, load_bundles)
                reference = reference_pass() if recorder is None else None
                root = recorder.root("op") if recorder else nullcontext()
                t0 = time.perf_counter()
                try:
                    with root:
                        engine = ExplanationEngine()
                        engine.register_bundle(bundles[name],
                                               config=dataset_config(name))
                        summary = engine.explain(name, sql)
                except Exception as exc:  # noqa: BLE001 - count and go on
                    engine = summary = None
                    print(f"cold_explain: {name}: {exc!r}", file=sys.stderr)
                seconds = time.perf_counter() - t0
                elapsed += seconds
                if summary is None:
                    failed += 1
                    continue
                latencies.append(seconds)
                references.append(reference)
                results.append((name, sql, summary, engine.stats()))
                engine = None
        return latencies, references, elapsed, results, failed

    latencies, references, elapsed, results, failed = measure()
    rss = peak_rss_mb()
    timed(setup, load_bundles)
    outcome = Outcome(latencies, elapsed, len(COLD_POOL) * COLD_PASSES,
                      failed, setup, rss, reference=references)
    checked = list(results)
    if traced:
        recorder = tracing.Recorder()
        undo = tracing.install(recorder)
        try:
            traced_lat, _, _, traced_results, traced_failed = measure(
                recorder)
        finally:
            tracing.uninstall(undo)
        outcome.traced_latencies = traced_lat
        outcome.recorder = recorder
        outcome.failed += traced_failed
        outcome.attempted += len(COLD_POOL) * COLD_PASSES
        checked += traced_results
        outcome.layer_extra = {
            key: sum(engine_counters(stats)[key]
                     for *_, stats in traced_results)
            for key in ENGINE_COUNTERS}
    outcome.failed += check_cold(bundles, checked)
    return outcome


ENGINE_COUNTERS = ("service.summary_hits", "service.summary_misses",
                   "service.computations")


def engine_counters(stats: dict) -> dict:
    """The summary-cache and computation counters of ``engine.stats()``."""
    return dict(zip(ENGINE_COUNTERS, (stats["summary_cache"]["hits"],
                                      stats["summary_cache"]["misses"],
                                      stats["computations"])))


def counter_delta(before: dict, after: dict) -> dict:
    return {key: after[key] - before[key] for key in before}


def check_cold(bundles: dict, results: list) -> int:
    """Failures among ``results``: each summary must be byte-identical (apart
    from timings) to the serial one-shot reference, and match the committed
    summary-level golden."""
    golden = json.loads(GOLDEN.read_text())
    references: dict[tuple, str] = {}
    failures = 0
    for name, sql, summary, _ in results:
        key = (name, sql)
        if key not in references:
            references[key] = payload(reference_summary(bundles[name], sql))
        ok = payload(summary) == references[key]
        if not ok:
            print(f"cold_explain: {name}: summary differs from the one-shot "
                  f"reference for {sql!r}", file=sys.stderr)
        if golden.get(f"{name}|{sql}") != golden_entry(summary):
            print(f"cold_explain: {name}: summary differs from the golden "
                  f"for {sql!r}", file=sys.stderr)
            ok = False
        failures += not ok
    return failures


def write_golden() -> None:
    bundles = load_bundles()
    golden = {f"{name}|{sql}": golden_entry(reference_summary(bundles[name],
                                                              sql))
              for name, sql in COLD_POOL}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


# ====================================================================== serve


#: Mining for warm-up is the expensive part of this workload's set-up and
#: plays no part in what it measures, so it serves a smaller stackoverflow.
SERVE_ROWS = 400
SERVE_GROUP_BY = ("Country", "Continent", "Role")
SERVE_FILTERS = (None, "Gender = 'Female'", "Gender = 'Male'",
                 "Education = 'PhD'", "AgeBand = '25-34'", "Student = 'No'",
                 "Hobby = 'Yes'", "Dependents = 'Yes'")
SERVE_POOL = tuple(
    f"SELECT {g}, AVG(Salary) FROM stackoverflow"
    + (f" WHERE {w}" if w else "") + f" GROUP BY {g}"
    for g in SERVE_GROUP_BY for w in SERVE_FILTERS)
SERVE_PLAN_SHARE = 0.1
ZIPF_S = 1.1
READY = re.compile(r"serving HTTP on [0-9.]+:(\d+)")


class Server:
    """One ``repro serve --store DIR --http`` subprocess."""

    def __init__(self, store: Path, log: Path, spans: Path | None = None):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
        serve_args = ["serve", "--store", str(store),
                      "--http", "127.0.0.1:0"]
        if spans is None:
            command = [sys.executable, "-m", "repro", *serve_args]
        else:
            command = [sys.executable, str(HERE / "serve_launcher.py"),
                       str(spans), *serve_args]
        self.log = log
        self._log_handle = log.open("w")
        self.proc = subprocess.Popen(command, cwd=ROOT, env=env,
                                     stdin=subprocess.DEVNULL,
                                     stdout=subprocess.DEVNULL,
                                     stderr=self._log_handle)
        self.port = None

    def wait_ready(self, timeout: float = 120.0) -> None:
        deadline = time.monotonic() + timeout
        while self.port is None:
            match = READY.search(self.log.read_text())
            if match:
                self.port = int(match.group(1))
                break
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError("server did not start:\n"
                                   + self.log.read_text())
            time.sleep(0.005)
        conn = self.connect()
        try:
            status, _ = request(conn, "GET", "/healthz")
        finally:
            conn.close()
        if status != 200:
            raise RuntimeError(f"/healthz answered {status}")

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        kib = int(re.search(r"VmHWM:\s+(\d+)", status).group(1))
        return kib / 1024.0

    def stop(self) -> None:
        """SIGTERM (drain + snapshot), then wait; kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log_handle.close()


def request(conn, method: str, path: str, body: bytes | None = None):
    headers = {"Content-Type": "application/json"} if body else {}
    conn.request(method, path, body=body, headers=headers)
    response = conn.getresponse()
    return response.status, response.read()


def serve_body(sql: str) -> bytes:
    return json.dumps({"query": sql}).encode()


def warm_store(store_path: Path) -> dict:
    """Compute every summary in-process and persist them in the store.

    Servers started on the store afterwards restore them (warm restart), so
    they serve the whole working set from cache.  Returns the in-process
    ``handle_request`` reply for every distinct request, cached as the
    servers' will be.
    """
    engine = ExplanationEngine.from_store(DatasetStore(store_path))
    for sql in SERVE_POOL:
        engine.explain("stackoverflow", sql)
    expected = {}
    for sql in SERVE_POOL:
        for op in ("explain", "explain_plan"):
            reply = handle_request(engine, "stackoverflow",
                                   json.dumps({"op": op, "query": sql}))
            expected[op, sql] = (json.dumps(reply, default=str)
                                 + "\n").encode()
    engine.snapshot()
    return expected


def serve_requests(seed: int, count: int = 20_000) -> list[tuple[str, str]]:
    rng = random.Random(seed)
    ranked = list(SERVE_POOL)
    rng.shuffle(ranked)
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(ranked))]
    picks = rng.choices(ranked, weights, k=count)
    return [("explain_plan" if rng.random() < SERVE_PLAN_SHARE else "explain",
             sql) for sql in picks]


def server_metrics(server: Server) -> dict:
    """Request-duration sum/count, admission and engine counters."""
    conn = server.connect()
    try:
        _, text = request(conn, "GET", "/metrics?format=text")
        _, raw = request(conn, "GET", "/metrics")
        _, stats = request(conn, "POST", "/v1/stats", b"{}")
    finally:
        conn.close()
    values = {}
    for line in text.decode().splitlines():
        for key in ("repro_http_request_duration_seconds_sum",
                    "repro_http_request_duration_seconds_count"):
            if line.startswith(key + " "):
                values[key] = float(line.split()[1])
    snapshot = json.loads(raw)
    return {"server_sum": values["repro_http_request_duration_seconds_sum"],
            "server_count":
                values["repro_http_request_duration_seconds_count"],
            "queue_wait": snapshot["admission"]["queue_wait_seconds"],
            "admitted": snapshot["admission"]["admitted"],
            "shed": snapshot["http"]["shed_total"],
            **engine_counters(json.loads(stats)["result"])}


def drive(server: Server, plan: list, start_index: int, seconds: float,
          expected: dict) -> tuple[list[float], int, int, float]:
    """Closed loop: ``nproc`` keep-alive connections for ``seconds``.

    Returns (latencies, attempted, failed, elapsed).  A reply counts as
    failed unless it is a 200 whose body equals the in-process reply; the
    comparison happens after the request's clock has stopped.
    """
    lock = threading.Lock()
    cursor = [start_index]
    latencies, failures, attempts = [], [0], [0]
    deadline = time.perf_counter() + seconds

    def client():
        conn = server.connect()
        try:
            while time.perf_counter() < deadline:
                with lock:
                    op, sql = plan[cursor[0] % len(plan)]
                    cursor[0] += 1
                body = serve_body(sql)
                t0 = time.perf_counter()
                try:
                    status, reply = request(conn, "POST", f"/v1/{op}", body)
                except (OSError, http.client.HTTPException) as exc:
                    with lock:
                        attempts[0] += 1
                        failures[0] += 1
                    print(f"serve_hot: {exc!r}", file=sys.stderr)
                    conn.close()
                    conn = server.connect()
                    continue
                latency = time.perf_counter() - t0
                ok = status == 200 and reply == expected[op, sql]
                with lock:
                    attempts[0] += 1
                    latencies.append(latency)
                    failures[0] += not ok
        finally:
            conn.close()

    threads = [threading.Thread(target=client)
               for _ in range(os.cpu_count() or 1)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return latencies, attempts[0], failures[0], time.perf_counter() - started


WARM_REQUESTS = 2 * len(SERVE_POOL)


def warm(server: Server, expected: dict) -> int:
    """Send every distinct request once; returns the number of bad replies."""
    bad = 0
    conn = server.connect()
    try:
        for sql in SERVE_POOL:
            for op in ("explain", "explain_plan"):
                status, reply = request(conn, "POST", f"/v1/{op}",
                                        serve_body(sql))
                if status != 200 or reply != expected[op, sql]:
                    bad += 1
    finally:
        conn.close()
    return bad


def serve_hot(seed: int, seconds: int, traced: bool) -> Outcome:
    work = fresh_dir("serve")
    servers: list[Server] = []

    def launch(name: str, spans: Path | None = None) -> Server:
        server = Server(store, work / f"{name}.log", spans)
        servers.append(server)
        server.wait_ready()
        return server

    try:
        store = work / "store"
        bundle = load_dataset("stackoverflow", n=SERVE_ROWS, seed=DATA_SEED)
        bundle.to_store(DatasetStore.init(store), config=bench_config())
        expected = warm_store(store)
        # Set-up samples before and after the measurement (see SETUP_EVERY).
        setup = []
        for k in range(3):
            if servers:
                servers[-1].stop()
            server = timed(setup, lambda: launch(f"setup{k}"))
        plan = serve_requests(seed)
        failed = warm(server, expected)
        latencies, attempted, bad, elapsed = drive(server, plan, 0, seconds,
                                                   expected)
        rss = server.peak_rss_mb()
        server.stop()
        for k in range(2):
            timed(setup, lambda: launch(f"after{k}")).stop()
        outcome = Outcome(latencies, elapsed, attempted + WARM_REQUESTS,
                          failed + bad, setup, rss)
        if traced:
            spans = work / "spans.json"
            server = launch("traced", spans)
            outcome.failed += warm(server, expected)
            before = server_metrics(server)
            window = time.perf_counter_ns()
            lat, attempts, bad, elapsed = drive(server, plan, len(latencies),
                                                seconds, expected)
            after = server_metrics(server)
            server.stop()
            outcome.traced_latencies = lat
            outcome.attempted += attempts + WARM_REQUESTS
            outcome.failed += bad
            recorder = tracing.Recorder.from_json(json.loads(spans.read_text()))
            outcome.recorder = recorder
            outcome.layer_extra = _serve_extra(recorder, before, after, lat,
                                               window)
        return outcome
    finally:
        for server in servers:
            server.stop()
        shutil.rmtree(work, ignore_errors=True)


def _serve_extra(recorder, before: dict, after: dict, latencies: list,
                 window_ns: int) -> dict:
    """Server-side numbers for the measured window (deltas of /metrics)."""
    # Requests dispatched before the window (the warm-up) are not measured.
    starts = {s[2]: s[5] for s in recorder.spans if s[1] == 0}
    for trace_id, kind in list(recorder.kinds.items()):
        if kind == "service.dispatch" and starts[trace_id] < window_ns:
            recorder.kinds[trace_id] = "warm"
    delta = counter_delta(before, after)
    # The three requests that read ``before`` are recorded after it.
    server_s = delta["server_sum"] / max(delta["server_count"] - 3, 1)
    client_s = sum(latencies) / max(len(latencies), 1)
    return {"net.server_s": server_s,
            "net.stall_s": client_s - server_s,
            "net.queue_wait_s": delta["queue_wait"] / max(delta["admitted"], 1),
            "net.shed": delta["shed"],
            **{key: delta[key] for key in ENGINE_COUNTERS}}


# ====================================================================== append


APPEND_DATASET = "adult"
APPEND_SHARD_ROWS = 500
#: Fixed, not timed: the table grows with every operation, so a fixed count
#: keeps the growth curve, and with it every median, the same across runs.
APPEND_OPS = 48
#: Rounds per run, each on a fresh store.  A shared host's speed drifts over
#: tens of seconds; more rounds average more of it into the run's medians.
APPEND_ROUNDS = 2
APPEND_BATCH = (50, 100)
APPEND_SETUP_EVERY = 2
APPEND_BASE = "SELECT Occupation, AVG(Income) FROM adult GROUP BY Occupation"
APPEND_FILTERS = ("Sex = 'Female'", "Workclass = 'Private'", "Race = 'White'",
                  "MaritalStatus = 'Married'")


def append_inputs(seed: int, round_: int = 0) -> list[tuple]:
    """(batch table, WHERE variant) per operation; the seed draws the rows,
    distinct in every round.

    Batch sizes and variants follow one fixed schedule.  The engine's cost
    per operation changes regime as the table grows (the morsel pool starts
    to fan out past a size) and the variants differ twofold in cost, so a
    seeded order would move the latency median with the seed; the fixed
    schedule keeps the table-size curve and the variant mix at every size
    the same in every run.  Sizes alternate small and large, so the table
    grows almost linearly, and the variants cycle.
    """
    sizes = [APPEND_BATCH[0] + (APPEND_BATCH[1] - APPEND_BATCH[0]) * i
             // (APPEND_OPS - 1) for i in range(APPEND_OPS)]
    sizes = [sizes[i // 2] if i % 2 == 0 else sizes[-1 - i // 2]
             for i in range(APPEND_OPS)]
    wheres = [APPEND_FILTERS[i % len(APPEND_FILTERS)]
              for i in range(APPEND_OPS)]
    inputs = []
    for i, (rows, where) in enumerate(zip(sizes, wheres)):
        batch = load_dataset(APPEND_DATASET, n=rows,
                             seed=1_000_000 + 1000 * seed
                             + APPEND_OPS * round_ + i).table
        inputs.append((batch, "SELECT Occupation, AVG(Income) FROM adult "
                              f"WHERE {where} GROUP BY Occupation"))
    return inputs


def make_store(bundle, path: Path):
    store = DatasetStore.init(path)
    bundle.to_store(store, config=bench_config(),
                    shard_rows=APPEND_SHARD_ROWS)
    return ExplanationEngine.from_store(store)


def run_appends(engine, inputs: list, recorder=None, sample_setup=None,
                references=None):
    latencies, appends, summaries, acked = [], [], [], []
    failed, elapsed = 0, 0.0
    for index, (batch, variant) in enumerate(inputs):
        if sample_setup is not None and index % APPEND_SETUP_EVERY == 0:
            sample_setup()
        reference = reference_pass() if references is not None else None
        root = recorder.root("op") if recorder else nullcontext()
        t0 = time.perf_counter()
        try:
            with root:
                engine.append_rows(APPEND_DATASET, batch)
                appended = time.perf_counter() - t0
                acked.append(batch)
                base = engine.explain(APPEND_DATASET, APPEND_BASE)
                filtered = engine.explain(APPEND_DATASET, variant)
        except Exception as exc:  # noqa: BLE001 - count and go on
            base = None
            print(f"append_reexplain: {exc!r}", file=sys.stderr)
        seconds = time.perf_counter() - t0
        elapsed += seconds
        if base is None:
            failed += 1
            continue
        latencies.append(seconds)
        if references is not None:
            references.append(reference)
        appends.append(appended)
        summaries = [(APPEND_BASE, base), (variant, filtered)]
    return latencies, appends, elapsed, summaries, acked, failed


def append_reexplain(seed: int, seconds: int, traced: bool) -> Outcome:
    work = fresh_dir("append")
    try:
        bundle = load_dataset(APPEND_DATASET, n=BENCH_SIZES[APPEND_DATASET],
                              seed=DATA_SEED)
        setup, samples = [], itertools.count()

        def sample_setup():  # see SETUP_EVERY
            timed(setup, lambda: make_store(bundle,
                                            work / f"setup{next(samples)}"))

        outcome = Outcome([], 0.0, 0, 0, setup, 0.0, reference=[])
        appends, paths = [], []
        for round_ in range(APPEND_ROUNDS):
            inputs = append_inputs(seed, round_)
            path = work / f"store{round_}"
            engine = timed(setup, lambda: make_store(bundle, path))
            lat, app, elapsed, summaries, acked, failed = run_appends(
                engine, inputs, sample_setup=sample_setup,
                references=outcome.reference)
            engine = None
            outcome.latencies += lat
            outcome.elapsed += elapsed
            outcome.attempted += len(inputs)
            outcome.failed += failed
            appends += app
            paths.append((path, acked, summaries))
        outcome.peak_rss_mb = peak_rss_mb()
        sample_setup()
        outcome.extra = {
            "append_p50_s": statistics.median(appends) if appends else 0.0,
            "store_bytes_per_row": statistics.median(
                store_bytes_per_row(path) for path, *_ in paths),
            "store_shards": len(DatasetStore(path).dataset(
                APPEND_DATASET).manifest.shards)}
        for path, acked, summaries in paths:
            outcome.failed += check_appends(bundle, path, acked, summaries)
        if traced:
            # One round is enough for the per-layer split; its inputs are
            # the first untraced round's, so trace.overhead_s compares like
            # with like.
            inputs = append_inputs(seed, 0)
            recorder = tracing.Recorder()
            undo = tracing.install(recorder)
            try:
                with recorder.root("setup"):
                    engine = make_store(bundle, work / "traced")
                before = engine_counters(engine.stats())
                lat, _, _, _, _, bad = run_appends(engine, inputs, recorder)
                after = engine_counters(engine.stats())
            finally:
                tracing.uninstall(undo)
            outcome.traced_latencies = lat
            outcome.recorder = recorder
            outcome.attempted += len(inputs)
            outcome.failed += bad
            outcome.layer_extra = counter_delta(before, after)
        return outcome
    finally:
        shutil.rmtree(work, ignore_errors=True)


def store_bytes_per_row(path: Path) -> float:
    total = sum(f.stat().st_size for f in path.rglob("*") if f.is_file())
    rows = DatasetStore(path).dataset(APPEND_DATASET).manifest.n_rows
    return total / rows


def check_appends(bundle, path: Path, acked: list, summaries: list) -> int:
    """Reopen the store from disk: every acknowledged append must be there,
    and re-explains must match a fresh in-memory run on the same rows."""
    expected = bundle.table
    for batch in acked:
        expected = expected.concat(batch)
    stored = DatasetStore(path).dataset(APPEND_DATASET)
    failures = 0
    if stored.manifest.n_rows != expected.n_rows:
        print(f"append_reexplain: store holds {stored.manifest.n_rows} rows, "
              f"{expected.n_rows} were acknowledged", file=sys.stderr)
        return max(1, len(acked))
    if stored.load_table().to_rows() != expected.to_rows():
        print("append_reexplain: reopened rows differ from the acknowledged "
              "appends", file=sys.stderr)
        failures += 1
    reopened = ExplanationEngine.from_store(DatasetStore(path))
    memory = replace(bundle, table=expected)
    for sql, live in summaries:
        reference = payload(reference_summary(memory, sql))
        if payload(reopened.explain(APPEND_DATASET, sql)) != reference \
                or payload(live) != reference:
            print(f"append_reexplain: summary differs from a fresh "
                  f"in-memory run for {sql!r}", file=sys.stderr)
            failures += 1
    return failures


WORKLOADS = {"cold_explain": cold_explain, "serve_hot": serve_hot,
             "append_reexplain": append_reexplain}
