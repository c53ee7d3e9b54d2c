"""Telemetry null-backend overhead guard.

The instrumented hot paths (span choke points, the ``profiled_op``
decorator on every tensor op, executor task timing) all collapse to a
single indirection when the null backend is installed.  This micro-bench
pins that property: the *measured* per-call cost of every null primitive,
multiplied by the number of telemetry touchpoints an instrumented
FedClassAvg run actually makes, must stay below 5% of that run's
wall-clock.  A regression that puts real work on the disabled path
(allocation, locking, I/O) trips this immediately.
"""

from __future__ import annotations

import time

import pytest

from benchmarks.conftest import run_once
from repro import telemetry
from repro.config import tiny_preset
from repro.core import FedClassAvg
from repro.experiments import make_spec
from repro.federated import build_federation
from repro.telemetry.opprof import profiled_op


def _build_algo(seed=0):
    preset = tiny_preset(
        "fashion_mnist-tiny", num_clients=3, rounds=2, n_train=240, n_test=90, test_per_client=30
    )
    clients, _ = build_federation(make_spec(preset, partition="dirichlet", seed=seed))
    return FedClassAvg(clients, rho=preset.rho, seed=seed)


@profiled_op("bench_nop")
def _nop(x):
    return x


@pytest.mark.paper_experiment("telemetry-overhead")
def test_null_backend_overhead_under_5pct(benchmark):
    telemetry.disable()

    # 1. wall-clock of a small FedClassAvg run on the null backend
    algo = _build_algo(seed=0)
    t0 = time.perf_counter()
    run_once(benchmark, lambda: algo.run(2))
    t_run = time.perf_counter() - t0

    # 2. count the telemetry touchpoints an identical instrumented run makes
    tel = telemetry.configure(profile_ops=True)
    try:
        _build_algo(seed=0).run(2)
        n_spans = len(tel.tracer.finished)
        totals = tel.ops.totals()
        n_ops = int(sum(r["forward_calls"] + r["backward_calls"] for r in totals.values()))
        snap = tel.metrics.snapshot()
        n_metrics = int(sum(snap["counters"].values())) + sum(
            h["count"] for h in snap.get("latencies", {}).values()
        )
    finally:
        tel.close()
        telemetry.disable()

    # 3. measured unit cost of each null primitive (oversampled for resolution)
    reps = 20_000
    t = time.perf_counter()
    for _ in range(reps):
        with telemetry.span("x", a=1):
            pass
    span_cost = (time.perf_counter() - t) / reps

    t = time.perf_counter()
    for _ in range(reps):
        _nop(1)
    op_cost = (time.perf_counter() - t) / reps

    t = time.perf_counter()
    for _ in range(reps):
        telemetry.counter("c").inc()
    metric_cost = (time.perf_counter() - t) / reps

    overhead = n_spans * span_cost + n_ops * op_cost + n_metrics * metric_cost
    print(
        f"\nnull-backend overhead: {overhead * 1e3:.3f} ms projected over "
        f"{n_spans} spans + {n_ops} op calls + {n_metrics} metric updates "
        f"vs {t_run:.2f} s run ({overhead / t_run:.3%})"
    )
    assert overhead < 0.05 * t_run


@pytest.mark.paper_experiment("telemetry-overhead")
def test_disabled_primitives_allocate_nothing_per_call(benchmark):
    """Null span/instrument calls return shared singletons (no per-call garbage)."""
    telemetry.disable()
    run_once(benchmark, lambda: None)
    sp1 = telemetry.span("a", k=1)
    sp2 = telemetry.span("b")
    assert sp1 is sp2
    assert telemetry.counter("x") is telemetry.latency("y")


@pytest.mark.paper_experiment("telemetry-overhead")
def test_health_monitor_overhead_under_5pct(benchmark):
    """HealthMonitor ingestion must stay a rounding error on the run.

    The monitor sees ~2 ``observe_client`` calls per client-round (one
    from ``local_update`` with loss/grad-norm/duration, one from
    ``FedClassAvg.round`` with drift/update-norm/bytes) plus one
    ``begin_round``/``end_round`` pair per round.  The measured unit cost
    of each entry point — with the full default detector suite attached —
    times those counts must stay below 5% of the run's wall-clock.
    """
    from repro.telemetry import HealthMonitor

    telemetry.disable()

    # 1. wall-clock of the run on the null backend (no monitor at all)
    algo = _build_algo(seed=0)
    assert telemetry.get_telemetry().health is None  # null path: no monitor
    t0 = time.perf_counter()
    run_once(benchmark, lambda: algo.run(2))
    t_run = time.perf_counter() - t0

    # 2. observation counts of an identical monitored run
    tel = telemetry.configure()
    try:
        _build_algo(seed=0).run(2)
        monitor = tel.health
        n_observe = sum(
            len(points) for c in monitor.clients.values() for points in c.series.values()
        )
        n_rounds = 2
    finally:
        tel.close()
        telemetry.disable()
    assert n_observe > 0

    # 3. measured unit costs with the default detector suite installed
    bench_monitor = HealthMonitor()
    reps = 5_000
    bench_monitor.begin_round(0, list(range(8)))
    t = time.perf_counter()
    for i in range(reps):
        bench_monitor.observe_client(i % 8, loss=0.5, grad_norm=1.0, duration_s=0.01)
    observe_cost = (time.perf_counter() - t) / reps

    round_reps = 500
    t = time.perf_counter()
    for i in range(round_reps):
        bench_monitor.begin_round(i + 1, list(range(8)))
        bench_monitor.end_round(i + 1, accs=[0.5] * 8)
    round_cost = (time.perf_counter() - t) / round_reps

    overhead = n_observe * observe_cost + n_rounds * round_cost
    print(
        f"\nhealth-monitor overhead: {overhead * 1e3:.3f} ms projected over "
        f"{n_observe} observations + {n_rounds} round flushes "
        f"vs {t_run:.2f} s run ({overhead / t_run:.3%})"
    )
    assert overhead < 0.05 * t_run


@pytest.mark.paper_experiment("telemetry-overhead")
def test_memprof_and_recorder_idle_overhead_under_5pct(benchmark):
    """Deep-dive instruments armed but idle must stay under the 5% budget.

    "Idle" is the steady state of a healthy run: the memory profiler is
    active (every tensor allocation pays its hook) and the flight
    recorder is armed (every client round pays one capture + trajectory
    attach, but no alert ever fires so nothing is serialized or written).
    The measured unit cost of each touchpoint times the counts an
    instrumented run actually produces must stay below 5% of the
    null-backend run's wall-clock.
    """
    import numpy as np

    from repro.telemetry import FlightRecorder, MemoryProfiler

    telemetry.disable()

    # 1. wall-clock of the run on the null backend
    algo = _build_algo(seed=0)
    t0 = time.perf_counter()
    run_once(benchmark, lambda: algo.run(2))
    t_run = time.perf_counter() - t0

    # 2. touchpoint counts of an identical run with both instruments armed
    tel = telemetry.configure(memory=True, recorder=FlightRecorder(out_dir=None))
    try:
        armed = _build_algo(seed=0)
        armed.run(2)
        n_allocs = int(sum(r["alloc_count"] for r in tel.memory.records))
        n_client_rounds = len(tel.memory.records)
        n_batches = int(tel.metrics.counter("train.batches").value)
    finally:
        tel.close()
        telemetry.disable()
    assert n_allocs > 0 and n_client_rounds > 0

    # 3a. allocation-hook cost with the profiler active but no open region
    #     (what every tensor allocation outside a client round pays)
    class _Obj:
        __slots__ = ("__weakref__",)

    mem = MemoryProfiler()
    mem.activate()
    try:
        obj = _Obj()
        reps = 20_000
        t = time.perf_counter()
        for _ in range(reps):
            mem.on_alloc(obj, 128)
        alloc_cost = (time.perf_counter() - t) / reps
    finally:
        mem.deactivate()

    # 3b. per-client-round recorder cost: one capture + one trajectory
    rec = FlightRecorder(out_dir=None)
    rec.begin_round(0)
    client = armed.clients[0]
    reps = 50
    t = time.perf_counter()
    for _ in range(reps):
        rec.capture_client(client, 1, armed.config)
        rec.record_trajectory(client.client_id, [0.5] * 8, [1.0] * 8)
    capture_cost = (time.perf_counter() - t) / reps

    # 3c. per-batch grad-norm pass the armed trainer adds
    params = [p for p in client.optimizer.params]
    reps = 500
    t = time.perf_counter()
    for _ in range(reps):
        sq = 0.0
        for p in params:
            if p.grad is not None:
                sq += float((p.grad**2).sum())
        float(np.sqrt(sq))
    gradnorm_cost = (time.perf_counter() - t) / reps

    overhead = (
        n_allocs * alloc_cost + n_client_rounds * capture_cost + n_batches * gradnorm_cost
    )
    print(
        f"\nidle memprof+recorder overhead: {overhead * 1e3:.3f} ms projected over "
        f"{n_allocs} allocations + {n_client_rounds} captures + {n_batches} grad-norm passes "
        f"vs {t_run:.2f} s run ({overhead / t_run:.3%})"
    )
    assert overhead < 0.05 * t_run


@pytest.mark.paper_experiment("telemetry-overhead")
def test_null_backend_has_no_health_monitor(benchmark):
    """The disabled path never allocates or consults a HealthMonitor —
    instrumented code gates on ``get_telemetry().health is None``."""
    telemetry.disable()
    run_once(benchmark, lambda: None)
    assert telemetry.get_telemetry().health is None
    # and a live backend can opt out entirely
    tel = telemetry.configure(health=False)
    try:
        assert tel.health is None
    finally:
        tel.close()
        telemetry.disable()
