"""Metrics registry: instruments, snapshots, thread-safety."""

import threading

from repro.telemetry import MetricsRegistry


class TestInstruments:
    def test_counter(self):
        reg = MetricsRegistry()
        c = reg.counter("bytes")
        c.inc()
        c.inc(9)
        assert c.value == 10
        assert reg.counter("bytes") is c  # get-or-create returns the same object

    def test_gauge(self):
        reg = MetricsRegistry()
        g = reg.gauge("survivors")
        g.set(17)
        g.set(4)
        assert g.value == 4.0

    def test_histogram(self):
        reg = MetricsRegistry()
        h = reg.latency("task_s")
        for v in (1.0, 3.0, 2.0):
            h.observe(v)
        s = h.summary()
        assert s["count"] == 3
        assert s["min"] == 1.0 and s["max"] == 3.0
        assert abs(s["mean"] - 2.0) < 1e-12

    def test_empty_histogram_summary(self):
        s = MetricsRegistry().latency("empty").summary()
        assert s == {
            "count": 0, "total": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0,
            "p50": 0.0, "p95": 0.0, "p99": 0.0,
        }

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.gauge("g").set(2)
        reg.latency("h").observe(0.5)
        snap = reg.snapshot()
        assert snap["counters"] == {"c": 1.0}
        assert snap["gauges"] == {"g": 2.0}
        assert snap["latencies"]["h"]["count"] == 1


class TestThreadSafety:
    def test_concurrent_increments_lose_nothing(self):
        """ThreadExecutor workers record concurrently; no update may vanish."""
        reg = MetricsRegistry()
        n_threads, n_incs = 8, 2000

        def work():
            c = reg.counter("shared")
            h = reg.latency("obs")
            for _ in range(n_incs):
                c.inc()
                h.observe(1.0)

        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert reg.counter("shared").value == n_threads * n_incs
        assert reg.latency("obs").count == n_threads * n_incs
