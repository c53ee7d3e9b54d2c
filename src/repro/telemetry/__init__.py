"""Lightweight observability for the federated stack.

Six instruments behind one facade:

* **spans** — nested wall-clock regions (``round`` → ``broadcast`` /
  ``local_update`` / ``aggregate``), thread-safe for executor workers,
  with cross-thread parent adoption and inheritable context attributes
  (``round``, ``client``) so worker spans stay attributable;
* **metrics** — process-wide counters / gauges / latency histograms;
* **op profiler** — opt-in per-op forward/backward attribution inside
  the autograd engine (:mod:`repro.telemetry.opprof`);
* **memory profiler** — opt-in allocation tracking in the autograd
  substrate: per-client-round live-byte peaks, per-op allocation, and
  the backward-graph retention high-water mark
  (:mod:`repro.telemetry.memprof`);
* **health monitor** — per-client anomaly detection (NaN losses, loss
  spikes, accuracy divergence, stragglers, dead clients) with alert
  records and a reaction callback (:mod:`repro.telemetry.health`);
* **flight recorder** — continuous capture of each client round's replay
  inputs (model/optimizer/RNG state, broadcast weights, trajectory);
  on any health alert a replay bundle is persisted for bit-exact
  re-execution via ``python -m repro.cli replay``
  (:mod:`repro.telemetry.recorder` / :mod:`repro.telemetry.replay`).

The analysis half lives in :mod:`repro.telemetry.report` and
:mod:`repro.telemetry.trace`: ASCII run dashboards (``python -m repro.cli
report RUN.jsonl``), run diffs with a CI regression gate (``python -m
repro.cli diff A B --gate``), and Chrome/Perfetto trace-event timelines
(``python -m repro.cli trace RUN.jsonl -o trace.json``).

Telemetry is **disabled by default**: the module-level ``span()`` /
``counter()`` / … helpers dispatch to a :class:`NullTelemetry` whose
every operation is a no-op on a shared singleton, so instrumented hot
paths cost one indirection when nothing is listening.  Enable with::

    tel = telemetry.configure(jsonl="run.jsonl", profile_ops=True)
    ...  # run experiments
    print(telemetry.format_round_summary(tel.rounds))
    tel.close()
    telemetry.disable()

Every closed span, per-round summary, per-client health flush, alert,
final metrics snapshot, and op profile is streamed to the JSONL file as
one self-describing record (``{"type": "span" | "round" | "client_round"
| "alert" | "metrics" | "op_profile" | "health_summary", ...}``).
"""

from __future__ import annotations

from repro.telemetry.export import (
    JsonlWriter,
    format_op_profile,
    format_round_summary,
    read_jsonl,
)
from repro.telemetry.health import (
    AccuracyDivergenceDetector,
    ClientHealth,
    DeadClientDetector,
    Detector,
    HealthMonitor,
    LossSpikeDetector,
    NaNLossDetector,
    StragglerDetector,
    default_detectors,
)
from repro.telemetry.memprof import MemoryProfiler, active_memprof, format_mem_summary
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    LogBucketHistogram,
    MetricsRegistry,
)
from repro.telemetry.opprof import OpProfiler, active_profiler, profiled_op
from repro.telemetry.recorder import FlightRecorder
from repro.telemetry.report import diff_runs, format_diff, gate_violations, render_report
from repro.telemetry.spans import Span, Tracer
from repro.telemetry.trace import (
    ascii_gantt,
    count_remote_parented,
    estimate_clock_offset,
    merge_traces,
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)

__all__ = [
    "Telemetry",
    "NullTelemetry",
    "configure",
    "disable",
    "get_telemetry",
    "set_telemetry",
    "span",
    "counter",
    "gauge",
    "latency",
    "record_round",
    "record_event",
    "context",
    "Tracer",
    "Span",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "LogBucketHistogram",
    "OpProfiler",
    "profiled_op",
    "active_profiler",
    "JsonlWriter",
    "read_jsonl",
    "format_round_summary",
    "format_op_profile",
    "HealthMonitor",
    "ClientHealth",
    "Detector",
    "NaNLossDetector",
    "LossSpikeDetector",
    "AccuracyDivergenceDetector",
    "StragglerDetector",
    "DeadClientDetector",
    "default_detectors",
    "render_report",
    "diff_runs",
    "format_diff",
    "gate_violations",
    "MemoryProfiler",
    "active_memprof",
    "format_mem_summary",
    "FlightRecorder",
    "to_chrome_trace",
    "write_chrome_trace",
    "validate_chrome_trace",
    "estimate_clock_offset",
    "merge_traces",
    "count_remote_parented",
    "ascii_gantt",
]


class _NullSpan:
    """Reusable no-op context manager standing in for :class:`Span`."""

    __slots__ = ()
    name = ""
    duration_s = 0.0

    def set(self, **attrs) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass


class _NullInstrument:
    """No-op counter/gauge/histogram."""

    __slots__ = ()
    value = 0.0
    count = 0
    total = 0.0
    mean = 0.0

    def inc(self, n: float = 1.0) -> None:
        pass

    def set(self, v: float) -> None:
        pass

    def observe(self, v: float) -> None:
        pass

    def percentile(self, p: float) -> float:
        return 0.0

    def summary(self) -> dict:
        return {"count": 0, "total": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0}


class _NullContext:
    """Reusable no-op context manager (stands in for tracer contexts)."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> None:
        pass


_NULL_SPAN = _NullSpan()
_NULL_INSTRUMENT = _NullInstrument()
_NULL_CONTEXT = _NullContext()


class NullTelemetry:
    """The disabled backend: every call is a no-op on shared singletons."""

    enabled = False
    tracer = None
    metrics = None
    ops = None
    health = None
    memory = None
    recorder = None
    current_round = -1

    @property
    def rounds(self) -> list:
        return []

    def span(self, name: str, **attrs) -> _NullSpan:
        return _NULL_SPAN

    def context(self, **attrs) -> _NullContext:
        return _NULL_CONTEXT

    def counter(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def latency(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def record_round(self, **fields) -> None:
        pass

    def record_event(self, type: str, **fields) -> None:
        pass

    def close(self) -> None:
        pass


class Telemetry:
    """Live backend: tracer + metrics + optional op/memory profilers,
    health monitor, flight recorder, and JSONL export."""

    enabled = True

    def __init__(
        self,
        jsonl: str | None = None,
        profile_ops: bool = False,
        health: bool | HealthMonitor = True,
        on_alert=None,
        memory: bool = False,
        recorder: str | FlightRecorder | None = None,
        process: dict | None = None,
    ):
        import os
        import time

        self._writer = JsonlWriter(jsonl) if jsonl else None
        sink = self._writer.write if self._writer else None
        #: identity of this process in a multi-rank run (role, rank, ...);
        #: exported as the file's first record, together with a paired
        #: wall/monotonic clock anchor so ``trace-merge`` can reconstruct
        #: skew-free wall times from spans' monotonic starts.
        self.process = dict(process) if process else None
        if self._writer is not None and self.process is not None:
            self._writer.write(
                {
                    "type": "proc",
                    **self.process,
                    "pid": os.getpid(),
                    "wall": time.time(),
                    "mono": time.perf_counter(),
                }
            )
        self.tracer = Tracer(sink=sink)
        self.metrics = MetricsRegistry()
        self.ops = OpProfiler() if profile_ops else None
        if self.ops is not None:
            self.ops.activate()
        self.memory = MemoryProfiler(sink=sink) if memory else None
        if self.memory is not None:
            self.memory.activate()
        if isinstance(recorder, FlightRecorder):
            self.recorder: FlightRecorder | None = recorder
            if self.recorder.sink is None:
                self.recorder.sink = sink
        elif recorder is not None:
            self.recorder = FlightRecorder(out_dir=recorder, sink=sink)
        else:
            self.recorder = None
        if isinstance(health, HealthMonitor):
            self.health: HealthMonitor | None = health
            if self.health.sink is None:
                self.health.sink = sink
            if on_alert is not None and self.health.on_alert is None:
                self.health.on_alert = on_alert
        else:
            self.health = HealthMonitor(sink=sink, on_alert=on_alert) if health else None
        if self.health is not None and self.recorder is not None:
            # alerts trigger bundle persistence before any user callback
            user_cb = self.health.on_alert

            def _alert_chain(alert, _rec=self.recorder, _user=user_cb):
                _rec.on_alert(alert)
                if _user is not None:
                    _user(alert)

            self.health.on_alert = _alert_chain
        self.rounds: list[dict] = []
        #: round index the loop is currently executing (set by ``base.run``
        #: so thread-borne instruments can stamp records without plumbing)
        self.current_round = -1

    # -- instrument accessors ------------------------------------------
    def span(self, name: str, **attrs) -> Span:
        return self.tracer.span(name, **attrs)

    def context(self, **attrs):
        """Inheritable span attributes for the current thread (see Tracer)."""
        return self.tracer.context(**attrs)

    def counter(self, name: str) -> Counter:
        return self.metrics.counter(name)

    def gauge(self, name: str) -> Gauge:
        return self.metrics.gauge(name)

    def latency(self, name: str) -> LogBucketHistogram:
        """Log-bucket latency histogram (p50/p95/p99 with bounded memory)."""
        return self.metrics.latency(name)

    # -- round summaries -----------------------------------------------
    def record_round(self, **fields) -> None:
        """Record one round's compute/comm breakdown (see base.run)."""
        record = {"type": "round", **fields}
        self.rounds.append(record)
        if self._writer is not None:
            self._writer.write(record)

    def record_event(self, type: str, **fields) -> None:
        """Stream an ad-hoc typed record (e.g. ``clock`` offset samples)."""
        if self._writer is not None:
            self._writer.write({"type": type, **fields})

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        """Flush the final metrics / op-profile records and close the file."""
        if self.ops is not None:
            self.ops.deactivate()
        if self.memory is not None:
            self.memory.deactivate()
        if self._writer is not None:
            self._writer.write({"type": "metrics", **self.metrics.snapshot()})
            if self.ops is not None:
                self._writer.write({"type": "op_profile", "ops": self.ops.totals()})
            if self.health is not None:
                self._writer.write(self.health.summary())
            self._writer.close()


_NULL = NullTelemetry()
_current: NullTelemetry | Telemetry = _NULL


def get_telemetry() -> NullTelemetry | Telemetry:
    """The process-wide telemetry backend (null unless configured)."""
    return _current


def set_telemetry(tel: NullTelemetry | Telemetry) -> NullTelemetry | Telemetry:
    """Install ``tel`` as the current backend; returns the previous one."""
    global _current
    prev = _current
    _current = tel
    return prev


def configure(
    jsonl: str | None = None,
    profile_ops: bool = False,
    health: bool | HealthMonitor = True,
    on_alert=None,
    memory: bool = False,
    recorder: str | FlightRecorder | None = None,
    process: dict | None = None,
) -> Telemetry:
    """Create, install, and return a live :class:`Telemetry` backend.

    ``health`` controls client health monitoring: ``True`` (default)
    installs a :class:`HealthMonitor` with the standard detector suite,
    ``False`` disables it, and a ready-made monitor instance is used
    as-is (its sink defaults to the JSONL writer).  ``on_alert`` is the
    alert callback forwarded to the monitor.  ``memory=True`` activates
    the autograd allocation profiler.  ``recorder`` arms the flight
    recorder: a directory path (bundles persisted there on alert) or a
    ready-made :class:`FlightRecorder`.  ``process`` identifies this
    process in a multi-rank run (e.g. ``{"role": "worker", "rank": 1}``)
    and is exported as a ``proc`` record carrying a wall/monotonic clock
    anchor for ``trace-merge``.
    """
    tel = Telemetry(
        jsonl=jsonl,
        profile_ops=profile_ops,
        health=health,
        on_alert=on_alert,
        memory=memory,
        recorder=recorder,
        process=process,
    )
    set_telemetry(tel)
    return tel


def disable() -> None:
    """Reinstall the null backend (does not close the previous one)."""
    set_telemetry(_NULL)


# -- module-level conveniences dispatching to the current backend -------
def span(name: str, **attrs):
    """Open a span on the current backend (no-op context manager when disabled)."""
    return _current.span(name, **attrs)


def counter(name: str):
    """Counter ``name`` on the current backend (no-op instrument when disabled)."""
    return _current.counter(name)


def gauge(name: str):
    """Gauge ``name`` on the current backend (no-op instrument when disabled)."""
    return _current.gauge(name)


def latency(name: str):
    """Latency histogram ``name`` on the current backend (no-op when disabled)."""
    return _current.latency(name)


def record_round(**fields) -> None:
    """Record a per-round summary on the current backend (no-op when disabled)."""
    _current.record_round(**fields)


def record_event(type: str, **fields) -> None:
    """Stream a typed record on the current backend (no-op when disabled)."""
    _current.record_event(type, **fields)


def context(**attrs):
    """Inheritable span attributes on the current backend (no-op when disabled)."""
    return _current.context(**attrs)
