"""Client-update executors: serial or thread-pooled.

The paper parallelizes clients across MPI ranks; here client updates are
independent Python callables, so a thread pool gives parallelism across
NumPy's GIL-releasing BLAS kernels.  Results always come back ordered by
client id regardless of completion order, keeping runs deterministic.

When telemetry is enabled, both executors record a per-task wall-clock
histogram (``executor.task_s``) and a task counter (``executor.tasks``)
— the straggler distribution that motivates async aggregation.  Worker
tasks additionally *adopt* the submitting thread's open span and context
(``Tracer.adopt``), so spans emitted inside ``ThreadExecutor`` workers
parent to the round span and inherit its ``round`` attribute instead of
floating as unattributable roots.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor

from repro import telemetry

__all__ = ["SerialExecutor", "ThreadExecutor", "make_executor"]


def _instrument(fn):
    """Wrap ``fn`` with per-task timing when telemetry is live (else as-is).

    The wrapper captures the *submitting* thread's innermost span id and
    context at wrap time (``map`` runs inside the round span) and adopts
    them around each task, so spans opened by the task — on any worker
    thread — nest under the round span and inherit its attributes.
    """
    tel = telemetry.get_telemetry()
    if not tel.enabled:
        return fn
    hist = tel.latency("executor.task_s")
    tasks = tel.counter("executor.tasks")
    tracer = tel.tracer
    parent_id = tracer.current_span_id()
    context = tracer.current_context()

    def timed(item):
        t0 = time.perf_counter()
        with tracer.adopt(parent_id, context):
            out = fn(item)
        hist.observe(time.perf_counter() - t0)
        tasks.inc()
        return out

    return timed


class SerialExecutor:
    """Run client updates one by one (deterministic baseline)."""

    def map(self, fn, items: list) -> list:
        fn = _instrument(fn)
        return [fn(item) for item in items]

    def shutdown(self) -> None:  # pragma: no cover - nothing to release
        pass


class ThreadExecutor:
    """Run client updates on a thread pool.

    Only safe when the per-client work is independent (true for every
    algorithm here: each client touches only its own model/optimizer).
    """

    def __init__(self, max_workers: int = 4):
        self._pool = ThreadPoolExecutor(max_workers=max_workers)

    def map(self, fn, items: list) -> list:
        return list(self._pool.map(_instrument(fn), items))

    def shutdown(self) -> None:
        self._pool.shutdown(wait=True)


def make_executor(kind: str = "serial", max_workers: int = 4):
    """Factory: 'serial' or 'thread'."""
    if kind == "serial":
        return SerialExecutor()
    if kind == "thread":
        return ThreadExecutor(max_workers=max_workers)
    raise ValueError(f"unknown executor kind {kind!r}")
