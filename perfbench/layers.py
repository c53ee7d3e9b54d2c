"""Per-layer probes for the traced run, and the per-layer metrics they give.

Every figure comes from timing calls into a layer's public functions from
outside; no program code changes.  ``tensor.*``, ``models.*``,
``trainer.*``, ``federated.*``, ``data.*`` and ``comm.*`` come from an
in-process episode of the workload's spec (TCP workers cannot be traced
from here); ``net.*`` come from a loopback-TCP episode of the same spec.
"""

from __future__ import annotations

import copy
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

import repro.tensor as rt
from repro.comm import SimComm
from repro.core import FedClassAvg
from repro.data.transforms import Compose
from repro.federated import FederatedClient, build_federation
from repro.federated.trainer import LocalUpdateConfig, local_update
from repro.models import PAPER_ARCHITECTURES
from repro.models.split import SplitModel
from repro.nn import Linear
from repro.nn.norm import _BatchNorm
from repro.optim import Adam
from repro.optim.optimizer import Optimizer
from repro.tensor import Tensor, enable_grad, no_grad

from federation import Episode
from spans import Tracer, timed, wrap

ARCHS = PAPER_ARCHITECTURES + ("cnn2layer",)
# avg_pool2d is left out: no model calls it (they pool with adaptive_avg_pool2d)
FUNCTION_KERNELS = ("conv2d", "depthwise_conv2d", "max_pool2d", "adaptive_avg_pool2d", "relu")
KERNELS = FUNCTION_KERNELS + ("batch_norm", "matmul")
TRAINER_MODULE = sys.modules[local_update.__module__]
LOSSES = ("cross_entropy", "supcon_loss", "ntxent_loss", "proximal_l2")


# ---------------------------------------------------------------------------
# kernel shape capture and replay
# ---------------------------------------------------------------------------
def _describe(v):
    if isinstance(v, Tensor):
        return ("T", v.data.shape, v.data.dtype.str, v.requires_grad)
    if isinstance(v, np.ndarray):
        return ("A", v.shape, v.dtype.str)
    if isinstance(v, _BatchNorm):
        return ("BN", type(v).__name__, v.num_features, v.training, v.eps, v.momentum)
    return repr(v)


def clone_layout(a: np.ndarray) -> np.ndarray:
    """Copy ``a`` keeping its strides and its address modulo 64.

    NumPy's reductions and BLAS pick their summation order from the
    memory layout, so a contiguous copy of a strided view can round
    differently; the replay must see the layout the workload saw.
    """
    if a.size == 0 or any(s <= 0 or s % a.itemsize for s in a.strides):
        return a.copy(order="K")
    span = sum((n - 1) * s for n, s in zip(a.shape, a.strides)) + a.itemsize
    raw = np.empty(span + 64, dtype=np.uint8)
    shift = (a.ctypes.data - raw.ctypes.data) % 64
    base = raw[shift : shift + span].view(a.dtype)
    out = np.lib.stride_tricks.as_strided(base, shape=a.shape, strides=a.strides)
    out[...] = a
    return out


def _snapshot(v):
    if isinstance(v, Tensor):
        return ("T", clone_layout(v.data), v.requires_grad)
    if isinstance(v, _BatchNorm):
        return ("M", copy.deepcopy(v))
    return ("V", v)


def _snapshot_args(args) -> tuple:
    """Snapshots of ``args``; an argument that is another one's array or its
    transpose (``f @ f.T``: BLAS then takes a symmetric path) stays an alias."""
    snaps = []
    for i, a in enumerate(args):
        alias = None
        if isinstance(a, Tensor):
            for j in range(i):
                b = args[j]
                if isinstance(b, Tensor) and b.data.ctypes.data == a.data.ctypes.data:
                    if a.data.strides == b.data.strides and a.shape == b.shape:
                        alias = ("ALIAS", j, a.requires_grad, False)
                    elif a.data.strides == b.data.strides[::-1] and a.shape == b.shape[::-1]:
                        alias = ("ALIAS", j, a.requires_grad, True)
        snaps.append(alias or _snapshot(a))
    return tuple(snaps)


def _materialize_args(snaps) -> tuple:
    out = []
    for snap in snaps:
        kind, value = snap[0], snap[1]
        if kind == "T":
            out.append(Tensor(clone_layout(value), requires_grad=snap[2]))
        elif kind == "ALIAS":
            data = out[value].data
            out.append(Tensor(data.T if snap[3] else data, requires_grad=snap[2]))
        elif kind == "M":
            out.append(copy.deepcopy(value))
        else:
            out.append(value)
    return tuple(out)


@dataclass
class KernelSample:
    kernel: str
    fn: object
    args: tuple
    kwargs: dict
    out: np.ndarray
    grad_mode: bool


class KernelCapture:
    """Counts each ``repro.tensor`` kernel call by signature inside timed rounds.

    A signature is the kernel, every argument's shape/dtype/grad flag or
    value, and the grad mode.  The first call of each signature keeps a
    copy of its inputs and output for the replay.
    """

    def __init__(self):
        self.counts: Counter = Counter()
        self.samples: dict = {}
        self.active = False

    def _note(self, kernel, fn, args, kwargs, out, snaps=None):
        sig = (
            kernel,
            tuple(_describe(a) for a in args),
            tuple((k, _describe(v)) for k, v in sorted(kwargs.items())),
            rt.is_grad_enabled(),
        )
        self.counts[sig] += 1
        if sig not in self.samples:
            self.samples[sig] = KernelSample(
                kernel,
                fn,
                snaps if snaps is not None else _snapshot_args(args),
                dict(zip(kwargs, _snapshot_args(tuple(kwargs.values())))),
                out.data.copy(),
                rt.is_grad_enabled(),
            )

    def _kernel(self, kernel):
        def factory(original):
            def wrapper(*args, **kwargs):
                out = original(*args, **kwargs)
                if self.active:
                    self._note(kernel, original, args, kwargs, out)
                return out

            return wrapper

        return factory

    def _batch_norm(self, original):
        def wrapper(module, x):
            if not self.active:
                return original(module, x)
            # forward() updates running statistics: keep the pre-call module
            snaps = _snapshot_args((module, x))
            out = original(module, x)
            self._note("batch_norm", original, (module, x), {}, out, snaps)
            return out

        return wrapper

    def install(self, stack) -> None:
        for name in FUNCTION_KERNELS:
            original = getattr(rt, name)
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("repro") and vars(mod).get(name) is original:
                    wrap(mod, name, self._kernel(name), stack)
        wrap(Tensor, "relu", self._kernel("relu"), stack)
        wrap(Tensor, "__matmul__", self._kernel("matmul"), stack)
        wrap(_BatchNorm, "forward", self._batch_norm, stack)

    def replay(self) -> tuple[dict, list]:
        """Time forward and backward of every captured signature.

        Returns ``({sig: (fwd_s, bwd_s)}, mismatches)``; a mismatch is a
        signature whose replayed output is not bit-identical to the
        output the workload computed.
        """
        rng = np.random.default_rng(0)
        timings, mismatches = {}, []
        for sig, s in self.samples.items():
            grad_out = rng.standard_normal(s.out.shape).astype(s.out.dtype)
            fwd, bwd = [], []
            reps = 5
            rep = 0
            while rep < reps:
                with enable_grad() if s.grad_mode else no_grad():
                    args = _materialize_args(s.args)
                    kwargs = dict(zip(s.kwargs, _materialize_args(tuple(s.kwargs.values()))))
                    t0 = time.perf_counter()
                    out = s.fn(*args, **kwargs)
                    fwd.append(time.perf_counter() - t0)
                if rep == 0 and out.data.tobytes() != s.out.tobytes():
                    mismatches.append(sig)
                if out.requires_grad:
                    t0 = time.perf_counter()
                    out.backward(grad_out)
                    bwd.append(time.perf_counter() - t0)
                if rep == 0 and fwd[0] + (bwd[0] if bwd else 0.0) > 0.02:
                    reps = 3
                rep += 1
            timings[sig] = (statistics.median(fwd), statistics.median(bwd) if bwd else 0.0)
        return timings, mismatches


# ---------------------------------------------------------------------------
# trainer / federated / comm probes
# ---------------------------------------------------------------------------
def install_sim_probes(stack, tracer: Tracer, capture: KernelCapture, warmup: int) -> None:
    setup_module = sys.modules[build_federation.__module__]
    wrap(setup_module, "load_dataset", timed(tracer, "load_dataset"), stack)
    wrap(FedClassAvg, "setup", timed(tracer, "setup"), stack)
    wrap(SimComm, "bcast", timed(tracer, "bcast"), stack)
    wrap(FederatedClient, "evaluate", timed(tracer, "evaluate"), stack)
    wrap(Compose, "__call__", timed(tracer, "augment", only_under="local_update"), stack)
    wrap(SplitModel, "features", timed(tracer, "forward", only_under="local_update"), stack)
    wrap(Linear, "forward", timed(tracer, "forward", only_under="local_update"), stack)
    for name in LOSSES:
        wrap(TRAINER_MODULE, name, timed(tracer, "loss", only_under="local_update"), stack)
    wrap(Tensor, "backward", timed(tracer, "backward", only_under="local_update"), stack)
    wrap(Optimizer, "zero_grad", timed(tracer, "optim", only_under="local_update"), stack)
    wrap(Adam, "step", timed(tracer, "optim", only_under="local_update"), stack)

    def gate(original):
        def wrapper(self, t, sampled):
            capture.active = t >= warmup
            try:
                return original(self, t, sampled)
            finally:
                capture.active = False

        return wrapper

    wrap(FedClassAvg, "round", gate, stack)
    capture.install(stack)


def _in_timed_rounds(tracer: Tracer, warmup: int) -> list[tuple[int, int]]:
    """Span-index windows [first, last] of the timed ``round`` spans."""
    windows = []
    spans = tracer.spans
    for i, sp in enumerate(spans):
        if sp.name == "round" and sp.attrs["round"] >= warmup:
            j = i
            while j + 1 < len(spans) and spans[j + 1].start < sp.end:
                j += 1
            windows.append((i, j))
    return windows


def _per_round(tracer: Tracer, windows, name: str) -> float:
    total = sum(
        sp.duration for a, b in windows for sp in tracer.spans[a : b + 1] if sp.name == name
    )
    return total / max(1, len(windows))


def _one_client(spec, arch: str, samples: int | None = None) -> FederatedClient:
    """Client 0 of ``spec`` rebuilt with ``arch``, optionally cut to ``samples``."""
    built = build_federation(replace(spec, homogeneous_arch=arch), client_ids=[0])[0][0]
    if samples is None:
        return built
    return FederatedClient(
        client_id=0,
        model=built.model,
        train_images=built.train_images[:samples],
        train_labels=built.train_labels[:samples],
        test_images=built.test_images,
        test_labels=built.test_labels,
        batch_size=spec.batch_size,
        lr=spec.lr,
        seed=spec.seed,
    )


def _time_local_update(client: FederatedClient, reps: int) -> float:
    config = LocalUpdateConfig(rho=0.1)
    reference = client.model.classifier_state()
    local_update(client, 1, config, reference)  # warm-up
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        local_update(client, 1, config, reference)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def sim_layer_metrics(ep: Episode, capture: KernelCapture, spec, warmup: int) -> tuple[dict, list]:
    """tensor/models/trainer/federated/data/comm metrics from a traced sim episode."""
    tracer = ep.tracer
    windows = _in_timed_rounds(tracer, warmup)
    n = max(1, len(windows))
    m: dict[str, float] = {}

    timings, mismatches = capture.replay()
    for k in KERNELS:
        calls = fwd = bwd = 0.0
        for sig, count in capture.counts.items():
            if sig[0] != k:
                continue
            f, b = timings[sig]
            calls += count
            fwd += count * f
            bwd += count * b
        m[f"tensor.{k}.calls"] = calls / n
        m[f"tensor.{k}.fwd_s"] = fwd / n
        m[f"tensor.{k}.bwd_s"] = bwd / n

    for arch in ARCHS:
        m[f"models.{arch}.step_s"] = _time_local_update(_one_client(spec, arch, spec.batch_size), reps=3)

    updates: dict[str, list[float]] = {}
    for a, b in windows:
        for sp in tracer.spans[a : b + 1]:
            if sp.name == "local_update":
                updates.setdefault(sp.attrs["arch"], []).append(sp.duration)
    for arch in ARCHS:
        if arch in updates:
            m[f"trainer.local_update_s.{arch}"] = statistics.median(updates[arch])
        else:
            # not in this workload: one local epoch of client 0's data with it
            m[f"trainer.local_update_s.{arch}"] = _time_local_update(_one_client(spec, arch), reps=2)
    for phase in ("augment", "forward", "loss", "backward", "optim"):
        m[f"trainer.{phase}_s"] = _per_round(tracer, windows, phase)
    m["trainer.batches"] = sum(
        1 for a, b in windows for sp in tracer.spans[a : b + 1] if sp.name == "backward"
    ) / n

    first = lambda name: tracer.named(name)[0].duration  # noqa: E731
    m["federated.build_s"] = first("build_federation")
    m["federated.init_s"] = first("setup")
    m["data.load_s"] = first("load_dataset")
    m["federated.broadcast_s"] = _per_round(tracer, windows, "bcast")
    m["federated.aggregate_s"] = _per_round(tracer, windows, "aggregate")
    evals = [sp.duration for sp in tracer.named("evaluate")]
    m["federated.evaluate_client_s"] = statistics.median(evals)

    rounds = tracer.named("round")
    ups = [sp.attrs["up"] for sp in rounds]
    downs = [sp.attrs["down"] for sp in rounds]
    timed_up = ups[-1] - ups[warmup - 1] if warmup else ups[-1]
    timed_down = downs[-1] - downs[warmup - 1] if warmup else downs[-1]
    m["comm.bytes_up_per_round"] = timed_up / n
    m["comm.bytes_down_per_round"] = timed_down / n
    return m, mismatches


def tcp_layer_metrics(ep: Episode, warmup: int, workers: int) -> dict:
    """net.* metrics from a TCP episode's transport spans."""
    tracer = ep.tracer
    m: dict[str, float] = {}
    collects = {sp.attrs["round"]: sp for sp in tracer.named("collect_updates")}
    starts = {
        sp.attrs["round"]: sp
        for sp in tracer.named("broadcast_control")
        if sp.attrs["type"] == "ROUND_START"
    }
    timed_rounds = [t for t in sorted(starts) if t >= warmup]
    n = max(1, len(timed_rounds))
    owner = {k: i for i, group in enumerate(ep.fleet["assignment"]) for k in group}

    m["net.join_s"] = tracer.named("wait_for_workers")[0].duration
    m["net.init_round_s"] = collects[-1].duration
    busy = np.zeros((len(timed_rounds), workers))
    broadcast, collect, straggle, idle = [], [], [], []
    for row, t in enumerate(timed_rounds):
        c = collects[t]
        for k, d in c.attrs["durations"].items():
            busy[row, owner[k]] += d
        broadcast.append(c.start - starts[t].start)
        collect.append(c.duration)
        straggle.append(max(0.0, c.duration - busy[row].max()))
        idle.append(1.0 - busy[row].sum() / (workers * c.duration))
    m["net.broadcast_s"] = float(np.mean(broadcast))
    m["net.collect_s"] = float(np.mean(collect))
    m["net.straggler_wait_s"] = float(np.mean(straggle))
    for i in range(2):
        m[f"net.worker_busy_s.w{i}"] = float(busy[:, i].mean()) if i < workers else 0.0
    m["net.worker_idle_share"] = float(np.mean(idle))
    evals = {sp.attrs["round"]: sp.duration for sp in tracer.named("collect_evals")}
    m["net.eval_collect_s"] = float(np.mean([evals[t] for t in timed_rounds]))
    m["net.teardown_s"] = tracer.named("close")[0].duration + tracer.named("reap_workers")[0].duration

    # ledger snapshots at each ROUND_START and at close: per-round traffic
    marks = [(starts[t].attrs["up"], starts[t].attrs["down"], starts[t].attrs["frames"]) for t in sorted(starts)]
    marks.append(ep.fleet["close_cost"])
    first = sorted(starts).index(timed_rounds[0])
    up, down, frames = (marks[-1][i] - marks[first][i] for i in range(3))
    m["net.bytes_up"] = up / n
    m["net.bytes_down"] = down / n
    m["net.frames"] = frames / n
    codec = ep.result.codec_stats
    total_rounds = len(starts)
    m["net.codec.encode_s"] = codec.get("encode_s", 0.0) / total_rounds
    m["net.codec.decode_s"] = codec.get("decode_s", 0.0) / total_rounds
    m["net.codec.delta_share"] = codec.get("deltas", 0) / max(1, codec.get("frames_encoded", 0))
    m["net.timeouts"] = float(ep.timed_out)
    m["net.rejoins"] = float(ep.rejoins)
    m["net.rejected_updates"] = float(ep.rejected)
    return m


def phase_accounting(ep: Episode, overhead: float) -> tuple[bool, dict]:
    """Round-phase times against the measured wall of a traced episode."""
    tr = ep.tracer
    total = lambda name: sum(sp.duration for sp in tr.named(name))  # noqa: E731
    if ep.transport == "sim":
        phases = {
            "broadcast": total("bcast"),
            "local_update": total("local_update"),
            "aggregate": total("aggregate"),
            "evaluate": total("evaluate_all"),
        }
        wall = total("round") + total("evaluate_all")
    else:
        starts = {sp.attrs["round"]: sp.start for sp in tr.named("broadcast_control")
                  if sp.attrs["type"] == "ROUND_START"}
        collects = [sp for sp in tr.named("collect_updates") if sp.attrs["round"] >= 0]
        phases = {
            "join": total("wait_for_workers") + sum(
                sp.duration for sp in tr.named("collect_updates") if sp.attrs["round"] < 0),
            "broadcast": sum(sp.start - starts[sp.attrs["round"]] for sp in collects),
            "collect": sum(sp.duration for sp in collects),
            "aggregate": total("screen_updates") + total("aggregate"),
            "eval_collect": total("collect_evals"),
            "teardown": total("close") + total("reap_workers"),
        }
        wall = ep.wall_s
    unattributed = 1.0 - sum(phases.values()) / wall
    allowed = max(0.0, 1.0 - overhead) + 0.05
    detail = {"wall_s": wall, "phases_s": phases, "unattributed_share": unattributed, "allowed": allowed}
    return unattributed <= allowed, detail
