"""The three workloads and one federation run ("episode") on each transport.

An episode is what a user of ``python -m repro.cli run`` waits for: build
(sim) or launch (tcp) a federation, run a fixed number of FedClassAvg
rounds with the CLI defaults (1 local epoch, mean aggregator, admission
firewall on, lossless ``delta`` wire, evaluation after every round), and
reap every process.  The round count is fixed per workload so that
repeated episodes of one seed must end on the same global classifier.
"""

from __future__ import annotations

import contextlib
import hashlib
import resource
import sys
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from repro.config import tiny_preset
from repro.core import FedClassAvg
from repro.experiments.common import make_spec
from repro.federated import build_federation
from repro.federated.firewall import default_firewall
from repro.net import launcher
from repro.net.transport import TcpTransport

from spans import Tracer, timed, wrap

FCA_MODULE = sys.modules[FedClassAvg.__module__]
SERVER_MODULE = sys.modules["repro.net.server"]


@dataclass(frozen=True)
class Workload:
    name: str
    transport: str  # "sim" | "tcp"
    clients: int
    samples_per_client: int
    batch_size: int
    sample_rate: float
    homogeneous: str | None
    timed_rounds: int
    warmup_rounds: int = 1

    @property
    def rounds(self) -> int:
        return self.warmup_rounds + self.timed_rounds

    def preset(self):
        return tiny_preset(
            "fashion_mnist-tiny",
            num_clients=self.clients,
            rounds=self.rounds,
            n_train=self.clients * self.samples_per_client,
            batch_size=self.batch_size,
            sample_rate=self.sample_rate,
        )

    def spec(self, seed: int):
        """The FederationSpec ``repro run`` builds for these flags (Dirichlet α=0.5)."""
        return make_spec(self.preset(), "dirichlet", self.homogeneous, seed)

    def twin(self, transport: str) -> "Workload":
        return replace(self, transport=transport)


# sim-hetero and tcp-hetero share one spec, so for a seed both must end on
# the same global classifier; tcp-sampled is the per-message workload.
WORKLOADS = {
    "sim-hetero": Workload("sim-hetero", "sim", 4, 80, 32, 1.0, None, timed_rounds=4),
    "tcp-hetero": Workload("tcp-hetero", "tcp", 4, 80, 32, 1.0, None, timed_rounds=4),
    "tcp-sampled": Workload("tcp-sampled", "tcp", 32, 8, 8, 0.25, "cnn2layer", timed_rounds=24),
}


@dataclass
class RoundRecord:
    index: int
    start: float
    train_s: float
    eval_s: float
    bytes: int
    participants: int


@dataclass
class Episode:
    transport: str
    tracer: Tracer
    t0: float
    wall_s: float
    rounds: list[RoundRecord]
    digest: str
    final_acc: float
    losses: list[float]
    attempted: int
    admitted: int
    timed_out: int = 0
    lost: int = 0
    rejected: int = 0
    retries: int = 0
    rejoins: int = 0
    exit_codes: list = field(default_factory=list)
    peak_rss_mb: float = 0.0
    result: object = None
    #: tcp only: worker Popen objects, client groups and their peak RSS
    fleet: dict = field(default_factory=dict)

    def timed(self, warmup: int) -> list[RoundRecord]:
        return [r for r in self.rounds if r.index >= warmup]

    def setup_s(self, warmup: int) -> float:
        """Start of the episode until the first timed round starts."""
        return self.rounds[warmup].start - self.t0


def state_digest(state: dict[str, np.ndarray]) -> str:
    h = hashlib.sha256()
    for key in sorted(state):
        arr = np.ascontiguousarray(state[key])
        h.update(f"{key}|{arr.dtype.str}|{arr.shape}|".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size (VmHWM) of a live process, in MiB."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    if pid == "self":
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return 0.0


# ---------------------------------------------------------------------------
# in-process SimComm
# ---------------------------------------------------------------------------
def _cost_after_round(args, kwargs, result) -> dict:
    cost = args[0].comm.cost
    return {"up": cost.uplink_bytes(), "down": cost.downlink_bytes()}


def sim_episode(w: Workload, seed: int, tracer: Tracer, probes=None) -> Episode:
    """One in-process federation; ``probes(stack, tracer)`` adds layer spans."""
    spec = w.spec(seed)
    preset = w.preset()
    with contextlib.ExitStack() as stack:
        wrap(FedClassAvg, "round", timed(
            tracer, "round",
            before=lambda a, k: {"round": a[1], "participants": len(a[2])},
            after=_cost_after_round,
        ), stack)
        wrap(FedClassAvg, "evaluate_all", timed(tracer, "evaluate_all"), stack)
        wrap(FCA_MODULE, "local_update", timed(
            tracer, "local_update",
            before=lambda a, k: {"client": a[0].client_id, "arch": a[0].model.arch},
            after=lambda a, k, r: {"loss": float(r)},
        ), stack)
        wrap(FCA_MODULE, "admit_and_aggregate", timed(
            tracer, "aggregate",
            before=lambda a, k: {"round": a[0], "updates": len(a[1])},
            after=lambda a, k, r: {"admitted": len(r.admitted), "rejected": len(r.rejected)},
        ), stack)
        if probes is not None:
            probes(stack, tracer)
        t0 = time.perf_counter()
        with tracer.span("build_federation"):
            clients, _info = build_federation(spec)
        algo = FedClassAvg(
            clients,
            rho=preset.rho,
            sample_rate=preset.sample_rate,
            local_epochs=1,
            seed=seed,
            aggregator="mean",
            firewall=default_firewall(),
        )
        history = algo.run(w.rounds)
        wall = time.perf_counter() - t0

    cost = algo.comm.cost
    round_spans = tracer.named("round")
    eval_spans = tracer.named("evaluate_all")
    rounds = [
        RoundRecord(
            index=sp.attrs["round"],
            start=sp.start,
            train_s=sp.duration,
            eval_s=ev.duration,
            bytes=cost.per_round[i],
            participants=cost.per_round_participants[i],
        )
        for i, (sp, ev) in enumerate(zip(round_spans, eval_spans))
    ]
    aggs = tracer.named("aggregate")
    return Episode(
        transport="sim",
        tracer=tracer,
        t0=t0,
        wall_s=wall,
        rounds=rounds,
        digest=state_digest(algo.global_state),
        final_acc=history.final_acc()[0],
        losses=[sp.attrs["loss"] for sp in tracer.named("local_update")],
        attempted=sum(sp.attrs["participants"] for sp in round_spans),
        admitted=sum(sp.attrs["admitted"] for sp in aggs),
        rejected=sum(sp.attrs["rejected"] for sp in aggs),
        peak_rss_mb=peak_rss_mb(),
        result=algo,
    )


# ---------------------------------------------------------------------------
# loopback TCP with worker processes
# ---------------------------------------------------------------------------
def _bcast_attrs(args, kwargs) -> dict:
    msg_type, meta = args[1], (args[2] if len(args) > 2 else kwargs.get("meta")) or {}
    attrs = {"type": msg_type.name, "round": meta.get("round")}
    if msg_type.name == "ROUND_START":
        cost = args[0].cost
        attrs.update(
            sampled=len(meta.get("sampled", [])),
            up=cost.uplink_bytes(),
            down=cost.downlink_bytes(),
            frames=cost.total_messages,
        )
    return attrs


def _collect_after(args, kwargs, result) -> dict:
    return {
        "got": len(result),
        "durations": {k: float(meta.get("duration_s") or 0.0) for k, (meta, _s) in result.items()},
    }


def tcp_episode(w: Workload, seed: int, tracer: Tracer, workers: int) -> Episode:
    """One ``run_tcp_federation`` over loopback with ``workers`` processes."""
    spec = w.spec(seed)
    preset = w.preset()
    fleet: dict = {"procs": [], "assignment": [], "rss": []}

    def capture_launch(original):
        def wrapper(*args, **kwargs):
            with tracer.span("launch_workers"):
                procs = original(*args, **kwargs)
            fleet["procs"], fleet["assignment"] = procs, [list(g) for g in args[2]]
            return procs

        return wrapper

    def measure_close(original):
        timed_close = timed(tracer, "close")(original)

        def wrapper(self, *args, **kwargs):
            # workers have done all their work and are still alive here:
            # their peak RSS is final
            fleet["rss"] = [peak_rss_mb(p.pid) for p in fleet["procs"]]
            fleet["close_cost"] = (self.cost.uplink_bytes(), self.cost.downlink_bytes(), self.cost.total_messages)
            return timed_close(self, *args, **kwargs)

        return wrapper

    with contextlib.ExitStack() as stack:
        wrap(launcher, "launch_workers", capture_launch, stack)
        wrap(launcher, "reap_workers", timed(tracer, "reap_workers"), stack)
        wrap(TcpTransport, "wait_for_workers", timed(tracer, "wait_for_workers"), stack)
        wrap(TcpTransport, "broadcast_control", timed(tracer, "broadcast_control", before=_bcast_attrs), stack)
        wrap(TcpTransport, "collect_updates", timed(
            tracer, "collect_updates",
            before=lambda a, k: {"round": a[1], "expected": len(a[2])},
            after=_collect_after,
        ), stack)
        wrap(TcpTransport, "collect_evals", timed(
            tracer, "collect_evals", before=lambda a, k: {"round": a[1]},
        ), stack)
        wrap(TcpTransport, "close", measure_close, stack)
        wrap(SERVER_MODULE, "screen_updates", timed(
            tracer, "screen_updates", before=lambda a, k: {"round": a[0]},
        ), stack)
        wrap(SERVER_MODULE, "admit_and_aggregate", timed(
            tracer, "aggregate", before=lambda a, k: {"round": a[0]},
        ), stack)
        t0 = time.perf_counter()
        result, codes = launcher.run_tcp_federation(
            asdict(spec),
            rounds=w.rounds,
            workers=workers,
            trainer={"rho": preset.rho},
            sample_rate=preset.sample_rate,
            seed=seed,
            wire="delta",
            aggregator="mean",
            firewall=default_firewall(),
        )
        wall = time.perf_counter() - t0

    starts = {
        sp.attrs["round"]: sp
        for sp in tracer.named("broadcast_control")
        if sp.attrs["type"] == "ROUND_START"
    }
    ends: dict[int, float] = {}
    for name in ("collect_updates", "screen_updates", "aggregate"):
        for sp in tracer.named(name):
            t = sp.attrs["round"]
            if t is not None and t >= 0:
                ends[t] = max(ends.get(t, 0.0), sp.end)
    evals = {sp.attrs["round"]: sp.duration for sp in tracer.named("collect_evals")}
    cost = result.cost
    rounds = [
        RoundRecord(
            index=t,
            start=starts[t].start,
            train_s=ends[t] - starts[t].start,
            eval_s=evals.get(t, 0.0),
            bytes=cost.per_round[i],
            participants=cost.per_round_participants[i],
        )
        for i, t in enumerate(sorted(starts))
    ]
    log = result.round_log
    reports = result.worker_reports
    losses = [v for entry in log for v in entry["losses"].values() if v is not None]
    return Episode(
        transport="tcp",
        tracer=tracer,
        t0=t0,
        wall_s=wall,
        rounds=rounds,
        digest=state_digest(result.global_state),
        final_acc=result.history.final_acc()[0],
        losses=losses,
        attempted=sum(sp.attrs["sampled"] for sp in starts.values()),
        admitted=sum(len(entry["survivors"]) for entry in log),
        timed_out=sum(len(entry["timed_out"]) for entry in log),
        lost=len(result.lost_clients),
        rejected=len(result.rejected_updates),
        retries=sum(int(r.get("connect_retries", 0)) for r in reports),
        rejoins=sum(int(r.get("rejoins", 0)) for r in reports),
        exit_codes=list(codes),
        peak_rss_mb=peak_rss_mb() + sum(fleet["rss"]),
        result=result,
        fleet=fleet,
    )


def run_episode(w: Workload, seed: int, tracer: Tracer, workers: int, probes=None) -> Episode:
    if w.transport == "sim":
        return sim_episode(w, seed, tracer, probes)
    return tcp_episode(w, seed, tracer, workers)
