"""Federated algorithm base: the one round loop every method and transport shares.

:meth:`FederatedAlgorithm.run` owns a round's bookkeeping — client
sampling, the health-monitor and flight-recorder round lifecycle, the
``round`` telemetry context/span and record, ``CostModel.end_round``,
evaluation with per-client accuracy carry-forward, the
:class:`RunHistory` row and the verbose line.  A subclass supplies the
protocol through four hooks:

* ``setup()`` — once before the first round (global init; the TCP
  server also waits for its workers here);
* ``round(t, sampled)`` — broadcast / local update / aggregate, returning
  the mean train loss over admitted clients (``None`` when nothing was
  admitted).  It reports what only it knows on ``last_survivors``,
  ``last_skipped``, ``last_compute_s`` and ``last_phases``, and reads
  ``evaluating`` to learn whether the loop evaluates after it;
* ``evaluate_all()`` — every client's personalized accuracy; ``None``
  for a client keeps its last evaluated accuracy;
* ``after_round(t)`` — checkpointing, crash hooks; returns ``True`` to
  stop the run early.

The in-process algorithms and :class:`repro.net.server.FedTcpServer`
run this loop, which is what keeps their histories and round records
identical in shape.
"""

from __future__ import annotations

import time

import numpy as np

from repro import telemetry
from repro.comm import CostModel, SimComm
from repro.federated.client import FederatedClient
from repro.federated.history import RoundMetrics, RunHistory
from repro.federated.sampler import ClientSampler
from repro.net.transport import Transport

__all__ = ["FederatedAlgorithm"]


class FederatedAlgorithm:
    """Server-driven federated training loop.

    Parameters
    ----------
    clients:
        All clients in the federation (rank k+1 on the communicator).
    sample_rate:
        Fraction of clients participating each round.
    local_epochs:
        E in Algorithm 1 — local epochs per communication round.
    comm:
        Optional shared communicator — anything satisfying the
        :class:`repro.net.Transport` interface (rank 0 is the server);
        a fresh in-process :class:`SimComm` (size = clients+1) is
        created otherwise.  The loop talks only to the interface, which
        is what keeps the in-process and TCP backends interchangeable.

    A server without in-process clients (the TCP server) skips this
    constructor and sets ``sampler``, ``local_epochs`` and ``comm``
    itself; the rest of the loop's state has class defaults or is set by
    ``run()``.
    """

    name = "base"
    #: local epochs a client runs per communication round (KT-pFL: 20)
    default_local_epochs = 1
    #: set by ``load_checkpoint`` — a resumed run must not re-run
    #: ``setup()`` (it would clobber the restored global state)
    resumed = False
    #: first round ``run()`` executes; a restored server checkpoint moves
    #: it and supplies ``history``/``accs`` for the loop to continue
    start_round = 0
    #: the clients whose uploads the last round admitted (None ⇒ everyone)
    last_survivors: list[int] | None = None

    def __init__(
        self,
        clients: list[FederatedClient],
        sample_rate: float = 1.0,
        local_epochs: int | None = None,
        comm: Transport | None = None,
        seed: int = 0,
    ):
        if not clients:
            raise ValueError("need at least one client")
        self.clients = clients
        self.local_epochs = local_epochs if local_epochs is not None else self.default_local_epochs
        self.comm: Transport = comm or SimComm(len(clients) + 1, CostModel())
        self.sampler = ClientSampler(len(clients), sample_rate, seed=seed)
        self.seed = seed

    # ------------------------------------------------------------------
    def server_rank(self) -> int:
        return 0

    def rank_of(self, client_id: int) -> int:
        return client_id + 1

    # ------------------------------------------------------------------
    def setup(self) -> None:
        """Hook run once before the first round (e.g. global init)."""

    def round(self, t: int, sampled: list[int]) -> float | None:
        """One communication round; optionally returns mean train loss."""
        raise NotImplementedError

    def evaluate_all(self) -> list[float | None]:
        """Personalized test accuracy of every client (paper's metric)."""
        return [c.evaluate() for c in self.clients]

    def after_round(self, t: int) -> bool:
        """Hook run after round ``t`` is recorded; ``True`` stops the run."""
        return False

    def run(self, rounds: int, eval_every: int = 1, verbose: bool = False) -> RunHistory:
        """Execute rounds ``start_round .. rounds-1`` and record history.

        When telemetry is enabled, each round runs inside a ``round`` span
        and emits a per-round summary record breaking wall-clock into
        local compute vs. communication time, bytes up/down,
        participant/survivor counts, and the round's mean accuracy.  A
        configured health monitor additionally receives the round
        lifecycle (participants, survivors, per-client accuracies) so its
        detectors see the full per-client picture.

        Rounds between evaluations carry the last *evaluated* accuracies
        forward and are marked ``evaluated=False`` in the history, so
        ``mean_curve``/``best_acc`` never see phantom zero-accuracy
        rounds when ``eval_every > 1``.
        """
        tel = telemetry.get_telemetry()
        monitor = tel.health
        cost = self.comm.cost
        if not self.resumed:
            self.setup()
        if self.start_round == 0:
            self.history, self.accs = RunHistory(self.name), []
        history = self.history
        for t in range(self.start_round, rounds):
            sampled = self.sampler.sample(t)
            self.last_survivors = None
            self.last_skipped = False
            self.last_compute_s = None  # None ⇒ time this process's local_update spans
            self.last_phases = None
            self.evaluating = evaluated = (t + 1) % eval_every == 0 or t == rounds - 1
            if monitor is not None:
                monitor.begin_round(t, sampled)
            if tel.enabled:
                tel.current_round = t
                if tel.recorder is not None:
                    tel.recorder.begin_round(t)
                up0, down0 = cost.uplink_bytes(), cost.downlink_bytes()
                comm0 = cost.total_time_s
                compute0 = tel.tracer.total("local_update")[1]
                wall0 = time.perf_counter()
            # the context propagates round/algorithm onto every span the
            # round opens — including spans on executor worker threads
            with tel.context(round=t, algorithm=self.name):
                with tel.span("round", round=t, algorithm=self.name, participants=len(sampled)):
                    train_loss = self.round(t, sampled)
            if evaluated:
                prev = self.accs
                fresh = self.evaluate_all()
                self.accs = [
                    (prev[k] if prev else 0.0) if a is None else a for k, a in enumerate(fresh)
                ]
            accs = self.accs
            round_bytes = cost.end_round(participants=len(sampled))
            survivors = self.last_survivors
            if tel.enabled:
                phases = self.last_phases
                for name, v in (phases or {}).items():
                    tel.latency(f"net.phase.{name}").observe(v)
                compute_s = self.last_compute_s
                if compute_s is None:
                    compute_s = tel.tracer.total("local_update")[1] - compute0
                tel.record_round(
                    **({"phase": dict(phases)} if phases is not None else {}),
                    round=t,
                    algorithm=self.name,
                    wall_s=time.perf_counter() - wall0,
                    compute_s=compute_s,
                    comm_s=cost.total_time_s - comm0,
                    bytes=round_bytes,
                    bytes_up=cost.uplink_bytes() - up0,
                    bytes_down=cost.downlink_bytes() - down0,
                    participants=len(sampled),
                    survivors=len(survivors) if survivors is not None else len(sampled),
                    train_loss=train_loss,
                    evaluated=evaluated,
                    skipped=self.last_skipped,
                    mean_acc=float(np.mean(accs)) if accs else None,
                )
            if monitor is not None:
                monitor.end_round(t, survivors=survivors, accs=accs if evaluated else None)
            history.append(
                RoundMetrics(
                    round_idx=t,
                    client_accs=list(accs),
                    comm_bytes=round_bytes,
                    local_epochs=self.local_epochs,
                    train_loss=train_loss,
                    evaluated=evaluated,
                )
            )
            if verbose:
                m = history.rounds[-1]
                print(
                    f"[{self.name}] round {t + 1}/{rounds} "
                    f"acc={m.mean_acc:.4f}±{m.std_acc:.4f} bytes={round_bytes}"
                    + (" SKIPPED" if self.last_skipped else "")
                )
            if self.after_round(t):
                break
        return history
