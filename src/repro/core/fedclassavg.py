"""FedClassAvg (the paper's contribution) — Algorithm 1.

Per communication round:

1. The server broadcasts the global classifier ``w_C`` to the sampled
   clients (rank 0 → client ranks on the simulated communicator).
2. Each client replaces its local classifier with ``w_C`` and runs E
   local epochs of the composite objective (Eq. 4):
   ``L^CL(F(x'), F(x'')) + L^CE(y, ŷ) + ρ·L^R(C_k, C)``.
3. Clients return their classifiers; the server updates
   ``w_C ← Σ_k (|D_k|/|D|)·w_{C_k}`` (Eq. 3).

The ``use_contrastive`` / ``use_proximal`` switches reproduce the Table 4
ablation (CA / +PR / +CL / +PR,CL), and ``share_all_weights`` reproduces
the homogeneous "+weight" rows of Table 3 where the whole model is
averaged but proximal regularization still applies only to the
classifier.
"""

from __future__ import annotations

import numpy as np

from repro import telemetry
from repro.analysis.drift import measure_drift
from repro.comm import payload_nbytes
from repro.federated.aggregation import drop_nonfinite_states, weighted_average_state
from repro.federated.base import FederatedAlgorithm
from repro.federated.robust import admit_and_aggregate, make_aggregator
from repro.federated.trainer import LocalUpdateConfig, local_update

__all__ = ["FedClassAvg"]


class FedClassAvg(FederatedAlgorithm):
    """Federated classifier averaging — Algorithm 1 of the paper (see module docstring)."""

    name = "fedclassavg"

    def __init__(
        self,
        clients,
        rho: float = 0.1,
        temperature: float = 0.07,
        use_contrastive: bool = True,
        use_proximal: bool = True,
        contrastive: str = "supcon",
        share_all_weights: bool = False,
        sample_rate: float = 1.0,
        local_epochs: int = 1,
        comm=None,
        seed: int = 0,
        executor=None,
        fault_injector=None,
        compressor=None,
        privacy=None,
        aggregator=None,
        firewall=None,
        adversaries=None,
    ):
        super().__init__(clients, sample_rate, local_epochs, comm, seed)
        self.rho = rho
        self.share_all_weights = share_all_weights
        self.fault_injector = fault_injector
        #: optional payload compressor (repro.comm.compression protocol)
        self.compressor = compressor
        #: optional DP mechanism applied to uploads (repro.comm.privacy)
        self.privacy = privacy
        #: robust aggregation entry point (shared with the TCP server)
        self.aggregator = make_aggregator(aggregator)
        #: optional UpdateFirewall screening uploads before aggregation
        self.firewall = firewall
        #: optional AdversarySchedule poisoning uploads (sim-path attacks);
        #: also reachable through the fault injector for API symmetry
        self.adversaries = (
            adversaries
            if adversaries is not None
            else getattr(fault_injector, "adversaries", None)
        )
        self.rejections: list[dict] = []
        self.config = LocalUpdateConfig(
            use_contrastive=use_contrastive,
            use_proximal=use_proximal,
            rho=rho,
            temperature=temperature,
            contrastive=contrastive,
            proximal_on="classifier",
        )
        self.executor = executor
        self.global_state: dict[str, np.ndarray] | None = None
        if share_all_weights:
            archs = {c.model.arch for c in clients}
            shapes = {tuple(sorted((k, v.shape) for k, v in c.model.state_dict().items())) for c in clients}
            if len(archs) > 1 or len(shapes) > 1:
                raise ValueError("share_all_weights requires homogeneous client models")

    # ------------------------------------------------------------------
    def _client_payload(self, client) -> dict[str, np.ndarray]:
        """What a client transmits: classifier only, or the full model."""
        if self.share_all_weights:
            return client.model.state_dict()
        return client.model.classifier_state()

    def _load_payload(self, client, state: dict[str, np.ndarray]) -> None:
        if self.share_all_weights:
            client.model.load_state_dict(state)
        else:
            client.model.load_classifier_state(state)

    def setup(self) -> None:
        """Initialize the global state (t=0).

        Classifier-only mode averages the clients' initial classifiers (a
        single linear layer averages harmlessly).  Full-weight mode starts
        from one common initialization instead — averaging independently
        initialized deep networks would destroy the function (neuron
        permutation mismatch), exactly as in FedAvg.
        """
        if self.share_all_weights:
            self.global_state = self.clients[0].model.state_dict()
            for c in self.clients:
                c.model.load_state_dict(self.global_state)
        else:
            states = [self._client_payload(c) for c in self.clients]
            weights = [c.data_size for c in self.clients]
            # a NaN-initialized client contributes nothing to the symmetric
            # starting point — exclude it rather than refuse to start
            states, weights = drop_nonfinite_states(states, weights)
            self.global_state = weighted_average_state(states, weights)

    # ------------------------------------------------------------------
    def round(self, t: int, sampled: list[int]) -> float | None:
        assert self.global_state is not None
        server = self.server_rank()

        # 1. broadcast global classifier to the round's participants
        self.comm.bcast(self.global_state, root=server, ranks=[self.rank_of(k) for k in sampled])
        for k in sampled:
            self._load_payload(self.clients[k], self.global_state)

        # 2. local updates (Eq. 4); the proximal reference is the broadcast
        # classifier — constant during the round.
        reference = {k_: v.copy() for k_, v in self.global_state.items()}

        # flight recorder: register the broadcast once so per-client
        # captures reference it instead of copying it N times
        recorder = telemetry.get_telemetry().recorder
        if recorder is not None:
            recorder.note_broadcast(t, self.global_state)

        def update(k: int) -> float:
            return local_update(self.clients[k], self.local_epochs, self.config, reference)

        if self.executor is not None:
            losses = self.executor.map(update, sampled)
        else:
            losses = [update(k) for k in sampled]

        # 3. clients upload classifiers; server aggregates (Eq. 3).  Under
        # fault injection only the surviving uploads are aggregated, as a
        # real deadline-based server would.
        uploading = (
            self.fault_injector.survivors(sampled) if self.fault_injector is not None else sampled
        )

        def outgoing(k: int) -> dict[str, np.ndarray]:
            state = self._client_payload(self.clients[k])
            # adversary corruption happens where the TCP worker applies it:
            # on the raw classifier, before DP noise / compression framing
            if self.adversaries is not None:
                state = self.adversaries.corrupt(k, t, state)
            if self.privacy is not None:
                state = self.privacy.privatize(state)
            if self.compressor is not None:
                state = self.compressor.compress(state)
            return state

        payloads = {self.rank_of(k): outgoing(k) for k in uploading}

        # health monitoring: per-client classifier drift ‖C_k − C‖₂ vs the
        # broadcast reference, update norm over the full payload, and the
        # wire size each client actually uploads (post-DP/compression)
        monitor = telemetry.get_telemetry().health
        if monitor is not None:
            for k in uploading:
                client = self.clients[k]
                monitor.observe_client(
                    k,
                    drift=measure_drift(client.model.classifier_state(), reference),
                    update_norm=measure_drift(self._client_payload(client), reference),
                    bytes_up=payload_nbytes(payloads[self.rank_of(k)]),
                )

        received = self.comm.gather(payloads, root=server)
        if self.compressor is not None:
            received = [self.compressor.decompress(s) for s in received]
        # Shared robust-aggregation entry point (same as FedTcpServer):
        # screen arrivals through the firewall, then feed the admitted
        # subset to the selected aggregator.  A rejected update is dropped
        # exactly like a fault-injection dropout; if nothing is admitted
        # the global classifier simply carries over.
        outcome = admit_and_aggregate(
            t,
            dict(zip(uploading, received)),
            {k: self.clients[k].data_size for k in uploading},
            aggregator=self.aggregator,
            firewall=self.firewall,
            reference=reference,
        )
        if outcome.global_state is not None:
            self.global_state = outcome.global_state
        self.rejections.extend(outcome.rejected)
        self.last_survivors = list(outcome.admitted)
        # The reported train loss mirrors what the server can observe:
        # the mean over *admitted* clients — a faulted or quarantined
        # client's loss never enters the server-side metric, and a round
        # that admitted nothing has no loss (None), not a perfect 0.0.
        loss_by_client = dict(zip(sampled, losses))
        survivor_losses = [loss_by_client[k] for k in self.last_survivors]
        return float(np.mean(survivor_losses)) if survivor_losses else None
