"""FedClassAvg algorithm semantics (Algorithm 1)."""

import numpy as np
import pytest

from repro.core import FedClassAvg
from repro.federated import FederationSpec, build_federation, weighted_average_state


def _clients(spec):
    clients, _ = build_federation(spec)
    return clients


class TestProtocol:
    def test_setup_initializes_global_classifier(self, micro_spec):
        clients = _clients(micro_spec)
        algo = FedClassAvg(clients, seed=0)
        algo.setup()
        expected = weighted_average_state(
            [c.model.classifier_state() for c in clients],
            [c.data_size for c in clients],
        )
        for k in expected:
            assert np.allclose(algo.global_state[k], expected[k])

    def test_global_state_is_data_weighted_average_of_uploads(self, micro_spec):
        clients = _clients(micro_spec)
        algo = FedClassAvg(clients, local_epochs=1, seed=0)
        algo.setup()
        algo.round(0, list(range(len(clients))))
        expected = weighted_average_state(
            [c.model.classifier_state() for c in clients],
            [c.data_size for c in clients],
        )
        for k in expected:
            assert np.allclose(algo.global_state[k], expected[k])

    def test_broadcast_overwrites_local_classifier(self, micro_spec):
        """After the broadcast step all sampled clients share one classifier;
        local training then diverges them again."""
        clients = _clients(micro_spec)
        algo = FedClassAvg(clients, local_epochs=0, seed=0)  # no local drift
        algo.setup()
        algo.round(0, list(range(len(clients))))
        w0 = clients[0].model.classifier.weight.data
        for c in clients[1:]:
            assert np.allclose(c.model.classifier.weight.data, w0)

    def test_feature_extractors_never_exchanged(self, micro_spec):
        clients = _clients(micro_spec)
        before = [
            {n: p.data.copy() for n, p in c.model.feature_extractor.named_parameters()}
            for c in clients
        ]
        algo = FedClassAvg(clients, local_epochs=0, seed=0)
        algo.run(2)
        for c, b in zip(clients, before):
            for n, p in c.model.feature_extractor.named_parameters():
                assert np.array_equal(p.data, b[n])  # only classifier moved

    def test_only_sampled_clients_train(self, micro_spec):
        clients = _clients(micro_spec)
        algo = FedClassAvg(clients, local_epochs=1, seed=0)
        algo.setup()
        idle = clients[3]
        before = {n: p.data.copy() for n, p in idle.model.feature_extractor.named_parameters()}
        algo.round(0, [0, 1])
        for n, p in idle.model.feature_extractor.named_parameters():
            assert np.array_equal(p.data, before[n])

    def test_comm_payload_is_classifier_sized(self, micro_spec):
        from repro.comm import payload_nbytes

        clients = _clients(micro_spec)
        algo = FedClassAvg(clients, local_epochs=1, seed=0)
        algo.run(1)
        expected_msg = payload_nbytes(clients[0].model.classifier_state())
        # 4 down + 4 up messages of one classifier each
        assert algo.comm.cost.total_bytes == 8 * expected_msg

    def test_run_history_shape(self, micro_spec):
        clients = _clients(micro_spec)
        history = FedClassAvg(clients, seed=0).run(3)
        assert len(history.rounds) == 3
        assert len(history.final.client_accs) == len(clients)
        assert history.algorithm == "fedclassavg"


class TestNothingAdmitted:
    def test_fully_rejected_round_has_no_train_loss(self, micro_spec):
        """A round whose every upload is quarantined reports no loss, not 0.0."""
        from repro import telemetry
        from repro.federated.firewall import UpdateFirewall, UpdateValidator

        class RejectAll(UpdateValidator):
            name = "reject_all"

            def check(self, round_idx, client, state, reference, ctx):
                return "every update is rejected"

        algo = FedClassAvg(_clients(micro_spec), seed=0, firewall=UpdateFirewall([RejectAll()]))
        tel = telemetry.configure()
        try:
            history = algo.run(2)
        finally:
            tel.close()
            telemetry.disable()
        assert [m.train_loss for m in history.rounds] == [None, None]
        assert [r["train_loss"] for r in tel.rounds] == [None, None]
        assert [r["survivors"] for r in tel.rounds] == [0, 0]


class TestAblationFlags:
    def test_flags_change_training(self, micro_spec):
        finals = {}
        for flags in [(False, False), (True, True)]:
            clients = _clients(micro_spec)
            algo = FedClassAvg(
                clients, use_proximal=flags[0], use_contrastive=flags[1], seed=0
            )
            h = algo.run(1)
            finals[flags] = h.rounds[-1].train_loss
        assert finals[(False, False)] != finals[(True, True)]

    def test_ca_only_is_plain_ce(self, micro_spec):
        clients = _clients(micro_spec)
        algo = FedClassAvg(clients, use_proximal=False, use_contrastive=False, seed=0)
        assert not algo.config.use_contrastive and not algo.config.use_proximal


class TestShareAllWeights:
    def test_requires_homogeneous(self, micro_spec):
        clients = _clients(micro_spec)  # heterogeneous
        with pytest.raises(ValueError):
            FedClassAvg(clients, share_all_weights=True)

    def test_homogeneous_full_state_sync(self, micro_spec):
        spec = FederationSpec(**{**micro_spec.__dict__, "homogeneous_arch": "cnn2layer"})
        clients = _clients(spec)
        algo = FedClassAvg(clients, share_all_weights=True, local_epochs=0, seed=0)
        algo.setup()
        algo.round(0, list(range(len(clients))))
        s0 = clients[0].model.state_dict()
        for c in clients[1:]:
            s = c.model.state_dict()
            for k in s0:
                assert np.allclose(s[k], s0[k])

    def test_plus_weight_payload_larger(self, micro_spec):
        spec = FederationSpec(**{**micro_spec.__dict__, "homogeneous_arch": "cnn2layer"})
        c1 = _clients(spec)
        a1 = FedClassAvg(c1, share_all_weights=True, seed=0)
        a1.run(1)
        c2 = _clients(spec)
        a2 = FedClassAvg(c2, share_all_weights=False, seed=0)
        a2.run(1)
        assert a1.comm.cost.total_bytes > a2.comm.cost.total_bytes


class TestDeterminism:
    def test_same_seed_same_history(self, micro_spec):
        runs = []
        for _ in range(2):
            clients = _clients(micro_spec)
            h = FedClassAvg(clients, seed=0).run(2)
            runs.append((h.mean_curve.tolist(), h.rounds[-1].train_loss))
        assert runs[0] == runs[1]
