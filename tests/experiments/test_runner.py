"""Experiment runner at micro scale (each run = a couple of seconds)."""

import numpy as np
import pytest

from repro.experiments.runner import ExperimentRunner, RunKey


@pytest.fixture(scope="module")
def runner(micro_scale):
    return ExperimentRunner(micro_scale)


class TestDataAssembly:
    def test_world_cached(self, runner):
        assert runner.world("cifar10") is runner.world("cifar10")
        assert runner.world("cifar10") is not runner.world("mnist")

    def test_unknown_dataset(self, runner):
        with pytest.raises(KeyError):
            runner.world("svhn")

    def test_fed_dimensions(self, runner):
        fed = runner.fed("cifar10", 4, alpha=0.5)
        assert fed.num_clients == 4
        assert len(fed.server_test) == runner.scale.n_test

    def test_mnist_channels(self, runner):
        fed = runner.fed("mnist", 3, alpha=0.5)
        x, _ = fed.server_test.arrays()
        assert x.shape[1] == 1

    def test_model_fn_applies_scale(self, runner):
        m = runner.model_fn("resnet-20", "cifar10")()
        paper_m = __import__("repro.nn.models", fromlist=["resnet20"]).resnet20(seed=0)
        assert m.num_parameters() < paper_m.num_parameters() / 10

    def test_knowledge_fn_defaults(self, runner):
        k = runner.knowledge_fn("cifar10")()
        assert type(k).__name__ == "CifarResNet"
        k2 = runner.knowledge_fn("mnist")()
        assert type(k2).__name__ == "CNN2Layer"


class TestRunKey:
    def test_normalization(self):
        a = RunKey.make("FedAvg", "ResNet-20", "CIFAR10", "30", 0.4, 0.3, 2, 0)
        b = RunKey.make("fedavg", "resnet-20", "cifar10", "30", 0.4, 0.3, 2, 0)
        assert a == b

    def test_overrides_distinguish(self):
        a = RunKey.make("fedavg", "mlp", "cifar10", "30", 0.4, 0.3, 2, 0, lr=0.1)
        b = RunKey.make("fedavg", "mlp", "cifar10", "30", 0.4, 0.3, 2, 0, lr=0.2)
        assert a != b


class TestRun:
    def test_retired_executor_env_rejected(self, runner, monkeypatch):
        # $REPRO_EXECUTOR=batched names a removed backend: it must fail
        # loudly with the valid kinds, never degrade to a silent serial run.
        monkeypatch.setenv("REPRO_EXECUTOR", "batched")
        with pytest.raises(ValueError, match="'serial', 'parallel', 'persistent'"):
            runner.run("fedavg", "mlp", setting="30")

    def test_run_produces_history(self, runner):
        h = runner.run("fedavg", "mlp", setting="30")
        assert h.num_rounds == runner.scale.rounds
        assert h.meta["setting"] == "30"
        assert h.meta["paper_clients"] == 30

    def test_memoized(self, runner):
        h1 = runner.run("fedavg", "mlp", setting="30")
        h2 = runner.run("fedavg", "mlp", setting="30")
        assert h1 is h2

    def test_override_breaks_memo(self, runner):
        h1 = runner.run("fedavg", "mlp", setting="30")
        h2 = runner.run("fedavg", "mlp", setting="30", lr=0.001)
        assert h1 is not h2

    def test_fedkemf_uses_knowledge_payload(self, runner):
        h_avg = runner.run("fedavg", "resnet-32", setting="30")
        h_kemf = runner.run("fedkemf", "resnet-32", setting="30")
        assert h_kemf.round_cost_per_client_mb() < h_avg.round_cost_per_client_mb()

    def test_default_ratio_from_setting(self, runner):
        h = runner.run("fedprox", "mlp", setting="50")
        assert h.sample_ratio == 0.7

    def test_multi_model_run(self, runner):
        h = runner.run_multi_model("fedkemf", setting="30", sample_ratio=0.5)
        assert "multi_model" in h.meta
        assert sum(h.meta["multi_model"].values()) == runner.scale.clients_for("30")
        assert not np.isnan(h.local_accuracies[-1])

    def test_multi_model_baseline(self, runner):
        h = runner.run_multi_model("fedavg", setting="30", sample_ratio=0.5)
        assert h.meta["multi_model"] == {"resnet-20": runner.scale.clients_for("30")}

    def test_fedkd_routes_through_knowledge_branch(self, runner):
        """FedKD communicates the knowledge network, like FedKEMF."""
        h_kd = runner.run("fedkd", "resnet-32", setting="30")
        h_kemf = runner.run("fedkemf", "resnet-32", setting="30")
        assert h_kd.total_bytes == h_kemf.total_bytes
        assert h_kd.algorithm == "FedKD"

    def test_fedmd_ships_logits(self, runner):
        h_md = runner.run("fedmd", "resnet-32", setting="30")
        h_avg = runner.run("fedavg", "resnet-32", setting="30")
        assert h_md.round_cost_per_client_mb() < h_avg.round_cost_per_client_mb() / 5
