"""Population-scale parity: lazy residency policies never change results.

One thousand clients, 5% sampled, faults and a trimmed-mean defense live —
the acceptance triple (FedAvg, SCAFFOLD, FedKEMF) must produce the *same*
``RunHistory.fingerprint()`` across every combination of data residency
(eager / lazy) and executor (serial / persistent), plus through
a kill-and-resume whose per-client state store actually spilled to disk.
"""

from __future__ import annotations

import functools

import pytest

from repro.core.fedkemf import FedKEMF
from repro.data.federated import build_federated_dataset
from repro.data.lazy import LazyFederatedDataset
from repro.data.partition import IIDPartitioner
from repro.data.synthetic import SyntheticImageDataset, SyntheticSpec
from repro.fl.algorithms.base import FLConfig
from repro.fl.algorithms.fedavg import FedAvg
from repro.fl.algorithms.scaffold import Scaffold
from repro.nn.models import build_model

NUM_CLIENTS = 1_000
SAMPLE_RATIO = 0.05  # 50-client cohorts
ROUNDS = 2
FAULTS = "dropout=0.2,loss=0.1"
DEFENSE = "trimmed=0.2"

ALGOS = {"fedavg": FedAvg, "scaffold": Scaffold, "fedkemf": FedKEMF}
EXECUTORS = {
    "serial": dict(),
    "persistent": dict(workers=2, executor="persistent"),
}


def _world():
    spec = SyntheticSpec(num_classes=4, channels=1, image_size=8, noise_std=0.25)
    return SyntheticImageDataset(spec, seed=0)


@functools.lru_cache(maxsize=None)
def _fed(mode: str):
    builder = LazyFederatedDataset if mode == "lazy" else build_federated_dataset
    # two rows per client: population size dominates, every shard degenerate
    return builder(
        _world(), num_clients=NUM_CLIENTS, n_train=2 * NUM_CLIENTS,
        n_test=40, n_public=32, partitioner=IIDPartitioner(NUM_CLIENTS, seed=0),
        seed=0,
    )


def _model_fn():
    return functools.partial(
        build_model, "mlp", num_classes=4, in_channels=1, image_size=8,
        width_mult=0.25, seed=1,
    )


def _cfg(**overrides) -> FLConfig:
    base = dict(
        rounds=ROUNDS, sample_ratio=SAMPLE_RATIO, local_epochs=1, batch_size=2,
        lr=0.05, seed=1, faults=FAULTS, defense=DEFENSE, distill_epochs=1,
    )
    base.update(overrides)
    return FLConfig(**base)


def _algo(name: str, mode: str, **cfg_overrides):
    fed, cfg = _fed(mode), _cfg(**cfg_overrides)
    if name == "fedkemf":
        return FedKEMF(_model_fn(), fed, cfg, local_model_fns=_model_fn())
    return ALGOS[name](_model_fn(), fed, cfg)


@functools.lru_cache(maxsize=None)
def _fingerprint(name: str, mode: str, executor: str) -> str:
    return _algo(name, mode, **EXECUTORS[executor]).run().fingerprint()


class TestResidencyExecutorMatrix:
    @pytest.mark.parametrize("name", sorted(ALGOS))
    @pytest.mark.parametrize("mode", ["eager", "lazy"])
    @pytest.mark.parametrize("executor", sorted(EXECUTORS))
    def test_fingerprint_invariant(self, name, mode, executor):
        reference = _fingerprint(name, "eager", "serial")
        assert _fingerprint(name, mode, executor) == reference, (
            f"{name}: {mode}/{executor} diverged from eager/serial"
        )


class TestSpilledKillAndResume:
    def test_scaffold_resume_with_spilled_state(self, tmp_path):
        """Kill after round 1 with control variates spilling to disk; the
        resumed run must land on the uninterrupted fingerprint."""
        residency = 8  # far below the ~50-client cohort → guaranteed spill
        want = _algo("scaffold", "lazy", state_residency=residency).run().fingerprint()

        leg1 = _algo("scaffold", "lazy", state_residency=residency)
        leg1.run(1, checkpoint_dir=tmp_path)
        assert leg1.client_controls.spilled_count > 0, (
            "test premise broken: nothing spilled before the kill"
        )

        resumed = _algo("scaffold", "lazy", state_residency=residency)
        got = resumed.run(ROUNDS, checkpoint_dir=tmp_path, resume_from=True)
        assert got.fingerprint() == want
        assert resumed.client_controls.spilled_count > 0

    def test_fedkemf_resume_with_spilled_models(self, tmp_path):
        residency = 8
        want = _algo("fedkemf", "lazy", state_residency=residency).run().fingerprint()

        leg1 = _algo("fedkemf", "lazy", state_residency=residency)
        leg1.run(1, checkpoint_dir=tmp_path)
        assert leg1.local_models.spilled_count > 0

        resumed = _algo("fedkemf", "lazy", state_residency=residency)
        got = resumed.run(ROUNDS, checkpoint_dir=tmp_path, resume_from=True)
        assert got.fingerprint() == want


class TestStreamedRunParity:
    def test_streaming_history_does_not_change_the_run(self, tmp_path):
        plain = _fingerprint("fedavg", "lazy", "serial")
        streamed = _algo("fedavg", "lazy").run(
            history_stream=tmp_path / "run.jsonl", history_keep_records=2
        )
        assert streamed.fingerprint() == plain
        assert streamed.num_rounds == ROUNDS
        assert len(streamed.records) <= 2


class TestLazyResidencyDuringRun:
    def test_resident_shards_bounded_by_cohort(self):
        import math

        algo = _algo("fedavg", "lazy")
        algo.run()
        # the dropout fault over-provisions the sample: resident shards are
        # bounded by the provisioned cohort, never the population
        provisioned = math.ceil(algo.sampler.per_round / (1.0 - 0.2))
        assert len(algo.fed.resident_clients()) <= provisioned + 1
        assert len(algo.fed.resident_clients()) < NUM_CLIENTS // 10
