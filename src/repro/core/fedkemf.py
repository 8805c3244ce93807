"""FedKEMF — the paper's algorithm (Algorithms 1 + 2).

Per round:

1. the server broadcasts the global knowledge network θ_g to the sampled
   clients (only the tiny network ever crosses the wire);
2. each client mutually trains its persistent, resource-matched local model
   θ with its copy of θ_g (deep mutual learning, Alg. 1) and uploads the
   updated θ_g^k;
3. the server fuses the uploads: ensemble (max/mean/vote, Eq. 5) and distil
   into θ_g on the public set (Eq. 4), or plain weight averaging
   (``FLConfig.fusion``).

Local models never leave the device — they are both the privacy boundary and
the deployment artifact (Table 3 evaluates them on local test shards). Under
the execution runtime they are persistent on-device state: a (possibly
forked) worker trains its client's model and ships the weights back through
``ClientUpdate.local_state`` for the parent to write back.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.distill import DistillConfig
from repro.core.fusion import fuse_ensemble_distill
from repro.core.mutual import DeepMutualTrainer
from repro.data.dataset import ArrayDataset
from repro.data.federated import FederatedDataset
from repro.fl.algorithms.base import ALGORITHM_REGISTRY, FLAlgorithm, FLConfig, ModelFn
from repro.fl.state_store import ClientModelBank, LazyFactoryBank
from repro.nn.module import Module
from repro.runtime.adversary import LABELFLIP
from repro.runtime.executors import ClientUpdate
from repro.runtime.runtime import FLRuntime

__all__ = ["FedKEMF"]


class FedKEMF(FLAlgorithm):
    """Knowledge extraction + multi-model fusion FL.

    Parameters
    ----------
    model_fn:
        Constructor for the *knowledge network* (the communicated model;
        ResNet-20 in the paper's CIFAR runs).
    fed:
        Federated data views (must include a public distillation set).
    config:
        Shared hyperparameters; FedKEMF additionally reads ``kl_weight``,
        ``ensemble``, ``fusion`` and the ``distill_*`` fields.
    local_model_fns:
        Per-client constructors for the resource-matched local models. A
        single callable is broadcast to all clients (homogeneous deployment,
        as in Figure 4); a list enables the multi-model setting of Table 3.
    runtime:
        Execution runtime override (executor/faults/deadline), forwarded to
        :class:`~repro.fl.algorithms.base.FLAlgorithm`.
    """

    name = "FedKEMF"

    def __init__(
        self,
        model_fn: ModelFn,
        fed: FederatedDataset,
        config: FLConfig,
        local_model_fns: "Sequence[ModelFn] | ModelFn | None" = None,
        runtime: "FLRuntime | None" = None,
    ) -> None:
        if local_model_fns is None:
            local_model_fns = model_fn
        if callable(local_model_fns):
            local_model_fns = [local_model_fns] * fed.num_clients
        if len(local_model_fns) != fed.num_clients:
            raise ValueError(
                f"need one local model builder per client "
                f"({fed.num_clients}); got {len(local_model_fns)}"
            )
        self._local_model_fns = list(local_model_fns)
        super().__init__(model_fn, fed, config, runtime=runtime)

    def setup(self) -> None:
        if self.cfg.fusion not in ("ensemble-distill", "weight-average"):
            raise ValueError(f"unknown fusion mode {self.cfg.fusion!r}")
        # Persistent local models — deployed on device, never communicated.
        # Behind a bank they are constructed on first touch (fresh init is
        # deterministic, so untouched clients carry no state at all) and,
        # with cfg.state_residency set, only that many stay live in RAM;
        # evicted models' weights park in a spill-capable state store.
        self.local_models = ClientModelBank(
            self._local_model_fns, resident_limit=self.cfg.state_residency
        )
        # Mutual trainers mirror the base class's lazy trainer bank: pure
        # in the client id, built on demand, droppable between rounds.
        self.mutual_trainers = LazyFactoryBank(
            self.make_mutual_trainer, self.fed.num_clients
        )
        self._distill_config = DistillConfig(
            epochs=self.cfg.distill_epochs,
            lr=self.cfg.distill_lr,
            batch_size=self.cfg.distill_batch_size,
            temperature=self.cfg.distill_temperature,
            seed=self.cfg.seed,
        )
        self.last_distill_loss: float | None = None
        # Flipped-label DeepMutualTrainer clones, mirroring the base
        # class's _labelflip_trainers for the mutual-learning local pass.
        self._labelflip_mutual_trainers: "dict[int, DeepMutualTrainer]" = {}

    def make_mutual_trainer(self, cid: int) -> DeepMutualTrainer:
        """Construct client ``cid``'s deep-mutual trainer. Pure in ``cid``
        (fixed config/seed), so dropped entries rebuild bit-identically."""
        return DeepMutualTrainer(
            self.fed.client_train[cid],
            batch_size=self.cfg.batch_size,
            lr=self.cfg.lr,
            momentum=self.cfg.momentum,
            weight_decay=self.cfg.weight_decay,
            kl_weight=self.cfg.kl_weight,
            seed=self.cfg.seed * 7919 + cid,
        )

    def _prefetch_clients(self, round_idx: int, active: "list[int]") -> None:
        # On top of the base hook (cohort shards + LocalTrainer cache),
        # drop cached mutual trainers and flipped-label mutual clones for
        # clients outside the cohort — they pin evicted shards otherwise.
        super()._prefetch_clients(round_idx, active)
        if getattr(self.fed, "prefetch", None) is None:
            return
        keep = set(active)
        self.mutual_trainers.retain(keep)
        for cid in [c for c in self._labelflip_mutual_trainers if c not in keep]:
            del self._labelflip_mutual_trainers[cid]

    def _make_labelflip_mutual_trainer(self, cid: int) -> DeepMutualTrainer:
        """Build a flipped-label clone of client ``cid``'s mutual trainer
        (same hyperparameters and seed → identical batch schedule). Pure
        construction: no algorithm state is touched."""
        base = self.mutual_trainers[cid]
        x, y = base.dataset.arrays()
        return DeepMutualTrainer(
            ArrayDataset(x, (self.fed.num_classes - 1) - y),
            batch_size=base.batch_size,
            lr=base.lr,
            momentum=base.momentum,
            weight_decay=base.weight_decay,
            kl_weight=base.kl_weight,
            seed=base.seed,
        )

    def _prepare_attack_state(self, round_idx: int, active: "list[int]") -> None:
        # The mutual-learning local pass uses DeepMutualTrainer clones,
        # not the base class's LocalTrainer clones: prebuild exactly those
        # parent-side so client_work stays a pure read in forked workers.
        for cid in active:
            if (
                self.runtime.attack_role(round_idx, cid) == LABELFLIP
                and cid not in self._labelflip_mutual_trainers
            ):
                self._labelflip_mutual_trainers[cid] = (
                    self._make_labelflip_mutual_trainer(cid)
                )

    def _mutual_trainer(self, round_idx: int, cid: int) -> DeepMutualTrainer:
        """The mutual trainer for this (round, client) pair: the honest
        one, or a flipped-label clone under the adversary's ``labelflip``
        role. Pure read of the prepared cache; on a miss (direct call
        outside the round pipeline) the clone is rebuilt without caching —
        this may run in a forked worker where ``self`` writes are lost."""
        if self.runtime.attack_role(round_idx, cid) != LABELFLIP:
            return self.mutual_trainers[cid]
        trainer = self._labelflip_mutual_trainers.get(cid)
        if trainer is not None:
            return trainer
        return self._make_labelflip_mutual_trainer(cid)

    def server_state(self) -> dict:
        # The heterogeneous local models are the on-device deployment
        # artifacts — without them a resumed run would restart every θ from
        # scratch and diverge from the uninterrupted trajectory. The base
        # dict additionally carries the buffered-regime update buffer.
        state = super().server_state()
        state.update(
            # Touched clients only ({cid: state_dict}): untouched models
            # are their deterministic fresh init, so a million-client
            # checkpoint stays O(touched).
            local_models=self.local_models.export_states(),
            last_distill_loss=self.last_distill_loss,
        )
        return state

    def load_server_state(self, state: dict) -> None:
        super().load_server_state(state)
        # Accepts the dict-of-touched format and the legacy all-clients
        # list from older checkpoints.
        self.local_models.load_states(state["local_models"])
        self.last_distill_loss = state["last_distill_loss"]

    def client_work(self, round_idx: int, cid: int, payload: dict) -> ClientUpdate:
        # Client loads θ_g (tiny payload) into its working copy.
        self._scratch.load_state_dict(payload["state"])
        # Alg. 1: deep mutual learning of (θ, θ_g) on the local shard.
        stats = self._mutual_trainer(round_idx, cid).train(
            self.local_models[cid],
            self._scratch,
            epochs=self.cfg.local_epochs,
            round_idx=round_idx,
        )
        # Uplink: the updated knowledge network θ_g^k; the mutually-trained
        # local model θ stays on device (returned only for write-back).
        return ClientUpdate(
            client_id=cid,
            states={"state": self._scratch.state_dict()},
            weight=float(self.fed.client_size(cid)),
            steps=stats.steps,
            stats=stats,
            local_state=self.local_models[cid].state_dict(),
        )

    def apply_client_update(self, update: ClientUpdate) -> None:
        # The device keeps its trained θ even if the server never sees θ_g^k.
        # Routed through the bank so a non-live client's weights park in
        # the state store instead of forcing a module construction.
        self.local_models.load_state(update.client_id, update.local_state)

    def aggregate(self, round_idx: int, updates: "list[ClientUpdate]") -> None:
        client_states = [u.received["state"] for u in updates]
        weights = [u.weight for u in updates]
        if self.cfg.fusion == "weight-average":
            # Undefended this is fuse_weight_average verbatim; with a
            # defense, the robust policy fuses the knowledge networks.
            new_state = self._combine_states(
                client_states, weights, reference=self.global_model.state_dict(copy=False)
            )
            self.global_model.load_state_dict(new_state)
        else:
            # member_weights: the buffered regime's staleness discounts
            # (None under synchronous / all-fresh aggregation — keeping the
            # teacher bit-identical to the pre-buffer behaviour).
            # member_filter: the defense's confidence/outlier veto over the
            # ensemble teacher (a no-op returning member_weights unchanged
            # when no defense is configured).
            self.last_distill_loss = fuse_ensemble_distill(
                self.global_model,
                self._scratch,
                client_states,
                weights,
                public=self.fed.server_public,
                strategy=self.cfg.ensemble,
                distill_config=self._distill_config,
                init_from_average=self.cfg.distill_init_from_average,
                member_weights=self._staleness_discounts,
                member_filter=self._ensemble_member_filter,
            )

    def client_compute_model(self, cid: int) -> Module:
        # DML trains θ and θ_g together; the resource-matched local model
        # dominates the client's FLOPs and drives the virtual clock.
        return self.local_models[cid]

    def local_models_for_eval(self) -> "ClientModelBank":
        # The bank duck-types list[Module] (len / index / iterate), so the
        # Table 3 evaluation path is unchanged.
        return self.local_models


ALGORITHM_REGISTRY.add("fedkemf", FedKEMF)
