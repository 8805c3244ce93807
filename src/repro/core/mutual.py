"""Deep mutual learning — the paper's knowledge-extraction step (Alg. 1).

On each client, the (large, resource-matched) local model θ and the tiny
knowledge network θ_g are trained *together* on the local shard:

    θ   ← θ   − η ∇( CE(θ;b)   + λ·D_KL(θ_g ‖ θ) )      (Alg. 1 line 6)
    θ_g ← θ_g − η ∇( CE(θ_g;b) + λ·D_KL(θ ‖ θ_g) )      (Alg. 1 line 7)

Both updates are computed from one forward pass per network per batch, each
network treating the other's logits as a constant (the standard DML
simultaneous-update form; Zhang et al. 2018). λ = ``kl_weight`` is 1.0 in
the paper and is swept in the DML ablation bench.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.data.dataset import Dataset
from repro.data.loader import DataLoader
from repro.nn import functional as F
from repro.nn.module import Module
from repro.nn.optim import SGD
from repro.nn.tensor import Tensor

__all__ = ["MutualTrainStats", "DeepMutualTrainer"]


@dataclass
class MutualTrainStats:
    """Measurements from one DML pass."""

    steps: int
    mean_local_loss: float
    mean_knowledge_loss: float
    mean_kl: float


class DeepMutualTrainer:
    """Runs Alg. 1 on one client shard.

    Parameters mirror :class:`repro.fl.trainer.LocalTrainer`; ``kl_weight``
    scales both KL terms symmetrically.
    """

    def __init__(
        self,
        dataset: Dataset,
        batch_size: int = 32,
        lr: float = 0.05,
        momentum: float = 0.9,
        weight_decay: float = 0.0,
        kl_weight: float = 1.0,
        seed: int = 0,
    ) -> None:
        if kl_weight < 0:
            raise ValueError("kl_weight must be non-negative")
        self.dataset = dataset
        self.batch_size = batch_size
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.kl_weight = kl_weight
        self.seed = seed

    def train(
        self,
        local_model: Module,
        knowledge_net: Module,
        epochs: int,
        round_idx: int = 0,
    ) -> MutualTrainStats:
        """Mutually train ``local_model`` and ``knowledge_net`` for E epochs."""
        loader = DataLoader(
            self.dataset,
            batch_size=self.batch_size,
            shuffle=True,
            seed=self.seed * 100003 + round_idx,
        )
        opt_local = SGD(
            local_model.parameters(),
            lr=self.lr,
            momentum=self.momentum,
            weight_decay=self.weight_decay,
        )
        opt_know = SGD(
            knowledge_net.parameters(),
            lr=self.lr,
            momentum=self.momentum,
            weight_decay=self.weight_decay,
        )
        local_model.train()
        knowledge_net.train()

        steps = 0
        sum_local, sum_know, sum_kl, seen = 0.0, 0.0, 0.0, 0
        for _epoch in range(epochs):
            for xb, yb in loader:
                x = Tensor(xb)
                logits_local = local_model(x)
                logits_know = knowledge_net(x)

                # --- update θ (local model); θ_g's logits are constants ---
                local_model.zero_grad()
                ce_l = F.cross_entropy(logits_local, yb)
                kl_l = F.kl_div_with_logits(logits_know.detach(), logits_local)
                loss_l = ce_l + self.kl_weight * kl_l
                loss_l.backward()
                opt_local.step()

                # --- update θ_g (knowledge net); θ's logits are constants ---
                knowledge_net.zero_grad()
                ce_k = F.cross_entropy(logits_know, yb)
                kl_k = F.kl_div_with_logits(logits_local.detach(), logits_know)
                loss_k = ce_k + self.kl_weight * kl_k
                loss_k.backward()
                opt_know.step()

                n = len(yb)
                steps += 1
                seen += n
                sum_local += loss_l.item() * n
                sum_know += loss_k.item() * n
                sum_kl += 0.5 * (kl_l.item() + kl_k.item()) * n

        denom = max(seen, 1)
        return MutualTrainStats(
            steps=steps,
            mean_local_loss=sum_local / denom,
            mean_knowledge_loss=sum_know / denom,
            mean_kl=sum_kl / denom,
        )

