"""Local SGD training shared by every FL algorithm.

Each baseline differs only in (a) what it adds to the local gradient
(FedProx's proximal pull, SCAFFOLD's control-variate correction) and (b)
what it communicates. :class:`LocalTrainer` factors out (a) behind a
``grad_hook`` so algorithm classes stay small, and counts optimizer steps
exactly (FedNova's τ_i normalization depends on the true count).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.data.dataset import Dataset
from repro.data.loader import DataLoader
from repro.nn import functional as F
from repro.nn.module import Module
from repro.nn.optim import SGD
from repro.nn.tensor import Tensor

__all__ = ["LocalTrainer", "TrainStats"]

# hook(model) runs after backward and before the optimizer step;
# it may modify p.grad in place.
GradHook = Callable[[Module], None]


@dataclass
class TrainStats:
    """What a local training pass did."""

    steps: int
    epochs: int
    samples_seen: int
    mean_loss: float


class LocalTrainer:
    """Runs E epochs of mini-batch SGD on one client shard.

    Parameters
    ----------
    dataset:
        Client training shard.
    batch_size, lr, momentum, weight_decay:
        Local solver hyperparameters (paper defaults live in
        :mod:`repro.experiments.configs`).
    seed:
        Loader shuffle seed; vary per (client, round) for honest SGD noise.
    """

    def __init__(
        self,
        dataset: Dataset,
        batch_size: int = 32,
        lr: float = 0.05,
        momentum: float = 0.9,
        weight_decay: float = 0.0,
        seed: int = 0,
    ) -> None:
        self.dataset = dataset
        self.batch_size = batch_size
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.seed = seed

    def make_loader(self, round_idx: int = 0) -> DataLoader:
        return DataLoader(
            self.dataset,
            batch_size=self.batch_size,
            shuffle=True,
            seed=self.seed * 100003 + round_idx,
        )

    def train(
        self,
        model: Module,
        epochs: int,
        round_idx: int = 0,
        grad_hook: GradHook | None = None,
        lr: float | None = None,
    ) -> TrainStats:
        """Standard supervised local update (cross-entropy, Eq. 1)."""
        loader = self.make_loader(round_idx)
        opt = SGD(
            model.parameters(),
            lr=lr if lr is not None else self.lr,
            momentum=self.momentum,
            weight_decay=self.weight_decay,
        )
        model.train()
        steps = 0
        samples = 0
        loss_sum = 0.0
        for _epoch in range(epochs):
            for xb, yb in loader:
                model.zero_grad()
                loss = F.cross_entropy(model(Tensor(xb)), yb)
                loss.backward()
                if grad_hook is not None:
                    grad_hook(model)
                opt.step()
                steps += 1
                samples += len(yb)
                loss_sum += loss.item() * len(yb)
        return TrainStats(
            steps=steps,
            epochs=epochs,
            samples_seen=samples,
            mean_loss=loss_sum / max(samples, 1),
        )

