"""Scale profiles and canonical experiment settings.

The paper's evaluation runs 200–400 communication rounds of full-width
models on CIFAR-10/MNIST — days of single-core NumPy compute. The harness
therefore defines three *scales* with identical structure:

- ``smoke``  (default): 8×8 images, width-multiplied models, 6–10 clients,
  ≤ 18 rounds. Every ordering/ratio claim is checked here; absolute
  accuracies are lower than the paper's.
- ``small``: 16×16, half-width, more clients/rounds — closer shapes,
  minutes per run.
- ``paper``: the full configuration (32×32, width 1.0, 30/100 clients,
  200 rounds) for anyone with the patience; selected via ``REPRO_SCALE``.

Every mapping (client counts, target accuracies) keeps the paper's axes so
tables render with the paper's row structure at any scale.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

__all__ = [
    "Scale",
    "SCALES",
    "get_scale",
    "ClientSetting",
    "CLIENT_SETTINGS",
    "scaled_clients",
    "scaled_target",
    "runtime_defaults",
    "checkpoint_defaults",
]


@dataclass(frozen=True)
class ClientSetting:
    """One of the paper's three federation sizes.

    ``key`` is the paper's client count ("30", "50", "100"); per-scale
    client counts come from :class:`Scale`.
    """

    key: str
    paper_clients: int
    sample_ratio: float  # Table 2's per-setting ratio
    paper_target: float  # Table 1's per-setting target accuracy


# The paper's three federation scales with their Table 1 targets and
# Table 2 sample ratios.
CLIENT_SETTINGS: dict[str, ClientSetting] = {
    "30": ClientSetting("30", 30, 0.4, 0.65),
    "50": ClientSetting("50", 50, 0.7, 0.57),
    "100": ClientSetting("100", 100, 0.5, 0.60),
}


@dataclass(frozen=True)
class Scale:
    """One resolution of the full experiment grid."""

    name: str
    image_size: int
    mnist_image_size: int
    width_mult: dict = field(default_factory=dict)  # model family → multiplier
    n_train: int = 800
    n_test: int = 200
    n_public: int = 300
    rounds: int = 16
    mnist_rounds: int = 10
    local_epochs: int = 2
    batch_size: int = 20
    lr: float = 0.02
    alpha: float = 0.3  # Dirichlet concentration (paper: 0.1)
    clients: dict = field(default_factory=dict)  # setting key → client count
    targets: dict = field(default_factory=dict)  # setting key → target accuracy
    distill_epochs: int = 1
    distill_lr: float = 1e-3

    def width_for(self, model_name: str) -> float:
        fam = model_name.split("-")[0].lower()
        return self.width_mult.get(fam, 1.0)

    def clients_for(self, setting_key: str) -> int:
        return self.clients[setting_key]

    def target_for(self, setting_key: str) -> float:
        return self.targets[setting_key]


SCALES: dict[str, Scale] = {
    "smoke": Scale(
        name="smoke",
        image_size=8,
        mnist_image_size=8,
        width_mult={"resnet": 0.25, "vgg": 0.125, "cnn": 0.25, "mlp": 0.25},
        n_train=1000,
        n_test=200,
        n_public=300,
        rounds=20,
        mnist_rounds=12,
        local_epochs=2,
        batch_size=20,
        lr=0.02,
        alpha=0.3,
        clients={"30": 10, "50": 12, "100": 14},
        targets={"30": 0.32, "50": 0.28, "100": 0.30},
    ),
    "small": Scale(
        name="small",
        image_size=16,
        mnist_image_size=14,
        width_mult={"resnet": 0.5, "vgg": 0.25, "cnn": 0.5, "mlp": 0.5},
        n_train=2400,
        n_test=600,
        n_public=800,
        rounds=40,
        mnist_rounds=20,
        local_epochs=2,
        batch_size=32,
        lr=0.02,
        alpha=0.2,
        clients={"30": 10, "50": 14, "100": 20},
        targets={"30": 0.55, "50": 0.48, "100": 0.50},
    ),
    "paper": Scale(
        name="paper",
        image_size=32,
        mnist_image_size=28,
        width_mult={"resnet": 1.0, "vgg": 1.0, "cnn": 1.0, "mlp": 1.0},
        n_train=50000,
        n_test=10000,
        n_public=10000,
        rounds=200,
        mnist_rounds=100,
        local_epochs=2,
        batch_size=64,
        lr=0.02,
        alpha=0.1,
        clients={"30": 30, "50": 50, "100": 100},
        targets={"30": 0.65, "50": 0.57, "100": 0.60},
    ),
}


def get_scale(name: str | None = None) -> Scale:
    """Resolve a scale by name or the ``REPRO_SCALE`` env var (default smoke)."""
    name = name or os.environ.get("REPRO_SCALE", "smoke")
    key = name.strip().lower()
    if key not in SCALES:
        raise KeyError(f"unknown scale {name!r}; options: {sorted(SCALES)}")
    return SCALES[key]


def scaled_clients(setting_key: str, scale: Scale | None = None) -> int:
    """Client count for a paper setting at the active scale."""
    return (scale or get_scale()).clients_for(setting_key)


def scaled_target(setting_key: str, scale: Scale | None = None) -> float:
    """Target accuracy for a paper setting at the active scale."""
    return (scale or get_scale()).target_for(setting_key)


def runtime_defaults() -> dict:
    """Execution-runtime config overrides from the environment.

    ``REPRO_WORKERS`` (int), ``REPRO_EXECUTOR`` (serial | parallel |
    persistent), ``REPRO_FAULTS`` (fault spec string, e.g.
    ``"dropout=0.3,loss=0.1"``) and ``REPRO_DEADLINE`` (float seconds) map
    onto :class:`repro.fl.algorithms.FLConfig`'s ``workers`` / ``executor``
    / ``faults`` / ``deadline`` fields; ``REPRO_AGGREGATION`` (sync |
    buffered), ``REPRO_BUFFER_SIZE`` (int), ``REPRO_STALENESS_ALPHA``
    (float) and ``REPRO_MAX_STALENESS`` (int) map onto the buffered-server
    fields ``aggregation`` / ``buffer_size`` / ``staleness_alpha`` /
    ``max_staleness``; ``REPRO_DEFENSE`` (robust-aggregation spec, e.g.
    ``"trimmed=0.3"``) and ``REPRO_NORM_CEILING`` (float) map onto the
    Byzantine-robustness fields ``defense`` / ``norm_ceiling``;
    ``REPRO_MAX_COHORT`` (int, trajectory-shaping per-round cohort cap) and
    ``REPRO_STATE_RESIDENCY`` (int, per-client state kept in RAM before
    spilling) map onto ``max_cohort`` / ``state_residency``. The CLI's
    ``--workers/--executor/--faults/--defense/--norm-ceiling/
    --deadline/--aggregation/--buffer-size/--staleness-alpha/
    --max-staleness`` flags set these variables so one invocation
    configures every run it spawns. Unset variables are omitted, leaving
    the config defaults in force.
    """
    out: dict = {}
    workers = os.environ.get("REPRO_WORKERS")
    if workers:
        out["workers"] = int(workers)
    executor = os.environ.get("REPRO_EXECUTOR")
    if executor:
        out["executor"] = executor.strip().lower()
    faults = os.environ.get("REPRO_FAULTS")
    if faults:
        out["faults"] = faults
    defense = os.environ.get("REPRO_DEFENSE")
    if defense:
        out["defense"] = defense.strip().lower()
    norm_ceiling = os.environ.get("REPRO_NORM_CEILING")
    if norm_ceiling:
        out["norm_ceiling"] = float(norm_ceiling)
    deadline = os.environ.get("REPRO_DEADLINE")
    if deadline:
        out["deadline"] = float(deadline)
    aggregation = os.environ.get("REPRO_AGGREGATION")
    if aggregation:
        out["aggregation"] = aggregation.strip().lower()
    buffer_size = os.environ.get("REPRO_BUFFER_SIZE")
    if buffer_size:
        out["buffer_size"] = int(buffer_size)
    alpha = os.environ.get("REPRO_STALENESS_ALPHA")
    if alpha:
        out["staleness_alpha"] = float(alpha)
    max_staleness = os.environ.get("REPRO_MAX_STALENESS")
    if max_staleness:
        out["max_staleness"] = int(max_staleness)
    max_cohort = os.environ.get("REPRO_MAX_COHORT")
    if max_cohort:
        out["max_cohort"] = int(max_cohort)
    state_residency = os.environ.get("REPRO_STATE_RESIDENCY")
    if state_residency:
        out["state_residency"] = int(state_residency)
    return out


def lazy_data_enabled() -> bool:
    """Whether federations should be built lazily (``REPRO_LAZY_DATA``).

    The CLI's ``--lazy-data`` flag sets the variable; lazy and eager
    builders produce bit-identical client shards (property-tested), so
    this toggles memory behavior, never results.
    """
    return os.environ.get("REPRO_LAZY_DATA", "").strip().lower() in (
        "1",
        "true",
        "yes",
        "on",
    )


def checkpoint_defaults() -> dict:
    """Durability settings from the environment.

    ``REPRO_CHECKPOINT_DIR`` (path; enables mid-run checkpointing),
    ``REPRO_CHECKPOINT_EVERY`` (int rounds, default 1) and ``REPRO_RESUME``
    ("1"/"true" to continue from each run's own checkpoint when present)
    map onto the ``checkpoint_dir`` / ``checkpoint_every`` / ``resume_from``
    keyword arguments of :meth:`repro.fl.algorithms.FLAlgorithm.run`. The
    CLI's ``--checkpoint-dir/--checkpoint-every/--resume`` flags set these
    variables. Returns ``{}`` when no checkpoint dir is configured —
    durability is strictly opt-in.
    """
    directory = os.environ.get("REPRO_CHECKPOINT_DIR")
    if not directory:
        return {}
    out: dict = {"checkpoint_dir": directory}
    every = os.environ.get("REPRO_CHECKPOINT_EVERY")
    if every:
        out["checkpoint_every"] = int(every)
    resume = os.environ.get("REPRO_RESUME", "").strip().lower()
    if resume in ("1", "true", "yes", "on"):
        out["resume_from"] = True
    return out
