"""Fixtures for the execution-runtime tests: a micro federation that keeps
serial-vs-parallel parity runs in the seconds range."""

from __future__ import annotations

import functools

import pytest

from repro.data.federated import build_federated_dataset
from repro.data.synthetic import SyntheticImageDataset, SyntheticSpec
from repro.nn.models import build_model


@pytest.fixture(scope="session")
def micro_fed():
    spec = SyntheticSpec(num_classes=4, channels=1, image_size=8, noise_std=0.25)
    world = SyntheticImageDataset(spec, seed=0)
    return build_federated_dataset(
        world,
        num_clients=6,
        n_train=240,
        n_test=60,
        n_public=60,
        alpha=0.5,
        seed=0,
    )


@pytest.fixture(scope="session")
def micro_model_fn():
    # A partial of a module-level function (not a local closure) so that the
    # whole algorithm snapshot — which holds this factory — is picklable and
    # PersistentParallelExecutor can ship it instead of falling back.
    return functools.partial(
        build_model,
        "mlp",
        num_classes=4,
        in_channels=1,
        image_size=8,
        width_mult=0.25,
        seed=1,
    )
