"""Shared fixtures for the test suite."""

import numpy as np
import pytest

from repro.data import aqi36_like, metr_la_like
from repro.inference.compiled import clear_program_store


@pytest.fixture(autouse=True)
def fresh_program_store():
    """Compiled programs are shared per architecture across the process;
    start every test on an empty store so miss counts and fault tests do not
    depend on which tests ran before."""
    clear_program_store()


@pytest.fixture
def rng():
    """Deterministic random generator for tests."""
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def tiny_traffic_dataset():
    """Small traffic-style dataset shared across tests (cheap to build)."""
    return metr_la_like(num_nodes=6, num_days=4, steps_per_day=24, missing_pattern="block", seed=7)


@pytest.fixture(scope="session")
def tiny_air_dataset():
    """Small air-quality-style dataset with simulated-failure missing."""
    return aqi36_like(num_nodes=6, num_days=6, steps_per_day=24, missing_pattern="failure", seed=11)


@pytest.fixture(scope="session")
def tiny_point_dataset():
    """Small traffic dataset with point missing."""
    return metr_la_like(num_nodes=6, num_days=4, steps_per_day=24, missing_pattern="point", seed=13)
