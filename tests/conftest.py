import numpy as np
import pytest

from surfbench.config import ExperimentConfig
from surfbench.protocol import execute_experiment
from surfbench.report import summarize
from surfbench.synthdata import generate


@pytest.fixture(scope="session")
def default_config():
    return ExperimentConfig()


@pytest.fixture(scope="session")
def default_dataset(default_config):
    return generate(noise=default_config.noise_spec())


@pytest.fixture(scope="session")
def full_run(default_dataset, default_config):
    """Run records of the full default experiment (computed once per session)."""
    return execute_experiment(default_dataset, default_config)


@pytest.fixture(scope="session")
def summary(full_run, default_config):
    """Summary table of the full default experiment."""
    return summarize(full_run, default_config)


def min_separated(rng, n, minsep, box=1.0, max_tries=4000):
    """Random points with a minimum pairwise separation (rejection sampling)."""
    pts = []
    tries = 0
    while len(pts) < n and tries < max_tries:
        p = rng.uniform(0.0, box, 2)
        tries += 1
        if all(np.hypot(*(p - q)) > minsep for q in pts):
            pts.append(p)
    return np.array(pts)
