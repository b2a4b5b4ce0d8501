import numpy as np
import pytest

from submcmc import (
    PoissonRegression,
    build_param_expanded,
    experiments,
    select_expansion_point,
    simulate_poisson,
)

EXAMPLE_THETA = np.array([1.0, 0.75])
EXAMPLE_SEED = 1830


@pytest.fixture(scope="session")
def poisson_example():
    """The running example: n=1000 Poisson regression with a scalar covariate."""
    return simulate_poisson(1000, EXAMPLE_THETA, seed=EXAMPLE_SEED)


@pytest.fixture(scope="session")
def poisson_model():
    return PoissonRegression()


@pytest.fixture(scope="session")
def example_center(poisson_model, poisson_example):
    """Full-data posterior mode, the expansion point for the example: the
    Newton steps of `expansion = exact` from the pilot mode."""
    pilot = select_expansion_point(poisson_model, poisson_example)
    return experiments._centred_cache(poisson_model, poisson_example, pilot, None,
                                      {}).expansion_point


@pytest.fixture(scope="session")
def param_caches(poisson_model, poisson_example, example_center):
    return {order: build_param_expanded(poisson_model, poisson_example,
                                        example_center, order=order)
            for order in (0, 1, 2)}
