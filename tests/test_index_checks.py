"""Indices entering the package are checked at its public boundary.

The samplers trust the indices they draw themselves, so the check lives in
the public entry points only; each must still reject an index of -1 and
an index of n, whether it comes as a bare array or inside a hand-built
SubsampleState, and whatever the cache.
"""

import numpy as np
import pytest

from submcmc import (
    BlockPoissonConfig,
    DomainError,
    ExactControlVariate,
    SubsampleState,
    block_poisson_evaluate,
    build_data_expanded,
    difference_estimate,
    differences,
    kmeans_cluster,
    srs_wr_estimate,
    subsampled_potential,
)
from submcmc.control_variates import check_indices, gather_rows

BAD = {"minus_one": -1, "n": None}


@pytest.fixture(scope="module")
def caches(poisson_model, poisson_example, param_caches):
    clusters = kmeans_cluster(poisson_example, 8, seed=2)
    return {
        "param": param_caches[2],
        "data": build_data_expanded(poisson_model, poisson_example, clusters, order=2),
        "exact": ExactControlVariate(poisson_model, poisson_example),
    }


def bad_indices(n, where):
    idx = np.arange(0, 10 * 7, 7)
    idx[3] = n if BAD[where] is None else BAD[where]
    return idx


@pytest.mark.parametrize("where", sorted(BAD))
@pytest.mark.parametrize("kind", ["param", "data", "exact"])
class TestOutOfRangeIndexRejected:
    def _args(self, poisson_model, poisson_example, caches, kind, where):
        return (poisson_model, caches[kind], poisson_example,
                bad_indices(poisson_example.n, where))

    def test_difference_estimate_bare_array(self, poisson_model, poisson_example,
                                            example_center, caches, kind, where):
        model, cache, data, idx = self._args(poisson_model, poisson_example, caches, kind,
                                             where)
        with pytest.raises(DomainError, match="index out of range"):
            difference_estimate(model, cache, data, example_center, idx)

    def test_difference_estimate_hand_built_state(self, poisson_model, poisson_example,
                                                  example_center, caches, kind, where):
        model, cache, data, idx = self._args(poisson_model, poisson_example, caches, kind,
                                             where)
        state = SubsampleState(n=data.n, indices=idx, bounds=np.array([0, idx.size]))
        with pytest.raises(DomainError, match="index out of range"):
            difference_estimate(model, cache, data, example_center, state)

    def test_differences(self, poisson_model, poisson_example, example_center, caches,
                         kind, where):
        model, cache, data, idx = self._args(poisson_model, poisson_example, caches, kind,
                                             where)
        for grad in (False, True):
            with pytest.raises(DomainError, match="index out of range"):
                differences(model, cache, data, example_center, idx, grad=grad)

    def test_subsampled_potential(self, poisson_model, poisson_example, example_center,
                                  caches, kind, where):
        model, cache, data, idx = self._args(poisson_model, poisson_example, caches, kind,
                                             where)
        with pytest.raises(DomainError, match="index out of range"):
            subsampled_potential(model, cache, data, example_center, idx)

    def test_block_poisson_hand_built_state(self, poisson_model, poisson_example,
                                            example_center, caches, kind, where):
        model, cache, data, idx = self._args(poisson_model, poisson_example, caches, kind,
                                             where)
        # two products of one mini-batch of 5 each
        state = SubsampleState(n=data.n, indices=idx, bounds=np.array([0, 5, 10]),
                               batch_size=5)
        cfg = BlockPoissonConfig(n_products=2, batch_size=5, bound=-2.0)
        with pytest.raises(DomainError, match="index out of range"):
            block_poisson_evaluate(model, cache, data, example_center, cfg, state)

    def test_srs_wr_estimate(self, poisson_model, poisson_example, example_center, caches,
                             kind, where):
        # no cache: -1 would read row n - 1, and n would raise numpy's IndexError
        model, _, data, idx = self._args(poisson_model, poisson_example, caches, kind, where)
        with pytest.raises(DomainError, match="index out of range"):
            srs_wr_estimate(model, data, example_center, idx)

    def test_gather_rows(self, poisson_model, poisson_example, caches, kind, where):
        model, cache, data, idx = self._args(poisson_model, poisson_example, caches, kind,
                                             where)
        with pytest.raises(DomainError, match="index out of range"):
            gather_rows(model, cache, data, idx)

    def test_values_at(self, poisson_model, poisson_example, example_center, caches, kind,
                       where):
        _, cache, _, idx = self._args(poisson_model, poisson_example, caches, kind, where)
        with pytest.raises(DomainError, match="index out of range"):
            cache.values_at(example_center, idx)


def test_in_range_edges_accepted(poisson_model, poisson_example, example_center, caches):
    # 0 and n - 1 are the extreme valid indices
    idx = np.array([0, poisson_example.n - 1])
    for cache in caches.values():
        est = difference_estimate(poisson_model, cache, poisson_example, example_center, idx)
        assert np.isfinite(est.value)


@pytest.mark.parametrize("kind", ["param", "data", "exact"])
def test_non_integer_indices_rejected(poisson_model, poisson_example, example_center, caches,
                                      kind):
    # a boolean mask would select 2 rows of 200 and report m = 200; a float
    # array cannot index at all
    mask = np.zeros(200, dtype=bool)
    mask[[3, 150]] = True
    args = (poisson_model, caches[kind], poisson_example)
    for idx in (mask, np.array([1.0, 2.0]), [True, False]):
        with pytest.raises(DomainError, match="indices must be integers"):
            differences(*args, example_center, idx)
        with pytest.raises(DomainError, match="indices must be integers"):
            difference_estimate(*args, example_center, idx)
        with pytest.raises(DomainError, match="indices must be integers"):
            subsampled_potential(*args, example_center, idx)
        with pytest.raises(DomainError, match="indices must be integers"):
            gather_rows(*args, idx)
        with pytest.raises(DomainError, match="indices must be integers"):
            caches[kind].values_at(example_center, idx)
        with pytest.raises(DomainError, match="indices must be integers"):
            srs_wr_estimate(poisson_model, poisson_example, example_center, idx)


def test_empty_indices_pass_the_check():
    assert check_indices([], 10).size == 0
    assert check_indices(np.empty(0, dtype=bool), 10).size == 0
    assert check_indices(np.array([0, 9], dtype=np.uint32), 10).tolist() == [0, 9]
