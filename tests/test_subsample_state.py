"""The flat subsample layout against the nested layout it replaced.

`Nested` and the `nested_*` functions are a frozen copy of the earlier
tagged-union state (fields renamed) and its draw and refresh code:
plain, Gaussian-coded, blocked and nested-mini-batch kinds, and the
cursor carried past a rejected proposal.  For fixed seeds the flat
`propose_u` must draw the same indices and split them into the same
mini-batches, call after call.
"""

import copy
from dataclasses import dataclass

import numpy as np
import pytest

from submcmc import (
    BlockPoissonConfig,
    DependenceConfig,
    DifferenceConfig,
    ProposalConfig,
    draw_block_poisson,
    draw_bpm,
    draw_cpm,
    draw_srs,
    gaussian_to_index,
    pmmh_run,
    propose_u,
)
from submcmc import samplers
from submcmc.samplers import _streams


@dataclass
class Nested:
    kind: str
    n: int
    indices: np.ndarray | None = None
    gaussians: np.ndarray | None = None
    block_edges: np.ndarray | None = None
    minibatches: list | None = None
    batch_size: int | None = None
    cursor: int = 0


def nested_srs(n, m, rng):
    return Nested("srs", n, indices=rng.integers(0, n, size=m))


def nested_cpm(n, m, rng):
    g = rng.standard_normal(m)
    return Nested("cpm", n, indices=gaussian_to_index(g, n), gaussians=g)


def nested_bpm(n, m, n_blocks, rng):
    sizes = np.full(n_blocks, m // n_blocks)
    sizes[: m % n_blocks] += 1
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    return Nested("bpm", n, indices=rng.integers(0, n, size=m), block_edges=bounds)


def nested_block_poisson(n, n_products, batch_size, rng):
    batches = []
    for _ in range(n_products):
        count = rng.poisson(1.0)
        batches.append([rng.integers(0, n, size=batch_size) for _ in range(count)])
    return Nested("block_poisson", n, minibatches=batches, batch_size=batch_size)


def nested_propose(current, dependence, rng):
    n = current.n
    if dependence.kind == "independent":
        if current.kind == "srs":
            return nested_srs(n, current.indices.size, rng)
        if current.kind == "cpm":
            return nested_cpm(n, current.indices.size, rng)
        if current.kind == "bpm":
            return Nested("bpm", n, indices=rng.integers(0, n, size=current.indices.size),
                          block_edges=current.block_edges)
        return nested_block_poisson(n, len(current.minibatches), current.batch_size, rng)
    if dependence.kind == "cpm":
        phi = dependence.ar_coef
        size = current.indices.size
        g = phi * current.gaussians + np.sqrt(1.0 - phi * phi) * rng.standard_normal(size)
        return Nested("cpm", n, indices=gaussian_to_index(g, n), gaussians=g)
    if current.kind == "bpm":
        G = current.block_edges.size - 1
        g = current.cursor % G
        lo, hi = current.block_edges[g], current.block_edges[g + 1]
        indices = current.indices.copy()
        indices[lo:hi] = rng.integers(0, n, size=hi - lo)
        return Nested("bpm", n, indices=indices, block_edges=current.block_edges,
                      cursor=(g + 1) % G)
    G = dependence.n_blocks
    per = len(current.minibatches) // G
    g = current.cursor % G
    batches = [list(block) for block in current.minibatches]
    for l in range(g * per, (g + 1) * per):
        count = rng.poisson(1.0)
        batches[l] = [rng.integers(0, n, size=current.batch_size) for _ in range(count)]
    return Nested("block_poisson", n, minibatches=batches, batch_size=current.batch_size,
                  cursor=(g + 1) % G)


def nested_keep(state, proposed):
    """The current state, kept, with the proposal's cursor."""
    return Nested(state.kind, state.n, state.indices, state.gaussians, state.block_edges,
                  state.minibatches, state.batch_size, proposed.cursor)


def assert_same(flat, nested):
    assert flat.cursor == nested.cursor
    if nested.kind != "block_poisson":
        np.testing.assert_array_equal(flat.indices, nested.indices)
        if nested.kind == "bpm":
            np.testing.assert_array_equal(flat.bounds, nested.block_edges)
        if nested.kind == "cpm":
            np.testing.assert_array_equal(flat.gaussians, nested.gaussians)
        return
    products = np.split(flat.indices, flat.bounds[1:-1])
    assert len(products) == len(nested.minibatches)
    for product, batches in zip(products, nested.minibatches):
        split = product.reshape(-1, flat.batch_size)
        assert len(split) == len(batches)
        for ours, theirs in zip(split, batches):
            np.testing.assert_array_equal(ours, theirs)


N = 997
CASES = {
    "srs": (lambda r: nested_srs(N, 40, r), lambda r: draw_srs(N, 40, r),
            DependenceConfig()),
    "cpm": (lambda r: nested_cpm(N, 40, r), lambda r: draw_cpm(N, 40, r),
            DependenceConfig(kind="cpm", ar_coef=0.8)),
    "cpm_fresh": (lambda r: nested_cpm(N, 40, r), lambda r: draw_cpm(N, 40, r),
                  DependenceConfig()),
    "bpm": (lambda r: nested_bpm(N, 43, 5, r), lambda r: draw_bpm(N, 43, 5, r),
            DependenceConfig(kind="bpm", n_blocks=5)),
    "block_poisson": (lambda r: nested_block_poisson(N, 12, 3, r),
                      lambda r: draw_block_poisson(N, 12, 3, r), DependenceConfig()),
    "block_poisson_bpm": (lambda r: nested_block_poisson(N, 12, 3, r),
                          lambda r: draw_block_poisson(N, 12, 3, r),
                          DependenceConfig(kind="bpm", n_blocks=4)),
}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("case", sorted(CASES))
def test_chained_proposals_match_the_nested_layout(case, seed):
    draw_nested, draw_flat, dependence = CASES[case]
    rng_nested, rng_flat = np.random.default_rng(seed), np.random.default_rng(seed)
    nested, flat = draw_nested(rng_nested), draw_flat(rng_flat)
    assert_same(flat, nested)
    # keep the current state for about half the proposals, as a kernel does
    # when it rejects one
    rejected = np.random.default_rng(seed + 100).random(30) < 0.5
    for reject in rejected:
        nested_prop = nested_propose(nested, dependence, rng_nested)
        flat_prop = propose_u(flat, dependence, rng_flat)
        assert_same(flat_prop, nested_prop)
        if reject:
            nested = nested_keep(nested, nested_prop)
            flat.cursor = flat_prop.cursor
        else:
            nested, flat = nested_prop, flat_prop


@pytest.mark.parametrize("case", ["bpm", "block_poisson_bpm"])
def test_pmmh_carries_the_cursor_past_rejections_like_the_nested_layout(
        case, monkeypatch, poisson_model, poisson_example, example_center, param_caches):
    proposals = []
    real = samplers.propose_u

    def recording(current, dependence, rng):
        out = real(current, dependence, rng)
        proposals.append(copy.copy(out))
        return out

    monkeypatch.setattr(samplers, "propose_u", recording)
    n = poisson_example.n
    if case == "bpm":
        est_cfg, dependence = DifferenceConfig(m=43), DependenceConfig(kind="bpm", n_blocks=5)
        draw_nested = lambda r: nested_bpm(n, 43, 5, r)  # noqa: E731
    else:
        est_cfg = BlockPoissonConfig(n_products=12, batch_size=3, bound=-12.0)
        dependence = DependenceConfig(kind="bpm", n_blocks=4)
        draw_nested = lambda r: nested_block_poisson(n, 12, 3, r)  # noqa: E731
    trace = pmmh_run(poisson_model, poisson_example, param_caches[2], est_cfg,
                     ProposalConfig(step_scale=0.03), dependence, example_center, 30,
                     seed=21)
    assert len(proposals) == 30 and 0 < trace.accept.sum() < 30
    rng = _streams(21)[2]
    nested = draw_nested(rng)
    for accepted, flat_prop in zip(trace.accept, proposals):
        nested_prop = nested_propose(nested, dependence, rng)
        assert_same(flat_prop, nested_prop)
        nested = nested_prop if accepted else nested_keep(nested, nested_prop)
