"""The block-Poisson subsampling stream: numpy's draws from raw PCG64 words.

`pmmh_run` with the block-Poisson estimator wraps its subsampling stream in
`_BlockPoissonStream` when 2 <= n <= 2^32 and the bit generator is a fresh
PCG64.  The stream serves the two calls `draw_products` makes,
`poisson(1.0)` and `integers(0, n, size=k)`, by numpy's own algorithms, so
every draw equals the Generator's.  The benchmark times a block-Poisson
chain by its `samplers.propose_u` and `estimators.differences` calls, so
those are made once per iteration and once per estimate, through the
module attributes.
"""

import numpy as np
import pytest

from submcmc import (
    BlockPoissonConfig,
    DependenceConfig,
    ProposalConfig,
    SamplerError,
    estimators,
    pmmh_run,
    samplers,
)
from submcmc.estimators import draw_products
from submcmc.samplers import _BlockPoissonStream

# n near 2^31 rejects about half of its 32-bit halves; 2^32 rejects none
SIZES = (2, 3, 1000, 10**6, 2**31 + 11, 2**32 - 5, 2**32)


def pcg(seed):
    return np.random.Generator(np.random.PCG64(seed))


def assert_same_draws(seeds, calls, max_products=12, max_batch=40):
    """draw_products on the stream against a plain Generator of the same
    seed, at random numbers of products and mini-batch sizes."""
    for seed in seeds:
        sizes = np.random.default_rng([seed, 1])
        for n in SIZES:
            plain, stream = pcg(seed), _BlockPoissonStream(pcg(seed), n)
            for _ in range(calls):
                lam = int(sizes.integers(1, max_products))
                batch = int(sizes.integers(1, max_batch))
                want, got = draw_products(n, lam, batch, plain), draw_products(n, lam, batch, stream)
                for a, b in zip(got, want):
                    assert a.dtype == b.dtype and np.array_equal(a, b), (seed, n, lam, batch)


def test_draws_equal_the_generators():
    assert_same_draws(range(150), 20)


@pytest.mark.parametrize("chunk", [1, 2, 5])
def test_requests_straddle_chunks_and_halves_wait_across_refills(monkeypatch, chunk):
    # chunks of a few words: requests straddle them, Pois(1) counts refill
    # mid-count, and odd mini-batches leave a high half held across refills
    monkeypatch.setattr(samplers, "_WORD_CHUNK", chunk)
    held_at_refill = []
    real = _BlockPoissonStream._refill

    def recording(self):
        held_at_refill.append(self._held is not None)
        return real(self)

    monkeypatch.setattr(_BlockPoissonStream, "_refill", recording)
    assert_same_draws(range(20), 10, max_batch=8)
    assert any(held_at_refill) and len(held_at_refill) > 1000


def test_other_requests_raise():
    stream = _BlockPoissonStream(pcg(1), 1000)
    for draw in (lambda: stream.poisson(2.0), lambda: stream.integers(1, 1000, 5),
                 lambda: stream.integers(0, 999, 5), lambda: stream.integers(0, 1000, 0)):
        with pytest.raises(SamplerError):
            draw()


def test_serves_fresh_pcg64_for_two_to_two_to_the_32():
    assert all(_BlockPoissonStream.serves(pcg(1), n) for n in (2, 2**32))
    # numpy draws nothing for n = 1 and whole 64-bit words above 2^32
    assert not any(_BlockPoissonStream.serves(pcg(1), n) for n in (1, 2**32 + 1))
    buffered = pcg(1)
    buffered.integers(0, 1000)
    assert not _BlockPoissonStream.serves(buffered, 1000)
    for bits in (np.random.PCG64DXSM(1), np.random.Philox(1)):
        assert not _BlockPoissonStream.serves(np.random.Generator(bits), 1000)


@pytest.fixture
def bp_args(poisson_model, poisson_example, example_center, param_caches):
    def args(dependence, n_iter=40, seed=71):
        return (poisson_model, poisson_example, param_caches[1],
                BlockPoissonConfig(n_products=20, batch_size=5, bound=-20.0),
                ProposalConfig(step_scale=0.02), dependence, example_center, n_iter, seed)
    return args


@pytest.mark.parametrize("dependence", [DependenceConfig(),
                                        DependenceConfig(kind="bpm", n_blocks=4)],
                         ids=["independent", "bpm"])
def test_pmmh_draws_through_the_stream_only_where_it_serves(monkeypatch, bp_args, dependence):
    real_streams, real_propose = samplers._streams, samplers.propose_u
    seen = []

    def keeping(current, dep, rng):
        seen.append(type(rng))
        return real_propose(current, dep, rng)

    monkeypatch.setattr(samplers, "propose_u", keeping)
    pmmh_run(*bp_args(dependence))
    assert set(seen) == {_BlockPoissonStream}

    # a subsampling stream the raw words do not describe is drawn per call
    def philox_third(seed, count=3):
        streams = real_streams(seed, count)
        return streams[:2] + (np.random.Generator(np.random.Philox(seed)),)

    monkeypatch.setattr(samplers, "_streams", philox_third)
    seen.clear()
    pmmh_run(*bp_args(dependence))
    assert set(seen) == {np.random.Generator}


@pytest.mark.parametrize("dependence", [DependenceConfig(),
                                        DependenceConfig(kind="bpm", n_blocks=4)],
                         ids=["independent", "bpm"])
def test_iteration_clock_sees_every_proposal_and_estimate(monkeypatch, bp_args, dependence):
    # one propose_u call per iteration and one differences call per estimate
    # (the initial one and one per proposal), each through its module
    counts = {"propose_u": 0, "differences": 0}

    def counting(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    counting(samplers, "propose_u")
    counting(estimators, "differences")
    trace = pmmh_run(*bp_args(dependence, n_iter=57))
    assert counts == {"propose_u": 57, "differences": 58}
    assert trace.n_iter == 57
