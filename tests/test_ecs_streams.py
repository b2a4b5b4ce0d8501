"""The HMC-ECS stream contract: one child stream per kind of draw.

`hmc_ecs_run` spawns five child streams from its seed: momenta, acceptance
uniforms, subsample indices (or cpm's Gaussian codes), the initial
subsample and the u-move's log-uniforms.  Under independent and block-wise
refresh the index stream serves bounded integers alone, so it is drawn in
chunks and yields, in order, what one standalone stream gives whatever the
u-moves accept; under cpm it is drawn once per call.  The benchmark times an
iteration from its one `samplers.propose_u` call.
"""

import numpy as np
import pytest

from submcmc import DependenceConfig, HmcConfig, hmc_ecs_run
from submcmc import samplers

SEED, M, N_ITER = 61, 40, 300
BPM4 = DependenceConfig(kind="bpm", n_blocks=4)
DEPENDENCE = {"independent": DependenceConfig(), "bpm": BPM4,
              "cpm": DependenceConfig(kind="cpm", ar_coef=0.9)}


class Recording:
    """A Generator that records the name and arguments of each draw."""

    def __init__(self, rng):
        self.rng, self.calls = rng, []

    def __getattr__(self, name):
        draw = getattr(self.rng, name)

        def call(*args, **kwargs):
            self.calls.append((name, args, kwargs))
            return draw(*args, **kwargs)
        return call


def child(k):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(SEED).spawn(5)[k]))


@pytest.fixture
def recorded(monkeypatch):
    """Run hmc_ecs with every child stream recorded and every `propose_u`
    call's proposal kept; returns (trace, streams, proposals)."""
    real_streams, real_propose = samplers._streams, samplers.propose_u

    def run(model, data, cache, theta0, dependence, stub_u=None):
        streams, proposals = [], []

        def recording_streams(seed, count=3):
            streams[:] = [Recording(g) for g in real_streams(seed, count)]
            if stub_u is not None:
                streams[4] = stub_u
            return tuple(streams)

        def keeping(current, dep, rng):
            proposals.append(real_propose(current, dep, rng))
            return proposals[-1]

        monkeypatch.setattr(samplers, "_streams", recording_streams)
        monkeypatch.setattr(samplers, "propose_u", keeping)
        trace = hmc_ecs_run(model, data, cache, HmcConfig(step_size=0.005, n_steps=3), M,
                            theta0, N_ITER, SEED, dependence=dependence)
        return trace, streams, proposals
    return run


def drawn_indices(proposals):
    """The indices each proposal drew, in order: all of them under
    independent refresh, the replaced slice under block-wise refresh."""
    return np.concatenate([p.indices if p.replaced is None
                           else p.indices[p.replaced[0]:p.replaced[2]] for p in proposals])


@pytest.mark.parametrize("dep", ["independent", "bpm"])
def test_indices_are_one_chunked_stream_whatever_the_u_moves_accept(
        monkeypatch, recorded, poisson_model, poisson_example, example_center,
        param_caches, dep):
    # chunks of 480 indices, so the chain crosses many refills
    monkeypatch.setattr(samplers, "_INDEX_CHUNK", 512)
    runs = [recorded(poisson_model, poisson_example, param_caches[order], example_center,
                     DEPENDENCE[dep]) for order in (0, 2)]
    # the two caches accept different u-moves
    assert not np.array_equal(runs[0][0].u_accept, runs[1][0].u_accept)
    for trace, streams, proposals in runs:
        assert len(proposals) == N_ITER
        got = drawn_indices(proposals)
        assert np.array_equal(got, child(2).integers(0, poisson_example.n, size=got.size))
        calls = streams[2].calls
        assert {name for name, _, _ in calls} == {"integers"}
        assert len(calls) == -(-got.size // 480)
        # the u-moves read their own stream, a chunk at a time
        assert streams[4].calls == [("random", (samplers._CHUNK,), {})]


class Uniforms:
    """A stream whose uniforms are all `value`."""

    def __init__(self, value):
        self.value = value

    def random(self, size):
        return np.full(size, self.value)


@pytest.mark.parametrize("dep", ["independent", "bpm", "cpm"])
def test_u_move_decisions_read_their_own_stream(recorded, poisson_model, poisson_example,
                                                example_center, param_caches, dep):
    args = (poisson_model, poisson_example, param_caches[0], example_center, DEPENDENCE[dep])
    trace, _, proposals = recorded(*args)
    assert 0 < trace.u_accept.sum() < N_ITER
    # log 1e-300 is below every log-likelihood ratio here: every u-move accepts
    low, _, low_proposals = recorded(*args, stub_u=Uniforms(1e-300))
    assert low.u_accept.all()
    if dep != "cpm":
        # and the subsampling stream drew the same indices
        assert np.array_equal(drawn_indices(low_proposals), drawn_indices(proposals))


def test_cpm_draws_its_codes_per_call(recorded, poisson_model, poisson_example,
                                      example_center, param_caches):
    _, streams, proposals = recorded(poisson_model, poisson_example, param_caches[2],
                                     example_center, DEPENDENCE["cpm"])
    assert len(proposals) == N_ITER
    assert streams[2].calls == [("standard_normal", (M,), {})] * N_ITER
    assert streams[4].calls == [("random", (samplers._CHUNK,), {})]
    # the initial subsample's codes come from their own stream
    assert [name for name, _, _ in streams[3].calls] == ["standard_normal"]
