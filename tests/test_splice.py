"""A block refresh gathers only the rows it drew.

`propose_u` records on a proposal that refreshes one block of several the
slice of the current indices it replaced, and both chain loops splice the
rows of the new segment into the current rows instead of gathering the
proposal whole.  The spliced rows must equal the whole gather bit for bit
in every kernel that refreshes by blocks, for every kind of cache.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from submcmc import (
    BlockPoissonConfig,
    DependenceConfig,
    DifferenceConfig,
    ExactControlVariate,
    HmcConfig,
    PoissonRegression,
    ProposalConfig,
    build_param_expanded,
    hmc_ecs_run,
    pmmh_run,
    simulate_poisson,
)
from submcmc import samplers
from submcmc.control_variates import SubsampleRows, _GlmDifferences

KERNELS = ("difference", "block_poisson", "hmc_ecs")


def run_kernel(kernel, model, data, cache, center, blocks, per_block, seed, n_iter):
    """A chain of `kernel` whose subsample has `blocks` refresh blocks of
    about `per_block` draws (indices, or products of mini-batches of 3)."""
    dependence = DependenceConfig(kind="bpm", n_blocks=blocks)
    if kernel == "hmc_ecs":
        return hmc_ecs_run(model, data, cache, HmcConfig(step_size=0.01, n_steps=3),
                           blocks * per_block, center, n_iter, seed, dependence)
    est_cfg = (DifferenceConfig(m=blocks * per_block) if kernel == "difference"
               else BlockPoissonConfig(n_products=blocks * per_block, batch_size=3,
                                       bound=-float(blocks * per_block)))
    return pmmh_run(model, data, cache, est_cfg, ProposalConfig(step_scale=0.02),
                    dependence, center, n_iter, seed)


def recording_proposals(mp):
    proposals = []
    real = samplers.propose_u

    def recording(current, dependence, rng):
        proposals.append(real(current, dependence, rng))
        return proposals[-1]

    mp.setattr(samplers, "propose_u", recording)
    return proposals


@settings(max_examples=100, deadline=None)
@given(n=st.integers(10, 300), blocks=st.integers(1, 6), per_block=st.integers(1, 5),
       seed=st.integers(0, 2**32 - 1), kernel=st.sampled_from(KERNELS),
       exact=st.booleans())
def test_spliced_rows_equal_the_whole_gather(n, blocks, per_block, seed, kernel, exact):
    model = PoissonRegression()
    center = np.array([1.0, 0.75])
    data = simulate_poisson(n, center, seed=seed % 1000)
    cache = (ExactControlVariate(model, data) if exact
             else build_param_expanded(model, data, center, order=2))
    spliced = []
    real = SubsampleRows.splice

    def checked(rows, idx, lo, hi, end):
        out = real(rows, idx, lo, hi, end)
        want = rows.differ.gather(idx)
        assert out.idx is idx
        for name in ("y", "W", "terms"):
            got, ref = getattr(out, name), getattr(want, name)
            if exact:
                assert got is None and ref is None
            else:
                assert got.dtype == ref.dtype and got.shape == ref.shape
                assert got.tobytes() == ref.tobytes(), name
        spliced.append(out)
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SubsampleRows, "splice", checked)
        proposals = recording_proposals(mp)
        run_kernel(kernel, model, data, cache, center, blocks, per_block, seed % 97, 8)
    # one refresh block of several is recorded and spliced, every iteration;
    # a single block redraws everything and is gathered whole
    assert len(proposals) == 8
    assert all((p.replaced is not None) == (blocks > 1) for p in proposals)
    assert len(spliced) == (8 if blocks > 1 else 0)


@pytest.mark.parametrize("kernel", KERNELS)
def test_bpm_chain_gathers_only_the_rows_its_refreshes_drew(
        kernel, poisson_model, poisson_example, example_center, param_caches):
    gathered = []
    real = _GlmDifferences.gather

    def counting(differ, idx):
        gathered.append(int(np.size(idx)))
        return real(differ, idx)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_GlmDifferences, "gather", counting)
        proposals = recording_proposals(mp)
        trace = run_kernel(kernel, poisson_model, poisson_example, param_caches[2],
                           example_center, 5, 4, 17, 20)
    assert 0 < trace.accept.sum() + trace.u_accept.sum()
    # the first gather is the initial subsample, whole; after it, each
    # iteration gathers its refreshed segment and nothing else
    drawn = [end - lo for lo, _, end in (p.replaced for p in proposals)]
    assert len(drawn) == 20 and sum(drawn) < 20 * gathered[0]
    assert gathered[1:] == drawn
