"""Where the control variates are centred: a parameter-expanded cache of
any order anchored at the pilot mode is rebuilt at the full-data Newton
point, from its own totals, while that centre costs a 30-row order-2
difference estimate more than _CENTRE_VAR of log-likelihood variance.
Where the pilot centre costs less (`TestResolve.PLANNED` in test_cli.py,
5e-4), the cache stays there after one pass:
`test_laplace_shape_reads_the_cache_curvature` and
`test_pilot_mode_is_computed_once` pin that.  `expansion = exact` takes the
same steps from the pilot mode until one is below 1e-12 in max norm."""

import weakref

import numpy as np
import pytest

from submcmc import PoissonRegression, build_param_expanded, experiments, samplers
from submcmc.cli import main
from submcmc.control_variates import differences, newton_point
from submcmc.experiments import parse_config_file, plan_table, resolve, run_chain

TALL_THETA = "0.5,0.3,-0.2,0.25,-0.15,0.1"

# n = 1e5, d = 6: the pilot centre costs 0.40, one rebuild 1.8e-5
MOVED = dict(model="poisson", simulate_n="100000", simulate_theta=TALL_THETA,
             simulate_seed="7", sampler="pmmh", estimator="difference",
             sigma2_target="1.0", omega="laplace", iterations="400", burn_in="100",
             seed="1")
# the same steps, rebuilt until one is below 1e-12: 4 builds
EXACT = {**MOVED, "expansion": "exact"}
# first-order control variates, centred by the same order-2 test and steps
ORDER_1 = {**MOVED, "order": "1", "m": "50"}


@pytest.fixture
def passes(monkeypatch):
    """The full-data set-up passes made, one entry per taylor_sums call."""
    made = []
    real = PoissonRegression.taylor_sums

    def counting(self, theta, dataset, **kwargs):
        made.append(np.asarray(theta, dtype=float).copy())
        return real(self, theta, dataset, **kwargs)

    monkeypatch.setattr(PoissonRegression, "taylor_sums", counting)
    return made


def pilot_mode(plan):
    return experiments.select_expansion_point(
        plan.model, plan.dataset, seed=experiments.chain_seed(plan.seed,
                                                              experiments._TAG_EXPANSION))


def newton_step(model, cache):
    """(the Newton point from the cache's totals, the step to it in Laplace sds)."""
    c = cache.expansion_point
    H = cache.sum_hess - np.eye(c.size) / model.prior.sd**2
    step = np.linalg.solve(H, cache.sum_grad + model.grad_log_prior(c))
    return c - step, float(np.sqrt(step @ -H @ step))


def test_a_costly_centre_is_moved_to_the_newton_point_of_its_totals(passes):
    plan, resolved = resolve(MOVED)
    # the pilot build, then one rebuild at the Newton point
    assert len(passes) == 2
    assert resolved["newton_rebuilds"] == "1"
    mode = pilot_mode(plan)
    assert passes[0].tobytes() == mode.tobytes()
    first = build_param_expanded(plan.model, plan.dataset, mode)
    centre, sds = newton_step(plan.model, first)
    assert passes[1].tobytes() == centre.tobytes()
    assert plan.cache.expansion_point.tobytes() == centre.tobytes()
    # a pilot theta0 starts at the final centre, and both are echoed
    assert plan.theta0.tobytes() == centre.tobytes()
    assert resolved["theta0"] == resolved["expansion"] == experiments._fmt(centre)
    # the pilot mode sat 12.5 Laplace sds from the Newton point; the next
    # step from the new centre is 0.18 sd
    assert sds > 5.0
    assert newton_step(plan.model, plan.cache)[1] < 0.5


def rerun_from_echo(tmp_path, passes, settings):
    """Run `settings`, then rerun from its echo, which builds its expansion
    point as given, in one pass with no test and no rebuild, and writes the
    same trace, summary and echo bytes.  (The echo, the first run's passes.)"""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in settings.items()), encoding="utf-8")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
    first = len(passes)
    echo = tmp_path / "a" / "config_resolved.cfg"
    del passes[:]
    assert main(["run", "--config", str(echo), "--out", str(tmp_path / "b")]) == 0
    assert len(passes) == 1
    for name in ("trace.csv", "summary.csv", "config_resolved.cfg"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    return parse_config_file(echo), first


def test_the_rerun_from_the_echo_builds_the_same_cache_once(tmp_path, passes):
    echo, first = rerun_from_echo(tmp_path, passes, MOVED)
    assert first == 2
    assert echo["newton_rebuilds"] == "1"


def test_order_1_is_centred_like_order_2(passes):
    plan, resolved = resolve(ORDER_1)
    # the order-2 test and step of MOVED, and no pass at order 1: the
    # Laplace shape reads the last build's Hessian
    assert resolved["newton_rebuilds"] == "1"
    assert len(passes) == 2
    assert plan.cache.order == 1
    centre = passes[-1]
    assert plan.cache.expansion_point.tobytes() == centre.tobytes()
    assert plan.theta0.tobytes() == centre.tobytes()
    assert resolved["theta0"] == resolved["expansion"] == experiments._fmt(centre)


def test_the_rerun_from_an_order_1_echo_builds_once(tmp_path, passes):
    echo, first = rerun_from_echo(tmp_path, passes, ORDER_1)
    assert first == 2
    assert echo["newton_rebuilds"] == "1"


def test_an_order_1_chain_mixes_at_the_centre():
    """At the pilot centre this chain accepted 0.007 of its proposals after
    burn-in, with a realized Var(log L-hat) median of 153; here 0.19 and 0.17."""
    plan, _ = resolve(ORDER_1)
    trace = run_chain(plan, 0)
    assert np.mean(trace.accept[plan.burn_in:]) > 0.1


def test_laplace_shape_is_read_at_the_centre_not_at_theta0(passes):
    plan, resolved = resolve({**MOVED, "theta0": "0,0,0,0,0,0"})
    # no pass at theta0: the shape reads the cache's Hessian
    assert len(passes) == 1 + int(resolved["newton_rebuilds"])
    assert plan.theta0.tobytes() == np.zeros(6).tobytes()
    centre = plan.cache.expansion_point
    shape = experiments.laplace_covariance(plan.model, plan.dataset, centre)
    assert plan.proposal.shape.tobytes() == shape.tobytes()


def test_an_independence_proposal_is_centred_at_the_cache_not_at_theta0():
    """Centred at theta0 0.05 off the mode in theta_1, the chain once
    accepted 12 of 3000 proposals at n = 1e5 and stayed near theta0."""
    mode = resolve(MOVED)[0].theta0
    theta0 = mode + np.eye(6)[0] * 0.05
    plan, resolved = resolve({**MOVED, "proposal_kind": "independence",
                              "theta0": ",".join(map(repr, theta0.tolist()))})
    assert plan.theta0.tobytes() == theta0.tobytes()
    propose = samplers._Proposer(plan.proposal, 6)
    assert propose.center.tobytes() == plan.cache.expansion_point.tobytes()
    # the Laplace scale, not the random walk's 2.38 / sqrt(d)
    assert resolved["kappa"] == "1.0"
    trace = run_chain(plan, 0)
    assert np.mean(trace.accept[plan.burn_in:]) > 0.3


def test_an_independence_proposal_takes_the_laplace_shape_by_default():
    """With omega = identity, an N(mode, I) proposal hundreds of posterior
    sds wide, this chain accepts 0 of 400 proposals; with the Laplace
    shape, 0.86 after burn-in."""
    cfg = {k: v for k, v in MOVED.items() if k != "omega"}
    plan, resolved = resolve({**cfg, "proposal_kind": "independence"})
    assert resolved["omega"] == "laplace"
    laplace, _ = resolve({**MOVED, "proposal_kind": "independence"})
    assert plan.proposal.shape.tobytes() == laplace.proposal.shape.tobytes()
    trace = run_chain(plan, 0)
    assert np.mean(trace.accept[plan.burn_in:]) > 0.3
    # written out, identity still runs as written
    plan, resolved = resolve({**cfg, "proposal_kind": "independence", "omega": "identity"})
    assert resolved["omega"] == "identity" and plan.proposal.shape is None


def test_planned_variance_meets_the_variance_at_the_chains_draws():
    """At d = 6 the planner's Var(log L-hat) at the resolved m is within
    a factor of 10 of the variance at the chain's own draws.  At the pilot
    centre the planner measured 3.4e-5 and the chain met 0.54."""
    plan, _ = resolve(MOVED)
    m, n = plan.estimator.m, plan.dataset.n
    sigma2 = experiments._pilot_sigma2(plan.model, plan.dataset, plan.cache,
                                       plan.cache.expansion_point, plan.seed)
    planned = n * n * sigma2 / m
    trace = run_chain(plan, 0)
    every = np.arange(n)
    realized = n * n / m * np.mean([
        np.var(differences(plan.model, plan.cache, plan.dataset, theta, every))
        for theta in trace.draws[plan.burn_in::30]])
    assert 0.1 < planned / realized < 10.0


def test_rebuilds_stop_at_the_cap(monkeypatch, passes):
    monkeypatch.setattr(experiments, "_CENTRE_VAR", -1.0)
    plan, resolved = resolve(MOVED)
    assert len(passes) == experiments._CENTRE_BUILDS
    assert resolved["newton_rebuilds"] == str(experiments._CENTRE_BUILDS - 1)
    # the last build is the cache
    assert plan.cache.expansion_point.tobytes() == passes[-1].tobytes()


def test_the_old_cache_is_dropped_before_each_rebuild(monkeypatch):
    monkeypatch.setattr(experiments, "_CENTRE_VAR", -1.0)
    built = []
    real = experiments.build_param_expanded

    def tracking(*args, **kwargs):
        assert all(ref() is None for ref in built), "an earlier cache is still held"
        cache = real(*args, **kwargs)
        built.append(weakref.ref(cache))
        return cache

    monkeypatch.setattr(experiments, "build_param_expanded", tracking)
    plan, _ = resolve(MOVED)
    assert len(built) == experiments._CENTRE_BUILDS
    assert built[-1]() is plan.cache


@pytest.mark.parametrize("settings", [
    dict(cv="data", centroids="10"), dict(cv="exact"), dict(expansion=TALL_THETA)],
    ids=["data", "exact-cv", "given-point"])
def test_other_caches_are_not_recentred(passes, settings):
    cfg = {**MOVED, "simulate_n": "20000", "m": "50", "omega": "identity", **settings}
    del cfg["sigma2_target"]
    _, resolved = resolve(cfg)
    assert "newton_rebuilds" not in resolved
    assert len(passes) <= 1


def test_plan_measures_at_the_recentred_centre():
    plan, resolved = resolve(MOVED)
    rows = plan_table(MOVED, targets=(1.0,))
    sigma2 = experiments._pilot_sigma2(plan.model, plan.dataset, plan.cache,
                                       plan.cache.expansion_point, plan.seed)
    assert rows[0]["sigma2_d"] == sigma2
    assert str(rows[0]["m"]) == resolved["m"]


@pytest.fixture
def hess_rows(monkeypatch):
    """The rows each hess_theta call covers."""
    rows = []
    real = PoissonRegression.hess_theta

    def counting(self, theta, dataset, idx=None):
        rows.append(dataset.n if idx is None else np.asarray(idx).size)
        return real(self, theta, dataset, idx)

    monkeypatch.setattr(PoissonRegression, "hess_theta", counting)
    return rows


def test_the_exact_point_is_reached_from_the_pilot_mode_on_cache_totals(passes, hess_rows):
    plan, resolved = resolve(EXACT)
    # Newton steps on per-observation Hessians run over the pilot rows alone
    pilot_rows = int(np.ceil(10.0 * np.sqrt(plan.dataset.n)))
    assert hess_rows and max(hess_rows) <= pilot_rows
    # one full-data pass per build, the first at the pilot mode; the
    # proposal shape and the planning draws read the last one's Hessian
    assert len(passes) == 1 + int(resolved["newton_rebuilds"])
    assert passes[0].tobytes() == pilot_mode(plan).tobytes()
    assert plan.cache.expansion_point.tobytes() == passes[-1].tobytes()
    # the loop stopped at a step below 1e-12
    t, _ = newton_point(plan.model, plan.cache.expansion_point, plan.cache.sum_grad,
                        plan.cache.sum_hess)
    assert np.max(np.abs(t - plan.cache.expansion_point)) < 1e-12
    # a pilot theta0 starts at the final centre, and both are echoed
    assert plan.theta0.tobytes() == plan.cache.expansion_point.tobytes()
    assert resolved["theta0"] == resolved["expansion"] == experiments._fmt(plan.theta0)


@pytest.mark.parametrize("order", ["0", "1"])
def test_lower_orders_take_the_exact_build_with_no_further_pass(passes, order):
    plan, resolved = resolve({**EXACT, "order": order, "m": "50"})
    assert plan.cache.order == int(order)
    # the order-2 builds of the steps alone: the last is the cache, and the
    # Laplace shape reads its Hessian
    assert len(passes) == 1 + int(resolved["newton_rebuilds"])
    assert plan.cache.expansion_point.tobytes() == passes[-1].tobytes()
    assert plan.theta0.tobytes() == plan.cache.expansion_point.tobytes()
    assert resolved["expansion"] == experiments._fmt(plan.cache.expansion_point)


def test_the_rerun_from_an_exact_echo_builds_once(tmp_path, passes):
    echo, first = rerun_from_echo(tmp_path, passes, EXACT)
    assert first == 1 + int(echo["newton_rebuilds"])
