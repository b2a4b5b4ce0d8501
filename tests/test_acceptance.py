"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`).

Shared expensive runs (the full-data reference chain on the running
Poisson example) are module-scoped fixtures.
"""

import itertools
import math
import time

import numpy as np
import pytest

from submcmc import (
    BlockPoissonConfig,
    Dataset,
    DependenceConfig,
    DifferenceConfig,
    HmcConfig,
    NormalMeanModel,
    PlanningInputs,
    ProposalConfig,
    SubsampleState,
    block_poisson_evaluate,
    build_param_expanded,
    difference_estimate,
    differences,
    draw_bpm,
    estimate_sigma2_pilot,
    hmc_ecs_run,
    hmc_run,
    iact,
    leapfrog,
    mh_run,
    plan_subsample_size,
    pmmh_run,
    propose_u,
    signed_expectation,
    srs_wr_estimate,
    subsampled_potential,
)
from submcmc.experiments import (
    chain_seed,
    figure1_table,
    figure5_study,
    laplace_covariance,
    laplace_typical_points,
)


def report(criterion: str, ok: bool, detail: str):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


def moment_summary(x: np.ndarray) -> dict:
    """Mean/sd with autocorrelation-aware Monte Carlo standard errors.

    IACT is floored at 1 so antithetic chains keep a usable error band.
    """
    tau = max(iact(x).value, 1.0)
    mean = float(x.mean())
    sd = float(x.std(ddof=1))
    mcse_mean = sd * math.sqrt(tau / x.size)
    squares = (x - mean) ** 2
    tau_s = max(iact(squares).value, 1.0) if squares.std() > 0 else 1.0
    mcse_var = squares.std(ddof=1) * math.sqrt(tau_s / squares.size)
    return {"mean": mean, "sd": sd, "mcse_mean": mcse_mean,
            "mcse_sd": mcse_var / (2.0 * sd) if sd > 0 else 0.0}


@pytest.fixture(scope="module")
def laplace_shape(poisson_model, poisson_example, example_center):
    return laplace_covariance(poisson_model, poisson_example, example_center)


@pytest.fixture(scope="module")
def mh_reference(poisson_model, poisson_example, example_center, laplace_shape):
    """Full-data random-walk chain on the running example, the yardstick for
    every subsampling sampler."""
    proposal = ProposalConfig(shape=laplace_shape)
    trace = mh_run(poisson_model, poisson_example, proposal, example_center,
                   60_000, seed=101)
    burn = 5000
    return {
        "trace": trace,
        "burn": burn,
        "proposal": proposal,
        "coords": [moment_summary(trace.draws[burn:, j]) for j in range(2)],
    }


# ---------------------------------------------------------------------------


def test_criterion_1_sampling_fraction_curves_exact():
    t0 = time.perf_counter()
    rows = figure1_table(sigma2_values=(0.01, 0.1), target=3.3)
    worst = 0.0
    for row in rows:
        expected = row["n"] * row["sigma2_pop"] / (row["n"] * row["sigma2_pop"] + 3.3)
        worst = max(worst, abs(row["fraction"] - expected))
    elapsed = time.perf_counter() - t0
    report("1 (closed-form sampling fractions)",
           worst <= 1e-12 and elapsed < 1.0,
           f"max abs deviation {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_exhaustive_estimator_unbiasedness(poisson_model, poisson_example,
                                                       example_center):
    t0 = time.perf_counter()
    small = Dataset(y=poisson_example.y[:6], X=poisson_example.X[:6])
    theta = example_center + np.array([0.2, -0.15])
    exact_total = poisson_model.loglik_sum(theta, small)

    # plain expansion estimator, all 6^3 index triples
    values = [srs_wr_estimate(poisson_model, small, theta, list(t)).value
              for t in itertools.product(range(6), repeat=3)]
    err_srs = abs(np.mean(values) / exact_total - 1.0)

    # difference estimator with first-order control variates
    cache = build_param_expanded(poisson_model, small, example_center, order=1)
    values = [difference_estimate(poisson_model, cache, small, theta,
                                  np.array(t)).value
              for t in itertools.product(range(6), repeat=3)]
    err_de = abs(np.mean(values) / exact_total - 1.0)

    # product estimator: per-batch exhaustive mean through the real
    # evaluation path, Poisson counts truncated at 20 (mass < 1e-15 lost)
    tiny = Dataset(y=poisson_example.y[:5], X=poisson_example.X[:5])
    cache5 = build_param_expanded(poisson_model, tiny, example_center, order=1)
    d_total = float(np.sum(differences(poisson_model, cache5, tiny, theta,
                                       np.arange(5))))
    cfg = BlockPoissonConfig(n_products=2, batch_size=2, bound=d_total - 2.0)

    def factor(batch):
        state = SubsampleState(n=5, indices=np.asarray(batch), bounds=np.array([0, 2]),
                               batch_size=2)
        log_abs, sign = block_poisson_evaluate(poisson_model, cache5, tiny, theta,
                                               cfg, state)
        return sign * math.exp(log_abs - cache5.sum_values(theta)
                               - (cfg.bound + cfg.n_products))

    mu = np.mean([factor(b) for b in itertools.product(range(5), repeat=2)])
    pgf = math.fsum(math.exp(-1.0) / math.factorial(x) * mu**x for x in range(21))
    bp_mean = (math.exp((cfg.bound + cfg.n_products) / cfg.n_products) * pgf) ** 2
    err_bp = abs(bp_mean / math.exp(d_total) - 1.0)

    elapsed = time.perf_counter() - t0
    report("2 (exhaustive unbiasedness)",
           max(err_srs, err_de, err_bp) <= 1e-10 and elapsed < 10.0,
           f"rel errors srs={err_srs:.2e} de={err_de:.2e} bp={err_bp:.2e}, "
           f"{elapsed:.2f}s")


def test_criterion_3_conjugate_equivalence():
    rng = np.random.default_rng(33)
    y = rng.normal(0.25, 1.0, size=100)
    ds = Dataset(y=y, X=np.empty((100, 0)))
    model = NormalMeanModel()
    exact_mean, exact_var = model.exact_posterior(ds)

    outcomes = []
    t0 = time.perf_counter()
    trace = mh_run(model, ds, ProposalConfig(step_scale=0.25), np.array([0.0]),
                   100_000, seed=34)
    t_mh = time.perf_counter() - t0
    s = moment_summary(trace.draws[5000:, 0])
    outcomes.append(("mh", s, t_mh))

    t0 = time.perf_counter()
    trace = hmc_run(model, ds, HmcConfig(step_size=0.05, n_steps=6), np.array([0.0]),
                    100_000, seed=35)
    t_hmc = time.perf_counter() - t0
    s = moment_summary(trace.draws[5000:, 0])
    outcomes.append(("hmc", s, t_hmc))

    ok = True
    details = []
    for name, s, elapsed in outcomes:
        mean_ok = abs(s["mean"] - exact_mean) < 4 * s["mcse_mean"]
        var_ok = abs(s["sd"] ** 2 - exact_var) < 4 * (2 * s["sd"] * s["mcse_sd"])
        ok &= mean_ok and var_ok and elapsed < 30.0
        details.append(f"{name}: |dmean|={abs(s['mean'] - exact_mean):.2e} "
                       f"(4mcse={4 * s['mcse_mean']:.2e}), {elapsed:.1f}s")
    report("3 (conjugate equivalence)", ok, "; ".join(details))


@pytest.fixture(scope="module")
def pmmh_target_one(poisson_model, poisson_example, example_center, laplace_shape,
                    mh_reference):
    """Pseudo-marginal run tuned to unit estimator variance."""
    cache = build_param_expanded(poisson_model, poisson_example, example_center,
                                 order=0)
    thetas = laplace_typical_points(poisson_model, poisson_example, example_center,
                                    count=5, seed=chain_seed(40, 1))
    rng = np.random.default_rng(41)
    sigma2 = estimate_sigma2_pilot(poisson_model, cache, poisson_example, thetas,
                                   500, rng)
    m, _ = plan_subsample_size(PlanningInputs(poisson_example.n, sigma2, 1.0))
    trace = pmmh_run(poisson_model, poisson_example, cache, DifferenceConfig(m),
                     mh_reference["proposal"], DependenceConfig(), example_center,
                     40_000, seed=42)
    return {"trace": trace, "m": m, "burn": 4000, "cache": cache}


def test_criterion_4_pmmh_matches_full_data_chain(mh_reference, pmmh_target_one):
    t0 = time.perf_counter()
    burn = pmmh_target_one["burn"]
    trace = pmmh_target_one["trace"]
    ok = True
    details = [f"m={pmmh_target_one['m']}"]
    for j, label in enumerate(("theta0", "theta1")):
        ref = mh_reference["coords"][j]
        s = moment_summary(trace.draws[burn:, j])
        band_mean = 4 * (s["mcse_mean"] + ref["mcse_mean"])
        band_sd = 4 * (s["mcse_sd"] + ref["mcse_sd"])
        mean_ok = abs(s["mean"] - ref["mean"]) < band_mean
        sd_ok = abs(s["sd"] - ref["sd"]) < band_sd
        ok &= mean_ok and sd_ok
        details.append(f"{label}: |dmean|={abs(s['mean'] - ref['mean']):.2e}"
                       f"<{band_mean:.2e}, |dsd|={abs(s['sd'] - ref['sd']):.2e}"
                       f"<{band_sd:.2e}")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 300.0
    report("4 (pseudo-marginal vs full data)", ok, "; ".join(details))


def test_criterion_5_variance_iact_ladder(poisson_example):
    ladder = (0.0, 1.0, 10.0, 50.0)
    results = figure5_study(sigma2_targets=ladder, n_iter=50_000,
                            seed=50, cv_order=0, dataset=poisson_example)
    taus, ses = {}, {}
    for res in results:
        est = iact(res["trace"].draws[:, 1], burn_in=2000)
        n_eff = res["trace"].n_iter - 2000
        taus[res["target"]] = est.value
        # asymptotic standard error of the truncated-sum estimate
        ses[res["target"]] = est.value * math.sqrt(
            2.0 * (2.0 * est.lags_used + 1.0) / n_eff)
    # non-decreasing up to the estimation bands, strict 5x growth from 1 to 50
    monotone = all(taus[hi] + ses[hi] >= taus[lo] - ses[lo]
                   for lo, hi in zip(ladder, ladder[1:]))
    strict = taus[50.0] >= 5.0 * taus[1.0]
    ms = {res["target"]: res["m"] for res in results}
    report("5 (variance-IACT ladder)", monotone and strict,
           f"IACT at variance 0/1/10/50 = {taus[0.0]:.1f}/{taus[1.0]:.1f}/"
           f"{taus[10.0]:.1f}/{taus[50.0]:.1f}, "
           f"m = {ms[0.0]}/{ms[1.0]}/{ms[10.0]}/{ms[50.0]}")


def test_criterion_6_second_order_scaling(poisson_model, poisson_example,
                                          example_center, param_caches):
    direction = np.array([0.6, 0.8])
    radii = np.array([0.2, 0.1, 0.05, 0.025])
    idx = np.arange(poisson_example.n)
    worst = [float(np.max(np.abs(differences(
        poisson_model, param_caches[2], poisson_example,
        example_center + r * direction, idx)))) for r in radii]
    slope = float(np.polyfit(np.log(radii), np.log(worst), 1)[0])
    report("6 (worst-difference scaling)", 2.6 <= slope <= 3.4,
           f"log-log slope {slope:.3f} over radii {radii.tolist()}")


def test_criterion_7_block_refresh_correlation(poisson_model, poisson_example,
                                               example_center, param_caches):
    theta = example_center + np.array([0.04, 0.03])
    cache = param_caches[0]
    ok = True
    details = []
    for G in (10, 100):
        rng = np.random.default_rng(70 + G)
        state = draw_bpm(poisson_example.n, 1000, G, rng)
        dep = DependenceConfig(kind="bpm", n_blocks=G)
        rounds = 25_000
        series = np.empty(rounds)
        for r in range(rounds):
            state = propose_u(state, dep, rng)
            series[r] = difference_estimate(poisson_model, cache, poisson_example,
                                            theta, state).value
        x = series - series.mean()
        lag1 = float(x[:-1] @ x[1:] / (x @ x))
        err = abs(lag1 - (1.0 - 1.0 / G))
        ok &= err <= 0.05
        details.append(f"G={G}: lag-1 {lag1:.4f} vs {1.0 - 1.0 / G:.4f}")
    report("7 (block-refresh correlation)", ok, "; ".join(details))


def test_criterion_8_signed_sampler_consistency(poisson_model, poisson_example,
                                                example_center, param_caches,
                                                mh_reference):
    cache = param_caches[2]
    cfg = BlockPoissonConfig(n_products=5, batch_size=30, bound=-5.0)
    dep = DependenceConfig(kind="bpm", n_blocks=5)
    trace = pmmh_run(poisson_model, poisson_example, cache, cfg,
                     mh_reference["proposal"], dep, example_center, 40_000, seed=80)
    burn = 4000
    tau = float(np.mean(trace.sign[burn:] > 0))
    est = signed_expectation(trace, lambda t: t[1], burn_in=burn)
    ref = mh_reference["coords"][1]
    s = moment_summary(trace.draws[burn:, 1])
    band = 4 * (s["mcse_mean"] + ref["mcse_mean"])
    ok = (abs(est - ref["mean"]) < band) and tau > 0.9
    report("8 (sign-corrected expectation)", ok,
           f"E[theta1]={est:.5f} vs {ref['mean']:.5f} (band {band:.2e}), "
           f"sign rate tau={tau:.4f}")


def test_criterion_9_energy_conserving_subsampling(poisson_model, poisson_example,
                                                   example_center, param_caches,
                                                   laplace_shape):
    cache = param_caches[2]
    # gradient of the estimated potential vs fourth-order differences
    rng = np.random.default_rng(90)
    indices = rng.integers(0, poisson_example.n, size=100)
    theta = example_center + np.array([0.3, -0.25])

    def value(t):
        v, _, _ = subsampled_potential(poisson_model, cache, poisson_example, t,
                                       indices)
        return v

    _, grad, _ = subsampled_potential(poisson_model, cache, poisson_example, theta,
                                      indices)
    h = 1e-4
    fd = np.empty(2)
    for j in range(2):
        e = np.zeros(2)
        e[j] = h
        fd[j] = (8 * (value(theta + e) - value(theta - e))
                 - (value(theta + 2 * e) - value(theta - 2 * e))) / (12 * h)
    grad_err = float(np.max(np.abs(grad - fd) / np.abs(grad)))

    # leapfrog reversibility on the same estimated potential
    def grad_potential(t):
        _, g, _ = subsampled_potential(poisson_model, cache, poisson_example, t,
                                       indices)
        return g

    mom = np.array([0.01, -0.02])
    t1, m1 = leapfrog(grad_potential, example_center, mom, 0.4, 15, laplace_shape)
    t2, m2 = leapfrog(grad_potential, t1, -m1, 0.4, 15, laplace_shape)
    rev_err = max(float(np.max(np.abs(t2 - example_center))),
                  float(np.max(np.abs(m2 + mom))))

    # acceptance comparison at matched step size and step count
    mass = np.linalg.inv(laplace_shape)
    hmc_cfg = HmcConfig(step_size=0.8, n_steps=10, mass=mass)
    full = hmc_run(poisson_model, poisson_example, hmc_cfg, example_center, 4000,
                   seed=91)
    ecs = hmc_ecs_run(poisson_model, poisson_example, cache, hmc_cfg, 100,
                      example_center, 4000, seed=92)
    gap = abs(float(full.accept.mean()) - float(ecs.accept.mean()))

    ok = grad_err <= 1e-6 and rev_err <= 1e-10 and gap <= 0.10
    report("9 (energy conserving subsampling)", ok,
           f"grad rel err {grad_err:.2e}, reversibility {rev_err:.2e}, "
           f"acceptance {full.accept.mean():.3f} vs {ecs.accept.mean():.3f}")


def test_criterion_10_perturbation_decays_with_subsample_size(
        poisson_model, poisson_example, example_center, param_caches, mh_reference):
    cache = param_caches[1]
    ref = mh_reference["coords"][1]
    errors, bands = [], []
    for k, m in enumerate((30, 100, 300)):
        trace = pmmh_run(poisson_model, poisson_example, cache, DifferenceConfig(m),
                         mh_reference["proposal"], DependenceConfig(),
                         example_center, 30_000, seed=100 + k)
        s = moment_summary(trace.draws[3000:, 1])
        errors.append(abs(s["mean"] - ref["mean"]))
        bands.append(4 * (s["mcse_mean"] + ref["mcse_mean"]))
    ok = all(errors[k + 1] <= errors[k] + bands[k] + bands[k + 1]
             for k in range(len(errors) - 1))
    report("10 (perturbation decay in m)", ok,
           "errors " + ", ".join(f"m={m}: {e:.2e}" for m, e in
                                 zip((30, 100, 300), errors)))
