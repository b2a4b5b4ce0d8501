import json
import os
import subprocess

import numpy as np
import pytest

from submcmc import (ConfigError, DomainError, PoissonRegression, experiments, load_dataset,
                     models)
from submcmc.cli import main
from submcmc.experiments import (
    example_dataset,
    figure1_table,
    figure234_tables,
    figure5_study,
    laplace_covariance,
    parse_config_file,
    plan_table,
    read_trace_csv,
    resolve,
    run_chain,
    write_trace_csv,
)


def write_config(path, **kv):
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in kv.items():
            fh.write(f"{key} = {value}\n")
    return str(path)


BASE_RUN = dict(model="poisson", simulate_n="60", simulate_theta="0.5,0.5",
                simulate_seed="3", sampler="mh", iterations="120", seed="9",
                theta0="0.4,0.4")


ECHO_BASE = dict(model="poisson", simulate_n="200", simulate_theta="0.6,0.4",
                 iterations="150", seed="4")

# one config per way `resolve` can echo a choice: the echo of each must
# re-run to the same bytes, every per-chain file included
ECHO_MATRIX = {
    "mh-laplace": dict(sampler="mh", omega="laplace"),
    "mh-independence": dict(sampler="mh", proposal_kind="independence", omega="laplace",
                            simulate_law="uniform", kappa="1.2"),
    "hmc": dict(sampler="hmc", epsilon="0.05", leapfrog_steps="4"),
    "pmmh-given-m": dict(simulate_n="80", sampler="pmmh", estimator="difference", m="8",
                         cv="param", order="2"),
    "pmmh-planned-m": dict(sampler="pmmh", estimator="difference", sigma2_target="1.0",
                           order="1"),
    "pmmh-cpm-exact": dict(sampler="pmmh", estimator="difference", m="20",
                           dependence="cpm", phi="0.9", expansion="exact"),
    "pmmh-bpm-exact-cv": dict(sampler="pmmh", estimator="difference", m="20",
                              dependence="bpm", blocks="4", cv="exact"),
    "pmmh-data-cv": dict(sampler="pmmh", estimator="difference", m="20", cv="data",
                         centroids="20"),
    "bp-default-a": dict(sampler="pmmh", estimator="block_poisson", m_b="10",
                         **{"lambda": "4"}),
    "bp-given-a-bpm": dict(sampler="pmmh", estimator="block_poisson", m_b="10",
                           a="-6.5", dependence="bpm", blocks="2", **{"lambda": "4"}),
    "ecs-bpm": dict(sampler="hmc_ecs", epsilon="0.05", leapfrog_steps="4", m="30",
                    dependence="bpm", blocks="3"),
    "ecs-exact-vg0": dict(sampler="hmc_ecs", epsilon="0.05", leapfrog_steps="4", m="30",
                          cv="exact", variance_grad="0"),
    "mh-chains": dict(sampler="mh", chains="2", iterations="100"),
}


# the sampler requirement matrix: one config per field a single error names;
# None removes a key
_PMMH = dict(sampler="pmmh", estimator="difference", m="10")
_BP = dict(sampler="pmmh", estimator="block_poisson", m_b="5", **{"lambda": "4"})
_HMC = dict(sampler="hmc", epsilon="0.05", leapfrog_steps="4")
_ECS = dict(_HMC, sampler="hmc_ecs", m="10")
REQUIREMENTS = {
    "pmmh-no-estimator": ("estimator", dict(_PMMH, estimator=None)),
    "pmmh-no-m": ("m", dict(_PMMH, m=None)),
    "bp-no-lambda": ("lambda", dict(_BP, **{"lambda": None})),
    "bp-no-m_b": ("m_b", dict(_BP, m_b=None)),
    "pmmh-cpm-no-phi": ("phi", dict(_PMMH, dependence="cpm")),
    "pmmh-bpm-no-blocks": ("blocks", dict(_PMMH, dependence="bpm")),
    "hmc-no-epsilon": ("epsilon", dict(_HMC, epsilon=None)),
    "hmc-no-leapfrog_steps": ("leapfrog_steps", dict(_HMC, leapfrog_steps=None)),
    "ecs-no-epsilon": ("epsilon", dict(_ECS, epsilon=None)),
    "ecs-no-leapfrog_steps": ("leapfrog_steps", dict(_ECS, leapfrog_steps=None)),
    "ecs-cpm-no-phi": ("phi", dict(_ECS, dependence="cpm")),
    "ecs-bpm-no-blocks": ("blocks", dict(_ECS, dependence="bpm")),
    "ecs-data-cv": ("cv", dict(_ECS, cv="data")),
    "bp-cpm": ("dependence", dict(_BP, dependence="cpm", phi="0.5")),
    "pmmh-blocks-over-m": ("blocks", dict(_PMMH, dependence="bpm", blocks="11")),
    "ecs-blocks-over-m": ("blocks", dict(_ECS, dependence="bpm", blocks="11")),
    "bp-blocks-not-dividing-lambda": ("blocks", dict(_BP, dependence="bpm", blocks="3")),
    "pmmh-m-0": ("m", dict(_PMMH, m="0")),
    "ecs-m-0": ("m", dict(_ECS, m="0")),
    "bp-lambda-0": ("lambda", dict(_BP, **{"lambda": "0"})),
    "bp-m_b-0": ("m_b", dict(_BP, m_b="0")),
    "pmmh-target-0": ("sigma2_target", dict(_PMMH, m=None, sigma2_target="0")),
    "ecs-target-0": ("sigma2_target", dict(_ECS, m=None, sigma2_target="0")),
    "pmmh-order-3": ("order", dict(_PMMH, order="3")),
    "ecs-order-3": ("order", dict(_ECS, order="3")),
}


def r_squared(ell, q):
    resid = np.sum((ell - q) ** 2)
    total = np.sum((ell - ell.mean()) ** 2)
    return 1.0 - resid / total


def trace_rows(path):
    """The lines of a CSV below its '#' comment header."""
    with open(path, encoding="utf-8") as fh:
        return [line for line in fh if not line.startswith("#")]


def assert_chains_run_alone(cfg, out, tmp_path):
    """Each chain's trace rows in `out` are those of the chain run in-process."""
    plan, _ = resolve(parse_config_file(cfg))
    for k in range(plan.chains):
        alone = tmp_path / f"alone{k}.csv"
        write_trace_csv(run_chain(plan, k), alone)
        assert trace_rows(out / f"trace_chain{k}.csv") == trace_rows(alone), k


class TestRunCommand:
    def test_smoke_run_produces_parseable_artifacts(self, tmp_path):
        cfg = write_config(tmp_path / "run.cfg", **BASE_RUN)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        for name in ("trace.csv", "summary.csv", "config_resolved.cfg", "manifest.json"):
            assert (out / name).exists()
        table = np.genfromtxt(out / "summary.csv", delimiter=",", names=True,
                              skip_header=1)
        assert table["mean"].shape == (2,)
        trace = read_trace_csv(out / "trace.csv")
        assert trace.draws.shape == (120, 2)
        header = [line for line in (out / "trace.csv").read_text().splitlines()
                  if not line.startswith("#")][0]
        assert header == "iter,theta_1,theta_2,accept,loglik_est,sign"

    @pytest.mark.parametrize("sampler, counter", [("mh", "invalid_proposals"),
                                                  ("hmc", "divergences")])
    @pytest.mark.parametrize("chains", [1, 2])
    def test_manifest_records_each_chains_meta(self, tmp_path, sampler, counter, chains):
        hmc = {"epsilon": "0.05", "leapfrog_steps": "3"} if sampler == "hmc" else {}
        cfg = write_config(tmp_path / "run.cfg", **{**BASE_RUN, **hmc, "sampler": sampler,
                                                    "chains": str(chains)})
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["chains"]) == chains
        for meta in manifest["chains"]:
            assert set(meta) == {"wall_time", counter, "cost_proxy"}
            assert 0.0 < meta["wall_time"] < manifest["wall_time_seconds"]
            assert meta[counter] == 0 and meta["cost_proxy"] > 0

    def test_manifest_hash_is_the_packages_not_the_working_directorys(self, tmp_path,
                                                                       monkeypatch):
        # run from inside another git repository, with a commit of its own
        repo = tmp_path / "elsewhere"
        repo.mkdir()
        git = ["git", "-c", "user.name=t", "-c", "user.email=t@example.com"]
        for args in (["init", "-q"], ["commit", "-q", "--allow-empty", "-m", "x"]):
            subprocess.run(git + args, cwd=repo, check=True, capture_output=True)
        elsewhere = subprocess.run(["git", "rev-parse", "HEAD"], cwd=repo, check=True,
                                   capture_output=True, text=True).stdout.strip()
        package = os.path.dirname(os.path.abspath(experiments.__file__))
        own = subprocess.run(["git", "rev-parse", "HEAD"], cwd=package,
                             capture_output=True, text=True)
        monkeypatch.chdir(repo)
        experiments.write_manifest(tmp_path, {}, 0.0)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["git_hash"] != elsewhere
        assert manifest["git_hash"] == (own.stdout.strip() if own.returncode == 0
                                        else "unknown")

    def test_identical_runs_are_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path / "run.cfg", **BASE_RUN)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", cfg, "--out", str(out1)])
        main(["run", "--config", cfg, "--out", str(out2)])
        assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()
        assert (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()

    @pytest.mark.parametrize("settings", ECHO_MATRIX.values(), ids=ECHO_MATRIX.keys())
    def test_rerun_from_echoed_config_reproduces_outputs(self, tmp_path, settings):
        cfg = write_config(tmp_path / "run.cfg", **{**ECHO_BASE, **settings})
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", cfg, "--out", str(out1)]) == 0
        echo = out1 / "config_resolved.cfg"
        assert main(["run", "--config", str(echo), "--out", str(out2)]) == 0
        written = sorted(p.name for p in out1.iterdir() if p.name != "manifest.json")
        assert written == sorted(p.name for p in out2.iterdir() if p.name != "manifest.json")
        assert len(written) == 1 + 2 * int(settings.get("chains", "1"))
        for name in written:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_missing_cpm_coefficient_names_the_field(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.cfg", **BASE_RUN, sampler2="ignored")
        code = main(["run", "--config", cfg, "--set", "sampler=pmmh",
                     "--set", "estimator=difference", "--set", "m=10",
                     "--set", "dependence=cpm", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "phi" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "plan"])
    def test_unknown_key_exits_two_naming_it(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path / "run.cfg", **BASE_RUN)
        code = main([command, "--config", cfg, "--set", "kapa=0.1",
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "kapa: unknown config key" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_another_samplers_key_still_runs(self, tmp_path):
        # one config serves every sampler, so `epsilon` is no misspelling in mh
        cfg = write_config(tmp_path / "run.cfg", **BASE_RUN, epsilon="0.05")
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("settings", ECHO_MATRIX.values(), ids=ECHO_MATRIX.keys())
    def test_every_echoed_key_is_a_config_key(self, settings):
        _, resolved = resolve({**ECHO_BASE, **settings})
        assert set(resolved) <= experiments.CONFIG_KEYS

    def test_missing_required_fields(self, tmp_path, capsys):
        code = main(["run", "--config",
                     write_config(tmp_path / "a.cfg", model="poisson"),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "data" in err or "simulate" in err

    def test_unknown_sampler_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.cfg", **{**BASE_RUN, "sampler": "gibbs"})
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "sampler" in capsys.readouterr().err

    def test_burn_in_must_precede_iterations(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.cfg", **{**BASE_RUN, "burn_in": "120"})
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "burn_in" in capsys.readouterr().err

    def test_burn_in_must_leave_two_draws(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.cfg", **{**BASE_RUN, "burn_in": "119"})
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "config error: burn_in:" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_runtime_failure_exits_three(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.cfg",
                           **{**BASE_RUN, "theta0": "1e300,1e300"})
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 3

    @pytest.mark.parametrize("name", ["missing.csv", "."], ids=["missing", "directory"])
    def test_unreadable_data_file_exits_two(self, tmp_path, capsys, name):
        data = tmp_path / name
        cfg = write_config(tmp_path / "run.cfg", **BASE_RUN, data=str(data))
        out = tmp_path / "o"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
        assert f"config error: {data}: cannot read" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("field, settings", [
        ("kappa", {"kappa": "nan"}),
        ("theta0", {"theta0": "0.4,inf"}),
        ("simulate_theta", {"simulate_theta": "1.0,nan"}),
        ("epsilon", {"sampler": "hmc", "epsilon": "nan", "leapfrog_steps": "4"}),
        ("sigma2_target", {"sampler": "pmmh", "estimator": "difference",
                           "sigma2_target": "nan"}),
        ("sigma2_target", {"sampler": "pmmh", "estimator": "difference", "m": "10",
                           "sigma2_target": "inf"}),
        ("a", {"sampler": "pmmh", "estimator": "block_poisson", "lambda": "4",
               "m_b": "5", "a": "-inf"}),
        # variance_grad takes exactly 0, 1, false or true
        ("variance_grad", {"sampler": "hmc_ecs", "epsilon": "0.05",
                           "leapfrog_steps": "4", "m": "12", "variance_grad": "no"}),
    ])
    def test_non_finite_or_unlisted_values_rejected_before_any_output(
            self, tmp_path, capsys, field, settings):
        cfg = write_config(tmp_path / "run.cfg", **{**BASE_RUN, **settings})
        out = tmp_path / "o"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
        assert f"config error: {field}:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_cache_build_failure_exits_two(self, tmp_path, capsys):
        # exp(800) overflows, so the cache's totals are not finite
        cfg = write_config(tmp_path / "run.cfg",
                           **{**BASE_RUN, "sampler": "pmmh", "estimator": "difference",
                              "m": "10", "expansion": "800,0"})
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "non-finite" in capsys.readouterr().err

    def test_multi_chain_files(self, tmp_path):
        cfg = write_config(tmp_path / "run.cfg", **{**BASE_RUN, "chains": "2",
                                                    "iterations": "60"})
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "trace_chain0.csv").exists()
        assert (out / "trace_chain1.csv").exists()
        a = read_trace_csv(out / "trace_chain0.csv")
        b = read_trace_csv(out / "trace_chain1.csv")
        assert not np.array_equal(a.draws, b.draws)

    def test_chain_workers_capped_at_usable_cores(self, tmp_path, monkeypatch):
        # a forked pool starts every worker at once, so chains = k must not
        # fork k processes; this executor runs the chains in-process
        sizes = []

        class RecordingExecutor:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(experiments.concurrent.futures, "ProcessPoolExecutor",
                            RecordingExecutor)
        monkeypatch.setattr(models, "_usable_cores", lambda: 2)
        cfg = write_config(tmp_path / "run.cfg", **{**BASE_RUN, "chains": "3",
                                                    "iterations": "30"})
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        assert sizes == [2]
        assert_chains_run_alone(cfg, out, tmp_path)

    # an order-2 parameter-expanded cache reaches each worker pickled, and
    # must round its totals there as the built cache does
    @pytest.mark.parametrize("settings", [
        dict(sampler="pmmh", estimator="difference", m="20"),
        dict(sampler="hmc_ecs", epsilon="0.02", leapfrog_steps="3", m="30"),
    ], ids=["pmmh", "hmc_ecs"])
    def test_each_chain_matches_its_in_process_run(self, tmp_path, settings):
        cfg = write_config(tmp_path / "run.cfg", **{
            **ECHO_BASE, **settings, "simulate_theta": "0.5,0.3,-0.2,0.25,-0.15,0.1",
            "cv": "param", "order": "2", "chains": "2", "iterations": "300", "seed": "1"})
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        assert_chains_run_alone(cfg, out, tmp_path)

    @pytest.mark.parametrize("settings", [
        dict(sampler="mh"),
        dict(sampler="pmmh", estimator="difference", m="20", dependence="bpm", blocks="4"),
        dict(sampler="pmmh", estimator="block_poisson", m_b="10", **{"lambda": "4"}),
        dict(sampler="hmc", epsilon="0.05", leapfrog_steps="4"),
        dict(sampler="hmc_ecs", epsilon="0.05", leapfrog_steps="4", m="20"),
    ], ids=["mh", "pmmh", "block_poisson", "hmc", "hmc_ecs"])
    def test_chain_zero_is_the_single_chain_run(self, monkeypatch, settings):
        # chain k is seeded [seed, k]; SeedSequence pads its entropy with
        # zeros, so chain 0 reads the stream of the bare seed
        plan, _ = resolve({**ECHO_BASE, **settings, "chains": "2"})
        chain0 = run_chain(plan, 0)
        monkeypatch.setattr(experiments, "chain_seed", lambda seed, chain_id: seed)
        bare = run_chain(plan, 0)
        for field in ("draws", "accept", "loglik_est", "sign", "u_accept"):
            np.testing.assert_array_equal(getattr(chain0, field), getattr(bare, field))

    def test_pmmh_block_poisson_config_runs(self, tmp_path):
        cfg = write_config(tmp_path / "run.cfg", model="poisson", simulate_n="100",
                           simulate_theta="0.6,0.4", sampler="pmmh",
                           estimator="block_poisson", **{"lambda": "2"}, m_b="10",
                           cv="param", order="2", iterations="100", seed="5")
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        resolved = parse_config_file(out / "config_resolved.cfg")
        assert "a" in resolved

    def test_hmc_and_ecs_configs_run(self, tmp_path):
        out = tmp_path / "h"
        cfg = write_config(tmp_path / "h.cfg", **{**BASE_RUN, "sampler": "hmc",
                                                  "epsilon": "0.05",
                                                  "leapfrog_steps": "4"})
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        cfg2 = write_config(tmp_path / "e.cfg", **{**BASE_RUN, "sampler": "hmc_ecs",
                                                   "epsilon": "0.05",
                                                   "leapfrog_steps": "4", "m": "12"})
        assert main(["run", "--config", cfg2, "--out", str(tmp_path / "e")]) == 0


    @pytest.mark.parametrize("field, settings", [
        ("dependence", {"sampler": "pmmh", "estimator": "block_poisson", "lambda": "4",
                        "m_b": "5", "dependence": "cpm", "phi": "0.5"}),
        ("blocks", {"sampler": "pmmh", "estimator": "difference", "m": "10",
                    "dependence": "bpm", "blocks": "11"}),
        ("blocks", {"sampler": "hmc_ecs", "epsilon": "0.05", "leapfrog_steps": "4",
                    "m": "10", "dependence": "bpm", "blocks": "11"}),
    ])
    def test_undrawable_subsample_layouts_rejected_before_any_output(
            self, tmp_path, capsys, field, settings):
        cfg = write_config(tmp_path / "run.cfg", **{**BASE_RUN, **settings})
        out = tmp_path / "o"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
        assert f"config error: {field}:" in capsys.readouterr().err
        assert not out.exists()


class TestResolve:
    PLANNED = dict(model="poisson", simulate_n="10000", simulate_theta="1.0,0.75",
                   sampler="pmmh", estimator="difference", cv="param", order="2",
                   sigma2_target="1.0", iterations="10", seed="4")

    def test_planned_m_is_floored_and_echoed(self):
        # second-order control variates plan m = 1 here, where the sample
        # variance of one difference is identically zero
        plan, resolved = resolve(self.PLANNED)
        assert plan.estimator.m == 30
        assert resolved["m"] == "30" and resolved["plan_floored"] == "1"
        _, again = resolve(resolved)
        assert again == resolved

    def test_planning_on_fewer_rows_than_the_pilot_floor(self, tmp_path):
        # the with-replacement pilot keeps its 30 draws below 30 rows
        cfg = {**self.PLANNED, "simulate_n": "20"}
        plan, resolved = resolve(cfg)
        assert plan.estimator.m == 30
        assert resolved["m"] == "30" and resolved["plan_floored"] == "1"
        out = tmp_path / "plan.csv"
        assert main(["plan", "--config", write_config(tmp_path / "plan.cfg", **cfg),
                     "--out", str(out)]) == 0
        table = np.genfromtxt(out, delimiter=",", names=True, skip_header=1)
        assert table.size >= 1 and np.all(table["m"] >= 1)

    def test_kmeans_stopped_at_max_iter_is_echoed(self, monkeypatch):
        from submcmc import experiments
        cfg = {**self.PLANNED, "simulate_n": "1000", "cv": "data", "centroids": "10",
               "m": "30"}
        _, resolved = resolve(cfg)
        assert "kmeans_converged" not in resolved
        real = experiments.kmeans_cluster
        monkeypatch.setattr(experiments, "kmeans_cluster",
                            lambda *args, **kwargs: real(*args, **kwargs, max_iter=1))
        _, resolved = resolve(cfg)
        assert resolved["kmeans_converged"] == "0"
        _, again = resolve(resolved)
        assert again == resolved

    def test_laplace_shape_reads_the_cache_curvature(self, monkeypatch):
        passes = []
        real_sums = PoissonRegression.taylor_sums
        real_hess = PoissonRegression.hess_theta

        def counting_sums(self, theta, dataset, **kwargs):
            passes.append("taylor_sums")
            return real_sums(self, theta, dataset, **kwargs)

        def counting_hess(self, theta, dataset, idx=None):
            # over all rows of the run's data; the pilot mode's Newton steps
            # pass its gathered pilot rows alone
            if idx is None and dataset.n == n:
                passes.append("hess_theta")
            return real_hess(self, theta, dataset, idx)

        n = int(self.PLANNED["simulate_n"])
        monkeypatch.setattr(PoissonRegression, "taylor_sums", counting_sums)
        monkeypatch.setattr(PoissonRegression, "hess_theta", counting_hess)
        plan, _ = resolve({**self.PLANNED, "omega": "laplace"})
        # the cache build is the only full-data Hessian pass: the proposal
        # shape and the planning draws both read its summed Hessian
        assert passes == ["taylor_sums"]
        monkeypatch.undo()
        full_pass = laplace_covariance(plan.model, plan.dataset, plan.theta0)
        assert plan.proposal.shape.tobytes() == full_pass.tobytes()

    @pytest.mark.parametrize("raw, flag", [("0", False), ("false", False),
                                           ("1", True), ("true", True)])
    def test_variance_grad_echoes_one_or_zero(self, raw, flag):
        cfg = {**BASE_RUN, "simulate_n": "100", "sampler": "hmc_ecs", "epsilon": "0.05",
               "leapfrog_steps": "4", "m": "12", "variance_grad": raw}
        plan, resolved = resolve(cfg)
        assert plan.include_variance_grad is flag
        assert resolved["variance_grad"] == ("1" if flag else "0")

    @pytest.mark.parametrize("rebuilds", [0, 1])
    def test_responses_are_validated_once(self, monkeypatch, rebuilds):
        # the cache build, and a rebuild at the Newton point, skip the check
        # resolve has made
        checks = []
        real = PoissonRegression.check_response

        def counting(self, y):
            if y.size == n:
                checks.append(y.size)
            return real(self, y)

        # at seed 6 the pilot centre costs 0.016, so the cache is rebuilt once
        cfg = self.PLANNED if not rebuilds else {**self.PLANNED, "seed": "6"}
        n = int(cfg["simulate_n"])
        monkeypatch.setattr(PoissonRegression, "check_response", counting)
        _, resolved = resolve(cfg)
        assert resolved.get("newton_rebuilds", "0") == str(rebuilds)
        assert checks == [n]

    def test_pilot_mode_is_computed_once(self, monkeypatch):
        from submcmc import experiments

        calls = []
        real = experiments.select_expansion_point

        def counting(*args, **kwargs):
            calls.append(kwargs.get("seed"))
            return real(*args, **kwargs)

        monkeypatch.setattr(experiments, "select_expansion_point", counting)
        plan, resolved = resolve(self.PLANNED)
        # theta0 and the expansion point both default to the pilot mode,
        # which costs the differences too little variance to move
        assert calls == [[4, 101]]
        assert resolved["theta0"] == resolved["expansion"]
        assert "newton_rebuilds" not in resolved
        monkeypatch.undo()
        direct = real(plan.model, plan.dataset, seed=[4, 101])
        assert plan.theta0.tobytes() == direct.tobytes()
        assert plan.cache.expansion_point.tobytes() == direct.tobytes()

    @pytest.mark.parametrize("field, settings", REQUIREMENTS.values(), ids=REQUIREMENTS)
    def test_requirement_matrix_names_the_field(self, field, settings):
        cfg = {key: value for key, value in {**BASE_RUN, **settings}.items()
               if value is not None}
        with pytest.raises(ConfigError) as err:
            resolve(cfg)
        assert err.value.field == field

    DATA_PLAN = dict(model="poisson", simulate_n="2000", simulate_theta="1.0,0.75",
                     sampler="pmmh", estimator="difference", cv="data", centroids="20",
                     order="2", sigma2_target="1", iterations="10")

    def test_run_plans_where_the_plan_command_does(self):
        # data-expanded control variates have no expansion point, so planning
        # measures the differences at the pilot mode, never at theta0; at
        # theta0 = (1.2, 1.0) it once planned m = 32117, and a = -39.89
        away = {**self.DATA_PLAN, "theta0": "1.2,1.0"}
        _, resolved = resolve(away)
        assert resolved["m"] == str(plan_table(away, targets=(1.0,))[0]["m"]) == "7490"
        product = dict(estimator="block_poisson", m_b="20", **{"lambda": "10"})
        _, at_mode = resolve({**self.DATA_PLAN, **product})
        _, at_start = resolve({**away, **product})
        assert at_start["a"] == at_mode["a"]

    def test_plan_reports_the_floored_m_that_run_samples_with(self, tmp_path):
        # planned below the floor of 30, which run raises m to
        cfg = write_config(tmp_path / "data.cfg", model="poisson", simulate_n="200",
                           simulate_theta="0.6,0.4", sampler="pmmh", estimator="difference",
                           cv="data", centroids="10", sigma2_target="1", iterations="20",
                           seed="1")
        table = tmp_path / "plan.csv"
        assert main(["plan", "--config", cfg, "--targets", "1", "--out", str(table)]) == 0
        with open(table, encoding="utf-8") as fh:
            header, row = [line.strip().split(",") for line in fh if not line.startswith("#")]
        assert header == ["target", "sigma2_d", "m", "wor_m", "degenerate", "floored"]
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
        echo = parse_config_file(tmp_path / "run" / "config_resolved.cfg")
        assert (row[2], row[5]) == (echo["m"], echo["plan_floored"]) == ("30", "1")

    @pytest.mark.parametrize("cv", ["param", "exact", "data"])
    @pytest.mark.parametrize("estimator", [
        dict(),
        dict(estimator="block_poisson", m_b="10", **{"lambda": "4"}),
    ], ids=["difference", "block_poisson"])
    def test_start_point_does_not_move_the_plan(self, cv, estimator):
        cfg = {**self.DATA_PLAN, "simulate_n": "300", "cv": cv, **estimator}
        _, default = resolve(cfg)
        _, away = resolve({**cfg, "theta0": "1.2,1.0"})
        assert away.pop("theta0") == "1.2,1.0"
        default.pop("theta0")
        assert away == default


class TestSimulateAndDiagnose:
    def test_simulate_then_load(self, tmp_path):
        out = tmp_path / "data.csv"
        assert main(["simulate", "--n", "40", "--theta", "1.0,0.5", "--seed", "7",
                     "--out", str(out)]) == 0
        ds = load_dataset(out)
        assert ds.n == 40 and ds.p == 1

    def test_simulate_rejects_non_finite_theta(self, tmp_path, capsys):
        out = tmp_path / "data.csv"
        assert main(["simulate", "--n", "40", "--theta", "1,nan", "--out", str(out)]) == 2
        assert "config error: theta:" in capsys.readouterr().err
        assert not out.exists()

    def test_diagnose_round_trip(self, tmp_path):
        cfg = write_config(tmp_path / "run.cfg", **BASE_RUN)
        out = tmp_path / "out"
        main(["run", "--config", cfg, "--out", str(out)])
        assert main(["diagnose", "--trace", str(out / "trace.csv"),
                     "--burn-in", "10", "--out", str(tmp_path / "diag.csv")]) == 0
        table = np.genfromtxt(tmp_path / "diag.csv", delimiter=",", names=True,
                              skip_header=1)
        assert table["coordinate"].shape == (2,)

    @pytest.mark.parametrize("burn_in", ["120", "-5", "119"],
                             ids=["past-the-end", "negative", "one-row-left"])
    def test_diagnose_burn_in_out_of_range_exits_two(self, tmp_path, capsys, burn_in):
        cfg = write_config(tmp_path / "run.cfg", **BASE_RUN)
        out = tmp_path / "out"
        main(["run", "--config", cfg, "--out", str(out)])
        assert main(["diagnose", "--trace", str(out / "trace.csv"), "--burn-in", burn_in,
                     "--out", str(tmp_path / "diag.csv")]) == 2
        assert "burn-in" in capsys.readouterr().err
        assert not (tmp_path / "diag.csv").exists()

    def test_diagnose_reproduces_the_run_summary(self, tmp_path):
        cfg = write_config(tmp_path / "run.cfg", **BASE_RUN)
        out = tmp_path / "out"
        main(["run", "--config", cfg, "--out", str(out)])
        assert main(["diagnose", "--trace", str(out / "trace.csv"),
                     "--out", str(tmp_path / "diag.csv")]) == 0
        rows = [[line for line in path.read_text().splitlines() if not line.startswith("#")]
                for path in (out / "summary.csv", tmp_path / "diag.csv")]
        assert rows[0] == rows[1]

    def test_trace_columns_found_by_name(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("# x = 1\n"
                        "sign,loglik_var,theta_2,iter,loglik_est,accept,theta_1\n"
                        "1,0.5,0.25,1,-10.5,1,2.0\n"
                        "-1,0.75,0.125,2,-11.5,0,3.0\n")
        trace = read_trace_csv(path)
        np.testing.assert_array_equal(trace.draws, [[2.0, 0.25], [3.0, 0.125]])
        np.testing.assert_array_equal(trace.accept, [True, False])
        np.testing.assert_array_equal(trace.loglik_est, [-10.5, -11.5])
        np.testing.assert_array_equal(trace.sign, [1, -1])

    def test_trace_without_a_needed_column_is_named(self, tmp_path, capsys):
        path = tmp_path / "trace.csv"
        path.write_text("iter,theta_1,accept,sign\n1,2.0,1,1\n")
        with pytest.raises(DomainError, match="loglik_est"):
            read_trace_csv(path)
        assert main(["diagnose", "--trace", str(path), "--out", str(tmp_path / "d.csv")]) == 2
        assert "loglik_est" in capsys.readouterr().err

    @pytest.mark.parametrize("row, reason", [("1,abc,1,-2.0,1", "non-numeric cell"),
                                             ("1,0.5,1,-2.0", "expected 5 columns, got 4")],
                             ids=["non-numeric", "short"])
    def test_malformed_trace_row_is_named(self, tmp_path, capsys, row, reason):
        # the '# comment' line and the header come first, so the row is file line 4
        path = tmp_path / "trace.csv"
        path.write_text("# x = 1\niter,theta_1,accept,loglik_est,sign\n"
                        f"1,0.5,1,-2.0,1\n{row}\n")
        assert main(["diagnose", "--trace", str(path), "--out", str(tmp_path / "d.csv")]) == 2
        assert f"{path}: row 4: {reason}" in capsys.readouterr().err
        assert not (tmp_path / "d.csv").exists()

    def test_plan_command(self, tmp_path):
        cfg = write_config(tmp_path / "plan.cfg", model="poisson", simulate_n="200",
                           simulate_theta="0.8,0.5", cv="param", order="0", seed="2")
        out = tmp_path / "plan.csv"
        assert main(["plan", "--config", cfg, "--targets", "1.0,3.3",
                     "--out", str(out)]) == 0
        table = np.genfromtxt(out, delimiter=",", names=True, skip_header=1)
        assert table["m"][0] >= table["m"][1] >= 1

    def test_degenerate_plan_is_floored(self):
        # exact control variates leave a zero pilot variance, where both
        # sizes plan 1; m is then raised to the floor run samples with
        rows = plan_table(dict(model="poisson", simulate_n="200", simulate_theta="0.8,0.5",
                               cv="exact", seed="2"))
        assert ([(row["m"], row["wor_m"], row["degenerate"], row["floored"]) for row in rows]
                == [(30, 1, 1, 1)] * 2)


class TestFigure1:
    def test_values_match_closed_form_everywhere(self, tmp_path):
        rows = figure1_table(target=3.3)
        for row in rows:
            expected = row["n"] * row["sigma2_pop"] / (row["n"] * row["sigma2_pop"] + 3.3)
            assert row["fraction"] == pytest.approx(expected, abs=1e-12)

    def test_fraction_monotone_and_approaching_one(self):
        rows = [r for r in figure1_table(target=3.3) if r["sigma2_pop"] == 0.01]
        fracs = [r["fraction"] for r in rows]
        assert all(b > a for a, b in zip(fracs, fracs[1:]))
        assert fracs[-1] > 0.999

    def test_reference_point(self):
        rows = figure1_table(n_grid=np.array([100_000]), sigma2_values=(0.01,),
                             target=3.3)
        assert rows[0]["fraction"] == pytest.approx(1e8 / 1003.3 / 1e5, abs=1e-12)

    @pytest.mark.parametrize("grid", ["1:x:3", "10:1000", "10:1000:3:4", "0:1000:3",
                                      "10:1000:2.5"])
    def test_malformed_n_grid_exits_two(self, tmp_path, capsys, grid):
        out = tmp_path / "figure1.csv"
        assert main(["figure1", "--n-grid", grid, "--out", str(out)]) == 2
        assert f"config error: n-grid: expected positive LO:HI:COUNT, got '{grid}'" in (
            capsys.readouterr().err)
        assert not out.exists()

    def test_cli_writes_csv(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SUBMCMC_OUTPUT_DIR", str(tmp_path))
        assert main(["figure1", "--sigma2", "0.01"]) == 0
        table = np.genfromtxt(tmp_path / "figure1.csv", delimiter=",", names=True,
                              skip_header=1)
        assert table["fraction"].size > 10


class TestFigure234:
    def test_second_order_scatter_is_near_diagonal_close_in(self):
        pairs, _ = figure234_tables(cv_kind="param", radius_list=(0.025,),
                                    order_list=(2,))
        ell = np.array([p["ell"] for p in pairs])
        q = np.array([p["q"] for p in pairs])
        assert r_squared(ell, q) > 0.99

    def test_data_expansion_quality_stable_in_radius(self):
        pairs, _ = figure234_tables(cv_kind="data", radius_list=(0.025, 0.25),
                                    order_list=(2,), K_list=(75,))
        scores = {}
        for radius in (0.025, 0.25):
            sel = [p for p in pairs if p["radius"] == radius]
            ell = np.array([p["ell"] for p in sel])
            q = np.array([p["q"] for p in sel])
            scores[radius] = r_squared(ell, q)
        assert abs(scores[0.25] - scores[0.025]) <= 0.1 * scores[0.025]

    def test_one_centroid_per_point_is_exact(self):
        small = example_dataset(n=150)
        pairs, panels = figure234_tables(cv_kind="data", radius_list=(0.1,),
                                         order_list=(0, 1, 2), K_list=(150,),
                                         dataset=small)
        for p in pairs:
            assert p["q"] == pytest.approx(p["ell"], abs=1e-9)
        assert all(panel["m_opt"] == 1 for panel in panels)

    @pytest.mark.parametrize("flag, value", [("--orders", "1,x"), ("--centroids", "7,x")])
    def test_malformed_integer_list_exits_two(self, tmp_path, capsys, flag, value):
        assert main(["figure234", flag, value, "--out", str(tmp_path)]) == 2
        assert (f"config error: {flag[2:]}: expected comma-separated integers, got '{value}'"
                in capsys.readouterr().err)
        assert not list(tmp_path.iterdir())

    def test_param_tables_make_only_the_centring_passes(self, monkeypatch):
        # every order reads the moments of the last centring build, so the
        # tables make no full-data pass of their own
        passes = []
        real_sums = PoissonRegression.taylor_sums

        def counting_sums(self, theta, dataset, **kwargs):
            passes.append(theta.copy())
            return real_sums(self, theta, dataset, **kwargs)

        monkeypatch.setattr(PoissonRegression, "taylor_sums", counting_sums)
        figure234_tables(cv_kind="param", radius_list=(0.025,), order_list=(0, 1, 2))
        figure_passes, passes[:] = list(passes), []
        model, data = PoissonRegression(), example_dataset()
        pilot = experiments.select_expansion_point(
            model, data, seed=experiments.chain_seed(experiments.EXAMPLE_SEED,
                                                     experiments._TAG_EXPANSION))
        experiments._centred_cache(model, data, pilot, None, {})
        # 4 passes at the example's n = 1000, where one build per order made 7
        assert len(figure_passes) == len(passes)
        assert all(np.array_equal(a, b) for a, b in zip(figure_passes, passes))

    def test_param_csv_bytes_match_a_build_per_order(self, tmp_path, monkeypatch):
        # the tables as they were made before: one order-2 pass per order at
        # the centre, labelled with the order
        assert main(["figure234", "--cv", "param", "--out", str(tmp_path / "one")]) == 0

        def build_per_order(cache, order):
            return experiments.build_param_expanded(cache._model, cache._dataset,
                                                    cache.expansion_point, order=order)

        monkeypatch.setattr(experiments, "replace", build_per_order)
        assert main(["figure234", "--cv", "param", "--out", str(tmp_path / "each")]) == 0
        for table in ("pairs", "panels"):
            name = f"figure234_param_{table}.csv"
            assert (tmp_path / "one" / name).read_bytes() == (
                tmp_path / "each" / name).read_bytes(), table

    def test_cli_writes_both_tables(self, tmp_path):
        assert main(["figure234", "--cv", "param", "--radii", "0.025",
                     "--orders", "2", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "figure234_param_pairs.csv").exists()
        assert (tmp_path / "figure234_param_panels.csv").exists()


class TestFigure5:
    def test_smoke_study_files(self, tmp_path):
        results = figure5_study(sigma2_targets=(0.0, 1.0), n_iter=1500, seed=1,
                                out_dir=tmp_path)
        assert (tmp_path / "trace_var0.csv").exists()
        assert (tmp_path / "trace_var1.csv").exists()
        assert (tmp_path / "acf_var1.csv").exists()
        assert (tmp_path / "iact_table.csv").exists()
        assert results[0]["m"] == 1000

    def test_variance_zero_row_is_plain_mh(self, tmp_path):
        from submcmc import ProposalConfig, mh_run, select_expansion_point
        from submcmc.experiments import laplace_covariance, chain_seed
        from submcmc.models import PoissonRegression

        results = figure5_study(sigma2_targets=(0.0,), n_iter=400, seed=6)
        dataset = example_dataset()
        model = PoissonRegression()
        center = select_expansion_point(model, dataset, seed=chain_seed(6, 101))
        proposal = ProposalConfig(shape=laplace_covariance(model, dataset, center))
        direct = mh_run(model, dataset, proposal, center, 400, seed=6)
        assert np.array_equal(results[0]["trace"].draws, direct.draws)

    def test_row_planned_below_two_draws_is_rejected(self, tmp_path, capsys):
        # first-order control variates plan m = 1 at every target here, and
        # one draw has sample variance 0, so no row has its target variance
        out = tmp_path / "figures"
        assert main(["figure5", "--cv-order", "1", "--iterations", "100",
                     "--out", str(out)]) == 2
        assert "config error: targets: target 1 plans m = 1" in capsys.readouterr().err
        assert not out.exists()

    def test_rows_share_proposal_stream(self):
        # the theta proposals are seed-aligned across the variance ladder:
        # the first proposed points coincide across rows
        results = figure5_study(sigma2_targets=(0.0, 10.0), n_iter=200, seed=2)
        a, b = results[0]["trace"], results[1]["trace"]
        first_a = next(i for i in range(200) if a.accept[i])
        first_b = next(i for i in range(200) if b.accept[i])
        if first_a == first_b == 0:
            np.testing.assert_allclose(a.draws[0], b.draws[0])
