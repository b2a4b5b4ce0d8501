import math

import numpy as np
import pytest

from submcmc import (
    ChainTrace,
    DomainError,
    autocorrelations,
    ct,
    ct_signed,
    iact,
    make_ct_report,
    mc_standard_error,
    summarize,
    write_summary_csv,
)
from submcmc.diagnostics import IACT_METHODS, SUMMARY_COLUMNS


def ar1_series(rho, n, seed):
    """Stationary unit-variance AR(1); IACT = (1+rho)/(1-rho)."""
    rng = np.random.default_rng(seed)
    eps = rng.standard_normal(n)
    x = np.empty(n)
    x[0] = eps[0]
    scale = math.sqrt(1.0 - rho * rho)
    for t in range(1, n):
        x[t] = rho * x[t - 1] + scale * eps[t]
    return x


class TestIact:
    def test_iid_series_has_unit_iact(self):
        x = np.random.default_rng(0).standard_normal(100_000)
        for method in IACT_METHODS:
            assert iact(x, method=method).value == pytest.approx(1.0, abs=0.1)

    @pytest.mark.parametrize("rho,expected,tol", [(0.5, 3.0, 0.15), (0.9, 19.0, 1.5)])
    def test_ar1_geometric_series(self, rho, expected, tol):
        n = 1_000_000 if rho > 0.7 else 400_000
        x = ar1_series(rho, n, seed=1)
        assert iact(x).value == pytest.approx(expected, abs=tol)

    @pytest.mark.parametrize("rho", [0.0, 0.5, 0.9])
    def test_methods_agree_within_twenty_percent(self, rho):
        x = ar1_series(rho, 1_000_000, seed=2)
        values = [iact(x, method=m).value for m in IACT_METHODS]
        assert max(values) / min(values) < 1.2

    def test_burn_in_is_honored(self):
        x = np.concatenate([np.full(1000, 50.0),
                            np.random.default_rng(3).standard_normal(20_000)])
        with_burn = iact(x, burn_in=1000).value
        assert with_burn == pytest.approx(1.0, abs=0.15)

    def test_zero_variance_series_rejected(self):
        with pytest.raises(DomainError):
            iact(np.ones(500))

    def test_short_series_rejected(self):
        with pytest.raises(DomainError):
            iact(np.random.default_rng(4).standard_normal(99))

    def test_unknown_method_rejected(self):
        with pytest.raises(DomainError):
            iact(np.random.default_rng(5).standard_normal(500), method="magic")

    def test_autocorrelations_start_at_one(self):
        rho = autocorrelations(ar1_series(0.5, 10_000, seed=6), max_lag=20)
        assert rho[0] == pytest.approx(1.0)
        assert rho[1] == pytest.approx(0.5, abs=0.05)


class TestComputationalTime:
    def test_linear_in_cost(self):
        assert ct(8.0, 10.0) == 80.0
        assert ct(8.0, 20.0) == 160.0

    def test_signed_version_hand_computed(self):
        # tau=0.75: denominator (2*0.75-1)^2 = 0.25
        assert ct_signed(8.0, batch_size=10, n_products=5, tau=0.75) == pytest.approx(1600.0)

    def test_unit_sign_rate_drops_denominator(self):
        assert ct_signed(8.0, batch_size=10, n_products=5, tau=1.0) == pytest.approx(400.0)

    def test_sign_rate_at_or_below_half_rejected(self):
        with pytest.raises(DomainError):
            ct_signed(8.0, 10, 5, tau=0.5)
        with pytest.raises(DomainError):
            ct_signed(8.0, 10, 5, tau=0.2)


class TestMcse:
    def test_iid_series_matches_root_n_rate(self):
        x = np.random.default_rng(7).standard_normal(10_000)
        assert mc_standard_error(x, 1.0) == pytest.approx(x.std(ddof=1) / 100.0)

    def test_constant_series_gives_zero(self):
        assert mc_standard_error(np.ones(100), 1.0) == 0.0

    def test_interval_coverage_for_correlated_series(self):
        # mean +- 2*MCSE should cover the true mean at roughly the normal rate
        rho, n, reps = 0.5, 4000, 500
        rng_seeds = range(reps)
        covered = 0
        for s in rng_seeds:
            x = ar1_series(rho, n, seed=1000 + s)
            tau = iact(x).value
            half = 2.0 * mc_standard_error(x, tau)
            covered += abs(x.mean()) <= half
        assert 0.90 <= covered / reps <= 0.99


class TestSummaries:
    @pytest.fixture()
    def toy_trace(self):
        rng = np.random.default_rng(8)
        draws = rng.standard_normal((500, 2)) + np.array([1.0, -2.0])
        return ChainTrace(draws=draws, accept=rng.random(500) < 0.3,
                          loglik_est=rng.standard_normal(500),
                          sign=np.where(rng.random(500) < 0.9, 1, -1).astype(np.int8),
                          u_accept=np.zeros(500, bool), meta={"cost_proxy": 30})

    def test_summary_rows_have_fixed_columns(self, toy_trace):
        rows = summarize(toy_trace)
        assert len(rows) == 2
        for row in rows:
            assert tuple(row) == SUMMARY_COLUMNS
        assert rows[0]["coordinate"] == 1
        assert rows[0]["mean"] == pytest.approx(1.0, abs=0.2)
        assert rows[0]["accept_rate"] == toy_trace.accept.mean()
        assert rows[0]["sign_rate"] == (toy_trace.sign > 0).mean()

    def test_summary_csv_round_trip(self, toy_trace, tmp_path):
        rows = summarize(toy_trace)
        path = tmp_path / "summary.csv"
        write_summary_csv(rows, path, header_comment="x=1")
        lines = path.read_text().splitlines()
        assert lines[0] == "# x=1"
        assert lines[1] == ",".join(SUMMARY_COLUMNS)
        assert len(lines) == 2 + len(rows)
        parsed = [float(v) for v in lines[2].split(",")]
        assert parsed[1] == pytest.approx(rows[0]["mean"])

    def test_summary_csv_lines_end_in_newline_only(self, toy_trace, tmp_path):
        path = tmp_path / "summary.csv"
        write_summary_csv(summarize(toy_trace), path, header_comment="x=1")
        data = path.read_bytes()
        assert b"\r" not in data
        assert data.count(b"\n") == 2 + 2 and data.endswith(b"\n")

    def test_constant_coordinates_report_their_value(self):
        # np.std of the second column is 1.1e-16, not 0, so constancy must
        # be decided exactly or the chain reports an ESS it never had
        values = (0.6067416364355295, 0.39462730468078516)
        draws = np.tile(values, (400, 1))
        trace = ChainTrace(draws=draws, accept=np.zeros(400, bool), loglik_est=np.zeros(400),
                           sign=np.ones(400, np.int8), u_accept=np.zeros(400, bool))
        for value, row in zip(values, summarize(trace)):
            assert (row["mean"], row["sd"], row["mcse"]) == (value, 0.0, 0.0)
            assert math.isnan(row["iact"]) and math.isnan(row["ess"])
            with pytest.raises(DomainError):
                iact(draws[:, row["coordinate"] - 1])
            with pytest.raises(DomainError):
                autocorrelations(draws[:, row["coordinate"] - 1], max_lag=5)

    @pytest.mark.parametrize("burn_in", [500, -5], ids=["past-the-end", "negative"])
    def test_burn_in_out_of_range_rejected(self, toy_trace, burn_in):
        # a negative burn-in would keep the last rows, one past the end none
        from submcmc import signed_expectation
        x = toy_trace.draws[:, 0]
        for call in (lambda: summarize(toy_trace, burn_in=burn_in),
                     lambda: iact(x, burn_in=burn_in),
                     lambda: mc_standard_error(x, 1.0, burn_in=burn_in),
                     lambda: make_ct_report(toy_trace, burn_in=burn_in),
                     lambda: signed_expectation(toy_trace, lambda t: t[0], burn_in=burn_in)):
            with pytest.raises(DomainError, match="0 <= burn-in < 500"):
                call()

    def test_summary_of_one_draw_names_the_burn_in(self, toy_trace):
        # one row has no sample sd, so no sd, iact, ess or mcse to report
        with pytest.raises(DomainError, match="burn-in 499 leaves 1 of 500 draws"):
            summarize(toy_trace, burn_in=499)
        assert len(summarize(toy_trace, burn_in=498)) == 2

    def test_ct_report_needs_a_cost(self, toy_trace):
        # a trace read back from CSV carries no cost; CT is not the bare IACT
        toy_trace.meta = {"source": "trace.csv"}
        with pytest.raises(DomainError, match="cost_proxy"):
            make_ct_report(toy_trace)
        assert make_ct_report(toy_trace, cost_proxy=30).ct_value == pytest.approx(
            30 * iact(toy_trace.draws[:, 0]).value)

    def test_ct_report_uses_trace_cost(self, toy_trace):
        report = make_ct_report(toy_trace, coord=0)
        assert report.cost_proxy == 30
        assert report.ct_value == pytest.approx(report.iact.value * 30)
        assert 0.0 <= report.tau <= 1.0
