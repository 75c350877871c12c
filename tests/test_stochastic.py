"""Unit tests for the stochastic evaluators.

Monte Carlo assertions use fixed seeds, so they are deterministic; the
tolerance bands (multiples of the reported standard error) leave wide
margins at the chosen trial counts.
"""

import math

import pytest
from hypothesis import example, given, settings, strategies as st

import reference_sched as ref
from raysched.numopt import closed_form
from raysched.sched_eval import acceleration_ratio, longest_completed
from raysched.stochastic import (
    DetectionModel,
    DirectionRule,
    RandomizedScheduleParams,
    beta_r_closed_form,
    expected_acc_ratio_mc_contracts,
    expected_search_cost,
    mc_randomized_schedule_detail,
    mc_randomized_schedule_ratio,
    mc_search_cost,
    probabilistic_competitive_ratio,
    standard_t_grid,
    tuned_search_base,
)
from raysched.search_eval import cost_to_visit
from raysched.strategies import (
    make_exponential_schedule,
    make_exponential_search,
    make_geometric_search,
)


class TestDetectionModel:
    def test_probability_validated(self):
        with pytest.raises(ValueError):
            DetectionModel(0.0)
        with pytest.raises(ValueError):
            DetectionModel(1.5)
        assert DetectionModel(1.0).direction_rule is DirectionRule.BOTH_DIRECTIONS

    def test_tuned_base(self):
        from raysched.numopt import lemma_root

        assert tuned_search_base(2, 1.0) == pytest.approx(2.0 / (2.0 - lemma_root(1.0)))
        with pytest.raises(ValueError):
            tuned_search_base(1, 0.5)


class TestExpectedSearchCost:
    def test_certain_detection_is_first_visit_cost(self):
        plan = make_exponential_search(2, 2.0)
        model = DetectionModel(1.0)
        assert expected_search_cost(plan, model, (0, 1.0)) == pytest.approx(1.0)
        assert expected_search_cost(plan, model, (0, 3.0)) == pytest.approx(
            cost_to_visit(plan, (0, 3.0), 1)
        )

    def test_series_matches_direct_sum_on_small_case(self):
        # Target at 1.0 on ray 0 of the two-ray doubling plan is passed
        # at costs 1, 7, 13, 31, ... ; with p=0.9 the growth factor per
        # miss is 4 * 0.1 = 0.4 < 1, so the expectation is the finite
        # geometric mixture of those pass costs.
        plan = make_exponential_search(2, 2.0)
        value = expected_search_cost(
            plan, DetectionModel(0.9), (0, 1.0), tail_tol=1e-18
        )
        costs = [cost_to_visit(plan, (0, 1.0), k) for k in range(1, 26)]
        direct = sum(0.9 * 0.1 ** (k - 1) * c for k, c in enumerate(costs, start=1))
        assert value == pytest.approx(direct, rel=1e-9)

    def test_divergent_growth_is_infinite(self):
        # Pass costs double while the miss weight only halves at p=0.5,
        # and shrinks slower still at p=0.3: both series diverge.
        plan = make_exponential_search(2, 2.0)
        assert expected_search_cost(plan, DetectionModel(0.3), (0, 1.0)) == math.inf
        assert expected_search_cost(plan, DetectionModel(0.5), (0, 1.0)) == math.inf

    def test_single_pass_plan_diverges_below_certainty(self):
        plan = make_geometric_search(2, 2.0)
        assert expected_search_cost(plan, DetectionModel(0.9), (0, 1.0)) == math.inf
        # With certain detection the expectation collapses to the cost
        # of the single covering pass.
        assert expected_search_cost(plan, DetectionModel(1.0), (0, 1.0)) == 1.0
        assert expected_search_cost(plan, DetectionModel(1.0), (0, 2.0)) == 4.0

    @pytest.mark.parametrize("tail_tol", [0.0, -1e-12, math.nan])
    def test_tail_tolerance_must_be_positive(self, tail_tol):
        # A NaN tolerance never ends the series, which then walks the
        # pass stream until the cumulative cost overflows.
        plan = make_exponential_search(2, 1.2)
        with pytest.raises(ValueError, match=r"^tail_tol must be > 0, got "):
            expected_search_cost(plan, DetectionModel(0.5), (0, 1.0), tail_tol)

    def test_mc_agrees_with_series(self):
        for m, p in ((2, 0.5), (3, 0.8)):
            b = tuned_search_base(m, p)
            plan = make_exponential_search(m, b)
            model = DetectionModel(p)
            for target in ((0, 0.8), (1, 2.1)):
                series = expected_search_cost(plan, model, target)
                estimate = mc_search_cost(plan, model, target, 40_000, seed=11)
                assert abs(estimate.mean - series) <= 3.0 * estimate.stderr

    def test_mc_deterministic_given_seed(self):
        plan = make_exponential_search(2, tuned_search_base(2, 0.5))
        model = DetectionModel(0.5)
        a = mc_search_cost(plan, model, (0, 1.0), 5_000, seed=3)
        b = mc_search_cost(plan, model, (0, 1.0), 5_000, seed=3)
        c = mc_search_cost(plan, model, (0, 1.0), 5_000, seed=4)
        assert a == b
        assert a.mean != c.mean

    def test_single_trial_has_zero_stderr(self):
        plan = make_exponential_search(2, 1.2)
        est = mc_search_cost(plan, DetectionModel(0.9), (0, 1.0), 1, seed=0)
        assert est.stderr == 0.0


class TestProbabilisticRatio:
    def test_divergent_case_reports_unbounded(self):
        plan = make_exponential_search(2, 3.0)
        report = probabilistic_competitive_ratio(plan, DetectionModel(0.3), 50)
        assert math.isinf(report.finite_sup)
        assert "diverges" in report.note

    def test_certain_detection_recovers_deterministic_limit(self):
        plan = make_exponential_search(2, 2.0)
        report = probabilistic_competitive_ratio(plan, DetectionModel(1.0))
        assert report.limit_sup == pytest.approx(9.0, abs=1e-9)
        assert report.finite_sup <= report.limit_sup + 1e-12

    def test_outward_only_converges_to_attached_limit(self):
        m, p = 2, 0.5
        plan = make_exponential_search(m, tuned_search_base(m, p))
        model = DetectionModel(p, DirectionRule.OUTWARD_ONLY)
        report = probabilistic_competitive_ratio(plan, model)
        assert report.finite_sup <= report.limit_sup + 1e-12
        assert report.convergence_gap < 1e-6
        assert report.finite_sup <= closed_form("prob-search-upper", m=m, p=p)
        assert report.finite_sup >= closed_form("prob-search-lower", m=m, p=p)


class TestExpectedContracts:
    def test_certain_payoff_matches_deterministic_sweep(self):
        for n, b in ((1, 2.0), (2, 1.5), (3, 4.0 / 3.0)):
            stochastic = expected_acc_ratio_mc_contracts(n, 1.0, b)
            deterministic = acceleration_ratio(
                make_exponential_schedule(n, b), longest_completed()
            )
            assert stochastic.finite_sup == deterministic.finite_sup
            assert stochastic.limit_sup == pytest.approx(b ** (n + 1) / (b - 1.0))

    def test_early_query_can_beat_the_asymptote(self):
        # With b(1-p) > 1 the expected credit decays relative to the
        # query time, so the supremum sits at the first query and no
        # finite limit is attached.
        report = expected_acc_ratio_mc_contracts(1, 0.3, 2.0)
        assert report.limit_sup is None
        assert report.finite_sup == pytest.approx(10.0, abs=1e-9)
        assert report.asymptotic == pytest.approx(
            4.0 * (1.0 - 0.7 * 0.5) / 0.3, abs=1e-9
        )
        assert report.finite_sup > report.asymptotic

    def test_guarantee_bound_holds_at_tuned_base(self):
        n, p = 2, 0.7
        report = expected_acc_ratio_mc_contracts(n, p, (n + 1.0) / n)
        assert report.finite_sup <= math.e * n / p + math.e / p + 1e-9

    @settings(max_examples=200, deadline=None)
    @example(n=3, p=0.5, b=2.0, horizon=3)
    @example(n=1, p=1.0, b=3.0, horizon=2)
    @example(n=5, p=0.3, b=1.02, horizon=6)
    @example(n=4, p=0.6, b=1.2, horizon=3000)
    @example(n=1, p=0.9, b=1.3, horizon=2000)
    @given(
        n=st.integers(min_value=1, max_value=5),
        p=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
        b=st.floats(min_value=1.01, max_value=3.0, exclude_min=True),
        horizon=st.one_of(st.integers(min_value=1, max_value=6),
                          st.integers(min_value=1, max_value=400)),
    )
    def test_sweep_equals_the_per_job_loop(self, n, p, b, horizon):
        """Equal reports, field by field by repr (a subnormal p gives an
        inf ratio and a nan gap), or the same error."""
        def outcome(sweep):
            try:
                report = sweep(n, p, b, horizon)
            except (ValueError, ZeroDivisionError) as err:
                return type(err), str(err)
            assert all(type(value) is float for value in (report.finite_sup, report.witness)
                       if value is not None)
            return repr(report)

        assert outcome(expected_acc_ratio_mc_contracts) == outcome(ref.expected_contracts)

    def test_validation(self):
        with pytest.raises(ValueError):
            expected_acc_ratio_mc_contracts(0, 0.5, 2.0)
        with pytest.raises(ValueError):
            expected_acc_ratio_mc_contracts(1, 0.0, 2.0)
        with pytest.raises(ValueError):
            expected_acc_ratio_mc_contracts(1, 0.5, 1.0)


class TestRandomizedSchedule:
    def test_params_validated(self):
        with pytest.raises(ValueError, match="k="):
            RandomizedScheduleParams(n=2, b=2.0, t_grid=((2, 0.0),))
        with pytest.raises(ValueError, match="delta"):
            RandomizedScheduleParams(n=1, b=2.0, t_grid=((3, 1.0),))
        with pytest.raises(ValueError, match="non-empty"):
            RandomizedScheduleParams(n=1, b=2.0)

    def test_standard_grid_shape(self):
        grid = standard_t_grid(1, 2.0)
        assert len(grid) == 24
        assert grid[0] == (2, 0.0)
        assert all(k >= 2 for k, _ in grid)

    def test_closed_form_matches_catalog(self):
        for n, b in ((1, 2.0), (2, 1.5), (5, 1.1)):
            assert beta_r_closed_form(n, b) == closed_form(
                "randomized-ratio", n=n, b=b
            )

    def test_detail_rows_track_the_exact_ratio_curve(self):
        # The grid-point ratio is beta_r(n, b) * (1 - b^-k), independent
        # of delta; each row's Monte Carlo mean must sit within noise of
        # the curve.
        for n, b in ((1, 2.0), (2, 1.5)):
            params = RandomizedScheduleParams(
                n=n, b=b, t_grid=standard_t_grid(n, b, k_count=6)
            )
            rows = mc_randomized_schedule_detail(params, 30_000, seed=1)
            beta = beta_r_closed_form(n, b)
            for row in rows:
                expected = beta * (1.0 - b ** -row["k"])
                noise = 5.0 * row["ratio"] * row["d_stderr"] / row["d_mean"]
                assert abs(row["ratio"] - expected) <= noise

    def test_single_problem_mean_length_closed_form(self):
        b = 2.0
        params = RandomizedScheduleParams(n=1, b=b, t_grid=((5, 0.0), (5, 0.5)))
        rows = mc_randomized_schedule_detail(params, 40_000, seed=2)
        for row in rows:
            expected = b ** (row["k"] - 2 + row["delta"]) * (b - 1.0) / math.log(b)
            assert abs(row["d_mean"] - expected) <= 5.0 * row["d_stderr"]

    def test_detail_deterministic_given_seed(self):
        params = RandomizedScheduleParams(n=1, b=2.0, t_grid=standard_t_grid(1, 2.0))
        assert mc_randomized_schedule_detail(
            params, 2_000, seed=9
        ) == mc_randomized_schedule_detail(params, 2_000, seed=9)

    def test_ratio_report_references_closed_form(self):
        params = RandomizedScheduleParams(n=1, b=2.0, t_grid=standard_t_grid(1, 2.0))
        report = mc_randomized_schedule_ratio(params, 30_000, seed=0)
        beta = beta_r_closed_form(1, 2.0)
        assert report.asymptotic == pytest.approx(beta)
        assert report.limit_sup is None
        assert abs(report.finite_sup - beta) / beta <= 0.02
