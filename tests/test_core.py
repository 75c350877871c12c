"""Unit tests for the core data model."""

import math

import pytest

from raysched.core import (
    CostModel,
    Excursion,
    Job,
    RatioReport,
    Relation,
    SearchTrajectory,
    check_claim,
    jobs_before,
)
from raysched.strategies import (
    make_custom_search,
    make_exponential_search,
    make_exponential_schedule,
)


class TestExcursion:
    def test_valid(self):
        exc = Excursion(ray=1, depth_inner=0.0, depth_outer=3.0)
        assert exc.depth_outer == 3.0

    def test_negative_ray_rejected(self):
        with pytest.raises(ValueError):
            Excursion(ray=-1, depth_inner=0.0, depth_outer=1.0)

    def test_inner_must_be_below_outer(self):
        with pytest.raises(ValueError):
            Excursion(ray=0, depth_inner=2.0, depth_outer=2.0)
        with pytest.raises(ValueError):
            Excursion(ray=0, depth_inner=3.0, depth_outer=2.0)

    def test_negative_inner_rejected(self):
        with pytest.raises(ValueError):
            Excursion(ray=0, depth_inner=-0.5, depth_outer=2.0)


def _trajectory(plan, count):
    trajectory = SearchTrajectory(plan)
    trajectory.reach(count)
    return trajectory


def _first_cost(exc, **plan_fields):
    """The trajectory's cost column at a custom plan's first excursion."""
    return _trajectory(make_custom_search(2, lambda i: exc, **plan_fields), 1).cost[0]


class TestExcursionCost:
    def test_standard_single_sweep_is_round_trip(self):
        assert _first_cost(Excursion(ray=0, depth_inner=0.0, depth_outer=5.0)) == 10.0

    def test_standard_ignores_inner_approach_discount(self):
        # Walk 0 -> 5 -> 0 covers the approach below inner twice too.
        assert _first_cost(Excursion(0, 2.0, 5.0)) == 10.0

    def test_standard_three_sweeps(self):
        # 0 -> 5 -> 2 -> 5 -> 0 walks 5 + 3 + 3 + 5 = 16.
        assert _first_cost(Excursion(0, 2.0, 5.0), traversals=3) == 16.0

    def test_standard_two_sweeps_returns_from_inner(self):
        # 0 -> 5 -> 2 -> 0 walks 5 + 3 + 2 = 10.
        assert _first_cost(Excursion(0, 2.0, 5.0), traversals=2) == 10.0

    def test_expanding_charges_new_territory_only(self):
        exc = Excursion(ray=0, depth_inner=2.0, depth_outer=5.0)
        assert _first_cost(exc, cost_model=CostModel.EXPANDING) == 3.0


class TestExcursionPrefix:
    def test_cumulative_costs(self):
        trajectory = _trajectory(make_exponential_search(2, 2.0), 3)
        assert trajectory.cost[:3].tolist() == [2.0, 4.0, 8.0]
        assert trajectory.cum[:3].tolist() == [2.0, 6.0, 14.0]

    def test_overflow_raises(self):
        plan = make_exponential_search(2, 10.0)
        with pytest.raises(ValueError, match="overflow"):
            _trajectory(plan, 400)

    def test_ray_out_of_range_rejected(self):
        plan = make_custom_search(2, lambda i: Excursion(5, 0.0, 1.0))
        with pytest.raises(ValueError, match="ray 5"):
            _trajectory(plan, 1)


class TestJob:
    def test_finish_must_match_length(self):
        with pytest.raises(ValueError):
            Job(problem=0, length=2.0, start=0.0, finish=3.0)

    def test_positive_length_required(self):
        with pytest.raises(ValueError):
            Job(problem=0, length=0.0, start=0.0, finish=0.0)


class TestSchedulePrefix:
    """The jobs jobs_before yields: the schedule's prefix up to a time."""

    def test_whole_jobs_until_horizon(self):
        plan = make_exponential_schedule(1, 2.0)
        jobs = list(jobs_before(plan, 7.0))
        assert [(start, finish) for *_, start, finish in jobs] == [
            (0.0, 1.0), (1.0, 3.0), (3.0, 7.0)]

    def test_noninterruptible_last_job_included_whole(self):
        plan = make_exponential_schedule(1, 2.0)
        assert list(jobs_before(plan, 6.0))[-1] == (0, 4.0, 3.0, 7.0)

    def test_zero_horizon_is_empty(self):
        plan = make_exponential_schedule(1, 2.0)
        assert list(jobs_before(plan, 0.0)) == []


class TestRatioReport:
    def test_finite_sup_may_not_exceed_limit(self):
        with pytest.raises(ValueError, match="exceeds"):
            RatioReport(finite_sup=5.0, witness=None, horizon=10, limit_sup=4.0)

    def test_equal_values_accepted(self):
        report = RatioReport(finite_sup=4.0, witness=None, horizon=10, limit_sup=4.0)
        assert report.finite_sup == report.limit_sup

    def test_infinite_sup_without_limit(self):
        report = RatioReport(finite_sup=math.inf, witness=None, horizon=10)
        assert math.isinf(report.finite_sup)


class TestCheckClaim:
    def test_equal_within_tolerance(self):
        check = check_claim("x", 4.0, 4.0 + 5e-7, Relation.EQUAL, 1e-6)
        assert check.holds
        assert check.gap == pytest.approx(5e-7)

    def test_equal_outside_tolerance(self):
        check = check_claim("x", 4.0, 4.1, Relation.EQUAL, 1e-6)
        assert not check.holds

    def test_at_most_gap_is_overshoot(self):
        check = check_claim("x", 10.0, 12.5, Relation.MEASURED_AT_MOST, 1e-9)
        assert not check.holds
        assert check.gap == pytest.approx(2.5)
        assert check_claim("x", 10.0, 9.0, Relation.MEASURED_AT_MOST, 1e-9).holds

    def test_at_least_gap_is_shortfall(self):
        check = check_claim("x", 10.0, 8.0, Relation.MEASURED_AT_LEAST, 1e-9)
        assert not check.holds
        assert check.gap == pytest.approx(2.0)
        assert check_claim("x", 10.0, 11.0, Relation.MEASURED_AT_LEAST, 1e-9).holds

    def test_informational_flag_carried(self):
        check = check_claim("x", 1.0, 2.0, Relation.EQUAL, 0.0, informational=True)
        assert check.informational and not check.holds


def test_cost_model_values():
    assert CostModel.STANDARD.value == "standard"
    assert CostModel.EXPANDING.value == "expanding"


def test_relation_values():
    assert {r.value for r in Relation} == {
        "equal",
        "measured-at-most",
        "measured-at-least",
    }
