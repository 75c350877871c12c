"""Unit tests for the plan factories."""

import pytest

from raysched.core import CostModel
from raysched.strategies import (
    make_custom_schedule,
    make_custom_search,
    make_exponential_schedule,
    make_exponential_search,
    make_geometric_rr_schedule,
    make_geometric_search,
    make_nm_search,
    make_pseudo_exponential_schedule,
    make_randomized_schedule_explicit,
    optimal_base_schedule,
    optimal_base_search,
)


class TestExponentialSearch:
    def test_depths_and_rays(self):
        plan = make_exponential_search(2, 2.0)
        assert plan.excursion(0).depth_outer == 1.0
        assert plan.excursion(5).depth_outer == 32.0
        assert plan.excursion(5).ray == 1
        assert plan.excursion(0).depth_inner == 0.0
        assert plan.cost_model is CostModel.STANDARD

    def test_too_few_rays(self):
        with pytest.raises(ValueError):
            make_exponential_search(1, 2.0)

    def test_base_must_exceed_one(self):
        with pytest.raises(ValueError):
            make_exponential_search(2, 1.0)

    def test_optimal_base(self):
        assert optimal_base_search(2) == 2.0
        assert optimal_base_search(3) == 1.5
        with pytest.raises(ValueError):
            optimal_base_search(1)


class TestNmSearch:
    def test_inner_depths_kick_in_after_first_cycle(self):
        plan = make_nm_search(2, 2.0, 3)
        assert plan.excursion(1).depth_inner == 0.0
        assert plan.excursion(2).depth_inner == 1.0
        assert plan.excursion(2).depth_outer == 4.0
        assert plan.traversals == 3

    def test_sweep_count_validated(self):
        with pytest.raises(ValueError):
            make_nm_search(2, 2.0, 0)


class TestGeometricSearch:
    def test_phase_frontiers(self):
        plan = make_geometric_search(2, 2.0)
        assert plan.excursion(0).depth_inner == 0.0
        assert plan.excursion(0).depth_outer == 1.0
        assert plan.excursion(2).depth_inner == 1.0
        assert plan.excursion(2).depth_outer == 3.0
        assert plan.excursion(4).depth_inner == 3.0
        assert plan.excursion(4).depth_outer == 7.0
        assert plan.excursion(3).ray == 1

    def test_expanding_cost_model(self):
        assert make_geometric_search(3, 1.5).cost_model is CostModel.EXPANDING


class TestExponentialSchedule:
    def test_round_robin_lengths(self):
        plan = make_exponential_schedule(2, 2.0)
        assert plan.job_spec(3) == (1, 8.0)
        assert plan.job_spec(0) == (0, 1.0)
        assert not plan.interruptible

    def test_optimal_base(self):
        assert optimal_base_schedule(1) == 2.0
        assert optimal_base_schedule(4) == 1.25


class TestPseudoExponentialSchedule:
    def test_phase_repeats(self):
        plan = make_pseudo_exponential_schedule(2, 2.0, 3)
        assert plan.job_spec(0) == (0, 1.0)
        assert plan.job_spec(2) == (0, 1.0)
        assert plan.job_spec(3) == (1, 2.0)
        assert plan.job_spec(7) == (0, 4.0)

    def test_repeat_count_validated(self):
        with pytest.raises(ValueError):
            make_pseudo_exponential_schedule(2, 2.0, 0)


class TestGeometricRrSchedule:
    def test_phase_lengths(self):
        plan = make_geometric_rr_schedule(2, 2.0)
        assert plan.job_spec(1) == (1, 1.0)
        assert plan.job_spec(5) == (1, 4.0)
        assert plan.interruptible


class TestRandomizedSchedule:
    def test_explicit_lengths(self):
        plan = make_randomized_schedule_explicit(2, 2.0, (1, 0), 0.5)
        problem, length = plan.job_spec(3)
        assert problem == 0
        assert length == pytest.approx(2.0**3.5)

    def test_permutation_validated(self):
        with pytest.raises(ValueError):
            make_randomized_schedule_explicit(2, 2.0, (0, 0), 0.5)

    def test_epsilon_range_validated(self):
        with pytest.raises(ValueError):
            make_randomized_schedule_explicit(2, 2.0, (0, 1), 1.0)


class TestCustomFactories:
    def test_custom_tags(self):
        from raysched.core import Excursion

        search = make_custom_search(2, lambda i: Excursion(0, 0.0, 1.0))
        sched = make_custom_schedule(1, lambda i: (0, 1.0))
        assert search.tag.kind == "custom"
        assert sched.tag.kind == "custom"
