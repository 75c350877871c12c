"""Unit tests for the search-plan evaluator.

Visit costs are hand-walked for small plans: with two rays and base 2
the excursion depths are 1, 2, 4, 8, ... alternating rays, and every
excursion walks out and back, so cumulative costs are easy to track by
hand.  Those numbers anchor the simulator before any closed form is
trusted.
"""

import math

import pytest

from raysched.core import CostModel
from raysched.numopt import turn_bound
from raysched.search_eval import (
    FIRST_VISIT,
    SearchSemantics,
    competitive_ratio,
    cost_to_visit,
    rth_visit,
    turn_count,
    visit_cost_stream,
)
from raysched.strategies import (
    make_exponential_search,
    make_geometric_search,
    make_nm_search,
)


class TestVisitCosts:
    # Plan m=2, b=2: excursions (ray, depth) = (0,1), (1,2), (0,4), (1,8), (0,16)
    # with costs 2, 4, 8, 16, 32.  Target at distance 1 on ray 0 is passed
    # outward at cost 1, outward again at 6+1=7, inward at 6+4+3=13, then
    # outward at 30+1=31.

    def test_pass_sequence_on_ray_zero(self):
        plan = make_exponential_search(2, 2.0)
        assert [cost_to_visit(plan, (0, 1.0), k) for k in (1, 2, 3, 4)] == [
            1.0,
            7.0,
            13.0,
            31.0,
        ]

    def test_outward_only_drops_inward_passes(self):
        plan = make_exponential_search(2, 2.0)
        assert [
            cost_to_visit(plan, (0, 1.0), k, outward_only=True) for k in (1, 2, 3)
        ] == [1.0, 7.0, 31.0]

    def test_beyond_mode_skips_the_exact_endpoint(self):
        # A target just past depth 1 is first covered by the next ray-0
        # excursion, at cumulative cost 6 plus the approach.
        plan = make_exponential_search(2, 2.0)
        assert cost_to_visit(plan, (0, 1.0), 1, beyond=True) == 7.0

    def test_stream_resumes_cumulative_cost_after_skipped_prefix(self):
        plan = make_exponential_search(2, 2.0)
        first = next(iter(visit_cost_stream(plan, 0, 1.0, start=2)))
        assert first == 7.0

    def test_unfound_target_is_infinite(self):
        plan = make_geometric_search(2, 2.0)
        # The expanding plan passes each point exactly once.
        assert cost_to_visit(plan, (0, 2.0), 1) == 4.0
        assert cost_to_visit(plan, (0, 2.0), 2, max_excursions=500) == math.inf

    def test_invalid_targets_rejected(self):
        plan = make_exponential_search(2, 2.0)
        with pytest.raises(ValueError):
            cost_to_visit(plan, (2, 1.0), 1)
        with pytest.raises(ValueError):
            cost_to_visit(plan, (0, 0.0), 1)
        with pytest.raises(ValueError):
            cost_to_visit(plan, (0, 1.0), 0)

    def test_resweep_plan_with_single_sweep_walks_identically(self):
        exp = make_exponential_search(2, 2.0)
        nm = make_nm_search(2, 2.0, 1)
        for ray in (0, 1):
            for d in (0.7, 3.2, 5.0):
                for k in (1, 2, 3):
                    assert cost_to_visit(exp, (ray, d), k) == cost_to_visit(
                        nm, (ray, d), k
                    )


class TestSemantics:
    def test_required_visits_validated(self):
        with pytest.raises(ValueError):
            SearchSemantics(required_visits=0)
        assert rth_visit(3).required_visits == 3
        assert FIRST_VISIT.required_visits == 1


class TestCompetitiveRatio:
    def test_exponential_limit_at_optimal_base(self):
        report = competitive_ratio(make_exponential_search(2, 2.0))
        assert report.limit_sup == pytest.approx(9.0, abs=1e-9)
        assert report.finite_sup <= report.limit_sup
        assert report.finite_sup == pytest.approx(9.0, abs=1e-6)

    def test_exponential_limit_generic_base(self):
        report = competitive_ratio(make_exponential_search(3, 1.5))
        assert report.limit_sup == pytest.approx(1 + 2 * 1.5**3 / 0.5, abs=1e-9)

    def test_second_visit_limit(self):
        # Even visit counts finish on an inward pass: 2 b^(m+1)/(b-1) - 1.
        report = competitive_ratio(make_exponential_search(2, 2.0), rth_visit(2))
        assert report.limit_sup == pytest.approx(15.0, abs=1e-9)
        assert report.finite_sup <= report.limit_sup + 1e-12

    def test_expanding_plan_worst_and_asymptote(self):
        report = competitive_ratio(make_geometric_search(2, 2.0))
        assert report.finite_sup == pytest.approx(6.0, abs=1e-9)
        assert report.limit_sup == pytest.approx(6.0, abs=1e-9)
        assert report.asymptotic == pytest.approx(4.0, abs=1e-9)
        # Worst case: the second ray's first frontier, found only after
        # both rays advance through the next phase.
        assert report.witness == (1, 1, 1.0)

    def test_expanding_plan_cannot_revisit(self):
        report = competitive_ratio(make_geometric_search(2, 2.0), rth_visit(2), 50)
        assert math.isinf(report.finite_sup)
        assert "no candidate" in report.note

    def test_resweep_family_limit(self):
        # Three sweeps per excursion, all three passes required.
        report = competitive_ratio(make_nm_search(2, 2.0, 3), rth_visit(3))
        b, m, big_r = 2.0, 2, 3
        steady = ((big_r + 1) * b**m - (big_r - 1)) / (b - 1)
        partial = 1 + (big_r - 1) * (b**m - 1)
        assert report.limit_sup == pytest.approx(steady + partial, abs=1e-9)
        assert report.finite_sup <= report.limit_sup + 1e-12

    def test_horizon_validated(self):
        with pytest.raises(ValueError):
            competitive_ratio(make_exponential_search(3, 2.0), FIRST_VISIT, 2)

    def test_convergence_gap_small_at_default_horizon(self):
        report = competitive_ratio(make_exponential_search(2, 2.0))
        assert report.convergence_gap is not None
        assert report.convergence_gap < 1e-9


class TestTurnCount:
    def test_zero_budget_means_no_turns(self):
        assert turn_count(make_exponential_search(2, 2.0), 0.0) == 0
        assert turn_count(make_geometric_search(2, 2.0), 0.0) == 0

    def test_two_way_charging(self):
        # Far-end arrivals happen at cumulative two-way distances 1, 4, 10.
        plan = make_exponential_search(2, 2.0)
        assert turn_count(plan, 1.0) == 1
        assert turn_count(plan, 9.99) == 2
        assert turn_count(plan, 10.0) == 3

    def test_one_way_charging(self):
        # Outward-only distances at far ends: 1, 3, 7, 15.
        plan = make_exponential_search(2, 2.0)
        assert turn_count(plan, 7.0, one_way=True) == 3
        assert turn_count(plan, 6.99, one_way=True) == 2

    def test_expanding_segment_completions(self):
        plan = make_geometric_search(2, 2.0)
        for i in range(4):
            budget = 2.0 * (2.0 ** (i + 1) - 1.0)
            assert turn_count(plan, budget) == 2 * (i + 1)

    def test_budget_never_exhausted_raises(self):
        plan = make_exponential_search(2, 2.0)
        with pytest.raises(ValueError, match="not exhausted"):
            turn_count(plan, 1e6, max_excursions=5)

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            turn_count(make_exponential_search(2, 2.0), -1.0)


class TestTurnBound:
    def test_standard_values(self):
        assert turn_bound(2, 2.0, 7.0, CostModel.STANDARD) == pytest.approx(4.0)
        assert turn_bound(2, 2.0, 0.0, CostModel.STANDARD) == pytest.approx(1.0)

    def test_expanding_value(self):
        assert turn_bound(2, 2.0, 6.0, CostModel.EXPANDING) == pytest.approx(6.0)

    def test_bound_dominates_count_on_grid(self):
        plan = make_exponential_search(3, 1.5)
        for d in (0.5, 2.0, 17.0, 300.0, 9000.0):
            count = turn_count(plan, d, one_way=True)
            assert count <= turn_bound(3, 1.5, d, CostModel.STANDARD) + 1e-9
