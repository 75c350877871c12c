"""Unit tests for the schedule evaluator.

The round-robin doubling schedule on two problems runs jobs
(0,1) (1,1) (0,2) (1,2) (0,4) (1,4) ... back to back, finishing at
1, 2, 4, 6, 10, 14, ...; most oracles below are read off that timeline.
"""

import math

import pytest

import reference_sched as ref
from raysched.core import ScheduleTrajectory, jobs_before
from raysched.numopt import contract_bound, preemption_bound
from raysched.sched_eval import (
    ScheduleSemantics,
    SemanticsKind,
    acceleration_ratio,
    aggregate_interruptible,
    contract_count,
    longest_completed,
    preemption_count,
    r_times_completed,
    rth_largest_completed,
)
from raysched.strategies import (
    make_exponential_schedule,
    make_geometric_rr_schedule,
    make_pseudo_exponential_schedule,
)


class TestJobs:
    TIMELINE = [(0, 1.0, 0.0, 1.0), (1, 2.0, 1.0, 3.0), (0, 4.0, 3.0, 7.0), (1, 8.0, 7.0, 15.0)]

    def test_back_to_back_timeline(self):
        trajectory = ScheduleTrajectory(make_exponential_schedule(2, 2.0))
        trajectory.reach(4)
        finish = trajectory.finish[:4].tolist()
        assert list(zip(trajectory.problem[:4].tolist(), trajectory.length[:4].tolist(),
                        [0.0] + finish[:-1], finish)) == self.TIMELINE

    def test_walk_to_a_time_reads_the_same_timeline(self):
        assert list(jobs_before(make_exponential_schedule(2, 2.0), 15.0)) == self.TIMELINE
        assert [(j.problem, j.length, j.start, j.finish) for j in ref.jobs(
            make_exponential_schedule(2, 2.0), 4)] == self.TIMELINE


class TestEll:
    """A problem's credit at wall-clock time t, read off the timeline by
    hand, against reference_sched.ell, the oracle that replays the
    randomized schedule's Monte Carlo trials."""

    def test_aggregate_includes_portion_of_running_job(self):
        plan = make_geometric_rr_schedule(2, 2.0)
        assert ref.ell(plan, 0, 2.5, aggregate_interruptible()) == pytest.approx(1.5)
        assert ref.ell(plan, 1, 2.5, aggregate_interruptible()) == pytest.approx(1.0)

    def test_run_finishing_exactly_at_t_counts(self):
        plan = make_geometric_rr_schedule(2, 2.0)
        assert ref.ell(plan, 0, 1.0, longest_completed()) == 1.0
        assert ref.ell(plan, 1, 6.0, aggregate_interruptible()) == pytest.approx(3.0)

    def test_longest_completed(self):
        plan = make_geometric_rr_schedule(2, 2.0)
        assert ref.ell(plan, 0, 7.0, longest_completed()) == 2.0

    def test_r_times_requires_exact_length_repeats(self):
        # Pseudo schedule n=1 r=2: lengths 1,1,2,2,4,4 finishing at
        # 1,2,4,6,10,14.  At t=6 length 2 has completed twice.
        plan = make_pseudo_exponential_schedule(1, 2.0, 2)
        assert ref.ell(plan, 0, 6.0, r_times_completed(2)) == 2.0
        assert ref.ell(plan, 0, 4.0, r_times_completed(2)) == 1.0

    def test_rth_largest(self):
        plan = make_exponential_schedule(1, 2.0)
        # Completed lengths by t=7: 1, 2, 4.
        assert ref.ell(plan, 0, 7.0, rth_largest_completed(2)) == 2.0
        assert ref.ell(plan, 0, 7.0, rth_largest_completed(4)) == 0.0

    def test_validation(self):
        plan = make_exponential_schedule(1, 2.0)
        with pytest.raises(ValueError):
            ref.ell(plan, 1, 1.0, longest_completed())
        with pytest.raises(ValueError):
            ref.ell(plan, 0, -1.0, longest_completed())
        with pytest.raises(ValueError):
            ScheduleSemantics(SemanticsKind.LONGEST_COMPLETED, r=0)


class TestAccelerationRatio:
    def test_exponential_limit(self):
        report = acceleration_ratio(make_exponential_schedule(1, 2.0))
        assert report.limit_sup == pytest.approx(4.0, abs=1e-9)
        assert report.finite_sup <= report.limit_sup
        assert report.finite_sup == pytest.approx(4.0, abs=1e-6)
        assert "skipped" in report.note

    def test_queries_are_strict_about_simultaneous_finishes(self):
        # At the witness the interrupted run contributes nothing: for the
        # two-problem doubling round-robin the worst query is t=6, where
        # problem 1's second allotment finishes exactly at t and is not
        # counted, leaving credit 1 and ratio 6.  Counting it (as the
        # wall-clock ell does) would give min credit 3 and ratio 2.
        plan = make_geometric_rr_schedule(2, 2.0)
        report = acceleration_ratio(plan, aggregate_interruptible())
        assert report.finite_sup == pytest.approx(6.0, abs=1e-9)
        assert report.witness == pytest.approx(6.0)
        assert ref.ell(plan, 1, 6.0, aggregate_interruptible()) == pytest.approx(3.0)

    def test_aggregate_asymptote(self):
        report = acceleration_ratio(
            make_geometric_rr_schedule(2, 2.0), aggregate_interruptible()
        )
        assert report.limit_sup == pytest.approx(6.0, abs=1e-9)
        assert report.asymptotic == pytest.approx(4.0, abs=1e-9)

    def test_pseudo_repeat_limit(self):
        report = acceleration_ratio(
            make_pseudo_exponential_schedule(1, 2.0, 2), r_times_completed(2)
        )
        assert report.limit_sup == pytest.approx(8.0, abs=1e-9)
        assert report.finite_sup == pytest.approx(8.0, abs=1e-6)

    def test_pseudo_gap_spans_one_round_of_repeats(self):
        # One problem, each length run 3 times: a round is n * r = 3 jobs.
        # At H=200 the sweep has reached the limit 12 exactly; the last
        # job alone (a phase's first repeat, no 3-times credit yet) sits
        # 2 below it, which a gap over the last n jobs would report.
        report = acceleration_ratio(
            make_pseudo_exponential_schedule(1, 2.0, 3), r_times_completed(3), 200
        )
        assert report.finite_sup == report.limit_sup == 12.0
        assert report.convergence_gap == 0.0
        assert report.note == "3 early completion(s) skipped while some problem had zero credit"

    def test_short_horizon_notes_an_unconverged_tail(self):
        report = acceleration_ratio(make_exponential_schedule(2, 1.5), longest_completed(), 5)
        assert (report.finite_sup, report.limit_sup) == (5.861111111111111, 6.75)
        assert report.convergence_gap > 0.01 * report.asymptotic
        assert report.note == ("2 early completion(s) skipped while some problem had zero "
                               "credit; tail has not converged to the analytic value yet")

    def test_rth_largest_limit(self):
        report = acceleration_ratio(
            make_exponential_schedule(1, 1.5), rth_largest_completed(2)
        )
        assert report.limit_sup == pytest.approx(6.75, abs=1e-9)

    def test_repeat_semantics_on_a_no_repeat_plan_earns_nothing(self):
        # r-times credit requires a length to finish r times.  A plain
        # exponential schedule runs every length once, so the problem
        # never accumulates credit and the ratio is unbounded.
        report = acceleration_ratio(
            make_exponential_schedule(1, 2.0), r_times_completed(2), horizon=60
        )
        assert report.finite_sup == math.inf
        assert report.limit_sup is None
        assert report.asymptotic is None
        assert "credit" in report.note

    def test_horizon_validated(self):
        with pytest.raises(ValueError):
            acceleration_ratio(make_exponential_schedule(1, 2.0), horizon=0)


class TestCounts:
    def test_contract_count_counts_started_runs(self):
        plan = make_exponential_schedule(1, 2.0)
        assert contract_count(plan, 0.0) == 0
        assert contract_count(plan, 5.0) == 3
        assert contract_count(plan, 7.0) == 3
        assert contract_count(plan, 7.0 + 1e-9) == 4

    def test_contract_bound_value(self):
        assert contract_bound(2.0, 5.0) == pytest.approx(math.log2(6.0) + 1.0)

    def test_preemption_requires_interruptible(self):
        with pytest.raises(ValueError, match="interruptible"):
            preemption_count(make_exponential_schedule(1, 2.0), 5.0)

    def test_preemption_count_value(self):
        plan = make_geometric_rr_schedule(2, 2.0)
        # Starts at 0, 1, 2, 4, 6, 10, ...
        assert preemption_count(plan, 5.0) == 4

    def test_preemption_bound_value(self):
        assert preemption_bound(2, 2.0, 5.0) == pytest.approx(
            2.0 * math.log2(3.5) + 2.0
        )

    def test_bounds_dominate_counts_on_grid(self):
        splan = make_geometric_rr_schedule(3, 1.5)
        cplan = make_exponential_schedule(1, 1.5)
        for t in (0.5, 2.0, 17.0, 300.0, 9000.0):
            assert preemption_count(splan, t) <= preemption_bound(3, 1.5, t) + 1e-9
            assert contract_count(cplan, t) <= contract_bound(1.5, t) + 1e-9


@pytest.mark.parametrize("t", [math.nan, -1.0])
@pytest.mark.parametrize(
    "walk",
    [
        lambda t: contract_count(make_exponential_schedule(1, 2.0), t),
        lambda t: preemption_count(make_geometric_rr_schedule(1, 2.0), t),
        lambda t: jobs_before(make_exponential_schedule(1, 2.0), t),  # not iterated
    ],
    ids=["contract_count", "preemption_count", "jobs_before"],
)
def test_walks_to_a_time_reject_a_time_that_is_not_nonnegative(walk, t):
    with pytest.raises(ValueError, match=f"^time must be >= 0, got {t}$"):
        walk(t)
