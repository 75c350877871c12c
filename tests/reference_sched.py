"""Scalar reference walks of a schedule plan, the oracles for
raysched.sched_eval, raysched.core and the randomized schedule's Monte
Carlo.

acceleration_ratio generates jobs one index at a time through
plan.job_spec, validates them as Job records and takes every query's
minimum credit over per-problem completion records, exactly as the
evaluator did before it read ScheduleTrajectory columns and its credit
table: the same float operations in the same order, so reports and
errors must agree with the package bit for bit.

expected_contracts is expected_acc_ratio_mc_contracts as a per-job
loop, before the package ran the credit recurrence once per problem's
column and took each query's least credit over a window of events.

jobs_before and contract_count are hand-written walks to a time, the
oracles for the package's one walk (core.jobs_before) and the counts
that read it.  ell, a problem's credit at wall-clock time t, has no
twin in the package; it is the oracle that replays the randomized
schedule's Monte Carlo trials.  The walks keep their own loops, with
these rules in common:
- a time that is not >= 0 (negative or nan) raises "time must be >= 0";
- clock overflow raises "schedule clock overflowed at job i";
- every job that starts before t is checked in full (overflow, Job's
  span rule on the whole length, a stalled clock), including the job
  that spans t, which jobs_before yields whole.
"""

from __future__ import annotations

import bisect
import math
from typing import Optional

from raysched.core import Job, RatioReport, SchedulePlan
from raysched.numopt import family_limits
from raysched.sched_eval import ScheduleSemantics, SemanticsKind
from raysched.strategies import make_exponential_schedule


def jobs(plan: SchedulePlan, count: int) -> list[Job]:
    """First `count` jobs with cumulative start/finish annotations."""
    out: list[Job] = []
    clock = 0.0
    for i in range(count):
        problem, length = plan.job_spec(i)
        finish = clock + length
        if not math.isfinite(finish):
            raise ValueError(f"schedule clock overflowed at job {i}")
        out.append(Job(problem=problem, length=length, start=clock, finish=finish))
        clock = finish
    return out


class ProblemState:
    """Incrementally queryable per-problem completion record."""

    def __init__(self) -> None:
        self.longest = 0.0
        self.total = 0.0
        self.counts: dict[float, int] = {}
        self.sorted_lengths: list[float] = []

    def add(self, length: float) -> None:
        self.longest = max(self.longest, length)
        self.total += length
        self.counts[length] = self.counts.get(length, 0) + 1
        bisect.insort(self.sorted_lengths, length)

    def credit(self, semantics: ScheduleSemantics) -> float:
        kind = semantics.kind
        if kind is SemanticsKind.LONGEST_COMPLETED:
            return self.longest
        if kind is SemanticsKind.AGGREGATE_INTERRUPTIBLE:
            return self.total
        if kind is SemanticsKind.R_TIMES_COMPLETED:
            eligible = [
                length for length, count in self.counts.items()
                if count >= semantics.r
            ]
            return max(eligible, default=0.0)
        if len(self.sorted_lengths) < semantics.r:
            return 0.0
        return self.sorted_lengths[-semantics.r]


def _time_checked(t: float) -> None:
    if not t >= 0:
        raise ValueError(f"time must be >= 0, got {t}")


def _advance(clock: float, length: float, i: int) -> float:
    """The clock after job i, with the checks every walk makes."""
    finish = clock + length
    if not math.isfinite(finish):
        raise ValueError(f"schedule clock overflowed at job {i}")
    Job.check_span(clock, finish, length)
    if finish == clock:
        raise ValueError(f"schedule clock stopped advancing at job {i}")
    return finish


def ell(plan: SchedulePlan, problem: int, t: float, semantics: ScheduleSemantics) -> float:
    """Trusted progress on problem by time t, from a ProblemState."""
    if not (0 <= problem < plan.problem_count):
        raise ValueError(f"problem {problem} outside [0, {plan.problem_count})")
    _time_checked(t)
    state = ProblemState()
    partial = 0.0
    clock = 0.0
    i = 0
    while clock < t:
        p, length = plan.job_spec(i)
        finish = _advance(clock, length, i)
        if finish <= t:
            if p == problem:
                state.add(length)
        else:
            if p == problem and semantics.kind is SemanticsKind.AGGREGATE_INTERRUPTIBLE:
                partial = t - clock
            break
        clock = finish
        i += 1
    return state.credit(semantics) + partial


def contract_count(plan: SchedulePlan, t: float) -> int:
    """Number of runs started strictly before time t."""
    _time_checked(t)
    count = 0
    clock = 0.0
    while clock < t:
        _, length = plan.job_spec(count)
        clock = _advance(clock, length, count)
        count += 1
    return count


def jobs_before(plan: SchedulePlan, horizon: float) -> list[tuple[int, float, float, float]]:
    """(problem, length, start, finish) of every job starting strictly
    before horizon, the last one whole."""
    _time_checked(horizon)
    out: list[tuple[int, float, float, float]] = []
    t = 0.0
    i = 0
    while t < horizon:
        problem, length = plan.job_spec(i)
        finish = _advance(t, length, i)
        out.append((problem, length, t, finish))
        t = finish
        i += 1
    return out


def acceleration_ratio(
    plan: SchedulePlan, semantics: ScheduleSemantics, horizon: int
) -> RatioReport:
    """The per-job min-credit sweep with its report."""
    n = plan.problem_count
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    states = [ProblemState() for _ in range(n)]
    seq: list[float] = []
    best = -math.inf
    witness: Optional[float] = None
    skipped = 0
    for job in jobs(plan, horizon):
        t = job.finish
        credit = min(states[p].credit(semantics) for p in range(n))
        if credit <= 0.0:
            skipped += 1
        else:
            ratio = t / credit
            seq.append(ratio)
            if ratio > best:
                best = ratio
                witness = t
        states[job.problem].add(job.length)
    if witness is None:
        return RatioReport(
            finite_sup=math.inf,
            witness=None,
            horizon=horizon,
            note="some problem never accumulates credit within the horizon",
        )
    limits = family_limits(plan, semantics.kind.value, n, semantics.r)
    if limits is None:
        limit_sup = None
        asymptotic = max(seq[-max(1, len(seq) // 4):])
        convergence_gap = abs(seq[-1] - seq[len(seq) // 2])
    else:
        limit_sup, asymptotic = limits
        convergence_gap = abs(asymptotic - max(seq[-min(len(seq), n):]))
    note = None
    if skipped:
        note = (
            f"{skipped} early completion(s) skipped while some problem had "
            "zero credit"
        )
    return RatioReport(
        finite_sup=best,
        witness=witness,
        horizon=horizon,
        limit_sup=limit_sup,
        asymptotic=asymptotic,
        convergence_gap=convergence_gap,
        note=note,
    )


def expected_contracts(n: int, p: float, b: float, horizon: int) -> RatioReport:
    """The expected-credit sweep over the exponential round-robin, one
    job at a time: query each completion with the least expected credit
    over the problems (once all have completed a run), then update the
    completing problem's credit by c = p * length + q * c."""
    plan = make_exponential_schedule(n, b)
    q = 1.0 - p
    expected_credit = [0.0] * n
    best = -math.inf
    witness = None
    for j, job in enumerate(jobs(plan, horizon)):
        if j >= n:
            credit = min(expected_credit)
            ratio = job.finish / credit
            if ratio > best:
                best = ratio
                witness = job.finish
        expected_credit[job.problem] = p * job.length + q * expected_credit[job.problem]
    if witness is None:
        return RatioReport(
            finite_sup=math.inf,
            witness=None,
            horizon=horizon,
            note="some problem never completes a run within the horizon",
        )
    if p * (b - 1.0) == 0:  # the package names the input that zeroes the denominator
        raise ValueError(f"p * (b - 1) underflows to 0 at p = {p}, b = {b}")
    asymptotic = b ** (n + 1) * (1.0 - q * b**-n) / (p * (b - 1.0))
    limit_sup = None
    if p == 1.0:
        limit_sup, _ = family_limits(plan, SemanticsKind.LONGEST_COMPLETED.value, n, 1)
    return RatioReport(
        finite_sup=best,
        witness=witness,
        horizon=horizon,
        limit_sup=limit_sup,
        asymptotic=asymptotic,
        convergence_gap=abs(best - asymptotic),
    )
