"""Adversarial evaluation of interleaved schedules.

Acceleration ratios are measured by sweeping query times placed just
after job completions, crediting each problem only with work finished
strictly before the query, and taking the worst time-to-credit ratio
over all problems.  Preemption and contract counts live here too;
their logarithmic ceilings are defined with the closed-form table in
numopt and re-exported here.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .core import DEFAULT_HORIZON, Job, RatioReport, SchedulePlan, ScheduleTrajectory
from .numopt import contract_bound, preemption_bound  # noqa: F401  (re-exported)


class SemanticsKind(Enum):
    LONGEST_COMPLETED = "longest-completed"
    R_TIMES_COMPLETED = "r-times-completed"
    RTH_LARGEST_COMPLETED = "rth-largest-completed"
    AGGREGATE_INTERRUPTIBLE = "aggregate-interruptible"


@dataclass(frozen=True)
class ScheduleSemantics:
    """What counts as trusted progress on a problem at query time."""

    kind: SemanticsKind
    r: int = 1

    def __post_init__(self) -> None:
        if self.r < 1:
            raise ValueError(f"r must be >= 1, got {self.r}")


def longest_completed() -> ScheduleSemantics:
    """Credit: the longest run completed for the problem."""
    return ScheduleSemantics(SemanticsKind.LONGEST_COMPLETED)


def r_times_completed(r: int) -> ScheduleSemantics:
    """Credit: the largest length whose run completed at least r times
    for the problem; repeats must have that exact length."""
    return ScheduleSemantics(SemanticsKind.R_TIMES_COMPLETED, r)


def rth_largest_completed(r: int) -> ScheduleSemantics:
    """Credit: the r-th largest completed run length (with multiplicity);
    a result is trusted once r completed runs are at least that long."""
    return ScheduleSemantics(SemanticsKind.RTH_LARGEST_COMPLETED, r)


def aggregate_interruptible() -> ScheduleSemantics:
    """Credit: total time dedicated to the problem (resumable work)."""
    return ScheduleSemantics(SemanticsKind.AGGREGATE_INTERRUPTIBLE)


def _jobs(plan: SchedulePlan, count: int) -> list[Job]:
    """First `count` jobs with cumulative start/finish annotations."""
    if count < 0:
        raise ValueError(f"job count must be >= 0, got {count}")
    jobs: list[Job] = []
    clock = 0.0
    for i in range(count):
        problem, length = plan.job_spec(i)
        finish = clock + length
        if not math.isfinite(finish):
            raise ValueError(f"schedule clock overflowed at job {i}")
        jobs.append(Job(problem=problem, length=length, start=clock, finish=finish))
        clock = finish
    return jobs


class _ProblemState:
    """Incrementally queryable per-problem completion record."""

    __slots__ = ("longest", "total", "counts", "sorted_lengths")

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
                length
                for length, count in self.counts.items()
                if count >= semantics.r
            ]
            return max(eligible, default=0.0)
        if len(self.sorted_lengths) < semantics.r:
            return 0.0
        return self.sorted_lengths[-semantics.r]


def _check_advance(start: float, finish: float, length: float, i: int) -> None:
    """A walk to a time stops at job i if its clock absorbs the length:
    Job's span rule, then a plain stall for lengths under its 1e-12
    absolute tolerance."""
    Job.check_span(start, finish, length)
    if finish == start:
        raise ValueError(f"schedule clock stopped advancing at job {i}")


def ell(
    plan: SchedulePlan,
    problem: int,
    t: float,
    semantics: ScheduleSemantics,
) -> float:
    """Trusted progress on `problem` by wall-clock time t.

    Runs finishing exactly at t count.  Under aggregate semantics the
    run in progress at t contributes its elapsed portion, since that
    work is resumable.
    """
    if not (0 <= problem < plan.problem_count):
        raise ValueError(f"problem {problem} outside [0, {plan.problem_count})")
    if t < 0:
        raise ValueError(f"query time must be >= 0, got {t}")
    state = _ProblemState()
    partial = 0.0
    clock = 0.0
    i = 0
    while clock < t:
        p, length = plan.job_spec(i)
        finish = clock + length
        if finish <= t:
            if p == problem:
                state.add(length)
        else:
            if p == problem and semantics.kind is SemanticsKind.AGGREGATE_INTERRUPTIBLE:
                partial = t - clock
            break
        start, clock = clock, finish
        if not math.isfinite(clock):
            raise ValueError("schedule clock overflowed before query time")
        _check_advance(start, clock, length, i)
        i += 1
    return state.credit(semantics) + partial


# Semantics whose per-problem credit is a running reduction of the
# problem's lengths, scanned on the trajectory's columns; the rank-based
# ones walk _jobs with a _ProblemState per problem.
_SCANNED = {
    SemanticsKind.LONGEST_COMPLETED: np.maximum.accumulate,
    SemanticsKind.AGGREGATE_INTERRUPTIBLE: np.add.accumulate,
}


def _scanned_credit(problem: np.ndarray, length: np.ndarray, n: int,
                    kind: SemanticsKind) -> np.ndarray:
    """The least problem credit just before each job: each job's length
    sits in its problem's column of a (jobs + 1) x n table, the scan runs
    down the rows in job order, and job j reads row j."""
    table = np.zeros((len(problem) + 1, n))
    table[np.arange(1, len(problem) + 1), problem] = length
    return _SCANNED[kind](table, axis=0)[:-1].min(axis=1)


def acceleration_ratio(
    plan: SchedulePlan,
    semantics: ScheduleSemantics = ScheduleSemantics(SemanticsKind.LONGEST_COMPLETED),
    horizon: int = DEFAULT_HORIZON,
) -> RatioReport:
    """Worst ratio of query time to the least-served problem's credit.

    Query times sit just after each job completion (the adversary
    interrupts immediately after a finish, so work completing exactly
    then is not yet usable; under aggregate semantics the interrupted
    run contributes nothing because its completion was preempted).
    Times at which some problem still has zero credit are skipped: the
    ratio is measured only once every problem has a trusted result,
    which matches evaluating the schedule from its effective start.
    """
    n = plan.problem_count
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if semantics.kind in _SCANNED:
        trajectory = ScheduleTrajectory(plan)
        trajectory.reach(horizon)
        finish = trajectory.finish[:horizon]
        credit = _scanned_credit(trajectory.problem[:horizon],
                                 trajectory.length[:horizon], n, semantics.kind)
    else:
        jobs = _jobs(plan, horizon)
        states = [_ProblemState() for _ in range(n)]
        credits: list[float] = []
        for job in jobs:
            credits.append(min(states[p].credit(semantics) for p in range(n)))
            states[job.problem].add(job.length)
        finish = np.array([job.finish for job in jobs])
        credit = np.array(credits, dtype=float)
    scored = credit > 0.0
    skipped = len(credit) - int(np.count_nonzero(scored))
    with np.errstate(over="ignore"):
        seq = finish[scored] / credit[scored]
    if not len(seq):
        return RatioReport(
            finite_sup=math.inf,
            witness=None,
            horizon=horizon,
            note="some problem never accumulates credit within the horizon",
        )
    worst = int(seq.argmax())  # the first, as a strict > sweep keeps it
    best, witness = float(seq[worst]), float(finish[scored][worst])
    limit_sup, asymptotic = analytic_schedule_limits(plan, semantics)
    convergence_gap: Optional[float] = None
    if limit_sup is None:
        asymptotic = float(seq[-max(1, len(seq) // 4):].max())
        convergence_gap = abs(float(seq[-1]) - float(seq[len(seq) // 2]))
    else:
        reference = asymptotic if asymptotic is not None else limit_sup
        convergence_gap = abs(reference - float(seq[-min(len(seq), n):].max()))
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


def analytic_schedule_limits(
    plan: SchedulePlan, semantics: ScheduleSemantics
) -> tuple[Optional[float], Optional[float]]:
    """(limit_sup, asymptotic) for tagged plan families, or (None, None).

    Exponential and repeated-phase schedules have candidate ratios that
    increase toward their supremum; the interruptible round-robin's
    worst candidate is the earliest full phase and later phases decay
    toward a smaller asymptote.
    """
    tag = plan.tag
    b = tag.base
    n = plan.problem_count
    if b is None:
        return None, None
    kind = semantics.kind
    r = semantics.r
    if tag.kind == "exponential":
        if kind is SemanticsKind.LONGEST_COMPLETED:
            value = b ** (n + 1) / (b - 1.0)
            return value, value
        if kind is SemanticsKind.RTH_LARGEST_COMPLETED:
            value = b ** (r * n + 1) / (b - 1.0)
            return value, value
        return None, None
    if tag.kind == "pseudo" and kind is SemanticsKind.R_TIMES_COMPLETED:
        repeats = tag.redundancy
        if r <= repeats:
            at_rth_repeat = b**n * (repeats / (b - 1.0) + r)
            at_last_repeat = b ** (n - 1) * (repeats / (b - 1.0) + repeats)
            value = max(at_rth_repeat, at_last_repeat)
            return value, value
        return None, None
    if tag.kind == "geometric-rr" and kind is SemanticsKind.AGGREGATE_INTERRUPTIBLE:
        return n * (b + 1.0), n * b
    return None, None


def contract_count(plan: SchedulePlan, t: float) -> int:
    """Number of runs started strictly before time t."""
    if t < 0:
        raise ValueError(f"time must be >= 0, got {t}")
    count = 0
    clock = 0.0
    while clock < t:
        _, length = plan.job_spec(count)
        count += 1
        start, clock = clock, clock + length
        if not math.isfinite(clock):
            raise ValueError("schedule clock overflowed before time t")
        _check_advance(start, clock, length, count - 1)
    return count


def preemption_count(plan: SchedulePlan, t: float) -> int:
    """Number of run starts (scheduler switches) strictly before time t
    on an interruptible plan."""
    if not plan.interruptible:
        raise ValueError("preemption accounting requires an interruptible plan")
    return contract_count(plan, t)
