"""Scalar reference sweep of a schedule plan, the oracle for the columnar
acceleration_ratio in raysched.sched_eval.

Jobs are generated one index at a time through plan.job_spec and
validated as Job records, and every query takes the minimum credit over
per-problem completion records, exactly as the evaluator did before it
read ScheduleTrajectory columns: the same float operations in the same
order, so reports and errors must agree with the package bit for bit.
"""

from __future__ import annotations

import bisect
import math
from typing import Optional

from raysched.core import Job, RatioReport, SchedulePlan
from raysched.sched_eval import (
    ScheduleSemantics,
    SemanticsKind,
    analytic_schedule_limits,
)


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
    limit_sup, asymptotic = analytic_schedule_limits(plan, semantics)
    if limit_sup is None:
        asymptotic = max(seq[-max(1, len(seq) // 4):])
        convergence_gap = abs(seq[-1] - seq[len(seq) // 2])
    else:
        reference = asymptotic if asymptotic is not None else limit_sup
        convergence_gap = abs(reference - max(seq[-min(len(seq), n):]))
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
