"""Adversarial evaluation of interleaved schedules.

Acceleration ratios are measured by sweeping query times placed just
after job completions, crediting each problem only with work finished
strictly before the query, and taking the worst time-to-credit ratio
over all problems.  Tagged plans get their family's analytic limit from
the table of closed forms in numopt.  Preemption and contract counts
live here too.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import DEFAULT_HORIZON, RatioReport, SchedulePlan, ScheduleTrajectory, jobs_before
from .numopt import sweep_report


class SemanticsKind(Enum):
    LONGEST_COMPLETED = "longest-completed"
    R_TIMES_COMPLETED = "r-times-completed"
    RTH_LARGEST_COMPLETED = "rth-largest-completed"
    AGGREGATE_INTERRUPTIBLE = "aggregate-interruptible"
    PROBABILISTIC_COMPLETED = "probabilistic-completed"


@dataclass(frozen=True)
class ScheduleSemantics:
    """What counts as trusted progress on a problem at query time."""

    kind: SemanticsKind
    r: int = 1
    p: float = 1.0

    def __post_init__(self) -> None:
        if self.r < 1:
            raise ValueError(f"r must be >= 1, got {self.r}")
        if not 0 < self.p <= 1:
            raise ValueError(f"probability must be in (0, 1], got {self.p}")


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


def probabilistic_completed(p: float) -> ScheduleSemantics:
    """Credit: the expected payoff when each completed run pays off only
    with probability p, the series over the problem's runs, longest
    first, of p(1-p)^(j-1) times the length."""
    return ScheduleSemantics(SemanticsKind.PROBABILISTIC_COMPLETED, p=p)


def _run_ordinals(problem: np.ndarray, length: np.ndarray) -> np.ndarray:
    """Each job's 1-based ordinal among the runs of its (problem, length)
    pair, in job order: a stable sort groups the pairs."""
    order = np.lexsort((length, problem))
    p, x = problem[order], length[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (p[1:] != p[:-1]) | (x[1:] != x[:-1])
    rank = np.arange(len(order))
    ordinal = np.empty(len(order), dtype=np.intp)
    ordinal[order] = rank - np.maximum.accumulate(np.where(first, rank, 0)) + 1
    return ordinal


def _rth_largest(problem: np.ndarray, length: np.ndarray, n: int, r: int) -> list[float]:
    """The r-th largest length of each job's problem once the job has
    completed, or 0.0 while the problem has fewer than r runs: the root
    of the problem's size-r min-heap."""
    heaps: list[list[float]] = [[] for _ in range(n)]
    events = []
    for p, x in zip(problem.tolist(), length.tolist()):
        heap = heaps[p]
        if len(heap) < r:
            heapq.heappush(heap, x)
        else:
            heapq.heappushpop(heap, x)
        events.append(heap[0] if len(heap) == r else 0.0)
    return events


def _expected_credit(problem: np.ndarray, length: np.ndarray, n: int,
                     p: float) -> np.ndarray:
    """Each job's problem's expected credit once the job has completed:
    its runs folded from the shortest as c = p * length + (1 - p) * c.
    A run shorter than its problem's longest enters at its rank and the
    fold is redone from there; the other runs only extend the fold."""
    q, events = 1.0 - p, np.empty(len(length))
    for jobs in filter(len, (np.flatnonzero(problem == i) for i in range(n))):
        column = length[jobs]
        falls = np.flatnonzero(column < np.maximum.accumulate(column)).tolist()
        bounds, column = [0, *falls, len(column)], column.tolist()
        lengths, folds = [], [0.0]  # folds[k]: the fold of the k shortest
        for start, end in zip(bounds, bounds[1:]):
            rank = bisect_right(lengths, column[start])
            lengths[rank:] = [column[start], *lengths[rank:], *column[start + 1:end]]
            del folds[rank + 1:]
            c = folds[rank]
            for x in lengths[rank:]:
                c = p * x + q * c
                folds.append(c)
            events[jobs[start:end]] = folds[start - end:]
    return events


def _credit_table(problem: np.ndarray, length: np.ndarray, n: int,
                  semantics: ScheduleSemantics) -> np.ndarray:
    """Every problem's credit after each prefix of the jobs, problem-major:
    column j covers jobs 0..j-1.  Each job puts an event in its problem's
    row of an n x (jobs + 1) table and a running scan goes along each
    row, one contiguous row per problem: a sum for aggregate credit, a
    max for the rest.  The event is the job's length, except under
    r-times credit (the length only on the r-th run of its length),
    r-th largest credit (the problem's r-th largest length so far, which
    never decreases) and probabilistic credit (the problem's expected
    credit so far, which a new run never lowers)."""
    kind = semantics.kind
    events = length
    if kind is SemanticsKind.R_TIMES_COMPLETED:
        events = np.where(_run_ordinals(problem, length) == semantics.r, length, 0.0)
    elif kind is SemanticsKind.RTH_LARGEST_COMPLETED:
        events = _rth_largest(problem, length, n, semantics.r)
    elif kind is SemanticsKind.PROBABILISTIC_COMPLETED:
        events = _expected_credit(problem, length, n, semantics.p)
    table = np.zeros((n, len(length) + 1))
    table[problem, np.arange(1, len(length) + 1)] = events
    if kind is SemanticsKind.AGGREGATE_INTERRUPTIBLE:
        return np.add.accumulate(table, axis=1)
    return np.fmax.accumulate(table, axis=1)


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
    trajectory = ScheduleTrajectory(plan)
    trajectory.reach(horizon)
    finish = trajectory.finish[:horizon]
    table = _credit_table(trajectory.problem[:horizon], trajectory.length[:horizon],
                          n, semantics)[:, :-1]
    credit = table[0]  # the least credit at each query, taken in place row by row
    for row in table[1:]:
        np.minimum(credit, row, out=credit)
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
    kind, times = semantics.kind, finish[scored]
    x = semantics.p if kind is SemanticsKind.PROBABILISTIC_COMPLETED else semantics.r
    note = (f"{skipped} early completion(s) skipped while some problem had zero credit"
            if skipped else None)
    return sweep_report(plan, kind.value, x, seq, lambda i: float(times[i]), horizon, note)


def contract_count(plan: SchedulePlan, t: float) -> int:
    """Number of runs started strictly before time t."""
    return sum(1 for _ in jobs_before(plan, t))


def preemption_count(plan: SchedulePlan, t: float) -> int:
    """Number of run starts (scheduler switches) strictly before time t
    on an interruptible plan."""
    if not plan.interruptible:
        raise ValueError("preemption accounting requires an interruptible plan")
    return contract_count(plan, t)
