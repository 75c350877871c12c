"""Adversarial evaluation of interleaved schedules.

Acceleration ratios are measured by sweeping query times placed just
after job completions, crediting each problem only with work finished
strictly before the query, and taking the worst time-to-credit ratio
over all problems.  Tagged plans get their family's analytic limit from
the table of closed forms in numopt.  Preemption and contract counts
live here too; their logarithmic ceilings are defined with that table
and re-exported here.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import DEFAULT_HORIZON, RatioReport, SchedulePlan, ScheduleTrajectory, jobs_before
from .numopt import contract_bound, family_limits, preemption_bound  # noqa: F401  (re-exported)


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


def _credit_table(problem: np.ndarray, length: np.ndarray, n: int,
                  semantics: ScheduleSemantics) -> np.ndarray:
    """Every problem's credit after each prefix of the jobs: row j covers
    jobs 0..j-1.  Each job puts an event in its problem's column of a
    (jobs + 1) x n table and a running scan goes down the rows: a sum for
    aggregate credit, a max for the rest.  The event is the job's length,
    except under r-times credit (the length only on the r-th run of its
    length) and r-th largest credit (the problem's r-th largest length so
    far, which never decreases)."""
    kind = semantics.kind
    events = length
    if kind is SemanticsKind.R_TIMES_COMPLETED:
        events = np.where(_run_ordinals(problem, length) == semantics.r, length, 0.0)
    elif kind is SemanticsKind.RTH_LARGEST_COMPLETED:
        events = _rth_largest(problem, length, n, semantics.r)
    table = np.zeros((len(length) + 1, n))
    table[np.arange(1, len(length) + 1), problem] = events
    if kind is SemanticsKind.AGGREGATE_INTERRUPTIBLE:
        return np.add.accumulate(table, axis=0)
    return np.maximum.accumulate(table, axis=0)


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
    credit = _credit_table(trajectory.problem[:horizon], trajectory.length[:horizon],
                           n, semantics)[:-1].min(axis=1)
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
    limits = family_limits(plan, semantics.kind.value, n, semantics.r)
    if limits is None:
        limit_sup = None
        asymptotic = float(seq[-max(1, len(seq) // 4):].max())
        convergence_gap = abs(float(seq[-1]) - float(seq[len(seq) // 2]))
    else:
        limit_sup, asymptotic = limits
        convergence_gap = abs(asymptotic - float(seq[-min(len(seq), n):].max()))
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


def contract_count(plan: SchedulePlan, t: float) -> int:
    """Number of runs started strictly before time t."""
    return sum(1 for _ in jobs_before(plan, t))


def preemption_count(plan: SchedulePlan, t: float) -> int:
    """Number of run starts (scheduler switches) strictly before time t
    on an interruptible plan."""
    if not plan.interruptible:
        raise ValueError("preemption accounting requires an interruptible plan")
    return contract_count(plan, t)
