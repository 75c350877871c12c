"""Core data model: plans, excursions, jobs, reports, and claim records.

Everything downstream (evaluators, strategy factories, the claim catalog,
the CLI) is built on the small set of frozen dataclasses defined here.
Plans are lazy: a generator function maps an index to the i-th excursion
or job, so prefixes of any length can be materialized on demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional

ABS_TOL = 1e-9
DEFAULT_HORIZON = 200


class CostModel(Enum):
    """How movement on a ray is charged.

    STANDARD charges every unit of distance actually travelled, including
    re-traversals of previously covered ground.  EXPANDING charges only
    newly covered territory: each excursion extends a frontier and costs
    the length of the extension alone.
    """

    STANDARD = "standard"
    EXPANDING = "expanding"


@dataclass(frozen=True)
class PlanTag:
    """Structural metadata attached to a plan by its factory.

    Evaluators use the tag to select a closed-form limit matching the
    plan family; hand-built plans carry kind="custom" and get purely
    numeric treatment.
    """

    kind: str
    base: Optional[float] = None
    redundancy: int = 1
    epsilon: Optional[float] = None
    permutation: Optional[tuple[int, ...]] = None


@dataclass(frozen=True)
class Excursion:
    """One round trip on a single ray, from depth_inner out to depth_outer.

    depth_inner is the depth already covered on that ray before this
    excursion begins (0 for a first visit); depth_outer is the new
    frontier when it completes.
    """

    ray: int
    depth_inner: float
    depth_outer: float

    def __post_init__(self) -> None:
        if self.ray < 0:
            raise ValueError(f"ray index must be >= 0, got {self.ray}")
        if not (0 <= self.depth_inner < self.depth_outer):
            raise ValueError(
                "need 0 <= depth_inner < depth_outer, got "
                f"({self.depth_inner}, {self.depth_outer})"
            )


@dataclass(frozen=True)
class SearchPlan:
    """A lazy, unbounded sequence of excursions over ray_count rays.

    traversals is the number of times each excursion's segment
    [depth_inner, depth_outer] is swept before the walker returns to the
    origin; 1 is the ordinary out-and-back excursion.
    """

    ray_count: int
    generator: Callable[[int], Excursion]
    cost_model: CostModel = CostModel.STANDARD
    tag: PlanTag = field(default_factory=lambda: PlanTag(kind="custom"))
    traversals: int = 1

    def __post_init__(self) -> None:
        if self.ray_count < 2:
            raise ValueError(f"ray_count must be >= 2, got {self.ray_count}")
        if self.traversals < 1:
            raise ValueError(f"traversals must be >= 1, got {self.traversals}")

    def excursion(self, i: int) -> Excursion:
        try:
            exc = self.generator(i)
        except OverflowError as err:
            raise ValueError(
                f"excursion {i} overflowed float range; reduce the horizon "
                "or the growth base"
            ) from err
        if exc.ray >= self.ray_count:
            raise ValueError(
                f"excursion {i} targets ray {exc.ray} but plan has "
                f"{self.ray_count} rays"
            )
        return exc


def excursion_cost(plan: SearchPlan, exc: Excursion) -> float:
    """Distance charged for one excursion under the plan's cost model.

    Under EXPANDING only the new territory depth_outer - depth_inner is
    charged.  Under STANDARD the walker starts at the origin, so it pays
    the approach to depth_inner, then traversals sweeps of the segment,
    then the return to the origin from whichever end the final sweep
    left it at (outer end after an odd number of sweeps).
    """
    inner, outer = exc.depth_inner, exc.depth_outer
    if plan.cost_model is CostModel.EXPANDING:
        return outer - inner
    r = plan.traversals
    back = outer if r % 2 == 1 else inner
    return inner + r * (outer - inner) + back


@dataclass(frozen=True)
class ExcursionStep:
    """An excursion paired with its own cost and the cumulative cost
    of the plan up to and including it."""

    excursion: Excursion
    cost: float
    cumulative_cost: float


def excursion_prefix(plan: SearchPlan, count: int) -> list[ExcursionStep]:
    """Materialize the first count excursions with running costs.

    Raises ValueError if the cumulative cost stops being finite, which
    happens when excursion depths overflow float range; callers should
    shrink the horizon or the base rather than trust infinities.
    """
    steps: list[ExcursionStep] = []
    cum = 0.0
    for i in range(count):
        exc = plan.excursion(i)
        c = excursion_cost(plan, exc)
        cum += c
        if not math.isfinite(cum):
            raise ValueError(
                f"cumulative cost overflowed at excursion {i}; "
                "reduce the horizon or the growth base"
            )
        steps.append(ExcursionStep(excursion=exc, cost=c, cumulative_cost=cum))
    return steps


@dataclass(frozen=True)
class Job:
    """One scheduled run of a problem instance at a fixed length."""

    problem: int
    length: float
    start: float
    finish: float

    def __post_init__(self) -> None:
        if self.problem < 0:
            raise ValueError(f"problem index must be >= 0, got {self.problem}")
        if self.length <= 0:
            raise ValueError(f"length must be > 0, got {self.length}")
        if not math.isclose(
            self.finish - self.start, self.length, rel_tol=1e-12, abs_tol=1e-12
        ):
            raise ValueError(
                f"finish - start = {self.finish - self.start} "
                f"does not match length {self.length}"
            )


@dataclass(frozen=True)
class SchedulePlan:
    """A lazy, unbounded sequence of (problem, length) jobs run back to
    back on a single processor.

    interruptible plans may cut the running job at any moment and count
    the portion executed so far; non-interruptible plans only ever count
    completed runs.
    """

    problem_count: int
    generator: Callable[[int], tuple[int, float]]
    interruptible: bool = False
    tag: PlanTag = field(default_factory=lambda: PlanTag(kind="custom"))

    def __post_init__(self) -> None:
        if self.problem_count < 1:
            raise ValueError(
                f"problem_count must be >= 1, got {self.problem_count}"
            )

    def job_spec(self, i: int) -> tuple[int, float]:
        try:
            problem, length = self.generator(i)
        except OverflowError as err:
            raise ValueError(
                f"job {i} length overflowed float range; reduce the horizon "
                "or the growth base"
            ) from err
        if not (0 <= problem < self.problem_count):
            raise ValueError(
                f"job {i} targets problem {problem} but plan has "
                f"{self.problem_count} problems"
            )
        if length <= 0:
            raise ValueError(f"job {i} has non-positive length {length}")
        return problem, length


def schedule_prefix(plan: SchedulePlan, horizon: float) -> list[Job]:
    """All jobs that start strictly before horizon, in schedule order.

    The last job is cut at the horizon when the plan is interruptible;
    otherwise it is included whole (its finish may exceed the horizon,
    representing the run in progress).
    """
    if horizon <= 0:
        return []
    jobs: list[Job] = []
    t = 0.0
    i = 0
    while t < horizon:
        problem, length = plan.job_spec(i)
        finish = t + length
        if not math.isfinite(finish):
            raise ValueError(
                f"schedule time overflowed at job {i}; reduce the horizon"
            )
        if plan.interruptible and finish > horizon:
            cut = horizon - t
            jobs.append(Job(problem=problem, length=cut, start=t, finish=horizon))
        else:
            jobs.append(Job(problem=problem, length=length, start=t, finish=finish))
        t = finish
        i += 1
    return jobs


@dataclass(frozen=True)
class RatioReport:
    """Result of a worst-case ratio evaluation over a finite horizon.

    finite_sup is the exact supremum over the candidate set examined;
    witness identifies the candidate attaining it.  limit_sup, when not
    None, is the closed-form supremum for the plan family; asymptotic is
    the eventual per-candidate limit when that differs from the sup.
    convergence_gap measures how far the tail of the sweep still is from
    the analytic value, and note carries caveats (divergence, candidates
    the plan never reaches, and the like).
    """

    finite_sup: float
    witness: object
    horizon: int
    limit_sup: Optional[float] = None
    asymptotic: Optional[float] = None
    convergence_gap: Optional[float] = None
    note: Optional[str] = None

    def __post_init__(self) -> None:
        if self.limit_sup is not None and math.isfinite(self.limit_sup):
            scale = max(1.0, abs(self.limit_sup))
            if self.finite_sup > self.limit_sup + 1e-9 * scale:
                raise ValueError(
                    f"finite supremum {self.finite_sup} exceeds analytic "
                    f"limit {self.limit_sup}"
                )


@dataclass(frozen=True)
class McEstimate:
    """A Monte Carlo mean with its standard error and provenance-free
    reproduction data (trial count and seed)."""

    mean: float
    stderr: float
    trials: int
    seed: int


class Relation(Enum):
    """How a measured value is asserted to relate to a recorded one."""

    EQUAL = "equal"
    MEASURED_AT_MOST = "measured-at-most"
    MEASURED_AT_LEAST = "measured-at-least"


@dataclass(frozen=True)
class ClaimCheck:
    """One verified numeric claim.

    paper_value is the recorded reference number the measurement is
    compared against (the field name is part of the external reporting
    interface).  gap is signed: positive means the measurement violates
    or exceeds the reference in the direction the relation cares about.
    informational checks are reported but never fail a strict run.
    """

    claim_id: str
    paper_value: float
    measured: float
    relation: Relation
    tolerance: float
    holds: bool
    gap: float
    informational: bool = False
    params: str = ""


def check_claim(
    claim_id: str,
    paper_value: float,
    measured: float,
    relation: Relation,
    tolerance: float,
    informational: bool = False,
    params: str = "",
) -> ClaimCheck:
    """Compare a measurement against a recorded value and produce the
    ClaimCheck record.

    For EQUAL the gap is measured - paper_value and the claim holds when
    |gap| <= tolerance.  For MEASURED_AT_MOST the gap is the overshoot
    measured - paper_value (holds when gap <= tolerance); for
    MEASURED_AT_LEAST it is the shortfall paper_value - measured.
    """
    if relation is Relation.EQUAL:
        gap = measured - paper_value
        holds = abs(gap) <= tolerance
    elif relation is Relation.MEASURED_AT_MOST:
        gap = measured - paper_value
        holds = gap <= tolerance
    else:
        gap = paper_value - measured
        holds = gap <= tolerance
    return ClaimCheck(
        claim_id=claim_id,
        paper_value=paper_value,
        measured=measured,
        relation=relation,
        tolerance=tolerance,
        holds=holds,
        gap=gap,
        informational=informational,
        params=params,
    )
