"""Scalar reference walk of a search plan, the oracle for the columnar
sweeps in raysched.search_eval and raysched.stochastic.

Every excursion is walked move by move from its waypoint list, one
target at a time, exactly as the evaluators did before they became
columnar: the same float operations in the same order, so results must
agree with the package bit for bit.  Each excursion's cost and step
record are written here on their own, the cost as the walk it charges
in the package's operand order.  The prefix is materialized lazily and
memoized, and the furthest index generated is recorded, so a test can
also check how far the package looks ahead.
"""

from __future__ import annotations

import math
from typing import Iterator, NamedTuple

from raysched.core import CostModel, Excursion, SearchPlan


class Step(NamedTuple):
    """An excursion with its own cost and the running cost through it."""

    excursion: Excursion
    cost: float
    cumulative_cost: float


def excursion_cost(plan: SearchPlan, exc: Excursion) -> float:
    """Under EXPANDING the extension alone.  Under STANDARD the approach
    from the origin to depth_inner, the traversals sweeps between the two
    depths, then the way home from where the last sweep ends: depth_outer
    after an odd count, depth_inner after an even one."""
    inner, outer = exc.depth_inner, exc.depth_outer
    if plan.cost_model is CostModel.EXPANDING:
        return outer - inner
    home = outer if plan.traversals % 2 else inner
    return inner + plan.traversals * (outer - inner) + home


class LazyPrefix:
    """The plan's excursions with running costs, generated on first use."""

    def __init__(self, plan: SearchPlan, advice: str = "") -> None:
        self.plan = plan
        self.advice = advice  # appended to the cost overflow's message
        self.steps: list[Step] = []

    def __getitem__(self, i: int) -> Step:
        while len(self.steps) <= i:
            k = len(self.steps)
            exc = self.plan.excursion(k)
            c = excursion_cost(self.plan, exc)
            cum = (self.steps[-1].cumulative_cost if self.steps else 0.0) + c
            if not math.isfinite(cum):
                raise ValueError(f"cumulative cost overflowed at excursion {k}"
                                 + self.advice)
            self.steps.append(Step(exc, c, cum))
        return self.steps[i]

    @property
    def furthest(self) -> int:
        return len(self.steps) - 1


def waypoints(exc, traversals: int) -> list[float]:
    pts = [0.0, exc.depth_outer]
    for _ in range(1, traversals):
        pts.append(
            exc.depth_inner if pts[-1] == exc.depth_outer else exc.depth_outer
        )
    pts.append(0.0)
    return pts


def step_visit_costs(
    plan: SearchPlan,
    step: Step,
    ray: int,
    point: float,
    *,
    beyond: bool = False,
    outward_only: bool = False,
) -> Iterator[float]:
    """Costs at which this single excursion passes over the target."""
    exc = step.excursion
    if exc.ray != ray:
        return
    if plan.cost_model is CostModel.EXPANDING:
        inner, outer = exc.depth_inner, exc.depth_outer
        hit = (inner <= point < outer) if beyond else (inner < point <= outer)
        if hit:
            yield step.cumulative_cost
        return
    cum = step.cumulative_cost - step.cost
    pts = waypoints(exc, plan.traversals)
    for a, b in zip(pts, pts[1:]):
        if a < b:
            hit = (a <= point < b) if beyond else (a < point <= b)
            if hit:
                yield cum + (point - a)
        elif not outward_only and b <= point < a:
            yield cum + (a - point)
        cum += abs(b - a)


def stream(
    prefix: LazyPrefix,
    ray: int,
    point: float,
    *,
    beyond: bool = False,
    outward_only: bool = False,
    start: int = 0,
    max_excursions: int = 1_000_000,
) -> Iterator[float]:
    """Every pass cost over the target from excursion `start` on."""
    for i in range(start, start + max_excursions):
        yield from step_visit_costs(
            prefix.plan, prefix[i], ray, point, beyond=beyond,
            outward_only=outward_only,
        )


def competitive_sweep(plan: SearchPlan, r: int, horizon: int):
    """(finite_sup, witness) of the frontier sweep for the r-th pass; a
    cost overflow carries competitive_ratio's advice."""
    m = plan.ray_count
    prefix = LazyPrefix(plan, "; reduce the horizon or the growth base")
    count = horizon + ((r + 1) // 2 + 1) * m
    prefix[count - 1]
    best, witness = -math.inf, None
    for j in range(horizon):
        exc = prefix[j].excursion
        point = exc.depth_outer
        passes = stream(prefix, exc.ray, point, beyond=True, start=j + 1,
                        max_excursions=count - j - 1)
        found = next((c for n, c in enumerate(passes, 1) if n == r), None)
        if found is not None and found / point > best:
            best, witness = found / point, (j, exc.ray, point)
    if witness is None:  # no candidate passed: the sweep reports inf
        return math.inf, None
    return best, witness


def probabilistic_sweep(plan: SearchPlan, p: float, outward_only: bool,
                        horizon: int):
    """(finite_sup, witness, furthest index generated) of the detection
    series sweep, the series cut once the survival weight drops below
    1e-12."""
    prefix = LazyPrefix(plan)
    q = 1.0 - p
    best, witness = -math.inf, None
    for j in range(horizon):
        exc = prefix[j].excursion
        point = exc.depth_outer
        total, survival = 0.0, 1.0
        for cost in stream(prefix, exc.ray, point, beyond=True,
                           outward_only=outward_only, start=j + 1):
            total += p * survival * cost
            survival *= q
            if survival < 1e-12:
                break
        if total / point > best:
            best, witness = total / point, (j, exc.ray, point)
    return best, witness, prefix.furthest
