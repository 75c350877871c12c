"""Scalar reference walk of a search plan, the oracle for the columnar
sweeps in raysched.search_eval and raysched.stochastic.

Every excursion is walked move by move from its waypoint list, one
target at a time, exactly as the evaluators did before they became
columnar: the same float operations in the same order, so results must
agree with the package bit for bit.  The prefix is materialized lazily
and memoized, and the furthest index generated is recorded, so a test
can also check how far the package looks ahead.
"""

from __future__ import annotations

import math
from typing import Iterator

from raysched.core import CostModel, ExcursionStep, SearchPlan, excursion_cost


class LazyPrefix:
    """The plan's excursions with running costs, generated on first use."""

    def __init__(self, plan: SearchPlan) -> None:
        self.plan = plan
        self.steps: list[ExcursionStep] = []

    def __getitem__(self, i: int) -> ExcursionStep:
        while len(self.steps) <= i:
            k = len(self.steps)
            exc = self.plan.excursion(k)
            c = excursion_cost(self.plan, exc)
            cum = (self.steps[-1].cumulative_cost if self.steps else 0.0) + c
            if not math.isfinite(cum):
                raise ValueError(f"cumulative cost overflowed at excursion {k}")
            self.steps.append(ExcursionStep(exc, c, cum))
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
    step: ExcursionStep,
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
    """(finite_sup, witness) of the frontier sweep for the r-th pass."""
    m = plan.ray_count
    prefix = LazyPrefix(plan)
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
