"""Adversarial evaluation of search plans.

The evaluator simulates the exact walk of a plan move by move, counts
passes over target points in both movement directions, and sweeps the
worst-case candidate targets (just beyond each excursion's frontier) to
estimate the competitive ratio.  Plans built by the standard factories
carry tags that let the sweep attach an exact analytic supremum.  Turn
counting lives here too; its ceiling turn_bound is defined with the
closed-form table in numopt and re-exported here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional

from .core import (
    DEFAULT_HORIZON,
    CostModel,
    ExcursionStep,
    RatioReport,
    SearchPlan,
    excursion_cost,
    excursion_prefix,
)
from .numopt import turn_bound  # noqa: F401  (re-exported)


@dataclass(frozen=True)
class SearchSemantics:
    """How many passes over the target's position are needed to find it."""

    required_visits: int = 1

    def __post_init__(self) -> None:
        if self.required_visits < 1:
            raise ValueError(
                f"required_visits must be >= 1, got {self.required_visits}"
            )


FIRST_VISIT = SearchSemantics(required_visits=1)


def rth_visit(r: int) -> SearchSemantics:
    """Semantics requiring the r-th pass over the target."""
    return SearchSemantics(required_visits=r)


def _waypoints(excursion, traversals: int) -> list[float]:
    """Positions visited in order during one excursion of a STANDARD
    plan: origin, far end, then alternating near/far sweeps, then origin.

    The approach and the first sweep are contiguous (one outward move),
    and the return from the final sweep endpoint is likewise one inward
    move; splitting them differently would not change pass accounting.
    """
    pts = [0.0, excursion.depth_outer]
    for t in range(1, traversals):
        pts.append(
            excursion.depth_inner if pts[-1] == excursion.depth_outer
            else excursion.depth_outer
        )
    pts.append(0.0)
    return pts


def _step_visit_costs(
    plan: SearchPlan,
    step: ExcursionStep,
    ray: int,
    point: float,
    *,
    beyond: bool = False,
    outward_only: bool = False,
) -> Iterator[float]:
    """Costs at which this single excursion passes over the target.

    With beyond=False the target sits exactly at `point`; an outward
    move a->b passes it when point is in (a, b], an inward move when it
    is in [b, a).  With beyond=True the target sits just past `point`
    (the analytic right limit): outward passes cover [a, b), inward
    passes again [b, a), and the infinitesimal offset drops out of the
    cost.  Under the EXPANDING model a pass happens once, at the
    completion of the segment that covers the point, charged the full
    cumulative cost at that completion.
    """
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
    pts = _waypoints(exc, plan.traversals)
    for a, b in zip(pts, pts[1:]):
        if a < b:
            hit = (a <= point < b) if beyond else (a < point <= b)
            if hit:
                yield cum + (point - a)
        elif not outward_only and b <= point < a:
            yield cum + (a - point)
        cum += abs(b - a)


def iter_visit_costs(
    plan: SearchPlan,
    steps: list[ExcursionStep],
    ray: int,
    point: float,
    *,
    beyond: bool = False,
    outward_only: bool = False,
    start: int = 0,
) -> Iterator[float]:
    """All pass costs for a target over the given excursion prefix,
    in walk order, starting at excursion index `start`."""
    for step in steps[start:]:
        yield from _step_visit_costs(
            plan, step, ray, point, beyond=beyond, outward_only=outward_only
        )


def visit_cost_stream(
    plan: SearchPlan,
    ray: int,
    point: float,
    *,
    beyond: bool = False,
    outward_only: bool = False,
    start: int = 0,
    max_excursions: int = 1_000_000,
) -> Iterator[float]:
    """Lazily yield every pass cost for a target, in walk order,
    generating excursions on demand from index `start` at cumulative
    cost resumed from the skipped prefix."""
    if not (0 <= ray < plan.ray_count):
        raise ValueError(f"target ray {ray} outside [0, {plan.ray_count})")
    if point <= 0:
        raise ValueError(f"target distance must be > 0, got {point}")
    cum = 0.0
    for i in range(start):
        cum += excursion_cost(plan, plan.excursion(i))
    for i in range(start, start + max_excursions):
        exc = plan.excursion(i)
        c = excursion_cost(plan, exc)
        new_cum = cum + c
        if not math.isfinite(new_cum):
            raise ValueError(f"cumulative cost overflowed at excursion {i}")
        step = ExcursionStep(excursion=exc, cost=c, cumulative_cost=new_cum)
        yield from _step_visit_costs(
            plan, step, ray, point, beyond=beyond, outward_only=outward_only
        )
        cum = new_cum


def cost_to_visit(
    plan: SearchPlan,
    target: tuple[int, float],
    k: int = 1,
    *,
    beyond: bool = False,
    outward_only: bool = False,
    max_excursions: int = 4096,
) -> float:
    """Total distance traversed up to the k-th pass over the target.

    The walk is simulated exactly and passes in both movement directions
    count (outward_only restricts to outward passes).  Returns +inf when
    the plan does not pass the target k times within max_excursions,
    which callers should treat as "not found within the evaluation
    horizon" rather than a proof of unboundedness.
    """
    ray, point = target
    if k < 1:
        raise ValueError(f"visit ordinal must be >= 1, got {k}")
    seen = 0
    for cost in visit_cost_stream(
        plan,
        ray,
        point,
        beyond=beyond,
        outward_only=outward_only,
        max_excursions=max_excursions,
    ):
        seen += 1
        if seen == k:
            return cost
    return math.inf


def analytic_search_limits(
    plan: SearchPlan, required_visits: int
) -> tuple[Optional[float], Optional[float]]:
    """(limit_sup, asymptotic) for tagged plan families, or (None, None).

    For the exponential family the candidate ratio increases toward its
    limit, so the supremum equals the asymptotic value.  Same for the
    re-sweeping family when the required visit count does not exceed the
    per-excursion sweep count.  For the expanding phase plan the
    supremum sits at the first phase and the per-phase worst ratio
    decreases toward a smaller asymptote.
    """
    tag = plan.tag
    b = tag.base
    m = plan.ray_count
    r = required_visits
    if tag.kind == "exponential" and b is not None:
        k_pairs = (r + 1) // 2
        if r % 2 == 1:
            value = 1.0 + 2.0 * b ** (k_pairs * m) / (b - 1.0)
        else:
            value = 2.0 * b ** (k_pairs * m + 1) / (b - 1.0) - 1.0
        return value, value
    if tag.kind == "nm" and b is not None and r <= plan.traversals:
        big_r = plan.traversals
        if big_r % 2 == 1:
            steady = ((big_r + 1) * b**m - (big_r - 1)) / (b - 1.0)
        else:
            steady = (big_r * b**m - (big_r - 2)) / (b - 1.0)
        if r % 2 == 1:
            partial = 1.0 + (r - 1) * (b**m - 1.0)
        else:
            partial = 1.0 + r * (b**m - 1.0)
        value = steady + partial
        return value, value
    if tag.kind == "geometric" and b is not None and r == 1:
        return (b + 1.0) * m, b * m
    return None, None


def competitive_ratio(
    plan: SearchPlan,
    semantics: SearchSemantics = FIRST_VISIT,
    horizon: int = DEFAULT_HORIZON,
) -> RatioReport:
    """Worst-case ratio of discovery cost to target distance.

    Candidate targets sit just beyond each excursion frontier x_j (for
    j < horizon), on that excursion's ray; between consecutive passes
    the ratio is maximized at that right limit, so no other targets need
    checking for the standard families.  The infinitesimal offset is
    handled analytically: the target point is x_j exactly, but discovery
    is charged to the next pass of the point, scanning from excursion
    j+1 onward.  The denominator is the optimal cost x_j.

    For tagged families the exact analytic supremum and asymptotic are
    attached; otherwise the asymptotic is estimated from the last
    quartile of candidates and a convergence gap is reported.
    """
    m = plan.ray_count
    if horizon < m:
        raise ValueError(f"horizon {horizon} must cover at least {m} excursions")
    r = semantics.required_visits
    buffer = ((r + 1) // 2 + 1) * m
    steps = excursion_prefix(plan, horizon + buffer)

    ratios: list[float] = []
    candidates: list[int] = []
    best = -math.inf
    best_witness: Optional[tuple[int, int, float]] = None
    unreachable = 0
    for j in range(horizon):
        exc = steps[j].excursion
        point = exc.depth_outer
        found: Optional[float] = None
        seen = 0
        for cost in iter_visit_costs(
            plan, steps, exc.ray, point, beyond=True, start=j + 1
        ):
            seen += 1
            if seen == r:
                found = cost
                break
        if found is None:
            unreachable += 1
            continue
        ratio = found / point
        ratios.append(ratio)
        candidates.append(j)
        if ratio > best:
            best = ratio
            best_witness = (j, exc.ray, point)

    limit_sup, asymptotic = analytic_search_limits(plan, r)
    notes: list[str] = []
    convergence_gap: Optional[float] = None
    if not ratios:
        return RatioReport(
            finite_sup=math.inf,
            witness=None,
            horizon=horizon,
            note="no candidate target is passed the required number of times "
            "within the horizon",
        )
    if unreachable:
        notes.append(
            f"{unreachable} candidate(s) not passed the required number of "
            "times within the horizon; supremum reflects the rest"
        )
    tail = ratios[-min(len(ratios), m):]
    if limit_sup is not None:
        reference = asymptotic if asymptotic is not None else limit_sup
        convergence_gap = abs(reference - max(tail))
        scale = max(1.0, abs(reference))
        if convergence_gap > 0.01 * scale:
            notes.append("tail has not converged to the analytic value yet")
    else:
        quartile = ratios[-max(1, len(ratios) // 4):]
        asymptotic = max(quartile)
        convergence_gap = abs(ratios[-1] - ratios[len(ratios) // 2])
        if len(ratios) >= 8 and min(quartile) > max(
            ratios[: len(ratios) // 2]
        ):
            notes.append(
                "ratios still increasing at the horizon; supremum may be "
                "attained only in the limit or be unbounded"
            )
    return RatioReport(
        finite_sup=best,
        witness=best_witness,
        horizon=horizon,
        limit_sup=limit_sup,
        asymptotic=asymptotic,
        convergence_gap=convergence_gap,
        note="; ".join(notes) if notes else None,
    )


def turn_count(
    plan: SearchPlan,
    distance_budget: float,
    *,
    one_way: bool = False,
    max_excursions: int = 1_000_000,
) -> int:
    """Far-end direction reversals completed within the distance budget.

    A turn is a switch from outward to inward movement at the far end of
    a sweep; reversals at the near end or the origin do not count.  Each
    turn is charged the cumulative distance at the moment it happens:
    the full two-way distance by default, or only the outward-movement
    distance when one_way is set.  Under the EXPANDING model each
    segment completion is one turn and all charged movement is outward.
    """
    if distance_budget < 0:
        raise ValueError(f"distance budget must be >= 0, got {distance_budget}")
    if not math.isfinite(distance_budget):
        raise ValueError("distance budget must be finite")
    count = 0
    cum = 0.0
    out_cum = 0.0
    for i in range(max_excursions):
        exc = plan.excursion(i)
        if plan.cost_model is CostModel.EXPANDING:
            seg = exc.depth_outer - exc.depth_inner
            cum += seg
            out_cum += seg
            if (out_cum if one_way else cum) > distance_budget:
                return count
            count += 1
            continue
        pts = _waypoints(exc, plan.traversals)
        for a, b in zip(pts, pts[1:]):
            d = abs(b - a)
            if b > a:
                cum += d
                out_cum += d
                if (out_cum if one_way else cum) > distance_budget:
                    return count
                count += 1
            else:
                cum += d
                if not one_way and cum > distance_budget:
                    return count
    raise ValueError(
        f"distance budget {distance_budget} not exhausted within "
        f"{max_excursions} excursions"
    )
