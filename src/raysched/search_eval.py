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

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .core import (
    DEFAULT_HORIZON,
    CostModel,
    RatioReport,
    SearchPlan,
    SearchTrajectory,
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


_STREAM_EXCURSIONS = 1_000_000  # how far one target's pass stream walks


def _waypoints(inner, outer, traversals: int) -> list:
    """Positions visited in order during one excursion of a STANDARD
    plan: origin, far end, then alternating near/far sweeps, then origin.

    The approach and the first sweep are contiguous (one outward move),
    and the return from the final sweep endpoint is likewise one inward
    move; splitting them differently would not change pass accounting.
    inner and outer may be floats or aligned arrays.
    """
    return [0.0] + [outer if t % 2 == 0 else inner for t in range(traversals)] + [0.0]


def _passes(plan: SearchPlan, trajectory: SearchTrajectory, k, point, *,
            beyond: bool, outward_only: bool):
    """Pass costs of excursions k over targets at point (an index and a
    depth on its ray, or aligned arrays of them), yielded as (hit, cost)
    per move in walk order, cost being valid where hit is set.

    With beyond=False the target sits exactly at point: an outward move
    a->b passes it when point is in (a, b], an inward one when it is in
    [b, a).  With beyond=True it sits just past point (the analytic
    right limit): outward passes cover [a, b), inward ones [b, a), and
    the offset drops out of the cost.  Under EXPANDING a pass happens
    once, when the segment covering the point completes, at that cum.
    The walk starts at cum - cost, which can differ from the previous
    excursion's cum in the last bit, and adds each move's length in turn;
    a missed move adds 0 times its offset, so nothing discarded overflows.
    """
    inner, outer, cum = trajectory.inner[k], trajectory.outer[k], trajectory.cum[k]
    if plan.cost_model is CostModel.EXPANDING:
        if beyond:
            yield (inner <= point) & (point < outer), cum
        else:
            yield (inner < point) & (point <= outer), cum
        return
    walked = cum - trajectory.cost[k]
    pts = _waypoints(inner, outer, plan.traversals)
    for t, (a, b) in enumerate(zip(pts, pts[1:])):
        if t % 2 == 0 and t < plan.traversals:  # outward, to the far end
            if beyond:
                hit = (a <= point) & (point < b)
            else:
                hit = (a < point) & (point <= b)
            yield hit, walked + hit * (point - a)
        elif not outward_only:
            hit = (b <= point) & (point < a)
            yield hit, walked + hit * (a - point)
        walked = walked + abs(b - a)


def frontier_passes(plan: SearchPlan, trajectory: SearchTrajectory, count: int,
                    passes: int, *, outward_only: bool = False, grow: bool = False):
    """The first `passes` passes over the targets just beyond the
    frontiers of excursions 0..count-1, each scanning its ray's later
    excursions, all in lock step: yields (candidates, pass ordinals from
    0, costs) move by move.  With grow, the trajectory is extended while
    a candidate waits for its ray's next excursion, up to the stream
    length of visit_cost_stream; otherwise candidates end with the
    materialized prefix.
    """
    trajectory.reach(count)
    point = trajectory.outer[:count]
    seen = np.zeros(count, dtype=np.intp)
    cand = k = np.arange(count)
    while True:
        alive = seen[cand] < passes
        cand, k = cand[alive], k[alive]
        nxt = trajectory.next_same[k]
        while grow and (nxt < 0).any() and trajectory.size < count + _STREAM_EXCURSIONS:
            trajectory.reach(trajectory.size + 1)
            nxt = trajectory.next_same[k]
        keep = nxt >= 0
        if grow:
            keep &= nxt <= cand + _STREAM_EXCURSIONS
        cand, k = cand[keep], nxt[keep]
        if not cand.size:
            return
        for hit, cost in _passes(plan, trajectory, k, point[cand], beyond=True,
                                 outward_only=outward_only):
            hit &= seen[cand] < passes
            taken = cand[hit]
            yield taken, seen[taken], cost[hit]
            seen[taken] += 1


def visit_cost_stream(
    plan: SearchPlan,
    ray: int,
    point: float,
    *,
    beyond: bool = False,
    outward_only: bool = False,
    start: int = 0,
    max_excursions: int = _STREAM_EXCURSIONS,
) -> Iterator[float]:
    """Lazily yield every pass cost for a target, in walk order, over
    excursions start .. start + max_excursions - 1, generating them on
    demand; the walk resumes from the prefix's cumulative cost."""
    if not (0 <= ray < plan.ray_count):
        raise ValueError(f"target ray {ray} outside [0, {plan.ray_count})")
    if point <= 0:
        raise ValueError(f"target distance must be > 0, got {point}")
    trajectory = SearchTrajectory(plan)
    for k in range(start, start + max_excursions):
        trajectory.reach(k + 1)
        if trajectory.ray[k] == ray:
            for hit, cost in _passes(plan, trajectory, k, point, beyond=beyond,
                                     outward_only=outward_only):
                if hit:
                    yield float(cost)


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
    passes = visit_cost_stream(
        plan,
        ray,
        point,
        beyond=beyond,
        outward_only=outward_only,
        max_excursions=max_excursions,
    )
    return next(itertools.islice(passes, k - 1, None), math.inf)


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
    trajectory = SearchTrajectory(plan, hint=True)
    trajectory.reach(horizon + buffer)

    found = np.full(horizon, math.nan)
    for taken, ordinal, cost in frontier_passes(plan, trajectory, horizon, r):
        last = ordinal == r - 1
        found[taken[last]] = cost[last]
    reached = np.flatnonzero(~np.isnan(found))
    ratio_array = found[reached] / trajectory.outer[reached]
    ratios = ratio_array.tolist()
    if not ratios:
        return RatioReport(
            finite_sup=math.inf,
            witness=None,
            horizon=horizon,
            note="no candidate target is passed the required number of times "
            "within the horizon",
        )
    j = int(reached[np.argmax(ratio_array)])
    best_witness = (j, int(trajectory.ray[j]), float(trajectory.outer[j]))
    limit_sup, asymptotic = analytic_search_limits(plan, r)
    notes: list[str] = []
    convergence_gap: Optional[float] = None
    unreachable = horizon - reached.size
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
        finite_sup=max(ratios),
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
        pts = _waypoints(exc.depth_inner, exc.depth_outer, plan.traversals)
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
