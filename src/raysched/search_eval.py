"""Adversarial evaluation of search plans.

The evaluator simulates the exact walk of a plan move by move, counts
passes over target points in both movement directions, and sweeps the
worst-case candidate targets (just beyond each excursion's frontier) to
estimate the competitive ratio.  Plans built by the standard factories
carry tags that let the sweep attach an exact analytic supremum, read
from the table of closed forms in numopt.  Turn counting lives here
too; its ceiling turn_bound is defined with that table and re-exported
here.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .core import (
    DEFAULT_HORIZON,
    CostModel,
    RatioReport,
    SearchPlan,
    SearchTrajectory,
)
from .numopt import family_limits, turn_bound  # noqa: F401  (turn_bound re-exported)


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
    excursion's cum in the last bit, and adds each move's length in turn,
    up to the last move; a missed move adds 0 times its offset, so
    nothing discarded overflows.  The first move leaves the origin and
    the last returns to it, but every target lies at depth > 0: there
    0.0 <= point always holds, and point - 0.0 == point and
    abs(outer - 0.0) == outer exactly, so neither move compares or
    subtracts the origin waypoint.
    """
    outer, cum = trajectory.outer[k], trajectory.cum[k]
    if plan.cost_model is CostModel.EXPANDING or plan.traversals > 1:
        inner = trajectory.inner[k]  # one traversal under STANDARD never reads it
    if plan.cost_model is CostModel.EXPANDING:
        if beyond:
            yield (inner <= point) & (point < outer), cum
        else:
            yield (inner < point) & (point <= outer), cum
        return
    walked = cum - trajectory.cost[k]
    hit = point < outer if beyond else point <= outer  # out from the origin
    yield hit, walked + hit * point
    walked, a = walked + outer, outer
    for t in range(1, plan.traversals):  # sweeps between the segment's ends
        b = outer if t % 2 == 0 else inner
        if t % 2 == 0:  # outward, to the far end
            if beyond:
                hit = (a <= point) & (point < b)
            else:
                hit = (a < point) & (point <= b)
            yield hit, walked + hit * (point - a)
        elif not outward_only:
            hit = (b <= point) & (point < a)
            yield hit, walked + hit * (a - point)
        walked, a = walked + abs(b - a), b
    if not outward_only:  # back to the origin
        hit = point < a
        yield hit, walked + hit * (a - point)


def frontier_passes(plan: SearchPlan, trajectory: SearchTrajectory, count: int,
                    passes: int, *, outward_only: bool = False, grow: bool = False):
    """The first `passes` passes over the targets just beyond the
    frontiers of excursions 0..count-1, each scanning its ray's later
    excursions, all in lock step: yields (hit, ordinal, cost) per move,
    full-width arrays valid until the next move, and read-only: under
    EXPANDING, cost can be a view of the trajectory's cum column.  Where
    hit is set, the candidate's ordinal-th pass (from 0) costs cost;
    ordinal is at most passes.  Candidates keep their positions, so a sweep costs
    O(count · passes); a live mask drops a candidate after its last pass,
    or once its ray has no next excursion within its reach.  On a
    block-read trajectory the candidates advance together, by its stride:
    candidate i reads excursion start + i, so each step reads the columns
    as slice views from start, and an index array only once some
    candidates have run off the prefix.  Per-index plans follow their
    next_same links.  Without grow, candidates end with the prefix.  With
    grow, the trajectory is extended while a live candidate waits for its
    ray's next excursion, up to the stream length of visit_cost_stream,
    and reads run ahead no further than count + m · passes excursions
    (count + m · ceil(passes / 2) under both directions and STANDARD
    costs) until a candidate needs more: on a plan that visits its m rays
    in turn and passes each candidate on each of the next excursions of
    its ray, once outward-only or under EXPANDING and at least twice, out
    and back, otherwise (every factory plan the detection series sweeps),
    these hold every pass.
    """
    trajectory.reach(count)
    point = trajectory.outer[:count]
    seen = np.zeros(count, dtype=np.intp)
    live = np.ones(count, dtype=bool)
    k, start, stride = np.arange(count), 0, trajectory.stride
    bound = count + _STREAM_EXCURSIONS
    twice = plan.cost_model is CostModel.STANDARD and not outward_only
    ahead = min(bound, count + plan.ray_count * (-(-passes // 2) if twice else passes))
    stream_end = np.arange(_STREAM_EXCURSIONS, bound)  # each candidate's last excursion
    while True:
        if stride:
            start += stride
            if start + count > trajectory.size:  # some candidates are past the prefix
                if grow and live.any():  # read on to the last live one's excursion
                    needed = min(start + count - int(np.argmax(live[::-1])), bound)
                    while trajectory.size < needed:
                        lo = trajectory.size
                        trajectory.reach(lo + 1, ahead if lo < ahead else bound)
                    if start > _STREAM_EXCURSIONS:  # past every candidate's stream
                        return
                live[max(trajectory.size - start, 0):] = False
            k = (slice(start, start + count) if start + count <= trajectory.size
                 else np.where(live, np.arange(start, start + count), 0))
        else:
            nxt = trajectory.next_same[k]
            if grow:
                waiting = set(trajectory.ray[k[(nxt < 0) & live]].tolist())
                if waiting:  # read on until every waiting candidate's ray comes round again
                    while waiting and trajectory.size < bound:
                        lo = trajectory.size
                        trajectory.reach(lo + 1, ahead if lo < ahead else bound)
                        waiting -= set(trajectory.ray[lo:trajectory.size].tolist())
                    nxt = trajectory.next_same[k]
                if trajectory.size > _STREAM_EXCURSIONS:  # else nxt is within every stream
                    live &= nxt <= stream_end
            live &= nxt >= 0
            k = np.maximum(nxt, 0)  # an ended candidate reads excursion 0, unused
        if not np.count_nonzero(live):
            return
        for hit, cost in _passes(plan, trajectory, k, point, beyond=True,
                                 outward_only=outward_only):
            hit &= live
            yield hit, seen, cost
            seen += hit
            live &= seen < passes


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
        trajectory.reach(k + 1, start + max_excursions)
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
    for hit, ordinal, cost in frontier_passes(plan, trajectory, horizon, r):
        np.copyto(found, cost, where=hit & (ordinal == r - 1))
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
    notes: list[str] = []
    unreachable = horizon - reached.size
    if unreachable:
        notes.append(
            f"{unreachable} candidate(s) not passed the required number of "
            "times within the horizon; supremum reflects the rest"
        )
    limits = family_limits(plan, "rth-visit", m, r)
    if limits is not None:
        limit_sup, asymptotic = limits
        convergence_gap = abs(asymptotic - max(ratios[-min(len(ratios), m):]))
        if convergence_gap > 0.01 * max(1.0, abs(asymptotic)):
            notes.append("tail has not converged to the analytic value yet")
    else:
        limit_sup = None
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
