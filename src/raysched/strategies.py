"""Factories for the standard plan families.

Each factory returns a tagged SearchPlan or SchedulePlan; the tag lets
the evaluators attach the matching limit from numopt's table. Custom plans can
be built through make_custom_search / make_custom_schedule, which skip
the tagging and get purely numeric evaluation.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .core import CostModel, CyclicDepths, Excursion, PlanTag, SchedulePlan, SearchPlan


def _require_base(b: float) -> None:
    if not b > 1:
        raise ValueError(f"growth base must be > 1, got {b}")


def _powers(b: float, lo: int, hi: int) -> list[float]:
    """b**i for i in lo..hi-1 by float power (np.power can differ in the
    last bit), cut at the first power that overflows float range."""
    powers = []
    try:
        for i in range(lo, hi):
            powers.append(b ** i)
    except OverflowError:
        pass
    return powers


def make_exponential_search(m: int, b: float) -> SearchPlan:
    """Cyclic sweep of m rays with depths b^i.

    Excursion i goes out to b^i on ray i mod m and returns to the
    origin; every excursion starts from scratch (depth_inner 0), so the
    walker repays the approach each time.
    """
    if m < 2:
        raise ValueError(f"need at least 2 rays, got {m}")
    _require_base(b)

    def depths(lo: int, hi: int) -> tuple[list, list]:
        outer = _powers(float(b), lo, hi)
        return [0.0] * len(outer), outer

    return SearchPlan(
        ray_count=m,
        generator=CyclicDepths(m, depths),
        cost_model=CostModel.STANDARD,
        tag=PlanTag(kind="exponential", base=float(b)),
    )


def optimal_base_search(m: int) -> float:
    """The base minimizing the worst-case ratio of the cyclic
    exponential search on m rays."""
    if m < 2:
        raise ValueError(f"need at least 2 rays, got {m}")
    return m / (m - 1)


def make_nm_search(m: int, b: float, r: int) -> SearchPlan:
    """Exponential sweep whose newly uncovered segment is swept r times
    per excursion before the walker returns to the origin.

    The first m excursions sweep [0, b^i]; from excursion m onward the
    swept segment is [b^(i-m), b^i] and the approach below it is walked
    once each way.  With r = 1 the walk is path-equivalent to the plain
    exponential sweep; the families differ for r >= 2.
    """
    if m < 2:
        raise ValueError(f"need at least 2 rays, got {m}")
    _require_base(b)
    if r < 1:
        raise ValueError(f"sweep count must be >= 1, got {r}")

    def depths(lo: int, hi: int) -> tuple[list, list]:
        outer = _powers(float(b), lo, hi)
        inner = [float(b) ** (i - m) if i >= m else 0.0 for i in range(lo, lo + len(outer))]
        return inner, outer

    return SearchPlan(
        ray_count=m,
        generator=CyclicDepths(m, depths),
        cost_model=CostModel.STANDARD,
        tag=PlanTag(kind="nm", base=float(b), redundancy=r),
        traversals=r,
    )


def make_geometric_search(m: int, b: float) -> SearchPlan:
    """Phase-structured search under the expanding cost model.

    In phase p every ray's frontier advances by b^p, taking each ray
    from depth (b^p - 1)/(b - 1) to (b^(p+1) - 1)/(b - 1).  Only the new
    territory is charged.
    """
    if m < 2:
        raise ValueError(f"need at least 2 rays, got {m}")
    _require_base(b)

    def depths(lo: int, hi: int) -> tuple[list, list]:
        # The frontiers of phases lo // m .. (hi - 1) // m + 1.
        first = lo // m
        levels = [(x - 1.0) / (b - 1.0) for x in _powers(float(b), first, (hi - 1) // m + 2)]
        phases = [i // m - first for i in range(lo, min(hi, (first + len(levels) - 1) * m))]
        return [levels[p] for p in phases], [levels[p + 1] for p in phases]

    return SearchPlan(
        ray_count=m,
        generator=CyclicDepths(m, depths),
        cost_model=CostModel.EXPANDING,
        tag=PlanTag(kind="geometric", base=float(b)),
    )


def _phased_jobs(n: int, b: float, turn: int, hold: int) -> Callable[[int], tuple[int, float]]:
    """The generator of a schedule whose job i runs problem (i // turn) % n
    for b ** (i // hold) time units.  Its jobs attribute is the same
    formula for a block: jobs(lo, hi) returns the problem and length
    columns of jobs lo..hi-1, cut at the first length that overflows
    float range; ScheduleTrajectory reads tagged plans through it."""
    fb = float(b)
    if turn == hold == 1:  # the exponential schedule, spared two divisions by 1

        def gen(i: int) -> tuple[int, float]:
            return i % n, fb ** i
    else:

        def gen(i: int) -> tuple[int, float]:
            return (i // turn) % n, fb ** (i // hold)

    def jobs(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        first = lo // hold
        lengths = np.array(_powers(fb, first, (hi - 1) // hold + 1))
        index = np.arange(lo, min(hi, (first + len(lengths)) * hold))
        return index // turn % n, lengths[index // hold - first]

    gen.jobs = jobs  # type: ignore[attr-defined]
    return gen


def make_exponential_schedule(n: int, b: float) -> SchedulePlan:
    """Round-robin schedule with lengths b^i: job i runs problem
    i mod n for b^i time units."""
    if n < 1:
        raise ValueError(f"need at least 1 problem, got {n}")
    _require_base(b)

    return SchedulePlan(
        problem_count=n,
        generator=_phased_jobs(n, b, 1, 1),
        interruptible=False,
        tag=PlanTag(kind="exponential", base=float(b)),
    )


def optimal_base_schedule(n: int) -> float:
    """The base minimizing the worst-case acceleration ratio of the
    round-robin exponential schedule on n problems."""
    if n < 1:
        raise ValueError(f"need at least 1 problem, got {n}")
    return (n + 1) / n


def make_pseudo_exponential_schedule(n: int, b: float, r: int) -> SchedulePlan:
    """Exponential round-robin where each (problem, length) pair is run
    r times in a row before advancing.

    Job i belongs to phase i // r; the phase sets both the problem
    (phase mod n) and the length (b^phase).
    """
    if n < 1:
        raise ValueError(f"need at least 1 problem, got {n}")
    _require_base(b)
    if r < 1:
        raise ValueError(f"repeat count must be >= 1, got {r}")

    return SchedulePlan(
        problem_count=n,
        generator=_phased_jobs(n, b, r, r),
        interruptible=False,
        tag=PlanTag(kind="pseudo", base=float(b), redundancy=r),
    )


def make_geometric_rr_schedule(n: int, b: float) -> SchedulePlan:
    """Interruptible round-robin with phase-doubling lengths: phase p
    runs each of the n problems once for b^p time units."""
    if n < 1:
        raise ValueError(f"need at least 1 problem, got {n}")
    _require_base(b)

    return SchedulePlan(
        problem_count=n,
        generator=_phased_jobs(n, b, 1, n),
        interruptible=True,
        tag=PlanTag(kind="geometric-rr", base=float(b)),
    )


def make_custom_search(
    ray_count: int,
    generator: Callable[[int], Excursion],
    cost_model: CostModel = CostModel.STANDARD,
    traversals: int = 1,
) -> SearchPlan:
    """Wrap an arbitrary excursion generator as an untagged plan."""
    return SearchPlan(
        ray_count=ray_count,
        generator=generator,
        cost_model=cost_model,
        tag=PlanTag(kind="custom"),
        traversals=traversals,
    )


def make_custom_schedule(
    problem_count: int,
    generator: Callable[[int], tuple[int, float]],
    interruptible: bool = False,
) -> SchedulePlan:
    """Wrap an arbitrary job generator as an untagged plan."""
    return SchedulePlan(
        problem_count=problem_count,
        generator=generator,
        interruptible=interruptible,
        tag=PlanTag(kind="custom"),
    )
