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


def _powers(b: float, lo: int, hi: int) -> np.ndarray:
    """b**i for i in lo..hi-1 as a float array, cut at the first power
    that overflows float range.  Each power is Python's own float power:
    np.float_power on float64 is a plain C loop over the C library's pow,
    the function float.__pow__ calls, so b ** i and the block agree to the
    last bit (no mismatch over about 6.7 million pairs, bases from
    1 + 1e-12 to the float maximum, exponents up to 2**21, on x86-64
    with glibc), while np.power's vectorized float loop can round
    differently (about 3% of the same pairs).  A power past float range
    is inf where b ** i raises; b = inf itself raises nothing (inf ** i
    is inf), so its block is not cut."""
    with np.errstate(over="ignore"):
        block = np.float_power(b, np.arange(lo, hi, dtype=float))
    overflow, = np.isinf(block).nonzero()
    if len(overflow) and b != np.inf:
        return block[:overflow[0]]
    return block


def make_exponential_search(m: int, b: float) -> SearchPlan:
    """Cyclic sweep of m rays with depths b^i.

    Excursion i goes out to b^i on ray i mod m and returns to the
    origin; every excursion starts from scratch (depth_inner 0), so the
    walker repays the approach each time.
    """
    if m < 2:
        raise ValueError(f"need at least 2 rays, got {m}")
    _require_base(b)

    def depths(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        outer = _powers(float(b), lo, hi)
        return np.zeros(len(outer)), outer

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

    def depths(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        # inner[i] is b^(i - m), the outer depth m excursions back: read
        # from the block where i - m lies in it, computed (by the same
        # float power) only for the up to m indices below it, and 0 for
        # i < m.
        fb = float(b)
        outer = _powers(fb, lo, hi)
        head = min(m, len(outer))
        below = _powers(fb, max(lo - m, 0), lo + head - m)
        return np.concatenate((np.zeros(head - len(below)), below,
                               outer[:len(outer) - head])), outer

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

    def depths(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        # The frontiers of phases lo // m .. (hi - 1) // m + 1.
        first = lo // m
        # A level past float range is inf, as x / y gives; at b = inf a
        # level past 0 is inf / inf, nan, made inf: the cost overflows.
        with np.errstate(over="ignore", invalid="ignore"):
            levels = (_powers(float(b), first, (hi - 1) // m + 2) - 1.0) / (b - 1.0)
        if b == np.inf:
            levels[np.isnan(levels)] = np.inf
        phases = np.arange(lo, min(hi, (first + len(levels) - 1) * m)) // m - first
        return levels[phases], levels[phases + 1]

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
        lengths = _powers(fb, first, (hi - 1) // hold + 1)
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
