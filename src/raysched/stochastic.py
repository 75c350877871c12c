"""Stochastic evaluation: probabilistic detection, expected-credit
scheduling, and the randomized schedule's measured acceleration ratio.

Series evaluators are exact up to an explicit geometric tail cutoff;
Monte Carlo estimators use counter-based seeding so results are
deterministic for a given seed and independent of execution order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, Optional

import numpy as np

from .core import DEFAULT_HORIZON, McEstimate, RatioReport, SchedulePlan, SearchPlan
from .core import SearchTrajectory
from .numopt import beta_r_closed_form, lemma_root
from .sched_eval import analytic_schedule_limits, longest_completed
from .search_eval import frontier_passes, visit_cost_stream
from .strategies import make_exponential_schedule


class DirectionRule(Enum):
    """Whether a pass over the target can reveal it in both movement
    directions or only while heading away from the origin."""

    BOTH_DIRECTIONS = "both-directions"
    OUTWARD_ONLY = "outward-only"


@dataclass(frozen=True)
class DetectionModel:
    """Per-pass detection probability and the pass-counting rule."""

    p: float
    direction_rule: DirectionRule = DirectionRule.BOTH_DIRECTIONS

    def __post_init__(self) -> None:
        if not 0 < self.p <= 1:
            raise ValueError(f"detection probability must be in (0, 1], got {self.p}")


def tuned_search_base(m: int, p: float) -> float:
    """Exploration base m/(m - rho) where rho is the tuned root for
    detection probability p; this choice yields the published
    probabilistic-detection guarantee."""
    if m < 2:
        raise ValueError(f"ray count must be >= 2, got {m}")
    return m / (m - lemma_root(p))


def _unbounded_reason(plan: SearchPlan, p: float) -> Optional[str]:
    """Analytic divergence test for tagged plan families.

    Exploration growing by factor b per excursion survives detection
    misses only when b^m(1-p) < 1.  The expanding phase plan passes
    each point exactly once, so any miss is final.
    """
    tag = plan.tag
    if tag.kind in ("exponential", "nm") and tag.base is not None:
        lam = tag.base ** plan.ray_count * (1.0 - p)
        if lam >= 1.0:
            return (
                f"expected cost diverges: growth factor per miss "
                f"b^m(1-p) = {lam:.6g} >= 1"
            )
    if tag.kind == "geometric" and p < 1.0:
        return (
            "expected cost diverges: each point is passed exactly once, "
            "so a missed detection is never retried"
        )
    return None


def _series_weights(p: float, tail_tol: float) -> Iterator[float]:
    """Weights p(1-p)^(k-1) of the detection series in pass order, the
    survival factor (1-p)^(k-1) built by repeated multiplication; ends
    once that factor falls below tail_tol."""
    q = 1.0 - p
    survival = 1.0
    while True:
        yield p * survival
        survival *= q
        if survival < tail_tol:
            return


def expected_search_cost(
    plan: SearchPlan,
    model: DetectionModel,
    target: tuple[int, float],
    tail_tol: float = 1e-12,
    *,
    beyond: bool = False,
) -> float:
    """Expected distance walked until the target is detected.

    The k-th pass over the target succeeds with probability p
    independently, so the cost is the series over pass ordinals of
    p(1-p)^(k-1) times the walk cost of that pass, truncated once the
    survival weight drops below tail_tol.  Returns +inf when the tagged
    family's analytic divergence test fires."""
    if tail_tol <= 0:
        raise ValueError(f"tail_tol must be > 0, got {tail_tol}")
    reason = _unbounded_reason(plan, model.p)
    if reason is not None:
        return math.inf
    ray, point = target
    outward = model.direction_rule is DirectionRule.OUTWARD_ONLY
    total = 0.0
    for weight, cost in zip(
        _series_weights(model.p, tail_tol),
        visit_cost_stream(plan, ray, point, beyond=beyond, outward_only=outward),
    ):
        total += weight * cost
    return total


def mc_search_cost(
    plan: SearchPlan,
    model: DetectionModel,
    target: tuple[int, float],
    trials: int,
    seed: int,
    *,
    beyond: bool = False,
) -> McEstimate:
    """Monte Carlo mean of the detection cost with per-pass Bernoulli
    detection; the pass ordinal of first success is geometric, so each
    trial draws the ordinal and looks up its exact walk cost."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    ray, point = target
    outward = model.direction_rule is DirectionRule.OUTWARD_ONLY
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    ordinals = rng.geometric(model.p, size=trials)
    needed = int(ordinals.max())
    passes = visit_cost_stream(plan, ray, point, beyond=beyond, outward_only=outward)
    costs = list(itertools.islice(passes, needed))
    lut = np.full(needed, math.inf)
    lut[: len(costs)] = costs
    sample = lut[ordinals - 1]
    mean = float(np.mean(sample))
    stderr = (
        float(np.std(sample, ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    )
    return McEstimate(mean=mean, stderr=stderr, trials=trials, seed=seed)


def probabilistic_competitive_ratio(
    plan: SearchPlan,
    model: DetectionModel,
    horizon: int = DEFAULT_HORIZON,
) -> RatioReport:
    """Worst ratio of expected detection cost to target distance over
    the frontier candidates (just beyond each excursion's far point).

    For exponential-family tags below the divergence threshold the
    exact candidate-limit value is attached."""
    m = plan.ray_count
    if horizon < m:
        raise ValueError(f"horizon {horizon} must cover at least {m} excursions")
    reason = _unbounded_reason(plan, model.p)
    if reason is not None:
        return RatioReport(
            finite_sup=math.inf, witness=None, horizon=horizon, note=reason
        )
    p = model.p
    q = 1.0 - p
    outward = model.direction_rule is DirectionRule.OUTWARD_ONLY
    # Every candidate's series is summed term by term in pass order, all
    # candidates at once; np.sum would reorder the additions.
    weights = np.fromiter(_series_weights(p, 1e-12), dtype=float)
    trajectory = SearchTrajectory(plan)
    expected = np.zeros(horizon)
    for taken, ordinal, cost in frontier_passes(
        plan, trajectory, horizon, weights.size, outward_only=outward, grow=True
    ):
        expected[taken] += weights[ordinal] * cost
    ratios = expected / trajectory.outer[:horizon]
    j = int(np.argmax(ratios))
    best = float(ratios[j])
    witness = (j, int(trajectory.ray[j]), float(trajectory.outer[j]))
    last_ratio = float(ratios[-1])
    limit_sup = None
    asymptotic = None
    tag = plan.tag
    if tag.kind == "exponential" and tag.base is not None:
        b = tag.base
        lam = q * b**m
        if outward:
            value = 1.0 + 2.0 * p * b**m / ((b - 1.0) * (1.0 - lam))
        else:
            value = 2.0 * p * b**m * (1.0 + q * b) / (
                (b - 1.0) * (1.0 - q * q * b**m)
            ) + p / (1.0 + q)
        limit_sup = asymptotic = value
    convergence_gap = None
    if asymptotic is not None:
        convergence_gap = abs(asymptotic - last_ratio)
    return RatioReport(
        finite_sup=best,
        witness=witness,
        horizon=horizon,
        limit_sup=limit_sup,
        asymptotic=asymptotic,
        convergence_gap=convergence_gap,
    )


def expected_acc_ratio_mc_contracts(
    n: int,
    p: float,
    b: float,
    horizon: int = DEFAULT_HORIZON,
) -> RatioReport:
    """Worst ratio of query time to least expected credit when each
    completed run pays off only with probability p.

    Runs follow the exponential round-robin schedule.  A problem's
    expected credit at time t is the series over its completed runs,
    longest first, of p(1-p)^(j-1) times the length; the sweep queries
    just after each completion (strict credit), skipping times where
    some problem has no completed run yet.  The worst case can sit at
    an early completion and exceed the steady-state value, which is
    reported as the asymptotic."""
    if n < 1:
        raise ValueError(f"problem count must be >= 1, got {n}")
    if not 0 < p <= 1:
        raise ValueError(f"probability must be in (0, 1], got {p}")
    if not b > 1:
        raise ValueError(f"base must be > 1, got {b}")
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    plan = make_exponential_schedule(n, b)
    q = 1.0 - p
    expected_credit = [0.0] * n
    completions = [0] * n
    clock = 0.0
    best = -math.inf
    witness = None
    for i in range(horizon):
        problem, length = plan.job_spec(i)
        t = clock + length
        if not math.isfinite(t):
            raise ValueError(f"schedule clock overflowed at job {i}")
        if all(completions):
            credit = min(expected_credit)
            ratio = t / credit
            if ratio > best:
                best = ratio
                witness = t
        # Lengths grow along the schedule, so each new completion is the
        # problem's largest and the credit series updates in one step.
        expected_credit[problem] = p * length + q * expected_credit[problem]
        completions[problem] += 1
        clock = t
    if witness is None:
        return RatioReport(
            finite_sup=math.inf,
            witness=None,
            horizon=horizon,
            note="some problem never completes a run within the horizon",
        )
    asymptotic = b ** (n + 1) * (1.0 - q * b**-n) / (p * (b - 1.0))
    limit_sup = None
    if p == 1.0:
        limit_sup, _ = analytic_schedule_limits(plan, longest_completed())
    return RatioReport(
        finite_sup=best,
        witness=witness,
        horizon=horizon,
        limit_sup=limit_sup,
        asymptotic=asymptotic,
        convergence_gap=abs(best - asymptotic),
    )


@dataclass(frozen=True)
class RandomizedScheduleParams:
    """Query-time grid for measuring the randomized schedule.

    Each grid entry (k, delta) encodes the query time
    t = (b^k - 1)/(b - 1) * b^delta.  k must be at least n+1 so every
    problem has a completed run at the query, and delta in [0, 1) keeps
    the running-run index within one step of k."""

    n: int
    b: float
    epsilon_grid_size: int = 16
    t_grid: tuple[tuple[int, float], ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"problem count must be >= 1, got {self.n}")
        if not self.b > 1:
            raise ValueError(f"base must be > 1, got {self.b}")
        if self.epsilon_grid_size < 1:
            raise ValueError(
                f"epsilon grid size must be >= 1, got {self.epsilon_grid_size}"
            )
        if not self.t_grid:
            raise ValueError("t_grid must be non-empty")
        b = self.b
        for k, delta in self.t_grid:
            if k < self.n + 1:
                raise ValueError(
                    f"grid k={k} too small: need k >= n+1 = {self.n + 1} so "
                    "every problem has a completed run"
                )
            if not 0 <= delta < 1:
                raise ValueError(f"delta must be in [0, 1), got {delta}")
            try:
                top = b ** (k + 1)
            except OverflowError:
                top = math.inf
            if not math.isfinite(top):
                raise ValueError(
                    f"grid point (k={k}, delta={delta}) overflowed float range "
                    f"at base {b}; reduce the base"
                )
            if b**delta >= (top - 1.0) / (b**k - 1.0):
                raise ValueError(
                    f"grid point (k={k}, delta={delta}) breaks the "
                    "running-run index invariant"
                )

    def query_time(self, k: int, delta: float) -> float:
        return (self.b**k - 1.0) / (self.b - 1.0) * self.b**delta


def standard_t_grid(
    n: int, b: float, k_count: int = 12, deltas: tuple[float, ...] = (0.0, 0.5)
) -> tuple[tuple[int, float], ...]:
    """Default (k, delta) grid: k = n+1 .. n+k_count crossed with the
    given offsets."""
    if k_count < 1:
        raise ValueError(f"k_count must be >= 1, got {k_count}")
    return tuple(
        (k, delta) for k in range(n + 1, n + 1 + k_count) for delta in deltas
    )


def mc_randomized_schedule_detail(
    params: RandomizedScheduleParams, trials: int, seed: int
) -> list[dict]:
    """Per-grid-point Monte Carlo rows for the randomized schedule.

    Each row estimates E[D], the returned-run length at query time t,
    by sampling the schedule's random permutation and offset: run i has
    length b^(i+epsilon) and serves the permutation's (i mod n)-th
    problem.  The count of completed runs is found from the finish
    times and asserted to be k or k-1; the queried problem's most
    recent completed run is D.  Epsilon is sampled stratified over
    [0, 1); each grid point gets an independent child seed, so rows are
    reproducible in any execution order."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    n, b = params.n, params.b
    rows: list[dict] = []
    for idx, (k, delta) in enumerate(params.t_grid):
        rng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(idx,)))
        )
        t = params.query_time(k, delta)
        strata = np.arange(trials) % params.epsilon_grid_size
        eps = (strata + rng.random(trials)) / params.epsilon_grid_size
        # Finish of run j is b^eps (b^j - 1)/(b - 1); the number of
        # completed runs l satisfies finish(l) <= t < finish(l+1).
        finish_k = b**eps * (b**k - 1.0) / (b - 1.0)
        run_index = np.where(finish_k <= t, k, k - 1)
        finish_l = b**eps * (b ** run_index.astype(float) - 1.0) / (b - 1.0)
        finish_next = b**eps * (b ** (run_index + 1.0) - 1.0) / (b - 1.0)
        if not bool(np.all((finish_l <= t) & (t < finish_next))):
            raise AssertionError(
                "running-run index fell outside {k-1, k} at "
                f"grid point (k={k}, delta={delta})"
            )
        perms = np.argsort(rng.random((trials, n)), axis=1)
        slot_of_queried = np.argmax(perms == 0, axis=1)
        staleness = (run_index - 1 - slot_of_queried) % n
        last_index = run_index - 1 - staleness
        sample = b ** (last_index + eps)
        mean = float(np.mean(sample))
        stderr = (
            float(np.std(sample, ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
        )
        rows.append(
            {
                "k": k,
                "delta": delta,
                "t": t,
                "d_mean": mean,
                "d_stderr": stderr,
                "ratio": t / mean,
            }
        )
    return rows


def mc_randomized_schedule_ratio(
    params: RandomizedScheduleParams, trials: int, seed: int
) -> RatioReport:
    """Measured sup over the query grid of t / E[D] for the randomized
    schedule; the exact closed-form ratio is attached as the asymptotic
    reference (a Monte Carlo maximum is not a certified supremum)."""
    rows = mc_randomized_schedule_detail(params, trials, seed)
    worst = max(rows, key=lambda row: row["ratio"])
    reference = beta_r_closed_form(params.n, params.b)
    return RatioReport(
        finite_sup=worst["ratio"],
        witness=worst["t"],
        horizon=len(rows),
        limit_sup=None,
        asymptotic=reference,
        convergence_gap=abs(reference - worst["ratio"]),
        note="Monte Carlo estimate over the query grid",
    )
