"""Stochastic evaluation: probabilistic detection, expected-credit
scheduling, and the randomized schedule's measured acceleration ratio.

Series evaluators are exact up to an explicit geometric tail cutoff.
Monte Carlo estimators draw from Philox, a counter-based generator,
seeded per call (and per grid point), so results are deterministic for
a given seed.  The
randomized schedule's grid points are dealt whole to up to four
threads, and each point runs its trials in fixed-size chunks read in
order from its stream, so its rows do not depend on the number of
cores, threads or chunks.  Its trials read finish times off per-point
thresholds on b^eps, exactly, as rounding is monotone, compared on
epsilon: only trials near a threshold's logarithm take b^eps.
"""

from __future__ import annotations

import contextvars
import itertools
import math
import os
import sys
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import DEFAULT_HORIZON, MAX_TRAJECTORY, McEstimate, RatioReport
from .core import SchedulePlan, SearchPlan
from .core import ScheduleTrajectory, SearchTrajectory
from .numopt import beta_r_closed_form, family_limits, lemma_root
from .sched_eval import SemanticsKind
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
        try:
            lam = tag.base ** plan.ray_count * (1.0 - p)
        except OverflowError:  # b^m past float range counts as b = inf
            lam = math.inf * (1.0 - p)
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
    if not tail_tol > 0:
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
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
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
    if horizon > MAX_TRAJECTORY:  # before the sweep allocates the horizon
        raise ValueError(f"horizon of {horizon} excursions requested, more than "
                         f"the {MAX_TRAJECTORY} a trajectory may hold")
    p = model.p
    outward = model.direction_rule is DirectionRule.OUTWARD_ONLY
    # Every candidate's series is summed term by term in pass order, all
    # candidates at once; np.sum would reorder the additions.  The weights
    # end in a 0 for the ordinal of candidates that have all their passes.
    weights = np.fromiter(_series_weights(p, 1e-12), dtype=float)
    w = np.append(weights, 0.0)
    trajectory = SearchTrajectory(plan)
    expected = np.zeros(horizon)
    for hit, ordinal, cost in frontier_passes(
        plan, trajectory, horizon, weights.size, outward_only=outward, grow=True
    ):
        np.add(expected, w[ordinal] * cost, out=expected, where=hit)
    ratios = expected / trajectory.outer[:horizon]
    j = int(np.argmax(ratios))
    best = float(ratios[j])
    witness = (j, int(trajectory.ray[j]), float(trajectory.outer[j]))
    limits = family_limits(plan, model.direction_rule.value, m, p)
    if limits is None:
        return RatioReport(finite_sup=best, witness=witness, horizon=horizon)
    limit_sup, asymptotic = limits
    return RatioReport(finite_sup=best, witness=witness, horizon=horizon,
                       limit_sup=limit_sup, asymptotic=asymptotic,
                       convergence_gap=abs(asymptotic - float(ratios[-1])))


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
    trajectory = ScheduleTrajectory(plan)
    trajectory.reach(horizon)
    if horizon <= n:  # some problem has not completed a run at any query
        return RatioReport(
            finite_sup=math.inf,
            witness=None,
            horizon=horizon,
            note="some problem never completes a run within the horizon",
        )
    if p * (b - 1.0) == 0:  # the asymptotic's denominator
        raise ValueError(f"p * (b - 1) underflows to 0 at p = {p}, b = {b}")
    q = 1.0 - p
    # Job j runs problem j % n.  Lengths grow along the schedule, so each
    # new completion is its problem's largest and the credit series
    # updates in one step: credit[j] is job j's problem's credit after it.
    credit = np.empty(horizon)
    for i in range(n):
        credit[i::n] = list(itertools.accumulate(
            trajectory.length[i:horizon:n].tolist(), lambda c, x: p * x + q * c,
            initial=0.0))[1:]
    # Query j >= n finds every problem's credit after its last job, the
    # previous n events; the first maximum is the witness.  A subnormal p
    # overflows a ratio to inf, as the scalar division did.
    with np.errstate(over="ignore"):
        ratios = trajectory.finish[n:horizon] / sliding_window_view(credit[:-1], n).min(axis=1)
    j = int(np.argmax(ratios))
    best, witness = float(ratios[j]), float(trajectory.finish[n + j])
    asymptotic = b ** (n + 1) * (1.0 - q * b**-n) / (p * (b - 1.0))
    longest = SemanticsKind.LONGEST_COMPLETED.value
    limit_sup = family_limits(plan, longest, n, 1)[0] if p == 1.0 else None
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
            if not math.isfinite(self.query_time(k, delta)):
                raise ValueError(
                    f"grid point (k={k}, delta={delta}) query time overflowed "
                    f"float range at base {b}; reduce the base"
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


# Grid points go to more than one thread only at _MIN_SLICE trials or
# more, and to at most trials // _MIN_SLICE threads.
_MIN_SLICE = 1 << 14
# At most this many threads run grid points; each holds one trial-length
# vector.
_MAX_WORKERS = 4
# A call's threads run their points' trials in chunks of, together, at
# most _CHUNK trials and _CHUNK_KEYS keys.
_CHUNK = 1 << 16
_CHUNK_KEYS = 1 << 17
# b^eps <= x is decided on eps <= log_b(x), except within _GUARD / ln b
# of it, where np.power decides.
_GUARD = 2.0**-30


def _core_count() -> int:
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _threshold(b: float, j: int, t: float) -> float:
    """The largest double x >= 0 with (x * (b^j - 1)) / (b - 1) <= t in
    doubles: run j's finish time at b^eps = x."""
    scale, c = b**j - 1.0, b - 1.0
    if t == math.inf:
        return t
    x = min(t / scale * c, sys.float_info.max / scale)  # a few ulps off
    while x * scale / c > t:
        x = math.nextafter(x, 0.0)
    while (up := math.nextafter(x, math.inf)) * scale / c <= t:
        x = up
    return x


def _power_at_most(b: float, eps: np.ndarray, x: float, out: np.ndarray,
                   scratch: np.ndarray, band: np.ndarray) -> np.ndarray:
    """np.power(b, eps) <= x, for x > 0, into out, on float and bool
    work vectors of eps's size.  Where |eps - e| > w, for e = ln x / ln b
    and w = _GUARD / ln b, it is eps <= e: e is within 2^-41 / ln b of
    log_b(x), so b^eps is over 2^-31 relative from x, and np.power,
    within 2^-31 of b^eps (2^-40 in the tests), rounds to x's same side.
    Only the trials within w of e take the power."""
    e, w = math.log(x) / math.log(b), _GUARD / math.log(b)
    np.less_equal(eps, e, out=out)
    np.subtract(eps, e, out=scratch)
    np.absolute(scratch, out=scratch)
    np.less_equal(scratch, w, out=band)
    if band.any():
        out[band] = np.power(b, eps[band]) <= x
    return out


def _mean_and_stderr(d: np.ndarray) -> tuple[float, float]:
    """np.mean(d) and np.std(d, ddof=1) / sqrt(d.size), to the last bit,
    for d >= 0.  The deviations are taken in place, with np.std's own
    steps, so d is overwritten and no temporary of its size is made.
    Deviations whose squares could pass float range are scaled by 2^-s
    first, and the standard error by 2^s after, exactly.  Where np.mean
    would overflow on finite d, the plain sum overflows once, under the
    caller's errstate, and is taken again on d scaled by 2^-scale; the
    mean and standard error are scaled back by 2^scale, exactly."""
    total, scale = float(np.add.reduce(d)), 0
    if math.isinf(total):
        scale = d.size.bit_length() + 1
        np.ldexp(d, -scale, out=d)
        total = float(np.add.reduce(d))
    mean = total / d.size
    if d.size == 1:
        return mean, 0.0
    np.subtract(d, mean, out=d)
    # Deviations under 2^limit square and sum in range.  As d >= 0, none
    # passes twice the sum, so only a large mean needs their peak.
    limit = (1023 - d.size.bit_length()) // 2
    s = max(0, math.frexp(mean)[1] + d.size.bit_length() + 1 - limit)
    if s:
        s = max(0, math.frexp(max(-float(d.min()), float(d.max())))[1] - limit)
        np.ldexp(d, -s, out=d)
    np.square(d, out=d)
    variance = float(np.add.reduce(d)) / (d.size - 1)
    stderr = math.ldexp(math.sqrt(variance) / math.sqrt(d.size), s)
    return math.ldexp(mean, scale), math.ldexp(stderr, scale)


def mc_randomized_schedule_detail(
    params: RandomizedScheduleParams, trials: int, seed: int
) -> list[dict]:
    """Per-grid-point Monte Carlo rows for the randomized schedule.

    Each row estimates E[D], the returned-run length at query time t,
    by sampling the schedule's random permutation and offset: run i has
    length b^(i+epsilon) and serves the permutation's (i mod n)-th
    problem.  Run j has finished by t when (b^eps (b^j - 1)) / (b - 1),
    in doubles, is at most t.  Both roundings are monotone, so that
    holds exactly when np.power(b, eps) is at most x_j, the largest
    double for which it does, found once per point; and that is decided
    on eps against log_b(x_j), with b^eps taken only within about
    2^-30 / ln b of it (``_power_at_most``).  A trial is compared with
    x_k, and a chunk's least and greatest eps with the other two, which
    checks on every trial that the count of completed runs is k or k-1.
    The queried problem's most recent completed run is D.  The
    permutation is the argsort of n uniform keys, so the queried
    problem's slot in it is the rank of its key: a count of the keys
    below it, and no sort.
    Epsilon is sampled stratified over [0, 1).  Grid point idx draws
    from its own stream, Philox seeded by ``SeedSequence(entropy=seed,
    spawn_key=(idx,))``: first one epsilon per trial, then the trials'
    n keys row by row.  Rows are reproducible in any execution order.

    A grid point runs start to finish on one thread.  Its trials go in
    chunks, of at most ``_CHUNK`` trials and ``_CHUNK_KEYS`` keys split
    among the call's threads, which read its epsilons in order from the
    stream at draw 0 and its keys from the stream at draw ``trials``,
    and reuse the thread's chunk-sized vectors; only D, the point's
    trial-length vector, holds every trial, for the mean and the
    standard error (taken in place, with ``np.std``'s own steps, and
    scaled where the squares would pass float range).  The points are
    dealt to up to ``_MAX_WORKERS`` threads, no more than the cores the
    process may run on nor than trials // ``_MIN_SLICE``: thread w runs
    points w, w + W, w + 2W, ...  The calling thread is thread 0; the
    others run on a pool that lives for the call, in copies of the
    caller's context, so an ``np.errstate`` in force applies to them
    too.  A thread stops at its first failing point, and the call raises
    the failure of the lowest failing point once every thread is done,
    as one thread would.  The rows are the same to the last bit for any
    number of threads or chunk size."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if trials > sys.maxsize // 8:
        raise ValueError(
            f"trials must be <= {sys.maxsize // 8}, the doubles a vector may "
            f"hold, got {trials}"
        )
    n, b = params.n, params.b
    grid_size = params.epsilon_grid_size
    points = len(params.t_grid)
    workers = max(1, min(_core_count(), points, trials // _MIN_SLICE, _MAX_WORKERS))
    chunk = max(1, min(_CHUNK // workers, _CHUNK_KEYS // (workers * n), trials))
    # Trial i's stratum is i % grid_size: a chunk from trial lo reads its
    # strata from here at lo % grid_size.
    strata = (np.arange(min(grid_size, trials) + chunk) % grid_size).astype(float)
    rows: list[dict] = [{}] * points

    def stream(idx: int, draw: int) -> np.random.Generator:
        """Grid point idx's stream, positioned at its draw-th double."""
        bit_gen = np.random.Philox(
            np.random.SeedSequence(entropy=seed, spawn_key=(idx,))
        )
        bit_gen.advance(draw // 4)  # one counter step yields four doubles
        rng = np.random.Generator(bit_gen)
        rng.random(draw % 4)
        return rng

    def run_point(idx: int, d: np.ndarray, vectors: tuple) -> dict:
        """Grid point idx's row.  Its D goes into d, chunk by chunk
        through the chunk-sized vectors."""
        eps, at_k, band, slot, keys, below = vectors
        k, delta = params.t_grid[idx]
        t = params.query_time(k, delta)
        x_before, x_k, x_after = (_threshold(b, j, t) for j in (k - 1, k, k + 1))
        log_b = math.log(b)
        w = _GUARD / log_b
        least, most = math.log(x_after) / log_b + w, math.log(x_before) / log_b - w
        # The queried problem's last completed run has index
        # l - 1 - ((l - 1 - slot) mod n).  That takes 2n values, one per
        # (l, slot), tabled here and looked up at 2 slot + [l = k].
        last_index = np.array(
            [runs - 1 - (runs - 1 - s) % n for s in range(n) for runs in (k - 1, k)],
            dtype=float,
        )
        eps_draws, key_draws = stream(idx, 0), stream(idx, trials)
        for lo in range(0, trials, chunk):
            size = min(chunk, trials - lo)
            d_, eps_, at_k_ = d[lo:lo + size], eps[:size], at_k[:size]
            band_, slot_ = band[:size], slot[:size]
            eps_draws.random(out=eps_)
            np.add(strata[lo % grid_size:][:size], eps_, out=eps_)
            np.divide(eps_, grid_size, out=eps_)
            # The number of completed runs l satisfies finish(l) <= t <
            # finish(l+1): l = k where b^eps <= x_k, k-1 elsewhere, which
            # holds if no b^eps is at most x_after nor above x_before.
            _power_at_most(b, eps_, x_k, at_k_, d_, band_)
            outside = False
            if eps_.min() <= least:
                np.less_equal(eps_, least, out=band_)
                outside = bool((np.power(b, eps_[band_]) <= x_after).any())
            if eps_.max() > most:
                np.greater(eps_, most, out=band_)
                outside |= bool((np.power(b, eps_[band_]) > x_before).any())
            if outside:
                raise AssertionError(
                    "running-run index fell outside {k-1, k} at "
                    f"grid point (k={k}, delta={delta})"
                )
            # The slot counts the keys below the queried problem's, key 0.
            # With n = 1 it is 0 and no keys are drawn.
            if n > 1:
                key_draws.random(out=keys[:size])
            np.less(keys[:size, 1:].T, keys[:size, 0], out=below[:, :size])
            np.add.reduce(below[:, :size], axis=0, dtype=np.intp, out=slot_)
            np.add(slot_, slot_, out=slot_)
            np.add(slot_, at_k_, out=slot_)
            # slot_ is in range; "clip" writes to d_ with no buffer of its size.
            np.take(last_index, slot_, out=d_, mode="clip")
            np.add(d_, eps_, out=d_)
            np.power(b, d_, out=d_)
        mean, stderr = _mean_and_stderr(d)
        return dict(k=k, delta=delta, t=t, d_mean=mean, d_stderr=stderr,
                    ratio=t / mean)

    def run_points(first: int) -> Optional[tuple[int, Exception]]:
        """Rows of grid points first, first + workers, ... on this
        thread's own vectors.  Returns the index and the error of the
        point it stopped at, if one failed."""
        idx = first
        try:
            d = np.empty(trials)
            vectors = (np.empty(chunk), *np.empty((2, chunk), dtype=bool),
                       np.empty(chunk, dtype=np.intp), np.empty((chunk, n)),
                       np.empty((n - 1, chunk), dtype=bool))
            for idx in range(first, points, workers):
                rows[idx] = run_point(idx, d, vectors)
        except Exception as exc:  # raised by the caller, lowest point first
            return idx, exc
        return None

    if workers == 1:
        failures = [run_points(0)]
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(workers - 1) as pool:
            futures = [
                pool.submit(contextvars.copy_context().run, run_points, w)
                for w in range(1, workers)
            ]
            failures = [run_points(0)] + [future.result() for future in futures]
    failed = [failure for failure in failures if failure is not None]
    if failed:
        raise min(failed, key=lambda failure: failure[0])[1]
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
