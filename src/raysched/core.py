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
from typing import Callable, Iterator, Optional

import numpy as np

DEFAULT_HORIZON = 200
# Jobs a time walk may read before it gives up on reaching its time.
MAX_WALK_JOBS = 1_000_000
# Entries a trajectory may hold: a horizon of 10^6 plus a target's pass
# stream of as many excursions, at about 100 bytes an entry.
MAX_TRAJECTORY = 1 << 21
# Excursions a CyclicDepths computes ahead when read at one index.
MEMO_BLOCK = 64


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


@dataclass(frozen=True)
class CyclicDepths:
    """The generator of a plan that visits rays 0..m-1 in turn, written
    once as a block function: depths(lo, hi) returns the inner and outer
    depth lists of excursions lo..hi-1, cut at the first index whose
    depth overflows float range.  Called with one index it is the plan's
    per-index generator: it reads the excursion from the last block it
    computed, and on a miss computes depths(i, i + MEMO_BLOCK); an index
    past a block's cut misses and raises.  The memo is one (lo, inner,
    outer) tuple, replaced whole, and takes no part in equality or
    hashing.  SearchTrajectory reads tagged plans by block."""

    m: int
    depths: Callable[[int, int], tuple[list, list]]
    _memo: tuple = field(default=(0, (), ()), init=False, compare=False, repr=False)

    def __call__(self, i: int) -> Excursion:
        lo, inner, outer = self._memo
        if not 0 <= i - lo < len(outer):
            lo, (inner, outer) = i, self.depths(i, i + MEMO_BLOCK)
            object.__setattr__(self, "_memo", (lo, inner, outer))
            if not outer:
                raise OverflowError(f"depth of excursion {i} is out of float range")
        return Excursion(ray=i % self.m, depth_inner=inner[i - lo], depth_outer=outer[i - lo])


def _cost(plan: SearchPlan, inner, outer):
    """Distance charged for excursions from depth inner out to outer, as
    floats or aligned arrays.  Under EXPANDING only the new territory
    outer - inner is charged.  Under STANDARD the walker starts at the
    origin, so it pays the approach to inner, then traversals sweeps of
    the segment, then the return to the origin from whichever end the
    final sweep left it at (outer end after an odd number of sweeps)."""
    if plan.cost_model is CostModel.EXPANDING:
        return outer - inner
    r = plan.traversals
    back = outer if r % 2 == 1 else inner
    return inner + r * (outer - inner) + back


def _check_room(size: int, count: int, unit: str) -> None:
    """Raise when a trajectory at its MAX_TRAJECTORY entries is asked for
    more; growth blocks stop at that size."""
    if size >= MAX_TRAJECTORY:
        raise ValueError(f"{count} {unit} requested, more than the "
                         f"{MAX_TRAJECTORY} a trajectory may hold")


class SearchTrajectory:
    """A search plan's excursion prefix as columns, grown on demand.

    ray, inner, outer, cost and cum (the running cost, summed in walk
    order) hold one entry per excursion; next_same[k] is the next
    excursion on k's ray, or -1, linked when read (growth links nothing,
    so per-index growth pays no linking).  A tagged plan whose generator is a
    CyclicDepths is read in blocks of its depth function, with the checks
    of Excursion and SearchPlan.excursion made on the arrays; any other
    plan (custom, or with its generator swapped) calls plan.excursion
    once per index, which a CyclicDepths answers from its memoized block.
    Full columns are replaced by ones of twice the size, with the filled
    prefix copied.  The first index that cannot be materialized (the plan
    raises, or cum leaves float range) ends the prefix, and its error is
    raised to every caller that needs it.  hint appends advice to the
    overflow message (competitive_ratio gives it, the pass streams do
    not).
    """

    def __init__(self, plan: SearchPlan, *, hint: bool = False) -> None:
        self.plan = plan
        self.hint = hint
        self.size = 0
        self.ray, self._next = np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
        self.inner, self.outer, self.cost, self.cum = (np.empty(0) for _ in range(4))
        self._last = np.full(plan.ray_count, -1)  # each ray's last linked excursion
        self._linked = 0
        self._error: Optional[Exception] = None
        self._cyclic = isinstance(plan.generator, CyclicDepths) and plan.tag.kind != "custom"

    def reach(self, count: int, bound: int = 0) -> None:
        """Materialize the first count excursions, or raise the error of
        the first one that cannot be.  A block read runs ahead up to
        twice the size, but not past bound, the furthest count the
        caller may ask for; an error past count waits for a caller that
        needs it.  Past MAX_TRAJECTORY excursions it raises."""
        while self.size < count:
            if self._error is not None:
                raise self._error
            _check_room(self.size, count, "excursions")
            lo = self.size
            if not self._cyclic:
                self._fill(lo, *self._excursions(lo, min(count, MAX_TRAJECTORY)))
                continue
            hi = min(max(count, min(2 * lo, bound)), MAX_TRAJECTORY)
            inner, outer = self.plan.generator.depths(lo, hi)
            inner, outer = np.array(inner, dtype=float), np.array(outer, dtype=float)
            ray = np.arange(lo, lo + len(outer)) % self.plan.generator.m
            ok = (0 <= inner) & (inner < outer) & (ray < self.plan.ray_count)
            n = len(ok) if ok.all() else int(ok.argmin())
            self._fill(lo, ray[:n], inner[:n], outer[:n], None)
            if self.size == lo + n < hi:  # cut or rejected: plan.excursion's error
                self._error = self._excursions(lo + n, lo + n + 1)[3]

    def _excursions(self, lo: int, hi: int) -> tuple:
        """Columns of excursions lo..hi-1 by plan.excursion, cut at the
        first that raises, and its error."""
        rays, inner, outer = [], [], []
        for i in range(lo, hi):
            try:
                exc = self.plan.excursion(i)
            except Exception as err:
                return rays, inner, outer, err
            rays.append(exc.ray)
            inner.append(exc.depth_inner)
            outer.append(exc.depth_outer)
        return rays, inner, outer, None

    def _fill(self, lo: int, ray, inner, outer, error: Optional[Exception]) -> None:
        """Append valid excursions lo.. with cost and cum, in the scalar
        chain's operand order; error is the failure just past them."""
        inner, outer = np.asarray(inner, dtype=float), np.asarray(outer, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            cost = _cost(self.plan, inner, outer)
            cum = np.add.accumulate(np.concatenate(([self.cum[lo - 1] if lo else 0.0],
                                                    cost)))[1:]
        finite = np.isfinite(cum)
        n = len(finite) if finite.all() else int(finite.argmin())
        if n < len(finite):
            advice = "; reduce the horizon or the growth base"
            error = ValueError(f"cumulative cost overflowed at excursion {lo + n}"
                               + (advice if self.hint else ""))
        end = lo + n
        if end > len(self.ray):
            for name in ("ray", "_next", "inner", "outer", "cost", "cum"):
                grown = np.empty(2 * end + 64, dtype=getattr(self, name).dtype)
                grown[:lo] = getattr(self, name)[:lo]
                setattr(self, name, grown)
        for column, values in ((self.ray, ray), (self.inner, inner), (self.outer, outer),
                               (self.cost, cost), (self.cum, cum)):
            column[lo:end] = values[:n]
        self.size = end
        self._error = error

    @property
    def next_same(self) -> np.ndarray:
        """The next-excursion links, after linking the excursions added
        since the last read: a stable sort by ray puts each ray's last
        linked excursion (from _last) ahead of its new ones, in order."""
        lo, hi, m = self._linked, self.size, len(self._last)
        if lo < hi:
            order = np.concatenate((np.arange(m), self.ray[lo:hi])).argsort(kind="stable")
            chain = np.concatenate((self._last, np.arange(lo, hi)))[order]
            same = order[1:] >= m  # chain[i + 1] follows chain[i] on its ray
            link = same & (chain[:-1] >= 0)
            self._next[lo:hi] = -1
            self._next[chain[:-1][link]] = chain[1:][link]
            self._last = chain[np.concatenate((~same, [True]))]
            self._linked = hi
        return self._next


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
        Job.check_span(self.start, self.finish, self.length)

    @staticmethod
    def check_span(start: float, finish: float, length: float) -> None:
        """Raise unless finish - start is length to within 1e-12; it is
        not where the clock absorbs or rounds away part of the length."""
        if not math.isclose(finish - start, length, rel_tol=1e-12, abs_tol=1e-12):
            raise ValueError(
                f"finish - start = {finish - start} does not match length {length}"
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


class ScheduleTrajectory:
    """A schedule plan's job prefix as columns, grown on demand.

    problem, length and finish (the running clock, summed in schedule
    order; job k starts at finish[k - 1], job 0 at 0) hold one entry per
    job.  A tagged plan whose generator carries a block function (its
    jobs attribute, set by the factories) is read by block, with the
    checks of SchedulePlan.job_spec made on the arrays; any other plan
    (custom, or with its generator swapped) calls plan.job_spec once per
    index.  Blocks at least double the prefix.  The first job that fails
    job_spec, overflows the clock or breaks Job's finish - start ==
    length rule ends the prefix, and its error is raised to every caller
    that needs it.
    """

    def __init__(self, plan: SchedulePlan) -> None:
        self.plan = plan
        self.size = 0
        self.problem = np.empty(0, dtype=np.intp)
        self.length, self.finish = np.empty(0), np.empty(0)
        self._error: Optional[Exception] = None
        self._block = (None if plan.tag.kind == "custom"
                       else getattr(plan.generator, "jobs", None))

    def reach(self, count: int) -> None:
        """Materialize the first count jobs, or raise the error of the
        first one that cannot be.  Past MAX_TRAJECTORY jobs it raises."""
        while self.size < count:
            if self._error is not None:
                raise self._error
            _check_room(self.size, count, "jobs")
            lo = self.size
            hi = min(count, max(2 * lo, 256), MAX_TRAJECTORY)
            if self._block is None:
                self._fill(lo, *self._specs(lo, hi))
                continue
            problem, length = self._block(lo, hi)
            ok = (problem < self.plan.problem_count) & (length > 0)
            n = len(ok) if ok.all() else int(ok.argmin())
            self._fill(lo, problem[:n], length[:n], None)
            if self.size == lo + n < hi:  # cut or rejected: job_spec's error
                self._error = self._specs(lo + n, lo + n + 1)[2]

    def _specs(self, lo: int, hi: int) -> tuple:
        """Problems and lengths of jobs lo..hi-1 by plan.job_spec, cut at
        the first that raises, and its error."""
        problems, lengths = [], []
        for i in range(lo, hi):
            try:
                problem, length = self.plan.job_spec(i)
                0.0 + length  # clock + length raises here on a length no float holds
            except Exception as err:
                return problems, lengths, err
            problems.append(problem)
            lengths.append(length)
        return problems, lengths, None

    def _fill(self, lo: int, problem, length, error: Optional[Exception]) -> None:
        """Append valid jobs lo.. with their finish times, cut at the first
        whose finish overflows or breaks Job.check_span; error is the
        failure just past them.  The columns pass every job math.isclose
        passes (its CPython formula) and the scalar check decides the rest."""
        values = np.asarray(length, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            clock = np.add.accumulate(np.concatenate(
                ([self.finish[lo - 1] if lo else 0.0], values)))
            span = clock[1:] - clock[:-1]
            gap = np.abs(values - span)
            ok = np.isfinite(clock[1:]) & (
                (span == values) | (gap <= np.abs(1e-12 * values))
                | (gap <= np.abs(1e-12 * span)) | (gap <= 1e-12))
        n = len(ok)
        for k in np.flatnonzero(~ok).tolist():
            if not math.isfinite(clock[k + 1]):
                n, error = k, ValueError(f"schedule clock overflowed at job {lo + k}")
                break
            try:
                Job.check_span(float(clock[k]), float(clock[k + 1]),
                               length[k] if isinstance(length, list) else float(values[k]))
            except ValueError as err:
                n, error = k, err
                break
        self.problem = np.concatenate((self.problem, np.asarray(problem[:n], dtype=np.intp)))
        self.length = np.concatenate((self.length, values[:n]))
        self.finish = np.concatenate((self.finish, clock[1:n + 1]))
        self.size = lo + n
        self._error = error


def jobs_before(plan: SchedulePlan, t: float) -> Iterator[tuple[int, float, float, float]]:
    """Every job that starts strictly before time t, in schedule order, as
    (problem, length, start, finish), read by one plan.job_spec call each;
    the job that spans t comes whole, on an interruptible plan too, and
    contract_count and preemption_count count these jobs.  A negative or
    NaN t raises at the call.  Time walks read 1 to 108 jobs in the
    catalog and bench; over that mix this loop costs a quarter of one
    trajectory block per walk (ROADMAP item 3).  Each job is checked in
    the trajectory's order: job_spec, the clock's overflow, Job's span rule
    on the full length, then a clock that no longer advances (a length
    under the rule's 1e-12 absolute tolerance).  A walk that has not
    reached t after MAX_WALK_JOBS jobs raises."""
    if not t >= 0:
        raise ValueError(f"time must be >= 0, got {t}")

    def walk() -> Iterator[tuple[int, float, float, float]]:
        clock, i = 0.0, 0
        while clock < t:
            if i == MAX_WALK_JOBS:
                raise ValueError(f"time {t} not reached within {MAX_WALK_JOBS} jobs")
            problem, length = plan.job_spec(i)
            finish = clock + length
            if not math.isfinite(finish):
                raise ValueError(f"schedule clock overflowed at job {i}")
            Job.check_span(clock, finish, length)
            if finish == clock:
                raise ValueError(f"schedule clock stopped advancing at job {i}")
            yield problem, length, clock, finish
            clock, i = finish, i + 1
    return walk()


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
