"""The claim catalog: every recorded reference value bound to a
measurement.

The catalog is one tuple of declared rows.  A row names its claim id,
the relation and tolerance of the comparison, its parameter points and
a measure returning (reference value, measured value, params label) at
one point; run_claim_catalog turns the rows into ClaimChecks in one
loop.  Reference values come from the closed-form table in numopt.

A row that reads one field of one plan's sweep declares the sweep as
data, a _Sweep, and one generic measure serves every such row; a sweep
that scores nothing within the horizon is an error naming the row, not
a measured inf.  Evaluators, factories and semantics are looked up in
this module's globals at call time, so a wrapper set here (a test's
call counter, perfbench's tracer) sees every call.  Every sweep goes
through the run's own memo (_Run.sweep, or _Run.once for the rest), so
a sweep several rows need runs once per catalog run.

Values are recorded verbatim even when measurement disagrees; entries
known to disagree with the source are marked informational only where
the source itself is internally inconsistent about them, and genuine
assertion failures stay Violated."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable

from .core import ClaimCheck, Relation, ScheduleTrajectory, check_claim
from .numopt import beta_r_star, closed_form, closed_form_entry, figure1_curve, scan_golden_min
from .search_eval import (
    FIRST_VISIT,
    competitive_ratio,
    cost_to_visit,
    rth_visit,
    turn_count,
)
from .sched_eval import (
    acceleration_ratio,
    aggregate_interruptible,
    contract_count,
    longest_completed,
    preemption_count,
    r_times_completed,
    rth_largest_completed,
)
from .stochastic import (
    DetectionModel,
    DirectionRule,
    RandomizedScheduleParams,
    expected_acc_ratio_mc_contracts,
    mc_randomized_schedule_ratio,
    probabilistic_competitive_ratio,
    standard_t_grid,
    tuned_search_base,
)
from .strategies import (
    make_exponential_schedule,
    make_exponential_search,
    make_geometric_rr_schedule,
    make_geometric_search,
    make_nm_search,
    make_pseudo_exponential_schedule,
    optimal_base_schedule,
    optimal_base_search,
)

EQUAL = Relation.EQUAL
AT_MOST = Relation.MEASURED_AT_MOST
AT_LEAST = Relation.MEASURED_AT_LEAST


@dataclass(frozen=True)
class ClaimConfig:
    """Catalog run settings: claim selection, sweep horizon, Monte
    Carlo budget.  subset is "all", "asserted", "informational", or a
    comma-separated list of claim-id prefixes."""

    subset: str = "all"
    horizon: int = 200
    trials: int = 100_000
    seed: int = 0


class _Run:
    """Settings and shared measurements of one catalog run."""

    def __init__(self, config: ClaimConfig) -> None:
        self.config = config
        self.horizon = config.horizon
        self._memo: dict[tuple, object] = {}

    def once(self, fn: Callable, *args):
        """fn(*args), computed at most once in this run."""
        key = (fn, args)
        if key not in self._memo:
            self._memo[key] = fn(*args)
        return self._memo[key]

    def sweep(self, evaluate: Callable, factory: Callable, args: tuple, semantics):
        """evaluate(factory(*args), semantics, horizon): the report of one
        plan's sweep, computed at most once in this run."""
        key = (evaluate, factory, args, semantics)
        if key not in self._memo:
            self._memo[key] = evaluate(factory(*args), semantics, self.horizon)
        return self._memo[key]


Measured = tuple[float, float, str]


@dataclass(frozen=True)
class _Row:
    """One declared claim.

    measure(run, claim_id, *point) returns (reference value, measured
    value, params label) at one point.  A relative tolerance is scaled
    by the reference value."""

    claim_id: str
    relation: Relation
    tolerance: float
    points: tuple[tuple, ...]
    measure: Callable[..., Measured]
    informational: bool = False
    relative: bool = False


def _label(**params) -> str:
    return " ".join(
        f"{name}={value:.6g}" if isinstance(value, float) else f"{name}={value}"
        for name, value in params.items()
    )


def _log_grid(lo: float, hi: float, count: int) -> list[float]:
    return [lo * (hi / lo) ** (i / (count - 1)) for i in range(count)]


def _no_value(claim_id: str, params: str, horizon: int, note: str = "") -> ValueError:
    return ValueError(f"claim {claim_id} at {params} has no value within horizon "
                      f"{horizon}" + (f": {note}" if note else ""))


@dataclass(frozen=True)
class _Sweep:
    """A row's measure off one plan's sweep: evaluator(factory(*args),
    semantics(*point), horizon), whose read field is compared with the
    closed form at the point.  args are named among the point's values
    (params) and the base b, which base(*point) derives when given and
    the label shows last unless label_base is False."""

    params: str
    evaluator: str
    factory: str
    args: str
    semantics: Callable
    read: str  # "limit_sup" or "finite_sup"
    base: Callable | None = None
    label_base: bool = True

    def __call__(self, run: _Run, claim_id: str, *point) -> Measured:
        named = dict(zip(self.params.split(), point))
        values = named if self.base is None else {**named, "b": self.base(*point)}
        label = _label(**(values if self.label_base else named))
        report = run.sweep(globals()[self.evaluator], globals()[self.factory],
                           tuple(values[name] for name in self.args.split()),
                           self.semantics(*point))
        if report.witness is None:
            raise _no_value(claim_id, label, run.horizon, report.note or "")
        return closed_form(claim_id, **named), getattr(report, self.read), label


# -- measurements the acceptance suite also reads ---------------------------


def _exp_fault_limit(m: int, r: int, horizon: int) -> tuple[float, float]:
    """(base, measured ratio limit) of the plain exponential plan with the
    best base for finding a target r times with m rays."""
    big_m = ((r + 1) // 2) * m
    b = big_m / (big_m - 1.0) if r % 2 == 1 else (big_m + 1.0) / big_m
    report = competitive_ratio(make_exponential_search(m, b), rth_visit(r), horizon)
    return b, report.limit_sup


def _nm_best_limit(m: int, r: int, horizon: int) -> tuple[float, float]:
    """(base, measured ratio limit) minimizing the r-sweep plan's limit
    over bases.

    The family's derived limit in the table of closed forms is minimized
    by a coarse grid plus golden-section refinement; one sweep at the
    chosen base then reports it, so RatioReport's finite_sup <= limit_sup
    guard still checks the value against the walk."""
    limit = closed_form_entry(("nm", "rth-visit")).formula
    b_star, _ = scan_golden_min(lambda b: limit(m, b, r, r), 4.0, 1e-9)
    report = competitive_ratio(make_nm_search(m, b_star, r), rth_visit(r), horizon)
    return b_star, report.limit_sup


def _rr_tail_ratio(n: int, b: float, phases: int) -> float:
    """Measured query ratio at the end of a late round-robin phase:
    query after the phase's last finish, crediting strictly earlier
    completed allotments only."""
    count = n * (phases + 1)
    trajectory = ScheduleTrajectory(make_geometric_rr_schedule(n, b))
    trajectory.reach(count)
    credit = [0.0] * n
    for problem, length in zip(trajectory.problem[:count - 1].tolist(),
                               trajectory.length[:count - 1].tolist()):
        credit[problem] += length
    return float(trajectory.finish[count - 1]) / min(credit)


def _expanding_tail_ratio(m: int, b: float, phase: int) -> float:
    """Measured frontier-candidate ratio on the expanding plan at a
    late phase (last ray of the phase)."""
    plan = make_geometric_search(m, b)
    j = phase * m + (m - 1)
    point = plan.excursion(j).depth_outer
    found = cost_to_visit(plan, (plan.excursion(j).ray, point), 1, beyond=True)
    return found / point


def _worst_ceiling(claim_id: str, count: Callable[[float], int], query: str,
                   **params) -> Measured:
    """(ceiling, count, label) at the grid query maximizing the count
    minus the claim's closed-form ceiling."""
    rows = [(x, count(x), closed_form(claim_id, **params, **{query: x}))
            for x in _log_grid(0.5, 1e4, 20)]
    x, worst, ceiling = max(rows, key=lambda row: row[1] - row[2])
    return ceiling, float(worst), _label(**params, **{query: x})


# -- the other rows' measures: (run, claim_id, *point) -> Measured ----------
# Their bodies call through this module's globals, as _Sweep does.


def _prob_sched(run: _Run, claim_id: str, n: int, p: float) -> Measured:
    b = optimal_base_schedule(n)
    report = run.once(expected_acc_ratio_mc_contracts, n, p, b, run.horizon)
    return closed_form(claim_id, n=n, p=p), report.finite_sup, _label(n=n, p=p)


def _fault_search(run: _Run, claim_id: str, m: int, r: int) -> Measured:
    b, measured = run.once(_exp_fault_limit, m, r, run.horizon)
    return closed_form(claim_id, m=m, r=r), measured, _label(m=m, r=r, b=b)


def _nm_vs_exponential(run: _Run, claim_id: str, m: int, r: int) -> Measured:
    exp_b, exp_value = run.once(_exp_fault_limit, m, r, run.horizon)
    nm_b, nm_value = run.once(_nm_best_limit, m, r, run.horizon)
    return exp_value, nm_value, _label(m=m, r=r, nm_b=nm_b, exp_b=exp_b)


def _pseudo_vs_exponential(run: _Run, claim_id: str, n: int, r: int) -> Measured:
    pseudo = run.sweep(acceleration_ratio, make_pseudo_exponential_schedule,
                       (n, optimal_base_schedule(n), r), r_times_completed(r))
    exp_b = optimal_base_schedule(r * n)  # rank-r credit's optimum: r*n problems
    exponential = run.sweep(acceleration_ratio, make_exponential_schedule,
                            (n, exp_b), rth_largest_completed(r))
    return exponential.limit_sup, pseudo.limit_sup, _label(n=n, r=r, exp_b=exp_b)


def _randomized_ratio(run: _Run, claim_id: str, n: int, b: float) -> Measured:
    trials = run.config.trials
    params = RandomizedScheduleParams(n=n, b=b, t_grid=standard_t_grid(n, b))
    report = mc_randomized_schedule_ratio(params, trials, run.config.seed)
    label = _label(n=n, b=b, trials=trials)
    return closed_form(claim_id, n=n, b=b), report.finite_sup, label


def _randomized_ratio_asymptote(run: _Run, claim_id: str, n: int) -> Measured:
    _, value = beta_r_star(n)
    return closed_form(claim_id, n=n), value, _label(n=n)


def _fig1_ratio(run: _Run, claim_id: str, n_max: int) -> Measured:
    rows = figure1_curve(n_max)
    worst = max(row[4] for row in rows if row[0] >= 2)
    return 0.6, worst, f"n=2..{n_max}"


def _fig1_ratio_edge(run: _Run, claim_id: str, n: int) -> Measured:
    return 0.6, figure1_curve(n)[0][4], _label(n=n)


def _rr_asymptotic(run: _Run, claim_id: str, n: int, b: float) -> Measured:
    measured = _rr_tail_ratio(n, b, phases=60)
    return closed_form(claim_id, n=n, b=b), measured, _label(n=n, b=b, phase=60)


def _expanding_search_asymptotic(
    run: _Run, claim_id: str, m: int, b: float
) -> Measured:
    measured = _expanding_tail_ratio(m, b, phase=60)
    return closed_form(claim_id, m=m, b=b), measured, _label(m=m, b=b, phase=60)


def _preemption_ceiling(run: _Run, claim_id: str, n: int, b: float) -> Measured:
    plan = make_geometric_rr_schedule(n, b)
    return _worst_ceiling(claim_id, lambda t: preemption_count(plan, t), "t", n=n, b=b)


def _contract_ceiling(run: _Run, claim_id: str, b: float) -> Measured:
    plan = make_exponential_schedule(1, b)
    return _worst_ceiling(claim_id, lambda t: contract_count(plan, t), "t", b=b)


def _turn_ceiling(run: _Run, claim_id: str, b: float) -> Measured:
    plan = make_exponential_search(2, b)
    return _worst_ceiling(claim_id, lambda d: turn_count(plan, d, one_way=True), "d",
                          b=b)


def _expanding_turn_ceiling(run: _Run, claim_id: str, m: int, b: float) -> Measured:
    plan = make_geometric_search(m, b)
    return _worst_ceiling(claim_id, lambda d: turn_count(plan, d), "d", m=m, b=b)


_BASES = (1.5, 2.0)

_PROB_SEARCH = _Sweep(
    "m p", "probabilistic_competitive_ratio", "make_exponential_search", "m b",
    lambda m, p: DetectionModel(p, DirectionRule.OUTWARD_ONLY), "finite_sup",
    base=lambda m, p: tuned_search_base(m, p), label_base=False)

_ROWS: tuple[_Row, ...] = (
    _Row("search-ratio-printed", EQUAL, 1e-6, ((2,), (3,)),
         _Sweep("m", "competitive_ratio", "make_exponential_search", "m b",
                lambda m: FIRST_VISIT, "limit_sup",
                base=lambda m: optimal_base_search(m)),
         informational=True),
    _Row("search-ratio-base", EQUAL, 1e-6, ((2, 3.0),),
         _Sweep("m b", "competitive_ratio", "make_exponential_search", "m b",
                lambda m, b: FIRST_VISIT, "limit_sup"),
         informational=True),
    _Row("sched-ratio-optimal", EQUAL, 1e-6, tuple((n,) for n in range(1, 9)),
         _Sweep("n", "acceleration_ratio", "make_exponential_schedule", "n b",
                lambda n: longest_completed(), "limit_sup",
                base=lambda n: optimal_base_schedule(n))),
    _Row("sched-ratio-base", EQUAL, 1e-6, ((1, 2.0), (2, 2.0)),
         _Sweep("n b", "acceleration_ratio", "make_exponential_schedule", "n b",
                lambda n, b: longest_completed(), "limit_sup")),
    _Row("prob-search-lower", AT_LEAST, 1e-9,
         tuple(product((2, 3, 5), (0.3, 0.5, 0.8))), _PROB_SEARCH),
    _Row("prob-search-upper", AT_MOST, 1e-9,
         tuple(product((2, 3, 5), (0.3, 0.5, 0.8))), _PROB_SEARCH),
    _Row("prob-sched-lower", AT_LEAST, 1e-9,
         tuple(product((1, 2, 4), (0.3, 0.7))), _prob_sched),
    _Row("prob-sched-upper", AT_MOST, 1e-9,
         tuple(product((1, 2, 4), (0.3, 0.7))), _prob_sched),
    _Row("fault-search-lower", AT_LEAST, 1e-9,
         tuple(product((2, 3, 5), (1, 2, 3, 4))), _fault_search),
    _Row("fault-search-upper", AT_MOST, 1e-9,
         tuple(product((2, 3, 5), (1, 2, 3, 4))), _fault_search),
    _Row("nm-search-upper", AT_MOST, 1e-9, ((2, 2), (10, 4)),
         _Sweep("m r", "competitive_ratio", "make_nm_search", "m b r",
                lambda m, r: rth_visit(r), "limit_sup",
                base=lambda m, r: optimal_base_search(m)),
         informational=True),
    _Row("nm-vs-exponential", AT_MOST, 0.0, ((10, 4),), _nm_vs_exponential),
    _Row("nm-vs-exponential-small", AT_MOST, 0.0, ((2, 4),),
         _nm_vs_exponential, informational=True),
    _Row("pseudo-repeat-ratio", EQUAL, 1e-6, tuple(product((1, 2, 4), (2, 3))),
         _Sweep("n r", "acceleration_ratio", "make_pseudo_exponential_schedule",
                "n b r", lambda n, r: r_times_completed(r), "limit_sup",
                base=lambda n, r: optimal_base_schedule(n))),
    _Row("pseudo-vs-exponential", AT_MOST, 0.0, ((1, 2),),
         _pseudo_vs_exponential, informational=True),
    _Row("rth-largest-ratio", EQUAL, 1e-6, tuple(product((1, 2), (2, 3))),
         _Sweep("n r", "acceleration_ratio", "make_exponential_schedule", "n b",
                lambda n, r: rth_largest_completed(r), "limit_sup",
                base=lambda n, r: optimal_base_schedule(r * n))),
    _Row("randomized-ratio", EQUAL, 0.02, ((1, 2.0), (2, 1.5)),
         _randomized_ratio, relative=True),
    _Row("randomized-ratio-asymptote", AT_MOST, 1e-9, ((80,),),
         _randomized_ratio_asymptote),
    _Row("fig1-ratio", AT_MOST, 1e-9, ((80,),), _fig1_ratio),
    _Row("fig1-ratio-edge", AT_MOST, 1e-9, ((1,),), _fig1_ratio_edge,
         informational=True),
    _Row("rr-worst", EQUAL, 1e-6, tuple(product((1, 2, 3), _BASES)),
         _Sweep("n b", "acceleration_ratio", "make_geometric_rr_schedule", "n b",
                lambda n, b: aggregate_interruptible(), "finite_sup")),
    _Row("rr-asymptotic", EQUAL, 1e-6, tuple(product((1, 2, 3), _BASES)),
         _rr_asymptotic),
    _Row("expanding-search-worst", EQUAL, 1e-6, tuple(product((2, 3), _BASES)),
         _Sweep("m b", "competitive_ratio", "make_geometric_search", "m b",
                lambda m, b: FIRST_VISIT, "finite_sup")),
    _Row("expanding-search-asymptotic", EQUAL, 1e-6,
         tuple(product((2, 3), _BASES)), _expanding_search_asymptotic),
    _Row("preemption-ceiling", AT_MOST, 1e-9, tuple(product((1, 2, 3), _BASES)),
         _preemption_ceiling),
    _Row("contract-ceiling", AT_MOST, 1e-9, tuple((b,) for b in _BASES),
         _contract_ceiling),
    _Row("turn-ceiling", AT_MOST, 1e-9, tuple((b,) for b in _BASES), _turn_ceiling),
    _Row("expanding-turn-ceiling", AT_MOST, 1e-9, tuple(product((2, 3), _BASES)),
         _expanding_turn_ceiling),
)

_INFORMATIONAL = frozenset(row.claim_id for row in _ROWS if row.informational)


def claim_ids() -> list[str]:
    """All catalog claim ids, in run order."""
    return [row.claim_id for row in _ROWS]


def _selected(claim_id: str, subset: str) -> bool:
    if subset == "all":
        return True
    if subset == "informational":
        return claim_id in _INFORMATIONAL
    if subset == "asserted":
        return claim_id not in _INFORMATIONAL
    prefixes = [part.strip() for part in subset.split(",") if part.strip()]
    return any(claim_id.startswith(prefix) for prefix in prefixes)


def run_claim_catalog(config: ClaimConfig = ClaimConfig()) -> list[ClaimCheck]:
    """Measure and check every selected claim, in stable catalog order.

    Measurements shared by several rows run once per call."""
    run = _Run(config)
    checks: list[ClaimCheck] = []
    for row in _ROWS:
        if not _selected(row.claim_id, config.subset):
            continue
        for point in row.points:
            paper, measured, params = row.measure(run, row.claim_id, *point)
            if paper is None or measured is None:  # an evaluator found no limit
                raise _no_value(row.claim_id, params, run.horizon)
            tolerance = row.tolerance * paper if row.relative else row.tolerance
            checks.append(check_claim(
                row.claim_id, paper, measured, row.relation, tolerance,
                informational=row.informational, params=params,
            ))
    return checks
