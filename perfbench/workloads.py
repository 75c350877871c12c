"""The benchmark's workloads: seeded item lists and their correctness gate.

An item is one CLI invocation or one top-level library call.  Each
workload turns a seed into a fixed list of items; the program only sees
the generated inputs.  After every pass the gate checks each item's
output:

- At seed 0 every output is compared byte for byte with the golden
  recorded from the seed commit (``goldens/``), in the CLI's
  9-significant-digit rendering.
- At every seed, checks that do not depend on the seed apply: tagged and
  custom twins agree exactly, ``finite_sup <= limit_sup``, counts stay
  under their ceilings, Monte Carlo rows stay within their claim
  tolerance, catalog verdicts match the seed commit's.

Items whose parameters lie past float range (``past_range``) are kept on
purpose: the program raises an overflow error on them today, and each
such item counts as a failed operation.  If a later version evaluates
them, the seed-independent checks apply to the value it returns.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"
# log(largest finite double); a plan whose cumulative cost passes it
# overflows.  Items are drawn at least RANGE_MARGIN away on either side.
LOG_FLOAT_MAX = math.log(1.7976931348623157e308)
RANGE_MARGIN = 15.0
MC_REL_TOL = 0.02  # the randomized-ratio claim's tolerance


def fmt(value) -> str:
    """The CLI's cell rendering: 9 significant digits, '.' decimal."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return format(value, ".9g")
    if isinstance(value, tuple):
        return "(" + " ".join(fmt(v) for v in value) + ")"
    return str(value)


def render_report(report) -> str:
    return " ".join(
        f"{name}={fmt(getattr(report, name))}"
        for name in ("finite_sup", "limit_sup", "asymptotic", "witness")
    )


def within_limit(report) -> Optional[str]:
    """finite_sup <= limit_sup, with the evaluator's own 1e-9 slack."""
    if report.limit_sup is None or not math.isfinite(report.limit_sup):
        return None
    scale = max(1.0, abs(report.limit_sup))
    if report.finite_sup > report.limit_sup + 1e-9 * scale:
        return f"finite_sup {report.finite_sup!r} > limit_sup {report.limit_sup!r}"
    return None


@dataclass
class Item:
    """One timed call.  ``call`` runs it; ``render`` turns its result
    into the text compared with the golden; ``check`` is the
    seed-independent check (None when it passes)."""

    name: str
    call: Callable[[], object]
    render: Callable[[object], str] = render_report
    check: Callable[[object], Optional[str]] = lambda result: None
    past_range: bool = False


@dataclass
class Outcome:
    item: Item
    result: object = None
    error: Optional[BaseException] = None
    text: str = ""


@dataclass
class Workload:
    name: str
    items: list[Item]
    # Checks across items (twins); receives outcomes by item name.
    cross_check: Callable[[dict[str, Outcome]], list[str]] = lambda outcomes: []
    goldens: Optional[dict[str, str]] = None


def is_range_error(error: BaseException) -> bool:
    """The program's two ways of failing past float range today: its own
    overflow ValueError, or Python's OverflowError from ``b ** i``."""
    if isinstance(error, OverflowError):
        return True
    return isinstance(error, ValueError) and "overflow" in str(error)


def gate(workload: Workload, outcomes: list[Outcome]) -> tuple[list[str], set]:
    """Check one pass.  Returns (problems, names of failed items).

    A range error on an item drawn past float range is a failed
    operation but not a gate problem; any other exception, or a wrong
    output, is both."""
    problems: list[str] = []
    failed: set = set()
    for out in outcomes:
        item = out.item
        if out.error is not None:
            failed.add(item.name)
            if not (item.past_range and is_range_error(out.error)):
                problems.append(f"{item.name}: raised {out.error!r}")
            continue
        golden = (workload.goldens or {}).get(item.name)
        # A golden recorded as an error is the range defect; a value
        # returned there instead gets the seed-independent check only.
        if golden is not None and not golden.startswith("error:"):
            if out.text != golden:
                failed.add(item.name)
                problems.append(
                    f"{item.name}: output differs from golden\n"
                    f"  got      {out.text[:300]!r}\n  expected {golden[:300]!r}"
                )
                continue
        problem = item.check(out.result)
        if problem is not None:
            failed.add(item.name)
            problems.append(f"{item.name}: {problem}")
    by_name = {out.item.name: out for out in outcomes}
    for problem in workload.cross_check(by_name):
        name = problem.split(":", 1)[0]
        failed.add(name)
        problems.append(problem)
    return problems, failed


def load_goldens(name: str, seed: int) -> Optional[dict[str, str]]:
    if seed != 0:
        return None
    path = GOLDEN_DIR / f"{name}.json"
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def require_goldens(goldens: Optional[dict[str, str]], items: list[Item]) -> None:
    """At seed 0 every item must have its golden, or the gate would
    silently skip the byte comparison."""
    if goldens is None:
        return
    missing = sorted({item.name for item in items} - set(goldens))
    if missing:
        raise ValueError(f"no golden recorded for {missing[:5]}")


# -- catalog ---------------------------------------------------------------

CATALOG_ARGV = {
    "claims": ["claims"],
    "search-eval": ["search-eval", "--strategy", "exponential", "--m", "2",
                    "--b", "2"],
    "sched-eval": ["sched-eval", "--strategy", "geometric-rr", "--n", "2",
                   "--b", "2", "--semantics", "aggregate"],
    "prob-search": ["prob-search", "--m", "2", "--p", "0.3"],
    "rand-sched": ["rand-sched", "--n", "2", "--b", "1.5"],
    "opt-base": ["opt-base", "--target", "beta-r", "--n", "2"],
    "tradeoff": ["tradeoff", "--model", "turns", "--m", "2", "--b", "2",
                 "--t", "100"],
    "curve-fig1": ["curve-fig1", "--n-max", "3"],
}
SEEDED_COMMANDS = ("claims", "rand-sched")


def _csv_rows(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def _check_claims(text: str, golden: str) -> Optional[str]:
    """Seed-independent catalog check: every row but the Monte Carlo
    ones is byte-identical to the seed commit's; Monte Carlo rows keep
    the seed commit's verdict and stay within the claim tolerance."""
    got, want = text.splitlines(), golden.splitlines()
    if len(got) != len(want) or got[0] != want[0]:
        return f"catalog has {len(got) - 1} rows, expected {len(want) - 1}"
    for line, golden_line in zip(got[1:], want[1:]):
        row = next(csv.reader([line]))
        golden_row = next(csv.reader([golden_line]))
        if row[0] != golden_row[0]:
            return f"row {golden_row[0]} became {row[0]}"
        if row[4] != golden_row[4]:
            return f"{row[0]} verdict {row[4]}, seed commit had {golden_row[4]}"
        if row[0] == "randomized-ratio":
            paper, measured = float(row[1]), float(row[2])
            if row[1] != golden_row[1] or abs(measured - paper) > MC_REL_TOL * paper:
                return f"randomized-ratio measured {measured} vs {paper}"
        elif line != golden_line:
            return f"row differs: {line!r} vs {golden_line!r}"
    return None


def _check_rand_sched(text: str, golden: str) -> Optional[str]:
    """Monte Carlo rows: the grid and closed form are byte-identical,
    each mean agrees with the seed commit's within six combined standard
    errors, and the worst ratio is within the claim tolerance of the
    closed form."""
    rows, golden_rows = _csv_rows(text), _csv_rows(golden)
    if len(rows) != len(golden_rows):
        return f"{len(rows)} rows, expected {len(golden_rows)}"
    for row, ref in zip(rows, golden_rows):
        for name in ("n", "b", "k", "delta", "t", "beta_r"):
            if row[name] != ref[name]:
                return f"column {name} is {row[name]}, expected {ref[name]}"
        sigma = math.hypot(float(row["d_stderr"]), float(ref["d_stderr"]))
        if abs(float(row["d_mean"]) - float(ref["d_mean"])) > 6.0 * sigma:
            return f"d_mean {row['d_mean']} vs {ref['d_mean']} at k={row['k']}"
        if float(row["ratio"]) > float(row["beta_r"]) * (1.0 + MC_REL_TOL):
            return f"ratio {row['ratio']} above beta_r {row['beta_r']}"
    worst = max(float(row["ratio"]) for row in rows)
    beta_r = float(rows[0]["beta_r"])
    if abs(worst - beta_r) > MC_REL_TOL * beta_r:
        return f"worst ratio {worst} not within {MC_REL_TOL} of {beta_r}"
    return None


def catalog(seed: int, out_dir: Path) -> Workload:
    """`raysched claims` at default flags plus one example invocation of
    each other subcommand, in-process through ``console_main``."""
    # Calls go through the module attribute, so the tracer's wrapper is
    # seen when it is installed.
    from raysched import cli

    rng = random.Random(seed)
    cli_seed = str(seed % 2**32)
    names = list(CATALOG_ARGV)
    rng.shuffle(names)
    goldens = load_goldens("catalog", 0)
    items = []
    for name in names:
        out_path = out_dir / f"catalog-{name}.out"
        argv = list(CATALOG_ARGV[name])
        if name in SEEDED_COMMANDS:
            argv += ["--seed", cli_seed]
        argv += ["--out", str(out_path)]

        def render(code, out_path=out_path) -> str:
            with open(out_path, encoding="utf-8", newline="") as handle:
                return f"exit={code}\n" + handle.read()

        check: Callable[[object], Optional[str]] = lambda result: None
        if name in SEEDED_COMMANDS and goldens:
            compare = _check_claims if name == "claims" else _check_rand_sched

            def check(code, out_path=out_path, golden=goldens[name],
                      compare=compare) -> Optional[str]:
                status, _, body = render(code, out_path).partition("\n")
                golden_status, _, golden_body = golden.partition("\n")
                if status != golden_status:
                    return f"{status}, expected {golden_status}"
                return compare(body, golden_body)

        items.append(
            Item(
                name=name,
                call=lambda argv=argv: cli.console_main(argv),
                render=render,
                check=check,
            )
        )
    if seed == 0:
        require_goldens(goldens, items)
        return Workload("catalog", items, goldens=goldens)
    # Commands that take no seed print the same bytes at every seed.
    return Workload("catalog", items, goldens={
        name: text for name, text in (goldens or {}).items()
        if name not in SEEDED_COMMANDS
    })


# -- deep-horizon ----------------------------------------------------------

def _log_cum_search(b: float, count: int) -> float:
    """log of the cumulative cost 2 (b^count - 1)/(b - 1) of the first
    `count` excursions of the exponential search."""
    return (count - 1) * math.log(b) + math.log(2.0 * b / (b - 1.0))


def _log_clock_schedule(b: float, count: int) -> float:
    """log of the schedule clock (b^count - 1)/(b - 1) after `count`
    jobs of the exponential round-robin."""
    return (count - 1) * math.log(b) + math.log(b / (b - 1.0))


# Every slot fixes what sets the cost of its call (ray or problem count,
# horizon, direction), so each seed yields the same latency profile and
# the median item is the same slot at every seed; the seed draws only
# the base b and the detection probability p.
#
# Probabilistic detection: the quadratic series sweep dominates the
# pass.  Its cost grows slowly as p falls, so p stays in a narrow band.
PROB_SLOTS = (
    (2, "both", 1500),
    (3, "outward-only", 900),
    (5, "both", 500),
)
PROB_P = (0.45, 0.6)
# Linear sweeps: (evaluator, ray or problem count, horizon, past float
# range).  The past-range slots draw b from a narrow band just past the
# limit, so the overflow (and the work done before it) comes at about
# the same excursion for every seed.
LINEAR_SLOTS = (
    ("competitive", 3, 1000, False),
    ("competitive", 2, 2000, False),
    ("competitive", 5, 3000, False),
    ("competitive", 3, 1500, True),
    ("acceleration", 2, 1000, False),
    ("acceleration", 4, 2000, False),
    ("acceleration", 1, 3000, False),
    ("acceleration", 2, 1500, True),
    ("expected-contracts", 2, 1000, False),
    ("expected-contracts", 1, 2000, False),
    ("expected-contracts", 4, 3000, False),
    ("expected-contracts", 2, 1500, True),
)
PAST_RANGE_SPREAD = 1.05  # past-range bases lie in [b_min, 1.05 b_min]


def deep_horizon(seed: int, out_dir: Path) -> Workload:
    """A few single evaluator calls at long horizons."""
    import raysched as rs

    rng = random.Random(seed)
    items: list[Item] = []

    def close_to_limit(report, rel: float) -> Optional[str]:
        problem = within_limit(report)
        if problem is not None:
            return problem
        if report.limit_sup is None:
            return "no analytic limit attached"
        if abs(report.finite_sup - report.limit_sup) > rel * report.limit_sup:
            return (f"finite_sup {report.finite_sup!r} not within {rel} of "
                    f"limit_sup {report.limit_sup!r}")
        return None

    for m, direction, horizon in PROB_SLOTS:
        p = round(rng.uniform(*PROB_P), 4)
        rule = (rs.DirectionRule.OUTWARD_ONLY if direction == "outward-only"
                else rs.DirectionRule.BOTH_DIRECTIONS)

        def call(m=m, p=p, rule=rule, horizon=horizon):
            plan = rs.make_exponential_search(m, rs.tuned_search_base(m, p))
            return rs.probabilistic_competitive_ratio(
                plan, rs.DetectionModel(p, rule), horizon
            )

        items.append(Item(
            name=f"prob-search m={m} p={p} {direction} H={horizon}",
            call=call,
            check=lambda report: close_to_limit(report, 1e-5),
        ))

    def draw_base(log_total: Callable[[float], float], past: bool) -> float:
        """A base whose plan ends at least RANGE_MARGIN inside float
        range, or just past it (within PAST_RANGE_SPREAD of the smallest
        base that is RANGE_MARGIN past it)."""
        if past:
            lo, hi = 1.0001, 4.0
            for _ in range(60):  # bisect for the smallest such base
                mid = 0.5 * (lo + hi)
                if log_total(mid) > LOG_FLOAT_MAX + RANGE_MARGIN:
                    hi = mid
                else:
                    lo = mid
            return round(rng.uniform(hi, hi * PAST_RANGE_SPREAD), 6)
        while True:
            b = round(rng.uniform(1.05, 2.5), 6)
            if log_total(b) < LOG_FLOAT_MAX - RANGE_MARGIN:
                return b

    def expected_contracts_check(report) -> Optional[str]:
        if not math.isfinite(report.finite_sup):
            return f"finite_sup {report.finite_sup!r}"
        if report.finite_sup < report.asymptotic * (1.0 - 1e-9):
            return (f"finite_sup {report.finite_sup!r} below the steady-state "
                    f"value {report.asymptotic!r}")
        return None

    for kind, size, horizon, past in LINEAR_SLOTS:
        if kind == "competitive":
            count = horizon + 2 * size  # the sweep's look-ahead buffer
            b = draw_base(lambda b: _log_cum_search(b, count), past)

            def call(m=size, b=b, horizon=horizon):
                return rs.competitive_ratio(
                    rs.make_exponential_search(m, b), rs.FIRST_VISIT, horizon
                )

            name = f"competitive_ratio m={size} b={b} H={horizon}"
            check = lambda report: close_to_limit(report, 1e-6)
        elif kind == "acceleration":
            b = draw_base(lambda b: _log_clock_schedule(b, horizon), past)

            def call(n=size, b=b, horizon=horizon):
                return rs.acceleration_ratio(
                    rs.make_exponential_schedule(n, b), rs.longest_completed(),
                    horizon,
                )

            name = f"acceleration_ratio n={size} b={b} H={horizon}"
            check = lambda report: close_to_limit(report, 1e-6)
        else:
            p = round(rng.uniform(0.2, 0.9), 4)
            b = draw_base(lambda b: _log_clock_schedule(b, horizon), past)

            def call(n=size, p=p, b=b, horizon=horizon):
                return rs.expected_acc_ratio_mc_contracts(n, p, b, horizon)

            name = (f"expected_acc_ratio_mc_contracts n={size} p={p} b={b} "
                    f"H={horizon}")
            check = expected_contracts_check
        items.append(Item(name=name, call=call, check=check, past_range=past))
    rng.shuffle(items)
    goldens = load_goldens("deep-horizon", seed)
    require_goldens(goldens, items)
    return Workload("deep-horizon", items, goldens=goldens)


# -- base-scan -------------------------------------------------------------

# Items per pass of each kind.  Twins double the sweep and count items.
# The mix keeps the median item inside the sweep latencies (not at the
# edge between fast and slow calls), so item_p50_ms is steady.
SCAN_SWEEP_PAIRS = {"competitive_ratio": 300, "acceleration_ratio": 300}
SCAN_COUNT_PAIRS = {"turn_count": 100, "contract_count": 50,
                    "preemption_count": 50}
SCAN_NUMOPT = {"lemma_root": 150, "golden_min": 150}


def base_scan(seed: int, out_dir: Path) -> Workload:
    """Thousands of short calls over seeded grids; every plan-based call
    runs once on a factory plan (tagged) and once on a custom twin built
    from the same generator."""
    import raysched as rs

    rng = random.Random(seed)
    items: list[Item] = []
    twins: list[tuple[str, str]] = []

    def search_plan(family: str, m: int, b: float, r: int):
        if family == "exponential":
            return rs.make_exponential_search(m, b)
        if family == "nm":
            return rs.make_nm_search(m, b, r)
        return rs.make_geometric_search(m, b)

    def search_twin(plan):
        return rs.make_custom_search(plan.ray_count, plan.generator,
                                     plan.cost_model, plan.traversals)

    def schedule_plan(family: str, n: int, b: float, r: int):
        if family == "exponential":
            return rs.make_exponential_schedule(n, b)
        if family == "pseudo":
            return rs.make_pseudo_exponential_schedule(n, b, r)
        return rs.make_geometric_rr_schedule(n, b)

    def schedule_twin(plan):
        return rs.make_custom_schedule(plan.problem_count, plan.generator,
                                       plan.interruptible)

    def add_pair(name: str, tagged_call, twin_call, render, check) -> None:
        items.append(Item(f"{name} tagged", tagged_call, render, check))
        items.append(Item(f"{name} custom", twin_call, render,
                          lambda result: None))
        twins.append((f"{name} tagged", f"{name} custom"))

    for i in range(SCAN_SWEEP_PAIRS["competitive_ratio"]):
        family = rng.choice(("exponential", "nm", "geometric"))
        m = rng.randint(2, 5)
        b = round(rng.uniform(1.2, 3.0), 6)
        traversals = rng.randint(1, 3) if family == "nm" else 1
        r = 1 if family == "geometric" else rng.randint(1, max(2, traversals))
        horizon = rng.randint(50, 200)

        def tagged(family=family, m=m, b=b, t=traversals, r=r, h=horizon):
            return rs.competitive_ratio(search_plan(family, m, b, t),
                                        rs.rth_visit(r), h)

        def twin(family=family, m=m, b=b, t=traversals, r=r, h=horizon):
            return rs.competitive_ratio(
                search_twin(search_plan(family, m, b, t)), rs.rth_visit(r), h)

        add_pair(f"competitive_ratio {family} m={m} b={b} R={traversals} "
                 f"r={r} H={horizon} #{i}", tagged, twin, render_report,
                 within_limit)

    semantics_of = {
        "longest": lambda r: rs.longest_completed(),
        "rth-largest": rs.rth_largest_completed,
        "r-completed": rs.r_times_completed,
        "aggregate": lambda r: rs.aggregate_interruptible(),
    }
    for i in range(SCAN_SWEEP_PAIRS["acceleration_ratio"]):
        family = rng.choice(("exponential", "pseudo", "geometric-rr"))
        n = rng.randint(1, 4)
        b = round(rng.uniform(1.2, 2.5), 6)
        repeats = rng.randint(1, 3)
        if family == "exponential":
            semantics = rng.choice(("longest", "rth-largest"))
        elif family == "pseudo":
            semantics = rng.choice(("r-completed", "longest"))
        else:
            semantics = "aggregate"
        r = rng.randint(1, repeats)
        horizon = rng.randint(50, 200)

        def tagged(family=family, n=n, b=b, repeats=repeats, s=semantics,
                   r=r, h=horizon):
            return rs.acceleration_ratio(schedule_plan(family, n, b, repeats),
                                         semantics_of[s](r), h)

        def twin(family=family, n=n, b=b, repeats=repeats, s=semantics,
                 r=r, h=horizon):
            return rs.acceleration_ratio(
                schedule_twin(schedule_plan(family, n, b, repeats)),
                semantics_of[s](r), h)

        add_pair(f"acceleration_ratio {family} n={n} b={b} R={repeats} "
                 f"{semantics} r={r} H={horizon} #{i}", tagged, twin,
                 render_report, within_limit)

    def log_budget() -> float:
        return round(10 ** rng.uniform(0.0, 5.0), 6)

    def at_most(bound: float):
        def check(count) -> Optional[str]:
            if count > bound + 1e-9:
                return f"count {count} above ceiling {bound!r}"
            return None
        return check

    for i in range(SCAN_COUNT_PAIRS["turn_count"]):
        family = rng.choice(("exponential", "geometric"))
        m = rng.randint(2, 5)
        b = round(rng.uniform(1.2, 3.0), 6)
        d = log_budget()
        one_way = family == "exponential"
        cost_model = (rs.CostModel.STANDARD if one_way
                      else rs.CostModel.EXPANDING)
        # turn_bound's standard form is the single-ray-count ceiling of
        # the one-way exponential walk; it bounds turns for any m.
        bound = rs.turn_bound(m, b, d, cost_model)

        def tagged(family=family, m=m, b=b, d=d, one_way=one_way):
            return rs.turn_count(search_plan(family, m, b, 1), d,
                                 one_way=one_way)

        def twin(family=family, m=m, b=b, d=d, one_way=one_way):
            return rs.turn_count(search_twin(search_plan(family, m, b, 1)), d,
                                 one_way=one_way)

        add_pair(f"turn_count {family} m={m} b={b} d={d} #{i}", tagged, twin,
                 fmt, at_most(bound))

    for i in range(SCAN_COUNT_PAIRS["contract_count"]):
        n = rng.randint(1, 4)
        b = round(rng.uniform(1.2, 3.0), 6)
        t = log_budget()
        bound = rs.contract_bound(b, t)

        def tagged(n=n, b=b, t=t):
            return rs.contract_count(rs.make_exponential_schedule(n, b), t)

        def twin(n=n, b=b, t=t):
            return rs.contract_count(
                schedule_twin(rs.make_exponential_schedule(n, b)), t)

        add_pair(f"contract_count n={n} b={b} t={t} #{i}", tagged, twin, fmt,
                 at_most(bound))

    for i in range(SCAN_COUNT_PAIRS["preemption_count"]):
        n = rng.randint(1, 4)
        b = round(rng.uniform(1.2, 3.0), 6)
        t = log_budget()
        bound = rs.preemption_bound(n, b, t)

        def tagged(n=n, b=b, t=t):
            return rs.preemption_count(rs.make_geometric_rr_schedule(n, b), t)

        def twin(n=n, b=b, t=t):
            return rs.preemption_count(
                schedule_twin(rs.make_geometric_rr_schedule(n, b)), t)

        add_pair(f"preemption_count n={n} b={b} t={t} #{i}", tagged, twin,
                 fmt, at_most(bound))

    for i in range(SCAN_NUMOPT["lemma_root"]):
        p = round(rng.uniform(0.05, 1.0), 6)

        def check(x, p=p) -> Optional[str]:
            residual = math.exp(x) * ((1.0 - p) + p * p / (4.0 * x)) - 1.0
            if not (0.0 < x <= p / 2.0) or abs(residual) > 1e-9:
                return f"root {x!r} for p={p} has residual {residual!r}"
            return None

        items.append(Item(f"lemma_root p={p} #{i}",
                          lambda p=p: rs.lemma_root(p), fmt, check))

    for i in range(SCAN_NUMOPT["golden_min"]):
        n = rng.randint(1, 20)
        lo, hi = 1.01, round(rng.uniform(4.0, 8.0), 6)

        def call(n=n, lo=lo, hi=hi):
            return rs.golden_min(lambda b: rs.beta_r_closed_form(n, b),
                                 rs.Bracket(lo, hi, tol=1e-9))

        def check(result, n=n, lo=lo, hi=hi) -> Optional[str]:
            arg, value = result
            g = lambda b: rs.beta_r_closed_form(n, b)
            if not lo <= arg <= hi or value != g(arg):
                return f"argmin {arg!r} value {value!r} inconsistent"
            slack = 1e-12 * abs(value)
            if any(g(x) < value - slack for x in (lo, hi, arg - 1e-4, arg + 1e-4)
                   if lo <= x <= hi):
                return f"value {value!r} at {arg!r} is not a minimum"
            return None

        items.append(Item(f"golden_min beta_r n={n} [{lo}, {hi}] #{i}", call,
                          fmt, check))

    rng.shuffle(items)

    def cross_check(outcomes: dict[str, Outcome]) -> list[str]:
        problems = []
        for tagged_name, twin_name in twins:
            tagged_out, twin_out = outcomes[tagged_name], outcomes[twin_name]
            if tagged_out.error is not None or twin_out.error is not None:
                continue
            a, b = tagged_out.result, twin_out.result
            if hasattr(a, "finite_sup"):
                a, b = a.finite_sup, b.finite_sup
            if a != b:
                problems.append(f"{twin_name}: {b!r} differs from tagged {a!r}")
        return problems

    goldens = load_goldens("base-scan", seed)
    require_goldens(goldens, items)
    return Workload("base-scan", items, cross_check=cross_check,
                    goldens=goldens)


WORKLOADS = {
    "catalog": catalog,
    "deep-horizon": deep_horizon,
    "base-scan": base_scan,
}
