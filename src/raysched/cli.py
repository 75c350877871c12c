"""Command-line surface: evaluator sweeps, stochastic measurements,
base optimization, count ceilings, curve data, and the claim catalog.

All output is diff-stable: fixed column order per subcommand, '.'
decimal separator, 9 significant digits, '\\n' newlines, and seeded
randomness, so identical invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import stat
import sys
from typing import Optional

from .claims import ClaimConfig, claim_ids, run_claim_catalog
from .core import DEFAULT_HORIZON, CostModel, RatioReport
from .numopt import (
    beta_r_closed_form,
    beta_r_star,
    closed_form,
    contract_bound,
    figure1_curve,
    preemption_bound,
    turn_bound,
)
from .search_eval import FIRST_VISIT, competitive_ratio, rth_visit, turn_count
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
    mc_randomized_schedule_detail,
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

DEFAULT_TRIALS = 100_000


def _fmt(value) -> str:
    """Render a cell: 9 significant digits, '.' decimal, no grouping."""
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
    return str(value)


def _json_cell(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        rendered = _fmt(value)
        if rendered in ("inf", "-inf", "nan"):
            return json.dumps(rendered)
        return rendered
    return json.dumps(value)


def _render(rows: list[dict], fmt: str) -> str:
    """Rows as CSV or JSON; every command returns at least one row, and
    the first row's keys are the columns in order."""
    header = list(rows[0])
    if fmt == "csv":
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(_fmt(row[name]) for name in header))
        return "\n".join(lines) + "\n"
    items = []
    for row in rows:
        fields = ", ".join(
            f"{json.dumps(name)}: {_json_cell(row[name])}" for name in header
        )
        items.append("  {" + fields + "}")
    return "[\n" + ",\n".join(items) + "\n]\n"


def _emit(text: str, out: Optional[str]) -> None:
    """Write text to stdout, or over the file out in place: no O_TRUNC
    and no rename, since ext4 flushes a file to disk on close after a
    truncate to zero and on a rename over it.  The tail is cut only on a
    regular file (ftruncate on /dev/null fails)."""
    if out is None:
        sys.stdout.write(text)
        return
    fd = os.open(out, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)
        if stat.S_ISREG(os.fstat(fd).st_mode):
            handle.truncate()


def _ratio_columns(report: RatioReport) -> dict:
    """A report's finite_sup, limit_sup and asymptotic columns, in that
    order; the ratio subcommands splat them into their rows."""
    return {"finite_sup": report.finite_sup, "limit_sup": report.limit_sup,
            "asymptotic": report.asymptotic}


# Choice tables: a flag value maps to what it runs, and the parser takes its
# choices from the table.  Entries call through this module's globals, so a
# wrapper set there (perfbench's tracer) sees each call.

# --strategy -> (cost model, base when --b is omitted, plan for (m, b, r))
_SEARCH_STRATEGIES = {
    "exponential": (CostModel.STANDARD, lambda m: optimal_base_search(m),
                    lambda m, b, r: make_exponential_search(m, b)),
    "nm": (CostModel.STANDARD, lambda m: optimal_base_search(m),
           lambda m, b, r: make_nm_search(m, b, r)),
    "geometric": (CostModel.EXPANDING, lambda m: 2.0,
                  lambda m, b, r: make_geometric_search(m, b)),
}


def _cmd_search_eval(args) -> tuple[list[dict], int]:
    natural, default_base, make_plan = _SEARCH_STRATEGIES[args.strategy]
    if args.cost_model is not None:
        requested = CostModel(args.cost_model)
        if requested is not natural:
            raise ValueError(
                f"strategy {args.strategy!r} uses the "
                f"{natural.value} cost model, not {requested.value}"
            )
    b = default_base(args.m) if args.b is None else args.b
    plan = make_plan(args.m, b, args.r)
    report = competitive_ratio(plan, rth_visit(args.r), args.horizon)
    _, ray, point = report.witness or (None, None, None)
    rows = [
        {
            "strategy": args.strategy,
            "m": args.m,
            "b": b,
            "r": args.r,
            "cost_model": natural.value,
            "horizon": args.horizon,
            **_ratio_columns(report),
            "witness_ray": ray,
            "witness_distance": point,
        }
    ]
    return rows, 0


# --strategy -> (base when --b is omitted, plan for (n, b, r))
_SCHED_STRATEGIES = {
    "exponential": (lambda n: optimal_base_schedule(n),
                    lambda n, b, r: make_exponential_schedule(n, b)),
    "pseudo": (lambda n: optimal_base_schedule(n),
               lambda n, b, r: make_pseudo_exponential_schedule(n, b, r)),
    "geometric-rr": (lambda n: 2.0, lambda n, b, r: make_geometric_rr_schedule(n, b)),
}
# --semantics -> credit rule for the repeat count or rank r
_SEMANTICS = {
    "longest": lambda r: longest_completed(),
    "r-completed": lambda r: r_times_completed(r),
    "rth-largest": lambda r: rth_largest_completed(r),
    "aggregate": lambda r: aggregate_interruptible(),
}


def _cmd_sched_eval(args) -> tuple[list[dict], int]:
    default_base, make_plan = _SCHED_STRATEGIES[args.strategy]
    b = default_base(args.n) if args.b is None else args.b
    plan = make_plan(args.n, b, args.r)
    report = acceleration_ratio(plan, _SEMANTICS[args.semantics](args.r), args.horizon)
    rows = [
        {
            "strategy": args.strategy,
            "n": args.n,
            "b": b,
            "r": args.r,
            "semantics": args.semantics,
            "horizon": args.horizon,
            **_ratio_columns(report),
            "witness_time": report.witness,
        }
    ]
    return rows, 0


_DIRECTIONS = {"both": DirectionRule.BOTH_DIRECTIONS,
               "outward-only": DirectionRule.OUTWARD_ONLY}


def _cmd_prob_search(args) -> tuple[list[dict], int]:
    b = args.b if args.b is not None else tuned_search_base(args.m, args.p)
    model = DetectionModel(args.p, _DIRECTIONS[args.direction])
    plan = make_exponential_search(args.m, b)
    report = probabilistic_competitive_ratio(plan, model, args.horizon)
    rows = [
        {
            "m": args.m,
            "p": args.p,
            "b": b,
            "direction": args.direction,
            "horizon": args.horizon,
            **_ratio_columns(report),
            "lower_bound": closed_form("prob-search-lower", m=args.m, p=args.p),
            "upper_bound": closed_form("prob-search-upper", m=args.m, p=args.p),
        }
    ]
    return rows, 0


def _cmd_rand_sched(args) -> tuple[list[dict], int]:
    params = RandomizedScheduleParams(
        n=args.n, b=args.b, t_grid=standard_t_grid(args.n, args.b)
    )
    import numpy as np  # only this handler needs it

    # The kernel takes a sum of D that passes float range again, scaled,
    # so the first sum's overflow is expected and not worth a warning.
    with np.errstate(over="ignore"):
        detail = mc_randomized_schedule_detail(params, args.trials, args.seed)
    reference = beta_r_closed_form(args.n, args.b)
    rows = [
        {
            "n": args.n,
            "b": args.b,
            "k": row["k"],
            "delta": row["delta"],
            "t": row["t"],
            "d_mean": row["d_mean"],
            "d_stderr": row["d_stderr"],
            "ratio": row["ratio"],
            "beta_r": reference,
        }
        for row in detail
    ]
    return rows, 0


def _search_optimum(m: int) -> tuple[float, float]:
    b = optimal_base_search(m)
    plan = make_exponential_search(m, b)
    return b, competitive_ratio(plan, FIRST_VISIT, DEFAULT_HORIZON).limit_sup


def _sched_optimum(n: int) -> tuple[float, float]:
    b = optimal_base_schedule(n)
    plan = make_exponential_schedule(n, b)
    return b, acceleration_ratio(plan, longest_completed(), DEFAULT_HORIZON).limit_sup


# --target -> (best base, ratio at it) for the given --n
_OPT_TARGETS = {
    "beta-r": lambda n: beta_r_star(n),
    "search": _search_optimum,
    "sched": _sched_optimum,
}


def _cmd_opt_base(args) -> tuple[list[dict], int]:
    b_star, value = _OPT_TARGETS[args.target](args.n)
    rows = [{"target": args.target, "n": args.n, "b_star": b_star, "value": value}]
    return rows, 0


# --model -> (size flag, plan for (size, b), count by t, ceiling for (size, b, t))
_TRADEOFF_MODELS = {
    "preemptive": ("n", lambda n, b: make_geometric_rr_schedule(n, b),
                   lambda plan, t: preemption_count(plan, t),
                   lambda n, b, t: preemption_bound(n, b, t)),
    "contracts": ("n", lambda n, b: make_exponential_schedule(n, b),
                  lambda plan, t: contract_count(plan, t),
                  lambda n, b, t: contract_bound(b, t)),
    "turns": ("m", lambda m, b: make_exponential_search(m, b),
              lambda plan, t: turn_count(plan, t, one_way=True),
              lambda m, b, t: turn_bound(m, b, t, CostModel.STANDARD)),
    "turns-expanding": ("m", lambda m, b: make_geometric_search(m, b),
                        lambda plan, t: turn_count(plan, t),
                        lambda m, b, t: turn_bound(m, b, t, CostModel.EXPANDING)),
}


def _cmd_tradeoff(args) -> tuple[list[dict], int]:
    size_flag, make_plan, count_by, ceiling = _TRADEOFF_MODELS[args.model]
    size = getattr(args, size_flag)
    plan = make_plan(size, args.b)
    rows = []
    for t in args.t if args.t else [5.0]:
        count, bound = count_by(plan, t), ceiling(size, args.b, t)
        rows.append(
            {
                "model": args.model,
                "size": size,
                "b": args.b,
                "t": t,
                "count": count,
                "bound": bound,
                "holds": count <= bound + 1e-9,
            }
        )
    return rows, 0


def _cmd_curve_fig1(args) -> tuple[list[dict], int]:
    rows = [
        {
            "n": n,
            "beta_star": beta_star,
            "beta_r_star": value,
            "b_star": b_star,
            "ratio": ratio,
        }
        for n, beta_star, value, b_star, ratio in figure1_curve(args.n_max)
    ]
    return rows, 0


def _cmd_claims(args) -> tuple[list[dict], int]:
    config = ClaimConfig(
        subset=args.subset,
        horizon=args.horizon,
        trials=args.trials,
        seed=args.seed,
    )
    checks = run_claim_catalog(config)
    if not checks:
        raise ValueError(
            f"subset {args.subset!r} selects no claims; known ids: "
            + ", ".join(claim_ids())
        )
    rows = [
        {
            "claim_id": check.claim_id,
            "paper_value": check.paper_value,
            "measured": check.measured,
            "relation": check.relation.value,
            "verdict": "Holds" if check.holds else "Violated",
            "gap": check.gap,
        }
        for check in checks
    ]
    exit_code = 0
    if args.strict and any(
        not check.holds and not check.informational for check in checks
    ):
        exit_code = 1
    return rows, exit_code


def _add_common_output_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--out", default=None, help="write output to this file")


@functools.cache  # parse_args leaves the parser as it found it
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="raysched",
        description=(
            "Verification workbench for multi-ray target search and "
            "contract-algorithm scheduling"
        ),
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("search-eval", help="worst-case search ratio sweep")
    sub.add_argument("--strategy", choices=_SEARCH_STRATEGIES, default="exponential")
    sub.add_argument("--m", type=int, required=True, help="number of rays")
    sub.add_argument("--b", type=float, default=None,
                     help="exploration base (default: the strategy's optimum)")
    sub.add_argument("--r", type=int, default=1,
                     help="required passes over the target (and sweeps per "
                          "excursion for the nm strategy)")
    sub.add_argument("--cost-model", choices=[model.value for model in CostModel],
                     default=None, dest="cost_model")
    sub.add_argument("--horizon", type=int, default=DEFAULT_HORIZON)
    _add_common_output_flags(sub)
    sub.set_defaults(handler=_cmd_search_eval)

    sub = subs.add_parser("sched-eval", help="worst-case schedule ratio sweep")
    sub.add_argument("--strategy", choices=_SCHED_STRATEGIES, default="exponential")
    sub.add_argument("--n", type=int, required=True, help="number of problems")
    sub.add_argument("--b", type=float, default=None,
                     help="length base (default: the strategy's optimum)")
    sub.add_argument("--r", type=int, default=1,
                     help="required repeats / rank for the chosen semantics "
                          "(and repeats per length for the pseudo strategy)")
    sub.add_argument("--semantics", choices=_SEMANTICS, default="longest")
    sub.add_argument("--horizon", type=int, default=DEFAULT_HORIZON)
    _add_common_output_flags(sub)
    sub.set_defaults(handler=_cmd_sched_eval)

    sub = subs.add_parser("prob-search", help="expected-cost search ratio")
    sub.add_argument("--m", type=int, required=True)
    sub.add_argument("--p", type=float, required=True,
                     help="per-pass detection probability")
    sub.add_argument("--b", type=float, default=None,
                     help="exploration base (default: tuned for p)")
    sub.add_argument("--direction", choices=_DIRECTIONS, default="both")
    sub.add_argument("--horizon", type=int, default=DEFAULT_HORIZON)
    _add_common_output_flags(sub)
    sub.set_defaults(handler=_cmd_prob_search)

    sub = subs.add_parser("rand-sched", help="randomized schedule Monte Carlo")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--b", type=float, required=True)
    sub.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    sub.add_argument("--seed", type=int, default=0)
    _add_common_output_flags(sub)
    sub.set_defaults(handler=_cmd_rand_sched)

    sub = subs.add_parser("opt-base", help="best base for a strategy family")
    sub.add_argument("--target", choices=_OPT_TARGETS, required=True)
    sub.add_argument("--n", type=int, required=True,
                     help="problem count (ray count for --target search)")
    _add_common_output_flags(sub)
    sub.set_defaults(handler=_cmd_opt_base)

    sub = subs.add_parser("tradeoff", help="count vs ceiling at query times")
    sub.add_argument("--model", choices=_TRADEOFF_MODELS, required=True)
    sub.add_argument("--n", type=int, default=1,
                     help="problem count (preemptive, contracts)")
    sub.add_argument("--m", type=int, default=2,
                     help="ray count (turns, turns-expanding)")
    sub.add_argument("--b", type=float, default=2.0)
    sub.add_argument("--t", type=float, action="append", default=None,
                     help="query time or distance budget (repeatable)")
    _add_common_output_flags(sub)
    sub.set_defaults(handler=_cmd_tradeoff)

    sub = subs.add_parser("curve-fig1", help="ratio curve data")
    sub.add_argument("--n-max", type=int, required=True, dest="n_max")
    _add_common_output_flags(sub)
    sub.set_defaults(handler=_cmd_curve_fig1)

    sub = subs.add_parser("claims", help="run the claim catalog")
    sub.add_argument("--subset", default="all",
                     help='"all", "asserted", "informational", or '
                          "comma-separated id prefixes")
    sub.add_argument("--strict", action="store_true",
                     help="exit 1 if any asserted claim is violated")
    sub.add_argument("--horizon", type=int, default=DEFAULT_HORIZON)
    sub.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    sub.add_argument("--seed", type=int, default=0)
    _add_common_output_flags(sub)
    sub.set_defaults(handler=_cmd_claims)

    return parser


def console_main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        rows, exit_code = args.handler(args)
        _emit(_render(rows, args.format), args.out)
    except (ValueError, KeyError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:  # a value past float or C integer range
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return exit_code


def main() -> None:
    sys.exit(console_main())


if __name__ == "__main__":
    main()
