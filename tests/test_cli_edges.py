"""Invalid input at the edges of the numeric range exits 2 with a
one-line error, never with a traceback."""

import math

import pytest

from raysched.cli import console_main
from raysched.core import CostModel, Excursion, SchedulePlan, SearchPlan
from raysched.numopt import closed_form
from raysched.sched_eval import contract_bound, preemption_bound
from raysched.search_eval import turn_bound
from raysched.stochastic import beta_r_closed_form


def _usage_error(argv, capsys):
    code = console_main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ")
    assert "Traceback" not in err
    return err


@pytest.mark.parametrize(
    "argv",
    [
        ["sched-eval", "--n", "3", "--b", "2.318877", "--horizon", "1500"],
        ["search-eval", "--m", "2", "--b", "4", "--horizon", "600"],
        ["rand-sched", "--n", "2", "--b", "inf"],
        ["rand-sched", "--n", "2", "--b", "1e300"],
    ],
    ids=["sched-eval", "search-eval", "rand-sched-inf", "rand-sched-1e300"],
)
def test_float_range_overflow_exits_2(argv, capsys):
    assert "overflow" in _usage_error(argv, capsys)


@pytest.mark.parametrize("command", ["rand-sched", "search-eval", "sched-eval"])
def test_nan_base_is_rejected_by_name(command, capsys):
    size = "--m" if command == "search-eval" else "--n"
    err = _usage_error([command, size, "2", "--b", "nan"], capsys)
    assert "base must be > 1, got nan" in err


def test_generator_overflow_becomes_the_range_error():
    def huge(i):
        return 10.0 ** (400 * i)

    search = SearchPlan(ray_count=2, generator=lambda i: Excursion(0, 0.0, huge(i)))
    with pytest.raises(ValueError, match="overflow"):
        search.excursion(1)
    schedule = SchedulePlan(problem_count=1, generator=lambda i: (0, huge(i)))
    with pytest.raises(ValueError, match="overflow"):
        schedule.job_spec(1)


@pytest.mark.parametrize(
    "bound",
    [
        lambda b: turn_bound(2, b, 1.0, CostModel.STANDARD),
        lambda b: contract_bound(b, 1.0),
        lambda b: preemption_bound(2, b, 1.0),
        lambda b: beta_r_closed_form(2, b),
        lambda b: closed_form("expanding-turn-ceiling", m=2, b=b, d=1.0),
    ],
    ids=["turn", "contract", "preemption", "beta-r", "table"],
)
def test_closed_form_bounds_reject_nan_base(bound):
    with pytest.raises(ValueError, match="base must be > 1"):
        bound(math.nan)
