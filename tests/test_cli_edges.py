"""Invalid input at the edges of the numeric range exits 2 with a
one-line error, never with a traceback."""

import contextlib
import io
import math
import sys
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from raysched import core
from raysched.cli import console_main
from raysched.core import CostModel, Excursion, SchedulePlan, SearchPlan
from raysched.claims import claim_ids
from raysched.numopt import closed_form, lemma_root
from raysched.sched_eval import (
    acceleration_ratio,
    contract_bound,
    contract_count,
    longest_completed,
    preemption_bound,
)
from raysched.search_eval import competitive_ratio, rth_visit, turn_bound
from raysched.stochastic import (
    DetectionModel,
    RandomizedScheduleParams,
    beta_r_closed_form,
    expected_acc_ratio_mc_contracts,
    probabilistic_competitive_ratio,
)
from raysched.strategies import (
    make_custom_schedule,
    make_exponential_schedule,
    make_exponential_search,
)


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


@pytest.mark.parametrize(
    "argv",
    [
        ["prob-search", "--m", "2", "--p", "0.3", "--b", "inf"],
        ["prob-search", "--m", "2", "--p", "0.3", "--b", "1e200"],
    ],
    ids=["prob-search-inf", "prob-search-1e200"],
)
def test_divergent_growth_exits_0_with_an_inf_row(argv, capsys):
    """b^m(1-p) >= 1 diverges also where b^m itself overflows."""
    assert console_main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    header, row = out.splitlines()
    assert dict(zip(header.split(","), row.split(",")))["finite_sup"] == "inf"
    report = probabilistic_competitive_ratio(
        make_exponential_search(2, float(argv[-1])), DetectionModel(0.3)
    )
    assert report.note.startswith("expected cost diverges: growth factor per miss")


def test_infinite_geometric_base_exits_2_with_the_error_line_alone(capsys):
    """At b = inf a geometric level past 0 is inf / inf, taken as inf, so
    the first excursion's cost overflows, as in the exponential and nm
    plans, with no RuntimeWarning before the error line."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        err = _usage_error(["search-eval", "--strategy", "geometric", "--m", "2",
                            "--b", "inf"], capsys)
    assert [str(w.message) for w in caught] == []
    assert err == ("error: cumulative cost overflowed at excursion 0; "
                   "reduce the horizon or the growth base\n")
    assert "Warning" not in err


@pytest.mark.parametrize("command", ["rand-sched", "search-eval", "sched-eval"])
def test_nan_base_is_rejected_by_name(command, capsys):
    size = "--m" if command == "search-eval" else "--n"
    err = _usage_error([command, size, "2", "--b", "nan"], capsys)
    assert "base must be > 1, got nan" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["rand-sched", "--n", "2", "--b", "1.5", "--seed", "-1"],
        ["claims", "--seed", "-1"],
    ],
    ids=["rand-sched", "claims"],
)
def test_negative_seed_is_rejected_by_name(argv, capsys):
    assert _usage_error(argv, capsys) == "error: seed must be >= 0, got -1\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["rand-sched", "--n", "2", "--b", "1.5", "--trials", str(2**50)],
        ["claims", "--subset", "randomized-ratio", "--trials", str(2**50)],
    ],
    ids=["rand-sched", "claims"],
)
def test_unallocatable_trials_exit_2(argv, capsys):
    """2**50 trials need 8 PiB per vector, more than the address space,
    so the allocation fails without touching memory."""
    assert "Unable to allocate" in _usage_error(argv, capsys)


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


@pytest.mark.parametrize(
    "argv,message",
    [
        (["sched-eval", "--strategy", "pseudo", "--n", "2", "--r", str(10**21)],
         "OverflowError"),
    ],
    ids=["sched-eval"],
)
def test_arithmetic_errors_exit_2(argv, message, capsys):
    assert _usage_error(argv, capsys).startswith(f"error: {message}: ")


# Counts past what numpy can index or a trajectory can hold, named
# before anything is allocated.
_TRIALS_PAST_INDEX = (f"error: trials must be <= {sys.maxsize // 8}, the doubles a "
                      f"vector may hold, got {2**63}\n")
_HORIZON_PAST_TRAJECTORY = (f"error: horizon of {2**63} excursions requested, more "
                            f"than the {core.MAX_TRAJECTORY} a trajectory may hold\n")


@pytest.mark.parametrize(
    "argv,message",
    [
        (["opt-base", "--target", "beta-r", "--n", "1000000"],
         "error: b ** (n + 1) overflows float range at n = 1000000, b = "),
        (["curve-fig1", "--n-max", "1000000"],
         "error: n_max = 1000000 is past the curve's range: b ** (n + 1) overflows "
         "float range at n = 181, b = 50.0\n"),
        (["prob-search", "--m", "2", "--p", "5e-324"],
         "error: p must be > 2e-09 for the root's bracket, got 5e-324\n"),
        (["claims", "--trials", str(2**63)], _TRIALS_PAST_INDEX),
        (["claims", "--subset", "randomized", "--trials", str(2**63)],
         _TRIALS_PAST_INDEX),
        (["rand-sched", "--n", "2", "--b", "1.5", "--trials", str(2**63)],
         _TRIALS_PAST_INDEX),
        (["claims", "--subset", "prob-search-lower", "--horizon", str(2**63)],
         _HORIZON_PAST_TRAJECTORY),
        (["prob-search", "--m", "2", "--p", "0.3", "--horizon", str(2**63)],
         _HORIZON_PAST_TRAJECTORY),
        (["claims", "--horizon", "3"],
         "error: claim sched-ratio-optimal at n=3 b=1.33333 has no value within "
         "horizon 3\n"),
        (["claims", "--subset", "pseudo-repeat-ratio", "--horizon", "12"],
         "error: claim pseudo-repeat-ratio at n=4 r=3 b=1.25 has no value within "
         "horizon 12\n"),
        (["rand-sched", "--n", "3880", "--b", "1.2", "--trials", "10"],
         "error: grid point (k=3884, delta=0.5) query time overflowed float range "
         "at base 1.2; reduce the base\n"),
    ],
    ids=["opt-base", "curve-fig1", "prob-search", "claims-trials",
         "claims-randomized-trials", "rand-sched-trials", "claims-horizon",
         "prob-search-horizon", "claims-short-horizon", "claims-pseudo-short-horizon",
         "rand-sched-query-time"],
)
def test_range_errors_name_the_input(argv, message, capsys):
    """Arithmetic past float range inside a formula is reported as the
    input that drove it there, not as a bare OverflowError or
    ZeroDivisionError."""
    assert _usage_error(argv, capsys).startswith(message)


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: beta_r_closed_form(1000000, 1.5),
         r"^b \*\* \(n \+ 1\) overflows float range at n = 1000000, b = 1.5$"),
        (lambda: lemma_root(5e-324), r"^p must be > 2e-09 .*, got 5e-324$"),
        (lambda: expected_acc_ratio_mc_contracts(1, 5e-324, 1.5, 2),
         r"^p \* \(b - 1\) underflows to 0 at p = 5e-324, b = 1.5$"),
        (lambda: RandomizedScheduleParams(n=2, b=1.5, t_grid=((1749, 0.5),)),
         r"^grid point \(k=1749, delta=0.5\) query time overflowed float range "
         r"at base 1.5; reduce the base$"),
    ],
    ids=["beta-r", "lemma-root", "expected-contracts", "rand-sched-params"],
)
def test_library_range_errors_are_value_errors(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_values_at_the_edge_of_the_named_ranges_are_unchanged():
    """The last inputs that evaluate keep their values: each check sits
    only where the formula used to raise."""
    assert lemma_root(math.nextafter(2e-9, 1)) == 1e-9  # bisection's left end
    assert math.isinf(expected_acc_ratio_mc_contracts(1, 5e-324, 3.0, 2).asymptotic)
    # n b^(n+1) ln b overflows here although b^(n+1) does not, so the
    # ratio comes from its equal second form instead of as inf.
    assert beta_r_closed_form(180, 50.0) == 180 * 50.0 * math.log(50.0) / (
        49.0 * (1.0 - 50.0 ** -180))


def test_a_walk_that_cannot_reach_its_time_stops_at_its_budget(monkeypatch):
    monkeypatch.setattr(core, "MAX_WALK_JOBS", 1000)
    plan = make_custom_schedule(1, lambda i: (0, 1.0))
    assert contract_count(plan, 1000.0) == 1000
    with pytest.raises(ValueError, match="time 1001.0 not reached within 1000 jobs"):
        contract_count(plan, 1001.0)


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda: competitive_ratio(make_exponential_search(2, 1.001), rth_visit(2**63)),
        lambda: competitive_ratio(make_exponential_search(2, 1.001), horizon=2**63),
        lambda: acceleration_ratio(make_exponential_schedule(2, 1.001),
                                   longest_completed(), 2**63),
    ],
    ids=["required-passes", "search-horizon", "schedule-horizon"],
)
def test_a_trajectory_stops_growing_at_its_budget(evaluate, monkeypatch):
    """At a base near 1 nothing overflows before memory runs out."""
    monkeypatch.setattr(core, "MAX_TRAJECTORY", 4096)
    with pytest.raises(ValueError, match="more than the 4096 a trajectory may hold"):
        evaluate()


# Flag values at the edges of the numeric range, as a user would type
# them; the ordinary ones keep the valid paths in play.
_FLOATS = st.sampled_from([
    "nan", "inf", "-inf", "0", "-0.0", "-1", "-1e300", "1e300",
    "1.7976931348623157e308", "5e-324", "1e-300", "1", "0.9999999999",
    "1.0000000001", "1.0000000000000002", "0.3", "1.5", "2", "3",
])
_INTS = st.sampled_from([
    "nan", "inf", "-inf", "0", "-1", str(-(10**21)), str(10**21), str(2**63),
    "1", "2", "3", "4",
])
_TRIALS = st.sampled_from(["nan", "inf", "0", "-1", "1", "2", "3", "1999", "2000"])
_FUZZ_FLAGS = {
    "search-eval": {"--strategy": st.sampled_from(["exponential", "nm", "geometric"]),
                    "--m": _INTS, "--b": _FLOATS, "--r": _INTS,
                    "--cost-model": st.sampled_from(["standard", "expanding"]),
                    "--horizon": _INTS},
    "sched-eval": {"--strategy": st.sampled_from(["exponential", "pseudo",
                                                  "geometric-rr"]),
                   "--n": _INTS, "--b": _FLOATS, "--r": _INTS,
                   "--semantics": st.sampled_from(["longest", "r-completed",
                                                   "rth-largest", "aggregate"]),
                   "--horizon": _INTS},
    "prob-search": {"--m": _INTS, "--p": _FLOATS, "--b": _FLOATS,
                    "--direction": st.sampled_from(["both", "outward-only"]),
                    "--horizon": _INTS},
    "rand-sched": {"--n": _INTS, "--b": _FLOATS, "--trials": _TRIALS,
                   "--seed": _INTS},
    "opt-base": {"--target": st.sampled_from(["beta-r", "search", "sched"]),
                 "--n": _INTS},
    "tradeoff": {"--model": st.sampled_from(["preemptive", "contracts", "turns",
                                             "turns-expanding"]),
                 "--n": _INTS, "--m": _INTS, "--b": _FLOATS, "--t": _FLOATS},
    "curve-fig1": {"--n-max": _INTS},
}


@st.composite
def _fuzz_argv(draw):
    command = draw(st.sampled_from(sorted(_FUZZ_FLAGS)))
    argv = [command, "--format", draw(st.sampled_from(["csv", "json"]))]
    for flag, values in _FUZZ_FLAGS[command].items():
        # A required flag left out is a usage error too; rand-sched
        # always gets a small trial count.
        if flag == "--trials" or draw(st.integers(0, 4)):
            argv += [flag, draw(values)]
    return argv


@settings(max_examples=200, deadline=None)
@given(argv=_fuzz_argv())
def test_fuzzed_flags_exit_0_or_2_without_a_traceback(argv):
    """Every subcommand but claims.  The slowest draws run a walk to its
    budget: about a second for 10^6 jobs, several for 10^6 turn-count
    excursions."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = console_main(argv)
    assert code in (0, 2), (code, err.getvalue())
    assert "Traceback" not in out.getvalue() + err.getvalue()
    if code == 2:
        assert err.getvalue().startswith(("error: ", "usage: ")), err.getvalue()


_CLAIM_IDS = claim_ids()
_CLAIMS_FLAGS = {
    "--subset": (st.sampled_from(_CLAIM_IDS)
                 | st.sampled_from(_CLAIM_IDS).flatmap(
                     lambda cid: st.integers(1, len(cid)).map(lambda k: cid[:k]))
                 | st.sampled_from(["all", "asserted", "informational", "fig1,turn"])
                 | st.text(max_size=6)),
    "--trials": st.integers(1, 2000).map(str) | st.sampled_from(["0", "-1", str(2**63)]),
    "--seed": (st.integers(0, 2**32).map(str)
               | st.sampled_from(["-1", str(2**63), str(2**128), "nan"])),
    "--horizon": st.integers(1, 2000).map(str) | st.sampled_from(["0", "-1", str(2**63)]),
}


@st.composite
def _claims_argv(draw):
    argv = ["claims", "--format", draw(st.sampled_from(["csv", "json"]))]
    for flag, values in _CLAIMS_FLAGS.items():
        # Left out, a flag takes its default (100000 trials for --trials).
        if flag == "--trials" or draw(st.integers(0, 3)):
            argv += [flag, draw(values)]
    if draw(st.booleans()):
        argv.append("--strict")
    return argv


@settings(max_examples=20, deadline=None)
@given(argv=_claims_argv())
@example(argv=["claims", "--format", "csv", "--trials", "1", "--horizon", "3"])
def test_fuzzed_claims_flags_exit_0_or_2_or_1_when_strict(argv):
    """Exit 1 only from --strict finding a violated asserted row.  A
    horizon past about 1000 exits 2 on the search rows' cost overflow."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = console_main(argv)
    assert code in ((0, 1, 2) if "--strict" in argv else (0, 2)), (code, err.getvalue())
    assert "Traceback" not in out.getvalue() + err.getvalue()
    if code == 2:
        assert err.getvalue().startswith(("error: ", "usage: ")), err.getvalue()
