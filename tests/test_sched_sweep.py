"""acceleration_ratio against the scalar sweep in tests/reference_sched.py:
reports equal field for field and errors equal in type and message, under
every credit rule, on factory plans, their per-index twins and custom
plans that break every check a job must pass or whose lengths fall.
Walks to a time must stop on a clock that no longer advances, a clock
that overflows far inside the horizon must fail fast, and expected credit
on a long plan whose lengths fall must not cost a refold per run.  Only
public names are used, so the module also runs against versions without
the columnar trajectory.
"""

import dataclasses
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import reference_sched as ref
from reference_mc import make_randomized_schedule_explicit
from raysched.sched_eval import (
    acceleration_ratio,
    aggregate_interruptible,
    longest_completed,
    probabilistic_completed,
    r_times_completed,
    rth_largest_completed,
)
from raysched.strategies import (
    make_custom_schedule,
    make_exponential_schedule,
    make_geometric_rr_schedule,
    make_pseudo_exponential_schedule,
)

SRC = Path(__file__).resolve().parent.parent / "src"
LOG_FLOAT_MAX = math.log(sys.float_info.max)
FLOAT_FIELDS = ("finite_sup", "witness", "limit_sup", "asymptotic", "convergence_gap")
BLOCK_FAMILIES = ("exponential", "pseudo", "geometric-rr")


def _factory(family, n, b, r):
    if family == "exponential":
        return make_exponential_schedule(n, b)
    if family == "pseudo":
        return make_pseudo_exponential_schedule(n, b, r)
    if family == "geometric-rr":
        return make_geometric_rr_schedule(n, b)
    return make_randomized_schedule_explicit(n, b, tuple(reversed(range(n))), 0.25)


def per_index_twin(plan):
    """The plan with its tag kept and its generator swapped for a plain
    function, which the trajectory calls once per index."""
    return dataclasses.replace(plan, generator=lambda i: plan.generator(i))


def _twin(plan):
    return make_custom_schedule(plan.problem_count, plan.generator, plan.interruptible)


def custom_plan(n, entries, interruptible=False):
    """A custom plan cycling through entries: (problem, length) pairs,
    or None for a generator that raises OverflowError."""

    def gen(i):
        entry = entries[i % len(entries)]
        if entry is None:
            raise OverflowError("length out of range")
        return entry

    return make_custom_schedule(n, gen, interruptible)


@st.composite
def bases(draw):
    """A base in the usual range, or one whose lengths leave float range
    close to a drawn phase, so the clock overflows about there."""
    if draw(st.booleans()):
        return draw(st.floats(1.01, 4.0))
    phase = draw(st.integers(2, 400))
    jitter = draw(st.sampled_from((0.999, 0.99999, 1.0, 1.00001, 1.001)))
    return math.exp(LOG_FLOAT_MAX / phase) * jitter


@st.composite
def factory_plans(draw, families=(*BLOCK_FAMILIES, "randomized")):
    family = draw(st.sampled_from(families))
    plan = _factory(family, draw(st.integers(1, 4)), draw(bases()), draw(st.integers(1, 3)))
    return family, plan


LENGTHS = st.one_of(
    st.floats(1e-3, 1e3),
    st.sampled_from((1.0, 3, 2.0**53, 1e17, 1e300, math.inf, math.nan)),
)


@st.composite
def custom_plans(draw):
    """Jobs of valid problems and lengths (an absorbed length among them
    when a small one follows a large one), with at most one invalid
    entry: a problem out of range, a length <= 0, or an OverflowError."""
    n = draw(st.integers(1, 4))
    entries = draw(st.lists(st.tuples(st.integers(0, n - 1), LENGTHS), min_size=1, max_size=12))
    bad = draw(st.sampled_from((False, (n, 1.0), (-1, 1.0), (0, 0.0), (0, -2.0), None)))
    if bad is not False:
        entries.insert(draw(st.integers(0, len(entries))), bad)
    return custom_plan(n, entries, draw(st.booleans()))


SEMANTICS = st.one_of(
    st.just(longest_completed()),
    st.just(aggregate_interruptible()),
    st.integers(1, 3).map(r_times_completed),
    st.integers(1, 3).map(rth_largest_completed),
    st.floats(0.0, 1.0, exclude_min=True).map(probabilistic_completed),
)


def _outcome(call):
    """A report's fields by repr (np.float64 and float differ there), or
    the error's type and message; every float field must be a float."""
    try:
        report = call()
    except Exception as err:
        return type(err), str(err)
    for name in FLOAT_FIELDS:
        value = getattr(report, name)
        assert value is None or type(value) is float, (name, type(value))
    return {name: repr(value) for name, value in vars(report).items()}


@st.composite
def any_plans(draw):
    if draw(st.booleans()):
        return draw(custom_plans())
    _, plan = draw(factory_plans())
    return draw(st.sampled_from((plan, per_index_twin(plan), _twin(plan))))


@settings(max_examples=300, deadline=None)
@given(plan=any_plans(), semantics=SEMANTICS, horizon=st.integers(1, 400))
@example(plan=custom_plan(2, [(0, 1e17), (1, 1.0)]), semantics=longest_completed(), horizon=5)
@example(plan=custom_plan(2, [(0, 1e17), (1, 1)]), semantics=aggregate_interruptible(), horizon=5)
@example(plan=custom_plan(1, [(0, 1e-3), (0, 1e306)]), semantics=longest_completed(), horizon=4)
@example(plan=make_exponential_schedule(2, 1.5), semantics=longest_completed(), horizon=1749)
@example(plan=make_exponential_schedule(4, 1.3), semantics=longest_completed(), horizon=2000)
@example(plan=make_exponential_schedule(1, 1.2), semantics=longest_completed(), horizon=3000)
@example(plan=make_exponential_schedule(3, 1.25), semantics=aggregate_interruptible(),
         horizon=2000)
@example(plan=make_geometric_rr_schedule(2, 1.2), semantics=aggregate_interruptible(),
         horizon=3000)
@example(plan=make_pseudo_exponential_schedule(2, 1.4, 2), semantics=r_times_completed(2),
         horizon=2000)
@example(plan=make_pseudo_exponential_schedule(4, 1.15, 3), semantics=r_times_completed(3),
         horizon=3000)
@example(plan=make_exponential_schedule(3, 1.2), semantics=rth_largest_completed(2),
         horizon=2000)
@example(plan=make_pseudo_exponential_schedule(1, 1.3, 2), semantics=rth_largest_completed(3),
         horizon=3000)
@example(plan=custom_plan(2, [(0, 3.0), (1, 1.0), (0, 1.0), (1, 2.0)]),
         semantics=probabilistic_completed(0.3), horizon=40)
@example(plan=make_exponential_schedule(4, 1.2), semantics=probabilistic_completed(0.6),
         horizon=3000)
def test_acceleration_ratio_equals_the_scalar_sweep(plan, semantics, horizon):
    expected = _outcome(lambda: ref.acceleration_ratio(plan, semantics, horizon))
    assert _outcome(lambda: acceleration_ratio(plan, semantics, horizon)) == expected


def _run_isolated(code, timeout=30):
    """Run code in a fresh interpreter: a call that hangs fails the test
    at the timeout instead of hanging the suite."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    try:
        done = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        pytest.fail(f"did not finish within {timeout} s")
    return done


def test_walkers_stop_on_a_clock_that_absorbs_a_length():
    done = _run_isolated("""
        from raysched.core import jobs_before
        from raysched.sched_eval import contract_count, preemption_count
        from raysched.strategies import make_custom_schedule

        for small in (1.0, 1e-13):
            plan = make_custom_schedule(
                2, lambda i: (i % 2, 1e17 if i == 0 else small), True)
            t = 1e17 + 100
            for call in (lambda: contract_count(plan, t),
                         lambda: preemption_count(plan, t),
                         lambda: list(jobs_before(plan, t))):
                try:
                    call()
                except ValueError as err:
                    print(err)
                else:
                    print("returned")
    """)
    absorbed = "finish - start = 0.0 does not match length 1.0"
    # Under Job's 1e-12 absolute tolerance the span rule holds, but the
    # clock still stands.
    stalled = "schedule clock stopped advancing at job 1"
    assert done.stdout.splitlines() == [absorbed] * 3 + [stalled] * 3
    assert done.returncode == 0, done.stderr


def test_clock_overflow_far_inside_the_horizon_fails_fast():
    done = _run_isolated("""
        import time
        from raysched import acceleration_ratio, longest_completed
        from raysched import make_custom_schedule, make_exponential_schedule
        from raysched import rth_largest_completed

        plan = make_exponential_schedule(2, 1.5)
        twin = make_custom_schedule(2, plan.generator)
        for p, semantics in ((plan, longest_completed()), (twin, longest_completed()),
                             (plan, rth_largest_completed(2))):
            start = time.perf_counter()
            try:
                acceleration_ratio(p, semantics, 10**12)
            except ValueError as err:
                print(err, time.perf_counter() - start < 1.0)
    """)
    assert done.stdout.splitlines() == ["schedule clock overflowed at job 1748 True"] * 3
    cli = _run_isolated("""
        import sys
        from raysched.cli import console_main
        sys.exit(console_main(["sched-eval", "--n", "2", "--b", "1.5",
                               "--horizon", "1000000000000"]))
    """)
    assert cli.returncode == 2
    assert cli.stderr == "error: schedule clock overflowed at job 1748\n"


def test_expected_credit_refolds_only_from_the_rank_of_a_fall():
    # Each problem's lengths rise, and every tenth run falls just below
    # the problem's longest.  Refolding every prefix after a fall is
    # quadratic in the horizon: several seconds here.
    done = _run_isolated("""
        import time
        from raysched import acceleration_ratio, make_custom_schedule
        from raysched import probabilistic_completed

        plan = make_custom_schedule(
            2, lambda i: (i % 2, i - 1.5 if i % 20 >= 18 else i + 1.0))
        start = time.perf_counter()
        report = acceleration_ratio(plan, probabilistic_completed(0.3), 20_000)
        print(report.witness is not None, time.perf_counter() - start < 2.0)
    """)
    assert done.stdout.splitlines() == ["True True"], done.stderr
