"""The walks to a time (ell, contract_count, preemption_count and
schedule_prefix, all reading core.jobs_before) against the scalar walks
in tests/reference_sched.py: equal values, or errors equal in type and
message, on factory plans, their custom twins and custom plans whose jobs
are absorbed by the clock, stall it, overflow it or fail job_spec.
"""

import math
import sys

from hypothesis import example, given, settings, strategies as st

import reference_sched as ref
from raysched.core import schedule_prefix
from raysched.sched_eval import (
    aggregate_interruptible,
    contract_count,
    ell,
    longest_completed,
    preemption_count,
    r_times_completed,
    rth_largest_completed,
)
from raysched.strategies import (
    make_custom_schedule,
    make_exponential_schedule,
    make_geometric_rr_schedule,
    make_pseudo_exponential_schedule,
)

LOG_FLOAT_MAX = math.log(sys.float_info.max)
SEMANTICS = st.one_of(
    st.just(longest_completed()),
    st.just(aggregate_interruptible()),
    st.integers(1, 3).map(r_times_completed),
    st.integers(1, 3).map(rth_largest_completed),
)
# 1e17 then a small length: the clock absorbs it; 1e-13: under Job's
# absolute tolerance, the clock stalls; inf, nan and 1e300 twice: overflow.
LENGTHS = st.one_of(
    st.floats(1e-3, 1e3),
    st.sampled_from((1.0, 3, 2, 1e17, 1e-13, 1e300, math.inf, math.nan)),
)


def custom_plan(n, entries, interruptible=False):
    """A custom plan cycling through entries: (problem, length) pairs, or
    None for a generator that raises OverflowError."""

    def gen(i):
        entry = entries[i % len(entries)]
        if entry is None:
            raise OverflowError("length out of range")
        return entry

    return make_custom_schedule(n, gen, interruptible)


def finishes(plan, count):
    """Finish times of the first jobs, up to count, that pass job_spec
    and keep the clock finite."""
    out, clock = [], 0.0
    for i in range(count):
        try:
            _, length = plan.job_spec(i)
        except ValueError:
            break
        clock += length
        if not math.isfinite(clock):
            break
        out.append(clock)
    return out


@st.composite
def factory_plans(draw):
    """A factory plan or its custom twin, with a base in the usual range
    or one whose lengths leave float range near a drawn job."""
    n = draw(st.integers(1, 3))
    if draw(st.booleans()):
        b = draw(st.floats(1.3, 4.0))
    else:
        b = math.exp(LOG_FLOAT_MAX / draw(st.integers(2, 60))) * draw(
            st.sampled_from((0.999, 1.0, 1.001)))
    family = draw(st.sampled_from(("exponential", "pseudo", "geometric-rr")))
    if family == "exponential":
        plan = make_exponential_schedule(n, b)
    elif family == "pseudo":
        plan = make_pseudo_exponential_schedule(n, b, draw(st.integers(1, 3)))
    else:
        plan = make_geometric_rr_schedule(n, b)
    if draw(st.booleans()):
        plan = make_custom_schedule(n, plan.generator, plan.interruptible)
    return plan


@st.composite
def custom_plans(draw, ends=False):
    """Jobs of valid problems and lengths with at most one invalid entry:
    a problem out of range, a length <= 0, or an OverflowError.  With
    ends, an infinite length follows them, so a walk to t = inf ends."""
    n = draw(st.integers(1, 3))
    entries = draw(st.lists(st.tuples(st.integers(0, n - 1), LENGTHS), min_size=1, max_size=8))
    bad = draw(st.sampled_from((False, (n, 1.0), (-1, 1.0), (0, 0.0), (0, -2.0), None)))
    if bad is not False:
        entries.insert(draw(st.integers(0, len(entries))), bad)
    if ends:
        entries.append((0, math.inf))
    return custom_plan(n, entries, draw(st.booleans()))


@st.composite
def walks(draw):
    """A plan, a time (0, inf, nan, a negative time, a finish exactly,
    between two finishes, or past the last one looked at) and a problem."""
    where = draw(st.sampled_from(("zero", "inf", "nan", "negative", "finish", "between", "past")))
    if where == "inf":
        plan = draw(st.one_of(factory_plans(), custom_plans(ends=True)))
    else:
        plan = draw(st.one_of(factory_plans(), custom_plans()))
    done = finishes(plan, 40)
    if where == "zero" or (not done and where in ("finish", "between", "past")):
        t = 0.0
    elif where == "inf":
        t = math.inf
    elif where == "nan":
        t = math.nan
    elif where == "negative":
        t = -draw(st.floats(1e-9, 10.0))
    elif where == "past":
        t = done[-1] * 1.5
    else:
        k = draw(st.integers(0, len(done) - 1))
        t = done[k]
        if where == "between":
            t = (t + done[k + 1]) / 2 if k + 1 < len(done) else t * 1.25
    return plan, t, draw(st.integers(0, plan.problem_count - 1))


def _outcome(call):
    """The value by repr, or the error's type and message."""
    try:
        return repr(call())
    except Exception as err:
        return type(err), str(err)


@settings(max_examples=300, deadline=None)
@given(case=walks(), semantics=SEMANTICS)
@example(case=(custom_plan(2, [(0, 1e17), (1, 1.0)]), 1e17 + 100, 1),
         semantics=longest_completed())
@example(case=(custom_plan(2, [(0, 1.0), (1, 1e-13)], True), 5.0, 0),
         semantics=aggregate_interruptible())
@example(case=(custom_plan(1, [(0, 1e308), (0, 1e308)]), 1.5e308, 0),
         semantics=longest_completed())
@example(case=(custom_plan(2, [(0, 2), (1, 3), (0, 2)], True), 6.0, 0),
         semantics=r_times_completed(2))
@example(case=(make_exponential_schedule(2, 2.0), math.nan, 0),
         semantics=rth_largest_completed(2))
def test_walks_to_a_time_equal_the_scalar_walks(case, semantics):
    plan, t, problem = case
    pairs = [
        (lambda: contract_count(plan, t), lambda: ref.contract_count(plan, t)),
        (lambda: schedule_prefix(plan, t), lambda: ref.schedule_prefix(plan, t)),
        (lambda: ell(plan, problem, t, semantics), lambda: ref.ell(plan, problem, t, semantics)),
    ]
    if plan.interruptible:
        pairs.append((lambda: preemption_count(plan, t), lambda: ref.contract_count(plan, t)))
    for walk, reference in pairs:
        assert _outcome(walk) == _outcome(reference)


def test_ell_raises_when_the_job_spanning_t_overflows_the_clock():
    plan = custom_plan(1, [(0, 1e308), (0, 1e308)])
    message = "schedule clock overflowed at job 1"
    for walk in (lambda: ell(plan, 0, 1.5e308, longest_completed()),
                 lambda: contract_count(plan, 1.5e308)):
        assert _outcome(walk) == (ValueError, message)
