"""Property-based tests for structural invariants of the simulators."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

import reference_sched as ref
from raysched.core import CostModel, Excursion, Relation, SearchTrajectory, check_claim
from raysched.core import jobs_before
from raysched.numopt import lemma_root
from raysched.search_eval import cost_to_visit, turn_count
from raysched.sched_eval import contract_count
from raysched.strategies import (
    make_custom_search,
    make_exponential_schedule,
    make_exponential_search,
    make_geometric_rr_schedule,
)


def _cost(plan):
    """The trajectory's cost column at the plan's first excursion."""
    trajectory = SearchTrajectory(plan)
    trajectory.reach(1)
    return trajectory.cost[0]


bases = st.floats(min_value=1.05, max_value=3.0, allow_nan=False)
probabilities = st.floats(min_value=0.01, max_value=1.0, allow_nan=False)


@given(
    inner=st.floats(min_value=0.0, max_value=100.0),
    extension=st.floats(min_value=1e-6, max_value=100.0),
    traversals=st.integers(min_value=1, max_value=6),
)
def test_excursion_cost_matches_an_explicit_walk(inner, extension, traversals):
    outer = inner + extension
    exc = Excursion(ray=0, depth_inner=inner, depth_outer=outer)
    plan = make_custom_search(2, lambda i: exc, traversals=traversals)
    # Re-derive the cost by walking the waypoint list directly.
    pts = [0.0, outer]
    for t in range(1, traversals):
        pts.append(inner if pts[-1] == outer else outer)
    pts.append(0.0)
    walked = sum(abs(b - a) for a, b in zip(pts, pts[1:]))
    assert math.isclose(_cost(plan), walked, rel_tol=1e-12)
    assert walked >= 2 * outer * (1.0 - 1e-12)

    expanding = make_custom_search(
        2, lambda i: exc, cost_model=CostModel.EXPANDING, traversals=traversals
    )
    assert _cost(expanding) == outer - inner


@given(
    inner=st.floats(min_value=0.0, max_value=50.0),
    extension=st.floats(min_value=1e-3, max_value=50.0),
    traversals=st.integers(min_value=1, max_value=5),
)
def test_extra_sweeps_never_cost_less(inner, extension, traversals):
    exc = Excursion(ray=0, depth_inner=inner, depth_outer=inner + extension)
    shorter = make_custom_search(2, lambda i: exc, traversals=traversals)
    longer = make_custom_search(2, lambda i: exc, traversals=traversals + 1)
    # Equality is possible (an extra sweep from depth 0 replaces the
    # return leg), so allow one ulp of rounding headroom.
    assert _cost(longer) >= _cost(shorter) * (1.0 - 1e-12)


@settings(max_examples=50)
@given(
    m=st.integers(min_value=2, max_value=3),
    b=bases,
    d_lo=st.floats(min_value=0.01, max_value=10.0),
    d_hi=st.floats(min_value=0.01, max_value=10.0),
    k=st.integers(min_value=1, max_value=3),
)
def test_visit_cost_monotone_in_distance_and_ordinal(m, b, d_lo, d_hi, k):
    plan = make_exponential_search(m, b)
    lo, hi = sorted((d_lo, d_hi))
    # Only the first visit is monotone in distance: a nearer point's
    # second pass can land on a later inward leg (at m=2, b=2 passing
    # 1.5 twice costs 12.5 while passing 2.0 twice costs 12.0).
    assert cost_to_visit(plan, (0, lo), 1) <= cost_to_visit(plan, (0, hi), 1)
    if k > 1:
        assert cost_to_visit(plan, (0, lo), k) > cost_to_visit(plan, (0, lo), k - 1)


@given(
    reference=st.floats(min_value=-1e6, max_value=1e6),
    measured=st.floats(min_value=-1e6, max_value=1e6),
    tolerance=st.floats(min_value=0.0, max_value=10.0),
)
def test_equality_is_the_conjunction_of_the_inequalities(reference, measured, tolerance):
    equal = check_claim("x", reference, measured, Relation.EQUAL, tolerance)
    at_most = check_claim("x", reference, measured, Relation.MEASURED_AT_MOST, tolerance)
    at_least = check_claim(
        "x", reference, measured, Relation.MEASURED_AT_LEAST, tolerance
    )
    assert equal.holds == (at_most.holds and at_least.holds)


@settings(max_examples=50)
@given(
    n=st.integers(min_value=1, max_value=4),
    b=bases,
    t_lo=st.floats(min_value=0.0, max_value=1e4),
    t_hi=st.floats(min_value=0.0, max_value=1e4),
)
def test_contract_count_brute_force_and_monotone(n, b, t_lo, t_hi):
    plan = make_exponential_schedule(n, b)
    lo, hi = sorted((t_lo, t_hi))
    count = contract_count(plan, hi)
    brute = sum(1 for job in ref.jobs(plan, count + 2) if job.start < hi)
    assert count == brute
    assert contract_count(plan, lo) <= count


@settings(max_examples=50)
@given(
    m=st.integers(min_value=2, max_value=3),
    b=bases,
    budget=st.floats(min_value=0.0, max_value=1e4),
)
def test_one_way_charging_never_counts_fewer_turns(m, b, budget):
    plan = make_exponential_search(m, b)
    assert turn_count(plan, budget, one_way=True) >= turn_count(plan, budget)


@given(p=probabilities)
def test_lemma_root_residual_and_bracket(p):
    x = lemma_root(p)
    assert 0.0 < x <= p / 2.0
    residual = math.exp(x) * ((1.0 - p) + p * p / (4.0 * x)) - 1.0
    assert abs(residual) <= 1e-10


@settings(max_examples=50)
@given(
    n=st.integers(min_value=1, max_value=3),
    b=bases,
    horizon=st.floats(min_value=0.01, max_value=1e3),
    interruptible=st.booleans(),
)
def test_schedule_prefix_is_contiguous_and_covers_the_horizon(
    n, b, horizon, interruptible
):
    plan = (
        make_geometric_rr_schedule(n, b)
        if interruptible
        else make_exponential_schedule(n, b)
    )
    jobs = list(jobs_before(plan, horizon))
    assert jobs[0][2] == 0.0
    for prev, cur in zip(jobs, jobs[1:]):
        assert prev[3] == cur[2]
    assert jobs[-1][2] < horizon <= jobs[-1][3]
