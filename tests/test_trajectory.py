"""The columnar search trajectory and its pass-cost kernel against the
scalar reference walk in reference_walk.py: equal to the last bit on
custom plans, and generating each excursion at most once and no further
than the scalar walk did."""

import dataclasses
import itertools
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_walk as ref
from raysched.core import CostModel, Excursion, SearchPlan, SearchTrajectory
from raysched.search_eval import FIRST_VISIT, competitive_ratio, rth_visit
from raysched.search_eval import visit_cost_stream
from raysched.stochastic import (
    DetectionModel,
    DirectionRule,
    probabilistic_competitive_ratio,
    tuned_search_base,
)
from raysched.strategies import make_exponential_search


@st.composite
def custom_plans(draw):
    """A periodic ray order with jittered exponential depths.  Inner
    depths are a drawn fraction of the outer one; under EXPANDING they
    are 0 in every other period, because a covered point is otherwise
    never passed again."""
    m = draw(st.integers(min_value=2, max_value=4))
    period = draw(st.integers(min_value=1, max_value=8))
    slots = st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=m - 1),
            st.floats(min_value=0.5, max_value=2.0),
            st.floats(min_value=0.0, max_value=0.95),
        ),
        min_size=period,
        max_size=period,
    )
    pattern = draw(slots)
    growth = draw(st.floats(min_value=1.1, max_value=2.0))
    cost_model = draw(st.sampled_from(list(CostModel)))
    expanding = cost_model is CostModel.EXPANDING

    def generator(i):
        ray, scale, inner = pattern[i % period]
        outer = growth**i * scale
        if expanding and (i // period) % 2 == 1:
            inner = 0.0
        return Excursion(ray=ray, depth_inner=inner * outer, depth_outer=outer)

    return SearchPlan(
        ray_count=m,
        generator=generator,
        cost_model=cost_model,
        traversals=draw(st.integers(min_value=1, max_value=3)),
    )


@settings(max_examples=60, deadline=None)
@given(plan=custom_plans(), r=st.integers(min_value=1, max_value=3),
       extra=st.integers(min_value=0, max_value=40))
def test_competitive_sweep_equals_the_scalar_walk(plan, r, extra):
    horizon = plan.ray_count + extra
    report = competitive_ratio(plan, rth_visit(r), horizon)
    assert (report.finite_sup, report.witness) == ref.competitive_sweep(
        plan, r, horizon
    )


@settings(max_examples=60, deadline=None)
@given(
    plan=custom_plans(),
    p=st.floats(min_value=0.3, max_value=1.0),
    outward_only=st.booleans(),
    extra=st.integers(min_value=0, max_value=25),
)
def test_probabilistic_sweep_equals_the_scalar_walk(plan, p, outward_only, extra):
    horizon = plan.ray_count + extra
    rule = DirectionRule.OUTWARD_ONLY if outward_only else DirectionRule.BOTH_DIRECTIONS
    report = probabilistic_competitive_ratio(plan, DetectionModel(p, rule), horizon)
    sup, witness, _ = ref.probabilistic_sweep(plan, p, outward_only, horizon)
    assert (report.finite_sup, report.witness) == (sup, witness)


def _resweep_plan():
    """Three sweeps over [0.3 x, x]: the second outward sweep starts at
    a nonzero depth, where adding the offset in another order shows."""
    def generator(i):
        outer = 1.7**i
        return Excursion(ray=0, depth_inner=0.3 * outer, depth_outer=outer)

    return SearchPlan(ray_count=2, generator=generator, traversals=3)


@settings(max_examples=150, deadline=None)
@example(plan=_resweep_plan(), ray=0, point=0.9, beyond=False, outward_only=False,
         start=0, count=8)
@given(
    plan=custom_plans(),
    ray=st.integers(min_value=0, max_value=3),
    point=st.floats(min_value=0.01, max_value=30.0),
    beyond=st.booleans(),
    outward_only=st.booleans(),
    start=st.integers(min_value=0, max_value=20),
    count=st.integers(min_value=1, max_value=12),
)
def test_visit_cost_stream_equals_the_scalar_walk(
    plan, ray, point, beyond, outward_only, start, count
):
    ray %= plan.ray_count
    flags = dict(beyond=beyond, outward_only=outward_only, start=start)

    def first_costs(passes):
        # A ray the pattern never visits is walked until the cost overflows.
        try:
            return list(itertools.islice(passes, count))
        except ValueError as err:
            return str(err)

    assert first_costs(visit_cost_stream(plan, ray, point, **flags)) == first_costs(
        ref.stream(ref.LazyPrefix(plan), ray, point, **flags)
    )


def _counted(plan, stop=None):
    """The plan with its generator wrapped in a per-index call counter;
    with stop, indices past it raise."""
    calls = Counter()

    def generator(i):
        calls[i] += 1
        if stop is not None and i > stop:
            raise RuntimeError(f"excursion {i} was not needed")
        return plan.generator(i)

    return dataclasses.replace(plan, generator=generator), calls


def test_sweeps_generate_each_excursion_once_and_no_further():
    horizon = 2000
    sweep = make_exponential_search(2, 1.3)
    counted, calls = _counted(sweep)
    report = competitive_ratio(counted, FIRST_VISIT, horizon)
    furthest = horizon + 2 * 2 - 1  # the sweep's look-ahead buffer
    assert max(calls.values()) == 1 and max(calls) == furthest
    fenced, _ = _counted(sweep, stop=furthest)
    assert competitive_ratio(fenced, FIRST_VISIT, horizon) == report

    model = DetectionModel(0.3)
    series = make_exponential_search(2, tuned_search_base(2, 0.3))
    counted, calls = _counted(series)
    report = probabilistic_competitive_ratio(counted, model, horizon)
    _, _, furthest = ref.probabilistic_sweep(series, 0.3, False, horizon)
    assert max(calls.values()) == 1 and max(calls) <= furthest
    fenced, _ = _counted(series, stop=furthest)
    assert probabilistic_competitive_ratio(fenced, model, horizon) == report


def test_trajectory_keeps_the_first_failure():
    calls = Counter()

    def generator(i):
        calls[i] += 1
        if i == 3:
            raise ValueError("bad excursion 3")
        return Excursion(ray=i % 2, depth_inner=0.0, depth_outer=2.0**i)

    trajectory = SearchTrajectory(SearchPlan(ray_count=2, generator=generator))
    trajectory.reach(3)
    for _ in range(2):
        with pytest.raises(ValueError, match="^bad excursion 3$"):
            trajectory.reach(5)
    assert trajectory.size == 3 and calls[3] == 1
