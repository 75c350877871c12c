"""The columnar search trajectory and its pass-cost kernel against the
scalar reference walk in reference_walk.py: equal to the last bit on
custom plans, custom twins and block-read factory plans (the lock step's
slice path) at short and deep horizons, and generating each
excursion at most once and no further than the scalar walk did, or than
the read-ahead bound its caller gives, and stopping soon after the
first failing excursion.  The trajectory's next-excursion links equal a
scalar link of its rays, and search and schedule trajectories grown fill
by fill equal one read in a single fill."""

import dataclasses
import itertools
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_walk as ref
from raysched.core import CostModel, Excursion, SearchPlan, SearchTrajectory, ScheduleTrajectory
from raysched.search_eval import FIRST_VISIT, competitive_ratio, rth_visit
from raysched.search_eval import visit_cost_stream
from raysched.stochastic import (
    DetectionModel,
    DirectionRule,
    _series_weights,
    probabilistic_competitive_ratio,
    tuned_search_base,
)
from raysched.strategies import (
    make_custom_schedule,
    make_custom_search,
    make_exponential_schedule,
    make_exponential_search,
    make_geometric_search,
    make_nm_search,
)


def _jittered_plan(m, pattern, growth, cost_model, traversals):
    """Excursion i runs on the ray of pattern slot i mod period, out to
    growth**i times the slot's scale, from the slot's fraction of that;
    under EXPANDING every other period starts from 0, because a covered
    point is otherwise never passed again."""
    period = len(pattern)
    expanding = cost_model is CostModel.EXPANDING

    def generator(i):
        ray, scale, inner = pattern[i % period]
        outer = growth**i * scale
        if expanding and (i // period) % 2 == 1:
            inner = 0.0
        return Excursion(ray=ray, depth_inner=inner * outer, depth_outer=outer)

    return SearchPlan(ray_count=m, generator=generator, cost_model=cost_model,
                      traversals=traversals)


@st.composite
def custom_plans(draw):
    """A periodic ray order with jittered exponential depths (see
    _jittered_plan)."""
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
    traversals = draw(st.integers(min_value=1, max_value=3))
    return _jittered_plan(m, pattern, growth, cost_model, traversals)


# Bases from 1e9 up overflow within the sweeps below, some in the
# generator and some in the cumulative cost.
_TWIN_BASES = (st.floats(min_value=1.5, max_value=3.0)
               | st.floats(min_value=1e9, max_value=1e12)
               | st.sampled_from([1e30, 1e200]))
# A tagged sweep compares its supremum with the family's limit, which
# rounding in the cumulative cost can pass at large bases (b = 1e9 reads
# 2000000107.05 against 2000000003.0), so tagged plans overflow only
# where every sweep below does: in the cumulative cost at 1e154, in the
# generator at 1e200, both within three excursions per ray.  The xfail
# example of test_competitive_sweep_equals_the_scalar_walk keeps the
# rounding fault in view.
_TAGGED_BASES = st.floats(min_value=1.5, max_value=3.0) | st.sampled_from([1e154, 1e200])


@st.composite
def factory_plans(draw, p=None, twin=False):
    """A factory plan, read in blocks: exponential, nm with 1-3
    traversals, or geometric, some replaced to up to two extra rays they
    never visit, so their stride is the generator's m, not ray_count.
    Given a detection probability p, the base keeps b^ray_count (1 - p)
    under 1, where the tagged series sweep runs, and a geometric plan,
    which passes each point once, is drawn only at p = 1.  With twin,
    the bases are the twins' and no ray is added."""
    families = ["exponential", "nm"] + (["geometric"] if p in (None, 1.0) else [])
    family = draw(st.sampled_from(families))
    m = draw(st.integers(min_value=2, max_value=5))
    extra = 0 if twin else draw(st.integers(min_value=0, max_value=2))
    if p is None:
        b = draw(_TWIN_BASES if twin else _TAGGED_BASES)
    else:
        top = 3.0 if p == 1.0 else min(3.0, (1.0 / (1.0 - p)) ** (1.0 / (m + extra)))
        b = draw(st.floats(min_value=1.01, max_value=top, exclude_max=True))
    if family == "exponential":
        plan = make_exponential_search(m, b)
    elif family == "geometric":
        plan = make_geometric_search(m, b)
    else:
        plan = make_nm_search(m, b, draw(st.integers(min_value=1, max_value=3)))
    return dataclasses.replace(plan, ray_count=m + extra) if extra else plan


def _custom_twin(plan):
    return make_custom_search(plan.ray_count, plan.generator, plan.cost_model,
                              plan.traversals)


def factory_twins():
    """A custom twin of a factory plan: the tag dropped, the factory's
    CyclicDepths generator kept, so it is read one index at a time.  A
    geometric plan passes each point once, so its stream walks to the
    overflow, which the lowest base 1.5 keeps within a few thousand
    excursions."""
    return factory_plans(twin=True).map(_custom_twin)


@st.composite
def detection_cases(draw):
    """(plan, p): a custom plan with p in [0.3, 1], or a factory plan
    whose series the tagged sweep runs (see factory_plans), with p = 1
    drawn about half the time, where geometric plans come up."""
    p = st.floats(min_value=0.3, max_value=1.0)
    if draw(st.booleans()):
        return draw(custom_plans()), draw(p)
    p = draw(p | st.just(1.0))
    return draw(factory_plans(p)), p


def _outcome(call):
    """What a sweep returns, or its error message: an overflow at the
    same excursion is the same outcome."""
    try:
        return call()
    except ValueError as err:
        return f"error: {err}"


# Later excursions on each ray stay below the first frontier there, so
# no candidate is ever passed.
_UNPASSED = _jittered_plan(
    2, [(0, 2.0, 0.0), (1, 2.0, 0.0)] + [(0, 0.5, 0.0), (1, 0.5, 0.0)] * 2, 1.1,
    CostModel.STANDARD, 1,
)
# Ray 1 gets one excursion in 8 and is passed again only every other
# period, so the series at p = 0.3125 runs past float range.
_SPARSE_RAY = _jittered_plan(2, [(1, 1.0, 0.5)] + [(0, 1.0, 0.5)] * 7, 2.0,
                             CostModel.EXPANDING, 1)


@settings(max_examples=180, deadline=None)
@example(plan=_UNPASSED, r=1, extra=0)
# The tagged sweep's limit guard trips on rounding at b = 1e9 (see
# _TAGGED_BASES); once that is mended this example passes, and
# _TAGGED_BASES can take the twins' bases.
@example(plan=make_exponential_search(2, 1e9), r=1, extra=0).xfail(
    reason="finite supremum 2000000107.05 exceeds analytic limit 2000000003.0",
    raises=AssertionError)
# A geometric plan passes each point once, so no candidate has a second
# pass: all of them run off the prefix, the last ones first.
@example(plan=make_geometric_search(3, 1.5), r=2, extra=20)
@example(plan=dataclasses.replace(make_nm_search(2, 2.0, 3), ray_count=4), r=3, extra=7)
@given(plan=custom_plans() | factory_twins() | factory_plans(),
       r=st.integers(min_value=1, max_value=3),
       extra=st.integers(min_value=0, max_value=40))
def test_competitive_sweep_equals_the_scalar_walk(plan, r, extra):
    horizon = plan.ray_count + extra

    def sweep():
        report = competitive_ratio(plan, rth_visit(r), horizon)
        return report.finite_sup, report.witness

    assert _outcome(sweep) == _outcome(lambda: ref.competitive_sweep(plan, r, horizon))


@settings(max_examples=240, deadline=None)
@example(case=(_SPARSE_RAY, 0.3125), outward_only=False, extra=2)
# Two candidates and 78 passes: the reads double from 2 toward the
# hint, so the trajectory grows again and again in the middle of the sweep.
@example(case=(make_exponential_search(2, tuned_search_base(2, 0.3)), 0.3),
         outward_only=False, extra=0)
@example(case=(dataclasses.replace(make_nm_search(3, 1.05, 2), ray_count=5), 0.5),
         outward_only=True, extra=4)
@example(case=(make_geometric_search(2, 1.5), 1.0), outward_only=False, extra=9)
@given(case=detection_cases(), outward_only=st.booleans(),
       extra=st.integers(min_value=0, max_value=25))
def test_probabilistic_sweep_equals_the_scalar_walk(case, outward_only, extra):
    plan, p = case
    horizon = plan.ray_count + extra
    rule = DirectionRule.OUTWARD_ONLY if outward_only else DirectionRule.BOTH_DIRECTIONS

    def sweep():
        report = probabilistic_competitive_ratio(plan, DetectionModel(p, rule), horizon)
        return report.finite_sup, report.witness

    assert _outcome(sweep) == _outcome(
        lambda: ref.probabilistic_sweep(plan, p, outward_only, horizon)[:2]
    )


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
    plan=custom_plans() | factory_twins(),
    ray=st.integers(min_value=0, max_value=4),
    point=st.floats(min_value=0.01, max_value=30.0),
    beyond=st.booleans(),
    outward_only=st.booleans(),
    start=st.integers(min_value=0, max_value=20) | st.just(40),
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
    # Past the horizon one per-index read runs ahead, as a block read
    # does, to the count + m · ceil(passes / 2) excursions that hold every
    # pass of a factory plan under both directions (each later excursion
    # passes a frontier target out and back), which is where the scalar
    # walk stops; the error of an excursion the walk does not need waits
    # for a caller that needs it.
    passes = sum(1 for _ in _series_weights(0.3, 1e-12))
    assert max(calls.values()) == 1 and max(calls) == horizon + 2 * -(-passes // 2) - 1
    _, _, furthest = ref.probabilistic_sweep(series, 0.3, False, horizon)
    assert furthest == max(calls)
    fenced, _ = _counted(series, stop=furthest)
    assert probabilistic_competitive_ratio(fenced, model, horizon) == report


def test_expanding_sweep_reads_ahead_one_pass_per_excursion():
    """Under EXPANDING each later excursion on the ray passes a frontier
    target once, in either direction, so the read-ahead under both
    directions is count + m · passes, where the scalar walk stops."""
    plan = _jittered_plan(2, [(0, 1.0, 0.0), (1, 1.0, 0.0)], 1.1, CostModel.EXPANDING, 1)
    horizon, p = 200, 0.3
    counted, calls = _counted(plan)
    report = probabilistic_competitive_ratio(counted, DetectionModel(p), horizon)
    passes = sum(1 for _ in _series_weights(p, 1e-12))
    _, _, furthest = ref.probabilistic_sweep(plan, p, False, horizon)
    assert max(calls.values()) == 1 and max(calls) == furthest == horizon + 2 * passes - 1
    assert report == probabilistic_competitive_ratio(plan, DetectionModel(p), horizon)


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


def test_per_index_reads_stop_at_the_first_failing_excursion(monkeypatch):
    """Per-index reads at least double past their floor of 256, so a
    failure at excursion k is found after about max(2k, 256) excursions,
    never after reading the whole horizon."""
    calls = []
    original = SearchPlan.excursion

    def counted(self, i):
        calls.append(i)
        return original(self, i)

    monkeypatch.setattr(SearchPlan, "excursion", counted)
    plan = make_custom_search(2, lambda i: Excursion(i % 2, 0.0, 1e308))
    with pytest.raises(ValueError) as info:
        competitive_ratio(plan, FIRST_VISIT, 10**6)
    assert str(info.value) == ("cumulative cost overflowed at excursion 0; reduce the "
                               "horizon or the growth base")
    assert 0 < len(calls) <= 256


def _scalar_links(rays):
    """next_same of a ray column by a scalar walk: each excursion links
    to the next one on its ray, the last on each ray to -1."""
    links, last = [-1] * len(rays), {}
    for k, ray in enumerate(rays):
        if ray in last:
            links[last[ray]] = k
        last[ray] = k
    return links


def _assert_linked(trajectory):
    size = trajectory.size
    assert trajectory.next_same[:size].tolist() == _scalar_links(
        trajectory.ray[:size].tolist())


FACTORIES = {
    "exponential": lambda m, b: make_exponential_search(m, b),
    "nm": lambda m, b: make_nm_search(m, b, 2),
    "geometric": lambda m, b: make_geometric_search(m, b),
}


@settings(max_examples=100, deadline=None)
@given(
    family=st.sampled_from(sorted(FACTORIES)),
    m=st.integers(min_value=2, max_value=5),
    b=st.floats(min_value=1.05, max_value=1.3),
    extra=st.integers(min_value=0, max_value=2),
    reads=st.lists(st.tuples(st.integers(min_value=1, max_value=200),
                             st.integers(min_value=0, max_value=200), st.booleans()),
                   min_size=1, max_size=4),
)
def test_tagged_links_equal_a_scalar_link_across_blocks(family, m, b, extra, reads):
    """Blocks of many sizes, with next_same read after some of them, on
    a plan replaced to extra rays it never visits: its excursions still
    cycle over the generator's m rays, not over ray_count."""
    plan = dataclasses.replace(FACTORIES[family](m, b), ray_count=m + extra)
    trajectory = SearchTrajectory(plan)
    for grow, ahead, read in reads:
        trajectory.reach(trajectory.size + grow, trajectory.size + grow + ahead)
        if read:
            _assert_linked(trajectory)
    _assert_linked(trajectory)


@settings(max_examples=60, deadline=None)
@given(
    plan=st.one_of(
        custom_plans(),
        st.builds(lambda family, m: _custom_twin(FACTORIES[family](m, 1.3)),
                  st.sampled_from(sorted(FACTORIES)), st.integers(min_value=2, max_value=4)),
    ),
    reads=st.lists(st.booleans(), min_size=1, max_size=60),
)
def test_per_index_links_equal_a_scalar_link(plan, reads):
    """Custom plans grow one index at a time, with next_same read after
    some steps; a ray may never be visited, or be linked in one read and
    continued in a later one."""
    trajectory = SearchTrajectory(plan)
    for read in reads:
        trajectory.reach(trajectory.size + 1)
        if read:
            _assert_linked(trajectory)
    _assert_linked(trajectory)


GROWN = {
    "search": (make_nm_search(3, 1.01, 2), _custom_twin, SearchTrajectory,
               ("ray", "inner", "outer", "cost", "cum", "next_same")),
    "schedule": (make_exponential_schedule(3, 1.001),
                 lambda plan: make_custom_schedule(plan.problem_count, plan.generator),
                 ScheduleTrajectory, ("problem", "length", "finish")),
}


@pytest.mark.parametrize("kind, twin", [("search", False), ("search", True),
                                        ("schedule", False), ("schedule", True)],
                         ids=["tagged", "custom", "schedule-tagged", "schedule-custom"])
def test_growth_in_blocks_keeps_every_column_of_a_single_fill(kind, twin):
    """Reads of 1 to 97 entries append fill after fill up to 3000, with
    a search's next_same read between some of them; each growth keeps
    the whole filled prefix."""
    plan, custom_twin, trajectory_class, columns = GROWN[kind]
    if twin:
        plan = custom_twin(plan)
    single = trajectory_class(plan)
    single.reach(3000)
    grown = trajectory_class(plan)
    for step in itertools.cycle((1, 2, 97, 5, 64, 1, 33)):
        if grown.size >= 3000:
            break
        grown.reach(min(grown.size + step, 3000))
        if step == 5 and kind == "search":
            grown.next_same
    assert grown.size == single.size == 3000
    for name in columns:
        assert getattr(grown, name)[:3000].tolist() == getattr(single, name)[:3000].tolist(), name


@pytest.mark.parametrize("m, p, outward_only, horizon", [
    (2, 0.45, False, 600),
    (3, 0.6, True, 500),
    (5, 0.5, False, 500),
])
def test_deep_probabilistic_sweep_equals_the_scalar_walk(m, p, outward_only, horizon):
    """Deep-horizon sizes on a tagged plan, read in blocks: every
    candidate's series, summed in pass order, is the scalar walk's."""
    plan = make_exponential_search(m, tuned_search_base(m, p))
    rule = DirectionRule.OUTWARD_ONLY if outward_only else DirectionRule.BOTH_DIRECTIONS
    report = probabilistic_competitive_ratio(plan, DetectionModel(p, rule), horizon)
    assert (report.finite_sup, report.witness) == ref.probabilistic_sweep(
        plan, p, outward_only, horizon)[:2]


@pytest.mark.parametrize("m, b, r", [(2, 1.3, 1), (3, 1.2, 2), (5, 1.1, 3)])
def test_deep_competitive_sweep_equals_the_scalar_walk(m, b, r):
    plan = make_exponential_search(m, b)
    report = competitive_ratio(plan, rth_visit(r), 2000)
    assert (report.finite_sup, report.witness) == ref.competitive_sweep(plan, r, 2000)
