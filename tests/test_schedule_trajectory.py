"""ScheduleTrajectory: factory plans are read in blocks of their job
formula, every other plan calls job_spec once per index.  Both paths give
the same columns to the last bit and the same first error; blocks stop
at the first failing job; the column span check decides as
Job.check_span does; and the factories' per-index generators stay as
fast as the closures they replaced.
"""

import dataclasses
import math
import statistics
import time
import timeit

import pytest
from hypothesis import given, settings, strategies as st

from raysched.core import SchedulePlan, ScheduleTrajectory
from raysched.sched_eval import (
    acceleration_ratio,
    aggregate_interruptible,
    longest_completed,
)
from raysched.stochastic import expected_acc_ratio_mc_contracts
from raysched.strategies import (
    make_exponential_schedule,
    make_geometric_rr_schedule,
    make_pseudo_exponential_schedule,
)
from test_sched_sweep import BLOCK_FAMILIES, custom_plan, factory_plans, per_index_twin


def _reach(trajectory, count):
    try:
        trajectory.reach(count)
    except Exception as err:
        return type(err), str(err), trajectory.size
    return trajectory.size


@settings(max_examples=200, deadline=None)
@given(drawn=factory_plans(BLOCK_FAMILIES), count=st.integers(1, 400), fewer=st.booleans())
def test_block_columns_equal_the_per_index_columns(drawn, count, fewer):
    _, plan = drawn
    if fewer and plan.problem_count > 1:  # jobs of the last problem are out of range
        plan = dataclasses.replace(plan, problem_count=plan.problem_count - 1)
    block, per_index = ScheduleTrajectory(plan), ScheduleTrajectory(per_index_twin(plan))
    assert block._block is not None and per_index._block is None
    assert _reach(block, count) == _reach(per_index, count)
    for name in ("problem", "length", "finish"):
        assert getattr(block, name).tobytes() == getattr(per_index, name).tobytes()


@settings(max_examples=300, deadline=None)
@given(length=st.one_of(st.floats(1e-15, 1e6), st.sampled_from((1, 3))),
       scale=st.floats(1e2, 1e6))
def test_span_check_on_columns_is_math_isclose(length, scale):
    """Near the relative tolerance the clock's rounding decides; the
    column rule must decide as Job.check_span does."""
    start = float(length) * scale
    trajectory = ScheduleTrajectory(custom_plan(1, [(0, start), (0, length)]))
    finish = start + length
    if math.isclose(finish - start, length, rel_tol=1e-12, abs_tol=1e-12):
        trajectory.reach(2)
        assert trajectory.finish.tolist() == [start, finish]
    else:
        with pytest.raises(ValueError) as info:
            trajectory.reach(2)
        assert str(info.value) == (
            f"finish - start = {finish - start} does not match length {length}")


def _count_job_spec_calls(monkeypatch):
    calls = []
    original = SchedulePlan.job_spec

    def counted(self, i):
        calls.append(i)
        return original(self, i)

    monkeypatch.setattr(SchedulePlan, "job_spec", counted)
    return calls


def test_factory_plans_are_read_without_job_spec(monkeypatch):
    calls = _count_job_spec_calls(monkeypatch)
    acceleration_ratio(make_exponential_schedule(4, 1.2), longest_completed(), 3000)
    acceleration_ratio(make_pseudo_exponential_schedule(2, 1.5, 3), longest_completed(), 600)
    acceleration_ratio(make_geometric_rr_schedule(3, 2.0), aggregate_interruptible(), 900)
    expected_acc_ratio_mc_contracts(2, 0.5, 1.5, 1000)
    assert calls == []
    # A length past float range is job_spec's error, read at that index only.
    with pytest.raises(ValueError, match="^job 4 length overflowed float range"):
        ScheduleTrajectory(make_exponential_schedule(2, 1e100)).reach(10)
    assert calls == [4]


def test_blocks_stop_at_the_first_failing_job(monkeypatch):
    """Blocks at least double past their floor, so a failure at job k is
    found after about max(2k, floor) jobs, never after reading the whole
    count."""
    calls = _count_job_spec_calls(monkeypatch)
    tagged = ScheduleTrajectory(make_exponential_schedule(2, 1.5))
    with pytest.raises(ValueError, match="^schedule clock overflowed at job 1748$"):
        tagged.reach(10**12)
    assert tagged.size == len(tagged.finish) == 1748
    custom = ScheduleTrajectory(custom_plan(2, [(0, 1e308), (1, 1e308)]))
    with pytest.raises(ValueError, match="^schedule clock overflowed at job 1$"):
        custom.reach(10**12)
    assert custom.size == 1 and len(calls) <= 256
    with pytest.raises(ValueError, match="^schedule clock overflowed at job 1$"):
        custom.reach(5)  # the error stays for every later caller


def _recorded_jobs(monkeypatch, plan):
    """The factory plan with its block function wrapped to record each
    (lo, hi) it is asked for."""
    blocks = []
    jobs = plan.generator.jobs

    def recorded(lo, hi):
        blocks.append((lo, hi))
        return jobs(lo, hi)

    monkeypatch.setattr(plan.generator, "jobs", recorded)
    return plan, blocks


@pytest.mark.parametrize("count", [1, 255, 256, 257, 3000, 4096])
def test_a_factory_schedule_up_to_4096_jobs_is_one_block(monkeypatch, count):
    for plan in (make_exponential_schedule(4, 1.01), make_geometric_rr_schedule(3, 1.001),
                 make_pseudo_exponential_schedule(2, 1.01, 3)):
        plan, blocks = _recorded_jobs(monkeypatch, plan)
        trajectory = ScheduleTrajectory(plan)
        trajectory.reach(count)
        assert blocks == [(0, count)] and trajectory.size == count


def test_blocks_past_4096_jobs_double_the_prefix(monkeypatch):
    plan, blocks = _recorded_jobs(monkeypatch, make_exponential_schedule(2, 1.0001))
    trajectory = ScheduleTrajectory(plan)
    trajectory.reach(20000)
    assert blocks == [(0, 4096), (4096, 8192), (8192, 16384), (16384, 20000)]
    plan, blocks = _recorded_jobs(monkeypatch, make_exponential_schedule(2, 1.5))
    with pytest.raises(ValueError, match="^schedule clock overflowed at job 1748$"):
        ScheduleTrajectory(plan).reach(10**12)
    assert blocks == [(0, 4096)]


# The per-index generators of the three factories before they gained a
# block function; the factories' generators must not be slower.
def _closure_exponential(n, b):
    def gen(i):
        return i % n, float(b) ** i
    return gen


def _closure_pseudo(n, b, r):
    def gen(i):
        phase = i // r
        return phase % n, float(b) ** phase
    return gen


def _closure_rr(n, b):
    def gen(i):
        phase = i // n
        return i % n, float(b) ** phase
    return gen


@pytest.mark.parametrize("factory,closure", [
    (make_exponential_schedule(3, 1.7), _closure_exponential(3, 1.7)),
    (make_pseudo_exponential_schedule(3, 1.7, 2), _closure_pseudo(3, 1.7, 2)),
    (make_geometric_rr_schedule(3, 1.7), _closure_rr(3, 1.7)),
], ids=BLOCK_FAMILIES)
def test_factory_generator_per_index_is_no_slower_than_a_closure(factory, closure):
    gen = factory.generator
    assert [gen(i) for i in range(400)] == [closure(i) for i in range(400)]

    def cpu_time(f):
        """CPU time of 10 x 300 calls: time the process spends
        descheduled on a loaded host is not counted."""
        calls = timeit.Timer(lambda: [f(i) for i in range(300)], timer=time.process_time)
        return calls.timeit(number=10)

    # Many short rounds, each timing both sides back to back in alternating
    # order, so a change of host speed hits a round's two sides alike; the
    # median round ignores the rounds it hits in between.
    ratios = []
    for round_ in range(41):
        if round_ % 2:
            old = cpu_time(closure)
            ratios.append(cpu_time(gen) / old)
        else:
            new = cpu_time(gen)
            ratios.append(new / cpu_time(closure))
    # 20% absorbs timer noise.
    assert statistics.median(ratios) <= 1.2
