"""The randomized schedule's Monte Carlo kernel on its own terms: its
estimates against E[D] in closed form, its memory footprint, and the
running-run index check that guards every trial, also when the trials
are cut into slices that run on several threads."""

import concurrent.futures
import itertools
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import reference_mc as ref
from raysched import stochastic
from raysched.stochastic import (
    RandomizedScheduleParams,
    mc_randomized_schedule_detail,
    standard_t_grid,
)

CATALOG_POINTS = [(1, 2.0), (2, 1.5), (5, 1.3)]


@pytest.mark.parametrize("n,b", CATALOG_POINTS)
def test_d_mean_is_within_five_stderr_of_the_exact_value(n, b):
    params = RandomizedScheduleParams(n=n, b=b, t_grid=standard_t_grid(n, b))
    for row in mc_randomized_schedule_detail(params, 100_000, 0):
        exact = ref.exact_d_mean(n, b, row["k"], row["delta"])
        assert abs(row["d_mean"] - exact) < 5 * row["d_stderr"], row


@pytest.mark.parametrize("n,b", CATALOG_POINTS)
def test_one_call_peaks_below_nine_plus_n_vectors(n, b):
    """A call allocates its work vectors once; every grid point refills
    them.  tracemalloc sees numpy's buffers, so the peak counts them."""
    trials = 100_000
    params = RandomizedScheduleParams(n=n, b=b, t_grid=standard_t_grid(n, b))
    tracemalloc.start()
    try:
        mc_randomized_schedule_detail(params, trials, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (9 + n) * 8 * trials


@pytest.mark.parametrize(
    "delta", [1.5, -0.5], ids=["past-finish-k-plus-1", "before-finish-k-minus-1"]
)
def test_running_run_index_check_survives(delta):
    """A grid point forced past validation puts some trials' running run
    outside {k-1, k}: at delta = 1.5 some have finished run k+1, at
    delta = -0.5 some have not finished run k-1.  The kernel raises."""
    params = RandomizedScheduleParams(n=2, b=1.5, t_grid=standard_t_grid(2, 1.5))
    object.__setattr__(params, "t_grid", ((4, delta),))
    with pytest.raises(
        AssertionError, match=re.escape("running-run index fell outside {k-1, k}")
    ):
        mc_randomized_schedule_detail(params, 1_000, 0)


@pytest.fixture
def three_slices(monkeypatch):
    """Cut every call of more than two trials into three slices, the
    last two on pool threads, whatever the host's core count."""
    monkeypatch.setattr(stochastic, "_MIN_SLICE", 1)
    monkeypatch.setattr(stochastic, "_core_count", lambda: 3)


@pytest.mark.parametrize(
    "delta", [1.5, -0.5], ids=["past-finish-k-plus-1", "before-finish-k-minus-1"]
)
def test_split_run_raises_the_same_check_and_leaves_no_thread(
    delta, monkeypatch, three_slices
):
    """With one stratum per trial, epsilon grows with the trial index:
    at delta = 1.5 only trials of the first slice (0-304 of 999) leave
    {k-1, k}, at delta = -0.5 only trials of the last (823-998)."""
    params = RandomizedScheduleParams(
        n=2, b=1.5, epsilon_grid_size=999, t_grid=standard_t_grid(2, 1.5)
    )
    object.__setattr__(params, "t_grid", ((4, delta),))
    threads = threading.active_count()
    with pytest.raises(AssertionError) as split:
        mc_randomized_schedule_detail(params, 999, 0)
    assert threading.active_count() == threads
    monkeypatch.setattr(stochastic, "_core_count", lambda: 1)
    with pytest.raises(AssertionError) as whole:
        mc_randomized_schedule_detail(params, 999, 0)
    assert str(split.value) == str(whole.value)


def test_callers_errstate_applies_inside_every_slice(three_slices):
    """At k = 645 and b = 3, b^(k+1) is finite but b^eps (b^(k+1) - 1)
    overflows for most epsilons, in every slice.  The caller's errstate
    must reach the pool threads, whose own context is numpy's default."""
    params = RandomizedScheduleParams(n=2, b=3.0, t_grid=((645, 0.5),))
    callers = set()
    with np.errstate(over="call", call=lambda *_: callers.add(threading.get_ident())):
        mc_randomized_schedule_detail(params, 999, 0)
    assert threading.get_ident() in callers and len(callers) > 1
    threads = threading.active_count()
    with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
        mc_randomized_schedule_detail(params, 999, 0)
    assert threading.active_count() == threads


def test_many_slices_under_a_short_switch_interval(monkeypatch):
    """Eight slices on any host, with the interpreter switching threads
    every microsecond: slices that wrote into one another's part of the
    shared vectors, or read a half-written part, would change the rows.
    The call that returns leaves no thread behind."""
    monkeypatch.setattr(stochastic, "_MIN_SLICE", 1)
    monkeypatch.setattr(stochastic, "_core_count", lambda: 8)
    params = RandomizedScheduleParams(n=3, b=1.4, t_grid=standard_t_grid(3, 1.4, 6))
    threads = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        rows = mc_randomized_schedule_detail(params, 4_001, 5)
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == threads
    assert repr(rows) == repr(ref.mc_randomized_schedule_detail(params, 4_001, 5))


@pytest.mark.parametrize(
    "clock,split_points",
    [(itertools.count, 6), (lambda: (2.0**i for i in itertools.count()), 1)],
    ids=["slices-keep-up", "slices-fall-behind"],
)
def test_a_split_slower_than_one_thread_ends_the_split(clock, split_points, monkeypatch):
    """The calling thread's clock is faked.  Ticks 0, 1, 2 per point: the
    point took 2, no more than 2 slices of 1, so every point splits.
    Ticks 1, 2, 4: it took 3, more than 2 slices of 1, so only the first
    point splits.  The rows do not change."""
    monkeypatch.setattr(stochastic, "_MIN_SLICE", 1)
    monkeypatch.setattr(stochastic, "_core_count", lambda: 2)
    ticks = clock()
    monkeypatch.setattr(stochastic, "perf_counter", lambda: next(ticks))
    submitted = []

    class Pool(concurrent.futures.ThreadPoolExecutor):
        def submit(self, *args):
            submitted.append(args)
            return super().submit(*args)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Pool)
    params = RandomizedScheduleParams(n=2, b=1.5, t_grid=standard_t_grid(2, 1.5, 3))
    rows = mc_randomized_schedule_detail(params, 1_001, 7)
    assert len(submitted) == split_points
    assert repr(rows) == repr(ref.mc_randomized_schedule_detail(params, 1_001, 7))
