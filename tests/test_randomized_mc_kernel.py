"""The randomized schedule's Monte Carlo kernel on its own terms: its
estimates against E[D] in closed form, its memory footprint, and the
running-run index check that guards every trial."""

import re
import tracemalloc

import pytest

import reference_mc as ref
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
