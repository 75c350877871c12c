"""The randomized schedule's Monte Carlo against two oracles: the
sort-based estimator in reference_mc.py, equal to the last bit, and the
explicit randomized plan walked by ``ell`` with the same draws.  Also
the Monte Carlo seed check."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_mc as ref
from raysched import stochastic
from raysched.sched_eval import ell, longest_completed
from raysched.stochastic import (
    DetectionModel,
    RandomizedScheduleParams,
    mc_randomized_schedule_detail,
    mc_search_cost,
    standard_t_grid,
)
from raysched.strategies import (
    make_exponential_search,
    make_randomized_schedule_explicit,
)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=8),
    b=st.floats(min_value=1.05, max_value=3.0),
    epsilon_grid_size=st.integers(min_value=1, max_value=20),
    trials=st.integers(min_value=1, max_value=3000),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    k_count=st.integers(min_value=1, max_value=6),
    deltas=st.lists(
        st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        min_size=1,
        max_size=3,
    ),
)
def test_rank_slot_equals_the_sorted_permutation(
    n, b, epsilon_grid_size, trials, seed, k_count, deltas
):
    params = RandomizedScheduleParams(
        n=n,
        b=b,
        epsilon_grid_size=epsilon_grid_size,
        t_grid=standard_t_grid(n, b, k_count, tuple(deltas)),
    )
    rows = mc_randomized_schedule_detail(params, trials, seed)
    expected = ref.mc_randomized_schedule_detail(params, trials, seed)
    assert rows == expected
    assert repr(rows) == repr(expected)


@settings(max_examples=100, deadline=None)
@given(
    workers=st.integers(min_value=1, max_value=4),
    chunk=st.integers(min_value=1, max_value=7),
    n=st.integers(min_value=1, max_value=8),
    b=st.floats(min_value=1.05, max_value=3.0),
    epsilon_grid_size=st.integers(min_value=1, max_value=20),
    quads=st.integers(min_value=1, max_value=100),
    rest=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    deltas=st.lists(
        st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        min_size=1,
        max_size=2,
    ),
)
def test_rows_do_not_depend_on_the_slice_count(
    workers, chunk, n, b, epsilon_grid_size, quads, rest, seed, deltas
):
    """Forced to 1-4 threads and to chunks of 1-7 trials, of a trial
    count that is not a multiple of 4, so chunks and the keys' stream at
    draw trials start inside a Philox block, and at n up to 8, so a
    chunk's keys start at a draw that moves with n."""
    trials = 4 * quads + rest
    params = RandomizedScheduleParams(
        n=n,
        b=b,
        epsilon_grid_size=epsilon_grid_size,
        t_grid=standard_t_grid(n, b, 2, tuple(deltas)),
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(stochastic, "_MIN_SLICE", 1)
        patch.setattr(stochastic, "_core_count", lambda: workers)
        # The chunk budget is split among the threads the call uses.
        patch.setattr(stochastic, "_CHUNK", chunk * min(workers, len(params.t_grid)))
        rows = mc_randomized_schedule_detail(params, trials, seed)
    expected = ref.mc_randomized_schedule_detail(params, trials, seed)
    assert repr(rows) == repr(expected)


@pytest.mark.parametrize("n,b", [(1, 2.0), (2, 1.5)])
def test_catalog_points_equal_the_sorted_permutation(n, b):
    params = RandomizedScheduleParams(n=n, b=b, t_grid=standard_t_grid(n, b))
    rows = mc_randomized_schedule_detail(params, 100_000, 0)
    expected = ref.mc_randomized_schedule_detail(params, 100_000, 0)
    assert repr(rows) == repr(expected)


@pytest.mark.parametrize("n,b,seed", [(1, 2.0, 0), (2, 1.5, 3), (5, 1.3, 11)])
def test_explicit_plan_replays_each_trial(n, b, seed):
    """Replay the draws of a 64-trial run.  Trial i's explicit plan,
    with permutation argsort(keys) and offset eps, gives through ell the
    trial's D: b^(last + eps), where last is the latest of the k or k-1
    completed runs that serves the queried problem.  The mean over the
    trials is the row's d_mean."""
    trials = 64
    params = RandomizedScheduleParams(
        n=n, b=b, t_grid=standard_t_grid(n, b, k_count=4, deltas=(0.0, 0.3, 0.7))
    )
    rows = mc_randomized_schedule_detail(params, trials, seed)
    strata = np.arange(trials) % params.epsilon_grid_size
    for idx, ((k, delta), row) in enumerate(zip(params.t_grid, rows)):
        rng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(idx,)))
        )
        eps = (strata + rng.random(trials)) / params.epsilon_grid_size
        perms = np.argsort(rng.random((trials, n)), axis=1)
        t = params.query_time(k, delta)
        lengths = []
        for permutation, offset in zip(perms, eps.tolist()):
            plan = make_randomized_schedule_explicit(n, b, permutation, offset)
            completed = k if b**offset * (b**k - 1.0) / (b - 1.0) <= t else k - 1
            slot = permutation.tolist().index(0)
            last = completed - 1 - (completed - 1 - slot) % n
            lengths.append(ell(plan, 0, t, longest_completed()))
            assert lengths[-1] == b ** (last + offset)
        assert math.fsum(lengths) / trials == pytest.approx(row["d_mean"], rel=1e-12)


def test_search_cost_names_a_negative_seed():
    plan = make_exponential_search(2, 2.0)
    with pytest.raises(ValueError, match=r"seed must be >= 0, got -1"):
        mc_search_cost(plan, DetectionModel(0.5), (0, 1.0), 10, -1)
