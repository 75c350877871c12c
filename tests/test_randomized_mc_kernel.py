"""The randomized schedule's Monte Carlo kernel on its own terms: its
estimates against E[D] in closed form, the per-point thresholds that
stand in for the finish times, its memory footprint, and the
running-run index check that guards every trial, also when the grid
points run on several threads and their trials in many chunks."""

import math
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


def _finish(b, j, b_eps):
    """Finish time of run j, (b^eps (b^j - 1)) / (b - 1), as the kernel
    computed it before the thresholds."""
    with np.errstate(over="ignore"):
        return np.multiply(b_eps, b**j - 1.0) / (b - 1.0)


def _bisected_threshold(b, j, t):
    """The largest double x >= 0 with finish <= t, by bisection on the
    bit patterns of the doubles from 0 to inf, which sort as integers;
    one case per entry of the lists b, j and t, all bisected at once."""
    scale = np.array([b_**j_ - 1.0 for b_, j_ in zip(b, j)])
    c, t = np.array(b) - 1.0, np.array(t)
    lo = np.zeros(len(t), dtype=np.int64)  # finish(0) = 0 <= t
    hi = np.full(len(t), np.float64(np.inf).view(np.int64) + 1)
    while np.any(hi - lo > 1):
        mid = lo + (hi - lo) // 2
        with np.errstate(over="ignore"):
            ok = mid.view(np.float64) * scale / c <= t
        lo, hi = np.where(ok, mid, lo), np.where(ok, hi, mid)
    return lo.view(np.float64)


def _random_cases(rng, count):
    """count (b, j) pairs: b - 1 log-uniform on [1e-9, 9], j at 1-50, up
    to the float-range edge, or at the edge itself."""
    cases = []
    for _ in range(count):
        b = 1.0 + 10.0 ** rng.uniform(-9.0, math.log10(9.0))
        edge = int(math.log(sys.float_info.max) / math.log(b)) + 1
        while True:  # the largest j with b^j in float range
            try:
                b**edge
                break
            except OverflowError:
                edge -= 1
        j = int(rng.choice([rng.integers(1, 51), rng.integers(1, edge + 1),
                            rng.integers(max(1, edge - 3), edge + 1)]))
        cases.append((b, j))
    return cases


def test_thresholds_match_a_bisection_on_the_bit_patterns():
    """t sits on exact finish times, of x = b^u 2^e, and on their
    neighbours one ulp either side."""
    rng = np.random.default_rng(17)
    bs, js, ts = [], [], []
    for b, j in _random_cases(rng, 700):
        x = b ** rng.uniform() * 2.0 ** rng.integers(-30, 31)
        on = float(_finish(b, j, x))
        for t in (math.nextafter(on, 0.0), on, math.nextafter(on, math.inf)):
            bs.append(b), js.append(j), ts.append(t)
    assert len(ts) >= 2_000
    expected = _bisected_threshold(bs, js, ts)
    got = [stochastic._threshold(b, j, t) for b, j, t in zip(bs, js, ts)]
    assert got == expected.tolist()


def test_thresholds_decide_the_finish_comparison():
    """At the kernel's own query times, b_eps <= x_j gives the old
    finish-time comparison on every b_eps, x_j and the doubles either
    side of it included."""
    rng = np.random.default_rng(23)
    checked = 0
    for b, j in _random_cases(rng, 500):
        k = max(2, j + int(rng.integers(-1, 2)))
        try:
            t = RandomizedScheduleParams(n=1, b=b, t_grid=((k, 0.5),)).query_time(
                k, rng.uniform()
            )
        except ValueError:  # b^(k+1) past float range
            continue
        x = stochastic._threshold(b, j, t)
        b_eps = np.concatenate([
            np.power(b, rng.uniform(size=64)),
            [x, math.nextafter(x, 0.0), math.nextafter(x, math.inf)],
        ])
        assert np.array_equal(b_eps <= x, _finish(b, j, b_eps) <= t), (b, j, t)
        checked += 1
    assert checked >= 300


def _ulps_around(e, count):
    """e and the count doubles either side of it."""
    up = down = e
    near = [e]
    for _ in range(count):
        up, down = math.nextafter(up, math.inf), math.nextafter(down, -math.inf)
        near += [up, down]
    return near


def test_epsilon_decides_as_the_power_does():
    """At the kernel's own query times and thresholds x_j, deciding
    b^eps <= x_j on epsilon gives np.power's answer: at e_j = log_b(x_j),
    within 64 ulps of it, on and just past the band's edges e_j +- w,
    inside the band and at random points of [0, 1).  Near e_j the plain
    eps <= e_j is often wrong, which the band must catch."""
    rng = np.random.default_rng(29)
    checked = wrong_without_band = 0
    for b, j in _random_cases(rng, 300):
        k = max(2, j + int(rng.integers(-1, 2)))
        try:
            t = RandomizedScheduleParams(n=1, b=b, t_grid=((k, 0.5),)).query_time(
                k, rng.uniform()
            )
        except ValueError:  # b^(k+1) or t past float range
            continue
        x = stochastic._threshold(b, j, t)
        e, w = math.log(x) / math.log(b), stochastic._GUARD / math.log(b)
        eps = np.array(
            _ulps_around(e, 64)
            + [edge for sign in (-1, 1) for edge in _ulps_around(e + sign * w, 2)]
            + [e + sign * w * (1.0 + step) for sign in (-1, 1) for step in (-1e-6, 1e-6)]
            + list(e + rng.uniform(-w, w, 32))
            + list(rng.uniform(size=32))
        )
        size = eps.size
        got = stochastic._power_at_most(b, eps, x, np.empty(size, dtype=bool),
                                        np.empty(size), np.empty(size, dtype=bool))
        expected = np.power(b, eps) <= x
        assert np.array_equal(got, expected), (b, j, t)
        wrong_without_band += int(np.count_nonzero((eps <= e) != expected))
        checked += 1
    assert checked >= 200
    assert wrong_without_band >= 1_000


def test_power_is_within_2_to_the_minus_40_of_libm():
    """The band's margin: np.power stays far inside 2^-31 relative of
    b^eps, here against math.pow, on b from 1 + 1e-9 to 10."""
    rng = np.random.default_rng(31)
    b = 1.0 + 10.0 ** rng.uniform(-9.0, math.log10(9.0), 2_000)
    eps = rng.uniform(-2.0, 2.0, 2_000)
    got = np.power(b, eps)
    expected = np.array([math.pow(b_, e_) for b_, e_ in zip(b.tolist(), eps.tolist())])
    assert np.max(np.abs(got - expected) / expected) < 2.0**-40


def test_stderr_past_the_squares_float_range():
    """At n = 632 and b = 3, D reaches 1e299 and its squared deviations
    pass float range.  The standard error is taken on deviations scaled
    by a power of two: finite, and the reference's, which scales by
    another power, to the last bit."""
    params = RandomizedScheduleParams(n=632, b=3.0, t_grid=standard_t_grid(632, 3.0, 2))
    rows = mc_randomized_schedule_detail(params, 1_000, 0)
    assert all(0 < row["d_stderr"] < row["d_mean"] for row in rows)
    assert repr(rows) == repr(ref.mc_randomized_schedule_detail(params, 1_000, 0))


@pytest.mark.parametrize("outlier", [2.0**510, 2.0**520, 2.0**1000])
def test_scaled_deviations_keep_an_in_range_variance(outlier):
    """One large value among 999 ones.  At 2^510 the variance is in
    range but its deviations are scaled, and keep np.std's bits; past
    it the variance overflows and the standard error does not."""
    d = np.ones(1_000)
    d[0] = outlier
    mean, stderr = stochastic._mean_and_stderr(d.copy())
    assert mean == np.mean(d)
    with np.errstate(over="ignore"):
        plain = float(np.std(d, ddof=1) / math.sqrt(d.size))
    if math.isfinite(plain):
        assert stderr == plain
    else:
        assert stderr == pytest.approx(outlier / d.size, rel=1e-3)


def _peak_bytes(call) -> int:
    """tracemalloc's peak over call(); it sees numpy's buffers, from every
    thread."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n,b", CATALOG_POINTS)
def test_one_call_peaks_below_nine_plus_n_vectors(n, b, monkeypatch):
    """Each thread holds one trial-length vector and chunk-sized ones,
    at 1, 2, 4 and 8 cores (at most 4 threads)."""
    trials = 100_000
    params = RandomizedScheduleParams(n=n, b=b, t_grid=standard_t_grid(n, b))
    for cores in (1, 2, 4, 8):
        monkeypatch.setattr(stochastic, "_core_count", lambda: cores)
        peak = _peak_bytes(lambda: mc_randomized_schedule_detail(params, trials, 0))
        assert peak < (9 + n) * 8 * trials, cores


def test_many_keys_per_trial_stay_in_chunks():
    """At n = 50,000 a chunk is one trial: its 50,000 keys, not the
    point's 2,000 x 50,000 (800 MB)."""
    n = 50_000
    params = RandomizedScheduleParams(n=n, b=1.0001, t_grid=((n + 1, 0.5),))
    peak = _peak_bytes(lambda: mc_randomized_schedule_detail(params, 2_000, 0))
    assert peak < 64 * 2**20


def test_key_chunks_keep_the_rows_at_n_300():
    """At n = 300 a chunk holds 109 trials, so 1,000 trials cross nine
    chunk edges."""
    params = RandomizedScheduleParams(n=300, b=1.01, t_grid=standard_t_grid(300, 1.01, 2))
    rows = mc_randomized_schedule_detail(params, 1_000, 4)
    assert repr(rows) == repr(ref.mc_randomized_schedule_detail(params, 1_000, 4))


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
def three_workers(monkeypatch):
    """Deal the grid points of any call of three or more trials to three
    threads, the last two from the pool, whatever the host's core count,
    in chunks of 7 trials: a budget of 21 split three ways."""
    monkeypatch.setattr(stochastic, "_MIN_SLICE", 1)
    monkeypatch.setattr(stochastic, "_core_count", lambda: 3)
    monkeypatch.setattr(stochastic, "_CHUNK", 21)


def _forced(n, b, grid_size, t_grid):
    """Params with a t_grid forced past validation."""
    params = RandomizedScheduleParams(
        n=n, b=b, epsilon_grid_size=grid_size, t_grid=standard_t_grid(n, b)
    )
    object.__setattr__(params, "t_grid", t_grid)
    return params


@pytest.mark.parametrize(
    "delta", [1.25, -0.37], ids=["past-finish-k-plus-1", "before-finish-k-minus-1"]
)
def test_split_run_raises_the_same_check_and_leaves_no_thread(
    delta, monkeypatch, three_workers
):
    """With one stratum per trial, epsilon grows with the trial index.
    Of the 40 trials of point 1, on a pool thread, at delta = 1.25 only
    trials 0-2 leave {k-1, k}, all in the first chunk (0-6); at delta =
    -0.37 only trials 38-39, in the last chunk (35-39).  The other two
    points pass."""
    params = _forced(2, 1.5, 40, ((3, 0.5), (4, delta), (5, 0.5)))
    threads = threading.active_count()
    with pytest.raises(AssertionError) as split:
        mc_randomized_schedule_detail(params, 40, 0)
    assert threading.active_count() == threads
    assert str(split.value) == f"running-run index fell outside {{k-1, k}} at " \
                               f"grid point (k=4, delta={delta})"
    monkeypatch.setattr(stochastic, "_core_count", lambda: 1)
    with pytest.raises(AssertionError) as whole:
        mc_randomized_schedule_detail(params, 40, 0)
    assert str(split.value) == str(whole.value)


def test_the_lowest_failing_point_is_raised(three_workers):
    """Points 1 and 3 fail.  Point 1 runs on a pool thread, point 3 on
    the calling thread after its point 0; point 1's error is raised, as
    one thread running the points in order would raise it."""
    params = _forced(2, 1.5, 40, ((3, 0.5), (4, 1.5), (5, 0.5), (5, 1.5)))
    threads = threading.active_count()
    with pytest.raises(AssertionError, match=re.escape("(k=4, delta=1.5)")):
        mc_randomized_schedule_detail(params, 40, 0)
    assert threading.active_count() == threads


def test_callers_errstate_applies_inside_every_slice(three_workers):
    """At k = 645 and b = 3, every D is finite but the sum of 999 of
    them overflows, at each of the three points.  The
    caller's errstate must reach the pool threads, whose own context is
    numpy's default."""
    params = RandomizedScheduleParams(
        n=2, b=3.0, t_grid=((645, 0.5), (645, 0.25), (645, 0.75))
    )
    callers = set()
    with np.errstate(over="call", call=lambda *_: callers.add(threading.get_ident())):
        mc_randomized_schedule_detail(params, 999, 0)
    assert threading.get_ident() in callers and len(callers) > 1
    threads = threading.active_count()
    with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
        mc_randomized_schedule_detail(params, 999, 0)
    assert threading.active_count() == threads


def test_many_slices_under_a_short_switch_interval(monkeypatch):
    """Four threads on any host, in chunks of 5 trials, with the
    interpreter switching threads every microsecond: threads that wrote
    into one another's vectors, or read a half-written one, would change
    the rows.  The call that returns leaves no thread behind."""
    monkeypatch.setattr(stochastic, "_MIN_SLICE", 1)
    monkeypatch.setattr(stochastic, "_core_count", lambda: 8)
    monkeypatch.setattr(stochastic, "_CHUNK", 20)  # 5 trials on each of 4
    params = RandomizedScheduleParams(n=3, b=1.4, t_grid=standard_t_grid(3, 1.4, 6))
    threads = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        rows = mc_randomized_schedule_detail(params, 1_001, 5)
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == threads
    assert repr(rows) == repr(ref.mc_randomized_schedule_detail(params, 1_001, 5))
