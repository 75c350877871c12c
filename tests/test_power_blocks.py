"""The factories' power blocks against Python's own float power, b ** i:
equal to the last bit (compared by float.hex, where np.power on float
arrays differs for some pairs), cut at the same first overflow, and
handed out by per-index reads as Python floats, never np.float64.  The
pinned cases call strategies._powers, the one place plan powers are
taken, directly."""

import math
import sys

import pytest
from hypothesis import assume, given, settings, strategies as st

from raysched.core import MAX_TRAJECTORY
from raysched.strategies import (
    _powers,
    make_custom_search,
    make_exponential_schedule,
    make_geometric_rr_schedule,
    make_pseudo_exponential_schedule,
)
from test_block_columns import FAMILIES, _family, _scalar_depths

BASES = st.floats(min_value=1.0, max_value=4.0, exclude_min=True)


def _first_overflow(fb):
    """The least i for which fb ** i raises OverflowError."""
    i = int(math.log(sys.float_info.max) / math.log(fb))
    while True:
        try:
            fb ** i
        except OverflowError:
            i -= 1
            continue
        break
    while True:
        i += 1
        try:
            fb ** i
        except OverflowError:
            return i


def _scalar_powers(fb, lo, hi):
    """b ** i for i in lo..hi-1 by hex, up to the first that raises."""
    out = []
    for i in range(lo, hi):
        try:
            out.append((fb ** i).hex())
        except OverflowError:
            break
    return out


# (base, exponents) where np.power on float arrays rounds b ** i
# differently on at least one x86-64 host with a vectorized power loop;
# the block must still equal b ** i there.
SIMD_MISMATCHES = [(1.3, (7, 45, 50, 56)), (1.5, (34, 41, 54, 81)),
                   (1.05, (14, 29, 51, 70))]


@pytest.mark.parametrize("b, exponents", SIMD_MISMATCHES)
def test_blocks_equal_the_scalar_power_where_vector_loops_differ(b, exponents):
    block = _powers(b, 0, max(exponents) + 1).tolist()
    assert [block[i].hex() for i in exponents] == [(b ** i).hex() for i in exponents]
    assert [x.hex() for x in block] == _scalar_powers(b, 0, max(exponents) + 1)


@pytest.mark.parametrize("b", [1e10, 1e100, 1e300, sys.float_info.max])
def test_blocks_are_cut_at_the_first_overflow(b):
    cut = _first_overflow(b)
    block = _powers(b, 0, cut + 5)
    assert len(block) == cut
    assert [x.hex() for x in block.tolist()] == _scalar_powers(b, 0, cut + 5)
    assert len(_powers(b, cut, cut + 5)) == 0


@pytest.mark.parametrize("b", [1 + 1e-12, 1 + 2**-52, 1.000001])
def test_near_one_blocks_reach_the_trajectory_bound(b):
    lo = MAX_TRAJECTORY - 4096
    block = _powers(b, lo, MAX_TRAJECTORY)
    assert [x.hex() for x in block.tolist()] == _scalar_powers(b, lo, MAX_TRAJECTORY)


def test_an_infinite_base_is_not_cut():
    """inf ** i raises nothing, so its block holds every power."""
    assert _powers(math.inf, 0, 3).tolist() == [1.0, math.inf, math.inf]


def _schedule(family, n, b, r):
    """The factory schedule and the (turn, hold) of its job formula: job i
    runs problem (i // turn) % n for b ** (i // hold)."""
    if family == "exponential":
        return make_exponential_schedule(n, b), 1, 1
    if family == "pseudo":
        return make_pseudo_exponential_schedule(n, b, r), r, r
    return make_geometric_rr_schedule(n, b), 1, n


@settings(max_examples=150, deadline=None)
@given(
    family=st.sampled_from(["exponential", "pseudo", "geometric-rr"]),
    n=st.integers(1, 4),
    r=st.integers(1, 3),
    b=BASES,
    crossing=st.booleans(),
    before=st.integers(0, 3000),
    width=st.integers(1, 3000),
)
def test_job_blocks_equal_the_scalar_power(family, n, r, b, crossing, before, width):
    plan, turn, hold = _schedule(family, n, b, r)
    fb = float(b)
    if crossing:  # a range that ends past the first length out of float range
        cut = _first_overflow(fb) * hold
        assume(cut < 2**50)
        lo, hi = max(cut - before, 0), cut + width
    else:
        lo, hi = before, before + width
    problems, lengths = plan.generator.jobs(lo, hi)
    expected = []
    for i in range(lo, hi):
        try:
            expected.append(((i // turn) % n, (fb ** (i // hold)).hex()))
        except OverflowError:
            break
    assert list(zip(problems.tolist(), (x.hex() for x in lengths.tolist()))) == expected
    if crossing:
        assert lo + len(expected) == cut


@settings(max_examples=100, deadline=None)
@given(
    name=st.sampled_from(FAMILIES),
    m=st.integers(2, 5),
    b=BASES,
    start=st.integers(0, 2500),
)
def test_per_index_reads_hand_out_python_floats(name, m, b, start):
    """Factory plans and their custom twins read one index at a time
    through the memo; every depth is a float equal to the scalar formula,
    and a schedule's per-index length is too."""
    plan = _family(name, m, b)
    twin = make_custom_search(plan.ray_count, plan.generator, plan.cost_model,
                              plan.traversals)
    for i in range(start, start + 200):
        try:
            expected = _scalar_depths(name, m, b, i)
        except OverflowError:
            break
        for read in (plan, twin):
            exc = read.excursion(i)
            depths = (exc.depth_inner, exc.depth_outer)
            assert [type(x) for x in depths] == [float, float]
            assert [x.hex() for x in depths] == [x.hex() for x in expected]
    schedule, _, _ = _schedule("exponential", m, b, 1)
    for i in range(start, start + 200):
        try:
            expected_length = float(b) ** i
        except OverflowError:
            break
        _, length = schedule.job_spec(i)
        assert type(length) is float and length.hex() == expected_length.hex()
