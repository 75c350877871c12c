"""The factories' power blocks against Python's own float power, b ** i:
equal to the last bit (compared by float.hex, where np.power on float
arrays differs for some pairs), cut at the same first overflow, and
handed out by per-index reads as Python floats, never np.float64."""

import math
import sys

from hypothesis import assume, given, settings, strategies as st

from raysched.strategies import (
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
