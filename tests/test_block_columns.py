"""Factory search plans are read in column blocks; every other plan calls
its generator once per index.  The two paths must agree to the last bit,
errors included, and the block path must stay within what its caller
may read."""

import dataclasses
import functools
import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from raysched.core import (
    MEMO_BLOCK,
    CyclicDepths,
    Excursion,
    SearchPlan,
    SearchTrajectory,
)
from raysched import search_eval
from raysched.search_eval import competitive_ratio, cost_to_visit, rth_visit
from raysched.search_eval import visit_cost_stream
from raysched.stochastic import (
    DetectionModel,
    DirectionRule,
    probabilistic_competitive_ratio,
)
from raysched.strategies import (
    make_custom_search,
    make_exponential_search,
    make_geometric_search,
    make_nm_search,
)

HORIZON = 40


def _family(name, m, b):
    if name == "exponential":
        return make_exponential_search(m, b)
    if name == "geometric":
        return make_geometric_search(m, b)
    return make_nm_search(m, b, int(name[-1]))


FAMILIES = ["exponential", "nm-1", "nm-2", "nm-3", "geometric"]


def _prefix(plan, count):
    """The first count excursions as the trajectory's ray, inner, outer,
    cost and cum columns, with competitive_ratio's overflow advice."""
    trajectory = SearchTrajectory(plan, hint=True)
    trajectory.reach(count)
    columns = (trajectory.ray, trajectory.inner, trajectory.outer, trajectory.cost,
               trajectory.cum)
    return [column[:count].tolist() for column in columns]


def _edge_bases(name, m, count):
    """The two bases around the float-range edge of a count-excursion
    prefix, bisected on the per-index path: the prefix just fits at the
    first and no longer fits at the second."""
    lo, hi = 1.01, 1e300
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if mid in (lo, hi):
            break
        try:
            _prefix(_per_index(_family(name, m, mid)), count)
            lo = mid
        except ValueError:
            hi = mid
    return lo, hi


def _per_index(plan):
    """The plan with its tag kept and its generator swapped for a plain
    function, which the trajectory calls once per index."""
    return dataclasses.replace(plan, generator=lambda i: plan.generator(i))


def _custom(plan):
    return make_custom_search(plan.ray_count, plan.generator, plan.cost_model,
                              plan.traversals)


def _outcome(call, fields=None):
    try:
        result = call()
    except ValueError as err:
        return "error: " + str(err)
    if fields is None:
        return result
    return tuple(getattr(result, name) for name in fields)


def _cases():
    for name in FAMILIES:
        for m in (2, 3):
            edge = _edge_bases(name, m, HORIZON + 3 * m)
            for b in (1.3, 2.0, *edge, 1e200):
                yield name, m, b


CASES = list(_cases())


@pytest.mark.parametrize("name,m,b", CASES)
def test_block_and_per_index_paths_agree(name, m, b):
    plan = _family(name, m, b)
    assert isinstance(plan.generator, CyclicDepths)
    twins = (_per_index(plan), _custom(plan))
    sup_witness = ("finite_sup", "witness")

    def agree(run, fields=None, custom=True):
        expected = _outcome(lambda: run(plan))
        assert _outcome(lambda: run(twins[0])) == expected
        if custom:
            if fields is not None and not isinstance(expected, str):
                expected = tuple(getattr(expected, name) for name in fields)
            assert _outcome(lambda: run(twins[1]), fields) == expected

    for r in (1, 2, 3):
        agree(lambda q: competitive_ratio(q, rth_visit(r), HORIZON), sup_witness)
    for p, rule in itertools.product((0.6, 1.0), DirectionRule):
        model = DetectionModel(p, rule)
        tagged = _outcome(lambda: probabilistic_competitive_ratio(plan, model, HORIZON))
        # A tag the divergence test fires on is never swept, and the
        # custom twin has no tag to test.
        swept = isinstance(tagged, str) or tagged.witness is not None
        agree(lambda q: probabilistic_competitive_ratio(q, model, HORIZON),
              sup_witness, custom=swept)
    for start in (0, 5, HORIZON):
        for ray, point in ((0, 1.5), (m - 1, 40.0)):
            agree(lambda q: list(itertools.islice(visit_cost_stream(
                q, ray, point, beyond=True, start=start, max_excursions=400), 8)))
            agree(lambda q: list(itertools.islice(visit_cost_stream(
                q, ray, point, outward_only=True, start=start,
                max_excursions=HORIZON), 8)))
    for k in (1, 2, 3):
        agree(lambda q: cost_to_visit(q, (1, 3.0), k, max_excursions=HORIZON))
    agree(lambda q: _prefix(q, HORIZON + 3 * m))


def _scalar_depths(name, m, b, i):
    """Excursion i's (inner, outer) by the scalar per-index depth
    formulas, the reference for the block functions."""
    if name == "exponential":
        return 0.0, float(b) ** i
    if name == "geometric":
        p = i // m
        return (float(b) ** p - 1.0) / (b - 1.0), (float(b) ** (p + 1) - 1.0) / (b - 1.0)
    return (float(b) ** (i - m) if i >= m else 0.0), float(b) ** i


@pytest.mark.parametrize("name", ["exponential", "nm-2", "geometric"])
def test_block_depths_equal_the_scalar_formulas(name):
    """To the last bit, where np.power would differ for some pairs, and
    cut exactly where the scalar power overflows."""
    for b in (1.0000001, 1.3, 1.5, 2.0 ** 0.5, 2.5, 10.0, 1e100):
        plan = _family(name, 3, b)
        inner, outer = plan.generator.depths(0, 3000)
        expected = []
        for i in range(3000):
            try:
                expected.append(_scalar_depths(name, 3, b, i))
            except OverflowError:
                break
        assert list(zip(inner, outer)) == expected
        assert list(zip(*plan.generator.depths(17, 40))) == expected[17:40]


def test_edge_bases_straddle_the_range():
    inside, past = _edge_bases("exponential", 2, HORIZON + 6)
    assert len(_prefix(make_exponential_search(2, inside), HORIZON + 6)[0]) == 46
    with pytest.raises(ValueError, match="overflow"):
        _prefix(make_exponential_search(2, past), HORIZON + 6)


def _recorded(plan):
    """The factory plan with its block function wrapped to record each
    (lo, hi) it is asked for; the tag and the block path stay."""
    blocks = []
    generator = plan.generator

    def depths(lo, hi):
        blocks.append((lo, hi))
        return generator.depths(lo, hi)

    return dataclasses.replace(plan, generator=CyclicDepths(generator.m, depths)), blocks


@pytest.fixture
def per_index_calls(monkeypatch):
    calls = []
    for owner, name in ((CyclicDepths, "__call__"), (SearchPlan, "excursion")):
        original = getattr(owner, name)

        def counted(self, i, original=original):
            calls.append(i)
            return original(self, i)

        monkeypatch.setattr(owner, name, counted)
    return calls


def test_sweeps_of_factory_plans_make_no_per_index_call(per_index_calls):
    for plan in (make_exponential_search(3, 1.4), make_nm_search(2, 1.5, 2),
                 make_geometric_search(2, 1.5)):
        for r in (1, 2, 3):
            competitive_ratio(plan, rth_visit(r), 300)
        for rule in DirectionRule:
            probabilistic_competitive_ratio(plan, DetectionModel(1.0, rule), 300)
        probabilistic_competitive_ratio(plan, DetectionModel(0.9), 300)
    assert per_index_calls == []


def test_blocks_stay_within_twice_the_count_and_the_bound():
    plan, blocks = _recorded(make_exponential_search(2, 1.2))
    trajectory = SearchTrajectory(plan)
    for count, bound in ((1, 0), (2, 100), (3, 100), (5, 100), (6, 7), (40, 50),
                         (41, 50), (45, 50), (51, 1000)):
        blocks.clear()
        trajectory.reach(count, bound)
        assert all(hi <= 2 * count and hi <= max(count, bound) for _, hi in blocks)
        assert count <= trajectory.size <= max(2 * count, bound)
    assert trajectory.size == 100

    plan, blocks = _recorded(make_exponential_search(2, 1.2))
    assert math.isinf(cost_to_visit(plan, (0, 1e6), 1, max_excursions=30))
    assert max(hi for _, hi in blocks) == 30


def test_series_sweep_reads_no_further_than_the_stream_limit(monkeypatch):
    monkeypatch.setattr(search_eval, "_STREAM_EXCURSIONS", 7)
    plan, blocks = _recorded(make_exponential_search(2, 1.2))
    probabilistic_competitive_ratio(plan, DetectionModel(0.5), 4)
    assert max(hi for _, hi in blocks) == 4 + 7


def test_overflow_past_the_count_waits_for_a_caller_that_needs_it():
    plan = make_exponential_search(2, 2.0)  # the cost passes 2.0**1023 near 1022
    trajectory = SearchTrajectory(plan)
    trajectory.reach(1000)
    trajectory.reach(1001, 5000)
    failing = trajectory.size
    assert 1001 < failing < 2000
    trajectory.reach(failing)
    with pytest.raises(ValueError) as first:
        trajectory.reach(failing + 1)
    assert str(first.value) == f"cumulative cost overflowed at excursion {failing}"
    with pytest.raises(ValueError) as again:
        trajectory.reach(2000, 5000)
    assert again.value is first.value
    with pytest.raises(ValueError, match=f"^{first.value}; reduce the horizon"):
        _prefix(_per_index(plan), failing + 1)


def test_generator_overflow_keeps_its_index_and_message():
    plan = make_geometric_search(2, 1e200)  # phase 1 extends to 1e400
    trajectory = SearchTrajectory(plan, hint=True)
    trajectory.reach(2)
    message = ("^excursion 2 overflowed float range; reduce the horizon or the "
               "growth base$")
    for _ in range(2):
        with pytest.raises(ValueError, match=message):
            trajectory.reach(3)
    assert trajectory.size == 2
    with pytest.raises(ValueError, match=message):
        plan.excursion(2)


def test_block_checks_keep_the_excursion_messages():
    def depths(lo, hi):
        outer = [float(2**i) for i in range(lo, hi)]
        return [8.0 if i == 3 else 0.0 for i in range(lo, hi)], outer

    plan = SearchPlan(ray_count=2, generator=CyclicDepths(2, depths),
                      tag=make_exponential_search(2, 2.0).tag)
    message = r"^need 0 <= depth_inner < depth_outer, got \(8.0, 8.0\)$"
    with pytest.raises(ValueError, match=message):
        _prefix(plan, 5)
    with pytest.raises(ValueError, match=message):
        _prefix(_per_index(plan), 5)
    narrowed = dataclasses.replace(make_exponential_search(3, 2.0), ray_count=2)
    message = "^excursion 2 targets ray 2 but plan has 2 rays$"
    for twin in (narrowed, _per_index(narrowed)):
        with pytest.raises(ValueError, match=message):
            _prefix(twin, 3)


# Indices on either side of the memo's block edges.
_MEMO_EDGES = [0, 1, 62, 63, 64, 65, 66, 127, 128, 129, 191, 192, 193]


@functools.lru_cache(maxsize=None)
def _memo_bases(name, m):
    """Ordinary bases, the two around the edge of a 100-excursion prefix
    (the depth cut falls between the first two block edges) and one that
    overflows at the third excursion or so."""
    return (1.0000001, 1.3, 2.0, *_edge_bases(name, m, 100), 1e200)


def _fresh_read(name, m, b, i):
    """Excursion i's repr by a block of one on a generator that has read
    nothing, or the message of its OverflowError."""
    inner, outer = _family(name, m, b).generator.depths(i, i + 1)
    if not outer:
        return f"OverflowError: depth of excursion {i} is out of float range"
    return repr(Excursion(ray=i % m, depth_inner=inner[0], depth_outer=outer[0]))


def _read(generator, i):
    try:
        return repr(generator(i))
    except OverflowError as err:
        return f"OverflowError: {err}"


@settings(max_examples=150, deadline=None)
@given(
    name=st.sampled_from(FAMILIES),
    m=st.integers(min_value=2, max_value=5),
    base=st.integers(min_value=0, max_value=5),
    indices=st.lists(st.integers(min_value=0, max_value=200) | st.sampled_from(_MEMO_EDGES),
                     min_size=1, max_size=40),
    order=st.sampled_from(["ascending", "descending", "random", "repeated"]),
)
def test_memoized_reads_equal_a_fresh_block_of_one(name, m, base, indices, order):
    """A generator read at one index after another returns what a fresh
    one returns for that index alone, overflow included, and its memo
    changes neither the plan's equality, its hash, nor a replaced copy."""
    b = _memo_bases(name, m)[base]
    plan = _family(name, m, b)
    generator = plan.generator
    if order == "ascending":
        indices = sorted(indices)
    elif order == "descending":
        indices = sorted(indices, reverse=True)
    elif order == "repeated":
        indices = [i for i in indices for _ in range(3)]
    before = hash(plan), repr(plan), hash(generator)
    copy = dataclasses.replace(generator)
    for i in indices:
        assert _read(generator, i) == _fresh_read(name, m, b, i)
    assert (hash(plan), repr(plan), hash(generator)) == before
    assert plan == plan and plan == dataclasses.replace(plan)
    replaced = dataclasses.replace(generator)
    assert generator == copy == replaced and hash(replaced) == hash(generator)
    for i in reversed(indices):
        assert _read(replaced, i) == _read(copy, i) == _fresh_read(name, m, b, i)


@pytest.mark.parametrize("factory", [
    lambda: make_exponential_search(3, 1.4),
    lambda: make_nm_search(2, 1.5, 3),
    lambda: make_geometric_search(4, 1.2),
], ids=["exponential", "nm", "geometric"])
def test_custom_twins_read_one_depth_block_per_memo_block(factory):
    """A work guard, not a timing: the twin still reads each excursion
    once, in order, through its generator, and those reads cost at most
    one depth block per MEMO_BLOCK excursions."""
    plan, blocks = _recorded(factory())
    reads = []

    def generator(i):
        reads.append(i)
        return plan.generator(i)

    twin = make_custom_search(plan.ray_count, generator, plan.cost_model, plan.traversals)
    for r in (1, 2, 3):
        blocks.clear()
        reads.clear()
        competitive_ratio(twin, rth_visit(r), 300)
        furthest = max(reads)
        assert reads == list(range(furthest + 1))
        assert len(blocks) <= math.ceil(furthest / MEMO_BLOCK) + 1
        assert all(hi - lo == MEMO_BLOCK for lo, hi in blocks)
