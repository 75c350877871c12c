"""Unit tests for the bracketed numerics and the closed-form catalog."""

import math

import pytest

from raysched import numopt
from raysched.numopt import (
    _TABLE,
    Bracket,
    beta_r_star,
    bisect_root,
    closed_form,
    closed_form_ids,
    family_limits,
    figure1_curve,
    golden_min,
    lemma_root,
)
from raysched.sched_eval import (
    acceleration_ratio,
    aggregate_interruptible,
    longest_completed,
    r_times_completed,
    rth_largest_completed,
)
from raysched.search_eval import competitive_ratio, rth_visit
from raysched.stochastic import (
    DetectionModel,
    DirectionRule,
    probabilistic_competitive_ratio,
    tuned_search_base,
)
from raysched.strategies import (
    make_exponential_schedule,
    make_exponential_search,
    make_geometric_rr_schedule,
    make_geometric_search,
    make_nm_search,
    make_pseudo_exponential_schedule,
)


class TestBracket:
    def test_order_validated(self):
        with pytest.raises(ValueError):
            Bracket(2.0, 1.0)
        with pytest.raises(ValueError):
            Bracket(1.0, 2.0, tol=0.0)


class TestBisect:
    def test_simple_root(self):
        root = bisect_root(lambda x: x * x - 4.0, Bracket(0.0, 3.0))
        assert root == pytest.approx(2.0, abs=1e-11)

    def test_zero_endpoint_shortcut(self):
        assert bisect_root(lambda x: x - 1.0, Bracket(1.0, 2.0)) == 1.0

    def test_no_sign_change_rejected(self):
        with pytest.raises(ValueError, match="sign change"):
            bisect_root(lambda x: x * x + 1.0, Bracket(0.0, 1.0))


class TestGoldenMin:
    def test_parabola(self):
        arg, val = golden_min(
            lambda x: (x - 1.3) ** 2 + 0.7, Bracket(0.0, 3.0, tol=1e-10)
        )
        assert arg == pytest.approx(1.3, abs=1e-8)
        assert val == pytest.approx(0.7, abs=1e-12)


class TestLemmaRoot:
    def test_residual_is_tiny_across_p(self):
        for i in range(1, 11):
            p = i / 10.0
            x = lemma_root(p)
            residual = math.exp(x) * ((1.0 - p) + p * p / (4.0 * x)) - 1.0
            assert 0 < x <= p / 2.0
            assert abs(residual) <= 1e-10

    def test_full_detection_value(self):
        assert lemma_root(1.0) == pytest.approx(0.35740, abs=1e-4)

    def test_p_validated(self):
        with pytest.raises(ValueError):
            lemma_root(0.0)
        with pytest.raises(ValueError):
            lemma_root(1.1)


class TestClosedForms:
    def test_catalog_size_and_ids_sorted(self):
        ids = closed_form_ids()
        assert len(ids) == 23
        assert ids == sorted(ids)

    def test_spot_values(self):
        assert closed_form("search-ratio-printed", m=2) == pytest.approx(7.0)
        assert closed_form("sched-ratio-optimal", n=1) == pytest.approx(4.0)
        assert closed_form("fault-search-upper", m=2, r=1) == pytest.approx(
            2.0 * math.e + 1.0
        )
        assert closed_form("rth-largest-ratio", n=1, r=2) == pytest.approx(6.75)
        assert closed_form("randomized-ratio", n=1, b=2.0) == pytest.approx(
            4.0 * math.log(2.0)
        )
        assert closed_form("randomized-ratio-asymptote", n=80) == pytest.approx(
            81.0 * math.e / (math.e - 1.0)
        )
        assert closed_form("rr-worst", n=2, b=2.0) == pytest.approx(6.0)
        assert closed_form("prob-search-upper", m=2, p=0.5) == pytest.approx(65.0)

    def test_unknown_id_raises(self):
        with pytest.raises(KeyError, match="unknown claim id"):
            closed_form("no-such-claim")


_PRINTED = {key: entry for key, entry in _TABLE.items() if entry.derivation is None}
_DERIVED = {key: entry for key, entry in _TABLE.items() if entry.derivation is not None}


def _visits(r):
    return lambda plan: competitive_ratio(plan, rth_visit(r), 400)


def _detection(p, rule):
    return lambda plan: probabilistic_competitive_ratio(plan, DetectionModel(p, rule), 400)


def _credit(semantics):
    return lambda plan: acceleration_ratio(plan, semantics, 600)


_OUT, _BOTH = DirectionRule.OUTWARD_ONLY, DirectionRule.BOTH_DIRECTIONS

# Two points inside each derived entry's domain: (key, plan, the
# semantics' parameter, the deep sweep of the plan).
_DEEP_SWEEPS = [
    (("exponential", "rth-visit"), make_exponential_search(2, 2.0), 1, _visits(1)),
    (("exponential", "rth-visit"), make_exponential_search(3, 1.5), 2, _visits(2)),
    (("nm", "rth-visit"), make_nm_search(2, 2.0, 3), 2, _visits(2)),
    (("nm", "rth-visit"), make_nm_search(3, 1.5, 2), 2, _visits(2)),
    (("geometric", "rth-visit"), make_geometric_search(2, 2.0), 1, _visits(1)),
    (("geometric", "rth-visit"), make_geometric_search(3, 1.5), 1, _visits(1)),
    (("exponential", "outward-only"), make_exponential_search(2, tuned_search_base(2, 0.5)),
     0.5, _detection(0.5, _OUT)),
    (("exponential", "outward-only"), make_exponential_search(3, 1.2), 0.8,
     _detection(0.8, _OUT)),
    (("exponential", "both-directions"), make_exponential_search(2, tuned_search_base(2, 0.5)),
     0.5, _detection(0.5, _BOTH)),
    (("exponential", "both-directions"), make_exponential_search(3, 1.2), 0.8,
     _detection(0.8, _BOTH)),
    (("exponential", "longest-completed"), make_exponential_schedule(2, 2.0), 1,
     _credit(longest_completed())),
    (("exponential", "longest-completed"), make_exponential_schedule(3, 1.5), 1,
     _credit(longest_completed())),
    (("exponential", "rth-largest-completed"), make_exponential_schedule(2, 2.0), 2,
     _credit(rth_largest_completed(2))),
    (("exponential", "rth-largest-completed"), make_exponential_schedule(1, 1.5), 3,
     _credit(rth_largest_completed(3))),
    (("pseudo", "r-times-completed"), make_pseudo_exponential_schedule(2, 2.0, 3), 2,
     _credit(r_times_completed(2))),
    (("pseudo", "r-times-completed"), make_pseudo_exponential_schedule(3, 1.5, 2), 2,
     _credit(r_times_completed(2))),
    (("geometric-rr", "aggregate-interruptible"), make_geometric_rr_schedule(2, 2.0), 1,
     _credit(aggregate_interruptible())),
    (("geometric-rr", "aggregate-interruptible"), make_geometric_rr_schedule(3, 1.5), 1,
     _credit(aggregate_interruptible())),
]

# The detection series stops at a survival weight of 1e-12, which leaves
# its sweep about 5e-9 below the limit (relative); the other sweeps land
# on their limits to a few ulps.
DEEP_TOL = 1e-8


class TestTable:
    def test_printed_entries_are_the_catalog_ids(self):
        assert closed_form_ids() == sorted(_PRINTED)
        assert all(isinstance(key, str) for key in _PRINTED)
        for kind, semantics in _DERIVED:
            with pytest.raises(KeyError, match="unknown claim id"):
                closed_form((kind, semantics))

    def test_printed_and_derived_entries_share_no_callable(self):
        def code(entries):
            """The code of the entries' formulas and of the numopt
            functions those call."""
            found = set()
            for entry in entries.values():
                for f in filter(None, (entry.formula, entry.asymptote)):
                    called = (getattr(numopt, name, None) for name in f.__code__.co_names)
                    found |= {f.__code__} | {g.__code__ for g in called if hasattr(g, "__code__")}
            return found

        assert not code(_PRINTED) & code(_DERIVED)

    def test_every_derived_entry_has_deep_sweeps(self):
        swept = [case[0] for case in _DEEP_SWEEPS]
        assert set(swept) == set(_DERIVED)
        assert all(swept.count(key) >= 2 for key in _DERIVED)

    @pytest.mark.parametrize(
        "key,plan,x,sweep", _DEEP_SWEEPS,
        ids=[f"{kind}-{semantics}" for (kind, semantics), *_ in _DEEP_SWEEPS],
    )
    def test_derived_entry_agrees_with_a_deep_sweep(self, key, plan, x, sweep):
        size = getattr(plan, "ray_count", None) or plan.problem_count
        value, asymptote = family_limits(plan, key[1], size, x)
        report = sweep(plan)
        assert (report.limit_sup, report.asymptotic) == (value, asymptote)
        if _TABLE[key].asymptote is None:  # rising: the sweep nears the value from below
            assert asymptote == value
            assert value * (1.0 - DEEP_TOL) <= report.finite_sup <= value * (1.0 + 1e-15)
        else:  # first phase: the supremum is the value, the tail nears the asymptote
            assert asymptote < value
            assert report.finite_sup == pytest.approx(value, rel=1e-15)
        assert report.convergence_gap <= DEEP_TOL * asymptote

    @pytest.mark.parametrize(
        "plan,semantics,size,x",
        [
            (make_nm_search(2, 2.0, 2), "rth-visit", 2, 3),
            (make_geometric_search(2, 2.0), "rth-visit", 2, 2),
            (make_pseudo_exponential_schedule(2, 2.0, 2), "r-times-completed", 2, 3),
            (make_exponential_search(2, 2.0), "outward-only", 2, 0.5),
            (make_exponential_search(2, 2.0), "both-directions", 2, 0.75),
            (make_exponential_schedule(2, 2.0), "r-times-completed", 2, 2),
        ],
        ids=["nm-past-traversals", "geometric-second-visit", "pseudo-past-repeats",
             "detection-divergent", "detection-divergent-edge", "no-entry"],
    )
    def test_no_limits_outside_a_domain(self, plan, semantics, size, x):
        assert family_limits(plan, semantics, size, x) is None


class TestBetaRStar:
    def test_single_problem_optimum(self):
        b_star, value = beta_r_star(1)
        assert value == pytest.approx(2.455407, abs=1e-5)
        assert b_star == pytest.approx(3.513, abs=1e-2)
        # Genuine local minimum of the ratio curve.
        for db in (-0.01, 0.01):
            assert closed_form("randomized-ratio", n=1, b=b_star + db) >= value

    def test_two_problem_optimum(self):
        _, value = beta_r_star(2)
        assert value == pytest.approx(3.632080, abs=1e-5)

    def test_n_validated(self):
        with pytest.raises(ValueError):
            beta_r_star(0)


class TestFigureCurve:
    def test_rows_and_ratios(self):
        rows = figure1_curve(5)
        assert len(rows) == 5
        for n, beta_star, value, b_star, ratio in rows:
            assert beta_star == pytest.approx(closed_form("sched-ratio-optimal", n=n))
            assert ratio == pytest.approx(value / beta_star)
            assert b_star > 1.0

    def test_ratio_decreases_with_n(self):
        rows = figure1_curve(8)
        ratios = [row[4] for row in rows]
        assert all(a > b for a, b in zip(ratios, ratios[1:]))
