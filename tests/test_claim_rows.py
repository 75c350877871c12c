"""The declared claim catalog against its recorded golden, and the
per-run memo of measurements shared by several claims."""

import json
from pathlib import Path

import raysched.claims as claims
from raysched.claims import ClaimConfig, run_claim_catalog
from test_claims import full_catalog  # noqa: F401  (module fixture, reused)

GOLDEN = Path(__file__).parent / "data" / "claims_fast.json"


def _golden_row(check):
    return {
        "claim_id": check.claim_id,
        "paper_value": repr(check.paper_value),
        "measured": repr(check.measured),
        "relation": check.relation.value,
        "tolerance": repr(check.tolerance),
        "holds": check.holds,
        "gap": repr(check.gap),
        "informational": check.informational,
        "params": check.params,
    }


def test_catalog_matches_recorded_golden(full_catalog):  # noqa: F811
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert [_golden_row(check) for check in full_catalog] == golden


def _count_calls(monkeypatch, name):
    calls = []
    original = getattr(claims, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(claims, name, counted)
    return calls


# A short horizon keeps the series sweeps cheap; the call counts do not
# depend on it.
PROB_SEARCH = ClaimConfig(subset="prob-search", horizon=20)


def test_prob_search_pair_shares_its_series_measurements(monkeypatch):
    calls = _count_calls(monkeypatch, "probabilistic_competitive_ratio")
    checks = run_claim_catalog(PROB_SEARCH)
    assert len(checks) == 18
    assert len(calls) == 9


def test_fault_search_pair_shares_its_sweeps(monkeypatch):
    calls = _count_calls(monkeypatch, "competitive_ratio")
    checks = run_claim_catalog(ClaimConfig(subset="fault-search"))
    assert len(checks) == 24
    assert len(calls) == 12


def test_no_measurement_is_carried_between_runs(monkeypatch):
    calls = _count_calls(monkeypatch, "probabilistic_competitive_ratio")
    first = run_claim_catalog(PROB_SEARCH)
    assert len(calls) == 9
    second = run_claim_catalog(PROB_SEARCH)
    assert len(calls) == 18
    assert first == second


def test_sched_ratio_rows_share_the_sweep_at_equal_points(monkeypatch):
    # sched-ratio-optimal at n=1 sweeps base 2.0, as sched-ratio-base
    # does at (1, 2.0).
    calls = _count_calls(monkeypatch, "acceleration_ratio")
    checks = run_claim_catalog(ClaimConfig(subset="sched-ratio"))
    assert len(checks) == 10
    assert len(calls) == 9


def test_pseudo_rows_share_the_pseudo_sweep(monkeypatch):
    # pseudo-vs-exponential reuses pseudo-repeat-ratio's sweep at (1, 2)
    # and adds only its rank-r exponential sweep.
    calls = _count_calls(monkeypatch, "acceleration_ratio")
    checks = run_claim_catalog(ClaimConfig(subset="pseudo-"))
    assert len(checks) == 7
    assert len(calls) == 7


def test_wrappers_on_the_module_see_every_sweep(monkeypatch):
    # A row that captured an evaluator at import would bypass a wrapper
    # set on the module, and perfbench's claims.* counts with it.
    names = ("competitive_ratio", "acceleration_ratio", "probabilistic_competitive_ratio")
    calls = {name: _count_calls(monkeypatch, name) for name in names}
    run_claim_catalog(ClaimConfig(trials=20_000))
    assert {name: len(seen) for name, seen in calls.items()} == {
        "competitive_ratio": 24, "acceleration_ratio": 31,
        "probabilistic_competitive_ratio": 9}


def _sweep_rows(read):
    return {row.claim_id for row in claims._ROWS
            if isinstance(row.measure, claims._Sweep) and row.measure.read == read}


def test_the_declared_sweep_rows_and_the_field_each_reads():
    # limit_sup is the family's closed form attached to the report, so
    # these rows compare a closed form with the printed value; the
    # finite_sup rows compare the sweep's own supremum.
    assert _sweep_rows("limit_sup") == {
        "search-ratio-printed", "search-ratio-base", "sched-ratio-optimal",
        "sched-ratio-base", "nm-search-upper", "pseudo-repeat-ratio",
        "rth-largest-ratio"}
    assert _sweep_rows("finite_sup") == {
        "prob-search-lower", "prob-search-upper", "prob-sched-lower", "prob-sched-upper",
        "rr-worst", "expanding-search-worst"}
