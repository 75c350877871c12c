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
