"""End-to-end tests for the command-line interface."""

import csv
import io
import json
import math
import os
import stat
import subprocess
import sys

import pytest

from raysched import cli
from raysched.cli import console_main
from raysched.numopt import closed_form


def run_cli(capsys, *args):
    code = console_main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def rows_of(out):
    return list(csv.DictReader(io.StringIO(out)))


class TestSearchEval:
    def test_doubling_two_rays(self, capsys):
        code, out, _ = run_cli(
            capsys, "search-eval", "--strategy", "exponential", "--m", "2", "--b", "2"
        )
        assert code == 0
        (row,) = rows_of(out)
        assert float(row["limit_sup"]) == pytest.approx(9.0)
        assert row["cost_model"] == "standard"

    def test_single_sweep_resweep_matches_plain(self, capsys):
        _, out_nm, _ = run_cli(
            capsys, "search-eval", "--strategy", "nm", "--m", "2", "--b", "2", "--r", "1"
        )
        _, out_exp, _ = run_cli(
            capsys, "search-eval", "--strategy", "exponential", "--m", "2", "--b", "2",
            "--r", "1",
        )
        (nm_row,), (exp_row,) = rows_of(out_nm), rows_of(out_exp)
        nm_row.pop("strategy"), exp_row.pop("strategy")
        assert nm_row == exp_row

    def test_default_base_is_optimal(self, capsys):
        code, out, _ = run_cli(capsys, "search-eval", "--m", "4")
        assert code == 0
        (row,) = rows_of(out)
        assert float(row["b"]) == pytest.approx(4.0 / 3.0)

    def test_too_few_rays_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "search-eval", "--m", "1", "--b", "2")
        assert code == 2
        assert "error" in err

    def test_cost_model_mismatch_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "search-eval", "--m", "2", "--cost-model", "expanding"
        )
        assert code == 2
        assert "expanding" in err

    def test_cost_model_mismatch_is_reported_before_the_ray_count(self, capsys):
        # The default base for one ray would fail on the ray count; the
        # cost-model check comes first.
        code, out, err = run_cli(
            capsys, "search-eval", "--m", "1", "--cost-model", "expanding"
        )
        assert (code, out) == (2, "")
        assert err == ("error: strategy 'exponential' uses the standard cost "
                       "model, not expanding\n")


class TestSchedEval:
    def test_doubling_single_problem(self, capsys):
        code, out, _ = run_cli(
            capsys, "sched-eval", "--strategy", "exponential", "--n", "1", "--b", "2"
        )
        assert code == 0
        (row,) = rows_of(out)
        assert float(row["limit_sup"]) == pytest.approx(4.0)

    def test_repeating_schedule_with_repeat_semantics(self, capsys):
        code, out, _ = run_cli(
            capsys, "sched-eval", "--strategy", "pseudo", "--n", "1", "--r", "2",
            "--b", "2", "--semantics", "r-completed",
        )
        assert code == 0
        (row,) = rows_of(out)
        assert float(row["limit_sup"]) == pytest.approx(8.0)

    def test_round_robin_aggregate(self, capsys):
        code, out, _ = run_cli(
            capsys, "sched-eval", "--strategy", "geometric-rr", "--n", "2",
            "--b", "2", "--semantics", "aggregate",
        )
        assert code == 0
        (row,) = rows_of(out)
        assert float(row["finite_sup"]) == pytest.approx(6.0)
        assert float(row["asymptotic"]) == pytest.approx(4.0)

    def test_zero_problems_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "sched-eval", "--n", "0")
        assert code == 2 and "error" in err


class TestProbSearch:
    def test_tuned_default_base(self, capsys):
        code, out, _ = run_cli(capsys, "prob-search", "--m", "2", "--p", "0.5",
                               "--direction", "outward-only")
        assert code == 0
        (row,) = rows_of(out)
        assert float(row["finite_sup"]) <= float(row["upper_bound"])
        assert float(row["finite_sup"]) >= float(row["lower_bound"])
        assert float(row["limit_sup"]) >= float(row["finite_sup"]) - 1e-9

    def test_divergent_base_reports_inf(self, capsys):
        code, out, _ = run_cli(
            capsys, "prob-search", "--m", "2", "--p", "0.3", "--b", "3"
        )
        assert code == 0
        (row,) = rows_of(out)
        assert row["finite_sup"] == "inf"
        assert row["limit_sup"] == ""


class TestRandSched:
    def test_grid_rows_and_reference(self, capsys):
        code, out, _ = run_cli(
            capsys, "rand-sched", "--n", "1", "--b", "2", "--trials", "20000",
            "--seed", "7",
        )
        assert code == 0
        rows = rows_of(out)
        assert len(rows) == 24
        beta = 4.0 * math.log(2.0)
        assert all(float(row["beta_r"]) == pytest.approx(beta) for row in rows)
        sup = max(float(row["ratio"]) for row in rows)
        assert abs(sup - beta) / beta <= 0.02

    def test_a_sum_past_float_range_warns_nothing(self, capsys):
        """The last rows' sums of D pass float range and are taken again
        scaled; the test run turns a RuntimeWarning into an error, so the
        first sum's overflow must not warn."""
        code, out, err = run_cli(
            capsys, "rand-sched", "--n", "633", "--b", "3", "--trials", "5000",
        )
        assert code == 0 and err == ""
        rows = rows_of(out)
        assert len(rows) == 24
        for row in rows:
            assert all(math.isfinite(float(row[name]))
                       for name in ("d_mean", "d_stderr", "ratio"))


class TestOptBase:
    def test_randomized_target(self, capsys):
        code, out, _ = run_cli(capsys, "opt-base", "--target", "beta-r", "--n", "2")
        assert code == 0
        (row,) = rows_of(out)
        assert float(row["value"]) == pytest.approx(3.633, abs=1e-3)

    def test_search_target_measures_the_limit(self, capsys):
        code, out, _ = run_cli(capsys, "opt-base", "--target", "search", "--n", "4")
        assert code == 0
        (row,) = rows_of(out)
        b = 4.0 / 3.0
        assert float(row["b_star"]) == pytest.approx(b)
        assert float(row["value"]) == pytest.approx(1.0 + 2.0 * b**4 / (b - 1.0))

    def test_sched_target(self, capsys):
        code, out, _ = run_cli(capsys, "opt-base", "--target", "sched", "--n", "2")
        assert code == 0
        (row,) = rows_of(out)
        assert float(row["value"]) == pytest.approx(6.75)


class TestTradeoff:
    def test_preemptive_example(self, capsys):
        code, out, _ = run_cli(
            capsys, "tradeoff", "--model", "preemptive", "--n", "2", "--b", "2",
            "--t", "5",
        )
        assert code == 0
        (row,) = rows_of(out)
        assert int(row["count"]) == 4
        assert float(row["bound"]) == pytest.approx(5.61470984, abs=1e-6)
        assert row["holds"] == "true"

    def test_turns_model_and_repeated_times(self, capsys):
        code, out, _ = run_cli(
            capsys, "tradeoff", "--model", "turns", "--m", "2", "--b", "2",
            "--t", "7", "--t", "30",
        )
        assert code == 0
        rows = rows_of(out)
        assert [int(row["count"]) for row in rows] == [3, 4]
        assert all(row["holds"] == "true" for row in rows)

    def test_contracts_model(self, capsys):
        code, out, _ = run_cli(
            capsys, "tradeoff", "--model", "contracts", "--n", "1", "--b", "2",
            "--t", "5",
        )
        assert code == 0
        (row,) = rows_of(out)
        assert int(row["count"]) == 3
        assert float(row["bound"]) == pytest.approx(math.log2(6.0) + 1.0)


# One cheap call per entry of each choice table; the row names the entry.
TABLE_CALLS = (
    [("search-eval", "--strategy", name, "--m", "2", "--horizon", "20")
     for name in cli._SEARCH_STRATEGIES]
    + [("sched-eval", "--strategy", name, "--n", "2", "--horizon", "20")
       for name in cli._SCHED_STRATEGIES]
    + [("sched-eval", "--semantics", name, "--n", "2", "--horizon", "20")
       for name in cli._SEMANTICS]
    + [("prob-search", "--direction", name, "--m", "2", "--p", "0.5", "--horizon", "20")
       for name in cli._DIRECTIONS]
    + [("opt-base", "--target", name, "--n", "2") for name in cli._OPT_TARGETS]
    + [("tradeoff", "--model", name) for name in cli._TRADEOFF_MODELS]
)


@pytest.mark.parametrize("argv", TABLE_CALLS, ids=" ".join)
def test_every_choice_table_entry_dispatches(argv, capsys):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    (row,) = rows_of(out)
    assert row[argv[1][2:]] == argv[2]


class TestCurve:
    def test_header_pinned(self, capsys):
        code, out, _ = run_cli(capsys, "curve-fig1", "--n-max", "3")
        assert code == 0
        assert out.splitlines()[0] == "n,beta_star,beta_r_star,b_star,ratio"
        assert len(rows_of(out)) == 3

    def test_unwritable_destination(self, capsys):
        code, _, err = run_cli(
            capsys, "curve-fig1", "--n-max", "2", "--out", "/nonexistent-dir/x.csv"
        )
        assert code == 2 and "error" in err


# One call per subcommand, as the catalog bench makes them.
OUT_CALLS = {
    "claims": ["claims"],
    "search-eval": ["search-eval", "--strategy", "exponential", "--m", "2", "--b", "2"],
    "sched-eval": ["sched-eval", "--strategy", "geometric-rr", "--n", "2", "--b", "2",
                   "--semantics", "aggregate"],
    "prob-search": ["prob-search", "--m", "2", "--p", "0.3"],
    "rand-sched": ["rand-sched", "--n", "2", "--b", "1.5"],
    "opt-base": ["opt-base", "--target", "beta-r", "--n", "2"],
    "tradeoff": ["tradeoff", "--model", "turns", "--m", "2", "--b", "2", "--t", "100"],
    "curve-fig1": ["curve-fig1", "--n-max", "3"],
}
CURVE = ("curve-fig1", "--n-max", "3")


class TestOut:
    """--out FILE rewrites FILE in place with exactly the bytes the same
    call writes to stdout."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("name", sorted(OUT_CALLS))
    def test_out_file_matches_stdout(self, name, fmt, capsys, tmp_path):
        argv = [*OUT_CALLS[name], "--format", fmt]
        _, out, _ = run_cli(capsys, *argv)
        path = tmp_path / f"{name}.{fmt}"
        code, stdout, err = run_cli(capsys, *argv, "--out", str(path))
        assert (code, stdout, err) == (0, "", "")
        assert path.read_bytes() == out.encode("utf-8")

    def test_rewriting_a_longer_file_leaves_only_the_new_bytes(self, capsys, tmp_path):
        _, out, _ = run_cli(capsys, *CURVE)
        path = tmp_path / "curve.csv"
        path.write_bytes(b"stale line\n" * 1000)
        assert run_cli(capsys, *CURVE, "--out", str(path))[0] == 0
        assert path.read_bytes() == out.encode("utf-8")

    def test_rewrite_keeps_the_inode(self, capsys, tmp_path):
        _, out, _ = run_cli(capsys, *CURVE)
        path, link, alias = tmp_path / "curve.csv", tmp_path / "hard", tmp_path / "sym"
        path.write_bytes(b"old\n" * 100)
        os.link(path, link)
        alias.symlink_to(path)
        inode = path.stat().st_ino
        assert run_cli(capsys, *CURVE, "--out", str(link))[0] == 0
        assert path.stat().st_ino == inode
        assert path.read_bytes() == out.encode("utf-8")
        path.write_bytes(b"old\n" * 100)
        assert run_cli(capsys, *CURVE, "--out", str(alias))[0] == 0
        assert alias.is_symlink() and path.stat().st_ino == inode
        assert link.read_bytes() == out.encode("utf-8")

    def test_dev_null_is_written(self, capsys):
        assert run_cli(capsys, *CURVE, "--out", os.devnull) == (0, "", "")

    def test_directory_is_usage_error(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, *CURVE, "--out", str(tmp_path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("mask", [0o022, 0o077, 0o002], ids=oct)
    def test_new_file_mode_follows_the_umask(self, mask, capsys, tmp_path):
        path = tmp_path / "curve.csv"
        previous = os.umask(mask)
        try:
            code = run_cli(capsys, *CURVE, "--out", str(path))[0]
        finally:
            os.umask(previous)
        assert code == 0
        assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~mask


class TestClaims:
    def test_header_pinned_and_verdict_values(self, capsys):
        code, out, _ = run_cli(
            capsys, "claims", "--subset", "sched-ratio-base", "--trials", "1000"
        )
        assert code == 0
        assert out.splitlines()[0] == "claim_id,paper_value,measured,relation,verdict,gap"
        assert {row["verdict"] for row in rows_of(out)} == {"Holds"}

    def test_strict_fails_on_asserted_violation(self, capsys):
        code, out, _ = run_cli(
            capsys, "claims", "--subset", "fault-search-upper", "--strict",
            "--trials", "1000",
        )
        assert code == 1
        assert all(row["verdict"] == "Violated" for row in rows_of(out))

    def test_strict_ignores_informational_violations(self, capsys):
        code, _, _ = run_cli(
            capsys, "claims", "--subset", "informational", "--strict",
            "--trials", "1000",
        )
        assert code == 0

    def test_bad_selector_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "claims", "--subset", "bogus-prefix")
        assert code == 2
        assert "selects no claims" in err


class TestFormats:
    def test_json_fields_match_csv(self, capsys):
        _, csv_out, _ = run_cli(capsys, "search-eval", "--m", "2", "--b", "2")
        _, json_out, _ = run_cli(
            capsys, "search-eval", "--m", "2", "--b", "2", "--format", "json"
        )
        (csv_row,) = rows_of(csv_out)
        (json_row,) = json.loads(json_out)
        assert list(json_row) == list(csv_row)
        assert json_row["limit_sup"] == pytest.approx(9.0)
        assert json_row["strategy"] == "exponential"

    def test_json_infinity_is_a_string(self, capsys):
        _, out, _ = run_cli(
            capsys, "prob-search", "--m", "2", "--p", "0.3", "--b", "3",
            "--format", "json",
        )
        (row,) = json.loads(out)
        assert row["finite_sup"] == "inf"
        assert row["limit_sup"] is None

    def test_missing_subcommand_is_usage_error(self, capsys):
        assert run_cli(capsys)[0] == 2

    def test_unknown_flag_is_usage_error(self, capsys):
        assert run_cli(capsys, "opt-base", "--target", "beta-r", "--n", "2",
                       "--bogus")[0] == 2


class TestDeterminism:
    def test_seeded_commands_are_byte_identical(self, capsys):
        for args in (
            ("rand-sched", "--n", "1", "--b", "2", "--trials", "3000", "--seed", "5"),
            ("claims", "--subset", "randomized-ratio", "--trials", "3000"),
            ("curve-fig1", "--n-max", "4", "--format", "json"),
        ):
            first = run_cli(capsys, *args)
            second = run_cli(capsys, *args)
            assert first == second


class TestBackToBackCalls:
    """One process builds the parser once; a call leaves nothing behind
    for the next."""

    def test_repeated_flag_starts_empty_on_the_next_call(self, capsys):
        argv = ("tradeoff", "--model", "preemptive", "--n", "2", "--b", "2")
        code, out, _ = run_cli(capsys, *argv, "--t", "1", "--t", "2")
        assert code == 0 and len(rows_of(out)) == 2
        code, out, _ = run_cli(capsys, *argv, "--t", "3")
        assert code == 0 and len(rows_of(out)) == 1

    def test_usage_error_then_a_good_call(self, capsys):
        good = run_cli(capsys, "sched-eval", "--n", "2")
        code, _, err = run_cli(capsys, "sched-eval", "--n", "2", "--bogus")
        assert code == 2 and "unrecognized arguments: --bogus" in err
        assert run_cli(capsys, "sched-eval", "--n", "2") == good
        assert good[0] == 0 and good[2] == ""

    def test_help_then_a_good_call(self, capsys):
        good = run_cli(capsys, "opt-base", "--target", "beta-r", "--n", "2")
        code, out, _ = run_cli(capsys, "opt-base", "--help")
        assert code == 0 and out.startswith("usage: raysched opt-base")
        assert run_cli(capsys, "opt-base", "--target", "beta-r", "--n", "2") == good
        assert good[0] == 0 and good[2] == ""


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "raysched", "search-eval", "--m", "2", "--b", "2"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0
    assert result.stdout.splitlines()[0].startswith("strategy,m,b,")
