import csv
import json
import subprocess
import sys

import numpy as np
import pytest

from qpdiff import QpProblem, store_problem
from qpdiff import cli
from qpdiff.bench import run_bench
from qpdiff.cli import main

from helpers import child_env, count_matrix_builds


@pytest.fixture
def one_dee_file(tmp_path):
    path = tmp_path / "one_dee.json"
    store_problem(QpProblem([[1.0]], [0.0], C=[[1.0]], d=[-1.0]), path)
    return str(path)


class TestSolveCommand:
    def test_prints_solution(self, one_dee_file, capsys):
        rc = main(["solve", one_dee_file])
        out, err = capsys.readouterr()
        assert rc == 0
        assert err == ""
        assert "status: solved" in out
        assert "[-1.]" in out
        assert "active set J = [0]" in out

    def test_json_record_schema(self, one_dee_file, capsys):
        rc = main(["solve", one_dee_file, "--json"])
        out, _ = capsys.readouterr()
        assert rc == 0
        record = json.loads(out)
        for key in (
            "problem", "backend", "status", "n", "p", "m", "z", "lambda", "mu",
            "active_set", "eps_active", "residuals", "diagnosis",
            "factorization_mode", "timing_ms",
        ):
            assert key in record
        assert record["status"] == "solved"
        np.testing.assert_allclose(record["z"], [-1.0], atol=1e-9)
        np.testing.assert_allclose(record["mu"], [1.0], atol=1e-9)
        assert record["active_set"] == [0]
        assert set(record["residuals"]) == {"r_p", "r_d", "r_g"}

    def test_unknown_backend_exit_three(self, one_dee_file, capsys):
        rc = main(["solve", one_dee_file, "--solver", "nonexistent"])
        _, err = capsys.readouterr()
        assert rc == 3
        assert "nonexistent" in err

    def test_missing_file_exit_two(self, capsys):
        rc = main(["solve", "/nonexistent/path.json"])
        assert rc == 2

    def test_malformed_file_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        rc = main(["solve", str(bad)])
        assert rc == 2

    def test_singular_equality_exit_four(self, tmp_path, capsys):
        prob = QpProblem(
            np.eye(2), np.zeros(2),
            A=[[1.0, 1.0], [1.0, 1.0]], b=[1.0, 2.0],
        )
        path = tmp_path / "singular.json"
        store_problem(prob, path)
        rc = main(["solve", str(path), "--solver", "equality"])
        assert rc == 4

    def test_nan_eps_active_exit_two(self, one_dee_file, capsys):
        rc = main(["solve", one_dee_file, "--eps-active", "nan"])
        _, err = capsys.readouterr()
        assert rc == 2
        assert "eps_active" in err

    @pytest.mark.parametrize("key", ["q", "d"])
    def test_nan_entry_exit_two(self, tmp_path, capsys, key):
        path = tmp_path / "nan.json"
        store_problem(QpProblem([[1.0]], [0.0], C=[[1.0]], d=[5.0]), path)
        obj = json.loads(path.read_text())
        obj[key] = [float("nan")]
        path.write_text(json.dumps(obj))
        rc = main(["solve", str(path), "--solver", "equality"])
        _, err = capsys.readouterr()
        assert rc == 2
        assert f"'{key}'" in err

    def test_infinite_entry_of_P_equality_exit_three(self, tmp_path, capsys):
        # the load accepts it; bad data is a failed solve (3), not singular (4)
        path = tmp_path / "inf_p.json"
        store_problem(QpProblem([[np.inf, 0.0], [0.0, 1.0]], [1.0, 1.0], A=[[1.0, 1.0]],
                                b=[1.0], C=[[1.0, 0.0]], d=[5.0]), path)
        rc = main(["solve", str(path), "--solver", "equality"])
        assert rc == 3

    @pytest.mark.parametrize("solver", [[], ["--solver", "admm"]], ids=["default", "admm"])
    def test_infinite_bound(self, tmp_path, capsys, solver):
        path = tmp_path / "inf.json"
        store_problem(
            QpProblem(np.eye(2), [-2.0, -2.0], C=np.eye(2), d=[np.inf, 1.0]), path
        )
        rc = main(["solve", str(path), *solver])
        out, _ = capsys.readouterr()
        assert rc == 0
        assert "r_g=0.000e+00" in out

    def test_failed_backend_exit_three(self, one_dee_file, capsys):
        rc = main(["solve", one_dee_file, "--solver", "equality"])
        assert rc == 3

    def test_out_file(self, one_dee_file, tmp_path, capsys):
        out_path = tmp_path / "record.json"
        rc = main(["solve", one_dee_file, "--out", str(out_path)])
        assert rc == 0
        record = json.loads(out_path.read_text())
        assert record["status"] == "solved"

    def test_normalize_and_refine_flags(self, one_dee_file, capsys):
        rc = main(["solve", one_dee_file, "--normalize", "--json"])
        out, _ = capsys.readouterr()
        assert rc == 0
        record = json.loads(out)
        assert record["active_set"] == [0]
        np.testing.assert_allclose(record["mu"], [1.0], atol=1e-9)
        # crossover runs by itself when J is not certified; the flag is gone
        for command in (["solve", one_dee_file], ["bench", "--suite", "simplex"]):
            with pytest.raises(SystemExit) as exc:
                main([*command, "--refine-active-set"])
            assert exc.value.code == 2

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_eps_abs_exit_two(self, one_dee_file, capsys, value):
        rc = main(["solve", one_dee_file, "--eps-abs", value])
        _, err = capsys.readouterr()
        assert rc == 2
        assert "eps_abs" in err

    @pytest.mark.parametrize("value", ["nan", "0", "-1"])
    def test_time_limit_not_positive_exit_two(self, one_dee_file, capsys, value):
        # unchecked, NaN would mean no limit and -1 would end with max_iter (exit 3)
        rc = main(["solve", one_dee_file, "--time-limit", value])
        _, err = capsys.readouterr()
        assert rc == 2
        assert "time_limit" in err

    def test_directory_exit_two(self, tmp_path, capsys):
        rc = main(["solve", str(tmp_path)])
        _, err = capsys.readouterr()
        assert rc == 2
        assert err.startswith("error: ")


class TestBenchCommand:
    def read_rows(self, path):
        with open(path) as fh:
            return list(csv.DictReader(fh))

    def test_row_count_and_schema(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        rc = main([
            "bench", "--suite", "simplex", "--sizes", "20,40", "--seeds", "2",
            "--solver", "active_set,admm", "--out", str(out),
        ])
        assert rc == 0
        rows = self.read_rows(out)
        assert len(rows) == 8  # 2 sizes x 2 seeds x 2 backends
        expected_cols = [
            "problem_id", "n", "p", "m", "backend", "status", "forward_ms",
            "backward_ms", "total_ms", "r_p", "r_d", "r_g", "active_size",
            "fact_mode", "bwd_frac",
        ]
        assert list(rows[0].keys()) == expected_cols
        for row in rows:
            assert row["status"] == "solved"
            assert float(row["r_g"]) <= 1e-6
            assert 0.0 <= float(row["bwd_frac"]) <= 1.0
            total = float(row["forward_ms"]) + float(row["backward_ms"])
            assert abs(total - float(row["total_ms"])) < 1e-6

    def test_twenty_row_bookkeeping(self, tmp_path, capsys):
        out = tmp_path / "bench20.csv"
        rc = main([
            "bench", "--suite", "simplex", "--sizes", "20,50", "--seeds", "5",
            "--solver", "active_set,admm", "--out", str(out),
        ])
        assert rc == 0
        rows = self.read_rows(out)
        assert len(rows) == 20
        text, _ = capsys.readouterr()
        assert "simplex-20" in text and "simplex-50" in text  # summary groups

    def test_non_timing_columns_deterministic(self, tmp_path, capsys):
        timing = {"forward_ms", "backward_ms", "total_ms", "bwd_frac"}
        snapshots = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            main([
                "bench", "--suite", "random-dense", "--sizes", "10",
                "--seeds", "2", "--solver", "active_set", "--out", str(out),
            ])
            rows = self.read_rows(out)
            snapshots.append(
                [{k: v for k, v in row.items() if k not in timing} for row in rows]
            )
        assert snapshots[0] == snapshots[1]

    def test_backward_time_covers_the_matrix_blocks(self, monkeypatch):
        builds = count_matrix_builds(monkeypatch)
        records = run_bench("simplex", sizes=[20], seeds=[0, 1],
                            backends=["active_set", "admm"])
        assert [r.status for r in records] == ["solved"] * 4
        assert all(r.p > 0 and r.m > 0 for r in records)
        # grad_P, grad_A and grad_C are each built once per record
        assert builds == [
            shape for r in records for shape in ((r.n, r.n), (r.p, r.n), (r.m, r.n))
        ]

    def test_failures_recorded_as_status_rows(self, tmp_path, capsys):
        # the equality backend fails whenever a bound binds; run continues
        out = tmp_path / "bench.csv"
        rc = main([
            "bench", "--suite", "simplex", "--sizes", "10", "--seeds", "3",
            "--solver", "equality,active_set", "--out", str(out),
        ])
        assert rc == 0
        rows = self.read_rows(out)
        assert len(rows) == 6
        by_backend = {}
        for row in rows:
            by_backend.setdefault(row["backend"], []).append(row["status"])
        assert all(s == "solved" for s in by_backend["active_set"])
        assert any(s == "failed" for s in by_backend["equality"])

    def test_summary_printed(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        main([
            "bench", "--suite", "simplex", "--sizes", "30", "--seeds", "2",
            "--solver", "admm", "--out", str(out),
        ])
        text, err = capsys.readouterr()
        assert err == ""
        assert "bwd/total" in text

    def test_json_summary(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        main([
            "bench", "--suite", "simplex", "--sizes", "30", "--seeds", "2",
            "--solver", "admm", "--out", str(out), "--json",
        ])
        text, _ = capsys.readouterr()
        summary = json.loads(text)
        assert summary[0]["solved"] == 2
        assert "bwd_frac_median" in summary[0]


class TestProfileCommand:
    def test_ranking_table(self, capsys):
        rc = main([
            "profile", "--suite", "simplex", "--size", "50",
            "--solver", "active_set,admm",
        ])
        out, err = capsys.readouterr()
        assert rc == 0
        assert err == ""
        assert out.count("active_set") >= 3
        assert "fastest at" in out

    def test_problem_file(self, one_dee_file, capsys):
        rc = main(["profile", "--problem", one_dee_file, "--solver", "active_set",
                   "--tolerances", "1e-8", "--json"])
        out, _ = capsys.readouterr()
        assert rc == 0
        payload = json.loads(out)
        assert payload["problem"] == one_dee_file
        assert [c["backend"] for c in payload["cells"]] == ["active_set"]
        assert payload["fastest"] == {"1e-08": "active_set"}

    def test_json_output(self, capsys):
        rc = main([
            "profile", "--suite", "simplex", "--size", "30",
            "--solver", "active_set", "--tolerances", "1e-8,1e-2", "--json",
        ])
        out, _ = capsys.readouterr()
        payload = json.loads(out)
        assert len(payload["cells"]) == 2
        assert payload["fastest"]


class TestCheckGradCommand:
    def test_json_keys(self, capsys):
        rc = main(["check-grad", "--suite", "simplex", "--size", "5", "--json"])
        out, _ = capsys.readouterr()
        assert rc == 0
        payload = json.loads(out)
        assert set(payload) == {
            "problem", "passed", "skipped", "notice", "max_rel_error",
            "block_errors", "forward_vs_implicit", "flagged",
        }
        assert payload["passed"] is True
        assert payload["forward_vs_implicit"] == payload["block_errors"]["forward_vs_implicit"]

    def test_json_is_strict_when_the_check_is_skipped(self, monkeypatch, capsys):
        # the one row is tight with a zero multiplier, so the check is skipped
        # and its errors are NaN, which strict JSON writes as null
        weak = QpProblem([[1.0]], [0.0], C=[[1.0]], d=[0.0])
        monkeypatch.setattr(cli, "make_problem", lambda *args: ("weakly active", weak))
        rc = main(["check-grad", "--suite", "simplex", "--json"])
        out, _ = capsys.readouterr()
        assert rc == 0

        def refuse(token):
            raise ValueError(f"not strict JSON: {token}")

        payload = json.loads(out, parse_constant=refuse)
        assert payload["skipped"] is True
        assert payload["max_rel_error"] is None
        assert payload["forward_vs_implicit"] is None

    @pytest.mark.parametrize("value", ["0", "-1e-6", "nan", "inf"])
    def test_step_not_finite_and_positive_exit_two(self, capsys, value):
        # unchecked, 0 printed "max rel error nan" (exit 1) and NaN failed the solve (exit 3)
        rc = main(["check-grad", "--suite", "simplex", "--size", "5", f"--h={value}"])
        _, err = capsys.readouterr()
        assert rc == 2
        assert "h must be" in err

    def test_simplex_passes(self, capsys):
        rc = main(["check-grad", "--suite", "simplex", "--size", "5"])
        out, err = capsys.readouterr()
        assert rc == 0
        assert err == ""
        assert "PASS" in out

    def test_chain_passes(self, capsys):
        rc = main(["check-grad", "--suite", "chain", "--m-points", "4", "--dim", "2"])
        out, _ = capsys.readouterr()
        assert rc == 0
        assert "PASS" in out


@pytest.mark.parametrize("argv", [
    ["check-grad", "--suite", "simplex", "--eps-abs", "1e-12"],
    ["check-grad", "--suite", "simplex", "--time-limit", "0"],
    ["bilevel", "--time-limit", "5"],
    ["profile", "--suite", "simplex", "--normalize"],
    ["solve", "problem.json", "--seed", "3"],
    ["bench", "--suite", "simplex", "--seed", "3"],
])
def test_flag_the_handler_never_reads_is_a_parse_error(argv, capsys):
    # a subcommand takes only the flags its handler reads
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


class TestBilevelCommand:
    def test_toy_demo_converges(self, capsys):
        rc = main(["bilevel"])
        out, err = capsys.readouterr()
        assert rc == 0
        assert err == ""
        assert "converged" in out
        assert "loss=" in out

    def test_failed_inner_solve_exit_three(self, capsys):
        # the equality backend cannot hold the demo's active inequalities
        rc = main(["bilevel", "--solver", "equality"])
        out, _ = capsys.readouterr()
        assert rc == 3
        assert "iteration 0: inner solve failed" in out

    @pytest.mark.parametrize("argv", [
        ["--max-iters", "-1"], ["--target", "nan"], ["--target", "inf"],
    ])
    def test_bad_outer_option_exit_two(self, argv, capsys):
        # unchecked, --max-iters -1 exited 3 and a NaN target was never reached
        rc = main(["bilevel", *argv])
        _, err = capsys.readouterr()
        assert rc == 2
        assert ("max_iterations" if "--max-iters" in argv else "target") in err

    def test_json_payload(self, capsys):
        rc = main(["bilevel", "--json"])
        out, _ = capsys.readouterr()
        payload = json.loads(out)
        assert payload["converged"] is True
        assert payload["losses"][-1] <= 1e-10
        assert payload["final_active"] == []


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "qpdiff.cli", "--version"],
        capture_output=True, text=True, env=child_env(),
    )
    assert proc.returncode == 0
