import contextlib
import csv
import io
import json
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pairprox import applications as apps
from pairprox import cli, linalg, operators as ops, solvers
from pairprox.rng import SplitMix64


BENCH_HEADER = ["n", "trial", "seed", "iters", "seconds", "ek", "status"]
TRACE_HEADER = ["iter", "residual", "step", "err_to_ref", "seconds"]


def read_csv(path):
    """The header and the rows of a CSV file, as text."""
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    return header, rows


def write_example_problem(tmp_path):
    qp = apps.QPProblem(
        q=2.0 * np.eye(2), c=np.zeros(2), constraint=np.array([[1.0, 1.0]]), d=np.array([2.0])
    )
    path = tmp_path / "problem.json"
    apps.write_qp(str(path), qp)
    return path


class TestSolveKKTCommand:
    def test_known_problem_exits_zero(self, tmp_path, capsys):
        problem = write_example_problem(tmp_path)
        out = tmp_path / "solution.txt"
        trace = tmp_path / "trace.csv"
        code = cli.main(["solve-kkt", str(problem), "--out", str(out), "--trace", str(trace)])
        assert code == 0
        solution = linalg.read_vector(out)
        assert np.allclose(solution, [1.0, 1.0, -2.0], atol=1e-7)
        header, rows = read_csv(trace)
        assert header == TRACE_HEADER
        assert float(rows[-1][1]) <= 1e-8
        assert "Converged" in capsys.readouterr().out

    def test_malformed_matrix_file(self, tmp_path, capsys):
        problem = write_example_problem(tmp_path)
        (tmp_path / "problem-Q.mat").write_text("not a header\n1 2\n")
        code = cli.main(["solve-kkt", str(problem)])
        assert code == 1
        assert "rows cols" in capsys.readouterr().err

    def test_unreachable_tolerance_exits_two(self, tmp_path):
        problem = write_example_problem(tmp_path)
        code = cli.main(["solve-kkt", str(problem), "--tol", "1e-20", "--max-iters", "5"])
        assert code == 2

    def test_missing_file_exits_one(self, capsys):
        assert cli.main(["solve-kkt", "/nonexistent/problem.json"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_constraints_without_d_exit_one(self, tmp_path, capsys):
        problem = write_example_problem(tmp_path)
        doc = json.loads(problem.read_text())
        del doc["d"]
        problem.write_text(json.dumps(doc))
        assert cli.main(["solve-kkt", str(problem), "--kappa", "0.2"]) == 1
        assert "missing required key 'd'" in capsys.readouterr().err


    def test_non_finite_data_exits_one(self, tmp_path, capsys):
        problem = write_example_problem(tmp_path)
        linalg.write_matrix(tmp_path / "problem-Q.mat", np.array([[2.0, 0.0], [0.0, np.nan]]))
        assert cli.main(["solve-kkt", str(problem), "--kappa", "0.2"]) == 1
        assert "error: Q has non-finite entries" in capsys.readouterr().err

    def test_diverging_solve_exits_two(self, tmp_path, capsys):
        # kappa = 1 breaks the pair lemma (|alpha|/2 = 0.366) and the
        # residual grows: a failed solve, reported without numpy warnings
        problem = write_example_problem(tmp_path)
        assert cli.main(["solve-kkt", str(problem), "--kappa", "1.0"]) == 2
        captured = capsys.readouterr()
        assert captured.out.startswith("status: Failed(")
        assert "error:" not in captured.err and "RuntimeWarning" not in captured.err

    def test_growing_residual_stops_early(self, tmp_path, capsys):
        # r_0 = 2.07; the residual first exceeds 1e8 * (1 + r_0) at step 231,
        # where the run used to go on to ||Ax - b|| = 5.2e71 at step 2000
        problem = write_example_problem(tmp_path)
        assert cli.main(["solve-kkt", str(problem), "--kappa", "5", "--max-iters", "2000"]) == 2
        out = capsys.readouterr().out
        assert out.startswith("status: Failed(Diverged) after 231 iterations")


class TestLeastSquaresCommand:
    def test_inconsistent_diag_instance(self, tmp_path, capsys):
        mat = tmp_path / "a.mat"
        rhs = tmp_path / "b.txt"
        linalg.write_matrix(mat, np.diag([1.0, 0.0]))
        linalg.write_vector(rhs, np.array([1.0, 1.0]))
        out = tmp_path / "x.txt"
        code = cli.main(["least-squares", str(mat), str(rhs), "--kappa", "0.2", "--out", str(out)])
        assert code == 0
        x = linalg.read_vector(out)
        assert x[0] == pytest.approx(1.0, abs=1e-6)
        stdout = capsys.readouterr().out
        assert "data error" in stdout


    def test_non_finite_rhs_exits_one(self, tmp_path, capsys):
        mat, rhs = write_least_squares_files(tmp_path)
        linalg.write_vector(rhs, np.array([1.0, np.nan]))
        assert cli.main(["least-squares", mat, rhs, "--kappa", "0.2"]) == 1
        assert "error: b has non-finite entries" in capsys.readouterr().err

    def test_diverging_solve_exits_two(self, tmp_path, capsys):
        # A = diag(1, -1) with kappa = 0.9 > |alpha|/2 = 0.5: the residual grows
        mat, rhs = write_least_squares_files(tmp_path)
        linalg.write_matrix(mat, np.diag([1.0, -1.0]))
        assert cli.main(["least-squares", mat, rhs, "--kappa", "0.9"]) == 2
        captured = capsys.readouterr()
        assert captured.out.startswith("status: Failed(")
        assert "error:" not in captured.err and "RuntimeWarning" not in captured.err

    def test_growing_residual_stops_as_diverged(self, tmp_path, capsys):
        # the residual passes 1e8 * (1 + r_1) at step 15, long before the
        # resolvent overflows
        mat, rhs = write_least_squares_files(tmp_path)
        linalg.write_matrix(mat, np.diag([1.0, -1.0]))
        assert cli.main(["least-squares", mat, rhs, "--kappa", "0.9"]) == 2
        assert capsys.readouterr().out.startswith("status: Failed(Diverged) after 15 iterations (kappa=0.9)\n")

    @pytest.mark.parametrize("flags", [[], ["--kappa", "0.2"]], ids=["selected", "explicit"])
    def test_overflowing_shifted_operator_is_named(self, flags, tmp_path, capsys):
        # A = diag(1e308, -1e308) is finite, but 2A + 2 kappa I is not
        mat, rhs = write_least_squares_files(tmp_path)
        linalg.write_matrix(mat, np.diag([1e308, -1e308]))
        assert cli.main(["least-squares", mat, rhs, *flags]) == 1
        assert "error: gamma*F + v overflows the float range" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "b0, code, expected",
        [
            # ||A b|| underflows to 0, so the start already meets even --tol 0
            (1e-320, 0, "status: Converged after 0 iterations"),
            (1e300, 1, "error: gamma*F + v is singular affine"),
            # ||A b|| = 1e-320 is subnormal, not 0, so the first step runs
            (1.0, 1, "error: gamma*F + v is singular affine"),
        ],
        ids=["start-converged", "first-step", "subnormal-residual"],
    )
    def test_subnormal_singular_system_is_reported(self, b0, code, expected, tmp_path, capsys):
        # 2A + 2 kappa I = diag(2.02e-320, 0): its pivot threshold underflows
        # to 0, and numpy's "Singular matrix" came out of the factorization
        mat, rhs = write_least_squares_files(tmp_path)
        linalg.write_matrix(mat, np.diag([1e-320, -1e-322]))
        linalg.write_vector(rhs, np.array([b0, 0.0]))
        assert cli.main(["least-squares", mat, rhs, "--kappa", "1e-322", "--tol", "0"]) == code
        captured = capsys.readouterr()
        assert expected in captured.out + captured.err
        assert "Singular matrix" not in captured.err

    def test_overflowing_solve_reports_its_residuals(self, tmp_path, capsys):
        # from b = 1e300 the divergence bound 1e8 * (1 + r_1) is inf and
        # never fires; the resolvent overflows at step 14, and the run ends
        # as Failed(Diverged) with the usual lines
        mat, rhs = write_least_squares_files(tmp_path)
        linalg.write_matrix(mat, np.diag([1.0, -1.0]))
        linalg.write_vector(rhs, np.array([1e300, 1e300]))
        assert cli.main(["least-squares", mat, rhs, "--kappa", "0.9"]) == 2
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines[0] == "status: Failed(Diverged) after 13 iterations (kappa=0.9)"
        assert lines[1].startswith("optimality residual") and lines[2].startswith("data error")
        assert "error:" not in captured.err


class TestBenchCommand:
    def test_small_bench_csv_and_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code = cli.main([
            "bench", "--sizes", "12,18", "--trials", "2", "--seed", "7",
            "--kappa", "0.2", "--tol", "1e-6", "--out", str(out),
        ])
        assert code == 0
        header, rows = read_csv(out)
        assert header == BENCH_HEADER
        assert [(int(r[0]), int(r[1])) for r in rows] == [(12, 0), (12, 1), (18, 0), (18, 1)]
        assert all(r[6] == "Converged" and float(r[5]) <= 1e-6 for r in rows)
        assert "median_iters" in capsys.readouterr().out

    def test_single_size_determinism_modulo_seconds(self):
        spec = cli.BenchSpec(sizes=(4,), trials=1, seed=3, tolerance=1e-6)
        a = cli.run_bench(spec)
        b = cli.run_bench(spec)
        stripped = lambda recs: [(r.n, r.trial, r.seed, r.iterations, r.ek, r.status) for r in recs]
        assert stripped(a) == stripped(b)

    def test_workers_do_not_change_results(self, monkeypatch):
        spec = cli.BenchSpec(sizes=(8, 12), trials=2, seed=1, tolerance=1e-6)
        seq = cli.run_bench(spec, workers=1)
        par = cli.run_bench(spec, workers=4)
        key = lambda recs: [(r.n, r.trial, r.seed, r.iterations, r.ek, r.status) for r in recs]
        assert key(seq) == key(par)
        monkeypatch.setenv(cli.WORKERS_ENV, "3")
        env_based = cli.run_bench(spec)
        assert key(env_based) == key(seq)

    def test_nonsingular_counterpart_still_converges(self):
        # kernel directions carry no error from x0 = 0 with b in ran A, so
        # iteration counts stay comparable rather than strictly smaller
        for n, seed in ((24, 0), (64, 1)):
            singular = cli.run_trial(cli.BenchSpec(sizes=(n,), trials=1, seed=seed, zero_fraction=0.1), n, 0)
            nonsingular = cli.run_trial(cli.BenchSpec(sizes=(n,), trials=1, seed=seed, zero_fraction=0.0), n, 0)
            assert nonsingular.status == "Converged"
            assert abs(nonsingular.iterations - singular.iterations) <= 2

    def test_default_kappa_applies_without_flags(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = cli.main(["bench", "--sizes", "8", "--trials", "1", "--tol", "1e-5", "--out", str(out)])
        assert code == 0
        assert all(r[6] == "Converged" for r in read_csv(out)[1])

    def test_kappa_fraction_mode(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = cli.main([
            "bench", "--sizes", "8", "--trials", "1", "--tol", "1e-5",
            "--kappa-fraction", "0.4", "--out", str(out),
        ])
        assert code == 0
        assert all(r[6] == "Converged" for r in read_csv(out)[1])

    def test_overflowing_trial_is_reported(self, capsys):
        # eigenvalues up to 1e308: trial 1 at n = 3 overflows in its fourth
        # step, which ends it as Failed(Diverged); the campaign goes on. Its
        # last residual is above 1e307, and its norm is still finite
        assert cli.main(["bench", "--sizes", "1,3", "--trials", "2", "--spectrum", "1,1e308"]) == 2
        captured = capsys.readouterr()
        rows = [line.split(",") for line in captured.out.splitlines()[1:5]]
        assert [(r[0], r[1]) for r in rows] == [("1", "0"), ("1", "1"), ("3", "0"), ("3", "1")]
        assert [r[6] for r in rows[:3]] == ["Converged"] * 3
        assert (rows[3][3], rows[3][6]) == ("3", "Failed(Diverged)")
        assert 1e307 < float(rows[3][5]) < np.inf
        assert "error:" not in captured.err

    def test_singular_trial_is_a_failed_row(self, capsys):
        # at this kappa 2A + 2 kappa I is singular to working precision; each
        # trial is a row and the campaign exits 2
        argv = ["bench", "--sizes", "7", "--trials", "2", "--max-iters", "128", "--kappa", "1.175494351e-38"]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        rows = [line.split(",") for line in captured.out.splitlines()[1:3]]
        assert [(r[3], r[5], r[6]) for r in rows] == [("0", "nan", "Failed(SingularMatrixError)")] * 2
        assert "error:" not in captured.err

    def test_non_finite_data_is_reported_without_a_solve(self, capsys, monkeypatch):
        # eigenvalues up to 1.7e308 make some generated A or b overflow;
        # those trials are rows that were never solved
        solved = []
        solve_kkt = apps.solve_kkt

        def counted(kkt, *args, **kwargs):
            solved.append(kkt.split)
            return solve_kkt(kkt, *args, **kwargs)

        monkeypatch.setattr(apps, "solve_kkt", counted)
        assert cli.main(["bench", "--sizes", "2,5,8", "--spectrum", "1,1.7e308", "--max-iters", "200"]) == 2
        captured = capsys.readouterr()
        rows = [line.split(",") for line in captured.out.splitlines()[1:16]]
        unsolved = [r for r in rows if r[6] == "Failed(non-finite data)"]
        assert unsolved and all((r[3], r[5]) == ("0", "nan") for r in unsolved)
        assert sorted(solved) == sorted(int(r[0]) for r in rows if r not in unsolved)
        assert "error:" not in captured.err

    def test_two_workers_print_no_warning(self, monkeypatch, capsys):
        # every trial's data overflows while it is generated; worker threads
        # do not inherit the numpy error state the CLI sets in main
        argv = ["bench", "--sizes", "3,4", "--trials", "2", "--spectrum", "1e308,1e308", "--zero-fraction", "0"]
        outputs = []
        for workers in ("1", "2"):
            monkeypatch.setenv(cli.WORKERS_ENV, workers)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert cli.main(argv) == 2
            assert [str(w.message) for w in caught] == []
            captured = capsys.readouterr()
            assert captured.err == ""
            outputs.append(captured.out)
        # the rows of unsolved trials read 0 seconds, so the outputs match whole
        assert "Failed(non-finite data)" in outputs[0]
        assert outputs[1] == outputs[0]

    @pytest.mark.parametrize("field", ["trials", "max_iters"])
    @pytest.mark.parametrize("value", [2.5, float("nan"), True], ids=["fraction", "nan", "bool"])
    def test_spec_counts_must_be_integers(self, field, value):
        with pytest.raises(ValueError, match=rf"{field} must be >= 1 and an integer other than a bool, got {value!r}$"):
            cli.BenchSpec(sizes=(4,), **{field: value})

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            cli.BenchSpec(sizes=(), trials=1)
        with pytest.raises(ValueError):
            cli.BenchSpec(sizes=(4,), trials=0)
        with pytest.raises(ValueError):
            cli.BenchSpec(sizes=(4,), kappa=None, kappa_fraction=None)
        with pytest.raises(ValueError):
            cli.BenchSpec(sizes=(4,), kappa=0.2, kappa_fraction=0.3)
        with pytest.raises(ValueError, match="kappa"):
            cli.BenchSpec(sizes=(4,), kappa=-1.0)
        with pytest.raises(ValueError, match="spectrum"):
            cli.BenchSpec(sizes=(4,), spectrum=(1.0,))


def write_least_squares_files(tmp_path):
    mat = tmp_path / "a.mat"
    rhs = tmp_path / "b.txt"
    linalg.write_matrix(mat, np.diag([1.0, 0.0]))
    linalg.write_vector(rhs, np.array([1.0, 1.0]))
    return [str(mat), str(rhs)]


class TestOutOfRangeOptions:
    """Input errors exit 1 with a message and never reach a solve."""

    @pytest.fixture(autouse=True)
    def no_solve(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("a solve ran on rejected options")

        monkeypatch.setattr(apps, "solve_kkt", fail)
        monkeypatch.setattr(apps, "least_squares_iterate", fail)

    def command(self, name, tmp_path):
        if name == "solve-kkt":
            return ["solve-kkt", str(write_example_problem(tmp_path))]
        if name == "least-squares":
            return ["least-squares", *write_least_squares_files(tmp_path)]
        return ["bench", "--sizes", "4", "--trials", "1"]

    @pytest.mark.parametrize("kappa", ["-1", "0", "nan", "inf"])
    @pytest.mark.parametrize("name", ["solve-kkt", "least-squares", "bench"])
    def test_kappa_must_be_positive(self, name, kappa, tmp_path, capsys):
        assert cli.main([*self.command(name, tmp_path), f"--kappa={kappa}"]) == 1
        assert "kappa must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["solve-kkt", "least-squares"])
    def test_negative_tol_rejected(self, name, tmp_path, capsys):
        assert cli.main([*self.command(name, tmp_path), "--tol=-1e-8"]) == 1
        assert "--tol must be nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize("spectrum", ["1", "0.5,1,2"])
    def test_bench_spectrum_must_be_an_interval(self, spectrum, tmp_path, capsys):
        assert cli.main([*self.command("bench", tmp_path), "--spectrum", spectrum]) == 1
        err = capsys.readouterr().err
        assert "spectrum must be an interval" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("name", ["solve-kkt", "least-squares", "bench"])
    def test_max_iters_must_be_positive(self, name, tmp_path, capsys):
        assert cli.main([*self.command(name, tmp_path), "--max-iters", "0"]) == 1
        assert re.search(r"max[-_]iters must be >= 1", capsys.readouterr().err)

    @pytest.mark.parametrize(
        "argv",
        [["solve-kkt", "missing.json"], ["least-squares", "missing.mat", "b.txt"]],
        ids=["solve-kkt", "least-squares"],
    )
    def test_max_iters_checked_before_files_are_read(self, argv, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert cli.main([*argv, "--max-iters", "0"]) == 1
        assert "--max-iters must be >= 1" in capsys.readouterr().err

    def test_bench_spec_rejects_max_iters(self):
        with pytest.raises(ValueError, match="max_iters"):
            cli.BenchSpec(sizes=(4,), max_iters=0)


    @pytest.mark.parametrize("fraction", ["0", "0.5", "0.7", "nan"])
    @pytest.mark.parametrize("name", ["solve-kkt", "least-squares", "bench"])
    def test_kappa_fraction_must_lie_in_open_interval(self, name, fraction, tmp_path, capsys):
        assert cli.main([*self.command(name, tmp_path), f"--kappa-fraction={fraction}"]) == 1
        assert "--kappa-fraction must lie in (0, 0.5)" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["solve-kkt", "missing.json"], ["least-squares", "missing.mat", "b.txt"]],
        ids=["solve-kkt", "least-squares"],
    )
    def test_kappa_fraction_checked_before_files_are_read(self, argv, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert cli.main([*argv, "--kappa-fraction", "0.7"]) == 1
        assert "--kappa-fraction must lie in (0, 0.5), got 0.7" in capsys.readouterr().err

    def test_bench_kappa_fraction_checked_before_generation(self, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("a system was generated for rejected options")

        monkeypatch.setattr(apps, "generate_consistent_system", fail)
        assert cli.main(["bench", "--sizes", "4", "--trials", "1", "--kappa-fraction", "0.7"]) == 1
        assert "--kappa-fraction must lie in (0, 0.5), got 0.7" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag", ["--spectrum=2,1", "--spectrum=0,1", "--spectrum=1,inf", "--zero-fraction=1", "--zero-fraction=nan"]
    )
    def test_bench_spectrum_checked_before_generation(self, flag, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("a system was generated for rejected options")

        monkeypatch.setattr(apps, "generate_consistent_system", fail)
        assert cli.main(["bench", "--sizes", "4", "--trials", "1", flag]) == 1
        assert re.search(r"error: (spectrum interval|zero_fraction) must", capsys.readouterr().err)

    def test_bench_out_checked_before_generation(self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("a system was generated for rejected options")

        monkeypatch.setattr(apps, "generate_consistent_system", fail)
        assert cli.main(["bench", "--sizes", "4", "--trials", "1", "--out", str(tmp_path)]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("order", ["kappa-first", "fraction-first"])
    @pytest.mark.parametrize("name", ["solve-kkt", "least-squares", "bench"])
    def test_kappa_and_kappa_fraction_are_refused_together(self, name, order, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("an input was read or generated for rejected options")

        argv = self.command(name, tmp_path)
        for module, reader in ((apps, "read_qp"), (linalg, "read_matrix"), (linalg, "read_vector"), (apps, "generate_consistent_system")):
            monkeypatch.setattr(module, reader, fail)
        flags = ["--kappa=0.2", "--kappa-fraction=0.3"]
        assert cli.main([*argv, *(flags if order == "kappa-first" else flags[::-1])]) == 1
        assert "not allowed with argument" in capsys.readouterr().err

    def test_bench_spec_rejects_kappa_fraction(self):
        with pytest.raises(ValueError, match=r"--kappa-fraction must lie in \(0, 0\.5\)"):
            cli.BenchSpec(sizes=(4,), kappa=None, kappa_fraction=0.7)

    @pytest.mark.parametrize("flags", [[], ["--kappa", "0.2"]], ids=["selected", "explicit"])
    def test_non_finite_matrix_rejected(self, flags, tmp_path, capsys):
        mat, rhs = write_least_squares_files(tmp_path)
        linalg.write_matrix(mat, np.array([[np.nan, 1.0], [1.0, 0.0]]))
        assert cli.main(["least-squares", mat, rhs, *flags]) == 1
        assert "matrix has non-finite entries" in capsys.readouterr().err

    @pytest.mark.parametrize("sizes", ["a", "4,x", "2.5", "0", "4,-1", ","])
    def test_bench_sizes_must_be_positive_integers(self, sizes, capsys):
        assert cli.main(["bench", f"--sizes={sizes}", "--trials", "1"]) == 1
        err = capsys.readouterr().err
        assert f"--sizes must be 'n1,n2,...' with positive integers, got {sizes!r}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("sizes, repeated", [("3,3", "3"), ("3,2,3", "3"), ("2,4,2,4", "2, 4")])
    def test_bench_sizes_must_be_distinct(self, sizes, repeated, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("a trial ran for rejected sizes")

        monkeypatch.setattr(cli, "run_trial", fail)
        assert cli.main(["bench", "--sizes", sizes, "--trials", "1"]) == 1
        err = capsys.readouterr().err
        assert f"error: sizes must be distinct, got {repeated} more than once" in err
        assert "Traceback" not in err

    def test_bench_spec_rejects_repeated_sizes(self):
        with pytest.raises(ValueError, match="sizes must be distinct, got 3 more than once"):
            cli.BenchSpec(sizes=(3, 2, 3))


class TestMalformedFiles:
    """Input files of the wrong JSON shape exit 1 with a message that names
    the file or key."""

    @pytest.mark.parametrize(
        "doc, needle",
        [
            ([1, 2], "must hold a JSON object"),
            ({"kind": "sign-block", "selector": 5}, "'selector'"),
            ({"kind": "sum", "terms": 3}, "'terms'"),
            ({"kind": "permutation", "permutation": 3}, "'permutation'"),
            ({"kind": "stack", "dim": 2, "blocks": [5]}, "'blocks'"),
            ({"kind": "pointwise", "registry-name": ["x"]}, "'registry-name'"),
            ({"kind": "affine", "matrix": [[1, 0], [0, 1]], "offset": {"a": 1}}, "'offset'"),
        ],
        ids=["list", "selector", "terms", "permutation", "blocks", "registry-name", "offset"],
    )
    def test_check_pair_operator_file(self, doc, needle, tmp_path, capsys):
        f_path, v_path = tmp_path / "f.json", tmp_path / "v.json"
        f_path.write_text(json.dumps(doc))
        ops.save_operator(str(v_path), ops.swap_operator())
        assert cli.main(["check-pair", str(f_path), str(v_path), "--samples=10"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and needle in err
        if needle.startswith("must"):
            assert str(f_path) in err

    @pytest.mark.parametrize("key, value", [(None, [1]), ("Q", 5), ("C", 7), ("c", {"x": 1})], ids=["list", "Q", "C", "c"])
    def test_solve_kkt_qp_file(self, key, value, tmp_path, capsys):
        problem = write_example_problem(tmp_path)
        doc = json.loads(problem.read_text())
        if key is None:
            doc = value
        else:
            doc[key] = value
        problem.write_text(json.dumps(doc))
        assert cli.main(["solve-kkt", str(problem)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: QP file ")
        assert (str(problem) if key is None else f"key {key!r}") in err

    def test_bench_nan_tolerance_exits_before_generation(self, capsys, monkeypatch):
        # NaN compares false with everything, so a run could never converge
        def fail(*args, **kwargs):
            raise AssertionError("a system was generated for rejected options")

        monkeypatch.setattr(apps, "generate_consistent_system", fail)
        assert cli.main(["bench", "--sizes", "4", "--trials", "1", "--tol", "nan"]) == 1
        assert capsys.readouterr().err == "error: tolerance must be positive, got nan\n"

    def test_kappa_whose_shift_overflows_is_rejected(self, tmp_path, capsys):
        # with 2 * kappa = inf the kernel's zero entries would be 0 * inf = NaN
        assert cli.main(["least-squares", *write_least_squares_files(tmp_path), "--kappa=1e308"]) == 1
        assert "with 2*kappa finite, got 1e+308" in capsys.readouterr().err


class TestPairLemmaWarning:
    """An explicit --kappa outside (0, |alpha|/2) draws one warning on
    stderr; the exit code stays that of the solve."""

    @staticmethod
    def warnings(err):
        return [line for line in err.splitlines() if line.startswith("warning:")]

    def test_solve_kkt_kappa_outside_bound(self, tmp_path, capsys):
        # KKT_EXAMPLE's eigenvalues are 2 and 1 +- sqrt(3): |alpha|/2 = 0.366025
        problem = write_example_problem(tmp_path)
        assert cli.main(["solve-kkt", str(problem), "--kappa", "0.4"]) == 0
        captured = capsys.readouterr()
        assert self.warnings(captured.err) == [
            "warning: kappa=0.4 is not below |alpha|/2=0.366025, "
            "so the pair lemma does not guarantee a monotone pair"
        ]
        assert "Converged" in captured.out

    def test_least_squares_kappa_outside_bound(self, tmp_path, capsys):
        # diag(1, 0): |alpha|/2 = 0.5; the pair stays monotone without negative eigenvalues
        assert cli.main(["least-squares", *write_least_squares_files(tmp_path), "--kappa", "0.6"]) == 0
        warnings = self.warnings(capsys.readouterr().err)
        assert len(warnings) == 1
        assert "kappa=0.6" in warnings[0] and "|alpha|/2=0.5" in warnings[0]

    def command(self, name, tmp_path):
        if name == "solve-kkt":
            return ["solve-kkt", str(write_example_problem(tmp_path))]
        return ["least-squares", *write_least_squares_files(tmp_path)]

    @pytest.mark.parametrize("name", ["solve-kkt", "least-squares"])
    def test_kappa_inside_bound_is_silent(self, name, tmp_path, capsys):
        assert cli.main([*self.command(name, tmp_path), "--kappa", "0.2"]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("flags", [[], ["--kappa-fraction", "0.3"]], ids=["default", "fraction"])
    @pytest.mark.parametrize("name", ["solve-kkt", "least-squares"])
    def test_selected_kappa_is_not_rechecked(self, name, flags, tmp_path, capsys, monkeypatch):
        calls = []
        eigen = linalg.jacobi_eigendecomposition

        def counted(a):
            calls.append(a.shape)
            return eigen(a)

        def fail(*args, **kwargs):
            raise AssertionError("the pair lemma was checked for a selected kappa")

        monkeypatch.setattr(linalg, "jacobi_eigendecomposition", counted)
        monkeypatch.setattr(apps, "verify_pair_lemma", fail)
        assert cli.main([*self.command(name, tmp_path), *flags]) == 0
        assert len(calls) == 1
        assert capsys.readouterr().err == ""


class TestCheckPairCommand:
    def test_monotone_pair_exits_zero(self, tmp_path, capsys):
        f_path = tmp_path / "f.json"
        v_path = tmp_path / "v.json"
        ops.save_operator(str(f_path), ops.trig_block_operator())
        ops.save_operator(str(v_path), ops.swap_operator())
        code = cli.main([
            "check-pair", str(f_path), str(v_path), "--box=-5,5", "--samples", "4000", "--seed", "2",
        ])
        assert code == 0
        assert "monotone-evidence" in capsys.readouterr().out

    def test_identity_pair_exits_zero(self, tmp_path):
        path = tmp_path / "id.json"
        ops.save_operator(str(path), ops.identity_operator(2))
        assert cli.main(["check-pair", str(path), str(path), "--samples", "500"]) == 0

    def test_remark_counterexample_exits_three(self, tmp_path, capsys):
        a = np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 2.0], [0.0, -2.0, -3.0]])
        f_path = tmp_path / "f.json"
        v_path = tmp_path / "v.json"
        ops.save_operator(str(f_path), ops.Affine(a))
        ops.save_operator(str(v_path), ops.Affine(a + 0.5 * np.eye(3)))
        code = cli.main([
            "check-pair", str(f_path), str(v_path),
            "--box=-0.05,0.05", "--samples", "1000", "--seed", "3",
            "--include-pair", "0,-3,2:0,0,0",
        ])
        assert code == 3
        out = capsys.readouterr().out
        assert "violation-found" in out
        assert "violation value: -0.5" in out

    def test_operator_too_large_to_allocate_exits_one(self, tmp_path, capped_python):
        # numpy's MemoryError for a vector of 1e12 floats ended in a traceback
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"kind": "stack", "dim": 10**12, "blocks": []}))
        proc = capped_python("-m", "pairprox", "check-pair", str(path), str(path))
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: Unable to allocate")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("entry", ["nan", "inf"])
    def test_non_finite_matrix_file_exits_one(self, entry, tmp_path, capsys):
        # the inline "matrix" key must be finite, and so must a matrix file:
        # a NaN used to end in a box-too-large error and an Inf in a
        # violation with quotient -inf
        (tmp_path / "f.mat").write_text(f"2 2\n1 {entry}\n0 1\n")
        f_path = tmp_path / "f.json"
        f_path.write_text(json.dumps({"kind": "affine", "matrix-file": "f.mat"}))
        v_path = tmp_path / "v.json"
        ops.save_operator(str(v_path), ops.identity_operator(2))
        assert cli.main(["check-pair", str(f_path), str(v_path), "--samples", "200"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: operator matrix file {tmp_path / 'f.mat'} has non-finite entries\n"

    def test_unknown_pointwise_map_exits_one(self, tmp_path, capsys):
        # the name is checked when the operator is built
        f_path = tmp_path / "f.json"
        f_path.write_text(json.dumps({"kind": "pointwise", "registry-name": "nope"}))
        v_path = tmp_path / "v.json"
        ops.save_operator(str(v_path), ops.identity_operator(2))
        assert cli.main(["check-pair", str(f_path), str(v_path), "--samples", "200"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: no pointwise map named 'nope'\n"

    def test_non_square_affine_exits_one(self, tmp_path, capsys):
        # numpy used to broadcast the 1-vector F(x) against the 2-vector v(x)
        f_path = tmp_path / "f.json"
        f_path.write_text(json.dumps({"kind": "affine", "matrix": [[1, 0]]}))
        v_path = tmp_path / "v.json"
        ops.save_operator(str(v_path), ops.identity_operator(2))
        assert cli.main(["check-pair", str(f_path), str(v_path), "--samples", "200"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: affine matrix must be square, got shape (1, 2)\n"

    @pytest.mark.parametrize(
        "f_doc, v_doc, message",
        [
            # the sampler used to take F's size and evaluate v off it
            ({"kind": "affine", "matrix": [[1, 0], [0, 1]]}, {"kind": "affine", "matrix": np.eye(3).tolist()},
             "F and v disagree on dimension: F has 2, v has 3"),
            # numpy's "negative dimensions are not allowed"
            ({"kind": "stack", "dim": -1, "blocks": []}, None, "stack dim must be >= 1, got -1"),
            # the zero-size ones used to end in "no usable sample pairs"
            ({"kind": "stack", "dim": 0, "blocks": []}, None, "stack dim must be >= 1, got 0"),
            ({"kind": "sign-block", "selector": []}, None, "selector must be a permutation of 0..n-1 with n >= 1"),
            ({"kind": "permutation", "permutation": []}, None, "perm must be a permutation of 0..n-1 with n >= 1"),
            ({"kind": "affine", "matrix-file": "empty.mat"}, None, "affine matrix must be nonempty"),
        ],
        ids=["f2-v3", "stack-negative", "stack-zero", "sign-block-empty", "permutation-empty", "affine-empty"],
    )
    def test_operator_dimensions_are_checked_when_built(self, f_doc, v_doc, message, tmp_path, capsys):
        (tmp_path / "empty.mat").write_text("0 0\n")
        f_path, v_path = tmp_path / "f.json", tmp_path / "v.json"
        f_path.write_text(json.dumps(f_doc))
        v_path.write_text(json.dumps(f_doc if v_doc is None else v_doc))
        assert cli.main(["check-pair", str(f_path), str(v_path), "--samples", "10"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("pair", ["nan,1:3,1", "1,1:3,inf"])
    def test_non_finite_include_pair_exits_one(self, pair, tmp_path, capsys):
        # a NaN inner product never becomes the minimum, so such a pair was
        # counted as scanned without being tested
        path = tmp_path / "id.json"
        ops.save_operator(str(path), ops.identity_operator(2))
        assert cli.main(["check-pair", str(path), str(path), f"--include-pair={pair}", "--samples", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: include pairs must have finite coordinates\n"

    def test_bad_pair_argument(self, tmp_path, capsys):
        path = tmp_path / "id.json"
        ops.save_operator(str(path), ops.identity_operator(2))
        code = cli.main(["check-pair", str(path), str(path), "--include-pair", "1,2"])
        assert code == 1

    def test_box_where_every_pair_overflows_is_an_input_error(self, tmp_path, capsys):
        # every squared distance overflows; the -inf inner products used to
        # report a violation (exit 3) of the monotone sign-swap pair
        f_path, v_path = tmp_path / "f.json", tmp_path / "v.json"
        ops.save_operator(str(f_path), ops.sign_swap_operator())
        ops.save_operator(str(v_path), ops.swap_operator())
        assert cli.main(["check-pair", str(f_path), str(v_path), "--box", "1e308,1.7e308"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: no pair gave a finite inner product quotient; the box is too large\n"

    @pytest.mark.parametrize("box", ["1", "1,2,3", "3,-3", "1,inf"])
    def test_box_must_be_a_finite_interval(self, box, tmp_path, capsys):
        path = tmp_path / "id.json"
        ops.save_operator(str(path), ops.identity_operator(2))
        assert cli.main(["check-pair", str(path), str(path), f"--box={box}"]) == 1
        err = capsys.readouterr().err
        assert "--box must be 'lo,hi'" in err
        assert "unpack" not in err


class TestSeedRange:
    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
    def test_check_pair_rejects_seed(self, seed, tmp_path, capsys):
        path = tmp_path / "id.json"
        ops.save_operator(str(path), ops.identity_operator(2))
        assert cli.main(["check-pair", str(path), str(path), f"--seed={seed}"]) == 1
        assert capsys.readouterr().err == f"error: seed must lie in [0, 2**64), got {seed}\n"

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
    def test_bench_rejects_seed_before_generation(self, seed, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("generation must not start")

        monkeypatch.setattr(apps, "generate_consistent_system", fail)
        assert cli.main(["bench", "--sizes", "4", "--trials", "1", f"--seed={seed}"]) == 1
        assert "error: seed must lie in [0, 2**64)" in capsys.readouterr().err

    def test_largest_seed_runs(self, tmp_path):
        path = tmp_path / "id.json"
        ops.save_operator(str(path), ops.identity_operator(2))
        assert cli.main(["check-pair", str(path), str(path), "--samples=10", f"--seed={2**64 - 1}"]) == 0

    # a float seed used to run its integer part and True ran seed 1
    SEED_CALLS = {
        "SplitMix64": lambda seed: SplitMix64(seed),
        "check_pair_monotone": lambda seed: ops.check_pair_monotone(
            ops.identity_operator(2), ops.identity_operator(2), samples=10, seed=seed
        ),
        "BenchSpec": lambda seed: cli.BenchSpec(sizes=(4,), seed=seed),
    }

    @pytest.mark.parametrize("seed", [2.5, 3.0, np.float64(1.0), True, False, "1", None], ids=repr)
    @pytest.mark.parametrize("call", SEED_CALLS)
    def test_seed_must_be_an_integer(self, call, seed):
        with pytest.raises(ValueError, match=rf"^seed must be an integer other than a bool, got {re.escape(repr(seed))}$"):
            self.SEED_CALLS[call](seed)

    @pytest.mark.parametrize("seed", [-1, 2**64, np.int64(-1)], ids=repr)
    @pytest.mark.parametrize("call", SEED_CALLS)
    def test_seed_out_of_range_keeps_its_message(self, call, seed):
        with pytest.raises(ValueError, match=re.escape(f"seed must lie in [0, 2**64), got {seed!r}")):
            self.SEED_CALLS[call](seed)

    @pytest.mark.parametrize("seed", [np.uint64(2**64 - 1), np.int64(7)], ids=repr)
    def test_numpy_integer_seed_runs(self, seed):
        assert np.array_equal(SplitMix64(seed).uniform(4), SplitMix64(int(seed)).uniform(4))


_FLOAT_TEXT = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-10, 10).map(str),
    st.sampled_from(["", "x", "1e999", "-", "0x10", " 1"]),
)


def _mostly(valid, malformed):
    # about nine draws in ten come from `valid`, so that most runs get past
    # argument parsing
    return st.integers(0, 9).flatmap(lambda k: malformed if k == 9 else valid)


class TestCheckPairFuzz:
    def test_every_run_exits_with_a_code(self, tmp_path):
        # set-valued (sign-swap) and single-valued (trig) pairs against the
        # swap kernel; malformed or extreme options must end in exit 0, 1
        # or 3, never in a traceback
        paths = {}
        for name, op in (("sign", ops.sign_swap_operator()), ("trig", ops.trig_block_operator()), ("swap", ops.swap_operator())):
            paths[name] = str(tmp_path / f"{name}.json")
            ops.save_operator(paths[name], op)
        finite = st.floats(allow_nan=False, allow_infinity=False)
        point = st.lists(st.one_of(finite, st.floats()), min_size=2, max_size=2).map(lambda p: ",".join(map(repr, p)))

        @given(
            f=st.sampled_from(["sign", "trig"]),
            samples=_mostly(st.integers(-3, 300).map(str), st.sampled_from(["", "1.5", "1e3", "ten"])),
            seed=_mostly(st.integers(0, 2**64 - 1) | st.integers(-(2**65), 2**65), st.sampled_from(["", "0.5", "seed"])),
            box=st.none()
            | _mostly(
                st.lists(finite, min_size=2, max_size=2, unique=True).map(sorted).map(lambda b: f"{b[0]!r},{b[1]!r}"),
                st.tuples(_FLOAT_TEXT, _FLOAT_TEXT).map(",".join) | _FLOAT_TEXT,
            ),
            pairs=st.lists(
                _mostly(
                    st.tuples(point, point).map(":".join),
                    st.lists(_FLOAT_TEXT, min_size=1, max_size=3).map(",".join) | st.tuples(_FLOAT_TEXT, _FLOAT_TEXT).map(":".join),
                ),
                max_size=2,
            ),
        )
        @settings(max_examples=150, deadline=None)
        def run(f, samples, seed, box, pairs):
            argv = ["check-pair", paths[f], paths["swap"], f"--samples={samples}", f"--seed={seed}"]
            argv += [] if box is None else [f"--box={box}"]
            argv += [f"--include-pair={p}" for p in pairs]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            assert code in (0, 1, 3)
            assert "Traceback" not in err.getvalue()
            assert (code == 1) == err.getvalue().startswith(("error:", "usage:"))

        run()


def _run_clean(argv):
    """Run the CLI in process; it must exit with a documented code, print no
    traceback, and write an error message exactly when it exits 1."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    assert (code == 1) == ("error:" in err.getvalue())
    return code


@pytest.mark.parametrize("name", ["solve-kkt", "check-pair"])
def test_too_deeply_nested_json_exits_one(name, tmp_path):
    # a document nested past Python's recursion limit is an input error;
    # json.dumps cannot write one, so its text is built by hand
    path = tmp_path / "input.json"
    if name == "solve-kkt":
        doc = json.loads(write_example_problem(tmp_path).read_text())
        text = json.dumps(doc)[:-1] + ', "c": ' + "[" * 100_000 + "]" * 100_000 + "}"
        argv = ["solve-kkt", str(path)]
    else:
        text = '{"kind": "pointwise", "registry-name": "identity"}'
        for _ in range(3000):
            text = f'{{"kind": "scale", "scale": 2, "inner": {text}}}'
        ops.save_operator(str(tmp_path / "v.json"), ops.swap_operator())
        argv = ["check-pair", str(path), str(tmp_path / "v.json"), "--samples=10"]
    path.write_text(text)
    assert _run_clean(argv) == 1


# any JSON value, so that every key of a file can hold the wrong type
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _json_doc(valid: dict):
    """Half the time `valid` itself; otherwise `valid` with each key kept,
    dropped or given any JSON value, or a document of any JSON value."""
    mutated = st.fixed_dictionaries({}, optional={key: st.just(value) | _JSON for key, value in valid.items()})
    return st.integers(0, 3).flatmap(lambda k: st.just(valid) if k < 2 else mutated if k == 2 else _JSON)


_MATRIX_TEXT = st.sampled_from([
    "", "x y\n", "2\n1 0\n", "-1 2\n", "2 2\n1 0\n0\n", "2 2\n1 2\n3 4\n", "2 2\nnan 0\n0 1\n",
    "1 1\n1e999\n", "2 2\n1e308 0\n0 -1e308\n", "2 2\n1e-320 0\n0 0\n", "2 2\n0 0\n0 0\n", "0 0\n",
    "3 3\n1 0 0\n0 1 0\n0 0 1\n", "99999999999 1\n",
]) | st.text(max_size=12)
_INT_TEXT = _mostly(st.integers(-3, 200).map(str), st.sampled_from(["", "1.5", "1e3", "x"]))


def _option(name, values):
    """No flag, or --name=value."""
    return st.none() | values.map(lambda value: f"--{name}={value}")


def _solve_flags(tmp_path):
    # --max-iters is always given, so that no run reaches the 100 000 default
    return st.tuples(
        _option("kappa", _FLOAT_TEXT),
        _option("kappa-fraction", _FLOAT_TEXT),
        _option("tol", _FLOAT_TEXT),
        _mostly(st.integers(-1, 200).map(str), st.sampled_from(["", "1.5", "x"])).map(lambda n: f"--max-iters={n}"),
        _option("out", st.sampled_from([str(tmp_path / "x.txt"), str(tmp_path)])),
        _option("trace", st.sampled_from([str(tmp_path / "trace.csv"), str(tmp_path)])),
    ).map(lambda flags: [f for f in flags if f is not None])


class TestCliFuzz:
    """Malformed numbers, flags and input files on every subcommand but
    check-pair's options (TestCheckPairFuzz) must end in a documented exit
    code with a message, never in a traceback."""

    def test_solve_kkt(self, tmp_path):
        problem = write_example_problem(tmp_path)
        valid_doc = json.loads(problem.read_text())
        q_text = (tmp_path / "problem-Q.mat").read_text()

        @given(doc=_json_doc(valid_doc), q=_mostly(st.just(q_text), _MATRIX_TEXT), flags=_solve_flags(tmp_path))
        @settings(max_examples=60, deadline=None)
        def run(doc, q, flags):
            problem.write_text(json.dumps(doc))
            (tmp_path / "problem-Q.mat").write_text(q)
            _run_clean(["solve-kkt", str(problem), *flags])

        run()

    def test_least_squares(self, tmp_path):
        mat, rhs = write_least_squares_files(tmp_path)
        mat_text = open(mat).read()
        rhs_text = st.lists(_FLOAT_TEXT, max_size=3).map(" ".join)

        @given(a=_mostly(st.just(mat_text), _MATRIX_TEXT), b=_mostly(st.just("1\n1\n"), rhs_text), flags=_solve_flags(tmp_path))
        @settings(max_examples=80, deadline=None)
        def run(a, b, flags):
            with open(mat, "w") as fh:
                fh.write(a)
            with open(rhs, "w") as fh:
                fh.write(b)
            _run_clean(["least-squares", mat, rhs, *flags])

        run()

    def test_bench(self, tmp_path, monkeypatch):
        trials_run, trial_errors = [], []
        run_trial = cli.run_trial

        def traced_trial(*args):
            trials_run.append(args)
            try:
                return run_trial(*args)
            except Exception as exc:
                trial_errors.append(exc)
                raise

        monkeypatch.setattr(cli, "run_trial", traced_trial)
        sizes = _mostly(
            st.lists(st.integers(1, 8), min_size=1, max_size=2).map(lambda ns: ",".join(map(str, ns))),
            st.sampled_from(["", ",", "0", "-1", "2.5", "x", "4,,x"]),
        )

        @given(
            sizes=sizes,
            trials=_mostly(st.integers(-1, 2).map(str), st.sampled_from(["", "1.5", "x"])),
            seed=_option("seed", _mostly(st.integers(0, 2**64 - 1).map(str), st.sampled_from(["-1", "", "x"]))),
            kappa=_option("kappa", _FLOAT_TEXT),
            fraction=_option("kappa-fraction", _FLOAT_TEXT),
            tol=_option("tol", _FLOAT_TEXT),
            spectrum=_option("spectrum", st.lists(_FLOAT_TEXT, max_size=3).map(",".join)),
            zero_fraction=_option("zero-fraction", _FLOAT_TEXT),
            max_iters=_mostly(st.integers(-1, 200).map(str), st.sampled_from(["", "x"])),
            out=_option("out", st.sampled_from([str(tmp_path / "bench.csv"), str(tmp_path)])),
        )
        @example(
            sizes="1,3", trials="2", seed=None, kappa=None, fraction=None, tol=None,
            spectrum="--spectrum=1,1e308", zero_fraction=None, max_iters="200", out=None,
        )
        @example(
            sizes="7", trials="2", seed=None, kappa="--kappa=1.175494351e-38", fraction=None, tol=None,
            spectrum=None, zero_fraction=None, max_iters="128", out=None,
        )
        @example(
            sizes="2,5,8", trials="2", seed=None, kappa=None, fraction=None, tol=None,
            spectrum="--spectrum=1,1.7e308", zero_fraction=None, max_iters="200", out=None,
        )
        @settings(max_examples=60, deadline=None)
        def run(sizes, trials, seed, kappa, fraction, tol, spectrum, zero_fraction, max_iters, out):
            flags = [seed, kappa, fraction, tol, spectrum, zero_fraction, out]
            argv = ["bench", f"--sizes={sizes}", f"--trials={trials}", f"--max-iters={max_iters}"]
            trials_run.clear()
            trial_errors.clear()
            code = _run_clean(argv + [f for f in flags if f is not None])
            # an input error ends the campaign before its first trial, and a
            # trial that cannot be solved (its solve overflows, its resolvent
            # is singular, its data is not finite) is a Failed row, so the
            # campaign exits 1 only when no trial ran
            assert code != 1 or not trials_run
            assert not trial_errors

        run()

    def test_demo(self, tmp_path):
        # example-2 runs 10 000 anchored steps (about a second), so it is
        # left to TestDemoCommand
        (tmp_path / "file").write_text("")

        @given(
            name=_mostly(st.sampled_from(["example-1", "least-squares", "dca-divergence"]), st.text(max_size=8)),
            out=_option("out", st.sampled_from([str(tmp_path / "traces"), str(tmp_path / "file"), str(tmp_path / "file" / "sub")])),
        )
        @settings(max_examples=30, deadline=None)
        def run(name, out):
            _run_clean(["demo", name, *([] if out is None else [out])])

        run()

    def test_check_pair_operator_files(self, tmp_path):
        f_path, v_path = tmp_path / "f.json", tmp_path / "v.json"
        ops.save_operator(str(v_path), ops.swap_operator())
        trees = [
            ops.sign_swap_operator(), ops.trig_block_operator(), ops.swap_operator(), ops.Affine(np.eye(2), np.ones(2)),
            ops.Stack(2, ((0, 1, ops.SignBlock(1.0, (0,))), (1, 2, ops.Pointwise("negation")))),
            ops.Scale(2.0, ops.Permutation((1, 0), (1.0, -1.0))),
        ]
        # every node of a valid tree, each key kept, dropped or retyped
        nodes = st.sampled_from(trees).map(ops.operator_to_json).flatmap(_json_doc)

        @given(doc=nodes, wrap=st.sampled_from(["", "scale", "sum", "stack"]), seed=st.integers(0, 9))
        @settings(max_examples=120, deadline=None)
        def run(doc, wrap, seed):
            if wrap == "scale":
                doc = {"kind": "scale", "scale": 1.5, "inner": doc}
            elif wrap == "sum":
                doc = {"kind": "sum", "terms": [doc, {"kind": "pointwise", "registry-name": "identity"}]}
            elif wrap == "stack":
                doc = {"kind": "stack", "dim": 2, "blocks": [{"start": 0, "stop": 2, "op": doc}]}
            f_path.write_text(json.dumps(doc))
            _run_clean(["check-pair", str(f_path), str(v_path), "--samples=50", f"--seed={seed}"])

        run()


class TestDemoCommand:
    @pytest.mark.parametrize("name", ["example-1", "example-2", "least-squares", "dca-divergence"])
    def test_demos_run_clean(self, name, tmp_path, capsys):
        code = cli.main(["demo", name, "--out", str(tmp_path / "traces")])
        assert code == 0
        assert capsys.readouterr().out

    def test_demo_traces_parse_back(self, tmp_path):
        out_dir = tmp_path / "traces"
        assert cli.main(["demo", "example-2", "--out", str(out_dir)]) == 0
        files = sorted(out_dir.iterdir())
        assert files
        for path in files:
            header, rows = read_csv(path)
            assert header == TRACE_HEADER
            assert rows and all(float(r[1]) >= 0.0 for r in rows)

    def test_unknown_demo_exits_one(self, capsys):
        assert cli.main(["demo", "no-such-demo"]) == 1
        assert "invalid choice: 'no-such-demo'" in capsys.readouterr().err


class TestEntryPoints:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "pairprox", "demo", "dca-divergence"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert "Diverged" in proc.stdout

    def test_usage_error_returns_one(self):
        assert cli.main(["bogus-subcommand"]) == 1

    def test_help_returns_zero(self):
        assert cli.main(["--help"]) == 0


class TestBenchCsvFormat:
    def test_records_round_trip(self):
        records = [
            cli.RunRecord(4, 0, 123, 17, 0.125, 3.5e-5, "Converged"),
            cli.RunRecord(4, 1, 456, 100, 1.0 / 3.0, 2.0, "MaxIters"),
            cli.RunRecord(9, 0, 2**64 - 1, 0, 0.0, float("nan"), "Failed(non-finite data)"),
        ]
        buf = io.StringIO()
        cli.write_bench_csv(buf, records)
        header, *rows = csv.reader(io.StringIO(buf.getvalue()))
        assert header == BENCH_HEADER
        assert [[int(c) for c in r[:4]] + [r[6]] for r in rows] == [
            [r.n, r.trial, r.seed, r.iterations, r.status] for r in records
        ]
        # every float bitwise, NaN included
        floats = np.array([[float(c) for c in r[4:6]] for r in rows])
        assert floats.tobytes() == np.array([[r.seconds, r.ek] for r in records]).tobytes()
