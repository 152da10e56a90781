import contextlib
import io
import json
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pairprox import applications as apps
from pairprox import cli, linalg, operators as ops, solvers
from pairprox.errors import NonFiniteIterateError


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
        parsed = solvers.read_trace_csv(trace)
        assert parsed.residuals[-1] <= 1e-8
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

    def test_overflowing_solve_reports_its_residuals(self, tmp_path, capsys):
        # from b = 1e300 every residual norm overflows to inf, so the
        # divergence bound never fires; the resolvent overflows at step 14,
        # and the run ends as Failed(Diverged) with the usual lines
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
        records = cli.read_bench_csv(out)
        assert len(records) == 4
        assert [(r.n, r.trial) for r in records] == [(12, 0), (12, 1), (18, 0), (18, 1)]
        assert all(r.status == "Converged" and r.ek <= 1e-6 for r in records)
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
        assert all(r.status == "Converged" for r in cli.read_bench_csv(out))

    def test_kappa_fraction_mode(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = cli.main([
            "bench", "--sizes", "8", "--trials", "1", "--tol", "1e-5",
            "--kappa-fraction", "0.4", "--out", str(out),
        ])
        assert code == 0
        assert all(r.status == "Converged" for r in cli.read_bench_csv(out))

    def test_overflowing_trial_is_reported(self, capsys):
        # eigenvalues up to 1e308: trial 1 at n = 3 overflows in its fourth
        # step, which ends it as Failed(Diverged); the campaign goes on
        assert cli.main(["bench", "--sizes", "1,3", "--trials", "2", "--spectrum", "1,1e308"]) == 2
        captured = capsys.readouterr()
        rows = [line.split(",") for line in captured.out.splitlines()[1:5]]
        assert [(r[0], r[1]) for r in rows] == [("1", "0"), ("1", "1"), ("3", "0"), ("3", "1")]
        assert [r[6] for r in rows[:3]] == ["Converged"] * 3
        assert (rows[3][3], rows[3][5], rows[3][6]) == ("3", "inf", "Failed(Diverged)")
        assert "error:" not in captured.err

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

    def test_bad_pair_argument(self, tmp_path, capsys):
        path = tmp_path / "id.json"
        ops.save_operator(str(path), ops.identity_operator(2))
        code = cli.main(["check-pair", str(path), str(path), "--include-pair", "1,2"])
        assert code == 1

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
        @settings(max_examples=60, deadline=None)
        def run(sizes, trials, seed, kappa, fraction, tol, spectrum, zero_fraction, max_iters, out):
            flags = [seed, kappa, fraction, tol, spectrum, zero_fraction, out]
            argv = ["bench", f"--sizes={sizes}", f"--trials={trials}", f"--max-iters={max_iters}"]
            trials_run.clear()
            trial_errors.clear()
            code = _run_clean(argv + [f for f in flags if f is not None])
            # an input error ends the campaign before its first trial, and a
            # trial whose solve overflows is a Failed(Diverged) row; only a
            # trial's own error, such as a singular resolvent at a tiny
            # --kappa, can end the campaign once a trial has run
            assert code != 1 or not trials_run or trial_errors
            assert not any(isinstance(e, NonFiniteIterateError) for e in trial_errors)

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
            parsed = solvers.read_trace_csv(path)
            assert parsed.residuals

    def test_unknown_demo_exits_one(self, capsys):
        assert cli.main(["demo", "no-such-demo"]) == 1
        assert "unknown demo" in capsys.readouterr().err


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
    def test_header_and_reader_guard(self):
        assert cli.bench_csv_text([]).splitlines()[0] == "n,trial,seed,iters,seconds,ek,status"
        with pytest.raises(ValueError, match="header"):
            cli.read_bench_csv(io.StringIO("x,y\n1,2\n"))

    def test_records_round_trip(self):
        records = [
            cli.RunRecord(4, 0, 123, 17, 0.125, 3.5e-5, "Converged"),
            cli.RunRecord(4, 1, 456, 100, 1.0, 2.0, "MaxIters"),
        ]
        back = cli.read_bench_csv(io.StringIO(cli.bench_csv_text(records)))
        assert back == records
