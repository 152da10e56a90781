import io
import json
import re
import subprocess
import sys

import numpy as np
import pytest

from pairprox import applications as apps
from pairprox import cli, linalg, operators as ops, solvers


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
        # iterates overflow: a failed solve, reported without numpy warnings
        problem = write_example_problem(tmp_path)
        assert cli.main(["solve-kkt", str(problem), "--kappa", "1.0"]) == 2
        captured = capsys.readouterr()
        assert captured.out.startswith("status: Failed(")
        assert "error:" not in captured.err and "RuntimeWarning" not in captured.err


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
        # A = diag(1, -1) with kappa = 0.9 > |alpha|/2 = 0.5: the iterates overflow
        mat, rhs = write_least_squares_files(tmp_path)
        linalg.write_matrix(mat, np.diag([1.0, -1.0]))
        assert cli.main(["least-squares", mat, rhs, "--kappa", "0.9"]) == 2
        captured = capsys.readouterr()
        assert captured.out.startswith("status: Failed(")
        assert "error:" not in captured.err and "RuntimeWarning" not in captured.err


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
