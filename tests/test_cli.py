"""Tests for the command-line interface."""

import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import rieszfd.cli
import rieszfd.coeffs
import rieszfd.harness
import rieszfd.operators
import rieszfd.pde
from rieszfd.cli import run
from rieszfd.coeffs import gl_weights, kappa_weights, lubich_weights, wsgd_weights
from rieszfd.errors import SizeLimitError
from rieszfd.harness import error_surface, example42_problem
from rieszfd.operators import GridSpec1D, generating_symbol
from rieszfd.pde import AdvectionDiffusionProblem, solve
from test_operators import BAD_ALPHAS, _no_work


def _run_capture(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _assert_identical(actual, expected):
    """``actual == expected`` exactly, for str or bytes.  A mismatch reports
    only the first differing line: pytest's own explanation diffs the two
    texts with difflib, which takes minutes on multi-megabyte outputs."""
    if actual == expected:
        return
    got, want = actual.splitlines(keepends=True), expected.splitlines(keepends=True)
    for number, (line, reference) in enumerate(zip(got, want), 1):
        if line != reference:
            pytest.fail(f"first difference on line {number}: {line!r} != {reference!r}")
    pytest.fail(
        f"one text is a prefix of the other: {len(got)} vs {len(want)} lines, "
        f"{len(actual)} vs {len(expected)} characters"
    )


# Reference writer: a verbatim copy of the original per-cell CSV loop, one
# formatted string per cell, joined into one text.  The streaming writer in
# rieszfd.cli must reproduce it byte for byte.
def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _csv(header: list[str], rows: list[list[str]]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


def _reference_solve(problem, M, N, keep):
    sol = solve(problem, M, N, keep=keep)
    x = sol.grid.nodes()
    header = ["t", "x", "u_numeric"]
    if problem.exact is not None:
        header += ["u_exact", "error"]
    rows = []
    for t, snapshot in zip(sol.times, sol.snapshots):
        exact = problem.exact(x, t) if problem.exact is not None else None
        for jj in range(len(x)):
            row = [_fmt(t), _fmt(x[jj]), _fmt(snapshot[jj])]
            if exact is not None:
                row += [_fmt(exact[jj]), _fmt(abs(snapshot[jj] - exact[jj]))]
            rows.append(row)
    return _csv(header, rows)


def _zero_problem(alpha):
    """Verbatim copy of the problem ``solve --problem zero`` runs."""
    return AdvectionDiffusionProblem(
        alpha=alpha,
        K=2.0,
        K_alpha=alpha * alpha,
        domain=(0.0, 1.0),
        T=1.0,
        source=lambda x, t: np.zeros_like(x),
        initial=lambda x: np.zeros_like(x),
    )


def _reference_surface(alpha, M, N):
    surface = error_surface(alpha, M, N)
    grid = GridSpec1D(0.0, 1.0, M)
    x = grid.nodes()
    tau = 1.0 / N
    rows = []
    for k in range(N + 1):
        t = k * tau
        for jj in range(M + 1):
            rows.append([_fmt(t), _fmt(x[jj]), _fmt(surface[k, jj])])
    return _csv(["t", "x", "abs_error"], rows)


class TestExitCodes:
    def test_success(self, capsys):
        code, out, _ = _run_capture(
            capsys, ["coeffs", "--p", "2", "--alpha", "1.5", "--count", "4"]
        )
        assert code == 0
        assert out.startswith("ell,value\n0,0.76072577431273081\n")

    def test_domain_error_is_exit_1(self, capsys):
        code, _, err = _run_capture(
            capsys, ["coeffs", "--p", "5", "--alpha", "1.5", "--count", "4"]
        )
        assert code == 1
        assert err.startswith("error: ")
        assert err.count("\n") == 1

    def test_alpha_domain_error(self, capsys):
        code, _, err = _run_capture(
            capsys, ["coeffs", "--p", "2", "--alpha", "0.5", "--count", "4"]
        )
        assert code == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["coeffs", "--family", family, "--alpha"]
            for family in ("kappa", "gl", "lubich", "wsgd1", "wsgd2")
        ]
        + [
            ["deriv", "--alpha"],
            ["solve", "--M", "8", "--N", "2", "--alpha"],
            ["solve", "--M", "8", "--N", "2", "--problem", "zero", "--alpha"],
            ["surface", "--M", "8", "--N", "2", "--alpha"],
            ["spectrum", "--out", "s.csv", "--alpha"],
            ["convergence", "--table", "1", "--alphas"],
            ["convergence", "--table", "2", "--alphas"],
            ["convergence", "--table", "3", "--alphas"],
        ],
        ids=lambda argv: "-".join(argv[:3]),
    )
    def test_one_alpha_domain_for_every_subcommand(self, capsys, monkeypatch, tmp_path, argv):
        # refused before any weight, sample, eigensolve or cell
        monkeypatch.chdir(tmp_path)
        for module, name in (
            (rieszfd.coeffs, "series_fractional_power"),
            (rieszfd.coeffs, "_gl_series"),
            (rieszfd.operators, "kappa_weights"),
            (rieszfd.operators, "_circle_power"),
            (np.linalg, "eigvalsh"),
            (rieszfd.pde, "_setups"),
            (rieszfd.harness, "_setups"),
            (rieszfd.harness, "_operator_error"),
        ):
            monkeypatch.setattr(module, name, _no_work)
        for alpha in BAD_ALPHAS:
            code, out, err = _run_capture(capsys, argv[:-1] + [f"{argv[-1]}={alpha}"])
            assert (code, out) == (1, "")
            assert err == f"error: alpha={alpha} outside the valid interval (1, 2]\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["deriv", "--alpha", "2"],
            ["solve", "--alpha", "2", "--M", "8", "--N", "2", "--keep", "all"],
            ["surface", "--alpha", "2", "--M", "8", "--N", "2"],
            ["convergence", "--table", "1", "--alphas", "2"],
            ["convergence", "--table", "3", "--alphas", "1.5,2"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_classical_limit_is_accepted(self, capsys, argv):
        # spectrum: TestSpectrum.test_classical_limit
        code, out, err = _run_capture(capsys, argv)
        assert (code, err) == (0, "")
        assert out

    def test_usage_error_is_exit_2(self, capsys):
        assert run(["nonsense"]) == 2
        capsys.readouterr()
        assert run(["coeffs", "--alpha", "1.5", "--bogus", "1"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [
            ["convergence", "--table", "1", "--alphas", "1.5,abc"],
            ["convergence", "--table", "1", "--alphas", ","],
            ["convergence", "--table", "1", "--alphas", ""],
            ["spectrum", "--alpha", "1.5", "--symbol-samples", "-1"],
            ["spectrum", "--alpha", "1.5", "--symbol-samples", "0"],
            ["spectrum", "--alpha", "1.5", "--symbol-samples", "2.5"],
        ],
    )
    def test_bad_list_or_count_is_usage_error(self, capsys, tmp_path, argv):
        out_file = tmp_path / "out.csv"
        code, out, err = _run_capture(capsys, argv + ["--out", str(out_file)])
        assert code == 2
        assert out == ""
        assert err.startswith("usage: rieszfd ")
        assert not out_file.exists()

    def test_help_is_exit_0(self, capsys):
        assert run(["--help"]) == 0
        capsys.readouterr()

    def test_python_m_matches_run(self, capsys):
        argv = ["coeffs", "--p", "3", "--alpha", "1.7", "--count", "16"]
        code, out, _ = _run_capture(capsys, argv)
        src = str(Path(rieszfd.cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "rieszfd.cli", *argv],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (code, out)


class TestCoeffs:
    def test_determinism(self, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            assert (
                run(
                    [
                        "coeffs",
                        "--family",
                        "kappa",
                        "--p",
                        "3",
                        "--alpha",
                        "1.7",
                        "--count",
                        "64",
                        "--out",
                        str(path),
                    ]
                )
                == 0
            )
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert b"\r" not in paths[0].read_bytes()

    def test_json_format(self, capsys):
        code, out, _ = _run_capture(
            capsys,
            ["coeffs", "--family", "gl", "--alpha", "1.5", "--count", "3", "--format", "json"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["family"] == "gl"
        assert payload["values"] == pytest.approx([1.0, -1.5, 0.375, 0.0625], rel=1e-14)

    @pytest.mark.parametrize(
        "argv, make_table",
        [
            (["--p", "3", "--alpha", "1.7"], lambda n: kappa_weights(3, 1.7, n)),
            (["--family", "gl", "--alpha", "1.3"], lambda n: gl_weights(1.3, n)),
            (["--family", "lubich", "--p", "4", "--alpha", "1.6"], lambda n: lubich_weights(4, 1.6, n)),
            (["--family", "wsgd1", "--alpha", "1.5"], lambda n: wsgd_weights(1, 1.5, n)),
            (["--family", "wsgd2", "--alpha", "1.9"], lambda n: wsgd_weights(2, 1.9, n)),
            (
                ["--alpha", "1.5", "--method", "fft", "--samples", "65536"],
                lambda n: kappa_weights(2, 1.5, n, method="fft", samples=65536),
            ),
        ],
        ids=["kappa", "gl", "lubich", "wsgd1", "wsgd2", "fft"],
    )
    def test_csv_matches_per_element_writer(self, capsys, argv, make_table):
        code, out, _ = _run_capture(capsys, ["coeffs", "--count", "300", *argv])
        assert code == 0
        # verbatim copy of the original per-element CoefficientTable.write_csv
        expected = io.StringIO()
        expected.write("ell,value\n")
        for ell, value in enumerate(make_table(300).values):
            expected.write(f"{ell},{value:.17g}\n")
        _assert_identical(out, expected.getvalue())

    def test_overflowing_table_is_exit_1(self, tmp_path, capsys):
        # the recursion overflows from index 768 on; the CSV writer used to
        # print 19,233 inf/nan rows and exit 0
        argv = ["coeffs", "--p", "4", "--alpha", "1.2", "--count", "20000"]
        path = tmp_path / "k.csv"
        for extra in ([], ["--out", str(path)]):
            code, out, err = _run_capture(capsys, argv + extra)
            assert code == 1
            assert out == ""
            assert err.startswith("error: ")
            assert "index 768" in err
            assert err.count("\n") == 1
        assert not path.exists()

    def test_fft_method(self, capsys):
        code, out, _ = _run_capture(
            capsys,
            [
                "coeffs", "--p", "2", "--alpha", "1.5", "--count", "8",
                "--method", "fft", "--samples", "65536",
            ],
        )
        assert code == 0
        first = float(out.splitlines()[1].split(",")[1])
        assert first == pytest.approx((5.0 / 6.0) ** 1.5, abs=1e-10)


    @pytest.mark.parametrize("family", ["gl", "lubich", "wsgd1", "wsgd2"])
    def test_kappa_options_are_refused_for_other_families(self, capsys, monkeypatch, family):
        # the table of the family was printed with exit 0, the option ignored
        for name in ("series_fractional_power", "_gl_series"):
            monkeypatch.setattr(rieszfd.coeffs, name, _no_work)
        argv = ["coeffs", "--family", family, "--alpha", "1.5"]
        for extra in (["--method", "fft"], ["--method", "convolution"], ["--samples", "3"]):
            code, out, err = _run_capture(capsys, argv + extra)
            assert (code, out) == (1, "")
            assert err == (
                f"error: --method and --samples apply only to --family kappa, not {family}\n"
            )

    @pytest.mark.parametrize("method", ["recursion", "convolution"])
    def test_samples_are_refused_without_fft(self, capsys, monkeypatch, method):
        # --samples 3 was ignored: the recursion's table printed with exit 0
        for name in ("series_fractional_power", "_kappa_convolution"):
            monkeypatch.setattr(rieszfd.coeffs, name, _no_work)
        argv = ["coeffs", "--alpha", "1.5", "--count", "4", "--method", method, "--samples", "3"]
        code, out, err = _run_capture(capsys, argv)
        assert (code, out) == (1, "")
        assert err == f"error: samples applies only to method 'fft', not '{method}'\n"

    @pytest.mark.parametrize("family", ["kappa", "gl", "lubich", "wsgd1", "wsgd2"])
    def test_count_above_the_cap_is_exit_1_before_the_recursion(
        self, capsys, monkeypatch, family
    ):
        class RecursionEntered(Exception):
            pass

        def entered(*args):
            raise RecursionEntered

        for name in ("series_fractional_power", "_gl_series"):
            monkeypatch.setattr(rieszfd.coeffs, name, entered)
        argv = ["coeffs", "--family", family, "--alpha", "1.5", "--count"]
        for count in ("1000001", "300000000", "1" + "0" * 300):
            code, out, err = _run_capture(capsys, argv + [count])
            assert code == 1
            assert out == ""
            assert err == f"error: count={count} exceeds the cap of 1000000 weights\n"
        with pytest.raises(RecursionEntered):
            run(argv + ["1000000"])

    def test_samples_above_the_cap_is_exit_1_before_the_fft(self, capsys, monkeypatch):
        def entered(*args):
            raise AssertionError("fft samples computed for a refused sample count")

        monkeypatch.setattr(rieszfd.coeffs, "_circle_power", entered)
        for samples in ("4000001", "1" + "0" * 300):
            code, out, err = _run_capture(
                capsys, ["coeffs", "--alpha", "1.5", "--method", "fft", "--samples", samples]
            )
            assert code == 1
            assert out == ""
            assert err == f"error: samples={samples} exceeds the cap of 4000000\n"


class TestDeriv:
    def test_midpoint_includes_exact(self, capsys):
        code, out, _ = _run_capture(
            capsys, ["deriv", "--alpha", "1.5", "--M", "20"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["x"] == 0.5
        assert payload["abs_error"] == pytest.approx(4.555022e-3, rel=5e-3)

    def test_off_midpoint(self, capsys):
        code, out, _ = _run_capture(
            capsys, ["deriv", "--alpha", "1.5", "--M", "20", "--j", "3"]
        )
        assert code == 0
        payload = json.loads(out)
        assert "exact" not in payload

    def test_grid_above_the_cap_is_exit_1(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("weights computed for a refused grid")

        monkeypatch.setattr(rieszfd.operators, "kappa_weights", refuse)
        for M in ("1000001", "1" + "0" * 300):
            code, out, err = _run_capture(capsys, ["deriv", "--alpha", "1.5", "--M", M])
            assert code == 1
            assert out == ""
            assert err.startswith("error: grid M=") and "exceeds the cap" in err
            assert err.count("\n") == 1


class TestSolve:
    def test_final_snapshot_rows(self, tmp_path):
        out = tmp_path / "sol.csv"
        assert (
            run(
                ["solve", "--alpha", "1.6", "--M", "10", "--N", "4", "--out", str(out)]
            )
            == 0
        )
        lines = out.read_text().splitlines()
        assert lines[0] == "t,x,u_numeric,u_exact,error"
        assert len(lines) == 1 + 11

    def test_zero_problem_all_levels(self, capsys):
        code, out, _ = _run_capture(
            capsys,
            ["solve", "--alpha", "1.4", "--M", "8", "--N", "2", "--problem", "zero", "--keep", "all"],
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "t,x,u_numeric"
        assert len(lines) == 1 + 3 * 9
        assert all(line.endswith(",0") for line in lines[1:])

    def test_alpha_next_to_one_is_refused_as_not_decaying(self, capsys):
        # the second root of the p = 2 polynomial has modulus 1 + 4e-13 here,
        # outside the unit disk but within the decay rule's 1e-9 of it, so
        # alpha is below the rule's p = 2 threshold, 1 + 2.5e-10
        argv = ["solve", "--alpha", "1.0000000000001", "--M", "20", "--N", "5"]
        code, out, err = _run_capture(capsys, argv)
        assert (code, out) == (1, "")
        assert "do not decay" in err and "grow" not in err
        # modulus 1 + 4e-9: admitted
        argv[2] = "1.000000001"
        code, out, _ = _run_capture(capsys, argv)
        assert code == 0 and len(out.splitlines()) == 1 + 21

    def test_step_count_above_the_cap_is_exit_1(self, capsys):
        # N = 10**12 kept stepping until it was killed; with --keep all the
        # physical-memory check refuses it first
        for keep in ("final", "all"):
            argv = ["solve", "--alpha", "1.5", "--M", "10", "--N", str(10**12), "--keep", keep]
            code, out, err = _run_capture(capsys, argv)
            assert (code, out) == (1, "")
            assert err.startswith("error: ") and err.count("\n") == 1
            if keep == "final":
                assert err == "error: N=1000000000000 exceeds the cap of 1000000 time steps\n"


class TestSpectrum:
    def test_record_and_csv(self, tmp_path, capsys):
        for p in (2, 3):
            out = tmp_path / f"symbol{p}.csv"
            code, stdout, _ = _run_capture(
                capsys,
                ["spectrum", "--alpha", "1.5", "--p", str(p), "--M", "16", "--out", str(out)],
            )
            assert code == 0
            record = json.loads(stdout)
            assert sorted(record) == ["M", "alpha", "max_eig", "min_eig", "p"]
            assert record["p"] == p
            assert record["max_eig"] <= 1e-10
            assert record["min_eig"] < record["max_eig"]
            lines = out.read_text().splitlines()
            assert lines[0] == "x,f_alpha_x"
            assert len(lines) == 1 + 1024

    @pytest.mark.parametrize("samples", [1024, 7])
    @pytest.mark.parametrize("alpha", [1.5, 1.9])
    def test_csv_matches_per_row_writer(self, tmp_path, capsys, alpha, samples):
        orders = (2, 3, 4) if alpha > 1.71 else (2, 3)  # p = 4 weights grow at alpha 1.5
        written = set()
        for p in orders:
            path = tmp_path / f"symbol{p}.csv"
            argv = ["spectrum", "--alpha", str(alpha), "--p", str(p),
                    "--symbol-samples", str(samples), "--out", str(path)]
            assert _run_capture(capsys, argv)[0] == 0
            # verbatim copy of the original per-row spectrum writer
            xs = np.linspace(-math.pi, math.pi, samples)
            fs = generating_symbol(alpha, xs, p)
            expected = io.StringIO()
            expected.write("x,f_alpha_x\n")
            expected.write("".join(["%.17g,%.17g\n" % row for row in zip(xs.tolist(), fs.tolist())]))
            _assert_identical(path.read_bytes(), expected.getvalue().encode("ascii"))
            written.add(path.read_bytes())
        assert len(written) == len(orders)  # each file is its own order's symbol

    def test_too_many_samples_are_refused_before_any_is_made(self, monkeypatch, tmp_path, capsys):
        def no_samples(*args):
            raise AssertionError("the symbol was sampled")

        monkeypatch.setattr(rieszfd.cli, "generating_symbol", no_samples)
        path = tmp_path / "symbol.csv"
        samples = 4 * 10**6 + 1
        assert samples == rieszfd.coeffs._MAX_SAMPLES + 1
        argv = ["spectrum", "--alpha", "1.5", "--symbol-samples", str(samples), "--out", str(path)]
        code, out, err = _run_capture(capsys, argv)
        assert (code, out) == (1, "")
        assert err == f"error: --symbol-samples={samples} exceeds the cap of {samples - 1}\n"
        assert not path.exists()

    def test_the_cap_itself_is_accepted(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(rieszfd.coeffs, "_MAX_SAMPLES", 7)
        path = tmp_path / "symbol.csv"
        for samples, code in ((7, 0), (8, 1)):
            argv = ["spectrum", "--alpha", "1.5", "--symbol-samples", str(samples), "--out", str(path)]
            assert _run_capture(capsys, argv)[0] == code
        assert len(path.read_text().splitlines()) == 1 + 7


    def test_alpha_outside_the_symbol_domain_is_refused_before_any_work(
        self, monkeypatch, tmp_path, capsys
    ):
        # spectral_bounds makes the refusal, so the eigensolve is what must not run
        monkeypatch.setattr(np.linalg, "eigvalsh", _no_work)
        path = tmp_path / "s.csv"
        for extra in ([], ["--out", str(path)]):
            code, out, err = _run_capture(capsys, ["spectrum", "--alpha", "2.5", *extra])
            assert (code, out) == (1, "")
            assert err == "error: alpha=2.5 outside the valid interval (1, 2]\n"
        assert list(tmp_path.iterdir()) == []

    def test_classical_limit(self, tmp_path, capsys):
        # G + G^T is twice the second-difference matrix
        path = tmp_path / "s.csv"
        records = []
        for extra in ([], ["--out", str(path)]):
            code, out, err = _run_capture(capsys, ["spectrum", "--alpha", "2", "--M", "16", *extra])
            assert (code, err) == (0, "")
            records.append(json.loads(out))
        assert records[0] == records[1]
        c = math.cos(math.pi / 16)
        assert records[0]["min_eig"] == pytest.approx(2.0 * (-2.0 - 2.0 * c), rel=1e-14)
        assert records[0]["max_eig"] == pytest.approx(2.0 * (-2.0 + 2.0 * c), rel=1e-12)
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        xs = np.array([float(x) for x, _ in rows])
        fs = np.array([float(f) for _, f in rows])
        assert len(rows) == 1024 and np.array_equal(xs, np.linspace(-math.pi, math.pi, 1024))
        np.testing.assert_allclose(fs, 4.0 * np.cos(xs) - 4.0, rtol=0, atol=1e-14)


class TestConvergence:
    def test_table1_row(self, capsys):
        code, out, _ = _run_capture(
            capsys, ["convergence", "--table", "1", "--alphas", "1.5"]
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "alpha,resolution,error,order,ref_error,ref_order,pass"
        first = lines[1].split(",")
        assert float(first[2]) == pytest.approx(4.555022e-3, rel=5e-3)
        assert first[6] == "true"

    def test_json_format(self, capsys):
        code, out, _ = _run_capture(
            capsys,
            ["convergence", "--table", "1", "--alphas", "1.1", "--format", "json"],
        )
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 5
        assert rows[0]["observed_order"] is None


class TestSurface:
    def test_long_format(self, tmp_path):
        out = tmp_path / "surf.csv"
        assert (
            run(["surface", "--alpha", "1.5", "--M", "10", "--N", "4", "--out", str(out)])
            == 0
        )
        lines = out.read_text().splitlines()
        assert lines[0] == "t,x,abs_error"
        assert len(lines) == 1 + 5 * 11


class TestByteIdentity:
    """The streamed CSV equals the reference per-cell writer byte for byte,
    on stdout and through --out."""

    CASES = [
        (
            ["solve", "--alpha", "1.6", "--M", "37", "--N", "9", "--keep", "all"],
            lambda: _reference_solve(example42_problem(1.6), 37, 9, "all"),
        ),
        (
            ["solve", "--alpha", "1.3", "--M", "50", "--N", "7", "--keep", "final"],
            lambda: _reference_solve(example42_problem(1.3), 50, 7, "final"),
        ),
        (
            ["solve", "--alpha", "1.4", "--M", "12", "--N", "5", "--problem", "zero",
             "--keep", "all"],
            lambda: _reference_solve(_zero_problem(1.4), 12, 5, "all"),
        ),
        (
            ["surface", "--alpha", "1.7", "--M", "25", "--N", "11"],
            lambda: _reference_surface(1.7, 25, 11),
        ),
        # Toeplitz path; 8 levels of 601 rows, one level per write
        (
            ["solve", "--alpha", "1.5", "--M", "600", "--N", "7", "--keep", "all"],
            lambda: _reference_solve(example42_problem(1.5), 600, 7, "all"),
        ),
        (
            ["surface", "--alpha", "1.9", "--M", "600", "--N", "7"],
            lambda: _reference_surface(1.9, 600, 7),
        ),
        # levels of 1101 rows, longer than a block, so writes end inside levels
        (
            ["solve", "--alpha", "1.5", "--M", "1100", "--N", "2", "--keep", "all"],
            lambda: _reference_solve(example42_problem(1.5), 1100, 2, "all"),
        ),
        # 101 levels of 101 rows go out in writes of 10 levels, the last of one
        (
            ["surface", "--alpha", "1.3", "--M", "100", "--N", "100"],
            lambda: _reference_surface(1.3, 100, 100),
        ),
        # levels of 8201 rows, more than eight blocks: nine writes each
        (
            ["solve", "--alpha", "1.5", "--M", "8200", "--N", "1", "--keep", "all"],
            lambda: _reference_solve(example42_problem(1.5), 8200, 1, "all"),
        ),
    ]
    IDS = ["solve-all", "solve-final", "solve-zero", "surface", "solve-blocks", "surface-blocks",
           "solve-long-levels", "surface-level-groups", "solve-wide-levels"]

    @pytest.mark.parametrize("argv,reference", CASES, ids=IDS)
    def test_stdout(self, capsys, argv, reference):
        expected = reference()
        code, out, _ = _run_capture(capsys, argv)
        assert code == 0
        _assert_identical(out, expected)

    @pytest.mark.parametrize("argv,reference", CASES, ids=IDS)
    def test_out_file(self, tmp_path, argv, reference):
        path = tmp_path / "out.csv"
        assert run(argv + ["--out", str(path)]) == 0
        _assert_identical(path.read_bytes(), reference().encode("ascii"))


def test_short_levels_share_blocks():
    # a write_rows call per level made `solve --M 10 --N 50000 --keep all` 5x slower
    class Recorder(io.StringIO):
        writes = 0

        def write(self, text):
            self.writes += 1
            return super().write(text)

    out = Recorder()
    system, blocks = rieszfd.pde._levels(example42_problem(1.3), 100, 25)
    x = system.grid.nodes()
    rieszfd.cli._write_levels(out, ["t", "x", "u"], x, system.tau, blocks, lambda x, t, u: (u,))
    assert out.writes == 1 + 3  # the header, then 26 levels of 101 rows in three blocks


@pytest.mark.parametrize(
    "M, N, rows",
    [
        # levels of 11 rows span march blocks of 744 levels: 93 levels per write
        (10, 5000, [93 * 11] * 53 + [72 * 11]),
        # levels of 3001 rows, longer than a block: each in writes of 1024 rows
        (3000, 2, [1024, 1024, 953] * 3),
    ],
    ids=["short-levels", "long-levels"],
)
def test_writes_follow_the_staging_rule(monkeypatch, M, N, rows):
    # each write holds BLOCK_ROWS // (M + 1) whole levels (the last write
    # may hold fewer), or a longer level goes out in writes of BLOCK_ROWS rows
    class Recorder(io.StringIO):
        def write(self, text):
            self.rows.append(text.count("\n"))
            return super().write(text)

    out = Recorder()
    out.rows = []
    monkeypatch.setattr(sys, "stdout", out)
    argv = ["solve", "--alpha", "1.5", "--M", str(M), "--N", str(N), "--keep", "all"]
    assert run(argv) == 0
    _assert_identical(out.getvalue(), _reference_solve(example42_problem(1.5), M, N, "all"))
    fit = max(1, rieszfd.cli._g17.BLOCK_ROWS // (M + 1))
    assert rows[0] == min(fit * (M + 1), rieszfd.cli._g17.BLOCK_ROWS)
    assert out.rows == [1] + rows  # the header, then the value rows


@pytest.mark.parametrize("M, N", [(1000, 1000), (100, 6000)])
@pytest.mark.parametrize("argv", [["solve", "--keep", "all"], ["surface"]], ids=["solve", "surface"])
def test_streamed_csv_memory_is_independent_of_the_level_count(argv, M, N):
    # the levels went through one (N+1) x (M+1) array: peaks of 9.0 MiB for
    # solve and 8.4 MiB for surface at M = N = 1000.  At M = 100, N = 6000
    # that array alone is 4.8 MB, more than twice the bound: a writer that
    # kept a copy of every block peaked at 6.1 and 5.4 MiB.
    size = ["--alpha", "1.5", "--M", str(M), "--N", str(N), "--out", os.devnull]
    tiny = ["--alpha", "1.5", "--M", "10", "--N", "3", "--out", os.devnull]
    assert run(argv + tiny) == 0  # the formatter's tables are built once per process
    tracemalloc.start()
    try:
        assert run(argv + size) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20, f"peak {peak / 2**20:.2f} MiB"


@pytest.mark.parametrize("argv, bound", [(["solve", "--keep", "all"], 0.85), (["surface"], 0.55)],
                         ids=["solve", "surface"])
def test_writer_stages_no_prefix_array(argv, bound):
    # the writer staged each march block's t and x text as one (levels,
    # M + 1, w) array and its values as per-level column_stacks joined by
    # vstack: peaks of 1.47 MiB (solve) and 0.99 MiB (surface) here.  With
    # the text copied from the cells per write block, but the values of a
    # whole march block staged and every formatter temporary alive until
    # it returned, they were 1.16 and 0.58 MiB; one write block of values
    # and a formatter that frees its temporaries read 0.73 and 0.50 MiB
    size = ["--alpha", "1.5", "--M", "1000", "--N", "100", "--out", os.devnull]
    tiny = ["--alpha", "1.5", "--M", "10", "--N", "3", "--out", os.devnull]
    assert run(argv + tiny) == 0  # the formatter's tables are built once per process
    tracemalloc.start()
    try:
        assert run(argv + size) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * 2**20, f"peak {peak / 2**20:.2f} MiB"


def _refuse_lapack(monkeypatch):
    """Make ``np.roots`` and every public ``np.linalg`` function raise."""

    def refused(*args, **kwargs):
        raise AssertionError("LAPACK was called")

    monkeypatch.setattr(np, "roots", refused)
    for name in np.linalg.__all__:
        if not isinstance(getattr(np.linalg, name), type):  # LinAlgError stays
            monkeypatch.setattr(np.linalg, name, refused)


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--alpha", "1.5", "--M", "40", "--N", "20"],
        ["solve", "--alpha", "1.5", "--M", "600", "--N", "20"],
        ["surface", "--alpha", "1.5", "--M", "40", "--N", "20"],
        *(["convergence", "--table", table, "--alphas", "1.5"] for table in "123"),
        ["deriv", "--alpha", "1.8", "--p", "4"],
        ["coeffs", "--alpha", "1.5", "--method", "fft"],
    ],
    ids=["solve-dense", "solve-toeplitz", "surface", "table1", "table2", "table3", "deriv-p4", "coeffs-fft"],
)
def test_runs_need_no_lapack(monkeypatch, argv):
    # the weight-decay check ran np.roots, whose first LAPACK call maps
    # about 1.1 MB, on every run
    _refuse_lapack(monkeypatch)
    assert run(argv + ["--out", os.devnull]) == 0


def test_refusal_needs_no_lapack(monkeypatch, capsys):
    # p = 4 weights decay only from alpha = 1 + 1/sqrt(2) on
    _refuse_lapack(monkeypatch)
    code, out, err = _run_capture(capsys, ["deriv", "--alpha", "1.5", "--p", "4"])
    assert (code, out) == (1, "")
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "do not decay" in lines[0]


def test_surface_calls_exact_once_per_block(monkeypatch, tmp_path):
    M, N = 40, 500
    expected = _reference_surface(1.5, M, N)
    real = rieszfd.harness.example42_problem
    calls = []

    def counted(alpha):
        problem = real(alpha)

        def exact(x, t):
            calls.append(t)
            return problem.exact(x, t)

        return dataclasses.replace(problem, exact=exact)

    monkeypatch.setattr(rieszfd.harness, "example42_problem", counted)
    path = tmp_path / "surface.csv"
    assert run(["surface", "--alpha", "1.5", "--M", str(M), "--N", str(N), "--out", str(path)]) == 0
    blocks = -(-(N + 1) // (rieszfd.pde._BLOCK_BYTES // (8 * (M + 1))))
    assert 1 < len(calls) == blocks  # it was one call per level, N + 1
    _assert_identical(path.read_text(), expected)


def test_keep_all_refusal_matches_the_library(monkeypatch, capsys):
    def no_assembly(*args):
        raise AssertionError("assembly started")

    size = ["--alpha", "1.5", "--M", "600", "--N", str(10**7)]
    monkeypatch.setattr(rieszfd.pde, "_physical_memory_bytes", lambda: 10**9)
    monkeypatch.setattr(rieszfd.pde, "assemble_system", no_assembly)
    with pytest.raises(SizeLimitError) as refusal:
        rieszfd.pde._check_all_levels_fit(600, 10**7)
    for argv in (["solve", *size, "--keep", "all"], ["surface", *size]):
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {refusal.value}\n"


def _nan_after_half(monkeypatch):
    """Make example 4.2's source NaN from t = 0.5 on: at M 20, N 2000 the
    streamed CSV has written levels 0-767 when the run fails."""
    real = rieszfd.harness.example42_problem

    def nan_after_half(alpha):
        problem = real(alpha)

        def source(x, t):
            return problem.source(x, t) * (np.nan if t > 0.5 else 1.0)

        return dataclasses.replace(problem, source=source)

    monkeypatch.setattr(rieszfd.harness, "example42_problem", nan_after_half)


def test_non_finite_level_stops_the_stream_before_its_rows(monkeypatch, tmp_path, capsys):
    _nan_after_half(monkeypatch)
    path = tmp_path / "u.csv"
    # writes of 48 levels: levels 0-767 go out before the march block
    # that holds level 1001, the first NaN, is refused
    argv = ["solve", "--alpha", "1.5", "--M", "20", "--N", "2000", "--keep", "all"]
    assert run(argv + ["--out", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    if path.exists():
        text = path.read_text()
        assert "nan" not in text and "inf" not in text


class TestWholeOutputFiles:
    STREAMS = [
        ["solve", "--alpha", "1.5", "--M", "20", "--N", "2000", "--keep", "all"],
        ["surface", "--alpha", "1.5", "--M", "20", "--N", "2000"],
    ]

    @pytest.mark.parametrize("argv", STREAMS, ids=["solve", "surface"])
    def test_failed_stream_leaves_no_file(self, monkeypatch, tmp_path, capsys, argv):
        _nan_after_half(monkeypatch)
        assert run(argv + ["--out", str(tmp_path / "u.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: solution is not finite") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", STREAMS, ids=["solve", "surface"])
    def test_failed_run_keeps_the_earlier_file(self, monkeypatch, tmp_path, capsys, argv):
        path = tmp_path / "u.csv"
        path.write_bytes(b"earlier,bytes\n")
        _nan_after_half(monkeypatch)
        assert run(argv + ["--out", str(path)]) == 1
        assert path.read_bytes() == b"earlier,bytes\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_failed_write_keeps_the_earlier_file(self, monkeypatch, tmp_path, capsys):
        path = tmp_path / "k.csv"
        path.write_bytes(b"earlier,bytes\n")
        monkeypatch.setattr(rieszfd._g17, "write_rows", _raise_enospc)
        code, out, err = _run_capture(
            capsys, ["coeffs", "--alpha", "1.5", "--out", str(path)]
        )
        assert code == 1
        assert err == f"error: cannot write output file {str(path)!r}: No space left on device\n"
        assert path.read_bytes() == b"earlier,bytes\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_symlinked_out_updates_its_target(self, tmp_path):
        argv = ["solve", "--alpha", "1.5", "--M", "40", "--N", "20", "--keep", "all"]
        direct = tmp_path / "direct.csv"
        assert run(argv + ["--out", str(direct)]) == 0
        target = tmp_path / "target.csv"
        target.write_bytes(b"earlier,bytes\n")
        link = tmp_path / "link.csv"
        link.symlink_to(target.name)
        assert run(argv + ["--out", str(link)]) == 0
        assert link.is_symlink() and os.readlink(link) == target.name
        assert target.read_bytes() == direct.read_bytes()
        # a dangling link creates its target
        target.unlink()
        assert run(argv + ["--out", str(link)]) == 0
        assert link.is_symlink() and target.read_bytes() == direct.read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["direct.csv", "link.csv", "target.csv"]

    def test_permissions_are_those_of_a_plain_open(self, tmp_path):
        argv = ["coeffs", "--alpha", "1.5", "--count", "8", "--out"]
        new, existing = tmp_path / "new.csv", tmp_path / "existing.csv"
        existing.write_bytes(b"")
        existing.chmod(0o604)
        umask = os.umask(0o027)
        try:
            assert run(argv + [str(new)]) == 0
            assert run(argv + [str(existing)]) == 0
        finally:
            os.umask(umask)
        assert new.stat().st_mode & 0o7777 == 0o640
        assert existing.stat().st_mode & 0o7777 == 0o604
        assert existing.read_bytes() == new.read_bytes()

    def test_only_regular_or_missing_files_are_replaced(self, tmp_path):
        # decided by stat alone: the FIFO is never opened
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        assert rieszfd.cli._replaceable(str(fifo)) is None
        assert rieszfd.cli._replaceable(os.devnull) is None
        assert rieszfd.cli._replaceable(str(tmp_path)) is None
        regular = tmp_path / "regular.csv"
        regular.write_bytes(b"")
        regular.chmod(0o640)
        resolved = os.path.realpath(regular)
        assert rieszfd.cli._replaceable(str(regular)) == (resolved, 0o640)
        link = tmp_path / "link.csv"
        link.symlink_to(regular)
        assert rieszfd.cli._replaceable(str(link)) == (resolved, 0o640)
        missing = tmp_path / "missing.csv"
        assert rieszfd.cli._replaceable(str(missing)) == (os.path.realpath(missing), None)
        assert [p.name for p in tmp_path.iterdir() if p.name.startswith(".")] == []

    def test_stdout_redirected_to_a_file_is_written_in_place(self, tmp_path):
        # `--out /dev/stdout > file`: the file is stdout, so it is not replaced
        path = tmp_path / "stdout.csv"
        saved = os.dup(1)
        fd = os.open(path, os.O_WRONLY | os.O_CREAT)
        try:
            os.dup2(fd, 1)
            assert rieszfd.cli._replaceable(str(path)) is None
            if os.path.exists("/dev/stdout"):
                assert rieszfd.cli._replaceable("/dev/stdout") is None
        finally:
            os.dup2(saved, 1)
            os.close(saved)
            os.close(fd)
        assert rieszfd.cli._replaceable(str(path)) is not None


def _raise_enospc(*args):
    raise OSError(28, "No space left on device")


class TestOutputErrors:
    def test_unwritable_out_is_exit_1(self, tmp_path, capsys):
        path = tmp_path / "missing" / "sol.csv"
        code, _, err = _run_capture(
            capsys, ["solve", "--alpha", "1.5", "--M", "8", "--N", "2", "--out", str(path)]
        )
        assert code == 1
        assert err.startswith("error: cannot write output file")
        assert err.count("\n") == 1

    def test_failure_mid_stream_is_exit_1(self, tmp_path, capsys, monkeypatch):
        class FailingFile(io.StringIO):
            def write(self, text):
                if self.tell() > 0:
                    raise OSError(28, "No space left on device")
                return super().write(text)

        monkeypatch.setattr(rieszfd.cli, "open", lambda *a, **k: FailingFile(), raising=False)
        code, _, err = _run_capture(
            capsys,
            ["solve", "--alpha", "1.5", "--M", "8", "--N", "2", "--keep", "all",
             "--out", str(tmp_path / "sol.csv")],
        )
        assert code == 1
        assert err.startswith("error: cannot write output file")

    def test_closed_stdout_pipe_is_exit_1(self):
        # the reader stops after the header, like `| head -1`
        src = str(Path(rieszfd.cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        argv = ["solve", "--alpha", "1.5", "--M", "1000", "--N", "200", "--keep", "all"]
        with subprocess.Popen(
            [sys.executable, "-m", "rieszfd.cli", *argv], stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=path),
        ) as proc:
            assert proc.stdout.readline() == b"t,x,u_numeric,u_exact,error\n"
            proc.stdout.close()
            err = proc.stderr.read().decode()
            assert proc.wait(timeout=60) == 1
        # one line: no traceback, and no "Exception ignored" from the exit flush
        assert err.startswith("error: cannot write stdout: ")
        assert err.count("\n") == 1, err

    def test_closed_stdout_is_exit_1(self):
        # with file descriptor 1 closed, Python starts with sys.stdout None
        src = str(Path(rieszfd.cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        argv = ["coeffs", "--alpha", "1.5", "--count", "4"]
        proc = subprocess.run(
            ["sh", "-c", 'exec "$@" >&-', "sh", sys.executable, "-m", "rieszfd.cli", *argv],
            stderr=subprocess.PIPE, text=True, env=dict(os.environ, PYTHONPATH=path),
            timeout=60,
        )
        assert proc.returncode == 1
        assert proc.stderr == "error: cannot write stdout: it is closed\n"

    def test_nan_derivative_is_exit_1(self, capsys):
        code, out, err = _run_capture(
            capsys, ["deriv", "--alpha", "1.2", "--p", "4", "--M", "2000"]
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "exc, message",
        [
            (MemoryError("Unable to allocate 2.24 GiB"), "Unable to allocate 2.24 GiB"),
            (MemoryError(), "allocation refused"),
        ],
        ids=["numpy-message", "bare"],
    )
    def test_refused_allocation_is_exit_1(self, capsys, monkeypatch, exc, message):
        # numpy raises MemoryError when the machine refuses an array, as in
        # `coeffs --family gl --count 300000000` under `ulimit -v 1500000`
        def refuse(args):
            raise exc

        monkeypatch.setitem(rieszfd.cli._DISPATCH, "coeffs", refuse)
        code, out, err = _run_capture(capsys, ["coeffs", "--alpha", "1.5"])
        assert code == 1
        assert out == ""
        assert err == f"error: out of memory: {message}\n"

    def test_growing_weights_derivative_is_exit_1(self, capsys):
        # the weights at M = 100 are still finite, so without the growth
        # check this printed a 1.1e14 "derivative" and exited 0
        code, out, err = _run_capture(
            capsys, ["deriv", "--alpha", "1.2", "--p", "4", "--M", "100"]
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
        assert err.count("\n") == 1


def test_only_the_cli_loads_the_formatter():
    # the numerics format nothing: the %.17g writer comes with the CLI
    script = (
        "import sys\n"
        "import rieszfd\n"
        "print('rieszfd._g17' in sys.modules)\n"
        "import rieszfd.cli\n"
        "print('rieszfd._g17' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(rieszfd.cli.__file__)))
    proc = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]


def test_runtime_imports_no_scipy(tmp_path):
    # scipy is a test-only dependency: no subcommand may import it
    script = (
        "import sys\n"
        "import rieszfd.cli\n"
        "for argv in (['convergence', '--table', '3'], ['solve', '--alpha', '1.5', '--M', '600',"
        " '--N', '5'], ['deriv', '--alpha', '1.5'], ['coeffs', '--alpha', '1.5'],"
        " ['spectrum', '--alpha', '1.5']):\n"
        "    assert rieszfd.cli.run(argv + ['--out', argv[0] + '.out']) == 0, argv\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(rieszfd.cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"  # spectrum prints its extremes first
    assert sorted(os.listdir(tmp_path)) == sorted(
        f"{name}.out" for name in ("convergence", "solve", "deriv", "coeffs", "spectrum")
    )
