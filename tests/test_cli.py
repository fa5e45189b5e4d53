"""Command-line interface: grammar, exit codes, file formats, determinism."""

import io
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from specmeasure import __version__, empirical, pseudo_obs
from specmeasure.cli import run_cli
from specmeasure.empirical import select_extremes
from specmeasure.mele import SOLVER_TOL, mele_spectral_measure
from specmeasure.pseudo_obs import format_value, read_sample

from oracles import scores_feasible


def run(*argv):
    return run_cli(list(argv))


def summary(err):
    """The ``# key = value`` lines of a stderr capture, as a dict."""
    pairs = (line[2:].split(" = ", 1) for line in err.splitlines() if " = " in line)
    return {key: value for key, value in pairs}


def simulate_file(tmp_path, name="data.csv", model="cauchy-quadrant", n=200, seed=11,
                  extra=()):
    path = tmp_path / name
    code = run(
        "simulate", "--model", model, "--n", str(n), "--seed", str(seed),
        "--output", str(path), *extra,
    )
    assert code == 0
    return path


class TestExitCodes:
    def test_no_subcommand(self, capsys):
        assert run() == 2
        assert "error" in capsys.readouterr().err

    def test_missing_required_flag(self, capsys):
        assert run("estimate") == 2
        assert run("simulate", "--model", "logistic", "--n", "10") == 2

    def test_bad_flag_values(self):
        assert run("estimate", "--k", "0") == 2
        assert run("estimate", "--k", "2.5") == 2
        assert run("estimate", "--k", "10", "--p", "0.5") == 2
        assert run("simulate", "--model", "planar", "--n", "5", "--seed", "1") == 2
        assert run("benchmark", "--model", "cauchy-quadrant", "--n", "50",
                   "--seed", "1", "--k-grid", "10-50") == 2
        assert run("benchmark", "--model", "cauchy-quadrant", "--n", "50",
                   "--seed", "1", "--interval", "0.9,0.1") == 2
        assert run("simulate", "--model", "logistic", "--r", "2",
                   "--n", "5", "--seed", "18446744073709551616") == 2

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--k-grid", "10:x:5", "non-integer component"),
            ("--k-grid", "50:10:5", "1 <= a <= b and step >= 1"),
            ("--k-grid", "10:50:0", "1 <= a <= b and step >= 1"),
            ("--interval", "0.5", "expected a,b"),
            ("--interval", "0.1,0.2,0.3", "expected a,b"),
            ("--interval", "a,0.5", "non-numeric endpoint"),
            ("--k-grid", "99999999999999999999:99999999999999999999:1",
             "k-grid '99999999999999999999:99999999999999999999:1' is too large"),
            ("--k-grid", "1:99999999999999999999:1", "k-grid '1:99999999999999999999:1' is too large"),
            # only the first n + 1 points of a grid are built, so a grid too
            # long for np.arange names its first k above n, as 1:51:1 does
            ("--k-grid", "1:9223372036854775805:1", "1 <= k <= n = 50, got 51"),
            ("--k-grid", "1:9223372036854775806:1", "1 <= k <= n = 50, got 51"),
        ],
        ids=["grid-non-integer", "grid-reversed", "grid-zero-step", "interval-one-part",
             "interval-three-parts", "interval-non-numeric", "grid-above-int64",
             "grid-too-many-points", "grid-2^63-3-points", "grid-2^63-2-points"],
    )
    def test_benchmark_grid_and_interval_grammar(self, capsys, flag, value, message):
        assert run("benchmark", "--model", "cauchy-quadrant", "--n", "50",
                   "--seed", "1", flag, value) == 2
        assert message in capsys.readouterr().err

    def test_model_parameter_grammar(self, capsys):
        # logistic and mixture need --r; the Cauchy models reject it
        assert run("simulate", "--model", "logistic", "--n", "5", "--seed", "1") == 2
        assert run("simulate", "--model", "mixture", "--n", "5", "--seed", "1") == 2
        assert run("simulate", "--model", "cauchy-quadrant", "--r", "2",
                   "--n", "5", "--seed", "1") == 2
        assert run("simulate", "--model", "mixture", "--r", "2", "--psi1", "0.5",
                   "--n", "5", "--seed", "1") == 2
        assert run("simulate", "--model", "mixture", "--r", "1.5",
                   "--n", "5", "--seed", "1") == 2
        err = capsys.readouterr().err
        assert "specmeasure: error" in err

    def test_asymmetric_logistic_runs(self, capsys):
        # --psi1/--psi2 below 1 sample Tawn's asymmetric logistic law
        argv = ("simulate", "--model", "logistic", "--r", "2", "--psi1", "0.5",
                "--n", "5", "--seed", "1")
        assert run(*argv) == 0
        first = capsys.readouterr().out
        assert len(first.strip().splitlines()) == 1 + 5
        assert run(*argv) == 0
        assert capsys.readouterr().out == first
        assert run("benchmark", "--model", "logistic", "--r", "3", "--psi1", "0.7",
                   "--psi2", "0.9", "--n", "60", "--reps", "2", "--k-grid", "10:20:10",
                   "--seed", "1") == 0
        assert "asymmetric-logistic(r=3,psi1=0.7,psi2=0.9)" in capsys.readouterr().err

    def test_missing_input_file(self, tmp_path, capsys):
        assert run("estimate", "--k", "5", "--input", str(tmp_path / "nope.csv")) == 4
        assert "error" in capsys.readouterr().err

    def test_unwritable_output(self, tmp_path):
        data = simulate_file(tmp_path)
        code = run("estimate", "--k", "5", "--input", str(data),
                   "--output", str(tmp_path / "no" / "dir" / "out.csv"))
        assert code == 4

    def test_infeasible_constraint(self, tmp_path, capsys):
        # seed 3 at k = 2 selects two diagonal rank ties (score 0) plus
        # one extreme above the diagonal, so no positive weighting can
        # average the scores to zero
        data = simulate_file(tmp_path, n=60, seed=3)
        code = run("estimate", "--k", "2", "--input", str(data), "--estimator", "mele")
        assert code == 3
        assert "specmeasure: error" in capsys.readouterr().err

    def test_gnuplot_script_requires_output(self, tmp_path, capsys):
        # the pairing is checked before any work: nothing reaches stdout
        data = simulate_file(tmp_path)
        script = tmp_path / "plot.gp"
        for argv in (
            ("estimate", "--k", "10", "--input", str(data)),
            ("pickands", "--k", "10", "--input", str(data)),
            ("benchmark", "--model", "cauchy-quadrant", "--n", "100", "--reps", "2",
             "--k-grid", "5:10:5", "--seed", "1"),
        ):
            assert run(*argv, "--gnuplot-script", str(script)) == 2, argv
            out, err = capsys.readouterr()
            assert out == "", argv
            assert "--gnuplot-script requires --output" in err
            assert not script.exists()

    def test_help_and_version(self, capsys):
        assert run("--version") == 0
        assert "specmeasure" in capsys.readouterr().out
        assert run("--help") == 0
        assert run("estimate", "--help") == 0
        capsys.readouterr()


class TestSimulate:
    def test_deterministic(self, tmp_path):
        a = simulate_file(tmp_path, "a.csv", seed=42)
        b = simulate_file(tmp_path, "b.csv", seed=42)
        c = simulate_file(tmp_path, "c.csv", seed=43)
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()

    def test_round_trips_through_reader(self, tmp_path):
        path = simulate_file(tmp_path, model="logistic", extra=("--r", "2"))
        sample = read_sample(str(path))
        assert sample.n == 200
        assert np.all(sample.values > 0.0)

    def test_stdout_default(self, capsys):
        assert run("simulate", "--model", "mixture", "--r", "0.5",
                   "--n", "7", "--seed", "3") == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert len(lines) == 8
        assert len(lines[0].split(",")) == 2


class TestEstimate:
    def test_table_shape_and_constraints(self, tmp_path, capsys):
        data = simulate_file(tmp_path, n=500, seed=7)
        out = tmp_path / "atoms.csv"
        assert run("estimate", "--k", "50", "--input", str(data),
                   "--output", str(out)) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "theta,weight_empirical,weight_mele,score_f"
        body = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        theta, w_emp, w_mel, scores = body.T
        assert np.all(np.diff(theta) > 0.0)
        assert np.all((theta >= 0.0) & (theta <= math.pi / 2))
        # constrained weights satisfy both moment conditions
        s, c = np.sin(theta), np.cos(theta)
        norm = s + c
        assert np.sum(w_mel * s / norm) == pytest.approx(1.0, abs=1e-8)
        assert np.sum(w_mel * c / norm) == pytest.approx(1.0, abs=1e-8)
        # empirical masses are 1/k each before merging
        assert np.all(w_emp > 0.0)
        err = capsys.readouterr().err
        assert "# n = 500" in err
        assert "# multiplier = " in err

    def test_estimator_selection(self, tmp_path, capsys):
        data = simulate_file(tmp_path, n=300, seed=2)
        out = tmp_path / "atoms.csv"
        assert run("estimate", "--k", "30", "--input", str(data), "--output", str(out),
                   "--estimator", "empirical") == 0
        assert out.read_text().splitlines()[0] == "theta,weight_empirical,score_f"
        assert run("estimate", "--k", "30", "--input", str(data), "--output", str(out),
                   "--estimator", "mele") == 0
        assert out.read_text().splitlines()[0] == "theta,weight_mele,score_f"
        capsys.readouterr()

    def test_max_norm_accepted(self, tmp_path, capsys):
        data = simulate_file(tmp_path, n=300, seed=2)
        out = tmp_path / "atoms.csv"
        assert run("estimate", "--k", "30", "--p", "inf", "--input", str(data),
                   "--output", str(out)) == 0
        assert "# p = inf" in capsys.readouterr().err

    @pytest.mark.parametrize("p", ["1", "2.5", "inf"])
    def test_multiplier_is_the_library_solve(self, tmp_path, capsys, p):
        data = simulate_file(tmp_path, n=400, seed=8)
        assert run("estimate", "--k", "40", "--p", p, "--input", str(data)) == 0
        sample = read_sample(str(data))
        ang = select_extremes(sample, 40, math.inf if p == "inf" else float(p))
        solution = mele_spectral_measure(ang).solution
        info = summary(capsys.readouterr().err)
        assert info["multiplier"] == format_value(solution.mu)
        assert info["solver residual"] == format_value(solution.residual)

    def test_reads_standard_input(self, tmp_path, capsys, monkeypatch):
        data = simulate_file(tmp_path, n=100, seed=1)
        monkeypatch.setattr(sys, "stdin", io.StringIO(data.read_text()))
        assert run("estimate", "--k", "10") == 0
        out = capsys.readouterr().out
        assert out.startswith("theta,")

    @pytest.mark.parametrize("p", ["1", "2.5"])
    def test_piped_input_matches_file_input(self, tmp_path, p):
        # the same bytes through a real pipe and through --input FILE, with
        # "\n", "\r\n" and "\r" line ends: both routes split lines at all three
        text = simulate_file(tmp_path, n=300, seed=4).read_text()
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        argv = [sys.executable, "-m", "specmeasure.cli", "estimate", "--k", "30", "--p", p]
        outputs = []
        for newline in ["\n", "\r\n", "\r"]:
            data = tmp_path / "ends.csv"
            data.write_bytes(text.replace("\n", newline).encode())
            piped = subprocess.run(argv, input=data.read_bytes(), capture_output=True, env=env)
            named = subprocess.run(argv + ["--input", str(data)], capture_output=True, env=env)
            assert piped.returncode == named.returncode == 0, (newline, piped.stderr)
            assert piped.stdout.startswith(b"theta,")
            assert piped.stdout == named.stdout
            outputs.append(piped.stdout)
        assert outputs[0] == outputs[1] == outputs[2]

    def test_rank_invariance_bytes(self, tmp_path, capsys):
        # strictly increasing transforms of either column leave the
        # entire output byte for byte unchanged
        data = simulate_file(tmp_path, n=400, seed=19)
        values = read_sample(str(data)).values
        twisted = np.column_stack([np.exp(values[:, 0] / values[:, 0].max()),
                                   values[:, 1] ** 3])
        other = tmp_path / "twisted.csv"
        with open(other, "w") as handle:
            handle.write("loss,alae\n")
            for x, y in twisted:
                handle.write(f"{float(x)!r},{float(y)!r}\n")
        out1, out2 = tmp_path / "o1.csv", tmp_path / "o2.csv"
        assert run("estimate", "--k", "40", "--input", str(data), "--output", str(out1)) == 0
        assert run("estimate", "--k", "40", "--input", str(other), "--output", str(out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()
        capsys.readouterr()

    def test_gnuplot_companion(self, tmp_path, capsys):
        data = simulate_file(tmp_path, n=200, seed=3)
        out = tmp_path / "atoms.csv"
        script = tmp_path / "atoms.gp"
        assert run("estimate", "--k", "20", "--input", str(data),
                   "--output", str(out), "--gnuplot-script", str(script)) == 0
        text = script.read_text()
        assert str(out) in text
        assert "plot" in text
        capsys.readouterr()


class TestBenchmark:
    def test_table_rows_and_determinism(self, tmp_path):
        out1, out2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
        args = ("benchmark", "--model", "cauchy-quadrant", "--n", "100",
                "--reps", "3", "--k-grid", "10:30:10", "--seed", "17")
        assert run(*args, "--output", str(out1)) == 0
        assert run(*args, "--output", str(out2)) == 0
        lines = out1.read_text().strip().splitlines()
        assert lines[0] == "k,estimator,mise,stderr,infeasible_count"
        assert len(lines) == 1 + 3 * 2
        assert out1.read_bytes() == out2.read_bytes()

    def test_logistic_with_interval(self, tmp_path):
        out = tmp_path / "t.csv"
        assert run("benchmark", "--model", "logistic", "--r", "2", "--n", "80",
                   "--reps", "2", "--k-grid", "10:20:10", "--interval", "0.05,0.95",
                   "--p", "inf", "--seed", "5", "--output", str(out)) == 0
        rows = out.read_text().strip().splitlines()[1:]
        ks = [int(row.split(",")[0]) for row in rows]
        assert ks == [10, 10, 20, 20]

    def test_stderr_summary(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        # seed 3 gives one one-sided replication at k = 1
        assert run("benchmark", "--model", "cauchy-fullplane", "--n", "30", "--reps", "5",
                   "--k-grid", "1:3:1", "--seed", "3", "--output", str(out)) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        infeasible = sum(int(row.rsplit(",", 1)[1])
                         for row in out.read_text().splitlines()[1:])
        assert infeasible == 1
        info = summary(captured.err)
        evaluations = int(info.pop("solver max evaluations"))
        residual = float(info.pop("solver max residual"))
        assert info == {
            "model": "cauchy-fullplane", "n": "30", "reps": "5", "p": "1",
            "k grid": "1:3:1", "seed": "3", "infeasible mele fits": "1",
        }
        assert 1 <= evaluations <= 200
        assert 0.0 <= residual <= SOLVER_TOL

    def test_gnuplot_companion(self, tmp_path):
        out = tmp_path / "t.csv"
        script = tmp_path / "t.gp"
        assert run("benchmark", "--model", "mixture", "--r", "0.5", "--n", "60",
                   "--reps", "2", "--k-grid", "10:10:1", "--seed", "1",
                   "--output", str(out), "--gnuplot-script", str(script)) == 0
        text = script.read_text()
        assert "empirical" in text and "mele" in text


class TestPickands:
    def test_knot_table(self, tmp_path):
        data = simulate_file(tmp_path, model="logistic", n=400, seed=9,
                             extra=("--r", "2"))
        out = tmp_path / "pick.csv"
        assert run("pickands", "--k", "40", "--input", str(data),
                   "--output", str(out)) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "v,A"
        body = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
        v, a = body.T
        assert v[0] == 0.0 and v[-1] == 1.0
        assert a[0] == pytest.approx(1.0, abs=1e-8)
        assert a[-1] == pytest.approx(1.0, abs=1e-8)
        assert np.all(np.diff(v) > 0.0)
        # convexity of the piecewise-affine interpolant
        slopes = np.diff(a) / np.diff(v)
        assert np.all(np.diff(slopes) >= -1e-9)

    def test_infeasible_maps_to_exit_3(self, tmp_path, capsys):
        data = simulate_file(tmp_path, n=60, seed=3)
        assert run("pickands", "--k", "2", "--input", str(data)) == 3
        capsys.readouterr()

    def test_stderr_summary_matches_estimate(self, tmp_path, capsys):
        data = simulate_file(tmp_path, model="logistic", n=400, seed=9, extra=("--r", "2"))
        assert run("pickands", "--k", "40", "--input", str(data)) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("v,A\n")
        info = summary(captured.err)
        assert run("estimate", "--k", "40", "--input", str(data), "--estimator", "mele") == 0
        from_estimate = summary(capsys.readouterr().err)
        keys = ["n", "N", "k", "p", "multiplier", "solver residual"]
        assert list(info) == keys
        assert info == {key: from_estimate[key] for key in keys}

    @pytest.mark.parametrize("command", ["estimate", "pickands"])
    def test_one_rank_pass_reports_ties(self, tmp_path, capsys, monkeypatch, command):
        # the tie flag is read off the selection's own rank pass
        data = tmp_path / "tied.csv"
        values = np.round(read_sample(str(simulate_file(tmp_path, seed=4))).values, 1)
        data.write_text("x,y\n" + "".join(f"{a},{b}\n" for a, b in values))
        passes, tails = [], pseudo_obs._tails

        def counted(batch, m):
            passes.append(m)
            return tails(batch, m)

        monkeypatch.setattr(pseudo_obs, "_tails", counted)
        monkeypatch.setattr(empirical, "_tails", counted)
        assert run(command, "--k", "20", "--input", str(data)) == 0
        assert len(passes) == 1
        assert "# ties present: maximal-rank convention applied" in capsys.readouterr().err

    def test_stderr_reports_ties(self, tmp_path, capsys):
        data = tmp_path / "tied.csv"
        data.write_text("x,y\n" + "".join(f"{i % 7},{(3 * i) % 11}\n" for i in range(80)))
        assert run("pickands", "--k", "20", "--input", str(data)) == 0
        err = capsys.readouterr().err
        assert "# ties present: maximal-rank convention applied" in err


class TestConsoleScript:
    def test_installed_entry_point(self):
        exe = shutil.which("specmeasure")
        assert exe is not None
        proc = subprocess.run([exe, "--version"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.startswith("specmeasure ")


    def test_module_entry_point(self):
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run([sys.executable, "-m", "specmeasure.cli", "--version"],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert proc.stdout == f"specmeasure {__version__}\n"


def test_feasibility_oracle_consistency():
    # the oracle used in these tests agrees with the solver's notion
    assert scores_feasible(np.array([-0.2, 0.6]))
    assert scores_feasible(np.zeros(3))
    assert not scores_feasible(np.array([0.1, 0.6]))
