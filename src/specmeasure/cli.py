"""Command-line front end: estimate, simulate, benchmark, pickands.

Every subcommand emits comma-delimited text with a single header row;
floats are serialized with 17 significant digits so emitted tables
round-trip exactly.  Exit codes: 0 success, 2 parse or configuration
error, 3 infeasible moment constraint, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .empirical import empirical_spectral_measure, select_extremes
from .evaluation import mise_sweep
from .lp_geometry import check_norm_order, score_f
from .mele import ConstraintInfeasible, mele_spectral_measure
from .models import (
    HALF_PI,
    SpectralModel,
    asym_logistic_model,
    cauchy_fullplane_model,
    cauchy_quadrant_model,
    mixture_model,
)
from .pickands import pickands_function
from .pseudo_obs import format_value, read_sample, table_text, write_sample, write_text

__all__ = ["build_parser", "run_cli", "main"]


class _UsageError(Exception):
    """Argument grammar violation; surfaces as exit code 2."""


class _Parser(argparse.ArgumentParser):
    # raise instead of sys.exit so run_cli controls the exit path
    def error(self, message):
        raise _UsageError(message)


def _norm_order(text: str) -> float:
    try:
        value = math.inf if text.strip().lower() == "inf" else float(text)
        return check_norm_order(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _integer(low: int, high: float, message: str):
    """Argument type of the base-10 integers in [low, high)."""

    def parse(text: str) -> int:
        try:
            value = int(text, 10)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
        if not low <= value < high:
            raise argparse.ArgumentTypeError(message)
        return value

    return parse


_positive_int = _integer(1, math.inf, "value must be a positive integer")
_uint64 = _integer(0, 2**64, "seed must fit in an unsigned 64-bit integer")


def _k_grid(text: str) -> range:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected a:b:step, got {text!r}")
    try:
        a, b, step = (int(s, 10) for s in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"non-integer component in {text!r}") from None
    if a < 1 or b < a or step < 1:
        raise argparse.ArgumentTypeError("k-grid needs 1 <= a <= b and step >= 1")
    if b > np.iinfo(np.int64).max:
        raise argparse.ArgumentTypeError(f"k-grid {text!r} is too large")
    return range(a, b + 1, step)  # lazy: benchmark builds at most n + 1 of its points


def _interval(text: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected a,b, got {text!r}")
    try:
        a, b = float(parts[0]), float(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"non-numeric endpoint in {text!r}") from None
    if not (0.0 <= a < b <= 1.0):
        raise argparse.ArgumentTypeError(
            "interval endpoints are fractions of pi/2 and need 0 <= a < b <= 1"
        )
    return (a, b)


def _model_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", required=True,
                        choices=("logistic", "cauchy-quadrant", "cauchy-fullplane", "mixture"))
    parser.add_argument("--r", type=float, metavar="REAL", help="model dependence parameter")
    parser.add_argument("--psi1", type=float, metavar="REAL",
                        help="first asymmetry weight (logistic)")
    parser.add_argument("--psi2", type=float, metavar="REAL",
                        help="second asymmetry weight (logistic)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="specmeasure",
        description="Rank-based spectral measure estimation for bivariate extremes.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="SUBCOMMAND")

    est = sub.add_parser(
        "estimate",
        help="estimate the spectral measure from a two-column data file",
    )
    est.add_argument("--input", metavar="PATH", help="data file (default: standard input)")
    est.add_argument("--output", metavar="PATH", help="atoms table (default: standard output)")
    est.add_argument("--p", type=_norm_order, default=1.0, metavar="REAL",
                     help="norm order, a real >= 1 or 'inf' (default 1)")
    est.add_argument("--k", type=_positive_int, required=True, metavar="INT",
                     help="number of tail order statistics")
    est.add_argument("--estimator", choices=("empirical", "mele", "both"), default="both",
                     help="which weight columns to emit (default both)")
    est.add_argument("--gnuplot-script", metavar="PATH",
                     help="also write a gnuplot script referencing --output")
    est.set_defaults(func=_cmd_estimate)

    sim = sub.add_parser("simulate", help="draw a sample from a known model")
    _model_options(sim)
    sim.add_argument("--n", type=_positive_int, required=True, metavar="INT", help="sample size")
    sim.add_argument("--seed", type=_uint64, required=True, metavar="UINT64")
    sim.add_argument("--output", metavar="PATH", help="sample file (default: standard output)")
    sim.set_defaults(func=_cmd_simulate)

    ben = sub.add_parser("benchmark", help="Monte Carlo MISE table over a k grid")
    _model_options(ben)
    ben.add_argument("--p", type=_norm_order, default=1.0, metavar="REAL",
                     help="norm order, a real >= 1 or 'inf' (default 1)")
    ben.add_argument("--n", type=_positive_int, required=True, metavar="INT",
                     help="sample size per replication")
    ben.add_argument("--reps", type=_positive_int, default=200, metavar="INT",
                     help="Monte Carlo replications (default 200)")
    ben.add_argument("--k-grid", type=_k_grid, default="10:200:10", metavar="A:B:STEP",
                     help="inclusive k grid (default 10:200:10)")
    ben.add_argument("--interval", type=_interval, metavar="A,B",
                     help="ISE interval as fractions of pi/2 (default: model specific)")
    ben.add_argument("--seed", type=_uint64, required=True, metavar="UINT64")
    ben.add_argument("--output", metavar="PATH", help="MISE table (default: standard output)")
    ben.add_argument("--gnuplot-script", metavar="PATH",
                     help="also write a gnuplot script referencing --output")
    ben.set_defaults(func=_cmd_benchmark)

    pic = sub.add_parser("pickands", help="Pickands dependence function from a data file")
    pic.add_argument("--input", metavar="PATH", help="data file (default: standard input)")
    pic.add_argument("--output", metavar="PATH", help="knot table (default: standard output)")
    pic.add_argument("--k", type=_positive_int, required=True, metavar="INT",
                     help="number of tail order statistics")
    pic.add_argument("--gnuplot-script", metavar="PATH",
                     help="also write a gnuplot script referencing --output")
    pic.set_defaults(func=_cmd_pickands)
    return parser


def _build_model(args, p: float) -> SpectralModel:
    name = args.model
    r, psi1, psi2 = args.r, args.psi1, args.psi2
    if name == "logistic":
        if r is None:
            raise ValueError("model logistic requires --r")
        return asym_logistic_model(
            r, 1.0 if psi1 is None else psi1, 1.0 if psi2 is None else psi2, p=p
        )
    if psi1 is not None or psi2 is not None:
        raise ValueError(f"model {name} does not take --psi1/--psi2")
    if name == "mixture":
        if r is None:
            raise ValueError("model mixture requires --r")
        return mixture_model(r, p=p)
    if r is not None:
        raise ValueError(f"model {name} does not take --r")
    if name == "cauchy-quadrant":
        return cauchy_quadrant_model(p)
    return cauchy_fullplane_model(p)


def _write_text(path: Optional[str], text: str) -> None:
    write_text(sys.stdout if path is None else path, text)


def _write_gnuplot(args, header_lines: list, plot_line: str) -> None:
    if args.gnuplot_script is None:
        return
    lines = [
        f"# companion plot script for {args.output}",
        'set datafile separator ","',
        "set key autotitle columnhead",
        *header_lines,
        plot_line,
    ]
    write_text(args.gnuplot_script, "\n".join(lines) + "\n")


def _summary(lines: Sequence[str]) -> None:
    for line in lines:
        print(f"# {line}", file=sys.stderr)


def _read_extremes(args, p: float):
    """Angular sample of the input's extremes and its summary lines."""
    if args.input is None and hasattr(sys.stdin, "reconfigure"):
        # split lines at "\r", "\n" and "\r\n", as open() does for --input
        sys.stdin.reconfigure(newline=None)
    sample = read_sample(sys.stdin if args.input is None else args.input)
    ang = select_extremes(sample, args.k, p)
    info = [f"n = {sample.n}", f"N = {ang.n_members}", f"k = {ang.k}", f"p = {format_value(p)}"]
    if sample.tie_flag:
        info.append("ties present: maximal-rank convention applied")
    return ang, info


def _cmd_estimate(args) -> int:
    p = args.p
    ang, info = _read_extremes(args, p)
    want_emp = args.estimator in ("empirical", "both")
    want_mele = args.estimator in ("mele", "both")

    emp = empirical_spectral_measure(ang) if want_emp else None
    phi = mele_spectral_measure(ang) if want_mele else None

    atoms = (emp if emp is not None else phi).angles
    columns = [("theta", atoms)]
    if want_emp:
        columns.append(("weight_empirical", emp.weights))
    if want_mele:
        columns.append(("weight_mele", phi.weights))
    columns.append(("score_f", score_f(atoms, p)))
    header = ",".join(name for name, _ in columns)
    _write_text(args.output, table_text(header, zip(*(values for _, values in columns))))

    if want_emp:
        sin_sum, cos_sum = emp.moment_sums()
        info.append(f"empirical total mass = {format_value(emp.total_mass)}")
        info.append(f"empirical moment sums = {format_value(sin_sum)}, {format_value(cos_sum)}")
    if want_mele:
        sin_sum, cos_sum = phi.moment_sums()
        info.append(f"multiplier = {format_value(phi.solution.mu)}")
        info.append(f"solver residual = {format_value(phi.solution.residual)}")
        info.append(f"mele total mass = {format_value(phi.total_mass)}")
        info.append(f"mele moment sums = {format_value(sin_sum)}, {format_value(cos_sum)}")
    _summary(info)

    plot = ", ".join(
        f'"{args.output}" using 1:{col} with impulses title "{name}"'
        for col, (name, _) in enumerate(columns[1:-1], start=2)
    )
    _write_gnuplot(args, ['set xlabel "theta"', 'set ylabel "weight"'], "plot " + plot)
    return 0


def _cmd_simulate(args) -> int:
    model = _build_model(args, p=1.0)
    sample = model.sample(args.n, np.random.default_rng(args.seed))
    write_sample(sample, sys.stdout if args.output is None else args.output)
    return 0


def _cmd_benchmark(args) -> int:
    model = _build_model(args, args.p)
    interval = None
    if args.interval is not None:
        interval = (args.interval[0] * HALF_PI, args.interval[1] * HALF_PI)
    # a grid of more than n points has a k above n among its first n + 1,
    # and the sweep names the first such k
    k_grid = args.k_grid[: args.n + 1]
    table = mise_sweep(model, args.n, args.reps, k_grid, interval=interval, seed=args.seed)
    _write_text(args.output, table.to_text())
    k = table.k_grid
    step = k[1] - k[0] if k.size > 1 else 1
    _summary([
        f"model = {table.model}",
        f"n = {table.n}",
        f"reps = {table.replications}",
        f"p = {format_value(table.p)}",
        f"k grid = {k[0]}:{k[-1]}:{step}",
        f"seed = {table.seed}",
        f"infeasible mele fits = {int(table.infeasible.sum())}",
        f"solver max evaluations = {table.max_evaluations}",
        f"solver max residual = {format_value(table.max_residual)}",
    ])
    plot = (
        f'plot "{args.output}" using 1:(strcol(2) eq "empirical" ? $3 : 1/0) '
        'with linespoints title "empirical", \\\n'
        f'     "{args.output}" using 1:(strcol(2) eq "mele" ? $3 : 1/0) '
        'with linespoints title "mele"'
    )
    _write_gnuplot(args, ['set xlabel "k"', 'set ylabel "MISE"'], plot)
    return 0


def _cmd_pickands(args) -> int:
    ang, info = _read_extremes(args, 1.0)
    phi = mele_spectral_measure(ang)
    estimate = pickands_function(phi)
    _write_text(args.output, table_text("v,A", zip(estimate.knots, estimate.values)))
    info.append(f"multiplier = {format_value(phi.solution.mu)}")
    info.append(f"solver residual = {format_value(phi.solution.residual)}")
    _summary(info)
    plot = (
        f'plot "{args.output}" using 1:2 with lines title "A", '
        '(x <= 1 ? (x > 0.5 ? x : 1 - x) : 1/0) title "max(v,1-v)", '
        "1 title \"independence\""
    )
    _write_gnuplot(
        args,
        ['set xlabel "v"', 'set ylabel "A(v)"', "set xrange [0:1]", "set yrange [0.45:1.05]"],
        plot,
    )
    return 0


def _fail(code: int, message: str) -> int:
    print(f"specmeasure: error: {message}", file=sys.stderr)
    return code


def run_cli(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        return _fail(2, str(exc))
    except SystemExit as exc:  # --help / --version
        return int(exc.code or 0)
    if getattr(args, "gnuplot_script", None) is not None and args.output is None:
        return _fail(2, "--gnuplot-script requires --output (a data file to reference)")
    try:
        return args.func(args)
    except ConstraintInfeasible as exc:
        return _fail(3, str(exc))
    except ValueError as exc:
        return _fail(2, str(exc))
    except OSError as exc:
        return _fail(4, str(exc))


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
