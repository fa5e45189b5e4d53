"""Command-line front end: estimate, simulate, benchmark, pickands.

Every subcommand emits comma-delimited text with a single header row;
floats are serialized with 17 significant digits so emitted tables
round-trip exactly.  Exit codes: 0 success, 2 parse, configuration or
allocation error, 3 infeasible moment constraint, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .empirical import empirical_spectral_measure, select_extremes
from .evaluation import ESTIMATORS, mise_sweep
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
        return check_norm_order(float(text))
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
    """Argument type of an ISE interval given as fractions of pi/2; in radians."""
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
    return (a * HALF_PI, b * HALF_PI)


# each --model family: its constructor and the model options it takes
_FAMILIES = {
    "logistic": (asym_logistic_model, ("r", "psi1", "psi2")),
    "cauchy-quadrant": (cauchy_quadrant_model, ()),
    "cauchy-fullplane": (cauchy_fullplane_model, ()),
    "mixture": (mixture_model, ("r",)),
}


def _model_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", required=True, choices=tuple(_FAMILIES))
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
    est.add_argument("--estimator", choices=(*ESTIMATORS, "both"), default="both",
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
    constructor, takes = _FAMILIES[args.model]
    given = {name: getattr(args, name) for name in ("r", "psi1", "psi2")
             if getattr(args, name) is not None}
    if given.keys() - {"r", *takes}:
        raise ValueError(f"model {args.model} does not take --psi1/--psi2")
    if "r" in takes and "r" not in given:
        raise ValueError(f"model {args.model} requires --r")
    if "r" in given and "r" not in takes:
        raise ValueError(f"model {args.model} does not take --r")
    return constructor(**given, p=p)


def _emit(args, text: str, info: Sequence[str], labels: Sequence[str], plot: str) -> int:
    """Write a subcommand's table (to standard output without --output),
    its ``# key = value`` lines to standard error, then, when --gnuplot-script
    asks for one, the script of axis ``labels`` that plots ``plot``."""
    write_text(sys.stdout if args.output is None else args.output, text)
    for line in info:
        print(f"# {line}", file=sys.stderr)
    if args.gnuplot_script is not None:
        head = [f"# companion plot script for {args.output}", 'set datafile separator ","',
                "set key autotitle columnhead"]
        write_text(args.gnuplot_script, "\n".join([*head, *labels, "plot " + plot]) + "\n")
    return 0


def _solver_lines(solution) -> list:
    return [f"multiplier = {format_value(solution.mu)}",
            f"solver residual = {format_value(solution.residual)}"]


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
    build = {"empirical": empirical_spectral_measure, "mele": mele_spectral_measure}
    # all built before any output: an infeasible MELE fit writes nothing
    estimates = {name: build[name](ang) for name in ESTIMATORS if args.estimator in (name, "both")}
    atoms = next(iter(estimates.values())).angles
    columns = [("theta", atoms)]
    for name, phi in estimates.items():
        columns.append((f"weight_{name}", phi.weights))
        if phi.solution is not None:
            info += _solver_lines(phi.solution)
        sin_sum, cos_sum = phi.moment_sums()
        info.append(f"{name} total mass = {format_value(phi.total_mass)}")
        info.append(f"{name} moment sums = {format_value(sin_sum)}, {format_value(cos_sum)}")
    columns.append(("score_f", score_f(atoms, p)))
    header = ",".join(name for name, _ in columns)
    plot = ", ".join(
        f'"{args.output}" using 1:{col} with impulses title "{name}"'
        for col, (name, _) in enumerate(columns[1:-1], start=2)
    )
    return _emit(args, table_text(header, zip(*(values for _, values in columns))), info,
                 ['set xlabel "theta"', 'set ylabel "weight"'], plot)


def _cmd_simulate(args) -> int:
    model = _build_model(args, p=1.0)
    sample = model.sample(args.n, np.random.default_rng(args.seed))
    write_sample(sample, sys.stdout if args.output is None else args.output)
    return 0


def _cmd_benchmark(args) -> int:
    model = _build_model(args, args.p)
    # a grid of more than n points has a k above n among its first n + 1,
    # and the sweep names the first such k
    k_grid = args.k_grid[: args.n + 1]
    table = mise_sweep(model, args.n, args.reps, k_grid, interval=args.interval, seed=args.seed)
    k = table.k_grid
    step = k[1] - k[0] if k.size > 1 else 1
    info = [
        f"model = {table.model}",
        f"n = {table.n}",
        f"reps = {table.replications}",
        f"p = {format_value(table.p)}",
        f"k grid = {k[0]}:{k[-1]}:{step}",
        f"seed = {table.seed}",
        f"infeasible mele fits = {int(table.infeasible.sum())}",
        f"solver max evaluations = {table.max_evaluations}",
        f"solver max residual = {format_value(table.max_residual)}",
    ]
    plot = ", \\\n     ".join(
        f'"{args.output}" using 1:(strcol(2) eq "{name}" ? $3 : 1/0) '
        f'with linespoints title "{name}"'
        for name in ESTIMATORS
    )
    return _emit(args, table.to_text(), info, ['set xlabel "k"', 'set ylabel "MISE"'], plot)


def _cmd_pickands(args) -> int:
    ang, info = _read_extremes(args, 1.0)
    phi = mele_spectral_measure(ang)
    estimate = pickands_function(phi)
    labels = ['set xlabel "v"', 'set ylabel "A(v)"', "set xrange [0:1]", "set yrange [0.45:1.05]"]
    plot = (
        f'"{args.output}" using 1:2 with lines title "A", '
        '(x <= 1 ? (x > 0.5 ? x : 1 - x) : 1/0) title "max(v,1-v)", '
        "1 title \"independence\""
    )
    return _emit(args, table_text("v,A", zip(estimate.knots, estimate.values)),
                 info + _solver_lines(phi.solution), labels, plot)


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
    except (ValueError, MemoryError) as exc:
        return _fail(2, str(exc))
    except OSError as exc:
        return _fail(4, str(exc))


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
