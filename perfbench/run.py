"""specmeasure benchmark: one workload, closed loop, single process.

    python3 perfbench/run.py --workload mise_closed --seed 1 --seconds 20 --trace 0

Prints a report, then as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` runs the workload a second
time with every layer wrapped and reports the per-layer metrics.  See
README.md in this directory.
"""

import os

# one thread per process: no workload starts more threads than there are cores
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gzip  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402
import numpy  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"
#: fresh-interpreter set-up samples per run; the median is reported
SETUP_SAMPLES = 9

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--seconds",
        type=int,
        required=True,
        help="nominal run length; work is fixed by counts sized to about this",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# environment record


def _git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _src_sha256():
    digest = hashlib.sha256()
    for path in sorted((SRC / "specmeasure").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _last_level_cache():
    best = (0, None)
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        best = max(best, (level, size), key=lambda item: item[0])
    return best[1]


def environment() -> dict:
    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "last_level_cache": _last_level_cache(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


# ---------------------------------------------------------------------------
# measurement


def setup_seconds(workload_name: str) -> list:
    """Set-up time, each sample in a fresh interpreter."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload_name],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def measure(workload, seed: int, trace: bool, workdir: Path):
    """Untraced pass, then (with ``trace``) a traced pass on the same inputs.

    Returns (untraced outcomes, traced outcomes or None, tracer or None,
    peak resident MB after the untraced pass).
    """
    sm = workloads.import_library(workload)
    models = workloads.build_models(sm, workload)
    paths = workloads.write_inputs(workload, seed, workdir)
    untraced = workloads.run_pass(sm, workload, models, seed, paths, workdir)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    traced = tracer = None
    if trace:
        tracer = Tracer()
        with tracer.installed(layers.TARGETS):
            traced = workloads.run_pass(sm, workload, models, seed, paths, workdir)
    return untraced, traced, tracer, peak_mb


def record(workload, outcomes) -> dict:
    """Reference entries for one pass, keyed by operation label."""
    ref = {}
    for out in outcomes:
        if out.error:
            raise RuntimeError(f"{out.label} raised:\n{out.error}")
        if isinstance(out.output, tuple):
            code, data, _ = out.output
            ref[out.label] = checks.cli_reference(code, data)
        else:
            ref[out.label] = checks.mise_reference(out.output)
            if checks.check_mise(out.output, ref[out.label]):
                raise RuntimeError(f"{out.label}: non-finite reference values")
    return ref


def evaluate(workload, outcomes, reference: dict) -> dict:
    """Failed operations, problems and byte identity of one pass."""
    commands = {cmd.label: cmd for cmd in workload.commands}
    failed = identical = output_bytes = 0
    problems = []
    for out in outcomes:
        if out.error:
            issues = [out.error.strip().splitlines()[-1]]
        elif out.label in commands:
            cmd = commands[out.label]
            code, data, _ = out.output
            output_bytes += len(data)
            issues, same = checks.check_cli(cmd.kind, cmd.p, code, data, reference[out.label])
            identical += same
        else:
            issues = checks.check_mise(out.output, reference[out.label])
        if issues:
            failed += out.ops
            problems.extend(f"{out.label}: {issue}" for issue in issues)
    return {
        "attempted": sum(out.ops for out in outcomes),
        "failed": failed,
        "problems": problems,
        "bytes_identical": identical,
        "output_bytes": output_bytes,
    }


def ops_per_second(outcomes) -> float:
    """Operations finished per second of wall time of the ``mise_sweep``
    and ``run_cli`` calls."""
    return sum(out.ops for out in outcomes) / sum(out.seconds for out in outcomes)


def workload_metrics(workload, outcomes, verdict: dict) -> dict:
    """Per-workload figures of the untraced pass, as (value, unit)."""
    by_label = {out.label: out.seconds for out in outcomes}
    unmeasured = layers.NOT_MEASURED
    cli = bool(workload.commands)
    metrics = {
        "cli.output_bytes": (verdict["output_bytes"] if cli else unmeasured, "bytes"),
        "cli.bytes_identical": (verdict["bytes_identical"] if cli else unmeasured, "count"),
        "error_rate": (verdict["failed"] / verdict["attempted"], "ratio"),
    }
    for cmd in workloads.WORKLOADS["cli_large"].commands:
        metrics[cmd.label] = (by_label.get(cmd.label, unmeasured), "s")
    return metrics


# ---------------------------------------------------------------------------
# entry point


def _fmt(value, unit):
    return f"{value:.6g} {unit}"


def _write_results(name: str, payload: dict, tracer) -> Path:
    results = WORK_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{name}.json"
    path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    if tracer is not None:
        with gzip.open(results / f"{name}.spans.jsonl.gz", "wt", encoding="utf-8") as handle:
            for span in tracer.spans:
                handle.write(json.dumps(span.as_record()) + "\n")
    return path


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "specmeasure" / "__init__.py").is_file():
        print(f"perfbench: no library sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = workloads.WORKLOADS[args.workload]
    input_seed = workloads.input_seed(args.seed)
    try:
        reference = checks.load_reference(workload.name)["input_seeds"][str(input_seed)]
    except (OSError, KeyError) as exc:
        print(f"perfbench: no reference for input seed {input_seed}: {exc}", file=sys.stderr)
        return 2

    import specmeasure

    if SRC.resolve() not in Path(specmeasure.__file__).resolve().parents:
        print(f"perfbench: specmeasure imported from {specmeasure.__file__}", file=sys.stderr)
        return 2

    env = environment()
    setup = setup_seconds(workload.name)
    workdir = WORK_DIR / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        untraced, traced, tracer, peak_mb = measure(workload, args.seed, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    verdict = evaluate(workload, untraced, reference)
    seconds = sum(out.seconds for out in untraced)
    e2e = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (ops_per_second(untraced), "1/s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    per_layer = workload_metrics(workload, untraced, verdict)
    attempted, failed, problems = verdict["attempted"], verdict["failed"], verdict["problems"]
    if traced is not None:
        traced_verdict = evaluate(workload, traced, reference)
        attempted += traced_verdict["attempted"]
        failed += traced_verdict["failed"]
        problems += [f"traced {p}" for p in traced_verdict["problems"]]
        traced_seconds = sum(out.seconds for out in traced)
        per_layer["trace.overhead"] = (traced_seconds / seconds - 1.0, "ratio")
        per_layer.update(layers.span_metrics(tracer))

    print(f"# workload = {workload.name}: {workload.why}")
    print(f"# seed = {args.seed} (input seed {input_seed} of {workloads.POOL})")
    print(f"# seconds = {args.seconds} (nominal; work is fixed by counts)")
    for key, value in env.items():
        print(f"# env {key} = {value}")
    print(f"# setup samples = {', '.join(f'{s:.4f}' for s in setup)}")
    for out in untraced:
        print(f"# op {out.label}: {out.seconds:.4f} s, {out.ops} ops, {out.rows} rows")
    for problem in problems:
        print(f"# FAILED {problem}")
    print(f"# error_rate = {verdict['failed']}/{verdict['attempted']} (untraced pass)")
    for name, (value, unit) in e2e.items():
        print(f"{name} = {_fmt(value, unit)}")
    for name, (value, unit) in per_layer.items():
        note = "  (not measured)" if value == layers.NOT_MEASURED else ""
        print(f"{name} = {_fmt(value, unit)}{note}")
    if tracer is not None:
        for ref in tracer.absent:
            print(f"# absent trace target {ref}")
        print(f"# spans = {len(tracer.spans)}")

    shown = per_layer if args.trace else e2e
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in shown.items()}
    results = _write_results(
        f"{workload.name}-seed{args.seed}-trace{args.trace}",
        {
            "env": env,
            "seed": args.seed,
            "input_seed": input_seed,
            "setup_samples": setup,
            "ops": [(out.label, out.seconds, out.ops, out.rows) for out in untraced],
            "end_to_end": e2e,
            "per_layer": per_layer,
            "absent": tracer.absent if tracer is not None else [],
            "problems": problems,
        },
        tracer,
    )
    print(f"# results written to {results.relative_to(ROOT)}")
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
