"""Self-tests of the benchmark (not part of the library's test suite).

    python3 -m pytest -q perfbench/tests
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402  (pins the thread variables before numpy loads)

sys.path.insert(0, str(run.SRC))

import checks  # noqa: E402
import layers  # noqa: E402
import specmeasure  # noqa: E402
import workloads  # noqa: E402
from tracer import Target, Tracer, _resolve  # noqa: E402


def _bindings(targets):
    """What every target name is bound to right now, owner by owner."""
    state = {}
    for target in targets:
        owner, attr = _resolve(target.ref)
        state[target.ref] = (attr in vars(owner), vars(owner).get(attr))
    return state


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_workload_passes_its_checks(name, tmp_path):
    workload = workloads.tiny(workloads.WORKLOADS[name])
    reference = run.record(workload, run.measure(workload, 5, False, tmp_path)[0])
    before = _bindings(layers.TARGETS)
    untraced, traced, tracer, peak_mb = run.measure(workload, 5, True, tmp_path)
    assert _bindings(layers.TARGETS) == before
    for outcomes in (untraced, traced):
        verdict = run.evaluate(workload, outcomes, reference)
        assert verdict["attempted"] > 0
        assert verdict["failed"] == 0, verdict["problems"]
    assert peak_mb > 0
    assert tracer.absent == []
    metrics = layers.span_metrics(tracer)
    assert set(metrics) == set(layers.SPAN_METRICS)
    if workload.mise:
        assert metrics["empirical.select_extremes.calls"][0] > 0
        assert metrics["mele.solve_multiplier.evals"][0] > 0
        assert metrics["pseudo_obs.read_sample.s"][0] == 0.0
    else:
        assert metrics["pseudo_obs.read_sample.s"][0] > 0
        assert metrics["pickands.pickands_function.s"][0] > 0
        assert metrics["evaluation.replication_ise.p50_s"][0] == layers.NOT_MEASURED
    if name == "mise_quadrature":
        assert metrics["quadrature.integrand_evals"][0] > 0


def test_wrappers_restored_when_traced_code_raises():
    before = _bindings(layers.TARGETS)
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed(layers.TARGETS):
            assert _bindings(layers.TARGETS) != before
            raise RuntimeError("boom")
    assert _bindings(layers.TARGETS) == before


def test_absent_names_are_reported_and_the_run_continues():
    missing = [
        Target("specmeasure.quadrature:no_such_function", "quadrature.gone"),
        Target("specmeasure.no_such_module:f", "nowhere.f"),
        Target("specmeasure.models:SpectralModel.no_such_method", "models.gone"),
    ]
    tracer = Tracer()
    with tracer.installed([*missing, *layers.TARGETS]):
        specmeasure.mise_sweep(specmeasure.cauchy_quadrant_model(), 200, 2, [20], seed=1)
    assert tracer.absent == [t.ref for t in missing]
    assert any(span.layer == "evaluation.replication_ise" for span in tracer.spans)

    tracer = Tracer()
    tracer.absent = ["specmeasure.models:cumulative_integral"]
    metrics = layers.span_metrics(tracer)
    assert metrics["quadrature.cumulative_integral.self_s"][0] == layers.NOT_MEASURED
    assert metrics["models.cdf_continuous.self_s"][0] == 0.0


def test_layers_whose_cli_names_moved_are_not_measured(tmp_path, monkeypatch):
    """If the CLI pipeline moves out of ``specmeasure.cli``, the
    ``specmeasure.evaluation`` names of the same functions remain; the
    layers the CLI used then report not measured, not zero."""
    moved = [
        dataclasses.replace(target, ref=target.ref.replace(":", ":moved_"))
        if target.ref.startswith("specmeasure.cli:") and target.layer != "cli.run_cli"
        else target
        for target in layers.TARGETS
    ]
    monkeypatch.setattr(layers, "TARGETS", tuple(moved))
    workload = workloads.tiny(workloads.WORKLOADS["cli_large"])
    tracer = run.measure(workload, 5, True, tmp_path)[2]
    assert tracer.absent and all(ref.startswith("specmeasure.cli:moved_") for ref in tracer.absent)
    metrics = layers.span_metrics(tracer)
    for name in (
        "pseudo_obs.read_sample.s",
        "pseudo_obs.pseudo_observations.s",
        "pseudo_obs.pseudo_observations.calls",
        "empirical.select_extremes.p1.s",
        "empirical.select_extremes.p2.s",
        "empirical.select_extremes.pfrac.s",
        "empirical.select_extremes.pinf.s",
        "empirical.select_extremes.members",
        "pickands.spectral_to_H.s",
        "pickands.pickands_function.s",
    ):
        assert metrics[name][0] == layers.NOT_MEASURED, name
    assert metrics["cli.run_cli.self_s"][0] > 0


def test_mise_check_rejects_a_shifted_truth_cdf():
    model = specmeasure.asym_logistic_model(2.0)
    grid = (20, 40)
    reference = checks.mise_reference(specmeasure.mise_sweep(model, 300, 3, grid, seed=1))

    def check(truth):
        return checks.check_mise(specmeasure.mise_sweep(truth, 300, 3, grid, seed=1), reference)

    assert check(model) == []
    # a 1e-10 truth change, the size closed forms replacing quadrature make, passes
    assert check(dataclasses.replace(model, atom_zero=1e-10)) == []
    problems = check(dataclasses.replace(model, atom_zero=1e-4))
    assert any(problem.startswith("mise differs") for problem in problems)


def test_benchmark_json_names_what_the_harness_prints():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    workload = workloads.WORKLOADS["cli_large"]
    outcomes = [workloads.Outcome("estimate_s.p1", 1.0, 1, 10)]
    verdict = {"attempted": 1, "failed": 0, "output_bytes": 0, "bytes_identical": 0}
    per_layer = {
        name: unit for name, (value, unit) in run.workload_metrics(workload, outcomes, verdict).items()
    }
    per_layer["trace.overhead"] = "ratio"
    per_layer.update({name: unit for name, (unit, layer) in layers.SPAN_METRICS.items()})
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer
