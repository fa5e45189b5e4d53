"""Trace targets for the package modules and the per-layer metrics
computed from their spans."""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

from tracer import Target, Tracer

#: value of a metric that was not measured: its traced names no longer
#: exist, or the workload has no samples for it
NOT_MEASURED = -1.0


def _norm_path(p) -> str:
    if p == 1.0:
        return "p1"
    if math.isinf(p):
        return "pinf"
    return "p2" if float(p).is_integer() else "pfrac"


def _selection(args, kwargs, result):
    return {"path": _norm_path(result.p), "members": result.n_members}


def _ties(args, kwargs, result):
    return {"ties": bool(result.tie_flag)}


def _evals(args, kwargs, result):
    return {"evals": result.iterations}


def _points(args, kwargs, result):
    theta = args[1] if len(args) > 1 else kwargs["theta"]
    return {"points": int(getattr(theta, "size", 1))}


def _targets(layer, refs, **options):
    return [Target(ref, layer, **options) for ref in refs]


#: each layer is wrapped under every name its callers look it up by
TARGETS = (
    *_targets("cli.run_cli", ["specmeasure.cli:run_cli"], op_root=True),
    *_targets("evaluation.replication_ise", ["specmeasure.evaluation:replication_ise"], op_root=True),
    *_targets("pseudo_obs.read_sample", ["specmeasure.cli:read_sample"]),
    *_targets(
        "pseudo_obs.pseudo_observations",
        ["specmeasure.cli:pseudo_observations", "specmeasure.evaluation:pseudo_observations"],
        annotate=_ties,
    ),
    *_targets(
        "empirical.select_extremes",
        ["specmeasure.cli:select_extremes", "specmeasure.evaluation:select_extremes"],
        annotate=_selection,
    ),
    *_targets(
        "empirical.empirical_spectral_measure",
        [
            "specmeasure.cli:empirical_spectral_measure",
            "specmeasure.evaluation:empirical_spectral_measure",
        ],
    ),
    *_targets(
        "mele.solve_multiplier",
        ["specmeasure.cli:solve_multiplier", "specmeasure.mele:solve_multiplier"],
        annotate=_evals,
    ),
    *_targets(
        "mele.mele_spectral_measure",
        ["specmeasure.cli:mele_spectral_measure", "specmeasure.evaluation:mele_spectral_measure"],
    ),
    *_targets("models.sample", ["specmeasure.models:SpectralModel.sample"]),
    *_targets(
        "models.cdf_continuous", ["specmeasure.models:SpectralModel.cdf_continuous"], annotate=_points
    ),
    *_targets("quadrature.cumulative_integral", ["specmeasure.models:cumulative_integral"]),
    *_targets(
        "quadrature.adaptive_simpson",
        ["specmeasure.quadrature:adaptive_simpson", "specmeasure.models:adaptive_simpson"],
        count_integrand=True,
    ),
    *_targets(
        "evaluation.integrated_squared_error", ["specmeasure.evaluation:integrated_squared_error"]
    ),
    *_targets("pickands.spectral_to_H", ["specmeasure.cli:spectral_to_H"]),
    *_targets("pickands.pickands_function", ["specmeasure.cli:pickands_function"]),
)

#: per-layer metric name -> (unit, layer whose absence makes it unmeasured)
SPAN_METRICS = {
    "pseudo_obs.read_sample.s": ("s", "pseudo_obs.read_sample"),
    "pseudo_obs.pseudo_observations.s": ("s", "pseudo_obs.pseudo_observations"),
    "pseudo_obs.pseudo_observations.ties_s": ("s", "pseudo_obs.pseudo_observations"),
    "pseudo_obs.pseudo_observations.calls": ("count", "pseudo_obs.pseudo_observations"),
    "empirical.select_extremes.p1.s": ("s", "empirical.select_extremes"),
    "empirical.select_extremes.p2.s": ("s", "empirical.select_extremes"),
    "empirical.select_extremes.pfrac.s": ("s", "empirical.select_extremes"),
    "empirical.select_extremes.pinf.s": ("s", "empirical.select_extremes"),
    "empirical.select_extremes.self_s": ("s", "empirical.select_extremes"),
    "empirical.select_extremes.calls": ("count", "empirical.select_extremes"),
    "empirical.select_extremes.members": ("count", "empirical.select_extremes"),
    "empirical.empirical_spectral_measure.self_s": ("s", "empirical.empirical_spectral_measure"),
    "mele.solve_multiplier.self_s": ("s", "mele.solve_multiplier"),
    "mele.solve_multiplier.evals": ("count", "mele.solve_multiplier"),
    "mele.fits": ("count", "mele.solve_multiplier"),
    "mele.infeasible_ratio": ("ratio", "mele.solve_multiplier"),
    "mele.mele_spectral_measure.self_s": ("s", "mele.mele_spectral_measure"),
    "models.sample.self_s": ("s", "models.sample"),
    "models.cdf_continuous.self_s": ("s", "models.cdf_continuous"),
    "models.cdf_continuous.points": ("count", "models.cdf_continuous"),
    "quadrature.cumulative_integral.self_s": ("s", "quadrature.cumulative_integral"),
    "quadrature.adaptive_simpson.calls": ("count", "quadrature.adaptive_simpson"),
    "quadrature.integrand_evals": ("count", "quadrature.adaptive_simpson"),
    "evaluation.integrated_squared_error.self_s": ("s", "evaluation.integrated_squared_error"),
    "evaluation.replication_ise.p50_s": ("s", "evaluation.replication_ise"),
    "evaluation.replication_ise.p90_s": ("s", "evaluation.replication_ise"),
    "pickands.spectral_to_H.s": ("s", "pickands.spectral_to_H"),
    "pickands.pickands_function.s": ("s", "pickands.pickands_function"),
    "cli.run_cli.self_s": ("s", "cli.run_cli"),
}


def absent_layers(tracer: Tracer) -> set:
    """Layers with a name that could not be wrapped and no recorded call.

    Once a caller stops looking a function up by a wrapped name (the
    name moved or was deleted), that caller's calls go untraced, so a
    zero from the remaining names would not be a measured zero.
    """
    seen = {span.layer for span in tracer.spans}
    seen.update(key.removesuffix(".calls") for key, n in tracer.counters.items() if n)
    absent = set(tracer.absent)
    return {t.layer for t in TARGETS if t.ref in absent and t.layer not in seen}


def span_metrics(tracer: Tracer) -> dict:
    """Per-layer values from the spans and counters of one traced pass."""
    total = defaultdict(float)
    own = defaultdict(float)
    calls = defaultdict(int)
    extra = defaultdict(float)
    durations = defaultdict(list)
    for span, self_s in zip(tracer.spans, tracer.self_times()):
        seconds = span.end - span.start
        layer = span.layer
        total[layer] += seconds
        own[layer] += self_s
        calls[layer] += 1
        durations[layer].append(seconds)
        info = span.info or {}
        if info.get("ties"):
            extra["ties_s"] += seconds
        if "path" in info:
            extra[info["path"]] += seconds
            extra["members"] += info["members"]
        extra["evals"] += info.get("evals", 0)
        extra["points"] += info.get("points", 0)
        extra["infeasible"] += info.get("raised") == "ConstraintInfeasible"

    reps = sorted(durations["evaluation.replication_ise"])
    fits = calls["mele.solve_multiplier"]
    values = {
        "pseudo_obs.read_sample.s": total["pseudo_obs.read_sample"],
        "pseudo_obs.pseudo_observations.s": total["pseudo_obs.pseudo_observations"],
        "pseudo_obs.pseudo_observations.ties_s": extra["ties_s"],
        "pseudo_obs.pseudo_observations.calls": calls["pseudo_obs.pseudo_observations"],
        "empirical.select_extremes.self_s": own["empirical.select_extremes"],
        "empirical.select_extremes.calls": calls["empirical.select_extremes"],
        "empirical.select_extremes.members": extra["members"],
        "empirical.empirical_spectral_measure.self_s": own["empirical.empirical_spectral_measure"],
        "mele.solve_multiplier.self_s": own["mele.solve_multiplier"],
        "mele.solve_multiplier.evals": extra["evals"],
        "mele.fits": fits,
        "mele.infeasible_ratio": extra["infeasible"] / fits if fits else 0.0,
        "mele.mele_spectral_measure.self_s": own["mele.mele_spectral_measure"],
        "models.sample.self_s": own["models.sample"],
        "models.cdf_continuous.self_s": own["models.cdf_continuous"],
        "models.cdf_continuous.points": extra["points"],
        "quadrature.cumulative_integral.self_s": own["quadrature.cumulative_integral"],
        "quadrature.adaptive_simpson.calls": tracer.counters.get("quadrature.adaptive_simpson.calls", 0),
        "quadrature.integrand_evals": tracer.counters.get("quadrature.integrand_evals", 0),
        "evaluation.integrated_squared_error.self_s": own["evaluation.integrated_squared_error"],
        "evaluation.replication_ise.p50_s": statistics.median(reps) if reps else NOT_MEASURED,
        "evaluation.replication_ise.p90_s": (
            statistics.quantiles(reps, n=10)[-1] if len(reps) >= 100 else NOT_MEASURED
        ),
        "pickands.spectral_to_H.s": total["pickands.spectral_to_H"],
        "pickands.pickands_function.s": total["pickands.pickands_function"],
        "cli.run_cli.self_s": own["cli.run_cli"],
    }
    for path in ("p1", "p2", "pfrac", "pinf"):
        values[f"empirical.select_extremes.{path}.s"] = extra[path]
    missing = absent_layers(tracer)
    return {
        name: (NOT_MEASURED if layer in missing else float(values[name]), unit)
        for name, (unit, layer) in SPAN_METRICS.items()
    }
