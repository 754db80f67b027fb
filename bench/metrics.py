"""Metric names, units and how each is computed from a run's measurements.

``END_TO_END`` and ``PER_LAYER`` are the lists BENCHMARK.json declares; a
run prints exactly one of them. METRICS.md records which end-to-end metric,
on which workload, each layer metric should move. A layer a workload never
calls reports 0.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

from tracing import LAYERS


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None


END_TO_END = (
    Metric("wall_s", "s", "lower", 0.25),
    Metric("job_p50_ms", "ms", "lower", 0.25),
    Metric("job_p90_ms", "ms", "lower", 0.25),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.1),
)

PER_LAYER = (
    Metric("acceptance.c7_s", "s", "lower"),
    Metric("machines.promise_check.self_s", "s", "lower"),
    Metric("machines.promise_check.calls", "count", "lower"),
    Metric("machines.promise_check.instances_per_s", "1/s", "higher"),
    Metric("machines.enumerate_instances.self_s", "s", "lower"),
    *(
        Metric(f"machines.{sim}.us_per_symbol", "us/symbol", "lower")
        for sim in ("dfa_run", "nfa_accepts", "afa_accepts", "twoway_accepts")
    ),
    Metric("machines.prefix_shared_frac", "ratio", "higher"),
    Metric("constructions.build.self_s", "s", "lower"),
    Metric("constructions.build.calls", "count", "lower"),
    Metric("conversions.nfa_to_dfa.self_s", "s", "lower"),
    Metric("conversions.nfa_to_dfa.states_per_s", "1/s", "higher"),
    Metric("conversions.dfa_minimize.self_s", "s", "lower"),
    Metric("conversions.dfa_minimize.input_states", "count", "lower"),
    Metric("conversions.dfa_equivalent.self_s", "s", "lower"),
    Metric("conversions.unary_afa_to_dfa.self_s", "s", "lower"),
    Metric("probabilistic.outcome_dist.self_s", "s", "lower"),
    Metric("probabilistic.outcome_dist.calls", "count", "lower"),
    Metric("probabilistic.lasvegas_success.instances_per_s", "1/s", "higher"),
    Metric("probabilistic.outcome_dist.us_per_symbol", "us/symbol", "lower"),
    Metric("probabilistic.monte_carlo.self_s", "s", "lower"),
    Metric("probabilistic.monte_carlo.trials_per_s", "1/s", "higher"),
    Metric("probabilistic.expeq_compose.self_s", "s", "lower"),
    Metric("probabilistic.expeq_tail_below.self_s", "s", "lower"),
    Metric("exactmath.pow_less_than.self_s", "s", "lower"),
    Metric("exactmath.pow_less_than.calls", "count", "lower"),
    Metric("boundslab.min_dfa_size.candidates", "count", "lower"),
    Metric("boundslab.min_unary_nfa_size.candidates", "count", "lower"),
    Metric("boundslab.min_dfa_size.candidates_per_s", "1/s", "higher"),
    Metric("boundslab.min_unary_nfa_size.candidates_per_s", "1/s", "higher"),
    Metric("boundslab.min_unary_dfa_size.self_s", "s", "lower"),
    Metric("boundslab.pumping_check.self_s", "s", "lower"),
    Metric("boundslab.disjointness_check.words_per_s", "1/s", "higher"),
    Metric("serialize.roundtrip.self_s", "s", "lower"),
    Metric("serialize.bytes", "bytes", "lower"),
    Metric("cli.import_s", "s", "lower"),
    Metric("cli.cold_start_s", "s", "lower"),
    *(Metric(f"{layer}.errors", "count", "lower") for layer in LAYERS),
    Metric("trace.overhead_frac", "ratio", "lower"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def best_times(passes: list[list[float]]) -> list[float]:
    """Each job's fastest time over the run's passes.

    On a shared machine speed can drift by up to 1.9x over tens of seconds
    (measured on a 2-CPU Linux container); a job's fastest time is far
    steadier from run to run than its mean or median.
    """
    return [min(times) for times in zip(*passes)]


def end_to_end(passes: list[list[float]], *, setup_s, peak_rss_mb) -> dict:
    """wall_s sums the jobs' fastest times; the percentiles are over jobs."""
    best = best_times(passes)
    return {
        "wall_s": sum(best),
        "job_p50_ms": statistics.median(best) * 1e3,
        "job_p90_ms": statistics.quantiles(best, n=10)[8] * 1e3,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }


def _layer_values(summary, work: dict) -> dict:
    """Per-layer figures of one traced pass."""
    self_s, incl_s, calls = summary.self_s, summary.incl_s, summary.calls

    def w(name: str, key: str) -> int:
        return work.get((name, key), 0)

    def layer_self(prefix: str) -> float:
        return sum((v for k, v in self_s.items() if k.startswith(prefix)), 0.0)

    out = {
        "machines.promise_check.self_s": self_s.get("machines.promise_check", 0.0),
        "machines.promise_check.calls": calls.get("machines.promise_check", 0),
        "machines.promise_check.instances_per_s": _ratio(
            w("machines.promise_check", "instances"), incl_s.get("machines.promise_check", 0.0)
        ),
        "machines.enumerate_instances.self_s": self_s.get("machines.enumerate_instances", 0.0),
        "constructions.build.self_s": layer_self("constructions."),
        "constructions.build.calls": sum(
            v for k, v in calls.items() if k.startswith("constructions.")
        ),
        "conversions.nfa_to_dfa.self_s": self_s.get("conversions.nfa_to_dfa", 0.0),
        "conversions.nfa_to_dfa.states_per_s": _ratio(
            w("conversions.nfa_to_dfa", "states"), incl_s.get("conversions.nfa_to_dfa", 0.0)
        ),
        "conversions.dfa_minimize.self_s": self_s.get("conversions.dfa_minimize", 0.0),
        "conversions.dfa_minimize.input_states": w("conversions.dfa_minimize", "input_states"),
        "conversions.dfa_equivalent.self_s": self_s.get("conversions.dfa_equivalent", 0.0),
        "conversions.unary_afa_to_dfa.self_s": self_s.get("conversions.unary_afa_to_dfa", 0.0),
        "probabilistic.outcome_dist.self_s": self_s.get("probabilistic.outcome_dist", 0.0),
        "probabilistic.outcome_dist.calls": calls.get("probabilistic.outcome_dist", 0),
        "probabilistic.lasvegas_success.instances_per_s": _ratio(
            w("probabilistic.lasvegas_success", "instances"),
            incl_s.get("probabilistic.lasvegas_success", 0.0),
        ),
        "probabilistic.outcome_dist.us_per_symbol": 1e6
        * _ratio(
            self_s.get("probabilistic.outcome_dist", 0.0),
            w("probabilistic.outcome_dist", "symbols"),
        ),
        "probabilistic.monte_carlo.self_s": self_s.get("probabilistic.monte_carlo", 0.0),
        "probabilistic.monte_carlo.trials_per_s": _ratio(
            w("probabilistic.monte_carlo", "trials"), self_s.get("probabilistic.monte_carlo", 0.0)
        ),
        "probabilistic.expeq_compose.self_s": self_s.get("probabilistic.expeq_compose", 0.0),
        "probabilistic.expeq_tail_below.self_s": self_s.get("probabilistic.expeq_tail_below", 0.0),
        "exactmath.pow_less_than.self_s": self_s.get("exactmath.pow_less_than", 0.0),
        "exactmath.pow_less_than.calls": calls.get("exactmath.pow_less_than", 0),
        "boundslab.min_unary_dfa_size.self_s": self_s.get("boundslab.min_unary_dfa_size", 0.0),
        "boundslab.pumping_check.self_s": self_s.get("boundslab.pumping_check", 0.0),
        "boundslab.disjointness_check.words_per_s": _ratio(
            w("boundslab.disjointness_check", "words"),
            incl_s.get("boundslab.disjointness_check", 0.0),
        ),
        "serialize.roundtrip.self_s": layer_self("serialize."),
        "serialize.bytes": w("serialize.dumps", "bytes"),
    }
    for sim in ("dfa_run", "nfa_accepts", "afa_accepts", "twoway_accepts"):
        name = f"machines.{sim}"
        out[f"{name}.us_per_symbol"] = 1e6 * _ratio(self_s.get(name, 0.0), w(name, "symbols"))
    for search in ("min_dfa_size", "min_unary_nfa_size"):
        name = f"boundslab.{search}"
        out[f"{name}.candidates"] = w(name, "candidates")
        out[f"{name}.candidates_per_s"] = _ratio(w(name, "candidates"), incl_s.get(name, 0.0))
    return out


def per_layer(
    jobs, untraced_passes, traced_passes, *, errors, prefix_shared_frac, cli_import_s,
    cli_cold_start_s,
) -> dict:
    """Figures of the fastest traced pass, a consistent snapshot of one pass;
    every traced pass does the same work, so its counts are those of any."""
    fastest = min(traced_passes, key=lambda item: sum(item[0]))
    values = _layer_values(fastest[1], fastest[2])
    untraced_best = best_times(untraced_passes)
    c7 = [i for i, job in enumerate(jobs) if job.kind == "criterion" and job.params == (7,)]
    values["acceptance.c7_s"] = untraced_best[c7[0]] if c7 else 0.0
    for metric in PER_LAYER:
        if metric.name.endswith(".errors"):
            values[metric.name] = errors.get(metric.name.split(".")[0], 0)
    values["machines.prefix_shared_frac"] = prefix_shared_frac
    values["cli.import_s"] = cli_import_s
    values["cli.cold_start_s"] = cli_cold_start_s
    traced_best = best_times([times for times, _, _ in traced_passes])
    values["trace.overhead_frac"] = sum(traced_best) / sum(untraced_best) - 1
    return values
