"""Tests of the benchmark itself; run with ``python -m pytest bench``."""

from __future__ import annotations

import json
import os
import re
from fractions import Fraction

import pytest

import metrics
import run
import tracing
import workloads

BENCHMARK_JSON = os.path.join(run.ROOT, "BENCHMARK.json")


@pytest.fixture(scope="module")
def pm():
    return run.load_program()


def _tracer_with_spans(spans):
    """A tracer holding (name, job, parent, start, end) spans, all closed."""
    tracer = tracing.Tracer()
    ids = {}
    for name, job, parent, start, end in spans:
        if name not in ids:
            ids[name] = tracer.name_id(name)
        tracer.span_name.append(ids[name])
        tracer.span_job.append(job)
        tracer.span_parent.append(parent)
        tracer.span_start.append(start)
        tracer.span_end.append(end)
    return tracer


def test_self_times_subtract_direct_children_only():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9].
    spans = [
        ("machines.promise_check", 0, -1, 0.0, 10.0),
        ("machines.enumerate_instances", 0, 0, 1.0, 4.0),
        ("constructions.evenodd_dfa", 0, 1, 2.0, 3.0),
        ("machines.dfa_run", 0, 0, 5.0, 9.0),
        ("machines.dfa_run", 1, -1, 20.0, 20.5),
    ]
    tracer = _tracer_with_spans(spans)
    assert tracing.self_times(
        tracer.span_start, tracer.span_end, tracer.span_parent, 0, 5
    ) == [3.0, 2.0, 1.0, 4.0, 0.5]
    summary = tracing.summarize(tracer, 0, 5)
    assert summary.self_s["machines.dfa_run"] == 4.5
    assert summary.incl_s["machines.promise_check"] == 10.0
    assert summary.calls["machines.dfa_run"] == 2
    # A job's self times add up to the time its outermost spans cover.
    assert summary.job_self_s == {0: 10.0, 1: 0.5}


def test_self_times_of_a_later_pass_use_its_own_range():
    spans = [
        ("machines.dfa_run", 0, -1, 0.0, 1.0),
        ("machines.promise_check", 0, -1, 2.0, 6.0),
        ("machines.dfa_run", 0, 1, 3.0, 4.0),
    ]
    tracer = _tracer_with_spans(spans)
    summary = tracing.summarize(tracer, 1, 3)
    assert summary.self_s == {"machines.promise_check": 3.0, "machines.dfa_run": 1.0}


def test_wrapped_calls_nest_count_work_and_errors(pm):
    tracer = tracing.Tracer()
    tracer.install(pm)
    try:
        tracer.active = True
        tracer.job = 7
        dfa = pm.constructions.evenodd_dfa(1)
        report = pm.machines.promise_check(dfa, pm.constructions.evenodd_problem(1), 8)
        with pytest.raises(pm.machines.InputDomainError):
            pm.machines.dfa_run(dfa, "b")
        tracer.active = False
    finally:
        tracer.uninstall()
    names = [tracer.names[i] for i in tracer.span_name]
    assert names.count("machines.promise_check") == 1
    assert names.count("machines.dfa_run") == report.measured["instances"] + 1
    assert "machines.enumerate_instances" in names
    check = names.index("machines.promise_check")
    runs = [i for i, n in enumerate(names) if n == "machines.machine_accepts"]
    assert all(tracer.span_parent[i] == check for i in runs)
    assert set(tracer.span_job) == {7}
    assert tracer.work[("machines.promise_check", "instances")] == 5
    assert tracer.errors == {"machines": 1}
    # Uninstalling restores every binding, including imported names.
    assert pm.boundslab.promise_check is pm.machines.promise_check
    assert not hasattr(pm.machines.promise_check, "__wrapped__")


def test_prefix_sharing_counts_only_earlier_words_of_the_same_job():
    words = [(0, "aaaa"), (0, "aab"), (0, "aaaa"), (1, "aaaa"), (0, "b")]
    # job 0: 0 + 2 + 4 + 0 shared of 4 + 3 + 4 + 1; job 1: 0 of 4.
    assert tracing.prefix_shared_frac(words) == pytest.approx(6 / 16)


def test_metric_names_are_valid_and_match_benchmark_json():
    pattern = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    names = [m.name for m in (*metrics.END_TO_END, *metrics.PER_LAYER)]
    assert len(names) == len(set(names))
    assert all(pattern.fullmatch(name) for name in names)
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        declared = json.load(handle)
    assert declared["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in metrics.END_TO_END
    ]
    assert declared["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in metrics.PER_LAYER
    ]
    assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_job_list_depends_on_the_seed_alone(workload):
    first = workloads.build_jobs(workload, 11)
    assert workloads.digest(first) == workloads.digest(workloads.build_jobs(workload, 11))
    assert workloads.digest(first) != workloads.digest(workloads.build_jobs(workload, 12))
    assert len(first) >= 100


def _first(jobs, kind, predicate=lambda params: True):
    return next(job for job in jobs if job.kind == kind and predicate(job.params))


def test_checks_accept_right_answers_and_flag_injected_wrong_ones(pm):
    sweep = workloads.build_jobs("sweep", 3)
    long = workloads.build_jobs("long", 3)
    search = workloads.build_jobs("search", 3)
    cases = [
        (_first(sweep, "evenodd_check", lambda p: p[1] == p[2]), lambda r: ("fails", *r[1:])),
        (
            _first(sweep, "evenodd_check", lambda p: p[1] != p[2]),
            lambda r: (r[0], ("a", "no", "accept"), r[2]),
        ),
        (_first(sweep, "trios_check"), lambda r: (r[0], r[1], {"instances": 1})),
        (
            _first(sweep, "lasvegas", lambda p: p[2] == "bound"),
            lambda r: (r[0], r[1], {**r[2], "min_success": Fraction(1, 7)}),
        ),
        (_first(sweep, "lasvegas", lambda p: p[2] == "above"), lambda r: ("solves", None, r[2])),
        (_first(long, "dfa_word"), lambda r: not r),
        (_first(long, "trios_word", lambda p: p[0] == "sampler"), lambda r: (r[1], r[0])),
        (_first(long, "up_prob"), lambda r: r * Fraction(101, 100)),
        (_first(long, "nfa_word"), lambda r: not r),
        (_first(long, "nfa_to_dfa"), lambda r: (r[0] + 1, *r[1:])),
        (_first(long, "pow"), lambda r: not r),
        (_first(long, "tail"), lambda r: not r),
        (
            _first(long, "sampled", lambda p: p[0][0] == "up"),
            lambda r: type(r)(r.reject, r.accept, r.neutral),
        ),
        (_first(long, "compose"), lambda r: type(r)(r.reject, r.accept, r.neutral)),
        (_first(long, "criterion"), lambda r: (False, r[1])),
        (_first(search, "min_dfa", lambda p: p[0][0] == "trios"), lambda r: (3, r[1])),
        (_first(search, "min_unary_dfa"), lambda r: r + 1),
        (_first(search, "pumping_nfa"), lambda r: "fails" if r == "solves" else "solves"),
        (_first(search, "disjoint"), lambda r: (r[0], r[1], {**r[2], "yes": r[2]["yes"] + 1})),
    ]
    for job, corrupt in cases:
        result = workloads.run_job(pm, job)
        assert workloads.check_job(pm, job, result, {}), job
        assert not workloads.check_job(pm, job, corrupt(result), {}), job


def test_runner_counts_wrong_answers_and_exceptions_and_keeps_going(pm, monkeypatch):
    words = [job for job in workloads.build_jobs("long", 5) if job.kind == "dfa_word"]
    pumps = [job for job in workloads.build_jobs("search", 5) if job.kind == "pumping_dfa"][:3]
    # Every word job answers the opposite of the truth; every pumping job raises.
    monkeypatch.setitem(
        workloads.RUNNERS, "dfa_word", lambda pm, k, length: length % 2 ** (k + 1) != 0
    )

    def broken(pm, dfa, m):
        raise RuntimeError("injected")

    monkeypatch.setitem(workloads.RUNNERS, "pumping_dfa", broken)
    runner = run.Runner(pm, words + pumps)
    times = runner.run_pass()
    assert len(times) == runner.attempted == len(words) + len(pumps)
    assert runner.failed == len(words) + len(pumps)


def test_traced_pass_keeps_job_self_times_within_job_time(pm):
    jobs = workloads.build_jobs("sweep", 2)[:30]
    tracer = tracing.Tracer()
    runner = run.Runner(pm, jobs, tracer)
    tracer.install(pm)
    try:
        times = runner.run_pass()
    finally:
        tracer.uninstall()
    assert runner.failed == 0
    summary = tracing.summarize(tracer, 0, tracer.mark())
    for i, job in enumerate(jobs):
        assert summary.job_self_s.get(job.ident, 0.0) <= times[i] + 1e-9
