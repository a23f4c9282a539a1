"""Self-tests of the benchmark harness: percentile rule, self time, metric
names, binding restoration, and coverage / determinism of traced runs.

Run from the root of a checkout with ``python3 -m pytest -q perfbench/tests``.
"""

import json
import os
import re

import pytest

import report
import harness
import tracing
import workloads
from tracing import Span, Tracer

_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


# -- round_s.tail --------------------------------------------------------------


def test_tail_keeps_ten_samples_beyond():
    samples = list(range(1, 26))  # 25 samples, shuffled order must not matter
    value, pct, n = report.tail(samples[::-1])
    assert (value, n) == (15, 25)
    assert sum(x > value for x in samples) == 10
    assert pct == pytest.approx(100 * 14 / 24)


def test_tail_at_eleven_samples_is_the_minimum():
    assert report.tail(range(11)) == (0, 0.0, 11)


def test_tail_with_ten_or_fewer_samples_reports_the_maximum():
    assert report.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    assert report.tail([5.0]) == (5.0, 100.0, 1)
    assert report.tail(range(10)) == (9, 100.0, 10)


def test_tail_rejects_no_samples():
    with pytest.raises(ValueError):
        report.tail([])


# -- self time -----------------------------------------------------------------


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("root", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 4.0, 0, 0),  # overlaps its sibling b on [3, 4]
        Span("a.child", 2.0, 3.0, 1, 0),
        Span("b", 3.0, 6.0, 0, 0),
        Span("c", 7.0, 8.0, 0, 0),  # disjoint sibling
        Span("other-root", 20.0, 21.0, -1, 1),
    ]
    assert tracing.self_times(spans) == pytest.approx([4.0, 2.0, 1.0, 3.0, 1.0, 1.0])


def test_self_time_clips_children_to_the_parent():
    spans = [Span("p", 0.0, 2.0, -1, 0), Span("c", 1.0, 5.0, 0, 0)]
    assert tracing.self_times(spans)[0] == pytest.approx(1.0)


def test_layer_totals_sum_by_name():
    spans = [Span("p", 0.0, 4.0, -1, 0), Span("c", 0.0, 1.0, 0, 0, {"iters": 3}),
             Span("c", 2.0, 3.0, 0, 0, {"iters": 4})]
    totals = tracing.layer_totals(spans)
    assert totals["p"] == {"self_s": pytest.approx(2.0), "calls": 1}
    assert totals["c"] == {"self_s": pytest.approx(2.0), "calls": 2, "iters": 7}


# -- metric names ----------------------------------------------------------------


def _benchmark_json():
    with open(os.path.join(_ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_metric_names_are_well_formed_and_unique():
    names = [n for n, _, _ in report.END_TO_END + report.PER_LAYER]
    assert len(names) == len(set(names))
    assert all(_NAME.match(n) for n in names), [n for n in names if not _NAME.match(n)]


def test_benchmark_json_lists_exactly_the_reported_metrics():
    spec = _benchmark_json()
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == \
        report.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        report.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for m in spec["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
    for w in spec["workloads"]:
        assert _NAME.match(w["name"]) and len(w["why"]) <= 200


# -- wrappers --------------------------------------------------------------------


def test_install_patches_every_binding_and_restore_puts_them_back():
    from detmc import graphs, pgd, sampling, scaled_pgd, theory

    fns = [fn for fn, _, _ in tracing.traced_functions()]
    before = [(m, a, getattr(m, a)) for m, a in tracing.bindings(fns)]
    # a function imported by name into another module is one binding each
    names = {(m.__name__, a) for m, a, _ in before}
    assert {("detmc.theory", "certify"), ("detmc.pgd", "observed_residual"),
            ("detmc.scaled_pgd", "observed_residual")} <= names
    residual, certify = sampling.observed_residual, graphs.certify
    tracer = Tracer()
    assert tracer.install() == len(before)
    try:
        assert all(getattr(m, a) is not value for m, a, value in before)
        assert theory.certify.__wrapped__ is certify
        assert pgd.observed_residual.__wrapped__ is residual
        assert scaled_pgd.observed_residual.__wrapped__ is residual
    finally:
        tracer.restore()
    assert all(getattr(m, a) is value for m, a, value in before)


def test_restore_runs_when_a_traced_op_raises():
    import numpy as np
    from detmc import graphs, sampling
    from detmc.errors import ParameterError

    original = sampling.observed_residual
    obs = sampling.observe(np.ones((4, 4)), graphs.random_biregular(4, 4, 2, seed=0))
    tracer = Tracer()
    tracer.install()
    try:
        with pytest.raises(ParameterError):
            sampling.observed_residual(np.ones((3, 1)), np.ones((4, 1)), obs)
    finally:
        tracer.restore()
    assert sampling.observed_residual is original
    assert tracer.spans[-1].end >= tracer.spans[-1].start


# -- traced rounds: coverage and determinism ----------------------------------------


def _traced_round(workload, tmp_path):
    workload.setup(str(tmp_path))
    tracer = Tracer()
    tracer.install()
    try:
        one = harness.Pass(workload, 1, tracer)
    finally:
        tracer.restore()
    values, coverage = report.per_layer(tracer.spans, one.rounds, 0.0)
    return one, values, coverage


_COUNTS = re.compile(r"\.(calls|iters|max_iter_hits|raised|calls_per_graph)$")


def _small_library():
    return workloads.Library(7, parts=[
        workloads.Phase(7, n=256, ops=((0, 12), (0, 16)), max_iter=60),
        workloads.Table(7, n=64, ops=((0, 16),), ialm_max_iter=30, factored_max_iter=60),
    ])


def test_rounds_interleave_the_kinds(tmp_path):
    workload = _small_library()
    workload.setup(str(tmp_path))
    assert workload.ops == [("phase", (0, 12)), ("table", (0, 16)), ("phase", (0, 16))]
    assert [workload.kind(op).name for op in workload.ops] == ["phase", "table", "phase"]


def test_traced_counts_cover_every_solve_and_repeat_exactly(tmp_path):
    first, values, coverage = _traced_round(_small_library(), tmp_path)
    assert not first.failures
    assert harness._check_coverage(_small_library(), first, coverage) == []
    assert coverage["residual_calls_in_solves"] == coverage["solve_iters_plus_one"] > 0
    second, again, _ = _traced_round(_small_library(), tmp_path)
    counts = {k: v for k, v in values.items() if _COUNTS.search(k)}
    assert counts == {k: v for k, v in again.items() if _COUNTS.search(k)}
    signature = harness._signature_of
    assert signature(first.outcomes[0]) == signature(second.outcomes[0])


def test_theory_ops_certify_six_times_each(tmp_path):
    workload = workloads.Cli(3, parts=[workloads.TheoryLps(3, trials=2, ops_per_round=1)])
    done, values, coverage = _traced_round(workload, tmp_path)
    assert not done.failures
    assert coverage["certify_calls_by_op"] == {0: 6}
    assert values["graphs.certify.calls_per_graph"] == 6
    assert harness._check_coverage(workload, done, coverage) == []
    coverage["certify_calls_by_op"] = {0: 5}  # a binding the tracer missed
    assert harness._check_coverage(workload, done, coverage) == [
        "5 certify calls in theory-lps op 0, expected 6"]


def test_a_pass_stops_before_a_round_that_would_end_past_its_deadline(tmp_path):
    workload = _small_library()
    workload.setup(str(tmp_path))
    cut = harness.Pass(workload, 5, deadline=0.0)
    assert cut.rounds == 1 and cut.attempted == len(workload.ops)


def test_blind_false_stop_is_a_failed_op_that_still_counts(tmp_path):
    workload = workloads.Cli(5, parts=[workloads.CompleteBlind(
        5, n=128, d=16, r=2, kappa=1.0, max_iter=3)])
    workload.setup(str(tmp_path))
    one = harness.Pass(workload, 1)
    assert len(one.failures) == 1 and "observed residual" in one.failures[0]
    (outcome,) = one.flat_outcomes()
    assert outcome.max_iter_hit and not outcome.recovered


def test_blind_oracle_flags_the_known_silent_false_stop(tmp_path):
    # instance 2 of ladder 1 runs out its 2000 iterations at observed
    # residual 3.2e-2 and ``detmc complete`` still exits 0
    workload = workloads.CompleteBlind(0, ops_per_round=3, ladder=1)
    workload.setup(str(tmp_path))
    with pytest.raises(workloads.OracleError, match="exit 0 after 2000 iterations"):
        workload.run_op(2)
