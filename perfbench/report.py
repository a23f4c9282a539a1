"""Metric definitions and the arithmetic that turns ops and spans into them."""

import statistics
from collections import Counter

from tracing import layer_totals

TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile

# (name, unit, better) -- printed with --trace 0
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("round_s.p50", "s", "lower"),
    ("round_s.tail", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("ops_ok_frac", "fraction", "higher"),
    ("recovered_frac", "fraction", "higher"),
    ("peak_rss_mb", "MB", "lower"),
]

# layers whose self time is reported, as seconds per round and as a share
# of op wall time; "harness.op" is time inside ops outside every traced call
SELF_TIMED = [
    "sampling.observed_residual", "metrics.relative_error",
    "pgd.solve", "pgd.project_rows", "pgd.spectral_init",
    "scaled_pgd.solve", "scaled_pgd.project_rows", "scaled_pgd.spectral_init",
    "sampling.rescaled_top_svd", "kernels.operator_norm", "kernels.top_r_svd",
    "ialm.solve", "metrics.relative_error_dense",
    "graphs.certify", "graphs.bernoulli_mask", "graphs.random_biregular",
    "graphs.lps_graph", "graphs.load_edges", "sampling.load_observed",
    "sampling.save_dense_array", "cli.main",
    "theory.run_all", "theory.check", "metrics.gauge_distance",
    "metrics.rotation_distance", "kernels.orthogonal_procrustes",
    "harness.op",
]
SOLVES = ("pgd.solve", "scaled_pgd.solve", "ialm.solve")

# (name, unit, better) -- printed with --trace 1
PER_LAYER = (
    [(f"{layer}.self_s", "s", "lower") for layer in SELF_TIMED]
    + [(f"{layer}.self_share", "fraction", "lower") for layer in SELF_TIMED]
    + [
        ("sampling.observed_residual.calls", "count", "lower"),
        ("sampling.observed_residual.calls_per_iter", "count", "lower"),
        ("sampling.observed_residual.edges_per_s", "1/s", "higher"),
        ("sampling.observed_residual.bytes_computed", "B", "lower"),
        ("metrics.relative_error.calls", "count", "lower"),
        ("metrics.relative_error.calls_per_iter", "count", "lower"),
        ("graphs.certify.calls", "count", "lower"),
        ("graphs.certify.calls_per_graph", "count", "lower"),
        ("sampling.save_dense_array.mb_per_s", "MB/s", "higher"),
        ("cli.io.bytes_read", "B", "lower"),
        ("cli.io.bytes_written", "B", "lower"),
    ]
    + [(f"{solve}.{key}", "count", "lower") for solve in SOLVES
       for key in ("calls", "iters", "max_iter_hits", "raised")]
    + [("trace.overhead_frac", "fraction", "lower")]
)

UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}


def tail(samples, beyond=TAIL_BEYOND):
    """Highest percentile with at least ``beyond`` samples above it.

    Returns ``(value, percentile, n)``.  Sorted sample k (0-based) of n has
    n - 1 - k samples above it and sits at percentile 100 k / (n - 1), so
    the answer is sample n - 1 - beyond.  With ``beyond`` or fewer samples
    no percentile qualifies; the maximum is reported, at percentile 100.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    k = n - 1 - beyond if n > beyond else n - 1
    pct = 100.0 * k / (n - 1) if n > 1 else 100.0
    return xs[k], pct, n


def end_to_end(setup_s, round_durations, elapsed, attempted, failed, outcomes,
               peak_rss_mb):
    value, _, _ = tail(round_durations)
    return {
        "setup_s": setup_s,
        "round_s.p50": float(statistics.median(round_durations)),
        "round_s.tail": value,
        "ops_per_s": attempted / elapsed,
        "ops_ok_frac": (attempted - failed) / attempted,
        "recovered_frac": sum(o.recovered for o in outcomes) / max(len(outcomes), 1),
        "peak_rss_mb": peak_rss_mb,
    }


def _under(spans, names):
    """Per span: whether some strict ancestor is named in ``names``."""
    flags = []
    for s in spans:  # parents are opened, hence appended, before children
        p = s.parent
        flags.append(p >= 0 and (spans[p].name in names or flags[p]))
    return flags


def per_layer(spans, rounds, overhead_frac):
    """Per-layer metrics of a traced pass, as totals per round of ops.

    Also returns the coverage facts the harness asserts: residual calls
    made inside factored solves and the iterations those solves reported.
    """
    totals = layer_totals(spans)
    zero = {"self_s": 0.0, "calls": 0}
    op_wall = sum(s.duration for s in spans if s.name == "harness.op")
    out = {}
    for layer in SELF_TIMED:
        self_s = totals.get(layer, zero)["self_s"]
        out[f"{layer}.self_s"] = self_s / rounds
        out[f"{layer}.self_share"] = self_s / op_wall

    factored = [s for s in spans if s.name in SOLVES[:2]]
    solve_iters = sum(s.attrs.get("iters", 0) + 1 for s in factored)
    in_factored = _under(spans, SOLVES[:2])
    residual = totals.get("sampling.observed_residual", zero)
    residual_in_solves = sum(
        1 for s, inside in zip(spans, in_factored)
        if inside and s.name == "sampling.observed_residual")
    out["sampling.observed_residual.calls"] = residual["calls"] / rounds
    out["sampling.observed_residual.calls_per_iter"] = (
        residual_in_solves / solve_iters if solve_iters else 0.0)
    out["sampling.observed_residual.edges_per_s"] = (
        residual.get("edges", 0) / residual["self_s"] if residual["self_s"] else 0.0)
    out["sampling.observed_residual.bytes_computed"] = residual.get("bytes", 0) / rounds
    metric = totals.get("metrics.relative_error", zero)
    metric_in_solves = sum(
        1 for s, inside in zip(spans, in_factored)
        if inside and s.name == "metrics.relative_error")
    out["metrics.relative_error.calls"] = metric["calls"] / rounds
    out["metrics.relative_error.calls_per_iter"] = (
        metric_in_solves / solve_iters if solve_iters else 0.0)

    certify = [s for s in spans if s.name == "graphs.certify"]
    graphs_seen = {(s.op, s.attrs["graph"]) for s in certify}
    out["graphs.certify.calls"] = len(certify) / rounds
    out["graphs.certify.calls_per_graph"] = (
        len(certify) / len(graphs_seen) if certify else 0.0)

    save = totals.get("sampling.save_dense_array", zero)
    out["sampling.save_dense_array.mb_per_s"] = (
        save.get("bytes_written", 0) / 1e6 / save["self_s"] if save["self_s"] else 0.0)
    in_cli = _under(spans, ("cli.main",))
    for key in ("bytes_read", "bytes_written"):
        out[f"cli.io.{key}"] = sum(
            s.attrs.get(key, 0) for s, inside in zip(spans, in_cli) if inside) / rounds

    for solve in SOLVES:
        t = totals.get(solve, zero)
        out[f"{solve}.calls"] = t["calls"] / rounds
        out[f"{solve}.iters"] = t.get("iters", 0) / rounds
        out[f"{solve}.max_iter_hits"] = t.get("max_iter_hit", 0) / rounds
        out[f"{solve}.raised"] = t.get("raised", 0) / rounds
    out["trace.overhead_frac"] = overhead_frac

    coverage = {"residual_calls_in_solves": residual_in_solves,
                "solve_iters_plus_one": solve_iters,
                "factored_solves": len(factored),
                "certify_calls_by_op": Counter(s.op for s in certify)}
    return out, coverage
