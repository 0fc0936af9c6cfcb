"""The traced run: layer peeling from outside, spans, the self-time report.

After one discarded pass, for each of :data:`TRACE_ROUNDS` rounds the same
(shortened) operation list is driven once untraced — the reference for ``bench.trace_overhead_frac`` — then
once per depth of the workload's span tree with span recording on, then once
with the *program's* own request tracing on (``obs.trace_on_overhead_frac``).
Every pass is a fresh system, so a deeper pass sees exactly the state the
real operations saw.  No span is recorded inside ``src/``.
"""

from __future__ import annotations

import statistics

import harness
from workload import PROGRAM_TRACE, TraceData

TRACE_ROUNDS = 2


def traced_run(workload, seed: int, failures, timed_slice, trace_path) -> dict[str, float]:
    """All per-layer metrics of ``workload`` (names as in BENCHMARK.json)."""
    inputs = workload.generate(seed)
    limit = max(len(inputs.ops) // 2, 1)
    inputs.ops = inputs.ops[:limit]
    spans = harness.SpanLog()
    depths = list(range(len(workload.depths)))
    order = ["plain", *depths, PROGRAM_TRACE]
    passes: dict[int | str, list[harness.RoundResult]] = {key: [] for key in order}
    # A process's first pass is its slowest (by ~10% on the served workloads);
    # one discarded pass keeps that out of the differences between passes.
    harness.run_round(workload, seed, failures, timed_slice, limit=limit)
    for round_index in range(TRACE_ROUNDS):
        for key in order:
            options = {"limit": limit, "round_index": round_index}
            if key != "plain":
                options["depth"] = key
            if key in depths:
                options["spans"] = spans
            passes[key].append(
                harness.run_round(workload, seed, failures, timed_slice, **options)
            )
    if trace_path is not None:
        spans.write(trace_path)

    trace = TraceData(inputs, passes)
    real = [r.metrics() for r in passes[0]]
    plain = [r.metrics() for r in passes["plain"]]
    over = lambda name, rows: statistics.median(row[name] for row in rows)  # noqa: E731
    metrics = {name: over(name, real) for name in real[0] if name.startswith("bench.")}
    metrics["bench.trace_overhead_frac"] = 1.0 - over("ops_per_s", real) / over(
        "ops_per_s", plain
    )
    metrics["obs.trace_on_overhead_frac"] = (
        trace.mean_ms(PROGRAM_TRACE) / trace.mean_ms(0) - 1.0
    )
    for key in passes[0][0].extras:  # generation and boot times of the set-up
        metrics[key] = trace.per_round("extras", 0, key)
    if "server.boot_s" in metrics or "cluster.boot_s" in metrics:
        operations = sum(r.operations for r in passes[0])
        for name, part in (("server.cpu_ms_per_op", "cpu_children"),
                           ("server.client.cpu_ms_per_op", "cpu_bench")):
            busy = sum(getattr(b, part) for r in passes[0] for b in r.blocks)
            metrics[name] = busy / operations * 1e3
    metrics.update(workload.layer_metrics(trace))
    report_self_times(workload, spans, passes)
    return metrics


def report_self_times(workload, spans, passes) -> None:
    """Print each layer's self time per op and its share of the operation."""
    operations = sum(r.operations for r in passes[0])
    untraced_ms = statistics.fmean(
        seconds for r in passes["plain"] for seconds in r.op_seconds
    ) * 1e3
    by_layer = spans.self_seconds_by_layer()
    total_ms = sum(by_layer.values()) / operations * 1e3
    print(f"# {workload.name}: layer self times over {operations} traced ops")
    for layer, seconds in sorted(by_layer.items(), key=lambda item: -item[1]):
        per_op = seconds / operations * 1e3
        print(f"#   {layer:<24} {per_op:9.4f} ms/op  {per_op / total_ms:6.1%}")
    print(
        f"#   {'sum of self times':<24} {total_ms:9.4f} ms/op  vs untraced mean "
        f"op {untraced_ms:.4f} ms ({total_ms / untraced_ms - 1.0:+.1%}), speed-normalised"
    )
