"""``run.py --selftest``: the reference kernel is fixed, and the speed factor
is applied to exactly the five time-valued end-to-end metrics."""

from __future__ import annotations

import inspect
import sys

import harness
import refkernel


def run() -> int:
    problems: list[str] = []

    # The kernel's work is fixed: same checksum every call, a constant trip
    # count, no argument and no clock or randomness inside it; a peer slice
    # is the same work on both sides of the pipe.
    if {refkernel.run_slice() for _ in range(3)} != {refkernel.SLICE_CHECKSUM}:
        problems.append("run_slice() does not reproduce SLICE_CHECKSUM")
    source = inspect.getsource(refkernel.run_slice)
    if "_churn(SLICE_ITERATIONS)" not in source or inspect.signature(
        refkernel.run_slice
    ).parameters:
        problems.append("run_slice() no longer has a fixed iteration count")
    source = inspect.getsource(refkernel._churn)
    if any(word in source for word in ("time.", "random", "perf_counter")):
        problems.append("the kernel reads a clock or a random source")
    peer = harness.ReferencePeer()
    try:
        peer.timed_slice()  # raises unless both sides return PEER_CHECKSUM
    except RuntimeError as error:
        problems.append(str(error))
    finally:
        peer.stop()

    # On a machine that runs everything twice as slowly the normalised times
    # do not move, the raw ones move by 2, and memory is not touched by the
    # factor.
    def synthetic(slowdown: float) -> harness.RoundResult:
        blocks = [
            harness.Block(
                latencies=[0.002 * slowdown, 0.004 * slowdown, 0.010 * slowdown],
                wall=0.016 * slowdown,
                cpu_bench=0.012 * slowdown,
                cpu_children=0.002 * slowdown,
                ref=refkernel.REF_NOMINAL_S * slowdown,
            )
            for _ in range(4)
        ]
        return harness.RoundResult(
            setup_seconds=0.5 * slowdown, setup_ref=refkernel.REF_NOMINAL_S * slowdown,
            blocks=blocks, peak_rss_kib=2048,
            op_seconds=[0.0] * 12,
        )

    nominal, slow = synthetic(1.0).metrics(), synthetic(2.0).metrics()
    for name in harness.NORMALISED_METRICS:
        if abs(slow[name] / nominal[name] - 1.0) > 1e-9:
            problems.append(f"{name} is not speed-normalised")
    raw_of = {"ops_per_s": "bench.raw_ops_per_s", "p50_ms": "bench.raw_p50_ms",
              "cpu_ms_per_op": "bench.raw_cpu_ms_per_op"}
    for name, raw in raw_of.items():
        ratio = slow[raw] / nominal[raw]
        if abs((1.0 / ratio if name == "ops_per_s" else ratio) - 2.0) > 1e-9:
            problems.append(f"{raw} should report the unscaled value")
    if slow["peak_rss_mb"] != nominal["peak_rss_mb"] or nominal["peak_rss_mb"] != 2.0:
        problems.append("peak_rss_mb must not be scaled")
    if abs(slow["bench.speed_factor"] - 0.5) > 1e-9:
        problems.append("bench.speed_factor is not REF_NOMINAL_S / measured")
    unmoved = {n for n in nominal if abs(slow[n] / nominal[n] - 1.0) < 1e-9}
    if unmoved != {*harness.NORMALISED_METRICS, "peak_rss_mb"}:
        problems.append(f"the factor reaches other metrics than the five: {unmoved}")

    for problem in problems:
        print(f"selftest FAILED: {problem}", file=sys.stderr)
    print("selftest ok" if not problems else f"selftest: {len(problems)} problem(s)")
    return 1 if problems else 0
