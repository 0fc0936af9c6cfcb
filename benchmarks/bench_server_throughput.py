"""Server-mode throughput: concurrent clients vs one sequential client.

The server is started as a real subprocess (``python -m repro.server``) on a
Figure 11a workload (#P-hard instances, n=16, r=2, s=4).  The query pool is a
set of overlapping slices of the instance's ws-set — distinct queries with
shared sub-structure, the shape of many users asking related questions of one
database.  Each scenario starts a *fresh* server (cold memo) and lets C
clients work through the whole pool, one rotated copy per client:

* ``C = 1`` — the sequential baseline: every query is computed cold, one
  round trip at a time;
* ``C = 4, 16`` — concurrent clients: every distinct query is still computed
  exactly once (the first client to ask pays for it), and every other
  client's copy is answered from the *shared* memo in well under a
  millisecond.  Aggregate throughput therefore scales with the client count
  rather than with the amount of exact computation — this is the memo
  sharing across connections that server mode exists for.

Run directly to print the table and record ``BENCH_server_throughput.json``
(requests/sec, latency percentiles per scenario, the 16-vs-1 speedup, and a
client-vs-local equivalence check for all four methods) at the repo root::

    PYTHONPATH=src python benchmarks/bench_server_throughput.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from repro.core.wsset import WSSet
from repro.db.session import Session
from repro.obs.metrics import quantile_from_snapshot
from repro.server.client import connect
from repro.workloads.hard import HardCaseParameters, generate_hard_instance

REPO_ROOT = Path(__file__).resolve().parent.parent
REPORT_NAME = "BENCH_server_throughput.json"

#: Figure 11a parameters of the served instance.
NUM_VARIABLES = 16
ALTERNATIVES = 2
DESCRIPTOR_LENGTH = 4
NUM_DESCRIPTORS = 240
SEED = 0

#: The query pool: POOL_QUERIES overlapping slices of SLICE_SIZE descriptors,
#: SLICE_STRIDE apart — distinct #P-hard queries with shared lineage.
POOL_QUERIES = 20
SLICE_SIZE = 40
SLICE_STRIDE = 10

CLIENT_COUNTS = (1, 4, 16)
SERVER_POOL_SIZE = 8
TARGET_SPEEDUP = 5.0


def workload_parameters() -> HardCaseParameters:
    return HardCaseParameters(
        num_variables=NUM_VARIABLES,
        alternatives=ALTERNATIVES,
        descriptor_length=DESCRIPTOR_LENGTH,
        num_descriptors=NUM_DESCRIPTORS,
        seed=SEED,
    )


def build_query_pool(queries: int = POOL_QUERIES) -> tuple[list[WSSet], object]:
    """The shared query pool and the world table it runs against."""
    instance = generate_hard_instance(workload_parameters())
    descriptors = list(instance.ws_set)
    pool = [
        WSSet(descriptors[i * SLICE_STRIDE : i * SLICE_STRIDE + SLICE_SIZE])
        for i in range(queries)
    ]
    return pool, instance.world_table


def start_server() -> tuple[subprocess.Popen, str, int]:
    """A fresh ``python -m repro.server`` subprocess on an ephemeral port."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    spec = (
        f"figure11a:n={NUM_VARIABLES},r={ALTERNATIVES},"
        f"s={DESCRIPTOR_LENGTH},w={NUM_DESCRIPTORS},seed={SEED}"
    )
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro.server",
            "--port", "0", "--pool", str(SERVER_POOL_SIZE), "--workload", spec,
        ],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )
    banner = process.stdout.readline().strip()
    match = re.fullmatch(r"listening on (.+):(\d+)", banner)
    if not match:
        process.kill()
        raise RuntimeError(
            f"server failed to start: {banner!r} / {process.stderr.read()}"
        )
    return process, match.group(1), int(match.group(2))


def stop_server(process: subprocess.Popen) -> None:
    process.send_signal(signal.SIGTERM)
    try:
        process.communicate(timeout=30)
    except subprocess.TimeoutExpired:  # pragma: no cover - last resort
        process.kill()
        process.communicate()


def run_scenario(
    clients: int, pool: list[WSSet], expected: list[float]
) -> dict:
    """C clients, each issuing every pool query once (rotated start)."""
    process, host, port = start_server()
    latencies: list[list[float]] = [None] * clients
    errors: list[BaseException] = []
    barrier = threading.Barrier(clients + 1)

    def client_main(index: int) -> None:
        try:
            with connect(host, port) as session:
                session.ping()  # connection warm-up outside the timed region
                barrier.wait()
                mine = []
                rotation = (index * len(pool)) // clients
                order = list(range(len(pool)))
                order = order[rotation:] + order[:rotation]
                for query_index in order:
                    started = time.perf_counter()
                    result = session.confidence(pool[query_index])
                    mine.append(time.perf_counter() - started)
                    if abs(result.value - expected[query_index]) > 1e-12:
                        raise AssertionError(
                            f"client {index} query {query_index}: "
                            f"{result.value} != {expected[query_index]}"
                        )
                latencies[index] = mine
        except BaseException as error:
            errors.append(error)
            try:
                barrier.abort()
            except threading.BrokenBarrierError:  # pragma: no cover
                pass

    threads = [
        threading.Thread(target=client_main, args=(index,)) for index in range(clients)
    ]
    try:
        for thread in threads:
            thread.start()
        barrier.wait(timeout=60)
        started = time.perf_counter()
        for thread in threads:
            thread.join(timeout=600)
        wall = time.perf_counter() - started
        # Server-side view of the same scenario, from the per-op latency
        # histograms behind the ``metrics`` op.
        with connect(host, port) as session:
            snapshot = session.metrics()
    finally:
        stop_server(process)
    if errors:
        raise errors[0]

    flat = sorted(second for client in latencies for second in client)
    requests = len(flat)
    histogram = snapshot["histograms"]['repro_server_op_seconds{op="confidence_many"}']
    assert histogram["count"] == requests, (
        f"server histogram saw {histogram['count']} confidence requests, "
        f"clients issued {requests}"
    )
    client_ms = {
        "mean": round(1000 * statistics.fmean(flat), 3),
        "p50": round(1000 * _percentile(flat, 0.50), 3),
        "p90": round(1000 * _percentile(flat, 0.90), 3),
        "p99": round(1000 * _percentile(flat, 0.99), 3),
        "max": round(1000 * flat[-1], 3),
    }
    server_ms = {
        "p50": round(1000 * quantile_from_snapshot(histogram, 0.50), 3),
        "p90": round(1000 * quantile_from_snapshot(histogram, 0.90), 3),
        "p99": round(1000 * quantile_from_snapshot(histogram, 0.99), 3),
        "count": histogram["count"],
    }
    agreement = {}
    for quantile in ("p50", "p99"):
        client_value, server_value = client_ms[quantile], server_ms[quantile]
        # The server measures inside the frame (no wire round trip) with
        # ~12% log-bucket resolution; the client adds RTT and scheduling.
        # Agreement tolerance: 5 ms of fixed slack or 75% of the
        # client-observed value, whichever is larger.
        tolerance = max(5.0, 0.75 * client_value)
        difference = abs(client_value - server_value)
        assert difference <= tolerance, (
            f"{quantile}: client {client_value}ms vs server {server_value}ms "
            f"differ by {difference}ms (> {tolerance}ms)"
        )
        agreement[quantile] = {
            "client_ms": client_value,
            "server_ms": server_value,
            "difference_ms": round(difference, 3),
            "tolerance_ms": round(tolerance, 3),
        }
    return {
        "clients": clients,
        "requests": requests,
        "wall_seconds": round(wall, 6),
        "throughput_rps": round(requests / wall, 3),
        "latency_ms": client_ms,
        "server_latency_ms": server_ms,
        "latency_agreement": agreement,
    }


def _percentile(sorted_values: list[float], fraction: float) -> float:
    index = min(len(sorted_values) - 1, int(fraction * len(sorted_values)))
    return sorted_values[index]


def check_method_equivalence(pool: list[WSSet], world_table) -> dict:
    """Client results must equal a local Session for every method (1e-12)."""
    process, host, port = start_server()
    report = {}
    try:
        with connect(host, port) as session:
            for method in ("exact", "karp_luby", "montecarlo", "hybrid"):
                local = Session(world_table, seed=7)
                expected = local.confidence(pool[0], method=method, seed=7)
                remote = session.confidence(pool[0], method=method, seed=7)
                difference = abs(remote.value - expected.value)
                assert difference <= 1e-12, (
                    f"{method}: remote {remote.value} != local {expected.value}"
                )
                assert remote.method == expected.method
                report[method] = {
                    "value": remote.value,
                    "resolved_method": remote.method,
                    "abs_difference_vs_local": difference,
                }
    finally:
        stop_server(process)
    return report


def main(argv: list[str] | None = None) -> Path:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="smaller query pool (CI smoke); does not enforce the 5x target",
    )
    parser.add_argument("--out", type=Path, default=REPO_ROOT / REPORT_NAME)
    arguments = parser.parse_args(argv)

    queries = 8 if arguments.quick else POOL_QUERIES
    pool, world_table = build_query_pool(queries)
    print(f"computing {len(pool)} reference values locally ...")
    reference_session = Session(world_table)
    expected = [reference_session.confidence(query).value for query in pool]

    scenarios = []
    for clients in CLIENT_COUNTS:
        scenario = run_scenario(clients, pool, expected)
        scenarios.append(scenario)
        print(
            f"{clients:>3} client(s): {scenario['throughput_rps']:>9.1f} req/s  "
            f"p50 {scenario['latency_ms']['p50']:>8.2f}ms  "
            f"p99 {scenario['latency_ms']['p99']:>8.2f}ms  "
            f"(server-side p50 {scenario['server_latency_ms']['p50']:.2f}ms / "
            f"p99 {scenario['server_latency_ms']['p99']:.2f}ms; "
            f"{scenario['requests']} requests in {scenario['wall_seconds']:.2f}s)"
        )

    by_clients = {scenario["clients"]: scenario for scenario in scenarios}
    speedup = round(
        by_clients[CLIENT_COUNTS[-1]]["throughput_rps"]
        / by_clients[1]["throughput_rps"],
        2,
    )
    print(f"aggregate throughput speedup at {CLIENT_COUNTS[-1]} clients: {speedup}x")
    if not arguments.quick:
        assert speedup >= TARGET_SPEEDUP, (
            f"memo sharing target missed: {speedup}x < {TARGET_SPEEDUP}x"
        )

    print("checking client-vs-local method equivalence ...")
    equivalence = check_method_equivalence(pool, world_table)

    payload = {
        "title": "Server throughput: concurrent clients on the Figure 11a workload",
        "workload": {
            "figure": "11a",
            "num_variables": NUM_VARIABLES,
            "alternatives": ALTERNATIVES,
            "descriptor_length": DESCRIPTOR_LENGTH,
            "num_descriptors": NUM_DESCRIPTORS,
            "seed": SEED,
            "pool_queries": len(pool),
            "slice_size": SLICE_SIZE,
            "slice_stride": SLICE_STRIDE,
            "server_pool_size": SERVER_POOL_SIZE,
        },
        "scenarios": scenarios,
        "speedup": {
            f"{CLIENT_COUNTS[-1]}_clients_vs_1": speedup,
            "target": TARGET_SPEEDUP,
        },
        "method_equivalence": {
            "tolerance": 1e-12,
            "seed": 7,
            "methods": equivalence,
        },
    }
    arguments.out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {arguments.out}")
    return arguments.out


if __name__ == "__main__":
    main()
