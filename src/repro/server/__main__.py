"""``python -m repro.server`` — a standalone confidence server.

Examples::

    # A Figure 11a hard instance on the default port (2008):
    python -m repro.server --workload figure11a:n=16,r=2,s=4,w=64,seed=0

    # A probabilistic TPC-H database on an ephemeral port, 8 pool threads,
    # conditioned by a bootstrap script before serving:
    python -m repro.server --port 0 --pool 8 \\
        --workload tpch:sf=0.0002,seed=0 --load bootstrap.sql

The server prints ``listening on HOST:PORT`` once it is ready (after the
``--load`` script ran), which is what the benchmark harness and the CI smoke
job parse to discover an ephemeral port.  ``SIGINT``/``SIGTERM`` trigger a
graceful shutdown: the listener closes, in-flight requests get ``--grace``
seconds to answer (new work is shed as ``overloaded`` meanwhile), remaining
connections are torn down, and ``server stopped`` is printed.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import logging
import signal
import sys
import time
from pathlib import Path

from repro.db.database import ProbabilisticDatabase
from repro.server.protocol import DEFAULT_MAX_FRAME_BYTES, DEFAULT_PORT
from repro.server.server import DEFAULT_GRACE, ConfidenceServer

logger = logging.getLogger("repro.server.cli")


class JsonLogFormatter(logging.Formatter):
    """One JSON object per log line (``--log-json``).

    Messages that are already JSON objects (the slow-query log) are embedded
    as-is under ``"data"`` instead of double-encoded as a string.
    """

    def format(self, record: logging.LogRecord) -> str:
        message = record.getMessage()
        entry: dict = {
            "ts": round(time.time(), 3),
            "level": record.levelname.lower(),
            "logger": record.name,
        }
        if message.startswith("{"):
            try:
                entry["data"] = json.loads(message)
            except ValueError:
                entry["message"] = message
            else:
                return json.dumps(entry, sort_keys=True)
        entry["message"] = message
        if record.exc_info:
            entry["exception"] = self.formatException(record.exc_info)
        return json.dumps(entry, sort_keys=True)


def configure_logging(level: str, json_logs: bool) -> None:
    """Route every server log through one stdout handler.

    The plain format is message-only so the readiness banner stays exactly
    ``listening on HOST:PORT`` — the first stdout line, which the benchmark
    harness and the CI smoke jobs parse to discover an ephemeral port.
    """
    handler = logging.StreamHandler(sys.stdout)
    handler.setFormatter(
        JsonLogFormatter() if json_logs else logging.Formatter("%(message)s")
    )
    root = logging.getLogger()
    root.handlers[:] = [handler]
    root.setLevel(getattr(logging, level.upper()))


def build_database(spec: str) -> ProbabilisticDatabase:
    """Build the served database from a ``--workload`` spec.

    Specs are ``name`` or ``name:key=value,...``:

    * ``empty`` — an empty database (populate via ``--load`` asserts or use
      ws-set targets against variables added later);
    * ``figure11a:n=16,r=2,s=4,w=64,seed=0`` — the paper's #P-hard generator;
      the ws-set is stored as relation ``HARD`` (one ``(ID,)`` row per
      descriptor), so ``confidence("HARD")`` is the Figure 11a query;
    * ``tpch:sf=0.0002,seed=0`` — the probabilistic TPC-H-like database of
      the Figure 10 experiments (relations ``customer``, ``orders``,
      ``lineitem``).
    """
    name, _, rest = spec.partition(":")
    options: dict[str, str] = {}
    if rest:
        for item in rest.split(","):
            key, separator, value = item.partition("=")
            if not separator:
                raise ValueError(f"malformed workload option {item!r} in {spec!r}")
            options[key.strip()] = value.strip()

    if name == "empty":
        return ProbabilisticDatabase()
    if name == "figure11a":
        from repro.db.urelation import URelation
        from repro.workloads.hard import HardCaseParameters, generate_hard_instance

        parameters = HardCaseParameters(
            num_variables=int(options.pop("n", 16)),
            alternatives=int(options.pop("r", 2)),
            descriptor_length=int(options.pop("s", 4)),
            num_descriptors=int(options.pop("w", 64)),
            seed=int(options.pop("seed", 0)),
        )
        _reject_unknown(spec, options)
        instance = generate_hard_instance(parameters)
        database = ProbabilisticDatabase(instance.world_table)
        relation = URelation("HARD", ("ID",))
        for index, descriptor in enumerate(instance.ws_set):
            relation.add(descriptor.as_dict(), (index,))
        database.add_relation(relation)
        return database
    if name == "tpch":
        from repro.workloads.tpch import TPCHGenerator

        generator = TPCHGenerator(
            scale_factor=float(options.pop("sf", 0.0002)),
            seed=int(options.pop("seed", 0)),
        )
        _reject_unknown(spec, options)
        return generator.generate().database
    raise ValueError(f"unknown workload {name!r}; known: empty, figure11a, tpch")


def _reject_unknown(spec: str, leftover: dict) -> None:
    if leftover:
        raise ValueError(f"unknown workload options {sorted(leftover)} in {spec!r}")


def parse_arguments(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.server",
        description="Serve a probabilistic database's confidence service over TCP.",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=DEFAULT_PORT,
        help=f"TCP port (0 picks an ephemeral port; default {DEFAULT_PORT})",
    )
    parser.add_argument(
        "--pool", type=int, default=4, metavar="N",
        help="threads answering uncached requests (default 4)",
    )
    parser.add_argument(
        "--memo-limit", type=int, default=None, metavar="ENTRIES",
        help="bound on the shared memo cache (default: the session default)",
    )
    parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="fan cold queries and large ⊗-components out across N worker "
             "processes (true multi-core; the memo stays shared in this "
             "process); default: compute in-line",
    )
    parser.add_argument(
        "--workload", default="empty", metavar="SPEC",
        help="database to serve: empty | figure11a:n=..,r=..,s=..,w=..,seed=.. "
             "| tpch:sf=..,seed=.. (default: empty)",
    )
    parser.add_argument(
        "--load", type=Path, default=None, metavar="FILE",
        help="SQL bootstrap script run through execute_script before serving",
    )
    parser.add_argument(
        "--max-frame-bytes", type=int, default=DEFAULT_MAX_FRAME_BYTES,
        help="per-frame payload bound (default 4 MiB)",
    )
    parser.add_argument(
        "--grace", type=float, default=DEFAULT_GRACE, metavar="SECONDS",
        help="shutdown drain: how long in-flight requests may finish after "
             f"SIGTERM/SIGINT before connections are force-closed "
             f"(default {DEFAULT_GRACE:g})",
    )
    parser.add_argument(
        "--max-inflight", type=int, default=None, metavar="N",
        help="admission bound on concurrently computing requests "
             "(default: the pool size)",
    )
    parser.add_argument(
        "--max-queue", type=int, default=None, metavar="N",
        help="admission queue depth before requests are shed as 'overloaded' "
             "(default: 4 x the pool size)",
    )
    parser.add_argument(
        "--metrics-port", type=int, default=None, metavar="PORT",
        help="also serve Prometheus text exposition over HTTP on this port "
             "(0 picks an ephemeral port; default: off)",
    )
    parser.add_argument(
        "--slow-query-ms", type=float, default=None, metavar="MS",
        help="log confidence requests slower than this as structured JSON "
             "lines with their span tree attached (default: off)",
    )
    parser.add_argument(
        "--log-level", default="info",
        choices=("debug", "info", "warning", "error"),
        help="log verbosity (default: info; 'debug' includes shed events)",
    )
    parser.add_argument(
        "--log-json", action="store_true",
        help="emit logs as one JSON object per line instead of plain text",
    )
    return parser.parse_args(argv)


async def _serve(arguments: argparse.Namespace) -> None:
    database = build_database(arguments.workload)
    server = ConfidenceServer(
        database,
        host=arguments.host,
        port=arguments.port,
        pool_size=arguments.pool,
        memo_limit=arguments.memo_limit,
        workers=arguments.workers,
        max_frame_bytes=arguments.max_frame_bytes,
        max_inflight=arguments.max_inflight,
        max_queue=arguments.max_queue,
        metrics_port=arguments.metrics_port,
        slow_query_ms=arguments.slow_query_ms,
    )
    # Bootstrap strictly before binding: a client connecting to a well-known
    # port must never observe the pre-``--load`` database.
    if arguments.load is not None:
        await server.bootstrap(arguments.load.read_text(encoding="utf-8"))
    host, port = await server.start()
    # The readiness banner must stay the first stdout line — the benchmark
    # harness and the CI smoke jobs parse it to discover an ephemeral port.
    logger.info("listening on %s:%s", host, port)
    if server.metrics_address is not None:
        logger.info("metrics on %s:%s", *server.metrics_address)

    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signal_number in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signal_number, stop.set)
        except (NotImplementedError, RuntimeError):  # pragma: no cover - non-POSIX
            pass
    try:
        await stop.wait()
    finally:
        await server.stop(grace=arguments.grace)
    logger.info("server stopped")


def main(argv: list[str] | None = None) -> int:
    arguments = parse_arguments(argv)
    configure_logging(arguments.log_level, arguments.log_json)
    try:
        asyncio.run(_serve(arguments))
    except KeyboardInterrupt:  # pragma: no cover - non-POSIX fallback
        pass
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
