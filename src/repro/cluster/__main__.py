"""``python -m repro.cluster`` — serve a sharded confidence cluster.

Examples::

    # All three shards of a multi-component hard workload in one process,
    # each on an ephemeral port:
    python -m repro.cluster --shards 3 --port 0 \\
        --workload hardmix:groups=6,n=8,w=12,seed=0

    # One shard per OS process (ports 2008, 2009, 2010); every process
    # derives the identical partition from the same workload spec:
    python -m repro.cluster --shards 3 --shard-index 0 --workload tpch:sf=0.0002
    python -m repro.cluster --shards 3 --shard-index 1 --workload tpch:sf=0.0002
    python -m repro.cluster --shards 3 --shard-index 2 --workload tpch:sf=0.0002

Each started shard prints ``shard I listening on HOST:PORT``; once every
shard of this process is up, ``cluster ready (N shards)`` follows — the CI
smoke job and the cluster benchmark parse those banners to discover the
ephemeral ports.  Partitioning is deterministic in ``(workload, shards)``,
so separately started ``--shard-index`` processes agree on variable
ownership without talking to each other.  ``SIGINT``/``SIGTERM`` stop every
shard of the process gracefully.

The extra ``hardmix`` workload merges several independent Figure 11a hard
instances (variables prefixed per group) into one relation — a database
with many descriptor-variable components, i.e. something a cluster can
actually spread.  A plain ``figure11a`` instance is usually one connected
component and would land wholly on one shard.
"""

from __future__ import annotations

import argparse
import asyncio
import logging
import signal
import sys

from repro.cluster.partition import partition_database
from repro.db.database import ProbabilisticDatabase
from repro.db.urelation import URelation
from repro.db.world_table import WorldTable
from repro.server.__main__ import build_database, configure_logging
from repro.server.protocol import DEFAULT_MAX_FRAME_BYTES, DEFAULT_PORT
from repro.server.server import DEFAULT_GRACE, ConfidenceServer

logger = logging.getLogger("repro.cluster.cli")


def build_cluster_database(spec: str) -> ProbabilisticDatabase:
    """``build_database`` plus the cluster-specific ``hardmix`` workload.

    ``hardmix:groups=6,n=8,w=12,seed=0`` generates ``groups`` independent
    Figure 11a instances (``n`` variables, ``w`` descriptors each, seeds
    ``seed, seed+1, ...``), prefixes each group's variables with ``g<k>:``,
    and stores all descriptors in one relation ``HARD`` with attributes
    ``(GROUP, ID)`` over one merged world table.
    """
    name, _, rest = spec.partition(":")
    if name != "hardmix":
        return build_database(spec)

    from repro.core.descriptors import WSDescriptor
    from repro.workloads.hard import HardCaseParameters, generate_hard_instance

    options: dict[str, str] = {}
    if rest:
        for item in rest.split(","):
            key, separator, value = item.partition("=")
            if not separator:
                raise ValueError(f"malformed workload option {item!r} in {spec!r}")
            options[key.strip()] = value.strip()
    groups = int(options.pop("groups", 6))
    parameters = dict(
        num_variables=int(options.pop("n", 8)),
        alternatives=int(options.pop("r", 2)),
        descriptor_length=int(options.pop("s", 2)),
        num_descriptors=int(options.pop("w", 12)),
    )
    seed = int(options.pop("seed", 0))
    if options:
        raise ValueError(f"unknown workload options {sorted(options)} in {spec!r}")
    if groups < 1:
        raise ValueError(f"hardmix needs at least one group, got {groups}")

    world = WorldTable()
    relation = URelation("HARD", ("GROUP", "ID"))
    for group in range(groups):
        instance = generate_hard_instance(
            HardCaseParameters(seed=seed + group, **parameters)
        )
        for variable in instance.world_table.variables:
            world.add_variable(
                f"g{group}:{variable}",
                {
                    value: instance.world_table.probability(variable, value)
                    for value in instance.world_table.domain(variable)
                },
            )
        for index, descriptor in enumerate(instance.ws_set):
            relation.add(
                WSDescriptor(
                    {
                        f"g{group}:{variable}": value
                        for variable, value in descriptor.as_dict().items()
                    }
                ).as_dict(),
                (group, index),
            )
    database = ProbabilisticDatabase(world)
    database.add_relation(relation)
    return database


def parse_arguments(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cluster",
        description="Serve a probabilistic database sharded across N "
        "confidence servers.",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--shards", type=int, default=3, metavar="N",
        help="number of shards the database is partitioned into (default 3)",
    )
    parser.add_argument(
        "--shard-index", type=int, default=None, metavar="I",
        help="serve only shard I in this process (default: all shards)",
    )
    parser.add_argument(
        "--port", type=int, default=DEFAULT_PORT,
        help=f"base TCP port — shard I listens on port+I; 0 gives every "
             f"shard an ephemeral port (default {DEFAULT_PORT})",
    )
    parser.add_argument(
        "--pool", type=int, default=4, metavar="N",
        help="threads answering uncached requests, per shard (default 4)",
    )
    parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="worker processes for parallel ⊗-components inside each "
             "shard's engine (default: compute in-line)",
    )
    parser.add_argument(
        "--workload", default="hardmix:groups=6,n=8,w=12,seed=0", metavar="SPEC",
        help="database to shard: hardmix:groups=..,n=..,r=..,s=..,w=..,seed=.. "
             "| empty | figure11a:... | tpch:... "
             "(default: hardmix:groups=6,n=8,w=12,seed=0)",
    )
    parser.add_argument(
        "--max-frame-bytes", type=int, default=DEFAULT_MAX_FRAME_BYTES,
        help="per-frame payload bound (default 4 MiB)",
    )
    parser.add_argument(
        "--grace", type=float, default=DEFAULT_GRACE, metavar="SECONDS",
        help="shutdown drain per shard (default "
             f"{DEFAULT_GRACE:g})",
    )
    parser.add_argument(
        "--log-level", default="info",
        choices=("debug", "info", "warning", "error"),
    )
    parser.add_argument("--log-json", action="store_true")
    return parser.parse_args(argv)


async def _serve(arguments: argparse.Namespace) -> None:
    if arguments.shards < 1:
        raise ValueError(f"--shards must be at least 1, got {arguments.shards}")
    if arguments.shard_index is not None and not (
        0 <= arguments.shard_index < arguments.shards
    ):
        raise ValueError(
            f"--shard-index must be in [0, {arguments.shards}), "
            f"got {arguments.shard_index}"
        )
    database = build_cluster_database(arguments.workload)
    shard_databases, shard_map = partition_database(database, arguments.shards)
    map_payload = shard_map.to_payload()
    indices = (
        [arguments.shard_index]
        if arguments.shard_index is not None
        else list(range(arguments.shards))
    )
    servers: list[ConfidenceServer] = []
    try:
        for index in indices:
            server = ConfidenceServer(
                shard_databases[index],
                host=arguments.host,
                port=0 if arguments.port == 0 else arguments.port + index,
                pool_size=arguments.pool,
                workers=arguments.workers,
                max_frame_bytes=arguments.max_frame_bytes,
                shard_info={
                    "index": index,
                    "shards": arguments.shards,
                    "map": map_payload,
                },
            )
            host, port = await server.start()
            # Parsed by the CI smoke job and the cluster benchmark; keep the
            # per-shard banner format stable.
            logger.info("shard %d listening on %s:%s", index, host, port)
            servers.append(server)
        logger.info("cluster ready (%d shards)", len(servers))

        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signal_number in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signal_number, stop.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        await stop.wait()
    finally:
        for server in servers:
            await server.stop(grace=arguments.grace)
    logger.info("cluster stopped")


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
