"""``serve_hot`` — one confidence server answering warm queries over TCP."""

from __future__ import annotations

import random
import re
import statistics
import time
from dataclasses import dataclass, fields, replace

import repro
from repro import ConfidenceRequest, ConfidenceResult, WSSet
from repro.server.__main__ import build_database

import harness
from workload import PROGRAM_TRACE, Depth, Inputs, System, Workload

SPEC = "figure11a:n=16,r=2,s=4,w=240,seed={seed}"
#: 20 overlapping 40-descriptor windows of the served relation.
POOL = 20
WINDOW = 40
STRIDE = 10
MANY = 8
SWEEP_POINTS = 15
#: A sweep's target is the first 20 descriptors of a pool query: circuits of
#: whole 40-descriptor queries cost 1-12 ms per sweep and their mean moves
#: +-25% with the seed (+-4% on the workload's throughput); at 20
#: descriptors a sweep is ~1.5 ms and moves throughput by under 1%.
SWEEP_WINDOW = 20
#: Operations per round, shared by the four connections: exactly 70%
#: ``confidence``, 20% ``confidence_many``, 10% ``what_if``, shuffled.
OPS = 1000
#: Replies carry wall times, and the digit count of a measured time differs
#: from run to run; the codec depth encodes this typical 17-digit one in
#: their place so that ``server.protocol.bytes_per_op`` repeats exactly.
PINNED_SECONDS = 0.00034170899999935


@dataclass(frozen=True)
class Op:
    kind: str  # "confidence" | "many" | "what_if"
    queries: tuple[int, ...]  # indices into the pool
    variable: str | None = None
    points: tuple[float, ...] = ()


class _Served(System):
    """The server subprocess plus one client connection per caller."""

    def __init__(self, spec: str, connections: int, pool) -> None:
        super().__init__()
        self.pool = pool
        child = harness.Child(
            "repro.server", ["--port", "0", "--workload", spec],
            ready=r"listening on \S+:\d+",
        )
        self.children.append(child)
        self.extras["server.boot_s"] = child.boot_seconds
        address = child.banner[-1].removeprefix("listening on ")
        self.sessions = []
        try:
            for _ in range(connections):
                self.sessions.append(repro.connect(address))
        except BaseException:
            self.close()
            raise

    def counters(self) -> dict[str, float]:
        session = self.sessions[0]
        stats = session.server_stats()
        engine, server = stats["engine"], stats["server"]
        histograms = session.metrics()["histograms"]
        busy = {"count": 0, "sum": 0.0}
        for key, histogram in histograms.items():
            if key.startswith("repro_server_op_seconds") and re.search(
                r'op="(confidence|confidence_many|what_if)"', key
            ):
                busy["count"] += histogram["count"]
                busy["sum"] += histogram["sum"]
        return {
            "frames": engine["frames"],
            "memo_hits": engine["memo_hits"],
            "engine_rebuilds": engine["engine_rebuilds"],
            "circuits_compiled": engine["circuits_compiled"],
            "circuit_cache_hits": engine["circuit_cache_hits"],
            "admitted": server["admitted_total"],
            "shed": server["shed_total"],
            "op_count": busy["count"],
            "op_seconds": busy["sum"],
        }

    def close(self) -> None:
        for session in self.sessions:
            session.close()
        super().close()


class _LocalOnly(System):
    """No server: the depths that replay one component in this process."""

    def __init__(self, pool, database=None) -> None:
        super().__init__()
        self.pool = pool
        self.local = repro.connect(database) if database is not None else None

    def close(self) -> None:
        if self.local is not None:
            self.local.close()
        super().close()


class ServeHot(Workload):
    name = "serve_hot"
    #: Four closed-loop connections keep the server's one event loop busy, so
    #: a request's latency is a sum of a few service times.  With two, a
    #: request either finds the server idle or waits out one other request,
    #: and the median sits in the sparse gap between those two modes (6%
    #: spread from seed to seed against 2% with four).  Still 2 busy
    #: processes: the four client threads share this process's GIL.
    callers = 4
    block_ops = 10
    served = True
    depths = (
        Depth(lambda op: ("server", f"ServerSession.{op.kind}"), None),
        Depth(lambda op: ("server.protocol", "codec round trip"), 0),
        Depth(lambda op: ("server.transport", "ServerSession.ping"), 0),
        Depth(lambda op: ("db.session", f"Session.{op.kind} (hot)"), 0),
    )

    def callers_at(self, depth: int) -> int:
        return 1 if depth in (1, 3) else self.callers

    def generate(self, seed: int) -> Inputs:
        rng = random.Random(seed)
        spec = SPEC.format(seed=seed)
        database = build_database(spec)
        descriptors = list(database.relation("HARD").descriptors())
        pool = [
            WSSet(descriptors[STRIDE * i : STRIDE * i + WINDOW]) for i in range(POOL)
        ]
        # Sweep targets follow the pool: entry POOL + i is query i's prefix.
        pool += [WSSet(list(query)[:SWEEP_WINDOW]) for query in pool[:POOL]]
        points = tuple((i + 1) / (SWEEP_POINTS + 1) for i in range(SWEEP_POINTS))
        ops = [Op("confidence", (rng.randrange(POOL),)) for _ in range(OPS * 7 // 10)]
        ops += [
            Op("many", tuple(rng.sample(range(POOL), MANY))) for _ in range(OPS * 2 // 10)
        ]
        for _ in range(OPS - len(ops)):
            target = POOL + rng.randrange(POOL)
            ops.append(
                Op("what_if", (target,), sorted(pool[target].variables())[0], points)
            )
        rng.shuffle(ops)
        return Inputs(ops, {"spec": spec, "database": database, "pool": pool})

    def reference(self, inputs: Inputs) -> list:
        with repro.connect(inputs.data["database"]) as local:
            results = [_ask(local, inputs.data["pool"], op) for op in inputs.ops]
        # What a server would reply, for the codec depth.
        self._replies = [_pin_times(result) for result in results]
        return [_values(result) for result in results]

    def matches(self, answer, expected) -> bool:
        return answer == expected  # bit-identical to the local Session

    def start(self, inputs: Inputs, depth: int) -> System:
        pool = inputs.data["pool"]
        if depth == 1:
            return _LocalOnly(pool)
        if depth == 3:
            system = _LocalOnly(pool, inputs.data["database"])
            _warm(system.local, inputs)
            return system
        system = _Served(inputs.data["spec"], self.callers, pool)
        try:
            _warm(system.sessions[0], inputs)
            for session in system.sessions:
                session.ping()
        except BaseException:
            system.close()
            raise
        return system

    def execute(self, system, caller, index, op, depth, prepared):
        if depth == 1:
            return self._codec(system, index, op)
        if depth == 2:
            system.sessions[caller].ping()
            return self.expected[index]
        if depth == 3:
            return _values(_ask(system.local, system.pool, op))
        return _values(
            _ask(system.sessions[caller], system.pool, op, trace=depth == PROGRAM_TRACE)
        )

    def _codec(self, system, index: int, op: Op):
        """Everything the wire format costs both ends, on the real payloads."""
        from repro.db.api import target_to_payload
        from repro.server import protocol

        pool = system.pool
        result = self._replies[index]
        if op.kind == "confidence":
            name = "confidence"
            args = ConfidenceRequest(pool[op.queries[0]], "exact").to_payload()
        elif op.kind == "many":
            name = "confidence_many"
            args = {
                "requests": [
                    ConfidenceRequest(pool[q], "exact").to_payload() for q in op.queries
                ]
            }
        else:
            name = "what_if"
            args = {
                "target": target_to_payload(pool[op.queries[0]]),
                "variable": op.variable,
                "ps": list(op.points),
            }
        sent = protocol.encode_frame(protocol.request_frame(name, args, id=index + 1))
        received = protocol.decode_payload(sent[protocol.HEADER.size :])["args"]
        if op.kind == "confidence":
            ConfidenceRequest.from_payload(received)
            reply = result.to_payload()
        elif op.kind == "many":
            for payload in received["requests"]:
                ConfidenceRequest.from_payload(payload)
            reply = {"results": [entry.to_payload() for entry in result]}
        else:
            reply = {"values": result, "points": len(result)}
        answered = protocol.encode_frame(protocol.ok_frame(index + 1, reply))
        decoded = protocol.decode_payload(answered[protocol.HEADER.size :])["result"]
        system.add("bytes", len(sent) + len(answered))
        if op.kind == "confidence":
            return ConfidenceResult.from_payload(decoded).value
        if op.kind == "many":
            return [ConfidenceResult.from_payload(p).value for p in decoded["results"]]
        return decoded["values"]

    def layer_metrics(self, trace) -> dict[str, float]:
        ops = len(trace.inputs.ops)
        count = trace.count
        circuits = count("circuits_compiled") + count("circuit_cache_hits")
        client_ms = trace.mean_ms(0)
        server_ms = (
            count("op_seconds") / count("op_count") * 1e3 if count("op_count") else 0.0
        )
        codec_ms, ping_ms, hot_ms = (trace.mean_ms(depth) for depth in (1, 2, 3))
        ping_p50 = statistics.median(
            statistics.median(result.op_seconds) for result in trace.passes[2]
        ) * 1e3
        return {
            **trace.engine_counts(),
            "db.session.hot_ms": hot_ms,
            "circuit.cache_hit_rate":
                count("circuit_cache_hits") / circuits if circuits else 0.0,
            "server.protocol.codec_us_per_op": codec_ms * 1e3,
            "server.protocol.bytes_per_op": trace.per_round("sums", 1, "bytes") / ops,
            "server.transport.ping_rtt_ms": ping_p50,
            "server.self_ms": client_ms - codec_ms - ping_ms - hot_ms,
            "server.op_mean_ms": server_ms,
            "server.client.gap_ms": client_ms - server_ms,
            "server.admission.admitted": count("admitted"),
            "server.admission.shed": count("shed"),
            **_circuit_probe(trace.inputs),
        }


def _ask(session, pool, op: Op, trace: bool = False):
    """Issue ``op`` through any ConfidenceAPI session; returns its raw result."""
    options = {"trace": True} if trace else {}
    if op.kind == "confidence":
        return session.confidence(pool[op.queries[0]], **options)
    if op.kind == "many":
        return session.confidence_many([pool[q] for q in op.queries], **options)
    return session.what_if(pool[op.queries[0]], op.variable, list(op.points))


def _pin_times(result):
    """``result`` with its wall times replaced by :data:`PINNED_SECONDS`."""
    if isinstance(result, list):
        return [_pin_times(entry) for entry in result]
    if not isinstance(result, ConfidenceResult):
        return result  # one value of a sweep
    stats = replace(
        result.stats,
        **{
            f.name: PINNED_SECONDS
            for f in fields(result.stats)
            if f.name.endswith("time")
        },
    )
    return replace(result, wall_time=PINNED_SECONDS, stats=stats)


def _values(result):
    """``ConfidenceResult`` -> value, a list of them -> values, a sweep as is."""
    if isinstance(result, list):
        return [getattr(entry, "value", entry) for entry in result]
    return result.value


def _warm(session, inputs: Inputs) -> None:
    """Every pool query and every sweep once: memo and circuit caches fill."""
    pool = inputs.data["pool"]
    swept = set()
    for query in pool[:POOL]:
        session.confidence(query)
    for op in inputs.ops:
        if op.kind == "what_if" and op.queries not in swept:
            swept.add(op.queries)
            session.what_if(pool[op.queries[0]], op.variable, list(op.points))


def _circuit_probe(inputs: Inputs) -> dict[str, float]:
    """Compile and sweep the pool's circuits in a fresh local session."""
    pool = inputs.data["pool"]
    sweeps = [op for op in inputs.ops if op.kind == "what_if"][:POOL]
    with repro.connect(inputs.data["database"]) as local:
        started = time.perf_counter()
        for query in pool[POOL:]:
            local.compile(query)
        compiled = time.perf_counter()
        for _ in range(10):
            for op in sweeps:
                local.what_if(pool[op.queries[0]], op.variable, list(op.points))
        swept = time.perf_counter()
    points = 10 * len(sweeps) * SWEEP_POINTS
    return {
        "circuit.compile_ms": (compiled - started) / POOL * 1e3,
        "circuit.eval_points_per_s": points / (swept - compiled) if sweeps else 0.0,
    }
