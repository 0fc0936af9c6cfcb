"""Round protocol, process hygiene, span log and statistics of the benchmark.

Everything here is workload-agnostic.  A *round* is one fresh system (new
database, session, server or cluster subprocess) driven through a fixed list
of operations by one or two closed-loop callers; the operations run in
*blocks*, and between blocks — never inside an operation's timing — one slice
of the reference kernel runs, so that every block knows how fast the machine
was while it ran (see ``refkernel.py``).
"""

from __future__ import annotations

import json
import os
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import refkernel
from workload import Timed

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent.parent
SOURCE_DIR = REPO_ROOT / "src"

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")

#: Seconds a child gets between SIGTERM and SIGKILL.
STOP_GRACE_S = 10.0
#: Seconds a child may take to print its readiness banner.
BOOT_TIMEOUT_S = 60.0


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-quantile (``q`` in [0, 1]) of a non-empty sample."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


# ----------------------------------------------------------------------
# /proc readers (CPU and memory of this process and its children)
# ----------------------------------------------------------------------
def cpu_seconds(pid: int) -> float:
    """user+sys CPU seconds of ``pid`` (all its threads) from ``/proc``."""
    with open(f"/proc/{pid}/stat", "rb") as handle:
        # The command name may contain spaces; fields resume after the ")".
        rest = handle.read().rpartition(b")")[2].split()
    return (int(rest[11]) + int(rest[12])) / _CLOCK_TICKS


def _status_kib(pid: int | str, key: str) -> int:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        match = re.search(rf"^{key}:\s+(\d+) kB", handle.read(), re.MULTILINE)
    return int(match.group(1)) if match else 0


def resident_kib() -> int:
    """Current resident set of this process."""
    return _status_kib("self", "VmRSS")


def peak_resident_kib(pid: int) -> int:
    """High-water resident set of ``pid`` over its whole life."""
    return _status_kib(pid, "VmHWM")


# ----------------------------------------------------------------------
# Children: always in their own session, always reaped
# ----------------------------------------------------------------------
_live_children: list["_Reaped"] = []


class _Reaped:
    """A subprocess in its own session that :meth:`stop` always reaps.

    Its own session, so that a signal to the benchmark's process group cannot
    orphan it half-stopped.  It inherits ``PYTHONHASHSEED=0`` and finds
    ``repro`` through ``PYTHONPATH``.  :meth:`stop` sends SIGTERM, waits
    :data:`STOP_GRACE_S`, then kills; either way the process is waited for.
    """

    def __init__(self, command: list[str], **pipes) -> None:
        self.process = subprocess.Popen(
            command,
            env=dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(SOURCE_DIR)),
            cwd=str(REPO_ROOT),
            start_new_session=True,
            **pipes,
        )
        _live_children.append(self)

    @property
    def pid(self) -> int:
        return self.process.pid

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=STOP_GRACE_S)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if self in _live_children:
            _live_children.remove(self)


class Child(_Reaped):
    """One ``python -m <module>`` server, booted to its readiness banner.

    It listens only on ephemeral ports.  A reader thread drains its output
    (stderr included) for as long as it lives, so the child can never block
    on a full pipe and the wait for the banner has a real deadline.
    """

    def __init__(self, module: str, arguments: list[str], ready: str) -> None:
        started = time.perf_counter()
        super().__init__(
            [sys.executable, "-m", module, *arguments],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        #: Lines printed up to and including the one that matched ``ready``.
        self.banner: list[str] = []
        self._ready = threading.Event()
        self._booted = False
        self._reader = threading.Thread(
            target=self._drain, args=(re.compile(ready),), daemon=True
        )
        self._reader.start()
        # Set on the banner and on end of output, whichever comes first.
        in_time = self._ready.wait(BOOT_TIMEOUT_S)
        if not self._booted:
            self.stop()
            raise RuntimeError(
                f"{module} "
                + ("ended its output" if in_time else f"ran {BOOT_TIMEOUT_S:.0f} s")
                + f" without printing its banner; its output: {self.banner!r}"
            )
        self.boot_seconds = time.perf_counter() - started

    def _drain(self, ready: re.Pattern) -> None:
        for line in self.process.stdout:
            if not self._booted:
                self.banner.append(line.strip())
                if ready.fullmatch(line.strip()):
                    self._booted = True
                    self._ready.set()
        self._ready.set()

    def stop(self) -> None:
        super().stop()
        self._reader.join(timeout=STOP_GRACE_S)  # ends at end of output
        self.process.stdout.close()


class ReferencePeer(_Reaped):
    """The helper process of the reference kernel's peer slices."""

    def __init__(self) -> None:
        super().__init__(
            refkernel.peer_command(),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            bufsize=0,
        )
        self.timed_slice = refkernel.Peer(self.process).timed_slice

    def stop(self) -> None:
        self.process.stdin.close()  # end of input is the helper's cue to exit
        super().stop()
        self.process.stdout.close()


@contextmanager
def reference_slices(workload):
    """The function that times one reference slice next to ``workload``.

    In-process slices for a workload that runs in this process, peer slices
    (see ``refkernel.py``) for one that is served by a child process.
    """
    if not workload.served:
        yield refkernel.timed_slice
        return
    peer = ReferencePeer()
    try:
        yield peer.timed_slice
    finally:
        peer.stop()


def stop_all_children() -> int:
    """Stop whatever is still running; returns how many had been left over."""
    leftover = list(_live_children)
    for child in leftover:
        child.stop()
    return len(leftover)


# ----------------------------------------------------------------------
# Spans (traced run only; recorded by the benchmark's own wrappers)
# ----------------------------------------------------------------------
class SpanLog:
    """In-memory span records, written out as JSON lines when the run ends.

    One span per layer call: ``trace_id`` is the operation's id, ``parent_id``
    the span that caused it.  Spans of *replayed* depths (the same operation
    issued again one public layer further down, see ``layers.py``) carry
    ``replay: true``: they lie outside their parent's interval, so a parent's
    self time subtracts a child's whole duration, not an overlap.  Every child
    span of this benchmark is such a replay.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._ids: dict[tuple[str, int], int] = {}
        self._lock = threading.Lock()

    def add(
        self,
        trace_id: str,
        depth: int,
        layer: str,
        name: str,
        start_ns: int,
        end_ns: int,
        parent_depth: int | None,
    ) -> dict:
        """Record the span of operation ``trace_id`` issued at ``depth``.

        The caller fills ``speed`` — the machine-speed factor of the block
        the span ran in — once the block's reference slices are known.
        """
        with self._lock:
            span_id = len(self.spans)
            self._ids[trace_id, depth] = span_id
            self.spans.append(
                span := {
                    "trace_id": trace_id,
                    "span_id": span_id,
                    "parent_id": None
                    if parent_depth is None
                    else self._ids[trace_id, parent_depth],
                    "layer": layer,
                    "name": name,
                    "start_ns": start_ns,
                    "end_ns": end_ns,
                    "replay": depth != 0,
                    "speed": 1.0,
                }
            )
        return span

    def self_seconds_by_layer(self) -> dict[str, float]:
        """Summed self time per layer: duration minus what children cover.

        Every duration is first scaled by its span's ``speed``, so passes
        that ran while the machine was slower or faster still subtract.
        """
        scaled = [
            (span["end_ns"] - span["start_ns"]) * span["speed"] for span in self.spans
        ]
        covered = [0.0] * len(self.spans)
        for span, duration in zip(self.spans, scaled):
            if span["parent_id"] is not None:
                covered[span["parent_id"]] += duration
        # A replay can outlast the operation it replays; the difference is
        # kept (negative) per span so that layer sums still add up to the
        # operations' total time, and only a layer's sum is floored at zero.
        totals: dict[str, float] = {}
        for span, duration, child_ns in zip(self.spans, scaled, covered):
            totals[span["layer"]] = (
                totals.get(span["layer"], 0.0) + (duration - child_ns) / 1e9
            )
        return {layer: max(0.0, seconds) for layer, seconds in totals.items()}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, separators=(",", ":")) + "\n")


# ----------------------------------------------------------------------
# One round
# ----------------------------------------------------------------------
@dataclass
class Block:
    """Raw measurements of one block of operations."""

    latencies: list[float]
    wall: float
    #: CPU seconds of the bench process and of the system's children.
    cpu_bench: float
    cpu_children: float
    #: Mean seconds of the reference slices right before and right after.
    ref: float

    @property
    def cpu(self) -> float:
        return self.cpu_bench + self.cpu_children

    @property
    def speed(self) -> float:
        """The factor that scales this block's times to the nominal machine."""
        return refkernel.REF_NOMINAL_S / self.ref


#: The five time-valued end-to-end metrics the speed factor is applied to.
NORMALISED_METRICS = ("setup_s", "ops_per_s", "p50_ms", "p95_ms", "cpu_ms_per_op")


@dataclass
class RoundResult:
    setup_seconds: float
    #: Mean seconds of the reference slices right before and right after the
    #: set-up (two on either side).
    setup_ref: float
    blocks: list[Block]
    peak_rss_kib: int
    #: Speed-normalised seconds of every operation, in operation order.
    op_seconds: list[float]
    extras: dict = field(default_factory=dict)
    sums: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)

    @property
    def operations(self) -> int:
        return len(self.op_seconds)

    @property
    def timed_seconds(self) -> float:
        return sum(block.wall for block in self.blocks)

    @property
    def speed(self) -> float:
        """The round's mean machine-speed factor."""
        return statistics.fmean(block.speed for block in self.blocks)

    def metrics(self) -> dict[str, float]:
        """The round's end-to-end values, speed-normalised, plus the raw ones.

        Each block is scaled by its ``speed`` before latencies are pooled and
        walls and CPU summed.  Set-up is scaled by the factor of its own
        slices.  Memory is not a time and is not scaled.
        """
        operations = self.operations
        factors = [block.speed for block in self.blocks]
        scaled = [
            latency * factor
            for block, factor in zip(self.blocks, factors)
            for latency in block.latencies
        ]
        raw = [latency for block in self.blocks for latency in block.latencies]
        wall = sum(block.wall * f for block, f in zip(self.blocks, factors))
        cpu = sum(block.cpu * f for block, f in zip(self.blocks, factors))
        raw_cpu = sum(block.cpu for block in self.blocks)
        return {
            "setup_s": self.setup_seconds * refkernel.REF_NOMINAL_S / self.setup_ref,
            "ops_per_s": operations / wall,
            "p50_ms": statistics.median(scaled) * 1e3,
            "p95_ms": percentile(scaled, 0.95) * 1e3,
            "cpu_ms_per_op": cpu / operations * 1e3,
            "peak_rss_mb": self.peak_rss_kib / 1024.0,
            "bench.ref_kernel_ms": statistics.fmean(b.ref for b in self.blocks) * 1e3,
            "bench.speed_factor": self.speed,
            "bench.raw_ops_per_s": operations / self.timed_seconds,
            "bench.raw_p50_ms": statistics.median(raw) * 1e3,
            "bench.raw_cpu_ms_per_op": raw_cpu / operations * 1e3,
        }


class FailureLog:
    """Counts failed operations; prints the first few reasons to stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool, describe) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.failed <= 5:
                print(f"FAILED op: {describe()}", file=sys.stderr)


class _Raised:
    """Marker answer of an operation that raised (never equal to a value)."""

    def __init__(self, text: str) -> None:
        self.text = text

    def __repr__(self) -> str:
        return f"<raised: {self.text.strip().splitlines()[-1]}>"


def run_round(
    workload,
    seed: int,
    failures: FailureLog,
    timed_slice,
    *,
    depth: int = 0,
    limit: int | None = None,
    spans: SpanLog | None = None,
    round_index: int = 0,
) -> RoundResult:
    """Set a fresh system up, drive every operation once, tear it down.

    ``timed_slice`` is what :func:`reference_slices` yields for the workload.
    Answers are checked against ``workload.expected`` after the block they
    ran in, outside any timing; an exception or a mismatch is a failed
    operation, never an exception of the benchmark.
    """
    setup_refs = [timed_slice(), timed_slice()]
    round_started = time.perf_counter()
    inputs = workload.generate(seed)
    generated = time.perf_counter()
    system = workload.start(inputs, depth)
    callers = workload.callers_at(depth)
    pool = ThreadPoolExecutor(callers) if callers > 1 else None
    try:
        setup_seconds = time.perf_counter() - round_started
        child_pids = system.child_pids
        ops = inputs.ops[:limit]
        per_block = workload.block_ops * callers
        node = workload.depths[max(depth, 0)]
        counters_before = system.counters()
        op_seconds = [0.0] * len(ops)
        blocks: list[Block] = []
        peak_self = resident_kib()
        recorded: list[dict] = []  # spans of the current block

        def drive(caller: int, start: int, stop: int):
            latencies, answers = [], []
            for index in range(start + caller, stop, callers):
                op = ops[index]
                prepared = workload.prepare(system, index, op, depth) if depth else None
                begun = time.perf_counter_ns()
                try:
                    answer = workload.execute(system, caller, index, op, depth, prepared)
                except Exception:  # an op that raises is a failed op
                    answer = _Raised(traceback.format_exc(limit=4))
                ended = time.perf_counter_ns()
                if isinstance(answer, Timed):
                    ended = begun + int(answer.seconds * 1e9)
                    answer = answer.answer
                if depth:
                    workload.finish(system, index, op, depth, prepared)
                if spans is not None:
                    layer, name = node.label(op)
                    recorded.append(
                        spans.add(
                            f"r{round_index}:op{index}", depth, layer, name,
                            begun, ended, node.parent,
                        )
                    )
                latencies.append((ended - begun) / 1e9)
                answers.append((index, answer))
            return latencies, answers

        setup_refs.append(timed_slice())
        previous_ref = timed_slice()
        setup_refs.append(previous_ref)
        for start in range(0, len(ops), per_block):
            stop = min(start + per_block, len(ops))
            bench_before = time.process_time()
            children_before = sum(cpu_seconds(pid) for pid in child_pids)
            wall_before = time.perf_counter()
            if pool is None:
                parts = [drive(0, start, stop)]
            else:
                futures = [pool.submit(drive, c, start, stop) for c in range(callers)]
                parts = [future.result() for future in futures]
            wall = time.perf_counter() - wall_before
            cpu_children = sum(cpu_seconds(pid) for pid in child_pids) - children_before
            cpu_bench = time.process_time() - bench_before
            next_ref = timed_slice()
            blocks.append(
                Block(
                    latencies=[t for latencies, _ in parts for t in latencies],
                    wall=wall,
                    cpu_bench=cpu_bench,
                    cpu_children=cpu_children,
                    ref=(previous_ref + next_ref) / 2,
                )
            )
            previous_ref = next_ref
            peak_self = max(peak_self, resident_kib())
            speed = blocks[-1].speed
            for span in recorded:
                span["speed"] = speed
            recorded.clear()
            for latencies, answers in parts:
                for seconds, (index, answer) in zip(latencies, answers):
                    op_seconds[index] = seconds * speed
                    expected = workload.expected[index]
                    failures.record(
                        not isinstance(answer, _Raised)
                        and workload.matches(answer, expected),
                        lambda: f"{workload.name} depth {depth} op {index}: "
                        f"got {answer!r}, expected {expected!r}",
                    )
        counters_after = system.counters()
        peak = peak_self + sum(peak_resident_kib(pid) for pid in child_pids)
        extras = {
            "workloads.generate_ms": (generated - round_started) * 1e3,
            **system.extras,
        }
        return RoundResult(
            setup_seconds,
            statistics.fmean(setup_refs),
            blocks,
            peak,
            op_seconds,
            extras=extras,
            sums=dict(system.sums),
            counters={
                key: value - counters_before.get(key, 0)
                for key, value in counters_after.items()
            },
        )
    finally:
        if pool is not None:
            pool.shutdown()
        system.close()
