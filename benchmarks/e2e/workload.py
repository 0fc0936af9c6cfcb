"""What a workload must provide, and the small pieces they share.

A workload is a fixed list of operations made from ``--seed``, a way to set a
fresh system up for them, and an independent way to know every answer.  The
traced run additionally issues the same operations at *depths*: depth 0 is
the real, public entry point; deeper entries call one public layer further
down (or replay one component of the operation on its own), so that
subtracting a child's time from its parent's leaves the parent layer's self
time — measured entirely from outside ``src/``.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

#: Depth passed for "depth 0 with the program's own request tracing on".
PROGRAM_TRACE = -1


@dataclass
class Inputs:
    """Generated inputs of one round: the operations plus whatever they use."""

    ops: list
    data: dict = field(default_factory=dict)


class System:
    """A running system under test; subclasses add sessions and children."""

    def __init__(self) -> None:
        self.children: list = []
        #: Per-layer measurements the set-up itself produced (boot times, …).
        self.extras: dict[str, float] = {}
        #: Per-layer accumulators filled while operations run (traced run).
        self.sums: dict[str, float] = {}

    @property
    def child_pids(self) -> list[int]:
        return [child.pid for child in self.children]

    def add(self, key: str, amount: float) -> None:
        self.sums[key] = self.sums.get(key, 0.0) + amount

    def counters(self) -> dict[str, float]:
        """Exact work counts of the system so far (public stats calls)."""
        return {}

    def close(self) -> None:
        for child in self.children:
            child.stop()


@dataclass
class Timed:
    """An answer whose time is not the wall time of the call that made it.

    Used where a depth issues several sub-requests one after the other that
    the real operation overlaps: the time that counts is the slowest one.
    """

    answer: object
    seconds: float


@dataclass(frozen=True)
class Depth:
    """One node of a workload's span tree."""

    #: ``layer(op) -> (layer name, span name)``; the layer may depend on the
    #: kind of operation (an assert and a read cross different modules).
    label: object
    parent: int | None


class Workload:
    """Base class; see the four ``wl_*.py`` modules."""

    name = ""
    #: Closed-loop callers (threads / connections) driving the system.
    callers = 1
    #: Operations per caller between two reference-kernel slices.
    block_ops = 10
    #: Whether the system under test is a child process; the reference slices
    #: between the blocks then are peer slices (see ``refkernel.py``).
    served = False
    #: Whether ``expected.json`` carries this workload's answers (the local
    #: workloads; the served ones are compared ``==`` with a local Session).
    commits_expected = False
    #: The span tree: ``depths[0]`` is the real operation.
    depths: tuple[Depth, ...] = ()

    def __init__(self) -> None:
        #: Expected answer per operation index, set before the first round.
        self.expected: list = []

    def callers_at(self, depth: int) -> int:
        """Callers driving the pass at ``depth`` (in-process depths use one:
        two threads replaying pure-Python work would only time the GIL)."""
        return self.callers

    # -- inputs and answers -------------------------------------------
    def generate(self, seed: int) -> Inputs:
        """The round's inputs; a pure function of ``seed``."""
        raise NotImplementedError

    def reference(self, inputs: Inputs) -> list:
        """Every operation's answer through an independent public path."""
        raise NotImplementedError

    def matches(self, answer, expected) -> bool:
        raise NotImplementedError

    def self_check(self, seed: int) -> list[str]:
        """Brute-force checks of small instances; returns failure messages."""
        return []

    # -- running -------------------------------------------------------
    def start(self, inputs: Inputs, depth: int) -> System:
        """A fresh, warmed system able to run the operations at ``depth``."""
        raise NotImplementedError

    def prepare(self, system: System, index: int, op, depth: int):
        """Untimed work before an operation (depth > 0 only)."""
        return None

    def execute(self, system: System, caller: int, index: int, op, depth: int, prepared):
        """Run one operation; the return value is its answer (or ``Timed``)."""
        raise NotImplementedError

    def finish(self, system: System, index: int, op, depth: int, prepared) -> None:
        """Untimed work after an operation (depth > 0 only)."""

    # -- per-layer numbers ----------------------------------------------
    def layer_metrics(self, trace: "TraceData") -> dict[str, float]:
        """This workload's per-layer metrics from the traced passes."""
        return {}


@dataclass
class TraceData:
    """What the traced run hands to :meth:`Workload.layer_metrics`."""

    inputs: Inputs
    #: ``depth -> one RoundResult per traced round`` (see ``harness.py``).
    passes: dict

    def mean_ms(self, depth: int, select=None) -> float:
        """Mean milliseconds per selected op at ``depth``, median over rounds."""
        per_round = []
        for result in self.passes.get(depth, ()):
            chosen = [
                value
                for op, value in zip(self.inputs.ops, result.op_seconds)
                if select is None or select(op)
            ]
            if chosen:
                per_round.append(statistics.fmean(chosen) * 1e3)
        return statistics.median(per_round) if per_round else 0.0

    def per_round(self, table: str, depth: int, key: str) -> float:
        """Median over rounds of ``key`` in a round's ``sums``, ``extras`` or
        ``counters`` table (0 if the rounds do not have it)."""
        values = [
            getattr(result, table)[key]
            for result in self.passes.get(depth, ())
            if key in getattr(result, table)
        ]
        return statistics.median(values) if values else 0.0

    def count(self, key: str) -> float:
        """A counter's increase over the real (depth 0) timed operations."""
        return self.per_round("counters", 0, key)

    def engine_counts(self) -> dict[str, float]:
        """The engine's exact work counts, from ``statistics()`` deltas."""
        ops, frames = len(self.inputs.ops), self.count("frames")
        return {
            "core.engine.frames_per_op": frames / ops,
            "core.engine.memo_hit_rate": self.count("memo_hits") / frames if frames else 0.0,
            "core.engine.rebuilds_per_op": self.count("engine_rebuilds") / ops,
        }


def close_to(answer, expected, tolerance: float = 1e-12) -> bool:
    return isinstance(answer, float) and abs(answer - expected) <= tolerance
