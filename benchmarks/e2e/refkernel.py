"""The fixed reference kernel that speed-normalises every timed round.

The host this benchmark runs on drifts: back-to-back runs of identical code
move by ~12% as neighbours come and go.  A round therefore interleaves its
timed operations with slices of this kernel and reports its times relative
to how fast the kernel ran *next to them*:

    factor = REF_NOMINAL_S / mean slice seconds around the block

Time-valued end-to-end metrics are multiplied by ``factor`` (rates divided).
The kernel mimics the engine's instruction mix — dict get/set churn, big-int
bitmask and/or/shift, frozenset construction and hashing, small-tuple
sorting — in pure Python, with a fixed operation count per slice.

A slice has the shape of the workload it stands next to.  For a workload that
runs inside the benchmark process it is :func:`run_slice`, all in this
process.  For a workload served by a child process it is
:meth:`Peer.timed_slice`: the same kind of work cut into :data:`PEER_TRIPS`
request / reply round trips with a helper process (this file run as a
script), half of each trip's work on either side of a pipe — so the slice
also feels what a closed-loop caller of a server feels: the other CPU, and
the wake-ups between two processes.  On this host those follow the
neighbours less closely than the interpreter's speed does
(``cluster_fanout``, 10 runs' worth of rounds in a noisy hour: inter-quartile
range of ``ops_per_s`` 7.8% with in-process slices, 2.9% with peer slices).

**Never edit this file after the PR that added it**: every recorded number
is relative to this exact instruction sequence.  The checksums pin it.
"""

from __future__ import annotations

import os
import struct
import subprocess
import sys
import time

#: Seconds one slice took on the machine the benchmark was defined on
#: (2 vCPU, CPython 3.11).  A committed constant: it only fixes the unit of
#: the normalised numbers, so that they read like real milliseconds there.
REF_NOMINAL_S = 0.012

#: Inner iterations of one in-process slice — fixed, so a slice is always
#: the same work — and what :func:`run_slice` must return.
SLICE_ITERATIONS = 7500
SLICE_CHECKSUM = 42086315

#: A peer slice: this many round trips, each with this many iterations on
#: either side (sized to take :data:`REF_NOMINAL_S` as well), and what each
#: side's share of one trip must return.
PEER_TRIPS = 5
PEER_ITERATIONS = 700
PEER_CHECKSUM = 29436184


def _churn(iterations: int) -> int:
    """``iterations`` steps of engine-like work; returns a checksum."""
    table: dict[int, int] = {}
    mask = (1 << 190) - 1
    state = 0x9E3779B97F4A7C15
    checksum = 0
    seen = set()
    for index in range(iterations):
        state = (state * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
        key = state >> 52
        bits = (1 << (state & 127)) | (1 << ((state >> 7) & 127)) | (1 << (index & 63))
        previous = table.get(key, 0)
        table[key] = previous | bits
        if (previous & bits) and not (mask & (bits << 3)) == 0:
            checksum += 1
        members = frozenset((key & 15, (key >> 4) & 15, (key >> 8) & 15))
        if members not in seen:
            seen.add(members)
        ordered = tuple(sorted((key, index & 255, state & 1023)))
        checksum = (checksum + ordered[1] + len(members)) & 0xFFFFFFFF
    return checksum ^ len(table) ^ (len(seen) << 16)


def run_slice() -> int:
    """One fixed-size in-process slice; returns its checksum."""
    return _churn(SLICE_ITERATIONS)


def timed_slice() -> float:
    """Wall seconds of one in-process slice (checksum verified)."""
    started = time.perf_counter()
    checksum = run_slice()
    elapsed = time.perf_counter() - started
    if checksum != SLICE_CHECKSUM:
        raise RuntimeError(
            f"reference kernel was modified: checksum {checksum} != {SLICE_CHECKSUM}"
        )
    return elapsed


class Peer:
    """This side of the peer slices.

    ``process`` is a ``Popen`` of :func:`peer_command` with both ends piped
    and unbuffered; whoever started it also stops it.
    """

    def __init__(self, process: subprocess.Popen) -> None:
        self.process = process

    def timed_slice(self) -> float:
        """Wall seconds of one peer slice (both sides' checksums verified)."""
        request, reply = self.process.stdin.fileno(), self.process.stdout.fileno()
        started = time.perf_counter()
        for _ in range(PEER_TRIPS):
            ours = _churn(PEER_ITERATIONS)
            os.write(request, b"\n")
            theirs = os.read(reply, 4)
            if theirs != struct.pack("<I", ours):
                raise RuntimeError("the reference peer died or did other work")
        elapsed = time.perf_counter() - started
        if ours != PEER_CHECKSUM:
            raise RuntimeError(
                f"reference kernel was modified: checksum {ours} != {PEER_CHECKSUM}"
            )
        return elapsed


def peer_command() -> list[str]:
    """The command line of the helper process."""
    return [sys.executable, os.path.abspath(__file__)]


def _serve_peer() -> None:
    """The helper's loop: one byte in, a trip's share of work, 4 bytes out."""
    while os.read(0, 1):
        os.write(1, struct.pack("<I", _churn(PEER_ITERATIONS)))


if __name__ == "__main__":
    _serve_peer()
