"""One digest pins the exact engine's bits and frame counts.

The decomposition's float folds follow its variable choices, split order and
simplifications, so a per-frame rewrite that changes any of them moves some
answer's last bit or some frame count.  This test hashes the ``float.hex``
of seeded hard (Figure 11a ``hardmix``) and sparse (s=2, r=4) confidences,
answered through a ``Session`` and through a compiled circuit's
``evaluate()``, together with the engine's ``recursive_calls`` after each
answer.  ``EXPECTED`` was computed before the packed-count variable choice,
the bisection split and the uniform-size subsumption shortcut went in; a
change that must move it is a declared bit move, not a refactor.
"""

from __future__ import annotations

import hashlib
import random

import repro
from repro import WSSet
from repro.cluster.__main__ import build_cluster_database
from repro.workloads import HardCaseParameters, generate_hard_instance

EXPECTED = "748b70e08b8599a01707184c818939932d5c924856b9b7034dbf2267d144e2e5"


def _families(seed: int):
    rng = random.Random(seed)
    hard = build_cluster_database(f"hardmix:groups=4,n=12,r=2,s=4,w=60,seed={seed}")
    by_group: dict = {}
    for row in hard.relation("HARD"):
        by_group.setdefault(row.values[0], []).append(row.descriptor)
    hard_sets = [
        WSSet(rng.sample(pool, 30)) for pool in by_group.values() for _ in range(3)
    ]
    sparse = generate_hard_instance(
        HardCaseParameters(
            num_variables=300,
            alternatives=4,
            descriptor_length=2,
            num_descriptors=120,
            seed=seed + 1,
        )
    )
    pool = list(sparse.ws_set)
    sparse_sets = [WSSet(rng.sample(pool, 60)) for _ in range(6)]
    return [(hard.world_table, hard_sets), (sparse.world_table, sparse_sets)]


def answer_digest(seed: int) -> str:
    lines = []
    for world_table, ws_sets in _families(seed):
        with repro.connect(world_table) as session:
            for ws_set in ws_sets:
                session.clear_cache()
                value = session.confidence(ws_set).value
                frames = session.handle.engine().stats.recursive_calls
                circuit = session.compile(ws_set)
                recorded = circuit.evaluate().hex()
                lines.append(f"{value.hex()} {frames} {recorded} {len(circuit)}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_answers_and_frames_are_pinned():
    assert answer_digest(2008) == EXPECTED
