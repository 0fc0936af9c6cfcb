"""The exact kernel, conditioning and the samplers run without numpy.

numpy only vectorises :meth:`repro.circuit.circuit.Circuit.evaluate_sweep`;
every other path is pure Python.  A fresh interpreter drives an exact
confidence, an SQL ``ASSERT`` plus a read, and the ``karp_luby`` / ``hybrid``
methods on a ws-set large enough that the clause weights once went to a numpy
kernel — then checks that numpy was never imported.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SCRIPT = textwrap.dedent(
    """
    import sys

    import repro
    from repro.db.database import ProbabilisticDatabase
    from repro.db.session import Session
    from repro.workloads.hard import HardCaseParameters, generate_hard_instance

    instance = generate_hard_instance(
        HardCaseParameters(
            num_variables=16, alternatives=4, descriptor_length=4,
            num_descriptors=40, seed=0,
        )
    )
    assert len(instance.ws_set) >= 32
    session = Session(instance.world_table)
    assert 0.0 < session.confidence(instance.ws_set).value <= 1.0
    for method in ("karp_luby", "hybrid"):
        result = session.confidence(
            instance.ws_set, method=method, seed=1, epsilon=0.3, delta=0.3,
            max_calls=2,
        )
        assert result.value > 0.0, method

    database = ProbabilisticDatabase()
    table = database.world_table
    table.add_variable("x", {1: 0.3, 2: 0.7})
    table.add_variable("y", {1: 0.4, 2: 0.6})
    relation = database.create_relation("R", ("A",))
    relation.add({"x": 1}, ("a",))
    relation.add({"y": 1}, ("a",))
    relation.add({"x": 2, "y": 2}, ("b",))
    with repro.connect(database) as connection:
        assert connection.execute("assert select true from R where A = 'a'").kind == "assert"
        assert connection.execute("select A, conf() from R").kind == "confidence"

    print("numpy" in sys.modules)
    """
)


def test_exact_assert_and_sampling_paths_never_import_numpy():
    env = dict(os.environ)
    src = Path(__file__).resolve().parents[2] / "src"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "False"
