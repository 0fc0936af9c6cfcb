"""Degradation semantics: transient faults, killed shards, partial results.

The cluster's failure contract (ISSUE 10): a transiently failing shard is
retried under the link's :class:`RetryPolicy` to the *correct* answer; a
shard that stays dead raises a typed
:class:`~repro.errors.ShardUnavailableError` naming it — promptly, never a
hang — unless ``on_shard_failure="partial"`` asked for degraded
``confidence_many`` batches, in which case unaffected slots are answered
and affected slots carry the error object.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.cluster import LocalCluster
from repro.cluster.bootstrap import _ShardThread
from repro.core.wsset import WSSet
from repro.errors import PartitionError, ShardUnavailableError, UnknownRelationError
from repro.server.client import RetryPolicy
from repro.testing import faults

FAST_RETRY = RetryPolicy(attempts=3, base_delay=0.01, max_delay=0.05)


def targets_by_shard(session, hardmix_db):
    """One small ws-set target per shard, keyed by the owning shard."""
    shard_map = session.shard_map
    per_shard: dict[int, list] = {}
    for descriptor in hardmix_db.relation("HARD").descriptors():
        shard = shard_map.shard_of(next(iter(descriptor.variables)))
        per_shard.setdefault(shard, []).append(descriptor)
    return {shard: WSSet(members[:3]) for shard, members in per_shard.items()}


class TestTransientFaults:
    def test_dropped_frames_are_retried_to_the_exact_answer(
        self, cluster, single
    ):
        expected = single.confidence("HARD").value
        with cluster.connect(retry=FAST_RETRY) as session:
            faults.arm("frame.send", faults.Fault("drop", times=2))
            assert session.confidence("HARD").value == expected
            snapshot = session.metrics()
            retries = sum(
                counter
                for key, counter in snapshot["counters"].items()
                if key.startswith("repro_cluster_shard_retries_total")
            )
            assert retries >= 1

    def test_truncated_frames_are_retried_to_the_exact_answer(
        self, cluster, single
    ):
        expected = single.confidence("HARD").value
        with cluster.connect(retry=FAST_RETRY) as session:
            faults.arm("frame.send", faults.Fault("truncate", times=1))
            assert session.confidence("HARD").value == expected


class TestKilledShard:
    def test_fail_fast_raises_shard_unavailable_without_hanging(
        self, cluster
    ):
        with cluster.connect(retry=FAST_RETRY) as session:
            cluster.kill(1)
            started = time.monotonic()
            with pytest.raises(ShardUnavailableError) as info:
                session.confidence("HARD")
            assert time.monotonic() - started < 10.0
            dead = cluster.addresses[1]
            assert info.value.shard == f"{dead[0]}:{dead[1]}"

    def test_targets_on_live_shards_keep_answering(
        self, cluster, single, hardmix_db
    ):
        with cluster.connect(retry=FAST_RETRY) as session:
            per_shard = targets_by_shard(session, hardmix_db)
            cluster.kill(2)
            for shard, target in per_shard.items():
                if shard == 2:
                    with pytest.raises(ShardUnavailableError):
                        session.confidence(target)
                else:
                    assert (
                        session.confidence(target).value
                        == single.confidence(target).value
                    )
            health = session.health()
            assert health["status"] == "degraded"
            dead = cluster.addresses[2]
            assert (
                health["shards"][f"{dead[0]}:{dead[1]}"]["status"] == "unreachable"
            )

    def test_partial_mode_answers_unaffected_slots(
        self, cluster, single, hardmix_db
    ):
        with cluster.connect(
            retry=FAST_RETRY, on_shard_failure="partial"
        ) as session:
            per_shard = targets_by_shard(session, hardmix_db)
            ordered = [per_shard[shard] for shard in sorted(per_shard)]
            cluster.kill(1)
            results = session.confidence_many(ordered)
            assert isinstance(results[1], ShardUnavailableError)
            assert results[0].value == single.confidence(ordered[0]).value
            assert results[2].value == single.confidence(ordered[2]).value
            # A split-routed slot touching the dead shard degrades too.
            mixed = session.confidence_many(["HARD", ordered[0]])
            assert isinstance(mixed[0], ShardUnavailableError)
            assert mixed[1].value == single.confidence(ordered[0]).value

    def test_partial_mode_still_raises_for_single_confidence_and_what_if(
        self, cluster, hardmix_db
    ):
        with cluster.connect(
            retry=FAST_RETRY, on_shard_failure="partial"
        ) as session:
            shard_map = session.shard_map
            cluster.kill(0)
            with pytest.raises(ShardUnavailableError):
                session.confidence("HARD")
            variable = next(
                v for v, shard in shard_map.variables.items() if shard == 0
            )
            with pytest.raises(ShardUnavailableError):
                session.what_if("HARD", variable, [0.25, 0.75])

    def test_typed_errors_are_not_masked_by_partial_mode(self, cluster):
        with cluster.connect(
            retry=FAST_RETRY, on_shard_failure="partial"
        ) as session:
            with pytest.raises(UnknownRelationError):
                session.confidence_many(["HARD", "NOPE"])


class TestBootstrap:
    def test_map_bootstraps_from_any_reachable_shard(self, cluster, single):
        cluster.kill(0)
        with cluster.connect(retry=FAST_RETRY) as session:
            assert session.shard_map.shards == 3
            # Shard 0's slice is dark, the rest answers.
            per_shard = {
                shard: None for shard in session.shard_map.variables.values()
            }
            assert set(per_shard) == {0, 1, 2}

    def test_all_shards_down_raises_shard_unavailable(self, cluster):
        for index in range(3):
            cluster.kill(index)
        with pytest.raises(ShardUnavailableError):
            cluster.connect(retry=FAST_RETRY)

    def test_shard_count_mismatch_is_a_partition_error(self, cluster):
        with pytest.raises(PartitionError):
            from repro.cluster import ClusterSession

            ClusterSession(cluster.addresses[:2], retry=FAST_RETRY)

    def test_non_sharded_server_is_rejected(self, hardmix_db):
        from repro.cluster import ClusterSession

        thread = _ShardThread(hardmix_db, shard_info=None)
        thread.start()
        try:
            with pytest.raises(PartitionError):
                ClusterSession(
                    [(thread.host, thread.port), (thread.host, thread.port)],
                    retry=FAST_RETRY,
                )
        finally:
            thread.stop(grace=0.0)

    def test_invalid_failure_mode_is_rejected(self, cluster):
        with pytest.raises(ValueError):
            cluster.connect(on_shard_failure="retry-forever")


def test_rejected_cluster_session_leaks_no_loop_thread():
    """Arguments the coordinator rejects fail before any loop thread starts."""
    from repro.cluster import ClusterSession

    def loop_threads():
        return sum(
            thread.name == "repro-cluster-loop" for thread in threading.enumerate()
        )

    before = loop_threads()
    with pytest.raises(ValueError):
        ClusterSession([("127.0.0.1", 1)], on_shard_failure="bogus")
    with pytest.raises(ValueError):
        ClusterSession([])
    assert loop_threads() == before
