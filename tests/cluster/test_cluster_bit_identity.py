"""Bit-identity of cluster answers against a single-node session.

The headline guarantee of the cluster (ISSUE 10): a three-shard cluster
answers ``confidence``/``confidence_many``/``what_if`` (and the batch
operations derived from them) *bit-identically* — ``==`` on floats, not
``pytest.approx`` — to a single-node :class:`Session` over the unpartitioned
database, for exact computation.  The comparisons run over relation-name
targets (routed via materialised per-component sub-relations), ad-hoc
ws-set targets (routed via mirror simplification and component splitting),
and the probabilistic TPC-H slice.
"""

from __future__ import annotations

from repro.cluster.coordinator import ClusterCoordinator
from repro.core.wsset import WSSet
from repro.db.algebra import project
from repro.db.session import ConfidenceRequest, Session
from repro.db.urelation import URelation


class TestHardmixBitIdentity:
    def test_relation_target_matches_single_node(self, cluster, single):
        with cluster.connect() as session:
            assert session.confidence("HARD").value == single.confidence("HARD").value

    def test_wsset_slices_match_single_node(self, cluster, single, hardmix_db):
        descriptors = list(hardmix_db.relation("HARD").descriptors())
        with cluster.connect() as session:
            for size in (1, 3, 7, 13, len(descriptors)):
                target = WSSet(descriptors[:size])
                assert (
                    session.confidence(target).value
                    == single.confidence(target).value
                ), size

    def test_confidence_many_mixed_targets(self, cluster, single, hardmix_db):
        descriptors = list(hardmix_db.relation("HARD").descriptors())
        targets = [
            "HARD",
            WSSet(descriptors[:5]),
            WSSet(descriptors[10:30]),
            ConfidenceRequest(WSSet(descriptors[2:9])),
        ]
        expected = [
            single.query(t).value
            if isinstance(t, ConfidenceRequest)
            else single.confidence(t).value
            for t in targets
        ]
        with cluster.connect() as session:
            results = session.confidence_many(targets)
        assert [result.value for result in results] == expected
        assert all(result.method == "exact" for result in results)

    def test_what_if_sweeps_match_single_node(self, cluster, single, hardmix_db):
        descriptors = list(hardmix_db.relation("HARD").descriptors())
        points = [0.05, 0.25, 0.5, 0.75, 0.95]
        with cluster.connect() as session:
            shard_map = session.shard_map
            # One swept variable per shard: the sweep runs on the owning
            # shard while every other component folds in as a constant.
            chosen: dict[int, object] = {}
            for variable, shard in shard_map.variables.items():
                chosen.setdefault(shard, variable)
            for variable in chosen.values():
                assert session.what_if("HARD", variable, points) == single.what_if(
                    "HARD", variable, points
                ), variable
            # A whole-routed ws-set target swept by a variable it references.
            target = WSSet(descriptors[:4])
            variable = next(iter(descriptors[0].variables))
            assert session.what_if(target, variable, points) == single.what_if(
                target, variable, points
            )
            # A variable the target does not reference: a constant line,
            # equal to the single node's compiled-circuit answer.
            unrelated = next(
                v
                for v in shard_map.variables
                if all(v not in d.variables for d in descriptors[:4])
            )
            assert session.what_if(target, unrelated, points) == single.what_if(
                target, unrelated, points
            )

    def test_batch_and_derived_tuple_operations(self, cluster, single):
        with cluster.connect() as session:
            rows = session.confidence_batch("HARD")
            expected = single.confidence_batch("HARD")
            assert [(r.values, r.confidence) for r in rows] == [
                (r.values, r.confidence) for r in expected
            ]
            assert session.certain_tuples("HARD") == single.certain_tuples("HARD")
            got = session.possible_tuples("HARD", threshold=0.01)
            want = single.possible_tuples("HARD", threshold=0.01)
            assert [(r.values, r.confidence) for r in got] == [
                (r.values, r.confidence) for r in want
            ]

    def test_ad_hoc_urelation_target(self, cluster, single, hardmix_db):
        relation = hardmix_db.relation("HARD")
        with cluster.connect() as session:
            assert (
                session.confidence(relation).value
                == single.confidence(relation).value
            )
            rows = session.confidence_batch(relation)
            expected = single.confidence_batch(relation)
            assert [(r.values, r.confidence) for r in rows] == [
                (r.values, r.confidence) for r in expected
            ]

    def test_ad_hoc_urelation_batch_groups_rows_in_one_pass(
        self, cluster, single, hardmix_db, monkeypatch
    ):
        # Six rows per value: one ws-set per distinct GROUP, built in one pass
        # over the rows, not one descriptors_for_values scan per value.
        relation = project(hardmix_db.relation("HARD"), ["GROUP"])
        per_value = [
            (values, list(relation.descriptors_for_values(values)))
            for values in relation.distinct_values()
        ]
        sent, scans = [], []
        confidence_many = ClusterCoordinator.confidence_many
        descriptors_for_values = URelation.descriptors_for_values

        async def recording(self, targets, *args, **kwargs):
            sent.append([list(target) for target in targets])
            return await confidence_many(self, targets, *args, **kwargs)

        def counting(self, values):
            scans.append(values)
            return descriptors_for_values(self, values)

        monkeypatch.setattr(ClusterCoordinator, "confidence_many", recording)
        monkeypatch.setattr(URelation, "descriptors_for_values", counting)
        with cluster.connect() as session:
            rows = session.confidence_batch(relation)
        assert scans == []
        assert sent == [[descriptors for _, descriptors in per_value]]
        assert [row.values for row in rows] == [values for values, _ in per_value]
        assert [(r.values, r.confidence) for r in rows] == [
            (r.values, r.confidence) for r in single.confidence_batch(relation)
        ]

    def test_empty_and_certain_targets(self, cluster, single, hardmix_db):
        from repro.core.descriptors import EMPTY_DESCRIPTOR

        descriptors = list(hardmix_db.relation("HARD").descriptors())
        empty = WSSet([])
        certain = WSSet([EMPTY_DESCRIPTOR, *descriptors[:3]])
        with cluster.connect() as session:
            assert session.confidence(empty).value == single.confidence(empty).value == 0.0
            assert (
                session.confidence(certain).value
                == single.confidence(certain).value
                == 1.0
            )

    def test_hybrid_resolving_exact_stays_bit_identical(self, cluster, single):
        with cluster.connect() as session:
            result = session.confidence("HARD", "hybrid", epsilon=0.05, seed=3)
        expected = single.confidence("HARD", "hybrid", epsilon=0.05, seed=3)
        assert result.method == expected.method == "exact"
        assert result.value == expected.value

    def test_karp_luby_is_deterministic_per_seed(self, cluster):
        with cluster.connect() as session:
            first = session.confidence("HARD", "karp_luby", epsilon=0.2, seed=11)
            second = session.confidence("HARD", "karp_luby", epsilon=0.2, seed=11)
        assert first.method == "karp_luby"
        assert first.value == second.value
        assert first.iterations == second.iterations

    def test_merged_statistics_and_metrics(self, cluster, single):
        with cluster.connect() as session:
            session.confidence("HARD")
            stats = session.statistics()
            assert stats.computations > 0
            snapshot = session.metrics()
            histograms = snapshot["histograms"]
            assert any(
                key.startswith("repro_cluster_request_seconds") for key in histograms
            )
            assert any(
                key.startswith("repro_cluster_shard_request_seconds")
                for key in histograms
            )
            health = session.health()
            assert health["status"] == "ok"
            assert len(health["shards"]) == 3
            for payload in health["shards"].values():
                assert payload["shard"]["shards"] == 3

    def test_shard_servers_answer_shard_map_frames(self, cluster):
        from repro.server import connect

        host, port = cluster.addresses[1]
        with connect(host, port) as session:
            payload = session.shard_map()
        assert payload["sharded"] is True
        assert payload["shard"] == 1
        assert payload["shards"] == 3
        assert "HARD" in payload["map"]["relations"]


class TestTPCHBitIdentity:
    def test_tpch_slice_matches_single_node(self):
        from repro.cluster import LocalCluster
        from repro.workloads.tpch import TPCHGenerator

        database = TPCHGenerator(scale_factor=0.0002, seed=0).generate().database
        single = Session(database)
        with LocalCluster(database, shards=3) as cluster:
            with cluster.connect() as session:
                for name in database.relation_names:
                    assert (
                        session.confidence(name).value
                        == single.confidence(name).value
                    ), name
                    rows = session.confidence_batch(name)
                    expected = single.confidence_batch(name)
                    assert [(r.values, r.confidence) for r in rows] == [
                        (r.values, r.confidence) for r in expected
                    ], name
