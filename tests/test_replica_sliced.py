"""Sliced replication: per-shard user slices + shared item state.

Protocol-level tests drive :mod:`repro.serving.replica` in-process (same
style as ``test_replica_protocol.py``); integration tests stand up a
real process-engine :class:`ShardedRecommendationService` and pin the
properties the tentpole promises — served lists identical to full
replication, one replication round trip per injection burst, and no
shared-memory segment surviving service close.
"""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest

from repro.data import InteractionDataset
from repro.errors import ConfigurationError, StaleReplicaError
from repro.recsys import ItemKNN, MatrixFactorization, PopularityRecommender
from repro.serving import (
    ProcessEngine,
    RecommendationService,
    ServingConfig,
    ShardedRecommendationService,
)
from repro.serving import replica as replica_proto
from repro.serving import shared_state
from repro.serving.replica import InjectionRecord, ReplicationEvent
from repro.utils.rng import make_rng

N_USERS = 20
N_ITEMS = 24


def _profiles(seed=67):
    rng = make_rng(seed)
    return [
        [int(v) for v in rng.choice(N_ITEMS, size=int(rng.integers(3, 7)), replace=False)]
        for _ in range(N_USERS)
    ]


def _dataset():
    return InteractionDataset(_profiles(), n_items=N_ITEMS)


def _mf():
    return MatrixFactorization(n_factors=4, n_epochs=2, seed=11).fit(_dataset())


@pytest.fixture(autouse=True)
def clean_registry():
    replica_proto._REPLICA = None
    yield
    replica_proto._REPLICA = None


def _install_sliced(model, user_ids, shard_index=0, epoch=0):
    """Install a sliced replica in-process; returns (store, ack)."""
    store = shared_state.SharedItemStore(model.shared_item_state())
    user_ids = np.asarray(user_ids, dtype=np.int64)
    ack = replica_proto.install_replica_sliced(
        shard_index,
        pickle.dumps(model.slice_users(user_ids)),
        user_ids,
        store.handle(),
        ServingConfig(cache_capacity=16),
        epoch,
        0.0,
        model.dataset.n_users,
    )
    return store, ack


class TestSlicedInstallAndQuery:
    def test_ack_reports_global_user_count(self):
        """The replica holds half the users but answers consistency
        checks with the global count the coordinator verifies against."""
        model = _mf()
        store, ack = _install_sliced(model, np.arange(0, N_USERS, 2))
        try:
            assert ack.model_n_users == N_USERS
            assert replica_proto.probe_replica()["n_users"] == N_USERS
            assert replica_proto.probe_memory()["mode"] == "sliced"
            assert replica_proto.probe_memory()["n_local_users"] == N_USERS // 2
        finally:
            store.close()

    def test_slice_serves_global_ids_identically_to_full_model(self):
        model = _mf()
        owned = np.arange(0, N_USERS, 2)  # even global ids
        store, _ = _install_sliced(model, owned)
        try:
            result = replica_proto.query_slice(0, owned[:5], 5, True, True)
            expected = model.top_k_batch(owned[:5], 5)
            for a, b in zip(result.results, expected):
                np.testing.assert_array_equal(a, b)
        finally:
            store.close()

    def test_foreign_user_is_refused_not_misserved(self):
        """A user outside the slice must raise — local renumbering means
        a silent pass-through would score the *wrong user's* factors."""
        model = _mf()
        store, _ = _install_sliced(model, np.arange(0, N_USERS, 2))
        try:
            with pytest.raises(StaleReplicaError, match="slice"):
                replica_proto.query_slice(0, [1], 5, True, True)  # odd id
        finally:
            store.close()

    def test_slice_payload_excludes_the_item_side(self):
        """The install blob carries user state only: a catalog-sized
        model must pickle to a slice far smaller than the full model."""
        model = _mf()
        full = len(pickle.dumps(model))
        sliced = len(pickle.dumps(model.slice_users(np.arange(2))))
        assert sliced < full
        with pytest.raises(Exception):
            # The slice alone cannot score: the item side only exists in
            # shared memory, attached at install time.
            model.slice_users(np.arange(2)).top_k_batch([0], 3)


class TestSlicedInjectBatch:
    def _inject_event(self, model, profiles, owner_shard, epoch_base=0):
        records = []
        for profile in profiles:
            uid = model.add_user(profile)
            records.append(
                InjectionRecord(
                    user_id=uid,
                    profile=tuple(profile),
                    owner_shard=owner_shard,
                    user_state=model.user_state(uid),
                )
            )
        return ReplicationEvent(
            kind="inject_batch",
            epoch=epoch_base + len(records),
            records=tuple(records),
        )

    def test_owner_shard_appends_and_serves_the_new_user(self):
        model = _mf()
        store, _ = _install_sliced(model, np.arange(N_USERS))
        try:
            event = self._inject_event(model, [[0, 2, 4]], owner_shard=0)
            ack = replica_proto.apply_event(event)
            assert ack.epoch == 1 and ack.model_n_users == N_USERS + 1
            result = replica_proto.query_slice(1, [N_USERS], 4, True, True)
            expected = model.top_k_batch([N_USERS], 4)
            np.testing.assert_array_equal(result.results[0], expected[0])
        finally:
            store.close()

    def test_non_owner_shard_tracks_the_count_without_appending(self):
        model = _mf()
        store, _ = _install_sliced(model, np.arange(N_USERS))  # shard 0
        try:
            event = self._inject_event(model, [[1, 3]], owner_shard=1)
            ack = replica_proto.apply_event(event)
            assert ack.model_n_users == N_USERS + 1  # global count advanced
            probe = replica_proto.probe_memory()
            assert probe["n_local_users"] == N_USERS  # slice unchanged
            with pytest.raises(StaleReplicaError, match="slice"):
                replica_proto.query_slice(1, [N_USERS], 4, True, True)
        finally:
            store.close()

    def test_whole_burst_applies_as_one_event(self):
        model = _mf()
        store, _ = _install_sliced(model, np.arange(N_USERS))
        try:
            event = self._inject_event(
                model, [[0, 1], [2, 3], [4, 5]], owner_shard=0
            )
            ack = replica_proto.apply_event(event)
            assert ack.epoch == 3 and ack.model_n_users == N_USERS + 3
            users = [N_USERS, N_USERS + 1, N_USERS + 2]
            result = replica_proto.query_slice(3, users, 4, True, True)
            expected = model.top_k_batch(users, 4)
            for a, b in zip(result.results, expected):
                np.testing.assert_array_equal(a, b)
        finally:
            store.close()

    def test_out_of_order_batch_raises(self):
        model = _mf()
        store, _ = _install_sliced(model, np.arange(N_USERS))
        try:
            event = self._inject_event(model, [[0, 1]], owner_shard=0, epoch_base=4)
            with pytest.raises(StaleReplicaError, match="out-of-order"):
                replica_proto.apply_event(event)
        finally:
            store.close()

    def test_mismatched_user_id_raises(self):
        model = _mf()
        store, _ = _install_sliced(model, np.arange(N_USERS))
        try:
            bad = ReplicationEvent(
                kind="inject_batch",
                epoch=1,
                records=(
                    InjectionRecord(
                        user_id=N_USERS + 7,
                        profile=(0, 1),
                        owner_shard=0,
                        user_state=np.zeros(4),
                    ),
                ),
            )
            with pytest.raises(StaleReplicaError, match="user id"):
                replica_proto.apply_event(bad)
        finally:
            store.close()

    def test_full_replica_applies_inject_batch_too(self):
        """The batched event is mode-agnostic: a full replica replays
        every ``add_user`` and installs the post-burst pre-warm once."""
        model = PopularityRecommender().fit(_dataset())
        replica_proto.install_replica(
            0, pickle.dumps(model), ServingConfig(cache_capacity=16), 0, 0.0
        )
        uid_a = model.add_user([0, 1])
        uid_b = model.add_user([2, 3])
        ack = replica_proto.apply_event(
            ReplicationEvent(
                kind="inject_batch",
                epoch=2,
                records=(
                    InjectionRecord(uid_a, (0, 1), owner_shard=0),
                    InjectionRecord(uid_b, (2, 3), owner_shard=0),
                ),
                prewarm=model.prewarm(),
            )
        )
        assert ack.epoch == 2 and ack.model_n_users == N_USERS + 2


class TestSlicedResync:
    def test_resync_swaps_in_the_rolled_back_slice(self):
        model = _mf()
        base_factors = model.user_factors.copy()
        owned = np.arange(N_USERS)
        store, _ = _install_sliced(model, owned)
        try:
            event = TestSlicedInjectBatch()._inject_event(
                model, [[0, 1]], owner_shard=0
            )
            replica_proto.apply_event(event)
            # Roll the coordinator back and reship the slice.
            model.restore((_dataset(), base_factors))
            ack = replica_proto.resync_sliced(
                2, pickle.dumps(model.slice_users(owned)), owned, N_USERS
            )
            assert ack.epoch == 2 and ack.model_n_users == N_USERS
            assert ack.cache.n_entries == 0 and ack.cache.version == 0
            result = replica_proto.query_slice(2, [0, 1], 5, True, True)
            expected = model.top_k_batch([0, 1], 5)
            for a, b in zip(result.results, expected):
                np.testing.assert_array_equal(a, b)
        finally:
            store.close()

    def test_resync_sliced_requires_a_sliced_replica(self):
        model = _mf()
        replica_proto.install_replica(
            0, pickle.dumps(model), ServingConfig(cache_capacity=16), 0, 0.0
        )
        with pytest.raises(ConfigurationError, match="sliced replica"):
            replica_proto.resync_sliced(
                1, pickle.dumps(model.slice_users(np.arange(2))), np.arange(2), N_USERS
            )


def _service(model, **kwargs):
    kwargs.setdefault("n_shards", 2)
    kwargs.setdefault("engine", "process")
    kwargs.setdefault("config", ServingConfig(cache_capacity=32))
    return ShardedRecommendationService(model, **kwargs)


class TestSlicedServiceIntegration:
    def test_sliced_is_the_process_engine_default(self):
        with _service(_mf()) as service:
            assert service._sliced
            assert service._shared_store is not None

    def test_replication_full_opts_out(self):
        config = ServingConfig(cache_capacity=32, replication="full")
        with _service(_mf(), config=config) as service:
            assert not service._sliced
            assert service._shared_store is None
            service.query([0, 1, 2], k=5)

    def test_invalid_replication_value_rejected(self):
        with pytest.raises(ConfigurationError, match="replication"):
            ServingConfig(replication="gossip")

    def test_model_without_slicing_falls_back_to_full(self):
        model = _mf()
        model.supports_slicing = False  # instance-level opt-out
        with _service(model) as service:
            assert not service._sliced
            service.query([0, 1], k=5)

    def test_serves_identically_to_full_replication(self):
        users = list(range(N_USERS))
        with _service(_mf()) as sliced:
            sliced_lists = sliced.query(users, k=5)
        full_config = ServingConfig(cache_capacity=32, replication="full")
        with _service(_mf(), config=full_config) as full:
            full_lists = full.query(users, k=5)
        for a, b in zip(sliced_lists, full_lists):
            np.testing.assert_array_equal(a, b)

    def test_injection_burst_is_one_replication_event(self):
        with _service(_mf()) as service:
            published = []
            original = service.bus.publish
            service.bus.publish = lambda event: (published.append(event), original(event))
            assigned = service.inject_batch([[0, 1, 2], [3, 4], [5, 6, 7]])
            assert len(published) == 1  # one event for the whole burst
            assert published[0].kind == "inject_batch"
            assert len(published[0].records) == 3
            assert service.bus.n_deliveries == 3 * service.n_shards
            # Every injected user is immediately servable, wherever routed.
            results = service.query(assigned, k=5)
            assert all(len(r) == 5 for r in results)

    def test_full_replication_burst_is_one_replication_event(self):
        """Full replicas coalesce a burst too: one event with every record,
        one round trip, and the coordinator's pre-warmed similarity matrix
        installed by every replica instead of rebuilt."""
        model = ItemKNN().fit(_dataset())
        oracle = RecommendationService(copy.deepcopy(model))
        profiles = [[0, 1, 2], [3, 4], [5, 6, 7]]
        config = ServingConfig(cache_capacity=32, replication="full")
        with _service(model, config=config, engine=ProcessEngine(2)) as service:
            epoch = service.epoch
            builds = [probe["prewarm"]["sim_builds"] for probe in service.replica_probe()]
            published = []
            original = service.bus.publish
            service.bus.publish = lambda event: (published.append(event), original(event))
            assert service.inject_batch(profiles) == oracle.inject_batch(profiles)
            assert [event.kind for event in published] == ["inject_batch"]
            assert len(published[0].records) == 3
            users = list(range(oracle.n_users))
            for served, expected in zip(service.query(users, k=5), oracle.query(users, k=5)):
                np.testing.assert_array_equal(served, expected)
            probes = service.replica_probe()
            assert [probe["epoch"] for probe in probes] == [epoch + 3] * 2
            assert [probe["n_users"] for probe in probes] == [N_USERS + 3] * 2
            assert [probe["prewarm"]["sim_builds"] for probe in probes] == builds

    def test_single_injection_rides_the_batched_path(self):
        with _service(_mf()) as service:
            uid = service.inject([0, 2, 4])
            assert service.bus.events == [uid]
            np.testing.assert_array_equal(
                service.query([uid], k=5)[0], service.model.top_k_batch([uid], 5)[0]
            )

    def test_dirty_shared_state_is_republished(self):
        """ItemKNN's similarity matrix lives in shared memory and changes
        with every injection: post-injection lists must match the
        coordinator's ground truth exactly."""
        with _service(ItemKNN().fit(_dataset())) as service:
            uid = service.inject([0, 2, 4, 6])
            users = [0, 5, uid]
            results = service.query(users, k=5, use_cache=False)
            expected = service.model.top_k_batch(users, 5)
            for a, b in zip(results, expected):
                np.testing.assert_array_equal(a, b)

    def test_restore_resyncs_every_slice(self):
        with _service(_mf()) as service:
            base = service.snapshot()
            baseline = service.query(list(range(6)), k=5, use_cache=False)
            service.inject_batch([[0, 1], [2, 3]])
            service.restore(base)
            assert service.n_users == N_USERS
            for probe in service.replica_probe():
                assert probe["n_users"] == N_USERS
                assert probe["epoch"] == service.epoch
            after = service.query(list(range(6)), k=5, use_cache=False)
            for a, b in zip(baseline, after):
                np.testing.assert_array_equal(a, b)

    def test_signups_across_row_growths_match_a_single_service(self):
        """Sign-ups that cross several row-buffer growths on every replica,
        a restore, then more sign-ups: the sliced fleet serves exactly
        what one service over the same model serves."""
        model = _mf()
        oracle = RecommendationService(copy.deepcopy(model), config=ServingConfig(cache_capacity=32))
        rng = make_rng(71)
        signups = (
            [int(v) for v in rng.choice(N_ITEMS, size=int(rng.integers(2, 6)), replace=False)]
            for _ in range(400)
        )

        def local_counts(service):
            probes = service._engine.broadcast(replica_proto.probe_memory)
            return [probe["n_local_users"] for probe in probes]

        def sign_up(service, count):
            for _ in range(count):
                profile = next(signups)
                assert service.inject(profile) == oracle.inject(profile)

        def assert_serves_like_the_oracle(service):
            users = list(range(oracle.n_users))
            for served, expected in zip(service.query(users, k=5), oracle.query(users, k=5)):
                np.testing.assert_array_equal(served, expected)
            for probe in service.replica_probe():
                assert probe["n_users"] == service.n_users == oracle.n_users
                assert probe["epoch"] == service.epoch

        service = _service(model)
        segments = [spec.name for _, spec in service._shared_store.handle().segments]
        try:
            start = local_counts(service)
            base, oracle_base = service.snapshot(), oracle.snapshot()
            sign_up(service, 160)
            # Every replica's rows start at exact size and double when
            # full, so more than 4x the start means three growths or more.
            assert all(after > 4 * before for before, after in zip(start, local_counts(service)))
            assert_serves_like_the_oracle(service)
            service.restore(base)
            oracle.restore(oracle_base)
            assert local_counts(service) == start
            assert_serves_like_the_oracle(service)
            sign_up(service, 60)
            assert_serves_like_the_oracle(service)
        finally:
            service.close()
        assert not any(shared_state.segment_exists(name) for name in segments)

    def test_close_unlinks_every_segment(self):
        service = _service(_mf())
        names = [spec.name for _, spec in service._shared_store.handle().segments]
        assert names and all(shared_state.segment_exists(n) for n in names)
        service.close()
        assert not any(shared_state.segment_exists(n) for n in names)
