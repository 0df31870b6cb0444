"""Replica protocol unit tests, run in-process for determinism.

The process engine executes :mod:`repro.serving.replica` inside worker
processes; these tests drive the same module-level functions directly in
the test process (the replica registry is just module state), so every
protocol branch — install, epoch-checked queries, in-order event
application, re-install, probes — is pinned without scheduling noise and is
visible to in-process coverage.  The cross-process behaviour of the very
same functions is exercised by the engine-conformance suite and the
process-engine stress/property tests.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.data import InteractionDataset
from repro.errors import ConfigurationError, StaleReplicaError
from repro.recsys import ItemKNN, PopularityRecommender
from repro.serving import ServingConfig
from repro.serving import replica as replica_proto
from repro.utils.rng import make_rng

N_USERS = 20
N_ITEMS = 24


def _model():
    rng = make_rng(67)
    profiles = [
        [int(v) for v in rng.choice(N_ITEMS, size=int(rng.integers(3, 7)), replace=False)]
        for _ in range(N_USERS)
    ]
    return PopularityRecommender().fit(InteractionDataset(profiles, n_items=N_ITEMS))


@pytest.fixture(autouse=True)
def clean_registry():
    """Each test starts (and leaves the process) with no installed replica."""
    replica_proto._REPLICA = None
    yield
    replica_proto._REPLICA = None


def _inject(epoch, user_id, profile, prewarm=None):
    """A one-record injection event: how every deployment replicates a sign-up."""
    record = replica_proto.InjectionRecord(user_id=user_id, profile=profile, owner_shard=0)
    return replica_proto.ReplicationEvent(epoch=epoch, records=(record,), prewarm=prewarm)


def _install(model, config=None, epoch=0, latency=0.0):
    config = config if config is not None else ServingConfig(cache_capacity=16)
    return replica_proto.install_replica(
        0, pickle.dumps(model), config, epoch, latency
    )


class TestInstall:
    def test_install_acknowledges_epoch_and_users(self):
        ack = _install(_model(), epoch=3)
        assert ack.shard_index == 0
        assert ack.epoch == 3
        assert ack.model_n_users == N_USERS
        assert ack.cache.n_entries == 0

    def test_cache_disabled_when_config_disables_it(self):
        ack = _install(_model(), config=ServingConfig(cache_capacity=0))
        assert ack.cache is None
        result = replica_proto.query_slice(0, [0, 1], 4, True, True)
        assert result.cache is None and result.n_scored == 2

    def test_uninstalled_worker_refuses_everything(self):
        with pytest.raises(ConfigurationError, match="install_replica"):
            replica_proto.query_slice(0, [0], 3, True, True)
        with pytest.raises(ConfigurationError, match="install_replica"):
            replica_proto.probe_replica()


class TestQuerySlice:
    def test_resolves_identically_to_the_model(self):
        model = _model()
        _install(model)
        result = replica_proto.query_slice(0, [0, 1, 2], 5, True, True)
        expected = model.top_k_batch([0, 1, 2], 5)
        for a, b in zip(result.results, expected):
            np.testing.assert_array_equal(a, b)
        assert result.n_scored == 3
        assert result.epoch == 0 and result.model_n_users == N_USERS

    def test_cache_counters_accrue_in_the_replica(self):
        _install(_model())
        replica_proto.query_slice(0, [0, 1], 5, True, True)
        result = replica_proto.query_slice(0, [0, 1, 3], 5, True, True)
        assert result.n_scored == 1  # users 0 and 1 hit the replica cache
        assert result.cache.hits == 2
        assert result.cache.misses == 3
        assert result.cache.n_entries == 3

    def test_epoch_mismatch_raises_without_serving(self):
        _install(_model(), epoch=2)
        for bad in (0, 1, 3):
            with pytest.raises(StaleReplicaError, match="epoch"):
                replica_proto.query_slice(bad, [0], 3, True, True)
        probe = replica_proto.probe_replica()
        assert probe["n_requests"] == 0  # nothing was served stale


class TestApplyEvent:
    def test_inject_applies_in_lockstep(self):
        model = _model()
        _install(model)
        replica_proto.query_slice(0, list(range(6)), 4, True, True)
        ack = replica_proto.apply_event(_inject(1, N_USERS, (0, 1, 2)))
        assert ack.epoch == 1 and ack.model_n_users == N_USERS + 1
        assert ack.cache.n_entries == 0  # strict mode flushed the cache
        assert ack.cache.invalidations > 0
        # The replica now serves the injected user at the new epoch.
        result = replica_proto.query_slice(1, [N_USERS], 4, True, True)
        assert result.model_n_users == N_USERS + 1

    def test_inject_with_mismatched_user_id_raises(self):
        _install(_model())
        with pytest.raises(StaleReplicaError, match="user id"):
            replica_proto.apply_event(_inject(1, N_USERS + 5, (0, 1)))

    def test_out_of_order_inject_raises(self):
        _install(_model())
        with pytest.raises(StaleReplicaError, match="out-of-order"):
            replica_proto.apply_event(_inject(2, N_USERS, (0, 1)))

    def test_inject_installs_prewarm_instead_of_rebuilding(self):
        coordinator = ItemKNN().fit(_model().dataset.copy())
        _install(coordinator)
        uid = coordinator.add_user([0, 2, 4])
        prewarm = coordinator.prewarm()
        replica_proto.apply_event(_inject(1, uid, (0, 2, 4), prewarm=prewarm))
        builds_after_apply = replica_proto.probe_replica()["prewarm"]["sim_builds"]
        result = replica_proto.query_slice(1, list(range(N_USERS + 1)), 5, True, True)
        assert replica_proto.probe_replica()["prewarm"]["sim_builds"] == builds_after_apply
        expected = coordinator.top_k_batch(list(range(N_USERS + 1)), 5)
        for a, b in zip(result.results, expected):
            np.testing.assert_array_equal(a, b)

    def test_resync_replaces_the_replica_wholesale(self):
        model = _model()
        _install(model)
        replica_proto.query_slice(0, list(range(8)), 4, True, True)
        replica_proto.apply_event(_inject(1, N_USERS, (0, 1)))
        ack = _install(model, epoch=2)
        assert ack.epoch == 2 and ack.model_n_users == N_USERS
        assert ack.cache.n_entries == 0
        assert ack.cache.hits == 0 and ack.cache.misses == 0
        assert replica_proto.probe_replica()["n_requests"] == 0


def test_probe_reports_the_full_replica_view():
    _install(_model(), epoch=4)
    replica_proto.query_slice(4, [0, 1], 3, True, True)
    probe = replica_proto.probe_replica()
    assert probe == {
        "shard": 0,
        "epoch": 4,
        "n_users": N_USERS,
        "n_requests": 1,
        "cache_entries": 2,
        "prewarm": {},
        "staged": False,
        "rollout_role": None,
    }
