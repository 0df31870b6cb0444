"""Serialization round-trips: every replicated component must survive them.

The process engine serializes models and shard serving state into worker
processes, which surfaced latent pickling hazards (thread locks inside
``ServiceStats`` and ``RateLimiter``).  These tests pin the fix and
guard the whole replication surface: every recommender and every serving
component round-trips through ``pickle`` *and* ``copy.deepcopy`` with
its behaviour intact — not just without raising, but scoring/counting
identically afterwards, with working (recreated) locks.
"""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest

from repro.data import InteractionDataset
from repro.errors import RateLimitExceededError
from repro.recsys import (
    ItemKNN,
    MatrixFactorization,
    NeuralCF,
    PinSageRecommender,
    PopularityRecommender,
)
from repro.serving import (
    ConsistentHashRouter,
    InjectionRecord,
    QuotaPolicy,
    RateLimiter,
    ReplicationEvent,
    ServiceStats,
    ServingConfig,
    ShardRouter,
    TopKCache,
)
from repro.utils.rng import make_rng

N_USERS = 25
N_ITEMS = 30


def _dataset() -> InteractionDataset:
    rng = make_rng(23)
    profiles = [
        [int(v) for v in rng.choice(N_ITEMS, size=int(rng.integers(3, 8)), replace=False)]
        for _ in range(N_USERS)
    ]
    return InteractionDataset(profiles, n_items=N_ITEMS)


def _round_trips(obj):
    """Both transports a replica can arrive through."""
    return [pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj)]


MODEL_FACTORIES = {
    "popularity": lambda ds: PopularityRecommender().fit(ds),
    "itemknn": lambda ds: ItemKNN().fit(ds),
    "mf": lambda ds: MatrixFactorization(n_factors=4, n_epochs=3, seed=2).fit(ds),
    "neural_cf": lambda ds: NeuralCF(n_factors=4, n_epochs=1, seed=2).fit(ds),
    "pinsage": lambda ds: PinSageRecommender(
        n_factors=4, n_epochs=3, patience=2, seed=2
    ).fit(ds),
}


@pytest.mark.parametrize("model_name", sorted(MODEL_FACTORIES))
class TestModelRoundTrips:
    def test_scores_and_topk_survive(self, model_name):
        model = MODEL_FACTORIES[model_name](_dataset())
        users = list(range(N_USERS))
        expected_scores = model.scores_batch(users)
        expected_topk = model.top_k_batch(users, 7)
        for clone in _round_trips(model):
            np.testing.assert_array_equal(clone.scores_batch(users), expected_scores)
            for a, b in zip(clone.top_k_batch(users, 7), expected_topk):
                np.testing.assert_array_equal(a, b)

    def test_injection_pathway_survives(self, model_name):
        """A replica must keep accepting replicated injections after the
        trip — add_user is the event every inject broadcast applies."""
        model = MODEL_FACTORIES[model_name](_dataset())
        profile = [0, 2, 4, 6]
        for clone in _round_trips(model):
            assert clone.add_user(profile) == N_USERS
            model_copy_topk = clone.top_k(N_USERS, 5)
            assert model_copy_topk.shape == (5,)
        # The original was never mutated by its clones.
        assert model.dataset.n_users == N_USERS

    def test_prewarm_state_survives(self, model_name):
        model = MODEL_FACTORIES[model_name](_dataset())
        state = model.prewarm()
        restored = pickle.loads(pickle.dumps(state))
        clone = pickle.loads(pickle.dumps(model))
        clone.apply_prewarm(restored)
        np.testing.assert_array_equal(
            clone.top_k(0, 5), model.top_k(0, 5)
        )


class TestServingComponentRoundTrips:
    def test_service_stats(self):
        stats = ServiceStats()
        stats.record_request(4, 2, 0.25)
        stats.record_request(1, 1, 0.5)
        for clone in _round_trips(stats):
            assert clone.n_requests == 2
            assert clone.n_users_served == 5
            assert clone.wall_times == [0.25, 0.5]
            clone.record_request(2, 2, 0.1)  # the recreated lock works
            assert clone.n_requests == 3
        assert stats.n_requests == 2

    def test_rate_limiter(self):
        limiter = RateLimiter(
            default_policy=QuotaPolicy(max_queries_per_window=2, window_seconds=60.0),
            per_client={"vip": QuotaPolicy()},
        )
        limiter.admit_query("alice", 1)
        limiter.admit_query("alice", 1)
        with pytest.raises(RateLimitExceededError):
            limiter.admit_query("alice", 1)
        for clone in _round_trips(limiter):
            assert clone.n_denied_queries == 1
            # Windows travelled: alice is still over quota in the clone.
            with pytest.raises(RateLimitExceededError):
                clone.admit_query("alice", 1)
            clone.admit_query("vip", 1)  # exemptions travelled too
        assert limiter.n_denied_queries == 1

    def test_topk_cache_with_entries(self):
        cache = TopKCache(capacity=4, ttl_injections=1)
        cache.store(1, 5, True, np.array([3, 1, 2]))
        cache.note_injection()
        for clone in _round_trips(cache):
            assert len(clone) == 1
            assert clone.version == 1
            np.testing.assert_array_equal(clone.lookup(1, 5, True), [3, 1, 2])
            assert clone.stats.hits == 1

    def test_serving_config_and_policies(self):
        config = ServingConfig(
            cache_capacity=64,
            ttl_injections=2,
            default_policy=QuotaPolicy(max_users_per_query=8),
            client_policies=(("attacker", QuotaPolicy(max_total_injections=3)),),
            engine="process",
        )
        for clone in _round_trips(config):
            assert clone == config

    def test_routers(self):
        keys = list(range(200))
        for router in (ShardRouter(5), ConsistentHashRouter(5, n_replicas=16)):
            expected = [router.shard_for_user(u) for u in keys]
            for clone in _round_trips(router):
                assert [clone.shard_for_user(u) for u in keys] == expected

    def test_replication_event(self):
        event = ReplicationEvent(
            kind="inject_batch",
            epoch=3,
            records=(InjectionRecord(user_id=41, profile=(1, 2, 3), owner_shard=0),),
            prewarm={"sim": np.eye(2)},
        )
        clone = pickle.loads(pickle.dumps(event))
        (record,) = clone.records
        assert (clone.kind, clone.epoch, record.user_id, record.profile) == (
            "inject_batch",
            3,
            41,
            (1, 2, 3),
        )
        np.testing.assert_array_equal(clone.prewarm["sim"], np.eye(2))
