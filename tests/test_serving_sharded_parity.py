"""Parity harness: sharded serving properties beyond engine scheduling.

Engine-behaviour parity — element-wise identical top-k, merged
``ServiceStats``, and cache counters for every recommender × shard count
× execution engine — lives in the engine-conformance suite
(``tests/test_engine_conformance.py``), the single source of truth any
future engine drops into.  What remains here are the sharding properties
that are orthogonal to how slices execute: the routing scheme must not
be observable in served results, episode restores must reset every
shard's cache, duplicate users in one request must dedup within their
owning shard, and a fleet must admit and deny exactly what the single
service does, counting the denials on the same limiter.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.data import InteractionDataset
from repro.errors import RateLimitExceededError
from repro.recsys import MatrixFactorization, PopularityRecommender
from repro.serving import (
    QuotaPolicy,
    RecommendationService,
    ServingConfig,
    ShardedRecommendationService,
)
from repro.utils.rng import make_rng

N_USERS = 40
N_ITEMS = 50


def _dataset() -> InteractionDataset:
    rng = make_rng(711)
    profiles = [
        [int(v) for v in rng.choice(N_ITEMS, size=int(rng.integers(3, 10)), replace=False)]
        for _ in range(N_USERS)
    ]
    return InteractionDataset(profiles, n_items=N_ITEMS, name="parity")


@pytest.fixture(scope="module")
def fitted_models():
    dataset = _dataset()
    return {
        "popularity": PopularityRecommender().fit(dataset.copy()),
        "mf": MatrixFactorization(n_factors=4, n_epochs=5, seed=3).fit(dataset.copy()),
    }


def _script(seed: int, n_ops: int = 24) -> list[tuple]:
    """Seeded interleaving of queries (dups allowed, injected users too)
    and injections; identical for both deployments by construction."""
    rng = make_rng(seed)
    ops: list[tuple] = []
    n_users = N_USERS
    for _ in range(n_ops):
        if rng.random() < 0.3:
            profile = rng.choice(N_ITEMS, size=int(rng.integers(2, 6)), replace=False)
            ops.append(("inject", [int(v) for v in profile]))
            n_users += 1
        else:
            batch = int(rng.integers(1, 6))
            users = [int(v) for v in rng.integers(0, n_users, size=batch)]
            ops.append(("query", users, int(rng.integers(1, 6))))
    return ops


def _replay(service, ops) -> list[list[list[int]]]:
    outputs = []
    for op in ops:
        if op[0] == "inject":
            service.inject(op[1])
        else:
            outputs.append([items.tolist() for items in service.query(op[1], op[2])])
    return outputs


def test_consistent_hash_routing_parity(fitted_models):
    """The routing scheme must not be observable in served results."""
    model = fitted_models["mf"]
    config = ServingConfig(cache_capacity=256)
    ops = _script(seed=7)
    single = RecommendationService(model, config=config)
    base = single.snapshot()
    expected = _replay(single, ops)
    single.restore(base)
    for n_shards in (2, 7):
        sharded = ShardedRecommendationService(
            model, n_shards=n_shards, config=config, routing="consistent"
        )
        assert _replay(sharded, ops) == expected
        sharded.restore(base)


def test_restore_resets_every_shard(fitted_models):
    """After a restore, a replayed script yields the same outputs again."""
    model = fitted_models["popularity"]
    config = ServingConfig(cache_capacity=64, ttl_injections=1)
    ops = _script(seed=21)
    sharded = ShardedRecommendationService(model, n_shards=4, config=config)
    base = sharded.snapshot()
    first = _replay(sharded, ops)
    sharded.restore(base)
    assert _replay(sharded, ops) == first
    sharded.restore(base)
    for shard in sharded.shards:
        assert len(shard.cache) == 0


def test_duplicate_users_dedup_within_shard(fitted_models):
    """Duplicates of one user always land on one shard and cost one scoring."""
    model = fitted_models["popularity"]
    sharded = ShardedRecommendationService(
        model, n_shards=4, config=ServingConfig(cache_capacity=64)
    )
    lists = sharded.query([1, 1, 2, 1], k=3)
    assert len(lists) == 4
    np.testing.assert_array_equal(lists[0], lists[1])
    np.testing.assert_array_equal(lists[0], lists[3])
    assert sharded.stats.n_users_scored == 2


#: ``(limiter time, client, operation, argument)``.  ``attacker`` may ask
#: for at most 4 users per query and inject at most 2 profiles;
#: ``organic`` may send 3 queries per 10 s window; ``default`` is
#: unlimited.  Three operations are denied: two queries, one injection.
_QUOTA_SCRIPT = [
    (0.0, "attacker", "query", [0, 1, 2]),
    (0.0, "attacker", "query", [0, 1, 2, 3, 4, 5]),  # 6 users > 4: denied
    (0.5, "organic", "query", [3, 4]),
    (1.0, "attacker", "inject", [1, 2, 3]),
    (1.0, "organic", "query", [5, N_USERS]),
    (2.0, "organic", "query", [6, 7, 8]),
    (3.0, "organic", "query", [9]),  # 4th query inside the window: denied
    (3.0, "attacker", "inject", [4, 5]),
    (4.0, "default", "query", list(range(12))),
    (4.0, "attacker", "inject", [6, 7, 8]),  # 3rd injection: denied
    (4.0, "default", "inject", [9, 10, 11]),
    (4.5, "attacker", "query", [N_USERS, N_USERS + 1, N_USERS + 2]),
    (10.5, "organic", "query", [10, N_USERS + 2]),  # the window slid: admitted
]


def _replay_quota_script(service, now: list[float]) -> list:
    """Each operation's outcome: served lists, the assigned id, or "denied"."""
    outcomes: list = []
    for at, client, op, arg in _QUOTA_SCRIPT:
        now[0] = at
        try:
            if op == "inject":
                outcomes.append(service.inject(arg, client=client))
            else:
                outcomes.append([items.tolist() for items in service.query(arg, 5, client=client)])
        except RateLimitExceededError:
            outcomes.append("denied")
    return outcomes


def _denial_counters(service) -> tuple[int, int, int]:
    return (
        service.limiter.n_denied_queries,
        service.limiter.n_denied_injections,
        service.stats.n_rate_limited,
    )


@pytest.mark.parametrize("engine", ["serial", "process"])
def test_fleet_admits_and_counts_like_the_single_service(fitted_models, engine):
    """One quota for the whole fleet: the coordinator's limiter admits
    every query and injection, so the same script is denied at the same
    operations and counted on the same limiter counters."""
    model = fitted_models["mf"]
    config = ServingConfig(
        cache_capacity=64,
        client_policies=(
            ("attacker", QuotaPolicy(max_users_per_query=4, max_total_injections=2)),
            ("organic", QuotaPolicy(max_queries_per_window=3, window_seconds=10.0)),
        ),
    )
    now = [0.0]
    single = RecommendationService(
        copy.deepcopy(model), config=config, limiter_clock=lambda: now[0]
    )
    expected = _replay_quota_script(single, now)
    denied = [i for i, outcome in enumerate(expected) if outcome == "denied"]
    assert denied == [1, 6, 9]
    assert _denial_counters(single) == (2, 1, 3)

    with ShardedRecommendationService(
        copy.deepcopy(model),
        n_shards=3,
        config=config,
        limiter_clock=lambda: now[0],
        engine=engine,
    ) as sharded:
        served = _replay_quota_script(sharded, now)
        assert [i for i, outcome in enumerate(served) if outcome == "denied"] == denied
        assert served == expected
        assert _denial_counters(sharded) == _denial_counters(single)
