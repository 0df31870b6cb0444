"""Episode-reset invariants: restore returns the platform to factory state.

CopyAttack's black-box protocol — and the query-budget accounting of the
related attacks (knowledge-enhanced black-box, learn-to-generate
shilling) — assumes ``snapshot → attack episode → restore`` leaves *no*
trace of the rolled-back episode.  These are regression tests for the
leaks this repo shipped with (``flagged_injections`` surviving the model
rollback, per-shard wall-times/counters and bus history double-counting
work from dead episodes), pinned as a property: after a restore, every
externally observable serving counter matches a freshly constructed
service, for arbitrary episode scripts.

The process engine extends the property across process boundaries: a
restore must also roll back every worker's *replica* (model, cache
entries, stats) by re-installing it at a new epoch, and the
epoch-acknowledgement protocol must guarantee that no replica ever
serves a recommendation from a pre-injection model version once the
injection's epoch is acknowledged — pinned here for arbitrary
inject/query/restore interleavings by comparing every served list
against the coordinator model's ground truth (strict staleness mode).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import InteractionDataset
from repro.errors import RateLimitExceededError
from repro.recsys import PopularityRecommender
from repro.serving import (
    QuotaPolicy,
    RecommendationService,
    ServingConfig,
    ShardedRecommendationService,
)
from repro.utils.rng import make_rng

N_USERS = 30
N_ITEMS = 24


class _StubDetector:
    """Deterministic screener: degenerate short profiles get flagged."""

    threshold = 0.5

    def score(self, profile) -> float:
        return 1.0 if len(profile) <= 2 else 0.0


def _model():
    rng = make_rng(41)
    profiles = [
        [int(v) for v in rng.choice(N_ITEMS, size=int(rng.integers(3, 8)), replace=False)]
        for _ in range(N_USERS)
    ]
    return PopularityRecommender().fit(InteractionDataset(profiles, n_items=N_ITEMS))


# A config that exercises every counter family: caching (hits/misses/
# evictions), a tight query cap (denials), an injection quota (denials),
# and a flagging detector (flagged_injections).
_CONFIG = ServingConfig(
    cache_capacity=16,
    ttl_injections=1,
    detector_mode="flag",
    client_policies=(
        ("attacker", QuotaPolicy(max_users_per_query=4, max_total_injections=6)),
    ),
)


def _build(model, deployment: str):
    if deployment == "single":
        return RecommendationService(model, config=_CONFIG, detector=_StubDetector())
    return ShardedRecommendationService(
        model,
        n_shards=3,
        config=_CONFIG,
        detector=_StubDetector(),
        engine=deployment.removeprefix("sharded_"),
    )


def _observable_state(service) -> dict:
    """Every serving counter an experiment report can read."""
    stats = service.stats
    state = {
        "stats": (
            stats.n_requests,
            stats.n_users_served,
            stats.n_users_scored,
            stats.n_injections,
            stats.n_flagged_injections,
            stats.n_blocked_injections,
            list(stats.wall_times),
            list(stats.batch_sizes),
        ),
        "cache": service.cache_stats(),
        "flagged": list(service.flagged_injections),
        "n_users": service.n_users,
        "coordinator_denials": (
            service.limiter.n_denied_queries,
            service.limiter.n_denied_injections,
        ),
    }
    if service.cache is not None:
        # The staleness clock itself is observable (TTL-mode reports read
        # it); a restore must rewind it with the entries it stamps.
        state["cache_version"] = service.cache.version
    if isinstance(service, ShardedRecommendationService):
        state["shards"] = service.shard_summaries()
        state["shard_cache_versions"] = [
            None if shard.cache is None else shard.cache.version
            for shard in service.shards
        ]
        state["bus"] = (list(service.bus.events), service.bus.n_deliveries)
        state["makespan_s"] = service.makespan_s()
        state["total_busy_s"] = service.total_busy_s()
    return state


def _run_episode(service, ops) -> None:
    for op in ops:
        try:
            if op[0] == "inject":
                service.inject(op[1], client="attacker")
            else:
                service.query(op[1], k=op[2], client="attacker")
        except RateLimitExceededError:
            pass  # denials are part of the episode's observable record


_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("query"),
            st.lists(st.integers(0, N_USERS - 1), min_size=1, max_size=6),
            st.integers(1, 5),
        ),
        st.tuples(
            st.just("inject"),
            st.lists(st.integers(0, N_ITEMS - 1), min_size=1, max_size=5, unique=True),
        ),
    ),
    min_size=1,
    max_size=20,
)


@pytest.mark.timeout(300)
@pytest.mark.parametrize(
    "deployment",
    ["single", "sharded_serial", "sharded_threaded"],
    ids=["single", "sharded_engine_serial", "sharded_engine_threaded"],
)
@settings(max_examples=25, deadline=None)
@given(ops=_ops)
def test_restore_matches_fresh_service(deployment, ops):
    model = _model()
    service = _build(model, deployment)
    try:
        base = service.snapshot()
        _run_episode(service, ops)
        service.restore(base)
        fresh = _build(service.model, deployment)
        try:
            assert _observable_state(service) == _observable_state(fresh)
        finally:
            if hasattr(fresh, "close"):
                fresh.close()
    finally:
        if hasattr(service, "close"):
            service.close()


@pytest.mark.parametrize("deployment", ["single", "sharded_serial"])
def test_flagged_injections_cleared_on_restore(deployment):
    """Flagged records from rolled-back episodes must not survive: they
    reference user ids that no longer exist after the model rollback."""
    service = _build(_model(), deployment)
    base = service.snapshot()
    flagged_id = service.inject([0, 1], client="attacker")  # short → flagged
    assert [uid for uid, _ in service.flagged_injections] == [flagged_id]
    service.restore(base)
    assert service.flagged_injections == []
    assert flagged_id >= service.n_users  # the id it referenced is gone
    if hasattr(service, "close"):
        service.close()


def test_shard_and_bus_accounting_reset_on_restore():
    """Makespan, speedup, and fan-out inputs must not double-count dead
    episodes: per-shard wall-times/counters and bus history all zero."""
    service = ShardedRecommendationService(
        _model(), n_shards=3, config=ServingConfig(cache_capacity=32)
    )
    base = service.snapshot()
    service.query(list(range(N_USERS)), k=5)
    service.inject([0, 1, 2])
    assert service.total_busy_s() > 0.0
    assert service.bus.events and service.bus.n_deliveries == 3
    service.restore(base)
    assert service.makespan_s() == 0.0
    assert service.total_busy_s() == 0.0
    assert service.bus.events == [] and service.bus.n_deliveries == 0
    for shard in service.shards:
        assert shard.stats.n_requests == 0
        assert shard.stats.wall_times == []
        assert shard.cache.stats.hits == shard.cache.stats.misses == 0
        assert len(shard.cache) == 0
    # The bus still works after the reset: subscriptions persist.
    service.inject([3, 4, 5])
    assert service.bus.n_deliveries == 3


# -- process engine: the properties must hold across process boundaries ------
#
# Worker pools are expensive relative to an example, so one platform is
# built per module and reused: each example starts from a restore, which
# is sound precisely because "restore ≡ fresh" is the property under
# test — a leak would fail the comparison (and keep failing, since it
# would contaminate the shared platform's baseline too).


@pytest.fixture(scope="module")
def process_platform():
    """A persistent process-engine deployment plus its factory baselines."""
    service = _build(_model(), "sharded_process")
    base = service.snapshot()
    fresh = _build(service.model, "sharded_process")
    fresh_state = _observable_state(fresh)
    fresh.close()
    yield service, base, fresh_state
    service.close()


@pytest.mark.timeout(300)
@settings(max_examples=25, deadline=None)
@given(ops=_ops)
def test_process_restore_matches_fresh_service(process_platform, ops):
    """``restore ≡ fresh service`` holds when shard state lives in workers."""
    service, base, fresh_state = process_platform
    service.restore(base)  # start clean even if a previous example failed
    _run_episode(service, ops)
    service.restore(base)
    assert _observable_state(service) == fresh_state


_epoch_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("query"),
            st.lists(st.integers(0, N_USERS - 1), min_size=1, max_size=5),
            st.integers(1, 5),
        ),
        st.tuples(
            st.just("inject"),
            st.lists(st.integers(0, N_ITEMS - 1), min_size=1, max_size=5, unique=True),
        ),
        st.tuples(st.just("restore")),
    ),
    min_size=1,
    max_size=15,
)


@pytest.fixture(scope="module")
def epoch_platform():
    """Strict-mode process deployment with an unthrottled client."""
    service = ShardedRecommendationService(
        _model(), n_shards=3, config=ServingConfig(cache_capacity=32), engine="process"
    )
    base = service.snapshot()
    yield service, base
    service.close()


@pytest.mark.timeout(300)
@settings(max_examples=25, deadline=None)
@given(ops=_epoch_ops)
def test_acknowledged_epochs_are_never_served_stale(epoch_platform, ops):
    """No replica serves a pre-injection model version once its epoch acks.

    ``inject`` returns only after every worker acknowledged the new
    epoch, and ``restore`` only after every worker re-installed, so in
    strict staleness mode *every* subsequently served list must equal
    the coordinator model's current ground truth — for arbitrary
    interleavings.  A replica that lagged would either serve a stale
    list (caught by the ground-truth comparison) or raise
    ``StaleReplicaError`` (caught by the test failing on the exception);
    silent staleness has no remaining place to hide.
    """
    service, base = epoch_platform
    service.restore(base)
    epochs_acked = service.epoch
    try:
        for op in ops:
            if op[0] == "inject":
                service.inject(op[1])
                assert service.epoch == epochs_acked + 1
            elif op[0] == "restore":
                service.restore(base)
            else:
                _, users, k = op
                served = service.query(users, k)
                for user, items in zip(users, served):
                    np.testing.assert_array_equal(
                        items,
                        service.model.top_k(user, k),
                        err_msg=f"user {user} served a stale list at epoch {service.epoch}",
                    )
            epochs_acked = service.epoch
            # Every replica acknowledged exactly the coordinator's epoch
            # and user count — the lockstep the protocol guarantees.
            for probe in service.replica_probe():
                assert probe["epoch"] == service.epoch
                assert probe["n_users"] == service.n_users
    finally:
        service.restore(base)


def test_worker_shard_reset_rewinds_snapshot_sequence():
    """Found by repro-lint RL004 (reset-completeness, the PR 8 bug class).

    ``_WorkerShard.reset`` zeroed the mirrored counters but kept
    ``_snapshot_seq`` at its pre-reset high-water mark, so after an
    episode reset the mirror silently dropped every replica snapshot up
    to the old sequence number — cache counters froze at zero until the
    worker's seq overtook the dead episode's.
    """
    from repro.serving.replica import CacheSnapshot
    from repro.serving.sharded import _WorkerShard

    shard = _WorkerShard(index=0, config=ServingConfig(cache_capacity=8), n_items=16)
    shard.apply_snapshot(CacheSnapshot(seq=5, hits=3, misses=2, n_entries=4))
    assert shard.cache.stats.hits == 3

    shard.reset()
    assert shard.n_replica_entries == 0

    # A fresh episode's first snapshot starts the worker seq low again;
    # the mirror must fold it in rather than treating it as stale.
    shard.apply_snapshot(CacheSnapshot(seq=1, hits=1, misses=1, n_entries=1))
    assert shard.cache.stats.hits == 1
    assert shard.cache.stats.misses == 1
    assert shard.n_replica_entries == 1
