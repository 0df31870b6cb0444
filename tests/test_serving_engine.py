"""Execution engines: scheduling semantics, lifecycle, and concurrency.

The engine layer must be invisible in served results (the parity harness
pins that) — these tests cover everything else: task ordering, exception
propagation, pool lifecycle, engine selection via config/CLI plumbing,
and a stress test that hammers a threaded deployment with concurrent
query streams interleaved with injections, then checks every counter
invariant the serving reports rely on.
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np
import pytest

from repro.data import InteractionDataset
from repro.errors import ConfigurationError, StaleReplicaError
from repro.recsys import PopularityRecommender
from repro.serving import (
    AsyncEngine,
    ProcessEngine,
    ReadWriteLock,
    SerialEngine,
    ServingConfig,
    ShardedRecommendationService,
    ThreadedEngine,
    make_engine,
)
from repro.serving import replica as replica_proto
from repro.utils.rng import make_rng

N_USERS = 48
N_ITEMS = 40


def _model():
    rng = make_rng(77)
    profiles = [
        [int(v) for v in rng.choice(N_ITEMS, size=int(rng.integers(3, 9)), replace=False)]
        for _ in range(N_USERS)
    ]
    return PopularityRecommender().fit(InteractionDataset(profiles, n_items=N_ITEMS))


class TestEngineUnits:
    def test_serial_runs_in_order(self):
        calls: list[int] = []
        engine = SerialEngine()
        out = engine.run([lambda i=i: (calls.append(i), i)[1] for i in range(5)])
        assert out == calls == list(range(5))

    def test_threaded_preserves_task_order(self):
        engine = ThreadedEngine(n_workers=4)
        try:
            # Later tasks finish first; results must still come back in
            # task order, because the coordinator merges by position.
            out = engine.run(
                [lambda i=i: (time.sleep(0.02 * (4 - i)), i)[1] for i in range(4)]
            )
            assert out == list(range(4))
        finally:
            engine.close()

    def test_threaded_propagates_task_exception(self):
        engine = ThreadedEngine(n_workers=2)
        try:
            with pytest.raises(ValueError, match="boom"):
                engine.run([lambda: 1, lambda: (_ for _ in ()).throw(ValueError("boom"))])
        finally:
            engine.close()

    def test_threaded_drains_siblings_before_raising(self):
        """run() must not return (or raise) while a sibling task is still
        executing — callers release locks covering every task when it
        exits, so an abandoned in-flight worker would race later writers."""
        slow_finished = threading.Event()

        def fail_fast():
            raise ValueError("boom")

        def slow():
            time.sleep(0.05)
            slow_finished.set()
            return 1

        engine = ThreadedEngine(n_workers=2)
        try:
            with pytest.raises(ValueError, match="boom"):
                engine.run([fail_fast, slow])
            assert slow_finished.is_set()
        finally:
            engine.close()

    def test_threaded_single_task_fast_path(self):
        engine = ThreadedEngine(n_workers=2)
        try:
            main = threading.get_ident()
            assert engine.run([threading.get_ident]) == [main]
        finally:
            engine.close()

    def test_closed_engine_rejects_work(self):
        engine = ThreadedEngine(n_workers=2)
        engine.close()
        engine.close()  # idempotent
        with pytest.raises(ConfigurationError):
            engine.run([lambda: 1])

    def test_make_engine_resolution(self):
        assert isinstance(make_engine("serial", n_workers=3), SerialEngine)
        threaded = make_engine("threaded", n_workers=3)
        assert isinstance(threaded, ThreadedEngine) and threaded.n_workers == 3
        threaded.close()
        process = make_engine("process", n_workers=2)
        assert isinstance(process, ProcessEngine) and process.n_workers == 2
        process.close()
        async_engine = make_engine("async", n_workers=2)
        assert isinstance(async_engine, AsyncEngine)
        async_engine.close()
        passthrough = SerialEngine()
        assert make_engine(passthrough, n_workers=1) is passthrough
        with pytest.raises(ConfigurationError):
            make_engine("warp", n_workers=2)
        with pytest.raises(ConfigurationError):
            ThreadedEngine(n_workers=0)
        with pytest.raises(ConfigurationError):
            ProcessEngine(n_workers=0)


@pytest.mark.timeout(120)
class TestAsyncEngineUnits:
    def test_preserves_task_order_and_values(self):
        engine = AsyncEngine()
        try:
            assert engine.run([lambda i=i: i for i in range(6)]) == list(range(6))
        finally:
            engine.close()

    def test_latency_waits_overlap(self):
        """Four 50 ms modelled RPCs must cost ~one 50 ms wait, not four —
        the awaits share the event loop."""
        engine = AsyncEngine()
        try:
            t0 = time.perf_counter()
            out = engine.run([lambda i=i: i for i in range(4)], latency_s=0.05)
            elapsed = time.perf_counter() - t0
            assert out == list(range(4))
            assert 0.05 <= elapsed < 0.15
        finally:
            engine.close()

    def test_propagates_first_exception_after_drain(self):
        engine = AsyncEngine()
        try:
            with pytest.raises(ValueError, match="boom"):
                engine.run([lambda: (_ for _ in ()).throw(ValueError("boom")), lambda: 1])
        finally:
            engine.close()

    def test_closed_engine_rejects_work(self):
        engine = AsyncEngine()
        engine.close()
        engine.close()  # idempotent
        with pytest.raises(ConfigurationError):
            engine.run([lambda: 1])

    def test_run_from_own_loop_thread_rejected(self):
        """The sync bridge would deadlock waiting on its own loop; the
        engine must refuse instead (loop callers await run_async)."""
        import asyncio

        engine = AsyncEngine()
        try:
            async def call_sync_run():
                engine.run([lambda: 1])

            future = asyncio.run_coroutine_threadsafe(call_sync_run(), engine._loop)
            with pytest.raises(ConfigurationError, match="own event loop"):
                future.result(timeout=10)
        finally:
            engine.close()


@pytest.mark.timeout(120)
class TestProcessEngineUnits:
    def test_rejects_coordinator_closures(self):
        """run() is the shared-memory contract; process workers hold
        replicated state and only accept routed picklable messages."""
        engine = ProcessEngine(n_workers=1)
        try:
            with pytest.raises(ConfigurationError, match="replicated shard state"):
                engine.run([lambda: 1])
        finally:
            engine.close()

    def test_submit_routes_to_distinct_processes(self):
        engine = ProcessEngine(n_workers=2)
        try:
            pids = {engine.call(worker, os.getpid) for worker in (0, 1)}
            assert len(pids) == 2 and os.getpid() not in pids
            # Routing is sticky: the same worker index is the same process.
            assert engine.call(0, os.getpid) == engine.call(0, os.getpid)
        finally:
            engine.close()

    def test_broadcast_reaches_every_worker_in_order(self):
        engine = ProcessEngine(n_workers=3)
        try:
            pids = engine.broadcast(os.getpid)
            assert len(pids) == 3 and len(set(pids)) == 3
        finally:
            engine.close()

    def test_closed_engine_rejects_work(self):
        engine = ProcessEngine(n_workers=1)
        engine.close()
        engine.close()  # idempotent
        with pytest.raises(ConfigurationError):
            engine.submit_to(0, os.getpid)

    def test_worker_count_must_match_shards(self):
        """Replicated state is partitioned per worker, so a mismatched
        pool cannot be tolerated the way a threaded pool could — and a
        failed construction must not leak the worker processes (the
        caller never gets a service handle to close)."""
        engine = ProcessEngine(n_workers=2)
        try:
            with pytest.raises(ConfigurationError, match="replicas"):
                ShardedRecommendationService(_model(), n_shards=3, engine=engine)
            with pytest.raises(ConfigurationError):  # engine was released
                engine.submit_to(0, os.getpid)
        finally:
            engine.close()

    def test_uninstalled_replica_rejects_queries(self):
        engine = ProcessEngine(n_workers=1)
        try:
            with pytest.raises(ConfigurationError, match="install_replica"):
                engine.call(0, replica_proto.query_slice, 0, [0], 3, True, True)
        finally:
            engine.close()


@pytest.mark.timeout(120)
class TestReplicationStaleness:
    """The epoch counter makes a lagging replica detectable, never silent."""

    def test_wrong_epoch_query_raises(self):
        with ShardedRecommendationService(
            _model(), n_shards=2, engine="process"
        ) as service:
            engine = service._engine
            # Probe the shard that owns user 0 (under sliced replication
            # only the owning shard's replica holds the user's slice).
            shard = service.shard_of(0)
            # A coordinator that believes it is ahead of (or behind) the
            # replica must get a refusal, not a stale list.
            for bad_epoch in (service.epoch + 1, service.epoch + 5):
                with pytest.raises(StaleReplicaError, match="epoch"):
                    engine.call(shard, replica_proto.query_slice, bad_epoch, [0], 3, True, True)
            # The replica itself is undamaged: the correct epoch still serves.
            result = engine.call(shard, replica_proto.query_slice, service.epoch, [0], 3, True, True)
            assert result.epoch == service.epoch

    def test_out_of_order_replication_raises(self):
        """An inject event skipping an epoch means a lost update — the
        replica must refuse it rather than apply on a diverged base."""
        with ShardedRecommendationService(
            _model(), n_shards=2, engine="process"
        ) as service:
            skipped = replica_proto.ReplicationEvent(
                kind="inject_batch",
                epoch=service.epoch + 2,  # one record, but skips epoch + 1
                records=(
                    replica_proto.InjectionRecord(
                        user_id=service.n_users, profile=(0, 1, 2), owner_shard=0
                    ),
                ),
            )
            with pytest.raises(StaleReplicaError, match="out-of-order"):
                service._engine.call(0, replica_proto.apply_event, skipped)

    def test_unknown_event_kind_rejected(self):
        with ShardedRecommendationService(
            _model(), n_shards=1, engine="process"
        ) as service:
            bogus = replica_proto.ReplicationEvent(kind="gossip", epoch=1)
            with pytest.raises(ConfigurationError, match="unknown replication"):
                service._engine.call(0, replica_proto.apply_event, bogus)


class TestEngineSelection:
    def test_config_selects_engine(self):
        model = _model()
        with ShardedRecommendationService(
            model, n_shards=2, config=ServingConfig(engine="threaded")
        ) as service:
            assert service.engine_name == "threaded"
        service_default = ShardedRecommendationService(model, n_shards=2)
        assert service_default.engine_name == "serial"

    def test_engine_argument_overrides_config(self):
        model = _model()
        with ShardedRecommendationService(
            model, n_shards=2, config=ServingConfig(engine="serial"), engine="threaded"
        ) as service:
            assert service.engine_name == "threaded"

    def test_config_selects_process_engine(self):
        with ShardedRecommendationService(
            _model(), n_shards=2, config=ServingConfig(engine="process")
        ) as service:
            assert service.engine_name == "process"
            assert [probe["shard"] for probe in service.replica_probe()] == [0, 1]

    def test_replica_probe_requires_process_engine(self):
        with ShardedRecommendationService(_model(), n_shards=2) as service:
            with pytest.raises(ConfigurationError, match="process engine"):
                service.replica_probe()

    def test_invalid_config_engine_rejected(self):
        with pytest.raises(ConfigurationError):
            ServingConfig(engine="warp")

    def test_negative_shard_latency_rejected(self):
        with pytest.raises(ConfigurationError):
            ShardedRecommendationService(_model(), n_shards=2, shard_latency_s=-0.1)

    def test_shard_latency_excluded_from_busy_time(self):
        """The modelled RPC wait must not pollute the simulated makespan."""
        model = _model()
        with ShardedRecommendationService(
            model, n_shards=2, engine="serial", shard_latency_s=0.05
        ) as service:
            t0 = time.perf_counter()
            service.query(list(range(8)), k=5)
            elapsed = time.perf_counter() - t0
        assert elapsed >= 0.05  # wall clock feels the wait ...
        assert service.total_busy_s() < 0.05  # ... busy time does not


class TestReadWriteLock:
    def test_readers_share_writers_exclude(self):
        lock = ReadWriteLock()
        active, peak, total = [0], [0], [0]
        gate = threading.Barrier(3)

        def reader():
            gate.wait()
            with lock.read():
                active[0] += 1
                peak[0] = max(peak[0], active[0])
                time.sleep(0.02)
                active[0] -= 1
            total[0] += 1

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert peak[0] == 3  # readers overlapped
        with lock.write():
            assert active[0] == 0

    def test_writer_blocks_until_readers_drain(self):
        lock = ReadWriteLock()
        order: list[str] = []
        reader_in = threading.Event()

        def reader():
            with lock.read():
                reader_in.set()
                time.sleep(0.03)
                order.append("read-done")

        def writer():
            reader_in.wait()
            with lock.write():
                order.append("write")

        threads = [threading.Thread(target=reader), threading.Thread(target=writer)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert order == ["read-done", "write"]

    def test_try_acquire_read_fast_path(self):
        """The non-blocking read acquire (the async query path's loop-safe
        entry) succeeds when uncontended and refuses while a writer is
        active or waiting — it must never block the caller."""
        lock = ReadWriteLock()
        assert lock.try_acquire_read()
        assert lock.try_acquire_read()  # readers share
        lock.release_read()
        lock.release_read()
        writer_in = threading.Event()
        release_writer = threading.Event()

        def writer():
            with lock.write():
                writer_in.set()
                release_writer.wait(timeout=10)

        t = threading.Thread(target=writer)
        t.start()
        writer_in.wait(timeout=10)
        assert not lock.try_acquire_read()  # writer active -> refuse, don't block
        release_writer.set()
        t.join()
        # Blocking acquire pairs with release; writer gone, so it succeeds.
        lock.acquire_read()
        lock.release_read()
        with lock.write():
            pass  # all reads released; the write side is reachable again


@pytest.mark.timeout(120)
class TestThreadedStress:
    """Concurrent query streams interleaved with injections.

    This is the scenario the simulated-makespan era never exercised:
    several client threads querying a threaded deployment while an
    attacker thread injects profiles.  The assertions are the counter
    invariants every serving report depends on; a lost update, a stale
    read through a half-applied injection, or a deadlock fails the test
    (pytest-timeout turns a hang into a failure in CI).
    """

    N_QUERY_THREADS = 3
    QUERIES_PER_THREAD = 40
    N_INJECTIONS = 15

    def _run_stress(self, config: ServingConfig) -> ShardedRecommendationService:
        model = _model()
        service = ShardedRecommendationService(
            model, n_shards=4, config=config, engine="threaded"
        )
        errors: list[BaseException] = []
        start = threading.Barrier(self.N_QUERY_THREADS + 1)

        def querier(seed: int) -> None:
            rng = make_rng(seed)
            try:
                start.wait()
                for _ in range(self.QUERIES_PER_THREAD):
                    batch = int(rng.integers(1, 7))
                    users = [int(v) for v in rng.integers(0, N_USERS, size=batch)]
                    lists = service.query(users, k=int(rng.integers(1, 6)))
                    assert len(lists) == batch
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        def injector() -> None:
            rng = make_rng(999)
            try:
                start.wait()
                for _ in range(self.N_INJECTIONS):
                    profile = rng.choice(N_ITEMS, size=4, replace=False)
                    service.inject([int(v) for v in profile])
                    time.sleep(0.001)  # let queries land between injections
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=querier, args=(100 + i,))
            for i in range(self.N_QUERY_THREADS)
        ] + [threading.Thread(target=injector)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors
        return service

    def test_counters_consistent_under_contention(self):
        config = ServingConfig(cache_capacity=128)
        service = self._run_stress(config)
        try:
            n_requests = self.N_QUERY_THREADS * self.QUERIES_PER_THREAD
            assert service.stats.n_requests == n_requests
            assert service.stats.n_injections == self.N_INJECTIONS
            # Coordinator totals must equal the per-shard sums: every
            # request's slice accounting landed exactly once.
            assert service.stats.n_users_served == sum(
                shard.stats.n_users_served for shard in service.shards
            )
            assert service.stats.n_users_scored == sum(
                shard.stats.n_users_scored for shard in service.shards
            )
            # The bus delivered every injection to every shard exactly once.
            assert len(service.bus.events) == self.N_INJECTIONS
            assert service.bus.n_deliveries == self.N_INJECTIONS * service.n_shards
            for shard in service.shards:
                assert shard.cache.version == self.N_INJECTIONS
            # Strict invalidation: whatever survived the run is fresh, so a
            # final quiescent query matches the model's ground truth.
            for user in range(0, N_USERS, 7):
                np.testing.assert_array_equal(
                    service.query([user], k=5)[0], service.model.top_k(user, k=5)
                )
        finally:
            service.close()

    def test_snapshot_restore_under_threaded_engine(self):
        """A post-stress restore lands on a clean, replayable platform."""
        config = ServingConfig(cache_capacity=128, ttl_injections=2)
        model = _model()
        service = ShardedRecommendationService(
            model, n_shards=4, config=config, engine="threaded"
        )
        try:
            base = service.snapshot()
            users = list(range(N_USERS))
            before = [items.tolist() for items in service.query(users, k=5)]
            service.inject([0, 1, 2])
            service.restore(base)
            assert service.n_users == N_USERS
            assert [items.tolist() for items in service.query(users, k=5)] == before
        finally:
            service.close()


@pytest.mark.timeout(120)
class TestProcessStress:
    """Concurrent client threads against worker-process replicas.

    Multiple coordinator threads submit slices into the per-shard pools
    while an injector publishes replication events through the write
    lock.  The invariants are the same counter identities the threaded
    stress pins, plus the replication-specific ones: every replica ends
    at the coordinator's epoch, and mirrored per-shard accounting sums
    exactly to the coordinator totals despite living in other processes.
    """

    N_QUERY_THREADS = 3
    QUERIES_PER_THREAD = 20
    N_INJECTIONS = 8

    def test_counters_and_epochs_consistent_under_contention(self):
        model = _model()
        service = ShardedRecommendationService(
            model, n_shards=3, config=ServingConfig(cache_capacity=128), engine="process"
        )
        errors: list[BaseException] = []
        start = threading.Barrier(self.N_QUERY_THREADS + 1)

        def querier(seed: int) -> None:
            rng = make_rng(seed)
            try:
                start.wait()
                for _ in range(self.QUERIES_PER_THREAD):
                    batch = int(rng.integers(1, 7))
                    users = [int(v) for v in rng.integers(0, N_USERS, size=batch)]
                    lists = service.query(users, k=int(rng.integers(1, 6)))
                    assert len(lists) == batch
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        def injector() -> None:
            rng = make_rng(999)
            try:
                start.wait()
                for _ in range(self.N_INJECTIONS):
                    profile = rng.choice(N_ITEMS, size=4, replace=False)
                    service.inject([int(v) for v in profile])
                    time.sleep(0.001)
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        try:
            threads = [
                threading.Thread(target=querier, args=(300 + i,))
                for i in range(self.N_QUERY_THREADS)
            ] + [threading.Thread(target=injector)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors, errors
            n_requests = self.N_QUERY_THREADS * self.QUERIES_PER_THREAD
            assert service.stats.n_requests == n_requests
            assert service.stats.n_injections == self.N_INJECTIONS
            assert service.epoch == self.N_INJECTIONS
            # Mirrored shard accounting sums to the coordinator totals.
            assert service.stats.n_users_served == sum(
                shard.stats.n_users_served for shard in service.shards
            )
            assert service.stats.n_users_scored == sum(
                shard.stats.n_users_scored for shard in service.shards
            )
            assert len(service.bus.events) == self.N_INJECTIONS
            assert service.bus.n_deliveries == self.N_INJECTIONS * service.n_shards
            # Every replica acknowledged every epoch and user count.
            for probe in service.replica_probe():
                assert probe["epoch"] == service.epoch
                assert probe["n_users"] == service.n_users
            # Quiescent ground truth: strict invalidation means whatever
            # survived the run is fresh on every replica.
            for user in range(0, N_USERS, 7):
                np.testing.assert_array_equal(
                    service.query([user], k=5)[0], service.model.top_k(user, k=5)
                )
        finally:
            service.close()
