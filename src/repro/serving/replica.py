"""Worker-side shard replica protocol for the process execution engine.

A process-engine worker shares no memory with the coordinator, so the
shard it serves is a **replica**: the model, the shard's
:class:`~repro.serving.cache.TopKCache` and its
:class:`~repro.serving.service.ServiceStats` are serialized into the
worker process at pool start (:func:`install_replica`) and kept in
lockstep afterwards through explicit replication messages:

* every injection — one sign-up or a whole burst — is one epoch-stamped
  ``inject_batch`` :class:`ReplicationEvent` carrying one
  :class:`InjectionRecord` per profile: a full replica applies the same
  ``add_user`` calls the coordinator applied and installs the
  coordinator's pre-warmed scoring caches instead of rebuilding them
  (:meth:`~repro.recsys.base.Recommender.apply_prewarm`), a sliced
  replica appends only the users its shard owns; either way it advances
  its staleness clock and acknowledges the new epoch;
* every episode restore is a ``resync`` event carrying the rolled-back
  model (or, sliced, a :func:`resync_sliced` call carrying the shard's
  rolled-back user slice), which replaces the replica and resets its
  serving state;
* every query slice carries the coordinator's current epoch, and a
  worker whose replica lags (or leads) raises
  :class:`~repro.errors.StaleReplicaError` instead of silently serving a
  stale model version — the detectability guarantee the replication
  property tests pin.

Worker processes are entered only through the module-level functions.
They take only picklable arguments and return small result records
(:class:`SliceResult` / :class:`ReplicaAck`) that the coordinator folds
into its per-shard mirrors, so reports and conformance counters are
engine-independent.

:class:`ShardServer` is how a shard serves a slice — the cache pass, the
batched scoring, the shard's request stats, and the canary/shadow
handling of a staged rollout candidate.  The coordinator's in-process
shards and the worker replicas are both ``ShardServer`` instances, so a
slice is served by the same code wherever the shard lives.
"""

from __future__ import annotations

import pickle
import time
from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro.errors import ConfigurationError, StaleReplicaError
from repro.serving import shared_state
from repro.serving.cache import TopKCache
from repro.serving.service import ServiceStats, ServingConfig, resolve_slice

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.recsys.base import Recommender

__all__ = [
    "ReplicationEvent",
    "InjectionRecord",
    "SliceResult",
    "ReplicaAck",
    "ShardServer",
    "install_replica",
    "install_replica_sliced",
    "query_slice",
    "apply_event",
    "resync_sliced",
    "stage_rollout_replica",
    "unstage_rollout_replica",
    "probe_replica",
    "probe_memory",
]

#: The module-level entry points below run in worker processes, so
#: repro-lint RL003 checks every class they exchange for picklability.
__process_boundary__ = True


@dataclass(frozen=True)
class InjectionRecord:
    """One injected user inside a batched replication event.

    ``user_id`` is the *global* id the coordinator assigned;
    ``owner_shard`` is the shard whose slice must append the user (every
    other shard only advances its global user count and staleness
    clock); ``user_state`` is the model's per-user payload
    (:meth:`~repro.recsys.base.Recommender.user_state` — e.g. MF's
    folded-in factor row) so the owner appends the coordinator's exact
    state instead of recomputing it without the item tables.
    """

    user_id: int
    profile: tuple[int, ...]
    owner_shard: int
    user_state: object = None


@dataclass(frozen=True)
class ReplicationEvent:
    """One epoch-stamped state change broadcast to every shard.

    ``kind`` is ``"inject_batch"`` or ``"resync"``.  An ``inject_batch``
    carries one :class:`InjectionRecord` per landed profile in
    ``records`` (a single sign-up is a one-record batch, so one round
    trip covers a whole burst) and, for full replicas, ``prewarm``: the
    coordinator's lazy scoring caches, rebuilt once after the last
    profile.  A ``resync`` is an episode restore: ``model_blob`` is the
    pickled rolled-back model that replaces each full replica wholesale
    (sliced replicas resync through :func:`resync_sliced`, and the event
    only informs the bus).  ``epoch`` is the model version the event
    produces; a replica must be at exactly ``epoch - len(records)`` to
    apply a batch and acknowledges ``epoch`` once applied.
    """

    kind: str
    epoch: int
    records: tuple[InjectionRecord, ...] = ()
    prewarm: object = None
    model_blob: bytes | None = None


@dataclass(frozen=True)
class CacheSnapshot:
    """Counter view of a replica's cache, mirrored back to the coordinator.

    ``seq`` is the replica's state-change sequence number (every applied
    slice or event increments it): snapshots from one replica can arrive
    at the coordinator out of order when concurrent client threads
    complete their fan-outs in a different order than the worker served
    them, and the mirror must only ever move forward.
    """

    seq: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0
    version: int = 0
    n_entries: int = 0


# Not frozen, unlike the other records: one is built per slice on the
# query path, and a frozen dataclass's __init__ costs ~5x a plain one's.
@dataclass
class SliceResult:
    """Outcome of one query slice served by a :class:`ShardServer`.

    The rollout fields are only nonzero while a version is staged:
    ``canary_users`` counts users this slice served *from the staged
    model* (the shard then recorded no stats and touched no cache);
    ``shadow_users``/``shadow_agree`` carry the shadow comparison for a
    slice that served the active model; ``rollout_error`` reports a
    staged-model failure (the slice fell back to the active model and
    the coordinator must roll the window back).  A worker replica also
    stamps its ``epoch``, global user count and cache counters so the
    coordinator can verify and mirror them; in-process shards leave the
    defaults.
    """

    n_scored: int
    results: list[np.ndarray]
    elapsed: float
    canary_users: int = 0
    shadow_users: int = 0
    shadow_agree: int = 0
    rollout_error: str | None = None
    epoch: int = 0
    model_n_users: int = 0
    cache: CacheSnapshot | None = None


@dataclass(frozen=True)
class ReplicaAck:
    """Acknowledgement that a replica applied a replication event."""

    shard_index: int
    epoch: int
    model_n_users: int
    cache: CacheSnapshot | None


class ShardServer:
    """One shard's serving state and the one way a shard serves a slice.

    Holds the shard's result cache and request stats.  The coordinator's
    in-process shards (:class:`~repro.serving.sharded._WorkerShard`) and
    the process engine's worker replicas are both ``ShardServer``
    instances, so :meth:`serve_slice` defines slice serving — cache pass,
    scoring, stats, canary and shadow handling — once for every engine.
    """

    #: Held around the cache pass and the stats record.  A worker replica
    #: serves from a single thread, so the default takes nothing;
    #: in-process shards, shared by concurrent engine threads, set a
    #: real lock.
    lock = nullcontext()

    def __init__(self, index: int, config: ServingConfig, n_items: int | None) -> None:
        self.index = index
        self.cache = (
            TopKCache(
                capacity=config.cache_capacity,
                ttl_injections=config.ttl_injections,
                n_items=n_items,
            )
            if config.cache_capacity > 0
            else None
        )
        self.stats = ServiceStats()

    def serve_slice(
        self,
        model,
        users: Sequence[int] | np.ndarray,
        k: int,
        exclude_seen: bool,
        use_cache: bool,
        staged: "Recommender | None" = None,
        role: str | None = None,
        clock: Callable[[], float] = time.perf_counter,
        profiler=None,
    ) -> SliceResult:
        """Serve one slice through ``model``, or the staged candidate.

        ``role`` is this shard's part in an open rollout window (None
        outside one).  The **canary** serves ``staged`` side-effect-free
        — no cache, no stats — so a rollback leaves the shard's durable
        state exactly as if the window never opened; a staged model that
        raises degrades the slice to ``model`` and reports the failure.
        A **shadow** serves ``model`` normally, then scores ``staged`` on
        the side and counts exact top-k agreement.  ``elapsed`` covers
        only the resolution (read from ``clock`` after the lock is held),
        so busy time stays pure compute.  ``profiler`` (a
        :class:`~repro.serving.profiling.StageTimers`, in-process only)
        splits the active resolution into cache and scoring stages.
        """
        n_users = len(users)
        error = None
        if role == "canary":
            t0 = clock()
            try:
                results = staged.top_k_batch(users, k, exclude_seen=exclude_seen)
            except StaleReplicaError:
                raise
            except Exception as exc:  # noqa: BLE001 - any staged-model fault rolls back
                error = f"canary shard {self.index} raised {type(exc).__name__}: {exc}"
            else:
                return SliceResult(n_users, results, clock() - t0, canary_users=n_users)
        with self.lock:
            t0 = clock()
            n_scored, results = resolve_slice(
                model, self.cache, users, k, exclude_seen, use_cache, profiler=profiler
            )
            elapsed = clock() - t0
            self.stats.record_request(n_users, n_scored, elapsed)
        if role != "shadow":
            return SliceResult(n_scored, results, elapsed, rollout_error=error)
        try:
            staged_lists = staged.top_k_batch(users, k, exclude_seen=exclude_seen)
        except StaleReplicaError:
            raise
        except Exception as exc:  # noqa: BLE001 - any staged-model fault rolls back
            error = f"shadow scoring on shard {self.index} raised {type(exc).__name__}: {exc}"
            return SliceResult(n_scored, results, elapsed, rollout_error=error)
        n_agree = sum(
            int(np.array_equal(served, candidate))
            for served, candidate in zip(results, staged_lists)
        )
        return SliceResult(
            n_scored, results, elapsed, shadow_users=n_users, shadow_agree=n_agree
        )

    def reset(self) -> None:
        """Empty the cache and zero its counters and the request stats."""
        if self.cache is not None:
            self.cache.flush()
            self.cache.stats.reset()
        self.stats.reset()


class _GlobalView:
    """Global-user-id facade over a sliced model.

    A sliced replica's dataset and per-user arrays are renumbered to
    local ids ``0..m-1``; query slices arrive addressed by global id.
    :func:`~repro.serving.service.resolve_slice` only ever calls
    ``top_k_batch`` on the model it is given, so this thin wrapper —
    translate global → local, delegate — is the complete serving
    surface.  Cache keys stay *global* (the wrapper sits between the
    cache and the model), so hit/miss/LRU behaviour is identical to full
    replication by construction.
    """

    def __init__(self, model: "Recommender", global_to_local: dict[int, int]) -> None:
        self._model = model
        self._global_to_local = global_to_local

    def top_k_batch(
        self, user_ids: Sequence[int] | np.ndarray, k: int, exclude_seen: bool = True
    ) -> list[np.ndarray]:
        mapping = self._global_to_local
        users = np.asarray(user_ids, dtype=np.int64)
        try:
            local = np.fromiter(
                (mapping[int(u)] for u in users), dtype=np.int64, count=users.size
            )
        except KeyError as exc:
            raise StaleReplicaError(
                f"user {exc.args[0]} is not in this shard's slice"
            ) from None
        return self._model.top_k_batch(local, k, exclude_seen=exclude_seen)


class _ReplicaState(ShardServer):
    """Everything one worker process holds for its shard."""

    def __init__(
        self,
        shard_index: int,
        model: "Recommender",
        config: ServingConfig,
        epoch: int,
        shard_latency_s: float,
    ) -> None:
        super().__init__(shard_index, config, model.dataset.n_items)
        self.model = model
        self.epoch = epoch
        self.shard_latency_s = shard_latency_s
        self.seq = 0  # state-change counter; see CacheSnapshot.seq
        # Sliced-mode state (see install_replica_sliced): the model above
        # holds only this shard's user slice, addressed through a
        # global→local id map; the item side is attached shared memory.
        self.mode = "full"
        self.serving_model: object = model  # what serve_slice scores with
        self.global_to_local: dict[int, int] | None = None
        self.n_users_global: int | None = None
        self.attached: shared_state.AttachedSharedState | None = None
        # Versioned-rollout window state: a staged candidate model (always
        # a *full* model — global ids score directly, even on a sliced
        # replica) and this shard's role in the window.  Transient by
        # design: promote replaces the replica wholesale via resync,
        # rollback unstages, and any resync clears both.
        self.staged_model: "Recommender | None" = None
        self.rollout_role: str | None = None  # "canary" | "shadow" | None

    def model_n_users(self) -> int:
        """Global user count (what acks/results/probes report).

        A sliced replica's own dataset holds only its shard's users; the
        coordinator's epoch verification compares against the *global*
        count, which the replica mirrors through install/inject/resync.
        """
        if self.mode == "sliced":
            return int(self.n_users_global)
        return self.model.dataset.n_users

    def expect_epoch(self, expected: int, action: str) -> None:
        """Refuse a message stamped for another model version."""
        if self.epoch != expected:
            raise StaleReplicaError(
                f"shard {self.index} replica is at epoch {self.epoch}, "
                f"coordinator {action} {expected}"
            )

    def enter_sliced(
        self,
        model: "Recommender",
        user_ids: np.ndarray,
        n_users_global: int,
    ) -> None:
        """Point serving state at a (new) user slice."""
        self.mode = "sliced"
        self.model = model
        self.global_to_local = {
            int(user_id): local for local, user_id in enumerate(np.asarray(user_ids))
        }
        self.serving_model = _GlobalView(model, self.global_to_local)
        self.n_users_global = int(n_users_global)

    def apply_injections(self, event: ReplicationEvent) -> None:
        """Apply one injection burst: one event, N users, one ack.

        Each record must carry the next global user id.  A full replica
        replays ``add_user`` for every record, then installs the
        post-burst pre-warm payload once; a sliced replica appends only
        the users its shard owns (installing the coordinator's shipped
        per-user state) and advances the global user count for every
        record.
        """
        records = event.records
        if event.epoch != self.epoch + len(records):
            raise StaleReplicaError(
                f"shard {self.index} replica at epoch {self.epoch} received "
                f"out-of-order injection batch ending at epoch {event.epoch} "
                f"({len(records)} records)"
            )
        for record in records:
            expected = self.model_n_users()
            if record.user_id != expected:
                raise StaleReplicaError(
                    f"shard {self.index} replica expected user id {expected} "
                    f"next, coordinator recorded {record.user_id}"
                )
            if self.mode == "full":
                self.model.add_user(list(record.profile))
            else:
                if record.owner_shard == self.index:
                    self.global_to_local[record.user_id] = self.model.append_sliced_user(
                        list(record.profile), record.user_state
                    )
                self.n_users_global += 1
            if self.cache is not None:
                self.cache.note_injection()
        if self.mode == "full":
            self.model.apply_prewarm(event.prewarm)
        self.epoch = event.epoch

    def resync(self, epoch: int) -> ReplicaAck:
        """Serve the just-swapped-in model from a clean state at ``epoch``."""
        self.reset()
        self.staged_model = None
        self.rollout_role = None
        self.epoch = epoch
        return self.ack()

    def cache_snapshot(self) -> CacheSnapshot | None:
        if self.cache is None:
            return None
        stats = self.cache.stats
        return CacheSnapshot(
            seq=self.seq,
            hits=stats.hits,
            misses=stats.misses,
            evictions=stats.evictions,
            invalidations=stats.invalidations,
            version=self.cache.version,
            n_entries=len(self.cache),
        )

    def ack(self) -> ReplicaAck:
        """Acknowledge a state change (bumps ``seq``; see CacheSnapshot)."""
        self.seq += 1
        return ReplicaAck(
            shard_index=self.index,
            epoch=self.epoch,
            model_n_users=self.model_n_users(),
            cache=self.cache_snapshot(),
        )


#: The one replica this worker process serves (single-worker pools mean
#: exactly one shard's state per process).
_REPLICA: _ReplicaState | None = None


def _require_replica() -> _ReplicaState:
    if _REPLICA is None:
        raise ConfigurationError("replica worker used before install_replica")
    return _REPLICA


def install_replica(
    shard_index: int,
    model_blob: bytes,
    config: ServingConfig,
    epoch: int,
    shard_latency_s: float,
) -> ReplicaAck:
    """Deserialize the shard's state into this worker (pool start).

    ``model_blob`` is pickled once by the coordinator and shipped to
    every worker, so N replicas cost one serialization.
    """
    global _REPLICA
    _REPLICA = _ReplicaState(
        shard_index=shard_index,
        model=pickle.loads(model_blob),
        config=config,
        epoch=epoch,
        shard_latency_s=shard_latency_s,
    )
    return _REPLICA.ack()


def install_replica_sliced(
    shard_index: int,
    slice_blob: bytes,
    user_ids: np.ndarray,
    handle: shared_state.SharedStateHandle,
    config: ServingConfig,
    epoch: int,
    shard_latency_s: float,
    n_users_global: int,
) -> ReplicaAck:
    """Install a *sliced* replica: this shard's user slice + shared items.

    ``slice_blob`` pickles only the shard's per-user state (user rows,
    profiles) — catalog-sized arrays arrive by mapping the coordinator's
    shared-memory segments named in ``handle``, so install payload and
    per-worker RSS stay proportional to the shard's user count, not the
    catalog.
    """
    global _REPLICA
    model = pickle.loads(slice_blob)
    state = _ReplicaState(
        shard_index=shard_index,
        model=model,
        config=config,
        epoch=epoch,
        shard_latency_s=shard_latency_s,
    )
    state.attached = shared_state.attach(handle)
    model.attach_shared_item_state(state.attached.views)
    state.enter_sliced(model, np.asarray(user_ids, dtype=np.int64), n_users_global)
    _REPLICA = state
    return state.ack()


def query_slice(
    expected_epoch: int,
    users: Sequence[int] | np.ndarray,
    k: int,
    exclude_seen: bool,
    use_cache: bool,
) -> SliceResult:
    """Serve one slice from the replica at ``expected_epoch``.

    The modelled shard-worker RPC latency is slept before
    :meth:`ShardServer.serve_slice`, whose busy clock covers only
    resolution, matching the in-memory engines' accounting.  A clean
    canary slice changes no replica state, so it leaves ``seq`` alone.
    """
    state = _require_replica()
    state.expect_epoch(expected_epoch, "expected epoch")
    if state.shard_latency_s > 0.0:
        time.sleep(state.shard_latency_s)
    result = state.serve_slice(
        state.serving_model,
        users,
        k,
        exclude_seen,
        use_cache,
        state.staged_model,
        state.rollout_role,
    )
    if not result.canary_users:
        state.seq += 1
    return replace(
        result,
        epoch=state.epoch,
        model_n_users=state.model_n_users(),
        cache=state.cache_snapshot(),
    )


def apply_event(event: ReplicationEvent) -> ReplicaAck:
    """Apply one replication event to this worker's replica."""
    state = _require_replica()
    if event.kind == "inject_batch":
        state.apply_injections(event)
        return state.ack()
    if event.kind == "resync":
        state.model = pickle.loads(event.model_blob)
        state.mode = "full"
        state.serving_model = state.model
        return state.resync(event.epoch)
    raise ConfigurationError(f"unknown replication event kind {event.kind!r}")


def resync_sliced(
    epoch: int,
    slice_blob: bytes,
    user_ids: np.ndarray,
    n_users_global: int,
) -> ReplicaAck:
    """Episode restore for a sliced replica: swap in the rolled-back slice.

    The worker keeps its shared-memory attachments — the coordinator
    republished the rolled-back item state into the *same* segments
    before this call — so the resync payload is one user slice,
    independent of catalog size.
    """
    state = _require_replica()
    if state.attached is None:
        raise ConfigurationError("resync_sliced requires a sliced replica")
    model = pickle.loads(slice_blob)
    model.attach_shared_item_state(state.attached.views)
    state.enter_sliced(model, np.asarray(user_ids, dtype=np.int64), n_users_global)
    return state.resync(epoch)


def stage_rollout_replica(model_blob: bytes, role: str, expected_epoch: int) -> ReplicaAck:
    """Stage a candidate model on this replica for a canary window.

    ``model_blob`` is always a *full* pickled model — even sliced
    replicas hold the complete candidate, because staged state is
    transient (it never enters shared memory, so rollback can never leak
    a segment) and global user ids then score directly.  Staging does
    not advance the epoch: the replica's durable state is untouched.
    """
    state = _require_replica()
    state.expect_epoch(expected_epoch, "staged a rollout at epoch")
    if role not in ("canary", "shadow"):
        raise ConfigurationError(f"rollout role must be 'canary' or 'shadow', got {role!r}")
    state.staged_model = pickle.loads(model_blob)
    state.rollout_role = role
    return state.ack()


def unstage_rollout_replica() -> ReplicaAck:
    """Drop the staged candidate (rollback); durable shard state stands."""
    state = _require_replica()
    state.staged_model = None
    state.rollout_role = None
    return state.ack()


def probe_replica() -> dict:
    """Diagnostic view of the replica (epoch checks, pre-warm accounting).

    ``n_users`` is the *global* count in sliced mode — the value every
    coordinator-side consistency check compares against.
    """
    state = _require_replica()
    return {
        "shard": state.index,
        "epoch": state.epoch,
        "n_users": state.model_n_users(),
        "n_requests": state.stats.n_requests,
        "cache_entries": len(state.cache) if state.cache is not None else 0,
        "prewarm": state.model.prewarm_stats(),
        "staged": state.staged_model is not None,
        "rollout_role": state.rollout_role,
    }


def probe_memory() -> dict:
    """This worker process's resident set size plus replica shape facts.

    Reads ``/proc/self/status`` (Linux; the memory bench's platform)
    rather than pulling in a profiler dependency.  Runs with or without
    an installed replica so the bench can also sample baseline worker
    RSS.
    """
    rss_kb = None
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    rss_kb = int(line.split()[1])
                    break
    except OSError:  # pragma: no cover - non-Linux fallback
        pass
    state = _REPLICA
    out: dict = {"rss_kb": rss_kb}
    if state is not None:
        out["shard"] = state.index
        out["mode"] = state.mode
        out["n_local_users"] = state.model.dataset.n_users
        out["n_users"] = state.model_n_users()
    return out
