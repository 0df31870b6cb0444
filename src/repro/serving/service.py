"""The simulated production platform in front of the recommender.

Every consumer of recommendations — the attacker's black-box facade, the
promotion evaluator, the organic traffic simulator — goes through
:class:`RecommendationService` instead of touching the model directly.
The service composes, in request order:

1. **rate limiting** — per-client quota policies (QPS caps, cohort-size
   caps, injection throttles) from :mod:`repro.serving.rate_limit`;
2. **top-k caching** — an LRU cache with strict or staleness-horizon
   invalidation from :mod:`repro.serving.cache`;
3. **batched scoring** — cache misses for a request are folded into one
   :meth:`~repro.recsys.base.Recommender.top_k_batch` call, so a cohort
   query costs one matrix op instead of a per-user Python loop;
4. **online detection** — an optional fake-profile detector screens
   injections at the boundary (flag or block), moving
   :mod:`repro.defense` from post-hoc analysis into the serving path.

Snapshot/restore preserves black-box episode semantics: restoring rolls
the model back *and* flushes the cache, so a reset platform never serves
lists computed against dropped injections.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro.errors import (
    ConfigurationError,
    InjectionBlockedError,
    RateLimitExceededError,
    SnapshotError,
)
from repro.serving.cache import TopKCache
from repro.serving.engine import ENGINES
from repro.serving.metrics import percentile_summary, push_recent
from repro.serving.rate_limit import UNLIMITED, QuotaPolicy, RateLimiter

if TYPE_CHECKING:  # imported lazily to avoid a cycle with repro.recsys
    from repro.recsys.base import Recommender
    from repro.serving.profiling import StageTimers

__all__ = ["RecommendationService", "ServingConfig", "ServiceStats", "resolve_slice"]

_DETECTOR_MODES = ("off", "flag", "block")


@dataclass(frozen=True)
class ServingConfig:
    """Declarative description of one serving posture.

    The default posture is transparent: no cache, no limits, no detector —
    byte-for-byte the seed reproduction's black-box behaviour.  Experiment
    configs turn individual axes on to create new attack scenarios.
    """

    cache_capacity: int = 0  # 0 disables the top-k cache
    ttl_injections: int = 0  # 0 = strict invalidation, t > 0 = staleness horizon
    default_policy: QuotaPolicy = UNLIMITED
    client_policies: tuple[tuple[str, QuotaPolicy], ...] = ()
    detector_mode: str = "off"  # off | flag | block
    # How the sharded coordinator resolves per-shard slices: "serial"
    # (sequential loop; simulated-makespan accounting), "threaded"
    # (persistent one-worker-per-shard thread pool; measured parallel
    # wall clock), "process" (one worker process per shard holding a
    # replicated shard state, kept in lockstep by epoch-stamped
    # replication events — parallel compute past the GIL), or "async"
    # (slices as coroutines on an event loop, so the asyncio front
    # overlaps modelled RPC waits across requests).  The single service
    # has no shards and ignores this field.
    engine: str = "serial"
    # How process-engine replicas hold model state: "sliced" partitions
    # per-user state by shard and shares the item side through
    # multiprocessing.shared_memory (per-shard memory sublinear in user
    # count; an install or re-install ships one user slice, not a full
    # pickle), "full" replicates the whole model per shard (the
    # pre-slicing behaviour).
    # Models that do not support slicing fall back to full replication;
    # in-memory engines share one model and ignore this field.
    replication: str = "sliced"

    def __post_init__(self) -> None:
        if self.cache_capacity < 0:
            raise ConfigurationError("cache_capacity must be non-negative")
        if self.ttl_injections < 0:
            raise ConfigurationError("ttl_injections must be non-negative")
        if self.detector_mode not in _DETECTOR_MODES:
            raise ConfigurationError(f"detector_mode must be one of {_DETECTOR_MODES}")
        if self.engine not in ENGINES:
            raise ConfigurationError(f"engine must be one of {ENGINES}")
        if self.replication not in ("sliced", "full"):
            raise ConfigurationError("replication must be one of ('sliced', 'full')")


@dataclass
class ServiceStats:
    """Per-request accounting for throughput/latency reporting.

    ``record_request`` is thread-safe: the sharded deployment's threaded
    engine records the coordinator's stats from whichever client thread
    issued the request, and each shard's stats from its worker thread.

    Denial accounting is *split by cause*: ``n_rate_limited`` counts
    quota denials (the limiter raised on admission — the client spent
    budget it didn't have), ``n_shed`` counts requests an overload
    policy dropped before admission (the platform was saturated — no
    quota was charged), and ``n_timed_out`` counts requests that gave up
    waiting for queue space.  A shed request is *not* a quota denial;
    conflating them made "throttled attacker" and "overloaded platform"
    indistinguishable in reports.

    Request accounting is O(1) per request and bounded in memory: the
    totals (``n_requests``, ``total_wall_s``, ``n_users_served`` — the
    batch-size sum — and ``max_batch_size``) are exact running values,
    while ``wall_times``/``batch_sizes`` keep only the latest
    :data:`~repro.serving.metrics.RECENT_SAMPLES` requests (a ring, in
    rotated order) for the latency percentiles.
    """

    n_requests: int = 0  # guarded-by: _lock
    n_users_served: int = 0  # guarded-by: _lock (exact batch-size sum)
    n_users_scored: int = 0  # guarded-by: _lock (users that hit the model: cache misses)
    n_injections: int = 0
    n_flagged_injections: int = 0
    n_blocked_injections: int = 0
    n_rate_limited: int = 0  # guarded-by: _lock (admissions denied by quota)
    n_shed: int = 0  # guarded-by: _lock (dropped by an overload policy pre-admission)
    n_timed_out: int = 0  # guarded-by: _lock (gave up waiting for queue space)
    n_canary_users: int = 0  # guarded-by: _lock (users served by a staged canary model)
    n_shadow_users: int = 0  # guarded-by: _lock (users shadow-scored against a staged model)
    n_shadow_agree: int = 0  # guarded-by: _lock (shadow users whose staged list matched the served one)
    total_wall_s: float = 0.0  # guarded-by: _lock (exact, every request)
    max_batch_size: int = 0  # guarded-by: _lock (exact, every request)
    wall_times: list[float] = field(default_factory=list)  # guarded-by: _lock (latest requests only)
    batch_sizes: list[int] = field(default_factory=list)  # guarded-by: _lock (latest requests only)
    _recent_cursor: int = 0  # guarded-by: _lock (next ring slot once the window is full)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def __getstate__(self) -> dict:
        """Pickle counters only: thread locks cannot be pickled or copied.

        No ``ServiceStats`` crosses a process boundary — a worker replica
        builds its own — but like every serving component the stats
        round-trip through ``pickle`` and ``copy.deepcopy`` with their
        counters intact (``tests/test_pickling.py`` pins both).  The lock
        is an in-process concern and is recreated fresh on load.
        """
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def record_request(self, n_users: int, n_scored: int, elapsed: float) -> None:
        with self._lock:
            self.n_requests += 1
            self.n_users_served += n_users
            self.n_users_scored += n_scored
            self.total_wall_s += elapsed
            self.max_batch_size = max(self.max_batch_size, n_users)
            cursor = self._recent_cursor
            push_recent(self.batch_sizes, cursor, n_users)
            self._recent_cursor = push_recent(self.wall_times, cursor, elapsed)

    def record_rate_limited(self) -> None:
        """One admission denied by quota (query or injection)."""
        with self._lock:
            self.n_rate_limited += 1

    def record_shed(self) -> None:
        """One request dropped by an overload policy before admission."""
        with self._lock:
            self.n_shed += 1

    def record_timed_out(self) -> None:
        """One request that gave up waiting for queue space."""
        with self._lock:
            self.n_timed_out += 1

    def record_canary(self, n_users: int) -> None:
        """Users whose lists came from the staged model during a rollout."""
        with self._lock:
            self.n_canary_users += n_users

    def record_shadow(self, n_users: int, n_agree: int) -> None:
        """Users shadow-scored against the staged model (served the active one)."""
        with self._lock:
            self.n_shadow_users += n_users
            self.n_shadow_agree += n_agree

    def clear_rollout_counters(self) -> None:
        """Drop the canary-window counters after a rollback.

        A rolled-back fleet must be indistinguishable from one that never
        staged the candidate, and these three counters are the only stats
        a pure canary/shadow window touches (regular request accounting
        is unchanged by design: shadows serve the active model, canaries
        degrade to it on failure).
        """
        with self._lock:
            self.n_canary_users = 0
            self.n_shadow_users = 0
            self.n_shadow_agree = 0

    def summary(self) -> dict[str, float]:
        """Uniform query-side cost summary (shared with QueryLog reporting)."""
        with self._lock:
            times = np.asarray(self.wall_times, dtype=np.float64)
            n_requests = self.n_requests
            total_wall_s = self.total_wall_s
            batch_size_sum = self.n_users_served
            max_batch_size = self.max_batch_size
            out: dict[str, float] = {
                "n_requests": float(self.n_requests),
                "n_users_served": float(self.n_users_served),
                "n_users_scored": float(self.n_users_scored),
                "n_injections": float(self.n_injections),
            }
            if self.n_rate_limited or self.n_shed or self.n_timed_out:
                out["n_rate_limited"] = float(self.n_rate_limited)
                out["n_shed"] = float(self.n_shed)
                out["n_timed_out"] = float(self.n_timed_out)
            if self.n_canary_users or self.n_shadow_users:
                out["n_canary_users"] = float(self.n_canary_users)
                out["n_shadow_users"] = float(self.n_shadow_users)
                out["n_shadow_agree"] = float(self.n_shadow_agree)
        if n_requests:
            out["total_wall_s"] = float(total_wall_s)
            out["mean_wall_ms"] = float(total_wall_s / n_requests * 1e3)
            out.update(
                percentile_summary(times, percentiles=(50, 95), key_format="p{p}_wall_ms")
            )
            out["mean_batch_size"] = float(batch_size_sum / n_requests)
            out["max_batch_size"] = float(max_batch_size)
        return out

    def reset(self) -> None:
        with self._lock:
            self.n_requests = 0
            self.n_users_served = 0
            self.n_users_scored = 0
            self.n_injections = 0
            self.n_flagged_injections = 0
            self.n_blocked_injections = 0
            self.n_rate_limited = 0
            self.n_shed = 0
            self.n_timed_out = 0
            self.n_canary_users = 0
            self.n_shadow_users = 0
            self.n_shadow_agree = 0
            self.total_wall_s = 0.0
            self.max_batch_size = 0
            self.wall_times = []
            self.batch_sizes = []
            self._recent_cursor = 0


def resolve_slice(
    model: "Recommender",
    cache: TopKCache | None,
    users: Sequence[int] | np.ndarray,
    k: int,
    exclude_seen: bool,
    use_cache: bool,
    profiler: "StageTimers | None" = None,
) -> tuple[int, list[np.ndarray]]:
    """Resolve one slice of users: batched cache pass, one batch of misses.

    This is the **single definition of slice semantics**, shared by the
    single service's query and by
    :meth:`~repro.serving.replica.ShardServer.serve_slice`, which every
    shard runs — in the coordinator process under the shard's lock, or
    inside a process-engine worker replica — so cache hit/miss counters
    and served lists are identical across deployments by construction,
    not by parallel maintenance of duplicate code paths.

    The hot path is vectorised: one :meth:`TopKCache.lookup_batch` pass
    over the slice, miss users deduplicated with ``np.unique`` (which
    reproduces the historical ``sorted(set(...))`` scoring order
    exactly, keeping LRU insertion order identical), one
    ``top_k_batch`` over the unique misses, one
    :meth:`TopKCache.store_batch`.  Returns ``(n_scored, results)``
    where ``n_scored`` counts deduplicated model-scored users.

    ``profiler`` (a :class:`~repro.serving.profiling.StageTimers`)
    splits the slice wall clock into ``cache`` and ``scoring`` stages;
    ``None`` keeps the path uninstrumented.
    """
    users = np.asarray(users, dtype=np.int64)
    if cache is None or not use_cache:
        if profiler is None:
            return int(users.size), model.top_k_batch(users, k, exclude_seen=exclude_seen)
        t0 = time.perf_counter()
        results = model.top_k_batch(users, k, exclude_seen=exclude_seen)
        profiler.add("scoring", time.perf_counter() - t0, int(users.size))
        return int(users.size), results
    t0 = time.perf_counter() if profiler is not None else 0.0
    results, miss_positions = cache.lookup_batch(users.tolist(), k, exclude_seen)
    if profiler is not None:
        profiler.add("cache", time.perf_counter() - t0, int(users.size))
    if miss_positions.size == 0:
        return 0, results
    unique_users, inverse = np.unique(users[miss_positions], return_inverse=True)
    t0 = time.perf_counter() if profiler is not None else 0.0
    fresh = model.top_k_batch(unique_users, k, exclude_seen=exclude_seen)
    if profiler is not None:
        profiler.add("scoring", time.perf_counter() - t0, int(unique_users.size))
        t0 = time.perf_counter()
    cache.store_batch(unique_users.tolist(), k, exclude_seen, fresh)
    for position, fresh_index in zip(miss_positions.tolist(), inverse.tolist()):
        results[position] = fresh[fresh_index]
    if profiler is not None:
        profiler.add("cache", time.perf_counter() - t0, int(unique_users.size))
    return int(unique_users.size), results


@dataclass(frozen=True)
class _ServiceSnapshot:
    """Model snapshot plus the user count it must restore to."""

    model_snapshot: object
    n_users: int


class RecommendationService:
    """Cache- and quota-fronted facade over a fitted recommender."""

    def __init__(
        self,
        model: Recommender,
        config: ServingConfig | None = None,
        detector: object | None = None,
        clock: Callable[[], float] = time.perf_counter,
        limiter_clock: Callable[[], float] | None = None,
    ) -> None:
        if not model.is_fitted:
            raise ConfigurationError("RecommendationService requires a fitted model")
        config = config if config is not None else ServingConfig()
        if config.detector_mode != "off" and detector is None:
            raise ConfigurationError(
                f"detector_mode={config.detector_mode!r} requires a fitted detector"
            )
        self._model = model
        self.config = config
        self.detector = detector
        self._clock = clock
        self.cache = self._make_cache()
        limiter_kwargs = {} if limiter_clock is None else {"clock": limiter_clock}
        per_client = dict(config.client_policies)
        # Evaluation-side ground-truth reads are exempt unless a config
        # explicitly limits them (environment.measure relies on this).
        per_client.setdefault("evaluator", UNLIMITED)
        self.limiter = RateLimiter(
            default_policy=config.default_policy,
            per_client=per_client,
            **limiter_kwargs,
        )
        self.stats = ServiceStats()
        self.flagged_injections: list[tuple[int, float]] = []
        # Optional hot-path instrumentation: attach a
        # repro.serving.profiling.StageTimers to split query wall clock
        # into admission/routing/cache/scoring/merge stages.  None keeps
        # the query path uninstrumented (one attribute check per stage).
        self.profiler: "StageTimers | None" = None

    def _make_cache(self) -> TopKCache | None:
        """Coordinator-level cache (the sharded deployment keeps none)."""
        if self.config.cache_capacity <= 0:
            return None
        return TopKCache(
            capacity=self.config.cache_capacity,
            ttl_injections=self.config.ttl_injections,
            n_items=self._model.dataset.n_items,
        )

    # -- public surface -------------------------------------------------------
    @property
    def model(self) -> Recommender:
        """The backing model (platform-side access; attackers use the facade)."""
        return self._model

    @property
    def n_items(self) -> int:
        return self._model.dataset.n_items

    @property
    def n_users(self) -> int:
        return self._model.dataset.n_users

    def query(
        self,
        user_ids: Sequence[int],
        k: int,
        exclude_seen: bool = True,
        client: str = "default",
        use_cache: bool = True,
    ) -> list[np.ndarray]:
        """Top-``k`` lists for ``user_ids``, batched across cache misses.

        ``use_cache=False`` bypasses the result cache entirely (no lookup,
        no store) — the evaluation side uses it for ground-truth reads that
        must not observe or pollute staleness state.
        """
        if k <= 0:
            raise ConfigurationError("k must be positive")
        start = self._clock()
        users = np.asarray(user_ids, dtype=np.int64)
        profiler = self.profiler
        self._admit_query(client, int(users.size), profiler)
        n_scored, results = resolve_slice(
            self._model, self.cache, users, k, exclude_seen, use_cache, profiler=profiler
        )
        self.stats.record_request(int(users.size), n_scored, self._clock() - start)
        return list(results)

    def _admit_query(self, client: str, n_users: int, profiler) -> None:
        """Admit one query on the limiter; quota denials are counted by cause.

        The one admission step for both deployments: the sharded
        coordinator runs it once per request, before any fan-out.
        """
        t0 = time.perf_counter() if profiler is not None else 0.0
        try:
            self.limiter.admit_query(client, n_users)
        except RateLimitExceededError:
            self.stats.record_rate_limited()
            raise
        if profiler is not None:
            profiler.add("admission", time.perf_counter() - t0, n_users)

    def inject(self, profile: Sequence[int], client: str = "default") -> int:
        """Register a new user profile, subject to throttles and screening."""
        return self.inject_batch((profile,), client)[0]

    def inject_batch(self, profiles: Sequence[Sequence[int]], client: str = "default") -> list[int]:
        """Register several profiles; each is admitted and screened in turn.

        This loop is the one definition of the per-profile injection step
        — quota admission, detector screening, ``add_user``, the flag
        record, the count — for every deployment; the sharded deployment
        runs it under its model write lock and replicates the whole burst
        through :meth:`_invalidate_after_injections` as one event.  On a
        mid-batch denial (quota or detector block) the profiles admitted
        before the failure stay injected (and invalidated) and the error
        propagates.
        """
        assigned: list[int] = []
        try:
            for profile in profiles:
                try:
                    self.limiter.admit_injection(client)
                except RateLimitExceededError:
                    self.stats.record_rate_limited()
                    raise
                flagged_score = self._screen_profile(profile)
                user_id = self._model.add_user(profile)
                if flagged_score is not None:
                    # Record the *assigned* id, after add_user has run.
                    # Screening happens before the id exists, so predicting
                    # it from dataset.n_users inside _screen_profile was
                    # correct only by coincidence of call order.
                    self.flagged_injections.append((user_id, flagged_score))
                self.stats.n_injections += 1
                assigned.append(user_id)
        finally:
            if assigned:
                self._invalidate_after_injections(assigned)
        return assigned

    # -- injection pipeline hooks ---------------------------------------------
    def _screen_profile(self, profile: Sequence[int]) -> float | None:
        """Optional online-detector screening at the injection boundary.

        Returns the detector score when the profile is flagged (caller
        records it against the id ``add_user`` actually assigns), None
        when screening is off or the profile passes; raises when the
        detector blocks.
        """
        if self.config.detector_mode == "off":
            return None
        score = float(self.detector.score(tuple(int(v) for v in profile)))
        if score > self.detector.threshold:
            self.stats.n_flagged_injections += 1
            if self.config.detector_mode == "block":
                self.stats.n_blocked_injections += 1
                raise InjectionBlockedError(
                    f"profile rejected by online detector (score {score:.3f} "
                    f"> threshold {self.detector.threshold:.3f})"
                )
            return score
        return None

    def _invalidate_after_injections(self, user_ids: list[int]) -> None:
        """Tell caching state that the model shifted under it, once per user."""
        if self.cache is not None:
            for _ in user_ids:
                self.cache.note_injection()

    def cache_stats(self):
        """Aggregate :class:`~repro.serving.cache.CacheStats` view (or None).

        The single service has exactly one cache; the sharded deployment
        overrides this to sum per-shard counters.  Traffic reporting uses
        this accessor so both deployments report hit rates uniformly.
        """
        return self.cache.stats if self.cache is not None else None

    # -- episode management ---------------------------------------------------
    def snapshot(self) -> _ServiceSnapshot:
        """Capture model state together with its user count."""
        return _ServiceSnapshot(
            model_snapshot=self._model.snapshot(),
            n_users=self._model.dataset.n_users,
        )

    def restore(self, snapshot: _ServiceSnapshot) -> None:
        """Roll the platform back to a clean episode boundary.

        An episode reset is simulation control, so *every* externally
        observable piece of serving state returns to the
        freshly-constructed baseline, not just the model:

        * the cache is flushed and its hit/miss/eviction counters reset —
          a reset platform never serves (or reports) work from a dropped
          episode;
        * rate-limiter windows, quotas, and denial counters reset —
          injections undone by the rollback must not keep consuming a
          client's quota, and denials from dead episodes must not skew
          per-episode budget accounting;
        * request stats reset — makespan/throughput reports never
          double-count rolled-back traffic;
        * ``flagged_injections`` is cleared — flagged records reference
          user ids that no longer exist after the model rollback.
        """
        if not isinstance(snapshot, _ServiceSnapshot):
            raise SnapshotError("restore expects a snapshot from RecommendationService.snapshot")
        if snapshot.n_users > self._model.dataset.n_users:
            raise SnapshotError(
                f"snapshot records {snapshot.n_users} users but the platform only has "
                f"{self._model.dataset.n_users}; snapshots must be restored onto a "
                "later-or-equal state"
            )
        self._model.restore(snapshot.model_snapshot)
        if self._model.dataset.n_users != snapshot.n_users:
            raise SnapshotError(
                f"model restore produced {self._model.dataset.n_users} users, "
                f"snapshot recorded {snapshot.n_users}"
            )
        if self.cache is not None:
            self.cache.flush()
            self.cache.stats.reset()
        self.limiter.reset()
        self.stats.reset()
        self.flagged_injections.clear()
