"""Production serving subsystem: service, shards, cache, quotas, traffic.

Architecture (request order)::

    client -> RateLimiter -> TopKCache -> Recommender.top_k_batch
                 |                ^
                 +-- inject() ----+-- optional detector screening

and, sharded (``ShardedRecommendationService``)::

    client -> coordinator -> [shard_0 .. shard_{N-1}]   hash / consistent-hash
                 |              each: RateLimiter + TopKCache
                 +-- inject_batch() -> InvalidationBus -> every shard

See :mod:`repro.serving.service` for the composition,
:mod:`repro.serving.sharded` for the multi-worker deployment,
:mod:`repro.serving.engine` for the serial/threaded/process/async
execution engines resolving per-shard work, :mod:`repro.serving.replica`
for how a shard serves a slice (``ShardServer.serve_slice``, the one path
for in-process shards and process replicas alike) and for the
process-engine replication protocol (epoch-stamped ``inject_batch`` and
``resync`` events — one event per injection burst — and pre-warm
fan-out), :mod:`repro.serving.workload` for composable demand
models, :mod:`repro.serving.traffic` for the organic-load benchmark
harness, and :mod:`repro.serving.async_front` for the asyncio admission
front (bounded queue, overload policies, queueing-latency metrics).

Versioned model rollout lives in :mod:`repro.serving.rollout` (version
registry, canary/shadow window state, auto-rollback guards), the
organic-traffic retrain loop in :mod:`repro.serving.online`
(``RetrainPolicy`` → ``partial_fit`` candidate → ``stage_rollout``), and
controllable staged-model failures in :mod:`repro.serving.faults`.
"""

from repro.serving.async_front import (
    OVERLOAD_POLICIES,
    AsyncServingFront,
    BoundedAdmissionQueue,
    FrontConfig,
    FrontReport,
    FrontRequest,
)
from repro.serving.cache import CacheStats, TopKCache
from repro.serving.faults import FaultInjector, InjectedFaultError
from repro.serving.engine import (
    ENGINES,
    AsyncEngine,
    ExecutionEngine,
    ProcessEngine,
    ReadWriteLock,
    SerialEngine,
    ThreadedEngine,
    make_engine,
)
from repro.serving.metrics import percentile_summary, summarize_latencies
from repro.serving.profiling import STAGES, StageTimers, profile_callable
from repro.serving.online import (
    DriftThreshold,
    EveryNTicks,
    OnlineLearner,
    RetrainPolicy,
)
from repro.serving.rate_limit import UNLIMITED, QuotaPolicy, RateLimiter
from repro.serving.replica import InjectionRecord, ReplicationEvent
from repro.serving.rollout import (
    ModelVersion,
    ModelVersionRegistry,
    RolloutController,
    RolloutGuard,
)
from repro.serving.service import (
    RecommendationService,
    ServiceStats,
    ServingConfig,
    resolve_slice,
)
from repro.serving.shared_state import (
    AttachedSharedState,
    SharedItemStore,
    SharedStateHandle,
)
from repro.serving.sharded import (
    ConsistentHashRouter,
    InvalidationBus,
    ShardedRecommendationService,
    ShardRouter,
    group_by_shard,
    scatter_to_request_order,
)
from repro.serving.traffic import (
    BackgroundTraffic,
    TrafficPattern,
    TrafficReport,
    TrafficSimulator,
    latency_breakdown,
    latency_percentiles,
    open_loop_plan,
)
from repro.serving.workload import (
    WORKLOADS,
    ArrivalSchedule,
    BurstWorkload,
    CompositeWorkload,
    DiurnalWorkload,
    FlashCrowdWorkload,
    SteadyWorkload,
    Workload,
    make_workload,
    sample_arrivals,
)

__all__ = [
    "TopKCache",
    "CacheStats",
    "QuotaPolicy",
    "RateLimiter",
    "UNLIMITED",
    "RecommendationService",
    "ServingConfig",
    "ServiceStats",
    "ShardedRecommendationService",
    "ShardRouter",
    "ConsistentHashRouter",
    "InvalidationBus",
    "resolve_slice",
    "group_by_shard",
    "scatter_to_request_order",
    "StageTimers",
    "STAGES",
    "profile_callable",
    "ExecutionEngine",
    "SerialEngine",
    "ThreadedEngine",
    "ProcessEngine",
    "AsyncEngine",
    "ReplicationEvent",
    "InjectionRecord",
    "SharedItemStore",
    "SharedStateHandle",
    "AttachedSharedState",
    "make_engine",
    "ENGINES",
    "ReadWriteLock",
    "ModelVersion",
    "ModelVersionRegistry",
    "RolloutGuard",
    "RolloutController",
    "RetrainPolicy",
    "EveryNTicks",
    "DriftThreshold",
    "OnlineLearner",
    "FaultInjector",
    "InjectedFaultError",
    "AsyncServingFront",
    "BoundedAdmissionQueue",
    "FrontConfig",
    "FrontReport",
    "FrontRequest",
    "OVERLOAD_POLICIES",
    "percentile_summary",
    "summarize_latencies",
    "TrafficPattern",
    "TrafficReport",
    "TrafficSimulator",
    "BackgroundTraffic",
    "latency_percentiles",
    "latency_breakdown",
    "open_loop_plan",
    "Workload",
    "SteadyWorkload",
    "DiurnalWorkload",
    "BurstWorkload",
    "FlashCrowdWorkload",
    "CompositeWorkload",
    "ArrivalSchedule",
    "sample_arrivals",
    "WORKLOADS",
    "make_workload",
]
