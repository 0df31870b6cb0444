"""``serve_inproc`` and ``serve_process``: closed-loop top-k serving.

One caller in one process replays a seeded plan against a
``ShardedRecommendationService`` with one shard per vCPU (``nproc``; two
on the reference host), fronting an MF model trained on generated logs.
``serve_inproc`` resolves the shards with the ``serial`` engine in this
process; ``serve_process`` runs one ``spawn``-started ``ProcessEngine``
worker per shard, with sliced replication and the item factors in
shared memory.  The plan is whole
*rounds*: :data:`REQUESTS_PER_ROUND` top-k requests of Zipf-skewed user
cohorts (1-32 users), then one organic sign-up.  The first request of
every round after a sign-up asks for the newest user's list.

Before the clock: inputs are generated, the program builds the dataset,
trains MF and constructs the fleet (``setup_s``), and the caches are
warmed with the hottest users.  The clock then runs whole rounds until
``--seconds`` have passed.  After it stops, every served list is checked
against top-k lists recomputed from the model's factor matrices.
"""

from __future__ import annotations

import multiprocessing
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from . import checks, system

N_USERS = 200_000
N_ITEMS = 20_000
N_FACTORS = 16
MF_EPOCHS = 1
MF_BATCH = 4096
N_TASTE_CLUSTERS = 64
ITEM_ZIPF = 0.9
USER_ZIPF = 1.0
PROFILE_MEDIAN = 6.0
K = 20
REQUESTS_PER_ROUND = 24
MAX_COHORT = 32
PLAN_ROUNDS = 4000  # ~10x what a run uses today; the replay wraps past it
CACHE_PER_SHARD = 16_384
WARM_BATCH = 256
WARM_USERS = 8192  # hottest users queried before the clock


@dataclass
class ServeInputs:
    profiles: list[list[int]]
    signups: list[list[int]]
    cohort_sizes: np.ndarray  # (PLAN_ROUNDS, REQUESTS_PER_ROUND)
    cohort_users: np.ndarray  # flat, consumed in plan order
    warm_users: np.ndarray


def _zipf_cdf(n: int, exponent: float) -> np.ndarray:
    weights = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** exponent
    cdf = np.cumsum(weights)
    return cdf / cdf[-1]


def _sample_profiles(rng, cdf, orders, ranking, lengths) -> list[list[int]]:
    """Distinct Zipf-drawn items for each user, in draw order.

    User ``u`` draws ranks from ``cdf`` and maps them through their own
    item ranking ``orders[ranking[u]]``, keeping the first ``lengths[u]``
    distinct items.  Users are drawn in groups of similar length so each
    group's draw matrix is only as wide as its longest profile needs.
    """
    profiles: list[list[int]] = [[] for _ in range(lengths.size)]
    group_of = (lengths + 7) // 8
    for group in np.unique(group_of).tolist():
        members = np.flatnonzero(group_of == group)
        width = 16 * group + 8
        ranks = np.searchsorted(cdf, rng.random((members.size, width)))
        items = orders[ranking[members][:, None], np.minimum(ranks, cdf.size - 1)]
        # A draw repeating an earlier draw of the same row is dropped.
        sorter = np.argsort(items, axis=1, kind="stable")
        ordered = np.take_along_axis(items, sorter, axis=1)
        repeat_sorted = np.zeros(items.shape, dtype=bool)
        repeat_sorted[:, 1:] = ordered[:, 1:] == ordered[:, :-1]
        repeat = np.empty_like(repeat_sorted)
        np.put_along_axis(repeat, sorter, repeat_sorted, axis=1)
        keep = ~repeat & (np.cumsum(~repeat, axis=1) <= lengths[members][:, None])
        for user, row, mask in zip(members.tolist(), items, keep):
            profiles[user] = row[mask].tolist()
    return profiles


def _profile_lengths(rng, n: int) -> np.ndarray:
    raw = rng.lognormal(np.log(PROFILE_MEDIAN), 0.6, size=n)
    return np.clip(np.round(raw), 2, 50).astype(np.int64)


def generate_inputs(seed: int) -> ServeInputs:
    """Logs, sign-up profiles and the request plan, all from ``seed``.

    Half the users draw their items from a global Zipf popularity
    ranking, the other half from the ranking of one of
    :data:`N_TASTE_CLUSTERS` taste clusters; sign-ups draw from the
    global one.  Requests draw users from a Zipf ranking over a random
    permutation of user ids, so hot users spread over every shard.
    """
    rng = np.random.default_rng(seed)
    item_cdf = _zipf_cdf(N_ITEMS, ITEM_ZIPF)
    # Row 0 is the global ranking; rows 1.. the taste clusters' own.
    orders = np.stack([rng.permutation(N_ITEMS) for _ in range(N_TASTE_CLUSTERS + 1)])
    taste = rng.integers(1, N_TASTE_CLUSTERS + 1, size=N_USERS)
    ranking = np.where(rng.random(N_USERS) < 0.5, 0, taste)
    profiles = _sample_profiles(rng, item_cdf, orders, ranking, _profile_lengths(rng, N_USERS))
    signups = _sample_profiles(
        rng, item_cdf, orders, np.zeros(PLAN_ROUNDS, dtype=np.int64),
        _profile_lengths(rng, PLAN_ROUNDS),
    )
    sizes = np.minimum(
        MAX_COHORT,
        np.floor(2.0 ** rng.uniform(0.0, np.log2(MAX_COHORT + 1), size=(PLAN_ROUNDS, REQUESTS_PER_ROUND))),
    ).astype(np.int64)
    hot_order = rng.permutation(N_USERS)
    user_cdf = _zipf_cdf(N_USERS, USER_ZIPF)
    ranks = np.searchsorted(user_cdf, rng.random(int(sizes.sum())))
    cohort_users = hot_order[np.minimum(ranks, N_USERS - 1)]
    return ServeInputs(
        profiles=profiles,
        signups=signups,
        cohort_sizes=sizes,
        cohort_users=cohort_users,
        warm_users=hot_order[:WARM_USERS],
    )


@dataclass
class Replay:
    """What the timed replay did, recorded for the checks and metrics."""

    request_s: list[float] = field(default_factory=list)
    inject_s: list[float] = field(default_factory=list)
    served: list[tuple[np.ndarray, list]] = field(default_factory=list)
    signup_ids: list[int] = field(default_factory=list)
    signup_profiles: list[list[int]] = field(default_factory=list)
    users: int = 0
    requests: int = 0
    warm_users: int = 0
    warm_requests: int = 0
    hits: int = 0
    elapsed_s: float = 0.0


def _build_fleet(model, engine_name: str):
    from repro.serving import ProcessEngine, ServingConfig, ShardedRecommendationService

    # A sign-up folds in one user and leaves every other user's scores
    # unchanged, so cached lists stay exact: entries outlive sign-ups.
    n_shards = system.n_cpus()
    if engine_name == "process":
        engine = ProcessEngine(n_shards, start_method="spawn")
    else:
        engine = "serial"
    config = ServingConfig(
        cache_capacity=CACHE_PER_SHARD, ttl_injections=10**9, engine=engine_name
    )
    return ShardedRecommendationService(model, n_shards=n_shards, config=config, engine=engine)


def _warm(service, inputs: ServeInputs, replay: Replay) -> None:
    """Fill the caches with the hottest users before the clock starts."""
    hot = inputs.warm_users
    for lo in range(0, hot.size, WARM_BATCH):
        batch = hot[lo : lo + WARM_BATCH]
        replay.served.append((batch, service.query(batch, K)))
        replay.warm_users += int(batch.size)
        replay.warm_requests += 1


def _replay(service, inputs: ServeInputs, seconds: float, replay: Replay, tracer) -> None:
    """Whole rounds of requests + one sign-up until ``seconds`` have passed."""
    clock = time.perf_counter
    sizes = inputs.cohort_sizes
    flat = inputs.cohort_users
    offsets = np.concatenate(([0], np.cumsum(sizes.ravel())))
    n_rounds = sizes.shape[0]
    newest = -1
    if tracer is not None:
        tracer.open_window()
    start = clock()
    r = 0
    while True:
        plan_round = r % n_rounds
        for j in range(REQUESTS_PER_ROUND):
            cell = plan_round * REQUESTS_PER_ROUND + j
            users = flat[offsets[cell] : offsets[cell + 1]]
            if j == 0 and newest >= 0:
                users = users.copy()
                users[0] = newest
            t0 = clock()
            lists = service.query(users, K)
            replay.request_s.append(clock() - t0)
            replay.served.append((users, lists))
            replay.users += int(users.size)
        profile = inputs.signups[plan_round]
        t0 = clock()
        newest = service.inject(profile)
        replay.inject_s.append(clock() - t0)
        replay.signup_ids.append(newest)
        replay.signup_profiles.append(profile)
        replay.requests += REQUESTS_PER_ROUND
        r += 1
        if clock() - start >= seconds:
            break
    replay.elapsed_s = clock() - start
    if tracer is not None:
        tracer.close_window()


def _verify(service, model, inputs: ServeInputs, replay: Replay, n_users0: int) -> list[str]:
    failures: list[str] = []
    signups = len(replay.signup_ids)
    expected_ids = list(range(n_users0, n_users0 + signups))
    if replay.signup_ids != expected_ids:
        failures.append("sign-ups were not assigned consecutive new user ids")
    failures += checks.check_user_count(n_users0, signups, service.n_users)
    item_factors = np.asarray(model.item_factors)
    # Sign-ups: the fold-in row is recomputed here, not read back.
    signup_vectors = np.stack(
        [item_factors[p].mean(axis=0) for p in replay.signup_profiles]
    )
    failures += checks.check_fold_in(
        np.asarray(model.user_factors)[n_users0 : n_users0 + signups],
        replay.signup_profiles,
        item_factors,
    )
    first: dict[int, np.ndarray] = {}
    for users, lists in replay.served:
        if len(lists) != len(users):
            failures.append(f"request for {len(users)} users returned {len(lists)} lists")
            continue
        for user, items in zip(users.tolist(), lists):
            problem = checks.check_repeat_lists(first, user, np.asarray(items))
            if problem:
                failures.append(problem)
    users = np.fromiter(first.keys(), dtype=np.int64, count=len(first))
    lists = [first[u] for u in users.tolist()]
    if any(np.asarray(items).shape != (K,) for items in lists):
        return failures + [f"a served list does not hold {K} items"]
    old = users < n_users0
    vectors = np.empty((users.size, item_factors.shape[1]))
    vectors[old] = np.asarray(model.user_factors)[users[old]]
    vectors[~old] = signup_vectors[users[~old] - n_users0]
    seen = [
        inputs.profiles[u] if u < n_users0 else replay.signup_profiles[u - n_users0]
        for u in users.tolist()
    ]
    failures += checks.check_served_lists(users, np.stack(lists), K, vectors, item_factors, seen)
    summaries = service.shard_summaries()
    replay.hits = sum(int(s["cache_hits"]) for s in summaries)
    failures += checks.check_totals(
        plan_users=replay.users + replay.warm_users,
        plan_requests=replay.requests + replay.warm_requests,
        served_users=service.stats.n_users_served,
        served_requests=service.stats.n_requests,
        shard_users=[int(s["n_users_served"]) for s in summaries],
        shard_hits=[int(s["cache_hits"]) for s in summaries],
        shard_misses=[int(s["cache_misses"]) for s in summaries],
    )
    return failures


def run(engine_name: str, seed: int, seconds: float, tracer, t_import: float) -> dict:
    """One serve run; returns the raw measurements for ``run.py``."""
    from repro.data.interactions import InteractionDataset
    from repro.recsys.mf import MatrixFactorization

    inputs = generate_inputs(seed)
    shm_before = system.shm_segments()
    clock = time.perf_counter
    t0 = clock()
    with tracer.span("data.dataset_build") if tracer is not None else nullcontext():
        dataset = InteractionDataset(inputs.profiles, n_items=N_ITEMS, name="serve")
    model = MatrixFactorization(
        n_factors=N_FACTORS, n_epochs=MF_EPOCHS, batch_size=MF_BATCH, seed=seed
    ).fit(dataset)
    service = _build_fleet(model, engine_name)
    setup_s = t_import + clock() - t0
    replay = Replay()
    failures: list[str] = []
    shard_rss = None
    try:
        n_users0 = service.n_users
        _warm(service, inputs, replay)
        _replay(service, inputs, seconds, replay, tracer)
        if engine_name == "process":
            probes = service.replica_probe()
            failures += checks.check_replica_epochs(
                [p["epoch"] for p in probes], len(replay.signup_ids)
            )
            workers = multiprocessing.active_children()
            shard_rss = max(system.peak_rss_mib(p.pid) for p in workers)
        failures += _verify(service, model, inputs, replay, n_users0)
    finally:
        service.close()
    system.stop_resource_tracker()
    leftover = system.reap_children()
    if leftover:
        failures.append(f"child processes {leftover} outlived the fleet")
    leaked = system.shm_segments() - shm_before
    if leaked:
        failures.append(f"shared-memory segments {sorted(leaked)} outlived the fleet")
    ops = replay.requests + len(replay.signup_ids)
    return {
        "attempted": ops,
        "failed": 0,
        "failures": failures,
        "setup_s": setup_s,
        "elapsed_s": replay.elapsed_s,
        "ops": ops,
        "users": replay.users,
        "request_s": replay.request_s,
        "inject_s": replay.inject_s,
        "shard_rss_mib": shard_rss,
        "notes": {
            "n_users": N_USERS,
            "n_items": N_ITEMS,
            "n_shards": service.n_shards,
            "requests": replay.requests,
            "signups": len(replay.signup_ids),
            "users_served": replay.users,
            "cache_hit_ratio": replay.hits / max(1, replay.users + replay.warm_users),
        },
    }
