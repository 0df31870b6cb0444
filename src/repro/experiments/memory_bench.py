"""Per-shard memory benchmark for sliced replication (``repro-bench memory``).

The tentpole claim of the sliced serving architecture is a *memory*
claim: partitioning per-user state by shard and sharing the item side
through ``multiprocessing.shared_memory`` makes per-shard worker RSS
**sublinear in user count** — where full replication pays N copies of
everything, sliced workers pay ``users / n_shards`` plus one shared
catalog.  This bench measures that directly, on a synthetic
production-scale catalog:

* a **user-scale sweep** at fixed shard count: per-shard resident set
  size (``VmRSS`` from ``/proc/self/status``, probed inside each worker
  process) at doubling user counts.  Sublinearity is asserted on the
  doubling ratios — doubling the users must *not* double per-shard RSS;
* a **full-replication baseline** at the same scale, pinning how much
  the slicing saves (per-shard RSS under ``replication="full"`` carries
  the whole user base per worker);
* a **re-install payload probe** (the ``resync_payload`` report key):
  the bytes a per-shard install or re-install ships at two catalog
  sizes with the user count held fixed — the payload must be
  independent of catalog size (the item side never travels; it lives in
  the shared segments);
* a **segment-leak check**: after every service closes, none of its
  shared-memory segments may survive in ``/dev/shm``.

Workers are started with the ``spawn`` method so each child's RSS is a
clean measurement (a forked child inherits the coordinator's whole
address space copy-on-write, which would hide exactly the cost being
measured).  Models are built by direct attribute assignment — factor
matrices drawn from the seeded RNG, one-interaction profiles — because
SGD training adds minutes of runtime without changing a single byte of
the serving-state layout this bench measures.
"""

from __future__ import annotations

import pickle

import numpy as np

from repro.data.interactions import InteractionDataset
from repro.recsys.mf import MatrixFactorization
from repro.serving import ServingConfig, shared_state
from repro.serving import replica as replica_proto
from repro.serving.engine import ProcessEngine
from repro.serving.sharded import ShardedRecommendationService

__all__ = ["run_memory_bench", "synthetic_mf"]


def synthetic_mf(
    n_users: int, n_items: int, n_factors: int = 16, seed: int = 7
) -> MatrixFactorization:
    """A fitted-shaped MF model at arbitrary scale, without training.

    Factors are seeded random normals and every user has a one-item
    profile: the serving-state *layout* (factor matrices, dataset
    structures) is exactly what a trained model would hold, which is all
    a memory measurement needs.
    """
    rng = np.random.default_rng(seed)
    items = rng.integers(0, n_items, size=n_users)
    dataset = InteractionDataset(
        ([int(item)] for item in items),
        n_items=n_items,
        name=f"synthetic-{n_users}x{n_items}",
    )
    model = MatrixFactorization(n_factors=n_factors, seed=seed)
    model._dataset = dataset
    model.user_factors = rng.normal(0.0, 0.1, size=(n_users, n_factors))
    model.item_factors = rng.normal(0.0, 0.1, size=(n_items, n_factors))
    return model


def _measure_deployment(
    model: MatrixFactorization, n_shards: int, replication: str, k: int = 10
) -> dict:
    """Stand one deployment up, probe every worker's RSS, tear it down.

    A small query warms every worker first so lazily-faulted pages
    (including the shared item segments) are resident when probed; the
    returned record includes the post-close leak check.
    """
    engine = ProcessEngine(n_shards, start_method="spawn")
    config = ServingConfig(cache_capacity=64, replication=replication)
    service = ShardedRecommendationService(
        model, n_shards=n_shards, config=config, engine=engine
    )
    try:
        warm = list(range(min(model.dataset.n_users, 64)))
        service.query(warm, k=k, use_cache=False)
        probes = service._engine.broadcast(replica_proto.probe_memory)
        store = service._shared_store
        segment_names = (
            [spec.name for _, spec in store.handle().segments]
            if store is not None
            else []
        )
        shared_nbytes = store.handle().nbytes() if store is not None else 0
    finally:
        service.close()
    rss = [int(p["rss_kb"]) for p in probes]
    return {
        "replication": replication,
        "n_shards": n_shards,
        "n_users": int(model.dataset.n_users),
        "n_items": int(model.dataset.n_items),
        "per_shard_rss_kb": rss,
        "mean_rss_kb": float(np.mean(rss)),
        "max_rss_kb": int(max(rss)),
        "n_local_users": [int(p.get("n_local_users", 0)) for p in probes],
        "shared_nbytes": int(shared_nbytes),
        "leaked_segments": [
            name for name in segment_names if shared_state.segment_exists(name)
        ],
    }


def _slice_payload_bytes(model: MatrixFactorization, n_shards: int) -> int:
    """Bytes of shard 0's install (and re-install) slice payload."""
    user_ids = np.arange(0, model.dataset.n_users, n_shards, dtype=np.int64)
    return len(pickle.dumps(model.slice_users(user_ids)))


def run_memory_bench(
    n_users: int = 1_000_000,
    n_items: int = 100_000,
    n_shards: int = 7,
    n_factors: int = 16,
    user_scales: tuple[float, ...] = (0.25, 0.5, 1.0),
    baseline_scale: float | None = None,
    resync_catalogs: tuple[int, ...] | None = None,
    seed: int = 7,
) -> dict:
    """Run the full memory sweep; returns a JSON-serializable report.

    ``user_scales`` are fractions of ``n_users`` swept at ``n_shards``
    (consecutive pairs should double, for the sublinearity ratios).
    ``baseline_scale`` picks the scale the full-replication baseline
    runs at (default: the largest); ``resync_catalogs`` are the catalog
    sizes for the payload-independence probe (default: ``n_items / 2``
    and ``n_items``).
    """
    if baseline_scale is None:
        baseline_scale = max(user_scales)
    if resync_catalogs is None:
        resync_catalogs = (max(1, n_items // 2), n_items)

    report: dict = {
        "config": {
            "n_users": n_users,
            "n_items": n_items,
            "n_shards": n_shards,
            "n_factors": n_factors,
            "user_scales": list(user_scales),
            "baseline_scale": baseline_scale,
            "seed": seed,
        },
        "sliced": [],
        "full_baseline": None,
    }

    leaked: list[str] = []
    for scale in user_scales:
        users_at_scale = max(n_shards, int(round(n_users * scale)))
        model = synthetic_mf(users_at_scale, n_items, n_factors=n_factors, seed=seed)
        entry = _measure_deployment(model, n_shards, "sliced")
        entry["scale"] = scale
        entry["install_payload_bytes_shard0"] = _slice_payload_bytes(model, n_shards)
        leaked.extend(entry.pop("leaked_segments"))
        report["sliced"].append(entry)
        if scale == baseline_scale:
            baseline = _measure_deployment(model, n_shards, "full")
            baseline["scale"] = scale
            baseline["install_payload_bytes_shard0"] = len(pickle.dumps(model))
            leaked.extend(baseline.pop("leaked_segments"))
            report["full_baseline"] = baseline
        del model

    # Sublinearity: doubling the user count must not double per-shard RSS.
    ratios = []
    ordered = sorted(report["sliced"], key=lambda e: e["n_users"])
    for smaller, larger in zip(ordered, ordered[1:]):
        user_growth = larger["n_users"] / smaller["n_users"]
        rss_growth = larger["max_rss_kb"] / smaller["max_rss_kb"]
        ratios.append(
            {
                "from_users": smaller["n_users"],
                "to_users": larger["n_users"],
                "user_growth": float(user_growth),
                "rss_growth": float(rss_growth),
                "sublinear": bool(rss_growth < user_growth),
            }
        )
    report["sublinearity"] = {
        "ratios": ratios,
        "sublinear": bool(all(r["sublinear"] for r in ratios)),
    }

    baseline = report["full_baseline"]
    if baseline is not None:
        at_scale = next(
            e for e in report["sliced"] if e["scale"] == baseline["scale"]
        )
        report["baseline_comparison"] = {
            "scale": baseline["scale"],
            "sliced_max_rss_kb": at_scale["max_rss_kb"],
            "full_max_rss_kb": baseline["max_rss_kb"],
            "rss_saving_factor": float(
                baseline["max_rss_kb"] / at_scale["max_rss_kb"]
            ),
            "sliced_below_full": bool(
                at_scale["max_rss_kb"] < baseline["max_rss_kb"]
            ),
        }

    # Resync payload: user count fixed, catalog swept — the slice ships
    # no item-side state, so the payload must stay flat.
    resync_users = max(n_shards, int(round(n_users * min(user_scales))))
    payloads = []
    for catalog in resync_catalogs:
        model = synthetic_mf(resync_users, catalog, n_factors=n_factors, seed=seed)
        payloads.append(
            {"n_items": int(catalog), "payload_bytes": _slice_payload_bytes(model, n_shards)}
        )
        del model
    sizes = [p["payload_bytes"] for p in payloads]
    payload_ratio = max(sizes) / min(sizes) if min(sizes) else float("inf")
    report["resync_payload"] = {
        "n_users": resync_users,
        "per_catalog": payloads,
        "max_ratio": float(payload_ratio),
        "catalog_independent": bool(payload_ratio < 1.05),
    }

    report["segments"] = {
        "leaked_after_close": leaked,
        "clean": not leaked,
    }
    return report
