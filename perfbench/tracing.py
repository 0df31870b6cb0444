"""In-memory span tracer and the wrappers that feed it.

A traced run patches the public functions of each layer (see
:func:`layer_targets`) with thin wrappers that record one span per
call: name, start, end and parent span.  Spans stay in lists until the
run ends, then :meth:`Tracer.write` dumps them and
:func:`per_layer_metrics` turns them into self times and counts.

A span's *self time* is its duration minus the durations of its direct
children; calls are single-threaded and properly nested, so children
never overlap.  A call that re-enters a span of the same name (a
subclass method calling ``super()``) is folded into the open span, so
nothing is counted twice.

Spans carry a flag saying whether they started inside a *timed window*
(the phase the end-to-end metrics measure); hot-path metrics read only
those, set-up metrics read every span of their name.
"""

from __future__ import annotations

import functools
import json
import pickle
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    """Spans and counters of one run, kept in memory."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.child_s: list[float] = []
        self.timed: list[bool] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.windows: list[tuple[float, float]] = []
        self.window_open = False
        self._window_start = 0.0
        self._stack: list[int] = []

    # -- spans -----------------------------------------------------------------
    def begin(self, name: str) -> int:
        stack = self._stack
        if stack and self.names[stack[-1]] == name:
            return -1  # same-name re-entry: folded into the open span
        index = len(self.names)
        self.names.append(name)
        self.parents.append(stack[-1] if stack else -1)
        self.child_s.append(0.0)
        self.ends.append(0.0)
        self.timed.append(self.window_open)
        stack.append(index)
        self.starts.append(self.clock())
        return index

    def end(self, index: int) -> None:
        if index < 0:
            return
        now = self.clock()
        self.ends[index] = now
        self._stack.pop()
        parent = self.parents[index]
        if parent >= 0:
            self.child_s[parent] += now - self.starts[index]

    @contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def duration(self, index: int) -> float:
        return self.ends[index] - self.starts[index]

    # -- counters and windows ------------------------------------------------------
    def add(self, name: str, value: float = 1.0) -> None:
        """Add to a counter; only work inside a timed window counts."""
        if self.window_open:
            self.counters[name] += value

    def open_window(self) -> None:
        self.window_open = True
        self._window_start = self.clock()

    def close_window(self) -> None:
        self.window_open = False
        self.windows.append((self._window_start, self.clock()))

    # -- reduction -------------------------------------------------------------------
    def self_times(self, timed_only: bool) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for i, name in enumerate(self.names):
            if timed_only and not self.timed[i]:
                continue
            out[name] += (self.ends[i] - self.starts[i]) - self.child_s[i]
        return out

    def write(self, path: Path, extra: dict) -> None:
        spans = [
            [self.names[i], self.starts[i], self.ends[i], self.parents[i], self.timed[i]]
            for i in range(len(self.names))
        ]
        payload = {
            "spans": spans,
            "span_fields": ["name", "start", "end", "parent", "timed"],
            "windows": self.windows,
            "counters": dict(self.counters),
            **extra,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload))


# -- wrappers ---------------------------------------------------------------------------
def _wrap(tracer: Tracer, fn, name: str | None, after):
    """``fn`` recorded as span ``name`` (None: no span, ``after`` only)."""
    begin, end = tracer.begin, tracer.end

    if name is None:

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(tracer, -1, args, result)
            return result

        return counted

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            end(index)
        if after is not None and index >= 0:
            after(tracer, index, args, result)
        return result

    return traced


def install(tracer: Tracer, targets) -> callable:
    """Patch every ``(owner, attribute, span, after)`` target; return an undo.

    ``owner`` is a class or a module.  Class-level ``classmethod`` and
    ``staticmethod`` descriptors are unwrapped and re-wrapped so the
    patched attribute binds exactly as the original did.
    """
    undo = []
    for owner, attr, name, after in targets:
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, (classmethod, staticmethod)):
            patched = type(raw)(_wrap(tracer, raw.__func__, name, after))
        else:
            patched = _wrap(tracer, raw, name, after)
        setattr(owner, attr, patched)
        undo.append((owner, attr, raw))

    def uninstall() -> None:
        for owner, attr, raw in reversed(undo):
            setattr(owner, attr, raw)

    return uninstall


# -- counters fed from call arguments and results ---------------------------------
def _count_users_scored(tracer, index, args, result):
    tracer.add("recsys.users_scored", len(args[1]))


def _count_rnn_steps(tracer, index, args, result):
    tracer.add("attack.rnn_steps", len(args[2]))


def _count_episode(tracer, index, args, result):
    tracer.add("attack.episodes")


def _count_step(tracer, index, args, result):
    tracer.add("attack.steps")
    if result.queried:
        tracer.add("attack.reward_queries")


def _count_request(tracer, index, args, result):
    tracer.add("serving.requests")
    tracer.add("serving.users_served", len(args[1]))


def _count_lookup(tracer, index, args, result):
    _, miss_positions = result
    tracer.add("serving.cache_lookups", len(args[1]))
    tracer.add("serving.cache_hits", len(args[1]) - len(miss_positions))


def _count_injection(tracer, index, args, result):
    tracer.add("serving.injections")


def _count_event(tracer, index, args, result):
    tracer.add("serving.replica.events")


def _count_submit(tracer, index, args, result):
    tracer.add("serving.engine.round_trips")
    # args = (engine, worker, fn, *call_args): what the executor pickles.
    payload = pickle.dumps((args[2], args[3:]), protocol=pickle.HIGHEST_PROTOCOL)
    tracer.add("serving.engine.bytes_out", len(payload))


def _count_gather(tracer, index, args, result):
    from repro.serving.replica import SliceResult

    wait = tracer.duration(index)
    tracer.add("serving.engine.gather_wait_s", wait)
    busy = [r.elapsed for r in result if isinstance(r, SliceResult)]
    if busy:
        tracer.add("serving.engine.worker_busy_s", sum(busy))
        tracer.add("serving.engine.transport_s", wait - max(busy))


def layer_targets() -> list:
    """The public calls a traced run wraps, one entry per layer boundary."""
    from repro.attack.environment import AttackEnvironment
    from repro.attack.policies.crafting_policy import CraftingPolicy
    from repro.attack.policies.hierarchical import HierarchicalTreePolicy
    from repro.attack.policies.state import PolicyStateEncoder
    from repro.attack.reinforce import ReinforceTrainer
    from repro.attack.tree.hierarchy import HierarchicalClusterTree
    from repro.data.interactions import InteractionDataset
    from repro.experiments import runner
    from repro.nn.tensor import Tensor
    from repro.recsys.base import Recommender
    from repro.recsys.mf import MatrixFactorization
    from repro.recsys.pinsage import PinSageRecommender
    from repro.serving import sharded
    from repro.serving.cache import TopKCache
    from repro.serving.engine import ProcessEngine
    from repro.serving.service import RecommendationService
    from repro.serving.sharded import (
        InvalidationBus,
        ShardedRecommendationService,
        ShardRouter,
    )

    return [
        # data
        (runner, "generate_cross_domain", "data.generate", None),
        (InteractionDataset, "add_user", "data.add_user", None),
        (InteractionDataset, "copy", "data.copy", None),
        # recsys
        (runner, "train_target_model", "recsys.train_target", None),
        (MatrixFactorization, "fit", "recsys.train_mf", None),
        (Recommender, "top_k_batch", "recsys.top_k_batch", _count_users_scored),
        (MatrixFactorization, "add_user", "recsys.add_user", None),
        (PinSageRecommender, "add_user", "recsys.add_user", None),
        (MatrixFactorization, "restore", "recsys.restore", None),
        (PinSageRecommender, "restore", "recsys.restore", None),
        # nn
        (Tensor, "backward", "nn.backward", None),
        # attack
        (PolicyStateEncoder, "encode", "attack.encode", _count_rnn_steps),
        (HierarchicalTreePolicy, "select", "attack.select", None),
        (CraftingPolicy, "select", "attack.select", None),
        (ReinforceTrainer, "update", "attack.update", None),
        (HierarchicalClusterTree, "from_depth", "attack.tree_build", None),
        (AttackEnvironment, "reset", None, _count_episode),
        (AttackEnvironment, "step", None, _count_step),
        # serving
        (RecommendationService, "query", "serving.query", _count_request),
        (ShardedRecommendationService, "query", "serving.query", _count_request),
        (ShardRouter, "shards_for_users", "serving.route", None),
        (TopKCache, "lookup_batch", "serving.cache", _count_lookup),
        (TopKCache, "store_batch", "serving.cache", None),
        (sharded, "scatter_to_request_order", "serving.merge", None),
        (RecommendationService, "inject", "serving.inject", _count_injection),
        (ShardedRecommendationService, "inject", "serving.inject", _count_injection),
        (RecommendationService, "restore", "serving.restore", None),
        (ShardedRecommendationService, "restore", "serving.restore", None),
        (ShardedRecommendationService, "__init__", "serving.install", None),
        (InvalidationBus, "publish", None, _count_event),
        (ProcessEngine, "submit_to", None, _count_submit),
        (ProcessEngine, "gather", "serving.engine.gather", _count_gather),
    ]


#: Per-layer metrics: name -> (unit, source).  A source is
#: ("self", span, scope) for a self time summed over the spans of that
#: name (scope "setup": every span; "timed": spans started in a timed
#: window) or ("counter", name) for a counter.
PER_LAYER: dict[str, tuple] = {
    "data.generate_s": ("s", ("self", "data.generate", "setup")),
    "data.dataset_build_s": ("s", ("self", "data.dataset_build", "setup")),
    "data.add_user_s": ("s", ("self", "data.add_user", "timed")),
    "data.copy_s": ("s", ("self", "data.copy", "timed")),
    "recsys.train_target_s": ("s", ("self", "recsys.train_target", "setup")),
    "recsys.train_mf_s": ("s", ("self", "recsys.train_mf", "setup")),
    "recsys.top_k_batch_s": ("s", ("self", "recsys.top_k_batch", "timed")),
    "recsys.users_scored": ("count", ("counter", "recsys.users_scored")),
    "recsys.add_user_s": ("s", ("self", "recsys.add_user", "timed")),
    "recsys.restore_s": ("s", ("self", "recsys.restore", "timed")),
    "nn.backward_s": ("s", ("self", "nn.backward", "timed")),
    "attack.encode_s": ("s", ("self", "attack.encode", "timed")),
    "attack.rnn_steps": ("count", ("counter", "attack.rnn_steps")),
    "attack.select_s": ("s", ("self", "attack.select", "timed")),
    "attack.update_s": ("s", ("self", "attack.update", "timed")),
    "attack.tree_build_s": ("s", ("self", "attack.tree_build", "timed")),
    "attack.episodes": ("count", ("counter", "attack.episodes")),
    "attack.steps": ("count", ("counter", "attack.steps")),
    "attack.reward_queries": ("count", ("counter", "attack.reward_queries")),
    "serving.query_s": ("s", ("self", "serving.query", "timed")),
    "serving.route_s": ("s", ("self", "serving.route", "timed")),
    "serving.cache_s": ("s", ("self", "serving.cache", "timed")),
    "serving.cache_hit_ratio": ("ratio", ("ratio", "serving.cache_hits", "serving.cache_lookups")),
    "serving.merge_s": ("s", ("self", "serving.merge", "timed")),
    "serving.inject_s": ("s", ("self", "serving.inject", "timed")),
    "serving.injections": ("count", ("counter", "serving.injections")),
    "serving.restore_s": ("s", ("self", "serving.restore", "timed")),
    "serving.install_s": ("s", ("self", "serving.install", "setup")),
    "serving.requests": ("count", ("counter", "serving.requests")),
    "serving.users_served": ("count", ("counter", "serving.users_served")),
    "serving.engine.round_trips": ("count", ("counter", "serving.engine.round_trips")),
    "serving.engine.gather_wait_s": ("s", ("counter", "serving.engine.gather_wait_s")),
    "serving.engine.worker_busy_s": ("s", ("counter", "serving.engine.worker_busy_s")),
    "serving.engine.transport_s": ("s", ("counter", "serving.engine.transport_s")),
    "serving.engine.bytes_out": ("B", ("counter", "serving.engine.bytes_out")),
    "serving.replica.events": ("count", ("counter", "serving.replica.events")),
}


def per_layer_metrics(tracer: Tracer) -> dict[str, dict]:
    """Every :data:`PER_LAYER` metric; a layer the workload never calls reads 0."""
    timed = tracer.self_times(timed_only=True)
    every = tracer.self_times(timed_only=False)
    out = {}
    for metric, (unit, source) in PER_LAYER.items():
        if source[0] == "self":
            _, span, scope = source
            value = (every if scope == "setup" else timed).get(span, 0.0)
        elif source[0] == "counter":
            value = tracer.counters.get(source[1], 0.0)
        else:
            _, num, den = source
            den_value = tracer.counters.get(den, 0.0)
            value = tracer.counters.get(num, 0.0) / den_value if den_value else 0.0
        out[metric] = {"value": float(value), "unit": unit}
    return out
