"""Each output check must pass on correct output and fail on a corruption."""

from __future__ import annotations

import numpy as np
import pytest

from perfbench import checks, tracing

K = 5


@pytest.fixture()
def served():
    """True top-K lists of a small factor model, with seen items excluded."""
    rng = np.random.default_rng(0)
    users = np.arange(12)
    user_vectors = rng.normal(size=(12, 4))
    item_factors = rng.normal(size=(40, 4))
    seen = [rng.choice(40, size=6, replace=False).tolist() for _ in users]
    scores = user_vectors @ item_factors.T
    for row, profile in enumerate(seen):
        scores[row, profile] = -np.inf
    lists = np.argsort(-scores, axis=1, kind="stable")[:, :K]
    return users, lists, user_vectors, item_factors, seen


def _check(users, lists, user_vectors, item_factors, seen):
    return checks.check_served_lists(users, lists, K, user_vectors, item_factors, seen)


def test_exact_top_k_passes(served):
    assert _check(*served) == []


def test_seen_item_inside_served_list_fails(served):
    users, lists, user_vectors, item_factors, seen = served
    lists = lists.copy()
    lists[3, -1] = seen[3][0]
    failures = _check(users, lists, user_vectors, item_factors, seen)
    assert len(failures) == 1 and "seen items" in failures[0]


def test_two_items_out_of_score_order_fail(served):
    users, lists, user_vectors, item_factors, seen = served
    lists = lists.copy()
    lists[5, [0, 1]] = lists[5, [1, 0]]
    failures = _check(users, lists, user_vectors, item_factors, seen)
    assert len(failures) == 1 and "out of score order" in failures[0]


def test_better_unseen_item_left_out_fails(served):
    users, lists, user_vectors, item_factors, seen = served
    lists = lists.copy()
    # Drop the best item and append the first one below the list.
    scores = user_vectors[7] @ item_factors.T
    scores[seen[7]] = -np.inf
    lists[7] = np.argsort(-scores, kind="stable")[1 : K + 1]
    failures = _check(users, lists, user_vectors, item_factors, seen)
    assert len(failures) == 1 and "above served item" in failures[0]


def test_repeated_item_fails(served):
    users, lists, user_vectors, item_factors, seen = served
    lists = lists.copy()
    lists[0, 1] = lists[0, 0]
    failures = _check(users, lists, user_vectors, item_factors, seen)
    assert len(failures) == 1 and "repeats" in failures[0]


def test_changed_list_for_same_user_fails():
    first: dict = {}
    assert checks.check_repeat_lists(first, 4, np.array([1, 2, 3])) is None
    assert checks.check_repeat_lists(first, 4, np.array([1, 2, 3])) is None
    assert "served" in checks.check_repeat_lists(first, 4, np.array([1, 3, 2]))


def test_injected_window_passes_for_a_clipped_window():
    source = [10, 11, 12, 13, 14, 15, 16, 17, 18, 19]
    assert checks.check_injected_window([13, 14, 15, 16, 17], source, 15) is None
    assert checks.check_injected_window(source, source, 19) is None


def test_injected_profile_that_is_not_a_window_fails():
    source = [10, 11, 12, 13, 14, 15, 16, 17, 18, 19]
    problem = checks.check_injected_window([13, 14, 16, 17, 18], source, 14)
    assert problem is not None and "not a window" in problem


def test_injected_profile_without_target_or_level_length_fails():
    source = list(range(20, 30))
    assert "lacks target" in checks.check_injected_window([21, 22], source, 25)
    # A 30-item source clips to multiples of 3; a 4-item window is no level.
    long_source = list(range(100, 130))
    problem = checks.check_injected_window(long_source[10:14], long_source, 112)
    assert "crafting level" in problem


def test_per_shard_totals_that_do_not_add_up_fail():
    clean = dict(
        plan_users=100,
        plan_requests=10,
        served_users=100,
        served_requests=10,
        shard_users=[60, 40],
        shard_hits=[50, 30],
        shard_misses=[10, 10],
    )
    assert checks.check_totals(**clean) == []
    broken = dict(clean, shard_users=[60, 39], shard_misses=[10, 9])
    failures = checks.check_totals(**broken)
    assert len(failures) == 1 and "sum != plan total" in failures[0]
    failures = checks.check_totals(**dict(clean, shard_hits=[49, 30]))
    assert len(failures) == 1 and "hits+misses" in failures[0]


def test_counts_epochs_resets_and_promotion():
    assert checks.check_user_count(100, 5, 105) == []
    assert checks.check_user_count(100, 5, 104)
    assert checks.check_replica_epochs([7, 7], 7) == []
    assert len(checks.check_replica_epochs([7, 6], 7)) == 1
    assert checks.check_resets([340, 340], 340) == []
    assert checks.check_resets([340, 341], 340)
    assert checks.check_promotion([0.0, 0.1], [0.2, 0.3]) == []
    assert checks.check_promotion([0.2], [0.2])


def test_fold_in_row_must_be_profile_mean():
    item_factors = np.arange(12, dtype=np.float64).reshape(6, 2)
    rows = np.array([item_factors[[1, 4]].mean(axis=0)])
    assert checks.check_fold_in(rows, [[1, 4]], item_factors) == []
    assert checks.check_fold_in(rows + 1e-6, [[1, 4]], item_factors)


def test_hit_ratio_counts_strictly_higher_negatives():
    scores = np.array([[0.5, 0.9, 0.1, 0.5]])
    candidates = [(0, np.array([0, 1, 2, 3]))]
    assert checks.hit_ratio_at_k(scores, candidates, {0: 0}, 1) == 0.0
    assert checks.hit_ratio_at_k(scores, candidates, {0: 0}, 2) == 1.0


def test_tracer_self_time_subtracts_children_and_folds_reentry():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    outer = tracer.begin("a")  # t=0
    inner = tracer.begin("b")  # t=1
    assert tracer.begin("b") == -1  # same-name re-entry folds in
    tracer.end(inner)  # t=2
    tracer.end(outer)  # t=3
    assert tracer.self_times(timed_only=False) == {"a": 2.0, "b": 1.0}


def test_install_wraps_and_restores_every_kind_of_method():
    class Target:
        def method(self, x):
            return x + 1

        @classmethod
        def build(cls, x):
            return x * 2

        @staticmethod
        def helper(x):
            return x - 1

    tracer = tracing.Tracer()
    originals = dict(Target.__dict__)
    undo = tracing.install(
        tracer,
        [(Target, "method", "m", None), (Target, "build", "b", None), (Target, "helper", "h", None)],
    )
    assert (Target().method(1), Target.build(2), Target().helper(3)) == (2, 4, 2)
    assert tracer.names == ["m", "b", "h"]
    undo()
    assert all(Target.__dict__[name] is originals[name] for name in ("method", "build", "helper"))
