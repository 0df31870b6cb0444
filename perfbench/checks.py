"""Output checks computed apart from the program.

Each check takes plain arrays and counts, recomputes what the program
should have produced with numpy alone, and returns a list of failure
messages (empty when the output is correct).  Nothing here imports the
program, so a fault in it cannot hide a fault in what it checks.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

#: The crafting policy's keep-fractions: ten levels, 10% .. 100%.
WINDOW_LEVELS = tuple(round(0.1 * i, 1) for i in range(1, 11))

#: Slack for comparing scores recomputed with a differently blocked
#: GEMM; far below any real score gap.
SCORE_TOL = 1e-9


def check_served_lists(
    users: np.ndarray,
    lists: np.ndarray,
    k: int,
    user_vectors: np.ndarray,
    item_factors: np.ndarray,
    seen: Sequence[Iterable[int]],
) -> list[str]:
    """Each row must be the exact top-``k`` unseen items, best first.

    ``lists[i]`` was served to ``users[i]``; ``user_vectors[i]`` is that
    user's factor row and ``seen[i]`` their logged profile.  A row fails
    if it is short, repeats an item, holds a seen item, is out of score
    order, or leaves out an unseen item scoring above its last entry.
    """
    lists = np.asarray(lists, dtype=np.int64)
    users = np.asarray(users, dtype=np.int64)
    item_factors = np.asarray(item_factors, dtype=np.float64)
    if lists.ndim != 2 or lists.shape[1] != k:
        return [f"served lists have shape {lists.shape}, expected (n, {k})"]
    if lists.size and (lists.min() < 0 or lists.max() >= item_factors.shape[0]):
        return ["a served item id lies outside the catalog"]
    failures: list[str] = []
    for lo in range(0, users.size, _CHUNK):
        hi = min(lo + _CHUNK, users.size)
        failures += _check_chunk(
            users[lo:hi], lists[lo:hi], user_vectors[lo:hi], item_factors, seen[lo:hi]
        )
    return failures


_CHUNK = 256  # rows scored at once: 256 x catalog float64 stays small


def _check_chunk(users, lists, user_vectors, item_factors, seen) -> list[str]:
    n, k = lists.shape
    rows = np.arange(n)[:, None]
    scores = np.asarray(user_vectors, dtype=np.float64) @ item_factors.T
    seen_rows = np.repeat(np.arange(n), [len(p) for p in seen])
    seen_cols = np.fromiter(
        (v for p in seen for v in p), dtype=np.int64, count=seen_rows.size
    )
    seen_mask = np.zeros(scores.shape, dtype=bool)
    seen_mask[seen_rows, seen_cols] = True
    ordered = np.sort(lists, axis=1)
    repeats = (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
    served_seen = seen_mask[rows, lists].any(axis=1)
    got = scores[rows, lists]
    out_of_order = (np.diff(got, axis=1) > SCORE_TOL).any(axis=1)
    # What is left once seen and served items are struck out must not
    # outscore the last served item.
    scores[seen_rows, seen_cols] = -np.inf
    scores[rows, lists] = -np.inf
    best_rest = scores.max(axis=1)
    missed = best_rest > got[:, -1] + SCORE_TOL
    failures = []
    for row in np.flatnonzero(repeats | served_seen | out_of_order | missed).tolist():
        user, served = int(users[row]), lists[row].tolist()
        if repeats[row]:
            failures.append(f"user {user}: served list repeats an item: {served}")
        elif served_seen[row]:
            bad = [v for v in served if seen_mask[row, v]]
            failures.append(f"user {user}: served seen items {bad}")
        elif out_of_order[row]:
            failures.append(f"user {user}: served list {served} is out of score order")
        else:
            item = int(np.argmax(scores[row]))
            failures.append(
                f"user {user}: unseen item {item} scores {best_rest[row]:.6g}, above "
                f"served item {served[-1]} at {got[row, -1]:.6g}"
            )
    return failures


def check_repeat_lists(served: dict[int, np.ndarray], user: int, items: np.ndarray) -> str | None:
    """A user's list must not change between requests (their scores do not)."""
    first = served.setdefault(user, items)
    if first is not items and not np.array_equal(first, items):
        return f"user {user}: served {items.tolist()} after {first.tolist()}"
    return None


def check_fold_in(
    user_rows: np.ndarray, profiles: Sequence[Sequence[int]], item_factors: np.ndarray
) -> list[str]:
    """A signed-up user's factor row is the mean of their items' factors."""
    failures = []
    for row, profile in zip(user_rows, profiles):
        expected = np.asarray(item_factors)[list(profile)].mean(axis=0)
        if not np.allclose(row, expected, rtol=0.0, atol=1e-12):
            failures.append(f"sign-up {list(profile)}: factor row is not the fold-in mean")
    return failures


def check_totals(
    plan_users: int,
    plan_requests: int,
    served_users: int,
    served_requests: int,
    shard_users: Sequence[int],
    shard_hits: Sequence[int],
    shard_misses: Sequence[int],
) -> list[str]:
    """Users served = plan total = sum over shards = cache hits + misses."""
    failures = []
    if served_requests != plan_requests:
        failures.append(f"coordinator counted {served_requests} requests, plan issued {plan_requests}")
    if served_users != plan_users:
        failures.append(f"coordinator served {served_users} users, plan issued {plan_users}")
    if sum(shard_users) != plan_users:
        failures.append(f"shards served {list(shard_users)} users, sum != plan total {plan_users}")
    lookups = [h + m for h, m in zip(shard_hits, shard_misses)]
    if lookups != list(shard_users):
        failures.append(
            f"per-shard cache hits+misses {lookups} != per-shard users served {list(shard_users)}"
        )
    return failures


def check_user_count(initial: int, signups: int, final: int) -> list[str]:
    if final != initial + signups:
        return [f"platform holds {final} users, expected {initial} + {signups} sign-ups"]
    return []


def check_replica_epochs(epochs: Sequence[int], signups: int) -> list[str]:
    """Every worker replica must have applied exactly one epoch per sign-up."""
    return [
        f"worker {i} replica is at epoch {epoch}, {signups} sign-ups were issued"
        for i, epoch in enumerate(epochs)
        if epoch != signups
    ]


def allowed_lengths(profile_length: int) -> set[int]:
    """Window lengths the crafting levels can produce for one profile.

    Either rounding direction of ``length * level`` is accepted (and at
    least one item is always kept), so the check does not depend on how
    the program rounds.
    """
    out = set()
    for level in WINDOW_LEVELS:
        raw = profile_length * level
        for n in (int(np.floor(raw + 1e-9)), int(np.ceil(raw - 1e-9))):
            out.add(min(profile_length, max(1, n)))
    return out


def check_injected_window(
    injected: Sequence[int], source_profile: Sequence[int], target_item: int
) -> str | None:
    """An injected profile is a contiguous, level-sized window holding the target."""
    injected = list(injected)
    source = list(source_profile)
    if target_item not in injected:
        return f"injected profile {injected} lacks target item {target_item}"
    n = len(injected)
    if n not in allowed_lengths(len(source)):
        return f"injected length {n} is not a crafting level of a {len(source)}-item profile"
    for start in range(len(source) - n + 1):
        if source[start : start + n] == injected:
            return None
    return f"injected profile {injected} is not a window of its source profile {source}"


def hit_ratio_at_k(scores: np.ndarray, candidates: Sequence[tuple[int, np.ndarray]], rows: dict, k: int) -> float:
    """HR@k of the first candidate of each list, ranked by ``scores``.

    ``candidates`` holds ``(user, items)`` with the target first;
    ``rows`` maps a user to its row of ``scores``.  The target hits when
    fewer than ``k`` negatives score strictly above it.
    """
    hits = 0
    for user, items in candidates:
        s = scores[rows[user], items]
        hits += int((s[1:] > s[0]).sum() < k)
    return hits / len(candidates)


def check_promotion(before: Sequence[float], after: Sequence[float]) -> list[str]:
    """The attack must raise the targets' mean HR above the no-attack mean."""
    if not before:
        return ["no target item was attacked"]
    mean_before, mean_after = float(np.mean(before)), float(np.mean(after))
    if not mean_after > mean_before:
        return [f"mean HR@20 after attack {mean_after:.4f} <= no-attack {mean_before:.4f}"]
    return []


def check_resets(user_counts: Sequence[int], base: int) -> list[str]:
    """Every episode reset must land on the pre-attack user count."""
    bad = [n for n in user_counts if n != base]
    if bad:
        return [f"{len(bad)} resets left {sorted(set(bad))} users, pre-attack count is {base}"]
    return []
