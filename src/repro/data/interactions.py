"""Interaction datasets with sequential user profiles.

The paper's problem statement (Section 3) works with three views of the
same data, all provided by :class:`InteractionDataset`:

* the interaction matrix ``Y`` (here a scipy CSR matrix),
* *user profiles* ``P_u`` — the sequence of items a user interacted with,
  ordered by interaction time (order matters: profile crafting clips a
  window *around the target item* in this sequence), and
* *item profiles* ``P_v`` — the set of users who interacted with an item
  (this is the aggregation neighbourhood the PinSage target model uses,
  and the pathway through which injected users poison an item).

The dataset is mutable in exactly one way: :meth:`add_user` appends a new
user with a given profile, which is how the attacker's injections and the
pretend users enter the target domain.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np
from scipy import sparse

from repro.errors import DataError

__all__ = ["InteractionDataset"]


class InteractionDataset:
    """User-item interactions for one domain.

    Parameters
    ----------
    profiles:
        One item-id sequence per user, already in interaction order.
    n_items:
        Size of the item catalog (item ids are ``0..n_items-1``).
    name:
        Human-readable label used in logs and reports.
    """

    def __init__(self, profiles: Sequence[Sequence[int]], n_items: int, name: str = "") -> None:
        if n_items <= 0:
            raise DataError("n_items must be positive")
        self.name = name
        self._n_items = int(n_items)
        self._profiles: list[tuple[int, ...]] = []
        self._profile_sets: list[frozenset[int]] = []
        self._profile_arrays: list[np.ndarray] = []
        self._item_users: list[list[int]] = [[] for _ in range(self._n_items)]
        for profile in profiles:
            self._append_profile(profile)

    # -- construction ----------------------------------------------------------
    @classmethod
    def from_arrays(
        cls,
        user_ids: np.ndarray,
        item_ids: np.ndarray,
        timestamps: np.ndarray | None = None,
        n_users: int | None = None,
        n_items: int | None = None,
        name: str = "",
    ) -> "InteractionDataset":
        """Build from parallel arrays, ordering each profile by timestamp."""
        user_ids = np.asarray(user_ids, dtype=np.int64)
        item_ids = np.asarray(item_ids, dtype=np.int64)
        if user_ids.shape != item_ids.shape:
            raise DataError("user_ids and item_ids must have the same length")
        if timestamps is None:
            timestamps = np.arange(user_ids.size)
        timestamps = np.asarray(timestamps)
        if timestamps.shape != user_ids.shape:
            raise DataError("timestamps must parallel user_ids")
        n_users = int(user_ids.max()) + 1 if n_users is None else n_users
        n_items = int(item_ids.max()) + 1 if n_items is None else n_items
        order = np.lexsort((timestamps, user_ids))
        profiles: list[list[int]] = [[] for _ in range(n_users)]
        for idx in order:
            profiles[user_ids[idx]].append(int(item_ids[idx]))
        return cls(profiles, n_items=n_items, name=name)

    def _append_profile(self, profile: Iterable[int]) -> int:
        items = tuple(int(v) for v in profile)
        if len(set(items)) != len(items):
            raise DataError("profiles must not repeat items")
        for v in items:
            if not 0 <= v < self._n_items:
                raise DataError(f"item id {v} outside catalog of size {self._n_items}")
        user_id = len(self._profiles)
        self._profiles.append(items)
        self._profile_sets.append(frozenset(items))
        array = np.asarray(items, dtype=np.int64)
        array.setflags(write=False)
        self._profile_arrays.append(array)
        for v in items:
            self._item_users[v].append(user_id)
        return user_id

    # -- sizes ------------------------------------------------------------------
    @property
    def n_users(self) -> int:
        """Number of users currently in the dataset (including injected ones)."""
        return len(self._profiles)

    @property
    def n_items(self) -> int:
        """Catalog size."""
        return self._n_items

    @property
    def n_interactions(self) -> int:
        """Total number of (user, item) interactions."""
        return sum(len(p) for p in self._profiles)

    # -- profile access -----------------------------------------------------------
    def user_profile(self, user_id: int) -> tuple[int, ...]:
        """The ordered item sequence ``P_u`` for ``user_id``."""
        return self._profiles[user_id]

    def user_profile_set(self, user_id: int) -> frozenset[int]:
        """Set view of a user's profile for O(1) membership tests."""
        return self._profile_sets[user_id]

    def user_profile_array(self, user_id: int) -> np.ndarray:
        """Read-only ``int64`` array view of ``P_u``.

        Built once per profile at append time so the serving hot path
        (``top_k_batch``'s seen-item masking) never pays a per-user
        tuple→ndarray conversion per request.
        """
        return self._profile_arrays[user_id]

    def item_users(self, item_id: int) -> tuple[int, ...]:
        """The item profile ``P_v``: users who interacted with ``item_id``."""
        return tuple(self._item_users[item_id])

    def has(self, user_id: int, item_id: int) -> bool:
        """Whether ``user_id`` interacted with ``item_id``."""
        return item_id in self._profile_sets[user_id]

    def iter_profiles(self) -> Iterable[tuple[int, tuple[int, ...]]]:
        """Yield ``(user_id, profile)`` for every user."""
        return enumerate(self._profiles)

    def users_with_item(self, item_id: int) -> np.ndarray:
        """Array of user ids whose profile contains ``item_id``."""
        return np.asarray(self._item_users[item_id], dtype=np.int64)

    # -- statistics -----------------------------------------------------------------
    def popularity(self) -> np.ndarray:
        """Interaction count per item (shape ``(n_items,)``)."""
        counts = np.zeros(self._n_items, dtype=np.int64)
        for item_id, users in enumerate(self._item_users):
            counts[item_id] = len(users)
        return counts

    def profile_lengths(self) -> np.ndarray:
        """Profile length per user."""
        return np.asarray([len(p) for p in self._profiles], dtype=np.int64)

    def describe(self) -> dict[str, float]:
        """Summary statistics used by the Table 1 report."""
        lengths = self.profile_lengths()
        return {
            "n_users": self.n_users,
            "n_items": self.n_items,
            "n_interactions": self.n_interactions,
            "density": self.n_interactions / (self.n_users * self.n_items),
            "mean_profile_length": float(lengths.mean()) if lengths.size else 0.0,
        }

    # -- mutation ----------------------------------------------------------------------
    def add_user(self, profile: Sequence[int]) -> int:
        """Append a new user with ``profile``; returns the new user id.

        This is the injection primitive: copied cross-domain profiles and
        the attacker's pretend users both enter the target domain here.
        """
        if len(profile) == 0:
            raise DataError("cannot add a user with an empty profile")
        return self._append_profile(profile)

    def add_interaction(self, user_id: int, item_id: int) -> None:
        """Append one organic interaction to an *existing* user's profile.

        This is the online-learning primitive: organic traffic ticks
        extend profiles in place (interaction order preserved — the new
        item lands at the end of ``P_u``), and incremental retraining
        (:meth:`~repro.recsys.base.Recommender.partial_fit`) folds the
        new co-occurrences into the model.  Profiles never repeat items,
        so re-interacting with a seen item is a :class:`DataError` —
        callers sampling organic traffic screen with :meth:`has` first.

        The profile tuple and its read-only array view are *replaced*,
        never mutated: copies made by :meth:`copy` share those immutable
        objects, so extending a profile here can never reach into a
        snapshot taken before the interaction.
        """
        item = int(item_id)
        user = int(user_id)
        if not 0 <= user < len(self._profiles):
            raise DataError(f"user id {user} outside dataset of {len(self._profiles)} users")
        if not 0 <= item < self._n_items:
            raise DataError(f"item id {item} outside catalog of size {self._n_items}")
        if item in self._profile_sets[user]:
            raise DataError(f"user {user} already interacted with item {item}")
        items = self._profiles[user] + (item,)
        self._profiles[user] = items
        self._profile_sets[user] = frozenset(items)
        array = np.asarray(items, dtype=np.int64)
        array.setflags(write=False)
        self._profile_arrays[user] = array
        self._item_users[item].append(user)

    def copy(self) -> "InteractionDataset":
        """Deep copy, used to reset the attack environment between episodes."""
        clone = InteractionDataset([], n_items=self._n_items, name=self.name)
        clone._profiles = list(self._profiles)
        clone._profile_sets = list(self._profile_sets)
        # Profile arrays are immutable (read-only flags), so sharing the
        # objects across copies is safe and keeps copies cheap.
        clone._profile_arrays = list(self._profile_arrays)
        clone._item_users = [list(users) for users in self._item_users]
        return clone

    def slice_users(self, user_ids: Sequence[int] | np.ndarray) -> "InteractionDataset":
        """A dataset holding only ``user_ids``, renumbered to ``0..m-1``.

        The slice keeps the full catalog (item ids are global — scores
        and top-k lists stay directly comparable) but holds only the
        selected users' profiles, renumbered *in the order given*: a
        shard replica built from a slice addresses its users by local id
        while the coordinator keeps the global numbering.  Item profiles
        (``item_users``) are rebuilt in local terms.
        """
        clone = InteractionDataset([], n_items=self._n_items, name=self.name)
        for local_id, user_id in enumerate(int(u) for u in user_ids):
            items = self._profiles[user_id]
            clone._profiles.append(items)
            clone._profile_sets.append(self._profile_sets[user_id])
            clone._profile_arrays.append(self._profile_arrays[user_id])
            for v in items:
                clone._item_users[v].append(local_id)
        return clone

    # -- serialization -----------------------------------------------------------------
    def __getstate__(self) -> dict:
        """Pickle only the ordered profiles (plus sizes and the name).

        Every derived structure — profile sets, read-only profile
        arrays, per-item user lists — is a deterministic function of
        ``_profiles`` and is rebuilt on load.  This keeps replication
        payloads (model installs and re-installs, sliced shards)
        proportional to users + interactions instead of carrying
        ``n_items`` empty per-item lists for sparse slices of a large
        catalog.
        """
        return {
            "name": self.name,
            "_n_items": self._n_items,
            "_profiles": self._profiles,
        }

    def __setstate__(self, state: dict) -> None:
        self.name = state["name"]
        self._n_items = state["_n_items"]
        self._profiles = state["_profiles"]
        self._profile_sets = [frozenset(items) for items in self._profiles]
        arrays = []
        for items in self._profiles:
            array = np.asarray(items, dtype=np.int64)
            array.setflags(write=False)
            arrays.append(array)
        self._profile_arrays = arrays
        self._item_users = [[] for _ in range(self._n_items)]
        for user_id, items in enumerate(self._profiles):
            for v in items:
                self._item_users[v].append(user_id)

    # -- matrix view ---------------------------------------------------------------------
    def to_csr(self) -> sparse.csr_matrix:
        """Binary interaction matrix ``Y`` as ``csr_matrix`` (users x items)."""
        rows, cols = [], []
        for user_id, profile in enumerate(self._profiles):
            rows.extend([user_id] * len(profile))
            cols.extend(profile)
        data = np.ones(len(rows), dtype=np.float64)
        return sparse.csr_matrix(
            (data, (rows, cols)), shape=(self.n_users, self._n_items)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = f" {self.name!r}" if self.name else ""
        return (
            f"InteractionDataset({label} users={self.n_users} items={self.n_items} "
            f"interactions={self.n_interactions})"
        )
