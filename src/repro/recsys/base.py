"""Recommender interface shared by every model in :mod:`repro.recsys`.

The contract splits cleanly along the black-box boundary of the paper:

* :meth:`Recommender.fit` and parameter access happen *before* the attack —
  the attacker never sees them;
* :meth:`Recommender.scores` / :meth:`Recommender.top_k` are the query
  surface exposed (indirectly, via
  :class:`~repro.recsys.blackbox.BlackBoxRecommender`) to the attacker;
* :meth:`Recommender.add_user` is the injection pathway — a new user with a
  fixed profile enters the system and the model's representations update
  inductively (no retraining), mirroring how PinSage-style production
  systems fold in new users.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.data.interactions import InteractionDataset
from repro.errors import NotFittedError
from repro.recsys.rows import RowStore

__all__ = ["Recommender"]


class Recommender:
    """Abstract top-k recommender over an :class:`InteractionDataset`."""

    #: Whether :meth:`slice_users` / :meth:`shared_item_state` are
    #: implemented: sliced replication partitions per-user state by shard
    #: and shares the item side through one shared-memory copy.  Models
    #: that leave this False are replicated in full per shard.
    supports_slicing: bool = False
    #: Whether the shared item-side state is unchanged by ``add_user``
    #: (MF's item factors, NeuralCF's fused tensor).  When False
    #: (ItemKNN's similarity matrix, popularity counts) the coordinator
    #: must republish the shared state after every injection.
    shared_static_under_injection: bool = True
    #: Whether :meth:`partial_fit` is implemented: incremental model
    #: updates from organic interactions (fold-in for MF/ItemKNN,
    #: mini-batch continuation for NeuralCF).  Models that leave this
    #: False (PinSage) are retrained from scratch or not at all — the
    #: online-learning layer checks the flag before building candidates.
    supports_partial_fit: bool = False

    def __init__(self) -> None:
        self._dataset: InteractionDataset | None = None

    # -- copies and pickles ---------------------------------------------------
    def __getstate__(self) -> dict:
        """State for ``copy.copy``, ``copy.deepcopy`` and ``pickle``.

        Each per-user :class:`~repro.recsys.rows.RowStore` is replaced by
        a store over its live rows only, so spare capacity never crosses
        the process boundary, and a copy and its original never append
        into a buffer the other can see.
        """
        return {
            name: value.share() if isinstance(value, RowStore) else value
            for name, value in self.__dict__.items()
        }

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)

    @property
    def dataset(self) -> InteractionDataset:
        """The (possibly polluted) interaction dataset the model serves."""
        if self._dataset is None:
            raise NotFittedError(f"{type(self).__name__} has not been fitted")
        return self._dataset

    @property
    def is_fitted(self) -> bool:
        return self._dataset is not None

    # -- training -----------------------------------------------------------
    def fit(self, dataset: InteractionDataset, **kwargs) -> "Recommender":
        """Train on ``dataset`` and return self."""
        raise NotImplementedError

    # -- scoring ------------------------------------------------------------
    def scores(self, user_id: int, item_ids: np.ndarray | None = None) -> np.ndarray:
        """Scores for ``item_ids`` (or all items) for one user."""
        raise NotImplementedError

    def scores_batch(
        self, user_ids: Sequence[int] | np.ndarray, item_ids: np.ndarray | None = None
    ) -> np.ndarray:
        """Score matrix of shape ``(len(user_ids), n_items_scored)``.

        The default stacks per-user :meth:`scores` calls; concrete models
        override it with a single vectorised matrix op so cohort queries
        (the serving layer, promotion evaluation) stop paying a per-user
        Python loop.  Implementations must return a fresh, writable array —
        :meth:`top_k_batch` masks seen items in place.
        """
        return np.stack([self.scores(int(u), item_ids) for u in user_ids])

    def top_k(self, user_id: int, k: int, exclude_seen: bool = True) -> np.ndarray:
        """The user's top-``k`` item ids, best first.

        ``exclude_seen`` removes items already in the user's profile, which
        is how deployed recommenders behave and what the paper's query
        feedback returns.
        """
        return self.top_k_batch([user_id], k, exclude_seen=exclude_seen)[0]

    def top_k_batch(
        self, user_ids: Sequence[int] | np.ndarray, k: int, exclude_seen: bool = True
    ) -> list[np.ndarray]:
        """Top-``k`` lists for a cohort of users in one vectorised pass.

        Shares every arithmetic step with :meth:`top_k` (which delegates
        here with a one-user batch), so cached/batched serving results are
        element-wise identical to per-user queries.
        """
        users = np.asarray(user_ids, dtype=np.int64)
        if users.size == 0:
            return []
        all_scores = self.scores_batch(users)
        if all_scores.dtype != np.float64:
            all_scores = all_scores.astype(np.float64)
        if exclude_seen:
            # Pre-built read-only profile arrays from the dataset: list
            # indexing only, no per-user tuple→ndarray conversion on the
            # serving hot path.
            profile_of = self.dataset.user_profile_array
            profiles = [profile_of(u) for u in users.tolist()]
            lengths = np.fromiter((p.size for p in profiles), dtype=np.int64, count=users.size)
            if int(lengths.sum()):
                rows_flat = np.repeat(np.arange(users.size), lengths)
                all_scores[rows_flat, np.concatenate(profiles)] = -np.inf
        k = min(k, all_scores.shape[1])
        part = np.argpartition(-all_scores, k - 1, axis=1)[:, :k]
        rows = np.arange(users.size)[:, None]
        order = np.argsort(-all_scores[rows, part], axis=1, kind="stable")
        top = part[rows, order]
        return list(top)

    # -- serving cache lifecycle --------------------------------------------
    def prewarm(self):
        """Rebuild lazy scoring caches now; return their replicable state.

        Some models defer derived scoring state to first use after an
        injection (ItemKNN's similarity matrix, NeuralCF's fused
        first-layer tensor).  In a replicated deployment that laziness
        multiplies: every shard worker would rebuild the identical cache
        on its first post-injection query.  ``prewarm`` performs the
        rebuild exactly once — the serving layer calls it post-injection
        before fan-out — and returns an opaque picklable payload that
        peer replicas install verbatim via :meth:`apply_prewarm`.

        Models with no lazy scoring state return ``None`` (the default),
        which :meth:`apply_prewarm` treats as a no-op — as do models
        whose caches were already warm when called (peers hold an
        identical copy then, so nothing is worth serializing).
        """
        return None

    def apply_prewarm(self, state) -> None:
        """Install pre-warmed scoring caches built by a peer replica.

        ``state`` is whatever the peer's :meth:`prewarm` returned;
        ``None`` means the model has nothing to install.
        """

    def prewarm_stats(self) -> dict[str, int]:
        """Build counters for the lazy caches (exactly-once test hooks)."""
        return {}

    # -- sliced replication (shared item state + per-shard user slices) ------
    def shared_item_state(self) -> dict[str, np.ndarray] | None:
        """The item-side arrays every shard can share one copy of.

        Returns a name → contiguous ndarray mapping (or ``None`` when the
        model does not support slicing).  The serving layer copies these
        into ``multiprocessing.shared_memory`` segments once; every
        worker replica attaches read-only views via
        :meth:`attach_shared_item_state` instead of holding a private
        copy.  Building the state must leave the model's own lazy caches
        warm (so the coordinator's exactly-once build accounting holds).
        """
        return None

    def slice_users(self, user_ids: Sequence[int] | np.ndarray) -> "Recommender":
        """A replica holding only ``user_ids``' per-user state, renumbered.

        The slice scores local users ``0..len(user_ids)-1`` (in the
        order given) identically to how the full model scores the
        corresponding global ids, *once* the shared item state is
        attached via :meth:`attach_shared_item_state` — the slice itself
        ships without any item-side arrays.
        """
        raise NotImplementedError(f"{type(self).__name__} does not support slicing")

    def attach_shared_item_state(self, views: dict[str, np.ndarray]) -> None:
        """Install shared-memory views of :meth:`shared_item_state` arrays."""
        raise NotImplementedError(f"{type(self).__name__} does not support slicing")

    def user_state(self, user_id: int):
        """Picklable per-user model state for replicating one injection.

        Whatever :meth:`append_sliced_user` on the owning shard's slice
        needs beyond the profile itself; ``None`` when the profile alone
        determines the user's state.
        """
        return None

    def append_sliced_user(self, profile: Sequence[int], user_state) -> int:
        """Fold one injected user into a sliced replica (owner shard only).

        Returns the *local* id assigned.  The default appends the profile
        to the sliced dataset; models carrying per-user parameters
        override it to install ``user_state`` alongside.
        """
        return self.dataset.add_user(profile)

    # -- online learning -----------------------------------------------------
    def partial_fit(self, interactions: Sequence[tuple[int, int]]) -> "Recommender":
        """Fold a batch of organic ``(user_id, item_id)`` interactions in.

        Each interaction extends an *existing* user's profile
        (:meth:`~repro.data.interactions.InteractionDataset.add_interaction`)
        and updates the model's representations incrementally — no user
        is ever added or removed, so routing in a sharded fleet is
        identical before and after (the rollout protocol relies on
        this).  What "incrementally" means is model-specific: MF
        re-derives the affected users' fold-in rows, ItemKNN updates
        co-occurrence counts, NeuralCF continues SGD on the extended
        dataset.  Models that cannot update incrementally leave
        :attr:`supports_partial_fit` False and inherit this
        ``NotImplementedError``.
        """
        raise NotImplementedError(f"{type(self).__name__} does not support partial_fit")

    # -- mutation -----------------------------------------------------------
    def add_user(self, profile: Sequence[int]) -> int:
        """Add a user with ``profile``; update representations inductively."""
        raise NotImplementedError

    def snapshot(self):
        """Opaque state capture used to reset between attack episodes."""
        raise NotImplementedError

    def restore(self, snapshot) -> None:
        """Restore a state captured by :meth:`snapshot`."""
        raise NotImplementedError
