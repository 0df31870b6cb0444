"""Growable per-user row storage: amortized O(1) fold-ins.

Every copied profile, pretend user and organic sign-up reaches a model
through ``add_user``, which folds in exactly one per-user row (MF's user
factors, NeuralCF's pooled profiles, PinSage's user representations).
Re-stacking the whole matrix per fold-in made one sign-up cost
O(users); :class:`RowStore` keeps the rows in a capacity buffer instead:

* :attr:`RowStore.rows` is a view of exactly the live rows, so readers
  index it like the plain matrix it replaces;
* :meth:`RowStore.append` writes into headroom and doubles the buffer
  when it is full.  The new buffer comes from ``np.empty`` and only the
  live rows are copied in, so headroom is never touched and never
  becomes resident; the old buffer is dropped at once;
* :meth:`RowStore.truncate` drops trailing rows without copying (the
  episode restore of an append-only cache);
* :meth:`RowStore.share` hands a copy of the owning object a store over
  the same live rows, and pickling carries the live rows only, so spare
  capacity never crosses a process boundary.

**Write rule.**  ``append`` only writes at or above the *exposed* mark:
rows that an adopted array, a view shared with a copy, or an earlier
owner can still see are never overwritten, however the store is
truncated.  A store that must write below the mark first moves its live
rows to a buffer of its own.  In-place writes through :attr:`rows`
(training updates, ``partial_fit``) are the caller's own and behave
exactly as on a plain array.
"""

from __future__ import annotations

from typing import Any

import numpy as np

__all__ = ["GROWTH_FACTOR", "RowStore", "rows_property"]

#: Capacity multiplier applied when a full buffer takes one more row.
GROWTH_FACTOR = 2


class RowStore:
    """Rows along axis 0 in a geometrically growing buffer."""

    __slots__ = ("_buf", "_n", "_exposed", "n_reallocs")

    def __init__(self, rows: Any) -> None:
        rows = np.asarray(rows)
        self._buf = rows
        self._n = rows.shape[0]
        # An adopted array belongs to its caller: never write below its end.
        self._exposed = self._n
        #: Times the backing buffer was replaced (growth, dtype promotion,
        #: or a write that would have reached exposed rows).
        self.n_reallocs = 0

    def __reduce__(self):
        # Pickle and deepcopy see the live rows only, never the headroom.
        return (RowStore, (self.rows,))

    def __len__(self) -> int:
        return self._n

    @property
    def rows(self) -> np.ndarray:
        """A view of exactly the live rows."""
        return self._buf[: self._n]

    @property
    def capacity(self) -> int:
        """Rows the backing buffer holds before it must grow."""
        return self._buf.shape[0]

    def append(self, row: Any) -> int:
        """Add one row at the end; returns its index.

        The result equals ``np.vstack([rows, row])`` bit for bit,
        including its dtype promotion.
        """
        row = np.asarray(row)
        n = self._n
        dtype = self._buf.dtype
        if row.dtype != dtype:
            dtype = np.promote_types(dtype, row.dtype)
        if n == self._buf.shape[0] or n < self._exposed or dtype != self._buf.dtype:
            self._reallocate(max(GROWTH_FACTOR * n, n + 1), dtype)
        self._buf[n] = row
        self._n = n + 1
        return n

    def truncate(self, n_rows: int) -> None:
        """Keep the first ``n_rows`` rows; the capacity is kept for reuse."""
        if not 0 <= n_rows <= self._n:
            raise ValueError(f"cannot truncate {self._n} rows to {n_rows}")
        self._n = int(n_rows)

    def share(self) -> "RowStore":
        """A store over the same live rows, for a copy of the owner.

        Neither store will ever append into rows the other can see: the
        new store adopts a view (so its first append moves to a buffer
        of its own) and this store marks its live rows as exposed.
        """
        self._exposed = max(self._exposed, self._n)
        return RowStore(self.rows)

    def _reallocate(self, capacity: int, dtype: np.dtype) -> None:
        buf = np.empty((capacity,) + self._buf.shape[1:], dtype=dtype)
        buf[: self._n] = self._buf[: self._n]
        self._buf = buf
        self._exposed = 0
        self.n_reallocs += 1


def rows_property(store_attr: str) -> property:
    """An ndarray attribute backed by the :class:`RowStore` in ``store_attr``.

    Reading returns the store's live rows (``None`` while unset);
    assigning an array adopts it as a new store and assigning ``None``
    clears it, so code that replaces the whole matrix (``fit``,
    ``restore``, ``slice_users``) keeps its plain assignment.
    """

    def get_rows(self) -> np.ndarray | None:
        store = getattr(self, store_attr)
        return None if store is None else store.rows

    def set_rows(self, value: Any) -> None:
        setattr(self, store_attr, None if value is None else RowStore(value))

    return property(get_rows, set_rows)
