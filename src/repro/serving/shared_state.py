"""Shared-memory segments for the sliced replication protocol.

Sliced replication (see :mod:`repro.serving.replica`) splits a model in
two: per-user state is partitioned by shard, and the item side —
MF's item factors, NeuralCF's fused scoring tensor, ItemKNN's similarity
matrix, the popularity count vector — is held in
``multiprocessing.shared_memory`` segments that every worker process maps
read-only.  N shards therefore pay for **one** copy of the item state
instead of N, which is what makes per-shard RSS sublinear in catalog and
user count.

Lifecycle contract (pinned by ``tests/test_shared_state.py``):

* the **coordinator** owns the segments: :class:`SharedItemStore` creates
  them, republish-in-place via :meth:`SharedItemStore.publish` (safe
  because publishes happen under the service's write lock with all reads
  drained), and unlinks them exactly once in
  :meth:`SharedItemStore.close` — no ``/dev/shm`` segment survives
  engine close;
* **workers** attach by name (:func:`attach`) and never unlink.  The
  attach deliberately bypasses ``resource_tracker`` registration —
  the tracker would otherwise try to destroy the coordinator's segments
  when the first worker exits (and spam "leaked shared_memory" warnings
  for segments that are owned, tracked, and unlinked by the
  coordinator).

Arrays keep their **native dtype** (float64 for every current model):
the engine-conformance suite requires bit-identical scores between
engines, and the memory win comes from sharing one copy across N shards,
not from narrowing the element type.
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "SegmentSpec",
    "SharedStateHandle",
    "SharedItemStore",
    "AttachedSharedState",
    "attach",
    "segment_exists",
    "live_owned_segments",
]


#: Names of segments created (and not yet unlinked) by this process.
#: The leak-check tests and the memory bench read this to assert that
#: closing a service destroys everything it created.
_OWNED_SEGMENTS: set[str] = set()


@dataclass(frozen=True)
class SegmentSpec:
    """Shape/dtype/name of one shared array (picklable, worker-bound)."""

    name: str
    shape: tuple[int, ...]
    dtype: str


@dataclass(frozen=True)
class SharedStateHandle:
    """Picklable description of a published set of shared arrays.

    Ships to workers instead of the arrays themselves: attaching maps
    the coordinator's segments zero-copy rather than deserializing
    private copies.
    """

    segments: tuple[tuple[str, SegmentSpec], ...]  # (array key, spec)

    @property
    def keys(self) -> tuple[str, ...]:
        return tuple(key for key, _ in self.segments)

    def nbytes(self) -> int:
        """Total shared payload size (reporting helper)."""
        return sum(
            int(np.prod(spec.shape, dtype=np.int64)) * np.dtype(spec.dtype).itemsize
            for _, spec in self.segments
        )


def _suppress_tracker_registration():
    """Context values for a registration-free ``SharedMemory`` attach.

    Python 3.11's ``SharedMemory.__init__`` registers the segment with
    ``resource_tracker`` unconditionally, even on attach.  A worker's
    tracker must not adopt segments the coordinator owns — on worker
    exit the tracker would unlink them under the coordinator, and (with
    forked workers sharing the parent's tracker process) double-count
    registrations into noisy "leaked shared_memory" stderr warnings.
    """
    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    return original


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    original = _suppress_tracker_registration()
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


def segment_exists(name: str) -> bool:
    """Whether a shared-memory segment with ``name`` still exists.

    Used by the leak-check tests: after a service closes, every segment
    it owned must be gone.
    """
    try:
        probe = _attach_untracked(name)
    except FileNotFoundError:
        return False
    probe.close()
    return True


def live_owned_segments() -> tuple[str, ...]:
    """Segments this process created and has not yet unlinked."""
    return tuple(sorted(_OWNED_SEGMENTS))


class SharedItemStore:
    """Coordinator-side owner of one model's shared item-state segments.

    Parameters
    ----------
    arrays:
        Name → ndarray mapping from
        :meth:`~repro.recsys.base.Recommender.shared_item_state`.  Each
        array is copied once into a fresh shared-memory segment.
    """

    def __init__(self, arrays: dict[str, np.ndarray]) -> None:
        if not arrays:
            raise ConfigurationError("SharedItemStore needs at least one array")
        self._segments: dict[str, shared_memory.SharedMemory] = {}
        self._views: dict[str, np.ndarray] = {}
        self._specs: dict[str, SegmentSpec] = {}
        self._closed = False
        try:
            for key, array in arrays.items():
                array = np.ascontiguousarray(array)
                segment = shared_memory.SharedMemory(
                    create=True, size=max(1, array.nbytes)
                )
                _OWNED_SEGMENTS.add(segment.name)
                view = np.ndarray(array.shape, dtype=array.dtype, buffer=segment.buf)
                view[...] = array
                self._segments[key] = segment
                self._views[key] = view
                self._specs[key] = SegmentSpec(
                    name=segment.name, shape=tuple(array.shape), dtype=array.dtype.str
                )
        except Exception:
            self.close()
            raise

    def handle(self) -> SharedStateHandle:
        if self._closed:
            raise ConfigurationError("SharedItemStore is closed")
        return SharedStateHandle(
            segments=tuple((key, self._specs[key]) for key in self._specs)
        )

    def publish(self, arrays: dict[str, np.ndarray]) -> None:
        """Overwrite segment contents in place (same shapes, same dtypes).

        Callers hold the service's model write lock with every reader
        drained, so no worker is mid-GEMM against the segment while it
        is rewritten; shapes are item-side only and the catalog never
        grows, so the segment size is always right.
        """
        if self._closed:
            raise ConfigurationError("SharedItemStore is closed")
        for key, array in arrays.items():
            view = self._views.get(key)
            if view is None:
                raise ConfigurationError(f"unknown shared array {key!r}")
            if array.shape != view.shape:
                raise ConfigurationError(
                    f"shared array {key!r} changed shape {view.shape} -> {array.shape}"
                )
            np.copyto(view, array)

    def close(self) -> None:
        """Release and unlink every segment (idempotent).

        The numpy views are dropped first — ``SharedMemory.close``
        refuses while exported buffers exist — then each segment is
        closed and unlinked, removing it from ``/dev/shm``.
        """
        if self._closed:
            return
        self._closed = True
        self._views.clear()
        for segment in self._segments.values():
            segment.close()
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
            _OWNED_SEGMENTS.discard(segment.name)
        self._segments.clear()

    def __del__(self) -> None:  # pragma: no cover - GC backstop
        try:
            self.close()
        except Exception:
            pass


class AttachedSharedState:
    """Worker-side read-only mapping of a :class:`SharedStateHandle`.

    ``views`` is the name → ndarray mapping handed to
    :meth:`~repro.recsys.base.Recommender.attach_shared_item_state`;
    ``handle`` is the handle it maps.  The worker keeps the attachment
    for its whole lifetime: a re-install naming the same handle attaches
    the same views to the fresh slice.  Segments are unlinked only by
    the owning coordinator.
    """

    def __init__(self, handle: SharedStateHandle) -> None:
        self.handle = handle
        self._segments: list[shared_memory.SharedMemory] = []
        self.views: dict[str, np.ndarray] = {}
        for key, spec in handle.segments:
            segment = _attach_untracked(spec.name)
            self._segments.append(segment)
            view = np.ndarray(spec.shape, dtype=np.dtype(spec.dtype), buffer=segment.buf)
            view.setflags(write=False)
            self.views[key] = view


def attach(handle: SharedStateHandle) -> AttachedSharedState:
    """Map every segment in ``handle`` read-only (worker side)."""
    return AttachedSharedState(handle)
