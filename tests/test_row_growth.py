"""Growable per-user rows: fold-ins equal the whole-matrix re-stack.

Every model that folds a user in (MF and NeuralCF ``add_user`` /
``append_sliced_user``, PinSage ``add_user``) keeps its per-user matrix
in a :class:`~repro.recsys.rows.RowStore`.  The reference here is the
fold-in the store replaced, kept verbatim: ``np.vstack`` of the whole
matrix per injected user (and, for PinSage, a copying ``restore``).
These tests pin that the store is bitwise the same thing, only cheaper:

* arrays and served top-k lists equal the reference after every step of
  interleaved append / snapshot / restore sequences;
* the per-user array always holds exactly ``dataset.n_users`` rows;
* 10k appends reallocate the buffer O(log n) times;
* a pickle carries the live rows only, never the spare capacity;
* copies (shallow, deep, unpickled) never see each other's appends.
"""

from __future__ import annotations

import copy
import math
import pickle

import numpy as np
import pytest

from repro.data import InteractionDataset
from repro.recsys import MatrixFactorization, NeuralCF, PinSageRecommender
from repro.recsys.rows import GROWTH_FACTOR, RowStore
from repro.utils.rng import make_rng

N_USERS = 40
N_ITEMS = 30
K = 5


def _profiles(n, seed):
    rng = make_rng(seed)
    return [
        [int(v) for v in rng.choice(N_ITEMS, size=int(rng.integers(2, 7)), replace=False)]
        for _ in range(n)
    ]


# -- the reference: today's re-stacking fold-in, verbatim --------------------
class StackedMF(MatrixFactorization):
    def add_user(self, profile):
        user_id = self.dataset.add_user(profile)
        self.user_factors = np.vstack([self.user_factors, self.embed_profile(profile)])
        return user_id

    def append_sliced_user(self, profile, user_state):
        local_id = self.dataset.add_user(profile)
        self.user_factors = np.vstack([self.user_factors, user_state])
        return local_id


class StackedNeuralCF(NeuralCF):
    def add_user(self, profile):
        user_id = self.dataset.add_user(profile)
        q = self._net.item_emb.weight.data
        pooled = q[np.asarray(list(profile), dtype=np.int64)].mean(axis=0)
        self._pooled = np.vstack([self._pooled, pooled])
        return user_id

    def append_sliced_user(self, profile, user_state):
        local_id = self.dataset.add_user(profile)
        self._pooled = np.vstack([self._pooled, user_state])
        return local_id


class StackedPinSage(PinSageRecommender):
    def add_user(self, profile):
        user_id = self.dataset.add_user(profile)
        h = self.user_representation(profile)
        self._H = np.vstack([self._H, h])
        weight = 1.0 / np.sqrt(len(profile))
        affected = np.unique(np.asarray(list(profile), dtype=np.int64))
        self._item_h_sum[affected] += h * weight
        self._item_h_plain[affected] += h
        self._item_h_count[affected] += 1
        self._Z[affected] = self._item_representation_rows(affected)
        return user_id

    def restore(self, snapshot):
        self._dataset = snapshot.dataset.copy()
        self._H = self._H[: snapshot.n_users].copy()
        self._item_h_sum = snapshot.item_h_sum.copy()
        self._item_h_plain = snapshot.item_h_plain.copy()
        self._item_h_count = snapshot.item_h_count.copy()
        self._Z = self._item_representation_rows(np.arange(self.dataset.n_items))


_REFERENCE = {"mf": StackedMF, "neural_cf": StackedNeuralCF, "pinsage": StackedPinSage}
_ROWS = {"mf": "user_factors", "neural_cf": "_pooled", "pinsage": "_H"}
_STORE = {"mf": "_user_rows", "neural_cf": "_pooled_rows", "pinsage": "_h_rows"}


def _fit(kind):
    dataset = InteractionDataset(_profiles(N_USERS, seed=5), n_items=N_ITEMS)
    if kind == "mf":
        return MatrixFactorization(n_factors=4, n_epochs=2, seed=11).fit(dataset)
    if kind == "neural_cf":
        return NeuralCF(n_factors=4, n_epochs=2, seed=11).fit(dataset)
    return PinSageRecommender(n_factors=4, n_epochs=2, seed=11).fit(dataset)


@pytest.fixture(scope="module")
def fitted():
    return {kind: _fit(kind) for kind in _ROWS}


def _pair(fitted, kind):
    """The row-store model and its re-stacking twin, from one fitted state."""
    subject = copy.deepcopy(fitted[kind])
    reference = copy.deepcopy(fitted[kind])
    reference.__class__ = _REFERENCE[kind]
    return subject, reference


def _rows(model, kind):
    return getattr(model, _ROWS[kind])


def _store(model, kind) -> RowStore:
    return getattr(model, _STORE[kind])


def _assert_same(subject, reference, kind):
    rows, expected = _rows(subject, kind), _rows(reference, kind)
    assert rows.shape[0] == subject.dataset.n_users
    assert rows.dtype == expected.dtype
    np.testing.assert_array_equal(rows, expected)
    users = np.arange(subject.dataset.n_users)
    for a, b in zip(subject.top_k_batch(users, K), reference.top_k_batch(users, K)):
        np.testing.assert_array_equal(a, b)


class _Sliced:
    """Drives ``append_sliced_user`` on a slice like a replica would."""

    def __init__(self, full, ids):
        self.full = full
        self.model = full.slice_users(ids)
        self.views = full.shared_item_state()
        self.model.attach_shared_item_state(self.views)
        self.next_source = 0

    def append(self, profile):
        # The owner shard gets the coordinator's exact per-user row.
        state = self.full.user_state(self.next_source % self.full.dataset.n_users)
        self.next_source += 1
        return self.model.append_sliced_user(profile, state)

    def restore(self, snapshot):
        # A restored replica re-attaches the shared item side (resync).
        self.model.restore(snapshot)
        self.model.attach_shared_item_state(self.views)


# append, snapshot, append, restore, append — twice, crossing growths.
_OPS = [
    ("append", 5), ("snapshot", 0), ("append", 7), ("restore", 0), ("append", 3),
    ("append", 60), ("snapshot", 0), ("append", 2), ("restore", 0), ("append", 90),
]


def _run_ops(subject_step, reference_step, check):
    profiles = iter(_profiles(400, seed=9))
    snapshots = None
    for op, count in _OPS:
        if op == "append":
            for _ in range(count):
                profile = next(profiles)
                assert subject_step("append", profile) == reference_step("append", profile)
                check()
        elif op == "snapshot":
            snapshots = (subject_step("snapshot", None), reference_step("snapshot", None))
        else:
            subject_step("restore", snapshots[0])
            reference_step("restore", snapshots[1])
            check()


@pytest.mark.parametrize("kind", ["mf", "neural_cf", "pinsage"])
def test_add_user_matches_the_restack(fitted, kind):
    subject, reference = _pair(fitted, kind)

    def driver(model):
        def step(op, arg):
            if op == "append":
                return model.add_user(arg)
            if op == "snapshot":
                return model.snapshot()
            return model.restore(arg)

        return step

    _run_ops(driver(subject), driver(reference), lambda: _assert_same(subject, reference, kind))
    assert _store(subject, kind).n_reallocs >= 1  # the sequence did cross a growth


@pytest.mark.parametrize("kind", ["mf", "neural_cf"])
def test_append_sliced_user_matches_the_restack(fitted, kind):
    subject_full, reference_full = _pair(fitted, kind)
    ids = np.arange(0, N_USERS, 2)
    subject, reference = _Sliced(subject_full, ids), _Sliced(reference_full, ids)
    assert type(reference.model) is _REFERENCE[kind]

    def driver(sliced):
        def step(op, arg):
            if op == "append":
                return sliced.append(arg)
            if op == "snapshot":
                return sliced.model.snapshot()
            return sliced.restore(arg)

        return step

    _run_ops(
        driver(subject),
        driver(reference),
        lambda: _assert_same(subject.model, reference.model, kind),
    )


@pytest.mark.parametrize(
    "kind, sliced",
    [("mf", False), ("neural_cf", False), ("pinsage", False), ("mf", True), ("neural_cf", True)],
)
def test_ten_thousand_appends_reallocate_logarithmically(fitted, kind, sliced):
    model = copy.deepcopy(fitted[kind])
    append = model.add_user
    if sliced:
        replica = _Sliced(model, np.arange(0, N_USERS, 4))
        model, append = replica.model, replica.append
    n0 = model.dataset.n_users
    for profile in _profiles(10_000, seed=13):
        append(profile)
    store = _store(model, kind)
    n = model.dataset.n_users
    assert _rows(model, kind).shape[0] == n == len(store) == n0 + 10_000
    assert store.n_reallocs <= math.ceil(math.log(n / n0, GROWTH_FACTOR))
    assert store.capacity <= GROWTH_FACTOR * n


@pytest.mark.parametrize("kind", ["mf", "neural_cf", "pinsage"])
def test_pickle_carries_only_the_live_rows(fitted, kind):
    model = copy.deepcopy(fitted[kind])
    for profile in _profiles(300, seed=15):
        model.add_user(profile)
    store = _store(model, kind)
    assert store.capacity > len(store)  # spare capacity exists to leak
    exact = copy.deepcopy(model)
    setattr(exact, _ROWS[kind], np.array(_rows(model, kind)))  # exact-size rebuild
    assert _store(exact, kind).capacity == len(store)
    spare_bytes = (store.capacity - len(store)) * _rows(model, kind)[0].nbytes
    assert spare_bytes > 64
    assert len(pickle.dumps(model)) <= len(pickle.dumps(exact)) + 64


def _shallow(model):
    clone = copy.copy(model)
    clone._dataset = model.dataset.copy()  # as slice_users does: own user ids
    return clone


_COPIERS = {
    "copy": _shallow,
    "deepcopy": copy.deepcopy,
    "pickle": lambda model: pickle.loads(pickle.dumps(model)),
}


@pytest.mark.parametrize("copier", sorted(_COPIERS))
@pytest.mark.parametrize("kind", ["mf", "neural_cf", "pinsage"])
def test_copies_never_see_each_others_rows(fitted, kind, copier):
    model = copy.deepcopy(fitted[kind])
    profiles = iter(_profiles(200, seed=17))
    for _ in range(5):
        model.add_user(next(profiles))
    snapshot = model.snapshot()
    at_snapshot = _rows(model, kind).copy()
    for _ in range(3):
        model.add_user(next(profiles))
    assert _store(model, kind).capacity > len(_store(model, kind))  # headroom to fight over
    at_copy = _rows(model, kind).copy()
    clone = _COPIERS[copier](model)

    def fold(target, count):
        """Append ``count`` users; return the row each append added."""
        rows = []
        for _ in range(count):
            target.add_user(next(profiles))
            rows.append(_rows(target, kind)[-1].copy())
        return rows

    # The original truncates (PinSage restore) and appends under the
    # clone's view of its buffer...
    model.restore(snapshot)
    model_rows = fold(model, 6)
    np.testing.assert_array_equal(_rows(clone, kind), at_copy)
    # ...and a second copy truncates and appends under the original's.
    at_second = _rows(model, kind).copy()
    second = _COPIERS[copier](model)
    second.restore(snapshot)
    second_rows = fold(second, 3)
    np.testing.assert_array_equal(_rows(model, kind), at_second)
    # Then every side appends into headroom it may share with another.
    clone_rows = fold(clone, 4)
    model_rows += fold(model, 4)

    assert not any(np.array_equal(a, b) for a in clone_rows for b in model_rows)
    np.testing.assert_array_equal(_rows(clone, kind), np.vstack([at_copy, *clone_rows]))
    np.testing.assert_array_equal(_rows(model, kind), np.vstack([at_snapshot, *model_rows]))
    np.testing.assert_array_equal(_rows(second, kind), np.vstack([at_snapshot, *second_rows]))
    for target in (model, clone, second):
        assert _rows(target, kind).shape[0] == target.dataset.n_users


class TestRowStore:
    def test_append_equals_vstack_with_promotion(self):
        base = np.arange(6, dtype=np.float32).reshape(3, 2)
        store, expected = RowStore(base.copy()), base.copy()
        for row in (np.array([1.5, 2.5], dtype=np.float32), np.array([1e-9, 3.0]), [7, 8]):
            store.append(row)
            expected = np.vstack([expected, row])
            assert store.rows.dtype == expected.dtype
            np.testing.assert_array_equal(store.rows, expected)

    def test_adopted_array_is_never_written_past_truncation(self):
        base = np.arange(8.0).reshape(4, 2)
        store = RowStore(base)
        store.truncate(2)
        store.append([-1.0, -1.0])
        np.testing.assert_array_equal(base, np.arange(8.0).reshape(4, 2))
        np.testing.assert_array_equal(store.rows, [[0.0, 1.0], [2.0, 3.0], [-1.0, -1.0]])

    def test_truncate_then_append_reuses_an_owned_buffer(self):
        store = RowStore(np.zeros((2, 3)))
        for i in range(6):
            store.append(np.full(3, float(i)))
        reallocs = store.n_reallocs
        store.truncate(2)
        store.append(np.ones(3))
        assert store.n_reallocs == reallocs and len(store) == 3

    def test_pickle_and_deepcopy_drop_the_headroom(self):
        store = RowStore(np.zeros((2, 3)))
        for i in range(3):
            store.append(np.full(3, float(i)))
        assert store.capacity == 8 and len(store) == 5
        exact = RowStore(store.rows.copy())
        assert len(pickle.dumps(store)) == len(pickle.dumps(exact))
        for clone in (copy.deepcopy(store), pickle.loads(pickle.dumps(store))):
            assert clone.capacity == len(clone) == 5
            np.testing.assert_array_equal(clone.rows, store.rows)

    def test_truncate_rejects_growing(self):
        store = RowStore(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            store.truncate(3)
