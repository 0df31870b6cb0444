"""Routing determinism, including the virtual-node hash-collision case.

``ConsistentHashRouter`` used to keep both colliding ring points and
locate keys with ``bisect_right``: a key whose hash equalled the collided
value then skipped *both* virtual nodes, so the owner of that ring
position depended on sort tie order versus bisection direction.  The
contract is now explicit — the ring holds strictly increasing hashes, a
collision is owned by the lowest shard index, and a key that lands
exactly on a ring point belongs to that point — pinned here with
collision-constructed rings.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.serving.sharded as sharded_mod
from repro.errors import ConfigurationError
from repro.serving import ConsistentHashRouter, ShardRouter


def _crafted_router(monkeypatch, vnode_hashes: dict[str, int], n_shards: int):
    """Build a router whose virtual-node hashes are chosen by the test.

    User/client keys keep the real hash unless listed, so the crafted
    collisions are surgical: only the ring layout is synthetic.
    """
    real_hash = sharded_mod._stable_hash

    def fake_hash(key):
        if isinstance(key, str) and key in vnode_hashes:
            return vnode_hashes[key]
        return real_hash(key)

    monkeypatch.setattr(sharded_mod, "_stable_hash", fake_hash)
    return ConsistentHashRouter(n_shards, n_replicas=1)


class TestCollisionTieBreak:
    def test_collided_point_owned_by_lowest_shard_index(self, monkeypatch):
        # Both shards' only virtual nodes collide at hash 100; shard 1
        # additionally owns a distinct point at 200.  Before the fix a key
        # hashing exactly to 100 bisected past both collided points and
        # landed on shard 1 — placement contradicted the sort tie order.
        router = _crafted_router(
            monkeypatch,
            {
                "shard-0#vnode-0": 100,
                "shard-1#vnode-0": 100,
                "shard-2#vnode-0": 200,
            },
            n_shards=3,
        )
        assert router._ring_hashes == [100, 200]  # strictly increasing
        assert router._ring_shards == [0, 2]  # collision → lowest index wins
        assert router._locate(100) == 0  # exactly on the collided point
        assert router._locate(99) == 0
        assert router._locate(101) == 2
        assert router._locate(200) == 2
        assert router._locate(201) == 0  # wraps around the ring

    def test_total_collision_ring_is_deterministic(self, monkeypatch):
        # Every virtual node collides: the whole ring is one point, owned
        # by shard 0, and every key routes there.
        router = _crafted_router(
            monkeypatch,
            {"shard-0#vnode-0": 7, "shard-1#vnode-0": 7},
            n_shards=2,
        )
        assert router._ring_hashes == [7]
        assert router._ring_shards == [0]
        for user in range(50):
            assert router.shard_for_user(user) == 0

    def test_key_on_ring_point_belongs_to_that_point(self, monkeypatch):
        router = _crafted_router(
            monkeypatch,
            {"shard-0#vnode-0": 10, "shard-1#vnode-0": 20},
            n_shards=2,
        )
        # "At or clockwise-after": hash 20 is shard 1's own point.
        assert router._locate(20) == 1
        assert router._locate(19) == 1
        assert router._locate(21) == 0  # wrap


class TestRingInvariants:
    def test_real_ring_hashes_strictly_increase(self):
        router = ConsistentHashRouter(n_shards=7, n_replicas=64)
        hashes = router._ring_hashes
        assert all(a < b for a, b in zip(hashes, hashes[1:]))
        assert len(hashes) == len(router._ring_shards)

    def test_routing_is_stable_across_instances(self):
        a = ConsistentHashRouter(n_shards=5)
        b = ConsistentHashRouter(n_shards=5)
        assert [a.shard_for_user(u) for u in range(200)] == [
            b.shard_for_user(u) for u in range(200)
        ]

    def test_adding_a_shard_moves_few_keys(self):
        before = ConsistentHashRouter(n_shards=4)
        after = ConsistentHashRouter(n_shards=5)
        keys = range(2000)
        moved = sum(before.shard_for_user(u) != after.shard_for_user(u) for u in keys)
        # Consistent hashing moves ~1/5 of the space; modulo would move ~4/5.
        assert moved / len(keys) < 0.45

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            ConsistentHashRouter(n_shards=2, n_replicas=0)
        with pytest.raises(ConfigurationError):
            ShardRouter(n_shards=0)


class TestVectorizedRoutingEquivalence:
    """``shards_for_users`` must be element-wise identical to the scalar
    path — the sharded coordinator routes whole request arrays through
    it, so any divergence silently re-homes users (wrong cache, wrong
    rate-limiter state) without failing a single scalar test."""

    # Extremes bracket the int64 domain the CRC byte-decomposition walks.
    EDGE_IDS = [0, 1, -1, 2**31 - 1, 2**31, 2**63 - 1, -(2**63)]

    def _ids(self):
        rng = np.random.default_rng(11)
        sampled = rng.integers(-(2**62), 2**62, size=512).tolist()
        return np.asarray(self.EDGE_IDS + sampled, dtype=np.int64)

    def test_crc_array_matches_zlib(self):
        users = self._ids()
        expected = [sharded_mod._stable_hash(int(u)) for u in users]
        got = sharded_mod._stable_hash_array(users)
        assert got.dtype == np.uint32
        assert got.tolist() == expected

    @pytest.mark.parametrize("n_shards", [1, 2, 4, 7, 13])
    def test_hash_router_batch_equals_scalar(self, n_shards):
        router = ShardRouter(n_shards)
        users = self._ids()
        expected = [router.shard_for_user(int(u)) for u in users]
        assert router.shards_for_users(users).tolist() == expected

    @pytest.mark.parametrize("n_shards", [1, 2, 4, 7, 13])
    def test_consistent_router_batch_equals_scalar(self, n_shards):
        router = ConsistentHashRouter(n_shards)
        users = self._ids()
        expected = [router.shard_for_user(int(u)) for u in users]
        assert router.shards_for_users(users).tolist() == expected

    def test_noncontiguous_input_accepted(self):
        # Strided views cannot be reinterpret-cast; the router must copy,
        # not crash, when handed a slice of a larger request array.
        router = ConsistentHashRouter(4)
        base = self._ids()
        view = base[::2]
        assert not view.flags["C_CONTIGUOUS"]
        expected = [router.shard_for_user(int(u)) for u in view]
        assert router.shards_for_users(view).tolist() == expected

    def test_empty_batch(self):
        for router in (ShardRouter(3), ConsistentHashRouter(3)):
            out = router.shards_for_users(np.empty(0, dtype=np.int64))
            assert out.shape == (0,)

    def test_ring_wrap_hits_first_point(self, monkeypatch):
        # A key hashing past the last ring point must wrap to the ring's
        # first point in the vectorized path exactly as _locate does.
        router = _crafted_router(
            monkeypatch,
            {"shard-0#vnode-0": 10, "shard-1#vnode-0": 20},
            n_shards=2,
        )
        wrapping = [u for u in range(5000) if sharded_mod._stable_hash(u) > 20][:8]
        assert wrapping, "expected some user hash above the crafted ring"
        users = np.asarray(wrapping, dtype=np.int64)
        assert router.shards_for_users(users).tolist() == [0] * len(wrapping)
