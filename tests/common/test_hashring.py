"""Properties of the rendezvous hash (repro.common.hashring)."""

from __future__ import annotations

import pytest

from repro.common import hashring
from repro.common.hashring import HashRing


NODES = [f"node-{i}" for i in range(8)]
KEYS = [("table", f"seg-{i:04d}") for i in range(2_000)]


def _assignments(nodes, keys=KEYS):
    counts = {n: 0 for n in nodes}
    for key in keys:
        counts[hashring.pick(key, nodes)] += 1
    return counts


class TestBalance:
    def test_unweighted_balance_within_bound(self):
        counts = _assignments(NODES)
        expected = len(KEYS) / len(NODES)
        for node, count in counts.items():
            # HRW over blake2b spreads keys near-uniformly; 35% slack
            # over 2000 keys catches a broken transform without flaking.
            assert abs(count - expected) <= 0.35 * expected, (node, count)

    def test_empty_nodes_raise(self):
        with pytest.raises(ValueError):
            hashring.pick("k", [])


class TestMinimalMovement:
    def test_add_node_moves_only_its_share(self):
        before = {key: hashring.pick(key, NODES) for key in KEYS}
        grown = NODES + ["node-8"]
        moved = sum(
            1 for key in KEYS if hashring.pick(key, grown) != before[key]
        )
        # Adding one node to 8 should claim ~1/9 of the keyspace; every
        # moved key must have moved *to* the new node, never sideways.
        assert moved <= 0.2 * len(KEYS)
        for key in KEYS:
            after = hashring.pick(key, grown)
            if after != before[key]:
                assert after == "node-8"

    def test_remove_node_moves_only_its_keys(self):
        before = {key: hashring.pick(key, NODES) for key in KEYS}
        shrunk = [n for n in NODES if n != "node-3"]
        for key in KEYS:
            after = hashring.pick(key, shrunk)
            if before[key] != "node-3":
                assert after == before[key]
            else:
                assert after != "node-3"

    def test_subsets_are_nested_and_stable(self):
        for key in KEYS[:200]:
            order = hashring.rank(key, NODES)
            assert hashring.pick(key, NODES) == order[0]
            assert hashring.pick_subset(key, NODES, 3) == order[:3]
            # Nesting: top-2 is a prefix of top-3.
            assert hashring.pick_subset(key, NODES, 2) == order[:2]


class TestCanonicalKeys:
    def test_equal_keys_route_identically_across_types(self):
        # serde.encode_key canonicalizes 5 == 5.0 == True-ish ints; the
        # ring must agree with the executor's Python ``==`` semantics.
        assert hashring.pick(5, NODES) == hashring.pick(5.0, NODES)
        assert hashring.pick(("t", 1), NODES) == hashring.pick(("t", 1.0), NODES)

    def test_unencodable_keys_still_deterministic(self):
        key = ("t", frozenset({1, 2}))  # not serde-encodable
        assert hashring.pick(key, NODES) == hashring.pick(key, NODES)


class TestHashRingWrapper:
    def test_wrapper_matches_module_functions(self):
        ring = HashRing(capacity=1_000)
        nodes = tuple(NODES)
        for __repeat in range(2):  # scored, then looked up
            for key in KEYS[:100]:
                assert ring.pick(key, nodes) == hashring.pick(key, NODES)
        assert len(ring) == 100

    def test_a_pick_is_scored_once_per_distinct_input(self, monkeypatch):
        scored = []
        real = hashring._score
        monkeypatch.setattr(hashring, "_score", lambda *a: scored.append(a) or real(*a))
        ring = HashRing(capacity=10)
        for __repeat in range(5):
            assert ring.pick("k", ("a", "b", "c")) == hashring.pick(
                "k", ("a", "b", "c")
            )
        # One cold pick of three nodes by the ring; the reference re-scores.
        assert len(scored) == 3 + 5 * 3
        del scored[:]
        # Another candidate set is another entry, not a stale answer ...
        assert ring.pick("k", ("a", "b")) == hashring.pick("k", ("a", "b"))
        # ... and a range is as good a candidate tuple as a tuple.
        assert ring.pick("k", range(4)) == ring.pick("k", range(4))
        assert len(ring) == 3

    def test_capacity_bounds_the_ring_oldest_first(self):
        ring = HashRing(capacity=4)
        nodes = tuple(NODES)
        for key in KEYS[:10]:
            ring.pick(key, nodes)
            assert len(ring) <= 4
        assert [k for k, __ in ring._picks] == KEYS[6:10]
        # A forgotten pick is re-derived to the same answer.
        assert ring.pick(KEYS[0], nodes) == hashring.pick(KEYS[0], NODES)


class TestEncodeOnce:
    """pick / rank encode the key once per call; the scores are the bits
    they were when every (key, node) pair encoded both (values read off
    the commit before the refactor)."""

    GOLDEN = [
        (("rides", "rides__0__3"), "server-1"),
        ("a3f09c1e77d2b4c8", 0),
        ("a3f09c1e77d2b4c8", 1),
        (5.0, "node-0"),
    ]
    SCORES = [
        "0x1.8905201e7d6bcp+0",
        "0x1.db7a65fadec2fp-2",
        "0x1.473d3c1392a51p+1",
        "0x1.92a385b00b31ep+1",
    ]
    RANK = [f"node-{i}" for i in (7, 5, 6, 1, 2, 0, 3, 4)]

    def test_golden_scores(self):
        scores = [hashring.node_score(*pair).hex() for pair in self.GOLDEN]
        assert scores == self.SCORES

    def test_golden_rank(self):
        key = ("rides", "rides__0__3")
        assert hashring.rank(key, NODES) == self.RANK
        assert hashring.pick(key, NODES) == self.RANK[0]
        assert hashring.pick_subset(key, NODES, 3) == self.RANK[:3]
