"""Rendezvous hashing for sticky, locality-aware routing.

The serving layers want the same key to land on the same node every
time (so per-node caches pay), while membership changes move as few
keys as possible.  Rendezvous (highest-random-weight) hashing gives
both without a ring data structure: every (key, node) pair gets a
deterministic score and the key goes to the highest-scoring node.

* **Minimal disruption** — adding a node only claims the keys whose new
  top score belongs to it (~1/n of the keyspace); removing a node only
  moves that node's own keys.  No other assignment changes, because
  scores of surviving (key, node) pairs are untouched.
* **Remembered** — a pick is a pure function of the key and the
  candidates, so :class:`HashRing` looks a repeated one up by the value
  of both instead of scoring it again.

Scores hash with BLAKE2b over :func:`repro.common.serde.encode_key`
bytes, so they are stable across processes (no ``PYTHONHASHSEED``
dependence) and equality-canonical: keys that compare ``==`` (``5``,
``5.0``) route identically, the same contract the hash partitioner and
the segment bloom filters already rely on.
"""

from __future__ import annotations

import hashlib
import math
from typing import Any, Hashable, Sequence

from repro.common import serde

__all__ = [
    "node_score",
    "rank",
    "pick",
    "pick_subset",
    "HashRing",
]

_SEPARATOR = b"\x00hrw\x00"


def _key_bytes(value: Any) -> bytes:
    """Equality-canonical bytes for an arbitrary routing key."""
    try:
        return serde.encode_key(value)
    except Exception:
        # Unencodable keys still deserve a deterministic route: fall back
        # to the repr, which is stable for any one value within a run.
        return repr(value).encode("utf-8", "backslashreplace")


def _key_suffix(key: Any) -> bytes:
    """The key's half of every pair hash: encoded once per call, however
    many nodes are scored against it."""
    return _SEPARATOR + _key_bytes(key)


def _score(node: Any, key_suffix: bytes) -> float:
    digest = hashlib.blake2b(_key_bytes(node) + key_suffix, digest_size=8).digest()
    # (0, 1) exclusive on both ends: +1 over 2^64 + 2 never hits 0 or 1.
    u = (int.from_bytes(digest, "big") + 1) / (2**64 + 2)
    return -1.0 / math.log(u)


def node_score(key: Any, node: Any) -> float:
    """The rendezvous score of ``node`` for ``key`` (higher wins):
    ``-1 / ln(u)``, where ``u`` is a uniform (0, 1) draw from the pair
    hash."""
    return _score(node, _key_suffix(key))


def rank(key: Any, nodes: Sequence[Any]) -> list[Any]:
    """All nodes ordered by descending rendezvous score for ``key``.

    The first element is the sticky choice; the rest form the
    deterministic spill-over order.  Ties (possible only for duplicate
    nodes) break by position, keeping the order total and reproducible.
    """
    suffix = _key_suffix(key)
    scored = [(_score(node, suffix), -i, node) for i, node in enumerate(nodes)]
    scored.sort(reverse=True)
    return [node for __, __, node in scored]


def pick(key: Any, nodes: Sequence[Any]) -> Any:
    """The sticky choice: the highest-scoring node for ``key``."""
    if not nodes:
        raise ValueError("cannot pick from an empty node set")
    suffix = _key_suffix(key)
    best = None
    best_score = (float("-inf"), 1)
    for i, node in enumerate(nodes):
        score = (_score(node, suffix), -i)
        if best is None or score > best_score:
            best, best_score = node, score
    return best


def pick_subset(key: Any, nodes: Sequence[Any], n: int) -> list[Any]:
    """The top-``n`` nodes for ``key`` in rendezvous order.

    Subsets are nested (the top-2 set contains the top-1 choice) and
    minimally disrupted by membership change, so a key's sticky worker
    subset survives pool scaling mostly intact.
    """
    if n <= 0:
        return []
    return rank(key, nodes)[:n]


class HashRing:
    """Sticky picks, remembered.

    :func:`pick` is a pure function of ``(key, nodes)``, so a caller that
    keeps routing the same keys over slowly changing candidates (the
    broker's segment -> replica choice, the scheduler's stage -> worker
    choice) looks the answer up instead of re-scoring it::

        ring = HashRing(capacity=4096)
        ring.pick(("rides", "seg-3"), ("s0", "s2"))   # scored once
        ring.pick(("rides", "seg-3"), ("s0", "s2"))   # looked up
        ring.pick(("rides", "seg-3"), ("s0",))        # another entry

    An entry is keyed by the *value* of both inputs, so there is nothing
    to invalidate: a server that died, by whatever means, is simply absent
    from the ``nodes`` the caller passes, and that is a different entry.
    ``key`` and ``nodes`` must be hashable (a tuple of names, a
    ``range``).  Keys that compare equal across types (``5``, ``5.0``)
    share an entry, which is what :func:`pick` answers for them anyway.
    The ring holds at most ``capacity`` entries and forgets the oldest
    first; forgetting costs one re-score, never a different answer.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._picks: dict[tuple[Hashable, Hashable], Any] = {}

    def __len__(self) -> int:
        return len(self._picks)

    def pick(self, key: Hashable, nodes: Sequence[Any]) -> Any:
        """``pick(key, nodes)``, scored at most once per distinct input."""
        remembered = (key, nodes)
        try:
            return self._picks[remembered]
        except KeyError:
            choice = pick(key, nodes)
        if len(self._picks) >= self.capacity:
            del self._picks[next(iter(self._picks))]
        self._picks[remembered] = choice
        return choice
