"""HashRing property layer: determinism, minimal movement, golden layout.

The fleet's correctness rests on the ring being a *pure function of the
member set* — every router in every process must map a fingerprint to
the same shard, across restarts and any ``PYTHONHASHSEED``.  These
tests pin that down three ways: structural properties (movement bounds,
failover ordering), a real subprocess restart under a different hash
seed, and a golden fixture that freezes the exact layout so any change
to the position function is a deliberate, visible event (it would
re-home every fleet's keyspace and cold every per-shard cache segment).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.service.fleet.ring import DEFAULT_VNODES, HashRing

GOLDEN = Path(__file__).parent / "golden" / "hashring_layout.json"

KEYS = [f"fingerprint-{i:04d}" for i in range(600)]


# ----------------------------------------------------------------------
# construction and membership
# ----------------------------------------------------------------------
def test_vnodes_validated():
    with pytest.raises(ValueError):
        HashRing(vnodes=0)


def test_empty_ring_lookup_raises():
    ring = HashRing()
    assert not ring and len(ring) == 0
    with pytest.raises(LookupError):
        ring.owner("anything")
    with pytest.raises(LookupError):
        ring.owners("anything")


def test_membership_and_idempotence():
    ring = HashRing(["a", "b"])
    ring.add("a")  # duplicate add is a no-op
    assert ring.nodes == {"a", "b"}
    before = ring.layout()
    ring.remove("missing")  # absent remove is a no-op
    assert ring.layout() == before
    ring.remove("a")
    assert "a" not in ring and "b" in ring
    assert len(ring.layout()) == DEFAULT_VNODES


def test_single_node_owns_everything():
    ring = HashRing(["only"])
    assert all(ring.owner(k) == "only" for k in KEYS[:50])
    assert ring.owners(KEYS[0]) == ["only"]


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------
def test_layout_is_insertion_order_independent():
    nodes = [f"shard-{i}" for i in range(5)]
    forward = HashRing(nodes)
    backward = HashRing(reversed(nodes))
    rebuilt = HashRing(nodes[2:] + nodes[:2])
    assert forward.layout() == backward.layout() == rebuilt.layout()


def test_remove_then_readd_restores_layout():
    """Quarantine + readmission must be a perfect round trip: the
    returning shard gets back exactly the keyspace it owned."""
    ring = HashRing([f"shard-{i}" for i in range(4)])
    before = ring.layout()
    owners_before = {k: ring.owner(k) for k in KEYS}
    ring.remove("shard-2")
    ring.add("shard-2")
    assert ring.layout() == before
    assert {k: ring.owner(k) for k in KEYS} == owners_before


def test_determinism_across_pythonhashseed(tmp_path):
    """The mapping must not depend on ``hash()``: two fresh interpreters
    with different hash seeds must produce identical assignments."""
    script = tmp_path / "ring_dump.py"
    script.write_text(
        "import json, sys\n"
        "from repro.service.fleet.ring import HashRing\n"
        "ring = HashRing(['shard-%d' % i for i in range(4)], vnodes=64)\n"
        "keys = ['fingerprint-%04d' % i for i in range(200)]\n"
        "json.dump({k: ring.owner(k) for k in keys}, sys.stdout)\n"
    )
    outputs = []
    for seed in ("0", "12345"):
        # The caller's env (PYTHONDONTWRITEBYTECODE included) plus the
        # two settings under test.
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=str(Path(__file__).resolve().parents[2] / "src"))
        proc = subprocess.run(
            [sys.executable, str(script)], capture_output=True, text=True, check=True, env=env,
        )
        outputs.append(json.loads(proc.stdout))
    assert outputs[0] == outputs[1]
    # ... and match this process's ring too (a "restart" of the router)
    here = HashRing([f"shard-{i}" for i in range(4)], vnodes=64)
    assert outputs[0] == {k: here.owner(k) for k in outputs[0]}


# ----------------------------------------------------------------------
# minimal movement
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n", [3, 4, 8])
def test_adding_a_node_moves_at_most_2_over_n(n):
    ring = HashRing([f"shard-{i}" for i in range(n)])
    before = {k: ring.owner(k) for k in KEYS}
    ring.add("shard-new")
    moved = [k for k in KEYS if ring.owner(k) != before[k]]
    # Ideal is 1/(n+1); allow 2/(n+1) headroom for vnode placement noise.
    assert len(moved) <= 2 * len(KEYS) / (n + 1), (
        f"{len(moved)}/{len(KEYS)} keys moved adding 1 node to {n}"
    )
    # every moved key moved *to* the new node, never between old ones
    assert all(ring.owner(k) == "shard-new" for k in moved)


@pytest.mark.parametrize("n", [3, 4, 8])
def test_removing_a_node_moves_only_its_keys(n):
    ring = HashRing([f"shard-{i}" for i in range(n)])
    before = {k: ring.owner(k) for k in KEYS}
    ring.remove("shard-0")
    for key in KEYS:
        if before[key] == "shard-0":
            assert ring.owner(key) != "shard-0"
        else:
            # survivors keep their keyspace (and their warm caches)
            assert ring.owner(key) == before[key]


def test_load_stays_roughly_balanced():
    ring = HashRing([f"shard-{i}" for i in range(4)])
    counts: dict[str, int] = {}
    for key in KEYS:
        counts[ring.owner(key)] = counts.get(ring.owner(key), 0) + 1
    mean = len(KEYS) / len(ring)
    assert all(c > 0.4 * mean for c in counts.values()), counts
    assert all(c < 2.0 * mean for c in counts.values()), counts


# ----------------------------------------------------------------------
# failover ordering
# ----------------------------------------------------------------------
def test_owners_sequence_matches_post_removal_rehash():
    """owners()[i] must be where the key re-homes after the first i
    owners die — the invariant that makes router retry land exactly on
    the quarantined ring's destination."""
    nodes = [f"shard-{i}" for i in range(5)]
    for key in KEYS[:100]:
        ring = HashRing(nodes)
        sequence = ring.owners(key)
        assert sequence[0] == ring.owner(key)
        assert sorted(sequence) == sorted(nodes)  # distinct, exhaustive
        for expected_next in sequence[1:]:
            ring.remove(ring.owner(key))
            assert ring.owner(key) == expected_next


def test_owners_count_clamps():
    ring = HashRing(["a", "b", "c"])
    assert len(ring.owners(KEYS[0], count=2)) == 2
    assert len(ring.owners(KEYS[0], count=99)) == 3


# ----------------------------------------------------------------------
# golden layout
# ----------------------------------------------------------------------
def test_golden_layout_is_pinned():
    """The exact ring layout is frozen to disk.  If this fails, the
    position function changed: every deployed fleet would re-home its
    whole keyspace and lose all cache locality.  Regenerate the fixture
    only as a deliberate, called-out migration:

        PYTHONPATH=src python tests/service/test_fleet_ring.py
    """
    fixture = json.loads(GOLDEN.read_text())
    ring = HashRing(fixture["nodes"], vnodes=fixture["vnodes"])
    layout = [[pos, node] for pos, node in ring.layout()]
    assert layout == fixture["layout"], "ring layout drifted from golden fixture"
    owners = {k: ring.owner(k) for k in fixture["owners"]}
    assert owners == fixture["owners"], "key ownership drifted from golden fixture"


def _regenerate() -> None:  # pragma: no cover - manual fixture refresh
    nodes = [f"shard-{i}" for i in range(3)]
    ring = HashRing(nodes, vnodes=8)
    fixture = {
        "nodes": nodes,
        "vnodes": 8,
        "layout": [[pos, node] for pos, node in ring.layout()],
        "owners": {k: ring.owner(k) for k in KEYS[:32]},
    }
    GOLDEN.write_text(json.dumps(fixture, indent=1) + "\n")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":  # pragma: no cover
    _regenerate()
