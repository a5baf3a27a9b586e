"""Presence-directory edge cases the basic bookkeeping tests miss.

Two families, matching the two questions every policy asks the
directory (:mod:`repro.coherence.directory`):

* **Last-copy during an in-flight migration** — a spill/swap moves a
  line between caches as a remove-at-source plus add-at-destination
  pair.  The two orderings answer last-copy queries differently inside
  the window, and the hierarchy's atomic (single-threaded) migration
  step is what makes the remove-first ordering it uses safe.  These
  tests pin the semantics of both orderings so a future incremental
  or reordered migration cannot silently change what a concurrent
  eviction decision would see.

* **Remote hit with the owner in E state** — the exclusive state is
  the subtle one on the snoop path: a read must downgrade the silent
  owner to S (no writeback — the copy is clean), a write must
  invalidate it, and the directory must agree with the cache contents
  afterwards.  Driven end-to-end through ``PrivateHierarchy.access``.
"""

import pytest

from repro.cache.geometry import CacheGeometry
from repro.coherence.directory import PresenceDirectory
from repro.coherence.protocol import Mesi
from repro.policies.registry import make_policy
from repro.sim.config import SystemConfig
from repro.sim.system import PrivateHierarchy
from repro.verify import attach_sanitizer


# --------------------------------------------------------------------- #
# Last-copy queries during in-flight migration
# --------------------------------------------------------------------- #


def test_last_copy_during_add_first_migration_window():
    """Add-at-destination first: the line is never off chip, and *nobody*
    is the last copy inside the window."""
    d = PresenceDirectory(2)
    d.add(0xA0, 0)
    assert d.is_last_copy(0xA0, 0)

    d.add(0xA0, 1)  # migration in flight: both ends registered
    assert d.is_on_chip(0xA0)
    assert not d.is_last_copy(0xA0, 0)
    assert not d.is_last_copy(0xA0, 1)
    assert d.holder_count(0xA0) == 2

    d.remove(0xA0, 0)  # migration completes
    assert d.holders(0xA0) == {1}
    assert d.is_last_copy(0xA0, 1)


def test_last_copy_during_remove_first_migration_window():
    """Remove-at-source first (the hierarchy's swap ordering): the line
    is transiently off chip, so a last-copy query inside the window says
    "not on chip" — safe only because the migration step is atomic."""
    d = PresenceDirectory(2)
    d.add(0xB0, 0)

    d.remove(0xB0, 0)  # migration in flight: source already gone
    assert not d.is_on_chip(0xB0)
    assert not d.is_last_copy(0xB0, 0)
    assert not d.is_last_copy(0xB0, 1)
    assert d.holder_count(0xB0) == 0

    d.add(0xB0, 1)  # migration completes
    assert d.holders(0xB0) == {1}
    assert d.is_last_copy(0xB0, 1)


def test_last_copy_emerges_from_partial_invalidation():
    """Peeling holders off a widely shared line makes the survivor the
    last copy exactly when the second-to-last holder leaves."""
    d = PresenceDirectory(4)
    for cache in (0, 1, 2):
        d.add(0xC0, cache)
    d.remove(0xC0, 0)
    assert not d.is_last_copy(0xC0, 1)
    d.remove(0xC0, 2)
    assert d.is_last_copy(0xC0, 1)
    assert d.peers(0xC0, 1) == []


def test_double_add_is_idempotent_for_last_copy():
    """Re-adding an existing holder (a refill racing a promote) must not
    inflate the holder count or flip last-copy answers."""
    d = PresenceDirectory(2)
    d.add(0xD0, 0)
    d.add(0xD0, 0)
    assert d.holder_count(0xD0) == 1
    assert d.is_last_copy(0xD0, 0)
    d.remove(0xD0, 0)
    assert not d.is_on_chip(0xD0)
    with pytest.raises(KeyError):
        d.remove(0xD0, 0)


# --------------------------------------------------------------------- #
# Remote hits against an E-state owner, end to end
# --------------------------------------------------------------------- #


def make_hierarchy(scheme="baseline", caches=2, sets=4, ways=2, sanitize=False):
    cfg = SystemConfig(
        num_cores=caches,
        l2_geometry=CacheGeometry(sets * ways * 32, ways, 32),
        l1_geometry=CacheGeometry(2 * 1 * 32, 1, 32),
        quota=100,
        tick_interval=100_000,
    )
    hierarchy = PrivateHierarchy(cfg, make_policy(scheme))
    if sanitize:
        attach_sanitizer(hierarchy)
    return hierarchy


@pytest.mark.parametrize("sanitize", [False, True])
def test_remote_read_downgrades_exclusive_owner(sanitize):
    h = make_hierarchy(sanitize=sanitize)
    h.access(1, 0x100, False, 0)  # core 1 fills alone: silent E
    assert h.l2s[1].probe(0x100).state is Mesi.EXCLUSIVE

    lat = h.access(0, 0x100, False, 0)  # core 0 reads: remote hit
    assert lat == h.config.latencies.l2_remote_hit
    assert h.counts[0].l2_remote_hits == 1
    # E is clean: the downgrade must not charge a writeback.
    assert h.traffic.writebacks == 0
    assert h.l2s[1].probe(0x100).state is Mesi.SHARED
    assert h.l2s[0].probe(0x100).state is Mesi.SHARED
    assert h.directory.holders(0x100) == {0, 1}
    h.check_invariants()


@pytest.mark.parametrize("sanitize", [False, True])
def test_remote_write_invalidates_exclusive_owner(sanitize):
    h = make_hierarchy(sanitize=sanitize)
    h.access(1, 0x200, False, 0)  # silent E at core 1
    assert h.l2s[1].probe(0x200).state is Mesi.EXCLUSIVE

    h.access(0, 0x200, True, 0)  # core 0 writes: owner must vanish
    assert h.l2s[1].probe(0x200) is None
    assert not h.l1s[1].contains(0x200)  # back-invalidation reached L1
    assert h.l2s[0].probe(0x200).state is Mesi.MODIFIED
    assert h.directory.holders(0x200) == {0}
    assert h.directory.is_last_copy(0x200, 0)
    h.check_invariants()


def test_remote_read_of_modified_owner_charges_writeback():
    """The M-owner contrast case: same downgrade, plus one writeback."""
    h = make_hierarchy()
    h.access(1, 0x300, True, 0)  # dirty M at core 1
    assert h.l2s[1].probe(0x300).state is Mesi.MODIFIED

    h.access(0, 0x300, False, 0)
    assert h.traffic.writebacks == 1
    assert h.l2s[1].probe(0x300).state is Mesi.SHARED
    assert h.l2s[0].probe(0x300).state is Mesi.SHARED
    assert h.directory.holders(0x300) == {0, 1}
