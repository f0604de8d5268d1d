import pytest
from hypothesis import given, settings, strategies as st

from ecsim.cache import CacheEntry, CacheStore, StoreResult
from ecsim.traffic import Packet


def packet(pid, dst=9, bits=8_000, created=0.0, deadline=None):
    return Packet(id=pid, src=0, dst=dst, size_bits=bits, created_at=created, deadline=deadline)


def test_store_accept_updates_volume():
    store = CacheStore(capacity_bits=1_000_000)
    assert store.store(packet(1), now=0.0) is StoreResult.ACCEPTED
    assert store.volume_for(9) == 8_000


def test_store_rejects_when_full():
    store = CacheStore(capacity_bits=10_000)
    assert store.store(packet(1), now=0.0) is StoreResult.ACCEPTED
    assert store.store(packet(2), now=0.0) is StoreResult.REJECTED_FULL
    assert store.entry_count() == 1


def test_deliver_on_wake_fifo_order():
    store = CacheStore(capacity_bits=1_000_000)
    for pid in (3, 1, 2):
        store.store(packet(pid), now=float(pid))
    entries = store.deliver_on_wake(9)
    assert [e.packet.id for e in entries] == [3, 1, 2]
    assert store.volume_for(9) == 0
    assert store.entry_count() == 0


def test_deliver_on_wake_other_destinations_untouched():
    store = CacheStore(capacity_bits=1_000_000)
    store.store(packet(1, dst=9), now=0.0)
    store.store(packet(2, dst=5), now=0.0)
    assert store.deliver_on_wake(7) == []
    entries = store.deliver_on_wake(9)
    assert [e.packet.id for e in entries] == [1]
    assert store.volume_for(5) == 8_000


def test_no_double_delivery():
    store = CacheStore(capacity_bits=1_000_000)
    store.store(packet(1), now=0.0)
    assert len(store.deliver_on_wake(9)) == 1
    assert store.deliver_on_wake(9) == []


def test_evict_expired_deadline():
    store = CacheStore(capacity_bits=1_000_000)
    store.store(packet(1, created=0.0, deadline=5.0), now=0.0)
    dropped = store.evict_expired(now=6.0)
    assert [p.id for p in dropped] == [1]
    assert store.volume_for(9) == 0


def test_evict_expired_nothing_to_do():
    store = CacheStore(capacity_bits=1_000_000)
    store.store(packet(1, created=0.0, deadline=5.0), now=0.0)
    assert store.evict_expired(now=4.0) == []
    assert store.entry_count() == 1


def test_volume_matches_recompute_through_churn():
    store = CacheStore(capacity_bits=100_000)
    store.store(packet(1, dst=4), now=0.0)
    store.store(packet(2, dst=5), now=0.5)
    store.store(packet(3, dst=4, deadline=2.0, created=0.0), now=1.0)
    for dst, vol in store.recomputed_volumes().items():
        assert store.volume_for(dst) == vol
    assert store.used_bits == sum(store.recomputed_volumes().values())
    store.evict_expired(now=3.0)
    store.deliver_on_wake(4)
    recomputed = store.recomputed_volumes()
    for dst in (4, 5):
        assert store.volume_for(dst) == recomputed.get(dst, 0)
    assert store.used_bits == sum(store.recomputed_volumes().values())


def test_hosting_delay_tracks_oldest_entry():
    store = CacheStore(capacity_bits=100_000)
    store.store(packet(1), now=2.0)
    store.store(packet(2), now=5.0)
    assert store.hosting_delay(9, now=7.0) == pytest.approx(5.0)
    assert store.hosting_delay(9, now=9.0) == pytest.approx(7.0)  # grows with time
    assert store.hosting_delay(3, now=9.0) is None


def test_shared_holder_index_lists_exactly_the_holders_with_volume():
    index = {}
    stores = {3: CacheStore(100_000, 3, index), 4: CacheStore(100_000, 4, index)}

    def holders():
        out = {}
        for nid, store in stores.items():
            for dst in store.destinations():
                assert store.volume_for(dst) > 0
                out.setdefault(dst, set()).add(nid)
        return out

    stores[3].store(packet(1, dst=9), now=0.0)
    stores[3].store(packet(2, dst=5, deadline=2.0), now=0.0)
    stores[4].store(packet(3, dst=9), now=0.0)
    for pid in (4, 5):  # two packets for one destination in one cache
        stores[4].store(packet(pid, dst=5, deadline=2.0), now=0.0)
    assert index == holders() == {9: {3, 4}, 5: {3, 4}}
    stores[3].deliver_on_wake(9)
    assert index == holders() == {9: {4}, 5: {3, 4}}
    stores[3].evict_expired(now=3.0)
    assert index == holders() == {9: {4}, 5: {4}}
    stores[4].evict_expired(now=3.0)  # both of its packets for 5 expire at once
    assert index == holders() == {9: {4}}
    stores[4].deliver_on_wake(9)
    assert index == holders() == {}


# One op: (kind, destination, deadline of a new packet relative to its
# creation or None for an elastic one, clock advance before the op).
CACHE_OPS = st.lists(
    st.tuples(
        st.sampled_from(["store", "store", "store again", "deliver", "evict"]),
        st.sampled_from([4, 5, 6]),
        st.sampled_from([None, None, 0.5, 2.0]),
        st.sampled_from([0.0, 0.5, 1.0]),
    ),
    max_size=40,
)


@settings(max_examples=300, deadline=None)
@given(CACHE_OPS, st.sampled_from([16_000, 40_000, 1_000_000]))
def test_running_counts_match_the_entries_after_every_op(ops, capacity):
    """After each store, store again, deliver or eviction, the entries are
    those of a plain FIFO model, each with the time it was stored, and
    ``used_bits``, the volumes and the holder index match
    ``recomputed_volumes()``. As in the engine, a packet is stored again
    only after it left the cache, handed over or evicted."""
    index = {}
    store = CacheStore(capacity, 3, index)
    model = []  # the CacheEntry list a plain FIFO would hold
    made = 0
    gone = []  # packets handed over or evicted
    now = 0.0
    for kind, dst, deadline, step in ops:
        now += step
        if kind in ("store", "store again"):
            if kind == "store" or not gone:
                pkt = packet(made, dst=dst, bits=8_000 * (1 + made % 3), created=now,
                             deadline=None if deadline is None else now + deadline)
                made += 1
            else:
                pkt = gone.pop(dst % len(gone))
            if pkt.size_bits <= capacity - sum(e.packet.size_bits for e in model):
                expected = StoreResult.ACCEPTED
                model.append(CacheEntry(pkt, now))
            else:
                expected = StoreResult.REJECTED_FULL
            assert store.store(pkt, now) is expected
        elif kind == "deliver":
            handed = [e for e in model if e.packet.dst == dst]
            assert store.deliver_on_wake(dst) == handed
            gone += [e.packet for e in handed]
            model = [e for e in model if e.packet.dst != dst]
        else:
            dropped = [e.packet for e in model if e.packet.past_deadline(now)]
            assert store.evict_expired(now) == dropped
            gone += dropped
            model = [e for e in model if not e.packet.past_deadline(now)]
        assert store._entries == model  # packets and their store times, in order
        volumes = store.recomputed_volumes()
        assert store.used_bits == sum(volumes.values()) <= capacity
        assert {d: store.volume_for(d) for d in (4, 5, 6)} == {
            d: volumes.get(d, 0) for d in (4, 5, 6)
        }
        assert store.destinations() == sorted(volumes)
        assert index == {d: {3} for d in volumes}
