//! The tagged, set-associative, true-LRU map under the simulator's
//! translation structures: the TLB and the data cache (both through
//! `tlbsim_mmu::AssocCache`), and under the wide sets of
//! [`PredictionTable`](crate::PredictionTable). The 16-to-64-entry
//! prefetch buffer scans its own array instead.
//!
//! The paper's default TLB is fully associative (128 entries probed on
//! every reference), so a lookup must not cost a scan over the ways. [`TaggedLru`] gives
//! every operation expected O(1) cost with three fixed arrays, all
//! allocated in [`TaggedLru::new`]:
//!
//! * **slots** — `capacity` entries partitioned by set: set `s` owns
//!   slots `s * ways .. (s + 1) * ways`. Each occupied slot holds one
//!   `(asid, key, value)` entry, the two links of its set's recency list
//!   and the link of its hash chain; a free slot sits on its set's free
//!   stack instead.
//! * **per-set lists** — the MRU and LRU ends of each set's intrusive,
//!   doubly linked recency list, plus the head of its free stack. A hit
//!   moves the slot to the MRU end; a fill into a full set reuses the LRU
//!   end's slot in place.
//! * **index** — `4 * ways` (rounded up to a power of two) bucket heads
//!   per set, each starting an intrusive singly linked chain of the
//!   set's slots whose `(asid, key)` hashes there (multiplicative
//!   hashing, top bits). At load ≤ ¼ almost every chain is empty or one
//!   slot long, so a lookup reads one bucket head and at most one slot, a
//!   fill pushes onto the chain head, and removing the victim almost
//!   always finds it at its chain's head — no probe sequences, no
//!   tombstones. Grouping the buckets by set keeps the buckets of
//!   neighbouring pages neighbours on set-associative geometries.
//!
//! The set index is `key.index_value() % sets` (a mask when `sets` is a
//! power of two) and the context lives in the tag only, as in an
//! ASID-tagged hardware TLB. Replacement picks the tail of the set's
//! recency list: every hit or fill moves its slot to the head, so list
//! order is exactly the order of last use — the order a per-way "last
//! used" tick would give, with the tail the smallest tick (see
//! `docs/DESIGN.md`).

use std::mem;

use crate::assoc::{Associativity, InvalidGeometry};
use crate::hash::FIBONACCI;
use crate::table::{SetSelect, TableKey};
use crate::types::Asid;

/// End-of-list, end-of-chain and empty-bucket marker.
const NIL: u32 = u32::MAX;

/// Bucket heads per way of a set (before rounding up to a power of two):
/// keeps the expected chain length at or below ¼.
const BUCKETS_PER_WAY: usize = 4;

/// An entry displaced by [`TaggedLru::insert`]: the LRU victim of a full
/// set, or the previous value of a re-inserted `(asid, key)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Displaced<K, V> {
    /// The displaced entry's key.
    pub key: K,
    /// The displaced entry's value.
    pub value: V,
    /// `true` if the displaced entry was tagged with the current context.
    pub same_asid: bool,
}

#[derive(Debug, Clone)]
struct Entry<K, V> {
    asid: Asid,
    key: K,
    value: V,
}

#[derive(Debug, Clone)]
struct Slot<K, V> {
    /// Neighbour toward the MRU end (`NIL` at the MRU end).
    prev: u32,
    /// Neighbour toward the LRU end; for a free slot, the next free slot.
    next: u32,
    /// Next slot of the same hash chain.
    chain: u32,
    /// The bucket whose chain holds this slot (meaningless while free).
    bucket: u32,
    entry: Option<Entry<K, V>>,
}

#[derive(Debug, Clone, Copy)]
struct SetList {
    mru: u32,
    lru: u32,
    free: u32,
}

/// A fixed-capacity, set-associative map from `(Asid, K)` to `V` with
/// true-LRU replacement per set and expected O(1) operations; see the
/// module docs for the layout.
///
/// Lookups and inserts match against the map's current-context register
/// ([`set_asid`](TaggedLru::set_asid)); the LRU order of a set spans
/// every context, so contexts compete for its ways. Nothing allocates
/// after [`new`](TaggedLru::new).
///
/// # Examples
///
/// ```
/// use tlbsim_core::{Associativity, TaggedLru, VirtPage};
///
/// let mut map: TaggedLru<VirtPage, u32> = TaggedLru::new(2, Associativity::Full)?;
/// map.insert(VirtPage::new(1), 10);
/// map.insert(VirtPage::new(2), 20);
/// map.touch(VirtPage::new(1));
/// // 2 is now least recently used and is the victim.
/// let displaced = map.insert(VirtPage::new(3), 30).map(|d| d.key);
/// assert_eq!(displaced, Some(VirtPage::new(2)));
/// # Ok::<(), tlbsim_core::InvalidGeometry>(())
/// ```
#[derive(Debug, Clone)]
pub struct TaggedLru<K, V> {
    slots: Vec<Slot<K, V>>,
    sets: Vec<SetList>,
    buckets: Vec<u32>,
    /// `log2` of the buckets per set.
    bucket_bits: u32,
    select: SetSelect,
    ways: usize,
    assoc: Associativity,
    len: usize,
    evictions: u64,
    asid: Asid,
}

// The private helpers on the lookup and fill paths are
// `#[inline(always)]`: left to the inliner, `occupy` and `unchain` stayed
// out of line and a direct-mapped fill measured about 1.2x slower.
impl<K: TableKey, V> TaggedLru<K, V> {
    /// Creates a map of `capacity` entries organised by `assoc`.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidGeometry`] if `capacity` is zero or not divisible
    /// by the way count implied by `assoc`.
    pub fn new(capacity: usize, assoc: Associativity) -> Result<Self, InvalidGeometry> {
        let set_count = assoc.sets(capacity)?;
        let ways = assoc.ways(capacity);
        let buckets_per_set = (ways * BUCKETS_PER_WAY).next_power_of_two();
        let mut slots = Vec::with_capacity(capacity);
        slots.resize_with(capacity, || Slot {
            prev: NIL,
            next: NIL,
            chain: NIL,
            bucket: NIL,
            entry: None,
        });
        let empty = SetList {
            mru: NIL,
            lru: NIL,
            free: NIL,
        };
        let mut map = TaggedLru {
            slots,
            sets: vec![empty; set_count],
            buckets: vec![NIL; buckets_per_set * set_count],
            bucket_bits: buckets_per_set.trailing_zeros(),
            select: SetSelect::new(set_count),
            ways,
            assoc,
            len: 0,
            evictions: 0,
            asid: Asid::DEFAULT,
        };
        map.reset_sets();
        Ok(map)
    }

    /// Empties every set's list and threads all its slots onto its free
    /// stack.
    fn reset_sets(&mut self) {
        for (set, list) in self.sets.iter_mut().enumerate() {
            let first = set * self.ways;
            let end = first + self.ways;
            for slot in first..end {
                self.slots[slot].next = if slot + 1 < end {
                    (slot + 1) as u32
                } else {
                    NIL
                };
            }
            *list = SetList {
                mru: NIL,
                lru: NIL,
                free: first as u32,
            };
        }
    }

    #[inline(always)]
    fn set_of(&self, key: K) -> usize {
        self.select.of(key)
    }

    /// The bucket of `key`, which maps to `set`, under the current
    /// context: the top bits of its hash pick one of the set's buckets.
    #[inline(always)]
    fn bucket_of(&self, set: usize, key: K) -> usize {
        let tagged = key.index_value() ^ (u64::from(self.asid.raw()) << 48);
        let hash = tagged.wrapping_mul(FIBONACCI);
        // Two shifts, so that zero bucket bits select bucket 0.
        (set << self.bucket_bits) | ((hash >> 1) >> (63 - self.bucket_bits)) as usize
    }

    /// The slot holding `key` under the current context, searched in its
    /// `bucket`.
    #[inline(always)]
    fn find_in(&self, key: K, bucket: usize) -> Option<usize> {
        let mut link = self.buckets[bucket];
        while link != NIL {
            let slot = &self.slots[link as usize];
            if let Some(e) = &slot.entry {
                if e.key == key && e.asid == self.asid {
                    return Some(link as usize);
                }
            }
            link = slot.chain;
        }
        None
    }

    /// The set of `key` and the slot holding it under the current context.
    fn find(&self, key: K) -> Option<(usize, usize)> {
        let set = self.set_of(key);
        let slot = self.find_in(key, self.bucket_of(set, key))?;
        Some((set, slot))
    }

    /// Pushes `slot` onto the head of `bucket`'s chain.
    #[inline(always)]
    fn chain(&mut self, bucket: usize, slot: usize) {
        self.slots[slot].chain = self.buckets[bucket];
        self.slots[slot].bucket = bucket as u32;
        self.buckets[bucket] = slot as u32;
    }

    /// Removes `slot` from its bucket's chain.
    #[inline(always)]
    fn unchain(&mut self, slot: usize) {
        let Slot { chain, bucket, .. } = self.slots[slot];
        let mut link = self.buckets[bucket as usize];
        if link == slot as u32 {
            self.buckets[bucket as usize] = chain;
            return;
        }
        while link != NIL {
            let after = self.slots[link as usize].chain;
            if after == slot as u32 {
                self.slots[link as usize].chain = chain;
                return;
            }
            link = after;
        }
    }

    #[inline(always)]
    fn unlink(&mut self, set: usize, slot: usize) {
        let Slot { prev, next, .. } = self.slots[slot];
        match prev {
            NIL => self.sets[set].mru = next,
            p => self.slots[p as usize].next = next,
        }
        match next {
            NIL => self.sets[set].lru = prev,
            n => self.slots[n as usize].prev = prev,
        }
    }

    #[inline(always)]
    fn push_mru(&mut self, set: usize, slot: usize) {
        let old = self.sets[set].mru;
        self.slots[slot].prev = NIL;
        self.slots[slot].next = old;
        match old {
            NIL => self.sets[set].lru = slot as u32,
            o => self.slots[o as usize].prev = slot as u32,
        }
        self.sets[set].mru = slot as u32;
    }

    /// Moves the occupied `slot` of `set` to the MRU end.
    #[inline(always)]
    fn promote(&mut self, set: usize, slot: usize) {
        // Only the MRU slot has no predecessor; testing the slot itself
        // spares a set-list access on hits to the MRU entry.
        if self.slots[slot].prev != NIL {
            self.unlink(set, slot);
            self.push_mru(set, slot);
        }
    }

    /// Unlinks, unchains and frees the occupied `slot` of `set`,
    /// returning its entry.
    fn release(&mut self, set: usize, slot: usize) -> Option<Entry<K, V>> {
        self.unlink(set, slot);
        self.unchain(slot);
        self.slots[slot].next = self.sets[set].free;
        self.sets[set].free = slot as u32;
        self.len -= 1;
        self.slots[slot].entry.take()
    }

    /// Claims a slot of `set` for an absent key of `bucket` and makes it
    /// MRU: a free slot, or else the LRU one, reused in place. The caller
    /// overwrites the slot's entry — still the victim's, if there was one
    /// — so a large row is never moved out just to be dropped.
    #[inline(always)]
    fn occupy(&mut self, set: usize, bucket: usize) -> usize {
        let free = self.sets[set].free;
        let slot = if free == NIL {
            let lru = self.sets[set].lru as usize;
            self.unchain(lru);
            self.promote(set, lru);
            self.evictions += 1;
            lru
        } else {
            let slot = free as usize;
            self.sets[set].free = self.slots[slot].next;
            self.push_mru(set, slot);
            self.len += 1;
            slot
        };
        self.chain(bucket, slot);
        slot
    }

    /// Switches the current context: subsequent lookups and inserts are
    /// tagged with `asid`. A pure register write — no entry is touched.
    pub fn set_asid(&mut self, asid: Asid) {
        self.asid = asid;
    }

    /// The current context tag.
    pub fn asid(&self) -> Asid {
        self.asid
    }

    /// Looks up `key` in the current context, marking it most recently
    /// used on a hit.
    pub fn touch(&mut self, key: K) -> Option<&mut V> {
        let (set, slot) = self.find(key)?;
        self.promote(set, slot);
        self.slots[slot].entry.as_mut().map(|e| &mut e.value)
    }

    /// Looks up `key` in the current context without changing recency.
    pub fn peek(&self, key: K) -> Option<&V> {
        let (_, slot) = self.find(key)?;
        self.slots[slot].entry.as_ref().map(|e| &e.value)
    }

    /// Returns `true` if `key` is resident in the current context (no
    /// recency update).
    pub fn contains(&self, key: K) -> bool {
        self.find(key).is_some()
    }

    /// Inserts `key -> value` under the current context as most recently
    /// used.
    ///
    /// Returns the LRU entry of the set (across all contexts) if the set
    /// was full — counted in [`evictions`](TaggedLru::evictions) — or the
    /// previous value under the same `(asid, key)` if it was resident.
    pub fn insert(&mut self, key: K, value: V) -> Option<Displaced<K, V>> {
        let set = self.set_of(key);
        let bucket = self.bucket_of(set, key);
        if let Some(slot) = self.find_in(key, bucket) {
            self.promote(set, slot);
            let entry = self.slots[slot].entry.as_mut()?;
            return Some(Displaced {
                key,
                value: mem::replace(&mut entry.value, value),
                same_asid: true,
            });
        }
        let slot = self.occupy(set, bucket);
        let asid = self.asid;
        let victim = self.slots[slot].entry.replace(Entry { asid, key, value });
        victim.map(|e| Displaced {
            key: e.key,
            value: e.value,
            same_asid: e.asid == self.asid,
        })
    }

    /// Returns the entry for `key`, inserting `default()` first if absent.
    ///
    /// The entry is marked most recently used either way. A conflicting
    /// entry evicted by the insertion is dropped (and counted in
    /// [`evictions`](TaggedLru::evictions)).
    pub fn get_or_insert_with(&mut self, key: K, default: impl FnOnce() -> V) -> &mut V {
        let set = self.set_of(key);
        let bucket = self.bucket_of(set, key);
        let asid = self.asid;
        let entry = match self.find_in(key, bucket) {
            Some(slot) => {
                self.promote(set, slot);
                &mut self.slots[slot].entry
            }
            None => {
                let slot = self.occupy(set, bucket);
                let entry = &mut self.slots[slot].entry;
                // Drop the victim's row in place.
                *entry = None;
                entry
            }
        };
        &mut entry
            .get_or_insert_with(|| Entry {
                asid,
                key,
                value: default(),
            })
            .value
    }

    /// Removes `key` from the current context, returning its value.
    pub fn remove(&mut self, key: K) -> Option<V> {
        let (set, slot) = self.find(key)?;
        self.release(set, slot).map(|e| e.value)
    }

    /// The least recently used key of the set `key` maps to (what an
    /// insert of `key` would evict if the set is full and `key` absent),
    /// or `None` while the set has a free way.
    pub fn victim_for(&self, key: K) -> Option<K> {
        let list = self.sets[self.set_of(key)];
        if list.free != NIL {
            return None;
        }
        let victim = self.slots.get(list.lru as usize)?;
        victim.entry.as_ref().map(|e| e.key)
    }

    /// Drops every entry tagged with `asid`, leaving other contexts'
    /// entries and their recency order untouched. Not counted as
    /// evictions.
    pub fn evict_asid(&mut self, asid: Asid) {
        for slot in 0..self.slots.len() {
            if self.len == 0 {
                break;
            }
            if self.slots[slot]
                .entry
                .as_ref()
                .is_some_and(|e| e.asid == asid)
            {
                self.release(slot / self.ways, slot);
            }
        }
    }

    /// Drops every entry, keeping geometry, the context register and the
    /// eviction counter.
    pub fn flush(&mut self) {
        if self.len == 0 {
            return;
        }
        for slot in &mut self.slots {
            slot.entry = None;
        }
        self.buckets.fill(NIL);
        self.reset_sets();
        self.len = 0;
    }

    /// Number of resident entries (all contexts).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total capacity in entries.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Configured associativity.
    pub fn associativity(&self) -> Associativity {
        self.assoc
    }

    /// Entries displaced from full sets since creation (same-key
    /// replacements, removals, flushes and `evict_asid` are not counted).
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Iterates over resident `(key, value)` pairs of every context, in
    /// unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.slots
            .iter()
            .filter_map(|s| s.entry.as_ref().map(|e| (&e.key, &e.value)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::VirtPage;

    fn page(n: u64) -> VirtPage {
        VirtPage::new(n)
    }

    /// Every occupied slot is reachable through its bucket's chain, and
    /// the chains hold nothing else.
    fn chains_are_consistent<V>(m: &TaggedLru<VirtPage, V>) {
        let mut chained = 0;
        for (bucket, &head) in m.buckets.iter().enumerate() {
            let mut link = head;
            while link != NIL {
                let slot = &m.slots[link as usize];
                assert_eq!(slot.bucket as usize, bucket);
                assert!(slot.entry.is_some(), "free slot {link} on a chain");
                chained += 1;
                link = slot.chain;
            }
        }
        assert_eq!(chained, m.len());
    }

    #[test]
    fn removal_from_the_middle_of_a_chain_keeps_the_rest_reachable() {
        let mut m: TaggedLru<VirtPage, u64> = TaggedLru::new(8, Associativity::Full).unwrap();
        // Five pages sharing one bucket form a five-slot chain.
        let bucket = m.bucket_of(0, page(0));
        let colliding: Vec<u64> = (0..)
            .filter(|&p| m.bucket_of(0, page(p)) == bucket)
            .take(5)
            .collect();
        for &p in &colliding {
            m.insert(page(p), p);
        }
        for victim in [colliding[2], colliding[0], colliding[4]] {
            assert_eq!(m.remove(page(victim)), Some(victim));
            chains_are_consistent(&m);
        }
        for &p in &colliding {
            let resident = ![colliding[2], colliding[0], colliding[4]].contains(&p);
            assert_eq!(m.peek(page(p)).is_some(), resident, "page {p}");
        }
    }

    #[test]
    fn evict_asid_and_flush_free_every_way() {
        let mut m: TaggedLru<VirtPage, u64> = TaggedLru::new(8, Associativity::ways_of(2)).unwrap();
        for p in 0..8u64 {
            m.insert(page(p), p);
        }
        m.set_asid(Asid::new(1));
        for p in 0..4u64 {
            m.insert(page(p), 100 + p);
        }
        m.evict_asid(Asid::new(1));
        assert_eq!(m.len(), 4);
        chains_are_consistent(&m);
        m.flush();
        assert!(m.is_empty());
        chains_are_consistent(&m);
        for p in 0..8u64 {
            assert!(m.insert(page(p), p).is_none(), "a way is free after flush");
        }
        assert_eq!(m.len(), 8);
    }
}
