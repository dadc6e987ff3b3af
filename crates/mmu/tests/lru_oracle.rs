//! Differential oracle for the O(1) tagged LRU map.
//!
//! `LinearLru` below is the linear-scan, tick-stamped LRU that the TLB,
//! the prefetch buffer and the data cache ran on before
//! `tlbsim_core::TaggedLru` replaced it: every lookup scans the set's
//! ways, and every eviction picks the way with the smallest tick. It is
//! kept here as the specification the map must reproduce.
//!
//! One random operation sequence over a random geometry (D, 2-way, 4-way
//! or F, 1 to 256 entries) drives three pairs in lockstep, each pair an
//! oracle plus one face of the map:
//!
//! * `TaggedLru` itself, through every operation;
//! * `AssocCache` (the TLB / prefetch buffer / data cache wrapper), whose
//!   missing `get_or_insert_with` is composed from `touch` + `insert`;
//! * `PredictionTable` (the mechanisms' table, which still scans its
//!   ways itself), which has no `remove` or `victim_for`, so its pair
//!   skips those operations.
//!
//! After every operation each pair must agree on the return value
//! (including `same_asid` and every victim), `len`, `evictions` where the
//! face exposes it, and the resident `(page, value)` multiset; at the end
//! of a case every context's view is compared key by key.

use proptest::prelude::*;
use tlbsim_core::{Asid, Associativity, PredictionTable, TaggedLru, VirtPage};
use tlbsim_mmu::{AssocCache, Evicted};

/// Contexts the sequences switch among.
const ASIDS: u16 = 4;

struct Way {
    asid: Asid,
    page: VirtPage,
    value: u64,
    last_used: u64,
}

/// The linear-scan reference: per-set `Vec`s of ways, true LRU by tick.
struct LinearLru {
    sets: Vec<Vec<Way>>,
    ways: usize,
    tick: u64,
    asid: Asid,
    evictions: u64,
}

impl LinearLru {
    fn new(capacity: usize, assoc: Associativity) -> Self {
        let sets = assoc.sets(capacity).expect("valid geometry");
        LinearLru {
            sets: (0..sets).map(|_| Vec::new()).collect(),
            ways: assoc.ways(capacity),
            tick: 0,
            asid: Asid::DEFAULT,
            evictions: 0,
        }
    }

    fn set_index(&self, page: VirtPage) -> usize {
        (page.number() % self.sets.len() as u64) as usize
    }

    fn bump(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    fn position(&self, page: VirtPage) -> Option<(usize, usize)> {
        let set = self.set_index(page);
        let pos = self.sets[set]
            .iter()
            .position(|w| w.page == page && w.asid == self.asid)?;
        Some((set, pos))
    }

    fn touch(&mut self, page: VirtPage) -> Option<u64> {
        let tick = self.bump();
        let (set, pos) = self.position(page)?;
        let way = &mut self.sets[set][pos];
        way.last_used = tick;
        Some(way.value)
    }

    fn peek(&self, page: VirtPage) -> Option<u64> {
        self.position(page)
            .map(|(set, pos)| self.sets[set][pos].value)
    }

    fn lru_of(&self, set: usize) -> usize {
        self.sets[set]
            .iter()
            .enumerate()
            .min_by_key(|(_, w)| w.last_used)
            .map(|(i, _)| i)
            .expect("full set is non-empty")
    }

    fn insert(&mut self, page: VirtPage, value: u64) -> Option<(VirtPage, u64, bool)> {
        let tick = self.bump();
        if let Some((set, pos)) = self.position(page) {
            let way = &mut self.sets[set][pos];
            way.last_used = tick;
            let old = std::mem::replace(&mut way.value, value);
            return Some((page, old, true));
        }
        let set = self.set_index(page);
        let mut evicted = None;
        if self.sets[set].len() == self.ways {
            let victim = self.lru_of(set);
            let w = self.sets[set].swap_remove(victim);
            self.evictions += 1;
            evicted = Some((w.page, w.value, w.asid == self.asid));
        }
        self.sets[set].push(Way {
            asid: self.asid,
            page,
            value,
            last_used: tick,
        });
        evicted
    }

    fn get_or_insert_with(&mut self, page: VirtPage, default: u64) -> u64 {
        match self.touch(page) {
            Some(value) => value,
            None => {
                self.insert(page, default);
                default
            }
        }
    }

    fn remove(&mut self, page: VirtPage) -> Option<u64> {
        let (set, pos) = self.position(page)?;
        Some(self.sets[set].swap_remove(pos).value)
    }

    fn victim_for(&self, page: VirtPage) -> Option<VirtPage> {
        let set = self.set_index(page);
        if self.sets[set].len() < self.ways {
            return None;
        }
        Some(self.sets[set][self.lru_of(set)].page)
    }

    fn evict_asid(&mut self, asid: Asid) {
        for set in &mut self.sets {
            set.retain(|w| w.asid != asid);
        }
    }

    fn flush(&mut self) {
        for set in &mut self.sets {
            set.clear();
        }
    }

    fn len(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }

    fn resident(&self) -> Vec<(u64, u64)> {
        sorted(
            self.sets
                .iter()
                .flatten()
                .map(|w| (w.page.number(), w.value)),
        )
    }
}

fn sorted(pairs: impl Iterator<Item = (u64, u64)>) -> Vec<(u64, u64)> {
    let mut v: Vec<(u64, u64)> = pairs.collect();
    v.sort_unstable();
    v
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Insert(u64, u64),
    Touch(u64),
    Peek(u64),
    Remove(u64),
    SetAsid(u16),
    EvictAsid(u16),
    Flush,
    VictimFor(u64),
    GetOrInsert(u64, u64),
}

/// D, 2-way, 4-way and F geometries of 1 to 256 entries.
fn geometry() -> impl Strategy<Value = (usize, Associativity)> {
    prop_oneof![
        (1usize..=256).prop_map(|n| (n, Associativity::Direct)),
        (1usize..=128).prop_map(|k| (2 * k, Associativity::ways_of(2))),
        (1usize..=64).prop_map(|k| (4 * k, Associativity::ways_of(4))),
        (1usize..=256).prop_map(|n| (n, Associativity::Full)),
    ]
}

/// Operations over raw keys (reduced to the case's key space in the
/// body). Inserts and lookups dominate; context switches are common,
/// `evict_asid` rare and flushes rarer still, so even 256-way sets fill
/// and evict between them.
fn op() -> impl Strategy<Value = Op> {
    let key = || any::<u64>();
    prop_oneof![
        (key(), any::<u64>()).prop_map(|(k, v)| Op::Insert(k, v)),
        (key(), any::<u64>()).prop_map(|(k, v)| Op::Insert(k, v)),
        (key(), any::<u64>()).prop_map(|(k, v)| Op::Insert(k, v)),
        key().prop_map(Op::Touch),
        key().prop_map(Op::Touch),
        key().prop_map(Op::Peek),
        key().prop_map(Op::Remove),
        (0u16..128).prop_map(|x| match x {
            0 => Op::Flush,
            1..=4 => Op::EvictAsid(x - 1),
            _ => Op::SetAsid(x % ASIDS),
        }),
        key().prop_map(Op::VictimFor),
        (key(), any::<u64>()).prop_map(|(k, v)| Op::GetOrInsert(k, v)),
        (key(), any::<u64>()).prop_map(|(k, v)| Op::GetOrInsert(k, v)),
    ]
}

/// Every context's view of every key of `key_space`, in a fixed order.
fn views(key_space: u64, mut peek: impl FnMut(Asid, VirtPage) -> Option<u64>) -> Vec<Option<u64>> {
    let mut out = Vec::new();
    for asid in 0..ASIDS {
        for key in 0..key_space {
            out.push(peek(Asid::new(asid), VirtPage::new(key)));
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn tagged_lru_matches_the_linear_scan_oracle_through_every_face(
        (capacity, assoc) in geometry(),
        sequence in prop::collection::vec(op(), 1..1500),
    ) {
        // Half again as many keys as entries: hits, misses, conflicts and
        // cross-context victims all occur.
        let key_space = capacity as u64 + capacity as u64 / 2 + 2;
        let mut map: TaggedLru<VirtPage, u64> = TaggedLru::new(capacity, assoc).unwrap();
        let mut cache: AssocCache<u64> = AssocCache::new(capacity, assoc).unwrap();
        let mut table: PredictionTable<VirtPage, u64> =
            PredictionTable::new(capacity, assoc).unwrap();
        let mut map_oracle = LinearLru::new(capacity, assoc);
        let mut cache_oracle = LinearLru::new(capacity, assoc);
        let mut table_oracle = LinearLru::new(capacity, assoc);

        for (i, &op) in sequence.iter().enumerate() {
            let ctx = format!("op {i} {op:?} on {capacity} x {assoc}");
            match op {
                Op::Insert(k, v) => {
                    let page = VirtPage::new(k % key_space);
                    let want = map_oracle.insert(page, v);
                    let got = map.insert(page, v).map(|d| (d.key, d.value, d.same_asid));
                    prop_assert_eq!(got, want, "map {}", ctx);
                    let want = cache_oracle.insert(page, v);
                    let got = cache
                        .insert(page, v)
                        .map(|Evicted { page, value, same_asid }| (page, value, same_asid));
                    prop_assert_eq!(got, want, "cache {}", ctx);
                    let want = table_oracle.insert(page, v).map(|(p, v, _)| (p, v));
                    prop_assert_eq!(table.insert(page, v), want, "table {}", ctx);
                }
                Op::Touch(k) => {
                    let page = VirtPage::new(k % key_space);
                    prop_assert_eq!(map.touch(page).copied(), map_oracle.touch(page), "map {}", ctx);
                    prop_assert_eq!(cache.touch(page).copied(), cache_oracle.touch(page), "cache {}", ctx);
                    prop_assert_eq!(table.get_mut(page).copied(), table_oracle.touch(page), "table {}", ctx);
                }
                Op::Peek(k) => {
                    let page = VirtPage::new(k % key_space);
                    prop_assert_eq!(map.peek(page).copied(), map_oracle.peek(page), "map {}", ctx);
                    prop_assert_eq!(map.contains(page), map_oracle.peek(page).is_some(), "map {}", ctx);
                    prop_assert_eq!(cache.peek(page).copied(), cache_oracle.peek(page), "cache {}", ctx);
                    prop_assert_eq!(cache.contains(page), cache_oracle.peek(page).is_some(), "cache {}", ctx);
                    prop_assert_eq!(table.get(page).copied(), table_oracle.peek(page), "table {}", ctx);
                    prop_assert_eq!(table.contains(page), table_oracle.peek(page).is_some(), "table {}", ctx);
                }
                Op::Remove(k) => {
                    let page = VirtPage::new(k % key_space);
                    prop_assert_eq!(map.remove(page), map_oracle.remove(page), "map {}", ctx);
                    prop_assert_eq!(cache.remove(page), cache_oracle.remove(page), "cache {}", ctx);
                }
                Op::SetAsid(a) => {
                    map.set_asid(Asid::new(a));
                    map_oracle.asid = Asid::new(a);
                    cache.set_asid(Asid::new(a));
                    cache_oracle.asid = Asid::new(a);
                    table.set_asid(Asid::new(a));
                    table_oracle.asid = Asid::new(a);
                    prop_assert_eq!(map.asid(), Asid::new(a));
                    prop_assert_eq!(cache.asid(), Asid::new(a));
                    prop_assert_eq!(table.asid(), Asid::new(a));
                }
                Op::EvictAsid(a) => {
                    map.evict_asid(Asid::new(a));
                    map_oracle.evict_asid(Asid::new(a));
                    cache.evict_asid(Asid::new(a));
                    cache_oracle.evict_asid(Asid::new(a));
                    table.evict_asid(Asid::new(a));
                    table_oracle.evict_asid(Asid::new(a));
                }
                Op::Flush => {
                    map.flush();
                    map_oracle.flush();
                    cache.flush();
                    cache_oracle.flush();
                    table.clear();
                    table_oracle.flush();
                }
                Op::VictimFor(k) => {
                    let page = VirtPage::new(k % key_space);
                    prop_assert_eq!(map.victim_for(page), map_oracle.victim_for(page), "map {}", ctx);
                    prop_assert_eq!(cache.victim_for(page), cache_oracle.victim_for(page), "cache {}", ctx);
                }
                Op::GetOrInsert(k, v) => {
                    let page = VirtPage::new(k % key_space);
                    let want = map_oracle.get_or_insert_with(page, v);
                    prop_assert_eq!(*map.get_or_insert_with(page, || v), want, "map {}", ctx);
                    let want = cache_oracle.get_or_insert_with(page, v);
                    let got = match cache.touch(page) {
                        Some(value) => *value,
                        None => {
                            cache.insert(page, v);
                            v
                        }
                    };
                    prop_assert_eq!(got, want, "cache {}", ctx);
                    let want = table_oracle.get_or_insert_with(page, v);
                    prop_assert_eq!(*table.get_or_insert_with(page, || v), want, "table {}", ctx);
                }
            }
            prop_assert_eq!(map.len(), map_oracle.len(), "map len {}", ctx);
            prop_assert_eq!(cache.len(), cache_oracle.len(), "cache len {}", ctx);
            prop_assert_eq!(table.len(), table_oracle.len(), "table len {}", ctx);
            prop_assert_eq!(map.is_empty(), map_oracle.len() == 0, "map empty {}", ctx);
            prop_assert_eq!(map.evictions(), map_oracle.evictions, "map evictions {}", ctx);
            prop_assert_eq!(table.evictions(), table_oracle.evictions, "table evictions {}", ctx);
            if i % 16 != 0 && i + 1 != sequence.len() {
                continue;
            }
            prop_assert_eq!(
                sorted(map.iter().map(|(k, v)| (k.number(), *v))),
                map_oracle.resident(),
                "map residents {}", ctx
            );
            prop_assert_eq!(
                sorted(cache.iter().map(|(k, v)| (k.number(), *v))),
                cache_oracle.resident(),
                "cache residents {}", ctx
            );
            prop_assert_eq!(
                sorted(table.iter().map(|(k, v)| (k.number(), *v))),
                table_oracle.resident(),
                "table residents {}", ctx
            );
        }

        // Every context's view, key by key: the multisets above cannot
        // tell which context an entry belongs to.
        let restore = map_oracle.asid;
        let oracle_view = views(key_space, |a, p| {
            map_oracle.asid = a;
            map_oracle.peek(p)
        });
        map_oracle.asid = restore;
        let map_view = views(key_space, |a, p| {
            map.set_asid(a);
            map.peek(p).copied()
        });
        prop_assert_eq!(map_view, oracle_view);
        let cache_view = views(key_space, |a, p| {
            cache.set_asid(a);
            cache.peek(p).copied()
        });
        let cache_oracle_view = views(key_space, |a, p| {
            cache_oracle.asid = a;
            cache_oracle.peek(p)
        });
        prop_assert_eq!(cache_view, cache_oracle_view);
        let table_view = views(key_space, |a, p| {
            table.set_asid(a);
            table.get(p).copied()
        });
        let table_oracle_view = views(key_space, |a, p| {
            table_oracle.asid = a;
            table_oracle.peek(p)
        });
        prop_assert_eq!(table_view, table_oracle_view);
    }
}
