//! The generic on-chip prediction table used by ASP, MP and DP.
//!
//! The paper parameterises all three table-based prefetchers identically:
//! `r` rows, indexed direct-mapped / 2-way / 4-way / fully-associative,
//! with a tag of the indexing field stored per row (§2.6, Table 1). The
//! row payload differs per scheme (an RPT entry for ASP, `s` page slots
//! for MP, `s` distance slots for DP), so [`PredictionTable`] is generic
//! over both the key and the payload. Replacement within a set is true
//! LRU, matching row-eviction "because of conflicts" in §2.3.
//!
//! Rows are found by scanning the ways of their set and evicted by the
//! smallest last-use tick. That is cheap at the D/2/4 geometries the
//! mechanisms mostly run, but a fully associative table scans every row
//! per lookup. The TLB and the prefetch buffer avoid the scan through
//! [`TaggedLru`](crate::TaggedLru), which has the same contract; the
//! differential oracle in `crates/mmu/tests/lru_oracle.rs` checks this
//! table and the map against one linear-scan reference.

use std::fmt;

use crate::assoc::{Associativity, InvalidGeometry};
use crate::types::Asid;

/// A key usable to index a [`PredictionTable`].
///
/// The returned index is reduced modulo the set count; the full key is
/// stored alongside each row as the tag.
pub trait TableKey: Copy + Eq {
    /// Projects the key onto an unsigned value used for set selection.
    fn index_value(self) -> u64;
}

impl TableKey for crate::types::Pc {
    fn index_value(self) -> u64 {
        // Word-align: low bits of real PCs are mostly zero, which would
        // cluster rows into few sets on direct-mapped tables.
        self.raw() >> 2
    }
}

impl TableKey for crate::types::VirtPage {
    fn index_value(self) -> u64 {
        self.number()
    }
}

impl TableKey for crate::types::Distance {
    fn index_value(self) -> u64 {
        // Two's-complement reinterpretation keeps small negative distances
        // (the common backward strides) from colliding with small positive
        // ones after the modulo.
        self.value() as u64
    }
}

#[derive(Debug, Clone)]
struct Row<K, V> {
    asid: Asid,
    tag: K,
    value: V,
    last_used: u64,
}

/// A fixed-capacity, set-associative, tagged prediction table with LRU
/// replacement inside each set.
///
/// Rows carry the [`Asid`] current at install time and lookups match on
/// `(asid, tag)` against the table's context register
/// ([`set_asid`](PredictionTable::set_asid)), so several contexts can
/// learn patterns in one shared-competitive table without reading each
/// other's rows. Set selection stays a pure function of the key — the
/// context lives only in the tag comparison.
///
/// # Examples
///
/// ```
/// use tlbsim_core::{Associativity, Distance, PredictionTable};
///
/// let mut table: PredictionTable<Distance, u32> =
///     PredictionTable::new(256, Associativity::Direct)?;
/// table.insert(Distance::new(3), 7);
/// assert_eq!(table.get(Distance::new(3)), Some(&7));
/// assert_eq!(table.get(Distance::new(4)), None);
/// # Ok::<(), tlbsim_core::InvalidGeometry>(())
/// ```
#[derive(Debug, Clone)]
pub struct PredictionTable<K, V> {
    sets: Vec<Vec<Row<K, V>>>,
    ways: usize,
    rows: usize,
    assoc: Associativity,
    tick: u64,
    evictions: u64,
    asid: Asid,
}

impl<K: TableKey, V> PredictionTable<K, V> {
    /// Creates a table with `rows` total rows organised by `assoc`.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidGeometry`] if `rows` is zero or not divisible by
    /// the way count implied by `assoc`.
    pub fn new(rows: usize, assoc: Associativity) -> Result<Self, InvalidGeometry> {
        let set_count = assoc.sets(rows)?;
        let ways = assoc.ways(rows);
        let mut sets = Vec::with_capacity(set_count);
        for _ in 0..set_count {
            sets.push(Vec::with_capacity(ways));
        }
        Ok(PredictionTable {
            sets,
            ways,
            rows,
            assoc,
            tick: 0,
            evictions: 0,
            asid: Asid::DEFAULT,
        })
    }

    fn set_index(&self, key: K) -> usize {
        (key.index_value() % self.sets.len() as u64) as usize
    }

    /// Switches the current context: subsequent lookups and inserts are
    /// tagged with `asid`. No row is touched.
    pub fn set_asid(&mut self, asid: Asid) {
        self.asid = asid;
    }

    /// The current context tag.
    pub fn asid(&self) -> Asid {
        self.asid
    }

    /// Drops every row tagged with `asid` without counting conflict
    /// evictions — the targeted analogue of
    /// [`clear`](PredictionTable::clear).
    pub fn evict_asid(&mut self, asid: Asid) {
        for set in &mut self.sets {
            set.retain(|row| row.asid != asid);
        }
    }

    fn bump(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Looks up `key` in the current context without updating recency
    /// ("peek").
    pub fn get(&self, key: K) -> Option<&V> {
        let set = &self.sets[self.set_index(key)];
        set.iter()
            .find(|row| row.tag == key && row.asid == self.asid)
            .map(|row| &row.value)
    }

    /// Looks up `key` in the current context, marking the row most
    /// recently used on a hit.
    pub fn get_mut(&mut self, key: K) -> Option<&mut V> {
        let tick = self.bump();
        let asid = self.asid;
        let idx = self.set_index(key);
        let set = &mut self.sets[idx];
        set.iter_mut()
            .find(|row| row.tag == key && row.asid == asid)
            .map(|row| {
                row.last_used = tick;
                &mut row.value
            })
    }

    /// Inserts `key -> value`, replacing an existing row with the same tag
    /// or evicting the LRU row of a full set.
    ///
    /// Returns the displaced `(key, value)` pair, if any. A replaced
    /// same-tag row returns its old value under the same key.
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        let tick = self.bump();
        let ways = self.ways;
        let asid = self.asid;
        let idx = self.set_index(key);
        let set = &mut self.sets[idx];
        if let Some(row) = set
            .iter_mut()
            .find(|row| row.tag == key && row.asid == asid)
        {
            row.last_used = tick;
            let old = std::mem::replace(&mut row.value, value);
            return Some((key, old));
        }
        let mut displaced = None;
        if set.len() == ways {
            let victim = set
                .iter()
                .enumerate()
                .min_by_key(|(_, row)| row.last_used)
                .map(|(i, _)| i)
                .expect("full set is non-empty");
            let row = set.swap_remove(victim);
            self.evictions += 1;
            displaced = Some((row.tag, row.value));
        }
        set.push(Row {
            asid,
            tag: key,
            value,
            last_used: tick,
        });
        displaced
    }

    /// Returns the row for `key`, inserting `default()` first if absent.
    ///
    /// The row is marked most recently used either way. If the insertion
    /// evicts a conflicting row, that row is dropped (the hardware simply
    /// overwrites it).
    pub fn get_or_insert_with(&mut self, key: K, default: impl FnOnce() -> V) -> &mut V {
        let tick = self.bump();
        let ways = self.ways;
        let asid = self.asid;
        let idx = self.set_index(key);
        let set = &mut self.sets[idx];
        if let Some(pos) = set
            .iter()
            .position(|row| row.tag == key && row.asid == asid)
        {
            let row = &mut set[pos];
            row.last_used = tick;
            return &mut row.value;
        }
        if set.len() == ways {
            let victim = set
                .iter()
                .enumerate()
                .min_by_key(|(_, row)| row.last_used)
                .map(|(i, _)| i)
                .expect("full set is non-empty");
            set.swap_remove(victim);
            self.evictions += 1;
        }
        set.push(Row {
            asid,
            tag: key,
            value: default(),
            last_used: tick,
        });
        let pos = set.len() - 1;
        &mut set[pos].value
    }

    /// Returns `true` if a row with `key`'s tag is resident.
    pub fn contains(&self, key: K) -> bool {
        self.get(key).is_some()
    }

    /// Number of occupied rows.
    pub fn len(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }

    /// Returns `true` if no row is occupied.
    pub fn is_empty(&self) -> bool {
        self.sets.iter().all(Vec::is_empty)
    }

    /// Total row capacity (`r` in the paper).
    pub fn capacity(&self) -> usize {
        self.rows
    }

    /// Configured associativity.
    pub fn associativity(&self) -> Associativity {
        self.assoc
    }

    /// Number of rows displaced by conflicts since creation.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Drops every row (a context-switch flush), keeping geometry and the
    /// eviction counter.
    pub fn clear(&mut self) {
        for set in &mut self.sets {
            set.clear();
        }
    }

    /// Iterates over `(key, value)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.sets
            .iter()
            .flat_map(|set| set.iter().map(|row| (&row.tag, &row.value)))
    }
}

impl<K: TableKey + fmt::Debug, V> fmt::Display for PredictionTable<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "prediction table: {} rows, {} assoc, {}/{} occupied",
            self.rows,
            self.assoc,
            self.len(),
            self.rows
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Distance, Pc, VirtPage};

    fn direct(rows: usize) -> PredictionTable<VirtPage, u32> {
        PredictionTable::new(rows, Associativity::Direct).unwrap()
    }

    #[test]
    fn geometry_errors_propagate() {
        assert!(PredictionTable::<VirtPage, u32>::new(0, Associativity::Direct).is_err());
        assert!(PredictionTable::<VirtPage, u32>::new(10, Associativity::ways_of(4)).is_err());
    }

    #[test]
    fn direct_mapped_conflicts_evict() {
        let mut t = direct(4);
        t.insert(VirtPage::new(0), 100);
        // Page 4 maps to the same set as page 0 in a 4-set direct table.
        let displaced = t.insert(VirtPage::new(4), 200);
        assert_eq!(displaced, Some((VirtPage::new(0), 100)));
        assert_eq!(t.get(VirtPage::new(4)), Some(&200));
        assert_eq!(t.get(VirtPage::new(0)), None);
        assert_eq!(t.evictions(), 1);
    }

    #[test]
    fn same_tag_insert_replaces_value() {
        let mut t = direct(4);
        t.insert(VirtPage::new(1), 10);
        let old = t.insert(VirtPage::new(1), 20);
        assert_eq!(old, Some((VirtPage::new(1), 10)));
        assert_eq!(t.len(), 1);
        assert_eq!(t.evictions(), 0);
    }

    #[test]
    fn full_assoc_uses_lru_replacement() {
        let mut t: PredictionTable<VirtPage, u32> =
            PredictionTable::new(2, Associativity::Full).unwrap();
        t.insert(VirtPage::new(10), 1);
        t.insert(VirtPage::new(20), 2);
        // Touch page 10 so that 20 becomes LRU.
        assert_eq!(t.get_mut(VirtPage::new(10)), Some(&mut 1));
        let displaced = t.insert(VirtPage::new(30), 3);
        assert_eq!(displaced, Some((VirtPage::new(20), 2)));
        assert!(t.contains(VirtPage::new(10)));
        assert!(t.contains(VirtPage::new(30)));
    }

    #[test]
    fn set_associative_isolates_sets() {
        // 4 rows, 2-way => 2 sets. Even pages to set 0, odd to set 1.
        let mut t: PredictionTable<VirtPage, u32> =
            PredictionTable::new(4, Associativity::ways_of(2)).unwrap();
        t.insert(VirtPage::new(0), 1);
        t.insert(VirtPage::new(2), 2);
        t.insert(VirtPage::new(1), 3);
        // Filling set 0 further must not disturb set 1.
        t.insert(VirtPage::new(4), 4);
        assert!(t.contains(VirtPage::new(1)));
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn get_or_insert_with_creates_once() {
        let mut t = direct(8);
        *t.get_or_insert_with(VirtPage::new(3), || 0) += 5;
        *t.get_or_insert_with(VirtPage::new(3), || 0) += 5;
        assert_eq!(t.get(VirtPage::new(3)), Some(&10));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn negative_distance_keys_do_not_collide_with_positive() {
        let mut t: PredictionTable<Distance, u32> =
            PredictionTable::new(256, Associativity::Direct).unwrap();
        t.insert(Distance::new(1), 1);
        t.insert(Distance::new(-1), 2);
        assert_eq!(t.get(Distance::new(1)), Some(&1));
        assert_eq!(t.get(Distance::new(-1)), Some(&2));
    }

    #[test]
    fn pc_keys_ignore_byte_offset_bits() {
        // Two PCs differing only in the low 2 bits select the same set but
        // remain distinguishable by tag.
        let mut t: PredictionTable<Pc, u32> =
            PredictionTable::new(16, Associativity::Direct).unwrap();
        t.insert(Pc::new(0x1000), 1);
        assert_eq!(t.get(Pc::new(0x1001)), None);
    }

    #[test]
    fn clear_empties_but_keeps_geometry() {
        let mut t = direct(4);
        t.insert(VirtPage::new(1), 1);
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.capacity(), 4);
    }

    #[test]
    fn iter_visits_all_rows() {
        let mut t = direct(8);
        for i in 0..5u64 {
            t.insert(VirtPage::new(i), i as u32);
        }
        let mut keys: Vec<u64> = t.iter().map(|(k, _)| k.number()).collect();
        keys.sort_unstable();
        assert_eq!(keys, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn contexts_keep_separate_rows_under_one_tag() {
        let mut t = direct(4);
        t.insert(VirtPage::new(1), 10);
        t.set_asid(Asid::new(2));
        assert_eq!(t.get(VirtPage::new(1)), None);
        // Same key, other context: evicts the direct-mapped way (a
        // genuine cross-context conflict), then reads back its own row.
        t.insert(VirtPage::new(1), 20);
        assert_eq!(t.get(VirtPage::new(1)), Some(&20));
        assert_eq!(t.evictions(), 1);
        t.set_asid(Asid::DEFAULT);
        assert_eq!(t.get(VirtPage::new(1)), None);
    }

    #[test]
    fn evict_asid_drops_only_that_context_without_counting() {
        let mut t: PredictionTable<VirtPage, u32> =
            PredictionTable::new(8, Associativity::Full).unwrap();
        t.insert(VirtPage::new(1), 1);
        t.set_asid(Asid::new(1));
        t.insert(VirtPage::new(2), 2);
        t.insert(VirtPage::new(3), 3);
        t.evict_asid(Asid::new(1));
        assert_eq!(t.len(), 1);
        assert_eq!(t.evictions(), 0);
        t.set_asid(Asid::DEFAULT);
        assert_eq!(t.get(VirtPage::new(1)), Some(&1));
    }

    #[test]
    fn get_or_insert_with_is_context_scoped() {
        let mut t: PredictionTable<VirtPage, u32> =
            PredictionTable::new(8, Associativity::Full).unwrap();
        *t.get_or_insert_with(VirtPage::new(3), || 0) += 5;
        t.set_asid(Asid::new(7));
        *t.get_or_insert_with(VirtPage::new(3), || 100) += 1;
        assert_eq!(t.get(VirtPage::new(3)), Some(&101));
        t.set_asid(Asid::DEFAULT);
        assert_eq!(t.get(VirtPage::new(3)), Some(&5));
    }

    #[test]
    fn len_never_exceeds_capacity_under_pressure() {
        let mut t: PredictionTable<VirtPage, u32> =
            PredictionTable::new(8, Associativity::ways_of(2)).unwrap();
        for i in 0..1000u64 {
            t.insert(VirtPage::new(i * 3), i as u32);
            assert!(t.len() <= t.capacity());
        }
    }
}
