//! The generic on-chip prediction table used by ASP, MP, DP, TP and the
//! confidence throttle.
//!
//! The paper parameterises all the table-based prefetchers identically:
//! `r` rows, indexed direct-mapped / 2-way / 4-way / fully-associative,
//! with a tag of the indexing field stored per row (§2.6, Table 1). The
//! row payload differs per scheme (an RPT entry for ASP, `s` page slots
//! for MP, `s` distance slots for DP), so [`PredictionTable`] is generic
//! over both the key and the payload. Replacement within a set is true
//! LRU, matching row-eviction "because of conflicts" in §2.3.
//!
//! The table picks its storage once, in [`PredictionTable::new`], from
//! the width of its sets:
//!
//! * sets of at most four ways (D, 2-way, 4-way, and F tables of up to
//!   four rows) keep a per-set `Vec` of rows. A lookup scans the set's
//!   ways, at most four rows, and a fill into a full set evicts the row
//!   with the smallest last-use tick;
//! * wider sets (in the paper's grid, only `MP,256,F`) go through
//!   [`TaggedLru`](crate::TaggedLru), whose bucket index makes lookup,
//!   fill and victim choice O(1) under the same ASID-tagged, true-LRU
//!   contract, instead of scanning every row twice per fill.
//!
//! Either way the set is chosen by a mask when the set count is a power
//! of two and by `%` otherwise, and no operation allocates after `new`.
//! The differential oracle in `crates/mmu/tests/lru_oracle.rs` checks
//! both storages and the map against one linear-scan reference, and
//! `crates/core/tests/properties.rs` drives a wide table and a
//! `TaggedLru` of the same geometry through the remaining operations.

use std::fmt;

use crate::assoc::{Associativity, InvalidGeometry};
use crate::lru::TaggedLru;
use crate::types::Asid;

/// A key usable to index a [`PredictionTable`].
///
/// The returned index is reduced modulo the set count (a mask when the
/// count is a power of two); the full key is stored alongside each row as
/// the tag.
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

/// Set selection shared by [`PredictionTable`] and
/// [`TaggedLru`](crate::TaggedLru): `index_value % sets`, computed as a
/// mask when the set count is a power of two.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SetSelect {
    sets: u64,
    /// `sets - 1` when the set count is a power of two.
    mask: Option<u64>,
}

impl SetSelect {
    pub(crate) fn new(sets: usize) -> Self {
        SetSelect {
            sets: sets as u64,
            mask: sets.is_power_of_two().then(|| sets as u64 - 1),
        }
    }

    /// The set `key` maps to.
    #[inline(always)]
    pub(crate) fn of(self, key: impl TableKey) -> usize {
        let value = key.index_value();
        match self.mask {
            Some(mask) => (value & mask) as usize,
            None => (value % self.sets) as usize,
        }
    }
}

/// Widest set that is scanned in place; wider sets use [`TaggedLru`].
const SCAN_WAYS: usize = 4;

#[derive(Debug, Clone)]
struct Row<K, V> {
    asid: Asid,
    tag: K,
    value: V,
    last_used: u64,
}

/// Narrow-set storage: one `Vec` of at most [`SCAN_WAYS`] rows per set,
/// scanned per lookup, with the victim chosen by the smallest tick.
#[derive(Debug, Clone)]
struct ScanSets<K, V> {
    sets: Vec<Vec<Row<K, V>>>,
    select: SetSelect,
    ways: usize,
    tick: u64,
    evictions: u64,
    asid: Asid,
}

impl<K: TableKey, V> ScanSets<K, V> {
    fn new(set_count: usize, ways: usize) -> Self {
        let mut sets = Vec::with_capacity(set_count);
        for _ in 0..set_count {
            sets.push(Vec::with_capacity(ways));
        }
        ScanSets {
            sets,
            select: SetSelect::new(set_count),
            ways,
            tick: 0,
            evictions: 0,
            asid: Asid::DEFAULT,
        }
    }

    fn bump(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    fn get(&self, key: K) -> Option<&V> {
        self.sets[self.select.of(key)]
            .iter()
            .find(|row| row.tag == key && row.asid == self.asid)
            .map(|row| &row.value)
    }

    fn get_mut(&mut self, key: K) -> Option<&mut V> {
        let tick = self.bump();
        let asid = self.asid;
        let idx = self.select.of(key);
        self.sets[idx]
            .iter_mut()
            .find(|row| row.tag == key && row.asid == asid)
            .map(|row| {
                row.last_used = tick;
                &mut row.value
            })
    }

    /// Makes room in the set `idx` for a new row: drops its LRU row if
    /// the set is full, returning it.
    fn make_room(&mut self, idx: usize) -> Option<Row<K, V>> {
        let set = &mut self.sets[idx];
        if set.len() < self.ways {
            return None;
        }
        let victim = set
            .iter()
            .enumerate()
            .min_by_key(|(_, row)| row.last_used)
            .map(|(i, _)| i)?;
        self.evictions += 1;
        Some(set.swap_remove(victim))
    }

    fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        let tick = self.bump();
        let asid = self.asid;
        let idx = self.select.of(key);
        if let Some(row) = self.sets[idx]
            .iter_mut()
            .find(|row| row.tag == key && row.asid == asid)
        {
            row.last_used = tick;
            let old = std::mem::replace(&mut row.value, value);
            return Some((key, old));
        }
        let displaced = self.make_room(idx).map(|row| (row.tag, row.value));
        self.sets[idx].push(Row {
            asid,
            tag: key,
            value,
            last_used: tick,
        });
        displaced
    }

    fn get_or_insert_with(&mut self, key: K, default: impl FnOnce() -> V) -> &mut V {
        let tick = self.bump();
        let asid = self.asid;
        let idx = self.select.of(key);
        let pos = match self.sets[idx]
            .iter()
            .position(|row| row.tag == key && row.asid == asid)
        {
            Some(pos) => pos,
            None => {
                self.make_room(idx);
                self.sets[idx].push(Row {
                    asid,
                    tag: key,
                    value: default(),
                    last_used: tick,
                });
                self.sets[idx].len() - 1
            }
        };
        let row = &mut self.sets[idx][pos];
        row.last_used = tick;
        &mut row.value
    }

    fn evict_asid(&mut self, asid: Asid) {
        for set in &mut self.sets {
            set.retain(|row| row.asid != asid);
        }
    }

    fn clear(&mut self) {
        for set in &mut self.sets {
            set.clear();
        }
    }

    fn len(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }

    fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.sets
            .iter()
            .flat_map(|set| set.iter().map(|row| (&row.tag, &row.value)))
    }
}

/// The table's storage, chosen in [`PredictionTable::new`] by set width.
#[derive(Debug, Clone)]
enum Storage<K, V> {
    /// Sets of at most [`SCAN_WAYS`] ways.
    Scan(ScanSets<K, V>),
    /// Wider sets.
    Indexed(TaggedLru<K, V>),
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
    storage: Storage<K, V>,
    rows: usize,
    assoc: Associativity,
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
        let storage = if ways <= SCAN_WAYS {
            Storage::Scan(ScanSets::new(set_count, ways))
        } else {
            Storage::Indexed(TaggedLru::new(rows, assoc)?)
        };
        Ok(PredictionTable {
            storage,
            rows,
            assoc,
        })
    }

    /// Switches the current context: subsequent lookups and inserts are
    /// tagged with `asid`. No row is touched.
    pub fn set_asid(&mut self, asid: Asid) {
        match &mut self.storage {
            Storage::Scan(s) => s.asid = asid,
            Storage::Indexed(m) => m.set_asid(asid),
        }
    }

    /// The current context tag.
    pub fn asid(&self) -> Asid {
        match &self.storage {
            Storage::Scan(s) => s.asid,
            Storage::Indexed(m) => m.asid(),
        }
    }

    /// Drops every row tagged with `asid` without counting conflict
    /// evictions — the targeted analogue of
    /// [`clear`](PredictionTable::clear).
    pub fn evict_asid(&mut self, asid: Asid) {
        match &mut self.storage {
            Storage::Scan(s) => s.evict_asid(asid),
            Storage::Indexed(m) => m.evict_asid(asid),
        }
    }

    /// Looks up `key` in the current context without updating recency
    /// ("peek").
    pub fn get(&self, key: K) -> Option<&V> {
        match &self.storage {
            Storage::Scan(s) => s.get(key),
            Storage::Indexed(m) => m.peek(key),
        }
    }

    /// Looks up `key` in the current context, marking the row most
    /// recently used on a hit.
    pub fn get_mut(&mut self, key: K) -> Option<&mut V> {
        match &mut self.storage {
            Storage::Scan(s) => s.get_mut(key),
            Storage::Indexed(m) => m.touch(key),
        }
    }

    /// Inserts `key -> value`, replacing an existing row with the same tag
    /// or evicting the LRU row of a full set.
    ///
    /// Returns the displaced `(key, value)` pair, if any. A replaced
    /// same-tag row returns its old value under the same key.
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        match &mut self.storage {
            Storage::Scan(s) => s.insert(key, value),
            Storage::Indexed(m) => m.insert(key, value).map(|d| (d.key, d.value)),
        }
    }

    /// Returns the row for `key`, inserting `default()` first if absent.
    ///
    /// The row is marked most recently used either way. If the insertion
    /// evicts a conflicting row, that row is dropped (the hardware simply
    /// overwrites it).
    pub fn get_or_insert_with(&mut self, key: K, default: impl FnOnce() -> V) -> &mut V {
        match &mut self.storage {
            Storage::Scan(s) => s.get_or_insert_with(key, default),
            Storage::Indexed(m) => m.get_or_insert_with(key, default),
        }
    }

    /// Returns `true` if a row with `key`'s tag is resident.
    pub fn contains(&self, key: K) -> bool {
        self.get(key).is_some()
    }

    /// Number of occupied rows.
    pub fn len(&self) -> usize {
        match &self.storage {
            Storage::Scan(s) => s.len(),
            Storage::Indexed(m) => m.len(),
        }
    }

    /// Returns `true` if no row is occupied.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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
        match &self.storage {
            Storage::Scan(s) => s.evictions,
            Storage::Indexed(m) => m.evictions(),
        }
    }

    /// Drops every row (a context-switch flush), keeping geometry and the
    /// eviction counter.
    pub fn clear(&mut self) {
        match &mut self.storage {
            Storage::Scan(s) => s.clear(),
            Storage::Indexed(m) => m.flush(),
        }
    }

    /// Iterates over `(key, value)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        let (scan, indexed) = match &self.storage {
            Storage::Scan(s) => (Some(s.iter()), None),
            Storage::Indexed(m) => (None, Some(m.iter())),
        };
        scan.into_iter()
            .flatten()
            .chain(indexed.into_iter().flatten())
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
