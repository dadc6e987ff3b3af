//! The prefetch buffer shared by every prefetching mechanism.
//!
//! Prefetched translations are *not* inserted into the TLB directly —
//! they land in this small fully-associative buffer that is "concurrently
//! looked up with the TLB, and the entry is moved over to the TLB only on
//! an actual reference" (§2). This guarantees prefetching can never
//! increase the TLB miss count; the price is that an aggressive mechanism
//! can evict its own not-yet-used prefetches from the buffer, which is
//! exactly the effect that degrades ASP at `r = 1024` in Figure 7.
//!
//! The buffer holds at most `b` entries (16, 32 or 64 in every
//! experiment), so it keeps them in one most-recent-first array and
//! answers every probe with a linear scan, which at that size beats the
//! hashed index and intrusive list of the TLB's `AssocCache`.

use tlbsim_core::{Asid, Associativity, InvalidGeometry, PhysPage, VirtPage};

/// The paper's representative prefetch-buffer size (`b = 16`).
pub const DEFAULT_PREFETCH_BUFFER_ENTRIES: usize = 16;

/// Bits of a packed key below its context tag: frame numbers stay below
/// 2^48, far past any footprint a run can map.
const FRAME_BITS: u32 = 48;

/// One buffered translation: its context and frame packed into one
/// word, and its page.
#[derive(Debug, Clone, Copy)]
struct PbEntry {
    key: u64,
    page: VirtPage,
}

impl PbEntry {
    fn asid(self) -> u16 {
        (self.key >> FRAME_BITS) as u16
    }

    fn frame(self) -> PhysPage {
        PhysPage::new(self.key & ((1 << FRAME_BITS) - 1))
    }
}

/// A fully-associative LRU buffer of prefetched translations.
///
/// Entries are kept most recent first and matched by a linear scan. The
/// miss path, which has the frame in hand after its walk, asks by frame
/// ([`entry`](PrefetchBuffer::entry),
/// [`promote_frame`](PrefetchBuffer::promote_frame)): each entry's
/// context and frame are packed into one word, so a probe costs one
/// compare per entry. The page-keyed probes answer the same questions
/// whenever every frame comes from one [`PageTable`](crate::PageTable).
/// Frames must stay below 2^48. Replacement is true LRU across
/// contexts, as in a tagged TLB.
///
/// The probes the miss path makes are `#[inline]`: the miss path runs
/// in another crate, where an out-of-line call per probe cost about 7%
/// of a grid replay.
///
/// # Examples
///
/// ```
/// use tlbsim_core::{PhysPage, VirtPage};
/// use tlbsim_mmu::PrefetchBuffer;
///
/// let mut pb = PrefetchBuffer::new(16)?;
/// pb.insert(VirtPage::new(7), PhysPage::new(70));
/// // A reference to page 7 promotes the entry out of the buffer.
/// assert_eq!(pb.promote(VirtPage::new(7)), Some(PhysPage::new(70)));
/// assert!(pb.promote(VirtPage::new(7)).is_none());
/// // Probe once, then insert what the probe did not find.
/// let entry = pb.entry(PhysPage::new(80));
/// assert!(!entry.is_buffered());
/// assert_eq!(entry.insert(VirtPage::new(8)), None);
/// assert!(pb.contains(VirtPage::new(8)));
/// # Ok::<(), tlbsim_core::InvalidGeometry>(())
/// ```
#[derive(Debug, Clone)]
pub struct PrefetchBuffer {
    /// Resident entries, most recently inserted first.
    entries: Vec<PbEntry>,
    capacity: usize,
    asid: Asid,
    inserted: u64,
    promoted: u64,
    evicted_unused: u64,
}

/// The current context's slot for one frame in a [`PrefetchBuffer`],
/// from [`PrefetchBuffer::entry`]: a probe whose
/// [`insert`](BufferEntry::insert) does not scan the buffer again.
#[derive(Debug)]
pub struct BufferEntry<'a> {
    buffer: &'a mut PrefetchBuffer,
    key: u64,
    at: Option<usize>,
}

impl BufferEntry<'_> {
    /// Whether the probed frame is buffered in the current context.
    #[inline]
    pub fn is_buffered(&self) -> bool {
        self.at.is_some()
    }

    /// Inserts `page`, the probed frame's page, as
    /// [`PrefetchBuffer::insert`] does.
    #[inline]
    pub fn insert(self, page: VirtPage) -> Option<VirtPage> {
        self.buffer.fill(self.at, self.key, page)
    }
}

impl PrefetchBuffer {
    /// Creates a buffer of `entries` translations.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidGeometry`] if `entries` is zero.
    pub fn new(entries: usize) -> Result<Self, InvalidGeometry> {
        // The fully-associative geometry check: zero entries is invalid.
        Associativity::Full.sets(entries)?;
        Ok(PrefetchBuffer {
            entries: Vec::with_capacity(entries),
            capacity: entries,
            asid: Asid::DEFAULT,
            inserted: 0,
            promoted: 0,
            evicted_unused: 0,
        })
    }

    /// The current context's packed key for `frame`.
    #[inline]
    fn key(&self, frame: PhysPage) -> u64 {
        debug_assert!(
            frame.number() >> FRAME_BITS == 0,
            "frame {frame:?} out of range"
        );
        u64::from(self.asid.raw()) << FRAME_BITS | frame.number()
    }

    /// The index of the entry keyed `key`.
    #[inline]
    fn position(&self, key: u64) -> Option<usize> {
        self.entries.iter().position(|e| e.key == key)
    }

    /// The index of the current context's entry for `page`.
    fn find_page(&self, page: VirtPage) -> Option<usize> {
        let asid = self.asid.raw();
        self.entries
            .iter()
            .position(|e| e.page == page && e.asid() == asid)
    }

    /// Puts `page` under `key` first, dropping the entry at `at` (the
    /// same context's entry for it) or else, when full, the last one.
    /// Returns the page of a dropped last entry.
    #[inline]
    fn fill(&mut self, at: Option<usize>, key: u64, page: VirtPage) -> Option<VirtPage> {
        self.inserted += 1;
        let evicted = match at {
            Some(at) => {
                self.entries.remove(at);
                None
            }
            // A capacity victim is wasted traffic whichever context owned it.
            None if self.entries.len() == self.capacity => {
                self.evicted_unused += 1;
                self.entries.pop().map(|e| e.page)
            }
            None => None,
        };
        self.entries.insert(0, PbEntry { key, page });
        evicted
    }

    /// Probes the buffer for the current context's translation to
    /// `frame` (no recency update), for an insert that follows.
    #[inline]
    pub fn entry(&mut self, frame: PhysPage) -> BufferEntry<'_> {
        let key = self.key(frame);
        let at = self.position(key);
        BufferEntry {
            buffer: self,
            key,
            at,
        }
    }

    /// Inserts a prefetched translation as most recently used, evicting
    /// the LRU entry of any context if full.
    ///
    /// Returns the evicted page, which by construction was never used
    /// (used entries leave through [`PrefetchBuffer::promote`]). Inserting
    /// a page the current context already buffers refreshes that entry
    /// and evicts nothing.
    pub fn insert(&mut self, page: VirtPage, frame: PhysPage) -> Option<VirtPage> {
        self.fill(self.find_page(page), self.key(frame), page)
    }

    /// Returns `true` if `page` is buffered (no recency update).
    pub fn contains(&self, page: VirtPage) -> bool {
        self.find_page(page).is_some()
    }

    /// Removes and returns the translation for `page` on an actual
    /// reference — the "move over to the TLB" step.
    pub fn promote(&mut self, page: VirtPage) -> Option<PhysPage> {
        let at = self.find_page(page)?;
        self.promoted += 1;
        Some(self.entries.remove(at).frame())
    }

    /// [`promote`](PrefetchBuffer::promote) by frame: removes the
    /// translation to `frame` and returns whether it was buffered.
    #[inline]
    pub fn promote_frame(&mut self, frame: PhysPage) -> bool {
        let Some(at) = self.position(self.key(frame)) else {
            return false;
        };
        self.promoted += 1;
        self.entries.remove(at);
        true
    }

    /// Invalidates every buffered translation.
    pub fn flush(&mut self) {
        self.entries.clear();
    }

    /// Switches the current context tag (flush-free context switch).
    pub fn set_asid(&mut self, asid: Asid) {
        self.asid = asid;
    }

    /// The current context tag.
    pub fn asid(&self) -> Asid {
        self.asid
    }

    /// Invalidates every buffered translation tagged with `asid` without
    /// counting the drops as wasted prefetches — mirroring
    /// [`flush`](PrefetchBuffer::flush), which the degeneration argument
    /// (one live context ⇒ flush semantics) depends on. The other
    /// contexts' entries keep their recency order.
    pub fn evict_asid(&mut self, asid: Asid) {
        self.entries.retain(|e| e.asid() != asid.raw());
    }

    /// Resident entry count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Buffer capacity (`b` in the paper).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Prefetches inserted since creation.
    pub fn inserted(&self) -> u64 {
        self.inserted
    }

    /// Prefetches promoted to the TLB (i.e. useful prefetches).
    pub fn promoted(&self) -> u64 {
        self.promoted
    }

    /// Prefetches evicted before ever being used (wasted traffic).
    pub fn evicted_unused(&self) -> u64 {
        self.evicted_unused
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pb(n: usize) -> PrefetchBuffer {
        PrefetchBuffer::new(n).unwrap()
    }

    #[test]
    fn promote_removes_the_entry() {
        let mut b = pb(4);
        b.insert(VirtPage::new(1), PhysPage::new(10));
        assert!(b.contains(VirtPage::new(1)));
        assert_eq!(b.promote(VirtPage::new(1)), Some(PhysPage::new(10)));
        assert!(!b.contains(VirtPage::new(1)));
        assert_eq!(b.promoted(), 1);
    }

    #[test]
    fn overflow_evicts_lru_and_counts_waste() {
        let mut b = pb(2);
        b.insert(VirtPage::new(1), PhysPage::new(1));
        b.insert(VirtPage::new(2), PhysPage::new(2));
        let ev = b.insert(VirtPage::new(3), PhysPage::new(3));
        assert_eq!(ev, Some(VirtPage::new(1)));
        assert_eq!(b.evicted_unused(), 1);
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn reinsert_same_page_is_not_waste() {
        let mut b = pb(2);
        b.insert(VirtPage::new(1), PhysPage::new(1));
        let ev = b.insert(VirtPage::new(1), PhysPage::new(1));
        assert_eq!(ev, None);
        assert_eq!(b.evicted_unused(), 0);
        assert_eq!(b.len(), 1);
        assert_eq!(b.inserted(), 2);
    }

    #[test]
    fn aggressive_insertion_starves_earlier_prefetches() {
        // The Figure-7 ASP-at-1024 effect in miniature: 4 useful entries
        // pushed out by a flood before the reference arrives.
        let mut b = pb(4);
        for p in 1..=4u64 {
            b.insert(VirtPage::new(p), PhysPage::new(p));
        }
        for p in 100..108u64 {
            b.insert(VirtPage::new(p), PhysPage::new(p));
        }
        for p in 1..=4u64 {
            assert_eq!(b.promote(VirtPage::new(p)), None);
        }
        assert_eq!(b.evicted_unused(), 8);
    }

    #[test]
    fn flush_empties_buffer() {
        let mut b = pb(2);
        b.insert(VirtPage::new(1), PhysPage::new(1));
        b.flush();
        assert!(b.is_empty());
        assert_eq!(b.capacity(), 2);
    }

    #[test]
    fn contexts_buffer_independently() {
        let mut b = pb(4);
        b.insert(VirtPage::new(1), PhysPage::new(10));
        b.set_asid(Asid::new(3));
        assert!(!b.contains(VirtPage::new(1)));
        assert_eq!(b.promote(VirtPage::new(1)), None);
        b.insert(VirtPage::new(1), PhysPage::new(30));
        assert_eq!(b.promote(VirtPage::new(1)), Some(PhysPage::new(30)));
        b.set_asid(Asid::DEFAULT);
        assert_eq!(b.promote(VirtPage::new(1)), Some(PhysPage::new(10)));
    }

    #[test]
    fn evict_asid_does_not_count_waste() {
        let mut b = pb(2);
        b.insert(VirtPage::new(1), PhysPage::new(1));
        b.evict_asid(Asid::DEFAULT);
        assert!(b.is_empty());
        assert_eq!(b.evicted_unused(), 0);
    }

    #[test]
    fn frame_probes_match_the_page_probes() {
        let mut b = pb(4);
        b.insert(VirtPage::new(1), PhysPage::new(10));
        b.insert(VirtPage::new(2), PhysPage::new(20));
        assert!(b.entry(PhysPage::new(20)).is_buffered());
        assert!(!b.entry(PhysPage::new(1)).is_buffered());
        // Inserting through a probe refreshes a buffered entry.
        assert_eq!(b.entry(PhysPage::new(10)).insert(VirtPage::new(1)), None);
        assert_eq!(b.len(), 2);
        // The key carries the context: another ASID sees nothing.
        b.set_asid(Asid::new(1));
        assert!(!b.entry(PhysPage::new(20)).is_buffered());
        assert!(!b.promote_frame(PhysPage::new(20)));
        b.set_asid(Asid::DEFAULT);
        assert!(b.promote_frame(PhysPage::new(20)));
        assert!(!b.contains(VirtPage::new(2)));
        assert_eq!(b.promoted(), 1);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn zero_capacity_is_rejected() {
        assert!(PrefetchBuffer::new(0).is_err());
    }
}
