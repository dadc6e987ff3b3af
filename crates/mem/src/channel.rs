//! The serialized prefetch-traffic channel.
//!
//! The paper's timing experiment deliberately uses a model *biased in
//! RP's favour*: prefetch memory traffic "does not contend with the
//! normal data traffic, but only with other prefetch traffic". This
//! module models that single channel: operations (prefetch fetches and
//! RP's LRU-stack pointer updates) occupy the channel back-to-back for
//! [`TimingParams::memory_op_cost`] cycles each, and the engine can ask
//! when a given page's prefetch will arrive — a demand miss whose
//! prefetch "has already been issued … is made to stall until the entry
//! arrives".
//!
//! [`TimingParams::memory_op_cost`]: crate::TimingParams

use std::collections::HashMap;

use tlbsim_core::VirtPage;

/// A single serialized memory channel carrying prefetch-related traffic.
///
/// # Examples
///
/// ```
/// use tlbsim_core::VirtPage;
/// use tlbsim_mem::PrefetchChannel;
///
/// let mut ch = PrefetchChannel::new(50);
/// let done1 = ch.issue_fetch(0, VirtPage::new(1));
/// let done2 = ch.issue_fetch(0, VirtPage::new(2));
/// assert_eq!(done1, 50);
/// assert_eq!(done2, 100); // serialized behind the first
/// ```
#[derive(Debug, Clone)]
pub struct PrefetchChannel {
    op_cost: u64,
    busy_until: u64,
    in_flight: HashMap<VirtPage, u64>,
    ops_issued: u64,
    fetches_issued: u64,
}

impl PrefetchChannel {
    /// Creates a channel whose operations take `op_cost` cycles each.
    pub fn new(op_cost: u64) -> Self {
        PrefetchChannel {
            op_cost,
            busy_until: 0,
            in_flight: HashMap::new(),
            ops_issued: 0,
            fetches_issued: 0,
        }
    }

    /// Returns `true` if any earlier operation is still outstanding at
    /// `now` — the condition under which the paper's RP variant skips its
    /// prefetches and only updates the LRU stack.
    pub fn is_busy(&self, now: u64) -> bool {
        self.busy_until > now
    }

    /// Issues a page-table fetch for `page`, returning its completion
    /// cycle.
    pub fn issue_fetch(&mut self, now: u64, page: VirtPage) -> u64 {
        let done = self.occupy(now);
        self.fetches_issued += 1;
        self.in_flight.insert(page, done);
        done
    }

    /// Issues `count` state-maintenance operations (e.g. RP pointer
    /// writes), returning the cycle the last one completes.
    pub fn issue_maintenance(&mut self, now: u64, count: u32) -> u64 {
        let mut done = self.busy_until.max(now);
        for _ in 0..count {
            done = self.occupy(now);
        }
        done
    }

    fn occupy(&mut self, now: u64) -> u64 {
        let start = self.busy_until.max(now);
        self.busy_until = start + self.op_cost;
        self.ops_issued += 1;
        self.busy_until
    }

    /// If a fetch for `page` has been issued and not yet consumed,
    /// returns its completion cycle.
    pub fn pending_completion(&self, page: VirtPage) -> Option<u64> {
        self.in_flight.get(&page).copied()
    }

    /// Removes the in-flight record for `page` (its data has been
    /// consumed or installed).
    pub fn consume(&mut self, page: VirtPage) -> Option<u64> {
        self.in_flight.remove(&page)
    }

    /// Drops in-flight records that completed at or before `now`,
    /// invoking `deliver` for each in completion order — the engine
    /// installs these into the LRU prefetch buffer, where the order
    /// decides which entries are evicted first.
    pub fn drain_arrived(&mut self, now: u64, mut deliver: impl FnMut(VirtPage)) {
        let mut arrived: Vec<(u64, VirtPage)> = self
            .in_flight
            .iter()
            .filter(|(_, done)| **done <= now)
            .map(|(page, done)| (*done, *page))
            .collect();
        arrived.sort_unstable();
        for (_, page) in arrived {
            self.in_flight.remove(&page);
            deliver(page);
        }
    }

    /// Number of issued fetches not yet consumed or delivered.
    pub fn in_flight_count(&self) -> usize {
        self.in_flight.len()
    }

    /// Total channel operations issued (fetches + maintenance).
    pub fn ops_issued(&self) -> u64 {
        self.ops_issued
    }

    /// Page-table fetches issued (excludes maintenance).
    pub fn fetches_issued(&self) -> u64 {
        self.fetches_issued
    }

    /// The cycle at which the channel goes idle.
    pub fn busy_until(&self) -> u64 {
        self.busy_until
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operations_serialize() {
        let mut ch = PrefetchChannel::new(50);
        assert_eq!(ch.issue_fetch(0, VirtPage::new(1)), 50);
        assert_eq!(ch.issue_fetch(0, VirtPage::new(2)), 100);
        assert_eq!(ch.issue_fetch(120, VirtPage::new(3)), 170);
        assert_eq!(ch.ops_issued(), 3);
    }

    #[test]
    fn maintenance_occupies_the_same_channel() {
        let mut ch = PrefetchChannel::new(50);
        assert_eq!(ch.issue_maintenance(0, 4), 200);
        // A fetch issued at cycle 10 queues behind the pointer updates.
        assert_eq!(ch.issue_fetch(10, VirtPage::new(1)), 250);
        assert_eq!(ch.fetches_issued(), 1);
        assert_eq!(ch.ops_issued(), 5);
    }

    #[test]
    fn zero_maintenance_is_free() {
        let mut ch = PrefetchChannel::new(50);
        assert_eq!(ch.issue_maintenance(7, 0), 7);
        assert!(!ch.is_busy(7));
    }

    #[test]
    fn busy_predicate_matches_occupancy() {
        let mut ch = PrefetchChannel::new(50);
        ch.issue_fetch(0, VirtPage::new(1));
        assert!(ch.is_busy(0));
        assert!(ch.is_busy(49));
        assert!(!ch.is_busy(50));
    }

    #[test]
    fn pending_and_consume() {
        let mut ch = PrefetchChannel::new(50);
        ch.issue_fetch(0, VirtPage::new(1));
        assert_eq!(ch.pending_completion(VirtPage::new(1)), Some(50));
        assert_eq!(ch.consume(VirtPage::new(1)), Some(50));
        assert_eq!(ch.pending_completion(VirtPage::new(1)), None);
    }

    #[test]
    fn drain_delivers_arrived_fetches_in_completion_order() {
        let mut ch = PrefetchChannel::new(50);
        // Fetch `i` completes at 50 * (i + 1); its page is not `i`.
        let pages: Vec<u64> = (0..64).map(|i| (i * 37) % 64).collect();
        for &page in &pages {
            ch.issue_fetch(0, VirtPage::new(page));
        }
        let mut delivered = Vec::new();
        ch.drain_arrived(100, |p| delivered.push(p.number()));
        assert_eq!(delivered, pages[..2]);
        ch.drain_arrived(u64::MAX, |p| delivered.push(p.number()));
        assert_eq!(delivered, pages);
    }

    #[test]
    fn reissued_page_keeps_latest_completion() {
        let mut ch = PrefetchChannel::new(50);
        ch.issue_fetch(0, VirtPage::new(1));
        ch.issue_fetch(0, VirtPage::new(1));
        assert_eq!(ch.pending_completion(VirtPage::new(1)), Some(100));
    }
}
