//! Deterministic, seeded fault injection for chaos testing.
//!
//! A [`FaultPlan`] is a reproducible description of *exactly which*
//! records of a trace (or positions of a synthetic stream) get *exactly
//! which* fault. Tests and the `xp chaos` driver build a plan — either
//! explicitly with [`FaultPlan::with`] or pseudo-randomly with
//! [`FaultPlan::seeded`] — then either bake the byte-level faults into a
//! TLBT image with [`FaultPlan::apply_to_bytes`] or hand the plan to the
//! workloads crate's `ChaosSpec` for worker-panic injection. The same
//! `(seed, record_count, kinds)` triple always produces the same plan,
//! so every failure CI ever sees is replayable at a desk.

use crate::binary::{fault_cell, header_version, HEADER_BYTES, RECORD_BYTES};
use crate::block::V2_VERSION;

/// One injectable failure mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Overwrite a record's kind byte with an invalid value
    /// (`Strict` → `TraceError::InvalidKind`, `Quarantine` → skipped).
    CorruptKind,
    /// Rewrite a record's vaddr field to a wild out-of-range address
    /// (decodes fine; the simulator must absorb it, not crash).
    WildVaddr,
    /// Cut the file mid-record after this record (`Strict` →
    /// `TraceError::TruncatedRecord`, `Quarantine` → torn tail).
    TruncateTail,
    /// Panic the worker thread that decodes this record (exercises the
    /// sharded runner's retry/degrade path).
    WorkerPanic,
}

/// One planned fault: a [`FaultKind`] pinned to a record index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedFault {
    /// Record index (on the 17-byte grid) the fault lands on.
    pub record: u64,
    /// What goes wrong there.
    pub kind: FaultKind,
}

/// A deterministic set of planned faults.
///
/// # Examples
///
/// ```
/// use tlbsim_trace::{FaultKind, FaultPlan};
///
/// // Seeded plans are reproducible…
/// let a = FaultPlan::seeded(7, 2000, &[(FaultKind::CorruptKind, 5)]);
/// let b = FaultPlan::seeded(7, 2000, &[(FaultKind::CorruptKind, 5)]);
/// assert_eq!(a.faults(), b.faults());
/// assert_eq!(a.count(FaultKind::CorruptKind), 5);
///
/// // …and explicit plans pin exact offsets.
/// let p = FaultPlan::new().with(42, FaultKind::WorkerPanic);
/// assert_eq!(p.faults().len(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: Vec<PlannedFault>,
}

impl FaultPlan {
    /// An empty plan (inject nothing).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Draws `count` distinct record offsets per requested kind from a
    /// seeded xorshift64 stream over `0..record_count`. Distinctness is
    /// per kind *and* across kinds, so one record never receives two
    /// faults (which would make expected-survivor arithmetic ambiguous).
    ///
    /// # Panics
    ///
    /// If the total requested fault count exceeds `record_count` — a
    /// plan construction bug, not a runtime input.
    pub fn seeded(seed: u64, record_count: u64, kinds: &[(FaultKind, usize)]) -> Self {
        let total: usize = kinds.iter().map(|(_, n)| n).sum();
        assert!(
            total as u64 <= record_count,
            "fault plan wants {total} faults over {record_count} records"
        );
        // xorshift64: tiny, seedable, and good enough for picking
        // distinct offsets; state must be nonzero.
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut taken = std::collections::HashSet::new();
        let mut faults = Vec::with_capacity(total);
        for &(kind, n) in kinds {
            for _ in 0..n {
                let record = loop {
                    let candidate = next() % record_count.max(1);
                    if taken.insert(candidate) {
                        break candidate;
                    }
                };
                faults.push(PlannedFault { record, kind });
            }
        }
        faults.sort_by_key(|f| f.record);
        FaultPlan { faults }
    }

    /// Adds one explicit fault (builder-style).
    pub fn with(mut self, record: u64, kind: FaultKind) -> Self {
        self.faults.push(PlannedFault { record, kind });
        self.faults.sort_by_key(|f| f.record);
        self
    }

    /// All planned faults, sorted by record index.
    pub fn faults(&self) -> &[PlannedFault] {
        &self.faults
    }

    /// How many faults of one kind the plan contains.
    pub fn count(&self, kind: FaultKind) -> usize {
        self.faults.iter().filter(|f| f.kind == kind).count()
    }

    /// Record indices carrying one kind of fault, sorted.
    pub fn records_with(&self, kind: FaultKind) -> Vec<u64> {
        self.faults
            .iter()
            .filter(|f| f.kind == kind)
            .map(|f| f.record)
            .collect()
    }

    /// Bakes the byte-level faults into a TLBT image in place:
    /// `CorruptKind` overwrites kind bytes with `0xEE`, `WildVaddr`
    /// rewrites vaddr fields to `0xFFFF_FFFF_FFF0_0000 + record·4096`,
    /// and `TruncateTail` (applied last) cuts the buffer 5 bytes into
    /// the earliest truncation record. `WorkerPanic` is not a
    /// byte-level fault and is ignored here.
    ///
    /// Faults aimed past the end of the image are ignored — a plan can
    /// be broader than one particular file.
    ///
    /// Images carrying a **v2** header take the block-format baking
    /// path instead (and are left untouched unless their footer and
    /// index validate): each fault
    /// lands on the restart record of the block containing its target
    /// record, and `TruncateTail` is ignored (tail truncation destroys
    /// the v2 footer, which is fatal under every policy — there is no
    /// quarantinable torn tail to manufacture).
    pub fn apply_to_bytes(&self, bytes: &mut Vec<u8>) {
        if matches!(header_version(bytes), Ok(V2_VERSION)) {
            crate::v2::bake_faults(bytes, &self.faults);
            return;
        }
        let record_base = |r: u64| HEADER_BYTES + (r as usize) * RECORD_BYTES;
        for fault in &self.faults {
            let cell = bytes
                .get_mut(record_base(fault.record)..)
                .and_then(|rest| rest.first_chunk_mut());
            if let Some(cell) = cell {
                fault_cell(cell, fault);
            }
        }
        if let Some(cut) = self
            .faults
            .iter()
            .filter(|f| f.kind == FaultKind::TruncateTail)
            .map(|f| record_base(f.record) + 5)
            .filter(|&at| at < bytes.len())
            .min()
        {
            bytes.truncate(cut);
        }
    }
}

/// The wild out-of-range virtual address a
/// [`FaultKind::WildVaddr`] fault plants at `record` — top bits set
/// (far outside any synthetic model's footprint), distinct per record,
/// and the same whether the fault is baked into bytes here or injected
/// at replay by the workloads crate's chaos wrapper.
pub fn wild_vaddr(record: u64) -> u64 {
    0xFFFF_0000_0000_0000u64 + (record % (1 << 32)) * 4096
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_deterministic_and_distinct() {
        let plan = FaultPlan::seeded(
            99,
            1000,
            &[(FaultKind::CorruptKind, 10), (FaultKind::WildVaddr, 10)],
        );
        assert_eq!(plan.faults().len(), 20);
        let mut records: Vec<u64> = plan.faults().iter().map(|f| f.record).collect();
        let before = records.len();
        records.dedup();
        assert_eq!(records.len(), before, "all fault records distinct");
        assert!(records.iter().all(|&r| r < 1000));
        assert_eq!(
            plan,
            FaultPlan::seeded(
                99,
                1000,
                &[(FaultKind::CorruptKind, 10), (FaultKind::WildVaddr, 10)],
            )
        );
        assert_ne!(
            plan,
            FaultPlan::seeded(
                100,
                1000,
                &[(FaultKind::CorruptKind, 10), (FaultKind::WildVaddr, 10)],
            )
        );
    }

    #[test]
    fn apply_to_bytes_corrupts_planned_cells_only() {
        // 4 records of zeros after a fake header.
        let mut bytes = vec![0u8; HEADER_BYTES + 4 * RECORD_BYTES];
        let plan = FaultPlan::new()
            .with(1, FaultKind::CorruptKind)
            .with(2, FaultKind::WildVaddr);
        plan.apply_to_bytes(&mut bytes);
        assert_eq!(bytes[HEADER_BYTES + RECORD_BYTES + 16], 0xEE);
        assert_eq!(bytes[HEADER_BYTES + 16], 0);
        let vaddr_bytes = &bytes[HEADER_BYTES + 2 * RECORD_BYTES + 8..][..8];
        assert_ne!(vaddr_bytes, &[0u8; 8]);
    }

    #[test]
    fn truncate_tail_cuts_mid_record() {
        let mut bytes = vec![0u8; HEADER_BYTES + 4 * RECORD_BYTES];
        let plan = FaultPlan::new().with(2, FaultKind::TruncateTail);
        plan.apply_to_bytes(&mut bytes);
        assert_eq!(bytes.len(), HEADER_BYTES + 2 * RECORD_BYTES + 5);
        assert_ne!((bytes.len() - HEADER_BYTES) % RECORD_BYTES, 0);
    }

    #[test]
    fn faults_past_the_image_are_ignored() {
        let mut bytes = vec![0u8; HEADER_BYTES + 2 * RECORD_BYTES];
        let plan = FaultPlan::new()
            .with(50, FaultKind::CorruptKind)
            .with(60, FaultKind::TruncateTail);
        let before = bytes.clone();
        plan.apply_to_bytes(&mut bytes);
        assert_eq!(bytes, before);
    }
}
