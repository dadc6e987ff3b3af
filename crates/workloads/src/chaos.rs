//! Chaos injection at the workload layer.
//!
//! [`ChaosSpec`] wraps any [`StreamSpec`] and applies the stream-level
//! faults of a [`FaultPlan`] during replay:
//!
//! * [`FaultKind::WildVaddr`] rewrites the planned accesses' virtual
//!   addresses to wild out-of-range values in place — the simulator
//!   must absorb them (page arithmetic is total over `u64`), and the
//!   fault-matrix tests pin that a run completes;
//! * [`FaultKind::WorkerPanic`] panics the thread that decodes the
//!   planned access — *transiently*: all workloads built from one spec
//!   share a panic budget, and each planned panic fires only while
//!   budget remains. A budget of 1 models a glitch the sharded
//!   executor's retry absorbs; a budget equal to the worker attempt
//!   limit forces the inline-degrade path; one more makes the failure
//!   persistent and the run errors typed.
//!
//! Byte-level faults (`CorruptKind`, `TruncateTail`) don't exist at
//! this layer — bake those into a trace image with
//! [`FaultPlan::apply_to_bytes`] instead; this wrapper ignores them.
//!
//! Everything is deterministic: the plan pins fault positions, and the
//! budget makes panic transience an explicit, countable resource.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use tlbsim_core::MemoryAccess;
use tlbsim_trace::{FaultKind, FaultPlan};

use crate::gen::{AccessSource, Workload};
use crate::scale::Scale;
use crate::spec::StreamSpec;

/// A [`StreamSpec`] that replays another spec's stream with planned
/// faults injected (see the module docs for which [`FaultKind`]s apply
/// at this layer).
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use tlbsim_trace::{FaultKind, FaultPlan};
/// use tlbsim_workloads::{find_app, ChaosSpec, Scale, StreamSpec};
///
/// let app = find_app("gap").unwrap();
/// let plan = FaultPlan::new().with(100, FaultKind::WildVaddr);
/// let chaos = ChaosSpec::new(Arc::new(app), plan, 0);
/// // Length and splittability are the inner spec's, unchanged.
/// assert_eq!(chaos.stream_len(Scale::TINY), app.stream_len(Scale::TINY));
/// let wild = chaos.workload(Scale::TINY).nth(100).unwrap();
/// let clean = app.workload(Scale::TINY).nth(100).unwrap();
/// assert_ne!(wild.vaddr, clean.vaddr);
/// ```
pub struct ChaosSpec {
    name: String,
    inner: Arc<dyn StreamSpec>,
    plan: FaultPlan,
    panic_budget: Arc<AtomicU64>,
}

impl ChaosSpec {
    /// Wraps `inner`, injecting `plan`'s stream-level faults; at most
    /// `panic_budget` planned worker panics actually fire (shared
    /// across every workload the spec instantiates).
    pub fn new(inner: Arc<dyn StreamSpec>, plan: FaultPlan, panic_budget: u64) -> Self {
        ChaosSpec {
            name: format!("chaos:{}", inner.name()),
            inner,
            plan,
            panic_budget: Arc::new(AtomicU64::new(panic_budget)),
        }
    }

    /// Planned worker panics that have not fired yet.
    pub fn panics_remaining(&self) -> u64 {
        self.panic_budget.load(Ordering::SeqCst)
    }

    /// The fault plan driving the injection.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }
}

impl StreamSpec for ChaosSpec {
    fn name(&self) -> &str {
        &self.name
    }

    fn workload(&self, scale: Scale) -> Workload {
        Workload::from_source(
            self.name.clone(),
            Box::new(ChaosSource {
                inner: self.inner.workload(scale),
                panic_records: self.plan.records_with(FaultKind::WorkerPanic),
                wild_records: self.plan.records_with(FaultKind::WildVaddr),
                panic_budget: Arc::clone(&self.panic_budget),
                position: 0,
            }),
        )
    }

    fn stream_len(&self, scale: Scale) -> u64 {
        self.inner.stream_len(scale)
    }

    fn quarantined_records(&self) -> u64 {
        self.inner.quarantined_records()
    }
}

/// The faulty [`AccessSource`]: forwards the inner stream, rewriting
/// wild vaddrs in place and firing budgeted panics at planned
/// positions. Fault positions count *emitted* accesses — skipping over
/// a planned fault does not fire it, which models "whichever worker
/// actually decodes record N hits the fault".
struct ChaosSource {
    inner: Workload,
    /// Sorted access positions carrying `WorkerPanic` faults.
    panic_records: Vec<u64>,
    /// Sorted access positions carrying `WildVaddr` faults.
    wild_records: Vec<u64>,
    panic_budget: Arc<AtomicU64>,
    position: u64,
}

impl ChaosSource {
    /// Indices of `records` falling inside `[start, end)`.
    fn in_window(records: &[u64], start: u64, end: u64) -> std::ops::Range<usize> {
        let lo = records.partition_point(|&r| r < start);
        let hi = records.partition_point(|&r| r < end);
        lo..hi
    }
}

impl AccessSource for ChaosSource {
    fn fill(&mut self, buf: &mut [MemoryAccess]) -> usize {
        let n = self.inner.fill_batch(buf);
        let start = self.position;
        let end = start + n as u64;
        self.position = end;
        for idx in Self::in_window(&self.panic_records, start, end) {
            let fired = self
                .panic_budget
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |b| b.checked_sub(1))
                .is_ok();
            if fired {
                panic!(
                    "chaos: injected worker panic at access {}",
                    self.panic_records[idx]
                );
            }
        }
        for idx in Self::in_window(&self.wild_records, start, end) {
            let record = self.wild_records[idx];
            buf[(record - start) as usize].vaddr = tlbsim_trace::wild_vaddr(record).into();
        }
        n
    }

    fn skip(&mut self, n: u64) -> u64 {
        let skipped = self.inner.skip_accesses(n);
        self.position += skipped;
        skipped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::find_app;

    fn gap() -> Arc<dyn StreamSpec> {
        Arc::new(find_app("gap").expect("registered app"))
    }

    #[test]
    fn chaos_with_empty_plan_is_transparent() {
        let app = gap();
        let chaos = ChaosSpec::new(Arc::clone(&app), FaultPlan::new(), 0);
        assert_eq!(chaos.name(), "chaos:gap");
        assert_eq!(chaos.stream_len(Scale::TINY), app.stream_len(Scale::TINY));
        assert_eq!(chaos.quarantined_records(), 0);
        let clean: Vec<MemoryAccess> = app.workload(Scale::TINY).take(5_000).collect();
        let wrapped: Vec<MemoryAccess> = chaos.workload(Scale::TINY).take(5_000).collect();
        assert_eq!(wrapped, clean);
    }

    #[test]
    fn wild_vaddr_rewrites_exactly_the_planned_accesses() {
        let app = gap();
        let plan = FaultPlan::new()
            .with(10, FaultKind::WildVaddr)
            .with(1000, FaultKind::WildVaddr);
        let chaos = ChaosSpec::new(Arc::clone(&app), plan, 0);
        let clean: Vec<MemoryAccess> = app.workload(Scale::TINY).take(2_000).collect();
        let faulty: Vec<MemoryAccess> = chaos.workload(Scale::TINY).take(2_000).collect();
        for (i, (c, f)) in clean.iter().zip(&faulty).enumerate() {
            if i == 10 || i == 1000 {
                assert_ne!(c.vaddr, f.vaddr, "access {i} should be rewritten");
                assert!(f.vaddr.raw() >= 0xFFFF_0000_0000_0000);
                assert_eq!(c.pc, f.pc);
                assert_eq!(c.kind, f.kind);
            } else {
                assert_eq!(c, f, "access {i} should be untouched");
            }
        }
    }

    #[test]
    fn worker_panic_fires_once_per_budget_unit() {
        let chaos = ChaosSpec::new(gap(), FaultPlan::new().with(50, FaultKind::WorkerPanic), 1);
        assert_eq!(chaos.panics_remaining(), 1);
        let attempt = || {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                chaos.workload(Scale::TINY).take(100).count()
            }))
        };
        let first = attempt();
        assert!(first.is_err(), "budgeted panic must fire");
        assert_eq!(chaos.panics_remaining(), 0);
        // Budget exhausted: the retry sails through.
        assert_eq!(attempt().expect("retry must succeed"), 100);
    }

    #[test]
    fn skipping_over_a_fault_does_not_fire_it() {
        let chaos = ChaosSpec::new(gap(), FaultPlan::new().with(50, FaultKind::WorkerPanic), 1);
        let mut w = chaos.workload(Scale::TINY);
        assert_eq!(w.skip_accesses(100), 100);
        assert_eq!(w.take(100).count(), 100);
        assert_eq!(chaos.panics_remaining(), 1, "fault at 50 was never decoded");
    }
}
