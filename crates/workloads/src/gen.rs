//! The visit/emit generator framework.
//!
//! Application models are built in two layers:
//!
//! 1. a **visit stream** — an iterator of [`Visit`]s, each naming a
//!    virtual page, how many references land on it before the pattern
//!    moves on, and the PC of the instruction loop touching it; this is
//!    where all pattern logic (strides, chases, cycles) lives;
//! 2. an **emitter** ([`Emit`]) that expands visits into concrete
//!    [`MemoryAccess`]es with intra-page offsets and a read/write mix.
//!
//! Keeping pattern logic at page granularity makes the models easy to
//! reason about — the TLB only ever sees pages — while the emitter
//! supplies the realistic byte-level stream the simulator and the trace
//! formats consume.

use tlbsim_core::{AccessKind, MemoryAccess, PageRun, PageSize, Pc, VirtAddr, VirtPage};

/// One page visit produced by a pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Visit {
    /// Virtual page number visited.
    pub page: u64,
    /// References issued to the page during the visit (at least 1).
    pub refs: u32,
    /// PC of the loop body doing the touching.
    pub pc: u64,
}

impl Visit {
    /// Creates a visit.
    pub fn new(page: u64, refs: u32, pc: u64) -> Self {
        Visit {
            page,
            refs: refs.max(1),
            pc,
        }
    }
}

/// A boxed visit stream (the unit application models compose).
pub type VisitStream = Box<dyn Iterator<Item = Visit> + Send>;

/// Expands visits into memory accesses.
///
/// Within a visit the accesses walk cache-line-sized offsets inside the
/// page; every fourth access is a write, approximating the load/store mix
/// of compiled code.
#[derive(Debug)]
pub struct Emit<I> {
    visits: I,
    page_size: PageSize,
    current: Option<(Visit, u32)>,
    emitted: u64,
}

impl<I: Iterator<Item = Visit>> Emit<I> {
    /// Wraps a visit stream.
    pub fn new(visits: I, page_size: PageSize) -> Self {
        Emit {
            visits,
            page_size,
            current: None,
            emitted: 0,
        }
    }

    /// Skips the next `n` accesses without expanding them, returning how
    /// many were actually skipped (less than `n` only at end of stream).
    ///
    /// This is the seek operation behind sharded execution: a shard
    /// starting at stream position `p` skips `p` accesses at **visit**
    /// granularity — whole visits are consumed by arithmetic on their
    /// `refs` counts, never emitted — so positioning costs one pass over
    /// the prefix's visits rather than its (typically much more
    /// numerous) accesses. The emitted-access counter advances exactly
    /// as if the accesses had been drawn, so the read/write mix and
    /// intra-page offsets after the skip are bit-identical to a stream
    /// that generated the prefix.
    pub fn skip_accesses(&mut self, n: u64) -> u64 {
        let mut remaining = n;
        while remaining > 0 {
            let (visit, done) = match self.current.take() {
                Some(in_progress) => in_progress,
                None => match self.visits.next() {
                    Some(visit) => (visit, 0),
                    None => break,
                },
            };
            let left = u64::from(visit.refs - done);
            if left > remaining {
                self.current = Some((visit, done + remaining as u32));
                self.emitted += remaining;
                remaining = 0;
            } else {
                self.emitted += left;
                remaining -= left;
            }
        }
        n - remaining
    }

    /// Fills `buf` with the next accesses of the stream, returning how
    /// many were written (less than `buf.len()` only at end of stream).
    ///
    /// This is the chunk-at-a-time generation path: visits are expanded
    /// in a tight loop directly into the caller's reusable buffer, so a
    /// sweep pipeline streams whole workloads without a per-access
    /// iterator round-trip or any allocation.
    ///
    /// # Panics
    ///
    /// Panics on an empty `buf` — a zero-length chunk would be
    /// indistinguishable from end of stream under the "0 means
    /// exhausted" contract.
    pub fn fill(&mut self, buf: &mut [MemoryAccess]) -> usize {
        assert!(!buf.is_empty(), "fill requires a non-empty batch buffer");
        let line = 64u64;
        let lines_per_page = self.page_size.bytes() / line;
        let mut filled = 0;
        'refill: while filled < buf.len() {
            let (visit, mut done) = match self.current.take() {
                Some(in_progress) => in_progress,
                None => match self.visits.next() {
                    Some(visit) => (visit, 0),
                    None => break,
                },
            };
            let base = visit.page << self.page_size.bits();
            let pc = Pc::new(visit.pc);
            while done < visit.refs {
                if filled == buf.len() {
                    self.current = Some((visit, done));
                    break 'refill;
                }
                let offset = (done as u64 % lines_per_page) * line;
                let kind = if self.emitted % 4 == 3 {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                self.emitted += 1;
                buf[filled] = MemoryAccess {
                    pc,
                    vaddr: VirtAddr::new(base | offset),
                    kind,
                };
                filled += 1;
                done += 1;
            }
        }
        filled
    }

    /// Writes the next page runs of the stream into `out` at the
    /// engine's `page_size`, consuming at most `limit` accesses; returns
    /// `(runs, accesses)`, `(0, 0)` once the stream is exhausted.
    ///
    /// Each run is one visit, or the rest of a visit cut at `limit` or
    /// at the end of `out`, and is written without expanding its
    /// accesses. The emitted-access counter advances as if they had
    /// been drawn, so a later [`fill`](Emit::fill) continues with the
    /// same read/write mix and offsets. This is exact when `page_size`
    /// is at least the generator's page, so a visit lies on one engine
    /// page. Below that a visit spans several engine pages, and the
    /// accesses are expanded and collapsed instead.
    ///
    /// # Panics
    ///
    /// Panics on an empty `out`, as [`fill`](Emit::fill) does.
    pub fn fill_runs(
        &mut self,
        page_size: PageSize,
        out: &mut [PageRun],
        limit: u64,
    ) -> (usize, u64) {
        assert!(!out.is_empty(), "fill_runs requires a non-empty run buffer");
        if page_size.bits() < self.page_size.bits() {
            return fill_runs_from_records(|buf| self.fill(buf), page_size, out, limit);
        }
        let mut runs = 0;
        let mut accesses = 0u64;
        while runs < out.len() && accesses < limit {
            let (visit, done) = match self.current.take() {
                Some(in_progress) => in_progress,
                None => match self.visits.next() {
                    Some(visit) => (visit, 0),
                    None => break,
                },
            };
            let left = visit.refs - done;
            if left == 0 {
                // A visit built with `refs: 0` emits no access.
                continue;
            }
            // `take` fits a u32: it is at most `left`.
            let take = u64::from(left).min(limit - accesses) as u32;
            if take < left {
                self.current = Some((visit, done + take));
            }
            // The page `fill` would give: offsets stay below the
            // generator's page, which the engine page contains.
            let base = visit.page << self.page_size.bits();
            out[runs] = PageRun {
                pc: Pc::new(visit.pc),
                page: VirtPage::new(base >> page_size.bits()),
                len: take,
            };
            runs += 1;
            accesses += u64::from(take);
            self.emitted += u64::from(take);
        }
        (runs, accesses)
    }
}

/// Records drawn per refill of the stack buffer that
/// [`fill_runs_from_records`] collapses.
const RUN_FILL_RECORDS: usize = 256;

/// Page runs from a record source: fills records into a stack buffer
/// and collapses them into `out`, never drawing more records than
/// `out` has room for (each record adds at most one run) or than
/// `limit`. Within one call a record on the page of the open run
/// extends it.
pub(crate) fn fill_runs_from_records(
    mut fill: impl FnMut(&mut [MemoryAccess]) -> usize,
    page_size: PageSize,
    out: &mut [PageRun],
    limit: u64,
) -> (usize, u64) {
    let mut records = [MemoryAccess::read(0, 0); RUN_FILL_RECORDS];
    let bits = page_size.bits();
    // Runs written to `out`, and the open run that follows them.
    let mut runs = 0;
    let mut open: Option<PageRun> = None;
    let mut accesses = 0u64;
    loop {
        let room = out.len() - runs - usize::from(open.is_some());
        let want = room
            .min(RUN_FILL_RECORDS)
            .min(usize::try_from(limit - accesses).unwrap_or(usize::MAX));
        if want == 0 {
            break;
        }
        let filled = fill(&mut records[..want]);
        if filled == 0 {
            break;
        }
        for record in &records[..filled] {
            let page = VirtPage::new(record.vaddr.raw() >> bits);
            if let Some(run) = &mut open {
                if run.page == page && run.len < u32::MAX {
                    run.len += 1;
                    continue;
                }
                out[runs] = *run;
                runs += 1;
            }
            open = Some(PageRun {
                pc: record.pc,
                page,
                len: 1,
            });
        }
        accesses += filled as u64;
    }
    if let Some(run) = open {
        out[runs] = run;
        runs += 1;
    }
    (runs, accesses)
}

impl<I: Iterator<Item = Visit>> Iterator for Emit<I> {
    type Item = MemoryAccess;

    fn next(&mut self) -> Option<Self::Item> {
        // Single source of truth: one-element batch through `fill`, so
        // the iterator and batched paths cannot drift apart.
        let mut one = [MemoryAccess::read(0, 0)];
        (self.fill(&mut one) == 1).then(|| one[0])
    }
}

/// A pluggable access-stream source a [`Workload`] can be built over.
///
/// The synthetic generators come built in ([`Workload::from_visits`]);
/// this trait is the seam that lets *recorded* streams — the mmap trace
/// replay of `TraceWorkload` — flow through the identical streaming
/// surface (`fill_batch` / `skip_accesses`) and therefore through every
/// engine, the sweep executor and the sharded runner unchanged.
///
/// Contract (shared with the generators, asserted by the differential
/// trace tests):
///
/// * [`fill`](AccessSource::fill) writes the next accesses into the
///   caller's buffer and returns the count; `0` means exhausted; the
///   buffer is never empty;
/// * [`skip`](AccessSource::skip) advances past `n` accesses without
///   producing them and returns how many were skipped (less than `n`
///   only at end of stream); the stream continues bit-identically to
///   one that generated the prefix.
pub trait AccessSource: Send {
    /// Fills `buf` with the next accesses, returning how many were
    /// written; zero means the source is exhausted.
    fn fill(&mut self, buf: &mut [MemoryAccess]) -> usize;

    /// Fast-forwards past `n` accesses, returning how many were
    /// actually skipped.
    fn skip(&mut self, n: u64) -> u64;

    /// Writes the next page runs at `page_size` into `out`, consuming
    /// at most `limit` accesses; returns `(runs, accesses)`, `(0, 0)`
    /// once the source is exhausted. `out` is never empty.
    ///
    /// The default draws records through [`fill`](AccessSource::fill)
    /// into a fixed stack buffer and collapses them, so every record,
    /// including a rewritten or panicking one, is produced at the same
    /// stream position as under `fill`.
    fn fill_runs(&mut self, page_size: PageSize, out: &mut [PageRun], limit: u64) -> (usize, u64) {
        fill_runs_from_records(|buf| self.fill(buf), page_size, out, limit)
    }
}

/// The two stream shapes behind a [`Workload`]: generated visits
/// (kept as a concrete type — the hot path of every synthetic run —
/// so generator fills stay monomorphised) or a boxed custom source.
enum Stream {
    Visits(Emit<VisitStream>),
    Source(Box<dyn AccessSource>),
}

/// A complete, runnable reference stream with a name.
///
/// `Workload` is itself an `Iterator<Item = MemoryAccess>`; application
/// models hand one to the simulator or to a trace writer.
///
/// # Examples
///
/// ```
/// use tlbsim_workloads::{Visit, Workload};
///
/// let w = Workload::from_visits(
///     "two-pages",
///     Box::new([Visit::new(1, 2, 0x40), Visit::new(2, 1, 0x40)].into_iter()),
/// );
/// assert_eq!(w.count(), 3);
/// ```
pub struct Workload {
    name: String,
    stream: Stream,
}

impl Workload {
    /// Builds a workload from a visit stream with the default 4 KiB page
    /// size.
    pub fn from_visits(name: impl Into<String>, visits: VisitStream) -> Self {
        Workload {
            name: name.into(),
            stream: Stream::Visits(Emit::new(visits, PageSize::DEFAULT)),
        }
    }

    /// Builds a workload over any [`AccessSource`] (e.g. a recorded
    /// trace replayed through `TraceWorkload`).
    pub fn from_source(name: impl Into<String>, source: Box<dyn AccessSource>) -> Self {
        Workload {
            name: name.into(),
            stream: Stream::Source(source),
        }
    }

    /// The workload's name (usually the application name).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Fills `buf` with the next accesses of the stream, returning how
    /// many were written; zero means the workload is exhausted. `buf`
    /// must be non-empty (panics otherwise — see [`Emit::fill`]).
    ///
    /// Interleaves correctly with [`Iterator::next`] — both consume the
    /// same underlying stream — so callers can mix the two, though the
    /// batched form is the one the engines' hot loops use.
    ///
    /// # Examples
    ///
    /// ```
    /// use tlbsim_core::MemoryAccess;
    /// use tlbsim_workloads::{Visit, Workload};
    ///
    /// let mut w = Workload::from_visits(
    ///     "three-refs",
    ///     Box::new([Visit::new(1, 3, 0x40)].into_iter()),
    /// );
    /// let mut buf = vec![MemoryAccess::read(0, 0); 2];
    /// assert_eq!(w.fill_batch(&mut buf), 2);
    /// assert_eq!(w.fill_batch(&mut buf), 1);
    /// assert_eq!(w.fill_batch(&mut buf), 0);
    /// ```
    pub fn fill_batch(&mut self, buf: &mut [MemoryAccess]) -> usize {
        match &mut self.stream {
            Stream::Visits(emit) => emit.fill(buf),
            Stream::Source(source) => {
                assert!(
                    !buf.is_empty(),
                    "fill_batch requires a non-empty batch buffer"
                );
                source.fill(buf)
            }
        }
    }

    /// Writes the next page runs of the stream at the engine's
    /// `page_size` into `out`, consuming at most `limit` accesses;
    /// returns `(runs, accesses)`, `(0, 0)` once the workload is
    /// exhausted. `out` must be non-empty (panics otherwise).
    ///
    /// Generators write one run per visit without expanding it (see
    /// [`Emit::fill_runs`]); other sources collapse their records (see
    /// [`AccessSource::fill_runs`]). Either way the stream position
    /// advances by the accesses returned, so `fill_runs` interleaves
    /// with [`fill_batch`](Workload::fill_batch) and
    /// [`skip_accesses`](Workload::skip_accesses), and the records after
    /// it are those a pure `fill_batch` stream would give.
    ///
    /// # Examples
    ///
    /// ```
    /// use tlbsim_core::{PageRun, PageSize};
    /// use tlbsim_workloads::{Visit, Workload};
    ///
    /// let mut w = Workload::from_visits(
    ///     "two-visits",
    ///     Box::new([Visit::new(1, 3, 0x40), Visit::new(2, 5, 0x44)].into_iter()),
    /// );
    /// let mut runs = [PageRun::default(); 8];
    /// assert_eq!(w.fill_runs(PageSize::DEFAULT, &mut runs, 6), (2, 6));
    /// assert_eq!((runs[0].page.number(), runs[0].len), (1, 3));
    /// assert_eq!((runs[1].page.number(), runs[1].len), (2, 3));
    /// assert_eq!(w.count(), 2);
    /// ```
    pub fn fill_runs(
        &mut self,
        page_size: PageSize,
        out: &mut [PageRun],
        limit: u64,
    ) -> (usize, u64) {
        match &mut self.stream {
            Stream::Visits(emit) => emit.fill_runs(page_size, out, limit),
            Stream::Source(source) => {
                assert!(!out.is_empty(), "fill_runs requires a non-empty run buffer");
                source.fill_runs(page_size, out, limit)
            }
        }
    }

    /// Fast-forwards the stream past the next `n` accesses without
    /// generating them, returning how many were actually skipped (less
    /// than `n` only when the stream ends first).
    ///
    /// Skipping happens at visit granularity (see [`Emit::skip_accesses`]): the
    /// cost is proportional to the number of *visits* in the skipped
    /// prefix, not the number of accesses, and the stream continues
    /// bit-identically to one that generated the prefix — the contract
    /// that lets a shard of a partitioned run start mid-stream.
    ///
    /// # Examples
    ///
    /// ```
    /// use tlbsim_core::MemoryAccess;
    /// use tlbsim_workloads::{Visit, Workload};
    ///
    /// let visits = || Box::new([Visit::new(1, 3, 0x40), Visit::new(2, 2, 0x44)].into_iter());
    /// let mut skipped = Workload::from_visits("split", visits());
    /// assert_eq!(skipped.skip_accesses(2), 2);
    /// let tail: Vec<MemoryAccess> = skipped.collect();
    /// let full: Vec<MemoryAccess> = Workload::from_visits("full", visits()).collect();
    /// assert_eq!(tail, full[2..]);
    /// ```
    pub fn skip_accesses(&mut self, n: u64) -> u64 {
        match &mut self.stream {
            Stream::Visits(emit) => emit.skip_accesses(n),
            Stream::Source(source) => source.skip(n),
        }
    }
}

impl Iterator for Workload {
    type Item = MemoryAccess;

    fn next(&mut self) -> Option<Self::Item> {
        // Single source of truth: one-element batch through
        // `fill_batch`, so the iterator and batched paths cannot drift
        // apart for either stream shape.
        let mut one = [MemoryAccess::read(0, 0)];
        (self.fill_batch(&mut one) == 1).then(|| one[0])
    }
}

impl std::fmt::Debug for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Workload")
            .field("name", &self.name)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emit_expands_refs_per_visit() {
        let visits = vec![Visit::new(10, 3, 0x40), Visit::new(11, 1, 0x44)];
        let accesses: Vec<MemoryAccess> =
            Emit::new(visits.into_iter(), PageSize::DEFAULT).collect();
        assert_eq!(accesses.len(), 4);
        assert!(accesses[..3]
            .iter()
            .all(|a| PageSize::DEFAULT.page_of(a.vaddr).number() == 10));
        assert_eq!(PageSize::DEFAULT.page_of(accesses[3].vaddr).number(), 11);
        assert_eq!(accesses[3].pc.raw(), 0x44);
    }

    #[test]
    fn fill_runs_writes_no_run_for_a_zero_ref_visit() {
        let empty = Visit {
            page: 9,
            refs: 0,
            pc: 0,
        };
        let visits = vec![Visit::new(1, 2, 0), empty, Visit::new(2, 1, 0)];
        let mut emit = Emit::new(visits.into_iter(), PageSize::DEFAULT);
        let mut runs = [PageRun::default(); 4];
        assert_eq!(
            emit.fill_runs(PageSize::DEFAULT, &mut runs, u64::MAX),
            (2, 3)
        );
        assert_eq!(runs[1].page.number(), 2);
    }

    #[test]
    fn zero_ref_visits_are_promoted_to_one() {
        let v = Visit::new(1, 0, 0);
        assert_eq!(v.refs, 1);
    }

    #[test]
    fn offsets_stay_inside_the_page() {
        let visits = vec![Visit::new(7, 200, 0)];
        for a in Emit::new(visits.into_iter(), PageSize::DEFAULT) {
            assert_eq!(PageSize::DEFAULT.page_of(a.vaddr).number(), 7);
        }
    }

    #[test]
    fn read_write_mix_is_three_to_one() {
        let visits = vec![Visit::new(1, 100, 0)];
        let writes = Emit::new(visits.into_iter(), PageSize::DEFAULT)
            .filter(|a| a.kind == AccessKind::Write)
            .count();
        assert_eq!(writes, 25);
    }

    #[test]
    fn workload_reports_name() {
        let w = Workload::from_visits("x", Box::new(std::iter::empty()));
        assert_eq!(w.name(), "x");
        assert_eq!(format!("{w:?}"), "Workload { name: \"x\" }");
    }

    #[test]
    fn fill_batch_equals_iterator_expansion() {
        let visits = || {
            vec![
                Visit::new(10, 3, 0x40),
                Visit::new(11, 1, 0x44),
                Visit::new(12, 7, 0x48),
                Visit::new(13, 2, 0x4c),
            ]
        };
        let via_iter: Vec<MemoryAccess> =
            Emit::new(visits().into_iter(), PageSize::DEFAULT).collect();
        // Batch sizes that do and do not divide visit boundaries.
        for batch_len in [1usize, 2, 5, 64] {
            let mut emit = Emit::new(visits().into_iter(), PageSize::DEFAULT);
            let mut buf = vec![MemoryAccess::read(0, 0); batch_len];
            let mut via_fill = Vec::new();
            loop {
                let n = emit.fill(&mut buf);
                if n == 0 {
                    break;
                }
                via_fill.extend_from_slice(&buf[..n]);
            }
            assert_eq!(via_fill, via_iter, "batch_len {batch_len}");
        }
    }

    #[test]
    fn skip_then_continue_is_bit_identical_to_the_sequential_stream() {
        let visits = || {
            vec![
                Visit::new(10, 3, 0x40),
                Visit::new(11, 1, 0x44),
                Visit::new(12, 7, 0x48),
                Visit::new(13, 2, 0x4c),
            ]
        };
        let full: Vec<MemoryAccess> = Emit::new(visits().into_iter(), PageSize::DEFAULT).collect();
        // Every split point, including 0 (no-op) and 13 (exact end):
        // offsets and the read/write mix must continue as if the prefix
        // had been generated.
        for split in 0..=full.len() as u64 {
            let mut emit = Emit::new(visits().into_iter(), PageSize::DEFAULT);
            assert_eq!(
                emit.skip_accesses(split),
                split,
                "skip consumed the wrong count"
            );
            let tail: Vec<MemoryAccess> = emit.collect();
            assert_eq!(tail, full[split as usize..], "diverged after skip({split})");
        }
    }

    #[test]
    fn skip_past_the_end_reports_the_shortfall() {
        let visits = vec![Visit::new(1, 4, 0)];
        let mut emit = Emit::new(visits.into_iter(), PageSize::DEFAULT);
        assert_eq!(emit.skip_accesses(10), 4);
        assert_eq!(emit.skip_accesses(1), 0);
        assert!(emit.next().is_none());
    }

    #[test]
    fn skip_interleaves_with_fill() {
        let visits = vec![
            Visit::new(1, 5, 0),
            Visit::new(2, 5, 0),
            Visit::new(3, 5, 0),
        ];
        let full: Vec<MemoryAccess> =
            Emit::new(visits.clone().into_iter(), PageSize::DEFAULT).collect();
        let mut emit = Emit::new(visits.into_iter(), PageSize::DEFAULT);
        let mut buf = vec![MemoryAccess::read(0, 0); 4];
        // fill 4, skip 3, fill the rest: [4..7) must be absent, the rest
        // identical to the sequential expansion.
        let n = emit.fill(&mut buf);
        assert_eq!(n, 4);
        assert_eq!(&buf[..n], &full[..4]);
        assert_eq!(emit.skip_accesses(3), 3);
        let rest: Vec<MemoryAccess> = emit.collect();
        assert_eq!(rest, full[7..]);
    }

    #[test]
    fn fill_batch_interleaves_with_next() {
        let visits = vec![Visit::new(1, 5, 0), Visit::new(2, 5, 0)];
        let expected: Vec<MemoryAccess> =
            Emit::new(visits.clone().into_iter(), PageSize::DEFAULT).collect();
        let mut emit = Emit::new(visits.into_iter(), PageSize::DEFAULT);
        let mut got = Vec::new();
        let mut buf = vec![MemoryAccess::read(0, 0); 3];
        // Batch of 3, one plain next(), then drain through the iterator:
        // both paths must consume the same underlying stream.
        let n = emit.fill(&mut buf);
        got.extend_from_slice(&buf[..n]);
        got.push(emit.next().unwrap());
        got.extend(emit.by_ref());
        assert_eq!(got, expected);
    }
}
