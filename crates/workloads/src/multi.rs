//! Multiprogrammed interleaves: several streams replayed as one machine.
//!
//! The paper evaluates each application in isolation and names
//! multiprogramming — where context switches flush translation and
//! prediction state — as the open methodological question (§4). A
//! [`MultiStreamSpec`] composes any mix of registered application models
//! and recorded traces (anything implementing [`StreamSpec`]) into one
//! deterministic interleaved reference stream under a pluggable
//! [`Schedule`], the way a consolidated machine sees the union of its
//! tenants' miss streams.
//!
//! The composition is itself a [`StreamSpec`]: the interleave has a
//! name, an exact [`stream_len`](StreamSpec::stream_len), and a
//! [`workload`](StreamSpec::workload) whose `fill_batch`/`skip_accesses`
//! obey the same splittability contract as every other stream — so
//! `run_app`, `sweep` and `run_app_sharded` take a mix unchanged. The
//! context-switch-aware runners (`run_mix` / `run_mix_sharded` in
//! `tlbsim-sim`) additionally walk the interleave segment-by-segment via
//! [`MultiStreamSpec::segments`] to flush at switches and attribute
//! statistics per stream.
//!
//! Everything is arithmetic over the component stream lengths: the
//! schedule never expands an access to decide what runs next, so
//! planning a multi-million-access interleave (or seeking into the
//! middle of one) costs time proportional to the number of *segments*,
//! not accesses.

use std::sync::{Arc, Mutex, PoisonError};

use crate::gen::{AccessSource, Workload};
use crate::scale::Scale;
use crate::spec::StreamSpec;

/// Maximum number of streams one [`MultiStreamSpec`] may interleave.
///
/// The per-stream statistics breakdown (`PerStreamStats` in
/// `tlbsim-sim`) and the ASID tag space (`tlbsim_core::Asid` is 16
/// bits) both scale past this comfortably; the bound exists so a typo'd
/// stream count fails loudly instead of planning a million-segment
/// interleave. Consolidation studies at hundreds of streams are in
/// range — per-stream state is boxed, not inline.
pub const MAX_STREAMS: usize = 1024;

/// How the interleave rotates between streams.
///
/// All three schedules are deterministic functions of the spec — two
/// interleaves built from the same streams, scale and schedule are
/// bit-identical. A stream that exhausts simply drops out of the
/// rotation; the interleave ends when every stream is exhausted, so the
/// composed length is always the exact sum of the component lengths.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Schedule {
    /// Every stream runs `quantum` accesses per turn, in spec order.
    RoundRobin {
        /// Accesses per scheduling quantum (at least 1).
        quantum: u64,
    },
    /// Stream `i` runs `quanta[i]` accesses per turn — weighted
    /// round-robin, for tenants of different priorities.
    Weighted {
        /// Per-stream quantum, one entry per stream (each at least 1).
        quanta: Vec<u64>,
    },
    /// Quantum lengths drawn per turn from a seeded xorshift64 generator
    /// in `[min_quantum, max_quantum]` — rotation stays round-robin, but
    /// slice lengths jitter the way preemption points do on a loaded
    /// machine. Fully reproducible from `seed`.
    Random {
        /// Generator seed (any value; 0 is remapped internally).
        seed: u64,
        /// Smallest quantum the generator may draw (at least 1).
        min_quantum: u64,
        /// Largest quantum the generator may draw (`>= min_quantum`).
        max_quantum: u64,
    },
}

/// Errors composing a [`MultiStreamSpec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MixError {
    /// No streams were given.
    NoStreams,
    /// More than [`MAX_STREAMS`] streams were given.
    TooManyStreams {
        /// Streams actually given.
        count: usize,
    },
    /// A schedule quantum was zero.
    ZeroQuantum,
    /// `Schedule::Weighted` has a quanta list whose length differs from
    /// the stream count.
    WeightedLenMismatch {
        /// Streams in the mix.
        streams: usize,
        /// Entries in the quanta list.
        quanta: usize,
    },
    /// `Schedule::Random` has `min_quantum > max_quantum`.
    BadRandomRange {
        /// The offending minimum.
        min_quantum: u64,
        /// The offending maximum.
        max_quantum: u64,
    },
}

impl std::fmt::Display for MixError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MixError::NoStreams => f.write_str("a multi-stream mix needs at least one stream"),
            MixError::TooManyStreams { count } => {
                write!(
                    f,
                    "mix of {count} streams exceeds the maximum of {MAX_STREAMS}"
                )
            }
            MixError::ZeroQuantum => f.write_str("schedule quantum must be at least 1"),
            MixError::WeightedLenMismatch { streams, quanta } => write!(
                f,
                "weighted schedule lists {quanta} quanta for {streams} streams"
            ),
            MixError::BadRandomRange {
                min_quantum,
                max_quantum,
            } => write!(
                f,
                "random schedule range [{min_quantum}, {max_quantum}] is empty"
            ),
        }
    }
}

impl std::error::Error for MixError {}

/// One scheduled slice of the interleave: `len` consecutive accesses of
/// stream `stream`, starting at that stream's access `start`.
///
/// Segments are emitted in merged-stream order; concatenating every
/// segment's slice reproduces the interleaved stream exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// Index into [`MultiStreamSpec::streams`].
    pub stream: usize,
    /// Position of the slice within its own stream.
    pub start: u64,
    /// Accesses in the slice (at least 1).
    pub len: u64,
}

/// A deterministic multiprogrammed interleave of up to [`MAX_STREAMS`]
/// reference streams.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use tlbsim_workloads::{find_app, MultiStreamSpec, Scale, Schedule, StreamSpec};
///
/// let mix = MultiStreamSpec::new(
///     vec![
///         Arc::new(find_app("gap").expect("registered")) as Arc<dyn StreamSpec>,
///         Arc::new(find_app("mcf").expect("registered")),
///     ],
///     Schedule::RoundRobin { quantum: 1000 },
/// )
/// .expect("valid mix");
///
/// // The interleave is exactly the union of its components…
/// let expected: u64 = mix
///     .streams()
///     .iter()
///     .map(|s| s.stream_len(Scale::TINY))
///     .sum();
/// assert_eq!(mix.stream_len(Scale::TINY), expected);
/// // …and runs through the same Workload surface as any single stream.
/// assert_eq!(mix.workload(Scale::TINY).count() as u64, expected);
/// ```
pub struct MultiStreamSpec {
    name: String,
    streams: Vec<Arc<dyn StreamSpec>>,
    schedule: Schedule,
    /// The component stream lengths at each scale asked for so far: a
    /// pure function of the spec and the scale, computed once each.
    lens: Mutex<Vec<(Scale, Vec<u64>)>>,
}

impl MultiStreamSpec {
    /// Composes `streams` under `schedule`.
    ///
    /// The mix's name is `mix(a+b+…)` over the component names.
    ///
    /// # Errors
    ///
    /// [`MixError`] when the stream list is empty or longer than
    /// [`MAX_STREAMS`], or the schedule is malformed (zero quantum,
    /// weighted-length mismatch, empty random range).
    pub fn new(streams: Vec<Arc<dyn StreamSpec>>, schedule: Schedule) -> Result<Self, MixError> {
        if streams.is_empty() {
            return Err(MixError::NoStreams);
        }
        if streams.len() > MAX_STREAMS {
            return Err(MixError::TooManyStreams {
                count: streams.len(),
            });
        }
        match &schedule {
            Schedule::RoundRobin { quantum } => {
                if *quantum == 0 {
                    return Err(MixError::ZeroQuantum);
                }
            }
            Schedule::Weighted { quanta } => {
                if quanta.len() != streams.len() {
                    return Err(MixError::WeightedLenMismatch {
                        streams: streams.len(),
                        quanta: quanta.len(),
                    });
                }
                if quanta.contains(&0) {
                    return Err(MixError::ZeroQuantum);
                }
            }
            Schedule::Random {
                min_quantum,
                max_quantum,
                ..
            } => {
                if *min_quantum == 0 {
                    return Err(MixError::ZeroQuantum);
                }
                if min_quantum > max_quantum {
                    return Err(MixError::BadRandomRange {
                        min_quantum: *min_quantum,
                        max_quantum: *max_quantum,
                    });
                }
            }
        }
        let name = format!(
            "mix({})",
            streams
                .iter()
                .map(|s| s.name())
                .collect::<Vec<_>>()
                .join("+")
        );
        Ok(MultiStreamSpec {
            name,
            streams,
            schedule,
            lens: Mutex::default(),
        })
    }

    /// The component streams, in rotation order.
    pub fn streams(&self) -> &[Arc<dyn StreamSpec>] {
        &self.streams
    }

    /// The schedule driving the rotation.
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// Component names, in rotation order.
    pub fn stream_names(&self) -> Vec<&str> {
        self.streams.iter().map(|s| s.name()).collect()
    }

    /// The deterministic segment sequence of the interleave at `scale` —
    /// the schedule's decisions materialised as arithmetic, without
    /// expanding a single access.
    ///
    /// The component lengths the plan starts from are computed on the
    /// first call at a given scale and kept with the spec, so repeated
    /// runs of one mix (and [`stream_len`](StreamSpec::stream_len)) do
    /// not walk every model's visit plan again.
    pub fn segments(&self, scale: Scale) -> Segments {
        Segments::new(self.stream_lens(scale), self.schedule.clone())
    }

    /// Each component's [`stream_len`](StreamSpec::stream_len) at
    /// `scale`, in rotation order, computed once per scale.
    pub fn stream_lens(&self, scale: Scale) -> Vec<u64> {
        // The memo is only ever pushed whole, so a poisoned lock still
        // guards consistent entries.
        let mut memo = self.lens.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some((_, lens)) = memo.iter().find(|(known, _)| *known == scale) {
            return lens.clone();
        }
        let lens: Vec<u64> = self.streams.iter().map(|s| s.stream_len(scale)).collect();
        memo.push((scale, lens.clone()));
        lens
    }
}

impl std::fmt::Debug for MultiStreamSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultiStreamSpec")
            .field("name", &self.name)
            .field("schedule", &self.schedule)
            .finish()
    }
}

impl StreamSpec for MultiStreamSpec {
    fn name(&self) -> &str {
        &self.name
    }

    fn workload(&self, scale: Scale) -> Workload {
        Workload::from_source(
            self.name.clone(),
            Box::new(InterleaveSource {
                workloads: self.streams.iter().map(|s| s.workload(scale)).collect(),
                segments: self.segments(scale),
                current: None,
            }),
        )
    }

    fn stream_len(&self, scale: Scale) -> u64 {
        self.stream_lens(scale).iter().sum()
    }

    fn quarantined_records(&self) -> u64 {
        self.streams.iter().map(|s| s.quarantined_records()).sum()
    }
}

/// Iterator over the [`Segment`]s of an interleave (see
/// [`MultiStreamSpec::segments`]).
#[derive(Debug, Clone)]
pub struct Segments {
    remaining: Vec<u64>,
    consumed: Vec<u64>,
    schedule: Schedule,
    cursor: usize,
    rng: u64,
}

impl Segments {
    fn new(lens: Vec<u64>, schedule: Schedule) -> Self {
        let rng = match &schedule {
            // 0 would be a fixed point of xorshift; remap it.
            Schedule::Random { seed, .. } => (*seed).max(1),
            _ => 0,
        };
        Segments {
            consumed: vec![0; lens.len()],
            remaining: lens,
            schedule,
            cursor: 0,
            rng,
        }
    }

    /// Advances the xorshift64 state and returns the next draw.
    fn next_rand(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x
    }
}

impl Iterator for Segments {
    type Item = Segment;

    fn next(&mut self) -> Option<Segment> {
        let n = self.remaining.len();
        // Round-robin to the next stream with accesses left.
        let stream = (0..n)
            .map(|offset| (self.cursor + offset) % n)
            .find(|i| self.remaining[*i] > 0)?;
        let quantum = match &self.schedule {
            Schedule::RoundRobin { quantum } => *quantum,
            Schedule::Weighted { quanta } => quanta[stream],
            Schedule::Random {
                min_quantum,
                max_quantum,
                ..
            } => {
                let (lo, hi) = (*min_quantum, *max_quantum);
                lo + self.next_rand() % (hi - lo + 1)
            }
        };
        let len = quantum.min(self.remaining[stream]);
        let segment = Segment {
            stream,
            start: self.consumed[stream],
            len,
        };
        self.consumed[stream] += len;
        self.remaining[stream] -= len;
        self.cursor = (stream + 1) % n;
        Some(segment)
    }
}

/// The [`AccessSource`] behind an interleaved workload: one component
/// workload per stream, drained segment-by-segment in schedule order.
struct InterleaveSource {
    workloads: Vec<Workload>,
    segments: Segments,
    /// The in-progress segment: `(stream, accesses left in it)`.
    current: Option<(usize, u64)>,
}

impl InterleaveSource {
    /// The current segment, advancing the schedule when the previous one
    /// is drained. `None` when the interleave is exhausted.
    fn segment(&mut self) -> Option<(usize, u64)> {
        loop {
            match self.current {
                Some((_, 0)) | None => match self.segments.next() {
                    Some(seg) => self.current = Some((seg.stream, seg.len)),
                    None => return None,
                },
                Some(live) => return Some(live),
            }
        }
    }
}

impl AccessSource for InterleaveSource {
    fn fill(&mut self, buf: &mut [tlbsim_core::MemoryAccess]) -> usize {
        let mut filled = 0;
        while filled < buf.len() {
            let Some((stream, left)) = self.segment() else {
                break;
            };
            let want = left.min((buf.len() - filled) as u64) as usize;
            let got = self.workloads[stream].fill_batch(&mut buf[filled..filled + want]);
            debug_assert_eq!(
                got, want,
                "stream {stream} ended before its reported stream_len"
            );
            filled += got;
            self.current = Some((stream, left - got as u64));
            if got == 0 {
                break;
            }
        }
        filled
    }

    fn skip(&mut self, n: u64) -> u64 {
        let mut remaining = n;
        while remaining > 0 {
            let Some((stream, left)) = self.segment() else {
                break;
            };
            let step = left.min(remaining);
            let skipped = self.workloads[stream].skip_accesses(step);
            debug_assert_eq!(
                skipped, step,
                "stream {stream} ended before its reported stream_len"
            );
            self.current = Some((stream, left - skipped));
            remaining -= skipped;
            if skipped == 0 {
                break;
            }
        }
        n - remaining
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::find_app;
    use tlbsim_core::MemoryAccess;

    fn mix_of(names: &[&str], schedule: Schedule) -> MultiStreamSpec {
        let streams: Vec<Arc<dyn StreamSpec>> = names
            .iter()
            .map(|n| Arc::new(find_app(n).unwrap()) as Arc<dyn StreamSpec>)
            .collect();
        MultiStreamSpec::new(streams, schedule).unwrap()
    }

    #[test]
    fn constructor_rejects_malformed_mixes() {
        assert_eq!(
            MultiStreamSpec::new(Vec::new(), Schedule::RoundRobin { quantum: 1 }).unwrap_err(),
            MixError::NoStreams
        );
        let many: Vec<Arc<dyn StreamSpec>> = (0..MAX_STREAMS + 1)
            .map(|_| Arc::new(find_app("gap").unwrap()) as Arc<dyn StreamSpec>)
            .collect();
        assert!(matches!(
            MultiStreamSpec::new(many, Schedule::RoundRobin { quantum: 1 }).unwrap_err(),
            MixError::TooManyStreams { count } if count == MAX_STREAMS + 1
        ));
        let one: Vec<Arc<dyn StreamSpec>> =
            vec![Arc::new(find_app("gap").unwrap()) as Arc<dyn StreamSpec>];
        assert_eq!(
            MultiStreamSpec::new(one.clone(), Schedule::RoundRobin { quantum: 0 }).unwrap_err(),
            MixError::ZeroQuantum
        );
        assert!(matches!(
            MultiStreamSpec::new(one.clone(), Schedule::Weighted { quanta: vec![1, 2] })
                .unwrap_err(),
            MixError::WeightedLenMismatch {
                streams: 1,
                quanta: 2
            }
        ));
        assert_eq!(
            MultiStreamSpec::new(one.clone(), Schedule::Weighted { quanta: vec![0] }).unwrap_err(),
            MixError::ZeroQuantum
        );
        assert!(matches!(
            MultiStreamSpec::new(
                one,
                Schedule::Random {
                    seed: 1,
                    min_quantum: 10,
                    max_quantum: 3
                }
            )
            .unwrap_err(),
            MixError::BadRandomRange { .. }
        ));
        for err in [
            MixError::NoStreams,
            MixError::TooManyStreams { count: 9 },
            MixError::ZeroQuantum,
            MixError::WeightedLenMismatch {
                streams: 1,
                quanta: 2,
            },
            MixError::BadRandomRange {
                min_quantum: 10,
                max_quantum: 3,
            },
        ] {
            assert!(!err.to_string().is_empty());
        }
    }

    #[test]
    fn segments_cover_every_stream_exactly_in_rotation_order() {
        let mix = mix_of(&["gap", "mcf"], Schedule::RoundRobin { quantum: 1000 });
        let lens: Vec<u64> = mix
            .streams()
            .iter()
            .map(|s| s.stream_len(Scale::TINY))
            .collect();
        let mut consumed = vec![0u64; lens.len()];
        let mut merged = 0u64;
        let mut previous: Option<usize> = None;
        for seg in mix.segments(Scale::TINY) {
            assert_eq!(seg.start, consumed[seg.stream], "segments out of order");
            assert!(seg.len >= 1);
            // Two live streams under round-robin: consecutive segments
            // always switch.
            if consumed.iter().zip(&lens).filter(|(c, l)| c < l).count() > 1 {
                assert_ne!(Some(seg.stream), previous, "missed rotation");
            }
            consumed[seg.stream] += seg.len;
            merged += seg.len;
            previous = Some(seg.stream);
        }
        assert_eq!(consumed, lens, "segments must cover each stream exactly");
        assert_eq!(merged, mix.stream_len(Scale::TINY));
    }

    #[test]
    fn weighted_segments_use_per_stream_quanta() {
        let mix = mix_of(
            &["gap", "mcf"],
            Schedule::Weighted {
                quanta: vec![300, 700],
            },
        );
        let segments: Vec<Segment> = mix.segments(Scale::TINY).collect();
        assert_eq!(
            segments[0],
            Segment {
                stream: 0,
                start: 0,
                len: 300
            }
        );
        assert_eq!(
            segments[1],
            Segment {
                stream: 1,
                start: 0,
                len: 700
            }
        );
        assert_eq!(segments[2].stream, 0);
        assert_eq!(segments[2].start, 300);
    }

    #[test]
    fn random_segments_are_seed_deterministic_and_bounded() {
        let schedule = Schedule::Random {
            seed: 42,
            min_quantum: 64,
            max_quantum: 512,
        };
        let a: Vec<Segment> = mix_of(&["gap", "eon"], schedule.clone())
            .segments(Scale::TINY)
            .collect();
        let b: Vec<Segment> = mix_of(&["gap", "eon"], schedule)
            .segments(Scale::TINY)
            .collect();
        assert_eq!(a, b, "same seed must give the same schedule");
        let total: u64 = a.iter().map(|s| s.len).sum();
        let mix = mix_of(
            &["gap", "eon"],
            Schedule::Random {
                seed: 42,
                min_quantum: 64,
                max_quantum: 512,
            },
        );
        assert_eq!(total, mix.stream_len(Scale::TINY));
        // Every segment is quantum-bounded except a stream's final
        // (remainder) one.
        let mut seen_last = [false; 2];
        for seg in &a {
            assert!(seg.len <= 512);
            if seg.len < 64 {
                assert!(!seen_last[seg.stream], "short segment before the tail");
                seen_last[seg.stream] = true;
            }
        }
        let different: Vec<Segment> = mix_of(
            &["gap", "eon"],
            Schedule::Random {
                seed: 43,
                min_quantum: 64,
                max_quantum: 512,
            },
        )
        .segments(Scale::TINY)
        .collect();
        assert_ne!(a, different, "different seeds should jitter differently");
    }

    #[test]
    fn interleaved_workload_is_the_segment_order_concatenation() {
        let mix = mix_of(&["gap", "mcf"], Schedule::RoundRobin { quantum: 777 });
        // Expand by hand from per-stream workloads following the
        // segment plan…
        let mut by_hand: Vec<MemoryAccess> = Vec::new();
        let mut streams: Vec<Workload> = mix
            .streams()
            .iter()
            .map(|s| s.workload(Scale::TINY))
            .collect();
        for seg in mix.segments(Scale::TINY) {
            by_hand.extend(streams[seg.stream].by_ref().take(seg.len as usize));
        }
        // …and compare to the composed workload.
        let composed: Vec<MemoryAccess> = mix.workload(Scale::TINY).collect();
        assert_eq!(composed, by_hand);
    }

    #[test]
    fn one_stream_mix_is_bit_identical_to_the_stream_itself() {
        let mix = mix_of(&["gap"], Schedule::RoundRobin { quantum: 100 });
        let plain: Vec<MemoryAccess> = find_app("gap").unwrap().workload(Scale::TINY).collect();
        let mixed: Vec<MemoryAccess> = mix.workload(Scale::TINY).collect();
        assert_eq!(mixed, plain);
    }

    #[test]
    fn skip_then_continue_matches_the_full_interleave() {
        let mix = mix_of(&["gap", "eon"], Schedule::RoundRobin { quantum: 913 });
        let full: Vec<MemoryAccess> = mix.workload(Scale::TINY).collect();
        // Split points both inside and exactly on segment boundaries.
        for split in [0u64, 1, 912, 913, 914, 5000, full.len() as u64] {
            let mut w = mix.workload(Scale::TINY);
            assert_eq!(w.skip_accesses(split), split, "skip({split})");
            let tail: Vec<MemoryAccess> = w.collect();
            assert_eq!(tail, full[split as usize..], "diverged after skip({split})");
        }
        let mut w = mix.workload(Scale::TINY);
        assert_eq!(w.skip_accesses(u64::MAX), full.len() as u64);
        assert!(w.next().is_none());
    }

    #[test]
    fn fill_batch_is_chunk_size_invariant() {
        let mix = mix_of(&["gap", "mcf"], Schedule::RoundRobin { quantum: 500 });
        let full: Vec<MemoryAccess> = mix.workload(Scale::TINY).collect();
        for batch in [1usize, 7, 499, 500, 501, 4096] {
            let mut w = mix.workload(Scale::TINY);
            let mut buf = vec![MemoryAccess::read(0, 0); batch];
            let mut streamed = Vec::new();
            loop {
                let n = w.fill_batch(&mut buf);
                if n == 0 {
                    break;
                }
                streamed.extend_from_slice(&buf[..n]);
            }
            assert_eq!(streamed, full, "batch {batch}");
        }
    }

    #[test]
    fn remembered_lengths_never_cross_scales() {
        let names = ["gap", "mcf", "eon"];
        let schedule = Schedule::Random {
            seed: 9,
            min_quantum: 100,
            max_quantum: 900,
        };
        let reused = mix_of(&names, schedule.clone());
        for scale in [Scale::TINY, Scale::SMALL, Scale::TINY] {
            let fresh = mix_of(&names, schedule.clone());
            let lens: Vec<u64> = fresh
                .streams()
                .iter()
                .map(|s| s.stream_len(scale))
                .collect();
            assert_eq!(reused.stream_lens(scale), lens);
            let segments: Vec<Segment> = reused.segments(scale).collect();
            assert_eq!(segments, fresh.segments(scale).collect::<Vec<_>>());
            assert_eq!(reused.stream_len(scale), fresh.stream_len(scale));
            let covered: u64 = segments.iter().map(|s| s.len).sum();
            assert_eq!(covered, reused.stream_len(scale), "{scale:?}");
        }
        assert_ne!(
            reused.stream_len(Scale::TINY),
            reused.stream_len(Scale::SMALL)
        );
    }

    #[test]
    fn mix_name_and_debug_compose_component_names() {
        let mix = mix_of(&["gap", "mcf"], Schedule::RoundRobin { quantum: 10 });
        assert_eq!(StreamSpec::name(&mix), "mix(gap+mcf)");
        assert_eq!(mix.stream_names(), vec!["gap", "mcf"]);
        assert!(format!("{mix:?}").contains("mix(gap+mcf)"));
        assert_eq!(
            mix.schedule(),
            &Schedule::RoundRobin { quantum: 10 },
            "schedule accessor"
        );
    }
}
