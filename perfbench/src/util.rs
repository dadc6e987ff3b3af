//! Small helpers shared by the workloads: digests, percentiles, timing,
//! the process's peak RSS and a minimal JSON writer.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use tlbsim_core::MemoryAccess;
use tlbsim_sim::SimStats;

/// FNV-1a over 64-bit words: a stable digest of simulated statistics.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        self.word(bytes.len() as u64);
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Every counter of `stats`, per-stream rows included.
    pub fn stats(&mut self, stats: &SimStats) {
        for word in [
            stats.accesses,
            stats.misses,
            stats.prefetch_buffer_hits,
            stats.demand_walks,
            stats.prefetches_issued,
            stats.prefetches_filtered,
            stats.prefetches_evicted_unused,
            stats.maintenance_ops,
            stats.footprint_pages,
            stats.per_stream.len() as u64,
        ] {
            self.word(word);
        }
        for s in stats.per_stream.streams() {
            for word in [
                s.accesses,
                s.misses,
                s.prefetch_buffer_hits,
                s.demand_walks,
                s.prefetches_issued,
                s.footprint_pages,
            ] {
                self.word(word);
            }
        }
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Order-sensitive checksum of an access stream, used to prove a
/// replayed decode or fill produced exactly the captured input.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamSum(u64);

impl StreamSum {
    #[inline]
    pub fn add(&mut self, access: &MemoryAccess) {
        let word = access.vaddr.raw() ^ access.pc.raw().rotate_left(29) ^ (access.kind as u64);
        self.0 = (self.0 ^ word)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .rotate_left(17);
    }
}

/// Drains a batch source (a trace cursor's `decode_batch`) to its end
/// and returns the time it took; with `sum`, also checksums the stream
/// (outside any timing that matters — pass `None` when timing).
pub fn drain(
    mut next: impl FnMut(&mut [MemoryAccess]) -> usize,
    mut sum: Option<&mut StreamSum>,
) -> Duration {
    let mut batch = [MemoryAccess::read(0, 0); 4096];
    let start = Instant::now();
    loop {
        let filled = next(&mut batch);
        if filled == 0 {
            break;
        }
        if let Some(sum) = sum.as_deref_mut() {
            batch[..filled].iter().for_each(|a| sum.add(a));
        }
        std::hint::black_box(&batch);
    }
    start.elapsed()
}

/// Linear-interpolation percentile (`p` in 0..=100) of `sorted`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let low = rank.floor() as usize;
    let high = rank.ceil() as usize;
    sorted[low] + (sorted[high] - sorted[low]) * (rank - low as f64)
}

pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 50.0)
}

/// Runs `f` and returns its result with the elapsed time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// The smallest of `reps` timings of `f` — the self-time estimator for
/// bulk layer replays, which the host can only ever slow down.
pub fn min_time(reps: usize, mut f: impl FnMut() -> Duration) -> Duration {
    (0..reps)
        .map(|_| f())
        .min()
        .expect("at least one repetition")
}

/// The process's peak resident set (VmHWM) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A JSON value, enough for the benchmark's one-line result.
#[derive(Debug, Clone)]
pub enum Json {
    Num(f64),
    Int(u64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Num(x) => {
                assert!(x.is_finite(), "metric value {x} is not a finite number");
                // `{:?}` keeps every digit and always marks a float.
                let _ = write!(out, "{x:?}");
            }
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        c if (c as u32) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", c as u32);
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    Json::Str(key.clone()).write(out);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let sorted = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&sorted, 50.0), 3.0);
        assert_eq!(percentile(&sorted, 100.0), 5.0);
        assert!((percentile(&sorted, 99.0) - 4.96).abs() < 1e-12);
    }

    #[test]
    fn json_escapes_and_keeps_float_digits() {
        let json = Json::obj(vec![("a\"b", Json::Num(0.1)), ("n", Json::Int(3))]);
        assert_eq!(json.render(), r#"{"a\"b":0.1,"n":3}"#);
    }
}
