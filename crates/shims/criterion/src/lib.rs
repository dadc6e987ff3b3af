//! Offline stand-in for the `criterion` API subset the bench suites use.
//!
//! A real (if simple) measuring harness: every benchmark is warmed up
//! once, then timed over enough iterations to fill a measurement window,
//! and the median-of-samples nanoseconds per iteration is printed
//! together with derived element throughput when the group declared one.
//! There is no statistical regression machinery and, as in real
//! criterion, no way to read a result back: results are for eyeballing.
//! Benches that gate on a ratio time their lanes themselves
//! (`tlbsim_bench::assert_ratio`). End-to-end numbers with a spread come
//! from the repository benchmark (`perfbench/`).
//!
//! Environment knobs:
//!
//! * `TLBSIM_BENCH_WINDOW_MS` — per-sample measurement window
//!   (default 120 ms);
//! * `TLBSIM_BENCH_SAMPLES` — samples per benchmark (default 7).

use std::fmt;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Declared per-iteration work, used to derive throughput.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// A benchmark identifier (`group/function/parameter`).
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// An id made of a function name and a parameter.
    pub fn new(function: impl Into<String>, parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            label: format!("{}/{}", function.into(), parameter),
        }
    }

    /// An id made of the parameter alone.
    pub fn from_parameter(parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            label: parameter.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(label: &str) -> Self {
        BenchmarkId {
            label: label.to_owned(),
        }
    }
}

impl From<String> for BenchmarkId {
    fn from(label: String) -> Self {
        BenchmarkId { label }
    }
}

/// One completed measurement.
#[derive(Debug, Clone)]
struct BenchResult {
    /// Full benchmark path (`group/label`).
    name: String,
    /// Median nanoseconds per iteration.
    ns_per_iter: f64,
    /// Declared per-iteration element count, if any.
    elements: Option<u64>,
}

impl BenchResult {
    /// Elements per second, when a throughput was declared.
    fn elements_per_sec(&self) -> Option<f64> {
        self.elements.map(|n| n as f64 / (self.ns_per_iter / 1e9))
    }
}

/// Drives closures through the measurement loop.
pub struct Bencher<'a> {
    window: Duration,
    samples: usize,
    recorded: &'a mut Vec<f64>,
}

impl Bencher<'_> {
    /// Measures `routine`, keeping its return value alive via
    /// [`black_box`] so the work is not optimised away.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut routine: F) {
        // Warm-up and per-iteration estimate.
        let start = Instant::now();
        black_box(routine());
        let estimate = start.elapsed().max(Duration::from_nanos(1));

        let iters_per_sample = (self.window.as_nanos() / estimate.as_nanos()).clamp(1, 1_000_000);
        for _ in 0..self.samples {
            let start = Instant::now();
            for _ in 0..iters_per_sample {
                black_box(routine());
            }
            let elapsed = start.elapsed();
            self.recorded
                .push(elapsed.as_nanos() as f64 / iters_per_sample as f64);
        }
    }
}

/// The top-level harness handle (stand-in for `criterion::Criterion`).
pub struct Criterion {
    window: Duration,
    samples: usize,
    results: Vec<BenchResult>,
}

impl Default for Criterion {
    fn default() -> Self {
        let window_ms = std::env::var("TLBSIM_BENCH_WINDOW_MS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(120u64);
        let samples = std::env::var("TLBSIM_BENCH_SAMPLES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(7usize);
        Criterion {
            window: Duration::from_millis(window_ms),
            samples: samples.max(1),
            results: Vec::new(),
        }
    }
}

impl Criterion {
    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            throughput: None,
        }
    }

    /// Benchmarks a single function outside any group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, f: F) -> &mut Self {
        self.run_one(name.to_owned(), None, f);
        self
    }

    fn run_one<F: FnMut(&mut Bencher)>(
        &mut self,
        name: String,
        throughput: Option<Throughput>,
        mut f: F,
    ) {
        let mut recorded = Vec::new();
        let mut bencher = Bencher {
            window: self.window,
            samples: self.samples,
            recorded: &mut recorded,
        };
        f(&mut bencher);
        if recorded.is_empty() {
            return;
        }
        recorded.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        let ns_per_iter = recorded[recorded.len() / 2];
        let elements = match throughput {
            Some(Throughput::Elements(n)) => Some(n),
            _ => None,
        };
        let result = BenchResult {
            name,
            ns_per_iter,
            elements,
        };
        match result.elements_per_sec() {
            Some(eps) => println!(
                "{:<44} {:>14.1} ns/iter {:>14.0} elem/s",
                result.name, result.ns_per_iter, eps
            ),
            None => println!("{:<44} {:>14.1} ns/iter", result.name, result.ns_per_iter),
        }
        self.results.push(result);
    }

    /// Prints the closing summary line.
    pub fn final_summary(&self) {
        println!("measured {} benchmarks", self.results.len());
    }
}

/// A group of benchmarks sharing a name prefix and throughput setting.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Declares the per-iteration work for throughput reporting.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Accepted for API compatibility; sampling is controlled by the
    /// environment knobs instead.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Benchmarks `f` with `input`, labelled by `id`.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let name = format!("{}/{}", self.name, id.label);
        let throughput = self.throughput;
        self.criterion.run_one(name, throughput, |b| f(b, input));
        self
    }

    /// Benchmarks `f`, labelled by `id`.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let name = format!("{}/{}", self.name, id.into().label);
        let throughput = self.throughput;
        self.criterion.run_one(name, throughput, |b| f(b));
        self
    }

    /// Ends the group.
    pub fn finish(self) {}
}

/// Bundles bench functions into a callable group.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name(c: &mut $crate::Criterion) {
            $($target(c);)+
        }
    };
}

/// Emits `main` running the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut criterion = $crate::Criterion::default();
            $($group(&mut criterion);)+
            criterion.final_summary();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_and_reports() {
        std::env::set_var("TLBSIM_BENCH_WINDOW_MS", "1");
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("g");
        group.throughput(Throughput::Elements(100));
        group.bench_with_input(BenchmarkId::from_parameter("x"), &3u64, |b, n| {
            b.iter(|| (0..*n).sum::<u64>());
        });
        group.finish();
        c.bench_function("plain", |b| b.iter(|| 2 + 2));
        assert_eq!(c.results.len(), 2);
        assert_eq!(c.results[0].name, "g/x");
        assert!(c.results[0].elements_per_sec().unwrap() > 0.0);
        assert!(c.results[1].elements.is_none());
    }
}
