//! Metric names, the per-run result, and the traced mode's layer
//! accounting (per-layer metrics plus the reconciliation report).

use std::time::Duration;

use crate::replica::{LayerTimes, FAMILIES};
use crate::util::Json;

/// End-to-end metrics, printed by the untraced mode on every workload.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("sim_accesses_per_s", "1/s"),
    ("jobs_per_s", "1/s"),
    ("job_latency_p50_ms", "ms"),
    ("job_latency_p99_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("trace_bytes_per_record", "B"),
];

/// Per-layer metrics (units only; the names are built by
/// [`per_layer_names`]), printed by the traced mode on every workload.
/// A layer a workload does not exercise reads 0.
const PER_LAYER_FIXED: [(&str, &str); 41] = [
    ("trace.decode_ns_per_record", "ns"),
    ("trace.decode_share", "share"),
    ("trace.open_ms", "ms"),
    ("workloads.fill_ns_per_access", "ns"),
    ("workloads.fill_share", "share"),
    ("mmu.tlb_lookup_ns", "ns"),
    ("mmu.tlb_fill_ns", "ns"),
    ("mmu.tlb_contains_ns", "ns"),
    ("mmu.tlb_lookups", "count"),
    ("mmu.tlb_misses", "count"),
    ("mmu.pbuf_promote_ns", "ns"),
    ("mmu.pbuf_contains_ns", "ns"),
    ("mmu.pbuf_insert_ns", "ns"),
    ("mmu.pbuf_hits", "count"),
    ("mmu.walk_ns", "ns"),
    ("mmu.walks", "count"),
    ("mmu.tlb_share", "share"),
    ("mmu.pbuf_share", "share"),
    ("mmu.walk_share", "share"),
    ("core.on_miss_share", "share"),
    ("core.candidates_per_miss", "count"),
    ("core.issued", "count"),
    ("core.filtered", "count"),
    ("sim.switch_ns", "ns"),
    ("sim.switches", "count"),
    ("sim.context_evictions", "count"),
    ("sim.fold_ms", "ms"),
    ("sim.glue_share", "share"),
    ("service.encode_ns.submit", "ns"),
    ("service.encode_ns.snapshot", "ns"),
    ("service.encode_ns.done", "ns"),
    ("service.decode_ns.submit", "ns"),
    ("service.decode_ns.snapshot", "ns"),
    ("service.decode_ns.done", "ns"),
    ("service.admit_ms", "ms"),
    ("service.first_frame_ms", "ms"),
    ("service.accepted_to_done_ms", "ms"),
    ("service.frames_per_job", "count"),
    ("service.bytes_per_job", "B"),
    ("experiments.sweep_busy_share", "share"),
    ("trace_overhead_share", "share"),
];

/// Every per-layer metric name with its unit, per-family ones included.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> = PER_LAYER_FIXED
        .iter()
        .map(|&(name, unit)| (name.to_owned(), unit))
        .collect();
    for family in FAMILIES {
        names.push((format!("core.on_miss_ns.{family}"), "ns"));
        names.push((format!("core.useful_ratio.{family}"), "ratio"));
    }
    names
}

/// Named metric values in insertion order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// All per-layer metrics, zeroed.
    pub fn per_layer_zeroed() -> Metrics {
        Metrics(
            per_layer_names()
                .into_iter()
                .map(|(name, unit)| (name, 0.0, unit))
                .collect(),
        )
    }

    /// Sets `name`, which must be a declared metric when the set was
    /// built zeroed, or is appended otherwise.
    pub fn set(&mut self, name: &str, value: f64) {
        if let Some(slot) = self.0.iter_mut().find(|(n, _, _)| n == name) {
            slot.1 = value;
            return;
        }
        let unit = END_TO_END
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, unit)| *unit)
            .unwrap_or_else(|| panic!("undeclared metric {name}"));
        self.0.push((name.to_owned(), value, unit));
    }

    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.0
                .iter()
                .map(|(name, value, unit)| {
                    (
                        name.clone(),
                        Json::obj(vec![
                            ("value", Json::Num(*value)),
                            ("unit", Json::Str((*unit).into())),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

/// Pass/fail bookkeeping: every checked operation is one attempt.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure descriptions.
    pub notes: Vec<String>,
}

impl Checks {
    /// Counts one operation, failed unless `ok`.
    pub fn record(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(what());
            }
        }
    }
}

/// What one benchmark run produced.
pub struct Outcome {
    pub checks: Checks,
    pub digest: String,
    pub metrics: Metrics,
    pub reconciliation: Option<Json>,
}

fn ns_per(time: Duration, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        time.as_nanos() as f64 / count as f64
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Layer self times summed over the traced runs of a workload, with the
/// mechanism's time and usefulness kept per family.
#[derive(Debug, Default)]
pub struct LayerSums {
    pub layers: LayerTimes,
    on_miss: [Duration; 8],
    misses: [u64; 8],
    issued: [u64; 8],
    hits: [u64; 8],
}

impl LayerSums {
    pub fn add(&mut self, family: usize, t: &LayerTimes) {
        let sum = &mut self.layers;
        for (acc, part) in [(&mut sum.tlb, &t.tlb), (&mut sum.pbuf, &t.pbuf)] {
            acc.total += part.total;
            acc.lookup += part.lookup;
            acc.fill += part.fill;
            acc.contains += part.contains;
            acc.lookups += part.lookups;
            acc.lookup_hits += part.lookup_hits;
            acc.fills += part.fills;
            acc.probes += part.probes;
        }
        sum.walk += t.walk;
        sum.walks += t.walks;
        sum.on_miss += t.on_miss;
        sum.misses += t.misses;
        sum.candidates += t.candidates;
        sum.issued += t.issued;
        sum.filtered += t.filtered;
        self.add_family_only(family, t);
    }

    /// Counts `t` towards its family's figures only — for a scheme traced
    /// beside a workload to cover a family the workload lacks.
    pub fn add_family_only(&mut self, family: usize, t: &LayerTimes) {
        self.on_miss[family] += t.on_miss;
        self.misses[family] += t.misses;
        self.issued[family] += t.issued;
        self.hits[family] += t.buffer_hits;
    }

    /// Writes the TLB, buffer, walk and mechanism metrics.
    pub fn write(&self, m: &mut Metrics) {
        let s = &self.layers;
        m.set("mmu.tlb_lookup_ns", ns_per(s.tlb.lookup, s.tlb.lookups));
        m.set("mmu.tlb_fill_ns", ns_per(s.tlb.fill, s.tlb.fills));
        m.set("mmu.tlb_contains_ns", ns_per(s.tlb.contains, s.tlb.probes));
        m.set("mmu.tlb_lookups", s.tlb.lookups as f64);
        m.set("mmu.tlb_misses", (s.tlb.lookups - s.tlb.lookup_hits) as f64);
        m.set("mmu.pbuf_promote_ns", ns_per(s.pbuf.lookup, s.pbuf.lookups));
        m.set(
            "mmu.pbuf_contains_ns",
            ns_per(s.pbuf.contains, s.pbuf.probes),
        );
        m.set("mmu.pbuf_insert_ns", ns_per(s.pbuf.fill, s.pbuf.fills));
        m.set("mmu.pbuf_hits", s.pbuf.lookup_hits as f64);
        m.set("mmu.walk_ns", ns_per(s.walk, s.walks));
        m.set("mmu.walks", s.walks as f64);
        m.set("core.candidates_per_miss", ratio(s.candidates, s.misses));
        m.set("core.issued", s.issued as f64);
        m.set("core.filtered", s.filtered as f64);
        for (f, family) in FAMILIES.iter().enumerate() {
            m.set(
                &format!("core.on_miss_ns.{family}"),
                ns_per(self.on_miss[f], self.misses[f]),
            );
            m.set(
                &format!("core.useful_ratio.{family}"),
                ratio(self.hits[f], self.issued[f]),
            );
        }
    }
}

/// The engine layers' self times in `t`, for the reconciliation.
pub fn engine_layers(t: &LayerTimes) -> [(&'static str, Duration); 4] {
    [
        ("mmu.tlb", t.tlb.total),
        ("mmu.pbuf", t.pbuf.total),
        ("mmu.walk", t.walk),
        ("core.on_miss", t.on_miss),
    ]
}

/// Share metrics named after a reconciliation layer.
const SHARE_METRICS: [(&str, &str); 6] = [
    ("trace.decode", "trace.decode_share"),
    ("workloads.fill", "workloads.fill_share"),
    ("mmu.tlb", "mmu.tlb_share"),
    ("mmu.pbuf", "mmu.pbuf_share"),
    ("mmu.walk", "mmu.walk_share"),
    ("core.on_miss", "core.on_miss_share"),
];

/// Places each layer's self time beside the end-to-end time of the same
/// work (`e2e`, measured untraced with plain spans) and the traced
/// execution of that work (`traced`): writes the share metrics,
/// `sim.glue_share` (what no layer explains) and `trace_overhead_share`,
/// and returns the report.
pub fn reconcile(
    m: &mut Metrics,
    e2e: Duration,
    traced: Duration,
    layers: &[(&'static str, Duration)],
) -> Json {
    let e2e_ms = e2e.as_secs_f64() * 1e3;
    let share = |d: Duration| d.as_secs_f64() / e2e.as_secs_f64();
    let mut rows = Vec::new();
    let mut explained = Duration::ZERO;
    for &(name, time) in layers {
        explained += time;
        rows.push(Json::obj(vec![
            ("layer", Json::Str(name.into())),
            ("self_ms", Json::Num(time.as_secs_f64() * 1e3)),
            ("share", Json::Num(share(time))),
        ]));
        if let Some((_, metric)) = SHARE_METRICS.iter().find(|(layer, _)| *layer == name) {
            m.set(metric, share(time));
        }
    }
    let glue_ms = e2e_ms - explained.as_secs_f64() * 1e3;
    let glue = glue_ms / e2e_ms;
    let overhead = (traced.as_secs_f64() - e2e.as_secs_f64()) / e2e.as_secs_f64();
    m.set("sim.glue_share", glue);
    m.set("trace_overhead_share", overhead);
    Json::obj(vec![
        ("end_to_end_ms", Json::Num(e2e_ms)),
        ("layers", Json::Arr(rows)),
        ("layer_sum_ms", Json::Num(explained.as_secs_f64() * 1e3)),
        ("glue_ms", Json::Num(glue_ms)),
        ("sim.glue_share", Json::Num(glue)),
        ("traced_ms", Json::Num(traced.as_secs_f64() * 1e3)),
        ("trace_overhead_share", Json::Num(overhead)),
    ])
}
