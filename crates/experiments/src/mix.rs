//! The multiprogrammed-mix driver (`xp mix`).
//!
//! The paper evaluates each application alone and flags multiprogramming
//! as the environment that actually stresses the dTLB (§4). `xp mix`
//! closes that loop for the reproduction: it interleaves any combination
//! of registered application models and recorded `TLBT` traces into one
//! deterministic multiprogrammed stream (`MultiStreamSpec`, round-robin
//! quantum), runs the figure grids' full 30-scheme sweep over the
//! interleave — optionally flushing translation + prediction state at
//! every context switch, optionally sharded across workers at switch
//! boundaries — and reports aggregate *and per-stream* prediction
//! accuracy, the attribution that shows which tenant pays for
//! consolidation under each mechanism.

use std::path::Path;
use std::sync::Arc;

use tlbsim_sim::{
    execute, resolve_shards, run_mix, run_mix_sharded, SimStats, StreamStats, SwitchPolicy,
};
use tlbsim_trace::DecodePolicy;
use tlbsim_workloads::{
    find_app, MixError, MultiStreamSpec, Scale, Schedule, StreamSpec, TraceWorkload,
};

use crate::grid::{paper_scheme_grid, scheme_variants};
use crate::replay::ReplayError;
use crate::report::{fmt3, fmt4, TextTable};

impl From<MixError> for ReplayError {
    fn from(e: MixError) -> Self {
        ReplayError::Mix(e)
    }
}

/// Resolves one `--streams` token. Tokens that are *syntactically*
/// paths — a `.tlbt` extension or a path separator — always open as
/// recorded traces; everything else resolves against the application
/// registry first, so a stray local file named after a registered app
/// (`./gap`) can never shadow the model. An unregistered bare token
/// falls back to a trace path as a convenience.
fn resolve_stream(token: &str, policy: DecodePolicy) -> Result<Arc<dyn StreamSpec>, ReplayError> {
    let path = Path::new(token);
    let looks_like_path = path.extension().is_some_and(|e| e == "tlbt")
        || token.contains(std::path::MAIN_SEPARATOR)
        || token.contains('/');
    if looks_like_path {
        return Ok(Arc::new(TraceWorkload::open_with_policy(path, policy)?));
    }
    if let Some(app) = find_app(token) {
        return Ok(Arc::new(app));
    }
    if path.exists() {
        return Ok(Arc::new(TraceWorkload::open_with_policy(path, policy)?));
    }
    Err(ReplayError::UnknownApp(token.to_owned()))
}

/// Builds the mix an `xp mix` invocation describes: one stream per
/// token under a round-robin schedule.
///
/// # Errors
///
/// [`ReplayError`] for unknown application names, unreadable traces, or
/// a malformed mix (no streams, too many, zero quantum).
pub fn build_mix(tokens: &[String], quantum: u64) -> Result<MultiStreamSpec, ReplayError> {
    build_mix_with_policy(tokens, quantum, DecodePolicy::Strict)
}

/// [`build_mix`] with trace members opened under `policy` — quarantine
/// lets a mix keep running when one tenant's trace is damaged.
///
/// # Errors
///
/// As [`build_mix`].
pub fn build_mix_with_policy(
    tokens: &[String],
    quantum: u64,
    policy: DecodePolicy,
) -> Result<MultiStreamSpec, ReplayError> {
    let streams = tokens
        .iter()
        .map(|t| resolve_stream(t, policy))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(MultiStreamSpec::new(
        streams,
        Schedule::RoundRobin { quantum },
    )?)
}

/// One scheme's row of the mix sweep: aggregate metrics plus the
/// per-stream accuracy attribution.
#[derive(Debug, Clone)]
pub struct MixCell {
    /// Scheme label in the paper's legend style (e.g. `DP,256,D`).
    pub label: String,
    /// Aggregate prediction accuracy over the whole interleave.
    pub accuracy: f64,
    /// Aggregate TLB miss rate.
    pub miss_rate: f64,
    /// Per-stream shares, in mix rotation order.
    pub per_stream: Vec<StreamStats>,
}

/// The 30-scheme sweep of one multiprogrammed interleave.
#[derive(Debug, Clone)]
pub struct MixReport {
    /// The mix's composed name (`mix(a+b+…)`).
    pub name: String,
    /// Component stream names, in rotation order.
    pub streams: Vec<String>,
    /// Component stream lengths at the sweep's scale.
    pub stream_lens: Vec<u64>,
    /// Round-robin quantum, in accesses.
    pub quantum: u64,
    /// Context-switch semantics each scheme ran under.
    pub switch_policy: SwitchPolicy,
    /// Worker shards per run (1 = sequential).
    pub shards: usize,
    /// Records the trace members' quarantine decode skipped (0 for
    /// strict opens and all-model mixes).
    pub quarantined: u64,
    /// Total interleaved accesses per scheme run.
    pub accesses: u64,
    /// One cell per scheme configuration, in grid order.
    pub cells: Vec<MixCell>,
}

/// Runs the full figure-grid scheme sweep over a multiprogrammed
/// interleave.
///
/// With `shards <= 1` each scheme runs sequentially through [`run_mix`]
/// (the scheme grid itself is spread across the machine's cores); with
/// more, schemes run one at a time, each partitioned across `shards`
/// switch-aligned workers via [`run_mix_sharded`].
///
/// # Errors
///
/// [`ReplayError`] from resolving the streams, or a `SimError` from an
/// invalid configuration.
pub fn mix(
    tokens: &[String],
    scale: Scale,
    quantum: u64,
    switch_policy: SwitchPolicy,
    shards: usize,
) -> Result<MixReport, ReplayError> {
    mix_with_policy(
        tokens,
        scale,
        quantum,
        switch_policy,
        shards,
        DecodePolicy::Strict,
    )
}

/// [`mix`] with trace members opened under an explicit
/// [`DecodePolicy`]; quarantined records are reported in
/// [`MixReport::quarantined`].
///
/// # Errors
///
/// As [`mix`]; additionally `TraceError::QuarantineExceeded` when a
/// member's damage overruns a quarantine budget.
pub fn mix_with_policy(
    tokens: &[String],
    scale: Scale,
    quantum: u64,
    switch_policy: SwitchPolicy,
    shards: usize,
    policy: DecodePolicy,
) -> Result<MixReport, ReplayError> {
    let spec = build_mix_with_policy(tokens, quantum, policy)?;
    let shards = resolve_shards(shards, spec.stream_len(scale));
    let variants = scheme_variants(&paper_scheme_grid());
    let runs: Vec<SimStats> = if shards <= 1 {
        // One sequential run per scheme, schemes spread across cores on
        // the sweep executor (run_mix itself attributes per stream,
        // which a sweep job cannot).
        execute(variants.iter().collect(), |_, (_, config)| {
            run_mix(&spec, scale, config, switch_policy)
        })
        .into_iter()
        .collect::<Result<_, _>>()?
    } else {
        let mut runs = Vec::with_capacity(variants.len());
        for (_, config) in &variants {
            runs.push(run_mix_sharded(&spec, scale, config, switch_policy, shards)?.merged);
        }
        runs
    };

    let cells = variants
        .into_iter()
        .zip(&runs)
        .map(|((label, _), stats)| MixCell {
            label,
            accuracy: stats.accuracy(),
            miss_rate: stats.miss_rate(),
            per_stream: stats.per_stream.streams().to_vec(),
        })
        .collect();

    Ok(MixReport {
        name: StreamSpec::name(&spec).to_owned(),
        streams: spec.stream_names().iter().map(|s| s.to_string()).collect(),
        stream_lens: spec.stream_lens(scale),
        quantum,
        switch_policy,
        shards: shards.max(1),
        quarantined: spec.quarantined_records(),
        accesses: spec.stream_len(scale),
        cells,
    })
}

impl MixReport {
    /// The report as a [`TextTable`]: aggregate accuracy and miss rate,
    /// then one accuracy column per stream.
    pub fn to_table(&self) -> TextTable {
        let mut columns = vec![
            "scheme".to_owned(),
            "accuracy".to_owned(),
            "miss rate".to_owned(),
        ];
        columns.extend(self.streams.iter().map(|s| format!("acc({s})")));
        let quarantined = if self.quarantined == 0 {
            String::new()
        } else {
            format!(", quarantined {} bad", self.quarantined)
        };
        let mut table = TextTable::new(
            format!(
                "Mix: {} ({} accesses, quantum {}, {}, {} shard{}{quarantined})",
                self.name,
                self.accesses,
                self.quantum,
                self.switch_policy,
                self.shards,
                if self.shards == 1 { "" } else { "s" }
            ),
            columns,
        );
        for cell in &self.cells {
            let mut row = vec![
                cell.label.clone(),
                fmt3(cell.accuracy),
                fmt4(cell.miss_rate),
            ];
            row.extend(cell.per_stream.iter().map(|s| fmt3(s.accuracy())));
            table.row(row);
        }
        table
    }

    /// Renders the aligned text table.
    pub fn render(&self) -> String {
        self.to_table().render()
    }

    /// Renders CSV.
    pub fn to_csv(&self) -> String {
        self.to_table().to_csv()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::record;
    use tlbsim_sim::SimConfig;

    fn strings(tokens: &[&str]) -> Vec<String> {
        tokens.iter().map(|t| t.to_string()).collect()
    }

    #[test]
    fn mix_sweep_covers_the_grid_with_per_stream_columns() {
        let report = mix(
            &strings(&["gap", "mcf"]),
            Scale::TINY,
            1000,
            SwitchPolicy::None,
            1,
        )
        .unwrap();
        assert_eq!(report.cells.len(), paper_scheme_grid().len());
        assert_eq!(report.streams, vec!["gap", "mcf"]);
        assert_eq!(report.accesses, report.stream_lens.iter().sum::<u64>());
        for cell in &report.cells {
            assert_eq!(cell.per_stream.len(), 2);
            let attributed: u64 = cell.per_stream.iter().map(|s| s.accesses).sum();
            assert_eq!(attributed, report.accesses, "{}", cell.label);
        }
        let rendered = report.render();
        assert!(rendered.contains("Mix: mix(gap+mcf)"));
        assert!(rendered.contains("acc(gap)"));
        assert!(rendered.contains("DP,256,D"));
        assert!(report
            .to_csv()
            .contains("scheme,accuracy,miss rate,acc(gap),acc(mcf)"));
    }

    #[test]
    fn mix_sweep_matches_direct_run_mix() {
        let report = mix(
            &strings(&["gap", "eon"]),
            Scale::TINY,
            500,
            SwitchPolicy::FlushOnSwitch,
            1,
        )
        .unwrap();
        let spec = build_mix(&strings(&["gap", "eon"]), 500).unwrap();
        let direct = run_mix(
            &spec,
            Scale::TINY,
            &SimConfig::paper_default(),
            SwitchPolicy::FlushOnSwitch,
        )
        .unwrap();
        let cell = report
            .cells
            .iter()
            .find(|c| c.label.starts_with("DP,256"))
            .expect("representative DP cell present");
        assert_eq!(cell.accuracy, direct.accuracy());
        assert_eq!(cell.miss_rate, direct.miss_rate());
        assert_eq!(cell.per_stream, direct.per_stream.streams().to_vec());
    }

    #[test]
    fn traces_and_models_mix_freely() {
        let path = std::env::temp_dir().join(format!("tlbsim-mix-{}.tlbt", std::process::id()));
        record("gap", Scale::TINY, Some(5000), &path).unwrap();
        let tokens = vec![path.display().to_string(), "mcf".to_owned()];
        let report = mix(&tokens, Scale::TINY, 700, SwitchPolicy::None, 2).unwrap();
        assert_eq!(report.stream_lens[0], 5000);
        assert_eq!(report.shards, 2);
        assert!(report.streams[0].starts_with("tlbsim-mix-"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn unknown_streams_and_bad_quanta_are_typed_errors() {
        assert!(matches!(
            mix(
                &strings(&["not-an-app"]),
                Scale::TINY,
                100,
                SwitchPolicy::None,
                1
            ),
            Err(ReplayError::UnknownApp(_))
        ));
        let err = mix(&strings(&["gap"]), Scale::TINY, 0, SwitchPolicy::None, 1).unwrap_err();
        assert!(matches!(err, ReplayError::Mix(MixError::ZeroQuantum)));
        assert!(err.to_string().contains("quantum"));
    }

    #[test]
    fn registered_app_names_are_never_shadowed_by_local_files() {
        // A stray file named after a registered app must not hijack the
        // token as a trace: bare names resolve against the registry
        // *before* any filesystem probe, and only path-shaped tokens are
        // forced to be traces.
        let shadow = std::env::temp_dir().join(format!("tlbsim-shadow-{}", std::process::id()));
        std::fs::create_dir_all(&shadow).unwrap();
        std::fs::write(shadow.join("gap"), b"not a trace").unwrap();
        // Bare registered name: the registry wins even while a same-named
        // file exists somewhere (resolution never probes the disk here).
        assert_eq!(
            resolve_stream("gap", DecodePolicy::Strict).unwrap().name(),
            "gap"
        );
        // The same bytes addressed *as a path* are treated as a trace and
        // rejected for what they are.
        let by_path = resolve_stream(
            &shadow.join("gap").display().to_string(),
            DecodePolicy::Strict,
        );
        assert!(
            matches!(by_path, Err(ReplayError::Trace(_))),
            "an explicit path must still be treated as a trace"
        );
        // Unregistered and absent: a typed unknown-app error.
        assert!(matches!(
            resolve_stream("no-such-app-or-file", DecodePolicy::Strict),
            Err(ReplayError::UnknownApp(_))
        ));
        std::fs::remove_dir_all(&shadow).ok();
    }
}
