//! `xp` — regenerate the paper's tables and figures from the command
//! line.
//!
//! Run `xp` without arguments for the synopsis of every subcommand and
//! flag; `usage()` below is its only copy.
//!
//! Each subcommand takes only the flags its line of the synopsis
//! lists; any other flag exits 1 with the flag's name and the usage
//! string.
//!
//! The tables and figures run job-parallel: `tlbsim_sim::sweep` spreads
//! each grid's cells over the cores and replays one TLB miss stream per
//! application, TLB and page size, so they take no `--shards`.
//!
//! `--shards <n|auto>` switches `replay`, `mix` and `submit` from
//! job-level parallelism to intra-run sharding: each run is partitioned
//! across `n` worker shards (`tlbsim_sim::run_app_sharded`), the mode
//! for a trace or mix large enough to own the whole machine. `auto`
//! resolves per run from the machine's available parallelism, clamped
//! so no shard's slice falls below a useful minimum
//! (`tlbsim_sim::auto_shard_count`). `--shards 1` is bit-identical to
//! the default.
//!
//! `serve` runs the simulation daemon (`tlbsim_service::Server`) on a
//! Unix-domain socket until a client asks it to shut down; `submit`
//! connects as a client, runs one job (a recorded trace or a registered
//! application under the chosen scheme) and prints the final statistics
//! plus any incremental snapshots; `shutdown` stops a running daemon,
//! draining queued jobs unless `--no-drain`. The framing and job model
//! are specified normatively in `docs/PROTOCOL.md`. `--scheme` (default
//! `dp`) takes the scheme grammar of `docs/DESIGN.md`, case-insensitive:
//! `DP,512,4`, `asp`, `tp,8`, `ep:dp+asp+mp`, `c+dp`, `MP,256,F;slots=4`.
//!
//! `convert` translates traces between the three on-disk formats (flat
//! v1 binary, block-compressed v2 binary, line-oriented text). A file
//! that starts with the `TLBT` magic is read as a binary trace of the
//! version its header names (`tlbsim_trace::TraceReader`), anything
//! else as text; the *output* format is `--format v1|v2|text`,
//! defaulting to the other side (any binary becomes text, text becomes
//! v1) so the bare command stays its own inverse.
//!
//! `record` dumps a registered application model's reference stream to
//! the binary `TLBT` trace format — flat v1 by default, or delta-block
//! v2 with `--format v2 [--block-len <records>]`; `replay` runs the
//! figure grids' 30-scheme sweep over any such trace, mmap-replayed
//! zero-copy (v1) or block-decoded (v2, read from the header). `--stream-window
//! <blocks>` replays a v2 trace through a sliding window of mapped
//! blocks instead of one whole-file mapping, so traces larger than RAM
//! replay in bounded memory.
//!
//! `tracestat` summarizes a trace corpus file-by-file: records and kind
//! mix, unique-page footprint, bytes/record against the flat encoding,
//! and the damage census under the selected `--quarantine` policy.
//!
//! `mix` interleaves several streams — registered application names
//! and/or `TLBT` trace paths, comma-separated — into one multiprogrammed
//! stream under a round-robin `--quantum` (default 50000 accesses) and
//! runs the same 30-scheme sweep over the interleave, printing aggregate
//! and per-stream prediction accuracy. `--switch-policy` picks the
//! context-switch semantics: `none` keeps all state across switches,
//! `flush` empties the TLB, prefetch buffer and prediction tables at
//! every switch (the paper's §4 scenario; `--flush-on-switch` is the
//! older spelling), and `asid` retags state per stream so switches are
//! flush-free — `--asid-contexts <n>` caps the live contexts (default:
//! all streams) and `--table-policy partitioned` gives each stream
//! private prediction tables instead of shared competitive ones.
//! `--shards` partitions each run across workers at switch boundaries
//! (or whole streams, for eviction-free partitioned ASID runs).
//!
//! `--quarantine <n|unlimited>` replays a damaged trace anyway: up to
//! `n` unparseable records are skipped (and counted in the report)
//! instead of aborting the run. The default is strict decode — any
//! damage is a one-line typed error and a nonzero exit.
//!
//! `check` censuses a trace's damage (decodable records, bad records,
//! torn tail) and exits nonzero if the selected policy would reject it
//! — the CI preflight for trace artifacts. `chaos` bakes a
//! deterministic seeded fault plan into a copy of a clean trace, so a
//! corrupt input can be manufactured reproducibly from the command
//! line.

use std::path::PathBuf;
use std::process::ExitCode;

use tlbsim_experiments::{
    extras, figure7, figure8, figure9, health, mix, replay, table1, table2, table3, tracestat,
};
use tlbsim_service::{Client, JobSpec, Server, ServerConfig};
use tlbsim_sim::{SwitchPolicy, TablePolicy};
use tlbsim_trace::{
    BinaryTraceWriter, DecodePolicy, TextTraceReader, TextTraceWriter, TraceReader, V2TraceWriter,
    DEFAULT_BLOCK_LEN,
};
use tlbsim_workloads::Scale;

struct Args {
    experiment: String,
    scale: Scale,
    shards: Option<usize>,
    csv_dir: Option<PathBuf>,
    out: Option<PathBuf>,
    app: Option<String>,
    trace: Option<PathBuf>,
    limit: Option<u64>,
    streams: Vec<String>,
    quantum: u64,
    switch_policy: String,
    asid_contexts: usize,
    table_policy: String,
    policy: DecodePolicy,
    seed: u64,
    corrupt: usize,
    wild: usize,
    truncate: bool,
    socket: PathBuf,
    workers: usize,
    queue_depth: usize,
    scheme: String,
    snapshot_every: u64,
    no_drain: bool,
    format: Option<String>,
    block_len: Option<u32>,
    stream_window: Option<u64>,
    paths: Vec<PathBuf>,
}

impl Args {
    /// `--shards`, 1 when absent.
    fn shards(&self) -> usize {
        self.shards.unwrap_or(1)
    }
}

fn usage() -> &'static str {
    "usage: xp <table1|table2|table3|figure7|figure8|figure9|extras|all> \
     [--scale tiny|small|standard|<factor>] [--csv <dir>]\n       \
     xp record --app <name> [--scale <s>] [--limit <n>] [--out <path>] \
     [--format v1|v2] [--block-len <n>]\n       \
     xp replay --trace <path> [--shards <n|auto>] [--quarantine <n|unlimited>] \
     [--stream-window <blocks>] [--csv <dir>]\n       \
     xp mix --streams <a,b,...> [--quantum <n>] [--switch-policy none|flush|asid] \
     [--flush-on-switch] [--asid-contexts <n>] [--table-policy shared|partitioned] \
     [--scale <s>] [--shards <n|auto>] [--quarantine <n|unlimited>] [--csv <dir>]\n       \
     xp check --trace <path> [--quarantine <n|unlimited>]\n       \
     xp chaos --trace <path> --out <path> [--seed <n>] [--corrupt <k>] \
     [--wild <k>] [--truncate]\n       \
     xp serve [--socket <path>] [--workers <n>] [--queue-depth <n>]\n       \
     xp submit (--trace <path> | --app <name>) [--socket <path>] \
     [--scheme <scheme>] [--scale <s>] [--shards <n|auto>] \
     [--quarantine <n|unlimited>] [--snapshot-every <n>]\n       \
     xp shutdown [--socket <path>] [--no-drain]\n       \
     xp convert --trace <path> --out <path> [--format v1|v2|text] [--block-len <n>]\n       \
     xp tracestat <paths...> [--quarantine <n|unlimited>] [--csv <dir>]"
}

/// Default daemon socket: stable per user+machine, in the temp dir.
fn default_socket() -> PathBuf {
    std::env::temp_dir().join("tlbsim.sock")
}

/// The flags `experiment`'s line of [`usage`] lists, or `None` for an
/// unknown experiment (which `run_one` rejects by name).
fn accepted_flags(experiment: &str) -> Option<Vec<&'static str>> {
    let line = usage().lines().find(|line| {
        let mut words = line.split_whitespace().skip_while(|word| *word != "xp");
        words.nth(1).is_some_and(|commands| {
            commands
                .trim_matches(|c| c == '<' || c == '>')
                .split('|')
                .any(|command| command == experiment)
        })
    })?;
    Some(
        line.split(|c: char| c.is_whitespace() || "[]()".contains(c))
            .filter(|word| word.starts_with("--"))
            .collect(),
    )
}

/// Parses the arguments after the program name.
fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut experiment = None;
    let mut scale = Scale::STANDARD;
    let mut shards = None;
    let mut csv_dir = None;
    let mut out = None;
    let mut app = None;
    let mut trace = None;
    let mut limit = None;
    let mut streams = Vec::new();
    let mut quantum = 50_000u64;
    let mut switch_policy = "none".to_owned();
    let mut asid_contexts = 0usize;
    let mut table_policy = "shared".to_owned();
    let mut policy = DecodePolicy::Strict;
    let mut seed = 1u64;
    let mut corrupt = 0usize;
    let mut wild = 0usize;
    let mut truncate = false;
    let mut socket = default_socket();
    let mut workers = 0usize;
    let mut queue_depth = 64usize;
    let mut scheme = "dp".to_owned();
    let mut snapshot_every = 0u64;
    let mut no_drain = false;
    let mut format = None;
    let mut block_len = None;
    let mut stream_window = None;
    let mut paths = Vec::new();
    let mut flags = Vec::new();
    let mut argv = argv.into_iter();
    while let Some(arg) = argv.next() {
        if arg.starts_with("--") {
            flags.push(arg.clone());
        }
        match arg.as_str() {
            "--app" => {
                app = Some(argv.next().ok_or("--app needs an application name")?);
            }
            "--streams" => {
                let value = argv
                    .next()
                    .ok_or("--streams needs a comma-separated list")?;
                streams = value
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(str::to_owned)
                    .collect();
                if streams.is_empty() {
                    return Err("--streams needs at least one stream".to_owned());
                }
            }
            "--quantum" => {
                let value = argv.next().ok_or("--quantum needs a value")?;
                quantum = value
                    .parse::<u64>()
                    .ok()
                    .filter(|n| *n >= 1)
                    .ok_or_else(|| format!("bad quantum {value:?} (want an integer >= 1)"))?;
            }
            "--switch-policy" => {
                let value = argv
                    .next()
                    .ok_or("--switch-policy needs <none|flush|asid>")?;
                match value.as_str() {
                    "none" | "flush" | "asid" => switch_policy = value,
                    other => {
                        return Err(format!(
                            "bad switch policy {other:?} (want \"none\", \"flush\" or \"asid\")"
                        ))
                    }
                }
            }
            // Older spelling of `--switch-policy flush`, kept for scripts.
            "--flush-on-switch" => {
                switch_policy = "flush".to_owned();
            }
            "--asid-contexts" => {
                let value = argv.next().ok_or("--asid-contexts needs a count")?;
                asid_contexts = value
                    .parse::<usize>()
                    .ok()
                    .filter(|n| *n >= 1)
                    .ok_or_else(|| format!("bad context count {value:?} (want an integer >= 1)"))?;
            }
            "--table-policy" => {
                let value = argv
                    .next()
                    .ok_or("--table-policy needs <shared|partitioned>")?;
                match value.as_str() {
                    "shared" | "partitioned" => table_policy = value,
                    other => {
                        return Err(format!(
                            "bad table policy {other:?} (want \"shared\" or \"partitioned\")"
                        ))
                    }
                }
            }
            "--quarantine" => {
                let value = argv.next().ok_or("--quarantine needs <n|unlimited>")?;
                policy = match value.as_str() {
                    "unlimited" => DecodePolicy::lenient(),
                    n => DecodePolicy::quarantine(n.parse::<u64>().map_err(|_| {
                        format!("bad quarantine budget {n:?} (want an integer or \"unlimited\")")
                    })?),
                };
            }
            "--seed" => {
                let value = argv.next().ok_or("--seed needs a value")?;
                seed = value
                    .parse::<u64>()
                    .map_err(|_| format!("bad seed {value:?}"))?;
            }
            "--corrupt" => {
                let value = argv.next().ok_or("--corrupt needs a count")?;
                corrupt = value
                    .parse::<usize>()
                    .map_err(|_| format!("bad corrupt count {value:?}"))?;
            }
            "--wild" => {
                let value = argv.next().ok_or("--wild needs a count")?;
                wild = value
                    .parse::<usize>()
                    .map_err(|_| format!("bad wild count {value:?}"))?;
            }
            "--truncate" => {
                truncate = true;
            }
            "--trace" => {
                trace = Some(PathBuf::from(
                    argv.next().ok_or("--trace needs a trace file path")?,
                ));
            }
            "--limit" => {
                let value = argv.next().ok_or("--limit needs a value")?;
                limit = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|n| *n >= 1)
                        .ok_or_else(|| format!("bad limit {value:?} (want an integer >= 1)"))?,
                );
            }
            "--scale" => {
                let value = argv.next().ok_or("--scale needs a value")?;
                scale = match value.as_str() {
                    "tiny" => Scale::TINY,
                    "small" => Scale::SMALL,
                    "standard" => Scale::STANDARD,
                    n => Scale::new(
                        n.parse::<u32>()
                            .ok()
                            .filter(|n| *n >= 1)
                            .ok_or_else(|| format!("bad scale {n:?}"))?,
                    ),
                };
            }
            "--shards" => {
                let value = argv.next().ok_or("--shards needs <n|auto>")?;
                // 0 is the internal "auto" sentinel (resolved per run by
                // `tlbsim_sim::resolve_shards`); only the word spells it.
                shards = Some(match value.as_str() {
                    "auto" => 0,
                    n => n.parse::<usize>().ok().filter(|n| *n >= 1).ok_or_else(|| {
                        format!("bad shard count {n:?} (want an integer >= 1, or \"auto\")")
                    })?,
                });
            }
            "--socket" => {
                socket = PathBuf::from(argv.next().ok_or("--socket needs a path")?);
            }
            "--workers" => {
                let value = argv.next().ok_or("--workers needs a count")?;
                workers = value
                    .parse::<usize>()
                    .map_err(|_| format!("bad worker count {value:?}"))?;
            }
            "--queue-depth" => {
                let value = argv.next().ok_or("--queue-depth needs a count")?;
                queue_depth = value
                    .parse::<usize>()
                    .ok()
                    .filter(|n| *n >= 1)
                    .ok_or_else(|| format!("bad queue depth {value:?} (want an integer >= 1)"))?;
            }
            "--scheme" => {
                scheme = argv.next().ok_or("--scheme needs a scheme name")?;
            }
            "--snapshot-every" => {
                let value = argv.next().ok_or("--snapshot-every needs a cadence")?;
                snapshot_every = value
                    .parse::<u64>()
                    .map_err(|_| format!("bad snapshot cadence {value:?}"))?;
            }
            "--no-drain" => {
                no_drain = true;
            }
            "--format" => {
                let value = argv.next().ok_or("--format needs <v1|v2|text>")?;
                match value.as_str() {
                    "v1" | "v2" | "text" => format = Some(value),
                    other => {
                        return Err(format!(
                            "bad format {other:?} (want \"v1\", \"v2\" or \"text\")"
                        ))
                    }
                }
            }
            "--block-len" => {
                let value = argv.next().ok_or("--block-len needs a record count")?;
                block_len = Some(
                    value
                        .parse::<u32>()
                        .ok()
                        .filter(|n| *n >= 1)
                        .ok_or_else(|| {
                            format!("bad block length {value:?} (want an integer >= 1)")
                        })?,
                );
            }
            "--stream-window" => {
                let value = argv.next().ok_or("--stream-window needs a block count")?;
                stream_window = Some(value.parse::<u64>().ok().filter(|n| *n >= 1).ok_or_else(
                    || format!("bad stream window {value:?} (want an integer >= 1)"),
                )?);
            }
            "--csv" => {
                csv_dir = Some(PathBuf::from(argv.next().ok_or("--csv needs a directory")?));
            }
            "--out" => {
                out = Some(PathBuf::from(argv.next().ok_or("--out needs a path")?));
            }
            "--help" | "-h" => return Err(usage().to_owned()),
            other if experiment.is_none() && !other.starts_with('-') => {
                experiment = Some(other.to_owned());
            }
            // `tracestat` takes trailing bare paths: every later
            // non-flag word is a trace file to summarize.
            other if experiment.as_deref() == Some("tracestat") && !other.starts_with('-') => {
                paths.push(PathBuf::from(other));
            }
            other => return Err(format!("unexpected argument {other:?}\n{}", usage())),
        }
    }
    let experiment = experiment.unwrap_or_else(|| "all".to_owned());
    if let Some(accepted) = accepted_flags(&experiment) {
        if let Some(flag) = flags.iter().find(|flag| !accepted.contains(&flag.as_str())) {
            return Err(format!("{experiment} does not take {flag}\n{}", usage()));
        }
    }
    Ok(Args {
        experiment,
        scale,
        shards,
        csv_dir,
        out,
        app,
        trace,
        limit,
        streams,
        quantum,
        switch_policy,
        asid_contexts,
        table_policy,
        policy,
        seed,
        corrupt,
        wild,
        truncate,
        socket,
        workers,
        queue_depth,
        scheme,
        snapshot_every,
        no_drain,
        format,
        block_len,
        stream_window,
        paths,
    })
}

/// Resolves `--format`/`--block-len` into a [`replay::RecordFormat`]
/// for the binary-writing commands (`record`, and `convert`'s binary
/// outputs). `--block-len` without v2 is a contradiction, not a silent
/// no-op.
fn parse_record_format(args: &Args) -> Result<replay::RecordFormat, String> {
    match args.format.as_deref() {
        Some("v2") => Ok(replay::RecordFormat::V2 {
            block_len: args.block_len.unwrap_or(DEFAULT_BLOCK_LEN),
        }),
        None | Some("v1") => {
            if args.block_len.is_some() {
                Err("--block-len only applies to --format v2".to_owned())
            } else {
                Ok(replay::RecordFormat::V1)
            }
        }
        Some(other) => Err(format!("--format {other} is not a binary trace format")),
    }
}

fn run_record(args: &Args) -> Result<(), String> {
    let app = args
        .app
        .as_deref()
        .ok_or_else(|| format!("record needs --app <name>\n{}", usage()))?;
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| PathBuf::from(format!("{app}.tlbt")));
    if args.format.as_deref() == Some("text") {
        return Err(format!(
            "record writes binary traces (use `xp convert` for text)\n{}",
            usage()
        ));
    }
    let format = parse_record_format(args)?;
    let summary = replay::record_with_format(app, args.scale, args.limit, &path, format)
        .map_err(|e| format!("record: {e}"))?;
    println!("{}", summary.render());
    Ok(())
}

fn run_replay(args: &Args) -> Result<(), String> {
    let trace = args
        .trace
        .as_deref()
        .ok_or_else(|| format!("replay needs --trace <path>\n{}", usage()))?;
    let report = replay::replay_with_options(trace, args.shards(), args.policy, args.stream_window)
        .map_err(|e| format!("replay: {e}"))?;
    emit("replay", report.render(), report.to_csv(), &args.csv_dir)
}

fn run_tracestat(args: &Args) -> Result<(), String> {
    if args.paths.is_empty() {
        return Err(format!("tracestat needs at least one path\n{}", usage()));
    }
    let mut rows = vec![tracestat::csv_header().to_owned()];
    let mut stats = Vec::with_capacity(args.paths.len());
    for path in &args.paths {
        let stat = tracestat::stat(path, args.policy)
            .map_err(|e| format!("tracestat: {}: {e}", path.display()))?;
        println!("{}", stat.render());
        rows.push(stat.to_csv_row());
        stats.push(stat);
    }
    if stats.len() > 1 {
        let corpus = tracestat::CorpusStat::from_stats(&stats);
        println!("{}", corpus.render());
        rows.push(corpus.to_csv_row());
    }
    if let Some(dir) = &args.csv_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {dir:?}: {e}"))?;
        let path = dir.join("tracestat.csv");
        let mut csv = rows.join("\n");
        csv.push('\n');
        std::fs::write(&path, csv).map_err(|e| format!("writing {path:?}: {e}"))?;
        eprintln!("wrote {}", path.display());
    }
    Ok(())
}

fn run_mix(args: &Args) -> Result<(), String> {
    if args.streams.is_empty() {
        return Err(format!("mix needs --streams <a,b,...>\n{}", usage()));
    }
    let switch_policy = match args.switch_policy.as_str() {
        "none" => SwitchPolicy::None,
        "flush" => SwitchPolicy::FlushOnSwitch,
        "asid" => SwitchPolicy::Asid {
            // Default: every stream keeps a live context — fully
            // flush-free. `--asid-contexts` squeezes that down.
            contexts: if args.asid_contexts == 0 {
                args.streams.len()
            } else {
                args.asid_contexts
            },
            tables: match args.table_policy.as_str() {
                "partitioned" => TablePolicy::Partitioned,
                _ => TablePolicy::Shared,
            },
        },
        other => return Err(format!("bad switch policy {other:?}\n{}", usage())),
    };
    let report = mix::mix_with_policy(
        &args.streams,
        args.scale,
        args.quantum,
        switch_policy,
        args.shards(),
        args.policy,
    )
    .map_err(|e| format!("mix: {e}"))?;
    emit("mix", report.render(), report.to_csv(), &args.csv_dir)
}

fn run_check(args: &Args) -> Result<(), String> {
    let trace = args
        .trace
        .as_deref()
        .ok_or_else(|| format!("check needs --trace <path>\n{}", usage()))?;
    let report = health::check(trace, args.policy).map_err(|e| format!("check: {e}"))?;
    println!("{}", report.render());
    if report.admitted {
        Ok(())
    } else {
        Err(format!(
            "check: {} fails the {} policy ({})",
            trace.display(),
            report.policy,
            report.health
        ))
    }
}

fn run_chaos(args: &Args) -> Result<(), String> {
    let trace = args
        .trace
        .as_deref()
        .ok_or_else(|| format!("chaos needs --trace <path>\n{}", usage()))?;
    let out = args
        .out
        .as_deref()
        .ok_or_else(|| format!("chaos needs --out <path>\n{}", usage()))?;
    if args.corrupt == 0 && args.wild == 0 && !args.truncate {
        return Err(format!(
            "chaos needs at least one of --corrupt/--wild/--truncate\n{}",
            usage()
        ));
    }
    let summary = health::bake(
        trace,
        out,
        args.seed,
        args.corrupt,
        args.wild,
        args.truncate,
    )
    .map_err(|e| format!("chaos: {e}"))?;
    println!("{}", summary.render());
    Ok(())
}

fn run_serve(args: &Args) -> Result<(), String> {
    let server = Server::bind(
        &args.socket,
        ServerConfig {
            workers: args.workers,
            queue_depth: args.queue_depth,
        },
    )
    .map_err(|e| format!("serve: binding {}: {e}", args.socket.display()))?;
    let workers = if args.workers == 0 {
        "auto".to_owned()
    } else {
        args.workers.to_string()
    };
    eprintln!(
        "tlbsim daemon listening on {} (workers {workers}, queue depth {})",
        server.path().display(),
        args.queue_depth
    );
    server.run().map_err(|e| format!("serve: {e}"))
}

fn run_submit(args: &Args) -> Result<(), String> {
    let mut job = match (&args.trace, &args.app) {
        (Some(trace), None) => JobSpec::trace(trace.display().to_string()),
        (None, Some(app)) => JobSpec::app(app.clone()),
        _ => {
            return Err(format!(
                "submit needs exactly one of --trace <path> / --app <name>\n{}",
                usage()
            ))
        }
    };
    let scheme = &args.scheme;
    job.scheme = scheme
        .parse()
        .map_err(|e| format!("bad scheme {scheme:?}: {e}"))?;
    job.scale = args.scale;
    job.shards =
        u32::try_from(args.shards()).map_err(|_| "shard count overflows u32".to_owned())?;
    job.policy = args.policy;
    job.snapshot_every = args.snapshot_every;
    let mut client = Client::connect(&args.socket)
        .map_err(|e| format!("submit: connecting {}: {e}", args.socket.display()))?;
    let outcome = client
        .run_job(1, &job)
        .map_err(|e| format!("submit: {e}"))?;
    println!(
        "job done: {} accesses across {} shard(s), scheme {}",
        outcome.stream_len,
        outcome.shards,
        job.scheme.label()
    );
    println!(
        "accuracy {:.3}  miss rate {:.4}  (misses {}, prefetch buffer hits {})",
        outcome.stats.accuracy(),
        outcome.stats.miss_rate(),
        outcome.stats.misses,
        outcome.stats.prefetch_buffer_hits
    );
    if !outcome.snapshots.is_empty() {
        println!(
            "snapshots: {} (cadence {})",
            outcome.snapshots.len(),
            job.snapshot_every
        );
    }
    let health = &outcome.health;
    if health.retries != 0 || health.degraded_shards != 0 || health.quarantined_records != 0 {
        println!(
            "health: {} retries, {} degraded shards, {} quarantined records",
            health.retries, health.degraded_shards, health.quarantined_records
        );
    }
    Ok(())
}

fn run_shutdown(args: &Args) -> Result<(), String> {
    let mut client = Client::connect(&args.socket)
        .map_err(|e| format!("shutdown: connecting {}: {e}", args.socket.display()))?;
    client
        .shutdown(!args.no_drain)
        .map_err(|e| format!("shutdown: {e}"))?;
    eprintln!(
        "daemon at {} shutting down ({})",
        args.socket.display(),
        if args.no_drain {
            "queued jobs failed"
        } else {
            "draining queued jobs"
        }
    );
    Ok(())
}

fn run_convert(args: &Args) -> Result<(), String> {
    use tlbsim_core::MemoryAccess;
    use tlbsim_trace::{TraceError, TraceWriter};

    let input = args
        .trace
        .as_deref()
        .ok_or_else(|| format!("convert needs --trace <path>\n{}", usage()))?;
    let out = args
        .out
        .as_deref()
        .ok_or_else(|| format!("convert needs --out <path>\n{}", usage()))?;
    let opening = |e: std::io::Error| format!("convert: opening {}: {e}", input.display());
    let create = |path: &std::path::Path| {
        std::fs::File::create(path)
            .map_err(|e| format!("convert: creating {}: {e}", path.display()))
    };
    let read_fail = |e: TraceError| format!("convert: reading {}: {e}", input.display());
    let write_fail = |e: TraceError| format!("convert: writing {}: {e}", out.display());

    // A binary trace opens through the reader, which rejects versions
    // it does not know; anything without the TLBT magic is text.
    let binary = TraceReader::open_if_binary(input, DecodePolicy::Strict).map_err(|e| match e {
        TraceError::Io(e) => opening(e),
        e => read_fail(e),
    })?;
    let src_label = match &binary {
        Some(reader) => format!("TLBT v{}", reader.format_version()),
        None => "text".to_owned(),
    };

    // Output format: explicit --format, else the legacy default
    // (binary -> text, text -> v1) that keeps the bare command its own
    // inverse.
    let default = if binary.is_some() { "text" } else { "v1" };
    let target = args.format.as_deref().unwrap_or(default);
    if target != "v2" && args.block_len.is_some() {
        return Err("--block-len only applies to --format v2".to_owned());
    }

    let source: Box<dyn Iterator<Item = Result<MemoryAccess, TraceError>>> = match &binary {
        Some(reader) => Box::new(reader.cursor()),
        None => Box::new(TextTraceReader::open(
            std::fs::File::open(input).map_err(opening)?,
        )),
    };

    let mut writer = match target {
        "text" => {
            let mut writer = TextTraceWriter::create(create(out)?);
            writer
                .comment(&format!("converted from {}", input.display()))
                .map_err(write_fail)?;
            TraceWriter::Text(writer)
        }
        "v1" => TraceWriter::V1(BinaryTraceWriter::create(create(out)?).map_err(write_fail)?),
        "v2" => TraceWriter::V2(
            V2TraceWriter::create_with_block_len(
                create(out)?,
                args.block_len.unwrap_or(DEFAULT_BLOCK_LEN),
            )
            .map_err(write_fail)?,
        ),
        other => return Err(format!("bad format {other:?}\n{}", usage())),
    };

    for record in source {
        writer
            .write(&record.map_err(read_fail)?)
            .map_err(write_fail)?;
    }
    let records = writer.records_written();
    writer.finish().map_err(write_fail)?;
    println!(
        "converted {} -> {} ({src_label} -> {target}, {records} records)",
        input.display(),
        out.display()
    );
    Ok(())
}

fn emit(
    name: &str,
    rendered: String,
    csv: String,
    csv_dir: &Option<PathBuf>,
) -> Result<(), String> {
    println!("{rendered}");
    if let Some(dir) = csv_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {dir:?}: {e}"))?;
        let path = dir.join(format!("{name}.csv"));
        std::fs::write(&path, csv).map_err(|e| format!("writing {path:?}: {e}"))?;
        eprintln!("wrote {}", path.display());
    }
    Ok(())
}

fn run_one(name: &str, scale: Scale, csv_dir: &Option<PathBuf>) -> Result<(), String> {
    let fail = |e: tlbsim_sim::SimError| format!("{name}: {e}");
    match name {
        "table1" => {
            let t = table1::run();
            emit(name, t.render(), t.to_csv(), csv_dir)
        }
        "table2" => {
            let t = table2::run(scale).map_err(fail)?;
            emit(name, t.render(), t.to_csv(), csv_dir)
        }
        "table3" => {
            let t = table3::run(scale).map_err(fail)?;
            emit(name, t.render(), t.to_csv(), csv_dir)
        }
        "figure7" => {
            let f = figure7::run(scale).map_err(fail)?;
            emit(name, f.render(), f.to_csv(), csv_dir)
        }
        "figure8" => {
            let f = figure8::run(scale).map_err(fail)?;
            emit(name, f.render(), f.to_csv(), csv_dir)
        }
        "figure9" => {
            let f = figure9::run(scale).map_err(fail)?;
            emit(name, f.render(), f.to_csv(), csv_dir)
        }
        "extras" => {
            let e = extras::run(scale).map_err(fail)?;
            emit(name, e.render(), e.to_csv(), csv_dir)
        }
        other => Err(format!("unknown experiment {other:?}\n{}", usage())),
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(outcome) = match args.experiment.as_str() {
        "record" => Some(run_record(&args)),
        "replay" => Some(run_replay(&args)),
        "mix" => Some(run_mix(&args)),
        "check" => Some(run_check(&args)),
        "chaos" => Some(run_chaos(&args)),
        "serve" => Some(run_serve(&args)),
        "submit" => Some(run_submit(&args)),
        "shutdown" => Some(run_shutdown(&args)),
        "convert" => Some(run_convert(&args)),
        "tracestat" => Some(run_tracestat(&args)),
        _ => None,
    } {
        return match outcome {
            Ok(()) => ExitCode::SUCCESS,
            Err(message) => {
                eprintln!("{message}");
                ExitCode::FAILURE
            }
        };
    }
    let experiments: Vec<&str> = if args.experiment == "all" {
        vec![
            "table1", "figure7", "figure8", "table2", "table3", "figure9", "extras",
        ]
    } else {
        vec![args.experiment.as_str()]
    };
    eprintln!(
        "running {} at scale {} …",
        experiments.join(", "),
        args.scale
    );
    for name in experiments {
        let started = std::time::Instant::now();
        if let Err(message) = run_one(name, args.scale, &args.csv_dir) {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
        eprintln!("{name} done in {:.1?}", started.elapsed());
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn flags_a_subcommand_does_not_read_are_rejected_by_name() {
        for (line, flag) in [
            (
                "check --trace tests/data/gap-tiny-2k.tlbt --shards 2",
                "--shards",
            ),
            (
                "tracestat tests/data/gap-tiny-2k.tlbt --shards 2",
                "--shards",
            ),
            ("figure9 --scale tiny --stream-window 4", "--stream-window"),
        ] {
            let message = parse(line).err().expect(line);
            assert!(message.contains(flag), "{line}: {message}");
            assert!(message.contains(usage()), "{line}: {message}");
        }
        // A zero scale is rejected like a zero quantum, not run at x1.
        assert_eq!(
            parse("table2 --scale 0").err().as_deref(),
            Some("bad scale \"0\"")
        );
    }

    /// `xp convert`'s row of the trace error matrix (the library entry
    /// points are in `tests/trace_errors.rs`): the exact error line, or
    /// the size of what a successful conversion to text wrote.
    #[test]
    fn convert_reports_the_pinned_error_for_every_bad_input() {
        use tlbsim_core::MemoryAccess;
        use tlbsim_trace::{FOOTER_BYTES, HEADER_BYTES, INDEX_ENTRY_BYTES, RESTART_BYTES};

        let records: Vec<MemoryAccess> = (0..40u64)
            .map(|i| MemoryAccess::read(0x400 + i, i * 4096))
            .collect();
        let mut v1 = BinaryTraceWriter::create(Vec::new()).expect("header");
        let mut v2 = V2TraceWriter::create_with_block_len(Vec::new(), 8).expect("header");
        for r in &records {
            v1.write(r).expect("in-memory write");
            v2.write(r).expect("in-memory write");
        }
        let (v1, v2) = (v1.finish().expect("finish"), v2.finish().expect("finish"));
        let index = v2.len() - FOOTER_BYTES - 5 * INDEX_ENTRY_BYTES;
        let header = |version: u16| [b"TLBT".as_slice(), &version.to_le_bytes(), &[0, 0]].concat();
        let mut bad_magic = v1.clone();
        bad_magic[0] = b'X';
        let torn_tail = v1[..v1.len() - 5].to_vec();
        let mut bad_kind = v1.clone();
        for record in [3, 20] {
            bad_kind[HEADER_BYTES + record * 17 + 16] = 0xEE;
        }
        let no_footer = v2[..v2.len() - FOOTER_BYTES].to_vec();
        let mut torn_index = v2.clone();
        torn_index[index + INDEX_ENTRY_BYTES + 8] = 9;
        let mut corrupt_block = v2.clone();
        let entry = |i: usize| {
            let at = index + i * INDEX_ENTRY_BYTES;
            u64::from_le_bytes(v2[at..at + 8].try_into().expect("8 bytes")) as usize
        };
        corrupt_block[entry(1) + RESTART_BYTES + 1..entry(2)].fill(0x80);
        let inputs: [(&str, Vec<u8>); 13] = [
            ("empty", Vec::new()),
            ("three bytes", b"TLB".to_vec()),
            ("bad magic", bad_magic),
            ("version 0", header(0)),
            ("version 3", header(3)),
            ("version 0xFFFF", header(0xFFFF)),
            ("v1 torn tail", torn_tail),
            ("v1 bad kind", bad_kind),
            ("v2 no footer", no_footer),
            ("v2 torn index", torn_index),
            ("v2 corrupt block", corrupt_block),
            ("clean v1", v1),
            ("clean v2", v2),
        ];

        let dir = std::env::temp_dir();
        let (input, out) = (
            dir.join(format!("xp-convert-{}.tlbt", std::process::id())),
            dir.join(format!("xp-convert-{}.txt", std::process::id())),
        );
        let mut actual = String::new();
        for (label, bytes) in inputs {
            std::fs::write(&input, bytes).expect("temp file");
            std::fs::remove_file(&out).ok();
            let line = format!(
                "convert --trace {} --out {}",
                input.display(),
                out.display()
            );
            let outcome = match run_convert(&parse(&line).expect("parses")) {
                // The text output names its input; count that as `<in>`.
                Ok(()) => format!(
                    "ok, {} bytes written",
                    String::from_utf8_lossy(&std::fs::read(&out).expect("output"))
                        .replace(&input.display().to_string(), "<in>")
                        .len()
                ),
                Err(e) => format!(
                    "exit 1: {}",
                    e.replace(&input.display().to_string(), "<in>")
                ),
            };
            actual.push_str(&format!("{label}: {outcome}\n"));
        }
        std::fs::remove_file(&input).ok();
        std::fs::remove_file(&out).ok();
        let expected = concat!(
            "empty: ok, 8 bytes written\n",
            "three bytes: exit 1: convert: reading <in>: trace parse error at line 1: expected `pc R|W vaddr`, got \"TLB\"\n",
            "bad magic: exit 1: convert: reading <in>: trace i/o error: stream did not contain valid UTF-8\n",
            "version 0: exit 1: convert: reading <in>: unsupported trace version 0\n",
            "version 3: exit 1: convert: reading <in>: unsupported trace version 3\n",
            "version 0xFFFF: exit 1: convert: reading <in>: unsupported trace version 65535\n",
            "v1 torn tail: exit 1: convert: reading <in>: trace ends mid-record\n",
            "v1 bad kind: exit 1: convert: reading <in>: invalid access kind byte 0xee\n",
            "v2 no footer: exit 1: convert: reading <in>: v2 trace index is damaged: footer magic missing\n",
            "v2 torn index: exit 1: convert: reading <in>: v2 trace index is damaged: index record numbering is inconsistent\n",
            "v2 corrupt block: exit 1: convert: reading <in>: v2 trace block 1 has a damaged delta payload\n",
            "clean v1: ok, 643 bytes written\n",
            "clean v2: ok, 643 bytes written\n",
        );
        assert_eq!(actual, expected);
    }

    #[test]
    fn flags_a_subcommand_reads_are_accepted() {
        for line in [
            "all --scale tiny --csv out",
            "--scale tiny figure9",
            "replay --trace t.tlbt --shards 2 --quarantine 10 --stream-window 4",
            "mix --streams gap,mcf --scale tiny --quantum 500 --flush-on-switch --shards 2",
            "submit --socket s --app gap --scale tiny --shards auto --scheme c+dp",
            "tracestat a.tlbt b.tlbt --quarantine unlimited",
            "unknown --shards 2",
        ] {
            assert!(parse(line).is_ok(), "{line}");
        }
    }
}
