//! The external-trace pipeline: generate a workload, persist it in the
//! binary trace format, summarize the file as `xp tracestat` does, and
//! simulate from the trace — exactly how a trace captured by an
//! external tool (Pin, DynamoRIO, QEMU) would be consumed.
//!
//! ```text
//! cargo run --release --example trace_pipeline [app-name]
//! ```

use tlb_distance::experiments::tracestat;
use tlb_distance::prelude::*;
use tlb_distance::trace::{BinaryTraceReader, BinaryTraceWriter};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let name = std::env::args().nth(1).unwrap_or_else(|| "swim".to_owned());
    let app = find_app(&name).ok_or_else(|| format!("unknown application {name:?}"))?;

    // 1. Capture the workload into a binary trace file.
    let path = std::env::temp_dir().join(format!("tlb-distance-{name}.trace"));
    let file = std::fs::File::create(&path)?;
    let mut writer = BinaryTraceWriter::create(file)?;
    for access in app.workload(Scale::TINY) {
        writer.write(&access)?;
    }
    let written = writer.records_written();
    writer.finish()?;
    let bytes = std::fs::metadata(&path)?.len();
    println!(
        "wrote {written} records ({bytes} bytes) to {}",
        path.display()
    );

    // 2. Analyse the trace: kind mix, page footprint, bytes per record.
    let stat = tracestat::stat(&path, DecodePolicy::Strict)?;
    println!("\n{}", stat.render());

    // 3. Simulate straight from the file, skipping a warm-up window.
    let reader = BinaryTraceReader::open(std::fs::File::open(&path)?)?;
    let stream = reader.map(|r| r.expect("valid record")).skip(1_000);
    let mut engine = Engine::new(&SimConfig::paper_default())?;
    engine.run(stream);
    println!("\nsimulation from trace (after 1k-record fast-forward):");
    println!("  {}", engine.stats());

    std::fs::remove_file(&path)?;
    Ok(())
}
