//! Trace corpus summarizer (`xp tracestat`).
//!
//! One decode pass per trace file — v1 or v2, read from the header —
//! producing the numbers an experimenter wants before committing hours
//! of simulation to a corpus: record count and kind mix, the page-level
//! footprint (unique 4 KiB pages touched — the quantity a TLB actually
//! contends with), bytes on disk against the flat v1 encoding (the
//! compression the v2 delta blocks bought), and the damage census under
//! the chosen [`DecodePolicy`] (bad records, and for v2 the bad
//! *blocks* that quarantine drops as a unit).

use std::collections::HashSet;
use std::path::{Path, PathBuf};

use tlbsim_core::{AccessKind, MemoryAccess, PageSize};
use tlbsim_trace::{DecodePolicy, TraceHealth, TraceReader};

use crate::replay::ReplayError;

/// The summary of one trace file (`xp tracestat`).
#[derive(Debug, Clone)]
pub struct TraceStat {
    /// The file summarized.
    pub path: PathBuf,
    /// On-disk format version (1 = flat, 2 = delta blocks).
    pub format_version: u16,
    /// Replay backend the open chose (`"mmap"` / `"read"` / …).
    pub backend: &'static str,
    /// Bytes on disk.
    pub file_bytes: u64,
    /// Records decodable under the policy (what a replay would see).
    pub records: u64,
    /// Data loads among the decodable records.
    pub reads: u64,
    /// Data stores among the decodable records.
    pub writes: u64,
    /// Distinct 4 KiB virtual pages touched.
    pub unique_pages: u64,
    /// Records per v2 block (1 for flat v1).
    pub block_len: u64,
    /// Damage census under `policy`.
    pub health: TraceHealth,
    /// Policy the file was decoded under.
    pub policy: DecodePolicy,
}

impl TraceStat {
    /// Records on the grid: decodable plus quarantined.
    pub fn grid_records(&self) -> u64 {
        self.records + self.health.records_bad
    }

    /// Bytes per grid record as stored (v1 is exactly 17 plus header
    /// amortization; v2 is whatever the deltas compressed to).
    pub fn bytes_per_record(&self) -> f64 {
        if self.grid_records() == 0 {
            0.0
        } else {
            self.file_bytes as f64 / self.grid_records() as f64
        }
    }

    /// What the same grid would occupy in the flat v1 encoding.
    pub fn v1_equivalent_bytes(&self) -> u64 {
        tlbsim_trace::HEADER_BYTES as u64 + self.grid_records() * tlbsim_trace::RECORD_BYTES as u64
    }

    /// Flat-v1 size over actual size (> 1 means the file is smaller
    /// than its flat encoding; exactly ~1 for v1 files).
    pub fn compression_ratio(&self) -> f64 {
        if self.file_bytes == 0 {
            0.0
        } else {
            self.v1_equivalent_bytes() as f64 / self.file_bytes as f64
        }
    }

    /// Bytes of the 4 KiB-page footprint.
    pub fn footprint_bytes(&self) -> u64 {
        self.unique_pages * PageSize::DEFAULT.bytes()
    }

    /// Multi-line human-readable summary.
    pub fn render(&self) -> String {
        let pct = |n: u64| {
            if self.records == 0 {
                0.0
            } else {
                100.0 * n as f64 / self.records as f64
            }
        };
        let damage = if self.health.is_clean() {
            "clean".to_owned()
        } else {
            format!("{}", self.health)
        };
        format!(
            "Trace: {} (v{}, {} backend, block {})\n  \
             records   {} decodable of {} on the grid ({} under {})\n  \
             kinds     {} reads ({:.1}%), {} writes ({:.1}%)\n  \
             footprint {} unique pages, {} KiB touched\n  \
             size      {} bytes on disk, {:.2} bytes/record, {:.2}x vs flat v1",
            self.path.display(),
            self.format_version,
            self.backend,
            self.block_len,
            self.records,
            self.grid_records(),
            damage,
            self.policy,
            self.reads,
            pct(self.reads),
            self.writes,
            pct(self.writes),
            self.unique_pages,
            self.footprint_bytes() / 1024,
            self.file_bytes,
            self.bytes_per_record(),
            self.compression_ratio(),
        )
    }

    /// One CSV row (see [`csv_header`]).
    pub fn to_csv_row(&self) -> String {
        format!(
            "{},{},{},{},{},{},{},{},{},{},{},{:.3},{:.3}",
            self.path.display(),
            self.format_version,
            self.block_len,
            self.grid_records(),
            self.records,
            self.health.records_bad,
            self.health.blocks_bad,
            self.reads,
            self.writes,
            self.unique_pages,
            self.file_bytes,
            self.bytes_per_record(),
            self.compression_ratio(),
        )
    }
}

/// Aggregate roll-up of a trace corpus — the summary row `xp
/// tracestat` appends when it is given more than one file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CorpusStat {
    /// Files summarized.
    pub files: u64,
    /// Decodable records across the corpus.
    pub records: u64,
    /// Records on the grid (decodable plus quarantined).
    pub grid_records: u64,
    /// Data loads across the corpus.
    pub reads: u64,
    /// Data stores across the corpus.
    pub writes: u64,
    /// Summed per-file page footprints. Files may share pages, so this
    /// is an upper bound on the corpus-wide union.
    pub unique_pages: u64,
    /// Bytes on disk across the corpus.
    pub file_bytes: u64,
    /// What the corpus would occupy in the flat v1 encoding.
    pub v1_equivalent_bytes: u64,
    /// Quarantined records across the corpus.
    pub records_bad: u64,
    /// Quarantined v2 blocks across the corpus.
    pub blocks_bad: u64,
}

impl CorpusStat {
    /// Rolls up per-file summaries into one corpus row.
    pub fn from_stats<'a>(stats: impl IntoIterator<Item = &'a TraceStat>) -> CorpusStat {
        let mut corpus = CorpusStat::default();
        for s in stats {
            corpus.files += 1;
            corpus.records += s.records;
            corpus.grid_records += s.grid_records();
            corpus.reads += s.reads;
            corpus.writes += s.writes;
            corpus.unique_pages += s.unique_pages;
            corpus.file_bytes += s.file_bytes;
            corpus.v1_equivalent_bytes += s.v1_equivalent_bytes();
            corpus.records_bad += s.health.records_bad;
            corpus.blocks_bad += s.health.blocks_bad;
        }
        corpus
    }

    /// Bytes per grid record as stored, corpus-wide.
    pub fn bytes_per_record(&self) -> f64 {
        if self.grid_records == 0 {
            0.0
        } else {
            self.file_bytes as f64 / self.grid_records as f64
        }
    }

    /// Flat-v1 size over actual size, corpus-wide.
    pub fn compression_ratio(&self) -> f64 {
        if self.file_bytes == 0 {
            0.0
        } else {
            self.v1_equivalent_bytes as f64 / self.file_bytes as f64
        }
    }

    /// Multi-line human-readable corpus summary.
    pub fn render(&self) -> String {
        format!(
            "Corpus: {} files\n  \
             records   {} decodable of {} on the grid ({} bad records, {} bad blocks)\n  \
             kinds     {} reads, {} writes\n  \
             footprint {} summed unique pages (union is at most this)\n  \
             size      {} bytes on disk, {:.2} bytes/record, {:.2}x vs flat v1",
            self.files,
            self.records,
            self.grid_records,
            self.records_bad,
            self.blocks_bad,
            self.reads,
            self.writes,
            self.unique_pages,
            self.file_bytes,
            self.bytes_per_record(),
            self.compression_ratio(),
        )
    }

    /// One CSV row in the same column order as [`csv_header`], with
    /// `TOTAL` in the path column and the corpus-invariant version /
    /// block-length columns blanked.
    pub fn to_csv_row(&self) -> String {
        format!(
            "TOTAL,,,{},{},{},{},{},{},{},{},{:.3},{:.3}",
            self.grid_records,
            self.records,
            self.records_bad,
            self.blocks_bad,
            self.reads,
            self.writes,
            self.unique_pages,
            self.file_bytes,
            self.bytes_per_record(),
            self.compression_ratio(),
        )
    }
}

/// Header for [`TraceStat::to_csv_row`].
pub fn csv_header() -> &'static str {
    "path,version,block_len,grid_records,records_ok,records_bad,blocks_bad,\
     reads,writes,unique_pages,file_bytes,bytes_per_record,compression_ratio"
}

/// Summarizes one trace file under `policy` in a single decode pass.
///
/// # Errors
///
/// [`ReplayError`] if the file cannot be opened, or if its damage
/// exceeds what `policy` tolerates (strict rejects any damage — pass a
/// quarantine policy to census a damaged file).
pub fn stat(path: impl AsRef<Path>, policy: DecodePolicy) -> Result<TraceStat, ReplayError> {
    let path = path.as_ref();
    let trace = TraceReader::open(path, policy)?;
    let file_bytes = std::fs::metadata(path)?.len();

    let mut reads = 0u64;
    let mut writes = 0u64;
    let mut pages: HashSet<u64> = HashSet::new();
    let mut cursor = trace.cursor();
    let mut buf = vec![MemoryAccess::read(0, 0); 4096];
    loop {
        let filled = cursor.decode_batch(&mut buf)?;
        if filled == 0 {
            break;
        }
        for access in &buf[..filled] {
            match access.kind {
                AccessKind::Read => reads += 1,
                AccessKind::Write => writes += 1,
            }
            pages.insert(PageSize::DEFAULT.page_of(access.vaddr).number());
        }
    }

    Ok(TraceStat {
        path: path.to_owned(),
        format_version: trace.format_version(),
        backend: trace.backend(),
        file_bytes,
        records: cursor.health().records_ok,
        reads,
        writes,
        unique_pages: pages.len() as u64,
        block_len: trace.seek_alignment(),
        health: cursor.health(),
        policy,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::{record_with_format, RecordFormat};
    use tlbsim_trace::TraceError;

    fn temp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "tlbsim-tracestat-{}-{tag}.tlbt",
            std::process::id()
        ))
    }

    #[test]
    fn v1_and_v2_recordings_census_identically_except_size() {
        let v1 = temp("v1");
        let v2 = temp("v2");
        record_with_format("gap", tlbsim_workloads::Scale::TINY, Some(5000), &v1, {
            RecordFormat::V1
        })
        .unwrap();
        record_with_format(
            "gap",
            tlbsim_workloads::Scale::TINY,
            Some(5000),
            &v2,
            RecordFormat::V2 { block_len: 256 },
        )
        .unwrap();
        let s1 = stat(&v1, DecodePolicy::Strict).unwrap();
        let s2 = stat(&v2, DecodePolicy::Strict).unwrap();
        assert_eq!(s1.format_version, 1);
        assert_eq!(s2.format_version, 2);
        assert_eq!(s2.block_len, 256);
        assert_eq!(s1.records, 5000);
        assert_eq!(
            (s1.records, s1.reads, s1.writes),
            (s2.records, s2.reads, s2.writes)
        );
        assert_eq!(s1.unique_pages, s2.unique_pages);
        assert_eq!(s1.reads + s1.writes, s1.records);
        assert!(s1.unique_pages > 0);
        // v1 bytes are exact; v2 must be strictly smaller (that is the
        // entire point of the format).
        assert_eq!(s1.file_bytes, s1.v1_equivalent_bytes());
        assert!(s2.file_bytes < s1.file_bytes);
        assert!(s2.compression_ratio() > 1.0);
        assert!(s2.bytes_per_record() < 17.0);
        assert!(s1.render().contains("clean"));
        assert!(s2.render().contains("v2"));
        assert_eq!(
            csv_header().split(',').count(),
            s2.to_csv_row().split(',').count()
        );
        std::fs::remove_file(&v1).unwrap();
        std::fs::remove_file(&v2).unwrap();
    }

    #[test]
    fn corpus_rollup_sums_three_tiny_traces() {
        let mut stats = Vec::new();
        for (i, (app, records)) in [("gap", 400u64), ("mcf", 300), ("gap", 200)]
            .iter()
            .enumerate()
        {
            let path = temp(&format!("corpus-{i}"));
            let format = if i == 1 {
                RecordFormat::V2 { block_len: 64 }
            } else {
                RecordFormat::V1
            };
            record_with_format(app, tlbsim_workloads::Scale::TINY, Some(*records), &path, {
                format
            })
            .unwrap();
            stats.push(stat(&path, DecodePolicy::Strict).unwrap());
            std::fs::remove_file(&path).unwrap();
        }

        let corpus = CorpusStat::from_stats(&stats);
        assert_eq!(corpus.files, 3);
        assert_eq!(corpus.records, 900);
        assert_eq!(corpus.grid_records, 900);
        assert_eq!(corpus.reads + corpus.writes, 900);
        assert_eq!(corpus.records_bad, 0);
        assert_eq!(
            corpus.file_bytes,
            stats.iter().map(|s| s.file_bytes).sum::<u64>()
        );
        assert_eq!(
            corpus.v1_equivalent_bytes,
            stats.iter().map(|s| s.v1_equivalent_bytes()).sum::<u64>()
        );
        assert_eq!(
            corpus.unique_pages,
            stats.iter().map(|s| s.unique_pages).sum::<u64>()
        );
        // One member is v2-compressed, so the corpus as a whole sits
        // below its flat encoding.
        assert!(corpus.compression_ratio() > 1.0);
        assert!(corpus.bytes_per_record() < 17.5);
        assert!(corpus.render().contains("Corpus: 3 files"));
        // The TOTAL row lines up with the per-file CSV columns.
        assert_eq!(
            corpus.to_csv_row().split(',').count(),
            csv_header().split(',').count()
        );
        // An empty corpus renders without dividing by zero.
        let empty = CorpusStat::from_stats([]);
        assert_eq!(empty.files, 0);
        assert_eq!(empty.bytes_per_record(), 0.0);
        assert_eq!(empty.compression_ratio(), 0.0);
    }

    #[test]
    fn damaged_v2_census_counts_bad_blocks_under_quarantine() {
        use tlbsim_trace::{FaultKind, FaultPlan};
        let path = temp("damaged");
        record_with_format(
            "gap",
            tlbsim_workloads::Scale::TINY,
            Some(2000),
            &path,
            RecordFormat::V2 { block_len: 16 },
        )
        .unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        FaultPlan::seeded(9, 2000, &[(FaultKind::CorruptKind, 3)]).apply_to_bytes(&mut bytes);
        std::fs::write(&path, bytes).unwrap();

        let err = stat(&path, DecodePolicy::Strict).unwrap_err();
        assert!(matches!(
            err,
            ReplayError::Trace(TraceError::InvalidKind { .. })
        ));

        let s = stat(&path, DecodePolicy::lenient()).unwrap();
        assert!(s.health.blocks_bad >= 1 && s.health.blocks_bad <= 3);
        assert_eq!(s.health.records_bad, s.health.blocks_bad * 16);
        assert_eq!(s.records, 2000 - s.health.records_bad);
        assert_eq!(s.grid_records(), 2000);
        assert!(s.render().contains("bad block"));
        std::fs::remove_file(&path).unwrap();
    }
}
