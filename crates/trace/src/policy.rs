//! Decode policies and trace-health reporting.
//!
//! Every reader in this crate decodes under a [`DecodePolicy`]:
//!
//! * [`DecodePolicy::Strict`] (the default) is today's behaviour,
//!   bit-for-bit — the first malformed record aborts the decode with a
//!   typed [`TraceError`](crate::TraceError);
//! * [`DecodePolicy::Quarantine`] skips unparseable records instead,
//!   resynchronising on the fixed 17-byte record grid (a bad kind byte
//!   corrupts exactly one cell, never the reader's framing), counts
//!   what it dropped into a [`TraceHealth`] report, and aborts with
//!   [`TraceError::QuarantineExceeded`](crate::TraceError::QuarantineExceeded)
//!   only once more than `max_bad` records have been quarantined.
//!
//! The normative description of what counts as a bad record — and why
//! grid resync is always safe — lives in `docs/TRACE_FORMAT.md`
//! ("Corruption & quarantine semantics").

use std::fmt;

/// How a trace reader treats malformed records.
///
/// # Examples
///
/// ```
/// use tlbsim_trace::{DecodePolicy, TraceHealth};
///
/// let clean = TraceHealth { records_ok: 100, ..TraceHealth::default() };
/// assert!(DecodePolicy::Strict.admits(&clean));
///
/// let scarred = TraceHealth { records_ok: 98, records_bad: 2, ..clean };
/// assert!(!DecodePolicy::Strict.admits(&scarred));
/// assert!(DecodePolicy::quarantine(4).admits(&scarred));
/// assert!(!DecodePolicy::quarantine(1).admits(&scarred));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DecodePolicy {
    /// Abort on the first malformed record (the default; bit-identical
    /// to the pre-quarantine readers).
    #[default]
    Strict,
    /// Skip malformed records — resyncing on the 17-byte record grid —
    /// and count them, aborting only past a bad-record budget.
    Quarantine {
        /// Maximum quarantined records tolerated before the decode
        /// aborts with `TraceError::QuarantineExceeded`.
        max_bad: u64,
    },
}

impl DecodePolicy {
    /// Quarantine with an explicit bad-record budget.
    pub fn quarantine(max_bad: u64) -> Self {
        DecodePolicy::Quarantine { max_bad }
    }

    /// Quarantine with an unlimited budget — decode everything
    /// decodable and report the damage. Used by `xp check` to produce a
    /// full [`TraceHealth`] report even for badly scarred files.
    pub fn lenient() -> Self {
        DecodePolicy::Quarantine { max_bad: u64::MAX }
    }

    /// Whether this is the strict (abort-on-first-fault) policy.
    pub fn is_strict(self) -> bool {
        matches!(self, DecodePolicy::Strict)
    }

    /// Whether a trace with this health report is acceptable under the
    /// policy: Strict admits only clean traces; Quarantine admits up to
    /// `max_bad` quarantined records (a torn tail is tolerated).
    pub fn admits(self, health: &TraceHealth) -> bool {
        match self {
            DecodePolicy::Strict => health.is_clean(),
            DecodePolicy::Quarantine { max_bad } => health.records_bad <= max_bad,
        }
    }
}

impl fmt::Display for DecodePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodePolicy::Strict => f.write_str("strict"),
            DecodePolicy::Quarantine { max_bad: u64::MAX } => f.write_str("quarantine"),
            DecodePolicy::Quarantine { max_bad } => write!(f, "quarantine(max_bad={max_bad})"),
        }
    }
}

/// What a decode pass found: how many records were usable, how many
/// were quarantined, and whether the file ends in a torn record.
///
/// Produced by [`MmapTrace::scan_health`](crate::MmapTrace::scan_health),
/// by [`MmapTraceCursor::health`](crate::MmapTraceCursor::health) as a
/// running tally, and surfaced end-to-end through
/// `TraceWorkload::health` and the sharded runner's `RunHealth`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceHealth {
    /// Records decoded successfully.
    pub records_ok: u64,
    /// Records skipped as unparseable (bad kind byte).
    pub records_bad: u64,
    /// Bytes of a torn final record (0 for a record-aligned body).
    pub torn_tail_bytes: u64,
    /// Index (on the raw 17-byte grid) of the first quarantined record.
    pub first_bad_record: Option<u64>,
    /// Whole v2 blocks quarantined. v2 damage is block-granular — a
    /// damaged block loses every record it held, and those records are
    /// already counted in `records_bad` — so this field refines, never
    /// extends, the bad-record tally. Always 0 on v1 paths.
    pub blocks_bad: u64,
}

impl TraceHealth {
    /// Whether the trace decoded without any fault.
    pub fn is_clean(&self) -> bool {
        self.records_bad == 0 && self.torn_tail_bytes == 0
    }

    /// All whole records on the grid, good and bad.
    pub fn total_records(&self) -> u64 {
        self.records_ok + self.records_bad
    }
}

impl fmt::Display for TraceHealth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} records ok", self.records_ok)?;
        if self.records_bad > 0 {
            write!(f, ", {} quarantined", self.records_bad)?;
            if let Some(first) = self.first_bad_record {
                write!(f, " (first at record {first})")?;
            }
        }
        if self.blocks_bad > 0 {
            write!(f, " in {} bad blocks", self.blocks_bad)?;
        }
        if self.torn_tail_bytes > 0 {
            write!(f, ", {}-byte torn tail", self.torn_tail_bytes)?;
        }
        if self.is_clean() {
            f.write_str(", clean")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strict_admits_only_clean() {
        let clean = TraceHealth {
            records_ok: 10,
            ..TraceHealth::default()
        };
        assert!(clean.is_clean());
        assert!(DecodePolicy::Strict.admits(&clean));
        let torn = TraceHealth {
            torn_tail_bytes: 5,
            ..clean
        };
        assert!(!DecodePolicy::Strict.admits(&torn));
        assert!(DecodePolicy::quarantine(0).admits(&torn));
    }

    #[test]
    fn quarantine_budget_is_inclusive() {
        let h = TraceHealth {
            records_ok: 7,
            records_bad: 3,
            torn_tail_bytes: 0,
            first_bad_record: Some(2),
            blocks_bad: 0,
        };
        assert!(DecodePolicy::quarantine(3).admits(&h));
        assert!(!DecodePolicy::quarantine(2).admits(&h));
        assert!(DecodePolicy::lenient().admits(&h));
        assert_eq!(h.total_records(), 10);
    }

    #[test]
    fn display_is_informative() {
        assert_eq!(DecodePolicy::Strict.to_string(), "strict");
        assert!(DecodePolicy::quarantine(9).to_string().contains("9"));
        let h = TraceHealth {
            records_ok: 98,
            records_bad: 2,
            torn_tail_bytes: 5,
            first_bad_record: Some(17),
            blocks_bad: 1,
        };
        let s = h.to_string();
        assert!(s.contains("98 records ok"));
        assert!(s.contains("2 quarantined"));
        assert!(s.contains("record 17"));
        assert!(s.contains("5-byte torn tail"));
        assert!(s.contains("1 bad block"));
        let clean = TraceHealth {
            records_ok: 4,
            ..TraceHealth::default()
        };
        assert!(clean.to_string().contains("clean"));
    }
}
