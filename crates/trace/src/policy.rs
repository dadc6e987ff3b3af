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
//! Both cursors keep their running tally — counts, first bad record,
//! budget check and terminal state — in one crate-private `Tally`,
//! which their decode and skip paths share.
//!
//! The normative description of what counts as a bad record — and why
//! grid resync is always safe — lives in `docs/TRACE_FORMAT.md`
//! ("Corruption & quarantine semantics").

use std::fmt;

use crate::error::TraceError;

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

/// One cursor's running quarantine tally, shared by the decode and
/// skip paths of both cursors: the good and quarantined record counts,
/// the first quarantined record, the budget check, and the terminal
/// state a blown budget leaves behind.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Tally {
    policy: DecodePolicy,
    ok: u64,
    bad: u64,
    blocks_bad: u64,
    first_bad: Option<u64>,
    /// The blown budget has been reported; the cursor reads as
    /// exhausted from then on.
    spent: bool,
}

impl Tally {
    /// A clean tally under `policy`.
    pub(crate) fn new(policy: DecodePolicy) -> Self {
        Tally {
            policy,
            ok: 0,
            bad: 0,
            blocks_bad: 0,
            first_bad: None,
            spent: false,
        }
    }

    /// The policy the tally enforces.
    #[inline(always)]
    pub(crate) fn policy(&self) -> DecodePolicy {
        self.policy
    }

    /// Counts `n` records decoded or skipped cleanly.
    #[inline(always)]
    pub(crate) fn ok(&mut self, n: u64) {
        self.ok += n;
    }

    /// Counts `records` quarantined records starting at grid record
    /// `first`: one bad v1 cell, or one whole v2 block when `block`.
    /// The budget is not checked here; see [`Tally::check`].
    pub(crate) fn bad(&mut self, first: u64, records: u64, block: bool) {
        self.first_bad.get_or_insert(first);
        self.bad += records;
        self.blocks_bad += u64::from(block);
    }

    /// The budget check: [`TraceError::QuarantineExceeded`] the first
    /// time the tally is past the policy's `max_bad`, whether a decode
    /// or a skip passed it; the tally is terminal from then on.
    pub(crate) fn check(&mut self) -> Result<(), TraceError> {
        match self.policy {
            DecodePolicy::Quarantine { max_bad } if self.bad > max_bad && !self.spent => {
                self.spent = true;
                Err(TraceError::QuarantineExceeded {
                    bad: self.bad,
                    max_bad,
                })
            }
            _ => Ok(()),
        }
    }

    /// Whether the blown budget has been reported: the cursor reads as
    /// exhausted, to a decode and to a skip alike.
    #[inline(always)]
    pub(crate) fn spent(&self) -> bool {
        self.spent
    }

    /// Whether a decode may go on: `Ok(false)` once the blown budget has
    /// been reported, and the one report if a skip blew it.
    #[inline(always)]
    pub(crate) fn admit(&mut self) -> Result<bool, TraceError> {
        if self.spent() {
            return Ok(false);
        }
        self.check()?;
        Ok(true)
    }

    /// The health report of a cursor standing at grid record `position`.
    /// A strict cursor reports every record it passed as ok — it would
    /// have errored otherwise.
    pub(crate) fn health(&self, position: u64, torn_tail_bytes: u64) -> TraceHealth {
        TraceHealth {
            records_ok: match self.policy {
                DecodePolicy::Strict => position,
                DecodePolicy::Quarantine { .. } => self.ok,
            },
            records_bad: self.bad,
            torn_tail_bytes,
            first_bad_record: self.first_bad,
            blocks_bad: self.blocks_bad,
        }
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
