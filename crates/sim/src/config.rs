//! Simulation configuration.

use std::fmt;

use serde::{Deserialize, Serialize};
use tlbsim_core::{ConfigError, InvalidGeometry, PageSize, PrefetcherConfig};
use tlbsim_mmu::TlbConfig;

/// Everything a simulation run needs besides the reference stream.
///
/// Defaults are the paper's representative setup (§3.1): 128-entry
/// fully-associative TLB, 16-entry prefetch buffer, 4 KiB pages, and a
/// distance prefetcher with `r = 256`, `s = 2`, direct-mapped.
///
/// # Examples
///
/// ```
/// use tlbsim_core::PrefetcherConfig;
/// use tlbsim_sim::SimConfig;
///
/// let cfg = SimConfig::paper_default().with_prefetcher(PrefetcherConfig::recency());
/// assert_eq!(cfg.tlb.entries, 128);
/// assert_eq!(cfg.prefetch_buffer_entries, 16);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// TLB geometry.
    pub tlb: TlbConfig,
    /// Prefetch buffer size (`b`). Must be at least 1: a zero-entry
    /// buffer cannot hold any prefetch, so engine constructors reject it
    /// with [`SimError::ZeroPrefetchBuffer`] instead of silently
    /// resizing.
    pub prefetch_buffer_entries: usize,
    /// Page size for splitting byte addresses into pages.
    pub page_size: PageSize,
    /// The prefetching mechanism under test.
    pub prefetcher: PrefetcherConfig,
    /// Drop prefetch candidates already resident in the TLB or the
    /// buffer (the default, and what the paper's hardware does via the
    /// concurrent lookup). Disabling it is an ablation that shows the
    /// buffer-pollution cost of issuing blindly. `Engine` and
    /// `HierarchyEngine` honour it; `TimingEngine` always filters, as
    /// the paper's prefetch channel never fetches a resident or
    /// in-flight translation.
    pub filter_prefetches: bool,
}

impl SimConfig {
    /// The paper's representative configuration with a distance
    /// prefetcher.
    pub fn paper_default() -> Self {
        SimConfig {
            tlb: TlbConfig::paper_default(),
            prefetch_buffer_entries: 16,
            page_size: PageSize::DEFAULT,
            prefetcher: PrefetcherConfig::distance(),
            filter_prefetches: true,
        }
    }

    /// The no-prefetching baseline with the same TLB.
    pub fn baseline() -> Self {
        SimConfig {
            prefetcher: PrefetcherConfig::none(),
            ..Self::paper_default()
        }
    }

    /// Replaces the prefetcher configuration.
    pub fn with_prefetcher(mut self, prefetcher: PrefetcherConfig) -> Self {
        self.prefetcher = prefetcher;
        self
    }

    /// Replaces the TLB geometry.
    pub fn with_tlb(mut self, tlb: TlbConfig) -> Self {
        self.tlb = tlb;
        self
    }

    /// Replaces the prefetch buffer size.
    pub fn with_prefetch_buffer(mut self, entries: usize) -> Self {
        self.prefetch_buffer_entries = entries;
        self
    }

    /// Enables or disables residency filtering of prefetch candidates
    /// (an ablation; the paper's hardware always filters).
    pub fn with_prefetch_filtering(mut self, enabled: bool) -> Self {
        self.filter_prefetches = enabled;
        self
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig::paper_default()
    }
}

impl fmt::Display for SimConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} TLB {}e/{}, PB {}, {}",
            self.page_size,
            self.tlb.entries,
            self.tlb.assoc,
            self.prefetch_buffer_entries,
            self.prefetcher
        )
    }
}

/// Errors constructing a simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The TLB or prefetch-buffer geometry is invalid.
    Geometry(InvalidGeometry),
    /// The prefetcher configuration is invalid.
    Prefetcher(ConfigError),
    /// `prefetch_buffer_entries` was zero — a buffer that cannot hold a
    /// single prefetch is a configuration bug, not a request for a
    /// minimal buffer.
    ZeroPrefetchBuffer,
    /// A sharded run was requested with zero shards — there would be no
    /// worker to simulate the stream (see
    /// [`run_app_sharded`](crate::run_app_sharded)).
    ZeroShards,
    /// An ASID switch policy was requested with zero live contexts —
    /// there would be no tag for any stream to run under (see
    /// [`SwitchPolicy::Asid`](crate::SwitchPolicy::Asid)).
    ZeroAsidContexts,
    /// A shard panicked persistently: its workers exhausted their
    /// attempt budget *and* the in-line degraded run panicked too, so
    /// the self-healing executor could not produce this slice's
    /// statistics (see [`RunHealth`](crate::RunHealth)).
    ShardPanicked {
        /// Index of the failing shard.
        shard: usize,
        /// The panic's message, for the one-line diagnosis.
        message: String,
    },
    /// A configuration was asked to replay a miss stream recorded under
    /// another TLB geometry or page size, whose TLB would have missed
    /// differently (see [`sweep_misses`](crate::sweep_misses)).
    MissStreamMismatch {
        /// TLB geometry and page size the stream was recorded under.
        stream: (TlbConfig, PageSize),
        /// TLB geometry and page size of the configuration.
        config: (TlbConfig, PageSize),
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Geometry(e) => write!(f, "invalid simulation geometry: {e}"),
            SimError::Prefetcher(e) => write!(f, "invalid prefetcher: {e}"),
            SimError::ZeroPrefetchBuffer => {
                f.write_str("prefetch buffer must have at least one entry")
            }
            SimError::ZeroShards => f.write_str("sharded run requires at least one shard"),
            SimError::ZeroAsidContexts => {
                f.write_str("ASID switch policy requires at least one live context")
            }
            SimError::ShardPanicked { shard, message } => {
                write!(f, "shard {shard} panicked persistently: {message}")
            }
            SimError::MissStreamMismatch { stream, config } => write!(
                f,
                "a miss stream recorded on a {}-entry {} TLB with {} pages cannot drive \
                 a configuration with a {}-entry {} TLB and {} pages",
                stream.0.entries,
                stream.0.assoc,
                stream.1,
                config.0.entries,
                config.0.assoc,
                config.1
            ),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Geometry(e) => Some(e),
            SimError::Prefetcher(e) => Some(e),
            SimError::ZeroPrefetchBuffer
            | SimError::ZeroShards
            | SimError::ZeroAsidContexts
            | SimError::ShardPanicked { .. }
            | SimError::MissStreamMismatch { .. } => None,
        }
    }
}

impl From<InvalidGeometry> for SimError {
    fn from(e: InvalidGeometry) -> Self {
        SimError::Geometry(e)
    }
}

impl From<ConfigError> for SimError {
    fn from(e: ConfigError) -> Self {
        SimError::Prefetcher(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlbsim_core::Associativity;

    #[test]
    fn paper_default_shape() {
        let cfg = SimConfig::paper_default();
        assert_eq!(cfg.tlb.entries, 128);
        assert_eq!(cfg.tlb.assoc, Associativity::Full);
        assert_eq!(cfg.prefetch_buffer_entries, 16);
        assert_eq!(cfg.page_size.bytes(), 4096);
    }

    #[test]
    fn builders_replace_fields() {
        let cfg = SimConfig::paper_default()
            .with_prefetch_buffer(32)
            .with_tlb(TlbConfig::fully_associative(64));
        assert_eq!(cfg.prefetch_buffer_entries, 32);
        assert_eq!(cfg.tlb.entries, 64);
    }

    #[test]
    fn display_is_informative() {
        let s = SimConfig::paper_default().to_string();
        assert!(s.contains("128"));
        assert!(s.contains("DP"));
    }
}
