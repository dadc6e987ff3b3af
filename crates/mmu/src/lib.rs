//! # tlbsim-mmu — address-translation substrate
//!
//! The hardware structures around the prefetching mechanisms of
//! `tlbsim-core`:
//!
//! * [`Tlb`] — a true-LRU, set-/fully-associative translation lookaside
//!   buffer with hit/miss accounting (the paper's representative
//!   configuration is 128 entries, fully associative);
//! * [`PrefetchBuffer`] — the small fully-associative buffer prefetched
//!   translations land in, looked up concurrently with the TLB and
//!   drained by promotion on an actual reference (`b = 16` by default);
//! * [`PageTable`] — a demand-allocating VPN→PFN mapping with walk
//!   accounting;
//! * [`TlbHierarchy`] — an optional two-level TLB (extension);
//! * [`AssocCache`] — the shared set-associative LRU machinery.
//!
//! ## Quick start
//!
//! ```
//! use tlbsim_core::VirtPage;
//! use tlbsim_mmu::{PageTable, PrefetchBuffer, Tlb, TlbConfig};
//!
//! let mut tlb = Tlb::new(TlbConfig::paper_default())?;
//! let mut pb = PrefetchBuffer::new(16)?;
//! let mut pt = PageTable::new();
//!
//! let page = VirtPage::new(0x1234);
//! if tlb.lookup(page).is_none() {
//!     // TLB miss: check the prefetch buffer before walking.
//!     let frame = pb.promote(page).unwrap_or_else(|| pt.translate(page));
//!     tlb.fill(page, frame);
//! }
//! # Ok::<(), tlbsim_core::InvalidGeometry>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod data_cache;
mod hierarchy;
mod page_table;
mod prefetch_buffer;
mod tlb;

pub use cache::{AssocCache, Evicted};
pub use data_cache::{CacheAccess, DataCache, DataCacheConfig};
pub use hierarchy::{HierarchyConfig, HierarchyHit, TlbHierarchy};
pub use page_table::PageTable;
pub use prefetch_buffer::{BufferEntry, PrefetchBuffer, DEFAULT_PREFETCH_BUFFER_ENTRIES};
pub use tlb::{Tlb, TlbConfig, TlbFill};
