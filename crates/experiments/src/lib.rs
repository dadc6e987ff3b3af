//! # tlbsim-experiments — regenerating the paper's tables and figures
//!
//! One module per evaluation artifact of *Going the Distance for TLB
//! Prefetching* (ISCA 2002):
//!
//! | module | artifact | content |
//! |--------|----------|---------|
//! | [`table1`] | Table 1 | hardware comparison of ASP/MP/RP/DP, generated from the implementations |
//! | [`figure7`] | Figure 7 | prediction accuracy, 26 SPEC CPU2000 apps × 30 scheme configurations |
//! | [`figure8`] | Figure 8 | prediction accuracy, MediaBench + Etch + Pointer-Intensive |
//! | [`table2`] | Table 2 | average and miss-rate-weighted accuracy over all 56 apps |
//! | [`table3`] | Table 3 | normalized execution cycles, RP vs DP, on the five RP-favoured apps |
//! | [`figure9`] | Figure 9 | DP sensitivity to r/assoc, s, b and TLB size on the 8 high-miss apps |
//! | [`extras`] | §3.3 remainder | DP sensitivity to page size and TLB associativity |
//! | [`replay`] | §3.1 methodology | trace recording (`xp record`) and full-speed mmap replay (`xp replay`) |
//! | [`mix`] | §4 outlook | multiprogrammed interleaves (`xp mix`): scheme sweep with context switches and per-stream attribution |
//! | [`health`] | (robustness) | trace damage census (`xp check`) and deterministic fault baking (`xp chaos`) |
//! | [`tracestat`] | (corpus tooling) | per-file trace summary (`xp tracestat`): records, kind mix, page footprint, v2 compression, damage census |
//!
//! Every module exposes `run(scale) -> Result<Data, SimError>` plus
//! `render()` (aligned text, paper values alongside where applicable)
//! and `to_csv()`. The `xp` binary drives them from the command line:
//!
//! ```text
//! xp all --scale standard
//! xp figure7 --scale small --csv out/
//! xp record --app galgel --scale small --out galgel.tlbt
//! xp replay --trace galgel.tlbt --shards 4
//! xp mix --streams galgel.tlbt,mcf,perl4 --quantum 50000 --switch-policy flush
//! xp check --trace galgel.tlbt --quarantine 100
//! xp chaos --trace galgel.tlbt --out damaged.tlbt --seed 42 --corrupt 7
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod extras;
pub mod figure7;
pub mod figure8;
pub mod figure9;
mod grid;
pub mod health;
pub mod mix;
pub mod replay;
mod report;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod tracestat;

pub use grid::{
    accuracy_grid, paper_scheme_grid, scheme_variants, table2_schemes, GridCell, GridRow,
};
pub use report::{fmt3, fmt4, TextTable};
