//! # breakhammer-suite — facade for the BreakHammer (MICRO 2024) reproduction
//!
//! This crate re-exports the whole reproduction stack behind one import so
//! the examples and downstream users can depend on a single crate:
//!
//! | Layer | Crate | Re-exported as |
//! |---|---|---|
//! | DRAM device model | `bh-dram` | [`dram`] |
//! | Memory controller | `bh-mem` | [`mem`] |
//! | Cores + LLC | `bh-cpu` | [`cpu`] |
//! | RowHammer mitigations | `bh-mitigation` | [`mitigation`] |
//! | **BreakHammer** (the paper's contribution) | `bh-core` | [`breakhammer`] |
//! | Full-system simulator | `bh-sim` | [`sim`] |
//! | Workload / attacker generators | `bh-workloads` | [`workloads`] |
//! | Metrics | `bh-stats` | [`stats`] |
//!
//! The runnable examples under `examples/` show the typical flows; the
//! experiment binaries that regenerate every figure and table of the paper
//! live in the `bh-bench` crate.
//!
//! ## Example
//!
//! ```
//! use breakhammer_suite::breakhammer::{BreakHammer, BreakHammerConfig};
//! use breakhammer_suite::dram::{ThreadId, TimingParams};
//! use breakhammer_suite::mitigation::ScoreAttribution;
//!
//! let timing = TimingParams::ddr5_4800();
//! let config = BreakHammerConfig::paper_table2(&timing, 4, 64);
//! let mut bh = BreakHammer::new(config, ScoreAttribution::ProportionalToActivations);
//! bh.on_activation(ThreadId(0), 0);
//! bh.on_preventive_action(0);
//! assert!(bh.score(ThreadId(0)) > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// The BreakHammer throttling mechanism (the paper's contribution).
pub use bh_core as breakhammer;
/// Trace-driven cores and the shared last-level cache.
pub use bh_cpu as cpu;
/// The cycle-level DRAM device model.
pub use bh_dram as dram;
/// The memory controller.
pub use bh_mem as mem;
/// The eight RowHammer mitigation mechanisms plus BlockHammer.
pub use bh_mitigation as mitigation;
/// The full-system simulator.
pub use bh_sim as sim;
/// Metric primitives (weighted speedup, unfairness, percentiles).
pub use bh_stats as stats;
/// Synthetic workload and attacker generators.
pub use bh_workloads as workloads;
