//! # bh-bench — the experiment harness
//!
//! Regenerates every table and figure of the BreakHammer paper's evaluation.
//! Each figure has a dedicated binary under `src/bin/` (run it with
//! `cargo run -p bh-bench --release --bin figNN_…`); the shared machinery —
//! workload-mix campaigns, parallel evaluation, aggregation, table/CSV
//! output, and the environment-variable scale knobs — lives in
//! [`experiments`].
//!
//! Criterion micro-benchmarks for the simulator's hot paths live under
//! `benches/` and run with `cargo bench -p bh-bench`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod campaign;
pub mod experiments;

pub use campaign::{
    termination_status, CampaignSpec, CellOverseer, CellRecord, FailedCell, ResultStore,
    StoreEntry, SweepSummary,
};
pub use experiments::{
    evaluate_jobs, figure_nrh, filter_class, geomean_speedup, maybe_print_config, mean_of,
    paper_config, print_results, select, Campaign, EvalHooks, RunRecord, Scale,
};
