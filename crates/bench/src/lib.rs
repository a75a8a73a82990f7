//! # bh-bench — the experiment harness
//!
//! Regenerates every table and figure of the BreakHammer paper's evaluation
//! through one binary, `bh_campaign`: `sweep`/`resume`/`report` run and
//! aggregate resumable (mechanism × N_RH × ±BreakHammer × mix × seed) grids
//! in a JSONL result store ([`campaign`]), and `figure <id|all>` renders the
//! paper's figures as queries over such a store ([`figures`]). The shared
//! machinery — workload-mix campaigns, parallel evaluation and the
//! environment-variable scale knobs — lives in [`experiments`].
//!
//! Criterion micro-benchmarks for the simulator's hot paths live under
//! `benches/` and run with `cargo bench -p bh-bench`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod campaign;
pub mod experiments;
pub mod figures;

pub use campaign::{
    termination_status, CampaignSpec, CellOverseer, CellRecord, FailedCell, ResultStore,
    StoreEntry, SweepSummary,
};
pub use experiments::{evaluate_jobs, paper_config, Campaign, EvalHooks, RunRecord, Scale};
