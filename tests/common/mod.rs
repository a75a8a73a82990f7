//! Shared workload recipe for the cross-checking integration suites.
//!
//! The kernel and front-end differential, digest-snapshot and multichannel
//! suites all exercise *the same* canonical workload: four benign
//! streaming-dominated cores shrunk onto the test geometry, with the
//! paper-default attacker on core 3. Keeping the recipe in one place guarantees "the same workload"
//! stays the same across the suites — a divergence here would otherwise be
//! hunted in the simulator instead of the test setup.

#![allow(dead_code)] // each test binary uses the subset it needs

use breakhammer_suite::cpu::Trace;
use breakhammer_suite::sim::{SimulationResult, System, SystemConfig};
use breakhammer_suite::workloads::{BenignProfile, ComposedAttacker, TraceGenerator};

/// One way to run a system to completion.
pub type RunFn = fn(System) -> SimulationResult;

/// Both ways to run a system, labelled as in the golden digest files: the
/// per-cycle oracle `System::run_reference` and the production event-driven
/// `System::run`.
pub const LOOPS: [(&str, RunFn); 2] =
    [("per_cycle", System::run_reference), ("event_driven", System::run)];

/// Runs `config` through the oracle and the production path and returns
/// (reference, production).
pub fn run_both(
    config: SystemConfig,
    traces: &[Trace],
    required: Vec<usize>,
) -> (SimulationResult, SimulationResult) {
    let reference = System::new(config.clone(), traces, required.clone()).run_reference();
    let production = System::new(config, traces, required).run();
    (reference, production)
}

/// The canonical benign quartet: streaming-dominated profiles that rarely
/// trigger preventive actions at moderate N_RH (the paper's premise in
/// §8.1), with footprints shrunk to the test geometry. Traces are generated
/// for the configuration's geometry and address mapping, so multi-channel
/// configs spread them over every channel.
pub fn benign_traces(config: &SystemConfig, entries: usize, seed: u64) -> Vec<Trace> {
    let generator = TraceGenerator::new(config.geometry.clone(), config.memctrl.mapping);
    let profiles = ["libquantum", "fotonik3d", "xalancbmk", "povray"];
    profiles
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let mut p = BenignProfile::resolve(name).unwrap_or_else(|e| panic!("{e}"));
            p.footprint_rows = p.footprint_rows.min(2_000);
            p.hot_rows = p.hot_rows.min(16).max(if p.hot_row_fraction > 0.0 { 1 } else { 0 });
            generator.benign(&p, entries, seed + i as u64)
        })
        .collect()
}

/// The benign quartet with a composed (pattern × placement) `attacker`
/// replacing core 3.
pub fn attack_traces_with(
    config: &SystemConfig,
    attacker: &ComposedAttacker,
    entries: usize,
    seed: u64,
) -> Vec<Trace> {
    let mut traces = benign_traces(config, entries, seed);
    traces[3] = attacker.trace(&config.geometry, config.memctrl.mapping, entries, seed + 900);
    traces
}

/// The benign quartet with the paper-default attacker on core 3.
pub fn attack_traces(config: &SystemConfig, entries: usize, seed: u64) -> Vec<Trace> {
    attack_traces_with(config, &ComposedAttacker::paper_default(), entries, seed)
}
