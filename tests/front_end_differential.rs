//! Differential testing of the CPU front-end against its oracle.
//!
//! [`System::run`] replays every thread through the data-oriented
//! `bh_cpu::CoreEngine`; [`System::run_reference`] replays the same traces
//! through one per-object `bh_cpu::Core` per thread (stepped every DRAM
//! cycle). The two must be *bit-identical*: same IPCs, cycle counts, stall
//! accounting, cache statistics, preventive actions, suspect flags, latency
//! histograms, energy — the whole [`SimulationResult`]. This suite targets
//! the front-end's stall paths at the smaller workload size: the mechanism ×
//! ±BreakHammer matrix, benign mixes, channel routing, the `max_dram_cycles`
//! cutoff (where hard-stall debt is settled, not replayed by a wake-up),
//! the memoized quota reject-spin, the watchdog's progress sampling and the
//! fault model. `tests/scheduler_differential.rs` covers the kernel's event
//! horizons against the same oracle.
//!
//! The unit-level counterpart (randomized traces and stall patterns against
//! a scripted LLC) is the differential proptest in `bh_cpu::engine`.

use breakhammer_suite::cpu::Trace;
use breakhammer_suite::mitigation::MechanismKind;
use breakhammer_suite::sim::{SystemConfig, TerminationReason};

mod common;
use common::{attack_traces, benign_traces, run_both};

fn assert_identical(config: SystemConfig, traces: &[Trace], required: Vec<usize>) {
    let label = format!("{} x{}ch", config.summary(), config.channels());
    let (reference, production) = run_both(config, traces, required);
    assert_eq!(reference, production, "front-end diverged from the reference for {label}");
}

/// Every mechanism (and the no-defense baseline), with and without
/// BreakHammer, under attack: the SoA engine must be bit-identical to the
/// per-object cores.
#[test]
fn all_mechanisms_under_attack_are_identical_across_front_ends() {
    for mechanism in [
        MechanismKind::None,
        MechanismKind::Para,
        MechanismKind::Graphene,
        MechanismKind::Hydra,
        MechanismKind::Twice,
        MechanismKind::Aqua,
        MechanismKind::Rega,
        MechanismKind::Rfm,
        MechanismKind::Prac,
        MechanismKind::BlockHammer,
    ] {
        for breakhammer in [false, true] {
            if mechanism == MechanismKind::None && breakhammer {
                continue;
            }
            let mut config = SystemConfig::fast_test(mechanism, 128, breakhammer);
            config.instructions_per_core = 4_000;
            let traces = attack_traces(&config, 1_500, 100);
            assert_identical(config, &traces, vec![0, 1, 2]);
        }
    }
}

/// All-benign workloads (no attacker, different stall mix: mostly hits and
/// short misses instead of quota starvation).
#[test]
fn benign_workloads_are_identical_across_front_ends() {
    let mut config = SystemConfig::fast_test(MechanismKind::Graphene, 256, true);
    config.instructions_per_core = 6_000;
    let traces = benign_traces(&config, 2_000, 7);
    assert_identical(config, &traces, vec![0, 1, 2, 3]);
}

/// The sharded memory system: the channel-routing path feeds the same
/// LLC/fill plumbing the front-end interacts with. The 1-channel case is part
/// of the mechanism matrix above.
#[test]
fn multichannel_systems_are_identical_across_front_ends() {
    for channels in [2usize, 4] {
        let mut config =
            SystemConfig::fast_test(MechanismKind::Graphene, 128, true).with_channels(channels);
        config.instructions_per_core = 4_000;
        let traces = attack_traces(&config, 1_500, 100);
        assert_identical(config, &traces, vec![0, 1, 2]);
    }
}

/// The fault model's outcome on a 4-channel system at the smaller workload
/// size (the kernel suite covers 2 channels), and the run must actually
/// produce flips.
#[test]
fn probabilistic_fault_model_is_identical_across_front_ends() {
    use breakhammer_suite::dram::{EccMode, FaultConfig, FaultModel};
    let mut config = SystemConfig::fast_test(MechanismKind::None, 64, false).with_channels(4);
    config.instructions_per_core = 4_000;
    config.fault = FaultConfig {
        model: FaultModel::Probabilistic { flip_probability: 0.7, nrh_variation: 0.2 },
        ecc: EccMode::SecDed,
    };
    let traces = attack_traces(&config, 1_500, 100);
    let (reference, production) = run_both(config, &traces, vec![0, 1, 2]);
    assert!(reference.outcome.flips_raw > 0, "no flips — coverage lost");
    assert_eq!(reference, production, "front-end diverged on the fault model");
}

/// The cutoff edge: a run that ends at `max_dram_cycles` with cores still
/// hard-stalled must settle identical stall debt (every unfinished core's
/// cycle count is the exact CPU-tick horizon — the same invariant
/// `tests/cutoff_accounting.rs` pins).
#[test]
fn cutoff_with_outstanding_stall_debt_is_identical_across_front_ends() {
    // AQUA at minimum N_RH under attack is the pathological slow case the
    // cutoff exists for: migrations swamp the channel and cores starve.
    let mut config = SystemConfig::fast_test(MechanismKind::Aqua, 64, false);
    config.instructions_per_core = 50_000;
    config.max_dram_cycles = 40_000; // cut off long before completion
    let traces = attack_traces(&config, 1_500, 100);
    let (reference, production) = run_both(config, &traces, vec![0, 1, 2]);
    assert_eq!(reference, production, "front-end diverged at the cutoff");
    assert!(
        reference.cores.iter().any(|c| !c.finished),
        "the cutoff case must actually cut off mid-run to exercise debt settling"
    );
}

/// Quota starvation: BreakHammer throttles the attacker to a single MSHR, so
/// the attacker spends most of the run in the memoized reject-spin path —
/// the engine's spin accounting must match the reference exactly.
#[test]
fn quota_starved_attacker_is_identical_across_front_ends() {
    let mut config = SystemConfig::fast_test(MechanismKind::Graphene, 64, true);
    config.instructions_per_core = 5_000;
    let mut bh_cfg = config.effective_breakhammer_config();
    bh_cfg.threat_threshold = 4.0; // identify the attacker almost immediately
    config.breakhammer_config = Some(bh_cfg);
    let traces = attack_traces(&config, 1_500, 100);
    let (reference, production) = run_both(config, &traces, vec![0, 1, 2]);
    assert_eq!(reference, production, "front-end diverged under quota starvation");
    assert!(production.cache.quota_rejections > 0, "the scenario must actually quota-starve");
}

/// The watchdog samples progress through the front-end (retired
/// instructions, hard-stall bits); on a chaos-injected livelock with
/// BreakHammer attached on a 2-channel system (the kernel suite covers the
/// 1-channel, unthrottled case) both must produce the identical verdict and
/// report.
#[test]
fn watchdog_livelock_verdict_is_identical_across_front_ends() {
    let mut config = SystemConfig::fast_test(MechanismKind::Graphene, 128, true).with_channels(2);
    config.instructions_per_core = 50_000;
    config.chaos.drop_fills_after = Some(1_000);
    config.watchdog.epoch_cycles = 5_000;
    config.watchdog.stall_epochs = 4;
    let traces = benign_traces(&config, 2_000, 7);
    let (reference, production) = run_both(config, &traces, vec![0, 1, 2, 3]);
    assert_eq!(
        reference.termination,
        TerminationReason::Livelock,
        "the injected livelock must be classified"
    );
    assert!(reference.livelock.is_some(), "livelock verdicts carry a report");
    assert_eq!(reference, production, "watchdog verdict diverged from the reference");
}
