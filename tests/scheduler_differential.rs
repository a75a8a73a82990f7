//! Differential testing of the simulation kernel against its oracle.
//!
//! [`System::run`] — the event-driven kernel over the data-oriented
//! `bh_cpu::CoreEngine` — must be *bit-identical* to
//! [`System::run_reference`], which steps every DRAM cycle and replays the
//! traces through per-object `bh_cpu::Core`s: same IPCs, cycle counts,
//! preventive actions, suspect flags, latency histograms, energy — the whole
//! [`SimulationResult`]. This suite exercises the kernel's event horizons:
//! the mechanism × ±BreakHammer matrix at 1 and 2 channels, the
//! composable-attacker catalog, benign mixes, the `max_dram_cycles` cap,
//! tight BreakHammer windows, the quota-starved tail, the watchdog's
//! livelock verdict, the probabilistic fault model and proptest-randomized
//! mixes at 1, 2 and 4 channels. `tests/front_end_differential.rs` covers
//! the front-end's stall accounting against the same oracle.

use breakhammer_suite::cpu::Trace;
use breakhammer_suite::mitigation::MechanismKind;
use breakhammer_suite::sim::{System, SystemConfig, TerminationReason};
use proptest::prelude::*;

mod common;
use common::{attack_traces, attack_traces_with, benign_traces, run_both};

fn assert_identical(config: SystemConfig, traces: &[Trace], required: Vec<usize>) {
    let label = format!("{} x{}ch", config.summary(), config.channels());
    let (reference, production) = run_both(config, traces, required);
    assert_eq!(reference, production, "run() diverged from run_reference() for {label}");
}

/// Every mechanism (and the no-defense baseline), with and without
/// BreakHammer, under attack on 1 and 2 channels, at two workload sizes.
#[test]
fn all_mechanisms_under_attack_are_identical_across_kernels() {
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
        for (breakhammer, channels) in [(false, 1usize), (true, 1), (false, 2), (true, 2)] {
            if mechanism == MechanismKind::None && breakhammer {
                continue;
            }
            let mut config =
                SystemConfig::fast_test(mechanism, 128, breakhammer).with_channels(channels);
            config.instructions_per_core = 6_000;
            let traces = attack_traces(&config, 2_000, 100);
            assert_identical(config, &traces, vec![0, 1, 2]);
        }
    }
}

/// Every composable-attacker catalog scenario (pattern × placement), with
/// victim tracking enabled so the per-victim disturbance reports are part of
/// the compared result.
#[test]
fn scenario_catalog_is_identical_across_kernels() {
    use breakhammer_suite::workloads::scenario_catalog;
    for scenario in scenario_catalog() {
        for breakhammer in [false, true] {
            let mut config = SystemConfig::fast_test(MechanismKind::Graphene, 128, breakhammer);
            config.instructions_per_core = 6_000;
            let traces = attack_traces_with(&config, &scenario.attacker, 2_000, 100);
            let victims = scenario.attacker.victim_rows(&config.geometry);
            let label = format!("scenario {} ({})", scenario.name, config.summary());
            let system = || {
                System::new(config.clone(), &traces, vec![0, 1, 2])
                    .watch_victims(victims.iter().map(|v| (v.channel, v.row)))
            };
            let reference = system().run_reference();
            let production = system().run();
            assert_eq!(reference, production, "run() diverged from run_reference() for {label}");
            assert_eq!(
                reference.victims.len(),
                victims.len(),
                "victim reports missing for {label}"
            );
        }
    }
}

/// All-benign workloads (the common case of Figs. 13–17) must match too.
#[test]
fn benign_mixes_are_identical_across_kernels() {
    for mechanism in [MechanismKind::None, MechanismKind::Graphene, MechanismKind::Para] {
        let mut config = SystemConfig::fast_test(mechanism, 256, mechanism != MechanismKind::None);
        config.instructions_per_core = 8_000;
        let traces = benign_traces(&config, 2_000, 100);
        assert_identical(config, &traces, vec![0, 1, 2, 3]);
    }
}

/// A run that hits the `max_dram_cycles` safety cap must stop at the same
/// cycle with the same partial statistics, at every channel count.
#[test]
fn max_cycle_cutoff_is_identical_across_kernels() {
    // AQUA at minimum N_RH under attack is the pathological slow case the
    // cutoff exists for: migrations swamp the channel and cores starve. More
    // channels serve the attack faster, so they get a tighter cap.
    for (channels, cap) in [(1usize, 40_000u64), (2, 30_000), (4, 30_000)] {
        let mut config =
            SystemConfig::fast_test(MechanismKind::Aqua, 64, false).with_channels(channels);
        config.instructions_per_core = 50_000;
        config.max_dram_cycles = cap; // far too few to finish
        let traces = attack_traces(&config, 2_000, 7);
        let (reference, production) = run_both(config, &traces, vec![0, 1, 2]);
        let label = format!("{channels} channels");
        assert_eq!(reference.dram_cycles, cap, "the cap must bind at {label}");
        assert!(
            reference.cores.iter().any(|c| !c.finished),
            "the cutoff must land mid-run to exercise debt settling at {label}"
        );
        assert_eq!(reference, production, "cutoff diverged at {label}");
    }
}

/// Aggressive BreakHammer throttling (tiny windows, low thresholds) exercises
/// the quota-restoration window edges the event-driven kernel must hit
/// exactly: the rotation happens at the edge cycle and the restored quotas
/// reach the LLC on the very next cycle, waking quota-stalled cores. The
/// 2-channel cases rotate the shared window over per-channel event chains.
#[test]
fn tight_breakhammer_windows_are_identical_across_kernels() {
    for (window, seed, channels) in [
        (300u64, 42u64, 1usize),
        (1_000, 6, 1),
        (2_000, 6, 1),
        (2_000, 7, 1),
        (500, 11, 1),
        (300, 42, 2),
        (1_000, 6, 2),
        (2_000, 7, 2),
    ] {
        let mut config =
            SystemConfig::fast_test(MechanismKind::Graphene, 64, true).with_channels(channels);
        config.instructions_per_core = 30_000;
        let mut bh = config.effective_breakhammer_config();
        bh.threat_threshold = 4.0;
        bh.window_cycles = window;
        config.breakhammer_config = Some(bh);
        let traces = attack_traces(&config, 2_000, seed);
        let (reference, production) = run_both(config, &traces, vec![0, 1, 2]);
        // The scenario must actually cross window edges, or this test would
        // assert equality on runs containing no rotation at all.
        let stats = reference.breakhammer.as_ref().expect("BreakHammer attached");
        assert!(
            stats.windows_completed > 0,
            "window {window}: no rotation happened — the test lost its coverage"
        );
        assert_eq!(
            reference, production,
            "run() diverged for window {window} seed {seed} at {channels} channels"
        );
    }
}

/// The hardest window-edge case: the attacker itself is a required core, so
/// once the benign cores finish, the only remaining activity is a
/// quota-starved thread whose progress is gated entirely by quota
/// restorations at window rotations. If the event-driven kernel missed the
/// propagation cycle right after a rotation (or the rotation itself), the
/// attacker would wake a whole window late and the run lengths would diverge
/// wildly.
#[test]
fn quota_starved_tail_is_identical_across_kernels() {
    for (window, seed) in [(500u64, 1u64), (1_000, 2), (2_000, 3)] {
        let mut config = SystemConfig::fast_test(MechanismKind::Graphene, 64, true);
        config.instructions_per_core = 6_000;
        config.max_dram_cycles = 400_000;
        let mut bh = config.effective_breakhammer_config();
        bh.threat_threshold = 2.0;
        bh.outlier_threshold = 0.2;
        bh.window_cycles = window;
        config.breakhammer_config = Some(bh);
        let traces = attack_traces(&config, 1_000, seed);
        let (reference, production) = run_both(config, &traces, vec![0, 1, 2, 3]);
        let stats = reference.breakhammer.as_ref().expect("BreakHammer attached");
        assert!(stats.windows_completed > 0, "window {window}: no rotation happened");
        assert!(
            stats.quota_restorations > 0,
            "window {window}: no quota was ever restored — the test lost its coverage"
        );
        assert_eq!(reference, production, "run() diverged for window {window} seed {seed}");
    }
}

/// Multi-channel systems must not reopen the gap: the merged next-event
/// horizon (minimum over per-channel controllers) has the same
/// never-overshoot contract as a single controller's. The fuller channel
/// matrix (mechanisms × interleave policies) lives in `tests/multichannel.rs`;
/// this case keeps the channels axis visible in the kernel differential
/// suite, for attack and all-benign mixes.
#[test]
fn multi_channel_systems_are_identical_across_kernels() {
    for channels in [2usize, 4] {
        let mut config =
            SystemConfig::fast_test(MechanismKind::Graphene, 128, true).with_channels(channels);
        config.instructions_per_core = 6_000;
        // The 2-channel attack at this size is part of the mechanism matrix.
        if channels == 4 {
            let traces = attack_traces(&config, 2_000, 100);
            assert_identical(config.clone(), &traces, vec![0, 1, 2]);
        }
        let traces = benign_traces(&config, 2_000, 100);
        assert_identical(config, &traces, vec![0, 1, 2, 3]);
    }
}

/// The probabilistic fault model draws every bit-flip from a pure hash of
/// `(seed, channel, bank, row, crossing index)`, so its output must be
/// bit-identical on a 2-channel system — and the run must actually produce
/// flips, or the assertion is vacuous.
#[test]
fn probabilistic_fault_model_is_identical_across_kernels() {
    use breakhammer_suite::dram::{EccMode, FaultConfig, FaultModel};
    for nrh in [64u64, 128] {
        let mut config = SystemConfig::fast_test(MechanismKind::None, nrh, false).with_channels(2);
        config.instructions_per_core = 6_000;
        config.fault = FaultConfig {
            model: FaultModel::Probabilistic { flip_probability: 0.7, nrh_variation: 0.2 },
            ecc: EccMode::SecDed,
        };
        let traces = attack_traces(&config, 2_000, 100);
        let (reference, production) = run_both(config, &traces, vec![0, 1, 2]);
        assert!(
            reference.outcome.flips_raw > 0,
            "no probabilistic flips at nrh {nrh} — the differential lost its coverage"
        );
        assert_eq!(reference, production, "run() diverged on the fault model at nrh {nrh}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Randomized small mixes: mechanism, threshold, channel count,
    /// BreakHammer, budget, trace length and seed all vary; the production
    /// path must never diverge from the oracle.
    #[test]
    fn randomized_mixes_are_identical_across_kernels(
        mechanism_idx in 0usize..6,
        nrh_idx in 0usize..3,
        channels_idx in 0usize..3,
        breakhammer in any::<bool>(),
        attack in any::<bool>(),
        instructions in 1_500u64..5_000,
        entries in 500usize..2_000,
        seed in 0u64..1_000,
    ) {
        let mechanism = [
            MechanismKind::Para,
            MechanismKind::Graphene,
            MechanismKind::Hydra,
            MechanismKind::Rfm,
            MechanismKind::Aqua,
            MechanismKind::BlockHammer,
        ][mechanism_idx];
        let nrh = [64u64, 256, 1024][nrh_idx];
        let channels = [1usize, 2, 4][channels_idx];
        let mut config =
            SystemConfig::fast_test(mechanism, nrh, breakhammer).with_channels(channels);
        config.instructions_per_core = instructions;
        config.seed = seed;
        let (traces, required) = if attack {
            (attack_traces(&config, entries, seed), vec![0, 1, 2])
        } else {
            (benign_traces(&config, entries, seed), vec![0, 1, 2, 3])
        };
        let label = config.summary();
        let (reference, production) = run_both(config, &traces, required);
        prop_assert_eq!(reference, production, "run() diverged for {}", label);
    }
}

/// A chaos-injected livelock under a tight watchdog: the event-driven kernel
/// fast-forwards through the dead tail in horizon-clamped jumps, the oracle
/// grinds through it cycle by cycle — the `Livelock` verdict, the
/// `LivelockReport` snapshot and the whole result must still be
/// bit-identical.
#[test]
fn watchdog_livelock_verdict_is_identical_across_kernels() {
    let mut config = SystemConfig::fast_test(MechanismKind::Graphene, 128, false);
    config.instructions_per_core = 50_000;
    config.chaos.drop_fills_after = Some(1_000);
    config.watchdog.epoch_cycles = 5_000;
    config.watchdog.stall_epochs = 4;
    let traces = benign_traces(&config, 2_000, 7);
    let (reference, production) = run_both(config, &traces, vec![0, 1, 2, 3]);
    assert_eq!(reference.termination, TerminationReason::Livelock);
    assert!(reference.livelock.is_some(), "livelock verdicts carry a report");
    assert_eq!(reference, production, "watchdog verdict diverged from the reference");
}
