//! Per-core cycle accounting at the `max_dram_cycles` cutoff.
//!
//! A core that is hard-stalled (instruction window full behind an incomplete
//! miss) accrues its cycles as *debt* that is only replayed into the core
//! when the miss completes — or, if the simulation is cut off mid-stall, by
//! the final flush before the [`SimulationResult`] snapshot. If that flush
//! were missing, a core cut off mid-stall would under-report its cycles and
//! per-core cycle totals would no longer sum to the simulated horizon.
//! These tests force a cutoff in the middle of a hard stall and pin the
//! invariant on `System::run` and on its per-cycle oracle
//! `System::run_reference`.

use breakhammer_suite::cpu::Trace;
use breakhammer_suite::mitigation::MechanismKind;
use breakhammer_suite::sim::{SimulationResult, System, SystemConfig, TerminationReason};
use breakhammer_suite::workloads::ComposedAttacker;

mod common;
use common::{run_both, RunFn, LOOPS};

/// CPU ticks the simulator's clock-domain crossing performs over
/// `dram_cycles` DRAM cycles — the same fractional-accumulator arithmetic,
/// replayed operation for operation, so the comparison is exact.
fn cpu_ticks(dram_cycles: u64, ratio: f64) -> u64 {
    let mut acc = 0.0f64;
    let mut ticks = 0u64;
    for _ in 0..dram_cycles {
        acc += ratio;
        while acc >= 1.0 {
            acc -= 1.0;
            ticks += 1;
        }
    }
    ticks
}

/// Four copies of the tight uncached hammering loop: every core's window
/// fills up behind outstanding misses almost immediately and stays full, so
/// the `max_dram_cycles` cutoff is guaranteed to land mid-hard-stall.
fn stall_heavy_config() -> (SystemConfig, Vec<Trace>) {
    let mut config = SystemConfig::fast_test(MechanismKind::Graphene, 128, false);
    config.instructions_per_core = 500_000; // far more than the cutoff allows
    config.max_dram_cycles = 25_000;
    config.cache.mshrs = 4; // tiny MSHR pool: misses back up into hard stalls
    let attacker = ComposedAttacker::paper_default();
    let traces = (0..4)
        .map(|i| attacker.trace(&config.geometry, config.memctrl.mapping, 2_000, 900 + i as u64))
        .collect();
    (config, traces)
}

/// Runs the stall-heavy scenario through `run` (`System::run` or
/// `System::run_reference`), returning the result and the CPU/DRAM clock
/// ratio.
fn run_stall_heavy(run: RunFn) -> (SimulationResult, f64) {
    let (config, traces) = stall_heavy_config();
    let ratio = config.cpu_cycles_per_dram_cycle();
    (run(System::new(config, &traces, vec![0, 1, 2, 3])), ratio)
}

/// The invariant: at the cutoff, every unfinished core's cycle counter must
/// equal the CPU ticks elapsed over the simulated horizon — stall debt
/// included. An unflushed final-step debt would leave the hard-stalled cores
/// short.
#[test]
fn cutoff_mid_stall_flushes_all_stall_debt_into_the_cores() {
    for (kernel, run) in LOOPS {
        let (result, ratio) = run_stall_heavy(run);
        assert_eq!(result.dram_cycles, 25_000, "{kernel}: the run must hit the cutoff");
        // The default-on watchdog must see the reads trickling through and
        // leave the cutoff classified as a cutoff, not a livelock.
        assert_eq!(result.termination, TerminationReason::CycleCutoff, "{kernel}");
        let expected = cpu_ticks(result.dram_cycles, ratio);
        for core in &result.cores {
            assert!(!core.finished, "{kernel}: the cutoff must land before completion");
            assert_eq!(
                core.cycles, expected,
                "{kernel}: core {:?} cycles must cover the whole horizon (stall debt flushed)",
                core.thread
            );
        }
        // The scenario really did cut off inside memory stalls, not idling.
        let stalled: u64 = result.cores.iter().map(|c| c.instructions).sum();
        assert!(stalled < 4 * 500_000, "no core may complete its budget");
        assert!(result.cache.mshr_full_rejections > 0, "{kernel}: misses must have backed up");
    }
}

/// Both loops must agree on the cut-off state bit for bit (the event-driven
/// kernel fast-forwards through the stalled tail, the per-cycle oracle grinds
/// through it — the flushed totals must be identical).
#[test]
fn cutoff_mid_stall_is_identical_across_kernels() {
    let (config, traces) = stall_heavy_config();
    let (reference, event_driven) = run_both(config, &traces, vec![0, 1, 2, 3]);
    assert_eq!(reference, event_driven);
}
