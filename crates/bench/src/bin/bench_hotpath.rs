//! Machine-readable hot-path benchmark runner.
//!
//! Runs the same measurements as the criterion hot-path benches
//! (`mechanism_overhead`, `breakhammer_hotpath`, `simulator_throughput`) and
//! writes them to `BENCH_hotpath.json` — median ns/iter per benchmark plus
//! the date and git revision — so the performance trajectory of the
//! activation hot path is tracked in-repo, PR over PR, instead of living in
//! scrollback.
//!
//! ```text
//! cargo run --release -p bh-bench --bin bench_hotpath [-- <output-path>]
//! cargo run --release -p bh-bench --bin bench_hotpath -- --check [baseline]
//! ```
//!
//! `--check` is the CI bench-regression smoke mode: it runs **only** the
//! `simulator_throughput/*` benches (the end-to-end hot path) and compares
//! each median against the committed `BENCH_hotpath.json` (or `[baseline]`),
//! exiting non-zero if any regresses by more than
//! [`CHECK_REGRESSION_TOLERANCE`]. Nothing is written in check mode.
//!
//! Environment knobs (shared with the criterion shim): `BH_BENCH_SAMPLES`
//! (default 10) and `BH_BENCH_TARGET_MS` (per-sample budget, default 50).

// Wall-clock reads are this binary's whole job (bh_bench is the one crate
// exempt from determinism rule D2).
#![allow(clippy::disallowed_methods)]

use bh_dram::{
    BankAddr, DramChannel, DramGeometry, RowAddr, RowHammerTracker, ThreadId, TimingParams,
};
use bh_mem::{AddressMapping, MemControllerConfig, MemRequest, MemoryController, MemorySystem};
use bh_mitigation::{ActionSink, ActivationEvent, MechanismKind, ScoreAttribution};
use bh_sim::{System, SystemConfig};
use bh_workloads::{MixBuilder, MixClass, TraceGenerator};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// `--check` fails when a `simulator_throughput/*` median exceeds its
/// committed baseline by more than this factor. 1.25 (a >25% regression)
/// is far above same-machine run-to-run noise for these multi-millisecond
/// medians, yet far below the step change a reintroduced per-request
/// dispatch layer or a de-memoized hot loop causes. The committed baselines
/// are measured on the maintainer machine; CI runners differ in absolute
/// speed, so the gate is only meaningful when the baseline was recorded on
/// comparable hardware — treat a CI failure here as "measure locally before
/// merging", not as ground truth.
const CHECK_REGRESSION_TOLERANCE: f64 = 1.25;

/// One measured benchmark.
struct BenchResult {
    name: String,
    median_ns_per_iter: f64,
    iters: u64,
}

fn env_usize(name: &str, default: usize) -> usize {
    bh_core::knobs::positive_usize(name, "the built-in default").unwrap_or(default)
}

/// Calibrates an iteration count filling the per-sample budget, then reports
/// the median ns/iter over the configured number of samples (the same scheme
/// as the vendored criterion shim, so numbers are comparable).
fn measure<F: FnMut(u64)>(name: &str, mut routine: F) -> BenchResult {
    let samples = env_usize("BH_BENCH_SAMPLES", 10);
    let target = Duration::from_millis(env_usize("BH_BENCH_TARGET_MS", 50) as u64);
    let mut iters = 1u64;
    loop {
        let start = Instant::now();
        routine(iters);
        let elapsed = start.elapsed();
        if elapsed >= target || iters >= 1 << 20 {
            break;
        }
        let grow = if elapsed.is_zero() {
            100
        } else {
            (target.as_nanos() / elapsed.as_nanos().max(1)).clamp(2, 100) as u64
        };
        iters = iters.saturating_mul(grow);
    }
    let mut per_iter: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            routine(iters);
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    per_iter.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    let median = per_iter[per_iter.len() / 2];
    println!("{name:<52} median {median:>12.1} ns/iter ({iters} iters x {samples} samples)");
    BenchResult { name: name.to_string(), median_ns_per_iter: median, iters }
}

/// Per-mechanism `on_activation` cost at paper-scale table sizes; `stride`
/// and `row_space` select the access pattern (see the `mechanism_overhead`
/// bench for the two patterns' rationale).
fn mechanism_bench(
    group: &str,
    kind: MechanismKind,
    nrh: u64,
    stride: usize,
    row_space: usize,
) -> BenchResult {
    let geometry = DramGeometry::paper_ddr5();
    let timing = TimingParams::ddr5_4800();
    let mut mechanism = kind.build(&geometry, &timing, nrh, 7);
    let mut sink = ActionSink::default();
    let mut cycle = 0u64;
    let mut row = 0usize;
    measure(&format!("{group}/{kind}"), |iters| {
        for _ in 0..iters {
            cycle += 30;
            row = (row + stride) % row_space;
            let event = ActivationEvent {
                row: RowAddr { bank: BankAddr { rank: 0, bank_group: row % 8, bank: 0 }, row },
                thread: ThreadId(row % 4),
                cycle,
            };
            sink.clear();
            mechanism.on_activation(std::hint::black_box(&event), &mut sink);
            std::hint::black_box(sink.len());
        }
    })
}

fn breakhammer_benches(results: &mut Vec<BenchResult>) {
    use bh_core::{BreakHammer, BreakHammerConfig};
    let timing = TimingParams::ddr5_4800();

    let config = BreakHammerConfig::paper_table2(&timing, 4, 64);
    let mut bh = BreakHammer::new(config, ScoreAttribution::ProportionalToActivations);
    let mut cycle = 0u64;
    results.push(measure("breakhammer_on_activation", |iters| {
        for _ in 0..iters {
            cycle += 30;
            bh.on_activation(std::hint::black_box(ThreadId((cycle % 4) as usize)), cycle);
        }
    }));

    let config = BreakHammerConfig::paper_table2(&timing, 4, 64);
    let mut bh = BreakHammer::new(config, ScoreAttribution::ProportionalToActivations);
    let mut cycle = 0u64;
    results.push(measure("breakhammer_on_preventive_action", |iters| {
        for _ in 0..iters {
            cycle += 500;
            for t in 0..4usize {
                for _ in 0..(t + 1) {
                    bh.on_activation(ThreadId(t), cycle);
                }
            }
            bh.on_preventive_action(std::hint::black_box(cycle));
        }
    }));
}

fn tracker_bench(results: &mut Vec<BenchResult>) {
    let geometry = DramGeometry::paper_ddr5();
    let mut tracker = RowHammerTracker::new(geometry, 1 << 20, 1);
    let mut cycle = 0u64;
    let mut row = 0usize;
    results.push(measure("rowhammer_tracker_on_activate", |iters| {
        for _ in 0..iters {
            cycle += 30;
            row = (row + 17) % 4096;
            let addr = RowAddr { bank: BankAddr { rank: 0, bank_group: row % 8, bank: 0 }, row };
            tracker.on_activate(std::hint::black_box(addr), cycle);
            if cycle.is_multiple_of(1 << 16) {
                // Keep disturbance bounded so the bitflip log stays empty.
                tracker.on_periodic_refresh(0, 0, usize::MAX);
            }
        }
    }));
}

/// A/B of the per-request dispatch cost: a bare [`MemoryController`] versus
/// the 1-channel [`MemorySystem`] facade driving the identical request
/// stream. The two medians must stay equal (the facade's single-channel
/// fast path); `crates/mem/tests/dispatch_overhead.rs` asserts it, this
/// records the absolute numbers.
fn memory_dispatch_benches(results: &mut Vec<BenchResult>) {
    let config = || {
        let mut c = MemControllerConfig::paper_table1(4);
        c.read_queue_capacity = 32;
        c.write_queue_capacity = 32;
        c.write_drain_high = 24;
        c.write_drain_low = 8;
        c
    };
    let parts = || {
        let geometry = DramGeometry::tiny();
        let timing = TimingParams::fast_test();
        let mechanism = MechanismKind::Graphene.build(&geometry, &timing, 256, 7);
        let channel = DramChannel::with_rowhammer(geometry, timing, 256);
        (channel, mechanism)
    };

    let (channel, mechanism) = parts();
    let mut ctrl = MemoryController::new(config(), channel, mechanism);
    let mut cycle = 0u64;
    let mut id = 0u64;
    let mut buf = Vec::new();
    results.push(measure("memory_dispatch/controller_direct", |iters| {
        for _ in 0..iters {
            let addr = bh_dram::PhysAddr((id % 97) * 4096 + (id % 7) * 64);
            let _ =
                ctrl.try_enqueue(MemRequest::read(id, ThreadId((id % 4) as usize), addr, cycle));
            id += 1;
            for _ in 0..6 {
                ctrl.tick(cycle, None);
                cycle += 1;
            }
            ctrl.drain_responses_into(&mut buf);
            std::hint::black_box(buf.len());
        }
    }));

    let (channel, mechanism) = parts();
    let mut mem = MemorySystem::new(config(), vec![(channel, mechanism)], None);
    let mut cycle = 0u64;
    let mut id = 0u64;
    let mut buf = Vec::new();
    results.push(measure("memory_dispatch/memory_system_1ch", |iters| {
        for _ in 0..iters {
            let addr = bh_dram::PhysAddr((id % 97) * 4096 + (id % 7) * 64);
            let _ = mem.try_enqueue(MemRequest::read(id, ThreadId((id % 4) as usize), addr, cycle));
            id += 1;
            for _ in 0..6 {
                mem.retry_pending();
                mem.tick(cycle);
                cycle += 1;
            }
            mem.drain_responses_into(&mut buf);
            std::hint::black_box(buf.len());
        }
    }));
}

fn simulator_bench(results: &mut Vec<BenchResult>) {
    // Channels ∈ {1, 2, 4}: the single-channel bench keeps its historical
    // name (comparable PR over PR); the sharded variants measure the cost of
    // driving N per-channel controllers from one event-driven kernel. The
    // attacker interleaves its pattern over all channels so every channel's
    // tracker stays busy (the representative multi-channel load).
    for channels in [1usize, 2, 4] {
        let mut config =
            SystemConfig::fast_test(MechanismKind::Graphene, 256, true).with_channels(channels);
        config.instructions_per_core = 8_000;
        let generator =
            TraceGenerator::new(config.geometry.clone(), AddressMapping::paper_default());
        let mut builder = MixBuilder::new(generator);
        builder.benign_entries = 2_000;
        builder.attacker_entries = 2_000;
        if channels > 1 {
            builder = builder.with_attacker(
                bh_workloads::AttackerProfile::paper_default().interleaved_channels(),
            );
        }
        let mix = builder.build(MixClass::attack_classes()[0], 0, 42);
        let name = if channels == 1 {
            "simulator_throughput/four_core_attack_8k_instructions".to_string()
        } else {
            format!("simulator_throughput/four_core_attack_8k_instructions_{channels}ch")
        };
        results.push(measure(&name, |iters| {
            for _ in 0..iters {
                // The compiled traces are shared into every run (refcount
                // bumps), as Campaign::run_matrix shares them across configs.
                let system = System::with_compiled(config.clone(), &mix.traces, vec![0, 1, 2]);
                std::hint::black_box(system.run());
            }
        }));
    }
}

/// Days-since-epoch to civil `YYYY-MM-DD` (Howard Hinnant's algorithm), so
/// the stamp needs no external date crate.
fn utc_date() -> String {
    let days =
        SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_secs() / 86_400).unwrap_or(0)
            as i64;
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Extracts `(name, median_ns_per_iter)` pairs from a `BENCH_hotpath.json`
/// written by this binary. Hand-rolled line parsing to match the hand-rolled
/// writer below (the workspace has no JSON dependency; the schema is one
/// bench record per line).
fn parse_baseline(contents: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for line in contents.lines() {
        let Some(name) = line.split("\"name\": \"").nth(1).and_then(|r| r.split('"').next()) else {
            continue;
        };
        let Some(median) = line
            .split("\"median_ns_per_iter\": ")
            .nth(1)
            .and_then(|r| r.split([',', '}']).next())
            .and_then(|v| v.trim().parse::<f64>().ok())
        else {
            continue;
        };
        out.push((name.to_string(), median));
    }
    out
}

/// The CI bench-regression smoke gate: re-measures the
/// `simulator_throughput/*` benches and fails (exit 1) if any median
/// regressed more than [`CHECK_REGRESSION_TOLERANCE`] versus the baseline
/// file. Benches missing from the baseline (e.g. a newly added channel
/// count) are reported but never fail the gate.
fn run_check(baseline_path: &str) -> ! {
    let contents = std::fs::read_to_string(baseline_path)
        .unwrap_or_else(|e| panic!("cannot read baseline {baseline_path}: {e}"));
    let baseline = parse_baseline(&contents);
    let mut results = Vec::new();
    simulator_bench(&mut results);
    let mut failures = Vec::new();
    for r in &results {
        match baseline.iter().find(|(name, _)| *name == r.name) {
            None => println!("{}: no baseline entry (skipped)", r.name),
            Some((_, base)) => {
                let ratio = r.median_ns_per_iter / base;
                let verdict = if ratio > CHECK_REGRESSION_TOLERANCE { "REGRESSED" } else { "ok" };
                println!(
                    "{}: {:.1} ns/iter vs baseline {:.1} ({:.2}x, tolerance {:.2}x) {}",
                    r.name, r.median_ns_per_iter, base, ratio, CHECK_REGRESSION_TOLERANCE, verdict
                );
                if ratio > CHECK_REGRESSION_TOLERANCE {
                    failures.push(format!("{} at {:.2}x", r.name, ratio));
                }
            }
        }
    }
    if failures.is_empty() {
        println!("bench-regression check passed ({} benches)", results.len());
        std::process::exit(0);
    }
    eprintln!(
        "bench-regression check FAILED: {} (re-measure on the baseline machine and, if the \
         regression is intentional, refresh BENCH_hotpath.json)",
        failures.join(", ")
    );
    std::process::exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--check") {
        let baseline = args.get(1).cloned().unwrap_or_else(|| "BENCH_hotpath.json".to_string());
        run_check(&baseline);
    }
    let out_path = args.first().cloned().unwrap_or_else(|| "BENCH_hotpath.json".to_string());

    let mut results = Vec::new();
    for kind in [
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
        results.push(mechanism_bench("mechanism_on_activation", kind, 1024, 17, 4096));
        results.push(mechanism_bench("mechanism_on_activation_churn", kind, 256, 6151, 65536));
    }
    breakhammer_benches(&mut results);
    tracker_bench(&mut results);
    memory_dispatch_benches(&mut results);
    simulator_bench(&mut results);

    // Flat structure, written by hand: the workspace has no JSON dependency
    // and the schema is trivial.
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"schema\": 1,\n");
    json.push_str(&format!("  \"date\": \"{}\",\n", utc_date()));
    json.push_str(&format!("  \"git_rev\": \"{}\",\n", git_rev()));
    json.push_str(&format!("  \"samples\": {},\n", env_usize("BH_BENCH_SAMPLES", 10)));
    json.push_str("  \"benches\": [\n");
    for (i, r) in results.iter().enumerate() {
        let comma = if i + 1 < results.len() { "," } else { "" };
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"median_ns_per_iter\": {:.1}, \"iters\": {}}}{comma}\n",
            r.name, r.median_ns_per_iter, r.iters
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, json).expect("write benchmark results");
    println!("\nwrote {} results to {out_path}", results.len());
}
