//! Criterion micro-benchmark: per-activation cost of each mitigation
//! mechanism's trigger algorithm (the work added to the memory controller's
//! activation path), at paper-scale table sizes (`DramGeometry::paper_ddr5`,
//! 64K rows × 32 banks).
//!
//! Two access patterns per mechanism:
//!
//! * `mechanism_on_activation/<name>` — a strided sweep over 4K rows at
//!   `N_RH = 1024`: mostly tracker hits and inserts, the common case.
//! * `mechanism_on_activation_churn/<name>` — a wide sweep over 64K distinct
//!   rows at `N_RH = 256`: tables run at capacity, so Misra–Gries eviction,
//!   spillover catch-up, TWiCe pruning and window resets dominate. This is
//!   the pattern that exposed the old `HashMap` + O(capacity) eviction-scan
//!   hot spot.
//!
//! Run with `cargo bench -p bh-bench --bench mechanism_overhead`; append
//! `-- --test` to run every routine once without timing it.

use bh_dram::{BankAddr, DramGeometry, RowAddr, ThreadId, TimingParams};
use bh_mitigation::{ActionSink, ActivationEvent, MechanismKind};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

const ALL_MECHANISMS: [MechanismKind; 9] = [
    MechanismKind::Para,
    MechanismKind::Graphene,
    MechanismKind::Hydra,
    MechanismKind::Twice,
    MechanismKind::Aqua,
    MechanismKind::Rega,
    MechanismKind::Rfm,
    MechanismKind::Prac,
    MechanismKind::BlockHammer,
];

fn bench_mechanisms(c: &mut Criterion) {
    let geometry = DramGeometry::paper_ddr5();
    let timing = TimingParams::ddr5_4800();

    let mut group = c.benchmark_group("mechanism_on_activation");
    for kind in ALL_MECHANISMS {
        group.bench_function(kind.label(), |b| {
            let mut mechanism = kind.build(&geometry, &timing, 1024, 7);
            let mut sink = ActionSink::default();
            let mut cycle = 0u64;
            let mut row = 0usize;
            b.iter(|| {
                cycle += 30;
                row = (row + 17) % 4096;
                let event = ActivationEvent {
                    row: RowAddr {
                        bank: BankAddr { rank: 0, bank_group: (row % 8), bank: 0 },
                        row,
                    },
                    thread: ThreadId(row % 4),
                    cycle,
                };
                sink.clear();
                mechanism.on_activation(black_box(&event), &mut sink);
                black_box(sink.len())
            });
        });
    }
    group.finish();

    let mut group = c.benchmark_group("mechanism_on_activation_churn");
    for kind in ALL_MECHANISMS {
        group.bench_function(kind.label(), |b| {
            let mut mechanism = kind.build(&geometry, &timing, 256, 7);
            let mut sink = ActionSink::default();
            let mut cycle = 0u64;
            let mut row = 0usize;
            b.iter(|| {
                cycle += 30;
                // Large-stride sweep over the full row space: tables run at
                // capacity and the eviction/spillover paths stay hot.
                row = (row + 6151) % 65536;
                let event = ActivationEvent {
                    row: RowAddr {
                        bank: BankAddr { rank: 0, bank_group: (row % 8), bank: 0 },
                        row,
                    },
                    thread: ThreadId(row % 4),
                    cycle,
                };
                sink.clear();
                mechanism.on_activation(black_box(&event), &mut sink);
                black_box(sink.len())
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_mechanisms);
criterion_main!(benches);
