//! Criterion macro-benchmark: end-to-end simulator throughput — a small
//! four-core system (Graphene + BreakHammer, attacker present) run to
//! completion, measuring how many simulated instructions per wall-clock
//! second the reproduction achieves.

use bh_mem::AddressMapping;
use bh_mitigation::MechanismKind;
use bh_sim::{System, SystemConfig};
use bh_workloads::{
    ClassicPattern, ComposedAttacker, MixBuilder, MixClass, NeighborPlacement, TraceGenerator,
};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

fn bench_system(c: &mut Criterion) {
    let mut config = SystemConfig::fast_test(MechanismKind::Graphene, 256, true);
    config.instructions_per_core = 8_000;

    let generator = TraceGenerator::new(config.geometry.clone(), AddressMapping::paper_default());
    let mut builder = MixBuilder::new(generator);
    builder.benign_entries = 2_000;
    builder.attacker_entries = 2_000;
    let mix = builder.build(MixClass::attack_classes()[0], 0, 42);

    let mut group = c.benchmark_group("simulator_throughput");
    group.sample_size(10);
    group.bench_function("four_core_attack_8k_instructions", |b| {
        b.iter_batched(
            || (config.clone(), mix.traces.clone()),
            |(cfg, traces)| {
                let system = System::with_compiled(cfg, &traces, vec![0, 1, 2]);
                system.run()
            },
            BatchSize::LargeInput,
        );
    });

    // The sharded memory system: the same workload shape distributed over
    // 2 and 4 channels, with the attacker interleaving its pattern across
    // all of them (every channel's tracker stays busy).
    for channels in [2usize, 4] {
        let mut config =
            SystemConfig::fast_test(MechanismKind::Graphene, 256, true).with_channels(channels);
        config.instructions_per_core = 8_000;
        let generator =
            TraceGenerator::new(config.geometry.clone(), AddressMapping::paper_default());
        let mut builder = MixBuilder::new(generator);
        builder.benign_entries = 2_000;
        builder.attacker_entries = 2_000;
        builder = builder.with_composed_attacker(ComposedAttacker::new(
            ClassicPattern::paper_default(),
            NeighborPlacement::interleaved(),
        ));
        let mix = builder.build(MixClass::attack_classes()[0], 0, 42);
        group.bench_function(&format!("four_core_attack_8k_instructions_{channels}ch"), |b| {
            b.iter_batched(
                || (config.clone(), mix.traces.clone()),
                |(cfg, traces)| {
                    let system = System::with_compiled(cfg, &traces, vec![0, 1, 2]);
                    system.run()
                },
                BatchSize::LargeInput,
            );
        });
    }

    // The same single-channel workload with the forward-progress watchdog
    // disabled: the pair bounds the watchdog's epoch-boundary overhead on
    // the default (enabled) configuration above.
    let mut no_watchdog = config.clone();
    no_watchdog.watchdog.enabled = false;
    group.bench_function("four_core_attack_8k_instructions_no_watchdog", |b| {
        b.iter_batched(
            || (no_watchdog.clone(), mix.traces.clone()),
            |(cfg, traces)| {
                let system = System::with_compiled(cfg, &traces, vec![0, 1, 2]);
                system.run()
            },
            BatchSize::LargeInput,
        );
    });
    group.finish();
}

criterion_group!(benches, bench_system);
criterion_main!(benches);
