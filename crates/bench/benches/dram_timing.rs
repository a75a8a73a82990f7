//! Criterion micro-benchmark: the DRAM device model's command-issue engine
//! (timing-constraint checks and state updates for an ACT / RD / PRE row
//! cycle), which dominates the simulator's inner loop, and the RowHammer
//! disturbance tracker every activation updates.

use bh_dram::{
    BankAddr, DramChannel, DramCommand, DramGeometry, DramLocation, RowAddr, RowHammerTracker,
    TimingParams,
};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn bench_row_cycle(c: &mut Criterion) {
    c.bench_function("dram_act_rd_pre_row_cycle", |b| {
        let mut channel = DramChannel::new(DramGeometry::paper_ddr5(), TimingParams::ddr5_4800());
        let bank = BankAddr { rank: 0, bank_group: 0, bank: 0 };
        let mut row = 0usize;
        b.iter(|| {
            row = (row + 1) % 1024;
            let act = DramCommand::activate(bank, row);
            let cycle = channel.earliest_issue(&act);
            channel.issue(&act, cycle).expect("activate");
            let rd = DramCommand::read(DramLocation { channel: 0, bank, row, column: 0 });
            let cycle = channel.earliest_issue(&rd);
            channel.issue(&rd, cycle).expect("read");
            let pre = DramCommand::precharge(bank);
            let cycle = channel.earliest_issue(&pre);
            channel.issue(&pre, cycle).expect("precharge");
            black_box(cycle)
        });
    });

    c.bench_function("dram_earliest_issue_query", |b| {
        let channel = DramChannel::new(DramGeometry::paper_ddr5(), TimingParams::ddr5_4800());
        let bank = BankAddr { rank: 1, bank_group: 3, bank: 1 };
        let act = DramCommand::activate(bank, 99);
        b.iter(|| black_box(channel.earliest_issue(black_box(&act))));
    });
}

fn bench_tracker(c: &mut Criterion) {
    // One tracker for every sample, so the measurement sees a warm tracker.
    let mut tracker = RowHammerTracker::new(DramGeometry::paper_ddr5(), 1 << 20, 1);
    let mut cycle = 0u64;
    let mut row = 0usize;
    c.bench_function("rowhammer_tracker_on_activate", |b| {
        b.iter(|| {
            cycle += 30;
            row = (row + 17) % 4096;
            let addr = RowAddr { bank: BankAddr { rank: 0, bank_group: row % 8, bank: 0 }, row };
            tracker.on_activate(black_box(addr), cycle);
            if cycle.is_multiple_of(1 << 16) {
                // Keep disturbance bounded so the bitflip log stays empty.
                tracker.on_periodic_refresh(0, 0, usize::MAX);
            }
        });
    });
}

criterion_group!(benches, bench_row_cycle, bench_tracker);
criterion_main!(benches);
