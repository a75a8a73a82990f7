//! Property-based tests (proptest) on the core data structures and
//! invariants: address-mapping bijectivity, metric bounds, Misra–Gries
//! guarantees and BreakHammer score conservation.

// The proptest reference models use HashMap as ground truth on purpose:
// they must be an independent implementation of the flat tables.
#![allow(clippy::disallowed_types)]

use breakhammer_suite::breakhammer::{BreakHammer, BreakHammerConfig};
use breakhammer_suite::dram::{BankAddr, DramGeometry, DramLocation, PhysAddr, ThreadId};
use breakhammer_suite::mem::AddressMapping;
use breakhammer_suite::mitigation::{MisraGries, ScoreAttribution};
use breakhammer_suite::stats::{max_slowdown, percentile, weighted_speedup, AppPerf};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// MOP address mapping is a bijection between line addresses and DRAM
    /// coordinates: encode(decode(addr)) preserves the line.
    #[test]
    fn mop_mapping_roundtrips_any_line(line in 0u64..1_000_000_000) {
        let geometry = DramGeometry::paper_ddr5();
        let mapping = AddressMapping::paper_default();
        let addr = PhysAddr(line * 64);
        let loc = mapping.decode(addr, &geometry);
        let back = mapping.encode(&loc, &geometry);
        // The mapping wraps around the channel capacity, so compare decoded
        // coordinates rather than raw addresses.
        prop_assert_eq!(mapping.decode(back, &geometry), loc);
    }

    /// Encoding any valid DRAM location and decoding it returns the location.
    #[test]
    fn mop_mapping_encodes_all_coordinates(
        rank in 0usize..2,
        bank_group in 0usize..8,
        bank in 0usize..2,
        row in 0usize..65_536,
        column in 0usize..128,
    ) {
        let geometry = DramGeometry::paper_ddr5();
        let mapping = AddressMapping::paper_default();
        let loc = DramLocation {
            channel: 0,
            bank: BankAddr { rank, bank_group, bank },
            row,
            column,
        };
        let addr = mapping.encode(&loc, &geometry);
        prop_assert_eq!(mapping.decode(addr, &geometry), loc);
    }

    /// Weighted speedup of an n-application mix is bounded by n, and the
    /// maximum slowdown is at least the slowdown of every application.
    #[test]
    fn metric_bounds_hold(
        perfs in proptest::collection::vec((0.05f64..4.0, 0.05f64..4.0), 1..8)
    ) {
        let apps: Vec<AppPerf> = perfs
            .iter()
            .map(|(alone, shared)| AppPerf::new(*alone, (*shared).min(*alone)))
            .collect();
        let ws = weighted_speedup(&apps);
        prop_assert!(ws > 0.0);
        prop_assert!(ws <= apps.len() as f64 + 1e-9);
        let unfairness = max_slowdown(&apps);
        prop_assert!(unfairness >= 1.0 - 1e-9);
    }

    /// Percentiles are monotonic in p and bounded by the sample extremes.
    #[test]
    fn percentiles_are_monotonic_and_bounded(
        samples in proptest::collection::vec(0.0f64..1e6, 1..256),
        p1 in 0.0f64..100.0,
        p2 in 0.0f64..100.0,
    ) {
        let (lo, hi) = (p1.min(p2), p1.max(p2));
        let v_lo = percentile(&samples, lo);
        let v_hi = percentile(&samples, hi);
        prop_assert!(v_lo <= v_hi + 1e-9);
        let min = samples.iter().cloned().fold(f64::MAX, f64::min);
        let max = samples.iter().cloned().fold(f64::MIN, f64::max);
        prop_assert!(v_lo >= min - 1e-9 && v_hi <= max + 1e-9);
    }

    /// Misra–Gries never underestimates a row's count by more than the
    /// spillover (the guarantee Graphene's security argument relies on).
    #[test]
    fn misra_gries_error_bound(
        accesses in proptest::collection::vec(0usize..32, 1..2000),
        capacity in 1usize..16,
    ) {
        let mut mg = MisraGries::new(capacity);
        let mut truth = std::collections::HashMap::new();
        for row in &accesses {
            mg.record(*row);
            *truth.entry(*row).or_insert(0u64) += 1;
        }
        for (row, count) in truth {
            prop_assert!(mg.estimate(row) + mg.spillover() >= count);
        }
    }

    /// One preventive action always distributes exactly one unit of score
    /// across the threads that contributed activations (score conservation).
    #[test]
    fn breakhammer_score_is_conserved(
        activations in proptest::collection::vec(0u64..50, 4),
    ) {
        prop_assume!(activations.iter().sum::<u64>() > 0);
        let timing = breakhammer_suite::dram::TimingParams::ddr5_4800();
        let config = BreakHammerConfig::paper_table2(&timing, 4, 64);
        let mut bh = BreakHammer::new(config, ScoreAttribution::ProportionalToActivations);
        for (thread, count) in activations.iter().enumerate() {
            for _ in 0..*count {
                bh.on_activation(ThreadId(thread), 10);
            }
        }
        bh.on_preventive_action(20);
        let total: f64 = bh.scores().iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
    }
}
