//! The parameter types of the paper's classic attacker.
//!
//! The paper's attacker is "a malicious application that mounts a memory
//! performance attack by triggering many RowHammer-preventive actions"
//! (§8.1): uncached (`clflush`-style) reads that repeatedly activate a small
//! set of aggressor rows, double-sided or many-sided in one bank, or spread
//! over several banks. [`AttackerKind`] is the loop shape a
//! [`ClassicPattern`](crate::ClassicPattern) hammers, and [`ChannelTarget`]
//! the channels a [`NeighborPlacement`](crate::NeighborPlacement) puts it on;
//! [`ComposedAttacker::paper_default`](crate::ComposedAttacker::paper_default)
//! composes the two into the §8.1 attacker. The tests below pin the composed
//! classic attacker byte for byte against the pre-framework generator.

/// The shape of the hammering pattern.
///
/// Marked `#[non_exhaustive]`: new kinds may appear without a semver break,
/// so match with a wildcard arm and construct through the ctor fns
/// ([`AttackerKind::double_sided`], [`AttackerKind::many_sided`],
/// [`AttackerKind::multi_bank`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum AttackerKind {
    /// Classic double-sided hammering: alternate between the two aggressor
    /// rows sandwiching a victim, in a single bank.
    DoubleSided,
    /// Many-sided ("TRRespass-style") hammering over `aggressors` rows of a
    /// single bank.
    ManySided {
        /// Number of aggressor rows cycled through.
        aggressors: usize,
    },
    /// Hammering `aggressors` rows in each of `banks` banks, maximising the
    /// number of banks whose mitigation is kept busy.
    MultiBank {
        /// Number of banks attacked in parallel.
        banks: usize,
        /// Aggressor rows per bank.
        aggressors: usize,
    },
}

impl AttackerKind {
    /// Classic double-sided hammering.
    pub fn double_sided() -> Self {
        AttackerKind::DoubleSided
    }

    /// Many-sided hammering over `aggressors` rows of one bank.
    pub fn many_sided(aggressors: usize) -> Self {
        AttackerKind::ManySided { aggressors }
    }

    /// Hammering `aggressors` rows in each of `banks` banks.
    pub fn multi_bank(banks: usize, aggressors: usize) -> Self {
        AttackerKind::MultiBank { banks, aggressors }
    }
}

/// Which memory channels an attacker hammers (irrelevant on single-channel
/// systems, where every variant degenerates to channel 0).
///
/// Marked `#[non_exhaustive]`: construct through [`ChannelTarget::pinned`] /
/// [`ChannelTarget::interleave`] and match with a wildcard arm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ChannelTarget {
    /// All hammering traffic concentrates on one channel — the adversarial
    /// placement against per-channel trackers (one channel's mitigation does
    /// all the work while the others see nothing).
    Pinned(
        /// The targeted channel (taken modulo the geometry's channel count).
        usize,
    ),
    /// The hammering pattern is replicated over every channel in turn,
    /// keeping all per-channel trackers busy simultaneously.
    Interleave,
}

impl ChannelTarget {
    /// All traffic pinned to one channel (taken modulo the channel count).
    pub fn pinned(channel: usize) -> Self {
        ChannelTarget::Pinned(channel)
    }

    /// The pattern replicated over every channel in turn.
    pub fn interleave() -> Self {
        ChannelTarget::Interleave
    }
}

impl Default for ChannelTarget {
    fn default() -> Self {
        ChannelTarget::Pinned(0)
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_types)] // test-only hash collections: assertion sets and reference models, never digest-bearing
mod tests {
    use super::*;
    use crate::compose::ComposedAttacker;
    use crate::pattern::ClassicPattern;
    use crate::placement::NeighborPlacement;
    use bh_cpu::Trace;
    use bh_dram::{BankAddr, DramGeometry};
    use bh_mem::AddressMapping;
    use std::collections::HashSet;

    fn geometry() -> DramGeometry {
        DramGeometry::paper_ddr5()
    }

    /// A classic attacker of `kind` on channel 0.
    fn classic(kind: AttackerKind, bubbles: u32) -> ComposedAttacker {
        ComposedAttacker::new(
            ClassicPattern::new(kind).with_bubbles(bubbles),
            NeighborPlacement::new(),
        )
    }

    /// The paper-default pattern over `placement`.
    fn paper_on(placement: NeighborPlacement) -> ComposedAttacker {
        ComposedAttacker::new(ClassicPattern::paper_default(), placement)
    }

    #[test]
    fn attack_trace_is_uncached_and_memory_intense() {
        let p = ComposedAttacker::paper_default();
        let t = p.trace(&geometry(), AddressMapping::paper_default(), 2_000, 1);
        assert!(t.entries().iter().all(|e| e.uncached && !e.is_write));
        // Nearly every instruction is a memory access.
        assert!(t.accesses_per_kilo_instruction() > 300.0);
    }

    #[test]
    fn double_sided_attack_targets_two_rows_of_one_bank() {
        let p = classic(AttackerKind::double_sided(), 1);
        let g = geometry();
        let mapping = AddressMapping::paper_default();
        let t = p.trace(&g, mapping, 1_000, 2);
        let rows: HashSet<(BankAddr, usize)> = t
            .entries()
            .iter()
            .map(|e| {
                let loc = mapping.decode(e.addr, &g);
                (loc.bank, loc.row)
            })
            .collect();
        assert_eq!(rows.len(), 2);
        let rows: Vec<usize> = rows.iter().map(|(_, r)| *r).collect();
        assert_eq!((rows[0] as i64 - rows[1] as i64).abs(), 2, "aggressors sandwich a victim");
        let banks: HashSet<BankAddr> = rows_banks(&t, &g, mapping);
        assert_eq!(banks.len(), 1);
    }

    fn rows_banks(t: &Trace, g: &DramGeometry, m: AddressMapping) -> HashSet<BankAddr> {
        t.entries().iter().map(|e| m.decode(e.addr, g).bank).collect()
    }

    #[test]
    fn many_sided_attack_cycles_the_requested_number_of_aggressors() {
        let p = classic(AttackerKind::many_sided(16), 0);
        let g = geometry();
        let mapping = AddressMapping::paper_default();
        let t = p.trace(&g, mapping, 3_200, 3);
        let rows: HashSet<usize> =
            t.entries().iter().map(|e| mapping.decode(e.addr, &g).row).collect();
        assert_eq!(rows.len(), 16);
        assert_eq!(p.aggressor_rows(&g).len(), 16);
    }

    #[test]
    fn multi_bank_attack_spreads_over_banks() {
        let p = classic(AttackerKind::multi_bank(8, 4), 0);
        let g = geometry();
        let mapping = AddressMapping::paper_default();
        let t = p.trace(&g, mapping, 4_000, 4);
        let banks = rows_banks(&t, &g, mapping);
        assert_eq!(banks.len(), 8);
        assert_eq!(p.aggressor_rows(&g).len(), 32);
    }

    #[test]
    fn consecutive_accesses_force_row_conflicts() {
        // Within a bank, consecutive attack accesses never target the same
        // row, so every access forces a row activation.
        let p = ComposedAttacker::paper_default();
        let g = geometry();
        let mapping = AddressMapping::paper_default();
        let t = p.trace(&g, mapping, 1_000, 5);
        let locs: Vec<_> = t.entries().iter().map(|e| mapping.decode(e.addr, &g)).collect();
        for pair in locs.windows(2) {
            if pair[0].bank == pair[1].bank {
                assert_ne!(pair[0].row, pair[1].row, "same-row consecutive accesses");
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let p = ComposedAttacker::paper_default();
        let g = geometry();
        let m = AddressMapping::paper_default();
        assert_eq!(p.trace(&g, m, 100, 9), p.trace(&g, m, 100, 9));
    }

    #[test]
    fn channel_targets_are_identity_on_single_channel_systems() {
        let g = geometry();
        let m = AddressMapping::paper_default();
        let base = ComposedAttacker::paper_default();
        let pinned = paper_on(NeighborPlacement::pinned(0));
        let interleaved = paper_on(NeighborPlacement::interleaved());
        assert_eq!(base.trace(&g, m, 500, 3), pinned.trace(&g, m, 500, 3));
        assert_eq!(base.trace(&g, m, 500, 3), interleaved.trace(&g, m, 500, 3));
    }

    #[test]
    fn pinned_attacker_stays_in_its_channel() {
        let g = geometry().with_channels(4);
        let m = AddressMapping::paper_default();
        let p = paper_on(NeighborPlacement::pinned(2));
        let t = p.trace(&g, m, 2_000, 6);
        let channels: HashSet<usize> =
            t.entries().iter().map(|e| m.decode(e.addr, &g).channel).collect();
        assert_eq!(channels, HashSet::from([2]));
    }

    #[test]
    fn interleaved_attacker_replicates_the_pattern_on_every_channel() {
        let g = geometry().with_channels(2);
        let m = AddressMapping::paper_default();
        let p = paper_on(NeighborPlacement::interleaved());
        let t = p.trace(&g, m, 4_000, 6);
        let locs: Vec<_> = t.entries().iter().map(|e| m.decode(e.addr, &g)).collect();
        let channels: HashSet<usize> = locs.iter().map(|l| l.channel).collect();
        assert_eq!(channels, HashSet::from([0, 1]));
        // Each channel sees the full multi-bank many-sided pattern.
        for channel in 0..2 {
            let rows: HashSet<(BankAddr, usize)> =
                locs.iter().filter(|l| l.channel == channel).map(|l| (l.bank, l.row)).collect();
            assert_eq!(rows.len(), p.aggressor_rows(&g).len(), "channel {channel}");
        }
    }

    #[test]
    #[should_panic(expected = "at least two aggressors")]
    fn degenerate_many_sided_rejected() {
        let p = classic(AttackerKind::ManySided { aggressors: 1 }, 0);
        let _ = p.trace(&geometry(), AddressMapping::paper_default(), 10, 0);
    }
}

#[cfg(test)]
mod byte_identity {
    //! The classic attacker's contract: `ClassicPattern` over a
    //! `NeighborPlacement` is *byte-identical* to the pre-redesign
    //! generator, for every kind × channel target × seed. The reference
    //! implementation below is the old generator loop, unchanged except that
    //! it takes the attacker's kind, bubbles and channel target directly.

    use super::*;
    use crate::compose::ComposedAttacker;
    use crate::pattern::ClassicPattern;
    use crate::placement::NeighborPlacement;
    use bh_cpu::{Trace, TraceEntry};
    use bh_dram::{BankAddr, DramGeometry, DramLocation};
    use bh_mem::AddressMapping;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const AGGRESSOR_BASE: usize = 20_000;

    /// The pre-redesign attacker trace generator.
    fn reference_trace(
        kind: AttackerKind,
        bubbles: u32,
        target: ChannelTarget,
        geometry: &DramGeometry,
        mapping: AddressMapping,
        entries: usize,
        seed: u64,
    ) -> Trace {
        assert!(entries > 0, "a trace needs at least one record");
        let (banks, aggressors_per_bank) = match kind {
            AttackerKind::DoubleSided => (1usize, 2usize),
            AttackerKind::ManySided { aggressors } => (1, aggressors),
            AttackerKind::MultiBank { banks, aggressors } => {
                (banks.min(geometry.banks_per_channel()), aggressors)
            }
        };

        let channel_count = geometry.channels.max(1);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xa77a_c4e5);
        let mut records = Vec::with_capacity(entries);
        let mut column = 0usize;
        for i in 0..entries {
            let bank_idx = i % banks;
            let (channel, agg_step) = match target {
                ChannelTarget::Pinned(channel) => (channel % channel_count, i / banks),
                ChannelTarget::Interleave => {
                    ((i / banks) % channel_count, i / banks / channel_count)
                }
            };
            let agg_idx = agg_step % aggressors_per_bank;
            let bank: BankAddr = geometry.bank_from_flat(bank_idx);
            let row = AGGRESSOR_BASE + 2 * agg_idx;
            column = (column + 1 + rng.gen_range(0..3usize)) % geometry.columns_per_row;
            let loc = DramLocation { channel, bank, row: row % geometry.rows_per_bank, column };
            let addr = mapping.encode(&loc, geometry);
            records.push(TraceEntry { bubbles, addr, is_write: false, uncached: true });
        }
        Trace::new(records)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// ClassicPattern × NeighborPlacement matches the legacy generator
        /// record for record, for every kind × channel target,
        /// on both geometries and any channel count.
        #[test]
        fn facade_traces_are_byte_identical_to_the_legacy_generator(
            kind_sel in 0usize..3,
            aggressors in 2usize..12,
            banks in 1usize..40,
            pinned_channel in 0usize..8,
            interleave in any::<bool>(),
            bubbles in 0u32..5,
            channels in 1usize..5,
            entries in 1usize..1_500,
            seed in any::<u64>(),
            tiny in any::<bool>(),
        ) {
            let kind = match kind_sel {
                0 => AttackerKind::double_sided(),
                1 => AttackerKind::many_sided(aggressors),
                _ => AttackerKind::multi_bank(banks, aggressors),
            };
            let target = if interleave {
                ChannelTarget::interleave()
            } else {
                ChannelTarget::pinned(pinned_channel)
            };
            let base = if tiny { DramGeometry::tiny() } else { DramGeometry::paper_ddr5() };
            let geometry = base.with_channels(channels);
            let mapping = AddressMapping::paper_default();
            let attacker = ComposedAttacker::new(
                ClassicPattern::new(kind).with_bubbles(bubbles),
                NeighborPlacement::with_channels(target),
            );
            let new = attacker.trace(&geometry, mapping, entries, seed);
            let old = reference_trace(kind, bubbles, target, &geometry, mapping, entries, seed);
            prop_assert_eq!(new, old);
        }
    }
}
