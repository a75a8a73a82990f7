//! Physical-address to DRAM-coordinate mapping schemes.
//!
//! The paper's memory controller uses the MOP ("Minimalist Open Page")
//! mapping [Kaseridis et al., MICRO 2011], which stripes small bursts of
//! consecutive cache lines across banks so that sequential streams exploit a
//! little row-buffer locality while still spreading load over all banks. A
//! simple row-interleaved scheme (`RoBaRaCoCh`) is provided for comparison
//! and for tests.
//!
//! On multi-channel systems ([`DramGeometry::channels`] > 1) an
//! [`AddressMapping`] additionally carries a [`ChannelInterleave`] policy
//! that decides which channel a cache line lives in *before* the per-channel
//! scheme decodes the remaining bits. With a single channel every policy is
//! the identity, so single-channel decode/encode behaviour is unchanged.

use bh_dram::{BankAddr, DramGeometry, DramLocation, PhysAddr};

/// The per-channel bank/row/column mapping scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MappingScheme {
    /// Minimalist Open Page: `row | col_high | rank | bank | bank-group |
    /// col_low(MOP burst) | line-offset` from MSB to LSB.
    Mop {
        /// Number of consecutive cache lines mapped to the same row before
        /// moving to the next bank (the "MOP burst"); must be a power of two.
        burst_lines: usize,
    },
    /// Row : Bank : Rank : Column interleaving (pages stay in one bank;
    /// consecutive lines share a row).
    RoBaRaCoCh,
}

/// How cache lines are distributed over the memory channels.
///
/// Every policy is the identity when the geometry has a single channel, so
/// the default system behaves exactly like the paper's single-channel
/// configuration regardless of the policy chosen.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ChannelInterleave {
    /// Consecutive cache lines alternate channels (the common
    /// bandwidth-maximising default: every stream spreads over all channels).
    #[default]
    CacheLine,
    /// Consecutive row-sized blocks of the line-address space alternate
    /// channels. Under the [`MappingScheme::RoBaRaCoCh`] scheme — whose rows
    /// occupy contiguous line addresses — this puts each whole DRAM row in
    /// one channel, preserving per-channel row-buffer locality. Under
    /// [`MappingScheme::Mop`], which deliberately scatters a row's lines
    /// across banks, it degrades to block-granularity interleaving (a
    /// row-sized *address* block stays in one channel, the row's columns do
    /// not).
    Row,
    /// The address space is partitioned channel-by-channel: each channel owns
    /// one contiguous slice of the physical address space. An attacker (or a
    /// benign task) whose footprint fits one slice is *pinned* to a single
    /// channel — the adversarial placement for per-channel trackers.
    Pinned,
}

impl ChannelInterleave {
    /// Splits a global line index into `(channel, line-within-channel)`.
    fn split(self, line: u64, geometry: &DramGeometry) -> (usize, u64) {
        let channels = geometry.channels.max(1) as u64;
        if channels == 1 {
            return (0, line);
        }
        match self {
            ChannelInterleave::CacheLine => ((line % channels) as usize, line / channels),
            ChannelInterleave::Row => {
                let lines_per_row = geometry.columns_per_row as u64;
                let row_index = line / lines_per_row;
                let offset = line % lines_per_row;
                let channel = (row_index % channels) as usize;
                (channel, (row_index / channels) * lines_per_row + offset)
            }
            ChannelInterleave::Pinned => {
                let lines_per_channel =
                    geometry.rows_per_channel() as u64 * geometry.columns_per_row as u64;
                let channel = ((line / lines_per_channel) % channels) as usize;
                (channel, line % lines_per_channel)
            }
        }
    }

    /// Inverse of [`ChannelInterleave::split`] for in-range inner lines.
    fn join(self, channel: usize, inner: u64, geometry: &DramGeometry) -> u64 {
        let channels = geometry.channels.max(1) as u64;
        if channels == 1 {
            return inner;
        }
        let channel = channel as u64 % channels;
        match self {
            ChannelInterleave::CacheLine => inner * channels + channel,
            ChannelInterleave::Row => {
                let lines_per_row = geometry.columns_per_row as u64;
                let row_index = inner / lines_per_row;
                let offset = inner % lines_per_row;
                (row_index * channels + channel) * lines_per_row + offset
            }
            ChannelInterleave::Pinned => {
                let lines_per_channel =
                    geometry.rows_per_channel() as u64 * geometry.columns_per_row as u64;
                channel * lines_per_channel + inner
            }
        }
    }
}

/// Address-mapping configuration: the per-channel [`MappingScheme`] plus the
/// [`ChannelInterleave`] policy distributing lines over channels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddressMapping {
    /// The per-channel bank/row/column scheme.
    pub scheme: MappingScheme,
    /// The channel-interleave policy (irrelevant on single-channel systems).
    pub interleave: ChannelInterleave,
}

impl AddressMapping {
    /// The paper's default mapping (MOP with a burst of 4 cache lines,
    /// cache-line channel interleaving).
    pub fn paper_default() -> Self {
        AddressMapping::mop(4)
    }

    /// MOP mapping with the given burst length.
    pub fn mop(burst_lines: usize) -> Self {
        AddressMapping {
            scheme: MappingScheme::Mop { burst_lines },
            interleave: ChannelInterleave::CacheLine,
        }
    }

    /// Row-interleaved `RoBaRaCoCh` mapping.
    pub fn robaracoch() -> Self {
        AddressMapping {
            scheme: MappingScheme::RoBaRaCoCh,
            interleave: ChannelInterleave::CacheLine,
        }
    }

    /// The same mapping with a different channel-interleave policy.
    pub fn with_interleave(mut self, interleave: ChannelInterleave) -> Self {
        self.interleave = interleave;
        self
    }

    /// The channel a physical address maps to (cheap: only the interleave
    /// split runs, not the full per-channel decode). Always 0 on
    /// single-channel geometries.
    pub fn channel_of(&self, addr: PhysAddr, geometry: &DramGeometry) -> usize {
        let line = addr.0 / geometry.column_bytes as u64;
        self.interleave.split(line, geometry).0
    }

    /// Decodes a physical address into DRAM coordinates for `geometry`.
    ///
    /// Addresses beyond the total capacity wrap around (the simulator's
    /// synthetic traces may use a larger virtual footprint than the simulated
    /// DRAM).
    pub fn decode(&self, addr: PhysAddr, geometry: &DramGeometry) -> DramLocation {
        let line = addr.0 / geometry.column_bytes as u64;
        let (channel, line) = self.interleave.split(line, geometry);
        match self.scheme {
            MappingScheme::Mop { burst_lines } => {
                assert!(burst_lines.is_power_of_two(), "MOP burst must be a power of two");
                let mut x = line;
                let col_low = (x % burst_lines as u64) as usize;
                x /= burst_lines as u64;
                let bank_group = (x % geometry.bank_groups as u64) as usize;
                x /= geometry.bank_groups as u64;
                let bank = (x % geometry.banks_per_group as u64) as usize;
                x /= geometry.banks_per_group as u64;
                let rank = (x % geometry.ranks as u64) as usize;
                x /= geometry.ranks as u64;
                let col_high_per_row = (geometry.columns_per_row / burst_lines).max(1) as u64;
                let col_high = (x % col_high_per_row) as usize;
                x /= col_high_per_row;
                let row = (x % geometry.rows_per_bank as u64) as usize;
                DramLocation {
                    channel,
                    bank: BankAddr { rank, bank_group, bank },
                    row,
                    column: col_high * burst_lines + col_low,
                }
            }
            MappingScheme::RoBaRaCoCh => {
                let mut x = line;
                let column = (x % geometry.columns_per_row as u64) as usize;
                x /= geometry.columns_per_row as u64;
                let rank = (x % geometry.ranks as u64) as usize;
                x /= geometry.ranks as u64;
                let bank = (x % geometry.banks_per_group as u64) as usize;
                x /= geometry.banks_per_group as u64;
                let bank_group = (x % geometry.bank_groups as u64) as usize;
                x /= geometry.bank_groups as u64;
                let row = (x % geometry.rows_per_bank as u64) as usize;
                DramLocation { channel, bank: BankAddr { rank, bank_group, bank }, row, column }
            }
        }
    }

    /// Builds a physical address that decodes to the given coordinates —
    /// the inverse of [`AddressMapping::decode`], used by trace generators to
    /// target specific channels, banks and rows (e.g. the RowHammer attacker).
    pub fn encode(&self, loc: &DramLocation, geometry: &DramGeometry) -> PhysAddr {
        let line: u64 = match self.scheme {
            MappingScheme::Mop { burst_lines } => {
                let burst = burst_lines as u64;
                let col_low = (loc.column % burst_lines) as u64;
                let col_high = (loc.column / burst_lines) as u64;
                let col_high_per_row = (geometry.columns_per_row / burst_lines).max(1) as u64;
                let mut x = loc.row as u64;
                x = x * col_high_per_row + col_high;
                x = x * geometry.ranks as u64 + loc.bank.rank as u64;
                x = x * geometry.banks_per_group as u64 + loc.bank.bank as u64;
                x = x * geometry.bank_groups as u64 + loc.bank.bank_group as u64;
                x * burst + col_low
            }
            MappingScheme::RoBaRaCoCh => {
                let mut x = loc.row as u64;
                x = x * geometry.bank_groups as u64 + loc.bank.bank_group as u64;
                x = x * geometry.banks_per_group as u64 + loc.bank.bank as u64;
                x = x * geometry.ranks as u64 + loc.bank.rank as u64;
                x * geometry.columns_per_row as u64 + loc.column as u64
            }
        };
        let line = self.interleave.join(loc.channel, line, geometry);
        PhysAddr(line * geometry.column_bytes as u64)
    }
}

impl Default for AddressMapping {
    fn default() -> Self {
        AddressMapping::paper_default()
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_types)] // test-only hash collections: assertion sets and reference models, never digest-bearing
mod tests {
    use super::*;

    #[test]
    fn mop_stripes_consecutive_bursts_across_bank_groups() {
        let g = DramGeometry::paper_ddr5();
        let m = AddressMapping::paper_default();
        let line_bytes = g.column_bytes as u64;
        let a = m.decode(PhysAddr(0), &g);
        let b = m.decode(PhysAddr(4 * line_bytes), &g);
        // After one MOP burst (4 lines) the next lines land in a different
        // bank group, same row index.
        assert_ne!(a.bank.bank_group, b.bank.bank_group);
        assert_eq!(a.row, b.row);
        // Lines within a burst share bank and row and are consecutive columns.
        let c = m.decode(PhysAddr(line_bytes), &g);
        assert_eq!(a.bank, c.bank);
        assert_eq!(a.row, c.row);
        assert_eq!(c.column, a.column + 1);
    }

    #[test]
    fn robaracoch_keeps_a_page_in_one_row() {
        let g = DramGeometry::paper_ddr5();
        let m = AddressMapping::robaracoch();
        let base = 123 * g.row_bytes() as u64 * 64;
        for i in 0..16u64 {
            let loc = m.decode(PhysAddr(base + i * 64), &g);
            let first = m.decode(PhysAddr(base), &g);
            assert_eq!(loc.bank, first.bank);
            assert_eq!(loc.row, first.row);
        }
    }

    #[test]
    fn encode_decode_roundtrip_mop() {
        let g = DramGeometry::tiny();
        let m = AddressMapping::mop(4);
        for rank in 0..g.ranks {
            for bg in 0..g.bank_groups {
                for bank in 0..g.banks_per_group {
                    for row in [0usize, 1, 63, 127] {
                        for column in [0usize, 3, 7, 15] {
                            let loc = DramLocation {
                                channel: 0,
                                bank: BankAddr { rank, bank_group: bg, bank },
                                row,
                                column,
                            };
                            let addr = m.encode(&loc, &g);
                            assert_eq!(m.decode(addr, &g), loc, "at {loc}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn encode_decode_roundtrip_robaracoch() {
        let g = DramGeometry::tiny();
        let m = AddressMapping::robaracoch();
        for row in [0usize, 5, 127] {
            for column in [0usize, 9] {
                let loc = DramLocation {
                    channel: 0,
                    bank: BankAddr { rank: 1, bank_group: 1, bank: 0 },
                    row,
                    column,
                };
                assert_eq!(m.decode(m.encode(&loc, &g), &g), loc);
            }
        }
    }

    #[test]
    fn distinct_lines_map_to_distinct_locations() {
        let g = DramGeometry::tiny();
        let m = AddressMapping::paper_default();
        let mut seen = std::collections::HashSet::new();
        for i in 0..4096u64 {
            let loc = m.decode(PhysAddr(i * 64), &g);
            assert!(seen.insert((loc.bank, loc.row, loc.column)), "collision at line {i}");
        }
    }

    #[test]
    fn addresses_inside_line_share_location() {
        let g = DramGeometry::paper_ddr5();
        let m = AddressMapping::paper_default();
        assert_eq!(m.decode(PhysAddr(0x1000), &g), m.decode(PhysAddr(0x103f), &g));
    }

    #[test]
    fn single_channel_interleaves_are_all_the_identity() {
        let g = DramGeometry::tiny();
        let base = AddressMapping::paper_default();
        for interleave in
            [ChannelInterleave::CacheLine, ChannelInterleave::Row, ChannelInterleave::Pinned]
        {
            let m = base.with_interleave(interleave);
            for i in (0..4096u64).step_by(61) {
                let addr = PhysAddr(i * 64);
                assert_eq!(m.decode(addr, &g), base.decode(addr, &g), "{interleave:?}");
                assert_eq!(m.channel_of(addr, &g), 0);
            }
        }
    }

    #[test]
    fn cache_line_interleave_alternates_channels() {
        let g = DramGeometry::tiny().with_channels(4);
        let m = AddressMapping::paper_default();
        for i in 0..64u64 {
            let loc = m.decode(PhysAddr(i * 64), &g);
            assert_eq!(loc.channel, (i % 4) as usize);
            assert_eq!(m.channel_of(PhysAddr(i * 64), &g), loc.channel);
        }
    }

    #[test]
    fn row_interleave_keeps_a_row_in_one_channel() {
        let g = DramGeometry::tiny().with_channels(2);
        let m = AddressMapping::robaracoch().with_interleave(ChannelInterleave::Row);
        let lines_per_row = g.columns_per_row as u64;
        for row_index in 0..8u64 {
            let first = m.decode(PhysAddr(row_index * lines_per_row * 64), &g);
            for i in 0..lines_per_row {
                let loc = m.decode(PhysAddr((row_index * lines_per_row + i) * 64), &g);
                assert_eq!(loc.channel, first.channel, "row {row_index} line {i}");
                assert_eq!(loc.row, first.row, "row {row_index} line {i}");
            }
            assert_eq!(first.channel, (row_index % 2) as usize);
        }
    }

    #[test]
    fn row_interleave_under_mop_is_block_granular_not_row_granular() {
        // MOP scatters a row's lines over banks, so the Row policy pins
        // row-sized *address blocks* — not whole physical rows — to a channel
        // (documented on `ChannelInterleave::Row`): every block stays in one
        // channel, but the banks/rows a block touches follow MOP's striping.
        let g = DramGeometry::tiny().with_channels(2);
        let m = AddressMapping::mop(4).with_interleave(ChannelInterleave::Row);
        let lines_per_block = g.columns_per_row as u64;
        for block in 0..8u64 {
            let mut banks = std::collections::HashSet::new();
            for i in 0..lines_per_block {
                let loc = m.decode(PhysAddr((block * lines_per_block + i) * 64), &g);
                assert_eq!(loc.channel, (block % 2) as usize, "block {block} line {i}");
                banks.insert(loc.bank);
            }
            assert!(banks.len() > 1, "MOP stripes one address block over several banks");
        }
    }

    #[test]
    fn pinned_interleave_partitions_the_address_space() {
        let g = DramGeometry::tiny().with_channels(2);
        let m = AddressMapping::paper_default().with_interleave(ChannelInterleave::Pinned);
        let per_channel_bytes = g.channel_bytes();
        assert_eq!(m.channel_of(PhysAddr(0), &g), 0);
        assert_eq!(m.channel_of(PhysAddr(per_channel_bytes - 64), &g), 0);
        assert_eq!(m.channel_of(PhysAddr(per_channel_bytes), &g), 1);
        assert_eq!(m.channel_of(PhysAddr(2 * per_channel_bytes - 64), &g), 1);
        // Beyond the total capacity the channel wraps with the address.
        assert_eq!(m.channel_of(PhysAddr(2 * per_channel_bytes), &g), 0);
    }

    #[test]
    fn multichannel_roundtrip_all_interleaves() {
        for channels in [2usize, 3, 4] {
            let g = DramGeometry::tiny().with_channels(channels);
            for interleave in
                [ChannelInterleave::CacheLine, ChannelInterleave::Row, ChannelInterleave::Pinned]
            {
                for scheme in [AddressMapping::mop(4), AddressMapping::robaracoch()] {
                    let m = scheme.with_interleave(interleave);
                    for channel in 0..channels {
                        for rank in 0..g.ranks {
                            for row in [0usize, 7, 127] {
                                for column in [0usize, 5, 15] {
                                    let loc = DramLocation {
                                        channel,
                                        bank: BankAddr { rank, bank_group: 1, bank: 0 },
                                        row,
                                        column,
                                    };
                                    let addr = m.encode(&loc, &g);
                                    assert_eq!(
                                        m.decode(addr, &g),
                                        loc,
                                        "{interleave:?} x{channels} at {loc}"
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn multichannel_lines_cover_all_channels_without_collisions() {
        let g = DramGeometry::tiny().with_channels(2);
        let m = AddressMapping::paper_default();
        let mut seen = std::collections::HashSet::new();
        let mut per_channel = [0usize; 2];
        for i in 0..4096u64 {
            let loc = m.decode(PhysAddr(i * 64), &g);
            per_channel[loc.channel] += 1;
            assert!(
                seen.insert((loc.channel, loc.bank, loc.row, loc.column)),
                "collision at line {i}"
            );
        }
        assert_eq!(per_channel, [2048, 2048]);
    }
}
