//! DRAM organization: channels, ranks, bank groups, banks, rows and columns.
//!
//! The paper's simulated system (Table 1) is a single DDR5 channel with two
//! ranks, eight bank groups of two banks each (32 banks total) and 64 Ki rows
//! per bank. [`DramGeometry`] captures that organization and provides the
//! flattening/indexing helpers used throughout the memory subsystem.

use std::fmt;

/// Coordinates of one DRAM bank inside a channel.
///
/// # Examples
/// ```
/// use bh_dram::{BankAddr, DramGeometry};
/// let geom = DramGeometry::paper_ddr5();
/// let bank = BankAddr { rank: 1, bank_group: 3, bank: 1 };
/// let flat = geom.flat_bank(bank);
/// assert_eq!(geom.bank_from_flat(flat), bank);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BankAddr {
    /// Rank index within the channel.
    pub rank: usize,
    /// Bank-group index within the rank.
    pub bank_group: usize,
    /// Bank index within the bank group.
    pub bank: usize,
}

impl fmt::Display for BankAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}g{}b{}", self.rank, self.bank_group, self.bank)
    }
}

/// A fully-resolved DRAM row: a bank plus a row index within that bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RowAddr {
    /// The bank containing the row.
    pub bank: BankAddr,
    /// Row index within the bank.
    pub row: usize,
}

impl fmt::Display for RowAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:row{}", self.bank, self.row)
    }
}

/// A fully-decoded DRAM location (bank, row and column), the output of the
/// memory controller's address-mapping stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DramLocation {
    /// Channel index (0 on the paper's single-channel system; the
    /// channel-interleave policy of the address mapping decides it on
    /// multi-channel systems).
    pub channel: usize,
    /// The bank coordinates.
    pub bank: BankAddr,
    /// Row index within the bank.
    pub row: usize,
    /// Column (cache-line sized) index within the row.
    pub column: usize,
}

impl DramLocation {
    /// The row address (bank + row) of this location.
    pub fn row_addr(&self) -> RowAddr {
        RowAddr { bank: self.bank, row: self.row }
    }
}

impl fmt::Display for DramLocation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ch{} {} row{} col{}", self.channel, self.bank, self.row, self.column)
    }
}

/// Static description of the DRAM devices behind one channel.
///
/// All counts are per channel. The default used across the reproduction is
/// [`DramGeometry::paper_ddr5`], matching Table 1 of the paper.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DramGeometry {
    /// Number of channels in the system (the paper uses 1).
    pub channels: usize,
    /// Ranks per channel.
    pub ranks: usize,
    /// Bank groups per rank.
    pub bank_groups: usize,
    /// Banks per bank group.
    pub banks_per_group: usize,
    /// Rows per bank.
    pub rows_per_bank: usize,
    /// Cache-line-sized columns per row.
    pub columns_per_row: usize,
    /// Bytes per column access (one cache line).
    pub column_bytes: usize,
}

impl DramGeometry {
    /// Geometry of the paper's simulated main memory (Table 1): DDR5, one
    /// channel, 2 ranks, 8 bank groups × 2 banks, 64 Ki rows per bank, 8 KiB
    /// rows served as 128 × 64 B columns.
    pub fn paper_ddr5() -> Self {
        DramGeometry {
            channels: 1,
            ranks: 2,
            bank_groups: 8,
            banks_per_group: 2,
            rows_per_bank: 64 * 1024,
            columns_per_row: 128,
            column_bytes: 64,
        }
    }

    /// A DDR4-like geometry (1 channel, 2 ranks, 4 bank groups × 4 banks).
    pub fn ddr4() -> Self {
        DramGeometry {
            channels: 1,
            ranks: 2,
            bank_groups: 4,
            banks_per_group: 4,
            rows_per_bank: 64 * 1024,
            columns_per_row: 128,
            column_bytes: 64,
        }
    }

    /// A deliberately tiny geometry used by unit tests so exhaustive checks
    /// stay fast (2 ranks × 2 bank groups × 2 banks × 128 rows).
    pub fn tiny() -> Self {
        DramGeometry {
            channels: 1,
            ranks: 2,
            bank_groups: 2,
            banks_per_group: 2,
            rows_per_bank: 128,
            columns_per_row: 16,
            column_bytes: 64,
        }
    }

    /// The same geometry with a different channel count (all other
    /// dimensions are per channel and stay unchanged).
    pub fn with_channels(mut self, channels: usize) -> Self {
        assert!(channels >= 1, "a memory system needs at least one channel");
        self.channels = channels;
        self
    }

    /// Banks per rank.
    pub fn banks_per_rank(&self) -> usize {
        self.bank_groups * self.banks_per_group
    }

    /// Total number of banks in one channel.
    pub fn banks_per_channel(&self) -> usize {
        self.ranks * self.banks_per_rank()
    }

    /// Total number of rows in one channel.
    pub fn rows_per_channel(&self) -> usize {
        self.banks_per_channel() * self.rows_per_bank
    }

    /// Bytes per row.
    pub fn row_bytes(&self) -> usize {
        self.columns_per_row * self.column_bytes
    }

    /// Total capacity of one channel in bytes.
    pub fn channel_bytes(&self) -> u64 {
        self.rows_per_channel() as u64 * self.row_bytes() as u64
    }

    /// Flattens a [`BankAddr`] to a dense index in `0..banks_per_channel()`.
    ///
    /// # Panics
    /// Panics if any coordinate is out of range for this geometry.
    pub fn flat_bank(&self, bank: BankAddr) -> usize {
        assert!(bank.rank < self.ranks, "rank {} out of range", bank.rank);
        assert!(bank.bank_group < self.bank_groups, "bank group {} out of range", bank.bank_group);
        assert!(bank.bank < self.banks_per_group, "bank {} out of range", bank.bank);
        (bank.rank * self.bank_groups + bank.bank_group) * self.banks_per_group + bank.bank
    }

    /// Inverse of [`DramGeometry::flat_bank`].
    ///
    /// # Panics
    /// Panics if `flat` is not a valid dense bank index.
    pub fn bank_from_flat(&self, flat: usize) -> BankAddr {
        assert!(flat < self.banks_per_channel(), "flat bank index {flat} out of range");
        let bank = flat % self.banks_per_group;
        let rest = flat / self.banks_per_group;
        let bank_group = rest % self.bank_groups;
        let rank = rest / self.bank_groups;
        BankAddr { rank, bank_group, bank }
    }

    /// Flattens a row (bank + row index) to a dense index in
    /// `0..rows_per_channel()`, useful as a key for per-row tracking tables.
    pub fn flat_row(&self, row: RowAddr) -> usize {
        assert!(row.row < self.rows_per_bank, "row {} out of range", row.row);
        self.flat_bank(row.bank) * self.rows_per_bank + row.row
    }

    /// Inverse of [`DramGeometry::flat_row`].
    pub fn row_from_flat(&self, flat: usize) -> RowAddr {
        assert!(flat < self.rows_per_channel(), "flat row index {flat} out of range");
        let bank = self.bank_from_flat(flat / self.rows_per_bank);
        RowAddr { bank, row: flat % self.rows_per_bank }
    }

    /// Iterates over every bank address of one channel in flat order.
    pub fn iter_banks(&self) -> impl Iterator<Item = BankAddr> + '_ {
        (0..self.banks_per_channel()).map(|i| self.bank_from_flat(i))
    }

    /// The contiguous range of flat bank indices belonging to `rank` (flat
    /// order is rank-major, so a rank's banks are adjacent).
    pub fn rank_flat_range(&self, rank: usize) -> std::ops::Range<usize> {
        assert!(rank < self.ranks, "rank {rank} out of range");
        let banks = self.banks_per_rank();
        rank * banks..(rank + 1) * banks
    }

    /// Returns the physical neighbours of `row` within the same bank at
    /// distance up to `blast_radius` (the rows a RowHammer aggressor disturbs).
    ///
    /// Allocates; the per-activation hot paths use the allocation-free
    /// [`DramGeometry::neighbors`] iterator instead.
    pub fn neighbor_rows(&self, row: RowAddr, blast_radius: usize) -> Vec<RowAddr> {
        self.neighbors(row, blast_radius).collect()
    }

    /// Iterates over the physical neighbours of `row` (same order as
    /// [`DramGeometry::neighbor_rows`]: distance 1 below, 1 above, 2 below,
    /// 2 above, …) without allocating. The iterator owns the few scalars it
    /// needs, so it does not borrow the geometry.
    pub fn neighbors(&self, row: RowAddr, blast_radius: usize) -> NeighborRows {
        NeighborRows {
            bank: row.bank,
            row: row.row,
            rows_per_bank: self.rows_per_bank,
            radius: blast_radius,
            distance: 1,
            below_next: true,
        }
    }
}

/// Allocation-free iterator over a row's physical neighbours; see
/// [`DramGeometry::neighbors`].
#[derive(Debug, Clone)]
pub struct NeighborRows {
    bank: BankAddr,
    row: usize,
    rows_per_bank: usize,
    radius: usize,
    distance: usize,
    below_next: bool,
}

impl Iterator for NeighborRows {
    type Item = RowAddr;

    fn next(&mut self) -> Option<RowAddr> {
        while self.distance <= self.radius {
            if self.below_next {
                self.below_next = false;
                if self.row >= self.distance {
                    return Some(RowAddr { bank: self.bank, row: self.row - self.distance });
                }
            } else {
                self.below_next = true;
                let above = self.row + self.distance;
                self.distance += 1;
                if above < self.rows_per_bank {
                    return Some(RowAddr { bank: self.bank, row: above });
                }
            }
        }
        None
    }
}

impl Default for DramGeometry {
    fn default() -> Self {
        DramGeometry::paper_ddr5()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_geometry_matches_table1() {
        let g = DramGeometry::paper_ddr5();
        assert_eq!(g.banks_per_channel(), 32);
        assert_eq!(g.banks_per_rank(), 16);
        assert_eq!(g.rows_per_bank, 65536);
        assert_eq!(g.row_bytes(), 8192);
        // 32 banks * 64K rows * 8KiB = 16 GiB per channel
        assert_eq!(g.channel_bytes(), 16 * 1024 * 1024 * 1024);
    }

    #[test]
    fn flat_bank_roundtrip_exhaustive() {
        let g = DramGeometry::tiny();
        for flat in 0..g.banks_per_channel() {
            let addr = g.bank_from_flat(flat);
            assert_eq!(g.flat_bank(addr), flat);
        }
    }

    #[test]
    fn flat_bank_is_dense_and_unique() {
        let g = DramGeometry::paper_ddr5();
        let mut seen = vec![false; g.banks_per_channel()];
        for r in 0..g.ranks {
            for bg in 0..g.bank_groups {
                for b in 0..g.banks_per_group {
                    let flat = g.flat_bank(BankAddr { rank: r, bank_group: bg, bank: b });
                    assert!(!seen[flat], "duplicate flat index {flat}");
                    seen[flat] = true;
                }
            }
        }
        assert!(seen.into_iter().all(|s| s));
    }

    #[test]
    fn flat_row_roundtrip() {
        let g = DramGeometry::tiny();
        for flat in (0..g.rows_per_channel()).step_by(7) {
            let row = g.row_from_flat(flat);
            assert_eq!(g.flat_row(row), flat);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn flat_bank_panics_on_bad_rank() {
        let g = DramGeometry::tiny();
        g.flat_bank(BankAddr { rank: 9, bank_group: 0, bank: 0 });
    }

    #[test]
    fn neighbor_rows_respect_bank_edges() {
        let g = DramGeometry::tiny();
        let bank = BankAddr { rank: 0, bank_group: 0, bank: 0 };
        let first = g.neighbor_rows(RowAddr { bank, row: 0 }, 2);
        assert_eq!(first.len(), 2);
        assert!(first.iter().all(|r| r.row == 1 || r.row == 2));

        let last = g.neighbor_rows(RowAddr { bank, row: g.rows_per_bank - 1 }, 2);
        assert_eq!(last.len(), 2);

        let mid = g.neighbor_rows(RowAddr { bank, row: 64 }, 1);
        assert_eq!(mid.len(), 2);
        assert!(mid.iter().any(|r| r.row == 63));
        assert!(mid.iter().any(|r| r.row == 65));
    }

    #[test]
    fn iter_banks_covers_all() {
        let g = DramGeometry::tiny();
        assert_eq!(g.iter_banks().count(), g.banks_per_channel());
    }

    #[test]
    fn display_formats() {
        let bank = BankAddr { rank: 1, bank_group: 2, bank: 0 };
        assert_eq!(bank.to_string(), "r1g2b0");
        let row = RowAddr { bank, row: 42 };
        assert_eq!(row.to_string(), "r1g2b0:row42");
        let loc = DramLocation { channel: 0, bank, row: 42, column: 3 };
        assert_eq!(loc.to_string(), "ch0 r1g2b0 row42 col3");
        assert_eq!(loc.row_addr(), row);
    }
}
