//! Victim layouts — the third axis of the composable attacker framework.
//!
//! A [`VictimLayout`] declares which DRAM rows hold the data the attack is
//! trying to corrupt. The simulator watches exactly those rows and reports
//! their accumulated disturbance and bitflips per victim in
//! `SimulationResult::victims`, so a campaign can distinguish "the attacker
//! was throttled" from "the attacker was throttled *and the victim data
//! survived*" — the end-to-end property BreakHammer actually promises.

use crate::placement::{AggressorGrid, AGGRESSOR_BASE};
use bh_dram::{DramGeometry, RowAddr, SuccessCriterion};
use std::collections::BTreeSet;
use std::fmt;

/// One watched victim row: a physical row on a specific channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VictimRow {
    /// The channel whose RowHammer tracker watches this row.
    pub channel: usize,
    /// The bank-qualified row address.
    pub row: RowAddr,
}

/// The victim axis: given where the aggressors landed, which rows hold the
/// data at risk.
///
/// # Example
///
/// ```
/// use bh_dram::DramGeometry;
/// use bh_workloads::{
///     AccessPattern, AggressorPlacement, FuzzedPattern, NeighborPlacement, SandwichedVictims,
///     VictimLayout,
/// };
///
/// let geometry = DramGeometry::paper_ddr5();
/// let pattern = FuzzedPattern::new(1, 4);
/// let grid = NeighborPlacement::new().place(&pattern.request(), &geometry);
/// let victims = SandwichedVictims::new().victim_rows(&grid, &geometry);
/// // Every victim is directly adjacent to some aggressor row.
/// let aggressors: Vec<usize> = grid.aggressor_rows().iter().map(|(_, r)| *r).collect();
/// assert!(victims.iter().all(|v| {
///     aggressors.iter().any(|a| v.row.row + 1 == *a || *a + 1 == v.row.row)
/// }));
/// ```
pub trait VictimLayout: fmt::Debug + Send + Sync {
    /// Short label used in scenario names (e.g. `"sandwich"`, `"keys"`).
    fn label(&self) -> &'static str;

    /// The rows holding victim data, given the placed aggressor grid. Row
    /// indices must already be reduced modulo `geometry.rows_per_bank`.
    fn victim_rows(&self, grid: &AggressorGrid, geometry: &DramGeometry) -> Vec<VictimRow>;

    /// What counts as a successful attack on this layout's rows. The default
    /// — at least one flip that escaped ECC silently — matches the
    /// key-table/page-table threat model, where corrected or detected flips
    /// hand the attacker nothing.
    fn success_criterion(&self) -> SuccessCriterion {
        SuccessCriterion::AnySilentFlip
    }
}

/// The physically-adjacent victims of every aggressor: rows `r ± 1` for each
/// placed aggressor row `r`, on every channel the grid touches, excluding
/// rows that are themselves aggressors (double-sided sandwiches).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SandwichedVictims;

impl SandwichedVictims {
    /// The adjacent-row victim layout.
    pub fn new() -> Self {
        SandwichedVictims
    }
}

impl VictimLayout for SandwichedVictims {
    fn label(&self) -> &'static str {
        "sandwich"
    }

    fn victim_rows(&self, grid: &AggressorGrid, geometry: &DramGeometry) -> Vec<VictimRow> {
        let rows = geometry.rows_per_bank;
        let aggressors: BTreeSet<(bh_dram::BankAddr, usize)> =
            grid.aggressor_rows().iter().map(|(bank, row)| (*bank, row % rows)).collect();
        let mut victims = BTreeSet::new();
        for channel in grid.channels() {
            for (bank, row) in &aggressors {
                let mut neighbors = vec![(row + 1) % rows];
                if *row > 0 {
                    neighbors.push(row - 1);
                } else {
                    neighbors.push(rows - 1);
                }
                for neighbor in neighbors {
                    if !aggressors.contains(&(*bank, neighbor)) {
                        victims.insert(VictimRow {
                            channel: *channel,
                            row: RowAddr { bank: *bank, row: neighbor },
                        });
                    }
                }
            }
        }
        victims.into_iter().collect()
    }
}

/// A fixed key-table layout: `entries` security-critical rows interleaved
/// with the classic aggressor region (rows `AGGRESSOR_BASE + 1 + 2i`), the
/// textbook RSA-key/page-table victim placement — each key row sits exactly
/// between two aggressor rows of a classic double-sided pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyTableVictims {
    entries: usize,
}

impl KeyTableVictims {
    /// A key table of `entries` rows (at least one).
    pub fn new(entries: usize) -> Self {
        KeyTableVictims { entries: entries.max(1) }
    }
}

impl Default for KeyTableVictims {
    fn default() -> Self {
        KeyTableVictims::new(4)
    }
}

impl VictimLayout for KeyTableVictims {
    fn label(&self) -> &'static str {
        "keys"
    }

    fn victim_rows(&self, grid: &AggressorGrid, geometry: &DramGeometry) -> Vec<VictimRow> {
        let rows = geometry.rows_per_bank;
        let mut victims = BTreeSet::new();
        for channel in grid.channels() {
            for step in 0..grid.bank_steps() {
                let bank = grid.bank(step);
                for i in 0..self.entries {
                    victims.insert(VictimRow {
                        channel: *channel,
                        row: RowAddr { bank, row: (AGGRESSOR_BASE + 1 + 2 * i) % rows },
                    });
                }
            }
        }
        victims.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attacker::AttackerKind;
    use crate::pattern::{AccessPattern, ClassicPattern};
    use crate::placement::{AggressorPlacement, NeighborPlacement, SpreadPlacement};

    #[test]
    fn sandwiched_victims_are_adjacent_and_not_aggressors() {
        let geometry = DramGeometry::paper_ddr5();
        let pattern = ClassicPattern::new(AttackerKind::MultiBank { banks: 2, aggressors: 2 });
        let grid = NeighborPlacement::new().place(&pattern.request(), &geometry);
        let victims = SandwichedVictims::new().victim_rows(&grid, &geometry);
        let aggressors: BTreeSet<(bh_dram::BankAddr, usize)> =
            grid.aggressor_rows().into_iter().collect();
        assert!(!victims.is_empty());
        for v in &victims {
            assert!(!aggressors.contains(&(v.row.bank, v.row.row)));
            let adjacent = aggressors
                .iter()
                .any(|(b, r)| *b == v.row.bank && (v.row.row + 1 == *r || r + 1 == v.row.row));
            assert!(adjacent, "victim {v:?} is not next to an aggressor");
        }
        // Classic neighbor placement puts aggressors at base, base+2, … so
        // the sandwiched rows base+1, … are all victims.
        assert!(victims.iter().any(|v| v.row.row == AGGRESSOR_BASE + 1));
    }

    #[test]
    fn sandwiched_victims_cover_every_grid_channel() {
        let geometry = DramGeometry::paper_ddr5().with_channels(4);
        let pattern = ClassicPattern::new(AttackerKind::DoubleSided);
        let grid = NeighborPlacement::interleaved().place(&pattern.request(), &geometry);
        let victims = SandwichedVictims::new().victim_rows(&grid, &geometry);
        let channels: BTreeSet<usize> = victims.iter().map(|v| v.channel).collect();
        assert_eq!(channels, (0..4).collect());
    }

    #[test]
    fn victim_rows_are_reduced_to_the_geometry() {
        // On the tiny test geometry (128 rows/bank) AGGRESSOR_BASE wraps;
        // victims must stay in range so the tracker's dense index holds.
        let geometry = DramGeometry::tiny();
        let pattern = ClassicPattern::new(AttackerKind::ManySided { aggressors: 4 });
        let grid = SpreadPlacement::new().place(&pattern.request(), &geometry);
        for layout in [
            Box::new(SandwichedVictims::new()) as Box<dyn VictimLayout>,
            Box::new(KeyTableVictims::new(3)),
        ] {
            for v in layout.victim_rows(&grid, &geometry) {
                assert!(v.row.row < geometry.rows_per_bank, "{}: {v:?}", layout.label());
            }
        }
    }

    #[test]
    fn key_table_sits_between_classic_aggressor_pairs() {
        let geometry = DramGeometry::paper_ddr5();
        let pattern = ClassicPattern::new(AttackerKind::ManySided { aggressors: 3 });
        let grid = NeighborPlacement::new().place(&pattern.request(), &geometry);
        let victims = KeyTableVictims::new(2).victim_rows(&grid, &geometry);
        let rows: BTreeSet<usize> = victims.iter().map(|v| v.row.row).collect();
        assert_eq!(rows, BTreeSet::from([AGGRESSOR_BASE + 1, AGGRESSOR_BASE + 3]));
    }
}
