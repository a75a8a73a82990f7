//! Events flowing between the memory controller and a RowHammer mitigation
//! mechanism, and the preventive actions a mechanism can request.

use bh_dram::{BankAddr, Cycle, RowAddr, ThreadId};
use std::fmt;

/// A row activation observed by the memory controller, annotated with the
/// hardware thread on whose behalf it was performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ActivationEvent {
    /// The activated row.
    pub row: RowAddr,
    /// The hardware thread whose request caused the activation.
    pub thread: ThreadId,
    /// The DRAM cycle of the activation.
    pub cycle: Cycle,
}

/// A RowHammer-preventive action requested by a mitigation mechanism.
///
/// The memory controller executes these as real DRAM command sequences, so
/// they consume DRAM bandwidth and interfere with demand requests exactly as
/// described in the paper — which is what makes both the performance overhead
/// (§3) and the memory performance attack (§8.1) possible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PreventiveAction {
    /// Preventively refresh the given victim rows (PARA, Graphene, Hydra,
    /// TWiCe). Each row costs one full row cycle in its bank.
    RefreshRows(Vec<RowAddr>),
    /// Migrate the contents of `source` to `dest` in a quarantine area
    /// (AQUA). Costs reading the whole source row and writing it back to the
    /// destination row.
    MigrateRow {
        /// The aggressor row being quarantined.
        source: RowAddr,
        /// The quarantine destination row.
        dest: RowAddr,
    },
    /// Issue a refresh-management command to `bank`, giving the DRAM chip a
    /// time window for in-DRAM preventive refreshes (RFM, PRAC back-off).
    IssueRfm {
        /// The bank to which the RFM command is directed.
        bank: BankAddr,
    },
    /// Perform an auxiliary memory access on behalf of the mechanism itself
    /// (Hydra's per-row tracking table in DRAM: cache misses and evictions
    /// cost one column access each).
    TableAccess {
        /// The DRAM row holding the accessed table entry.
        row: RowAddr,
        /// True if the access also writes back a dirty entry.
        write_back: bool,
    },
}

impl PreventiveAction {
    /// Number of row-cycle-equivalent DRAM operations this action costs, used
    /// for quick cost accounting and in tests. The memory controller models
    /// the precise command sequence.
    pub fn row_cycle_cost(&self) -> u64 {
        match self {
            PreventiveAction::RefreshRows(rows) => rows.len() as u64,
            // A migration reads and writes a full row: roughly two row cycles
            // plus the column traffic.
            PreventiveAction::MigrateRow { .. } => 2,
            PreventiveAction::IssueRfm { .. } => 1,
            PreventiveAction::TableAccess { write_back, .. } => 1 + u64::from(*write_back),
        }
    }

    /// True if this action interferes with demand requests by occupying a bank
    /// (every action currently does; kept explicit for future extensions).
    pub fn interferes(&self) -> bool {
        true
    }
}

impl fmt::Display for PreventiveAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PreventiveAction::RefreshRows(rows) => {
                write!(f, "refresh {} victim row(s)", rows.len())
            }
            PreventiveAction::MigrateRow { source, dest } => {
                write!(f, "migrate {source} -> {dest}")
            }
            PreventiveAction::IssueRfm { bank } => write!(f, "RFM to {bank}"),
            PreventiveAction::TableAccess { row, write_back } => {
                write!(f, "table access at {row}{}", if *write_back { " (writeback)" } else { "" })
            }
        }
    }
}

/// A caller-owned, reusable buffer that [`TriggerMechanism::on_activation`]
/// pushes preventive actions into.
///
/// The activation hot path runs once per DRAM row activation, so mechanisms
/// must not allocate per call. Instead of returning a `Vec<PreventiveAction>`
/// (whose row lists allocate again), mechanisms append into this sink: action
/// headers and victim rows live in two flat `Vec`s whose capacity is reused
/// across calls, so a warmed-up sink never touches the allocator.
///
/// ## Contract
///
/// * The **caller** (the memory controller) owns the sink, clears it before
///   each `on_activation` call, and drains it via [`ActionSink::iter`]
///   afterwards. One action header counts as one preventive action for
///   BreakHammer score attribution, exactly like one `Vec` element did.
/// * The **mechanism** only appends (`push_*`); it never reads, clears or
///   holds on to the sink, and must not assume the sink is empty on entry —
///   a caller is free to batch several events into one sink before draining.
/// * Mechanisms are not re-entered while their actions are drained, so
///   borrowed [`ActionView::RefreshRows`] slices stay valid for the whole
///   drain.
///
/// [`TriggerMechanism::on_activation`]: crate::TriggerMechanism::on_activation
#[derive(Debug, Clone, Default)]
pub struct ActionSink {
    entries: Vec<SinkEntry>,
    rows: Vec<RowAddr>,
}

/// Flat, `Copy` representation of one queued action; row lists are ranges
/// into `ActionSink::rows`.
#[derive(Debug, Clone, Copy)]
enum SinkEntry {
    Refresh { start: u32, len: u32 },
    Migrate { source: RowAddr, dest: RowAddr },
    Rfm { bank: BankAddr },
    Table { row: RowAddr, write_back: bool },
}

/// A borrowed view of one action in an [`ActionSink`] — the non-owning
/// counterpart of [`PreventiveAction`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActionView<'a> {
    /// Preventively refresh the given victim rows.
    RefreshRows(&'a [RowAddr]),
    /// Migrate `source` to the quarantine row `dest` (AQUA).
    MigrateRow {
        /// The aggressor row being quarantined.
        source: RowAddr,
        /// The quarantine destination row.
        dest: RowAddr,
    },
    /// Issue a refresh-management command to `bank`.
    IssueRfm {
        /// The bank to which the RFM command is directed.
        bank: BankAddr,
    },
    /// Auxiliary table access on behalf of the mechanism (Hydra's RCT).
    TableAccess {
        /// The DRAM row holding the accessed table entry.
        row: RowAddr,
        /// True if the access also writes back a dirty entry.
        write_back: bool,
    },
}

impl ActionSink {
    /// Empties the sink, retaining the allocated capacity.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.rows.clear();
    }

    /// Number of queued actions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no action is queued.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Queues a victim-refresh action covering `rows` (may be empty: an
    /// empty refresh still counts as one preventive action, matching the old
    /// `RefreshRows(vec![])` behaviour at bank edges).
    pub fn push_refresh_rows(&mut self, rows: impl IntoIterator<Item = RowAddr>) {
        let start = self.rows.len();
        self.rows.extend(rows);
        self.entries.push(SinkEntry::Refresh {
            start: start as u32,
            len: (self.rows.len() - start) as u32,
        });
    }

    /// Queues an AQUA row migration.
    pub fn push_migrate(&mut self, source: RowAddr, dest: RowAddr) {
        self.entries.push(SinkEntry::Migrate { source, dest });
    }

    /// Queues an RFM command to `bank`.
    pub fn push_rfm(&mut self, bank: BankAddr) {
        self.entries.push(SinkEntry::Rfm { bank });
    }

    /// Queues a tracking-table access (Hydra).
    pub fn push_table_access(&mut self, row: RowAddr, write_back: bool) {
        self.entries.push(SinkEntry::Table { row, write_back });
    }

    /// Iterates over the queued actions in push order.
    pub fn iter(&self) -> impl Iterator<Item = ActionView<'_>> + '_ {
        self.entries.iter().map(|entry| match *entry {
            SinkEntry::Refresh { start, len } => {
                ActionView::RefreshRows(&self.rows[start as usize..(start + len) as usize])
            }
            SinkEntry::Migrate { source, dest } => ActionView::MigrateRow { source, dest },
            SinkEntry::Rfm { bank } => ActionView::IssueRfm { bank },
            SinkEntry::Table { row, write_back } => ActionView::TableAccess { row, write_back },
        })
    }

    /// Materializes the queued actions as owned [`PreventiveAction`]s
    /// (allocates; meant for tests, examples and statistics, not the hot
    /// path).
    pub fn to_actions(&self) -> Vec<PreventiveAction> {
        self.iter().map(PreventiveAction::from).collect()
    }
}

impl From<ActionView<'_>> for PreventiveAction {
    fn from(view: ActionView<'_>) -> PreventiveAction {
        match view {
            ActionView::RefreshRows(rows) => PreventiveAction::RefreshRows(rows.to_vec()),
            ActionView::MigrateRow { source, dest } => {
                PreventiveAction::MigrateRow { source, dest }
            }
            ActionView::IssueRfm { bank } => PreventiveAction::IssueRfm { bank },
            ActionView::TableAccess { row, write_back } => {
                PreventiveAction::TableAccess { row, write_back }
            }
        }
    }
}

/// How BreakHammer should attribute RowHammer-preventive scores for a given
/// mechanism (§4.1 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScoreAttribution {
    /// When a preventive action is performed, attribute a score of 1 split
    /// across threads proportionally to the activations each performed since
    /// the previous preventive action (used by PARA, Graphene, Hydra, TWiCe,
    /// AQUA, RFM and PRAC).
    ProportionalToActivations,
    /// Increment a thread's score by one for every `quota` activations the
    /// thread performs (used by REGA, which performs its refreshes in
    /// parallel with activations and therefore has no discrete action to
    /// attribute).
    PerActivationQuota {
        /// Number of activations per score increment (REGA's `REGA_T`).
        quota: u64,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use bh_dram::BankAddr;

    fn row(r: usize) -> RowAddr {
        RowAddr { bank: BankAddr { rank: 0, bank_group: 0, bank: 0 }, row: r }
    }

    #[test]
    fn action_costs() {
        assert_eq!(PreventiveAction::RefreshRows(vec![row(1), row(2)]).row_cycle_cost(), 2);
        assert_eq!(
            PreventiveAction::MigrateRow { source: row(1), dest: row(9) }.row_cycle_cost(),
            2
        );
        assert_eq!(PreventiveAction::IssueRfm { bank: row(0).bank }.row_cycle_cost(), 1);
        assert_eq!(
            PreventiveAction::TableAccess { row: row(3), write_back: true }.row_cycle_cost(),
            2
        );
        assert!(PreventiveAction::RefreshRows(vec![]).interferes());
    }

    #[test]
    fn action_display() {
        let a = PreventiveAction::RefreshRows(vec![row(1)]);
        assert_eq!(a.to_string(), "refresh 1 victim row(s)");
        let m = PreventiveAction::MigrateRow { source: row(1), dest: row(2) };
        assert!(m.to_string().contains("migrate"));
        let t = PreventiveAction::TableAccess { row: row(1), write_back: true };
        assert!(t.to_string().contains("writeback"));
    }

    #[test]
    fn sink_roundtrips_every_action_kind() {
        let mut sink = ActionSink::default();
        assert!(sink.is_empty());
        sink.push_refresh_rows([row(1), row(2)]);
        sink.push_refresh_rows(std::iter::empty());
        sink.push_migrate(row(3), row(4));
        sink.push_rfm(row(0).bank);
        sink.push_table_access(row(5), true);
        assert_eq!(sink.len(), 5);
        let views: Vec<ActionView<'_>> = sink.iter().collect();
        assert_eq!(views[0], ActionView::RefreshRows(&[row(1), row(2)]));
        assert_eq!(views[1], ActionView::RefreshRows(&[]));
        assert_eq!(
            sink.to_actions(),
            vec![
                PreventiveAction::RefreshRows(vec![row(1), row(2)]),
                PreventiveAction::RefreshRows(vec![]),
                PreventiveAction::MigrateRow { source: row(3), dest: row(4) },
                PreventiveAction::IssueRfm { bank: row(0).bank },
                PreventiveAction::TableAccess { row: row(5), write_back: true },
            ]
        );
        sink.clear();
        assert!(sink.is_empty());
        assert_eq!(sink.to_actions(), vec![]);
    }

    #[test]
    fn attribution_variants() {
        let p = ScoreAttribution::ProportionalToActivations;
        let q = ScoreAttribution::PerActivationQuota { quota: 128 };
        assert_ne!(p, q);
        if let ScoreAttribution::PerActivationQuota { quota } = q {
            assert_eq!(quota, 128);
        } else {
            panic!("wrong variant");
        }
    }
}
