//! The memory controller: request queues, FR-FCFS+Cap scheduling, refresh
//! management, RowHammer-mitigation integration and preventive-action
//! execution, and BreakHammer hooks.
//!
//! The controller is ticked once per DRAM command-clock cycle by the system
//! simulator and issues at most one DRAM command per tick (one command bus).
//! Scheduling priority within a tick is
//!
//! 1. periodic refresh that has become due,
//! 2. pending RowHammer-preventive work requested by the mitigation
//!    mechanism (victim refreshes, AQUA migrations, RFM commands, Hydra
//!    table accesses),
//! 3. demand requests, scheduled FR-FCFS with a cap of `frfcfs_cap` on
//!    column-over-row reordering (Table 1), with write draining driven by
//!    queue watermarks.
//!
//! Every *demand* row activation is reported to the attached mitigation
//! mechanism (whose trigger algorithm may request preventive actions) and to
//! BreakHammer (which attributes activations to hardware threads and observes
//! the preventive actions).

use crate::config::MemControllerConfig;
use crate::latency::LatencyHistogram;
use crate::request::{MemRequest, MemResponse};
use bh_core::BreakHammer;
use bh_dram::{
    AccessKind, BankAddr, CommandKind, Cycle, DramChannel, DramCommand, DramLocation, ThreadId,
};
use bh_mitigation::{ActionSink, ActionView, ActivationEvent, TriggerMechanism};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Counters describing the controller's activity.
// bh-exhaustive: `accumulate` destructures every field; bh_analyze rule X1
// rejects any `..` at a `ControllerStats { .. }` use site.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ControllerStats {
    /// Demand reads completed.
    pub reads_served: u64,
    /// Writebacks completed.
    pub writes_served: u64,
    /// Demand requests that hit an open row.
    pub row_hits: u64,
    /// Demand requests that found their bank closed.
    pub row_misses: u64,
    /// Demand requests that had to close another row first.
    pub row_conflicts: u64,
    /// Row activations performed for demand requests.
    pub demand_activations: u64,
    /// Requests rejected because a queue was full.
    pub enqueue_rejections: u64,
    /// Preventive victim-refresh actions performed (PARA/Graphene/Hydra/TWiCe).
    pub preventive_refresh_actions: u64,
    /// Individual victim rows refreshed.
    pub victim_rows_refreshed: u64,
    /// AQUA row migrations performed.
    pub migrations: u64,
    /// RFM commands requested (RFM and PRAC mechanisms).
    pub rfm_actions: u64,
    /// Hydra tracking-table accesses performed.
    pub table_accesses: u64,
    /// Periodic all-bank refreshes issued.
    pub periodic_refreshes: u64,
}

impl ControllerStats {
    /// Total RowHammer-preventive actions performed (the quantity plotted in
    /// Fig. 10). Periodic refreshes are not preventive actions.
    pub fn preventive_actions_total(&self) -> u64 {
        self.preventive_refresh_actions + self.migrations + self.rfm_actions + self.table_accesses
    }

    /// Adds another controller's counters into this one (used by
    /// multi-channel systems to aggregate per-channel statistics).
    pub fn accumulate(&mut self, other: &ControllerStats) {
        // Exhaustive destructuring (no `..`): adding a stat field without
        // aggregating it here is a compile error, not a silent zero in
        // multi-channel results.
        let ControllerStats {
            reads_served,
            writes_served,
            row_hits,
            row_misses,
            row_conflicts,
            demand_activations,
            enqueue_rejections,
            preventive_refresh_actions,
            victim_rows_refreshed,
            migrations,
            rfm_actions,
            table_accesses,
            periodic_refreshes,
        } = other;
        self.reads_served += reads_served;
        self.writes_served += writes_served;
        self.row_hits += row_hits;
        self.row_misses += row_misses;
        self.row_conflicts += row_conflicts;
        self.demand_activations += demand_activations;
        self.enqueue_rejections += enqueue_rejections;
        self.preventive_refresh_actions += preventive_refresh_actions;
        self.victim_rows_refreshed += victim_rows_refreshed;
        self.migrations += migrations;
        self.rfm_actions += rfm_actions;
        self.table_accesses += table_accesses;
        self.periodic_refreshes += periodic_refreshes;
    }
}

/// Maximum consecutive ticks the head of the preventive queue may be
/// deferred in favour of pending demand row-hits — enough for several column
/// accesses (tCCD apart) to drain, small enough that a sustained hit stream
/// delays each preventive command by a bounded, security-irrelevant amount.
const PREVENTIVE_DEFER_TICKS: u32 = 32;

/// A queued demand request with its decoded DRAM coordinates.
#[derive(Debug, Clone, Copy)]
struct QueueEntry {
    req: MemRequest,
    loc: DramLocation,
    /// Flat bank index of `loc.bank`, cached at enqueue time so the
    /// scheduler's per-tick scans do not re-derive it per entry.
    flat: usize,
    /// Bank-group index of `loc.bank`, cached alongside `flat`.
    group: usize,
    /// Whether the row hit/miss/conflict classification was already recorded.
    classified: bool,
}

/// The scan-relevant coordinates of a queue entry packed into one `u64`
/// (`row | flat << 32 | group << 40 | rank << 48`). The per-tick FR-FCFS
/// scan walks these dense keys (8 bytes/entry) instead of the ~80-byte
/// [`QueueEntry`] records — the full entry is only touched once a candidate
/// is selected. Kept in lockstep with its queue (same index order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ScanKey(u64);

impl ScanKey {
    fn new(entry: &QueueEntry) -> ScanKey {
        debug_assert!(entry.loc.row < (1 << 32));
        debug_assert!(entry.flat < (1 << 8));
        debug_assert!(entry.group < (1 << 8));
        debug_assert!(entry.loc.bank.rank < (1 << 8));
        ScanKey(
            entry.loc.row as u64
                | (entry.flat as u64) << 32
                | (entry.group as u64) << 40
                | (entry.loc.bank.rank as u64) << 48,
        )
    }

    #[inline]
    fn row(self) -> usize {
        (self.0 & 0xFFFF_FFFF) as usize
    }

    #[inline]
    fn flat(self) -> usize {
        (self.0 >> 32 & 0xFF) as usize
    }

    #[inline]
    fn group(self) -> usize {
        (self.0 >> 40 & 0xFF) as usize
    }

    #[inline]
    fn rank(self) -> usize {
        (self.0 >> 48 & 0xFF) as usize
    }
}

/// What the scheduler decided to issue for a chosen demand request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ServiceStep {
    /// The row is open: issue the column command and complete the request.
    Column,
    /// The bank is closed: activate the target row.
    Activate,
    /// Another row is open: precharge first.
    Precharge,
}

/// Per-tick cached *shared* (group/rank/column-bus) earliest-issue
/// components for one (bank group, rank) pair, by command kind. Every bank
/// of the pair shares these, and a bank's full ready cycle is this shared
/// component maxed with one bank-local load
/// ([`DramChannel::demand_ready_bank_component`]) — so the FR-FCFS scan
/// derives the scattered group/rank/bus maxes at most once per (pair, kind)
/// per tick, not once per bank. Slots are stamped and filled *lazily*, only
/// for the command kind an entry actually needs. The open row itself is
/// read straight off the bank state — it is a single array load, cheaper
/// than any cache in front of it.
#[derive(Debug, Clone, Copy, Default)]
struct SharedScanEntry {
    /// Tick stamps the corresponding `ready` slot is valid for, indexed by
    /// [`ReadyKind`].
    ready_stamp: [u64; 4],
    /// Shared earliest-issue components, indexed by [`ReadyKind`].
    ready: [Cycle; 4],
}

/// Index into [`SharedScanEntry::ready`]: the four demand command kinds the
/// scheduler distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReadyKind {
    Read = 0,
    Write = 1,
    Activate = 2,
    Precharge = 3,
}

impl ReadyKind {
    fn command(self) -> CommandKind {
        match self {
            ReadyKind::Read => CommandKind::Read,
            ReadyKind::Write => CommandKind::Write,
            ReadyKind::Activate => CommandKind::Activate,
            ReadyKind::Precharge => CommandKind::Precharge,
        }
    }
}

/// The earliest issue cycle of `kind` on bank `flat`: the tick-stamped
/// shared (group/rank/bus) component — derived lazily on the first entry of
/// the tick that needs this (group, kind) pair — maxed with the bank-local
/// load. A free function over the individual fields so the FR-FCFS scan can
/// fill the cache while it holds the key deque.
#[inline]
fn bank_ready_in(
    shared_scan: &mut [SharedScanEntry],
    channel: &DramChannel,
    stamp: u64,
    flat: usize,
    group: usize,
    rank: usize,
    kind: ReadyKind,
) -> Cycle {
    let slot = kind as usize;
    let entry = &mut shared_scan[group];
    if entry.ready_stamp[slot] != stamp {
        entry.ready_stamp[slot] = stamp;
        entry.ready[slot] = channel.demand_ready_shared_component(group, rank, kind.command());
    }
    entry.ready[slot].max(channel.demand_ready_bank_component(flat, kind.command()))
}

/// Result of one scheduling stage within a tick: either a command was issued,
/// or the stage reports the earliest future cycle at which it could act
/// ([`Cycle::MAX`] if never, absent external changes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TickOutcome {
    /// A DRAM command was issued; scheduling state changed.
    Issued,
    /// Nothing was issued; the stage cannot act before this cycle.
    Horizon(Cycle),
}

/// The memory controller for one channel.
///
/// BreakHammer is *not* owned by the controller: it is a memory-system-wide
/// observer shared by every channel's controller (see
/// [`MemorySystem`](crate::MemorySystem)), so the caller passes it into
/// [`MemoryController::tick`] by mutable reference.
pub struct MemoryController {
    config: MemControllerConfig,
    channel: DramChannel,
    mechanism: Box<dyn TriggerMechanism>,
    /// Index of this controller's channel in the memory system (0 on
    /// single-channel systems); reported to BreakHammer with every preventive
    /// action.
    channel_index: usize,
    read_queue: VecDeque<QueueEntry>,
    write_queue: VecDeque<QueueEntry>,
    /// Packed scan keys, index-aligned with `read_queue` / `write_queue`.
    read_keys: VecDeque<ScanKey>,
    write_keys: VecDeque<ScanKey>,
    responses: Vec<MemResponse>,
    preventive_queue: VecDeque<DramCommand>,
    next_refresh: Vec<Cycle>,
    /// Cached minimum of `next_refresh`: while `cycle` is below it, no rank
    /// is due and the refresh stage reduces to a single compare.
    next_refresh_min: Cycle,
    write_drain_mode: bool,
    /// Consecutive ticks the preventive-queue head has been deferred in
    /// favour of pending demand row-hits (bounded by
    /// [`PREVENTIVE_DEFER_TICKS`]).
    preventive_deferred_ticks: u32,
    /// Memoized [`MemoryController::next_event`] horizon: until this cycle,
    /// `tick` is known to be a pure no-op and early-returns instead of
    /// re-deriving scheduling state. Reset to 0 whenever the queues or the
    /// DRAM timing state change (enqueue or command issue).
    idle_until: Cycle,
    /// Cached [`TriggerMechanism::may_block`]: lets the scheduler skip the
    /// per-request blacklist query for the mechanisms that never block.
    mechanism_may_block: bool,
    /// Reusable scratch sink the mechanism pushes preventive actions into on
    /// every demand activation (cleared and drained by
    /// [`MemoryController::on_demand_activation`]; never allocates in the
    /// steady state).
    sink: ActionSink,
    /// Per-(bank group, rank) shared scheduling view for the current tick
    /// (see [`SharedScanEntry`]; `scan_stamp` is bumped once per
    /// [`MemoryController::tick`], and no command issues between the two
    /// queue scans of a tick, so the cache stays coherent for the whole
    /// tick). Indexed by the global group index `rank * bank_groups +
    /// bank_group` (the same index [`ScanKey::group`] carries).
    shared_scan: Vec<SharedScanEntry>,
    scan_stamp: u64,
    hit_streak: Vec<u32>,
    stats: ControllerStats,
    per_thread_latency: Vec<LatencyHistogram>,
}

impl std::fmt::Debug for MemoryController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoryController")
            .field("mechanism", &self.mechanism.name())
            .field("read_queue", &self.read_queue.len())
            .field("write_queue", &self.write_queue.len())
            .field("preventive_queue", &self.preventive_queue.len())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl MemoryController {
    /// Creates a controller driving `channel`, protected by `mechanism`.
    ///
    /// To attach BreakHammer, pass it to [`MemoryController::tick`] (it is
    /// shared across channels and therefore owned by the caller).
    ///
    /// # Panics
    /// Panics if the configuration is invalid.
    pub fn new(
        config: MemControllerConfig,
        channel: DramChannel,
        mechanism: Box<dyn TriggerMechanism>,
    ) -> Self {
        config.validate().expect("invalid memory controller configuration");
        // The packed 8-byte scan keys give flat-bank/group/rank 8 bits each
        // and the row 32; reject out-of-range geometries up front instead of
        // silently truncating in release builds.
        let geometry = channel.geometry();
        assert!(
            geometry.banks_per_channel() <= 1 << 8,
            "scan keys support at most 256 banks per channel"
        );
        assert!(geometry.rows_per_bank <= 1 << 32, "scan keys support at most 2^32 rows per bank");
        let ranks = channel.geometry().ranks;
        let banks = channel.geometry().banks_per_channel();
        let groups_total = ranks * channel.geometry().bank_groups;
        let t_refi = channel.timing().t_refi;
        let num_threads = config.num_threads;
        let mechanism_may_block = mechanism.may_block();
        MemoryController {
            config,
            channel,
            mechanism,
            channel_index: 0,
            read_queue: VecDeque::new(),
            write_queue: VecDeque::new(),
            read_keys: VecDeque::new(),
            write_keys: VecDeque::new(),
            responses: Vec::new(),
            preventive_queue: VecDeque::new(),
            next_refresh: (0..ranks)
                .map(|r| t_refi + r as u64 * (t_refi / ranks.max(1) as u64))
                .collect(),
            next_refresh_min: t_refi,
            write_drain_mode: false,
            preventive_deferred_ticks: 0,
            idle_until: 0,
            mechanism_may_block,
            sink: ActionSink::default(),
            shared_scan: vec![SharedScanEntry::default(); groups_total],
            scan_stamp: 0,
            hit_streak: vec![0; banks],
            stats: ControllerStats::default(),
            per_thread_latency: (0..num_threads).map(|_| LatencyHistogram::new()).collect(),
        }
    }

    /// The same controller tagged with its channel index in a multi-channel
    /// memory system (reported to BreakHammer with every preventive action).
    pub fn with_channel_index(mut self, channel_index: usize) -> Self {
        self.channel_index = channel_index;
        self
    }

    /// This controller's channel index in the memory system.
    pub fn channel_index(&self) -> usize {
        self.channel_index
    }

    /// The controller configuration.
    pub fn config(&self) -> &MemControllerConfig {
        &self.config
    }

    /// The DRAM channel driven by this controller.
    pub fn channel(&self) -> &DramChannel {
        &self.channel
    }

    /// The attached mitigation mechanism.
    pub fn mechanism(&self) -> &dyn TriggerMechanism {
        self.mechanism.as_ref()
    }

    /// Controller statistics.
    pub fn stats(&self) -> &ControllerStats {
        &self.stats
    }

    /// Per-thread read-latency histogram.
    pub fn latency_of(&self, thread: ThreadId) -> &LatencyHistogram {
        &self.per_thread_latency[thread.index()]
    }

    /// Number of demand requests currently queued (reads + writes).
    pub fn queued_requests(&self) -> usize {
        self.read_queue.len() + self.write_queue.len()
    }

    /// Number of pending preventive DRAM commands.
    pub fn pending_preventive_commands(&self) -> usize {
        self.preventive_queue.len()
    }

    /// True if a request of the given kind can currently be accepted.
    pub fn can_accept(&self, kind: AccessKind) -> bool {
        match kind {
            AccessKind::Read => self.read_queue.len() < self.config.read_queue_capacity,
            AccessKind::Write => self.write_queue.len() < self.config.write_queue_capacity,
        }
    }

    /// Enqueues a demand request.
    ///
    /// # Errors
    /// Returns the request back if the corresponding queue is full.
    pub fn try_enqueue(&mut self, req: MemRequest) -> Result<(), MemRequest> {
        if !self.can_accept(req.kind) {
            self.stats.enqueue_rejections += 1;
            return Err(req);
        }
        let geometry = self.channel.geometry();
        let loc = self.config.mapping.decode(req.addr, geometry);
        let flat = geometry.flat_bank(loc.bank);
        let group = loc.bank.rank * geometry.bank_groups + loc.bank.bank_group;
        let entry = QueueEntry { req, loc, flat, group, classified: false };
        // A new request can only move the memoized no-op horizon *earlier*:
        // lower it to this entry's earliest issuable cycle (ignoring
        // scheduling masks, which can only delay further — undershooting the
        // horizon merely wastes a tick, overshooting would skip work).
        // Known nuance (pre-dating the memo's introduction in the
        // event-driven-kernel PR): if this entry is a row hit on the bank the
        // preventive head is waiting for, the ticks skipped until `ready_at`
        // do not advance the bounded-deferral counter, so the head can be
        // deferred up to that many wall-cycles beyond
        // `PREVENTIVE_DEFER_TICKS`. Both kernels share the memo, so they stay
        // bit-identical; the deferral remains bounded (ticking resumes at the
        // hit's ready cycle) and is security-neutral while the row is open.
        if self.idle_until > 0 {
            let kind = match self.channel.open_row_flat(flat) {
                Some(row) if row == loc.row => match req.kind {
                    AccessKind::Read => CommandKind::Read,
                    AccessKind::Write => CommandKind::Write,
                },
                Some(_) => CommandKind::Precharge,
                None => CommandKind::Activate,
            };
            self.idle_until = self.idle_until.min(self.channel.demand_ready_at_cached(
                flat,
                group,
                loc.bank.rank,
                kind,
            ));
        }
        match req.kind {
            AccessKind::Read => {
                debug_assert!(self.read_queue.back().is_none_or(|e| e.req.arrival <= req.arrival));
                self.read_queue.push_back(entry);
                self.read_keys.push_back(ScanKey::new(&entry));
            }
            AccessKind::Write => {
                debug_assert!(self.write_queue.back().is_none_or(|e| e.req.arrival <= req.arrival));
                self.write_queue.push_back(entry);
                self.write_keys.push_back(ScanKey::new(&entry));
            }
        }
        Ok(())
    }

    /// True if at least one response is waiting to be drained.
    pub fn has_responses(&self) -> bool {
        !self.responses.is_empty()
    }

    /// Removes and returns all responses generated so far.
    pub fn drain_responses(&mut self) -> Vec<MemResponse> {
        std::mem::take(&mut self.responses)
    }

    /// Moves all responses generated so far into `buf` (cleared first),
    /// recycling `buf`'s allocation as the controller's next response buffer
    /// — the allocation-free variant of [`MemoryController::drain_responses`]
    /// for callers that drain every cycle.
    pub fn drain_responses_into(&mut self, buf: &mut Vec<MemResponse>) {
        buf.clear();
        std::mem::swap(&mut self.responses, buf);
    }

    /// Appends all responses generated so far to `buf` (without clearing it),
    /// leaving this controller's response buffer empty but warm — used by the
    /// multi-channel [`MemorySystem`](crate::MemorySystem) to drain every
    /// channel into one merged buffer each step.
    pub fn append_responses_into(&mut self, buf: &mut Vec<MemResponse>) {
        buf.append(&mut self.responses);
    }

    /// Earliest cycle strictly after `now` at which [`MemoryController::tick`]
    /// could do anything beyond a pure no-op — issue a refresh, preventive or
    /// demand command, or advance the bounded preventive-deferral counter.
    ///
    /// The horizon is computed as a by-product of the most recent
    /// non-issuing [`MemoryController::tick`] (whose scheduling scan already
    /// derives, for every queued command, the earliest cycle its timing
    /// constraints are met), so this query is O(1). Immediately after a tick
    /// that issued a command — or an enqueue that could beat the memoized
    /// horizon — the horizon is unknown and `now + 1` is returned: the next
    /// tick re-derives it. Horizons may undershoot (waking early is only
    /// wasted work) but never overshoot: between `now` and the returned
    /// cycle, `tick` is guaranteed to leave all controller, DRAM and
    /// mitigation state untouched (BreakHammer's window rotations are driven
    /// separately by the simulation kernel).
    pub fn next_event(&self, now: Cycle) -> Cycle {
        if self.idle_until > now {
            self.idle_until
        } else {
            now + 1
        }
    }

    /// Records `n` enqueue attempts rejected while their queue stayed full.
    ///
    /// The per-cycle kernel retries a rejected request once per cycle, and
    /// every failed retry counts as an enqueue rejection; the event-driven
    /// kernel skips those dead cycles and replays the counter here.
    pub fn absorb_enqueue_rejections(&mut self, n: u64) {
        self.stats.enqueue_rejections += n;
    }

    /// Advances the controller by one DRAM cycle, issuing at most one command.
    ///
    /// `breakhammer` is the shared memory-system-wide observer (or `None`
    /// when BreakHammer is disabled): demand activations and preventive
    /// actions performed during this tick are reported to it.
    pub fn tick(&mut self, cycle: Cycle, mut breakhammer: Option<&mut BreakHammer>) {
        if let Some(bh) = breakhammer.as_mut() {
            bh.advance_to(cycle);
        }
        // Fast path: a previous tick proved nothing can happen before
        // `idle_until` and nothing has changed since, so this tick is a pure
        // no-op (the write-drain mode and all scheduling decisions depend
        // only on state that invalidates the memo when it changes).
        if cycle < self.idle_until {
            return;
        }
        self.scan_stamp += 1;
        let mut horizon = Cycle::MAX;
        self.update_write_drain_mode();
        match self.try_refresh(cycle) {
            TickOutcome::Issued => {
                self.idle_until = 0;
                return;
            }
            TickOutcome::Horizon(h) => horizon = horizon.min(h),
        }
        match self.try_preventive(cycle) {
            TickOutcome::Issued => {
                self.idle_until = 0;
                return;
            }
            TickOutcome::Horizon(h) => horizon = horizon.min(h),
        }
        let refresh_pending = self.refresh_pending_ranks(cycle);
        let preventive_bank =
            self.preventive_queue.front().map(|c| self.channel.geometry().flat_bank(c.bank));
        let first_writes = self.write_drain_mode && !self.write_queue.is_empty();
        let order = if first_writes { [true, false] } else { [false, true] };
        for use_writes in order {
            // An empty queue contributes neither a candidate nor a horizon.
            if if use_writes { self.write_keys.is_empty() } else { self.read_keys.is_empty() } {
                continue;
            }
            let (candidate, queue_horizon) =
                self.scan_queue(use_writes, cycle, refresh_pending, preventive_bank);
            if let Some((idx, step)) = candidate {
                self.service(use_writes, idx, step, cycle, breakhammer);
                // A command was issued: timing and queue state changed, so
                // the next tick must re-derive its decisions from scratch.
                self.idle_until = 0;
                return;
            }
            horizon = horizon.min(queue_horizon);
        }
        // Nothing could issue: memoize the horizon until which every tick is
        // a pure no-op.
        self.idle_until = horizon.max(cycle + 1);
    }

    fn update_write_drain_mode(&mut self) {
        if self.write_drain_mode {
            if self.write_queue.len() <= self.config.write_drain_low {
                self.write_drain_mode = false;
            }
        } else if self.write_queue.len() >= self.config.write_drain_high
            || (self.read_queue.is_empty() && !self.write_queue.is_empty())
        {
            self.write_drain_mode = true;
        }
    }

    /// Bitmask of ranks whose periodic refresh is overdue.
    fn refresh_pending_ranks(&self, cycle: Cycle) -> u64 {
        if cycle < self.next_refresh_min {
            // No rank is due (the common tick): skip the per-rank walk.
            return 0;
        }
        let mut mask = 0u64;
        for (rank, deadline) in self.next_refresh.iter().enumerate() {
            if cycle >= *deadline {
                mask |= 1 << rank;
            }
        }
        mask
    }

    /// Tries to make progress on a due periodic refresh; otherwise reports
    /// the earliest cycle the refresh machinery could next act (for a rank
    /// that is not yet due, its deadline).
    fn try_refresh(&mut self, cycle: Cycle) -> TickOutcome {
        if cycle < self.next_refresh_min {
            // No rank is due (the common tick): the machinery next acts at
            // the earliest deadline, exactly what the per-rank walk below
            // would report.
            return TickOutcome::Horizon(self.next_refresh_min);
        }
        let ranks = self.channel.geometry().ranks;
        let mut horizon = Cycle::MAX;
        for rank in 0..ranks {
            let deadline = self.next_refresh[rank];
            if cycle < deadline {
                horizon = horizon.min(deadline);
                continue;
            }
            if self.channel.all_banks_closed(rank) {
                let cmd = DramCommand::refresh(rank);
                if self.channel.can_issue(&cmd, cycle) {
                    self.channel.issue_prechecked(&cmd, cycle);
                    self.next_refresh[rank] += self.channel.timing().t_refi;
                    self.next_refresh_min = self.next_refresh.iter().copied().min().unwrap_or(0);
                    self.stats.periodic_refreshes += 1;
                    return TickOutcome::Issued;
                }
                horizon = horizon.min(self.channel.earliest_issue(&cmd));
            } else {
                for flat in self.channel.geometry().rank_flat_range(rank) {
                    if self.channel.open_row_flat(flat).is_some() {
                        let bank = self.channel.geometry().bank_from_flat(flat);
                        let pre = DramCommand::precharge(bank);
                        if self.channel.can_issue(&pre, cycle) {
                            self.channel.issue_prechecked(&pre, cycle);
                            return TickOutcome::Issued;
                        }
                        horizon = horizon.min(self.channel.earliest_issue(&pre));
                    }
                }
            }
        }
        TickOutcome::Horizon(horizon)
    }

    /// Tries to issue the next pending preventive command (or a command that
    /// prepares the bank for it); otherwise reports when it could next act.
    fn try_preventive(&mut self, cycle: Cycle) -> TickOutcome {
        let Some(head) = self.preventive_queue.front().copied() else {
            return TickOutcome::Horizon(Cycle::MAX);
        };
        let open = self.channel.open_row(head.bank);
        let cmd = match head.kind {
            CommandKind::VictimRefresh | CommandKind::RefreshManagement => match open {
                Some(_) => DramCommand::precharge(head.bank),
                None => head,
            },
            CommandKind::Read | CommandKind::Write => match open {
                Some(row) if row == head.row => head,
                Some(_) => DramCommand::precharge(head.bank),
                None => DramCommand::activate(head.bank, head.row),
            },
            _ => head,
        };
        // Forward-progress rule: don't close a row that still has a pending
        // demand row-hit. Without it, a mechanism that triggers a same-bank
        // preventive refresh on (almost) every activation — PARA's p
        // saturates to 1 at very low N_RH — precharges the row a demand
        // request just opened, re-activating it forever without ever serving
        // the column access (a livelock, not the paper's slowdown). Letting
        // column accesses drain first is security-neutral while it lasts
        // (disturbance only accrues on activations, and none can occur in
        // this bank while its row stays open), but the deferral must be
        // *bounded*: the preventive queue is channel-wide, so a sustained
        // hit stream to one open row would otherwise also starve every
        // other bank's queued refreshes behind the head.
        if cmd.kind == CommandKind::Precharge {
            if let Some(row) = open {
                if self.demand_hit_pending(head.bank, row)
                    && self.preventive_deferred_ticks < PREVENTIVE_DEFER_TICKS
                {
                    self.preventive_deferred_ticks += 1;
                    // The deferral counter advances every tick: no cycle may
                    // be skipped while deferring.
                    return TickOutcome::Horizon(cycle + 1);
                }
            }
        }
        if !self.channel.can_issue(&cmd, cycle) {
            return TickOutcome::Horizon(self.channel.earliest_issue(&cmd));
        }
        self.preventive_deferred_ticks = 0;
        self.channel.issue_prechecked(&cmd, cycle);
        if cmd == head {
            self.preventive_queue.pop_front();
        }
        TickOutcome::Issued
    }

    /// True if some queued demand request is a row hit on `bank`'s open
    /// `row` (and could therefore be lost by precharging the bank now).
    fn demand_hit_pending(&self, bank: BankAddr, row: usize) -> bool {
        let flat = self.channel.geometry().flat_bank(bank);
        self.read_keys
            .iter()
            .chain(self.write_keys.iter())
            .any(|k| k.flat() == flat && k.row() == row)
    }

    /// One scan over the chosen queue: finds the next request to service —
    /// the oldest row-buffer hit whose bank is still under the FR-FCFS
    /// reordering cap, falling back to the oldest schedulable request (FCFS)
    /// — and, as a by-product, the earliest future cycle at which any entry
    /// of this queue could become issuable (the demand contribution to the
    /// controller's no-op horizon).
    ///
    /// The queue is arrival-ordered (enqueue cycles are monotone and removal
    /// preserves order; `try_enqueue` debug-asserts this), which turns the
    /// oldest-first selection into a prefix scan with two early exits:
    ///
    /// * the first schedulable capped row hit is *the* FR-FCFS winner — no
    ///   later entry can be older, and hits pre-empt everything else — so the
    ///   scan stops there (the common case under a row-hit stream costs one
    ///   entry, not the whole queue);
    /// * once a fallback candidate is known, only capped row hits can still
    ///   change the outcome, so other entries skip their timing checks — and
    ///   the horizon is no longer tracked, because the caller discards it
    ///   whenever a command issues.
    ///
    /// Entries are pre-filtered by rank-refresh masking, the preventive-head
    /// bank reservation and BlockHammer blacklists; filtered entries
    /// contribute no horizon of their own because the event that unblocks
    /// them (refresh issued, preventive head popped, an activation elsewhere)
    /// invalidates the memoized horizon anyway.
    fn scan_queue(
        &mut self,
        use_writes: bool,
        cycle: Cycle,
        refresh_pending: u64,
        preventive_bank: Option<usize>,
    ) -> (Option<(usize, ServiceStep)>, Cycle) {
        // Disjoint field borrows: the key walk holds the key deque while the
        // bank-view cache is filled lazily — destructuring lets the borrow
        // checker see they are different fields (and the chained-slice
        // iterator below replaces per-index `VecDeque` wrap arithmetic).
        let Self {
            read_keys,
            write_keys,
            read_queue,
            write_queue,
            shared_scan,
            channel,
            hit_streak,
            config,
            next_refresh,
            mechanism,
            mechanism_may_block,
            scan_stamp,
            ..
        } = self;
        let keys = if use_writes { write_keys } else { read_keys };
        let stamp = *scan_stamp;
        let cap = config.frfcfs_cap;
        // Sentinel form of the preventive-head bank reservation: `usize::MAX`
        // never equals a flat bank index, so the per-entry check is one
        // compare instead of an `Option` match.
        let preventive_flat = preventive_bank.unwrap_or(usize::MAX);
        // The oldest schedulable request of any kind (the FCFS fallback).
        let mut best_any: Option<(usize, ServiceStep)> = None;
        let mut horizon = Cycle::MAX;
        let refresh_any = refresh_pending != 0;
        let ready_col = if use_writes { ReadyKind::Write } else { ReadyKind::Read };
        let mut tail_from = keys.len();
        // Duplicate-coordinate skip: a queue entry with the *same packed key*
        // (same bank, row, group, rank) as one already classified
        // not-schedulable this tick reaches the identical decision — same
        // step, same ready cycle, same filters, same horizon contribution —
        // so it is skipped outright. Two slots cover the common pattern (an
        // attacker alternating between two aggressor rows fills the queue
        // with duplicates of two keys).
        let mut dup_memo = [ScanKey(u64::MAX), ScanKey(u64::MAX)];
        let mut dup_next = 0usize;
        // Phase 1 — until the FCFS fallback candidate is known: classify
        // every entry, derive its ready cycle, accumulate the horizon, and
        // early-exit on the first schedulable capped row hit.
        for (idx, &key) in keys.iter().enumerate() {
            if key == dup_memo[0] || key == dup_memo[1] {
                continue;
            }
            let flat = key.flat();
            if refresh_any && refresh_pending & (1 << key.rank()) != 0 {
                continue;
            }
            let step = match channel.open_row_flat(flat) {
                None => ServiceStep::Activate,
                Some(row) if row == key.row() => ServiceStep::Column,
                Some(_) => ServiceStep::Precharge,
            };
            // A bank the preventive head is waiting on accepts no new row
            // cycles, but pending hits on its open row may still drain (the
            // counterpart of the forward-progress rule in `try_preventive`).
            if preventive_flat == flat && step != ServiceStep::Column {
                continue;
            }
            let capped_hit = step == ServiceStep::Column && hit_streak[flat] < cap;
            // Queue entries are decoded from in-range addresses and their
            // step matches the bank state by construction, so only the
            // timing constraints (and BlockHammer blacklists) gate issue.
            let ready_kind = match step {
                ServiceStep::Column => ready_col,
                ServiceStep::Activate => ReadyKind::Activate,
                ServiceStep::Precharge => ReadyKind::Precharge,
            };
            let mut ready_at = bank_ready_in(
                shared_scan,
                channel,
                stamp,
                flat,
                key.group(),
                key.rank(),
                ready_kind,
            );
            if step == ServiceStep::Activate && *mechanism_may_block {
                // BlockHammer: rows whose activation is blocked cannot be
                // opened before their delay expires. (Rare enough that
                // touching the full entry for its row address is fine.)
                let queue = if use_writes { &write_queue } else { &read_queue };
                ready_at = ready_at.max(mechanism.blocked_until(queue[idx].loc.row_addr(), cycle));
            }
            if cycle < ready_at {
                // Not issuable yet: contributes to the horizon unless the
                // rank's refresh will interpose first (the refresh horizon
                // covers that case). Later same-key entries skip via the
                // duplicate memo (their horizon contribution would be the
                // same value, so the minimum is unaffected).
                if ready_at < next_refresh[key.rank()] {
                    horizon = horizon.min(ready_at);
                }
                dup_memo[dup_next] = key;
                dup_next ^= 1;
                continue;
            }
            if capped_hit {
                // Oldest capped row hit: nothing later can pre-empt it.
                return (Some((idx, ServiceStep::Column)), horizon);
            }
            best_any = Some((idx, step));
            tail_from = idx + 1;
            break;
        }
        // Phase 2 — a fallback candidate exists: only an older capped row
        // hit can still change the outcome, so the remaining entries reduce
        // to a row compare against their bank's open row (no horizon
        // bookkeeping, no ready derivation for non-hits; the preventive-head
        // reservation never filters hits, and the caller discards the
        // horizon whenever a command issues).
        for (off, &key) in keys.iter().skip(tail_from).enumerate() {
            if key == dup_memo[0] || key == dup_memo[1] {
                // Same full coordinates as an entry already classified
                // not-schedulable this tick (possibly in phase 1).
                continue;
            }
            let flat = key.flat();
            if refresh_any && refresh_pending & (1 << key.rank()) != 0 {
                continue;
            }
            if channel.open_row_flat(flat) != Some(key.row()) || hit_streak[flat] >= cap {
                continue;
            }
            let ready_at = bank_ready_in(
                shared_scan,
                channel,
                stamp,
                flat,
                key.group(),
                key.rank(),
                ready_col,
            );
            if cycle >= ready_at {
                // Oldest capped row hit: nothing later can pre-empt it.
                return (Some((tail_from + off, ServiceStep::Column)), horizon);
            }
            dup_memo[dup_next] = key;
            dup_next ^= 1;
        }
        (best_any, horizon)
    }

    fn command_for(&self, entry: &QueueEntry, step: ServiceStep, use_writes: bool) -> DramCommand {
        match step {
            ServiceStep::Column => {
                if use_writes {
                    DramCommand::write(entry.loc)
                } else {
                    DramCommand::read(entry.loc)
                }
            }
            ServiceStep::Activate => DramCommand::activate(entry.loc.bank, entry.loc.row),
            ServiceStep::Precharge => DramCommand::precharge(entry.loc.bank),
        }
    }

    /// Issues the chosen command and updates queues, statistics and the
    /// mitigation/BreakHammer hooks.
    fn service(
        &mut self,
        use_writes: bool,
        idx: usize,
        step: ServiceStep,
        cycle: Cycle,
        breakhammer: Option<&mut BreakHammer>,
    ) {
        let entry = if use_writes { self.write_queue[idx] } else { self.read_queue[idx] };
        let flat = entry.flat;
        let cmd = self.command_for(&entry, step, use_writes);
        let outcome = self.channel.issue_prechecked(&cmd, cycle);

        match step {
            ServiceStep::Column => {
                self.hit_streak[flat] = self.hit_streak[flat].saturating_add(1);
                if !entry.classified {
                    self.stats.row_hits += 1;
                }
                let completed_at = outcome.data_ready_at.unwrap_or(cycle);
                let latency = completed_at.saturating_sub(entry.req.arrival);
                if entry.req.kind == AccessKind::Read {
                    self.stats.reads_served += 1;
                    let t = entry.req.thread.index();
                    if t < self.per_thread_latency.len() {
                        self.per_thread_latency[t].record(latency);
                    }
                } else {
                    self.stats.writes_served += 1;
                }
                self.responses.push(MemResponse {
                    id: entry.req.id,
                    thread: entry.req.thread,
                    kind: entry.req.kind,
                    completed_at,
                    latency,
                });
                if use_writes {
                    self.write_queue.remove(idx);
                    self.write_keys.remove(idx);
                } else {
                    // `remove` shifts the shorter side; the serviced entry is
                    // almost always at or near the front (oldest-first), so
                    // this is O(1)-ish in practice.
                    self.read_queue.remove(idx);
                    self.read_keys.remove(idx);
                }
            }
            ServiceStep::Precharge => {
                self.hit_streak[flat] = 0;
                if !self.mark_classified(use_writes, idx) {
                    self.stats.row_conflicts += 1;
                }
            }
            ServiceStep::Activate => {
                self.hit_streak[flat] = 0;
                if !self.mark_classified(use_writes, idx) {
                    self.stats.row_misses += 1;
                }
                self.on_demand_activation(entry.loc, entry.req.thread, cycle, breakhammer);
            }
        }
    }

    /// Marks the queue entry as classified, returning the previous flag.
    fn mark_classified(&mut self, use_writes: bool, idx: usize) -> bool {
        let entry = if use_writes { &mut self.write_queue[idx] } else { &mut self.read_queue[idx] };
        let was = entry.classified;
        entry.classified = true;
        was
    }

    /// Reports a demand activation to the mitigation mechanism and
    /// BreakHammer, and queues any requested preventive actions.
    ///
    /// This is the simulator's per-activation hot path: the mechanism pushes
    /// its actions into the controller-owned scratch [`ActionSink`], which is
    /// cleared and drained here — no allocation occurs once the sink and the
    /// preventive queue are warm.
    fn on_demand_activation(
        &mut self,
        loc: DramLocation,
        thread: ThreadId,
        cycle: Cycle,
        mut breakhammer: Option<&mut BreakHammer>,
    ) {
        self.stats.demand_activations += 1;
        if let Some(bh) = breakhammer.as_mut() {
            bh.on_activation(thread, cycle);
        }
        let event = ActivationEvent { row: loc.row_addr(), thread, cycle };
        // Move the sink out so its borrow does not alias `self` while the
        // drained actions are expanded (`take` leaves an empty, non-allocated
        // sink behind and the buffers come right back).
        let mut sink = std::mem::take(&mut self.sink);
        sink.clear();
        self.mechanism.on_activation(&event, &mut sink);
        for action in sink.iter() {
            self.expand_action(action);
            if let Some(bh) = breakhammer.as_mut() {
                bh.on_preventive_action_from(self.channel_index, cycle);
            }
        }
        self.sink = sink;
    }

    /// Converts a preventive action into the DRAM command sequence that
    /// performs it and appends it to the preventive queue.
    fn expand_action(&mut self, action: ActionView<'_>) {
        match action {
            ActionView::RefreshRows(rows) => {
                self.stats.preventive_refresh_actions += 1;
                for row in rows {
                    self.stats.victim_rows_refreshed += 1;
                    self.preventive_queue.push_back(DramCommand::victim_refresh(*row));
                }
            }
            ActionView::MigrateRow { source, dest } => {
                self.stats.migrations += 1;
                let columns = self.channel.geometry().columns_per_row;
                // Moving the aggressor away ends its disturbance relationship
                // with the neighbouring victims; model that by restoring the
                // neighbours as part of the migration sequence (a negligible
                // 2-4 extra row cycles on top of the ~2x128 column transfers).
                for victim in self.channel.geometry().neighbors(source, 2) {
                    self.preventive_queue.push_back(DramCommand::victim_refresh(victim));
                }
                for column in 0..columns {
                    self.preventive_queue.push_back(DramCommand::read(DramLocation {
                        channel: 0,
                        bank: source.bank,
                        row: source.row,
                        column,
                    }));
                }
                for column in 0..columns {
                    self.preventive_queue.push_back(DramCommand::write(DramLocation {
                        channel: 0,
                        bank: dest.bank,
                        row: dest.row,
                        column,
                    }));
                }
            }
            ActionView::IssueRfm { bank } => {
                self.stats.rfm_actions += 1;
                self.preventive_queue.push_back(DramCommand::rfm(bank));
            }
            ActionView::TableAccess { row, write_back } => {
                self.stats.table_accesses += 1;
                self.preventive_queue.push_back(DramCommand::read(DramLocation {
                    channel: 0,
                    bank: row.bank,
                    row: row.row,
                    column: 0,
                }));
                if write_back {
                    self.preventive_queue.push_back(DramCommand::write(DramLocation {
                        channel: 0,
                        bank: row.bank,
                        row: row.row,
                        column: 0,
                    }));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::AddressMapping;
    use bh_core::BreakHammerConfig;
    use bh_dram::{DramGeometry, PhysAddr, TimingParams};
    use bh_mitigation::MechanismKind;

    fn small_config() -> MemControllerConfig {
        let mut c = MemControllerConfig::paper_table1(4);
        c.read_queue_capacity = 16;
        c.write_queue_capacity = 16;
        c.write_drain_high = 12;
        c.write_drain_low = 4;
        c
    }

    fn controller(kind: MechanismKind, nrh: u64) -> MemoryController {
        let geometry = DramGeometry::tiny();
        let timing = TimingParams::fast_test();
        let mechanism = kind.build(&geometry, &timing, nrh, 1);
        let channel = DramChannel::with_rowhammer(geometry, timing, nrh);
        MemoryController::new(small_config(), channel, mechanism)
    }

    /// A controller plus the caller-owned BreakHammer instance that must be
    /// passed into every `tick` (BreakHammer is shared across channels, so
    /// the controller only borrows it).
    fn controller_with_bh(kind: MechanismKind, nrh: u64) -> (MemoryController, BreakHammer) {
        let geometry = DramGeometry::tiny();
        let timing = TimingParams::fast_test();
        let mechanism = kind.build(&geometry, &timing, nrh, 1);
        let attribution = mechanism.attribution();
        let channel = DramChannel::with_rowhammer(geometry, timing, nrh);
        let mut bh_cfg = BreakHammerConfig::fast_test(4, 16);
        bh_cfg.window_cycles = 200_000;
        let bh = BreakHammer::new(bh_cfg, attribution);
        (MemoryController::new(small_config(), channel, mechanism), bh)
    }

    /// Physical address of (bank 0, `row`, `column`) under the default MOP
    /// mapping of the tiny geometry.
    fn addr_of(ctrl: &MemoryController, row: usize, column: usize) -> PhysAddr {
        let loc = DramLocation {
            channel: 0,
            bank: bh_dram::BankAddr { rank: 0, bank_group: 0, bank: 0 },
            row,
            column,
        };
        AddressMapping::paper_default().encode(&loc, ctrl.channel().geometry())
    }

    fn run_until_responses(
        ctrl: &mut MemoryController,
        start: Cycle,
        expected: usize,
        max_cycles: u64,
    ) -> (Vec<MemResponse>, Cycle) {
        let mut responses = Vec::new();
        let mut cycle = start;
        while responses.len() < expected && cycle < start + max_cycles {
            ctrl.tick(cycle, None);
            responses.extend(ctrl.drain_responses());
            cycle += 1;
        }
        (responses, cycle)
    }

    #[test]
    fn single_read_completes_with_reasonable_latency() {
        let mut ctrl = controller(MechanismKind::None, 1024);
        let addr = addr_of(&ctrl, 5, 0);
        ctrl.try_enqueue(MemRequest::read(1, ThreadId(0), addr, 0)).unwrap();
        let (responses, _) = run_until_responses(&mut ctrl, 0, 1, 10_000);
        assert_eq!(responses.len(), 1);
        let t = ctrl.channel().timing().clone();
        let min = t.t_rcd + t.read_latency();
        assert!(responses[0].latency >= min, "latency {} < {min}", responses[0].latency);
        assert_eq!(ctrl.stats().reads_served, 1);
        assert_eq!(ctrl.stats().row_misses, 1);
        assert_eq!(ctrl.stats().demand_activations, 1);
    }

    #[test]
    fn row_hits_are_faster_than_conflicts() {
        let mut ctrl = controller(MechanismKind::None, 1024);
        // Read 1 opens row 5 (a row miss).
        ctrl.try_enqueue(MemRequest::read(1, ThreadId(0), addr_of(&ctrl, 5, 0), 0)).unwrap();
        let (_, end) = run_until_responses(&mut ctrl, 0, 1, 10_000);

        // Read 2 to another column of row 5: a row hit.
        ctrl.try_enqueue(MemRequest::read(2, ThreadId(0), addr_of(&ctrl, 5, 1), end)).unwrap();
        let (hit, end) = run_until_responses(&mut ctrl, end, 1, 10_000);
        assert_eq!(ctrl.stats().row_hits, 1);

        // Read 3 to a different row of the same bank: a row conflict.
        ctrl.try_enqueue(MemRequest::read(3, ThreadId(0), addr_of(&ctrl, 9, 0), end)).unwrap();
        let (conflict, _) = run_until_responses(&mut ctrl, end, 1, 10_000);
        assert_eq!(ctrl.stats().row_conflicts, 1);

        let hit_latency = hit[0].latency;
        let conflict_latency = conflict[0].latency;
        assert!(
            conflict_latency > hit_latency,
            "conflict {conflict_latency} should exceed hit {hit_latency}"
        );
    }

    #[test]
    fn queue_capacity_is_enforced() {
        let mut ctrl = controller(MechanismKind::None, 1024);
        for i in 0..16u64 {
            ctrl.try_enqueue(MemRequest::read(i, ThreadId(0), PhysAddr(i * 64), 0)).unwrap();
        }
        assert!(!ctrl.can_accept(AccessKind::Read));
        let rejected = ctrl.try_enqueue(MemRequest::read(99, ThreadId(0), PhysAddr(0), 0));
        assert!(rejected.is_err());
        assert_eq!(ctrl.stats().enqueue_rejections, 1);
        assert!(ctrl.can_accept(AccessKind::Write));
    }

    #[test]
    fn periodic_refresh_is_issued() {
        let mut ctrl = controller(MechanismKind::None, 1024);
        let t_refi = ctrl.channel().timing().t_refi;
        for cycle in 0..(t_refi * 4) {
            ctrl.tick(cycle, None);
        }
        // Both ranks refresh roughly every tREFI.
        assert!(ctrl.stats().periodic_refreshes >= 4, "{}", ctrl.stats().periodic_refreshes);
    }

    #[test]
    fn writes_are_drained_and_complete() {
        let mut ctrl = controller(MechanismKind::None, 1024);
        for i in 0..14u64 {
            ctrl.try_enqueue(MemRequest::write(i, ThreadId(0), PhysAddr(i * 4096), 0)).unwrap();
        }
        let (responses, _) = run_until_responses(&mut ctrl, 0, 14, 100_000);
        assert_eq!(responses.len(), 14);
        assert_eq!(ctrl.stats().writes_served, 14);
    }

    /// Drives a classic double-sided hammering pattern (alternating reads to
    /// rows 50 and 52 of bank 0) for `rounds` iterations and returns the
    /// controller together with the cycle at which the run finished.
    fn double_sided_hammer(
        kind: MechanismKind,
        nrh: u64,
        rounds: u64,
    ) -> (MemoryController, Cycle) {
        let mut ctrl = controller(kind, nrh);
        let mut cycle = 0u64;
        let mut id = 0u64;
        for round in 0..rounds {
            for row in [50usize, 52] {
                let addr = addr_of(&ctrl, row, (round % 4) as usize);
                let req = MemRequest::read(id, ThreadId(0), addr, cycle);
                id += 1;
                // Retry enqueue until accepted.
                let mut r = ctrl.try_enqueue(req);
                while r.is_err() {
                    ctrl.tick(cycle, None);
                    cycle += 1;
                    let _ = ctrl.drain_responses();
                    r = ctrl.try_enqueue(req);
                }
            }
            for _ in 0..8 {
                ctrl.tick(cycle, None);
                cycle += 1;
            }
            let _ = ctrl.drain_responses();
        }
        // Drain everything left.
        while ctrl.queued_requests() > 0 || ctrl.pending_preventive_commands() > 0 {
            ctrl.tick(cycle, None);
            cycle += 1;
            let _ = ctrl.drain_responses();
            if cycle > 10_000_000 {
                panic!("hammer run did not drain");
            }
        }
        (ctrl, cycle)
    }

    #[test]
    fn graphene_hammering_causes_victim_refreshes_and_prevents_bitflips() {
        let nrh = 128;
        let (ctrl, _) = double_sided_hammer(MechanismKind::Graphene, nrh, 600);
        assert!(ctrl.stats().preventive_refresh_actions > 0, "Graphene must have triggered");
        assert!(ctrl.stats().victim_rows_refreshed > 0);
        // The security invariant: no row ever accumulated N_RH disturbance.
        let tracker = ctrl.channel().rowhammer().expect("tracker attached");
        assert_eq!(tracker.bitflip_count(), 0, "bitflips despite Graphene");
        assert!(tracker.max_disturbance() < nrh);
    }

    #[test]
    fn unprotected_hammering_does_cause_bitflips() {
        let (ctrl, _) = double_sided_hammer(MechanismKind::None, 128, 400);
        let tracker = ctrl.channel().rowhammer().expect("tracker attached");
        assert!(tracker.bitflip_count() > 0, "row 51 should have flipped without protection");
    }

    #[test]
    fn blockhammer_prevents_bitflips_by_slowing_the_hammering_pattern() {
        let nrh = 64;
        let (unprotected, baseline_cycles) = double_sided_hammer(MechanismKind::None, nrh, 300);
        assert!(unprotected.channel().rowhammer().unwrap().bitflip_count() > 0);

        let (protected, protected_cycles) =
            double_sided_hammer(MechanismKind::BlockHammer, nrh, 300);
        let tracker = protected.channel().rowhammer().unwrap();
        assert_eq!(tracker.bitflip_count(), 0, "BlockHammer must prevent bitflips");
        // BlockHammer prevents bitflips by delaying blacklisted rows, so the
        // same access pattern takes substantially longer to execute.
        assert!(
            protected_cycles > 2 * baseline_cycles,
            "BlockHammer run ({protected_cycles}) should be much slower than \
             the unprotected run ({baseline_cycles})"
        );
        // And it never issued extra DRAM commands to do so.
        assert_eq!(protected.stats().preventive_actions_total(), 0);
    }

    #[test]
    fn rfm_mechanism_issues_rfm_commands() {
        let mut ctrl = controller(MechanismKind::Rfm, 256);
        let mut cycle = 0u64;
        for i in 0..400u64 {
            // Row conflicts across many rows of the same bank force many
            // activations, which accumulate in the bank's RAA counter.
            let addr = addr_of(&ctrl, (i % 40) as usize, 0);
            let req = MemRequest::read(i, ThreadId(0), addr, cycle);
            let mut r = ctrl.try_enqueue(req);
            while r.is_err() {
                ctrl.tick(cycle, None);
                cycle += 1;
                let _ = ctrl.drain_responses();
                r = ctrl.try_enqueue(req);
            }
            for _ in 0..4 {
                ctrl.tick(cycle, None);
                cycle += 1;
            }
            let _ = ctrl.drain_responses();
        }
        for _ in 0..20_000 {
            ctrl.tick(cycle, None);
            cycle += 1;
        }
        assert!(ctrl.stats().rfm_actions > 0);
        assert!(ctrl.channel().stats().rfm_commands > 0);
    }

    /// PARA at `N_RH = 64` triggers a same-bank victim refresh on every
    /// activation (`p = 1`). A demand request must still complete (the
    /// forward-progress rule defers the refresh's precharge past the pending
    /// row-hit), and the deferral must be bounded: even under a sustained
    /// stream of row-hits to the open row, the queued preventive refreshes
    /// drain instead of being starved behind the head forever.
    #[test]
    fn preventive_work_neither_livelocks_demand_nor_starves_forever() {
        let mut ctrl = controller(MechanismKind::Para, 64);

        // One activation of row 50: PARA (p = 1) queues a neighbour refresh
        // in the same bank. The read must complete regardless.
        ctrl.try_enqueue(MemRequest::read(1, ThreadId(0), addr_of(&ctrl, 50, 0), 0)).unwrap();
        let (responses, mut cycle) = run_until_responses(&mut ctrl, 0, 1, 10_000);
        assert_eq!(responses.len(), 1, "the triggering read must not livelock");
        assert_eq!(ctrl.stats().demand_activations, 1, "no ACT/PRE churn");

        // Keep a row-hit pending at every single cycle while the refresh is
        // still queued; the bounded deferral must let the refresh drain
        // anyway (within the defer bound plus a couple of row cycles).
        let mut served = 0;
        for _ in 0..2_000 {
            if ctrl.pending_preventive_commands() == 0 {
                break;
            }
            // `cycle` is strictly increasing, so it doubles as a unique id.
            let _ = ctrl.try_enqueue(MemRequest::read(
                1_000 + cycle,
                ThreadId(0),
                addr_of(&ctrl, 50, served % 4),
                cycle,
            ));
            ctrl.tick(cycle, None);
            served += ctrl.drain_responses().len();
            cycle += 1;
        }
        assert_eq!(
            ctrl.pending_preventive_commands(),
            0,
            "queued preventive refreshes must not be starved by a sustained hit stream"
        );
        assert!(served > 0, "demand hits kept flowing while the refresh drained");
        assert_eq!(ctrl.stats().victim_rows_refreshed, 1);
    }

    #[test]
    fn breakhammer_throttles_the_hammering_thread() {
        let (mut ctrl, mut bh) = controller_with_bh(MechanismKind::Graphene, 64);
        let full_quota = bh.quota(ThreadId(0));
        let mut cycle = 0u64;
        let mut id = 0u64;
        // Thread 0 hammers; thread 1 does a light scan of distinct rows.
        for round in 0..1500u64 {
            let hammer_addr = addr_of(&ctrl, if round % 2 == 0 { 50 } else { 52 }, 0);
            let req = MemRequest::read(id, ThreadId(0), hammer_addr, cycle);
            id += 1;
            let mut r = ctrl.try_enqueue(req);
            while r.is_err() {
                ctrl.tick(cycle, Some(&mut bh));
                cycle += 1;
                let _ = ctrl.drain_responses();
                r = ctrl.try_enqueue(req);
            }
            if round % 10 == 0 {
                let benign = MemRequest::read(
                    id,
                    ThreadId(1),
                    addr_of(&ctrl, (round % 30) as usize, 1),
                    cycle,
                );
                id += 1;
                let _ = ctrl.try_enqueue(benign);
            }
            for _ in 0..6 {
                ctrl.tick(cycle, Some(&mut bh));
                cycle += 1;
            }
            let _ = ctrl.drain_responses();
        }
        assert!(bh.is_suspect(ThreadId(0)), "the hammering thread must be a suspect");
        assert!(bh.quota(ThreadId(0)) < full_quota);
        assert_eq!(bh.quota(ThreadId(1)), full_quota);
        assert!(bh.score(ThreadId(0)) > bh.score(ThreadId(1)));
    }

    #[test]
    fn aqua_migrations_are_expensive_but_execute() {
        let mut ctrl = controller(MechanismKind::Aqua, 64);
        let mut cycle = 0u64;
        for round in 0..200u64 {
            let row = if round % 2 == 0 { 50 } else { 52 };
            let req = MemRequest::read(round, ThreadId(0), addr_of(&ctrl, row, 0), cycle);
            let mut r = ctrl.try_enqueue(req);
            while r.is_err() {
                ctrl.tick(cycle, None);
                cycle += 1;
                let _ = ctrl.drain_responses();
                r = ctrl.try_enqueue(req);
            }
            for _ in 0..6 {
                ctrl.tick(cycle, None);
                cycle += 1;
            }
            let _ = ctrl.drain_responses();
        }
        for _ in 0..100_000 {
            ctrl.tick(cycle, None);
            cycle += 1;
        }
        assert!(ctrl.stats().migrations > 0);
        // Each migration transfers the whole row: reads and writes well beyond
        // the demand traffic alone.
        let expected_extra =
            ctrl.stats().migrations * ctrl.channel().geometry().columns_per_row as u64;
        assert!(ctrl.channel().stats().writes >= expected_extra);
        assert_eq!(ctrl.pending_preventive_commands(), 0, "preventive queue must drain");
    }

    #[test]
    fn hydra_table_accesses_generate_dram_traffic() {
        let mut ctrl = controller(MechanismKind::Hydra, 64);
        let mut cycle = 0u64;
        for round in 0..400u64 {
            let row = 50 + (round % 2) as usize * 2;
            let req = MemRequest::read(round, ThreadId(0), addr_of(&ctrl, row, 0), cycle);
            let mut r = ctrl.try_enqueue(req);
            while r.is_err() {
                ctrl.tick(cycle, None);
                cycle += 1;
                let _ = ctrl.drain_responses();
                r = ctrl.try_enqueue(req);
            }
            for _ in 0..6 {
                ctrl.tick(cycle, None);
                cycle += 1;
            }
            let _ = ctrl.drain_responses();
        }
        for _ in 0..20_000 {
            ctrl.tick(cycle, None);
            cycle += 1;
        }
        assert!(ctrl.stats().table_accesses > 0);
        assert!(ctrl.stats().preventive_actions_total() > 0);
    }

    #[test]
    fn latency_histogram_is_tracked_per_thread() {
        let mut ctrl = controller(MechanismKind::None, 1024);
        ctrl.try_enqueue(MemRequest::read(0, ThreadId(2), addr_of(&ctrl, 3, 0), 0)).unwrap();
        let _ = run_until_responses(&mut ctrl, 0, 1, 10_000);
        assert_eq!(ctrl.latency_of(ThreadId(2)).count(), 1);
        assert_eq!(ctrl.latency_of(ThreadId(0)).count(), 0);
    }
}
