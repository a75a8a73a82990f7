//! The shared last-level cache (LLC) with miss-status holding registers
//! (MSHRs) and per-thread MSHR quotas.
//!
//! The LLC is BreakHammer's throttling actuator: before allocating a miss
//! buffer for a thread the cache checks the thread's dynamic request quota
//! (§4.3 of the paper). A thread over its quota can still *hit* in the cache
//! and still *merge* into an MSHR that is already tracking its line — exactly
//! the behaviour the paper describes ("a suspect can access the data that
//! already exists in or is being brought to caches") — but it cannot allocate
//! new miss buffers, which limits its dynamic memory request count.

use bh_dram::{Cycle, FlatMap, PhysAddr, ThreadId};

/// Identifier of an outstanding miss (one per allocated MSHR).
pub type MissToken = u64;

/// Number of low token bits that encode the MSHR slot index, making
/// completion checks O(1); the remaining bits are an allocation serial that
/// distinguishes successive occupants of the same slot.
const TOKEN_SLOT_BITS: u32 = 8;

/// LLC configuration (Table 1: 8 MiB, 8-way, 64-byte lines).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: usize,
    /// Associativity.
    pub ways: usize,
    /// Cache-line size in bytes.
    pub line_bytes: usize,
    /// Access (hit) latency in core cycles.
    pub hit_latency: u64,
    /// Total number of MSHRs (cache-miss buffers).
    pub mshrs: usize,
}

impl CacheConfig {
    /// The paper's LLC configuration (Table 1) with 64 MSHRs.
    pub fn paper_table1() -> Self {
        CacheConfig {
            capacity_bytes: 8 * 1024 * 1024,
            ways: 8,
            line_bytes: 64,
            hit_latency: 30,
            mshrs: 64,
        }
    }

    /// A small configuration for unit tests (4 KiB, 2-way, 4 MSHRs).
    pub fn tiny_test() -> Self {
        CacheConfig { capacity_bytes: 4096, ways: 2, line_bytes: 64, hit_latency: 2, mshrs: 4 }
    }

    /// Number of sets implied by the configuration.
    pub fn sets(&self) -> usize {
        self.capacity_bytes / (self.ways * self.line_bytes)
    }

    /// Validates internal consistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.line_bytes == 0 || !self.line_bytes.is_power_of_two() {
            return Err("line size must be a non-zero power of two".to_string());
        }
        if self.ways == 0 {
            return Err("associativity must be at least 1".to_string());
        }
        if !self.capacity_bytes.is_multiple_of(self.ways * self.line_bytes) {
            return Err("capacity must be a multiple of ways * line size".to_string());
        }
        if self.sets() == 0 || !self.sets().is_power_of_two() {
            return Err("the number of sets must be a non-zero power of two".to_string());
        }
        if self.mshrs == 0 {
            return Err("the cache needs at least one MSHR".to_string());
        }
        if self.mshrs > 1 << TOKEN_SLOT_BITS {
            return Err(format!(
                "at most {} MSHRs are supported (miss tokens encode their slot in {} bits)",
                1usize << TOKEN_SLOT_BITS,
                TOKEN_SLOT_BITS
            ));
        }
        Ok(())
    }
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig::paper_table1()
    }
}

/// Result of an LLC access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The line is present; data is available at `ready_at` (core cycles).
    Hit {
        /// Core cycle at which the hit data is available.
        ready_at: Cycle,
    },
    /// The line is being fetched: the access was merged into or allocated an
    /// MSHR identified by `token`.
    Miss {
        /// Token identifying the outstanding miss.
        token: MissToken,
        /// True if a new MSHR was allocated (false if merged into an existing
        /// one).
        allocated: bool,
    },
    /// The access could not be handled this cycle and must be retried.
    Rejected {
        /// Why the access was rejected.
        reason: RejectReason,
    },
}

/// Why an LLC access was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// All MSHRs are in use.
    MshrsFull,
    /// The requesting thread has reached its BreakHammer-imposed MSHR quota.
    QuotaExceeded,
}

/// A demand request the LLC wants to send to the memory controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutgoingRequest {
    /// Token of the MSHR this fill belongs to (`None` for writebacks).
    pub token: Option<MissToken>,
    /// Requesting thread (the MSHR allocator for fills; the evicting thread
    /// for writebacks).
    pub thread: ThreadId,
    /// Line-aligned physical address.
    pub addr: PhysAddr,
    /// True for a writeback, false for a fill (read).
    pub is_writeback: bool,
}

/// LLC statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand accesses that hit.
    pub hits: u64,
    /// Demand accesses that missed and allocated an MSHR.
    pub misses: u64,
    /// Demand accesses merged into an existing MSHR.
    pub mshr_merges: u64,
    /// Accesses rejected because every MSHR was busy.
    pub mshr_full_rejections: u64,
    /// Accesses rejected by the per-thread quota (BreakHammer throttling).
    pub quota_rejections: u64,
    /// Dirty lines written back to memory.
    pub writebacks: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    last_use: u64,
    owner: ThreadId,
}

#[derive(Debug, Clone)]
struct Mshr {
    /// Token of the miss currently occupying this slot (0 = slot free).
    token: MissToken,
    line_addr: u64,
    thread: ThreadId,
    /// Whether the fetched line is installed in the cache on completion
    /// (false for uncached / cache-bypassing accesses).
    install: bool,
}

/// The shared last-level cache.
#[derive(Debug, Clone)]
pub struct LastLevelCache {
    config: CacheConfig,
    /// All cache lines in one flat array, set-major (`set * ways + way`):
    /// a set's ways are contiguous, so the per-access tag walk touches one
    /// or two cache lines instead of chasing a per-set heap pointer.
    lines: Vec<Line>,
    /// MSHR slots, one per miss buffer. A slot with `token == 0` is free.
    /// Tokens encode their slot in the low [`TOKEN_SLOT_BITS`] bits, so
    /// completion checks are a single slot comparison.
    slots: Vec<Mshr>,
    /// The live token of each slot (0 = free), kept separately from the slot
    /// payloads: stalled cores poll [`LastLevelCache::is_completed`] every
    /// cycle, and the compact array keeps that poll inside one or two hot
    /// cache lines.
    slot_tokens: Vec<MissToken>,
    /// Bitset of free slots (bit set = free); the allocator picks the lowest
    /// set bit, so slot assignment matches the linear scan it replaced.
    free_slots: [u64; (1 << TOKEN_SLOT_BITS) / 64],
    /// Active miss line addresses -> slot index, for O(1) merge lookups on
    /// the per-access miss path (the slot scan it replaces is small but runs
    /// on every LLC miss and every reject probe).
    line_to_slot: FlatMap<u32>,
    /// Number of occupied MSHR slots.
    occupied: usize,
    /// Allocation serial for the next token's high bits.
    next_serial: MissToken,
    per_thread_mshrs: Vec<usize>,
    quotas: Vec<usize>,
    outgoing: Vec<OutgoingRequest>,
    use_counter: u64,
    /// Bumped on every fill completion (slot release). Invalidation stamp
    /// for memoized `MshrsFull` rejections: while the pool is full no MSHR
    /// can be allocated, so only a completion can change any stage of the
    /// access walk (hit-install, merge, pool, quota) for the stalled access.
    completes_version: u64,
    /// Bumped when an allocation fills the last MSHR. A thread stalled on
    /// its *quota* would start being rejected for the pool instead (the pool
    /// check precedes the quota check), so its memo must be revisited.
    pool_full_version: u64,
    /// Per-thread event stamp: bumped when one of the thread's misses
    /// completes (its in-flight count dropped) or its quota changes — the
    /// thread-local reasons a memoized `QuotaExceeded` rejection can stop
    /// holding. The remaining reason (the line gaining an active miss to
    /// merge into, which on completion could also turn the access into a
    /// hit) is checked directly against `line_to_slot`.
    per_thread_events: Vec<u64>,
    /// `log2(line_bytes)`, cached for the per-access address split.
    line_shift: u32,
    /// `sets() - 1`, cached for the per-access set index mask.
    set_mask: u64,
    /// `log2(sets())`, cached for the per-access tag extraction.
    set_bits: u32,
    stats: CacheStats,
}

impl LastLevelCache {
    /// Creates the LLC for `num_threads` hardware threads; every thread starts
    /// with a quota equal to the full MSHR count.
    ///
    /// # Panics
    /// Panics if the configuration is invalid or `num_threads` is zero.
    pub fn new(config: CacheConfig, num_threads: usize) -> Self {
        config.validate().expect("invalid cache configuration");
        assert!(num_threads > 0, "need at least one hardware thread");
        let lines =
            vec![
                Line { tag: 0, valid: false, dirty: false, last_use: 0, owner: ThreadId(0) };
                config.sets() * config.ways
            ];
        let mshrs = config.mshrs;
        let line_shift = config.line_bytes.trailing_zeros();
        let set_mask = config.sets() as u64 - 1;
        let set_bits = config.sets().trailing_zeros();
        let mut free_slots = [0u64; (1 << TOKEN_SLOT_BITS) / 64];
        for slot in 0..mshrs {
            free_slots[slot / 64] |= 1 << (slot % 64);
        }
        LastLevelCache {
            config,
            lines,
            slots: vec![
                Mshr { token: 0, line_addr: 0, thread: ThreadId(0), install: false };
                mshrs
            ],
            slot_tokens: vec![0; mshrs],
            free_slots,
            line_to_slot: FlatMap::with_capacity(mshrs),
            occupied: 0,
            next_serial: 1,
            per_thread_mshrs: vec![0; num_threads],
            quotas: vec![mshrs; num_threads],
            outgoing: Vec::new(),
            use_counter: 0,
            completes_version: 0,
            pool_full_version: 0,
            per_thread_events: vec![0; num_threads],
            line_shift,
            set_mask,
            set_bits,
            stats: CacheStats::default(),
        }
    }

    /// The cache configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Cache statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Sets the MSHR quota of `thread` (BreakHammer's throttling knob).
    pub fn set_quota(&mut self, thread: ThreadId, quota: usize) {
        let quota = quota.min(self.config.mshrs);
        if self.quotas[thread.index()] != quota {
            self.quotas[thread.index()] = quota;
            self.per_thread_events[thread.index()] += 1;
        }
    }

    /// The current MSHR quota of `thread`.
    pub fn quota(&self, thread: ThreadId) -> usize {
        self.quotas[thread.index()]
    }

    /// Number of MSHRs currently allocated by `thread`.
    pub fn mshrs_in_use(&self, thread: ThreadId) -> usize {
        self.per_thread_mshrs[thread.index()]
    }

    /// Stamp to store alongside a memoized rejection of reason `reason` for
    /// `thread`; see [`LastLevelCache::reject_memo_valid`].
    pub fn reject_stamp(&self, thread: ThreadId, reason: RejectReason) -> u64 {
        match reason {
            RejectReason::MshrsFull => self.completes_version,
            // Both counters are monotone, so their sum is unchanged iff both
            // are.
            RejectReason::QuotaExceeded => {
                self.per_thread_events[thread.index()].wrapping_add(self.pool_full_version)
            }
        }
    }

    /// True if an access by `thread` to `addr`, previously rejected with
    /// `reason` when [`LastLevelCache::reject_stamp`] read `stamp`, is
    /// guaranteed to be rejected with the same reason now. Replaces a global
    /// change counter: unrelated MSHR traffic (other threads' allocations
    /// and, for quota rejections, other threads' completions) no longer
    /// forces a stalled core to re-walk the cache every time.
    ///
    /// The stamp's invalidation conditions are exhaustive only across one
    /// *continuous* rejection episode: the caller must drop the memo as soon
    /// as a retry of the access succeeds (the core does so on every
    /// non-rejected dispatch), or a stale memo could re-validate after the
    /// line has been installed by another thread's fill.
    pub fn reject_memo_valid(
        &self,
        thread: ThreadId,
        addr: PhysAddr,
        reason: RejectReason,
        stamp: u64,
    ) -> bool {
        self.reject_stamp(thread, reason) == stamp
            && (reason == RejectReason::MshrsFull
                || !self.line_to_slot.contains_key(self.line_addr(addr)))
    }

    /// True if the miss identified by `token` has completed (its MSHR has been
    /// released). O(1): the token's low bits name its slot.
    pub fn is_completed(&self, token: MissToken) -> bool {
        self.slot_tokens[(token & ((1 << TOKEN_SLOT_BITS) - 1)) as usize] != token
    }

    /// True if at least one fill/writeback request is waiting to be taken
    /// (the cheap per-step probe that lets the simulation loop skip the
    /// drain entirely on quiet steps).
    pub fn has_outgoing(&self) -> bool {
        !self.outgoing.is_empty()
    }

    /// Removes and returns the fill/writeback requests generated since the
    /// last call; the caller forwards them to the memory controller.
    pub fn take_outgoing(&mut self) -> Vec<OutgoingRequest> {
        std::mem::take(&mut self.outgoing)
    }

    /// Moves the pending fill/writeback requests into `buf` (cleared first),
    /// recycling `buf`'s allocation as the next outgoing buffer — the
    /// allocation-free variant of [`LastLevelCache::take_outgoing`] for
    /// callers that drain every cycle.
    pub fn take_outgoing_into(&mut self, buf: &mut Vec<OutgoingRequest>) {
        buf.clear();
        std::mem::swap(&mut self.outgoing, buf);
    }

    fn line_addr(&self, addr: PhysAddr) -> u64 {
        addr.0 >> self.line_shift
    }

    fn set_index(&self, line_addr: u64) -> usize {
        (line_addr & self.set_mask) as usize
    }

    fn tag(&self, line_addr: u64) -> u64 {
        line_addr >> self.set_bits
    }

    /// Performs a demand access on behalf of `thread`.
    pub fn access(
        &mut self,
        thread: ThreadId,
        addr: PhysAddr,
        is_write: bool,
        cycle: Cycle,
    ) -> AccessOutcome {
        self.use_counter += 1;
        let line_addr = self.line_addr(addr);
        let set_idx = self.set_index(line_addr);
        let tag = self.tag(line_addr);
        let use_counter = self.use_counter;

        // Hit path: the set's ways are contiguous in the flat line array.
        let ways = self.config.ways;
        let set = &mut self.lines[set_idx * ways..set_idx * ways + ways];
        if let Some(line) = set.iter_mut().find(|l| l.valid && l.tag == tag) {
            line.last_use = use_counter;
            if is_write {
                line.dirty = true;
            }
            self.stats.hits += 1;
            return AccessOutcome::Hit { ready_at: cycle + self.config.hit_latency };
        }
        self.miss_path(thread, line_addr, true)
    }

    /// Performs a cache-bypassing (uncached / `clflush`-style) access: the
    /// request always goes to memory and the returned data is not installed
    /// in the cache. MSHR allocation — and therefore BreakHammer's per-thread
    /// quota — still applies, which is exactly how BreakHammer throttles an
    /// attacker built around uncached accesses.
    pub fn access_bypass(
        &mut self,
        thread: ThreadId,
        addr: PhysAddr,
        _is_write: bool,
        _cycle: Cycle,
    ) -> AccessOutcome {
        self.use_counter += 1;
        let line_addr = self.line_addr(addr);
        self.miss_path(thread, line_addr, false)
    }

    /// Read-only check of whether an [`LastLevelCache::access`] (or, with
    /// `uncached`, an [`LastLevelCache::access_bypass`]) for `thread` at
    /// `addr` would currently be rejected, mirroring the decision order of
    /// the real access path (hit, MSHR merge, pool, per-thread quota).
    ///
    /// Returns `Some(reason)` iff the access would be rejected; `None` means
    /// it would hit, merge, or allocate. The event-driven simulation kernel
    /// uses this to classify a dispatch-stalled core without perturbing the
    /// cache state.
    pub fn probe_reject(
        &self,
        thread: ThreadId,
        addr: PhysAddr,
        uncached: bool,
    ) -> Option<RejectReason> {
        let line_addr = self.line_addr(addr);
        if !uncached {
            let set_idx = self.set_index(line_addr);
            let tag = self.tag(line_addr);
            let ways = self.config.ways;
            let set = &self.lines[set_idx * ways..set_idx * ways + ways];
            if set.iter().any(|l| l.valid && l.tag == tag) {
                return None;
            }
        }
        if self.line_to_slot.contains_key(line_addr) {
            return None;
        }
        if self.occupied >= self.config.mshrs {
            return Some(RejectReason::MshrsFull);
        }
        if self.per_thread_mshrs[thread.index()] >= self.quotas[thread.index()] {
            return Some(RejectReason::QuotaExceeded);
        }
        None
    }

    /// Replays the counter side effects of `n` rejected access retries
    /// without walking the access path (one retry per stalled core cycle).
    ///
    /// A dispatch-stalled core re-issues its rejected access every cycle;
    /// each attempt bumps the use counter and the rejection statistic. The
    /// event-driven kernel skips those dead cycles and accounts for them here
    /// so its statistics stay bit-identical to the per-cycle kernel's.
    pub fn absorb_rejected_probes(&mut self, n: u64, reason: RejectReason) {
        self.use_counter += n;
        match reason {
            RejectReason::MshrsFull => self.stats.mshr_full_rejections += n,
            RejectReason::QuotaExceeded => self.stats.quota_rejections += n,
        }
    }

    /// Shared miss handling: merge, pool/quota checks, MSHR allocation.
    fn miss_path(&mut self, thread: ThreadId, line_addr: u64, install: bool) -> AccessOutcome {
        // Merge into an outstanding miss for the same line, if any (lines are
        // unique across MSHRs, so at most one slot can match).
        if let Some(slot) = self.line_to_slot.get(line_addr) {
            self.stats.mshr_merges += 1;
            return AccessOutcome::Miss {
                token: self.slots[slot as usize].token,
                allocated: false,
            };
        }

        // Need a new MSHR: enforce the global pool and the per-thread quota.
        if self.occupied >= self.config.mshrs {
            self.stats.mshr_full_rejections += 1;
            return AccessOutcome::Rejected { reason: RejectReason::MshrsFull };
        }
        if self.per_thread_mshrs[thread.index()] >= self.quotas[thread.index()] {
            self.stats.quota_rejections += 1;
            return AccessOutcome::Rejected { reason: RejectReason::QuotaExceeded };
        }

        let slot = self
            .free_slots
            .iter()
            .enumerate()
            .find(|(_, word)| **word != 0)
            .map(|(i, word)| i * 64 + word.trailing_zeros() as usize)
            .expect("pool has a free slot");
        self.free_slots[slot / 64] &= !(1 << (slot % 64));
        self.line_to_slot.insert(line_addr, slot as u32);
        let token = (self.next_serial << TOKEN_SLOT_BITS) | slot as MissToken;
        self.next_serial += 1;
        self.slots[slot] = Mshr { token, line_addr, thread, install };
        self.slot_tokens[slot] = token;
        self.occupied += 1;
        if self.occupied >= self.config.mshrs {
            self.pool_full_version += 1;
        }
        self.per_thread_mshrs[thread.index()] += 1;
        self.stats.misses += 1;
        self.outgoing.push(OutgoingRequest {
            token: Some(token),
            thread,
            addr: PhysAddr(line_addr * self.config.line_bytes as u64),
            is_writeback: false,
        });
        AccessOutcome::Miss { token, allocated: true }
    }

    /// Completes the outstanding miss identified by `token`: the line is
    /// installed (possibly evicting a dirty victim, which generates a
    /// writeback) and the MSHR is released.
    ///
    /// Unknown or already-completed tokens are ignored (the memory controller
    /// may deliver duplicate completions after a merge).
    pub fn complete_miss(&mut self, token: MissToken) {
        let slot = (token & ((1 << TOKEN_SLOT_BITS) - 1)) as usize;
        if slot >= self.slots.len() || self.slot_tokens[slot] != token {
            return;
        }
        let mshr = self.slots[slot].clone();
        self.slots[slot].token = 0;
        self.slot_tokens[slot] = 0;
        self.free_slots[slot / 64] |= 1 << (slot % 64);
        self.line_to_slot.remove(mshr.line_addr);
        self.occupied -= 1;
        self.completes_version += 1;
        self.per_thread_events[mshr.thread.index()] += 1;
        let idx = mshr.thread.index();
        self.per_thread_mshrs[idx] = self.per_thread_mshrs[idx].saturating_sub(1);
        if !mshr.install {
            // Uncached access: nothing is installed in the cache.
            return;
        }

        let set_idx = self.set_index(mshr.line_addr);
        let tag = self.tag(mshr.line_addr);
        self.use_counter += 1;
        let use_counter = self.use_counter;
        let sets = self.config.sets() as u64;
        let line_bytes = self.config.line_bytes as u64;

        // Choose a victim: an invalid way if available, else the LRU way.
        let ways = self.config.ways;
        let set = &mut self.lines[set_idx * ways..set_idx * ways + ways];
        let victim_idx = set.iter().position(|l| !l.valid).unwrap_or_else(|| {
            set.iter()
                .enumerate()
                .min_by_key(|(_, l)| l.last_use)
                .map(|(i, _)| i)
                .expect("cache sets are never empty")
        });
        let victim = set[victim_idx];
        if victim.valid && victim.dirty {
            let victim_line_addr = victim.tag * sets + set_idx as u64;
            self.stats.writebacks += 1;
            self.outgoing.push(OutgoingRequest {
                token: None,
                thread: victim.owner,
                addr: PhysAddr(victim_line_addr * line_bytes),
                is_writeback: true,
            });
        }
        set[victim_idx] =
            Line { tag, valid: true, dirty: false, last_use: use_counter, owner: mshr.thread };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache() -> LastLevelCache {
        LastLevelCache::new(CacheConfig::tiny_test(), 2)
    }

    #[test]
    fn config_validation() {
        assert_eq!(CacheConfig::paper_table1().validate(), Ok(()));
        assert_eq!(CacheConfig::paper_table1().sets(), 16384);
        let mut bad = CacheConfig::tiny_test();
        bad.line_bytes = 48;
        assert!(bad.validate().is_err());
        let mut bad = CacheConfig::tiny_test();
        bad.ways = 0;
        assert!(bad.validate().is_err());
        let mut bad = CacheConfig::tiny_test();
        bad.mshrs = 0;
        assert!(bad.validate().is_err());
        let mut bad = CacheConfig::tiny_test();
        bad.mshrs = 512; // beyond the slot-encoded token ceiling
        assert!(bad.validate().is_err());
    }

    #[test]
    fn miss_then_hit_after_fill() {
        let mut c = cache();
        let addr = PhysAddr(0x1000);
        let outcome = c.access(ThreadId(0), addr, false, 0);
        let token = match outcome {
            AccessOutcome::Miss { token, allocated: true } => token,
            other => panic!("expected an allocated miss, got {other:?}"),
        };
        assert!(!c.is_completed(token));
        let outgoing = c.take_outgoing();
        assert_eq!(outgoing.len(), 1);
        assert_eq!(outgoing[0].token, Some(token));
        assert!(!outgoing[0].is_writeback);

        c.complete_miss(token);
        assert!(c.is_completed(token));
        match c.access(ThreadId(0), addr, false, 100) {
            AccessOutcome::Hit { ready_at } => assert_eq!(ready_at, 100 + 2),
            other => panic!("expected a hit, got {other:?}"),
        }
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn accesses_to_same_line_merge_into_one_mshr() {
        let mut c = cache();
        let a = c.access(ThreadId(0), PhysAddr(0x2000), false, 0);
        let b = c.access(ThreadId(1), PhysAddr(0x2008), false, 1);
        let t0 = match a {
            AccessOutcome::Miss { token, allocated: true } => token,
            other => panic!("{other:?}"),
        };
        match b {
            AccessOutcome::Miss { token, allocated: false } => assert_eq!(token, t0),
            other => panic!("expected a merge, got {other:?}"),
        }
        assert_eq!(c.stats().mshr_merges, 1);
        // Only one fill goes to memory.
        assert_eq!(c.take_outgoing().len(), 1);
    }

    #[test]
    fn mshr_pool_exhaustion_rejects() {
        let mut c = cache();
        for i in 0..4u64 {
            let r = c.access(ThreadId(0), PhysAddr(i * 0x10000), false, 0);
            assert!(matches!(r, AccessOutcome::Miss { allocated: true, .. }));
        }
        let r = c.access(ThreadId(0), PhysAddr(0x9_0000), false, 0);
        assert_eq!(r, AccessOutcome::Rejected { reason: RejectReason::MshrsFull });
        assert_eq!(c.stats().mshr_full_rejections, 1);
    }

    #[test]
    fn quota_limits_one_thread_without_affecting_the_other() {
        let mut c = cache();
        c.set_quota(ThreadId(0), 1);
        assert_eq!(c.quota(ThreadId(0)), 1);
        let first = c.access(ThreadId(0), PhysAddr(0x10000), false, 0);
        assert!(matches!(first, AccessOutcome::Miss { allocated: true, .. }));
        // Second distinct-line miss from the throttled thread is rejected.
        let second = c.access(ThreadId(0), PhysAddr(0x20000), false, 1);
        assert_eq!(second, AccessOutcome::Rejected { reason: RejectReason::QuotaExceeded });
        assert_eq!(c.stats().quota_rejections, 1);
        assert_eq!(c.mshrs_in_use(ThreadId(0)), 1);
        // The other thread is unaffected.
        let other = c.access(ThreadId(1), PhysAddr(0x30000), false, 2);
        assert!(matches!(other, AccessOutcome::Miss { allocated: true, .. }));
        // Hits and merges are still allowed for the throttled thread.
        let merge = c.access(ThreadId(0), PhysAddr(0x10008), false, 3);
        assert!(matches!(merge, AccessOutcome::Miss { allocated: false, .. }));
        // After the fill completes the quota slot is released.
        let tokens: Vec<MissToken> = c.take_outgoing().iter().filter_map(|o| o.token).collect();
        for t in tokens {
            c.complete_miss(t);
        }
        assert_eq!(c.mshrs_in_use(ThreadId(0)), 0);
        let retry = c.access(ThreadId(0), PhysAddr(0x20000), false, 10);
        assert!(matches!(retry, AccessOutcome::Miss { allocated: true, .. }));
    }

    #[test]
    fn dirty_eviction_generates_a_writeback() {
        let mut c = cache();
        let sets = c.config().sets() as u64; // 32 sets
        let line = c.config().line_bytes as u64;
        // Fill both ways of set 0 with dirty lines (stores), then force a
        // third fill into the same set.
        for i in 0..2u64 {
            let addr = PhysAddr(i * sets * line); // same set, different tags
            let tok = match c.access(ThreadId(0), addr, true, 0) {
                AccessOutcome::Miss { token, .. } => token,
                other => panic!("{other:?}"),
            };
            c.complete_miss(tok);
            // Touch it with a store so the line is dirty.
            match c.access(ThreadId(0), addr, true, 1) {
                AccessOutcome::Hit { .. } => {}
                other => panic!("{other:?}"),
            }
        }
        let _ = c.take_outgoing();
        let tok = match c.access(ThreadId(0), PhysAddr(2 * sets * line), false, 2) {
            AccessOutcome::Miss { token, .. } => token,
            other => panic!("{other:?}"),
        };
        c.complete_miss(tok);
        let outgoing = c.take_outgoing();
        assert!(outgoing.iter().any(|o| o.is_writeback), "no writeback generated");
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn lru_replacement_keeps_recently_used_lines() {
        let mut c = cache();
        let sets = c.config().sets() as u64;
        let line = c.config().line_bytes as u64;
        let a = PhysAddr(0);
        let b = PhysAddr(sets * line);
        let d = PhysAddr(2 * sets * line);
        for addr in [a, b] {
            let tok = match c.access(ThreadId(0), addr, false, 0) {
                AccessOutcome::Miss { token, .. } => token,
                other => panic!("{other:?}"),
            };
            c.complete_miss(tok);
        }
        // Touch `a` so `b` is the LRU victim.
        assert!(matches!(c.access(ThreadId(0), a, false, 5), AccessOutcome::Hit { .. }));
        let tok = match c.access(ThreadId(0), d, false, 6) {
            AccessOutcome::Miss { token, .. } => token,
            other => panic!("{other:?}"),
        };
        c.complete_miss(tok);
        // `a` must still hit; `b` was evicted.
        assert!(matches!(c.access(ThreadId(0), a, false, 7), AccessOutcome::Hit { .. }));
        assert!(matches!(c.access(ThreadId(0), b, false, 8), AccessOutcome::Miss { .. }));
    }

    #[test]
    fn duplicate_completions_are_ignored() {
        let mut c = cache();
        let tok = match c.access(ThreadId(0), PhysAddr(0x1000), false, 0) {
            AccessOutcome::Miss { token, .. } => token,
            other => panic!("{other:?}"),
        };
        c.complete_miss(tok);
        c.complete_miss(tok);
        assert_eq!(c.mshrs_in_use(ThreadId(0)), 0);
    }
}

#[cfg(test)]
mod bypass_tests {
    use super::*;

    #[test]
    fn bypass_accesses_never_hit_and_never_install() {
        let mut c = LastLevelCache::new(CacheConfig::tiny_test(), 1);
        let addr = PhysAddr(0x4000);
        let tok = match c.access_bypass(ThreadId(0), addr, false, 0) {
            AccessOutcome::Miss { token, allocated: true } => token,
            other => panic!("{other:?}"),
        };
        c.complete_miss(tok);
        // A second bypass access to the same address misses again (nothing was
        // installed), and even a normal access still misses.
        assert!(matches!(
            c.access_bypass(ThreadId(0), addr, false, 1),
            AccessOutcome::Miss { allocated: true, .. }
        ));
        let outstanding: Vec<MissToken> =
            c.take_outgoing().iter().filter_map(|o| o.token).collect();
        for t in outstanding {
            c.complete_miss(t);
        }
        assert!(matches!(c.access(ThreadId(0), addr, false, 2), AccessOutcome::Miss { .. }));
    }

    #[test]
    fn bypass_accesses_respect_the_quota() {
        let mut c = LastLevelCache::new(CacheConfig::tiny_test(), 1);
        c.set_quota(ThreadId(0), 1);
        assert!(matches!(
            c.access_bypass(ThreadId(0), PhysAddr(0x1000), false, 0),
            AccessOutcome::Miss { allocated: true, .. }
        ));
        assert_eq!(
            c.access_bypass(ThreadId(0), PhysAddr(0x9000), false, 1),
            AccessOutcome::Rejected { reason: RejectReason::QuotaExceeded }
        );
    }
}
