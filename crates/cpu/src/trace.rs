//! Instruction-trace format for the trace-driven core model.
//!
//! A trace is a sequence of records, each describing a burst of non-memory
//! instructions ("bubbles") followed by one memory access — the same shape as
//! the memory traces the paper's artifact feeds to Ramulator. Traces replay
//! cyclically until the core reaches its instruction budget, so a compact
//! synthetic trace can drive an arbitrarily long simulation.

use bh_dram::PhysAddr;
use std::sync::Arc;

/// One trace record: `bubbles` non-memory instructions, then one access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEntry {
    /// Number of non-memory instructions preceding the access.
    pub bubbles: u32,
    /// Physical address of the memory access.
    pub addr: PhysAddr,
    /// True if the access is a store, false for a load.
    pub is_write: bool,
    /// True if the access bypasses the cache hierarchy (a `clflush`-style
    /// uncached access, the pattern RowHammer attackers use to guarantee that
    /// every access reaches DRAM).
    pub uncached: bool,
}

impl TraceEntry {
    /// Creates a load record.
    pub fn load(bubbles: u32, addr: PhysAddr) -> Self {
        TraceEntry { bubbles, addr, is_write: false, uncached: false }
    }

    /// Creates a store record.
    pub fn store(bubbles: u32, addr: PhysAddr) -> Self {
        TraceEntry { bubbles, addr, is_write: true, uncached: false }
    }

    /// Creates an uncached (cache-bypassing) load record, as used by
    /// RowHammer attack loops built around `clflush`.
    pub fn uncached_load(bubbles: u32, addr: PhysAddr) -> Self {
        TraceEntry { bubbles, addr, is_write: false, uncached: true }
    }

    /// Instructions represented by this record (bubbles plus the access).
    pub fn instructions(&self) -> u64 {
        self.bubbles as u64 + 1
    }
}

/// A cyclic instruction trace for one hardware thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    entries: Vec<TraceEntry>,
}

impl Trace {
    /// Creates a trace from its records.
    ///
    /// # Panics
    /// Panics if `entries` is empty (a core cannot run an empty trace).
    pub fn new(entries: Vec<TraceEntry>) -> Self {
        assert!(!entries.is_empty(), "a trace must contain at least one record");
        Trace { entries }
    }

    /// The trace records.
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Always false (construction rejects empty traces); provided for API
    /// completeness.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The record at `index` modulo the trace length (cyclic replay).
    pub fn entry(&self, index: usize) -> TraceEntry {
        self.entries[index % self.entries.len()]
    }

    /// Total instructions represented by one pass over the trace.
    pub fn instructions_per_pass(&self) -> u64 {
        self.entries.iter().map(TraceEntry::instructions).sum()
    }

    /// Memory accesses per kilo-instruction of this trace (its intrinsic
    /// memory intensity, before any cache filtering).
    pub fn accesses_per_kilo_instruction(&self) -> f64 {
        self.entries.len() as f64 * 1000.0 / self.instructions_per_pass() as f64
    }

    /// Compiles the trace into its shareable replay representation (see
    /// [`CompiledTrace`]). Compile once per (mix, seed, geometry); every
    /// subsequent share is a reference-count bump.
    pub fn compile(&self) -> CompiledTrace {
        CompiledTrace::from(self)
    }
}

/// A compiled instruction trace: the records of a [`Trace`] in one flat,
/// immutable, atomically reference-counted slice.
///
/// Compilation is the split between workload *generation* and workload
/// *replay*: a [`Trace`] is built once per (mix, seed, geometry)
/// and compiled once, and the resulting `CompiledTrace` is shared by every
/// simulated system that replays it — across the configurations of a
/// campaign matrix, across repeated runs of the same mix, and across worker
/// threads. Cloning is a reference-count bump; no per-run deep copy of the
/// record vector ever happens. The record layout is unchanged from `Trace`
/// — compilation freezes, it does not re-encode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledTrace {
    entries: Arc<[TraceEntry]>,
}

impl From<&Trace> for CompiledTrace {
    fn from(trace: &Trace) -> Self {
        CompiledTrace { entries: trace.entries().into() }
    }
}

impl CompiledTrace {
    /// Compiles raw records directly (without an intermediate [`Trace`]).
    ///
    /// # Panics
    /// Panics if `entries` is empty (a core cannot replay an empty trace).
    pub fn new(entries: Vec<TraceEntry>) -> Self {
        assert!(!entries.is_empty(), "a trace must contain at least one record");
        CompiledTrace { entries: entries.into() }
    }

    /// The trace records.
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Always false (construction rejects empty traces); provided for API
    /// completeness.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The record at `index` modulo the trace length (cyclic replay, same
    /// contract as [`Trace::entry`]).
    #[inline]
    pub fn entry(&self, index: usize) -> TraceEntry {
        self.entries[index % self.entries.len()]
    }

    /// True if `other` shares this trace's storage (compiled once, shared
    /// everywhere — the property the campaign-level trace cache relies on).
    pub fn shares_storage_with(&self, other: &CompiledTrace) -> bool {
        Arc::ptr_eq(&self.entries, &other.entries)
    }

    /// Reconstructs an owned [`Trace`] (for mutation).
    pub fn to_trace(&self) -> Trace {
        Trace::new(self.entries.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        Trace::new(vec![
            TraceEntry::load(3, PhysAddr(0x1000)),
            TraceEntry::store(0, PhysAddr(0x2000)),
            TraceEntry::uncached_load(10, PhysAddr(0x3000)),
        ])
    }

    #[test]
    fn instruction_accounting() {
        let t = sample();
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
        assert_eq!(t.instructions_per_pass(), 4 + 1 + 11);
        let apki = t.accesses_per_kilo_instruction();
        assert!((apki - 3.0 * 1000.0 / 16.0).abs() < 1e-9);
    }

    #[test]
    fn cyclic_indexing_wraps() {
        let t = sample();
        assert_eq!(t.entry(0), t.entry(3));
        assert_eq!(t.entry(2), t.entry(5));
    }

    #[test]
    #[should_panic(expected = "at least one record")]
    fn empty_trace_rejected() {
        let _ = Trace::new(vec![]);
    }

    #[test]
    fn compiled_trace_preserves_records_and_shares_storage() {
        let t = sample();
        let compiled = t.compile();
        assert_eq!(compiled.len(), t.len());
        assert!(!compiled.is_empty());
        assert_eq!(compiled.entries(), t.entries());
        for i in 0..7 {
            assert_eq!(compiled.entry(i), t.entry(i), "cyclic indexing must match at {i}");
        }
        let shared = compiled.clone();
        assert!(shared.shares_storage_with(&compiled), "clone must be a refcount bump");
        assert_eq!(shared, compiled);
        // A recompile of the same trace is equal but not shared.
        let recompiled = t.compile();
        assert_eq!(recompiled, compiled);
        assert!(!recompiled.shares_storage_with(&compiled));
        assert_eq!(compiled.to_trace(), t);
    }

    #[test]
    #[should_panic(expected = "at least one record")]
    fn empty_compiled_trace_rejected() {
        let _ = CompiledTrace::new(vec![]);
    }
}
