//! Regression tests for the LLC rejection-memo vs. BreakHammer quota
//! restores.
//!
//! A core stalled on an exhausted BreakHammer quota memoizes its rejected
//! access and replays the rejection every cycle without re-walking the cache,
//! as long as the LLC attests (via [`LastLevelCache::reject_memo_valid`])
//! that nothing relevant changed. When a window edge restores the thread's
//! quota, the propagation into the LLC bumps the thread's event stamp — and
//! the stalled core must re-dispatch on that same cycle, not one event
//! later. The kernel-differential quota-starvation matrix caught this
//! class of bug once already; these tests pin the memo-invalidation contract
//! directly, on the production `CoreEngine` whose stall analysis decides
//! which cycles the event-driven kernel skips.

use breakhammer_suite::cpu::{
    CacheConfig, CoreConfig, CoreEngine, CoreProgress, LastLevelCache, RejectReason, Trace,
    TraceEntry,
};
use breakhammer_suite::dram::{PhysAddr, ThreadId};

/// A load-only trace over distinct lines: with a zero quota the very first
/// dispatch is rejected with `QuotaExceeded` and the core spins on the memo.
fn load_trace() -> Trace {
    Trace::new((0..64).map(|i| TraceEntry::load(0, PhysAddr(i * 0x10000))).collect())
}

/// A one-core engine whose thread has a zero MSHR quota.
fn quota_starved() -> (CoreEngine, LastLevelCache) {
    let mut llc = LastLevelCache::new(CacheConfig::tiny_test(), 2);
    llc.set_quota(ThreadId(0), 0);
    let engine = CoreEngine::new(CoreConfig::paper_table1(), vec![load_trace().compile()], 1_000);
    (engine, llc)
}
/// The memo itself must stop validating the moment the quota changes — that
/// is the stamp the stalled core's fast path trusts.
#[test]
fn quota_change_invalidates_the_rejection_memo_stamp() {
    let (_, mut llc) = quota_starved();
    let addr = PhysAddr(0);
    let reason = RejectReason::QuotaExceeded;
    let stamp = llc.reject_stamp(ThreadId(0), reason);
    assert!(
        llc.reject_memo_valid(ThreadId(0), addr, reason, stamp),
        "while nothing changed, the memoized rejection must keep holding"
    );
    // The quota restore (what the system propagates right after a BreakHammer
    // window rotation) bumps the thread's event stamp.
    llc.set_quota(ThreadId(0), 4);
    assert!(
        !llc.reject_memo_valid(ThreadId(0), addr, reason, stamp),
        "a quota restore must invalidate the memoized QuotaExceeded rejection immediately"
    );
    // Setting the same quota again is not an event — the memo taken after the
    // restore stays valid (no spurious re-walks).
    let stamp = llc.reject_stamp(ThreadId(0), reason);
    llc.set_quota(ThreadId(0), 4);
    assert!(llc.reject_memo_valid(ThreadId(0), addr, reason, stamp));
}

/// End-to-end through the engine: a quota-stalled, memo-spinning core must be
/// re-dispatched by the very next tick after the quota restore reaches the
/// LLC — the progress classification (which the event-driven kernel uses to
/// decide whether the core can be skipped) must flip to `Active` on the same
/// cycle, not one event later.
#[test]
fn quota_stalled_core_redispatches_the_cycle_the_quota_returns() {
    let (mut engine, mut llc) = quota_starved();
    // Spin long enough that the rejection is memoized and replayed.
    engine.tick_epoch(0..10, &mut llc);
    assert_eq!(engine.stats(0).loads, 0, "no load can dispatch with a zero quota");
    assert!(llc.stats().quota_rejections >= 10, "every spin cycle must count a rejection");
    match engine.progress(0, &llc, 10) {
        CoreProgress::Stalled(stall) => {
            assert_eq!(stall.reject, Some(RejectReason::QuotaExceeded));
            assert_eq!(stall.wake_at, None, "only an external event can wake the core");
        }
        other => panic!("expected a quota stall, got {other:?}"),
    }
    // The kernel's batched horizon scan sees the same stall, so it may skip.
    let mut batch = Vec::new();
    assert!(!engine.progress_batch(&llc, 10, &mut batch), "a stalled core is skippable");
    assert_eq!(batch, vec![engine.progress(0, &llc, 10)]);

    // The window-edge restore: the system propagates the new quota into the
    // LLC. The very next progress query must report Active — if it still
    // reported Stalled, the event-driven kernel would skip the core past the
    // restore cycle and it would wake a whole event (up to a window) late.
    llc.set_quota(ThreadId(0), 4);
    assert_eq!(
        engine.progress(0, &llc, 10),
        CoreProgress::Active,
        "the stalled core must be re-dispatchable on the restore cycle itself"
    );
    assert!(
        engine.progress_batch(&llc, 10, &mut batch),
        "the horizon scan must pin the restore cycle as the next step"
    );
    engine.tick_epoch(10..11, &mut llc);
    assert!(
        engine.stats(0).loads > 0,
        "the first tick after the restore must dispatch the memoized access"
    );
}
