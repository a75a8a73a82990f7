//! Time-interleaved RowHammer-preventive score counters (Fig. 4 of the paper).
//!
//! BreakHammer keeps **two** sets of per-thread score counters. Both sets are
//! trained (incremented) on every preventive action, but only the *active* set
//! answers suspect-identification queries. At the end of each throttling
//! window the active set is reset and the other set — which has been training
//! for a full window already — becomes active. This gives continuous
//! monitoring without ever querying cold counters.

use bh_dram::ThreadId;

/// Two time-interleaved sets of per-thread score counters.
#[derive(Debug, Clone, PartialEq)]
pub struct InterleavedScores {
    sets: [Vec<f64>; 2],
    active: usize,
}

impl InterleavedScores {
    /// Creates counters for `num_threads` hardware threads, all zero.
    ///
    /// # Panics
    /// Panics if `num_threads` is zero.
    pub fn new(num_threads: usize) -> Self {
        assert!(num_threads > 0, "need at least one hardware thread");
        InterleavedScores { sets: [vec![0.0; num_threads], vec![0.0; num_threads]], active: 0 }
    }

    /// Number of tracked threads.
    pub fn num_threads(&self) -> usize {
        self.sets[0].len()
    }

    /// Adds `amount` to `thread`'s score in **both** sets (both sets train).
    ///
    /// # Panics
    /// Panics if `thread` is out of range.
    pub fn add(&mut self, thread: ThreadId, amount: f64) {
        let idx = thread.index();
        self.sets[0][idx] += amount;
        self.sets[1][idx] += amount;
    }

    /// The active-set score of `thread` (the value used for suspect
    /// identification).
    pub fn score(&self, thread: ThreadId) -> f64 {
        self.sets[self.active][thread.index()]
    }

    /// The active-set scores of all threads.
    pub fn active_scores(&self) -> &[f64] {
        &self.sets[self.active]
    }

    /// The training-only (inactive) set scores of all threads.
    pub fn inactive_scores(&self) -> &[f64] {
        &self.sets[1 - self.active]
    }

    /// Mean of the active-set scores.
    pub fn mean(&self) -> f64 {
        let s = &self.sets[self.active];
        s.iter().sum::<f64>() / s.len() as f64
    }

    /// Index of the currently active set (0 or 1), exposed for statistics.
    pub fn active_set_index(&self) -> usize {
        self.active
    }

    /// End-of-window rotation: resets the active set and makes the other set
    /// (already trained during the elapsed window) the new active set.
    pub fn rotate(&mut self) {
        for v in &mut self.sets[self.active] {
            *v = 0.0;
        }
        self.active = 1 - self.active;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_sets_train_but_only_active_answers() {
        let mut s = InterleavedScores::new(2);
        s.add(ThreadId(0), 3.0);
        s.add(ThreadId(1), 1.0);
        assert_eq!(s.score(ThreadId(0)), 3.0);
        assert_eq!(s.inactive_scores(), &[3.0, 1.0]);
        assert_eq!(s.mean(), 2.0);
    }

    #[test]
    fn rotation_keeps_trained_values_available() {
        let mut s = InterleavedScores::new(2);
        s.add(ThreadId(0), 4.0);
        let before_active = s.active_set_index();
        s.rotate();
        assert_ne!(s.active_set_index(), before_active);
        // The new active set retained the training from the previous window…
        assert_eq!(s.score(ThreadId(0)), 4.0);
        // …while the reset set starts from zero and keeps training.
        assert_eq!(s.inactive_scores(), &[0.0, 0.0]);
        s.add(ThreadId(0), 1.0);
        assert_eq!(s.score(ThreadId(0)), 5.0);
        s.rotate();
        // After the second rotation only the post-reset training remains.
        assert_eq!(s.score(ThreadId(0)), 1.0);
    }

    #[test]
    fn continuous_monitoring_across_windows() {
        // A thread that keeps misbehaving never sees its visible score drop to
        // zero at a window boundary (the property Fig. 4 illustrates).
        let mut s = InterleavedScores::new(1);
        let mut min_visible_after_boundary = f64::MAX;
        for _window in 0..5 {
            for _ in 0..10 {
                s.add(ThreadId(0), 1.0);
            }
            s.rotate();
            min_visible_after_boundary = min_visible_after_boundary.min(s.score(ThreadId(0)));
        }
        assert!(min_visible_after_boundary >= 10.0);
    }

    #[test]
    #[should_panic(expected = "at least one hardware thread")]
    fn zero_threads_rejected() {
        let _ = InterleavedScores::new(0);
    }

    #[test]
    fn num_threads_reported() {
        assert_eq!(InterleavedScores::new(4).num_threads(), 4);
    }
}
