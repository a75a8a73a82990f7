//! System-level performance metrics used throughout the paper's evaluation.
//!
//! The paper reports *weighted speedup* [Eyerman & Eeckhout, Snavely &
//! Tullsen] as the system-performance metric and *maximum slowdown of a
//! benign application* as the unfairness metric. Both are computed from each
//! application's instructions-per-cycle when running *shared* (in the
//! multi-programmed mix) versus *alone* (single-core on the same system).

/// Per-application performance sample: IPC alone and IPC in the shared mix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppPerf {
    /// Instructions per cycle when the application runs alone.
    pub ipc_alone: f64,
    /// Instructions per cycle when the application runs in the mix.
    pub ipc_shared: f64,
}

impl AppPerf {
    /// Creates a sample, validating that both IPCs are positive and finite.
    ///
    /// # Panics
    /// Panics if either IPC is non-positive or non-finite.
    pub fn new(ipc_alone: f64, ipc_shared: f64) -> Self {
        assert!(ipc_alone.is_finite() && ipc_alone > 0.0, "ipc_alone must be positive");
        assert!(ipc_shared.is_finite() && ipc_shared > 0.0, "ipc_shared must be positive");
        AppPerf { ipc_alone, ipc_shared }
    }

    /// The application's normalized progress (shared / alone), i.e. its
    /// individual speedup contribution. At most ~1.0 in a well-behaved system.
    pub fn normalized_progress(&self) -> f64 {
        self.ipc_shared / self.ipc_alone
    }

    /// The application's slowdown (alone / shared), ≥ 1.0 when sharing hurts.
    pub fn slowdown(&self) -> f64 {
        self.ipc_alone / self.ipc_shared
    }
}

/// Weighted speedup of a workload mix: `Σ_i IPC_shared_i / IPC_alone_i`.
///
/// # Panics
/// Panics if `apps` is empty.
///
/// # Examples
/// ```
/// use bh_stats::{weighted_speedup, AppPerf};
/// let apps = [AppPerf::new(2.0, 1.0), AppPerf::new(1.0, 0.5)];
/// assert!((weighted_speedup(&apps) - 1.0).abs() < 1e-12);
/// ```
pub fn weighted_speedup(apps: &[AppPerf]) -> f64 {
    assert!(!apps.is_empty(), "weighted speedup of an empty mix is undefined");
    apps.iter().map(AppPerf::normalized_progress).sum()
}

/// Harmonic mean of per-application speedups — an alternative
/// fairness-sensitive system metric.
///
/// # Panics
/// Panics if `apps` is empty.
pub fn harmonic_speedup(apps: &[AppPerf]) -> f64 {
    assert!(!apps.is_empty(), "harmonic speedup of an empty mix is undefined");
    apps.len() as f64 / apps.iter().map(|a| 1.0 / a.normalized_progress()).sum::<f64>()
}

/// Unfairness metric used by the paper: the maximum slowdown experienced by
/// any (benign) application in the mix.
///
/// # Panics
/// Panics if `apps` is empty.
pub fn max_slowdown(apps: &[AppPerf]) -> f64 {
    assert!(!apps.is_empty(), "max slowdown of an empty mix is undefined");
    apps.iter().map(AppPerf::slowdown).fold(f64::MIN, f64::max)
}

/// Geometric mean of a sequence of positive values (used for the `geomean`
/// columns in Figs. 6, 7, 13 and 14).
///
/// # Panics
/// Panics if `values` is empty or contains a non-positive value.
pub fn geometric_mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geometric mean of an empty set is undefined");
    let log_sum: f64 = values
        .iter()
        .map(|v| {
            assert!(*v > 0.0 && v.is_finite(), "geometric mean requires positive finite values");
            v.ln()
        })
        .sum();
    (log_sum / values.len() as f64).exp()
}

/// Arithmetic mean.
///
/// # Panics
/// Panics if `values` is empty.
pub fn mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of an empty set is undefined");
    values.iter().sum::<f64>() / values.len() as f64
}

/// Normalizes every value in `values` to `baseline` (value / baseline).
///
/// # Panics
/// Panics if `baseline` is zero or non-finite.
pub fn normalize_to(values: &[f64], baseline: f64) -> Vec<f64> {
    assert!(baseline.is_finite() && baseline != 0.0, "baseline must be finite and non-zero");
    values.iter().map(|v| v / baseline).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn app_perf_derived_quantities() {
        let a = AppPerf::new(2.0, 1.0);
        assert!((a.normalized_progress() - 0.5).abs() < 1e-12);
        assert!((a.slowdown() - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "ipc_shared must be positive")]
    fn app_perf_rejects_zero_shared_ipc() {
        let _ = AppPerf::new(1.0, 0.0);
    }

    #[test]
    fn weighted_speedup_of_unimpeded_mix_equals_core_count() {
        let apps = vec![AppPerf::new(1.5, 1.5); 4];
        assert!((weighted_speedup(&apps) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn weighted_speedup_drops_with_interference() {
        let free = vec![AppPerf::new(1.0, 1.0); 4];
        let contended = vec![AppPerf::new(1.0, 0.25); 4];
        assert!(weighted_speedup(&contended) < weighted_speedup(&free));
        assert!((weighted_speedup(&contended) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn harmonic_speedup_is_bounded_by_worst_app() {
        let apps = [AppPerf::new(1.0, 1.0), AppPerf::new(1.0, 0.1)];
        let hs = harmonic_speedup(&apps);
        assert!(hs > 0.1 && hs < 1.0);
        // Harmonic mean is below the arithmetic mean for unequal values.
        let ws_avg = weighted_speedup(&apps) / 2.0;
        assert!(hs < ws_avg);
    }

    #[test]
    fn max_slowdown_picks_the_most_hurt_app() {
        let apps = [
            AppPerf::new(1.0, 0.9),
            AppPerf::new(2.0, 0.5), // 4x slowdown
            AppPerf::new(1.0, 0.8),
        ];
        assert!((max_slowdown(&apps) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn geometric_mean_matches_hand_computation() {
        assert!((geometric_mean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geometric_mean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((geometric_mean(&[0.5, 2.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive finite")]
    fn geometric_mean_rejects_non_positive() {
        let _ = geometric_mean(&[1.0, 0.0]);
    }

    #[test]
    fn normalization_helpers() {
        assert_eq!(normalize_to(&[2.0, 4.0], 2.0), vec![1.0, 2.0]);
        assert!((mean(&[1.0, 2.0, 3.0]) - 2.0).abs() < 1e-12);
    }
}
