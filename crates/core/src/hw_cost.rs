//! Hardware-complexity model of BreakHammer (§6 of the paper).
//!
//! The paper implements BreakHammer in Chisel, synthesises it with a 65 nm
//! standard-cell library and evaluates storage with CACTI. The resulting
//! numbers are driven entirely by the amount of per-thread state — two 32-bit
//! score counters, one 16-bit activation counter and two 1-bit suspect flags
//! per hardware thread — plus a shallow pipeline. This module reproduces that
//! arithmetic so the §6 quantities can be regenerated.

/// Bits of storage BreakHammer keeps per hardware thread.
pub const BITS_PER_THREAD: u64 = 2 * 32 + 16 + 2;

/// Area of the paper's 4-thread, per-channel instance at 65 nm (mm²), used to
/// calibrate the per-bit area constant.
const PAPER_AREA_PER_CHANNEL_MM2: f64 = 0.000105;
/// Threads in the paper's calibration instance.
const PAPER_THREADS: usize = 4;
/// Die area of the reference high-end Intel Xeon processor (mm²), chosen so
/// the paper's "0.0002% of chip area for 0.00042 mm²" statement holds.
pub const XEON_DIE_AREA_MM2: f64 = 210.0;
/// BreakHammer's pipeline depth (stages).
pub const PIPELINE_STAGES: u32 = 8;
/// Achievable clock frequency of the synthesised design (GHz).
pub const CLOCK_GHZ: f64 = 1.5;

/// Hardware cost estimate of one BreakHammer instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HardwareCost {
    /// Hardware threads tracked.
    pub threads: usize,
    /// Memory channels (one BreakHammer instance per channel).
    pub channels: usize,
    /// Total storage in bits.
    pub storage_bits: u64,
    /// Estimated area in mm² (65 nm).
    pub area_mm2: f64,
    /// Fraction of a high-end Xeon die this area represents.
    pub xeon_area_fraction: f64,
    /// Per-decision latency in nanoseconds (one pipeline stage).
    pub latency_ns: f64,
}

impl HardwareCost {
    /// Estimates the cost of BreakHammer for `threads` hardware threads and
    /// `channels` memory channels.
    ///
    /// # Panics
    /// Panics if `threads` or `channels` is zero.
    pub fn estimate(threads: usize, channels: usize) -> Self {
        assert!(threads > 0, "need at least one hardware thread");
        assert!(channels > 0, "need at least one memory channel");
        let storage_bits = BITS_PER_THREAD * threads as u64 * channels as u64;
        let area_per_bit =
            PAPER_AREA_PER_CHANNEL_MM2 / (BITS_PER_THREAD as f64 * PAPER_THREADS as f64);
        let area_mm2 = storage_bits as f64 * area_per_bit;
        HardwareCost {
            threads,
            channels,
            storage_bits,
            area_mm2,
            xeon_area_fraction: area_mm2 / XEON_DIE_AREA_MM2,
            latency_ns: 1.0 / CLOCK_GHZ,
        }
    }

    /// The paper's evaluated configuration: 4 hardware threads, and an area
    /// quoted for the processor chip (the paper reports 0.00042 mm² overall).
    pub fn paper_configuration() -> Self {
        HardwareCost::estimate(4, 4)
    }

    /// True if the per-decision latency fits under the given command-to-command
    /// spacing (the paper compares against tRRD: 2.5 ns in DDR4), i.e.
    /// BreakHammer stays off the critical path of request scheduling.
    pub fn fits_under_trrd(&self, trrd_ns: f64) -> bool {
        self.latency_ns < trrd_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_thread_state_matches_section6() {
        assert_eq!(BITS_PER_THREAD, 82);
    }

    #[test]
    fn calibration_instance_matches_paper_area() {
        let c = HardwareCost::estimate(4, 1);
        assert!((c.area_mm2 - 0.000105).abs() < 1e-9, "got {}", c.area_mm2);
    }

    #[test]
    fn paper_configuration_matches_headline_numbers() {
        let c = HardwareCost::paper_configuration();
        // ~0.00042 mm^2 and ~0.0002% of a Xeon die.
        assert!((c.area_mm2 - 0.00042).abs() < 1e-6, "area {}", c.area_mm2);
        assert!((c.xeon_area_fraction - 0.000002).abs() < 1e-7);
        // 0.67 ns latency, under DDR4's 2.5 ns tRRD and DDR5's 3.3 ns.
        assert!((c.latency_ns - 0.6667).abs() < 0.01);
        assert!(c.fits_under_trrd(2.5));
        assert!(c.fits_under_trrd(3.33));
        assert!(!c.fits_under_trrd(0.5));
    }

    #[test]
    fn cost_scales_linearly_with_threads_and_channels() {
        let small = HardwareCost::estimate(4, 1);
        let more_threads = HardwareCost::estimate(8, 1);
        let more_channels = HardwareCost::estimate(4, 2);
        assert!((more_threads.area_mm2 / small.area_mm2 - 2.0).abs() < 1e-9);
        assert!((more_channels.area_mm2 / small.area_mm2 - 2.0).abs() < 1e-9);
        assert_eq!(more_threads.storage_bits, 2 * small.storage_bits);
    }

    #[test]
    #[should_panic(expected = "at least one hardware thread")]
    fn zero_threads_rejected() {
        let _ = HardwareCost::estimate(0, 1);
    }

    #[test]
    fn even_a_big_server_stays_negligible() {
        // 128 threads, 8 channels: still well under 0.1% of a Xeon die.
        let c = HardwareCost::estimate(128, 8);
        assert!(c.xeon_area_fraction < 0.001);
    }
}
