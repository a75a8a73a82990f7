//! Event-based DRAM energy model.
//!
//! The paper evaluates DRAM energy (Fig. 12) with a DRAMPower-style model on
//! top of Ramulator. Our substitute counts the energy-relevant events the
//! device performs (activate/precharge pairs, column reads and writes,
//! all-bank refreshes, RFM windows, directed victim refreshes and AQUA row
//! migrations) and adds rank background power integrated over simulated time.
//! Absolute joules differ from the authors' testbed, but the normalised
//! energy — dominated by how many preventive actions and data transfers were
//! performed — is preserved.

use crate::timing::TimingParams;

/// Per-event energies (nanojoules) and background power (milliwatts).
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyParams {
    /// Energy of one ACT + PRE pair (row cycle) in nJ.
    pub act_pre_nj: f64,
    /// Energy of one column read burst in nJ (including I/O).
    pub read_nj: f64,
    /// Energy of one column write burst in nJ (including I/O).
    pub write_nj: f64,
    /// Energy of one all-bank refresh command in nJ.
    pub refresh_nj: f64,
    /// Energy of one same-bank refresh command in nJ.
    pub refresh_sb_nj: f64,
    /// Energy of one refresh-management (RFM) window in nJ.
    pub rfm_nj: f64,
    /// Energy of one directed victim-row refresh in nJ.
    pub victim_refresh_nj: f64,
    /// Background (standby + peripheral) power per rank in mW.
    pub background_mw_per_rank: f64,
}

impl EnergyParams {
    /// DDR5-class per-event energies. Values are representative of a 16 Gb
    /// x8 DDR5 device; only ratios matter for the reproduced figures.
    pub fn ddr5() -> Self {
        EnergyParams {
            act_pre_nj: 2.1,
            read_nj: 1.4,
            write_nj: 1.5,
            refresh_nj: 140.0,
            refresh_sb_nj: 30.0,
            rfm_nj: 70.0,
            victim_refresh_nj: 2.1,
            background_mw_per_rank: 120.0,
        }
    }

    /// DDR4-class per-event energies.
    pub fn ddr4() -> Self {
        EnergyParams {
            act_pre_nj: 2.8,
            read_nj: 1.8,
            write_nj: 1.9,
            refresh_nj: 190.0,
            refresh_sb_nj: 45.0,
            rfm_nj: 95.0,
            victim_refresh_nj: 2.8,
            background_mw_per_rank: 150.0,
        }
    }
}

impl Default for EnergyParams {
    fn default() -> Self {
        EnergyParams::ddr5()
    }
}

/// Running counters of the energy-relevant events one channel has performed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EnergyCounters {
    /// Row activations (each eventually paired with a precharge).
    pub activations: u64,
    /// Explicit precharges (informational; energy is charged per ACT).
    pub precharges: u64,
    /// Column reads.
    pub reads: u64,
    /// Column writes.
    pub writes: u64,
    /// All-bank refresh commands.
    pub refreshes: u64,
    /// Same-bank refresh commands.
    pub refreshes_same_bank: u64,
    /// Refresh-management commands.
    pub rfm_commands: u64,
    /// Directed victim-row refreshes (preventive refreshes).
    pub victim_refreshes: u64,
}

impl EnergyCounters {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        EnergyCounters::default()
    }

    /// Total DRAM energy in nanojoules after `elapsed_cycles` of simulated
    /// time on a system with `ranks` ranks.
    pub fn total_nj(
        &self,
        params: &EnergyParams,
        timing: &TimingParams,
        elapsed_cycles: u64,
        ranks: usize,
    ) -> f64 {
        let dynamic = self.dynamic_nj(params);
        let seconds = timing.cycles_to_ns(elapsed_cycles) * 1e-9;
        let background = params.background_mw_per_rank * 1e-3 * ranks as f64 * seconds * 1e9;
        dynamic + background
    }

    /// Dynamic (event) energy only, in nanojoules.
    pub fn dynamic_nj(&self, params: &EnergyParams) -> f64 {
        self.activations as f64 * params.act_pre_nj
            + self.reads as f64 * params.read_nj
            + self.writes as f64 * params.write_nj
            + self.refreshes as f64 * params.refresh_nj
            + self.refreshes_same_bank as f64 * params.refresh_sb_nj
            + self.rfm_commands as f64 * params.rfm_nj
            + self.victim_refreshes as f64 * params.victim_refresh_nj
    }

    /// Energy attributable to RowHammer-preventive work only (victim
    /// refreshes and RFM windows), in nanojoules.
    pub fn preventive_nj(&self, params: &EnergyParams) -> f64 {
        self.victim_refreshes as f64 * params.victim_refresh_nj
            + self.rfm_commands as f64 * params.rfm_nj
    }

    /// Adds another set of counters into this one.
    pub fn merge(&mut self, other: &EnergyCounters) {
        self.activations += other.activations;
        self.precharges += other.precharges;
        self.reads += other.reads;
        self.writes += other.writes;
        self.refreshes += other.refreshes;
        self.refreshes_same_bank += other.refreshes_same_bank;
        self.rfm_commands += other.rfm_commands;
        self.victim_refreshes += other.victim_refreshes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_counters_have_only_background_energy() {
        let c = EnergyCounters::new();
        let p = EnergyParams::ddr5();
        let t = TimingParams::ddr5_4800();
        assert_eq!(c.dynamic_nj(&p), 0.0);
        let total = c.total_nj(&p, &t, t.ns_to_cycles(1000.0), 2);
        // 2 ranks * 120mW * 1us = 240 nJ
        assert!((total - 240.0).abs() < 1.0, "got {total}");
    }

    #[test]
    fn dynamic_energy_scales_with_events() {
        let p = EnergyParams::ddr5();
        let mut c = EnergyCounters::new();
        c.activations = 10;
        c.reads = 5;
        c.writes = 3;
        c.refreshes = 1;
        c.rfm_commands = 2;
        c.victim_refreshes = 4;
        let expected = 10.0 * p.act_pre_nj
            + 5.0 * p.read_nj
            + 3.0 * p.write_nj
            + 1.0 * p.refresh_nj
            + 2.0 * p.rfm_nj
            + 4.0 * p.victim_refresh_nj;
        assert!((c.dynamic_nj(&p) - expected).abs() < 1e-9);
        assert!((c.preventive_nj(&p) - (2.0 * p.rfm_nj + 4.0 * p.victim_refresh_nj)).abs() < 1e-9);
    }

    #[test]
    fn merge_adds_counters() {
        let mut a = EnergyCounters { activations: 1, reads: 2, ..Default::default() };
        let b = EnergyCounters { activations: 3, writes: 4, rfm_commands: 5, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.activations, 4);
        assert_eq!(a.reads, 2);
        assert_eq!(a.writes, 4);
        assert_eq!(a.rfm_commands, 5);
    }

    #[test]
    fn preventive_actions_dominate_when_abundant() {
        // Sanity check for the shape of Fig. 12: a workload with many victim
        // refreshes consumes visibly more dynamic energy than one without.
        let p = EnergyParams::ddr5();
        let mut quiet = EnergyCounters::new();
        quiet.activations = 1000;
        quiet.reads = 1000;
        let mut hammered = quiet.clone();
        hammered.victim_refreshes = 4000;
        assert!(hammered.dynamic_nj(&p) > 2.0 * quiet.dynamic_nj(&p));
    }
}
