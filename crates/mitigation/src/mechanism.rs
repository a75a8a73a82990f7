//! The [`TriggerMechanism`] trait implemented by every RowHammer mitigation
//! mechanism, and the [`MechanismKind`] factory used by the experiment
//! harness to instantiate mechanisms by name.

use crate::action::{ActionSink, ActivationEvent, PreventiveAction, ScoreAttribution};
use crate::{
    aqua::Aqua, blockhammer::BlockHammer, graphene::Graphene, hydra::Hydra, para::Para, prac::Prac,
    rega::Rega, rfm::Rfm, twice::Twice,
};
use bh_dram::{Cycle, DramGeometry, RowAddr, TimingAdjustment, TimingParams};
use std::fmt;

/// A RowHammer mitigation mechanism's trigger algorithm.
///
/// The memory controller feeds every row activation to the mechanism via
/// [`TriggerMechanism::on_activation`]; the mechanism pushes the
/// RowHammer-preventive actions it wants performed into the caller-owned
/// [`ActionSink`] (see the sink's documentation for the ownership and
/// reentrancy contract). BlockHammer additionally blocks scheduling of
/// requests to blacklisted rows via [`TriggerMechanism::is_blocked`], and
/// REGA adjusts DRAM timing via [`TriggerMechanism::timing_adjustment`].
pub trait TriggerMechanism: fmt::Debug + Send {
    /// Human-readable mechanism name (e.g. `"Graphene"`).
    fn name(&self) -> &'static str;

    /// The mechanism's kind tag.
    fn kind(&self) -> MechanismKind;

    /// Observes one row activation and appends any preventive actions to
    /// perform now to `sink`. This is the simulator's per-activation hot
    /// path: implementations must not allocate in the steady state (the sink
    /// reuses its buffers; trackers must not rehash or grow after warm-up).
    fn on_activation(&mut self, event: &ActivationEvent, sink: &mut ActionSink);

    /// Convenience wrapper around [`TriggerMechanism::on_activation`] that
    /// collects the actions into a fresh `Vec`. Allocates per call — meant
    /// for tests, examples and offline analysis, never for the simulation
    /// loop.
    fn on_activation_vec(&mut self, event: &ActivationEvent) -> Vec<PreventiveAction> {
        let mut sink = ActionSink::default();
        self.on_activation(event, &mut sink);
        sink.to_actions()
    }

    /// True if a request that would activate `row` must not be scheduled at
    /// `cycle` (BlockHammer's blacklisting throttle). The default never blocks.
    fn is_blocked(&self, row: RowAddr, cycle: Cycle) -> bool {
        let _ = (row, cycle);
        false
    }

    /// True if this mechanism can ever block activations (i.e.
    /// [`TriggerMechanism::is_blocked`] can return true). Schedulers use this
    /// to skip per-request blacklist queries for the mechanisms that never
    /// block. The default is false.
    fn may_block(&self) -> bool {
        false
    }

    /// Earliest cycle at or after `cycle` at which an activation of `row` is
    /// no longer blocked — i.e. the first `c >= cycle` with
    /// `!is_blocked(row, c)`, assuming no further activations are observed in
    /// between. The event-driven scheduler uses this horizon to jump the
    /// clock across a blocking delay instead of re-polling
    /// [`TriggerMechanism::is_blocked`] every cycle. The default (no
    /// blocking) returns `cycle`.
    fn blocked_until(&self, row: RowAddr, cycle: Cycle) -> Cycle {
        let _ = row;
        cycle
    }

    /// Number of rows the mechanism is currently blocking (BlockHammer's
    /// live blacklist size). Diagnostic only: feeds the forward-progress
    /// watchdog's livelock snapshot, where "how many rows does the mechanism
    /// hold blocked right now" is exactly the state a throttling livelock
    /// hides in. The default (mechanisms that never block) is 0.
    fn blocked_rows(&self) -> usize {
        0
    }

    /// DRAM timing adjustment the mechanism requires (REGA). The default is no
    /// adjustment.
    fn timing_adjustment(&self) -> TimingAdjustment {
        TimingAdjustment::none()
    }

    /// Processor/memory-controller die storage required by the mechanism, in
    /// bits (used for the area comparisons of §3 and §8.3).
    fn storage_bits(&self) -> u64;

    /// How BreakHammer should attribute RowHammer-preventive scores for this
    /// mechanism (§4.1).
    fn attribution(&self) -> ScoreAttribution {
        ScoreAttribution::ProportionalToActivations
    }
}

/// Identifier of a mitigation mechanism, used by configuration files and the
/// experiment harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MechanismKind {
    /// No RowHammer mitigation (the "no defense" baseline).
    None,
    /// PARA: probabilistic adjacent-row activation [Kim+, ISCA'14].
    Para,
    /// Graphene: Misra–Gries aggressor tracking [Park+, MICRO'20].
    Graphene,
    /// Hydra: hybrid group/per-row tracking with a table in DRAM [Qureshi+, ISCA'22].
    Hydra,
    /// TWiCe: pruned time-window counters [Lee+, ISCA'19].
    Twice,
    /// AQUA: quarantine-based aggressor row migration [Saxena+, MICRO'22].
    Aqua,
    /// REGA: refresh-generating activations via a second row buffer [Marazzi+, S&P'23].
    Rega,
    /// Periodic Refresh Management commands (DDR5 RFM) \[JEDEC\].
    Rfm,
    /// Per Row Activation Counting with back-off (DDR5 PRAC) \[JEDEC\].
    Prac,
    /// BlockHammer: blacklisting-based access throttling [Yağlıkçı+, HPCA'21]
    /// (the paper's throttling-based comparison point, §8.3).
    BlockHammer,
}

impl MechanismKind {
    /// The eight mechanisms the paper pairs BreakHammer with (Figs. 6–17).
    pub fn paper_mechanisms() -> [MechanismKind; 8] {
        [
            MechanismKind::Para,
            MechanismKind::Graphene,
            MechanismKind::Hydra,
            MechanismKind::Twice,
            MechanismKind::Aqua,
            MechanismKind::Rega,
            MechanismKind::Rfm,
            MechanismKind::Prac,
        ]
    }

    /// The four mechanisms used in the motivation study (Fig. 2).
    pub fn motivation_mechanisms() -> [MechanismKind; 4] {
        [MechanismKind::Hydra, MechanismKind::Rfm, MechanismKind::Para, MechanismKind::Aqua]
    }

    /// Short display name matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            MechanismKind::None => "NoDefense",
            MechanismKind::Para => "PARA",
            MechanismKind::Graphene => "Graphene",
            MechanismKind::Hydra => "Hydra",
            MechanismKind::Twice => "TWiCe",
            MechanismKind::Aqua => "AQUA",
            MechanismKind::Rega => "REGA",
            MechanismKind::Rfm => "RFM",
            MechanismKind::Prac => "PRAC",
            MechanismKind::BlockHammer => "BlockHammer",
        }
    }

    /// Parses a mechanism name (case-insensitive).
    pub fn parse(name: &str) -> Option<MechanismKind> {
        let lower = name.to_ascii_lowercase();
        Some(match lower.as_str() {
            "none" | "nodefense" | "no-defense" | "baseline" => MechanismKind::None,
            "para" => MechanismKind::Para,
            "graphene" => MechanismKind::Graphene,
            "hydra" => MechanismKind::Hydra,
            "twice" => MechanismKind::Twice,
            "aqua" => MechanismKind::Aqua,
            "rega" => MechanismKind::Rega,
            "rfm" => MechanismKind::Rfm,
            "prac" => MechanismKind::Prac,
            "blockhammer" => MechanismKind::BlockHammer,
            _ => return None,
        })
    }

    /// Instantiates the mechanism for the given system configuration.
    ///
    /// `nrh` is the RowHammer threshold the mechanism must protect against and
    /// `seed` feeds the probabilistic mechanisms (PARA).
    pub fn build(
        self,
        geometry: &DramGeometry,
        timing: &TimingParams,
        nrh: u64,
        seed: u64,
    ) -> Box<dyn TriggerMechanism> {
        let blast_radius = 1;
        match self {
            MechanismKind::None => Box::new(NoMitigation::new()),
            MechanismKind::Para => Box::new(Para::new(geometry.clone(), nrh, blast_radius, seed)),
            MechanismKind::Graphene => {
                Box::new(Graphene::new(geometry.clone(), timing, nrh, blast_radius))
            }
            MechanismKind::Hydra => {
                Box::new(Hydra::new(geometry.clone(), timing, nrh, blast_radius))
            }
            MechanismKind::Twice => {
                Box::new(Twice::new(geometry.clone(), timing, nrh, blast_radius))
            }
            MechanismKind::Aqua => Box::new(Aqua::new(geometry.clone(), timing, nrh)),
            MechanismKind::Rega => Box::new(Rega::new(nrh)),
            MechanismKind::Rfm => Box::new(Rfm::new(geometry.clone(), nrh)),
            MechanismKind::Prac => Box::new(Prac::new(geometry.clone(), nrh)),
            MechanismKind::BlockHammer => {
                Box::new(BlockHammer::new(geometry.clone(), timing, nrh, blast_radius))
            }
        }
    }
}

impl fmt::Display for MechanismKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The "no defense" baseline: never triggers any preventive action.
#[derive(Debug, Clone, Default)]
pub struct NoMitigation;

impl NoMitigation {
    /// Creates the no-op mechanism.
    pub fn new() -> Self {
        NoMitigation
    }
}

impl TriggerMechanism for NoMitigation {
    fn name(&self) -> &'static str {
        "NoDefense"
    }

    fn kind(&self) -> MechanismKind {
        MechanismKind::None
    }

    fn on_activation(&mut self, _event: &ActivationEvent, _sink: &mut ActionSink) {}

    fn storage_bits(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bh_dram::{BankAddr, ThreadId};

    #[test]
    fn no_mitigation_never_acts() {
        let mut m = NoMitigation::new();
        let ev = ActivationEvent {
            row: RowAddr { bank: BankAddr { rank: 0, bank_group: 0, bank: 0 }, row: 1 },
            thread: ThreadId(0),
            cycle: 0,
        };
        let mut sink = ActionSink::default();
        for _ in 0..10_000 {
            m.on_activation(&ev, &mut sink);
            assert!(sink.is_empty());
        }
        assert!(m.on_activation_vec(&ev).is_empty());
        assert_eq!(m.storage_bits(), 0);
        assert_eq!(m.kind(), MechanismKind::None);
        assert_eq!(m.name(), "NoDefense");
        assert!(!m.is_blocked(ev.row, 0));
        assert!(m.timing_adjustment().is_none());
        assert_eq!(m.attribution(), ScoreAttribution::ProportionalToActivations);
    }

    #[test]
    fn kind_parsing_roundtrips() {
        for kind in [
            MechanismKind::None,
            MechanismKind::Para,
            MechanismKind::Graphene,
            MechanismKind::Hydra,
            MechanismKind::Twice,
            MechanismKind::Aqua,
            MechanismKind::Rega,
            MechanismKind::Rfm,
            MechanismKind::Prac,
            MechanismKind::BlockHammer,
        ] {
            assert_eq!(MechanismKind::parse(kind.label()), Some(kind), "{kind}");
            assert_eq!(MechanismKind::parse(&kind.label().to_lowercase()), Some(kind));
        }
        assert_eq!(MechanismKind::parse("not-a-mechanism"), None);
    }

    #[test]
    fn paper_mechanism_list_matches_evaluation_section() {
        let m = MechanismKind::paper_mechanisms();
        assert_eq!(m.len(), 8);
        assert!(!m.contains(&MechanismKind::BlockHammer));
        assert!(!m.contains(&MechanismKind::None));
        assert_eq!(MechanismKind::motivation_mechanisms().len(), 4);
    }

    #[test]
    fn factory_builds_every_mechanism() {
        let geom = DramGeometry::tiny();
        let timing = TimingParams::fast_test();
        for kind in [
            MechanismKind::None,
            MechanismKind::Para,
            MechanismKind::Graphene,
            MechanismKind::Hydra,
            MechanismKind::Twice,
            MechanismKind::Aqua,
            MechanismKind::Rega,
            MechanismKind::Rfm,
            MechanismKind::Prac,
            MechanismKind::BlockHammer,
        ] {
            let mech = kind.build(&geom, &timing, 1024, 7);
            assert_eq!(mech.kind(), kind);
            assert!(!mech.name().is_empty());
        }
    }
}
