//! Workload-mix construction (§7 of the paper).
//!
//! The paper evaluates 90 four-core mixes of benign applications grouped by
//! memory intensity (HHHH, HHMM, MMMM, HHLL, MMLL, LLLL — 15 mixes each) and
//! 90 four-core mixes in which one application is replaced by the attacker
//! (HHHA, HHMA, MMMA, HLLA, MMLA, LLLA). This module builds those mixes from
//! the synthetic profile library, deterministically from a seed.

use crate::compose::ComposedAttacker;
use crate::generator::TraceGenerator;
use crate::profile::{BenignProfile, IntensityClass};
use crate::scenario::AttackScenario;
use crate::victim::VictimRow;
use bh_cpu::CompiledTrace;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// One slot of a four-core mix.
///
/// Marked `#[non_exhaustive]`: construct through [`SlotClass::benign`] /
/// [`SlotClass::attacker`] and match with a wildcard arm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum SlotClass {
    /// A benign application of the given intensity class.
    Benign(IntensityClass),
    /// The attacker.
    Attacker,
}

impl SlotClass {
    /// A benign slot of the given intensity class.
    pub fn benign(class: IntensityClass) -> Self {
        SlotClass::Benign(class)
    }

    /// The attacker slot.
    pub fn attacker() -> Self {
        SlotClass::Attacker
    }

    /// Single-letter label (H/M/L/A).
    pub fn letter(self) -> char {
        match self {
            SlotClass::Benign(c) => c.letter(),
            SlotClass::Attacker => 'A',
        }
    }
}

/// A mix class: the intensity composition of the four cores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MixClass {
    /// The four slots.
    pub slots: [SlotClass; 4],
}

impl MixClass {
    /// Label such as `"HHMM"` or `"HHHA"`.
    pub fn label(&self) -> String {
        self.slots.iter().map(|s| s.letter()).collect()
    }

    /// True if one of the slots is the attacker.
    pub fn has_attacker(&self) -> bool {
        self.slots.iter().any(|s| matches!(s, SlotClass::Attacker))
    }

    /// The six all-benign mix classes of §7 (HHHH, HHMM, MMMM, HHLL, MMLL,
    /// LLLL).
    pub fn benign_classes() -> Vec<MixClass> {
        use IntensityClass::*;
        use SlotClass::Benign;
        [
            [High, High, High, High],
            [High, High, Medium, Medium],
            [Medium, Medium, Medium, Medium],
            [High, High, Low, Low],
            [Medium, Medium, Low, Low],
            [Low, Low, Low, Low],
        ]
        .into_iter()
        .map(|cls| MixClass {
            slots: [Benign(cls[0]), Benign(cls[1]), Benign(cls[2]), Benign(cls[3])],
        })
        .collect()
    }

    /// The six attacker mix classes of §8.1 (HHHA, HHMA, MMMA, HLLA, MMLA,
    /// LLLA). The attacker always occupies the last core.
    pub fn attack_classes() -> Vec<MixClass> {
        use IntensityClass::*;
        use SlotClass::{Attacker, Benign};
        [
            [High, High, High],
            [High, High, Medium],
            [Medium, Medium, Medium],
            [High, Low, Low],
            [Medium, Medium, Low],
            [Low, Low, Low],
        ]
        .into_iter()
        .map(|cls| MixClass { slots: [Benign(cls[0]), Benign(cls[1]), Benign(cls[2]), Attacker] })
        .collect()
    }
}

/// A concrete four-core workload: one compiled trace per hardware thread.
///
/// Traces are compiled once at build time (per mix, seed and geometry) and
/// shared by reference from then on: cloning a `WorkloadMix` — e.g. to hand
/// it to every worker of a campaign matrix — bumps reference counts instead
/// of deep-copying tens of thousands of trace records per configuration.
#[derive(Debug, Clone)]
pub struct WorkloadMix {
    /// Mix name, e.g. `"HHMA-03"`.
    pub name: String,
    /// The mix class this workload belongs to.
    pub class: MixClass,
    /// Names of the applications on each core.
    pub app_names: Vec<String>,
    /// One compiled (shareable) trace per core.
    pub traces: Vec<CompiledTrace>,
    /// Index of the attacker core, if any.
    pub attacker_thread: Option<usize>,
    /// The rows holding victim data (declared by the attacker's
    /// [`VictimLayout`](crate::victim::VictimLayout)); empty for all-benign
    /// mixes. The simulator watches these and reports per-victim disturbance.
    pub victim_rows: Vec<VictimRow>,
    /// The attack-scenario tag this mix was built under, if any (matches the
    /// suffix in [`WorkloadMix::name`]).
    pub scenario: Option<String>,
    /// What counts as a successful attack on the victim rows (declared by the
    /// attacker's victim layout; the default for all-benign mixes).
    pub success_criterion: bh_dram::SuccessCriterion,
}

impl WorkloadMix {
    /// Number of cores in the mix.
    pub fn cores(&self) -> usize {
        self.traces.len()
    }

    /// Indices of the benign cores.
    pub fn benign_threads(&self) -> Vec<usize> {
        (0..self.cores()).filter(|i| Some(*i) != self.attacker_thread).collect()
    }
}

/// Builds workload mixes from the profile library.
#[derive(Debug, Clone)]
pub struct MixBuilder {
    generator: TraceGenerator,
    attacker: ComposedAttacker,
    /// Trace records generated per benign core.
    pub benign_entries: usize,
    /// Trace records generated for the attacker core.
    pub attacker_entries: usize,
    /// Optional scenario tag appended to mix names (e.g. `"fuzz-nbr"` for a
    /// catalog scenario), so scenario variants of the same class and index
    /// stay distinguishable in result tables. Defaults to the composed
    /// attacker's tag (`None` for the untagged
    /// [`ComposedAttacker::paper_default`]).
    scenario_suffix: Option<String>,
}

impl MixBuilder {
    /// Creates a builder for the paper's system configuration, with the
    /// paper's attacker ([`ComposedAttacker::paper_default`]).
    pub fn new(generator: TraceGenerator) -> Self {
        MixBuilder {
            generator,
            attacker: ComposedAttacker::paper_default(),
            benign_entries: 20_000,
            attacker_entries: 8_000,
            scenario_suffix: None,
        }
    }

    /// Overrides the attacker with a composed pattern × placement × victims.
    /// The attacker's tag (if any) becomes the mix-name suffix.
    pub fn with_composed_attacker(mut self, attacker: ComposedAttacker) -> Self {
        self.attacker = attacker;
        self
    }

    /// Configures the builder for a catalog scenario: its composed attacker,
    /// with the scenario name as the mix-name suffix.
    pub fn with_scenario(mut self, scenario: &AttackScenario) -> Self {
        self.scenario_suffix = Some(scenario.name.to_string());
        self.with_composed_attacker(scenario.attacker.clone())
    }

    /// Builds the `index`-th workload of `class`, deterministically from
    /// `seed`.
    pub fn build(&self, class: MixClass, index: usize, seed: u64) -> WorkloadMix {
        let mut rng =
            StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9).wrapping_add(index as u64));
        let mut traces = Vec::with_capacity(4);
        let mut app_names = Vec::with_capacity(4);
        let mut attacker_thread = None;
        for (slot, spec) in class.slots.iter().enumerate() {
            match spec {
                SlotClass::Benign(intensity) => {
                    let candidates = BenignProfile::of_class(*intensity);
                    let profile = candidates
                        .choose(&mut rng)
                        .expect("profile library covers every class")
                        .clone();
                    let trace_seed = seed ^ ((index as u64) << 16) ^ ((slot as u64) << 32);
                    traces.push(
                        self.generator.benign(&profile, self.benign_entries, trace_seed).compile(),
                    );
                    app_names.push(profile.name.to_string());
                }
                SlotClass::Attacker => {
                    attacker_thread = Some(slot);
                    let trace_seed = seed ^ ((index as u64) << 16) ^ 0xdead;
                    traces.push(
                        self.attacker
                            .trace(
                                self.generator.geometry(),
                                self.generator.mapping(),
                                self.attacker_entries,
                                trace_seed,
                            )
                            .compile(),
                    );
                    app_names.push("attacker".to_string());
                }
            }
        }
        let scenario =
            self.scenario_suffix.clone().or_else(|| self.attacker.tag().map(String::from));
        let name = match &scenario {
            Some(suffix) => format!("{}-{suffix}-{index:02}", class.label()),
            None => format!("{}-{index:02}", class.label()),
        };
        let victim_rows = if attacker_thread.is_some() {
            self.attacker.victim_rows(self.generator.geometry())
        } else {
            Vec::new()
        };
        let success_criterion = if attacker_thread.is_some() {
            self.attacker.success_criterion()
        } else {
            bh_dram::SuccessCriterion::default()
        };
        WorkloadMix {
            name,
            class,
            app_names,
            traces,
            attacker_thread,
            victim_rows,
            scenario,
            success_criterion,
        }
    }

    /// Builds `per_class` workloads for each of the given classes (the paper
    /// uses 15 per class, 90 in total).
    pub fn build_suite(
        &self,
        classes: &[MixClass],
        per_class: usize,
        seed: u64,
    ) -> Vec<WorkloadMix> {
        let mut out = Vec::with_capacity(classes.len() * per_class);
        for class in classes {
            for index in 0..per_class {
                out.push(self.build(*class, index, seed));
            }
        }
        out
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_types)] // test-only hash collections: assertion sets and reference models, never digest-bearing
mod tests {
    use super::*;

    fn builder() -> MixBuilder {
        let mut b = MixBuilder::new(TraceGenerator::paper_default());
        b.benign_entries = 2_000;
        b.attacker_entries = 1_000;
        b
    }

    #[test]
    fn class_labels_match_the_paper() {
        let benign: Vec<String> = MixClass::benign_classes().iter().map(MixClass::label).collect();
        assert_eq!(benign, vec!["HHHH", "HHMM", "MMMM", "HHLL", "MMLL", "LLLL"]);
        let attack: Vec<String> = MixClass::attack_classes().iter().map(MixClass::label).collect();
        assert_eq!(attack, vec!["HHHA", "HHMA", "MMMA", "HLLA", "MMLA", "LLLA"]);
        assert!(MixClass::attack_classes().iter().all(MixClass::has_attacker));
        assert!(!MixClass::benign_classes().iter().any(|c| c.has_attacker()));
    }

    #[test]
    fn built_mix_has_four_cores_and_marks_the_attacker() {
        let b = builder();
        let class = MixClass::attack_classes()[0];
        let mix = b.build(class, 3, 42);
        assert_eq!(mix.cores(), 4);
        assert_eq!(mix.attacker_thread, Some(3));
        assert_eq!(mix.benign_threads(), vec![0, 1, 2]);
        assert_eq!(mix.name, "HHHA-03");
        assert_eq!(mix.app_names.len(), 4);
        assert_eq!(mix.app_names[3], "attacker");
        assert!(mix.traces[3].entries().iter().all(|e| e.uncached));
        assert!(mix.traces[0].entries().iter().all(|e| !e.uncached));
    }

    #[test]
    fn benign_mixes_have_no_attacker() {
        let b = builder();
        let mix = b.build(MixClass::benign_classes()[2], 0, 7);
        assert_eq!(mix.attacker_thread, None);
        assert_eq!(mix.benign_threads(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn suite_generation_produces_the_requested_count() {
        let b = builder();
        let suite = b.build_suite(&MixClass::attack_classes(), 2, 1);
        assert_eq!(suite.len(), 12);
        // Names are unique.
        let names: std::collections::HashSet<_> = suite.iter().map(|m| m.name.clone()).collect();
        assert_eq!(names.len(), 12);
    }

    #[test]
    fn attack_mixes_declare_victim_rows_and_benign_mixes_do_not() {
        let b = builder();
        let attack = b.build(MixClass::attack_classes()[0], 0, 42);
        assert!(!attack.victim_rows.is_empty());
        assert_eq!(attack.scenario, None, "the paper attacker keeps untagged names");
        let benign = b.build(MixClass::benign_classes()[0], 0, 42);
        assert!(benign.victim_rows.is_empty());
    }

    #[test]
    fn scenario_builders_tag_names_and_keep_benign_cores_identical() {
        use crate::scenario::scenario_catalog;

        let b = builder();
        let class = MixClass::attack_classes()[0];
        let plain = b.build(class, 0, 42);
        for scenario in scenario_catalog() {
            let mix = b.clone().with_scenario(&scenario).build(class, 0, 42);
            assert_eq!(mix.name, format!("HHHA-{}-00", scenario.name));
            assert_eq!(mix.scenario.as_deref(), Some(scenario.name));
            assert!(!mix.victim_rows.is_empty(), "{}", scenario.name);
            // Only the attacker core differs from the plain build.
            for t in plain.benign_threads() {
                assert_eq!(plain.traces[t], mix.traces[t], "{}", scenario.name);
            }
        }
    }

    #[test]
    fn composed_attackers_without_tags_keep_plain_names() {
        use crate::compose::ComposedAttacker;
        use crate::pattern::FuzzedPattern;
        use crate::placement::NeighborPlacement;

        let attacker =
            ComposedAttacker::new(FuzzedPattern::new(1, 4), NeighborPlacement::new()).untagged();
        let mix =
            builder().with_composed_attacker(attacker).build(MixClass::attack_classes()[0], 1, 7);
        assert_eq!(mix.name, "HHHA-01");
        assert_eq!(mix.scenario, None);
    }

    #[test]
    fn mix_construction_is_deterministic() {
        let b = builder();
        let class = MixClass::attack_classes()[1];
        let a = b.build(class, 5, 99);
        let c = b.build(class, 5, 99);
        assert_eq!(a.app_names, c.app_names);
        assert_eq!(a.traces, c.traces);
        // Different indices give different application selections or traces.
        let d = b.build(class, 6, 99);
        assert!(a.app_names != d.app_names || a.traces != d.traces);
    }
}
