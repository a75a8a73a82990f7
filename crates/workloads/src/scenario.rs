//! The campaign scenario catalog: named (pattern × placement) combinations
//! swept with BreakHammer on/off.
//!
//! Scenario names follow the `"<pattern>-<placement>"` convention of the
//! composed attacker's default tag (e.g. `fuzz-nbr` is the Blacksmith-style
//! fuzzed pattern over the mapping-aware neighbor placement). The catalog is
//! what `Campaign::run_matrix` enumerates and what the digest-snapshot
//! harness pins one golden per entry for.

use crate::compose::ComposedAttacker;
use crate::pattern::{ClassicPattern, DecoyPattern, FuzzedPattern, RowPressPattern};
use crate::placement::{NeighborPlacement, SpreadPlacement};
use std::fmt;

/// One named attack scenario from the catalog.
#[derive(Debug, Clone)]
pub struct AttackScenario {
    /// The scenario name (also the mix-name suffix), `"<pattern>-<placement>"`.
    pub name: &'static str,
    /// The composed attacker the scenario runs.
    pub attacker: ComposedAttacker,
    /// One-line description for tables and docs.
    pub description: &'static str,
}

/// Error returned by [`scenario_by_name`] for an unknown scenario name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownScenarioError {
    /// The name that failed to resolve.
    pub name: String,
}

impl fmt::Display for UnknownScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let known: Vec<&str> = scenario_catalog().iter().map(|s| s.name).collect();
        write!(f, "unknown attack scenario '{}' (known: {})", self.name, known.join(", "))
    }
}

impl std::error::Error for UnknownScenarioError {}

/// The built-in scenario catalog: every new (pattern × placement)
/// combination the campaign sweeps, each tagged with its name.
pub fn scenario_catalog() -> Vec<AttackScenario> {
    vec![
        AttackScenario {
            name: "fuzz-nbr",
            attacker: ComposedAttacker::new(FuzzedPattern::new(2, 8), NeighborPlacement::new()),
            description: "Blacksmith-style fuzzed schedule over neighboring aggressors",
        },
        AttackScenario {
            name: "press-nbr",
            attacker: ComposedAttacker::new(
                RowPressPattern::new(2, 2, 16),
                NeighborPlacement::new(),
            ),
            description: "RowPress-style long-open-row dwell on neighboring aggressors",
        },
        AttackScenario {
            name: "decoy-nbr",
            attacker: ComposedAttacker::new(DecoyPattern::new(2, 2), NeighborPlacement::new()),
            description: "benign-mimicry hammering laced with cached decoy traffic",
        },
        AttackScenario {
            name: "classic-spr",
            attacker: ComposedAttacker::new(
                ClassicPattern::paper_default(),
                SpreadPlacement::new(),
            ),
            description: "classic multi-bank hammering spread across banks and channels",
        },
        AttackScenario {
            name: "fuzz-spr",
            attacker: ComposedAttacker::new(FuzzedPattern::new(2, 4), SpreadPlacement::new()),
            description: "fuzzed schedule spread across banks and channels",
        },
    ]
}

/// Resolves a catalog scenario by name.
///
/// # Errors
/// Returns [`UnknownScenarioError`] (listing the known names) if `name` is
/// not in the catalog.
pub fn scenario_by_name(name: &str) -> Result<AttackScenario, UnknownScenarioError> {
    scenario_catalog()
        .into_iter()
        .find(|s| s.name == name)
        .ok_or_else(|| UnknownScenarioError { name: name.to_string() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bh_dram::DramGeometry;
    use bh_mem::AddressMapping;

    #[test]
    fn catalog_names_match_the_attacker_tags() {
        let catalog = scenario_catalog();
        assert!(catalog.len() >= 4, "campaign needs at least four new scenarios");
        for s in &catalog {
            assert_eq!(Some(s.name), s.attacker.tag(), "{}", s.name);
        }
    }

    #[test]
    fn every_scenario_produces_traces_and_victims_on_both_geometries() {
        let mapping = AddressMapping::paper_default();
        for geometry in [DramGeometry::paper_ddr5(), DramGeometry::tiny().with_channels(2)] {
            for s in scenario_catalog() {
                let t = s.attacker.trace(&geometry, mapping, 500, 1);
                assert_eq!(t.len(), 500, "{}", s.name);
                assert!(!s.attacker.victim_rows(&geometry).is_empty(), "{}", s.name);
            }
        }
    }

    #[test]
    fn lookup_by_name_round_trips_and_reports_unknowns() {
        assert_eq!(scenario_by_name("fuzz-nbr").unwrap().name, "fuzz-nbr");
        let err = scenario_by_name("nope").unwrap_err();
        assert!(err.to_string().contains("fuzz-nbr"), "{err}");
    }
}
