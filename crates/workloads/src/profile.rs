//! Benign-workload profiles.
//!
//! The paper draws benign applications from SPEC CPU2006/2017, TPC,
//! MediaBench and YCSB and groups them into High / Medium / Low memory
//! intensity by their row-buffer misses per kilo-instruction (RBMPKI ≥ 20,
//! ≥ 10 and < 10 respectively). Since the proprietary traces are not
//! available, this module defines synthetic profiles whose generated traces
//! reproduce the two properties that drive every result in the paper:
//!
//! 1. the memory intensity class (how often the thread misses the LLC), and
//! 2. the hot-row behaviour of Table 3 (how many DRAM rows collect 64+, 128+
//!    or 512+ activations per 64 ms window), which determines how often a
//!    *benign* thread triggers RowHammer-preventive actions at low `N_RH`.

use std::fmt;

/// A benign-profile lookup failed: the requested name is not in the library.
///
/// Carries the offending name and the list of known profiles, so a typo in a
/// workload configuration surfaces as an actionable error instead of
/// crashing a long simulation campaign half-way through.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownProfileError {
    /// The name that failed to resolve.
    pub name: String,
    /// Every name the library does know, for the error message.
    pub known: Vec<&'static str>,
}

impl fmt::Display for UnknownProfileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown benign profile `{}` (known profiles: {})",
            self.name,
            self.known.join(", ")
        )
    }
}

impl std::error::Error for UnknownProfileError {}

/// Memory-intensity class of an application (Table 3 / §7 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IntensityClass {
    /// RBMPKI ≥ 20.
    High,
    /// 10 ≤ RBMPKI < 20.
    Medium,
    /// RBMPKI < 10.
    Low,
}

impl IntensityClass {
    /// Single-letter label used in mix names (H / M / L).
    pub fn letter(self) -> char {
        match self {
            IntensityClass::High => 'H',
            IntensityClass::Medium => 'M',
            IntensityClass::Low => 'L',
        }
    }
}

/// A synthetic benign-application profile.
#[derive(Debug, Clone, PartialEq)]
pub struct BenignProfile {
    /// Workload name (named after the benchmark it is modelled on).
    pub name: &'static str,
    /// Intensity class.
    pub class: IntensityClass,
    /// Memory accesses per kilo-instruction issued by the core (before cache
    /// filtering). Because the generated footprints are much larger than the
    /// LLC, most of these become row-buffer misses, so this value tracks the
    /// paper's RBMPKI closely.
    pub apki: f64,
    /// Probability that the next access stays within the current DRAM row
    /// (streaming locality → row-buffer hits instead of activations).
    pub row_locality: f64,
    /// Fraction of accesses directed at a small set of hot rows.
    pub hot_row_fraction: f64,
    /// Number of hot rows per bank the profile hammers organically.
    pub hot_rows: usize,
    /// Total footprint in DRAM rows (spread over all banks).
    pub footprint_rows: usize,
    /// Fraction of accesses that are stores.
    pub write_fraction: f64,
}

impl BenignProfile {
    /// The library of named profiles, modelled on the paper's benchmark
    /// selection: the eight most memory-intensive workloads of Table 3 plus
    /// medium- and low-intensity applications from SPEC / TPC / MediaBench /
    /// YCSB.
    pub fn library() -> Vec<BenignProfile> {
        use IntensityClass::*;
        vec![
            // --- High intensity (Table 3) -----------------------------------
            BenignProfile {
                name: "mcf",
                class: High,
                apki: 68.0,
                row_locality: 0.15,
                hot_row_fraction: 0.45,
                hot_rows: 640,
                footprint_rows: 40_000,
                write_fraction: 0.20,
            },
            BenignProfile {
                name: "lbm06",
                class: High,
                apki: 28.0,
                row_locality: 0.35,
                hot_row_fraction: 0.30,
                hot_rows: 200,
                footprint_rows: 30_000,
                write_fraction: 0.35,
            },
            BenignProfile {
                name: "libquantum",
                class: High,
                apki: 26.0,
                row_locality: 0.70,
                hot_row_fraction: 0.0,
                hot_rows: 0,
                footprint_rows: 24_000,
                write_fraction: 0.25,
            },
            BenignProfile {
                name: "fotonik3d",
                class: High,
                apki: 25.0,
                row_locality: 0.45,
                hot_row_fraction: 0.10,
                hot_rows: 96,
                footprint_rows: 28_000,
                write_fraction: 0.30,
            },
            BenignProfile {
                name: "gemsfdtd",
                class: High,
                apki: 25.0,
                row_locality: 0.40,
                hot_row_fraction: 0.12,
                hot_rows: 128,
                footprint_rows: 28_000,
                write_fraction: 0.30,
            },
            BenignProfile {
                name: "lbm17",
                class: High,
                apki: 24.0,
                row_locality: 0.35,
                hot_row_fraction: 0.28,
                hot_rows: 180,
                footprint_rows: 26_000,
                write_fraction: 0.35,
            },
            BenignProfile {
                name: "zeusmp",
                class: High,
                apki: 22.0,
                row_locality: 0.30,
                hot_row_fraction: 0.25,
                hot_rows: 256,
                footprint_rows: 24_000,
                write_fraction: 0.25,
            },
            BenignProfile {
                name: "parest",
                class: High,
                apki: 20.0,
                row_locality: 0.40,
                hot_row_fraction: 0.08,
                hot_rows: 64,
                footprint_rows: 20_000,
                write_fraction: 0.20,
            },
            // --- Medium intensity --------------------------------------------
            BenignProfile {
                name: "xalancbmk",
                class: Medium,
                apki: 14.0,
                row_locality: 0.30,
                hot_row_fraction: 0.10,
                hot_rows: 48,
                footprint_rows: 16_000,
                write_fraction: 0.20,
            },
            BenignProfile {
                name: "cactusadm",
                class: Medium,
                apki: 12.0,
                row_locality: 0.45,
                hot_row_fraction: 0.08,
                hot_rows: 32,
                footprint_rows: 14_000,
                write_fraction: 0.30,
            },
            BenignProfile {
                name: "tpcc",
                class: Medium,
                apki: 11.0,
                row_locality: 0.25,
                hot_row_fraction: 0.15,
                hot_rows: 64,
                footprint_rows: 18_000,
                write_fraction: 0.35,
            },
            BenignProfile {
                name: "ycsb-a",
                class: Medium,
                apki: 10.0,
                row_locality: 0.25,
                hot_row_fraction: 0.12,
                hot_rows: 48,
                footprint_rows: 16_000,
                write_fraction: 0.40,
            },
            // --- Low intensity -----------------------------------------------
            BenignProfile {
                name: "povray",
                class: Low,
                apki: 1.0,
                row_locality: 0.60,
                hot_row_fraction: 0.05,
                hot_rows: 8,
                footprint_rows: 4_000,
                write_fraction: 0.15,
            },
            BenignProfile {
                name: "calculix",
                class: Low,
                apki: 2.0,
                row_locality: 0.55,
                hot_row_fraction: 0.05,
                hot_rows: 8,
                footprint_rows: 5_000,
                write_fraction: 0.20,
            },
            BenignProfile {
                name: "h264-dec",
                class: Low,
                apki: 3.0,
                row_locality: 0.65,
                hot_row_fraction: 0.04,
                hot_rows: 8,
                footprint_rows: 6_000,
                write_fraction: 0.25,
            },
            BenignProfile {
                name: "ycsb-c",
                class: Low,
                apki: 4.5,
                row_locality: 0.30,
                hot_row_fraction: 0.08,
                hot_rows: 16,
                footprint_rows: 8_000,
                write_fraction: 0.10,
            },
        ]
    }

    /// Profiles of a given intensity class.
    pub fn of_class(class: IntensityClass) -> Vec<BenignProfile> {
        BenignProfile::library().into_iter().filter(|p| p.class == class).collect()
    }

    /// Looks up a profile by name.
    pub fn by_name(name: &str) -> Option<BenignProfile> {
        BenignProfile::library().into_iter().find(|p| p.name.eq_ignore_ascii_case(name))
    }

    /// Looks up a profile by name, threading an actionable error instead of
    /// leaving the caller to `unwrap` an [`Option`] (an unknown name used to
    /// crash whole simulation campaigns with a bare `unwrap` panic).
    ///
    /// # Errors
    /// Returns [`UnknownProfileError`] — naming the known profiles — if no
    /// profile matches.
    pub fn resolve(name: &str) -> Result<BenignProfile, UnknownProfileError> {
        BenignProfile::by_name(name).ok_or_else(|| UnknownProfileError {
            name: name.to_string(),
            known: BenignProfile::library().iter().map(|p| p.name).collect(),
        })
    }

    /// The eight most memory-intensive profiles, mirroring Table 3.
    pub fn table3_profiles() -> Vec<BenignProfile> {
        BenignProfile::of_class(IntensityClass::High)
    }

    /// Validates that the profile's parameters are internally consistent.
    pub fn validate(&self) -> Result<(), String> {
        let unit = |v: f64, what: &str| {
            if (0.0..=1.0).contains(&v) {
                Ok(())
            } else {
                Err(format!("{what} must be in [0, 1], got {v}"))
            }
        };
        if !(self.apki > 0.0 && self.apki < 1000.0) {
            return Err(format!("APKI must be in (0, 1000), got {}", self.apki));
        }
        unit(self.row_locality, "row locality")?;
        unit(self.hot_row_fraction, "hot-row fraction")?;
        unit(self.write_fraction, "write fraction")?;
        if self.hot_row_fraction > 0.0 && self.hot_rows == 0 {
            return Err("a non-zero hot-row fraction needs at least one hot row".to_string());
        }
        if self.footprint_rows == 0 {
            return Err("the footprint must cover at least one row".to_string());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn library_is_valid_and_covers_all_classes() {
        let lib = BenignProfile::library();
        assert!(lib.len() >= 16);
        for p in &lib {
            assert_eq!(p.validate(), Ok(()), "profile {}", p.name);
        }
        for class in [IntensityClass::High, IntensityClass::Medium, IntensityClass::Low] {
            assert!(
                BenignProfile::of_class(class).len() >= 4,
                "need at least 4 profiles of class {class:?} to build mixes"
            );
        }
    }

    #[test]
    fn class_thresholds_match_the_paper() {
        for p in BenignProfile::library() {
            match p.class {
                IntensityClass::High => assert!(p.apki >= 20.0, "{}", p.name),
                IntensityClass::Medium => assert!(p.apki >= 10.0 && p.apki < 20.0, "{}", p.name),
                IntensityClass::Low => assert!(p.apki < 10.0, "{}", p.name),
            }
        }
    }

    #[test]
    fn table3_has_eight_high_intensity_workloads() {
        let t3 = BenignProfile::table3_profiles();
        assert_eq!(t3.len(), 8);
        assert_eq!(t3[0].name, "mcf");
        assert!(t3[0].apki > 60.0);
    }

    #[test]
    fn lookup_by_name_is_case_insensitive() {
        assert!(BenignProfile::by_name("MCF").is_some());
        assert!(BenignProfile::by_name("does-not-exist").is_none());
    }

    #[test]
    fn resolve_threads_an_actionable_error_for_unknown_names() {
        assert_eq!(BenignProfile::resolve("mcf").unwrap().name, "mcf");
        let err = BenignProfile::resolve("does-not-exist").unwrap_err();
        assert_eq!(err.name, "does-not-exist");
        assert!(err.known.contains(&"mcf"));
        let msg = err.to_string();
        assert!(msg.contains("does-not-exist"), "{msg}");
        assert!(msg.contains("mcf"), "error must list the known profiles: {msg}");
        // It is a real error type, so `?` works in campaign code.
        let _: &dyn std::error::Error = &err;
    }

    #[test]
    fn class_letters() {
        assert_eq!(IntensityClass::High.letter(), 'H');
        assert_eq!(IntensityClass::Medium.letter(), 'M');
        assert_eq!(IntensityClass::Low.letter(), 'L');
    }

    #[test]
    fn validation_rejects_bad_profiles() {
        let mut p = BenignProfile::by_name("mcf").unwrap();
        p.apki = 0.0;
        assert!(p.validate().is_err());
        let mut p = BenignProfile::by_name("mcf").unwrap();
        p.row_locality = 1.5;
        assert!(p.validate().is_err());
        let mut p = BenignProfile::by_name("mcf").unwrap();
        p.hot_rows = 0;
        assert!(p.validate().is_err());
        let mut p = BenignProfile::by_name("mcf").unwrap();
        p.footprint_rows = 0;
        assert!(p.validate().is_err());
    }
}
