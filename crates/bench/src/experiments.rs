//! Shared experiment machinery under the campaign engine and the figures.
//!
//! A [`Campaign`] holds one seed's workload mixes plus the shared alone-IPC
//! cache; [`evaluate_jobs`] evaluates (configuration, mix) cells of it on a
//! worker pool and flattens each into a [`RunRecord`]. The store-backed
//! sweeps of [`crate::campaign`] and the figures of [`crate::figures`]
//! both run on these two.
//!
//! The experiment scale (instruction budget, number of mixes per class, the
//! `N_RH` sweep) defaults to a laptop-friendly "quick" configuration
//! ([`Scale::quick`]) and can be grown towards the paper's scale through
//! `BH_*` environment variables. The README's knob table lists them with
//! their defaults; [`bh_core::knobs::KNOBS`] is the registry both are
//! checked against.
//!
//! Set-but-unparseable variables (garbage, `0` where a positive count is
//! required) fall back to their defaults with a one-time warning on stderr
//! naming the variable and the fallback used; a bad `BH_NRH_LIST` entry is
//! dropped with a warning naming the entry.

use bh_dram::{EccMode, FaultConfig, FaultModel};
use bh_mitigation::MechanismKind;
use bh_sim::{Evaluator, MixEvaluation, SystemConfig, TerminationReason, WatchdogConfig};
use bh_workloads::{
    scenario_by_name, scenario_catalog, MixBuilder, MixClass, TraceGenerator, WorkloadMix,
};
use std::collections::BTreeMap;

/// Experiment scale knobs (see the module documentation for the environment
/// variables that override them).
#[derive(Debug, Clone, PartialEq)]
pub struct Scale {
    /// Instructions each benign core must retire.
    pub instructions_per_core: u64,
    /// Number of workloads generated per mix class (the paper uses 15).
    pub mixes_per_class: usize,
    /// Trace records generated per benign application.
    pub benign_entries: usize,
    /// Trace records generated for the attacker.
    pub attacker_entries: usize,
    /// RowHammer thresholds swept by the scaling figures.
    pub nrh_values: Vec<u64>,
    /// Workload-generation seed.
    pub seed: u64,
    /// Worker threads used to evaluate mixes in parallel.
    pub worker_threads: usize,
    /// Memory channels in the simulated system (1 = the paper's Table 1
    /// system; more shard the memory system into per-channel controllers and
    /// mitigation instances with one shared BreakHammer).
    pub channels: usize,
    /// Attack-scenario names from the composable-attacker catalog swept in
    /// addition to the classic attack mixes (empty = classic attacker only;
    /// `BH_SCENARIOS=all` selects the whole catalog).
    pub scenarios: Vec<String>,
    /// The fault-injection model and ECC scheme applied to every
    /// configuration of the sweep (`BH_FAULT_MODEL`, `BH_FLIP_PROBABILITY`,
    /// `BH_NRH_VARIATION`, `BH_ECC`); the default is the legacy hard
    /// threshold with no ECC.
    pub fault: FaultConfig,
    /// Forward-progress watchdog and per-run budgets applied to every
    /// configuration of the sweep (`BH_WATCHDOG_EPOCH_CYCLES`,
    /// `BH_WATCHDOG_STALL_EPOCHS`, `BH_WATCHDOG_MAX_EPOCHS`,
    /// `BH_WATCHDOG_MAX_PREVENTIVE`); the default keeps the watchdog on with
    /// auto-derived epochs and no budgets.
    pub watchdog: WatchdogConfig,
}

impl Scale {
    /// The laptop-friendly default scale.
    pub fn quick() -> Self {
        Scale {
            instructions_per_core: 60_000,
            mixes_per_class: 1,
            benign_entries: 20_000,
            attacker_entries: 8_000,
            nrh_values: vec![4096, 1024, 256, 64],
            seed: 42,
            worker_threads: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4),
            channels: 1,
            scenarios: Vec::new(),
            fault: FaultConfig::default(),
            watchdog: WatchdogConfig::default(),
        }
    }

    /// Reads the scale from the environment, falling back to
    /// [`Scale::quick`] for anything unspecified. Set-but-unparseable
    /// variables fall back too, with a one-time warning on stderr naming the
    /// variable and the fallback used.
    pub fn from_env() -> Self {
        // Every name `from_lookup_with_warnings` asks for is a registered
        // knob; routing the lookup through `bh_core::knobs::raw` keeps the
        // registry honest (debug builds assert registration).
        let (scale, warnings) = Scale::from_lookup_with_warnings(bh_core::knobs::raw);
        static WARN_ONCE: std::sync::Once = std::sync::Once::new();
        WARN_ONCE.call_once(|| {
            for warning in &warnings {
                eprintln!("warning: {warning}");
            }
        });
        scale
    }

    /// Reads the scale from an arbitrary variable lookup (the injection point
    /// the tests use: mutating real process environment variables under a
    /// parallel test runner races against every other test reading them),
    /// discarding parse warnings.
    pub fn from_lookup(lookup: impl Fn(&str) -> Option<String>) -> Self {
        Scale::from_lookup_with_warnings(lookup).0
    }

    /// Reads the scale from an arbitrary variable lookup, returning the scale
    /// plus one warning per variable that was set but could not be used as
    /// given (garbage, or `0` where a positive count is required). Each
    /// warning names the variable and the fallback applied.
    pub fn from_lookup_with_warnings(
        lookup: impl Fn(&str) -> Option<String>,
    ) -> (Self, Vec<String>) {
        let mut scale = Scale::quick();
        let mut warnings: Vec<String> = Vec::new();
        // A positive count: garbage and 0 both fall back (with a warning).
        let mut count = |name: &str, fallback: u64| -> Option<u64> {
            let raw = lookup(name)?;
            match raw.trim().parse::<u64>() {
                Ok(0) => {
                    warnings.push(format!("{name}=0 is not a positive count; using {fallback}"));
                    None
                }
                Ok(v) => Some(v),
                Err(_) => {
                    warnings.push(format!("{name}={raw:?} is not a number; using {fallback}"));
                    None
                }
            }
        };
        if let Some(v) = count("BH_INSTRUCTIONS", scale.instructions_per_core) {
            scale.instructions_per_core = v;
        }
        if let Some(v) = count("BH_MIXES_PER_CLASS", scale.mixes_per_class as u64) {
            scale.mixes_per_class = v as usize;
        }
        if let Some(v) = count("BH_TRACE_ENTRIES", scale.benign_entries as u64) {
            scale.benign_entries = (v as usize).max(100);
        }
        if let Some(v) = count("BH_ATTACKER_ENTRIES", scale.attacker_entries as u64) {
            scale.attacker_entries = (v as usize).max(100);
        }
        if let Some(v) = count("BH_WORKERS", scale.worker_threads as u64) {
            scale.worker_threads = v as usize;
        }
        if let Some(v) = count("BH_CHANNELS", scale.channels as u64) {
            scale.channels = v as usize;
        }
        // Zero stall epochs would disable the livelock detectors outright;
        // turning the watchdog off has an explicit switch instead.
        if let Some(v) = count("BH_WATCHDOG_STALL_EPOCHS", u64::from(scale.watchdog.stall_epochs)) {
            scale.watchdog.stall_epochs = v.min(u64::from(u32::MAX)) as u32;
        }
        // The seed is any u64 (0 included); only garbage warns.
        if let Some(raw) = lookup("BH_SEED") {
            match raw.trim().parse::<u64>() {
                Ok(v) => scale.seed = v,
                Err(_) => {
                    warnings.push(format!("BH_SEED={raw:?} is not a number; using {}", scale.seed))
                }
            }
        }
        // The watchdog cycle knobs accept 0 (auto epoch length / unlimited
        // budget), so only garbage warns.
        {
            let targets: [(&str, &mut u64); 3] = [
                ("BH_WATCHDOG_EPOCH_CYCLES", &mut scale.watchdog.epoch_cycles),
                ("BH_WATCHDOG_MAX_EPOCHS", &mut scale.watchdog.max_epochs),
                ("BH_WATCHDOG_MAX_PREVENTIVE", &mut scale.watchdog.max_preventive_actions),
            ];
            for (name, slot) in targets {
                let Some(raw) = lookup(name) else { continue };
                match raw.trim().parse::<u64>() {
                    Ok(v) => *slot = v,
                    Err(_) => {
                        warnings.push(format!("{name}={raw:?} is not a number; using {}", *slot))
                    }
                }
            }
        }
        if let Some(list) = lookup("BH_NRH_LIST") {
            // Each entry stands alone: a typo drops that threshold with a
            // warning instead of silently shrinking the sweep. Every
            // mechanism needs N_RH > 0.
            let mut parsed: Vec<u64> = Vec::new();
            for entry in list.split(',').map(str::trim).filter(|s| !s.is_empty()) {
                match entry.parse::<u64>() {
                    Ok(0) => warnings.push(format!(
                        "BH_NRH_LIST entry {entry:?} is not a positive threshold; dropped"
                    )),
                    Ok(v) => parsed.push(v),
                    Err(_) => warnings
                        .push(format!("BH_NRH_LIST entry {entry:?} is not a number; dropped")),
                }
            }
            if parsed.is_empty() {
                warnings.push(format!(
                    "BH_NRH_LIST={list:?} has no parseable thresholds; using {:?}",
                    scale.nrh_values
                ));
            } else {
                scale.nrh_values = parsed;
            }
        }
        if let Some(list) = lookup("BH_SCENARIOS") {
            if list.trim() == "all" {
                scale.scenarios = scenario_catalog().iter().map(|s| s.name.to_string()).collect();
            } else {
                scale.scenarios = list
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect();
                if scale.scenarios.is_empty() {
                    warnings.push(format!(
                        "BH_SCENARIOS={list:?} names no scenarios; sweeping the classic \
                         attacker only"
                    ));
                }
            }
        }
        // The fault-model axis. Probabilities parse independently of the
        // model selector so a later `BH_FAULT_MODEL=probabilistic` run can
        // reuse the same environment.
        let mut unit = |name: &str, fallback: f64| -> f64 {
            let Some(raw) = lookup(name) else { return fallback };
            match raw.trim().parse::<f64>() {
                Ok(v) if (0.0..=1.0).contains(&v) => v,
                _ => {
                    warnings.push(format!(
                        "{name}={raw:?} is not a probability in [0, 1]; using {fallback}"
                    ));
                    fallback
                }
            }
        };
        let flip_probability = unit("BH_FLIP_PROBABILITY", 0.5);
        let nrh_variation = unit("BH_NRH_VARIATION", 0.1).min(0.999);
        if let Some(raw) = lookup("BH_FAULT_MODEL") {
            match raw.trim().to_ascii_lowercase().as_str() {
                "threshold" => scale.fault.model = FaultModel::Threshold,
                "probabilistic" => {
                    scale.fault.model =
                        FaultModel::Probabilistic { flip_probability, nrh_variation }
                }
                _ => warnings.push(format!(
                    "BH_FAULT_MODEL={raw:?} is neither \"threshold\" nor \"probabilistic\"; \
                     using the hard threshold"
                )),
            }
        }
        if let Some(raw) = lookup("BH_ECC") {
            match raw.trim().to_ascii_lowercase().as_str() {
                "none" => scale.fault.ecc = EccMode::None,
                "secded" => scale.fault.ecc = EccMode::SecDed,
                _ => warnings.push(format!(
                    "BH_ECC={raw:?} is neither \"none\" nor \"secded\"; running without ECC"
                )),
            }
        }
        (scale, warnings)
    }

    /// The full seven-point `N_RH` sweep of the paper (4K → 64).
    pub fn paper_nrh_sweep() -> Vec<u64> {
        vec![4096, 2048, 1024, 512, 256, 128, 64]
    }
}

/// One evaluated (configuration, mix) pair, flattened for aggregation.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Mitigation mechanism.
    pub mechanism: MechanismKind,
    /// RowHammer threshold.
    pub nrh: u64,
    /// Whether BreakHammer was attached.
    pub breakhammer: bool,
    /// Mix class label (e.g. `"HHHA"`).
    pub mix_class: String,
    /// Mix instance name.
    pub mix_name: String,
    /// Weighted speedup over the benign applications.
    pub weighted_speedup: f64,
    /// Maximum slowdown of a benign application.
    pub max_slowdown: f64,
    /// DRAM energy in nanojoules.
    pub energy_nj: f64,
    /// RowHammer-preventive actions performed.
    pub preventive_actions: u64,
    /// Benign-application memory-latency percentiles in nanoseconds
    /// (p50, p90, p99).
    pub latency_ns: [f64; 3],
    /// True if the attacker thread was identified as a suspect.
    pub attacker_identified: bool,
    /// True if any benign thread was identified as a suspect.
    pub benign_misidentified: bool,
    /// Would-be RowHammer bitflips (must be 0 for deterministic mechanisms).
    pub bitflips: usize,
    /// Attack-scenario tag of the mix (`None` for the classic attacker and
    /// for benign mixes).
    pub scenario: Option<String>,
    /// Largest end-of-run disturbance of any watched victim row (0 when the
    /// mix declared no victims).
    pub max_victim_disturbance: u64,
    /// Raw bit-flips before ECC (the fault model's output; 0 under the
    /// default hard-threshold model whenever `bitflips` is 0).
    pub flips_raw: u64,
    /// Flips corrected by ECC.
    pub flips_corrected: u64,
    /// Flips detected but not corrected (machine-check events).
    pub flips_detected: u64,
    /// Flips that escaped ECC silently.
    pub flips_silent: u64,
    /// Whether the run satisfied the mix's attack-success criterion.
    pub attack_success: bool,
    /// How the run ended: completed, cut off, livelocked, or out of budget.
    pub termination: TerminationReason,
    /// Rendered livelock diagnostic snapshot (`None` unless `termination`
    /// is [`TerminationReason::Livelock`]).
    pub livelock: Option<String>,
}

impl RunRecord {
    fn from_eval(config: &SystemConfig, mix: &WorkloadMix, eval: &MixEvaluation) -> Self {
        let benign = mix.benign_threads();
        let hist = eval.result.merged_latency(&benign);
        let to_ns = |cycles: u64| config.timing.cycles_to_ns(cycles);
        let attacker_identified =
            mix.attacker_thread.map(|t| eval.result.ever_suspect[t]).unwrap_or(false);
        let benign_misidentified = benign.iter().any(|t| eval.result.ever_suspect[*t]);
        RunRecord {
            mechanism: config.mechanism,
            nrh: config.nrh,
            breakhammer: config.breakhammer,
            mix_class: mix.class.label(),
            mix_name: mix.name.clone(),
            weighted_speedup: eval.weighted_speedup,
            max_slowdown: eval.max_slowdown,
            energy_nj: eval.result.energy_nj,
            preventive_actions: eval.result.preventive_actions,
            latency_ns: [
                to_ns(hist.percentile(50.0)),
                to_ns(hist.percentile(90.0)),
                to_ns(hist.percentile(99.0)),
            ],
            attacker_identified,
            benign_misidentified,
            bitflips: eval.result.bitflips,
            scenario: mix.scenario.clone(),
            max_victim_disturbance: eval.result.max_victim_disturbance(),
            flips_raw: eval.result.outcome.flips_raw,
            flips_corrected: eval.result.outcome.corrected,
            flips_detected: eval.result.outcome.detected,
            flips_silent: eval.result.outcome.silent,
            attack_success: eval.result.outcome.attack_success,
            termination: eval.result.termination,
            livelock: eval.result.livelock.as_ref().map(|report| report.to_string()),
        }
    }
}

/// Builds the paper's Table 1 system configuration at the given experiment
/// scale.
pub fn paper_config(
    mechanism: MechanismKind,
    nrh: u64,
    breakhammer: bool,
    scale: &Scale,
) -> SystemConfig {
    let mut config =
        SystemConfig::paper_table1(mechanism, nrh, breakhammer).with_channels(scale.channels);
    config.instructions_per_core = scale.instructions_per_core;
    config.seed = scale.seed;
    config.fault = scale.fault;
    config.watchdog = scale.watchdog;
    // Bound the worst case (e.g. AQUA at N_RH=64 under attack, without
    // BreakHammer): runs that exceed ~400 DRAM cycles per target instruction
    // are cut off; IPCs measured up to the cut-off remain valid samples.
    config.max_dram_cycles = scale.instructions_per_core.saturating_mul(400).max(5_000_000);
    config
}

/// `mechanisms` × `nrh_values` × `arms` at `scale`, mechanism-major. The
/// `None` mechanism never gets the BreakHammer arm: BreakHammer needs a
/// mechanism to observe.
pub(crate) fn config_grid(
    scale: &Scale,
    mechanisms: &[MechanismKind],
    nrh_values: &[u64],
    arms: &[bool],
) -> Vec<SystemConfig> {
    let mut configs = Vec::new();
    for &mechanism in mechanisms {
        for &nrh in nrh_values {
            for &bh in arms {
                if mechanism != MechanismKind::None || !bh {
                    configs.push(paper_config(mechanism, nrh, bh, scale));
                }
            }
        }
    }
    configs
}

/// A campaign holds one seed's workload mixes and the alone-IPC cache
/// shared by every configuration evaluated against them.
#[derive(Debug)]
pub struct Campaign {
    scale: Scale,
    attack_mixes: Vec<WorkloadMix>,
    benign_mixes: Vec<WorkloadMix>,
    /// Mixes carrying the composable-attacker scenarios of
    /// [`Scale::scenarios`] (appended to `attack_mixes` in attack sweeps).
    scenario_mixes: Vec<WorkloadMix>,
    alone_cache: BTreeMap<String, f64>,
}

impl Campaign {
    /// Generates the attack, benign and scenario mix suites for `scale`.
    ///
    /// # Panics
    /// Panics (listing the catalog) if `scale.scenarios` names an unknown
    /// attack scenario.
    pub fn new(scale: Scale) -> Self {
        let generator = TraceGenerator::new(
            bh_dram::DramGeometry::paper_ddr5().with_channels(scale.channels),
            bh_mem::AddressMapping::paper_default(),
        );
        let mut builder = MixBuilder::new(generator);
        builder.benign_entries = scale.benign_entries;
        builder.attacker_entries = scale.attacker_entries;
        let attack_mixes =
            builder.build_suite(&MixClass::attack_classes(), scale.mixes_per_class, scale.seed);
        let benign_mixes =
            builder.build_suite(&MixClass::benign_classes(), scale.mixes_per_class, scale.seed);
        // Scenario sweeps hold the benign company fixed (the HHHA class) so
        // differences between scenarios isolate the attacker's shape.
        let scenario_class = MixClass::attack_classes()[0];
        let mut scenario_mixes = Vec::new();
        for name in &scale.scenarios {
            let scenario = scenario_by_name(name).unwrap_or_else(|e| panic!("{e}"));
            let scenario_builder = builder.clone().with_scenario(&scenario);
            for index in 0..scale.mixes_per_class {
                scenario_mixes.push(scenario_builder.build(scenario_class, index, scale.seed));
            }
        }
        Campaign { scale, attack_mixes, benign_mixes, scenario_mixes, alone_cache: BTreeMap::new() }
    }

    /// The experiment scale in use.
    pub fn scale(&self) -> &Scale {
        &self.scale
    }

    /// The mixes an attack (or benign) sweep evaluates: attack sweeps cover
    /// the classic attack suite plus every requested scenario suite. Cloning
    /// a mix bumps trace reference counts, it does not copy records.
    pub fn sweep_mixes(&self, attack: bool) -> Vec<WorkloadMix> {
        if attack {
            self.attack_mixes.iter().chain(self.scenario_mixes.iter()).cloned().collect()
        } else {
            self.benign_mixes.to_vec()
        }
    }

    /// Warms (once) and returns the shared alone-IPC cache covering every
    /// application of every mix suite. Alone baselines are measured on the
    /// unprotected system, so one cache serves every configuration of a
    /// sweep.
    pub fn warmed_alone_cache(&mut self) -> &BTreeMap<String, f64> {
        self.warm_alone_cache();
        &self.alone_cache
    }

    /// Ensures the alone-IPC cache covers every application of every mix.
    fn warm_alone_cache(&mut self) {
        if !self.alone_cache.is_empty() {
            return;
        }
        let config = paper_config(MechanismKind::None, 4096, false, &self.scale);
        let mut evaluator = Evaluator::new(config);
        for mix in self
            .attack_mixes
            .iter()
            .chain(self.benign_mixes.iter())
            .chain(self.scenario_mixes.iter())
        {
            evaluator.warm_alone_cache(mix);
        }
        self.alone_cache = evaluator.alone_cache().clone();
    }
}

/// Fault-injection and observation hooks threaded through [`evaluate_jobs`].
///
/// The two `force_*` patterns are the test hooks behind the campaign CLI's
/// `BH_TEST_FORCE_PANIC_MIX` / `BH_TEST_FORCE_SPIN_MIX` environment knobs;
/// the two callbacks fire on the worker threads (claiming a job, finishing a
/// cell) and are how the campaign engine streams checkpoints and feeds its
/// wall-clock overseer. Plain sweeps use [`EvalHooks::none`].
pub struct EvalHooks<'a> {
    /// Cells whose mix name contains this pattern panic before evaluating,
    /// exercising the sweep's panic-isolation path end to end.
    pub force_panic_mix: Option<&'a str>,
    /// Cells whose mix name contains this pattern evaluate under an injected
    /// livelock (`ChaosConfig::drop_fills_after` plus a tight watchdog), so
    /// the run ends with a deterministic `Livelock` verdict. Only the
    /// evaluated configuration is mutated — cell identity stays that of the
    /// base configuration.
    pub force_spin_mix: Option<&'a str>,
    /// Fires on the worker thread when it claims job `i`, before evaluation.
    pub on_claim: &'a (dyn Fn(usize) + Sync),
    /// Fires on the worker thread as soon as cell `i` completes or panics.
    pub on_record: &'a (dyn Fn(usize, Result<&RunRecord, &str>) + Sync),
}

impl EvalHooks<'_> {
    /// No fault injection, no observers — the plain-sweep default.
    pub fn none() -> EvalHooks<'static> {
        EvalHooks {
            force_panic_mix: None,
            force_spin_mix: None,
            on_claim: &|_| {},
            on_record: &|_, _| {},
        }
    }
}

impl std::fmt::Debug for EvalHooks<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EvalHooks")
            .field("force_panic_mix", &self.force_panic_mix)
            .field("force_spin_mix", &self.force_spin_mix)
            .finish_non_exhaustive()
    }
}

/// Evaluates a set of `(config index, mix index)` jobs with a pool of
/// `workers` threads pulling from a shared work-stealing counter, and returns
/// one [`RunRecord`] per job, in `jobs` order.
///
/// Each worker keeps its completed records in a thread-local vector (tagged
/// with the job index) that is stitched into the result after the scope
/// joins — there is no shared result lock on the hot path. Workers also reuse
/// one [`Evaluator`] across consecutive jobs, switching its configuration
/// only when the claimed job's config index changes (the alone-IPC cache is
/// configuration-independent, see [`Evaluator::set_config`]); since jobs are
/// flattened configuration-major, a worker claiming consecutive indices
/// rarely pays the switch.
///
/// `hooks` carries the fault-injection patterns and the per-cell callbacks
/// (see [`EvalHooks`]).
///
/// Every cell runs under [`std::panic::catch_unwind`], so one panicking
/// (configuration, mix) pair costs exactly that cell: its slot comes back as
/// `Err(panic message)`, the worker discards its (possibly inconsistent)
/// evaluator and rebuilds on the next claimed job, and every other cell still
/// completes.
pub fn evaluate_jobs(
    configs: &[SystemConfig],
    mixes: &[WorkloadMix],
    jobs: &[(usize, usize)],
    alone_cache: &BTreeMap<String, f64>,
    workers: usize,
    hooks: &EvalHooks<'_>,
) -> Vec<Result<RunRecord, String>> {
    let workers = workers.clamp(1, jobs.len().max(1));
    let next = std::sync::atomic::AtomicUsize::new(0);

    let worker_outputs: Vec<Vec<(usize, Result<RunRecord, String>)>> =
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut local: Vec<(usize, Result<RunRecord, String>)> = Vec::new();
                        let mut evaluator: Option<Evaluator> = None;
                        let mut current_config = usize::MAX;
                        loop {
                            let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            if i >= jobs.len() {
                                break;
                            }
                            let (c, m) = jobs[i];
                            (hooks.on_claim)(i);
                            let cell =
                                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                    if let Some(pattern) = hooks.force_panic_mix {
                                        assert!(
                                            !mixes[m].name.contains(pattern),
                                            "forced test panic for mix {}",
                                            mixes[m].name
                                        );
                                    }
                                    let spin = hooks
                                        .force_spin_mix
                                        .is_some_and(|p| mixes[m].name.contains(p));
                                    if current_config != c || spin {
                                        let mut config = configs[c].clone();
                                        if spin {
                                            // Injected livelock: fills stop
                                            // completing shortly into the run
                                            // and a tight watchdog classifies
                                            // the cell within a few epochs.
                                            config.chaos.drop_fills_after = Some(1_000);
                                            config.watchdog.enabled = true;
                                            config.watchdog.epoch_cycles = 5_000;
                                            config.watchdog.stall_epochs = 4;
                                        }
                                        match &mut evaluator {
                                            Some(ev) => ev.set_config(config),
                                            None => {
                                                evaluator = Some(
                                                    Evaluator::new(config)
                                                        .with_alone_cache(alone_cache.clone()),
                                                )
                                            }
                                        }
                                        // A spin cell leaves the evaluator on
                                        // the mutated configuration; force the
                                        // next claim to reset it.
                                        current_config = if spin { usize::MAX } else { c };
                                    }
                                    let ev =
                                        evaluator.as_mut().expect("evaluator initialised above");
                                    let eval = ev.evaluate(&mixes[m]);
                                    RunRecord::from_eval(&configs[c], &mixes[m], &eval)
                                }));
                            match cell {
                                Ok(record) => {
                                    (hooks.on_record)(i, Ok(&record));
                                    local.push((i, Ok(record)));
                                }
                                Err(payload) => {
                                    // The evaluator may hold a half-updated
                                    // alone cache or configuration; rebuild it
                                    // before the next cell.
                                    evaluator = None;
                                    current_config = usize::MAX;
                                    let message = payload
                                        .downcast_ref::<String>()
                                        .cloned()
                                        .or_else(|| {
                                            payload.downcast_ref::<&str>().map(|s| s.to_string())
                                        })
                                        .unwrap_or_else(|| "unknown panic payload".to_string());
                                    (hooks.on_record)(i, Err(&message));
                                    local.push((i, Err(message)));
                                }
                            }
                        }
                        local
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("evaluation worker panicked")).collect()
        });

    let mut slots: Vec<Option<Result<RunRecord, String>>> = vec![None; jobs.len()];
    for (i, outcome) in worker_outputs.into_iter().flatten() {
        slots[i] = Some(outcome);
    }
    slots.into_iter().map(|slot| slot.expect("every job was evaluated")).collect()
}

#[cfg(test)]
#[allow(clippy::disallowed_types)] // test-only hash collections: assertion sets and reference models, never digest-bearing
mod tests {
    use super::*;

    #[test]
    fn scale_lookup_overrides_are_applied() {
        // `from_lookup` is the injection point: mutating real environment
        // variables under the parallel test runner would race against every
        // other test that reads the scale.
        let vars: std::collections::HashMap<&str, &str> = [
            ("BH_INSTRUCTIONS", "5000"),
            ("BH_NRH_LIST", "128, 64"),
            ("BH_MIXES_PER_CLASS", "2"),
            ("BH_ATTACKER_ENTRIES", "1234"),
            ("BH_WORKERS", "5"),
        ]
        .into_iter()
        .collect();
        let scale = Scale::from_lookup(|name| vars.get(name).map(|v| v.to_string()));
        assert_eq!(scale.instructions_per_core, 5000);
        assert_eq!(scale.nrh_values, vec![128, 64]);
        assert_eq!(scale.mixes_per_class, 2);
        assert_eq!(scale.attacker_entries, 1234);
        assert_eq!(scale.worker_threads, 5);
        // Unset variables keep their quick defaults.
        assert_eq!(scale.benign_entries, Scale::quick().benign_entries);
        assert!(scale.scenarios.is_empty(), "scenarios default to none");
    }

    #[test]
    fn scenario_lookup_accepts_names_and_the_all_keyword() {
        let named = Scale::from_lookup(|name| {
            (name == "BH_SCENARIOS").then(|| "fuzz-nbr, press-nbr".to_string())
        });
        assert_eq!(named.scenarios, vec!["fuzz-nbr", "press-nbr"]);
        let all = Scale::from_lookup(|name| (name == "BH_SCENARIOS").then(|| "all".to_string()));
        assert_eq!(
            all.scenarios,
            scenario_catalog().iter().map(|s| s.name.to_string()).collect::<Vec<_>>()
        );
        assert!(all.scenarios.len() >= 4);
    }

    #[test]
    fn unparseable_lookup_values_fall_back_to_defaults() {
        let scale = Scale::from_lookup(|name| {
            (name == "BH_INSTRUCTIONS").then(|| "not-a-number".to_string())
        });
        assert_eq!(scale, Scale::quick());
    }

    #[test]
    fn set_but_unusable_variables_warn_with_the_fallback() {
        let (scale, warnings) = Scale::from_lookup_with_warnings(|name| match name {
            "BH_WORKERS" => Some("banana".to_string()),
            "BH_CHANNELS" => Some("0".to_string()),
            "BH_SCENARIOS" => Some(" , ,".to_string()),
            "BH_FAULT_MODEL" => Some("maybe".to_string()),
            "BH_NRH_LIST" => Some("4096,1O24,0".to_string()),
            _ => None,
        });
        assert_eq!(
            scale,
            Scale { nrh_values: vec![4096], ..Scale::quick() },
            "every bad value falls back to the default; bad N_RH entries are dropped"
        );
        assert_eq!(warnings.len(), 6, "{warnings:?}");
        assert!(warnings.iter().any(|w| w.contains("BH_WORKERS") && w.contains("banana")));
        assert!(warnings.iter().any(|w| w.contains("BH_CHANNELS=0")));
        assert!(warnings.iter().any(|w| w.contains("BH_SCENARIOS")));
        assert!(warnings.iter().any(|w| w.contains("BH_FAULT_MODEL")));
        assert!(warnings.iter().any(|w| w.contains("BH_NRH_LIST") && w.contains("\"1O24\"")));
        assert!(warnings.iter().any(|w| w.contains("BH_NRH_LIST") && w.contains("\"0\"")));
        let (_, clean) = Scale::from_lookup_with_warnings(|_| None);
        assert!(clean.is_empty(), "unset variables must not warn");
    }

    #[test]
    fn watchdog_env_knobs_are_parsed() {
        let (scale, warnings) = Scale::from_lookup_with_warnings(|name| match name {
            "BH_WATCHDOG_EPOCH_CYCLES" => Some("25000".to_string()),
            "BH_WATCHDOG_STALL_EPOCHS" => Some("3".to_string()),
            "BH_WATCHDOG_MAX_EPOCHS" => Some("900".to_string()),
            "BH_WATCHDOG_MAX_PREVENTIVE" => Some("50".to_string()),
            _ => None,
        });
        assert!(warnings.is_empty(), "{warnings:?}");
        assert_eq!(scale.watchdog.epoch_cycles, 25_000);
        assert_eq!(scale.watchdog.stall_epochs, 3);
        assert_eq!(scale.watchdog.max_epochs, 900);
        assert_eq!(scale.watchdog.max_preventive_actions, 50);

        // 0 is a meaningful value, not garbage: auto epoch sizing and
        // unlimited budgets.
        let (zeros, zero_warnings) = Scale::from_lookup_with_warnings(|name| {
            name.starts_with("BH_WATCHDOG_").then(|| "0".to_string())
        });
        assert!(zero_warnings.iter().all(|w| !w.contains("BH_WATCHDOG_MAX")), "{zero_warnings:?}");
        assert_eq!(zeros.watchdog.epoch_cycles, 0, "0 = derive from the BreakHammer window");
        assert_eq!(zeros.watchdog.max_epochs, 0, "0 = unlimited");
        assert_eq!(zeros.watchdog.max_preventive_actions, 0, "0 = unlimited");

        let (garbage, garbage_warnings) = Scale::from_lookup_with_warnings(|name| {
            (name == "BH_WATCHDOG_MAX_EPOCHS").then(|| "soon".to_string())
        });
        assert_eq!(garbage.watchdog, Scale::quick().watchdog);
        assert!(
            garbage_warnings.iter().any(|w| w.contains("BH_WATCHDOG_MAX_EPOCHS")),
            "{garbage_warnings:?}"
        );
    }

    #[test]
    fn fault_model_env_knobs_are_parsed() {
        let (scale, warnings) = Scale::from_lookup_with_warnings(|name| match name {
            "BH_FAULT_MODEL" => Some("probabilistic".to_string()),
            "BH_FLIP_PROBABILITY" => Some("0.25".to_string()),
            "BH_NRH_VARIATION" => Some("0.2".to_string()),
            "BH_ECC" => Some("secded".to_string()),
            _ => None,
        });
        assert!(warnings.is_empty(), "{warnings:?}");
        assert_eq!(
            scale.fault.model,
            FaultModel::Probabilistic { flip_probability: 0.25, nrh_variation: 0.2 }
        );
        assert_eq!(scale.fault.ecc, EccMode::SecDed);
        // The fault axis reaches the system configuration.
        let config = paper_config(MechanismKind::Graphene, 1024, true, &scale);
        assert_eq!(config.fault, scale.fault);
        assert_eq!(config.validate(), Ok(()));
    }

    #[test]
    fn paper_nrh_sweep_matches_the_figures() {
        assert_eq!(Scale::paper_nrh_sweep(), vec![4096, 2048, 1024, 512, 256, 128, 64]);
    }

    #[test]
    fn campaign_builds_the_requested_mix_suites() {
        let mut scale = Scale::quick();
        scale.mixes_per_class = 2;
        scale.benign_entries = 500;
        scale.attacker_entries = 500;
        let campaign = Campaign::new(scale);
        let (attack, benign) = (campaign.sweep_mixes(true), campaign.sweep_mixes(false));
        assert_eq!(attack.len(), 12, "no scenarios requested: the classic attack suite only");
        assert_eq!(benign.len(), 12);
        assert!(attack.iter().all(|m| m.attacker_thread.is_some() && m.scenario.is_none()));
        assert!(benign.iter().all(|m| m.attacker_thread.is_none()));
    }

    #[test]
    fn scenario_suites_join_the_attack_sweep() {
        let mut scale = Scale::quick();
        scale.benign_entries = 500;
        scale.attacker_entries = 500;
        scale.scenarios = scenario_catalog().iter().map(|s| s.name.to_string()).collect();
        let campaign = Campaign::new(scale);
        let sweep = campaign.sweep_mixes(true);
        // The classic suite first, then one mix per catalog scenario.
        let (classic, scenarios) = sweep.split_at(sweep.len() - scenario_catalog().len());
        assert_eq!(classic.len(), 6);
        assert!(classic.iter().all(|m| m.scenario.is_none()));
        for (mix, scenario) in scenarios.iter().zip(scenario_catalog()) {
            assert_eq!(mix.scenario.as_deref(), Some(scenario.name));
            assert!(mix.name.contains(scenario.name), "{}", mix.name);
            assert!(mix.attacker_thread.is_some());
            assert!(!mix.victim_rows.is_empty(), "{}", mix.name);
        }
        assert_eq!(campaign.sweep_mixes(false).len(), 6);
    }

    #[test]
    #[should_panic(expected = "unknown attack scenario")]
    fn unknown_scenario_names_are_rejected_with_the_catalog() {
        let mut scale = Scale::quick();
        scale.scenarios = vec!["not-a-scenario".to_string()];
        let _ = Campaign::new(scale);
    }
}
