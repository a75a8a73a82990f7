//! `cellbench` — the campaign-cell benchmark's grids and the sweep path it
//! measures.
//!
//! The benchmark drives the production campaign path of `bh_bench` over
//! three fixed grids ([`Workload`]). This library holds everything that is
//! *measured* and none of the measuring: the grid definitions, the per-seed
//! cell listing, the sweep loop (a line-for-line mirror of
//! [`bh_bench::CampaignSpec::run`] with the overseer replaced by caller
//! hooks), and the deterministic result checks (record digest and the exact
//! paper metrics). The wall clock lives in `benches/cells.rs`, the only
//! place that reads it.
//!
//! `tests/production_path.rs` proves the mirror: a small grid swept here
//! writes the same store, line for line modulo order, as `bh_campaign sweep`.

use bh_bench::campaign::{cell_id, config_digest, failed_line, record_line};
use bh_bench::{evaluate_jobs, paper_config, Campaign, CampaignSpec, CellRecord, EvalHooks};
use bh_bench::{ResultStore, RunRecord, Scale};
use bh_mitigation::MechanismKind;
use bh_sim::SystemConfig;
use bh_workloads::WorkloadMix;
use std::collections::BTreeMap;

/// The seed every pinned digest refers to.
pub const DEFAULT_SEED: u64 = 42;

/// The RowHammer threshold of every grid: the paper's lowest, where
/// preventive actions and BreakHammer throttling are densest.
pub const GRID_NRH: u64 = 64;

/// Mechanisms whose protection is deterministic and controller-visible:
/// any bitflip in their cells is a security defect. PARA is probabilistic
/// and REGA's refresh happens inside the chip (unmodelled by the victim
/// tracker), as in `tests/security_invariants.rs`.
pub const DETERMINISTIC: [MechanismKind; 5] = [
    MechanismKind::Graphene,
    MechanismKind::Hydra,
    MechanismKind::Twice,
    MechanismKind::Aqua,
    MechanismKind::Prac,
];

/// The three benchmark workloads. Each is a closed loop with one worker over
/// N_RH 64 × the eight paper mechanisms × BreakHammer off/on × six mix
/// classes × two seeds = 192 cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One channel, attack suite (HHHA … LLLA): the paper's headline setting.
    AttackSweep,
    /// One channel, benign suite (HHHH … LLLL): BreakHammer nearly idle.
    BenignSweep,
    /// The attack suite on a four-channel sharded memory system.
    MultichannelAttack,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] =
        [Workload::AttackSweep, Workload::BenignSweep, Workload::MultichannelAttack];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::AttackSweep => "attack_sweep",
            Workload::BenignSweep => "benign_sweep",
            Workload::MultichannelAttack => "multichannel_attack",
        }
    }

    /// The workload with the given name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the grid sweeps the attack suite.
    pub fn attack(self) -> bool {
        self != Workload::BenignSweep
    }

    /// Memory channels of the simulated system.
    pub fn channels(self) -> usize {
        match self {
            Workload::MultichannelAttack => 4,
            Workload::AttackSweep | Workload::BenignSweep => 1,
        }
    }

    /// The workload's grid for `seed`: cells at `seed` and `seed + 1`.
    pub fn spec(self, seed: u64) -> CampaignSpec {
        let mut scale = Scale::quick();
        scale.worker_threads = 1;
        scale.channels = self.channels();
        scale.nrh_values = vec![GRID_NRH];
        scale.seed = seed;
        let mut spec = CampaignSpec::from_scale(
            scale,
            MechanismKind::paper_mechanisms().to_vec(),
            self.attack(),
        );
        spec.seeds = vec![seed, seed + 1];
        spec
    }

    /// The record digest pinned at [`DEFAULT_SEED`]; a run at that seed whose
    /// store folds to anything else is wrong.
    pub fn pinned_digest(self) -> u64 {
        match self {
            Workload::AttackSweep => 0x7bcd_c5ea_8ef3_72a9,
            Workload::BenignSweep => 0xf706_646b_b7dd_eb24,
            Workload::MultichannelAttack => 0x6364_b72e_9f50_711e,
        }
    }
}

/// The configuration matrix of `spec` at `scale`, in the order
/// [`CampaignSpec::run`] evaluates it.
fn configs(spec: &CampaignSpec, scale: &Scale) -> Vec<SystemConfig> {
    let mut configs = Vec::new();
    for &mechanism in &spec.mechanisms {
        for &nrh in &spec.nrh_values {
            for &bh in &spec.breakhammer_options {
                if mechanism == MechanismKind::None && bh {
                    continue;
                }
                configs.push(paper_config(mechanism, nrh, bh, scale));
            }
        }
    }
    configs
}

/// One seed's slice of a grid: the mixes, configurations, jobs and cell ids
/// a sweep evaluates, plus the warmed alone-IPC cache.
#[derive(Debug)]
pub struct SeedGrid {
    /// Workload-generation seed.
    pub seed: u64,
    /// Whether the slice sweeps the attack suite.
    pub attack: bool,
    /// Worker threads evaluating the slice.
    pub workers: usize,
    /// Configuration matrix.
    pub configs: Vec<SystemConfig>,
    /// Mix suite.
    pub mixes: Vec<WorkloadMix>,
    /// `(config index, mix index)` per cell, configuration-major.
    pub jobs: Vec<(usize, usize)>,
    /// Cell id per job.
    pub cells: Vec<String>,
    /// Alone-IPC baselines shared by every cell.
    pub alone: BTreeMap<String, f64>,
}

impl SeedGrid {
    /// The slice of `spec` at `seed`, from that seed's campaign. Warms the
    /// campaign's alone cache unless the caller already has (the benchmark
    /// does, to time the set-up on its own).
    pub fn new(spec: &CampaignSpec, seed: u64, campaign: &mut Campaign) -> SeedGrid {
        let scale = campaign.scale().clone();
        assert_eq!(scale.seed, seed, "campaign was built for another seed");
        let mixes = campaign.sweep_mixes(spec.attack);
        let configs = configs(spec, &scale);
        let mut jobs = Vec::new();
        let mut cells = Vec::new();
        for (c, config) in configs.iter().enumerate() {
            let digest = config_digest(config);
            for (m, mix) in mixes.iter().enumerate() {
                jobs.push((c, m));
                cells.push(format!("{digest}/{}/{seed}", mix.name));
            }
        }
        let alone = campaign.warmed_alone_cache().clone();
        SeedGrid {
            seed,
            attack: spec.attack,
            workers: scale.worker_threads,
            configs,
            mixes,
            jobs,
            cells,
            alone,
        }
    }

    /// The campaign scale for `seed` (the spec's scale with the seed set).
    pub fn scale(spec: &CampaignSpec, seed: u64) -> Scale {
        let mut scale = spec.scale.clone();
        scale.seed = seed;
        scale
    }

    /// Cell id of job `i`, recomputed through the public identity function.
    pub fn cell_id(&self, i: usize) -> String {
        let (c, m) = self.jobs[i];
        cell_id(&self.configs[c], &self.mixes[m].name, self.seed)
    }

    /// Evaluates every cell through `evaluate_jobs`, appending each cell's
    /// record line to `store` as it completes — the per-cell work of
    /// [`CampaignSpec::run`]. `on_claim(i)` fires when a worker claims cell
    /// `i`, `on_done(i)` right after its line is appended.
    pub fn sweep(
        &self,
        store: &ResultStore,
        on_claim: &(dyn Fn(usize) + Sync),
        on_done: &(dyn Fn(usize) + Sync),
    ) -> Vec<Result<RunRecord, String>> {
        let on_record = |i: usize, outcome: Result<&RunRecord, &str>| {
            match outcome {
                Ok(record) => {
                    store.append(&record_line(&self.cells[i], self.seed, self.attack, record))
                }
                Err(error) => {
                    store.append(&failed_line(&self.cells[i], self.seed, self.attack, error))
                }
            }
            on_done(i);
        };
        let hooks = EvalHooks {
            force_panic_mix: None,
            force_spin_mix: None,
            on_claim,
            on_record: &on_record,
        };
        evaluate_jobs(&self.configs, &self.mixes, &self.jobs, &self.alone, self.workers, &hooks)
    }
}

/// Sweeps the whole grid of `spec` into `store` with no timing hooks, as
/// [`CampaignSpec::run`] does.
pub fn sweep_all(spec: &CampaignSpec, store: &ResultStore) -> Vec<Result<RunRecord, String>> {
    let mut out = Vec::new();
    for &seed in &spec.seeds {
        let mut campaign = Campaign::new(SeedGrid::scale(spec, seed));
        let grid = SeedGrid::new(spec, seed, &mut campaign);
        out.extend(grid.sweep(store, &|_| {}, &|_| {}));
    }
    out
}

// --- output checks ----------------------------------------------------------

/// FNV-1a-64 step over `bytes`.
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The result content of one stored record: every field the simulation
/// decides, but not the cell id, schema version or line seal, which name a
/// result rather than state it (a re-keyed cell id with the same results
/// keeps the digest).
fn result_key(r: &CellRecord) -> String {
    format!(
        "{}|{}|{}|{}|{}|{}|{:?}|{}|{:016x}|{:016x}|{:016x}|{}|{:016x}|{:016x}|{:016x}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{:?}",
        r.mechanism,
        r.nrh,
        r.breakhammer,
        r.seed,
        r.mix,
        r.mix_class,
        r.scenario,
        r.attack,
        r.weighted_speedup.to_bits(),
        r.max_slowdown.to_bits(),
        r.energy_nj.to_bits(),
        r.preventive_actions,
        r.latency_ns[0].to_bits(),
        r.latency_ns[1].to_bits(),
        r.latency_ns[2].to_bits(),
        r.attacker_identified,
        r.benign_misidentified,
        r.bitflips,
        r.max_victim_disturbance,
        r.flips_raw,
        r.flips_corrected,
        r.flips_detected,
        r.flips_silent,
        r.attack_success,
        r.status,
        r.termination,
        r.livelock_report,
    )
}

/// Folds a store's records into one order-independent digest of their
/// result content.
pub fn records_digest(records: &[CellRecord]) -> u64 {
    let mut keys: Vec<String> = records.iter().map(result_key).collect();
    keys.sort();
    keys.iter().fold(0xcbf2_9ce4_8422_2325, |hash, key| fnv1a(fnv1a(hash, key.as_bytes()), b"\n"))
}

/// The exact, machine-independent headline numbers of a swept grid.
#[derive(Debug, Clone, PartialEq)]
pub struct PaperMetrics {
    /// Cells evaluated.
    pub cells: usize,
    /// Cells that panicked, livelocked or ran out of budget.
    pub failed: usize,
    /// Cells of a [`DETERMINISTIC`] mechanism.
    pub det_cells: usize,
    /// Deterministic-mechanism cells that let a bitflip through.
    pub det_flip_cells: usize,
    /// Geomean over matched cells of weighted speedup (+BH ÷ −BH), Fig. 6.
    pub ws_gain_bh: f64,
    /// Σ preventive actions (+BH) ÷ Σ preventive actions (−BH), Fig. 10.
    pub prev_ratio_bh: f64,
}

/// Computes [`PaperMetrics`] from a grid's outcomes. Matched cells share
/// mechanism, N_RH, mix and seed and differ only in BreakHammer.
pub fn paper_metrics(outcomes: &[(u64, Result<RunRecord, String>)]) -> PaperMetrics {
    let mut failed = 0;
    let mut det_cells = 0;
    let mut det_flip_cells = 0;
    let mut prev = [0u64; 2];
    let mut arms: BTreeMap<(String, u64, String, u64), [Option<f64>; 2]> = BTreeMap::new();
    for (seed, outcome) in outcomes {
        let record = match outcome {
            Ok(record) if bh_bench::termination_status(record.termination) == "ok" => record,
            _ => {
                failed += 1;
                continue;
            }
        };
        if DETERMINISTIC.contains(&record.mechanism) {
            det_cells += 1;
            det_flip_cells += usize::from(record.bitflips > 0);
        }
        let arm = usize::from(record.breakhammer);
        prev[arm] += record.preventive_actions;
        let key = (record.mechanism.to_string(), record.nrh, record.mix_name.clone(), *seed);
        arms.entry(key).or_default()[arm] = Some(record.weighted_speedup);
    }
    let ratios: Vec<f64> = arms
        .values()
        .filter_map(|pair| match pair {
            [Some(off), Some(on)] => Some(on / off),
            _ => None,
        })
        .collect();
    PaperMetrics {
        cells: outcomes.len(),
        failed,
        det_cells,
        det_flip_cells,
        ws_gain_bh: if ratios.is_empty() { f64::NAN } else { bh_stats::geometric_mean(&ratios) },
        prev_ratio_bh: prev[1] as f64 / prev[0] as f64,
    }
}
