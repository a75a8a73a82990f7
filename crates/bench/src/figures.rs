//! The paper's figures and tables as queries over the campaign store.
//!
//! [`FIGURES`] holds one [`Figure`] per figure or table of the evaluation
//! (Figs. 2 and 5–19, Table 3, the §6 hardware cost) plus the ablation,
//! scenario and storage studies: the cells it reads — an explicit list of
//! (configuration, mix suite) pairs — and a reduction that renders its text
//! and CSV tables from those cells' [`CellRecord`]s.
//!
//! [`FigureJob::run`], behind `bh_campaign figure <id|all> --store PATH`,
//! evaluates the cells the store lacks through the store-backed loop of
//! `bh_campaign sweep`, then renders every figure from [`ResultStore::load`].
//! Figures that read the same cells (figs 6 and 7, figs 8, 10 and 12, …)
//! share them through the store, and an interrupted run resumes.

// Hash collections are lookup state here; the output follows figure, cell
// and mix order.
#![allow(clippy::disallowed_types)]

use crate::campaign::{cell_id, CellRecord, FailedCell, ResultStore, StoreSweep, SweepSummary};
use crate::experiments::{config_grid, paper_config, Campaign, Scale};
use bh_core::BreakHammerConfig;
use bh_mitigation::MechanismKind;
use bh_sim::SystemConfig;
use bh_stats::{fmt3, fmt_pct, BoxPlot, Table};
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;

/// A configuration evaluated over the attack (`true`) or benign (`false`)
/// mix suite.
pub type Cell = (SystemConfig, bool);

/// One figure or table of the evaluation.
#[derive(Debug)]
pub struct Figure {
    /// Command-line id (`bh_campaign figure <id>`).
    pub id: &'static str,
    /// What the figure shows.
    pub title: &'static str,
    /// The cells the figure reads at a scale (none for analytical figures).
    pub cells: fn(&Scale) -> Vec<Cell>,
    /// Renders the figure. Entry `i` of the records holds cell `i`'s
    /// records, one per mix of its suite, in suite order.
    pub reduce: fn(&Scale, &[Vec<CellRecord>]) -> String,
    /// Whether the figure reads the attack-scenario mixes: it then sweeps
    /// the whole scenario catalog when `BH_SCENARIOS` names none.
    pub scenarios: bool,
}

impl Figure {
    /// The scale the figure runs at: `base`, plus the whole scenario catalog
    /// for a scenario figure when `base` names no scenarios.
    fn scale(&self, base: &Scale) -> Scale {
        let mut scale = base.clone();
        if self.scenarios && scale.scenarios.is_empty() {
            let catalog = bh_workloads::scenario_catalog();
            scale.scenarios = catalog.iter().map(|s| s.name.to_string()).collect();
        }
        scale
    }
}

const fn fig(
    id: &'static str,
    title: &'static str,
    cells: fn(&Scale) -> Vec<Cell>,
    reduce: fn(&Scale, &[Vec<CellRecord>]) -> String,
) -> Figure {
    Figure { id, title, cells, reduce, scenarios: false }
}

/// Every figure, in the order `figure all` renders them.
pub const FIGURES: &[Figure] = &[
    fig("fig02", "Fig. 2: mitigation overhead, benign, vs. N_RH", fig02_cells, fig02),
    fig("fig05", "Fig. 5: attacker score bound (analytical)", no_cells, fig05),
    fig("fig06", "Fig. 6: weighted speedup under attack per class", fixed_attack, fig06),
    fig("fig07", "Fig. 7: unfairness under attack per class", fixed_attack, fig07),
    fig("fig08", "Fig. 8: weighted speedup under attack vs. N_RH", attack_scaling, fig08),
    fig("fig09", "Fig. 9: unfairness under attack vs. N_RH", fig09_cells, fig09),
    fig("fig10", "Fig. 10: preventive actions under attack vs. N_RH", fig10_cells, fig10),
    fig("fig11", "Fig. 11: benign latency under attack", attack_latency, fig11),
    fig("fig12", "Fig. 12: DRAM energy under attack vs. N_RH", attack_scaling, fig12),
    fig("fig13", "Fig. 13: weighted speedup, benign, per class", fig13_cells, fig13),
    fig("fig14", "Fig. 14: unfairness, benign, at N_RH = 1K", fig14_cells, fig14),
    fig("fig15", "Fig. 15: weighted speedup, benign, vs. N_RH", benign_scaling, fig15),
    fig("fig16", "Fig. 16: unfairness, benign, vs. N_RH", benign_scaling, fig16),
    fig("fig17", "Fig. 17: benign latency without an attacker", benign_latency, fig17),
    fig("fig18", "Fig. 18: BreakHammer vs. BlockHammer under attack", fig18_cells, fig18),
    fig("fig19", "Fig. 19: sensitivity to TH_threat", fig19_cells, fig19),
    fig("ablations", "BreakHammer parameter ablations", ablation_cells, ablations),
    Figure {
        scenarios: true,
        ..fig("scenarios", "attack-scenario catalog", scenario_cells, scenarios)
    },
    fig("hw_cost", "§6: BreakHammer hardware complexity", no_cells, hw_cost),
    fig("storage_overheads", "mechanism storage vs. N_RH", no_cells, storage_overheads),
    fig("table3", "Table 3: workload characteristics", no_cells, table3),
];

/// The figures an id selects: `all`, or the one figure with that id.
///
/// # Errors
/// Names the known ids when `id` is neither.
pub fn find(id: &str) -> Result<Vec<&'static Figure>, String> {
    match FIGURES.iter().find(|f| f.id == id) {
        _ if id == "all" => Ok(FIGURES.iter().collect()),
        Some(figure) => Ok(vec![figure]),
        None => {
            let known: Vec<String> =
                FIGURES.iter().map(|f| format!("  {:<18}{}", f.id, f.title)).collect();
            Err(format!("unknown figure {id:?}; use `all` or one of:\n{}", known.join("\n")))
        }
    }
}

// --- evaluation and rendering ---------------------------------------------

/// One `bh_campaign figure` invocation.
#[derive(Debug, Clone)]
pub struct FigureJob {
    /// Experiment scale (the `BH_*` knobs on the command line).
    pub scale: Scale,
    /// The store holding the figures' cells; required when a figure reads
    /// any.
    pub store: Option<PathBuf>,
    /// Evaluate at most this many missing cells; while cells are left over,
    /// nothing is rendered.
    pub max_cells: Option<usize>,
    /// Print the Table 1 / Table 2 configuration ahead of each simulated
    /// figure.
    pub print_config: bool,
    /// Test hook (`BH_TEST_FORCE_PANIC_MIX`): cells whose mix name contains
    /// this pattern panic instead of evaluating.
    pub force_panic_mix: Option<String>,
}

/// What a [`FigureJob`] did.
#[derive(Debug, Clone, Default)]
pub struct FigureReport {
    /// The distinct cells the figures read, and what this run did with them.
    pub summary: SweepSummary,
    /// Cells the figures read that the store holds no record of after this
    /// run, with the recorded panic message where the cell panicked.
    pub failed: Vec<FailedCell>,
    /// The rendered figures; empty while any cell is deferred or failed.
    pub output: String,
}

impl FigureJob {
    /// Evaluates the cells of `figures` that the store lacks, then renders
    /// every figure from the store, in order.
    ///
    /// # Errors
    /// Fails when a figure reads cells and no store is given, or when the
    /// store cannot be opened or read.
    pub fn run(&self, figures: &[&Figure]) -> Result<FigureReport, String> {
        let plans: Vec<(Scale, Vec<Cell>)> = (figures.iter())
            .map(|figure| {
                let scale = figure.scale(&self.scale);
                let cells = (figure.cells)(&scale);
                (scale, cells)
            })
            .collect();
        let path = if plans.iter().any(|(_, cells)| !cells.is_empty()) {
            Some(self.store.as_deref().ok_or("simulated figures need --store PATH")?)
        } else {
            None
        };
        // One campaign per distinct scale with cells; its mix suites key them.
        let mut campaigns: Vec<Campaign> = Vec::new();
        for (scale, _) in plans.iter().filter(|(_, cells)| !cells.is_empty()) {
            if campaigns.iter().all(|c| c.scale() != scale) {
                campaigns.push(Campaign::new(scale.clone()));
            }
        }
        let mut report = FigureReport::default();
        let mut stored: HashMap<String, CellRecord> = HashMap::new();
        if let Some(path) = path {
            let exists = path.exists();
            let settled =
                if exists { ResultStore::settled_cells(path) } else { Ok(HashSet::new()) }
                    .map_err(|e| e.to_string())?;
            let store =
                if exists { ResultStore::append_to(path) } else { ResultStore::create(path) }
                    .map_err(|e| e.to_string())?;
            let mut sweep = StoreSweep::new(&store, &settled, self.max_cells);
            sweep.force_panic_mix = self.force_panic_mix.as_deref();
            for campaign in &mut campaigns {
                for attack in [true, false] {
                    let configs: Vec<SystemConfig> = (plans.iter())
                        .filter(|(scale, _)| scale == campaign.scale())
                        .flat_map(|(_, cells)| cells.iter().filter(|(_, a)| *a == attack))
                        .map(|(config, _)| config.clone())
                        .collect();
                    sweep.evaluate(campaign, &configs, attack);
                }
            }
            report.summary = sweep.summary;
            if report.summary.deferred_cells > 0 {
                return Ok(report);
            }
            for record in ResultStore::load(path).map_err(|e| e.to_string())? {
                stored.entry(record.cell.clone()).or_insert(record);
            }
        }
        // Each figure's records, cell by cell in suite mix order.
        let mut missing: Vec<String> = Vec::new();
        let mut lookup = |scale: &Scale, (config, attack): &Cell| -> Vec<CellRecord> {
            let campaign =
                campaigns.iter().find(|c| c.scale() == scale).expect("campaign per scale");
            (campaign.sweep_mixes(*attack).iter())
                .filter_map(|mix| {
                    let id = cell_id(config, &mix.name, scale.seed);
                    let record = stored.get(&id).cloned();
                    if record.is_none() && !missing.contains(&id) {
                        missing.push(id);
                    }
                    record
                })
                .collect()
        };
        let records: Vec<Vec<Vec<CellRecord>>> = (plans.iter())
            .map(|(scale, cells)| cells.iter().map(|cell| lookup(scale, cell)).collect())
            .collect();
        if !missing.is_empty() {
            let path = path.expect("cells are only missing from a store");
            let failures = ResultStore::failed_cells(path).map_err(|e| e.to_string())?;
            report.failed = (missing.into_iter())
                .map(|cell| match failures.iter().find(|f| f.cell == cell) {
                    Some(failure) => failure.clone(),
                    None => FailedCell { cell, error: "no readable record".to_string() },
                })
                .collect();
            return Ok(report);
        }
        for ((figure, (scale, cells)), records) in figures.iter().zip(&plans).zip(&records) {
            if self.print_config && !cells.is_empty() {
                let config = paper_config(MechanismKind::Graphene, 1024, true, scale);
                report.output += &format!(
                    "System configuration (Table 1): {}\n{:#?}\n{:#?}\n\
                     BreakHammer configuration (Table 2): {:#?}\n",
                    config.summary(),
                    config.memctrl,
                    config.cache,
                    config.effective_breakhammer_config()
                );
            }
            report.output += &(figure.reduce)(scale, records);
        }
        Ok(report)
    }
}

// --- aggregation helpers ----------------------------------------------------

/// A titled table as text and CSV: the block every figure prints.
pub fn render(title: &str, table: &Table) -> String {
    format!("=== {title} ===\n{}\n--- CSV ---\n{}\n", table.to_text(), table.to_csv())
}

/// The records of every cell of one configuration, in cell then mix order.
fn select(
    records: &[Vec<CellRecord>],
    mechanism: MechanismKind,
    nrh: u64,
    breakhammer: bool,
) -> Vec<&CellRecord> {
    let mechanism = mechanism.to_string();
    (records.iter().flatten())
        .filter(|r| r.mechanism == mechanism && r.nrh == nrh && r.breakhammer == breakhammer)
        .collect()
}

/// Restricts a record selection to one mix class; the pseudo-class
/// `"geomean"` keeps every record (the aggregate columns of Figs. 6, 7 and
/// 13).
fn filter_class<'a>(set: &[&'a CellRecord], class: &str) -> Vec<&'a CellRecord> {
    set.iter().copied().filter(|r| class == "geomean" || r.mix_class == class).collect()
}

/// Geometric mean of the weighted speedups of a record selection.
///
/// # Panics
/// Panics if the selection is empty.
fn geomean_speedup(records: &[&CellRecord]) -> f64 {
    let values: Vec<f64> = records.iter().map(|r| r.weighted_speedup).collect();
    bh_stats::geometric_mean(&values)
}

/// Arithmetic mean of a projection over a record selection.
///
/// # Panics
/// Panics if the selection is empty.
fn mean_of(records: &[&CellRecord], f: impl Fn(&CellRecord) -> f64) -> f64 {
    assert!(!records.is_empty(), "cannot aggregate an empty selection");
    records.iter().map(|r| f(r)).sum::<f64>() / records.len() as f64
}

/// Table label of a configuration, e.g. `"Graphene+BH"`.
fn label(mechanism: MechanismKind, breakhammer: bool) -> String {
    if breakhammer {
        format!("{mechanism}+BH")
    } else {
        mechanism.to_string()
    }
}

fn all_of(records: &[CellRecord]) -> Vec<&CellRecord> {
    records.iter().collect()
}

fn min_nrh(scale: &Scale) -> u64 {
    *scale.nrh_values.iter().min().expect("non-empty N_RH sweep")
}

/// BreakHammer's weighted-speedup gain: `with` over `without`.
fn ws_ratio(with: &[&CellRecord], without: &[&CellRecord]) -> f64 {
    geomean_speedup(with) / geomean_speedup(without)
}

/// BreakHammer's unfairness change: mean max slowdown, `with` over
/// `without`.
fn slowdown_ratio(with: &[&CellRecord], without: &[&CellRecord]) -> f64 {
    mean_of(with, |r| r.max_slowdown) / mean_of(without, |r| r.max_slowdown)
}

/// Every mechanism with each of `arms`, mechanism-major.
fn with_arms(
    mechanisms: impl IntoIterator<Item = MechanismKind>,
    arms: &[bool],
) -> Vec<(MechanismKind, bool)> {
    mechanisms.into_iter().flat_map(|m| arms.iter().map(move |&bh| (m, bh))).collect()
}

/// One row per N_RH of the sweep and configuration with records: N_RH,
/// label, then the `values` of its records (`None` skips the row).
fn per_nrh(
    scale: &Scale,
    records: &[Vec<CellRecord>],
    configs: &[(MechanismKind, bool)],
    header: &[&str],
    mut values: impl FnMut(MechanismKind, u64, &[&CellRecord]) -> Option<Vec<String>>,
) -> Table {
    let mut table = Table::new(header.iter().copied());
    for &nrh in &scale.nrh_values {
        for &(mechanism, bh) in configs {
            let sel = select(records, mechanism, nrh, bh);
            if sel.is_empty() {
                continue;
            }
            if let Some(values) = values(mechanism, nrh, &sel) {
                table.push_row([nrh.to_string(), label(mechanism, bh)].into_iter().chain(values));
            }
        }
    }
    table
}

/// BreakHammer's `ratio` per paper mechanism and mix class (plus the
/// `geomean` pseudo-class) at `nrh`.
fn per_class(
    records: &[Vec<CellRecord>],
    nrh: u64,
    classes: [&str; 6],
    column: &str,
    ratio: fn(&[&CellRecord], &[&CellRecord]) -> f64,
) -> Table {
    let mut table = Table::new(["mechanism", "mix_class", column]);
    for mechanism in MechanismKind::paper_mechanisms() {
        let with = select(records, mechanism, nrh, true);
        let without = select(records, mechanism, nrh, false);
        for class in classes.into_iter().chain(["geomean"]) {
            let (w, wo) = (filter_class(&with, class), filter_class(&without, class));
            if !w.is_empty() && !wo.is_empty() {
                table.push_row([label(mechanism, true), class.to_string(), fmt3(ratio(&w, &wo))]);
            }
        }
    }
    table
}

/// The closing line of Figs. 14 and 16: how often a benign application was
/// identified as a suspect.
fn suspect_line(suspects: usize, runs: usize, paper: &str) -> String {
    let rate = fmt_pct(suspects as f64 / runs.max(1) as f64);
    format!(
        "benign application identified as suspect in {rate} of the simulations (paper: {paper})\n"
    )
}

/// The RowHammer threshold used by the fixed-threshold figures (6, 7 and 14):
/// the paper evaluates them at N_RH = 1K; override with `BH_FIG_NRH` when
/// running at a reduced scale, where the per-row thresholds of N_RH = 1K are
/// not reachable within the shortened simulations.
fn figure_nrh() -> u64 {
    bh_core::knobs::u64_value("BH_FIG_NRH", "the figure's threshold").unwrap_or(1024)
}

const ATTACK_CLASSES: [&str; 6] = ["HHHA", "HHMA", "MMMA", "HLLA", "MMLA", "LLLA"];
const BENIGN_CLASSES: [&str; 6] = ["HHHH", "HHMM", "MMMM", "HHLL", "MMLL", "LLLL"];

// --- cell lists -------------------------------------------------------------

fn no_cells(_: &Scale) -> Vec<Cell> {
    Vec::new()
}

/// The no-mitigation baseline at `nrh[0]` when `baseline` is set, then
/// `mechanisms` × `nrh` × `arms`, mechanism-major, all over one suite.
fn grid(
    scale: &Scale,
    baseline: bool,
    mechanisms: &[MechanismKind],
    nrh: &[u64],
    arms: &[bool],
    attack: bool,
) -> Vec<Cell> {
    let baseline = baseline.then(|| paper_config(MechanismKind::None, nrh[0], false, scale));
    let configs = baseline.into_iter().chain(config_grid(scale, mechanisms, nrh, arms));
    configs.map(|config| (config, attack)).collect()
}

fn fig02_cells(s: &Scale) -> Vec<Cell> {
    grid(s, true, &MechanismKind::motivation_mechanisms(), &s.nrh_values, &[false], false)
}

fn fixed_attack(s: &Scale) -> Vec<Cell> {
    grid(s, false, &MechanismKind::paper_mechanisms(), &[figure_nrh()], &[false, true], true)
}

fn attack_scaling(s: &Scale) -> Vec<Cell> {
    grid(s, true, &MechanismKind::paper_mechanisms(), &s.nrh_values, &[false, true], true)
}

fn fig09_cells(s: &Scale) -> Vec<Cell> {
    grid(s, true, &MechanismKind::paper_mechanisms(), &s.nrh_values, &[true], true)
}

/// REGA is excluded from Fig. 10 (footnote 10 of the paper): it refreshes in
/// parallel with activations and has no discrete preventive actions.
fn fig10_mechanisms() -> Vec<MechanismKind> {
    MechanismKind::paper_mechanisms().into_iter().filter(|m| *m != MechanismKind::Rega).collect()
}

fn fig10_cells(s: &Scale) -> Vec<Cell> {
    grid(s, false, &fig10_mechanisms(), &s.nrh_values, &[false, true], true)
}

fn attack_latency(s: &Scale) -> Vec<Cell> {
    grid(s, true, &MechanismKind::paper_mechanisms(), &[min_nrh(s)], &[false, true], true)
}

fn benign_latency(s: &Scale) -> Vec<Cell> {
    grid(s, true, &MechanismKind::paper_mechanisms(), &[min_nrh(s)], &[false, true], false)
}

fn fig13_cells(s: &Scale) -> Vec<Cell> {
    grid(s, false, &MechanismKind::paper_mechanisms(), &[min_nrh(s)], &[false, true], false)
}

fn fig14_cells(s: &Scale) -> Vec<Cell> {
    grid(s, false, &MechanismKind::paper_mechanisms(), &[figure_nrh()], &[false, true], false)
}

fn benign_scaling(s: &Scale) -> Vec<Cell> {
    grid(s, false, &MechanismKind::paper_mechanisms(), &s.nrh_values, &[false, true], false)
}

fn fig18_cells(s: &Scale) -> Vec<Cell> {
    let mut cells = grid(s, true, &MechanismKind::paper_mechanisms(), &s.nrh_values, &[true], true);
    cells.extend(grid(s, false, &[MechanismKind::BlockHammer], &s.nrh_values, &[false], true));
    cells
}

/// Graphene+BreakHammer at `nrh` with its BreakHammer configuration tuned.
fn tuned_graphene(
    scale: &Scale,
    nrh: u64,
    tweak: impl FnOnce(&mut BreakHammerConfig),
) -> SystemConfig {
    let mut config = paper_config(MechanismKind::Graphene, nrh, true, scale);
    let mut bh = config.effective_breakhammer_config();
    tweak(&mut bh);
    config.breakhammer_config = Some(bh);
    config
}

/// Fig. 19's TH_threat values; the last (least aggressive) is the baseline.
const THREAT_VALUES: [f64; 3] = [32.0, 512.0, 4096.0];

/// Fig. 19's thresholds: the sweep's largest, middle and smallest.
fn fig19_nrh(scale: &Scale) -> [u64; 3] {
    let values = &scale.nrh_values;
    [*values.iter().max().expect("non-empty sweep"), values[values.len() / 2], min_nrh(scale)]
}

/// Per suite (attack, then benign) and Fig. 19 threshold, one cell per
/// TH_threat value.
fn fig19_cells(s: &Scale) -> Vec<Cell> {
    let mut cells = Vec::new();
    for attack in [true, false] {
        for nrh in fig19_nrh(s) {
            for threat in THREAT_VALUES {
                cells.push((tuned_graphene(s, nrh, |bh| bh.threat_threshold = threat), attack));
            }
        }
    }
    cells
}

/// The ablation variants: parameter, value, and how the value applies.
#[allow(clippy::type_complexity)]
const ABLATIONS: [(&str, f64, fn(&mut BreakHammerConfig, f64)); 9] = [
    ("TH_outlier", 0.05, |bh, v| bh.outlier_threshold = v),
    ("TH_outlier", 0.65, |bh, v| bh.outlier_threshold = v),
    ("TH_outlier", 0.95, |bh, v| bh.outlier_threshold = v),
    ("P_newsuspect", 2.0, |bh, v| bh.new_suspect_divisor = v as usize),
    ("P_newsuspect", 10.0, |bh, v| bh.new_suspect_divisor = v as usize),
    ("P_newsuspect", 64.0, |bh, v| bh.new_suspect_divisor = v as usize),
    ("TH_window_ms", 16.0, set_window_ms),
    ("TH_window_ms", 64.0, set_window_ms),
    ("TH_window_ms", 256.0, set_window_ms),
];

fn set_window_ms(bh: &mut BreakHammerConfig, window_ms: f64) {
    bh.window_cycles = bh_dram::TimingParams::ddr5_4800().ms_to_cycles(window_ms);
}

/// Graphene without BreakHammer at the lowest N_RH (the reference), then
/// one tuned Graphene+BreakHammer per ablation variant.
fn ablation_cells(s: &Scale) -> Vec<Cell> {
    let nrh = min_nrh(s);
    let variants = ABLATIONS.iter().map(|&(_, v, apply)| tuned_graphene(s, nrh, |bh| apply(bh, v)));
    let reference = paper_config(MechanismKind::Graphene, nrh, false, s);
    std::iter::once(reference).chain(variants).map(|config| (config, true)).collect()
}

fn scenario_cells(s: &Scale) -> Vec<Cell> {
    grid(s, false, &[MechanismKind::Graphene], &[min_nrh(s)], &[false, true], true)
}

// --- reductions -------------------------------------------------------------

fn fig02(scale: &Scale, records: &[Vec<CellRecord>]) -> String {
    let baseline = geomean_speedup(&all_of(&records[0]));
    let configs = with_arms(MechanismKind::motivation_mechanisms(), &[false]);
    let header = ["nrh", "mechanism", "weighted_speedup", "normalized_ws"];
    let table = per_nrh(scale, records, &configs, &header, |_, _, sel| {
        let ws = geomean_speedup(sel);
        Some(vec![fmt3(ws), fmt3(ws / baseline)])
    });
    let title = "Figure 2: normalized weighted speedup of mitigation mechanisms (benign workloads, no BreakHammer)";
    let baseline = fmt3(baseline);
    render(title, &table)
        + &format!("baseline (no mitigation) geomean weighted speedup: {baseline}\n")
}

fn fig05(_: &Scale, _: &[Vec<CellRecord>]) -> String {
    use bh_core::security::{figure5_outlier_thresholds, figure5_series, max_attacker_score_ratio};
    let mut table = Table::new(["attacker_threads_pct", "th_outlier", "max_attacker_score_ratio"]);
    for point in figure5_series(&figure5_outlier_thresholds(), 10) {
        table.push_row([
            format!("{:.0}", point.attacker_fraction * 100.0),
            format!("{:.2}", point.outlier_threshold),
            point.max_score_ratio.map_or_else(|| "unbounded".to_string(), fmt3),
        ]);
    }
    // The two reference points called out in §5.2.
    let p1 = max_attacker_score_ratio(0.5, 0.65).expect("bounded");
    let p2 = max_attacker_score_ratio(0.9, 0.05).expect("bounded");
    render("Figure 5: worst-case attacker score bound (Expression 2)", &table)
        + &format!(
            "TH_outlier=0.65, 50% attacker threads -> {p1:.2}x the benign average (paper: 4.71x)\n"
        )
        + &format!(
            "TH_outlier=0.05, 90% attacker threads -> {p2:.2}x the benign average (paper: 1.90x)\n"
        )
}

fn fig06(_: &Scale, records: &[Vec<CellRecord>]) -> String {
    let column = "normalized_weighted_speedup";
    render(
        "Figure 6: normalized weighted speedup of benign applications with an attacker present (N_RH = 1K)",
        &per_class(records, figure_nrh(), ATTACK_CLASSES, column, ws_ratio),
    )
}

fn fig07(_: &Scale, records: &[Vec<CellRecord>]) -> String {
    render(
        "Figure 7: normalized unfairness (max slowdown of benign applications) with an attacker present (N_RH = 1K)",
        &per_class(records, figure_nrh(), ATTACK_CLASSES, "normalized_unfairness", slowdown_ratio),
    )
}

fn fig08(scale: &Scale, records: &[Vec<CellRecord>]) -> String {
    let baseline = geomean_speedup(&all_of(&records[0]));
    let configs = with_arms(MechanismKind::paper_mechanisms(), &[false, true]);
    let header = ["nrh", "config", "normalized_weighted_speedup"];
    let table = per_nrh(scale, records, &configs, &header, |_, _, sel| {
        Some(vec![fmt3(geomean_speedup(sel) / baseline)])
    });
    render("Figure 8: weighted speedup of benign applications vs. N_RH with an attacker present (normalized to no mitigation)", &table)
}

fn fig09(scale: &Scale, records: &[Vec<CellRecord>]) -> String {
    let baseline = mean_of(&all_of(&records[0]), |r| r.max_slowdown);
    let configs = with_arms(MechanismKind::paper_mechanisms(), &[true]);
    let header = ["nrh", "config", "normalized_unfairness"];
    let table = per_nrh(scale, records, &configs, &header, |_, _, sel| {
        Some(vec![fmt3(mean_of(sel, |r| r.max_slowdown) / baseline)])
    });
    render(
        "Figure 9: unfairness vs. N_RH with an attacker present (normalized to no mitigation)",
        &table,
    )
}

fn fig10(scale: &Scale, records: &[Vec<CellRecord>]) -> String {
    let reference_nrh = *scale.nrh_values.iter().max().expect("non-empty N_RH sweep");
    let actions = |sel: &[&CellRecord]| mean_of(sel, |r| r.preventive_actions as f64);
    let mut table = Table::new(["nrh", "config", "preventive_actions", "normalized_actions"]);
    for mechanism in fig10_mechanisms() {
        let reference = actions(&select(records, mechanism, reference_nrh, false)).max(1.0);
        for &nrh in &scale.nrh_values {
            for bh in [false, true] {
                let sel = select(records, mechanism, nrh, bh);
                if !sel.is_empty() {
                    let mean = actions(&sel);
                    let row = [format!("{mean:.0}"), fmt3(mean / reference)];
                    table.push_row([nrh.to_string(), label(mechanism, bh)].into_iter().chain(row));
                }
            }
        }
    }
    render("Figure 10: RowHammer-preventive actions with an attacker present (normalized to no-BreakHammer at N_RH = 4K)", &table)
}

/// Figs. 11 and 17: mean latency percentiles per configuration, in the
/// order of their cells (the baseline, then each mechanism without and with
/// BreakHammer).
fn latency_table(records: &[Vec<CellRecord>]) -> Table {
    let configs = with_arms(MechanismKind::paper_mechanisms(), &[false, true]);
    let labels = std::iter::once(MechanismKind::None.to_string())
        .chain(configs.into_iter().map(|(m, bh)| label(m, bh)));
    let mut table = Table::new(["config", "p50_ns", "p90_ns", "p99_ns"]);
    for (label, cell) in labels.zip(records) {
        let percentile = |i: usize| format!("{:.1}", mean_of(&all_of(cell), |r| r.latency_ns[i]));
        table.push_row([label, percentile(0), percentile(1), percentile(2)]);
    }
    table
}

fn fig11(scale: &Scale, records: &[Vec<CellRecord>]) -> String {
    let nrh = min_nrh(scale);
    let title = format!(
        "Figure 11: benign memory-latency percentiles with an attacker present (N_RH = {nrh})"
    );
    render(&title, &latency_table(records))
}

fn fig12(scale: &Scale, records: &[Vec<CellRecord>]) -> String {
    let energy = |sel: &[&CellRecord]| mean_of(sel, |r| r.energy_nj);
    let baseline = energy(&all_of(&records[0]));
    let configs = with_arms(MechanismKind::paper_mechanisms(), &[false, true]);
    let header = ["nrh", "config", "energy_uj", "normalized_energy"];
    let table = per_nrh(scale, records, &configs, &header, |_, _, sel| {
        Some(vec![format!("{:.1}", energy(sel) / 1000.0), fmt3(energy(sel) / baseline)])
    });
    render("Figure 12: DRAM energy with an attacker present (normalized to no mitigation)", &table)
}

fn fig13(scale: &Scale, records: &[Vec<CellRecord>]) -> String {
    let nrh = min_nrh(scale);
    let column = "normalized_weighted_speedup";
    render(
        &format!("Figure 13: normalized weighted speedup on all-benign workloads (N_RH = {nrh})"),
        &per_class(records, nrh, BENIGN_CLASSES, column, ws_ratio),
    )
}

fn fig14(_: &Scale, records: &[Vec<CellRecord>]) -> String {
    let nrh = figure_nrh();
    let mut table = Table::new(["mechanism", "normalized_unfairness", "benign_suspect_rate"]);
    let (mut suspects, mut runs) = (0, 0);
    for mechanism in MechanismKind::paper_mechanisms() {
        let with = select(records, mechanism, nrh, true);
        let without = select(records, mechanism, nrh, false);
        if with.is_empty() || without.is_empty() {
            continue;
        }
        let flagged = with.iter().filter(|r| r.benign_misidentified).count();
        (suspects, runs) = (suspects + flagged, runs + with.len());
        let rate = fmt_pct(flagged as f64 / with.len() as f64);
        table.push_row([label(mechanism, true), fmt3(slowdown_ratio(&with, &without)), rate]);
    }
    render("Figure 14: normalized unfairness on all-benign workloads (N_RH = 1K)", &table)
        + &suspect_line(suspects, runs, "2.2% at N_RH = 1K")
}

fn fig15(scale: &Scale, records: &[Vec<CellRecord>]) -> String {
    let configs = with_arms(MechanismKind::paper_mechanisms(), &[true]);
    let header = ["nrh", "mechanism", "normalized_weighted_speedup"];
    let table = per_nrh(scale, records, &configs, &header, |mechanism, nrh, with| {
        let without = select(records, mechanism, nrh, false);
        (!without.is_empty()).then(|| vec![fmt3(ws_ratio(with, &without))])
    });
    render("Figure 15: normalized weighted speedup on all-benign workloads vs. N_RH", &table)
}

fn fig16(scale: &Scale, records: &[Vec<CellRecord>]) -> String {
    let (mut suspects, mut runs) = (0, 0);
    let configs = with_arms(MechanismKind::paper_mechanisms(), &[true]);
    let header = ["nrh", "mechanism", "normalized_unfairness"];
    let table = per_nrh(scale, records, &configs, &header, |mechanism, nrh, with| {
        let without = select(records, mechanism, nrh, false);
        if without.is_empty() {
            return None;
        }
        suspects += with.iter().filter(|r| r.benign_misidentified).count();
        runs += with.len();
        Some(vec![fmt3(slowdown_ratio(with, &without))])
    });
    render("Figure 16: normalized unfairness on all-benign workloads vs. N_RH", &table)
        + &suspect_line(suspects, runs, "18.7% across all N_RH")
}

fn fig17(scale: &Scale, records: &[Vec<CellRecord>]) -> String {
    let nrh = min_nrh(scale);
    let title =
        format!("Figure 17: benign memory-latency percentiles with no attacker (N_RH = {nrh})");
    render(&title, &latency_table(records))
}

fn fig18(scale: &Scale, records: &[Vec<CellRecord>]) -> String {
    let baseline = geomean_speedup(&all_of(&records[0]));
    let mut configs = with_arms(MechanismKind::paper_mechanisms(), &[true]);
    configs.push((MechanismKind::BlockHammer, false));
    let header = ["nrh", "config", "normalized_weighted_speedup"];
    let table = per_nrh(scale, records, &configs, &header, |_, _, sel| {
        Some(vec![fmt3(geomean_speedup(sel) / baseline)])
    });
    render("Figure 18: BreakHammer-paired mechanisms vs. BlockHammer with an attacker present (normalized to no mitigation)", &table)
}

fn fig19(scale: &Scale, records: &[Vec<CellRecord>]) -> String {
    let header = ["workloads", "nrh", "th_threat", "ws_q1", "ws_median", "ws_q3"];
    let mut table = Table::new(header.into_iter().chain(["normalized_median"]));
    let boxplot = |cell: &Vec<CellRecord>| {
        BoxPlot::from_samples(&cell.iter().map(|r| r.weighted_speedup).collect::<Vec<_>>())
    };
    // One chunk of TH_threat cells per (suite, N_RH), in `fig19_cells` order.
    let mut chunks = records.chunks(THREAT_VALUES.len());
    for workloads in ["attack", "benign"] {
        for nrh in fig19_nrh(scale) {
            let chunk = chunks.next().expect("one chunk per (suite, N_RH)");
            // Baseline: TH_threat = 4096 (essentially never throttles).
            let baseline = boxplot(chunk.last().expect("three threat values")).median;
            for (threat, cell) in THREAT_VALUES.iter().zip(chunk) {
                let b = boxplot(cell);
                let keys = [workloads.to_string(), nrh.to_string(), format!("{threat:.0}")];
                table.push_row(
                    keys.into_iter().chain([b.q1, b.median, b.q3, b.median / baseline].map(fmt3)),
                );
            }
        }
    }
    render("Figure 19: sensitivity to TH_threat (Graphene+BreakHammer; weighted speedup normalized to TH_threat = 4096)", &table)
}

fn ablations(scale: &Scale, records: &[Vec<CellRecord>]) -> String {
    let nrh = min_nrh(scale);
    let without = geomean_speedup(&all_of(&records[0]));
    let mut table = Table::new(["parameter", "value", "normalized_ws", "attacker_identified"]);
    for (&(parameter, value, _), cell) in ABLATIONS.iter().zip(&records[1..]) {
        let identified = cell.iter().filter(|r| r.attacker_identified).count();
        table.push_row([
            parameter.to_string(),
            format!("{value}"),
            fmt3(geomean_speedup(&all_of(cell)) / without),
            fmt_pct(identified as f64 / cell.len() as f64),
        ]);
    }
    render(&format!("Ablations: BreakHammer parameter sensitivity (Graphene, N_RH = {nrh}, attacker present; normalized to Graphene without BreakHammer)"), &table)
}

fn scenarios(scale: &Scale, records: &[Vec<CellRecord>]) -> String {
    let (mechanism, nrh) = (MechanismKind::Graphene, min_nrh(scale));
    let header = ["scenario", "config", "weighted_speedup", "preventive_actions"];
    let mut table =
        Table::new(header.into_iter().chain(["attacker_throttled", "max_victim_disturbance"]));
    for scenario in &scale.scenarios {
        for bh in [false, true] {
            let sel: Vec<_> = (select(records, mechanism, nrh, bh).into_iter())
                .filter(|r| r.scenario.as_deref() == Some(scenario.as_str()))
                .collect();
            if sel.is_empty() {
                continue;
            }
            let identified = sel.iter().filter(|r| r.attacker_identified).count();
            table.push_row([
                scenario.clone(),
                label(mechanism, bh),
                fmt3(mean_of(&sel, |r| r.weighted_speedup)),
                format!("{:.0}", mean_of(&sel, |r| r.preventive_actions as f64)),
                format!("{identified}/{}", sel.len()),
                sel.iter().map(|r| r.max_victim_disturbance).max().unwrap_or(0).to_string(),
            ]);
        }
    }
    render(&format!("Composable-attacker scenarios under {mechanism} at N_RH = {nrh} (pattern × placement catalog)"), &table)
}

fn hw_cost(_: &Scale, _: &[Vec<CellRecord>]) -> String {
    use bh_core::hw_cost::{HardwareCost, BITS_PER_THREAD, CLOCK_GHZ, PIPELINE_STAGES};
    use bh_dram::TimingParams;
    let header = ["threads", "channels", "storage_bits", "area_mm2", "xeon_fraction"];
    let mut table = Table::new(header.into_iter().chain(["latency_ns"]));
    for (threads, channels) in [(4, 1), (4, 4), (8, 2), (16, 4), (64, 8), (128, 8)] {
        let c = HardwareCost::estimate(threads, channels);
        table.push_row([
            threads.to_string(),
            channels.to_string(),
            c.storage_bits.to_string(),
            format!("{:.6}", c.area_mm2),
            format!("{:.7}%", c.xeon_area_fraction * 100.0),
            format!("{:.2}", c.latency_ns),
        ]);
    }
    let paper = HardwareCost::paper_configuration();
    let trrd = |t: TimingParams| t.cycles_to_ns(t.t_rrd_s);
    let (ddr4, ddr5) = (trrd(TimingParams::ddr4_3200()), trrd(TimingParams::ddr5_4800()));
    let (fits4, fits5) = (paper.fits_under_trrd(ddr4), paper.fits_under_trrd(ddr5));
    let (latency, area) = (paper.latency_ns, paper.area_mm2);
    let xeon = paper.xeon_area_fraction * 100.0;
    render("Section 6: BreakHammer hardware complexity", &table)
        + &format!("per-thread state: {BITS_PER_THREAD} bits (two 32-bit scores, one 16-bit activation counter, two flags)\n")
        + &format!("pipeline: {PIPELINE_STAGES} stages at {CLOCK_GHZ} GHz -> {latency:.2} ns per decision\n")
        + &format!("fits under tRRD? DDR4 ({ddr4:.2} ns): {fits4}; DDR5 ({ddr5:.2} ns): {fits5}\n")
        + &format!("paper configuration: {area:.5} mm^2 total, {xeon:.4}% of a high-end Xeon die (paper: 0.00042 mm^2, 0.0002%)\n")
}

/// The on-chip state each mechanism needs as N_RH decreases (§3 and §8.3),
/// next to BreakHammer's two counters per thread.
fn storage_overheads(scale: &Scale, _: &[Vec<CellRecord>]) -> String {
    let (geometry, timing) =
        (bh_dram::DramGeometry::paper_ddr5(), bh_dram::TimingParams::ddr5_4800());
    let kib = |bits: u64, digits: usize| format!("{:.*}", digits, bits as f64 / 8.0 / 1024.0);
    let mechanisms =
        MechanismKind::paper_mechanisms().into_iter().chain([MechanismKind::BlockHammer]);
    let mechanisms: Vec<MechanismKind> = mechanisms.collect();
    let mut table = Table::new(["nrh", "mechanism", "storage_kib"]);
    for &nrh in &scale.nrh_values {
        for &mechanism in &mechanisms {
            let bits = mechanism.build(&geometry, &timing, nrh, 0).storage_bits();
            table.push_row([nrh.to_string(), mechanism.to_string(), kib(bits, 2)]);
        }
        let bits = bh_core::hw_cost::HardwareCost::estimate(4, 1).storage_bits;
        table.push_row([nrh.to_string(), "BreakHammer".to_string(), kib(bits, 4)]);
    }
    render("Mechanism storage overheads vs. N_RH (processor-die state, KiB)", &table)
}

/// Table 3: RBMPKI and the rows receiving more than 512, 128 and 64
/// activations within an observation window, for the eight most
/// memory-intensive benign applications. The window defaults to 2 M
/// instructions (scaled down from the paper's 64 ms); `BH_TABLE3_WINDOW`
/// enlarges it.
fn table3(_: &Scale, _: &[Vec<CellRecord>]) -> String {
    use bh_workloads::{characterize, BenignProfile, TraceGenerator};
    let window = bh_core::knobs::u64_value("BH_TABLE3_WINDOW", "the 2 M instruction window")
        .unwrap_or(2_000_000);
    let entries = bh_core::knobs::parse_or_warn(
        "BH_TRACE_ENTRIES",
        |raw| raw.parse::<usize>().ok(),
        "is not a number",
        "50000 records",
    )
    .unwrap_or(50_000);
    let generator = TraceGenerator::paper_default();
    let mut table = Table::new(["workload", "rbmpki", "act_512+", "act_128+", "act_64+"]);
    let (mut rbmpki_sum, mut counts) = (0.0, [0usize; 3]);
    let profiles = BenignProfile::table3_profiles();
    for (i, profile) in profiles.iter().enumerate() {
        let trace = generator.benign(profile, entries, 1000 + i as u64);
        let c =
            characterize(profile.name, &trace, generator.geometry(), generator.mapping(), window);
        let rows = [c.rows_over_512, c.rows_over_128, c.rows_over_64];
        rbmpki_sum += c.rbmpki;
        (0..3).for_each(|k| counts[k] += rows[k]);
        let keys = [profile.name.to_string(), fmt3(c.rbmpki)];
        table.push_row(keys.into_iter().chain(rows.map(|n| n.to_string())));
    }
    let n = profiles.len();
    let averages = counts.map(|count| (count / n).to_string());
    table
        .push_row(["Average".to_string(), fmt3(rbmpki_sum / n as f64)].into_iter().chain(averages));
    render(&format!("Table 3: workload characteristics over a {window}-instruction window"), &table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{record_line, tests::sample_record};

    fn record(mechanism: MechanismKind, nrh: u64, breakhammer: bool, ws: f64) -> CellRecord {
        let run = crate::RunRecord {
            mechanism,
            nrh,
            breakhammer,
            weighted_speedup: ws,
            ..sample_record()
        };
        CellRecord::parse(&record_line("c/HHHA-00/42", 42, true, &run)).expect("line parses")
    }

    #[test]
    fn record_selection_and_aggregation() {
        let records = vec![
            vec![record(MechanismKind::Para, 1024, true, 2.0)],
            vec![record(MechanismKind::Para, 1024, true, 8.0)],
            vec![record(MechanismKind::Para, 1024, false, 1.0)],
            vec![record(MechanismKind::Graphene, 1024, true, 3.0)],
        ];
        let sel = select(&records, MechanismKind::Para, 1024, true);
        assert_eq!(sel.len(), 2);
        assert!((geomean_speedup(&sel) - 4.0).abs() < 1e-12);
        assert!((mean_of(&sel, |r| r.max_slowdown) - 1.5).abs() < 1e-12);
        assert_eq!(filter_class(&sel, "HHHA").len(), 2);
        assert!(filter_class(&sel, "LLLA").is_empty());
        assert_eq!(filter_class(&sel, "geomean").len(), 2, "geomean keeps every record");
        assert_eq!(select(&records, MechanismKind::Para, 1024, false).len(), 1);
        assert_eq!(label(MechanismKind::Para, true), "PARA+BH");
        assert_eq!(label(MechanismKind::Para, false), "PARA");
    }
}
