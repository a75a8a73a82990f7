//! The campaign-cell benchmark: host cost per campaign cell (end to end) and
//! per simulator layer on three fixed paper sweeps.
//!
//! ```text
//! cargo bench --manifest-path cellbench/Cargo.toml --bench cells -- \
//!     --workload attack_sweep|benign_sweep|multichannel_attack \
//!     [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//! ```
//!
//! Every run does the same work, whatever `--trace` says:
//!
//! 1. **Set-up**, `SETUP_REPS` times: `Campaign::new` + `warmed_alone_cache`
//!    for both seeds of the grid.
//! 2. **Production passes**: the grid through `evaluate_jobs`, each cell
//!    timed from claim to appended record, until `--seconds` have elapsed
//!    (at least `MIN_PASSES`).
//! 3. **One traced pass**, after the first production pass: every cell
//!    through the calls `Evaluator::evaluate` makes, called directly so that
//!    `System::with_compiled` and `System::run` are timed apart, each call in
//!    a span. It yields each cell's simulated DRAM cycles and the simulated
//!    counters, and re-appends the first pass's records (the write path).
//! 4. **The read path** on the re-appended store: `settled_cells`, and
//!    `load` + `report_table`.
//!
//! How long a cell takes depends on its mix, and the mixes depend on the
//! seed: raw milliseconds per cell move by a fifth to a third from seed to
//! seed. The end-to-end time (`--trace 0`) therefore divides each cell's time
//! by its simulated DRAM cycles, which a pure speed change leaves fixed. It
//! and `setup_s` are also scaled to a reference host speed (see
//! [`reference_kernel_s`]). The raw times are per-layer metrics (`--trace 1`).
//!
//! `cellbench/interactions.json` says which end-to-end metric each per-layer
//! metric should move, and on which workload.
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! A run is not correct, and exits with code 1, when its stored records fold
//! to another digest than the pinned one (at the default seed), differ
//! between passes, or differ from the traced pass.

// Wall-clock reads are this benchmark's whole job (`benches/` paths are
// exempt from determinism rule D2).
#![allow(clippy::disallowed_methods)]

use bh_bench::campaign::{record_line, report_table};
use bh_bench::{Campaign, CampaignSpec, ResultStore, RunRecord};
use bh_sim::{SimulationResult, System, TerminationReason};
use cellbench::{paper_metrics, records_digest, PaperMetrics, SeedGrid, Workload, DETERMINISTIC};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Mutex;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

/// Production passes per run, at least.
const MIN_PASSES: usize = 2;

/// Cells on each side of a cell whose reference-kernel times give the host's
/// speed at that cell.
const SPEED_WINDOW: usize = 8;

const USAGE: &str = "usage: cells --workload attack_sweep|benign_sweep|multichannel_attack \
[--seed N] [--seconds S] [--trace 0|1] [--out DIR]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = cellbench::DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut out = PathBuf::from("out");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        // `cargo bench` passes `--bench` to every bench target.
        if flag == "--bench" {
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: cannot use {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown option {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace, out })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("cells: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("cells: cannot create {}: {e}", args.out.display());
        return ExitCode::from(2);
    }
    let report = Run::measure(&args).report(args.trace);
    println!("{}", report.json());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

// --- measurement primitives ---------------------------------------------------

/// Seconds since `t`.
fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// The `p`-th percentile (0–100) of `values`, by linear interpolation; NaN
/// (printed as `null`) when there are none.
fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        f64::NAN
    } else {
        bh_stats::percentile(values, p)
    }
}

fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

fn min(values: impl IntoIterator<Item = f64>) -> f64 {
    values.into_iter().fold(f64::INFINITY, f64::min)
}

fn frac(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// The process's peak resident set (VmHWM) in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// A fresh, empty result store at `path`.
fn fresh_store(path: &Path) -> ResultStore {
    let _ = std::fs::remove_file(path);
    ResultStore::create(path).unwrap_or_else(|e| panic!("cannot create {}: {e}", path.display()))
}

/// The reference kernel's time on a quiet 2-vCPU x86-64 VM, the host this
/// benchmark was tuned on.
const REFERENCE_KERNEL_S: f64 = 0.45e-3;

/// Times a fixed stretch of integer work that shares no code with the
/// simulator: xorshift draws driving scattered updates and reads of a 16 KB
/// table. Run just before every cell and every set-up, it says how fast the
/// host runs at that moment. A shared host drifts by a fifth within a minute,
/// and every wall time drifts with it; scaling a time by `REFERENCE_KERNEL_S`
/// over the kernel's time around it ([`Pass::steady_s`]) takes most of that
/// drift out and leaves the simulator's own speed.
fn reference_kernel_s() -> f64 {
    let start = Instant::now();
    let mut table = [0u32; 4096];
    let mut x: u64 = 0x2545_f491_4f6c_dd1d;
    let mut acc = 0u32;
    for k in 0..60_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let j = (x as usize) & 4095;
        if x & 4 == 0 {
            table[j] = table[j].wrapping_add(k);
        } else {
            acc = acc.wrapping_add(table[(j * 7) & 4095]);
        }
    }
    std::hint::black_box((acc, table));
    secs(start)
}

// --- spans --------------------------------------------------------------------

/// One recorded span. Spans of one cell share its cell id.
struct Span {
    name: &'static str,
    layer: &'static str,
    cell: Option<String>,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// In-memory span recorder; written out once, at the end of the run.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn span<T>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        cell: Option<&str>,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        let index = self.spans.len();
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            layer,
            cell: cell.map(str::to_string),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        let value = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.origin.elapsed().as_nanos() as u64;
        value
    }

    fn duration_ns(&self, i: usize) -> u64 {
        self.spans[i].end_ns - self.spans[i].start_ns
    }

    /// Durations in ms of every span called `name`, in recording order.
    fn durations_ms(&self, name: &str) -> Vec<f64> {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self.duration_ns(i) as f64 / 1e6)
            .collect()
    }

    fn total_ms(&self, name: &str) -> f64 {
        self.durations_ms(name).iter().sum()
    }

    fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for span in &self.spans {
            let cell = span.cell.as_ref().map_or("null".to_string(), |c| format!("\"{c}\""));
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\": \"{}\", \"layer\": \"{}\", \"cell\": {cell}, \"start_ns\": {}, \
                 \"end_ns\": {}, \"parent\": {parent}}}\n",
                span.name, span.layer, span.start_ns, span.end_ns
            ));
        }
        std::fs::write(path, out)
    }

    /// Prints count, total and self time (duration less the children's) per
    /// (layer, span name).
    fn print_table(&self) {
        let mut own: Vec<u64> = (0..self.spans.len()).map(|i| self.duration_ns(i)).collect();
        for (i, span) in self.spans.iter().enumerate() {
            if let Some(p) = span.parent {
                own[p] -= self.duration_ns(i);
            }
        }
        let mut rows: BTreeMap<(&str, &str), (usize, u64, u64)> = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            let row = rows.entry((span.layer, span.name)).or_default();
            row.0 += 1;
            row.1 += self.duration_ns(i);
            row.2 += own[i];
        }
        println!(
            "{:<20} {:<32} {:>6} {:>12} {:>12}",
            "layer", "span", "count", "total_ms", "self_ms"
        );
        for ((layer, name), (count, total, own)) in rows {
            println!(
                "{layer:<20} {name:<32} {count:>6} {:>12.3} {:>12.3}",
                total as f64 / 1e6,
                own as f64 / 1e6
            );
        }
    }
}

// --- the traced pass ----------------------------------------------------------

/// What the traced pass computed for one cell.
struct CellSim {
    dram_cycles: u64,
    weighted_speedup: f64,
    preventive_actions: u64,
    bitflips: usize,
    energy_nj: f64,
    termination: TerminationReason,
}

impl CellSim {
    /// Whether a production record of the cell says the same.
    fn matches(&self, record: &RunRecord) -> bool {
        self.weighted_speedup.to_bits() == record.weighted_speedup.to_bits()
            && self.preventive_actions == record.preventive_actions
            && self.bitflips == record.bitflips
            && self.energy_nj.to_bits() == record.energy_nj.to_bits()
            && self.termination == record.termination
    }
}

/// Simulated counters summed over the traced pass. Exact: a pure speed change
/// must not move any of them.
#[derive(Debug, Default)]
struct Counters {
    dram_cycles: u64,
    instructions: u64,
    llc_misses: u64,
    mshr_full_rejections: u64,
    quota_rejections: u64,
    reads_served: u64,
    writes_served: u64,
    row_hits: u64,
    row_accesses: u64,
    enqueue_rejections: u64,
    activates: u64,
    victim_refreshes: u64,
    rfm_commands: u64,
    energy_nj: f64,
    preventive_actions: u64,
    det_flip_cells: usize,
    bh_actions_observed: u64,
    bh_suspect_identifications: u64,
    bh_windows_completed: u64,
    bh_cells: u64,
    bh_attacker_cells: u64,
    bh_attacker_identified: u64,
    bh_benign_misidentified: u64,
}

impl Counters {
    fn add(&mut self, grid: &SeedGrid, i: usize, result: &SimulationResult) {
        let (c, m) = grid.jobs[i];
        let (config, mix) = (&grid.configs[c], &grid.mixes[m]);
        self.dram_cycles += result.dram_cycles;
        self.instructions += result.cores.iter().map(|core| core.instructions).sum::<u64>();
        self.llc_misses += result.cache.misses;
        self.mshr_full_rejections += result.cache.mshr_full_rejections;
        self.quota_rejections += result.cache.quota_rejections;
        let ctrl = &result.controller;
        self.reads_served += ctrl.reads_served;
        self.writes_served += ctrl.writes_served;
        self.row_hits += ctrl.row_hits;
        self.row_accesses += ctrl.row_hits + ctrl.row_misses + ctrl.row_conflicts;
        self.enqueue_rejections += ctrl.enqueue_rejections;
        self.activates += result.dram.activates;
        self.victim_refreshes += result.dram.victim_refreshes;
        self.rfm_commands += result.dram.rfm_commands;
        self.energy_nj += result.energy_nj;
        self.preventive_actions += result.preventive_actions;
        if DETERMINISTIC.contains(&config.mechanism) && result.bitflips > 0 {
            self.det_flip_cells += 1;
        }
        if let Some(bh) = &result.breakhammer {
            self.bh_actions_observed += bh.actions_observed;
            self.bh_suspect_identifications += bh.suspect_identifications;
            self.bh_windows_completed += bh.windows_completed;
        }
        if config.breakhammer {
            self.bh_cells += 1;
            if let Some(t) = mix.attacker_thread {
                self.bh_attacker_cells += 1;
                self.bh_attacker_identified += u64::from(result.ever_suspect[t]);
            }
            let benign = mix.benign_threads().into_iter().any(|t| result.ever_suspect[t]);
            self.bh_benign_misidentified += u64::from(benign);
        }
    }
}

/// Cell `i` of `grid` through the calls `Evaluator::evaluate` makes, timed
/// apart, then `record` (the production record of the cell) re-appended to
/// `store`.
fn traced_cell(
    tracer: &mut Tracer,
    grid: &SeedGrid,
    i: usize,
    record: &RunRecord,
    store: &ResultStore,
    counters: &mut Counters,
) -> CellSim {
    let (c, m) = grid.jobs[i];
    let (config, mix) = (&grid.configs[c], &grid.mixes[m]);
    let cell = Some(grid.cells[i].as_str());
    let id = tracer.span("cell_id", "bh_bench::campaign", cell, |_| grid.cell_id(i));
    assert_eq!(id, grid.cells[i], "the sweep's cell id is not bh_bench's");
    let benign = mix.benign_threads();
    let system = tracer.span("System::with_compiled", "bh_sim", cell, |_| {
        System::with_compiled(config.clone(), &mix.traces, benign.clone())
            .watch_victims(mix.victim_rows.iter().map(|v| (v.channel, v.row)))
            .with_success_criterion(mix.success_criterion)
    });
    let result = tracer.span("System::run", "bh_sim", cell, |_| system.run());
    tracer.span("ResultStore::append", "bh_bench::campaign", cell, |_| {
        store.append(&record_line(&grid.cells[i], grid.seed, grid.attack, record))
    });
    let perfs: Vec<bh_stats::AppPerf> = benign
        .iter()
        .map(|&t| {
            bh_stats::AppPerf::new(grid.alone[&mix.app_names[t]], result.cores[t].ipc.max(1e-6))
        })
        .collect();
    counters.add(grid, i, &result);
    CellSim {
        dram_cycles: result.dram_cycles,
        weighted_speedup: bh_stats::weighted_speedup(&perfs),
        preventive_actions: result.preventive_actions,
        bitflips: result.bitflips,
        energy_nj: result.energy_nj,
        termination: result.termination,
    }
}

/// The traced pass over `grids`, against the records of `first`. Runs on a
/// worker thread, as `evaluate_jobs` does: the allocator behaves differently
/// on the main thread, and that would show as tracing cost.
fn traced_pass(
    tracer: &mut Tracer,
    grids: &[SeedGrid],
    first: &Pass,
    store: &ResultStore,
) -> Option<(Vec<CellSim>, Counters)> {
    std::thread::scope(|scope| {
        scope
            .spawn(|| {
                let mut counters = Counters::default();
                let mut sims = Vec::new();
                let mut outcomes = first.outcomes.iter();
                for grid in grids {
                    for i in 0..grid.jobs.len() {
                        let (_, Ok(record)) = outcomes.next()? else { return None };
                        let cell = Some(grid.cells[i].as_str());
                        sims.push(tracer.span("cell", "bh_bench::campaign", cell, |t| {
                            traced_cell(t, grid, i, record, store, &mut counters)
                        }));
                    }
                }
                Some((sims, counters))
            })
            .join()
            .expect("traced pass panicked")
    })
}

// --- a run --------------------------------------------------------------------

/// One production pass of the whole grid.
struct Pass {
    /// Wall seconds of the pass.
    wall_s: f64,
    /// Seconds from claim to appended record, per cell in grid order.
    cell_s: Vec<f64>,
    /// Seconds the reference kernel took just before each cell.
    kernel_s: Vec<f64>,
    /// `(seed, outcome)` per cell, in grid order.
    outcomes: Vec<(u64, Result<RunRecord, String>)>,
    /// Digest of the store's records as read back.
    digest: u64,
    /// Records the store holds after the pass.
    stored: usize,
}

impl Pass {
    /// Wall seconds of the pass, less the reference kernel's.
    fn sweep_s(&self) -> f64 {
        self.wall_s - self.kernel_s.iter().sum::<f64>()
    }

    /// Cell `i`'s time scaled to the reference host speed. The host's speed
    /// is the median kernel time over the cells around `i`: the host drifts
    /// over seconds, while one kernel sample can catch an interrupt.
    fn steady_s(&self, i: usize) -> f64 {
        let window = &self.kernel_s[i.saturating_sub(SPEED_WINDOW)..];
        let window = &window[..window.len().min(2 * SPEED_WINDOW + 1)];
        self.cell_s[i] * REFERENCE_KERNEL_S / median(window)
    }
}

fn production_pass(grids: &[SeedGrid], store_path: &Path) -> Pass {
    let store = fresh_store(store_path);
    let (mut cell_s, mut kernel_s, mut outcomes) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    for grid in grids {
        let starts: Mutex<Vec<Option<Instant>>> = Mutex::new(vec![None; grid.jobs.len()]);
        let times: Mutex<Vec<(f64, f64)>> = Mutex::new(vec![(0.0, 0.0); grid.jobs.len()]);
        let on_claim = |i: usize| {
            times.lock().unwrap()[i].1 = reference_kernel_s();
            starts.lock().unwrap()[i] = Some(Instant::now());
        };
        let on_done = |i: usize| {
            let begun = starts.lock().unwrap()[i].expect("claimed before done");
            times.lock().unwrap()[i].0 = secs(begun);
        };
        let results = grid.sweep(&store, &on_claim, &on_done);
        for (cell, kernel) in times.into_inner().unwrap() {
            cell_s.push(cell);
            kernel_s.push(kernel);
        }
        outcomes.extend(results.into_iter().map(|r| (grid.seed, r)));
    }
    let wall_s = secs(start);
    drop(store);
    let records = ResultStore::load(store_path).expect("store readable");
    let (digest, stored) = (records_digest(&records), records.len());
    Pass { wall_s, cell_s, kernel_s, outcomes, digest, stored }
}

/// `Campaign::new` + `warmed_alone_cache` for one seed, each in a span.
fn set_up(tracer: &mut Tracer, spec: &CampaignSpec, seed: u64) -> Campaign {
    let mut campaign = tracer.span("Campaign::new", "bh_workloads", None, |_| {
        Campaign::new(SeedGrid::scale(spec, seed))
    });
    tracer.span("warmed_alone_cache", "bh_sim::Evaluator", None, |_| {
        campaign.warmed_alone_cache();
    });
    campaign
}

/// Everything one run measured.
struct Run {
    workload: Workload,
    /// Why the run is not correct (empty when it is).
    failures: Vec<String>,
    tracer: Tracer,
    /// Set-up seconds per repetition (both seeds).
    setup_s: Vec<f64>,
    /// Seconds the reference kernel took just before each set-up.
    setup_kernel_s: Vec<f64>,
    passes: Vec<Pass>,
    paper: PaperMetrics,
    sims: Vec<CellSim>,
    counters: Counters,
    traced_wall_s: f64,
}

impl Run {
    fn measure(args: &Args) -> Run {
        let spec = args.workload.spec(args.seed);
        let name = args.workload.name();
        let mut tracer = Tracer::new();

        let (mut setup_s, mut setup_kernel_s) = (Vec::new(), Vec::new());
        let mut campaigns: Vec<Campaign> = Vec::new();
        for _ in 0..SETUP_REPS {
            setup_kernel_s.push(reference_kernel_s());
            let start = Instant::now();
            campaigns = spec.seeds.iter().map(|&seed| set_up(&mut tracer, &spec, seed)).collect();
            setup_s.push(secs(start));
        }
        let grids: Vec<SeedGrid> = spec
            .seeds
            .iter()
            .zip(campaigns.iter_mut())
            .map(|(&seed, campaign)| SeedGrid::new(&spec, seed, campaign))
            .collect();

        let store_path = args.out.join(format!("{name}.jsonl"));
        let traced_path = args.out.join(format!("{name}-traced.jsonl"));
        let start = Instant::now();
        let mut passes = vec![production_pass(&grids, &store_path)];
        let traced_start = Instant::now();
        let store = fresh_store(&traced_path);
        let traced = traced_pass(&mut tracer, &grids, &passes[0], &store);
        drop(store);
        let traced_wall_s = secs(traced_start);
        while passes.len() < MIN_PASSES || secs(start) - traced_wall_s < args.seconds {
            passes.push(production_pass(&grids, &store_path));
        }
        let settled = tracer.span("ResultStore::settled_cells", "bh_bench::campaign", None, |_| {
            ResultStore::settled_cells(&traced_path).expect("store readable")
        });
        let report =
            tracer.span("ResultStore::load+report_table", "bh_bench::campaign", None, |_| {
                report_table(&ResultStore::load(&traced_path).expect("store readable"))
            });
        if let Err(e) = tracer.write(&args.out.join(format!("{name}-spans.jsonl"))) {
            eprintln!("cells: cannot write spans: {e}");
        }

        let paper = paper_metrics(&passes[0].outcomes);
        let mut failures = Vec::new();
        let (sims, counters) = traced.unwrap_or_else(|| {
            failures.push("a cell failed, so the traced pass could not follow".to_string());
            (Vec::new(), Counters::default())
        });
        let mut run = Run {
            workload: args.workload,
            failures,
            tracer,
            setup_s,
            setup_kernel_s,
            passes,
            paper,
            sims,
            counters,
            traced_wall_s,
        };
        run.check(args, settled.len(), report.is_empty());
        run
    }

    /// Every pass stored every cell, folded to the same digest (the pinned
    /// one at the default seed) and agrees with the traced pass cell by cell;
    /// the read path saw every cell.
    fn check(&mut self, args: &Args, settled: usize, empty_report: bool) {
        let cells = self.paper.cells;
        let digest = self.passes[0].digest;
        println!("record digest: {digest:016x}");
        if args.seed == cellbench::DEFAULT_SEED && digest != args.workload.pinned_digest() {
            let pinned = args.workload.pinned_digest();
            self.failures.push(format!("digest is not the pinned {pinned:016x}"));
        }
        for (k, pass) in self.passes.iter().enumerate() {
            if pass.stored != cells || pass.digest != digest {
                self.failures.push(format!(
                    "pass {k} stored {} of {cells} cells, digest {:016x}",
                    pass.stored, pass.digest
                ));
            }
            let same = pass.outcomes.iter().zip(&self.sims).filter(|((_, outcome), sim)| {
                outcome.as_ref().is_ok_and(|record| sim.matches(record))
            });
            if same.count() != cells {
                self.failures.push(format!("pass {k} differs from the traced pass"));
            }
        }
        if self.paper.det_flip_cells != self.counters.det_flip_cells {
            self.failures.push("traced and production bitflip cells differ".to_string());
        }
        if settled != cells || empty_report {
            self.failures.push(format!("read path saw {settled} of {cells} cells"));
        }
        for failure in &self.failures {
            eprintln!("cells: {failure}");
        }
    }

    fn report(&self, trace: bool) -> Report {
        let walls: Vec<String> = self.passes.iter().map(|p| format!("{:.3}", p.wall_s)).collect();
        println!(
            "{}: {} cells, set-up {:.3} s, traced pass {:.3} s, production passes [{}] s",
            self.workload.name(),
            self.paper.cells,
            median(&self.setup_s),
            self.traced_wall_s,
            walls.join(", ")
        );
        println!("paper metrics: {:?}", self.paper);
        Report {
            correct: self.failures.is_empty(),
            attempted: self.paper.cells * self.passes.len(),
            failed: self.paper.failed * self.passes.len(),
            metrics: if trace { self.per_layer() } else { self.end_to_end() },
        }
    }

    /// Per cell, its fastest claim-to-record time over the passes, in ms;
    /// `steady` scales each time to the reference host speed first.
    /// Interference only ever adds time, so the fastest is the steadiest.
    fn cell_ms(&self, steady: bool) -> Vec<f64> {
        let ms = |p: &Pass, i: usize| if steady { p.steady_s(i) } else { p.cell_s[i] } * 1e3;
        (0..self.paper.cells).map(|i| min(self.passes.iter().map(|p| ms(p, i)))).collect()
    }

    /// Set-up plus every cell at its fastest, in seconds.
    fn sweep_s(&self) -> f64 {
        median(&self.setup_s) + self.cell_ms(false).iter().sum::<f64>() / 1e3
    }

    fn end_to_end(&self) -> Vec<(&'static str, f64, &'static str)> {
        let paper = &self.paper;
        let cell_ms = self.cell_ms(true);
        let ns_per_cycle: Vec<f64> = cell_ms
            .iter()
            .zip(&self.sims)
            .map(|(ms, sim)| ms * 1e6 / sim.dram_cycles as f64)
            .collect();
        let setup_s = median(&self.setup_s) * REFERENCE_KERNEL_S / median(&self.setup_kernel_s);
        vec![
            ("cell_ns_per_cycle_p50", median(&ns_per_cycle), "ns"),
            ("setup_s", setup_s, "s"),
            ("peak_rss_mb", peak_rss_mb(), "MB"),
            ("ok_frac", 1.0 - paper.failed as f64 / paper.cells as f64, "ratio"),
            ("det_safe_frac", 1.0 - paper.det_flip_cells as f64 / paper.det_cells as f64, "ratio"),
            ("ws_gain_bh", paper.ws_gain_bh, "ratio"),
            ("prev_ratio_bh", paper.prev_ratio_bh, "ratio"),
        ]
    }

    fn per_layer(&self) -> Vec<(&'static str, f64, &'static str)> {
        self.tracer.print_table();
        let t = &self.tracer;
        let n = &self.counters;
        let reps = self.setup_s.len() as f64;
        let build_ms = t.durations_ms("System::with_compiled");
        let run_ms = t.durations_ms("System::run");
        let cell_ms = self.cell_ms(false);
        let loop_ms: Vec<f64> = self
            .passes
            .iter()
            .map(|p| (p.sweep_s() - p.cell_s.iter().sum::<f64>()) * 1e3)
            .collect();
        let kernel_ms: Vec<f64> =
            self.passes.iter().flat_map(|p| p.kernel_s.iter().map(|s| s * 1e3)).collect();
        vec![
            ("workloads.suite_ms", t.total_ms("Campaign::new") / reps, "ms"),
            ("sim.alone_ms", t.total_ms("warmed_alone_cache") / reps, "ms"),
            ("sim.build_ms_p50", median(&build_ms), "ms"),
            ("sim.build_share", build_ms.iter().sum::<f64>() / t.total_ms("cell"), "ratio"),
            ("sim.run_ms_p50", median(&run_ms), "ms"),
            (
                "sim.host_ns_per_dram_cycle",
                run_ms.iter().sum::<f64>() * 1e6 / n.dram_cycles as f64,
                "ns",
            ),
            ("sim.dram_cycles", n.dram_cycles as f64, "count"),
            ("cpu.instructions", n.instructions as f64, "count"),
            ("cpu.llc_misses", n.llc_misses as f64, "count"),
            ("cpu.mshr_full_rejections", n.mshr_full_rejections as f64, "count"),
            ("cpu.quota_rejections", n.quota_rejections as f64, "count"),
            ("mem.reads_served", n.reads_served as f64, "count"),
            ("mem.writes_served", n.writes_served as f64, "count"),
            ("mem.row_hit_rate", frac(n.row_hits, n.row_accesses), "ratio"),
            ("mem.enqueue_rejections", n.enqueue_rejections as f64, "count"),
            ("dram.activates", n.activates as f64, "count"),
            ("dram.victim_refreshes", n.victim_refreshes as f64, "count"),
            ("dram.rfm_commands", n.rfm_commands as f64, "count"),
            ("dram.energy_uj", n.energy_nj / 1e3, "uJ"),
            ("mitigation.preventive_actions", n.preventive_actions as f64, "count"),
            ("mitigation.det_flip_cells", n.det_flip_cells as f64, "count"),
            ("breakhammer.actions_observed", n.bh_actions_observed as f64, "count"),
            ("breakhammer.suspect_identifications", n.bh_suspect_identifications as f64, "count"),
            ("breakhammer.windows_completed", n.bh_windows_completed as f64, "count"),
            (
                "breakhammer.attacker_identified_frac",
                frac(n.bh_attacker_identified, n.bh_attacker_cells),
                "ratio",
            ),
            (
                "breakhammer.benign_misidentified_frac",
                frac(n.bh_benign_misidentified, n.bh_cells),
                "ratio",
            ),
            ("campaign.cell_ms_p50", percentile(&cell_ms, 50.0), "ms"),
            ("campaign.cell_ms_p90", percentile(&cell_ms, 90.0), "ms"),
            ("campaign.cells_per_hour", cell_ms.len() as f64 * 3600.0 / self.sweep_s(), "cells/h"),
            (
                "campaign.sweep_mcycles_per_s",
                n.dram_cycles as f64 / 1e6 / self.sweep_s(),
                "Mcycles/s",
            ),
            ("campaign.cell_id_us", median(&t.durations_ms("cell_id")) * 1e3, "us"),
            ("campaign.append_us_p50", median(&t.durations_ms("ResultStore::append")) * 1e3, "us"),
            ("campaign.resume_ms", t.total_ms("ResultStore::settled_cells"), "ms"),
            ("campaign.report_ms", t.total_ms("ResultStore::load+report_table"), "ms"),
            ("campaign.loop_overhead_ms", median(&loop_ms), "ms"),
            ("host.reference_kernel_ms", median(&kernel_ms), "ms"),
            (
                "trace.overhead_frac",
                self.traced_wall_s
                    / median(&self.passes.iter().map(Pass::sweep_s).collect::<Vec<_>>())
                    - 1.0,
                "ratio",
            ),
        ]
    }
}

/// What one run prints as its last line.
struct Report {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { format!("{value}") } else { "null".to_string() };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}
