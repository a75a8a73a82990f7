//! `bh-campaign` — checkpointed campaign sweeps over the (mechanism × N_RH ×
//! ±BreakHammer × mix × seed) grid, with resume, and the paper's figures
//! rendered from such a store.
//!
//! ```text
//! bh_campaign sweep  --store results.jsonl [options]   start a fresh sweep
//! bh_campaign resume --store results.jsonl [options]   continue an interrupted sweep
//! bh_campaign report --store results.jsonl [--strict]  aggregate a store into a table
//! bh_campaign figure <id|all> --store figures.jsonl [--max-cells N] [--print-config]
//!                                                      evaluate the cells a figure
//!                                                      lacks, then print it
//! ```
//!
//! Options (sweep/resume):
//!
//! ```text
//! --mechanisms LIST   comma-separated mechanisms (default: graphene);
//!                     `paper` selects the paper's eight-mechanism set
//! --nrh LIST          comma-separated N_RH values (default: the scale's sweep)
//! --seeds LIST        comma-separated workload seeds (default: the scale's seed)
//! --breakhammer ARM   off | on | both (default: both)
//! --benign            sweep the benign suite instead of the attack suite
//! --max-cells N       evaluate at most N cells, then stop (deferred cells
//!                     are picked up by a later `resume`)
//! --strict            (report) exit nonzero while any cell is non-ok —
//!                     failed, livelocked or budget-cut
//! ```
//!
//! `report` refuses (exit 1, naming the cell ids) a store in which one
//! (mechanism, N_RH, ±BreakHammer) row would average the same (mix, seed)
//! under two different cell ids — results of sweeps run at different
//! settings, which the row would silently mix.
//!
//! `figure` takes a figure id (`fig02`, `fig05`–`fig19`, `ablations`,
//! `scenarios`, `hw_cost`, `storage_overheads`, `table3`) or `all`. It
//! evaluates only the cells the store lacks — figures that read the same
//! cells share them — and prints the figures once every cell is in the
//! store; `--max-cells` stops early, and rerunning the command resumes.
//! Analytical figures need no `--store`. A cell that panics makes `figure`
//! exit nonzero and list it; the next run retries it.
//!
//! The experiment scale (instructions, mixes per class, channels, workers, …)
//! comes from the usual `BH_*` environment variables; `resume` must be run
//! with the same scale and options as the original sweep, otherwise the cell
//! ids will not match and the grid is treated as new work.
//!
//! Every cell records a typed run outcome. Cells whose evaluation panics are
//! recorded as `"failed"` JSONL lines instead of aborting the sweep; `report`
//! lists them and `resume` retries them. Cells the simulator's deterministic
//! forward-progress watchdog classifies as livelocked (or over a
//! `BH_WATCHDOG_MAX_*` budget) are recorded as `"livelock"` / `"budget"`
//! lines with their diagnostic snapshot; they are *settled* — a deterministic
//! verdict reruns to itself — so `resume` skips and reports them instead of
//! retrying. `BH_CELL_TIMEOUT_SECS=<secs>` arms a last-resort wall-clock
//! overseer that warns about cells running past the budget (never affecting
//! results). `BH_TEST_FORCE_PANIC_MIX=<substring>` and
//! `BH_TEST_FORCE_SPIN_MIX=<substring>` are test hooks forcing matching cells
//! to panic or livelock, exercising both fault paths end to end.

// The completed-cell set is membership-only (never iterated for output);
// bh-bench is outside the digest-pinned set.
#![allow(clippy::disallowed_types)]

use bh_bench::campaign::{report_conflicts, report_table, CampaignSpec, ResultStore};
use bh_bench::figures::{self, render, FigureJob};
use bh_bench::Scale;
use bh_mitigation::MechanismKind;
use std::collections::HashSet;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: bh_campaign <sweep|resume|report> --store PATH \
[--mechanisms LIST] [--nrh LIST] [--seeds LIST] [--breakhammer off|on|both] \
[--benign] [--max-cells N] [--strict]
       bh_campaign figure <id|all> [--store PATH] [--max-cells N] [--print-config]";

fn main() -> ExitCode {
    match run(std::env::args().skip(1).collect()) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("bh_campaign: {message}");
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

struct Options {
    store: PathBuf,
    mechanisms: Vec<MechanismKind>,
    nrh_values: Option<Vec<u64>>,
    seeds: Option<Vec<u64>>,
    breakhammer_options: Vec<bool>,
    attack: bool,
    max_cells: Option<usize>,
    strict: bool,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        store: PathBuf::new(),
        mechanisms: vec![MechanismKind::Graphene],
        nrh_values: None,
        seeds: None,
        breakhammer_options: vec![false, true],
        attack: true,
        max_cells: None,
        strict: false,
    };
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = || iter.next().cloned().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--store" => options.store = PathBuf::from(value()?),
            "--mechanisms" => {
                let list = value()?;
                options.mechanisms = if list == "paper" {
                    MechanismKind::paper_mechanisms().to_vec()
                } else {
                    list.split(',')
                        .map(str::trim)
                        .filter(|s| !s.is_empty())
                        .map(|name| {
                            MechanismKind::parse(name)
                                .ok_or_else(|| format!("unknown mechanism {name:?}"))
                        })
                        .collect::<Result<_, _>>()?
                };
            }
            "--nrh" => options.nrh_values = Some(parse_list(&value()?, "--nrh")?),
            "--seeds" => options.seeds = Some(parse_list(&value()?, "--seeds")?),
            "--breakhammer" => {
                options.breakhammer_options = match value()?.as_str() {
                    "off" => vec![false],
                    "on" => vec![true],
                    "both" => vec![false, true],
                    other => {
                        return Err(format!("--breakhammer must be off|on|both, got {other:?}"))
                    }
                };
            }
            "--benign" => options.attack = false,
            "--strict" => options.strict = true,
            "--max-cells" => {
                options.max_cells =
                    Some(value()?.parse().map_err(|_| "--max-cells needs a number".to_string())?)
            }
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    if options.store.as_os_str().is_empty() {
        return Err("--store is required".to_string());
    }
    if options.mechanisms.is_empty() {
        return Err("--mechanisms selected nothing".to_string());
    }
    Ok(options)
}

fn parse_list(list: &str, flag: &str) -> Result<Vec<u64>, String> {
    let parsed: Vec<u64> = list
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| s.parse::<u64>().map_err(|_| format!("{flag}: {s:?} is not a number")))
        .collect::<Result<_, _>>()?;
    if parsed.is_empty() {
        return Err(format!("{flag} selected nothing"));
    }
    Ok(parsed)
}

fn build_spec(options: &Options) -> CampaignSpec {
    let scale = Scale::from_env();
    let mut spec = CampaignSpec::from_scale(scale, options.mechanisms.clone(), options.attack);
    if let Some(nrh) = &options.nrh_values {
        spec.nrh_values = nrh.clone();
    }
    if let Some(seeds) = &options.seeds {
        spec.seeds = seeds.clone();
    }
    spec.breakhammer_options = options.breakhammer_options.clone();
    // Test hooks: force cells whose mix name contains the given substring to
    // panic (isolation path) or to livelock under an injected chaos
    // configuration (watchdog path), end to end.
    spec.force_panic_mix = bh_core::knobs::raw("BH_TEST_FORCE_PANIC_MIX").filter(|s| !s.is_empty());
    spec.force_spin_mix = bh_core::knobs::raw("BH_TEST_FORCE_SPIN_MIX").filter(|s| !s.is_empty());
    spec
}

fn run(args: Vec<String>) -> Result<ExitCode, String> {
    let Some((command, rest)) = args.split_first() else {
        return Err("missing command".to_string());
    };
    match command.as_str() {
        "sweep" | "resume" => {
            let options = parse_options(rest)?;
            let resume = command == "resume";
            // Settled = ok + livelock + budget: a deterministic verdict reruns
            // to itself, so resume skips it; only panicked cells are retried.
            let settled: HashSet<String> = if resume {
                ResultStore::settled_cells(&options.store).map_err(|e| e.to_string())?
            } else {
                HashSet::new()
            };
            let store = if resume {
                ResultStore::append_to(&options.store)
            } else {
                ResultStore::create(&options.store)
            }
            .map_err(|e| e.to_string())?;
            let spec = build_spec(&options);
            let summary = spec.run(&store, &settled, options.max_cells);
            println!(
                "{} cells: {} evaluated ({} livelock, {} budget), {} already in store, \
                 {} failed, {} deferred ({})",
                summary.total_cells,
                summary.evaluated_cells,
                summary.livelock_cells,
                summary.budget_cells,
                summary.skipped_cells,
                summary.failed_cells,
                summary.deferred_cells,
                if summary.complete() {
                    "store complete".to_string()
                } else {
                    format!("resume with: bh_campaign resume --store {}", options.store.display())
                },
            );
            if summary.failed_cells > 0 {
                eprintln!(
                    "bh_campaign: {} cell(s) panicked and were recorded as failed; \
                     retry them with: bh_campaign resume --store {}",
                    summary.failed_cells,
                    options.store.display()
                );
            }
            if summary.livelock_cells + summary.budget_cells > 0 {
                eprintln!(
                    "bh_campaign: {} cell(s) ended with a watchdog verdict (livelock/budget); \
                     the verdict is deterministic, so resume will skip them — \
                     inspect them with: bh_campaign report --store {}",
                    summary.livelock_cells + summary.budget_cells,
                    options.store.display()
                );
            }
            Ok(ExitCode::SUCCESS)
        }
        "report" => {
            let options = parse_options(rest)?;
            let records = ResultStore::load(&options.store).map_err(|e| e.to_string())?;
            let ok_count = records.iter().filter(|r| r.is_ok()).count();
            if records.is_empty() {
                return Err(format!("{} holds no completed cells", options.store.display()));
            }
            let conflicts = report_conflicts(&records);
            if !conflicts.is_empty() {
                // Not a usage error: the store mixes sweeps run at different
                // settings, and a row would average them together.
                eprintln!(
                    "bh_campaign: {} holds {} (mix, seed) pair(s) under more than one cell id \
                     in the same (mechanism, N_RH, BreakHammer) row — results of sweeps run \
                     at different settings; report one sweep per store:",
                    options.store.display(),
                    conflicts.len()
                );
                for conflict in &conflicts {
                    eprintln!("  {conflict}");
                }
                return Ok(ExitCode::FAILURE);
            }
            print!(
                "{}",
                render(&format!("Campaign report ({ok_count} ok cells)"), &report_table(&records))
            );
            let verdicts = ResultStore::verdict_cells(&options.store).map_err(|e| e.to_string())?;
            if !verdicts.is_empty() {
                println!();
                println!("{} cell(s) settled with a watchdog verdict:", verdicts.len());
                for cell in &verdicts {
                    println!("  {} [{}]", cell.cell, cell.termination);
                    if let Some(report) = &cell.livelock_report {
                        println!("    {report}");
                    }
                }
            }
            let pending = ResultStore::failed_cells(&options.store).map_err(|e| e.to_string())?;
            if !pending.is_empty() {
                println!();
                println!("{} failed cell(s) pending retry (bh_campaign resume):", pending.len());
                for cell in &pending {
                    println!("  {}: {}", cell.cell, cell.error);
                }
            }
            if options.strict && (!verdicts.is_empty() || !pending.is_empty()) {
                // Not a usage error: the arguments were fine, the store is
                // dirty. Report and exit nonzero without the usage banner.
                eprintln!(
                    "bh_campaign: --strict: {} watchdog verdict(s) and {} pending failure(s) in {}",
                    verdicts.len(),
                    pending.len(),
                    options.store.display()
                );
                return Ok(ExitCode::FAILURE);
            }
            Ok(ExitCode::SUCCESS)
        }
        "figure" => figure(rest),
        other => Err(format!("unknown command {other:?}")),
    }
}

fn figure(args: &[String]) -> Result<ExitCode, String> {
    let Some((id, rest)) = args.split_first() else {
        return Err("figure needs a figure id or `all`".to_string());
    };
    let selected = figures::find(id)?;
    let mut job = FigureJob {
        scale: Scale::from_env(),
        store: None,
        max_cells: None,
        print_config: false,
        // Test hook: cells whose mix name contains the pattern panic.
        force_panic_mix: bh_core::knobs::raw("BH_TEST_FORCE_PANIC_MIX").filter(|s| !s.is_empty()),
    };
    let mut iter = rest.iter();
    while let Some(flag) = iter.next() {
        let mut value = || iter.next().cloned().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--store" => job.store = Some(PathBuf::from(value()?)),
            "--max-cells" => {
                job.max_cells =
                    Some(value()?.parse().map_err(|_| "--max-cells needs a number".to_string())?)
            }
            "--print-config" => job.print_config = true,
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    let report = job.run(&selected)?;
    let summary = &report.summary;
    if summary.total_cells > 0 {
        eprintln!(
            "bh_campaign: figure {id}: {} cells: {} evaluated, {} already in store, {} failed, \
             {} deferred",
            summary.total_cells,
            summary.evaluated_cells,
            summary.skipped_cells,
            summary.failed_cells,
            summary.deferred_cells,
        );
    }
    // Cells are only failed or deferred when there is a store.
    let store = job.store.as_deref().unwrap_or(std::path::Path::new("")).display();
    if !report.failed.is_empty() {
        eprintln!(
            "bh_campaign: {} cell(s) have no record; retry with: \
             bh_campaign figure {id} --store {store}",
            report.failed.len()
        );
        for cell in &report.failed {
            eprintln!("  {}: {}", cell.cell, cell.error);
        }
        return Ok(ExitCode::FAILURE);
    }
    if summary.deferred_cells > 0 {
        eprintln!(
            "bh_campaign: nothing rendered yet; continue with: \
             bh_campaign figure {id} --store {store}"
        );
        return Ok(ExitCode::SUCCESS);
    }
    print!("{}", report.output);
    Ok(ExitCode::SUCCESS)
}
