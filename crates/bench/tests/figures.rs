//! `bh_campaign figure` evaluates only the cells a store lacks and renders
//! every figure from the store: an interrupted run resumes to the same
//! output, and figures that read the same cells share them. The tests run at
//! CI's tiny scale, in process, through [`FigureJob::run`] — the function
//! `bh_campaign figure` calls.

use bh_bench::figures::{find, FigureJob, FIGURES};
use bh_bench::{ResultStore, Scale};
use std::path::PathBuf;

/// A job at CI's tiny smoke scale, one threshold, on a fresh store.
fn job(tag: &str, max_cells: Option<usize>) -> FigureJob {
    let scale = Scale {
        instructions_per_core: 2_000,
        benign_entries: 1_000,
        attacker_entries: 1_000,
        mixes_per_class: 1,
        nrh_values: vec![256],
        worker_threads: 2,
        ..Scale::quick()
    };
    let store = store_path(tag);
    let _ = std::fs::remove_file(&store);
    FigureJob { scale, store: Some(store), max_cells, print_config: false, force_panic_mix: None }
}

fn store_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("bh-figures-{tag}-{}.jsonl", std::process::id()))
}

#[test]
fn interrupted_figure_all_prints_what_an_uninterrupted_run_prints() {
    let all = find("all").expect("`all` is a selector");
    let full = job("full", None).run(&all).expect("figure all runs");
    assert!(full.failed.is_empty(), "{:?}", full.failed);
    assert_eq!(full.summary.evaluated_cells, full.summary.total_cells);
    assert!(!full.output.is_empty());

    // Stopped after 50 cells, nothing is rendered yet…
    let mut chunked = job("chunked", Some(50));
    let stopped = chunked.run(&all).expect("figure all runs");
    assert_eq!(stopped.summary.evaluated_cells, 50, "{:?}", stopped.summary);
    assert_eq!(stopped.summary.deferred_cells, full.summary.total_cells - 50);
    assert!(stopped.output.is_empty());
    // …and the rerun evaluates the rest and prints the same bytes.
    chunked.max_cells = None;
    let resumed = chunked.run(&all).expect("figure all runs");
    assert_eq!(resumed.summary.skipped_cells, 50, "{:?}", resumed.summary);
    assert_eq!(resumed.output, full.output);
    let store = std::fs::read_to_string(store_path("chunked")).expect("store is readable");
    assert_eq!(store.lines().count(), full.summary.total_cells, "every cell is stored once");
    for tag in ["full", "chunked"] {
        std::fs::remove_file(store_path(tag)).expect("cleanup");
    }
}

#[test]
fn figures_that_read_the_same_cells_share_the_store() {
    let shared = job("shared", None);
    let fig06 = shared.run(&find("fig06").expect("fig06")).expect("fig06 runs");
    assert!(fig06.summary.evaluated_cells > 0);
    let fig07 = shared.run(&find("fig07").expect("fig07")).expect("fig07 runs");
    assert_eq!(fig07.summary.evaluated_cells, 0, "{:?}", fig07.summary);
    assert_eq!(fig07.summary.skipped_cells, fig06.summary.total_cells);
    assert!(fig07.output.starts_with("=== Figure 7:"), "{}", fig07.output);
    std::fs::remove_file(store_path("shared")).expect("cleanup");
}

#[test]
fn figure_ids_are_unique_and_all_covers_every_entry() {
    let ids: Vec<&str> = FIGURES.iter().map(|f| f.id).collect();
    for (i, id) in ids.iter().enumerate() {
        assert!(!ids[..i].contains(id) && *id != "all", "duplicate or reserved id {id}");
        assert_eq!(find(id).expect("known id")[0].id, *id);
    }
    let all: Vec<&str> = find("all").expect("all").iter().map(|f| f.id).collect();
    assert_eq!(all, ids);
    let unknown = find("fig99").expect_err("unknown id");
    assert!(unknown.contains("fig06") && unknown.contains("table3"), "{unknown}");
    // Analytical figures read no cells and need no store.
    let analytical = FigureJob { store: None, ..job("analytical", None) };
    let fig05 = analytical.run(&find("fig05").expect("fig05")).expect("no store needed");
    assert!(fig05.output.starts_with("=== Figure 5:"), "{}", fig05.output);
    assert!(analytical.run(&find("fig02").expect("fig02")).is_err(), "fig02 needs a store");
}

/// A cell that panics leaves the figure unrendered and names the cell; the
/// next run retries it and renders.
#[test]
fn panicked_cells_fail_the_figure_and_are_retried() {
    let fig02 = find("fig02").expect("fig02");
    let mut failing = job("panic", None);
    failing.force_panic_mix = Some("HHHH".to_string());
    let report = failing.run(&fig02).expect("figure runs");
    // One HHHH mix per configuration: the baseline plus four mechanisms.
    assert_eq!(report.failed.len(), 5, "{:?}", report.failed);
    assert!(report.failed.iter().all(|f| f.error.contains("forced test panic")));
    assert!(report.output.is_empty());
    assert_eq!(ResultStore::failed_cells(&store_path("panic")).expect("store parses").len(), 5);

    failing.force_panic_mix = None;
    let retried = failing.run(&fig02).expect("figure runs");
    assert_eq!(retried.summary.evaluated_cells, 5, "{:?}", retried.summary);
    assert!(retried.failed.is_empty());
    assert!(retried.output.starts_with("=== Figure 2:"), "{}", retried.output);
    std::fs::remove_file(store_path("panic")).expect("cleanup");
}

/// The scenario figure sweeps the whole composable-attacker catalog with
/// BreakHammer off and on: composed attacker → mix → simulator → per-victim
/// stats → store, end to end.
#[test]
fn scenarios_figure_sweeps_every_scenario_with_breakhammer_on_and_off() {
    let report = job("scenarios", None).run(&find("scenarios").expect("scenarios")).expect("runs");
    assert!(report.output.contains("Composable-attacker scenarios"), "{}", report.output);
    let records = ResultStore::load(&store_path("scenarios")).expect("store loads");
    for bh in [false, true] {
        let mut scenarios: Vec<&str> = (records.iter().filter(|r| r.breakhammer == bh))
            .filter_map(|r| r.scenario.as_deref())
            .collect();
        scenarios.sort_unstable();
        scenarios.dedup();
        assert!(scenarios.len() >= 4, "need >= 4 scenarios with breakhammer={bh}: {scenarios:?}");
    }
    // Scenario records carry per-victim stats.
    assert!(records.iter().any(|r| r.scenario.is_some() && r.max_victim_disturbance > 0));
    std::fs::remove_file(store_path("scenarios")).expect("cleanup");
}
