//! The benchmark measures the production campaign path, not a fork of it: a
//! small grid swept by the harness writes the same store, line for line
//! modulo order, as `bh_campaign sweep` writes for the same grid.

use bh_bench::{CampaignSpec, ResultStore, Scale};
use bh_mitigation::MechanismKind;
use std::path::{Path, PathBuf};
use std::process::Command;

const INSTRUCTIONS: u64 = 3_000;
const BENIGN_ENTRIES: usize = 1_500;
const ATTACKER_ENTRIES: usize = 1_000;
const SEEDS: [u64; 2] = [7, 8];

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("the benchmark sits in the repository")
}

fn scratch() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("production_path");
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Builds the repository's `bh_campaign` binary into the test's own target
/// directory and returns its path.
fn bh_campaign() -> PathBuf {
    let target = scratch().join("target");
    let status = Command::new(env!("CARGO"))
        .args(["build", "--release", "--offline", "--quiet", "-p", "bh-bench", "--bin"])
        .arg("bh_campaign")
        .arg("--manifest-path")
        .arg(repo_root().join("Cargo.toml"))
        .arg("--target-dir")
        .arg(&target)
        .status()
        .expect("cargo runs");
    assert!(status.success(), "building bh_campaign failed");
    target.join("release").join("bh_campaign")
}

/// The grid both sides sweep, as the harness builds it.
fn spec(attack: bool, channels: usize) -> CampaignSpec {
    let mut scale = Scale::quick();
    scale.instructions_per_core = INSTRUCTIONS;
    scale.benign_entries = BENIGN_ENTRIES;
    scale.attacker_entries = ATTACKER_ENTRIES;
    scale.channels = channels;
    scale.worker_threads = 1;
    scale.nrh_values = vec![64];
    scale.seed = SEEDS[0];
    let mechanisms = vec![MechanismKind::Graphene, MechanismKind::Aqua];
    let mut spec = CampaignSpec::from_scale(scale, mechanisms, attack);
    spec.seeds = SEEDS.to_vec();
    spec
}

/// The same grid through the command line. The scale comes from `BH_*`
/// variables there; every other `BH_*` variable of this process is removed
/// so it cannot leak in.
fn cli_sweep(binary: &Path, store: &Path, attack: bool, channels: usize) {
    let mut command = Command::new(binary);
    for (name, _) in std::env::vars() {
        if name.starts_with("BH_") {
            command.env_remove(name);
        }
    }
    command
        .env("BH_INSTRUCTIONS", INSTRUCTIONS.to_string())
        .env("BH_TRACE_ENTRIES", BENIGN_ENTRIES.to_string())
        .env("BH_ATTACKER_ENTRIES", ATTACKER_ENTRIES.to_string())
        .env("BH_MIXES_PER_CLASS", "1")
        .env("BH_CHANNELS", channels.to_string())
        .env("BH_WORKERS", "2")
        .arg("sweep")
        .arg("--store")
        .arg(store)
        .args(["--mechanisms", "graphene,aqua", "--nrh", "64", "--seeds", "7,8"])
        .args(["--breakhammer", "both"]);
    if !attack {
        command.arg("--benign");
    }
    let output = command.output().expect("bh_campaign runs");
    assert!(output.status.success(), "bh_campaign failed: {output:?}");
}

fn sorted_lines(path: &Path) -> Vec<String> {
    let mut lines: Vec<String> =
        std::fs::read_to_string(path).unwrap().lines().map(str::to_string).collect();
    lines.sort();
    lines
}

#[test]
fn harness_store_equals_bh_campaign_sweep() {
    let binary = bh_campaign();
    for (attack, channels) in [(true, 2), (false, 1)] {
        let dir = scratch();
        let cli = dir.join(format!("cli-{attack}-{channels}.jsonl"));
        let harness = dir.join(format!("harness-{attack}-{channels}.jsonl"));
        for path in [&cli, &harness] {
            let _ = std::fs::remove_file(path);
        }
        cli_sweep(&binary, &cli, attack, channels);
        let store = ResultStore::create(&harness).unwrap();
        let outcomes = cellbench::sweep_all(&spec(attack, channels), &store);
        drop(store);

        assert_eq!(outcomes.len(), 2 * 2 * 6 * SEEDS.len());
        assert!(outcomes.iter().all(Result::is_ok));
        let (cli_lines, harness_lines) = (sorted_lines(&cli), sorted_lines(&harness));
        assert_eq!(cli_lines.len(), outcomes.len());
        assert_eq!(cli_lines, harness_lines, "attack {attack}, {channels} channel(s)");
    }
}

/// Every per-layer metric of `BENCHMARK.json` has a row in the interaction
/// table, and every row names an end-to-end metric and workloads that exist.
#[test]
fn interaction_table_covers_every_per_layer_metric() {
    let benchmark = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).unwrap();
    let table =
        std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("interactions.json"))
            .unwrap();
    let section = |text: &str, key: &str| -> String {
        let start = text.find(&format!("\"{key}\"")).unwrap_or_else(|| panic!("no {key}"));
        let rest = &text[start..];
        rest[..rest.find(']').unwrap()].to_string()
    };
    let names = |text: &str| -> Vec<String> {
        text.split("\"name\": \"").skip(1).map(|s| s[..s.find('"').unwrap()].to_string()).collect()
    };
    let per_layer = names(&section(&benchmark, "per_layer"));
    let end_to_end = names(&section(&benchmark, "end_to_end"));
    let workloads = names(&section(&benchmark, "workloads"));
    assert!(!per_layer.is_empty() && !end_to_end.is_empty() && !workloads.is_empty());
    for metric in &per_layer {
        let key = format!("\"{metric}\": {{");
        let start = table.find(&key).unwrap_or_else(|| panic!("{metric} has no interaction row"));
        let row = &table[start..start + table[start..].find('}').unwrap()];
        let field = |name: &str| -> String {
            let at =
                row.find(&format!("\"{name}\": ")).unwrap_or_else(|| panic!("{metric}: {name}"));
            row[at..].split('"').nth(3).unwrap().to_string()
        };
        let moves = field("moves");
        assert!(moves == "none" || end_to_end.contains(&moves), "{metric} moves unknown {moves}");
        for key in ["on", "not_on"] {
            let workload = field(key);
            assert!(
                workload == "none" || workloads.contains(&workload),
                "{metric}: unknown workload {workload}"
            );
        }
    }
}
