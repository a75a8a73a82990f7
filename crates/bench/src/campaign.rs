//! Checkpoint/resume campaign engine.
//!
//! A campaign is a (configuration × mix × seed) grid of *cells*. The engine
//! streams each completed cell to a JSONL *result store* — one self-contained
//! JSON object per line, flushed as soon as the cell finishes — so a killed
//! sweep loses at most the cells in flight. Resuming parses the store,
//! collects the completed cell ids and skips them; an interrupted sweep
//! followed by a resume produces the same result set as an uninterrupted
//! sweep (cells are deterministic, only their order in the file differs).
//!
//! Cell identity is `"<config digest>/<mix name>/<seed>"`, where the digest
//! is FNV-1a-64 over the configuration's `Debug` representation — any
//! configuration change (mechanism, threshold, timing, scale) changes the
//! digest, so a store can never silently mix results from different sweeps.
//!
//! The JSONL reader/writer is hand-rolled (the workspace vendors no JSON
//! crate); it covers exactly the flat objects the engine emits.

// Hash collections are deliberate here: completed-cell ids and report
// groups are membership/grouping state whose output is explicitly sorted
// before display, and bh-bench is outside the digest-pinned set.
#![allow(clippy::disallowed_types)]

use crate::experiments::{config_grid, evaluate_jobs, EvalHooks, RunRecord, Scale};
use crate::Campaign;
use bh_mitigation::MechanismKind;
use bh_sim::{SystemConfig, TerminationReason};
use bh_stats::{fmt3, Table};
use std::collections::{HashMap, HashSet};
use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Version tag written into every result line; bump on schema changes so
/// readers can reject stores written by an incompatible engine.
///
/// v3 widened the per-cell `status` taxonomy to
/// `"ok" | "failed" | "livelock" | "budget"` (a typed run outcome instead of
/// ok-or-panic), added the `termination` field plus the rendered
/// `livelock_report` snapshot, and sealed every line with a trailing FNV-1a
/// `crc` field so torn or spliced lines are rejected instead of misread.
/// v2 added the `status` field (`"ok"` / `"failed"`), the attack-outcome
/// fields and failed-cell lines. Older stores parse to nothing, so resuming
/// one with a v3 engine reruns every cell.
pub const SCHEMA_VERSION: u64 = 3;

// --- cell identity ----------------------------------------------------------

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Digest identifying a system configuration inside cell ids: FNV-1a-64 over
/// the `Debug` representation, which covers every field (timings, caches,
/// mechanism parameters — not just the mechanism/N_RH headline).
pub fn config_digest(config: &SystemConfig) -> String {
    format!("{:016x}", fnv1a64(format!("{config:?}").as_bytes()))
}

/// The identity of one campaign cell: configuration digest, mix name and
/// workload seed. This is what resume matches on.
pub fn cell_id(config: &SystemConfig, mix_name: &str, seed: u64) -> String {
    format!("{}/{mix_name}/{seed}", config_digest(config))
}

// --- line seal --------------------------------------------------------------

/// Seals a serialised line (which must be a complete `{…}` object) by
/// appending a final `"crc"` field: FNV-1a-64 over the line *without* the crc
/// field. A torn write, a spliced hybrid of two records, or any in-place edit
/// breaks the seal, and every reader drops the line instead of misreading it.
fn seal_line(mut line: String) -> String {
    debug_assert!(line.ends_with('}'), "seal_line wants a complete object");
    let crc = fnv1a64(line.as_bytes());
    line.pop();
    line.push_str(&format!(",\"crc\":\"{crc:016x}\"}}"));
    line
}

/// True if `line` ends with a `"crc"` seal that matches its own content.
fn seal_intact(line: &str) -> bool {
    let line = line.trim_end();
    let Some(idx) = line.rfind(",\"crc\":\"") else { return false };
    let Some(hex) = line[idx..].strip_prefix(",\"crc\":\"").and_then(|t| t.strip_suffix("\"}"))
    else {
        return false;
    };
    let Ok(crc) = u64::from_str_radix(hex, 16) else { return false };
    let mut body = line[..idx].to_string();
    body.push('}');
    fnv1a64(body.as_bytes()) == crc
}

// --- minimal JSON -----------------------------------------------------------

/// A JSON scalar as it appears in a result line (the schema is flat: no
/// nested objects or arrays besides the latency triple, which is flattened
/// into three keys on write).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Str(String),
    /// An unsigned integer, kept exact: an `f64` loses precision above 2^53,
    /// and seeds span all of `u64`.
    UInt(u64),
    Num(f64),
    Bool(bool),
    Null,
}

fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

/// Serialises one key/value pair into `out` (which must already hold the
/// object opener or a previous pair).
fn push_field(out: &mut String, key: &str, value: &Json) {
    if !out.ends_with('{') {
        out.push(',');
    }
    out.push('"');
    escape_into(out, key);
    out.push_str("\":");
    match value {
        Json::Str(s) => {
            out.push('"');
            escape_into(out, s);
            out.push('"');
        }
        Json::UInt(v) => out.push_str(&v.to_string()),
        // `{}` on finite f64 round-trips exactly and never uses an exponent;
        // non-finite values are not valid JSON, so they degrade to null (the
        // line then fails record parsing and the cell reruns on resume).
        Json::Num(v) if v.is_finite() => out.push_str(&v.to_string()),
        Json::Num(_) | Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
    }
}

struct Scanner<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Scanner<'a> {
    fn new(s: &'a str) -> Self {
        Scanner { bytes: s.as_bytes(), pos: 0 }
    }

    fn skip_ws(&mut self) {
        while self.bytes.get(self.pos).is_some_and(|b| b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn expect(&mut self, want: u8) -> Option<()> {
        (self.bump()? == want).then_some(())
    }

    /// Parses a `"…"` string (the opening quote not yet consumed).
    fn string(&mut self) -> Option<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump()? {
                b'"' => return Some(out),
                b'\\' => match self.bump()? {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            code = code * 16 + (self.bump()? as char).to_digit(16)?;
                        }
                        out.push(char::from_u32(code)?);
                    }
                    _ => return None,
                },
                b => {
                    // Re-decode multi-byte UTF-8 sequences from the source.
                    if b < 0x80 {
                        out.push(b as char);
                    } else {
                        let start = self.pos - 1;
                        while self.peek().is_some_and(|n| n & 0xc0 == 0x80) {
                            self.pos += 1;
                        }
                        out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).ok()?);
                    }
                }
            }
        }
    }

    fn value(&mut self) -> Option<Json> {
        match self.peek()? {
            b'"' => Some(Json::Str(self.string()?)),
            b't' => self.literal("true").map(|_| Json::Bool(true)),
            b'f' => self.literal("false").map(|_| Json::Bool(false)),
            b'n' => self.literal("null").map(|_| Json::Null),
            _ => {
                let start = self.pos;
                while self.peek().is_some_and(|b| {
                    b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E')
                }) {
                    self.pos += 1;
                }
                let token = std::str::from_utf8(&self.bytes[start..self.pos]).ok()?;
                // A bare digit run is an exact integer; anything else (sign,
                // fraction, exponent, or past `u64::MAX`) reads as an f64.
                match token.parse::<u64>() {
                    Ok(v) => Some(Json::UInt(v)),
                    Err(_) => token.parse::<f64>().ok().map(Json::Num),
                }
            }
        }
    }

    fn literal(&mut self, word: &str) -> Option<()> {
        for &b in word.as_bytes() {
            self.expect(b)?;
        }
        Some(())
    }
}

/// Parses one result line into its key → value map. Returns `None` on any
/// syntax error (resume treats such lines as incomplete cells).
fn parse_object(line: &str) -> Option<HashMap<String, Json>> {
    let mut s = Scanner::new(line);
    s.skip_ws();
    s.expect(b'{')?;
    let mut map = HashMap::new();
    s.skip_ws();
    if s.peek() == Some(b'}') {
        s.bump();
    } else {
        loop {
            s.skip_ws();
            let key = s.string()?;
            s.skip_ws();
            s.expect(b':')?;
            s.skip_ws();
            map.insert(key, s.value()?);
            s.skip_ws();
            match s.bump()? {
                b',' => continue,
                b'}' => break,
                _ => return None,
            }
        }
    }
    s.skip_ws();
    s.peek().is_none().then_some(map)
}

// --- result lines -----------------------------------------------------------

/// One completed cell parsed back from a result store.
#[derive(Debug, Clone, PartialEq)]
pub struct CellRecord {
    /// Cell id (`"<config digest>/<mix>/<seed>"`).
    pub cell: String,
    /// Mechanism label (round-trips through [`MechanismKind::parse`]).
    pub mechanism: String,
    /// RowHammer threshold.
    pub nrh: u64,
    /// Whether BreakHammer was attached.
    pub breakhammer: bool,
    /// Workload-generation seed of the cell.
    pub seed: u64,
    /// Mix instance name.
    pub mix: String,
    /// Mix class label.
    pub mix_class: String,
    /// Attack-scenario tag (`None` for classic/benign mixes).
    pub scenario: Option<String>,
    /// Whether the sweep used the attack suite.
    pub attack: bool,
    /// Weighted speedup over the benign applications.
    pub weighted_speedup: f64,
    /// Maximum slowdown of a benign application.
    pub max_slowdown: f64,
    /// DRAM energy in nanojoules.
    pub energy_nj: f64,
    /// RowHammer-preventive actions performed.
    pub preventive_actions: u64,
    /// Benign memory-latency percentiles in nanoseconds (p50, p90, p99).
    pub latency_ns: [f64; 3],
    /// True if the attacker thread was flagged as a suspect.
    pub attacker_identified: bool,
    /// True if a benign thread was flagged as a suspect.
    pub benign_misidentified: bool,
    /// Would-be RowHammer bitflips.
    pub bitflips: u64,
    /// Largest end-of-run disturbance of any watched victim row.
    pub max_victim_disturbance: u64,
    /// Raw bit-flips before ECC (the fault model's output).
    pub flips_raw: u64,
    /// Flips corrected by ECC.
    pub flips_corrected: u64,
    /// Flips detected but not corrected (machine-check events).
    pub flips_detected: u64,
    /// Flips that escaped ECC silently.
    pub flips_silent: u64,
    /// Whether the cell satisfied its mix's attack-success criterion.
    pub attack_success: bool,
    /// Run-outcome status of the cell: `"ok"` (completed or hit the cycle
    /// cutoff), `"livelock"` (the forward-progress watchdog fired) or
    /// `"budget"` (a deterministic per-run budget was exceeded). Panicked
    /// cells are [`FailedCell`]s, not `CellRecord`s.
    pub status: String,
    /// The simulator's termination label (`"completed"`, `"cutoff"`,
    /// `"livelock"`, `"budget"`) — finer than `status`, which folds the two
    /// healthy outcomes into `"ok"`.
    pub termination: String,
    /// Rendered [`bh_sim::LivelockReport`] snapshot (`None` unless `status`
    /// is `"livelock"`).
    pub livelock_report: Option<String>,
}

impl CellRecord {
    /// True for cells whose run ended healthily (completed or cycle cutoff).
    pub fn is_ok(&self) -> bool {
        self.status == "ok"
    }
}

/// The store status a run outcome maps to: both healthy endings are `"ok"`;
/// the watchdog verdicts get their own statuses so `resume` can settle them
/// and `report --strict` can flag them.
pub fn termination_status(termination: TerminationReason) -> &'static str {
    match termination {
        TerminationReason::Completed | TerminationReason::CycleCutoff => "ok",
        TerminationReason::Livelock => "livelock",
        TerminationReason::BudgetExceeded => "budget",
    }
}

/// Serialises one evaluated cell as a single sealed JSONL line (no trailing
/// newline). The line's `status` reflects the run's termination: `"ok"`,
/// `"livelock"` or `"budget"`.
pub fn record_line(cell: &str, seed: u64, attack: bool, r: &RunRecord) -> String {
    let mut out = String::with_capacity(512);
    out.push('{');
    push_field(&mut out, "schema", &Json::UInt(SCHEMA_VERSION));
    push_field(&mut out, "status", &Json::Str(termination_status(r.termination).to_string()));
    push_field(&mut out, "cell", &Json::Str(cell.to_string()));
    push_field(&mut out, "mechanism", &Json::Str(r.mechanism.to_string()));
    push_field(&mut out, "nrh", &Json::UInt(r.nrh));
    push_field(&mut out, "breakhammer", &Json::Bool(r.breakhammer));
    push_field(&mut out, "seed", &Json::UInt(seed));
    push_field(&mut out, "mix", &Json::Str(r.mix_name.clone()));
    push_field(&mut out, "mix_class", &Json::Str(r.mix_class.clone()));
    let scenario = match &r.scenario {
        Some(s) => Json::Str(s.clone()),
        None => Json::Null,
    };
    push_field(&mut out, "scenario", &scenario);
    push_field(&mut out, "attack", &Json::Bool(attack));
    push_field(&mut out, "weighted_speedup", &Json::Num(r.weighted_speedup));
    push_field(&mut out, "max_slowdown", &Json::Num(r.max_slowdown));
    push_field(&mut out, "energy_nj", &Json::Num(r.energy_nj));
    push_field(&mut out, "preventive_actions", &Json::UInt(r.preventive_actions));
    push_field(&mut out, "latency_p50_ns", &Json::Num(r.latency_ns[0]));
    push_field(&mut out, "latency_p90_ns", &Json::Num(r.latency_ns[1]));
    push_field(&mut out, "latency_p99_ns", &Json::Num(r.latency_ns[2]));
    push_field(&mut out, "attacker_identified", &Json::Bool(r.attacker_identified));
    push_field(&mut out, "benign_misidentified", &Json::Bool(r.benign_misidentified));
    push_field(&mut out, "bitflips", &Json::UInt(r.bitflips as u64));
    push_field(&mut out, "max_victim_disturbance", &Json::UInt(r.max_victim_disturbance));
    push_field(&mut out, "flips_raw", &Json::UInt(r.flips_raw));
    push_field(&mut out, "flips_corrected", &Json::UInt(r.flips_corrected));
    push_field(&mut out, "flips_detected", &Json::UInt(r.flips_detected));
    push_field(&mut out, "flips_silent", &Json::UInt(r.flips_silent));
    push_field(&mut out, "attack_success", &Json::Bool(r.attack_success));
    push_field(&mut out, "termination", &Json::Str(r.termination.label().to_string()));
    let report = match &r.livelock {
        Some(report) => Json::Str(report.clone()),
        None => Json::Null,
    };
    push_field(&mut out, "livelock_report", &report);
    out.push('}');
    seal_line(out)
}

/// Serialises one *failed* cell (a cell whose evaluation panicked) as a
/// single JSONL line. Failed lines keep the sweep's checkpoint stream
/// append-only — the panic is recorded instead of killing the sweep — and
/// are retried by `resume` (they never count as completed).
pub fn failed_line(cell: &str, seed: u64, attack: bool, error: &str) -> String {
    let mut out = String::with_capacity(256);
    out.push('{');
    push_field(&mut out, "schema", &Json::UInt(SCHEMA_VERSION));
    push_field(&mut out, "status", &Json::Str("failed".to_string()));
    push_field(&mut out, "cell", &Json::Str(cell.to_string()));
    push_field(&mut out, "seed", &Json::UInt(seed));
    push_field(&mut out, "attack", &Json::Bool(attack));
    push_field(&mut out, "error", &Json::Str(error.to_string()));
    out.push('}');
    seal_line(out)
}

impl CellRecord {
    /// Parses one store line; `None` for malformed, schema-mismatched or
    /// seal-broken lines (e.g. a line truncated by a kill mid-write, or a
    /// torn write splicing two records together).
    pub fn parse(line: &str) -> Option<Self> {
        if !seal_intact(line) {
            return None;
        }
        let map = parse_object(line)?;
        let num = |key: &str| match map.get(key) {
            Some(Json::Num(v)) => Some(*v),
            Some(Json::UInt(v)) => Some(*v as f64),
            _ => None,
        };
        let int = |key: &str| match map.get(key) {
            Some(Json::UInt(v)) => Some(*v),
            Some(Json::Num(v)) if *v >= 0.0 => Some(*v as u64),
            _ => None,
        };
        let string = |key: &str| match map.get(key) {
            Some(Json::Str(s)) => Some(s.clone()),
            _ => None,
        };
        let boolean = |key: &str| match map.get(key) {
            Some(Json::Bool(b)) => Some(*b),
            _ => None,
        };
        if int("schema")? != SCHEMA_VERSION {
            return None;
        }
        let status = string("status")?;
        if !matches!(status.as_str(), "ok" | "livelock" | "budget") {
            return None;
        }
        Some(CellRecord {
            status,
            termination: string("termination")?,
            livelock_report: match map.get("livelock_report")? {
                Json::Str(s) => Some(s.clone()),
                Json::Null => None,
                _ => return None,
            },
            cell: string("cell")?,
            mechanism: string("mechanism")?,
            nrh: int("nrh")?,
            breakhammer: boolean("breakhammer")?,
            seed: int("seed")?,
            mix: string("mix")?,
            mix_class: string("mix_class")?,
            scenario: match map.get("scenario")? {
                Json::Str(s) => Some(s.clone()),
                Json::Null => None,
                _ => return None,
            },
            attack: boolean("attack")?,
            weighted_speedup: num("weighted_speedup")?,
            max_slowdown: num("max_slowdown")?,
            energy_nj: num("energy_nj")?,
            preventive_actions: int("preventive_actions")?,
            latency_ns: [num("latency_p50_ns")?, num("latency_p90_ns")?, num("latency_p99_ns")?],
            attacker_identified: boolean("attacker_identified")?,
            benign_misidentified: boolean("benign_misidentified")?,
            bitflips: int("bitflips")?,
            max_victim_disturbance: int("max_victim_disturbance")?,
            flips_raw: int("flips_raw")?,
            flips_corrected: int("flips_corrected")?,
            flips_detected: int("flips_detected")?,
            flips_silent: int("flips_silent")?,
            attack_success: boolean("attack_success")?,
        })
    }
}

/// One failed cell parsed back from a result store (a cell whose evaluation
/// panicked; `resume` retries it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailedCell {
    /// Cell id (`"<config digest>/<mix>/<seed>"`).
    pub cell: String,
    /// The panic message recorded when the cell failed.
    pub error: String,
}

impl FailedCell {
    /// Parses one store line as a failed-cell record; `None` for anything
    /// else (evaluated cells, malformed or seal-broken lines, foreign
    /// schemas).
    pub fn parse(line: &str) -> Option<Self> {
        if !seal_intact(line) {
            return None;
        }
        let map = parse_object(line)?;
        let string = |key: &str| match map.get(key) {
            Some(Json::Str(s)) => Some(s.clone()),
            _ => None,
        };
        match map.get("schema") {
            Some(Json::UInt(SCHEMA_VERSION)) => {}
            _ => return None,
        }
        if string("status")? != "failed" {
            return None;
        }
        Some(FailedCell { cell: string("cell")?, error: string("error")? })
    }
}

/// One well-formed line of a result store: an evaluated cell (status `"ok"`,
/// `"livelock"` or `"budget"`) or a recorded failure. Malformed lines
/// (truncated, garbage, seal-broken, foreign schema) parse to neither and
/// are skipped by every reader.
#[derive(Debug, Clone, PartialEq)]
pub enum StoreEntry {
    /// An evaluated cell with its measurements and run outcome (boxed: a
    /// record is an order of magnitude larger than a failure note).
    Completed(Box<CellRecord>),
    /// A cell whose evaluation panicked.
    Failed(FailedCell),
}

impl StoreEntry {
    /// Parses one store line; `None` for malformed or foreign lines.
    pub fn parse(line: &str) -> Option<Self> {
        if let Some(record) = CellRecord::parse(line) {
            return Some(StoreEntry::Completed(Box::new(record)));
        }
        FailedCell::parse(line).map(StoreEntry::Failed)
    }
}

// --- result store -----------------------------------------------------------

/// Append-only JSONL store of evaluated cells, flushed per line so an
/// interrupted sweep checkpoints everything that finished.
pub struct ResultStore {
    path: PathBuf,
    writer: Mutex<BufWriter<Box<dyn Write + Send>>>,
}

impl std::fmt::Debug for ResultStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResultStore").field("path", &self.path).finish_non_exhaustive()
    }
}

impl ResultStore {
    /// Creates a fresh store. Refuses a path that already holds data — a
    /// half-finished sweep must be continued with [`ResultStore::append_to`]
    /// (the CLI's `resume`), not silently truncated.
    pub fn create(path: &Path) -> io::Result<Self> {
        if path.exists() && std::fs::metadata(path)?.len() > 0 {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                format!(
                    "result store {} already holds data; use resume (or remove it) instead of overwriting",
                    path.display()
                ),
            ));
        }
        let file = File::create(path)?;
        Ok(Self::with_writer(path, Box::new(file)))
    }

    /// Opens an existing store for appending. Refuses a missing path — there
    /// is nothing to resume from.
    pub fn append_to(path: &Path) -> io::Result<Self> {
        if !path.exists() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("result store {} does not exist; run a sweep first", path.display()),
            ));
        }
        // A store killed mid-append can end with a torn line and no trailing
        // newline. Appending straight after it would glue the next record
        // onto the torn tail, corrupting that record too — terminate the
        // tail first so every new line starts at column zero. (The torn line
        // itself stays in the file; its broken crc seal makes every reader
        // drop it, and its cell reruns.)
        let needs_newline = {
            let mut file = File::open(path)?;
            if file.metadata()?.len() == 0 {
                false
            } else {
                file.seek(SeekFrom::End(-1))?;
                let mut last = [0u8; 1];
                file.read_exact(&mut last)?;
                last[0] != b'\n'
            }
        };
        let mut file = OpenOptions::new().append(true).open(path)?;
        if needs_newline {
            file.write_all(b"\n")?;
        }
        Ok(Self::with_writer(path, Box::new(file)))
    }

    /// Builds a store around an arbitrary writer. `path` is only used in
    /// error messages and by [`ResultStore::path`]. This is the injection
    /// point the chaos tests use to drive I/O faults (transient and
    /// persistent write failures) through [`ResultStore::append`]; production
    /// stores come from [`ResultStore::create`] / [`ResultStore::append_to`].
    pub fn with_writer(path: &Path, writer: Box<dyn Write + Send>) -> Self {
        ResultStore { path: path.to_path_buf(), writer: Mutex::new(BufWriter::new(writer)) }
    }

    /// The file backing the store.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one line and flushes it — the per-cell checkpoint.
    ///
    /// Transient flush errors (an NFS hiccup, a momentary ENOSPC) are
    /// retried a bounded number of times with exponential backoff before
    /// giving up: an hours-long sweep should not die on one blip. Only the
    /// flush is retried — the `BufWriter` tracks how much of its buffer a
    /// partial flush consumed, so re-flushing never duplicates bytes,
    /// whereas re-running the buffered write itself would.
    ///
    /// # Panics
    /// Panics — naming the store path — if buffering the line fails or the
    /// flush still fails after every retry: the store *is* the sweep's
    /// output, there is nothing sensible to degrade to.
    pub fn append(&self, line: &str) {
        const ATTEMPTS: u32 = 5;
        // A worker that panicked while holding the lock leaves at most one
        // torn line behind, and the per-line crc seal rejects torn lines on
        // read — so a poisoned lock is safe to recover instead of cascading
        // the panic into every other worker's checkpoint.
        let mut writer = self.writer.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        writeln!(writer, "{line}").unwrap_or_else(|e| {
            panic!("buffering a result line for {} failed: {e}", self.path.display())
        });
        let mut backoff = std::time::Duration::from_millis(10);
        for attempt in 1..=ATTEMPTS {
            match writer.flush() {
                Ok(()) => return,
                Err(e) if attempt == ATTEMPTS => panic!(
                    "flushing the campaign result store {} failed after {ATTEMPTS} attempts: {e}",
                    self.path.display()
                ),
                Err(_) => {
                    std::thread::sleep(backoff);
                    backoff *= 2;
                }
            }
        }
    }

    /// Every well-formed entry of a store (completed and failed cells), in
    /// file order. Malformed lines — truncated tails, interior garbage,
    /// half-overwritten records — are skipped; their cells rerun on resume.
    pub fn entries(path: &Path) -> io::Result<Vec<StoreEntry>> {
        let mut entries = Vec::new();
        for line in BufReader::new(File::open(path)?).lines() {
            if let Some(entry) = StoreEntry::parse(&line?) {
                entries.push(entry);
            }
        }
        Ok(entries)
    }

    /// The set of *settled* cell ids recorded in a store: every evaluated
    /// cell, whatever its outcome (`"ok"`, `"livelock"`, `"budget"`). This is
    /// the skip set `resume` uses — a livelock or budget verdict is
    /// deterministic, so rerunning the cell would reproduce it, not fix it.
    /// Malformed lines and failed (panicked) cells are not settled; their
    /// cells rerun on resume.
    pub fn settled_cells(path: &Path) -> io::Result<HashSet<String>> {
        Ok(Self::entries(path)?
            .into_iter()
            .filter_map(|entry| match entry {
                StoreEntry::Completed(record) => Some(record.cell),
                StoreEntry::Failed(_) => None,
            })
            .collect())
    }

    /// The set of cell ids with a healthy (`"ok"`) record in a store.
    /// Livelock/budget verdicts and failed cells are excluded.
    pub fn completed_cells(path: &Path) -> io::Result<HashSet<String>> {
        Ok(Self::entries(path)?
            .into_iter()
            .filter_map(|entry| match entry {
                StoreEntry::Completed(record) if record.is_ok() => Some(record.cell),
                _ => None,
            })
            .collect())
    }

    /// Every evaluated cell whose run ended with a watchdog verdict
    /// (`"livelock"` or `"budget"`), in file order, first verdict per cell.
    pub fn verdict_cells(path: &Path) -> io::Result<Vec<CellRecord>> {
        let mut seen = HashSet::new();
        Ok(Self::entries(path)?
            .into_iter()
            .filter_map(|entry| match entry {
                StoreEntry::Completed(record) if !record.is_ok() => Some(*record),
                _ => None,
            })
            .filter(|record| seen.insert(record.cell.clone()))
            .collect())
    }

    /// Every well-formed cell record of a store, in file order (failed cells
    /// excluded; livelock/budget verdicts included — filter on
    /// [`CellRecord::is_ok`] before aggregating performance numbers).
    pub fn load(path: &Path) -> io::Result<Vec<CellRecord>> {
        Ok(Self::entries(path)?
            .into_iter()
            .filter_map(|entry| match entry {
                StoreEntry::Completed(record) => Some(*record),
                StoreEntry::Failed(_) => None,
            })
            .collect())
    }

    /// The failed cells still pending a retry: cells with a `"failed"` line
    /// and no later completed line (a resume that succeeds leaves the old
    /// failed line in place — the store is append-only).
    pub fn failed_cells(path: &Path) -> io::Result<Vec<FailedCell>> {
        let entries = Self::entries(path)?;
        let completed: HashSet<&str> = entries
            .iter()
            .filter_map(|entry| match entry {
                StoreEntry::Completed(record) => Some(record.cell.as_str()),
                StoreEntry::Failed(_) => None,
            })
            .collect();
        let mut seen = HashSet::new();
        Ok(entries
            .iter()
            .filter_map(|entry| match entry {
                StoreEntry::Failed(f) if !completed.contains(f.cell.as_str()) => Some(f.clone()),
                _ => None,
            })
            .filter(|f| seen.insert(f.cell.clone()))
            .collect())
    }
}

// --- wall-clock overseer ----------------------------------------------------

/// Last-resort wall-clock watchdog over in-flight campaign cells.
///
/// The simulator's own forward-progress watchdog is deterministic and lives
/// inside the sim crates; this overseer is the safety net *around* it — if a
/// cell somehow runs past a wall-clock budget (a sim bug the deterministic
/// watchdog misses, a pathological configuration with the watchdog disabled),
/// it warns on stderr, once per cell, and keeps the sweep running. It never
/// influences results, so keeping it (and the only wall-clock reads of the
/// workspace outside benches) confined to the campaign layer preserves the
/// sim crates' determinism lint.
#[derive(Debug)]
pub struct CellOverseer {
    shared: Arc<OverseerShared>,
    watcher: Option<std::thread::JoinHandle<()>>,
}

#[derive(Debug)]
struct OverseerShared {
    timeout: Duration,
    state: Mutex<OverseerState>,
    wakeup: Condvar,
}

#[derive(Debug, Default)]
struct OverseerState {
    running: HashMap<String, Instant>,
    overdue: Vec<String>,
    stop: bool,
}

impl CellOverseer {
    /// Builds an overseer from `BH_CELL_TIMEOUT_SECS`; `None` when the knob
    /// is unset (the default — no wall clock is read at all).
    pub fn from_env() -> Option<Self> {
        let secs = bh_core::knobs::positive_usize("BH_CELL_TIMEOUT_SECS", "no overseer")?;
        Some(Self::new(Duration::from_secs(secs as u64)))
    }

    /// Starts an overseer with an explicit per-cell wall-clock budget.
    pub fn new(timeout: Duration) -> Self {
        let shared = Arc::new(OverseerShared {
            timeout,
            state: Mutex::new(OverseerState::default()),
            wakeup: Condvar::new(),
        });
        let watcher_shared = Arc::clone(&shared);
        let watcher = std::thread::spawn(move || watcher_shared.watch());
        CellOverseer { shared, watcher: Some(watcher) }
    }

    /// Marks a cell as in flight (called when a worker claims it).
    // The overseer is the one deliberate wall-clock consumer outside the
    // benches: it only warns, never feeds results (bh_analyze D2 exempts
    // bh-bench for exactly this kind of harness machinery).
    #[allow(clippy::disallowed_methods)]
    pub fn begin(&self, cell: &str) {
        let mut state = self.shared.lock_state();
        state.running.insert(cell.to_string(), Instant::now());
    }

    /// Marks a cell as finished (completed or panicked) — it is no longer
    /// watched.
    pub fn finish(&self, cell: &str) {
        let mut state = self.shared.lock_state();
        state.running.remove(cell);
    }

    /// The cells that exceeded the wall-clock budget so far, in detection
    /// order (each warned once on stderr).
    pub fn overdue_cells(&self) -> Vec<String> {
        self.shared.lock_state().overdue.clone()
    }
}

impl Drop for CellOverseer {
    fn drop(&mut self) {
        self.shared.lock_state().stop = true;
        self.shared.wakeup.notify_all();
        if let Some(watcher) = self.watcher.take() {
            // The watcher only sleeps and prints; a panic there must not
            // cascade into the sweep's teardown.
            let _ = watcher.join();
        }
    }
}

impl OverseerShared {
    /// Locks the state, recovering from poison: the state is a plain map of
    /// start times, valid after any panic.
    fn lock_state(&self) -> std::sync::MutexGuard<'_, OverseerState> {
        self.state.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    // Wall clock is this thread's whole job: measuring how long cells have
    // been in flight. Warn-only — results never depend on it.
    #[allow(clippy::disallowed_methods)]
    fn watch(&self) {
        let mut state = self.lock_state();
        loop {
            if state.stop {
                return;
            }
            let now = Instant::now();
            let over: Vec<String> = state
                .running
                .iter()
                .filter(|(_, started)| now.duration_since(**started) >= self.timeout)
                .map(|(cell, _)| cell.clone())
                .collect();
            for cell in over {
                state.running.remove(&cell);
                state.overdue.push(cell.clone());
                eprintln!(
                    "warning: campaign cell {cell} has been running for over {:?} of wall \
                     clock; the sweep continues — check the deterministic watchdog \
                     configuration (BH_WATCHDOG_*) if this cell never settles",
                    self.timeout
                );
            }
            // Poll at a fraction of the budget so detection latency stays
            // proportionate, bounded for very small test budgets.
            let poll = (self.timeout / 4).clamp(Duration::from_millis(5), Duration::from_secs(1));
            let (next, _) = self
                .wakeup
                .wait_timeout(state, poll)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            state = next;
        }
    }
}

// --- the sweep engine -------------------------------------------------------

/// The definition of a campaign sweep: the (mechanism × N_RH × ±BreakHammer)
/// configuration matrix crossed with the mix suite and the workload seeds.
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    /// Experiment scale; `scale.seed` is overridden per entry of `seeds`.
    pub scale: Scale,
    /// Mechanisms swept.
    pub mechanisms: Vec<MechanismKind>,
    /// RowHammer thresholds swept.
    pub nrh_values: Vec<u64>,
    /// BreakHammer off/on arms (the `None` mechanism never gets the `true`
    /// arm: BreakHammer needs a mechanism to observe).
    pub breakhammer_options: Vec<bool>,
    /// `true` sweeps the attack suite (plus scenarios), `false` the benign
    /// suite.
    pub attack: bool,
    /// Workload-generation seeds; each seed regenerates the full mix suite.
    pub seeds: Vec<u64>,
    /// Test-only fault hook (the CLI reads `BH_TEST_FORCE_PANIC_MIX` into
    /// it): cells whose mix name contains this pattern panic instead of
    /// evaluating, exercising the panic-isolation path end to end. `None`
    /// in production.
    pub force_panic_mix: Option<String>,
    /// Test-only fault hook (the CLI reads `BH_TEST_FORCE_SPIN_MIX` into
    /// it): cells whose mix name contains this pattern evaluate under an
    /// injected livelock, so the watchdog classifies them `"livelock"`
    /// deterministically. Cell identity stays that of the base
    /// configuration. `None` in production.
    pub force_spin_mix: Option<String>,
}

impl CampaignSpec {
    /// A spec covering `scale`'s N_RH sweep for the given mechanisms, both
    /// BreakHammer arms, and `scale.seed` as the only seed.
    pub fn from_scale(scale: Scale, mechanisms: Vec<MechanismKind>, attack: bool) -> Self {
        CampaignSpec {
            nrh_values: scale.nrh_values.clone(),
            seeds: vec![scale.seed],
            breakhammer_options: vec![false, true],
            mechanisms,
            attack,
            scale,
            force_panic_mix: None,
            force_spin_mix: None,
        }
    }

    /// The configuration matrix at a given scale (which carries the seed).
    fn configs(&self, scale: &Scale) -> Vec<SystemConfig> {
        config_grid(scale, &self.mechanisms, &self.nrh_values, &self.breakhammer_options)
    }

    /// Runs the sweep, streaming each evaluated cell to `store` and skipping
    /// the cells in `completed` (the settled set on resume). `cell_limit`
    /// caps how many cells this invocation evaluates (used to exercise
    /// interruption deterministically in tests and CI; a real interruption —
    /// SIGKILL, OOM — leaves the same store state, minus any cell that was
    /// mid-evaluation).
    ///
    /// When `BH_CELL_TIMEOUT_SECS` is set, a wall-clock [`CellOverseer`]
    /// watches the in-flight cells and warns about any that exceed the
    /// budget — a last resort confined to this campaign layer; the
    /// deterministic in-simulator watchdog is the real defense.
    pub fn run(
        &self,
        store: &ResultStore,
        completed: &HashSet<String>,
        cell_limit: Option<usize>,
    ) -> SweepSummary {
        let mut sweep = StoreSweep::new(store, completed, cell_limit);
        sweep.force_panic_mix = self.force_panic_mix.as_deref();
        sweep.force_spin_mix = self.force_spin_mix.as_deref();
        for &seed in &self.seeds {
            let mut scale = self.scale.clone();
            scale.seed = seed;
            // Mixes and alone baselines depend on the seed, so each seed
            // gets its own campaign (and its own alone-IPC cache: same app
            // name, different trace).
            let mut campaign = Campaign::new(scale.clone());
            sweep.evaluate(&mut campaign, &self.configs(&scale), self.attack);
        }
        sweep.summary
    }
}

/// The store-backed evaluation loop behind every `bh_campaign` command:
/// evaluates the (configuration × mix) cells of one campaign that the store
/// does not hold yet and streams each finished cell to the store.
/// [`CampaignSpec::run`] drives it once per seed, the `figure` command once per
/// mix suite its figures read.
pub(crate) struct StoreSweep<'a> {
    store: &'a ResultStore,
    /// Cells already settled in the store.
    settled: &'a HashSet<String>,
    /// Cells this sweep has already counted, so a cell that two calls (or
    /// two equal configurations) name is evaluated once.
    seen: HashSet<String>,
    /// Cells this sweep may still evaluate.
    budget: usize,
    overseer: Option<CellOverseer>,
    pub force_panic_mix: Option<&'a str>,
    pub force_spin_mix: Option<&'a str>,
    pub summary: SweepSummary,
}

impl<'a> StoreSweep<'a> {
    /// A sweep appending to `store` that skips the `settled` cells and
    /// evaluates at most `cell_limit` cells in total.
    ///
    /// When `BH_CELL_TIMEOUT_SECS` is set, a wall-clock [`CellOverseer`]
    /// watches the in-flight cells.
    pub fn new(
        store: &'a ResultStore,
        settled: &'a HashSet<String>,
        cell_limit: Option<usize>,
    ) -> Self {
        StoreSweep {
            store,
            settled,
            seen: HashSet::new(),
            budget: cell_limit.unwrap_or(usize::MAX),
            overseer: CellOverseer::from_env(),
            force_panic_mix: None,
            force_spin_mix: None,
            summary: SweepSummary::default(),
        }
    }

    /// Evaluates every cell of `configs` × `campaign`'s attack or benign
    /// suite (at the campaign's seed) that is neither settled nor already
    /// seen by this sweep, within the remaining budget.
    pub fn evaluate(&mut self, campaign: &mut Campaign, configs: &[SystemConfig], attack: bool) {
        let seed = campaign.scale().seed;
        let mixes = campaign.sweep_mixes(attack);
        let mut jobs: Vec<(usize, usize)> = Vec::new();
        let mut cells: Vec<String> = Vec::new();
        for (c, config) in configs.iter().enumerate() {
            let digest = config_digest(config);
            for (m, mix) in mixes.iter().enumerate() {
                let id = format!("{digest}/{}/{seed}", mix.name);
                if !self.seen.insert(id.clone()) {
                    continue;
                }
                self.summary.total_cells += 1;
                if self.settled.contains(&id) {
                    self.summary.skipped_cells += 1;
                } else if self.budget == 0 {
                    self.summary.deferred_cells += 1;
                } else {
                    self.budget -= 1;
                    jobs.push((c, m));
                    cells.push(id);
                }
            }
        }
        if jobs.is_empty() {
            return;
        }
        let cache = campaign.warmed_alone_cache().clone();
        let (store, overseer) = (self.store, &self.overseer);
        let on_claim = |i: usize| {
            if let Some(overseer) = overseer {
                overseer.begin(&cells[i]);
            }
        };
        let on_cell = |i: usize, outcome: Result<&RunRecord, &str>| {
            if let Some(overseer) = overseer {
                overseer.finish(&cells[i]);
            }
            match outcome {
                Ok(record) => store.append(&record_line(&cells[i], seed, attack, record)),
                Err(error) => store.append(&failed_line(&cells[i], seed, attack, error)),
            }
        };
        let hooks = EvalHooks {
            force_panic_mix: self.force_panic_mix,
            force_spin_mix: self.force_spin_mix,
            on_claim: &on_claim,
            on_record: &on_cell,
        };
        let workers = campaign.scale().worker_threads;
        let results = evaluate_jobs(configs, &mixes, &jobs, &cache, workers, &hooks);
        for result in &results {
            match result {
                Ok(record) => {
                    self.summary.evaluated_cells += 1;
                    match record.termination {
                        TerminationReason::Livelock => self.summary.livelock_cells += 1,
                        TerminationReason::BudgetExceeded => self.summary.budget_cells += 1,
                        TerminationReason::Completed | TerminationReason::CycleCutoff => {}
                    }
                }
                Err(_) => self.summary.failed_cells += 1,
            }
        }
    }
}

/// What a sweep invocation did with each cell of the grid.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SweepSummary {
    /// Distinct cells in the full (configuration × mix × seed) grid.
    pub total_cells: usize,
    /// Cells already present in the store (resume skipped them).
    pub skipped_cells: usize,
    /// Cells evaluated and appended by this invocation.
    pub evaluated_cells: usize,
    /// Cells left unevaluated because the `cell_limit` budget ran out.
    pub deferred_cells: usize,
    /// Cells whose evaluation panicked: recorded as `"failed"` lines in the
    /// store (surfaced by `report`, retried by `resume`) instead of killing
    /// the sweep.
    pub failed_cells: usize,
    /// Evaluated cells (a subset of `evaluated_cells`) whose run the
    /// forward-progress watchdog classified as livelocked.
    pub livelock_cells: usize,
    /// Evaluated cells (a subset of `evaluated_cells`) whose run exceeded a
    /// deterministic per-run budget.
    pub budget_cells: usize,
}

impl SweepSummary {
    /// True when the store now covers the whole grid.
    pub fn complete(&self) -> bool {
        self.skipped_cells + self.evaluated_cells == self.total_cells
    }
}

// --- reporting --------------------------------------------------------------

/// Aggregates a result store into one row per (mechanism, N_RH, ±BreakHammer)
/// configuration: cell count, geomean weighted speedup, mean max slowdown,
/// mean energy, the identification rates, the attack-outcome summary
/// (raw/silent flips, attack-success rate) and the security-efficiency
/// headline — flips prevented per unit slowdown, both measured against the
/// no-defense (`NoDefense`, no BreakHammer) cells at the same N_RH.
///
/// Flips prevented is the drop in mean raw flips vs the baseline; unit
/// slowdown is the fractional weighted-speedup loss vs the baseline geomean.
/// The column reads `n/a` when the store has no baseline at that N_RH, and
/// `inf` when a mechanism prevents flips at no measurable slowdown.
///
/// Only healthy (`"ok"`) cells enter the aggregation: a livelocked or
/// budget-cut run's performance numbers describe a truncated run, not the
/// configuration — the CLI's `report` lists those cells separately.
pub fn report_table(records: &[CellRecord]) -> Table {
    let mut groups: HashMap<(String, u64, bool), Vec<&CellRecord>> = HashMap::new();
    for record in records.iter().filter(|r| r.is_ok()) {
        groups
            .entry((record.mechanism.clone(), record.nrh, record.breakhammer))
            .or_default()
            .push(record);
    }
    let no_defense = MechanismKind::None.to_string();
    let baselines: HashMap<u64, (f64, f64)> = groups
        .iter()
        .filter(|((mechanism, _, breakhammer), _)| mechanism == &no_defense && !breakhammer)
        .map(|((_, nrh, _), set)| {
            let speedups: Vec<f64> = set.iter().map(|r| r.weighted_speedup).collect();
            let mean_flips = set.iter().map(|r| r.flips_raw as f64).sum::<f64>() / set.len() as f64;
            (*nrh, (bh_stats::geometric_mean(&speedups), mean_flips))
        })
        .collect();
    let mut keys: Vec<(String, u64, bool)> = groups.keys().cloned().collect();
    keys.sort();
    let mut table = Table::new([
        "config",
        "nrh",
        "cells",
        "geomean_weighted_speedup",
        "mean_max_slowdown",
        "mean_energy_nj",
        "attacker_identified_rate",
        "benign_misidentified_rate",
        "bitflips",
        "flips_raw",
        "flips_silent",
        "attack_success_rate",
        "flips_prevented_per_slowdown",
    ]);
    for key in &keys {
        let set = &groups[key];
        let (mechanism, nrh, breakhammer) = key;
        let label = if *breakhammer { format!("{mechanism}+BH") } else { mechanism.clone() };
        let speedups: Vec<f64> = set.iter().map(|r| r.weighted_speedup).collect();
        let geomean_ws = bh_stats::geometric_mean(&speedups);
        let mean = |f: &dyn Fn(&CellRecord) -> f64| {
            set.iter().map(|r| f(r)).sum::<f64>() / set.len() as f64
        };
        let prevented_per_slowdown = match baselines.get(nrh) {
            None => "n/a".to_string(),
            Some((baseline_ws, baseline_flips)) => {
                let prevented = baseline_flips - mean(&|r| r.flips_raw as f64);
                let slowdown = (baseline_ws - geomean_ws) / baseline_ws.max(1e-12);
                if slowdown <= 1e-9 {
                    if prevented > 0.0 {
                        "inf".to_string()
                    } else {
                        fmt3(0.0)
                    }
                } else {
                    fmt3(prevented / slowdown)
                }
            }
        };
        table.push_row([
            label,
            nrh.to_string(),
            set.len().to_string(),
            fmt3(geomean_ws),
            fmt3(mean(&|r| r.max_slowdown)),
            format!("{:.0}", mean(&|r| r.energy_nj)),
            fmt3(mean(&|r| r.attacker_identified as u64 as f64)),
            fmt3(mean(&|r| r.benign_misidentified as u64 as f64)),
            set.iter().map(|r| r.bitflips).sum::<u64>().to_string(),
            set.iter().map(|r| r.flips_raw).sum::<u64>().to_string(),
            set.iter().map(|r| r.flips_silent).sum::<u64>().to_string(),
            fmt3(mean(&|r| r.attack_success as u64 as f64)),
            prevented_per_slowdown,
        ]);
    }
    table
}

/// The (mix, seed) pairs that one (mechanism, N_RH, ±BreakHammer) group of
/// [`report_table`] holds under more than one cell id — a store that mixes
/// sweeps run at different settings (a different scale, a tuned BreakHammer
/// variant), which the report would otherwise average together. One line
/// per pair, sorted: the group label, the mix and seed, then the conflicting
/// cell ids in file order.
pub fn report_conflicts(records: &[CellRecord]) -> Vec<String> {
    let mut groups: std::collections::BTreeMap<(String, u64, bool, &str, u64), Vec<&str>> =
        std::collections::BTreeMap::new();
    for r in records {
        let ids = groups
            .entry((r.mechanism.clone(), r.nrh, r.breakhammer, r.mix.as_str(), r.seed))
            .or_default();
        if !ids.contains(&r.cell.as_str()) {
            ids.push(&r.cell);
        }
    }
    groups
        .into_iter()
        .filter(|(_, ids)| ids.len() > 1)
        .map(|((mechanism, nrh, breakhammer, mix, seed), ids)| {
            let arm = if breakhammer { "+BH" } else { "" };
            format!("{mechanism}{arm} {nrh} {mix} seed {seed}: {}", ids.join(", "))
        })
        .collect()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::paper_config;

    /// A completed attack-mix record (also the figure-helper tests' fixture).
    pub(crate) fn sample_record() -> RunRecord {
        RunRecord {
            mechanism: MechanismKind::Graphene,
            nrh: 64,
            breakhammer: true,
            mix_class: "HHHA".to_string(),
            mix_name: "HHHA-00".to_string(),
            weighted_speedup: 3.25,
            max_slowdown: 1.5,
            energy_nj: 123456.75,
            preventive_actions: 42,
            latency_ns: [10.5, 20.25, 99.0],
            attacker_identified: true,
            benign_misidentified: false,
            bitflips: 0,
            scenario: Some("fuzz-nbr".to_string()),
            max_victim_disturbance: 17,
            flips_raw: 9,
            flips_corrected: 4,
            flips_detected: 2,
            flips_silent: 3,
            attack_success: true,
            termination: TerminationReason::Completed,
            livelock: None,
        }
    }

    /// Tampers with a sealed line and re-seals it, so assertions about the
    /// *schema* checks are not masked by the crc check.
    fn tamper_resealed(line: &str, from: &str, to: &str) -> String {
        let idx = line.rfind(",\"crc\":\"").expect("line is sealed");
        let mut body = line[..idx].to_string();
        body.push('}');
        seal_line(body.replacen(from, to, 1))
    }

    #[test]
    fn record_lines_round_trip() {
        let record = sample_record();
        let line = record_line("deadbeef/HHHA-00/42", 42, true, &record);
        let parsed = CellRecord::parse(&line).expect("line parses");
        assert_eq!(parsed.cell, "deadbeef/HHHA-00/42");
        assert_eq!(parsed.mechanism, "Graphene");
        assert_eq!(MechanismKind::parse(&parsed.mechanism), Some(MechanismKind::Graphene));
        assert_eq!(parsed.nrh, 64);
        assert!(parsed.breakhammer);
        assert_eq!(parsed.seed, 42);
        assert_eq!(parsed.mix, "HHHA-00");
        assert_eq!(parsed.scenario.as_deref(), Some("fuzz-nbr"));
        assert!(parsed.attack);
        assert_eq!(parsed.weighted_speedup, 3.25);
        assert_eq!(parsed.latency_ns, [10.5, 20.25, 99.0]);
        assert_eq!(parsed.preventive_actions, 42);
        assert!(parsed.attacker_identified);
        assert!(!parsed.benign_misidentified);
        assert_eq!(parsed.max_victim_disturbance, 17);
        assert_eq!(parsed.flips_raw, 9);
        assert_eq!(parsed.flips_corrected, 4);
        assert_eq!(parsed.flips_detected, 2);
        assert_eq!(parsed.flips_silent, 3);
        assert!(parsed.attack_success);
        assert_eq!(parsed.status, "ok");
        assert!(parsed.is_ok());
        assert_eq!(parsed.termination, "completed");
        assert_eq!(parsed.livelock_report, None);

        let mut benign = record;
        benign.scenario = None;
        let line = record_line("deadbeef/HHHH-00/7", 7, false, &benign);
        let parsed = CellRecord::parse(&line).expect("line parses");
        assert_eq!(parsed.scenario, None);
        assert!(!parsed.attack);

        // Seeds beyond f64's 53-bit mantissa survive exactly.
        for seed in [(1u64 << 53) + 1, u64::MAX] {
            let line = record_line("deadbeef/HHHA-00/x", seed, true, &benign);
            assert!(line.contains(&format!("\"seed\":{seed},")), "{line}");
            assert_eq!(CellRecord::parse(&line).expect("line parses").seed, seed);
        }
    }

    #[test]
    fn watchdog_verdicts_round_trip_with_their_status() {
        let mut record = sample_record();
        record.termination = TerminationReason::Livelock;
        record.livelock = Some("livelock at cycle 25000 (4 zero-progress epochs): …".to_string());
        let line = record_line("c/m/1", 1, true, &record);
        let parsed = CellRecord::parse(&line).expect("line parses");
        assert_eq!(parsed.status, "livelock");
        assert!(!parsed.is_ok());
        assert_eq!(parsed.termination, "livelock");
        assert_eq!(parsed.livelock_report.as_deref(), record.livelock.as_deref());

        record.termination = TerminationReason::BudgetExceeded;
        record.livelock = None;
        let parsed = CellRecord::parse(&record_line("c/m/1", 1, true, &record)).expect("parses");
        assert_eq!(parsed.status, "budget");
        assert_eq!(parsed.termination, "budget");
        assert_eq!(parsed.livelock_report, None);

        record.termination = TerminationReason::CycleCutoff;
        let parsed = CellRecord::parse(&record_line("c/m/1", 1, true, &record)).expect("parses");
        assert_eq!(parsed.status, "ok", "a cycle cutoff is a healthy outcome");
        assert_eq!(parsed.termination, "cutoff");
    }

    #[test]
    fn termination_statuses_cover_the_taxonomy() {
        assert_eq!(termination_status(TerminationReason::Completed), "ok");
        assert_eq!(termination_status(TerminationReason::CycleCutoff), "ok");
        assert_eq!(termination_status(TerminationReason::Livelock), "livelock");
        assert_eq!(termination_status(TerminationReason::BudgetExceeded), "budget");
    }

    #[test]
    fn the_seal_rejects_torn_and_tampered_lines() {
        let line = record_line("a/m/1", 1, true, &sample_record());
        assert!(seal_intact(&line));
        // Any truncation breaks the seal (the crc tail is damaged or gone).
        for cut in [line.len() - 1, line.len() - 10, line.len() / 2, 10] {
            assert!(!seal_intact(&line[..cut]), "cut at {cut}");
        }
        // An in-place edit breaks it too, even though the JSON stays valid.
        let tampered = line.replacen("\"nrh\":64", "\"nrh\":65", 1);
        assert_ne!(tampered, line);
        assert!(!seal_intact(&tampered));
        assert_eq!(CellRecord::parse(&tampered), None);
        // A spliced hybrid of two sealed lines carries the tail's crc but
        // the head's content.
        let other = record_line("b/m/2", 2, true, &sample_record());
        let spliced = format!("{}{}", &line[..line.len() / 2], &other[other.len() / 2..]);
        assert!(!seal_intact(&spliced));
        assert_eq!(StoreEntry::parse(&spliced), None);
    }

    #[test]
    fn malformed_and_foreign_lines_are_rejected() {
        assert_eq!(CellRecord::parse(""), None);
        assert_eq!(CellRecord::parse("{\"schema\":3,\"cell\":\"x"), None, "truncated line");
        assert_eq!(CellRecord::parse("not json"), None);
        // A well-formed, correctly *sealed* line from a future schema is
        // rejected by the schema check itself, not just the crc.
        let line = tamper_resealed(
            &record_line("c/m/1", 1, true, &sample_record()),
            "\"schema\":3",
            "\"schema\":4",
        );
        assert!(seal_intact(&line), "the tampered line must pass the seal to reach the check");
        assert_eq!(CellRecord::parse(&line), None);
        // Pre-v3 lines (no seal) are rejected too: the engine reruns those
        // cells rather than guessing at the old schema.
        assert_eq!(CellRecord::parse("{\"schema\":1,\"cell\":\"a/m/1\"}"), None);
        assert_eq!(CellRecord::parse("{\"schema\":2,\"status\":\"ok\",\"cell\":\"a/m/1\"}"), None);
    }

    #[test]
    fn failed_lines_round_trip_and_never_count_as_completed() {
        let line = failed_line("a/m/1", 1, true, "panicked at 'boom'");
        assert_eq!(CellRecord::parse(&line), None, "a failed line is not a completed cell");
        let failed = FailedCell::parse(&line).expect("failed line parses");
        assert_eq!(failed.cell, "a/m/1");
        assert_eq!(failed.error, "panicked at 'boom'");
        match StoreEntry::parse(&line) {
            Some(StoreEntry::Failed(f)) => assert_eq!(f, failed),
            other => panic!("expected a failed entry, got {other:?}"),
        }
        let ok = record_line("a/m/1", 1, true, &sample_record());
        assert_eq!(FailedCell::parse(&ok), None, "a completed line is not a failure");

        for seed in [(1u64 << 53) + 1, u64::MAX] {
            let line = failed_line("a/m/x", seed, true, "boom");
            assert!(FailedCell::parse(&line).is_some(), "{line}");
            let map = parse_object(&line).expect("line parses");
            assert_eq!(map.get("seed"), Some(&Json::UInt(seed)), "{line}");
        }
    }

    #[test]
    fn failed_cells_are_pending_until_a_later_completion() {
        let path = test_path("failed-cells");
        {
            let store = ResultStore::create(&path).expect("fresh store");
            store.append(&failed_line("a/m/1", 1, true, "boom"));
            store.append(&failed_line("b/m/1", 1, true, "crash"));
            store.append(&failed_line("b/m/1", 1, true, "crash again"));
            // A later resume completed cell a; b is still pending.
            store.append(&record_line("a/m/1", 1, true, &sample_record()));
        }
        let pending = ResultStore::failed_cells(&path).expect("store loads");
        assert_eq!(pending.len(), 1, "{pending:?}");
        assert_eq!(pending[0].cell, "b/m/1");
        let completed = ResultStore::completed_cells(&path).expect("store loads");
        assert_eq!(completed, HashSet::from(["a/m/1".to_string()]));
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn string_escapes_survive_the_round_trip() {
        let mut record = sample_record();
        record.mix_name = "m\"x\\w — tab\there\n".to_string();
        let line = record_line("c/m/1", 1, true, &record);
        let parsed = CellRecord::parse(&line).expect("line parses");
        assert_eq!(parsed.mix, record.mix_name);
    }

    #[test]
    fn config_digest_separates_configurations() {
        let scale = Scale::quick();
        let a = paper_config(MechanismKind::Graphene, 64, true, &scale);
        let b = paper_config(MechanismKind::Graphene, 128, true, &scale);
        assert_eq!(config_digest(&a), config_digest(&a), "digest is stable");
        assert_ne!(config_digest(&a), config_digest(&b));
        assert_eq!(cell_id(&a, "HHHA-00", 42), format!("{}/HHHA-00/42", config_digest(&a)));
    }

    /// Cell identity is a pure function of `format!("{config:?}")`, so any
    /// change to `SystemConfig`'s fields or their `Debug` form re-keys every
    /// cell, and stores written earlier resume as all-new cells. Pinning a
    /// few paper cells turns such a re-key into a reviewed diff.
    #[test]
    fn config_digest_of_paper_cells_is_pinned() {
        let scale = Scale::quick();
        let four_channels = Scale { channels: 4, ..Scale::quick() };
        for (config, pinned) in [
            (paper_config(MechanismKind::Graphene, 64, true, &scale), "d5f7fe78f37a98e5"),
            (paper_config(MechanismKind::Graphene, 64, false, &scale), "c73934ef8e3ec3ea"),
            (paper_config(MechanismKind::Para, 1024, true, &scale), "4fa4334df4aaf108"),
            (paper_config(MechanismKind::Aqua, 64, true, &four_channels), "f75732d941b288d2"),
        ] {
            assert_eq!(config_digest(&config), pinned, "{}", config.summary());
        }
    }

    #[test]
    fn store_create_refuses_data_and_append_requires_it() {
        let path = test_path("store-semantics");
        let _ = std::fs::remove_file(&path);
        assert!(ResultStore::append_to(&path).is_err(), "nothing to resume from");
        {
            let store = ResultStore::create(&path).expect("fresh store");
            store.append("{\"schema\":1}");
        }
        assert!(ResultStore::create(&path).is_err(), "refuses to overwrite data");
        assert!(ResultStore::append_to(&path).is_ok());
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn completed_cells_skips_malformed_lines() {
        let path = test_path("completed-cells");
        {
            let store = ResultStore::create(&path).expect("fresh store");
            store.append(&record_line("a/m/1", 1, true, &sample_record()));
            store.append("{\"schema\":1,\"cell\":\"trunc");
            store.append(&record_line("b/m/1", 1, true, &sample_record()));
        }
        let cells = ResultStore::completed_cells(&path).expect("store loads");
        assert_eq!(cells, HashSet::from(["a/m/1".to_string(), "b/m/1".to_string()]));
        assert_eq!(ResultStore::load(&path).expect("store loads").len(), 2);
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn report_groups_by_configuration() {
        let line_a = record_line("a/m/1", 1, true, &sample_record());
        let mut other = sample_record();
        other.breakhammer = false;
        other.weighted_speedup = 1.0;
        let line_b = record_line("b/m/1", 1, true, &other);
        let records: Vec<CellRecord> =
            [line_a, line_b].iter().map(|l| CellRecord::parse(l).expect("parses")).collect();
        let table = report_table(&records);
        let csv = table.to_csv();
        assert!(csv.contains("Graphene+BH,64,1"), "{csv}");
        assert!(csv.contains("Graphene,64,1"), "{csv}");
        // No NoDefense baseline in the store: the efficiency column is n/a.
        assert!(csv.contains("n/a"), "{csv}");
    }

    #[test]
    fn report_computes_flips_prevented_per_unit_slowdown() {
        let make = |mechanism, breakhammer, ws: f64, flips_raw: u64| {
            let mut r = sample_record();
            r.mechanism = mechanism;
            r.breakhammer = breakhammer;
            r.weighted_speedup = ws;
            r.flips_raw = flips_raw;
            r.flips_silent = flips_raw;
            r.attack_success = flips_raw > 0;
            CellRecord::parse(&record_line("c/m/1", 1, true, &r)).expect("parses")
        };
        let records = vec![
            make(MechanismKind::None, false, 4.0, 100),
            make(MechanismKind::Graphene, false, 2.0, 10),
            make(MechanismKind::Graphene, true, 4.0, 10),
        ];
        let table = report_table(&records);
        let csv = table.to_csv();
        // Graphene: 90 flips prevented at (4-2)/4 = 0.5 unit slowdown → 180.
        assert!(csv.contains("180.000"), "{csv}");
        // Graphene+BH: same flips prevented at zero slowdown → inf.
        assert!(csv.lines().any(|l| l.starts_with("Graphene+BH") && l.ends_with("inf")), "{csv}");
        // The outcome columns surface raw/silent sums and the success rate.
        assert!(csv.contains("attack_success_rate"), "{csv}");
        assert!(csv.lines().any(|l| l.starts_with("NoDefense") && l.contains(",100,")), "{csv}");
    }

    #[test]
    fn settled_completed_and_verdict_sets_partition_by_status() {
        let path = test_path("settled-sets");
        let _ = std::fs::remove_file(&path);
        {
            let store = ResultStore::create(&path).expect("fresh store");
            store.append(&record_line("ok/m/1", 1, true, &sample_record()));
            let mut spun = sample_record();
            spun.termination = TerminationReason::Livelock;
            spun.livelock = Some("livelock at cycle 25000: …".to_string());
            store.append(&record_line("spin/m/1", 1, true, &spun));
            let mut cut = sample_record();
            cut.termination = TerminationReason::BudgetExceeded;
            store.append(&record_line("cut/m/1", 1, true, &cut));
            store.append(&failed_line("boom/m/1", 1, true, "panicked"));
        }
        let settled = ResultStore::settled_cells(&path).expect("store loads");
        assert_eq!(
            settled,
            HashSet::from(["ok/m/1".to_string(), "spin/m/1".to_string(), "cut/m/1".to_string()]),
            "every evaluated cell settles, whatever the verdict"
        );
        let completed = ResultStore::completed_cells(&path).expect("store loads");
        assert_eq!(completed, HashSet::from(["ok/m/1".to_string()]));
        let verdicts = ResultStore::verdict_cells(&path).expect("store loads");
        assert_eq!(verdicts.len(), 2);
        assert_eq!(verdicts[0].cell, "spin/m/1");
        assert_eq!(verdicts[0].status, "livelock");
        assert!(verdicts[0].livelock_report.is_some());
        assert_eq!(verdicts[1].cell, "cut/m/1");
        assert_eq!(verdicts[1].status, "budget");
        let pending = ResultStore::failed_cells(&path).expect("store loads");
        assert_eq!(pending.len(), 1);
        assert_eq!(pending[0].cell, "boom/m/1");
        // Verdict cells carry truncated-run numbers; the report skips them.
        let records = ResultStore::load(&path).expect("store loads");
        assert_eq!(records.len(), 3);
        let table = report_table(&records);
        let csv = table.to_csv();
        assert!(csv.contains(",64,1,"), "only the ok cell is aggregated: {csv}");
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    // Wall clock is what the overseer measures; the test must read it too.
    #[allow(clippy::disallowed_methods)]
    fn overseer_flags_overdue_cells_once_and_forgets_finished_ones() {
        let overseer = CellOverseer::new(Duration::from_millis(20));
        overseer.begin("fast/m/1");
        overseer.finish("fast/m/1");
        overseer.begin("slow/m/1");
        let deadline = Instant::now() + Duration::from_secs(5);
        while overseer.overdue_cells().is_empty() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(overseer.overdue_cells(), vec!["slow/m/1".to_string()]);
        // Finished before its budget ran out: never flagged, even later.
        std::thread::sleep(Duration::from_millis(40));
        assert_eq!(overseer.overdue_cells(), vec!["slow/m/1".to_string()]);
    }

    /// A writer whose underlying device fails a configurable number of
    /// writes before recovering — the I/O-fault half of the chaos harness.
    struct ChaosWriter {
        sink: std::sync::Arc<Mutex<Vec<u8>>>,
        failures: std::sync::Arc<std::sync::atomic::AtomicUsize>,
    }

    impl Write for ChaosWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let failures = &self.failures;
            if failures.load(std::sync::atomic::Ordering::Relaxed) > 0 {
                failures.fetch_sub(1, std::sync::atomic::Ordering::Relaxed);
                return Err(io::Error::other("injected device fault"));
            }
            self.sink.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn append_rides_out_transient_io_faults() {
        let sink = std::sync::Arc::new(Mutex::new(Vec::new()));
        let failures = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(2));
        let writer = ChaosWriter { sink: sink.clone(), failures: failures.clone() };
        let path = test_path("flaky-io");
        let store = ResultStore::with_writer(&path, Box::new(writer));
        let line = record_line("a/m/1", 1, true, &sample_record());
        store.append(&line);
        drop(store);
        assert_eq!(failures.load(std::sync::atomic::Ordering::Relaxed), 0);
        let written = String::from_utf8(sink.lock().unwrap().clone()).expect("utf8");
        assert_eq!(written, format!("{line}\n"), "the retried flush duplicated no bytes");
        assert!(CellRecord::parse(written.trim_end()).is_some());
    }

    #[test]
    fn append_panics_with_the_path_when_the_device_stays_dead() {
        let sink = std::sync::Arc::new(Mutex::new(Vec::new()));
        let failures = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(usize::MAX));
        let writer = ChaosWriter { sink, failures };
        let path = test_path("dead-io");
        let store = ResultStore::with_writer(&path, Box::new(writer));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            store.append(&record_line("a/m/1", 1, true, &sample_record()));
        }));
        let payload = result.expect_err("a dead device must not be silently swallowed");
        let message = payload.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(
            message.contains(path.to_str().expect("utf8 path")),
            "the error names the store path: {message}"
        );
    }

    fn test_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("bh-campaign-{tag}-{}.jsonl", std::process::id()))
    }
}
