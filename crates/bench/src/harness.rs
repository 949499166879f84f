//! The shared harness behind the `kernels`, `train_step`, `serve` and
//! `checkpoint` benches (`crates/bench/benches`).
//!
//! Each bench is a plain `main` (`harness = false`) built from five
//! pieces:
//!
//! * [`Mode`] — `--quick-smoke` / `--regression-gate`, parsed once.
//! * [`time_interleaved`] — the one timing estimator: every cell gets a
//!   block of at least `MIN_ITERS` iterations and budget/`ROUNDS`
//!   wall-clock per round, rounds interleave the cells, and each cell
//!   keeps its fastest block. Noise on a shared container is additive
//!   (preemption, migrated caches), so the minimum is the closest
//!   estimate of true cost, and interleaving makes a load spike inflate
//!   every cell of a round instead of whichever one was mid-measurement.
//! * [`Row`] — one archive row: ordered `key → JSON literal` pairs,
//!   rendered one object per line and read back the same way.
//! * [`baseline`] / [`check_count`] / [`gate_exit`] — the regression
//!   gates' shared preamble (read the committed archive, find a row by
//!   `op`/`variant`, exit 1 naming the file when it is missing) and
//!   exact-count comparison.
//! * [`write_archive`] / [`print_table`] — the only archive writer
//!   (atomic, with a `machine` fingerprint row appended; skipped under
//!   smoke) and one generic result table.

use std::fmt::Display;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use gnmr::tensor::fio::{atomic_write, FaultPlan};
use gnmr::tensor::par;

use crate::output::results_dir;

/// Wall-clock budget per cell in a full run, split across [`ROUNDS`].
const BUDGET_MS: u64 = 300;

/// Wall-clock budget per cell under `--quick-smoke`.
const SMOKE_MS: u64 = 5;

/// Interleaved measurement rounds per cell; the minimum block is kept.
const ROUNDS: u64 = 3;

/// Minimum iterations per measurement block. Kept at 2: the serve
/// bench's 10^7-item cell takes over a second per iteration.
const MIN_ITERS: u128 = 2;

/// How a bench binary was invoked.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Full run: 300 ms per cell, archive rewritten.
    Run,
    /// `--quick-smoke`: 5 ms per cell, archive untouched.
    Smoke,
    /// `--regression-gate`: re-measure against the committed archive.
    Gate,
}

impl Mode {
    /// Parses the process arguments.
    pub fn from_args() -> Self {
        Self::parse(std::env::args())
    }

    /// Parses an argument list; `--regression-gate` wins over
    /// `--quick-smoke`.
    fn parse<I: IntoIterator<Item = S>, S: AsRef<str>>(args: I) -> Self {
        let mut mode = Mode::Run;
        for arg in args {
            match arg.as_ref() {
                "--regression-gate" => return Mode::Gate,
                "--quick-smoke" => mode = Mode::Smoke,
                _ => {}
            }
        }
        mode
    }

    fn budget_ms(self) -> u64 {
        if self == Mode::Smoke {
            SMOKE_MS
        } else {
            BUDGET_MS
        }
    }
}

/// Times `cells` closures interleaved — `f(i)` runs cell `i` once — and
/// returns each cell's minimum ns/iter over `ROUNDS` blocks.
pub fn time_interleaved(mode: Mode, cells: usize, mut f: impl FnMut(usize)) -> Vec<u128> {
    let block = Duration::from_millis((mode.budget_ms() / ROUNDS).max(1));
    let mut best = vec![u128::MAX; cells];
    for _ in 0..ROUNDS {
        for (i, slot) in best.iter_mut().enumerate() {
            let start = Instant::now();
            let mut iters = 0u128;
            while iters < MIN_ITERS || start.elapsed() < block {
                f(i);
                iters += 1;
            }
            *slot = (*slot).min(start.elapsed().as_nanos() / iters);
        }
    }
    best
}

/// One archive row: `key → JSON literal` pairs in insertion order.
/// Numbers are kept as their literal text, so `1.000` stays `1.000`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Row(Vec<(String, String)>);

impl Row {
    /// An empty row.
    pub fn new() -> Self {
        Row::default()
    }

    /// Appends a string field.
    pub fn str(mut self, key: &str, value: &str) -> Self {
        let escaped = value.replace('\\', "\\\\").replace('"', "\\\"");
        self.0.push((key.to_string(), format!("\"{escaped}\"")));
        self
    }

    /// Appends a numeric field, written with `Display`.
    pub fn num(mut self, key: &str, value: impl Display) -> Self {
        self.0.push((key.to_string(), value.to_string()));
        self
    }

    /// The raw JSON literal stored under `key`.
    fn get(&self, key: &str) -> Option<&str> {
        self.0.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    /// The contents of a string field (escapes are not decoded).
    pub fn text(&self, key: &str) -> Option<&str> {
        self.get(key)?.strip_prefix('"')?.strip_suffix('"')
    }

    /// An unsigned integer field.
    pub fn int(&self, key: &str) -> Option<u128> {
        self.get(key)?.parse().ok()
    }

    fn render(&self) -> String {
        let fields: Vec<String> = self.0.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
        format!("{{{}}}", fields.join(", "))
    }

    /// Parses one `{"k": v, ...}` object.
    fn parse(line: &str) -> Result<Row, String> {
        let err = || format!("malformed archive row: {line}");
        let mut rest = line.strip_prefix('{').ok_or_else(err)?;
        let mut row = Row::new();
        while !rest.starts_with('}') {
            let after_quote = rest.strip_prefix('"').ok_or_else(err)?;
            let (key, after_key) = after_quote.split_once("\": ").ok_or_else(err)?;
            let len = if after_key.starts_with('"') {
                string_literal_len(after_key).ok_or_else(err)?
            } else {
                after_key.find([',', '}']).filter(|&n| n > 0).ok_or_else(err)?
            };
            row.0.push((key.to_string(), after_key[..len].to_string()));
            rest = after_key[len..].strip_prefix(", ").unwrap_or(&after_key[len..]);
        }
        if rest != "}" {
            return Err(err());
        }
        Ok(row)
    }
}

/// Byte length of the quoted string literal `s` starts with.
fn string_literal_len(s: &str) -> Option<usize> {
    let mut escaped = false;
    for (i, c) in s.char_indices().skip(1) {
        match (escaped, c) {
            (false, '\\') => escaped = true,
            (false, '"') => return Some(i + 1),
            _ => escaped = false,
        }
    }
    None
}

/// Renders rows in the archive layout: `[`, one object per line
/// indented two spaces and comma-separated, `]`.
fn render(rows: &[Row]) -> String {
    let lines: Vec<String> = rows.iter().map(|r| format!("  {}", r.render())).collect();
    format!("[\n{}\n]", lines.join(",\n"))
}

/// Parses the layout [`render`] writes.
fn parse(text: &str) -> Result<Vec<Row>, String> {
    text.lines()
        .map(|l| l.trim().trim_end_matches(','))
        .filter(|l| !l.is_empty() && *l != "[" && *l != "]")
        .map(Row::parse)
        .collect()
}

/// The rows of `results/<name>`, or none if it is missing or malformed.
pub fn read_archive(name: &str) -> Vec<Row> {
    std::fs::read_to_string(results_dir().join(name))
        .ok()
        .and_then(|text| parse(&text).ok())
        .unwrap_or_default()
}

/// Prints `msg` and exits 1.
fn fail(msg: String) -> ! {
    eprintln!("regression gate: {msg}");
    std::process::exit(1);
}

/// A committed archive loaded as a regression-gate baseline.
pub struct Baseline {
    path: PathBuf,
    rows: Vec<Row>,
}

/// Loads `results/<archive>`; exits 1 naming the path if it cannot be
/// read or parsed.
pub fn baseline(archive: &str) -> Baseline {
    let path = results_dir().join(archive);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| fail(format!("cannot read baseline {}: {e}", path.display())));
    let rows = parse(&text).unwrap_or_else(|e| fail(format!("{}: {e}", path.display())));
    Baseline { path, rows }
}

impl Baseline {
    /// The integer `key` of the row matching `op` (and `variant`, if
    /// given); exits 1 naming the archive if there is none.
    pub fn int(&self, op: &str, variant: Option<&str>, key: &str) -> u128 {
        self.rows
            .iter()
            .find(|r| r.text("op") == Some(op) && (variant.is_none() || r.text("variant") == variant))
            .and_then(|r| r.int(key))
            .unwrap_or_else(|| {
                fail(format!(
                    "no {op}{} row with an integer {key:?} in {}",
                    variant.map(|v| format!("/{v}")).unwrap_or_default(),
                    self.path.display()
                ))
            })
    }
}

/// Exact-count check: prints both counts and passes iff
/// `fresh <= baseline`.
pub fn check_count(what: &str, fresh: u128, baseline: u128) -> bool {
    let ok = fresh <= baseline;
    println!("{what}: baseline {baseline}, fresh {fresh}{}", if ok { "" } else { " — REGRESSED" });
    ok
}

/// Ends a gate run: exit 0 if `passed`, else exit 1.
pub fn gate_exit(gate: &str, passed: bool) -> ! {
    if passed {
        println!("{gate} passed");
        std::process::exit(0);
    }
    eprintln!("{gate} FAILED");
    std::process::exit(1);
}

/// The CPU model from `/proc/cpuinfo`, or `unknown`.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().chars().filter(|c| !c.is_control()).collect())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The fingerprint row [`write_archive`] appends: which machine and
/// toolchain (`rustc -V` and the rustflags, recorded by `build.rs`)
/// produced the archive's numbers.
fn machine_row() -> Row {
    Row::new()
        .str("op", "machine")
        .str("cpu", &cpu_model())
        .num("hardware_threads", par::hardware_threads())
        .str("rustc", env!("GNMR_BENCH_RUSTC_VERSION"))
        .str("rustflags", env!("GNMR_BENCH_RUSTFLAGS"))
}

/// Prints the bench's opening line: family, machine and mode.
pub fn banner(family: &str, mode: Mode) {
    println!(
        "{family} benches — {}, {} hardware threads{}",
        cpu_model(),
        par::hardware_threads(),
        if mode == Mode::Smoke { " (quick smoke)" } else { "" }
    );
}

/// Atomically rewrites `results/<name>` with `rows` plus the
/// `machine` fingerprint row. Under smoke the archive is left untouched.
pub fn write_archive(mode: Mode, name: &str, mut rows: Vec<Row>) {
    if mode == Mode::Smoke {
        println!("\n[quick smoke — results/{name} left untouched]");
        return;
    }
    rows.push(machine_row());
    let path = results_dir().join(name);
    match atomic_write(&path, render(&rows).as_bytes(), &mut FaultPlan::none()) {
        Ok(()) => println!("\n[saved {}]", path.display()),
        Err(e) => eprintln!("warning: failed to write {}: {e}", path.display()),
    }
}

/// Prints rows as aligned columns, with a header line wherever the key
/// set changes. Strings are left-aligned, numbers right-aligned.
pub fn print_table(rows: &[Row]) {
    let keys = |r: &Row| r.0.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>();
    for group in rows.chunk_by(|a, b| keys(a) == keys(b)) {
        let header: Vec<String> = keys(&group[0]);
        let table: Vec<Vec<&str>> = std::iter::once(header.iter().map(String::as_str).collect())
            .chain(group.iter().map(|r| r.0.iter().map(|(_, v)| v.trim_matches('"')).collect()))
            .collect();
        let widths: Vec<usize> =
            (0..header.len()).map(|j| table.iter().map(|cells| cells[j].len()).max().unwrap_or(0)).collect();
        let numeric: Vec<bool> = group[0].0.iter().map(|(_, v)| !v.starts_with('"')).collect();
        println!();
        for cells in &table {
            let padded: Vec<String> = cells
                .iter()
                .zip(&widths)
                .zip(&numeric)
                .map(|((c, &w), &num)| if num { format!("{c:>w$}") } else { format!("{c:<w$}") })
                .collect();
            println!("{}", padded.join("  ").trim_end());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_archives_round_trip_byte_identically() {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results");
        let mut seen = 0;
        for entry in std::fs::read_dir(&dir).expect("results/ exists") {
            let path = entry.expect("dir entry").path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if !(name.starts_with("bench_") && name.ends_with(".json")) {
                continue;
            }
            let text = std::fs::read_to_string(&path).expect("readable archive");
            let rows = parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(!rows.is_empty(), "{name} has no rows");
            assert_eq!(render(&rows), text, "{name} does not re-render byte-identically");
            seen += 1;
        }
        assert!(seen >= 4, "expected the four bench archives, found {seen}");
    }

    #[test]
    fn rows_keep_key_order_and_literal_numbers() {
        let row = Row::new().str("op", "a\"b").num("threads", 2).num("speedup", "1.000");
        let text = render(std::slice::from_ref(&row));
        assert_eq!(text, "[\n  {\"op\": \"a\\\"b\", \"threads\": 2, \"speedup\": 1.000}\n]");
        let back = parse(&text).unwrap();
        assert_eq!(back, vec![row]);
        assert_eq!(back[0].int("threads"), Some(2));
        assert_eq!(back[0].get("speedup"), Some("1.000"));
        assert!(parse("[\n  {\"op\": \"x\", \"n\": }\n]").is_err());
        assert!(parse("[\n  {\"op\" \"x\"}\n]").is_err());
    }

    #[test]
    fn count_check_passes_on_equality_and_fails_on_growth() {
        assert!(check_count("allocs", 0, 0));
        assert!(check_count("allocs", 3, 5));
        assert!(!check_count("allocs", 1, 0));
    }

    #[test]
    fn mode_parses_both_flags_and_the_default() {
        assert_eq!(Mode::parse(["bench", "--bench"]), Mode::Run);
        assert_eq!(Mode::parse(["bench", "--quick-smoke"]), Mode::Smoke);
        assert_eq!(Mode::parse(["bench", "--regression-gate"]), Mode::Gate);
        assert_eq!(Mode::parse(["--quick-smoke", "--regression-gate"]), Mode::Gate);
    }

    #[test]
    fn timer_runs_every_cell_at_least_min_iters_per_round() {
        let mut calls = [0u128; 3];
        let ns = time_interleaved(Mode::Smoke, 3, |i| calls[i] += 1);
        assert_eq!(ns.len(), 3);
        assert!(calls.iter().all(|&c| c >= MIN_ITERS * ROUNDS as u128));
    }

    #[test]
    fn machine_row_names_cpu_and_threads() {
        let row = machine_row();
        assert_eq!(row.text("op"), Some("machine"));
        assert!(row.text("cpu").is_some_and(|c| !c.is_empty()));
        assert!(row.int("hardware_threads").is_some_and(|n| n >= 1));
        assert!(row.text("rustc").is_some_and(|v| v.starts_with("rustc ") || v == "unknown"));
        assert!(row.text("rustflags").is_some());
        // The row survives the archive's own writer and reader.
        let text = render(std::slice::from_ref(&row));
        assert_eq!(parse(&text).unwrap(), vec![row]);
    }
}
