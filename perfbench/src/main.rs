//! The GNMR benchmark: end-to-end and per-layer metrics for training and
//! serving, driven through the public API of `gnmr-core`, `gnmr-serve`
//! and `gnmr-tensor`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <train|batch_topk|online_reload> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Inputs are generated from `--seed`; the program under test receives
//! only those inputs. Every workload reports the same metrics, each in
//! the workload's own unit of work (a fit, a batch of users, a request).
//! `--trace 0` prints the end-to-end metrics, measured without tracing.
//! `--trace 1` runs the same untraced measurement, then a traced one that
//! times each call into a layer from this crate's code, and prints the
//! per-layer metrics plus the tracing overhead (the difference between
//! the two). Figures only one workload has go to the record line. Spans
//! are kept in memory and written to `.bench_work/` when the run ends.
//!
//! Output checks run outside the timed regions; a failed check is a
//! failed operation and fails the run. The last stdout line is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.

mod online;
mod serving;
mod trace;
mod train;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

// Linking `gnmr_bench` installs its counting global allocator, the
// source of every allocation count reported here.
use gnmr_bench::alloc;

use trace::Tracer;

/// A workload: its name and why it is in the benchmark.
struct Workload {
    name: &'static str,
    why: &'static str,
    run: fn(&Args, &Path, &mut Report, Option<&mut Tracer>) -> Result<(), String>,
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "train",
        why: "The paper's training loop on its e-commerce case (4 behaviors): core, autograd and the \
              tensor matmuls do nearly all the work, serving does none, and fio only writes. \
              Closed loop: one caller, one fit; its unit of work is one training step. The traced \
              run then serves the fitted model, the step that follows training.",
        run: train::run,
    },
    Workload {
        name: "batch_topk",
        why: "Offline top-10 in batches of 256, closed loop with one client, on a 10^5-item catalog \
              48 wide (the paper's Taobao item count, the default model's width). Every user \
              re-streams the item matrix, so a blocked user x item kernel shows here and training \
              layers sit idle. Its unit of work is one batch.",
        run: serving::run_batch,
    },
    Workload {
        name: "online_reload",
        why: "Open-loop single-user requests on one request thread at two fixed rates, while a \
              second thread hot-reloads two snapshot generations from disk: the RwLock swap, fio \
              reads and snapshot validation, writes beside reads. A request shares no catalog \
              sweep, so batch-only gains predict no change here. Its unit of work is one request \
              at the higher rate.",
        run: online::run,
    },
];

/// The result line's metrics, by name, as `BENCHMARK.json` lists them:
/// every workload reports every one of them, with `--trace 0` the
/// end-to-end ones and with `--trace 1` the per-layer ones.
const END_TO_END: [&str; 4] = ["setup_s", "peak_rss_mb", "throughput_per_s", "op_ms"];
const PER_LAYER: [&str; 11] = [
    "data.generate_s",
    "serve.snapshot_load_ms",
    "serve.index_build_ms",
    "serve.handle_index_us",
    "serve.recommend_us_per_user",
    "serve.allocs_per_user",
    "tensor.row_dots_us_per_user",
    "tensor.topk_us_per_user",
    "tensor.fio_write_bytes",
    "trace.coverage",
    "trace.overhead_pct",
];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
    })
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(&'static str, f64, &'static str)>,
    /// Measured and printed in the record, but kept out of the result
    /// line: figures only one workload has, or too unsteady between runs
    /// on a shared small machine to gate a change on.
    info: Vec<(&'static str, f64, &'static str)>,
    /// `(phase, attempted, failed)`.
    phases: Vec<(String, u64, u64)>,
    /// `(check, passed, detail)`.
    checks: Vec<(String, bool, String)>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    pub fn info(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.info.push((name, value, unit));
    }

    pub fn phase(&mut self, name: impl Into<String>, attempted: u64, failed: u64) {
        self.phases.push((name.into(), attempted, failed));
    }

    pub fn check(&mut self, name: impl Into<String>, passed: bool, detail: impl Into<String>) {
        self.checks.push((name.into(), passed, detail.into()));
    }

    fn attempted(&self) -> u64 {
        self.phases.iter().map(|p| p.1).sum::<u64>() + self.checks.len() as u64
    }

    fn failed(&self) -> u64 {
        self.phases.iter().map(|p| p.2).sum::<u64>() + self.checks.iter().filter(|c| !c.1).count() as u64
    }
}

/// Allocation count of `f`, from the counting global allocator.
pub fn count_allocs<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = alloc::allocations();
    let r = f();
    (r, alloc::allocations() - before)
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// `{"name": {"value": v, "unit": u}, ...}` without the braces.
fn json_metrics(metrics: &[(&str, f64, &str)]) -> String {
    let items: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| format!("{}:{{\"value\":{},\"unit\":{}}}", json_str(n), json_num(*v), json_str(u)))
        .collect();
    items.join(",")
}

/// CPU model, parallelism, toolchain and thread settings: numbers from
/// different machines or builds do not compare.
fn fingerprint() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"cpu\":{},\"nproc\":{nproc},\"rustc\":{},\"rustflags\":{},\"gnmr_threads_env\":{},\"pool_threads\":{}}}",
        json_str(&cpu),
        json_str(env!("PERFBENCH_RUSTC_VERSION")),
        json_str(env!("PERFBENCH_RUSTFLAGS")),
        json_str(&std::env::var("GNMR_THREADS").unwrap_or_default()),
        gnmr_tensor::par::num_threads()
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = WORKLOADS.iter().find(|w| w.name == args.workload) else {
        eprintln!("perfbench: unknown workload {:?}", args.workload);
        return ExitCode::from(2);
    };

    let root = PathBuf::from(".bench_work");
    let work = root.join(format!("{}-{}", workload.name, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        return ExitCode::from(2);
    }

    let mut report = Report::default();
    let mut tracer = args.trace.then(|| Tracer::new(Instant::now()));
    let outcome = (workload.run)(&args, &work, &mut report, tracer.as_mut());
    let _ = std::fs::remove_dir_all(&work);
    if let Err(e) = outcome {
        eprintln!("perfbench: {} failed: {e}", workload.name);
        return ExitCode::from(1);
    }
    if !args.trace {
        report.metric("peak_rss_mb", trace::peak_rss_mb(), "MiB");
    }
    let expected: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut got: Vec<&str> = report.metrics.iter().map(|m| m.0).collect();
    got.sort_unstable();
    let mut want = expected.to_vec();
    want.sort_unstable();
    if got != want {
        eprintln!("perfbench: {} reported metrics {got:?}, the manifest lists {want:?}", workload.name);
        return ExitCode::from(1);
    }

    let mut layers = String::new();
    if let Some(tr) = &tracer {
        let path = root.join(format!("trace-{}-seed{}.jsonl", workload.name, args.seed));
        if let Err(e) = tr.write(&path) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
        let parts: Vec<String> = tr
            .self_ms_by_layer()
            .iter()
            .map(|(l, ms)| format!("{}:{}", json_str(l), json_num(*ms)))
            .collect();
        layers = format!(
            ",\"self_ms_by_layer\":{{{}}},\"spans\":{}",
            parts.join(","),
            json_str(&path.display().to_string())
        );
    }

    for (name, value, unit) in &report.metrics {
        println!("{name:<28} {value:>16.6} {unit}");
    }
    for (name, value, unit) in &report.info {
        println!("{name:<28} {value:>16.6} {unit} (not gated)");
    }
    for (name, passed, detail) in &report.checks {
        println!("check {name:<22} {} {detail}", if *passed { "ok  " } else { "FAIL" });
    }
    let phases: Vec<String> = report
        .phases
        .iter()
        .map(|(n, a, f)| {
            format!("{{\"phase\":{},\"attempted\":{a},\"succeeded\":{},\"failed\":{f}}}", json_str(n), a - f)
        })
        .collect();
    println!(
        "{{\"record\":{{\"workload\":{},\"why\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"machine\":{},\"phases\":[{}],\"not_gated\":{{{}}}{layers}}}}}",
        json_str(workload.name),
        json_str(workload.why),
        args.seed,
        json_num(args.seconds),
        args.trace,
        fingerprint(),
        phases.join(","),
        json_metrics(&report.info)
    );

    let failed = report.failed();
    let correct = failed == 0 && report.metrics.iter().all(|m| m.1.is_finite());
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{}}}}}",
        report.attempted().max(1),
        json_metrics(&report.metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
