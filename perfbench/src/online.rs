//! `online_reload`: open-loop single-user `recommend` requests through a
//! `ServeHandle` at two fixed arrival rates, while a second thread
//! hot-reloads two alternating snapshot generations from disk.
//!
//! Arrivals follow a fixed schedule, one request every `1 / rate`
//! seconds, sent whether or not the previous one finished. Each request
//! is timed from when it was due, so a stall also counts against the
//! requests queued behind it. The gated figures are the higher rate's:
//! `op_ms` is its median latency, `throughput_per_s` the requests one
//! thread completes per second at its median service time. The lower
//! rate's figures and the reload times go to the record.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use gnmr_serve::{ModelSnapshot, ServeHandle, ServeIndex};
use gnmr_tensor::fio::FaultPlan;
use gnmr_tensor::rng;
use rand::Rng;

use crate::serving::{self, kernel_metrics, reference, same_list, KernelProbe, Sample, Served, K, N_USERS};
use crate::trace::{median, quantile, Tracer};
use crate::{count_allocs, Args, Report};

/// Arrival rates in requests per second, near 1/4 and 2/3 of the
/// single-request capacity on one thread measured on a 2-CPU Xeon
/// (about 430 req/s at 2.3 ms per request). Fixed here, never
/// re-derived per run, so that runs compare.
const RATES: [(&str, f64); 2] = [("low", 110.0), ("high", 290.0)];
/// Time between the starts of two reloads.
const RELOAD_PERIOD: Duration = Duration::from_millis(500);
/// The generator sleeps until this long before a request is due, then
/// spins, so timer slack is not charged to the request. No request is
/// in flight while it waits.
const SPIN: Duration = Duration::from_micros(1500);
/// Responses per phase checked against the generation references.
const CHECKED: usize = 24;
/// Users of the checked responses whose top-`K` the kernel probe repeats.
const PROBE_USERS: usize = 32;

struct Phase {
    name: &'static str,
    latency_ms: Vec<f64>,
    /// Time from a request's start to its end, without queue wait.
    service_s: Vec<f64>,
    /// Allocations per request (traced phases only).
    allocs: Vec<f64>,
    samples: Vec<Sample>,
    /// Longest a request started after it was due while nothing else
    /// was in flight: how late the generator itself ran.
    late_ms: f64,
}

struct Reloads {
    ms: Vec<f64>,
    failures: u64,
    tracer: Option<Tracer>,
}

/// Reloads generation 1, 0, 1, ... every [`RELOAD_PERIOD`] until `stop`.
fn reload_loop(
    handle: &ServeHandle,
    paths: &[PathBuf],
    stop: &AtomicBool,
    mut tr: Option<Tracer>,
) -> Reloads {
    let mut out = Reloads { ms: Vec::new(), failures: 0, tracer: None };
    let start = Instant::now();
    let mut n = 0u64;
    loop {
        let due = start + RELOAD_PERIOD * (n as u32 + 1);
        // ORDERING: Relaxed — a stop flag; no data is published through it.
        while Instant::now() < due && !stop.load(Ordering::Relaxed) {
            thread::sleep((due - Instant::now()).min(Duration::from_millis(5)));
        }
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let path = &paths[((n + 1) % paths.len() as u64) as usize];
        let t = Instant::now();
        let ok = match tr.as_mut() {
            None => handle.reload_from_path(path).is_ok(),
            Some(tr) => {
                // `reload_from_path`, one traced call at a time.
                let root = tr.begin("bench.reload", None, n);
                let s = tr.begin("serve.snapshot_load", Some(root), n);
                let snap = ModelSnapshot::load_with(path, &mut FaultPlan::none());
                tr.end(s);
                let ok = match snap {
                    Ok(snap) => {
                        let s = tr.begin("serve.index_build", Some(root), n);
                        let index = ServeIndex::from_snapshot(&snap);
                        tr.end(s);
                        let s = tr.begin("serve.swap", Some(root), n);
                        let ok = handle.reload(index).is_ok();
                        tr.end(s);
                        ok
                    }
                    Err(_) => false,
                };
                tr.end(root);
                ok
            }
        };
        out.ms.push(t.elapsed().as_secs_f64() * 1e3);
        out.failures += u64::from(!ok);
        n += 1;
    }
    out.tracer = tr;
    out
}

/// One open-loop phase at `rate` for `seconds`.
fn open_loop(
    served: &Served,
    name: &'static str,
    rate: f64,
    seconds: f64,
    seed: u64,
    first_req: u64,
    mut tr: Option<&mut Tracer>,
) -> Phase {
    let n = (rate * seconds).round().max(1.0) as u64;
    let interval = Duration::from_secs_f64(1.0 / rate);
    let stride = (n / CHECKED as u64).max(1);
    let mut pick = rng::substream(seed, 0x0417 ^ first_req);
    let mut phase = Phase {
        name,
        latency_ms: Vec::with_capacity(n as usize),
        service_s: Vec::with_capacity(n as usize),
        allocs: Vec::new(),
        samples: Vec::new(),
        late_ms: 0.0,
    };
    let t0 = Instant::now();
    let mut prev_end = t0;
    for i in 0..n {
        let due = t0 + interval.mul_f64(i as f64);
        let now = Instant::now();
        if now + SPIN < due {
            thread::sleep(due - now - SPIN);
        }
        while Instant::now() < due {
            std::hint::spin_loop();
        }
        let user = pick.gen_range(0..N_USERS as u32);
        let exclude = served.excludes.row(user as usize);
        let start = Instant::now();
        let rows = match tr.as_deref_mut() {
            None => served.handle.index().recommend(user, K, exclude),
            Some(tr) => {
                let req = first_req + i;
                let root = tr.record("bench.request", None, req, tr.at(due), 0);
                tr.record("serve.queue_wait", Some(root), req, tr.at(due), tr.at(start));
                let s = tr.begin("serve.handle_index", Some(root), req);
                let index = served.handle.index();
                tr.end(s);
                let s = tr.begin("serve.recommend", Some(root), req);
                let (rows, allocs) = count_allocs(|| index.recommend(user, K, exclude));
                tr.end(s);
                phase.allocs.push(allocs as f64);
                tr.end(root);
                rows
            }
        };
        let end = Instant::now();
        phase.latency_ms.push((end - due).as_secs_f64() * 1e3);
        phase.service_s.push((end - start).as_secs_f64());
        phase.late_ms =
            phase.late_ms.max(start.saturating_duration_since(due.max(prev_end)).as_secs_f64() * 1e3);
        prev_end = end;
        if i % stride == 0 && phase.samples.len() < CHECKED {
            phase.samples.push((user, rows));
        }
    }
    phase
}

struct Run {
    phases: Vec<Phase>,
    reloads: Reloads,
}

fn run_phases(served: &Served, seconds: f64, seed: u64, mut tr: Option<&mut Tracer>) -> Run {
    let stop = AtomicBool::new(false);
    let reload_tracer = tr.as_ref().map(|t| Tracer::new(t.origin()));
    let per_phase = seconds / RATES.len() as f64;
    let (phases, reloads) = thread::scope(|s| {
        let reloader = s.spawn(|| reload_loop(&served.handle, &served.paths, &stop, reload_tracer));
        let mut first_req = 0;
        let phases: Vec<Phase> = RATES
            .iter()
            .map(|&(name, rate)| {
                let p = open_loop(served, name, rate, per_phase, seed, first_req, tr.as_deref_mut());
                first_req += p.latency_ms.len() as u64;
                p
            })
            .collect();
        // ORDERING: Relaxed — a stop flag; the join below orders the rest.
        stop.store(true, Ordering::Relaxed);
        (phases, reloader.join().expect("reload thread panicked"))
    });
    Run { phases, reloads }
}

/// Checks every sampled response against generation 0 and generation 1,
/// returning how many matched neither.
fn check(rep: &mut Report, served: &Served, refs: &[ServeIndex], run: &Run, label: &str) -> u64 {
    let mut failed = 0;
    for p in &run.phases {
        let bad = p
            .samples
            .iter()
            .filter(|(user, rows)| {
                let exclude = served.excludes.row(*user as usize);
                !refs.iter().any(|r| same_list(rows, &reference(r, *user, exclude)))
            })
            .count();
        rep.phase(format!("{label}{}", p.name), p.latency_ms.len() as u64, bad as u64);
        rep.check(
            format!("{label}{}_responses", p.name),
            bad == 0,
            format!("{bad} of {} sampled responses match neither generation", p.samples.len()),
        );
        failed += bad as u64;
    }
    rep.phase(format!("{label}reloads"), run.reloads.ms.len() as u64, run.reloads.failures);
    failed
}

pub fn run(args: &Args, work: &Path, rep: &mut Report, tracer: Option<&mut Tracer>) -> Result<(), String> {
    // One request thread: the second CPU of a 2-CPU box is left to the
    // reload thread, so reloads run beside reads instead of preempting
    // one half of a fork-join request sweep.
    gnmr_tensor::par::set_threads(Some(1));
    let served = serving::setup(args.seed, 2, work)?;
    let warm = served.handle.index().recommend(0, K, served.excludes.row(0));
    std::hint::black_box(warm);

    let untraced = run_phases(&served, args.seconds, args.seed, None);
    let refs: Vec<ServeIndex> = served
        .paths
        .iter()
        .map(|p| ModelSnapshot::load(p).map(|s| ServeIndex::from_snapshot(&s)))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("reference snapshot load: {e}"))?;
    check(rep, &served, &refs, &untraced, "");
    let p50 = |r: &Run, i: usize| median(&r.phases[i].latency_ms);
    let p99 = |r: &Run, i: usize| quantile(&r.phases[i].latency_ms, 0.99);

    let Some(tr) = tracer else {
        rep.metric("setup_s", served.setup_s, "s");
        // Both at the higher rate: at the lower rate the thread idles
        // between requests and each runs about 1.6x slower, so a median
        // over both rates would fall between two modes.
        rep.metric("throughput_per_s", 1.0 / median(&untraced.phases[1].service_s), "1/s");
        rep.metric("op_ms", p50(&untraced, 1), "ms");
        rep.info("online_low_p50_ms", p50(&untraced, 0), "ms");
        rep.info("online_low_p99_ms", p99(&untraced, 0), "ms");
        rep.info("online_high_p99_ms", p99(&untraced, 1), "ms");
        rep.info("reload_ms", median(&untraced.reloads.ms), "ms");
        return Ok(());
    };

    let mut traced = run_phases(&served, args.seconds, args.seed ^ 1, Some(&mut *tr));
    if let Some(reload_spans) = traced.reloads.tracer.take() {
        tr.absorb(reload_spans);
    }
    let failed = check(rep, &served, &refs, &traced, "traced_");
    let mut users: Vec<u32> = traced.phases.iter().flat_map(|p| p.samples.iter().map(|s| s.0)).collect();
    users.truncate(PROBE_USERS);
    let probe = KernelProbe { users: &users, excludes: &served.excludes };
    let snap = ModelSnapshot::load(&served.paths[0]).map_err(|e| format!("snapshot load: {e}"))?;
    probe.run(rep, tr, &snap, &refs[0]);
    let coverage = tr.coverage();
    rep.check(
        "trace_coverage",
        coverage >= 0.95,
        format!("per-layer self time covers {:.2}%", coverage * 100.0),
    );
    let sent: usize = traced.phases.iter().map(|p| p.latency_ms.len()).sum();

    let rec = tr.durations_ms("serve.recommend");
    rep.metric("data.generate_s", served.generate_s, "s");
    rep.metric("serve.snapshot_load_ms", median(&tr.durations_ms("serve.snapshot_load")), "ms");
    rep.metric("serve.index_build_ms", median(&tr.durations_ms("serve.index_build")), "ms");
    rep.metric("serve.handle_index_us", quantile(&tr.durations_ms("serve.handle_index"), 0.99) * 1e3, "us");
    rep.metric("serve.recommend_us_per_user", median(&rec) * 1e3, "us");
    let allocs: Vec<f64> = traced.phases.iter().flat_map(|p| p.allocs.iter().copied()).collect();
    rep.metric("serve.allocs_per_user", median(&allocs), "count");
    rep.metric("tensor.fio_write_bytes", served.snapshot_bytes, "B");
    kernel_metrics(rep, tr);
    rep.metric("trace.coverage", coverage, "ratio");
    rep.metric("trace.overhead_pct", (p50(&traced, 1) / p50(&untraced, 1) - 1.0) * 100.0, "%");

    rep.info("serve.swap_us", quantile(&tr.durations_ms("serve.swap"), 0.99) * 1e3, "us");
    let wait = tr.durations_ms("serve.queue_wait");
    rep.info("serve.queue_wait_p50_ms", median(&wait), "ms");
    rep.info("serve.queue_wait_p99_ms", quantile(&wait, 0.99), "ms");
    rep.info("serve.recommend_p50_ms", median(&rec), "ms");
    rep.info("serve.recommend_p99_ms", quantile(&rec, 0.99), "ms");
    rep.info("serve.requests_sent", sent as f64, "count");
    rep.info("serve.requests_failed", failed as f64, "count");
    rep.info("serve.reloads", traced.reloads.ms.len() as f64, "count");
    rep.info("serve.reload_failures", traced.reloads.failures as f64, "count");
    rep.info("serve.generator_late_ms", traced.phases.iter().map(|p| p.late_ms).fold(0.0, f64::max), "ms");
    Ok(())
}
