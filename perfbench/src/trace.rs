//! In-memory spans for the traced run, and the order statistics every
//! metric is reported with.
//!
//! A span is recorded by the benchmark's own code around one call into a
//! layer's public API. Its name is `<layer>.<call>`; the layer is the
//! part before the first dot. Root spans carry the layer `bench`: they
//! stand for the end-to-end unit of work (a fit, a batch, a request), and
//! the per-layer self times under them must cover their duration.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

/// One timed call: `[start, end)` in nanoseconds since the tracer's
/// origin, the span that caused it, and the request (step, batch or
/// request number) it belongs to.
struct Span {
    name: &'static str,
    start: u64,
    end: u64,
    parent: Option<usize>,
    req: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Spans kept in memory and written out when the run ends.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Tracer { origin, spans: Vec::with_capacity(1 << 16) }
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Nanoseconds since the origin.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    fn now(&self) -> u64 {
        self.at(Instant::now())
    }

    /// Opens a span now; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, req: u64) -> usize {
        let start = self.now();
        self.record(name, parent, req, start, start)
    }

    pub fn end(&mut self, id: usize) {
        self.spans[id].end = self.now();
    }

    /// Records a span whose bounds were taken elsewhere.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        req: u64,
        start: u64,
        end: u64,
    ) -> usize {
        self.spans.push(Span { name, start, end, parent, req });
        self.spans.len() - 1
    }

    /// Appends spans recorded by another tracer with the same origin.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Durations in milliseconds of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns() as f64 / 1e6).collect()
    }

    /// Each span's duration minus the part its children cover.
    fn self_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_ns();
            }
        }
        self.spans.iter().zip(child).map(|(s, c)| s.dur_ns().saturating_sub(c)).collect()
    }

    /// Total self time per layer, in milliseconds.
    pub fn self_ms_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            *out.entry(s.layer()).or_insert(0.0) += own as f64 / 1e6;
        }
        out
    }

    /// Share of the root (`bench.*`) spans' time that their descendants'
    /// per-layer self times account for.
    pub fn coverage(&self) -> f64 {
        let own = self.self_ns();
        let (mut total, mut uncovered) = (0u64, 0u64);
        for (s, o) in self.spans.iter().zip(own) {
            if s.layer() == "bench" && s.parent.is_none() {
                total += s.dur_ns();
                uncovered += o;
            }
        }
        if total == 0 {
            return 0.0;
        }
        1.0 - uncovered as f64 / total as f64
    }

    /// Writes one JSON object per span, then one per layer with its
    /// self time.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                s.name, s.start, s.end, s.req
            );
        }
        for (layer, ms) in self.self_ms_by_layer() {
            let _ = writeln!(out, "{{\"layer\":\"{layer}\",\"self_ms\":{ms}}}");
        }
        std::fs::write(path, out)
    }
}

/// Linear-interpolated quantile `q` in `[0, 1]` (NaN for no samples).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
