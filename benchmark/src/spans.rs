//! The traced run's span recorder and its two output files.
//!
//! Spans are recorded in the benchmark's own code around each call into a
//! layer; a span's name is `<layer>.<call>`, the layer being the module
//! that owns the call. Host-wall spans nest by call structure. Simulated-
//! clock spans are rebuilt from what the calls return (engine profiles,
//! the serving tracer, fleet reports) and live on their own tracks. Both
//! stay in memory until the run ends.

use crate::report::{json_num, metric_json, Metric};
use nextdoor_gpu::ChromeTraceWriter;
use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::time::Instant;

/// One host-wall span.
#[derive(Debug, Clone, PartialEq)]
pub struct HostSpan {
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Nanoseconds since the recorder started.
    pub start_ns: u64,
    /// Nanoseconds since the recorder started (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Request, batch or query id the span belongs to.
    pub id: Option<u64>,
}

/// One simulated-clock span, on a named track.
#[derive(Debug, Clone, PartialEq)]
pub struct SimSpan {
    /// What the interval was.
    pub name: String,
    /// Track (one per device, replica or tier).
    pub track: &'static str,
    /// Start, simulated ms.
    pub start_ms: f64,
    /// End, simulated ms.
    pub end_ms: f64,
    /// Request or batch id.
    pub id: Option<u64>,
}

/// Records spans when switched on; every call is a no-op otherwise, so
/// untraced runs pay one branch per call site.
pub struct Recorder {
    on: bool,
    t0: Instant,
    host: Vec<HostSpan>,
    open: Vec<usize>,
    sim: Vec<SimSpan>,
}

impl Recorder {
    /// A recorder; `on = false` records nothing.
    pub fn new(on: bool) -> Self {
        Recorder {
            on,
            t0: Instant::now(),
            host: Vec::new(),
            open: Vec::new(),
            sim: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, id: Option<u64>) {
        if !self.on {
            return;
        }
        let start_ns = self.now_ns();
        self.host.push(HostSpan {
            name,
            start_ns,
            end_ns: 0,
            parent: self.open.last().copied(),
            id,
        });
        self.open.push(self.host.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let end_ns = self.now_ns();
        let idx = self.open.pop().expect("end() matches a begin()");
        self.host[idx].end_ns = end_ns;
    }

    /// Records a simulated-clock span.
    pub fn sim(
        &mut self,
        track: &'static str,
        name: impl Into<String>,
        start_ms: f64,
        end_ms: f64,
        id: Option<u64>,
    ) {
        if self.on {
            self.sim.push(SimSpan {
                name: name.into(),
                track,
                start_ms,
                end_ms,
                id,
            });
        }
    }
}

/// Total length of the union of `intervals`, each clipped to `[lo, hi)`.
fn union_len(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut cur): (u64, Option<(u64, u64)>) = (0, None);
    for (s, e) in intervals {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Self time of every span: its duration minus the part of it that its
/// children cover (children may overlap each other).
pub fn self_times(spans: &[HostSpan]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| (s.end_ns - s.start_ns) - union_len(kids, s.start_ns, s.end_ns))
        .collect()
}

/// Per-layer totals of the host spans: count, busy (union of the layer's
/// spans), and self time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerTotals {
    /// Spans recorded in the layer.
    pub count: u64,
    /// Wall time with at least one of the layer's spans open, ms.
    pub busy_ms: f64,
    /// Summed self time of the layer's spans, ms.
    pub self_ms: f64,
}

/// The layer of a span or metric name: everything before the first dot.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Aggregates host spans by layer.
pub fn layer_totals(spans: &[HostSpan]) -> BTreeMap<String, LayerTotals> {
    let selfs = self_times(spans);
    let mut intervals: BTreeMap<String, Vec<(u64, u64)>> = BTreeMap::new();
    let mut out: BTreeMap<String, LayerTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let layer = layer_of(s.name).to_string();
        let t = out.entry(layer.clone()).or_default();
        t.count += 1;
        t.self_ms += self_ns as f64 / 1e6;
        intervals
            .entry(layer)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    for (layer, iv) in intervals {
        if let Some(t) = out.get_mut(&layer) {
            t.busy_ms = union_len(iv, 0, u64::MAX) as f64 / 1e6;
        }
    }
    out
}

/// Writes `<dir>/<workload>.trace.json`: host-wall spans as process 0,
/// simulated-clock spans as process 1 with one thread per track.
pub fn write_chrome_trace(path: &Path, rec: &Recorder) -> io::Result<()> {
    let mut w = ChromeTraceWriter::create(path)?;
    w.process_name(0, "host wall clock")?;
    w.thread_name(0, 0, "benchmark thread")?;
    w.process_name(1, "simulated clock")?;
    let args = |id: Option<u64>| id.map_or("{}".to_string(), |id| format!("{{\"id\":{id}}}"));
    for s in &rec.host {
        w.complete(
            0,
            0,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.name,
            &args(s.id),
        )?;
    }
    let mut tracks: Vec<&'static str> = Vec::new();
    for s in &rec.sim {
        let tid = match tracks.iter().position(|t| *t == s.track) {
            Some(i) => i,
            None => {
                tracks.push(s.track);
                w.thread_name(1, tracks.len() - 1, s.track)?;
                tracks.len() - 1
            }
        };
        let (ts, dur) = (s.start_ms * 1e3, (s.end_ms - s.start_ms) * 1e3);
        if dur > 0.0 {
            w.complete(1, tid, ts, dur, &s.name, &args(s.id))?;
        } else {
            w.instant(1, tid, ts, &s.name, &args(s.id))?;
        }
    }
    w.finish()
}

/// Writes `<dir>/<workload>.layers.json`: per layer, the host-span totals,
/// the simulated wait attributed to it, and its per-layer metrics (grouped
/// by metric-name prefix).
pub fn write_layers(
    path: &Path,
    workload: &str,
    seed: u64,
    host_cores: usize,
    rec: &Recorder,
    wait_ms: &BTreeMap<&'static str, f64>,
    metrics: &[Metric],
) -> io::Result<()> {
    let totals = layer_totals(&rec.host);
    let mut layers: Vec<String> = totals.keys().cloned().collect();
    for (name, _, _) in metrics {
        layers.push(layer_of(name).to_string());
    }
    layers.extend(wait_ms.keys().map(|s| s.to_string()));
    layers.sort();
    layers.dedup();
    let mut out = format!(
        "{{\n  \"workload\": \"{workload}\",\n  \"seed\": {seed},\n  \"host_cores\": {host_cores},\n  \"layers\": {{"
    );
    for (i, layer) in layers.iter().enumerate() {
        let t = totals.get(layer).cloned().unwrap_or_default();
        let wait = wait_ms.get(layer.as_str()).copied().unwrap_or(0.0);
        let ms: Vec<String> = metrics
            .iter()
            .filter(|(n, _, _)| layer_of(n) == layer)
            .map(metric_json)
            .collect();
        out.push_str(&format!(
            "{}\n    \"{layer}\": {{\"count\": {}, \"busy_ms\": {}, \"wait_sim_ms\": {}, \"self_ms\": {}, \"metrics\": {{{}}}}}",
            if i == 0 { "" } else { "," },
            t.count,
            json_num(t.busy_ms),
            json_num(wait),
            json_num(t.self_ms),
            ms.join(", ")
        ));
    }
    out.push_str("\n  }\n}\n");
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> HostSpan {
        HostSpan {
            name,
            start_ns,
            end_ns,
            parent,
            id: None,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("bench.epoch", 0, 100, None),
            span("session.query", 10, 40, Some(0)),
            span("engine.run_cpu", 20, 30, Some(1)),
            // Two children of the epoch that overlap each other and one
            // that pokes past the parent's end.
            span("session.query", 30, 60, Some(0)),
            span("session.query", 90, 120, Some(0)),
        ];
        let selfs = self_times(&spans);
        // Epoch: children cover [10, 60) and [90, 100) = 60.
        assert_eq!(selfs[0], 40);
        assert_eq!(selfs[1], 20);
        assert_eq!(selfs[2], 10);
        assert_eq!(selfs[3], 30);
        let totals = layer_totals(&spans);
        // session spans cover [10, 60) and [90, 120): busy 80 ns.
        assert_eq!(totals["session"].count, 3);
        assert!((totals["session"].busy_ms - 80e-6).abs() < 1e-12);
        assert!((totals["bench"].self_ms - 40e-6).abs() < 1e-12);
    }

    #[test]
    fn recorder_nests_and_switches_off() {
        let mut r = Recorder::new(true);
        r.begin("bench.epoch", None);
        r.begin("session.query", Some(3));
        r.end();
        r.end();
        assert_eq!(r.host.len(), 2);
        assert_eq!(r.host[1].parent, Some(0));
        assert!(r.host.iter().all(|s| s.end_ns >= s.start_ns));
        let mut off = Recorder::new(false);
        off.begin("bench.epoch", None);
        off.end();
        off.sim("device", "query", 0.0, 1.0, None);
        assert!(off.host.is_empty() && off.sim.is_empty());
    }
}
