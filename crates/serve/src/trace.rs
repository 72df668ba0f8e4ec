//! Request-lifecycle tracing for the serving tier: one [`Span`] per
//! lifecycle phase, recorded on the **simulated clock**, with dispatch
//! spans linked to the kernel-level records they produced.
//!
//! ## Span model
//!
//! A request's life is admission → queued → batch formation → dispatch
//! (per width class: a fused launch sequence; per attempt on a replicated
//! pool: replica service, retry/backoff) → completion, or one of
//! the shed exits (queue-full rejection, deadline expiry, degraded-mode
//! overload shed). Each phase is a [`SpanKind`]; instantaneous events are
//! spans with `start_ms == end_ms`. Spans carry the ids needed to join
//! them — request id, batch sequence number, replica index — plus the
//! **half-open device launch-index range** their work produced
//! ([`field@Span::launches`]), which is the link key into the device profiler:
//! [`KernelRecord::launch_idx`](nextdoor_gpu::KernelRecord::launch_idx)
//! addresses the exact kernels behind a dispatch, so one trace drills
//! from an SLO miss down to the sub-warp kernel that caused it.
//!
//! ## Clock semantics and determinism
//!
//! All span timestamps come from the simulated clock of the tier that
//! recorded them: the session clock for a single-device
//! [`MicroBatcher`](crate::MicroBatcher), the fleet clock for a
//! [`FleetBatcher`](crate::FleetBatcher). Both clocks are deterministic
//! functions of the workload, and every span is recorded on the single
//! scheduler thread in scheduling order — so the full span stream, and
//! therefore [`Tracer::digest`], is bit-identical at any host thread
//! count. No wall-clock value ever enters a span.
//!
//! [`write_fleet_trace`] renders the stream as a `chrome://tracing`
//! timeline: batcher/scheduler/queue tracks plus one track per replica on
//! the fleet process, the device profiles as their own processes (reusing
//! [`write_chrome_trace`](nextdoor_gpu::write_chrome_trace)'s layout via
//! [`ChromeTraceWriter`]), and flow arrows from each launch span to the
//! kernel slice it produced.

use std::io;
use std::path::Path;

use crate::batcher::{Priority, RequestId};
use nextdoor_gpu::{kernel_anchor, ChromeTraceWriter, GpuSpec, Profile};

/// The lifecycle phase a [`Span`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// A request entered the queue (instant).
    Admission,
    /// A request bounced at admission with `QueueFull` (instant).
    QueueReject,
    /// A request waited in the queue: admission to its batch's launch.
    Queued,
    /// A batch was formed from the queue (instant).
    Formation,
    /// A batch occupied the serving tier: launch (first attempt) to final
    /// completion, including retries and backoffs on a replicated pool.
    Dispatch,
    /// One width class's fused launch sequence within a dispatch attempt.
    ClassLaunch,
    /// One replica service attempt of a batch (replicated pool only).
    Attempt,
    /// The scheduler backed off before a retry (replicated pool only).
    Backoff,
    /// The scheduler waited out the earliest breaker cool-down.
    CooldownWait,
    /// A request was shed by degraded-mode load shedding (instant).
    OverloadShed,
    /// A request's deadline expired in the queue: admission to shed.
    Expired,
    /// A request completed past its deadline (instant, at completion).
    DeadlineMiss,
    /// A request's full life: admission to service completion.
    Completion,
    /// One shard's slice of a sharded super-step (sharded pool only):
    /// `replica` is the shard, `depth` the step index, `batch_size` the
    /// walker pairs routed to it.
    SuperStep,
    /// Walkers handed between shards during a super-step's exchange phase
    /// (instant): `replica` is the source shard, `width` the destination
    /// shard, `batch_size` the walkers moved.
    Handoff,
    /// The session's hot-transit cache was (re)installed into its device
    /// arena after a query (instant). `batch_size` carries the number of
    /// resident transits after the pass.
    CacheInstall,
}

/// One recorded lifecycle phase. Identity fields are `None` when the
/// phase has no such dimension (e.g. a batch-level span has no single
/// request id). See [`SpanKind`] for the phase taxonomy and the
/// [module docs](self) for clock semantics.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Position in the tracer's totally-ordered stream.
    pub seq: u64,
    /// The lifecycle phase.
    pub kind: SpanKind,
    /// Simulated ms at which the phase began.
    pub start_ms: f64,
    /// Simulated ms at which the phase ended (== `start_ms` for instants).
    pub end_ms: f64,
    /// The request this phase belongs to, if exactly one.
    pub request: Option<RequestId>,
    /// The dispatch (batch) sequence number this phase belongs to.
    pub batch: Option<u64>,
    /// The replica that served this phase (replicated pool only).
    pub replica: Option<usize>,
    /// Width class (initial vertices per sample), for launch spans.
    pub width: Option<usize>,
    /// Requests fused into the batch, for batch-level spans.
    pub batch_size: Option<usize>,
    /// Queue depth observed when the phase was recorded.
    pub depth: Option<usize>,
    /// The request's priority, for request-level spans.
    pub priority: Option<Priority>,
    /// Half-open device launch-index range `[start, end)` this phase
    /// produced — the span-link key into the device profiler's
    /// [`KernelRecord`](nextdoor_gpu::KernelRecord)s.
    pub launches: Option<(u64, u64)>,
    /// Whether the phase succeeded, where failure is possible (attempts
    /// and dispatches).
    pub ok: Option<bool>,
}

impl Span {
    pub(crate) fn new(kind: SpanKind, start_ms: f64, end_ms: f64) -> Self {
        Span {
            seq: 0,
            kind,
            start_ms,
            end_ms,
            request: None,
            batch: None,
            replica: None,
            width: None,
            batch_size: None,
            depth: None,
            priority: None,
            launches: None,
            ok: None,
        }
    }

    pub(crate) fn instant(kind: SpanKind, at_ms: f64) -> Self {
        Self::new(kind, at_ms, at_ms)
    }

    pub(crate) fn request(mut self, id: RequestId) -> Self {
        self.request = Some(id);
        self
    }

    pub(crate) fn batch(mut self, b: u64) -> Self {
        self.batch = Some(b);
        self
    }

    pub(crate) fn replica(mut self, r: usize) -> Self {
        self.replica = Some(r);
        self
    }

    pub(crate) fn width(mut self, w: usize) -> Self {
        self.width = Some(w);
        self
    }

    pub(crate) fn batch_size(mut self, n: usize) -> Self {
        self.batch_size = Some(n);
        self
    }

    pub(crate) fn depth(mut self, d: usize) -> Self {
        self.depth = Some(d);
        self
    }

    pub(crate) fn priority(mut self, p: Priority) -> Self {
        self.priority = Some(p);
        self
    }

    pub(crate) fn launches(mut self, range: (u64, u64)) -> Self {
        self.launches = Some(range);
        self
    }

    pub(crate) fn ok(mut self, ok: bool) -> Self {
        self.ok = Some(ok);
        self
    }

    /// The phase's simulated duration in ms (zero for instants).
    pub fn duration_ms(&self) -> f64 {
        self.end_ms - self.start_ms
    }
}

/// The span recorder: an append-only, totally-ordered stream of [`Span`]s
/// plus the batch sequence counter. One tracer serves one batcher (and
/// the backend behind it) or one sharded pool; recording happens on the
/// scheduler thread only, which is what makes the stream deterministic
/// (see the [module docs](self)).
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    spans: Vec<Span>,
    next_batch: u64,
}

impl Tracer {
    /// An empty tracer.
    pub fn new() -> Self {
        Tracer::default()
    }

    pub(crate) fn push(&mut self, mut span: Span) {
        span.seq = self.spans.len() as u64;
        self.spans.push(span);
    }

    pub(crate) fn next_batch_id(&mut self) -> u64 {
        let id = self.next_batch;
        self.next_batch += 1;
        id
    }

    /// The recorded stream, in recording (= scheduling) order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// How many spans of `kind` were recorded.
    pub fn count(&self, kind: SpanKind) -> usize {
        self.spans.iter().filter(|s| s.kind == kind).count()
    }

    /// Canonical digest: one debug-formatted line per span (f64 debug
    /// formatting is round-trip exact). Bit-identical at any host thread
    /// count; golden-pinned in `tests/determinism.rs`.
    pub fn digest(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            out.push_str(&format!("{s:?}\n"));
        }
        out
    }
}

/// The observation state one serving stack carries: its span stream and
/// its metrics registry. Owned by the [`Batcher`](crate::Batcher), which
/// lends it to its [`Backend`](crate::Backend) for each dispatch, so all
/// recording happens on the one scheduler thread in scheduling order.
#[derive(Debug, Clone, Default)]
pub struct Obs {
    pub(crate) trace: Tracer,
    pub(crate) metrics: crate::metrics::ServeMetrics,
}

/// Fleet-process track ids in the exported timeline.
const TID_BATCHER: usize = 0;
const TID_SCHEDULER: usize = 1;
const TID_REQ_BASE: usize = 10;
const REQ_LANES: u64 = 4;
const TID_REPLICA_BASE: usize = 20;

fn is_instant(kind: SpanKind) -> bool {
    matches!(
        kind,
        SpanKind::Admission
            | SpanKind::QueueReject
            | SpanKind::Formation
            | SpanKind::OverloadShed
            | SpanKind::DeadlineMiss
            | SpanKind::Handoff
            | SpanKind::CacheInstall
    )
}

fn span_tid(s: &Span) -> usize {
    match s.kind {
        SpanKind::Admission | SpanKind::QueueReject | SpanKind::Formation => TID_BATCHER,
        SpanKind::Dispatch
        | SpanKind::Backoff
        | SpanKind::CooldownWait
        | SpanKind::OverloadShed
        | SpanKind::CacheInstall => TID_SCHEDULER,
        SpanKind::Attempt | SpanKind::ClassLaunch | SpanKind::SuperStep | SpanKind::Handoff => {
            match s.replica {
                Some(r) => TID_REPLICA_BASE + r,
                None => TID_SCHEDULER,
            }
        }
        SpanKind::Queued | SpanKind::Expired | SpanKind::DeadlineMiss | SpanKind::Completion => {
            let lane = s.request.map_or(0, |id| id.0 % REQ_LANES);
            TID_REQ_BASE + lane as usize
        }
    }
}

fn span_name(kind: SpanKind) -> &'static str {
    match kind {
        SpanKind::Admission => "admit",
        SpanKind::QueueReject => "queue-reject",
        SpanKind::Queued => "queued",
        SpanKind::Formation => "form",
        SpanKind::Dispatch => "dispatch",
        SpanKind::ClassLaunch => "class-launch",
        SpanKind::Attempt => "attempt",
        SpanKind::Backoff => "backoff",
        SpanKind::CooldownWait => "cooldown-wait",
        SpanKind::OverloadShed => "overload-shed",
        SpanKind::Expired => "expired",
        SpanKind::DeadlineMiss => "deadline-miss",
        SpanKind::Completion => "request",
        SpanKind::SuperStep => "super-step",
        SpanKind::Handoff => "handoff",
        SpanKind::CacheInstall => "cache-install",
    }
}

fn span_args(s: &Span) -> String {
    let mut parts = Vec::new();
    if let Some(id) = s.request {
        parts.push(format!("\"request\":{}", id.0));
    }
    if let Some(b) = s.batch {
        parts.push(format!("\"batch\":{b}"));
    }
    if let Some(r) = s.replica {
        parts.push(format!("\"replica\":{r}"));
    }
    if let Some(w) = s.width {
        parts.push(format!("\"width\":{w}"));
    }
    if let Some(n) = s.batch_size {
        parts.push(format!("\"batch_size\":{n}"));
    }
    if let Some(d) = s.depth {
        parts.push(format!("\"queue_depth\":{d}"));
    }
    if let Some(p) = s.priority {
        parts.push(format!("\"priority\":\"{p:?}\""));
    }
    if let Some((l0, l1)) = s.launches {
        parts.push(format!("\"launch_start\":{l0},\"launch_end\":{l1}"));
    }
    if let Some(ok) = s.ok {
        parts.push(format!("\"ok\":{ok}"));
    }
    format!("{{{}}}", parts.join(","))
}

/// Writes the fleet timeline as a `chrome://tracing` / Perfetto file:
/// process 0 is the serving tier (batcher, scheduler and queue-depth
/// tracks, request lanes, one track per replica), processes 1.. are the
/// device profiles in [`write_chrome_trace`](nextdoor_gpu::write_chrome_trace)'s
/// per-SM layout, and every launch-producing span draws a flow arrow to
/// the first kernel slice of its launch range (located by
/// [`kernel_anchor`]). `devices[r]` must be replica `r`'s label and
/// profile; a single-session batcher passes its one device.
///
/// Fleet timestamps are simulated fleet-clock ms; device timestamps are
/// that device's own simulated clock. The clocks agree for a
/// single-session batcher and diverge on a pool (each replica serves only
/// part of the fleet timeline) — the flow arrows are the join key, not
/// timestamp equality.
///
/// # Errors
///
/// Any I/O error creating or writing the file.
pub fn write_fleet_trace(
    path: &Path,
    spec: &GpuSpec,
    tracer: &Tracer,
    devices: &[(&str, &Profile)],
) -> io::Result<()> {
    let ms_to_us = |ms: f64| ms * 1e3;
    let cycles_to_us = |cycles: f64| cycles / (spec.clock_ghz * 1e3);
    let mut w = ChromeTraceWriter::create(path)?;
    w.process_name(0, "fleet")?;
    w.thread_name(0, TID_BATCHER, "batcher")?;
    w.thread_name(0, TID_SCHEDULER, "scheduler")?;
    for lane in 0..REQ_LANES as usize {
        w.thread_name(0, TID_REQ_BASE + lane, &format!("requests {lane}"))?;
    }
    let replicas = tracer
        .spans()
        .iter()
        .filter_map(|s| s.replica)
        .max()
        .map_or(0, |r| r + 1);
    for r in 0..replicas {
        w.thread_name(0, TID_REPLICA_BASE + r, &format!("replica {r}"))?;
    }
    for s in tracer.spans() {
        let tid = span_tid(s);
        let args = span_args(s);
        if is_instant(s.kind) {
            w.instant(0, tid, ms_to_us(s.start_ms), span_name(s.kind), &args)?;
        } else {
            w.complete(
                0,
                tid,
                ms_to_us(s.start_ms),
                ms_to_us(s.duration_ms()),
                span_name(s.kind),
                &args,
            )?;
        }
        if let Some(d) = s.depth {
            w.counter(0, ms_to_us(s.end_ms), "queue depth", "pending", d as f64)?;
        }
        // Link launch-producing spans to the kernel slice behind them.
        if let (SpanKind::ClassLaunch | SpanKind::Attempt, Some(range)) = (s.kind, s.launches) {
            let dev = s.replica.unwrap_or(0);
            if let Some((_, sm, start_cycles)) =
                devices.get(dev).and_then(|(_, p)| kernel_anchor(p, range))
            {
                w.flow_start(s.seq, 0, tid, ms_to_us(s.start_ms))?;
                w.flow_finish(s.seq, 1 + dev, sm, cycles_to_us(start_cycles))?;
            }
        }
    }
    for (i, (label, profile)) in devices.iter().enumerate() {
        w.device(1 + i, label, spec, profile)?;
    }
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracer_orders_and_counts_spans() {
        let mut t = Tracer::new();
        t.push(Span::instant(SpanKind::Admission, 0.0).request(RequestId(1)));
        let batch = t.next_batch_id();
        t.push(Span::new(SpanKind::Dispatch, 0.0, 1.5).batch(batch));
        t.push(Span::instant(SpanKind::Admission, 2.0).request(RequestId(2)));
        assert_eq!(t.len(), 3);
        assert_eq!(t.count(SpanKind::Admission), 2);
        assert_eq!(t.spans()[1].seq, 1);
        assert_eq!(t.spans()[1].batch, Some(0));
        let d = t.digest();
        assert_eq!(d.lines().count(), 3);
        assert!(d.contains("Dispatch"));
    }

    #[test]
    fn digest_is_bit_exact_debug() {
        let mut t = Tracer::new();
        t.push(Span::new(SpanKind::Queued, 0.1, 0.30000000000000004).request(RequestId(7)));
        assert!(t.digest().contains("0.30000000000000004"));
    }

    #[test]
    fn fleet_trace_file_is_shaped() {
        let mut t = Tracer::new();
        let b = t.next_batch_id();
        t.push(Span::instant(SpanKind::Admission, 0.0).request(RequestId(0)));
        t.push(
            Span::new(SpanKind::Dispatch, 0.0, 2.0)
                .batch(b)
                .batch_size(1)
                .launches((0, 2))
                .ok(true),
        );
        t.push(
            Span::new(SpanKind::ClassLaunch, 0.0, 2.0)
                .batch(b)
                .width(1)
                .launches((0, 2)),
        );
        let dir = std::env::temp_dir();
        let path = dir.join("nextdoor_fleet_trace_test.json");
        let spec = GpuSpec::small();
        let profile = Profile::default();
        write_fleet_trace(&path, &spec, &t, &[("replica 0", &profile)]).unwrap();
        let s = std::fs::read_to_string(&path).unwrap();
        assert!(s.contains("\"traceEvents\""));
        assert!(s.contains("\"batcher\""));
        assert!(s.contains("\"scheduler\""));
        assert!(s.contains("\"dispatch\""));
        assert!(s.contains("\"class-launch\""));
        assert!(s.starts_with('{') && s.trim_end().ends_with('}'));
        std::fs::remove_file(path).ok();
    }
}
