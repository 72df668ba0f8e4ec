//! The serving tier's one batcher: request micro-batching over a
//! [`Backend`].
//!
//! [`Batcher`] is the deterministic core of the serving layer: it admits
//! requests into a bounded queue and, on every drain, forms fused
//! transit-parallel batches, dispatches each through its backend, then
//! slices results back per request. The backend is either a lone
//! [`SamplerSession`] ([`MicroBatcher`]) or a fault-tolerant
//! [`ReplicaPool`](crate::ReplicaPool)
//! ([`FleetBatcher`](crate::FleetBatcher)); the batcher owns everything
//! else — admission, formation, shedding, per-request latency, tracing and
//! metrics. Fusion is a pure throughput lever — each request's samples are
//! bit-identical to running it alone, because the engines key every RNG
//! draw by the request's own `(seed, local id)` regardless of where the
//! batcher packs it.
//!
//! **Batch formation** is width-class and deadline aware, not FIFO: the
//! step planner sizes the shared transit array from one vertices-per-sample
//! count, so only requests of equal initial width can share a launch. Each
//! formation picks the globally most *urgent* pending request (earliest
//! absolute deadline on the backend's simulated clock; [`Priority`] then
//! admission order break ties), and batches it with the up-to-
//! [`ServeConfig::max_batch`] most urgent requests of its width class — a
//! lone mismatched-width request no longer head-of-line-blocks everything
//! behind it into singleton launches. Requests whose deadline has already
//! expired while queued are shed *before* batch formation, without
//! consuming device time.
//!
//! **Degraded capacity**: when the backend reports fewer healthy units than
//! it has, the fused batch cap shrinks proportionally and excess pending
//! requests are shed lowest priority first with [`ServeError::Overloaded`].
//! A session is always one healthy unit of one, so it never degrades.
//!
//! All of this is a pure function of the queue contents and the simulated
//! clock, so serving schedules are bit-identical at any host thread count.
//! The thread that makes it a service lives in [`crate::server`].

use std::cmp::Ordering;
use std::collections::VecDeque;

use crate::error::ServeError;
use crate::metrics::ServeMetrics;
use crate::server::RequestOutcome;
use crate::trace::{Obs, Span, SpanKind, Tracer};
use nextdoor_core::api::SamplingApp;
use nextdoor_core::session::{ClassMark, FusedResult, SamplerSession, SessionQuery};
use nextdoor_core::{validate_run, EngineStats, FaultReport, SampleStore};
use nextdoor_gpu::GpuSpec;
use nextdoor_graph::{Csr, VertexId};

/// Scheduling knobs of the serving layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Most requests fused into a single launch.
    pub max_batch: usize,
    /// Bound on admitted-but-unserved requests; submissions past it are
    /// rejected with [`ServeError::QueueFull`].
    pub max_queue: usize,
    /// Deadline applied to requests that do not carry their own, in
    /// simulated milliseconds from admission to batch completion. `None`
    /// means no deadline.
    pub default_deadline_ms: Option<f64>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_batch: 8,
            max_queue: 64,
            default_deadline_ms: None,
        }
    }
}

impl ServeConfig {
    /// Checks the knobs for sanity: a zero batch cap or queue bound could
    /// never serve anything, and a non-positive (or non-finite) default
    /// deadline would reject every request it applied to.
    ///
    /// [`Batcher::new`] calls this, so a nonsensical configuration is a
    /// typed construction error rather than silently clamped behaviour.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidConfig`] naming the offending knob.
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.max_batch == 0 {
            return Err(ServeError::InvalidConfig {
                reason: "max_batch must be at least 1",
            });
        }
        if self.max_queue == 0 {
            return Err(ServeError::InvalidConfig {
                reason: "max_queue must be at least 1",
            });
        }
        if let Some(d) = self.default_deadline_ms {
            if !d.is_finite() || d <= 0.0 {
                return Err(ServeError::InvalidConfig {
                    reason: "default_deadline_ms must be finite and positive",
                });
            }
        }
        Ok(())
    }
}

/// Scheduling priority of a request. The batcher uses it as the tie-break
/// between equal deadlines when forming batches (`High` is scheduled
/// before `Normal` before `Low`), and under degraded capacity it sheds
/// strictly lowest-priority-first, so `Low` traffic absorbs degradation
/// before `Normal`, and `Normal` before `High`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Priority {
    /// Best-effort traffic: first to be shed under degraded capacity.
    Low,
    /// The default.
    #[default]
    Normal,
    /// Latency-critical traffic: shed only after everything else.
    High,
}

/// One sampling request as submitted by a client.
#[derive(Debug, Clone)]
pub struct Request {
    /// Initial vertices of each requested sample (equal widths required
    /// within the request; requests of different widths are still served,
    /// they just cannot share a fused launch).
    pub init: Vec<Vec<VertexId>>,
    /// RNG seed of the request — the samples are exactly those of a
    /// standalone `run_nextdoor` call with this seed.
    pub seed: u64,
    /// Per-request deadline in simulated milliseconds, overriding
    /// [`ServeConfig::default_deadline_ms`].
    pub deadline_ms: Option<f64>,
    /// Shedding priority under degraded capacity (see [`Priority`]).
    pub priority: Priority,
}

impl Request {
    /// A request with no deadline of its own and [`Priority::Normal`].
    pub fn new(init: Vec<Vec<VertexId>>, seed: u64) -> Self {
        Request {
            init,
            seed,
            deadline_ms: None,
            priority: Priority::Normal,
        }
    }

    /// The same request at a different shedding priority.
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// The same request with a per-request deadline, in simulated
    /// milliseconds from admission to batch completion.
    pub fn with_deadline(mut self, deadline_ms: f64) -> Self {
        self.deadline_ms = Some(deadline_ms);
        self
    }
}

/// Identifies an admitted request across `submit`/`drain` calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RequestId(pub u64);

/// Per-request latency, measured on the backend's simulated clock (the
/// same counter/profile machinery that times engine runs — see
/// [`SamplerSession::sim_ms`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestLatency {
    /// Simulated ms the request waited between admission and its batch
    /// starting.
    pub queued_ms: f64,
    /// Simulated ms of the fused batch that served the request.
    pub service_ms: f64,
    /// Admission-to-completion simulated ms (`queued_ms + service_ms`).
    pub total_ms: f64,
    /// Requests fused into the launch that served this one.
    pub batch_size: usize,
}

/// A served request: its sliced sample store plus how it was served.
#[derive(Debug, Clone)]
pub struct Response {
    /// The request's samples — bit-identical to a standalone run with the
    /// request's `(init, seed)`.
    pub store: SampleStore,
    /// Latency breakdown on the simulated clock.
    pub latency: RequestLatency,
    /// Engine statistics of the fused batch (shared by every request in
    /// it; the profile within is the batch's kernel-launch ring slice).
    pub batch_stats: EngineStats,
    /// Faults the fused batch observed and survived.
    pub report: FaultReport,
}

/// What a [`Batcher`] serves its fused batches through: a lone
/// [`SamplerSession`] or a [`ReplicaPool`](crate::ReplicaPool).
///
/// The batcher owns admission, formation, shedding and per-request
/// accounting; a backend owns only how one formed batch reaches a device
/// (routing, retries, breakers) and records its own dispatch-level
/// spans into the batcher's [`Obs`].
pub trait Backend {
    /// The simulated clock requests are admitted and timed on, in ms. A
    /// dispatch spans this clock's value before and after the call.
    fn clock_ms(&self) -> f64;

    /// The resident graph admitted requests are validated against.
    fn graph(&self) -> &Csr;

    /// The sampling application admitted requests are validated against.
    fn app(&self) -> &dyn SamplingApp;

    /// `(healthy, total)` serving units. Fewer healthy than total puts the
    /// batcher into degraded mode.
    fn health(&self) -> (usize, usize);

    /// Runs one fused batch, recording its dispatch-level spans and
    /// metrics into `obs` under batch sequence number `batch_seq`.
    ///
    /// # Errors
    ///
    /// The typed error the batcher fans out to every request of the batch.
    fn dispatch(
        &mut self,
        queries: &[SessionQuery],
        batch_seq: u64,
        obs: &mut Obs,
    ) -> Result<FusedResult, ServeError>;
}

/// Records one [`SpanKind::ClassLaunch`] span per width class of a
/// successful device run — its device-clock interval shifted onto the
/// recording clock by `dev_offset_ms` — plus the class metrics. `replica`
/// tags the spans on a replicated pool.
pub(crate) fn record_class_launches(
    obs: &mut Obs,
    batch_seq: u64,
    replica: Option<usize>,
    marks: &[ClassMark],
    spec: &GpuSpec,
    dev_offset_ms: f64,
) {
    for m in marks {
        let mut s = Span::new(
            SpanKind::ClassLaunch,
            spec.cycles_to_ms(m.start_cycles) + dev_offset_ms,
            spec.cycles_to_ms(m.end_cycles) + dev_offset_ms,
        )
        .batch(batch_seq)
        .width(m.width)
        .batch_size(m.queries)
        .launches((m.launch_start, m.launch_end));
        if let Some(r) = replica {
            s = s.replica(r);
        }
        obs.trace.push(s);
        obs.metrics.sim.batch_width.observe(m.width as f64);
    }
    obs.metrics.sim.class_launches += marks.len() as u64;
}

/// The one-device backend: its clock is the session's device clock.
impl Backend for SamplerSession {
    fn clock_ms(&self) -> f64 {
        self.sim_ms()
    }

    fn graph(&self) -> &Csr {
        SamplerSession::graph(self)
    }

    fn app(&self) -> &dyn SamplingApp {
        SamplerSession::app(self)
    }

    fn health(&self) -> (usize, usize) {
        (1, 1)
    }

    /// Records the dispatch interval with its device launch range, then
    /// (on success) the class launches, which share the session's clock.
    fn dispatch(
        &mut self,
        queries: &[SessionQuery],
        batch_seq: u64,
        obs: &mut Obs,
    ) -> Result<FusedResult, ServeError> {
        let start_ms = self.sim_ms();
        let launch0 = self.gpu().launches_issued();
        let res = self.query_fused(queries);
        obs.trace.push(
            Span::new(SpanKind::Dispatch, start_ms, self.sim_ms())
                .batch(batch_seq)
                .batch_size(queries.len())
                .launches((launch0, self.gpu().launches_issued()))
                .ok(res.is_ok()),
        );
        obs.metrics.sim.batches += 1;
        match &res {
            Ok(fused) => {
                let spec = self.gpu().spec();
                record_class_launches(obs, batch_seq, None, &fused.class_marks, spec, 0.0);
                obs.metrics.sim.batch_size.observe(queries.len() as f64);
            }
            Err(_) => obs.metrics.sim.failed += queries.len() as u64,
        }
        res.map_err(ServeError::Sampling)
    }
}

/// An admitted request waiting to be served.
struct Pending {
    id: RequestId,
    req: Request,
    /// Backend-clock instant of admission.
    admit_ms: f64,
}

/// Rejects at admission a request whose own deadline could never be met:
/// a non-positive budget is already expired before any queueing or
/// service, and a non-finite one is meaningless.
fn validate_deadline(req: &Request) -> Result<(), ServeError> {
    if let Some(d) = req.deadline_ms {
        if !d.is_finite() {
            return Err(ServeError::InvalidConfig {
                reason: "request deadline_ms must be finite",
            });
        }
        if d <= 0.0 {
            return Err(ServeError::DeadlineExceeded {
                deadline_ms: d,
                observed_ms: 0.0,
            });
        }
    }
    Ok(())
}

/// The deadline a pending request is held to, if any (its own, else the
/// configured default), in simulated ms from admission.
fn deadline_of(cfg: &ServeConfig, p: &Pending) -> Option<f64> {
    p.req.deadline_ms.or(cfg.default_deadline_ms)
}

/// Scheduling urgency order: earliest absolute deadline on the simulated
/// clock first (no deadline sorts last), [`Priority`] (descending) breaks
/// deadline ties, admission order breaks the rest — so a stream of
/// deadline-less equal-priority requests is served strictly FIFO.
fn urgency(cfg: &ServeConfig, a: &Pending, b: &Pending) -> Ordering {
    let abs = |p: &Pending| deadline_of(cfg, p).map_or(f64::INFINITY, |d| p.admit_ms + d);
    abs(a)
        .total_cmp(&abs(b))
        .then(b.req.priority.cmp(&a.req.priority))
        .then(a.id.cmp(&b.id))
}

/// Records a served request's lifecycle: its queued interval, its
/// completion span (`ok` = attained its deadline), the deadline-miss
/// marker when it finished late, and the latency histograms.
fn record_served(
    obs: &mut Obs,
    p: &Pending,
    batch_seq: u64,
    start_ms: f64,
    end_ms: f64,
    in_time: bool,
) {
    obs.trace.push(
        Span::new(SpanKind::Queued, p.admit_ms, start_ms)
            .request(p.id)
            .priority(p.req.priority)
            .batch(batch_seq),
    );
    obs.trace.push(
        Span::new(SpanKind::Completion, p.admit_ms, end_ms)
            .request(p.id)
            .priority(p.req.priority)
            .batch(batch_seq)
            .ok(in_time),
    );
    if !in_time {
        obs.trace.push(
            Span::instant(SpanKind::DeadlineMiss, end_ms)
                .request(p.id)
                .priority(p.req.priority)
                .batch(batch_seq),
        );
    }
    let sim = &mut obs.metrics.sim;
    sim.queued_ms.observe(start_ms - p.admit_ms);
    sim.service_ms.observe(end_ms - start_ms);
    sim.total_ms.observe(end_ms - p.admit_ms);
    if in_time {
        sim.completed += 1;
    } else {
        sim.deadline_missed += 1;
    }
    let pm = obs.metrics.priority_mut(p.req.priority);
    pm.total_ms.observe(end_ms - p.admit_ms);
    if in_time {
        pm.completed += 1;
    } else {
        pm.deadline_missed += 1;
    }
}

/// Admits sampling requests into a bounded queue and serves them in fused
/// batches through a [`Backend`]. See the [module docs](self).
pub struct Batcher<B> {
    pub(crate) backend: B,
    cfg: ServeConfig,
    pending: VecDeque<Pending>,
    next_id: u64,
    degraded_since: Option<f64>,
    degraded_intervals: Vec<(f64, f64)>,
    obs: Obs,
}

/// The batcher over one warm session.
pub type MicroBatcher = Batcher<SamplerSession>;

impl<B: Backend> Batcher<B> {
    /// Wraps a backend in a batcher with the given scheduling knobs.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidConfig`] when the knobs fail
    /// [`ServeConfig::validate`].
    pub fn new(backend: B, cfg: ServeConfig) -> Result<Self, ServeError> {
        cfg.validate()?;
        Ok(Batcher {
            backend,
            cfg,
            pending: VecDeque::new(),
            next_id: 0,
            degraded_since: None,
            degraded_intervals: Vec::new(),
            obs: Obs::default(),
        })
    }

    /// Admits a request, or rejects it with backpressure.
    ///
    /// Admission is where a request can be refused without touching the
    /// device: a full queue returns [`ServeError::QueueFull`], invalid
    /// inputs (empty/ragged initial samples, out-of-range roots) return
    /// [`ServeError::Sampling`], and a request whose deadline budget is
    /// already non-positive (it could never complete in time) returns
    /// [`ServeError::DeadlineExceeded`] immediately — so only runnable
    /// requests ever occupy queue slots.
    ///
    /// # Errors
    ///
    /// [`ServeError::QueueFull`], [`ServeError::Sampling`],
    /// [`ServeError::DeadlineExceeded`] and [`ServeError::InvalidConfig`]
    /// (non-finite deadline), as above.
    pub fn submit(&mut self, req: Request) -> Result<RequestId, ServeError> {
        let now = self.backend.clock_ms();
        if self.pending.len() >= self.cfg.max_queue {
            self.obs.metrics.sim.queue_rejected += 1;
            self.obs.trace.push(
                Span::instant(SpanKind::QueueReject, now)
                    .priority(req.priority)
                    .depth(self.pending.len()),
            );
            return Err(ServeError::QueueFull {
                capacity: self.cfg.max_queue,
            });
        }
        validate_deadline(&req)?;
        validate_run(self.backend.graph(), self.backend.app(), &req.init)?;
        let id = RequestId(self.next_id);
        self.next_id += 1;
        let priority = req.priority;
        self.pending.push_back(Pending {
            id,
            req,
            admit_ms: now,
        });
        self.obs.metrics.sim.admitted += 1;
        self.obs.trace.push(
            Span::instant(SpanKind::Admission, now)
                .request(id)
                .priority(priority)
                .depth(self.pending.len()),
        );
        Ok(id)
    }

    /// Serves every pending request and returns the outcomes in completion
    /// order.
    ///
    /// Before each batch formation, a degraded backend sheds the requests
    /// beyond its surviving capacity with [`ServeError::Overloaded`], and
    /// requests whose deadline already expired while queued are shed with
    /// [`ServeError::DeadlineExceeded`] without touching the device. Each
    /// batch is then formed by urgency (see [module docs](self)): the most
    /// urgent request's width class, earliest-deadline-first within it,
    /// capped at [`ServeConfig::max_batch`] (scaled by healthy capacity),
    /// run as a single fused dispatch. A request that finishes past its
    /// deadline gets [`ServeError::DeadlineExceeded`] while the rest of its
    /// batch completes normally; a batch whose dispatch fails fans the same
    /// typed error out to each of its requests and later batches are still
    /// attempted.
    pub fn drain(&mut self) -> Vec<(RequestId, RequestOutcome)> {
        let mut out = Vec::with_capacity(self.pending.len());
        loop {
            let (healthy, total) = self.backend.health();
            self.update_degradation(healthy < total);
            self.shed_excess(healthy, total, &mut out);
            let now = self.backend.clock_ms();
            self.shed_expired(now, &mut out);
            if self.pending.is_empty() {
                break;
            }
            let cap = if healthy >= total {
                self.cfg.max_batch
            } else {
                (self.cfg.max_batch * healthy / total).max(1)
            };
            let depth = self.pending.len();
            let batch = self.form_batch(cap);
            self.obs.metrics.sim.queue_depth.observe(depth as f64);
            self.obs.trace.push(
                Span::instant(SpanKind::Formation, now)
                    .depth(depth)
                    .batch_size(batch.len()),
            );
            self.run_batch(batch, &mut out);
        }
        out
    }

    /// Opens/closes the degraded-mode interval as healthy capacity crosses
    /// the full backend size.
    fn update_degradation(&mut self, degraded: bool) {
        match (degraded, self.degraded_since) {
            (true, None) => self.degraded_since = Some(self.backend.clock_ms()),
            (false, Some(start)) => {
                self.degraded_intervals
                    .push((start, self.backend.clock_ms()));
                self.degraded_since = None;
            }
            _ => {}
        }
    }

    /// Under degraded capacity, sheds pending requests beyond the scaled
    /// queue budget: strictly lowest priority first, latest-admitted first
    /// within a priority. Deterministic, and it never touches a request
    /// that fits the surviving capacity.
    fn shed_excess(
        &mut self,
        healthy: usize,
        total: usize,
        out: &mut Vec<(RequestId, RequestOutcome)>,
    ) {
        if healthy >= total {
            return;
        }
        let capacity = (self.cfg.max_queue * healthy / total).max(1);
        while self.pending.len() > capacity {
            let victim = self
                .pending
                .iter()
                .enumerate()
                .min_by_key(|(_, p)| (p.req.priority, std::cmp::Reverse(p.id)))
                .map(|(i, _)| i)
                .unwrap_or(0);
            let Some(p) = self.pending.remove(victim) else {
                break;
            };
            self.obs.metrics.sim.overload_shed += 1;
            self.obs.metrics.priority_mut(p.req.priority).overload_shed += 1;
            self.obs.trace.push(
                Span::instant(SpanKind::OverloadShed, self.backend.clock_ms())
                    .request(p.id)
                    .priority(p.req.priority)
                    .depth(healthy),
            );
            out.push((
                p.id,
                Err(ServeError::Overloaded {
                    healthy,
                    replicas: total,
                }),
            ));
        }
    }

    /// Sheds every pending request whose deadline has already expired at
    /// `now` (queue wait alone reached the budget), without consuming any
    /// device time. Remaining requests keep their admission order. Each
    /// shed is recorded as an [`SpanKind::Expired`] span and an
    /// `expired_shed` count.
    fn shed_expired(&mut self, now: f64, out: &mut Vec<(RequestId, RequestOutcome)>) {
        let mut i = 0;
        while i < self.pending.len() {
            let p = &self.pending[i];
            let expired = deadline_of(&self.cfg, p).is_some_and(|d| now - p.admit_ms >= d);
            if !expired {
                i += 1;
                continue;
            }
            if let Some(p) = self.pending.remove(i) {
                let d = deadline_of(&self.cfg, &p).unwrap_or(0.0);
                self.obs.trace.push(
                    Span::new(SpanKind::Expired, p.admit_ms, now)
                        .request(p.id)
                        .priority(p.req.priority),
                );
                self.obs.metrics.sim.expired_shed += 1;
                self.obs.metrics.priority_mut(p.req.priority).expired_shed += 1;
                out.push((
                    p.id,
                    Err(ServeError::DeadlineExceeded {
                        deadline_ms: d,
                        observed_ms: now - p.admit_ms,
                    }),
                ));
            }
        }
    }

    /// Forms the next batch: the globally most urgent pending request
    /// anchors it, and the batch is the up-to-`cap` most urgent requests of
    /// the anchor's width class, in urgency order. Other width classes stay
    /// queued for later formations. Must be called with a non-empty queue.
    fn form_batch(&mut self, cap: usize) -> Vec<Pending> {
        let cfg = &self.cfg;
        let pending = &mut self.pending;
        let anchor_width = pending
            .iter()
            .min_by(|a, b| urgency(cfg, a, b))
            .map_or(0, |p| p.req.init[0].len());
        let mut class: Vec<usize> = (0..pending.len())
            .filter(|&i| pending[i].req.init[0].len() == anchor_width)
            .collect();
        class.sort_by(|&a, &b| urgency(cfg, &pending[a], &pending[b]));
        class.truncate(cap.max(1));
        // Remove back-to-front so earlier indices stay valid, then restore
        // urgency order within the batch.
        class.sort_unstable_by(|a, b| b.cmp(a));
        let mut batch: Vec<Pending> = class
            .into_iter()
            .filter_map(|i| pending.remove(i))
            .collect();
        batch.sort_by(|a, b| urgency(cfg, a, b));
        batch
    }

    /// Dispatches one formed batch and fans its outcome out per request.
    fn run_batch(&mut self, batch: Vec<Pending>, out: &mut Vec<(RequestId, RequestOutcome)>) {
        let queries: Vec<SessionQuery> = batch
            .iter()
            .map(|p| SessionQuery {
                init: p.req.init.clone(),
                seed: p.req.seed,
            })
            .collect();
        let start_ms = self.backend.clock_ms();
        let (batch_seq, fused) = match self.dispatch(&queries) {
            Ok(dispatched) => dispatched,
            Err(e) => {
                out.extend(batch.into_iter().map(|p| (p.id, Err(e.clone()))));
                return;
            }
        };
        let end_ms = self.backend.clock_ms();
        let batch_size = batch.len();
        for (p, store) in batch.into_iter().zip(fused.per_query) {
            let observed_ms = end_ms - p.admit_ms;
            let missed = deadline_of(&self.cfg, &p).filter(|&d| observed_ms > d);
            record_served(
                &mut self.obs,
                &p,
                batch_seq,
                start_ms,
                end_ms,
                missed.is_none(),
            );
            let result = match missed {
                Some(d) => Err(ServeError::DeadlineExceeded {
                    deadline_ms: d,
                    observed_ms,
                }),
                None => Ok(Response {
                    store,
                    latency: RequestLatency {
                        queued_ms: start_ms - p.admit_ms,
                        service_ms: end_ms - start_ms,
                        total_ms: observed_ms,
                        batch_size,
                    },
                    batch_stats: fused.stats.clone(),
                    report: fused.report.clone(),
                }),
            };
            out.push((p.id, result));
        }
    }

    /// Sends a preformed batch straight to the backend, bypassing admission
    /// and formation. Its dispatch-level spans and metrics land in this
    /// batcher's trace like any formed batch's; the returned sequence
    /// number is the batch's join key into that trace.
    ///
    /// # Errors
    ///
    /// The backend's typed dispatch error.
    pub fn dispatch(&mut self, queries: &[SessionQuery]) -> Result<(u64, FusedResult), ServeError> {
        let batch_seq = self.obs.trace.next_batch_id();
        let fused = self.backend.dispatch(queries, batch_seq, &mut self.obs)?;
        Ok((batch_seq, fused))
    }

    /// Closed degraded-mode intervals on the backend clock, plus the open
    /// one (if any) closed at the current clock.
    pub(crate) fn degraded_intervals(&self) -> Vec<(f64, f64)> {
        let mut v = self.degraded_intervals.clone();
        if let Some(start) = self.degraded_since {
            v.push((start, self.backend.clock_ms()));
        }
        v
    }

    /// Requests admitted but not yet served or shed.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// The batcher's scheduling knobs.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// The recorded request-lifecycle span stream (see [`crate::trace`]):
    /// batcher and backend spans share one recorder, ordered by recording
    /// sequence.
    pub fn trace(&self) -> &Tracer {
        &self.obs.trace
    }

    /// The batcher's deterministic metrics registry (see
    /// [`crate::metrics`]).
    pub fn metrics(&self) -> &ServeMetrics {
        &self.obs.metrics
    }

    /// Records a wall-clock end-to-end latency sample into the metrics
    /// registry's (non-digested) wall histogram.
    pub fn observe_wall_ms(&mut self, ms: f64) {
        self.obs.metrics.observe_wall_ms(ms);
    }
}

impl MicroBatcher {
    /// Fused launch sequences dispatched to the device so far — the
    /// batcher's fusion effectiveness: fewer launches for the same served
    /// requests means better amortisation of per-launch fixed costs.
    /// Requests shed before dispatch consume none.
    pub fn launches(&self) -> u64 {
        self.obs.metrics.sim.class_launches
    }

    /// The underlying warm session, which alone holds any tuner and cache
    /// counters ([`SamplerSession::cache_stats`]).
    pub fn session(&self) -> &SamplerSession {
        &self.backend
    }

    /// Mutable access to the underlying session (e.g. to inject a fault
    /// plan between drains, or to enable autotuning and the hot-transit
    /// cache).
    pub fn session_mut(&mut self) -> &mut SamplerSession {
        &mut self.backend
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replica::{PoolConfig, ReplicaPool};
    use nextdoor_apps::KHop;
    use nextdoor_core::tuning::{CacheConfig, TunerConfig};
    use nextdoor_core::NextDoorError;
    use nextdoor_graph::gen::{rmat, RmatParams};

    fn graph() -> Csr {
        rmat(8, 1500, RmatParams::SKEWED, 11)
    }

    fn app() -> Box<dyn SamplingApp + Send> {
        Box::new(KHop::new(vec![2, 2]))
    }

    /// The one-device backend.
    fn session() -> SamplerSession {
        SamplerSession::new(GpuSpec::small(), graph(), app()).unwrap()
    }

    /// A one-replica fault-free pool: the same device behind the fleet's
    /// routing, retry and breaker policy.
    fn pool() -> ReplicaPool {
        ReplicaPool::replicate(&GpuSpec::small(), 1, &graph(), app, PoolConfig::default()).unwrap()
    }

    fn batcher(cfg: ServeConfig) -> MicroBatcher {
        MicroBatcher::new(session(), cfg).unwrap()
    }

    fn req(width: usize, seed: u64) -> Request {
        Request::new((0..6).map(|i| vec![i as u32; width]).collect(), seed)
    }

    fn ok_sizes(served: &[(RequestId, RequestOutcome)]) -> Vec<usize> {
        served
            .iter()
            .map(|(_, r)| r.as_ref().unwrap().latency.batch_size)
            .collect()
    }

    #[test]
    fn equal_width_requests_fuse_and_match_solo_runs() {
        fn check<B: Backend>(backend: fn() -> B) {
            let mut b = Batcher::new(backend(), ServeConfig::default()).unwrap();
            let ids: Vec<_> = (0..3).map(|s| b.submit(req(1, 50 + s)).unwrap()).collect();
            assert_eq!(b.pending_len(), 3);
            let served = b.drain();
            assert_eq!(b.pending_len(), 0);
            assert_eq!(
                served.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
                ids,
                "FIFO completion order"
            );
            // Bit-identity: each response equals the same query served
            // alone on a standalone session.
            let mut solo = session();
            for (i, (_, res)) in served.into_iter().enumerate() {
                let seed = 50 + i as u64;
                let resp = res.unwrap();
                assert_eq!(resp.latency.batch_size, 3);
                assert!(resp.latency.service_ms > 0.0);
                assert!(resp.report.is_clean());
                let want = solo.query(&req(1, seed).init, seed).unwrap();
                assert_eq!(resp.store.final_samples(), want.store.final_samples());
            }
        }
        check(session);
        check(pool);
    }

    #[test]
    fn mixed_widths_fuse_by_class_instead_of_head_of_line_blocking() {
        // Regression for the old FIFO-prefix rule: widths [1,1,2,1] used to
        // split at the width change into batches 1,1 | 2 | 1 — three
        // launches, with the trailing width-1 request degraded to a
        // singleton. Width-class formation serves all width-1 requests in
        // one launch and the width-2 request in another.
        fn check<B: Backend>(backend: fn() -> B) {
            let mut b = Batcher::new(backend(), ServeConfig::default()).unwrap();
            let ids = [
                b.submit(req(1, 1)).unwrap(),
                b.submit(req(1, 2)).unwrap(),
                b.submit(req(2, 3)).unwrap(),
                b.submit(req(1, 4)).unwrap(),
            ];
            let served = b.drain();
            assert_eq!(
                b.metrics().sim.class_launches,
                2,
                "two width classes, two launches"
            );
            let order: Vec<RequestId> = served.iter().map(|(id, _)| *id).collect();
            assert_eq!(
                order,
                vec![ids[0], ids[1], ids[3], ids[2]],
                "the width-1 class (admission order) completes first, then width-2"
            );
            assert_eq!(ok_sizes(&served), vec![3, 3, 3, 1]);
        }
        check(session);
        check(pool);
    }

    #[test]
    fn priority_breaks_scheduling_ties() {
        // With no deadlines anywhere, urgency degenerates to priority then
        // admission order: the High request jumps the queue at formation.
        fn check<B: Backend>(backend: fn() -> B) {
            let cfg = ServeConfig {
                max_batch: 1,
                ..ServeConfig::default()
            };
            let mut b = Batcher::new(backend(), cfg).unwrap();
            let normal = b.submit(req(1, 1)).unwrap();
            let high = b.submit(req(1, 2).with_priority(Priority::High)).unwrap();
            let served = b.drain();
            let order: Vec<RequestId> = served.iter().map(|(id, _)| *id).collect();
            assert_eq!(order, vec![high, normal]);
            assert!(served.iter().all(|(_, r)| r.is_ok()));
        }
        check(session);
        check(pool);
    }

    #[test]
    fn expired_requests_are_shed_without_device_time() {
        fn check<B: Backend>(backend: fn() -> B) {
            let cfg = ServeConfig {
                max_batch: 1,
                ..ServeConfig::default()
            };
            // Measure one clean singleton batch on an identical batcher...
            let mut probe = Batcher::new(backend(), cfg).unwrap();
            probe.submit(req(1, 1)).unwrap();
            let probe_served = probe.drain();
            let service_ms = probe_served[0].1.as_ref().unwrap().latency.service_ms;
            assert!(service_ms > 0.0);

            // ...then hold two requests to deadlines shorter than that. EDF
            // runs the 0.6x request first (it misses after full service);
            // by the next formation the 0.8x request's wait alone exceeds
            // its budget, so it is shed *before* dispatch: one launch total.
            let mut b = Batcher::new(backend(), cfg).unwrap();
            let first = b.submit(req(1, 1).with_deadline(0.6 * service_ms)).unwrap();
            let starved = b.submit(req(1, 2).with_deadline(0.8 * service_ms)).unwrap();
            let served = b.drain();
            assert_eq!(
                b.metrics().sim.class_launches,
                1,
                "the expired request never reaches the device"
            );
            assert_eq!(served[0].0, first);
            assert!(matches!(
                served[0].1,
                Err(ServeError::DeadlineExceeded { observed_ms, .. }) if observed_ms >= service_ms
            ));
            assert_eq!(served[1].0, starved);
            match &served[1].1 {
                Err(ServeError::DeadlineExceeded {
                    deadline_ms,
                    observed_ms,
                }) => {
                    assert!((deadline_ms - 0.8 * service_ms).abs() < 1e-12);
                    assert!(
                        *observed_ms >= *deadline_ms,
                        "shed because queue wait alone exhausted the budget"
                    );
                }
                other => panic!("starved request should be shed, got {other:?}"),
            }
        }
        check(session);
        check(pool);
    }

    #[test]
    fn invalid_config_and_deadlines_are_typed_construction_errors() {
        let err = |cfg: ServeConfig| cfg.validate().err();
        assert!(matches!(
            err(ServeConfig {
                max_batch: 0,
                ..ServeConfig::default()
            }),
            Some(ServeError::InvalidConfig { reason }) if reason.contains("max_batch")
        ));
        assert!(matches!(
            err(ServeConfig {
                max_queue: 0,
                ..ServeConfig::default()
            }),
            Some(ServeError::InvalidConfig { reason }) if reason.contains("max_queue")
        ));
        for bad in [0.0, -3.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                err(ServeConfig {
                    default_deadline_ms: Some(bad),
                    ..ServeConfig::default()
                }),
                Some(ServeError::InvalidConfig { reason }) if reason.contains("default_deadline_ms")
            ));
        }
        fn check<B: Backend>(backend: fn() -> B) {
            // The constructor applies the same validation.
            let zero_batch = ServeConfig {
                max_batch: 0,
                ..ServeConfig::default()
            };
            assert!(matches!(
                Batcher::new(backend(), zero_batch).err(),
                Some(ServeError::InvalidConfig { .. })
            ));
            // Admission rejects deadlines that are already unmeetable.
            let mut b = Batcher::new(backend(), ServeConfig::default()).unwrap();
            assert!(matches!(
                b.submit(req(1, 1).with_deadline(0.0)).err(),
                Some(ServeError::DeadlineExceeded {
                    deadline_ms,
                    observed_ms,
                }) if deadline_ms == 0.0 && observed_ms == 0.0
            ));
            assert!(matches!(
                b.submit(req(1, 1).with_deadline(-5.0)).err(),
                Some(ServeError::DeadlineExceeded { .. })
            ));
            assert!(matches!(
                b.submit(req(1, 1).with_deadline(f64::NAN)).err(),
                Some(ServeError::InvalidConfig { .. })
            ));
            assert_eq!(b.pending_len(), 0, "rejected requests hold no queue slot");
        }
        check(session);
        check(pool);
    }

    #[test]
    fn max_batch_caps_fusion() {
        fn check<B: Backend>(backend: fn() -> B) {
            let cfg = ServeConfig {
                max_batch: 2,
                ..ServeConfig::default()
            };
            let mut b = Batcher::new(backend(), cfg).unwrap();
            for s in 0..5 {
                b.submit(req(1, s)).unwrap();
            }
            assert_eq!(ok_sizes(&b.drain()), vec![2, 2, 2, 2, 1]);
        }
        check(session);
        check(pool);
    }

    #[test]
    fn full_queue_rejects_with_backpressure() {
        fn check<B: Backend>(backend: fn() -> B) {
            let cfg = ServeConfig {
                max_queue: 2,
                ..ServeConfig::default()
            };
            let mut b = Batcher::new(backend(), cfg).unwrap();
            b.submit(req(1, 1)).unwrap();
            b.submit(req(1, 2)).unwrap();
            assert_eq!(
                b.submit(req(1, 3)).err(),
                Some(ServeError::QueueFull { capacity: 2 })
            );
            b.drain();
            b.submit(req(1, 3)).expect("drained queue admits again");
        }
        check(session);
        check(pool);
    }

    #[test]
    fn invalid_requests_are_rejected_at_admission() {
        let mut b = batcher(ServeConfig::default());
        let bad = Request::new(vec![vec![u32::MAX]], 0);
        assert!(matches!(
            b.submit(bad),
            Err(ServeError::Sampling(NextDoorError::RootOutOfRange { .. }))
        ));
        assert_eq!(b.pending_len(), 0, "rejected requests hold no queue slot");
    }

    #[test]
    fn missed_deadline_is_typed_while_batchmates_complete() {
        let mut b = batcher(ServeConfig::default());
        let relaxed = b.submit(req(1, 1)).unwrap();
        // A hair above zero: admissible, but any real service time misses.
        let strict = b.submit(req(1, 2).with_deadline(1e-9)).unwrap();
        let served = b.drain();
        assert_eq!(b.launches(), 1, "both requests share one fused launch");
        // EDF puts the deadline-carrying request first in the batch.
        assert_eq!(served[0].0, strict);
        assert!(matches!(
            served[0].1,
            Err(ServeError::DeadlineExceeded { deadline_ms, .. }) if deadline_ms == 1e-9
        ));
        assert_eq!(served[1].0, relaxed);
        assert!(served[1].1.is_ok());
    }

    #[test]
    fn queue_wait_shows_up_in_latency() {
        let mut b = batcher(ServeConfig {
            max_batch: 1,
            ..ServeConfig::default()
        });
        b.submit(req(1, 1)).unwrap();
        b.submit(req(1, 2)).unwrap();
        let served = b.drain();
        let first = served[0].1.as_ref().unwrap().latency;
        let second = served[1].1.as_ref().unwrap().latency;
        assert_eq!(first.queued_ms, 0.0, "first batch starts immediately");
        assert!(
            second.queued_ms > 0.0,
            "second request waited for the first batch"
        );
        assert!((second.total_ms - second.queued_ms - second.service_ms).abs() < 1e-9);
    }

    #[test]
    fn tuned_batcher_matches_untuned_and_reports_counters() {
        let mut tuned = batcher(ServeConfig::default());
        let session = tuned.session_mut();
        session.enable_autotune(TunerConfig { warmup_queries: 1 });
        session.enable_hot_cache(CacheConfig { min_hits: 1 });
        let mut plain = batcher(ServeConfig::default());
        for round in 0..4u64 {
            for s in 0..3u64 {
                let seed = 100 + round * 3 + s;
                tuned.submit(req(1, seed)).unwrap();
                plain.submit(req(1, seed)).unwrap();
            }
            let a = tuned.drain();
            let b = plain.drain();
            assert_eq!(a.len(), b.len());
            for ((_, ra), (_, rb)) in a.into_iter().zip(b) {
                // The headline invariant: tuning and caching move launch
                // geometry and cost only — never the samples.
                assert_eq!(
                    ra.unwrap().store.final_samples(),
                    rb.unwrap().store.final_samples()
                );
            }
        }
        let t = tuned.session().cache_stats().expect("cache enabled");
        assert!(t.installs > 0, "repeated transits should be promoted");
        assert!(t.hits + t.misses > 0);
        assert!(t.sched_builds > 0);
        assert_eq!(
            plain.session().cache_stats(),
            None,
            "an untuned batcher's session keeps no cache"
        );
    }
}
